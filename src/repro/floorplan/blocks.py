"""Block-level floorplans and power models.

A :class:`Block` is an axis-aligned rectangle of a die with a peak and an
average power dissipation; a :class:`Floorplan` is a set of non-overlapping
blocks covering (part of) a die.  Floorplans rasterize themselves into areal
heat-flux maps (W/cm^2) on an arbitrary grid -- these maps feed both the
analytical multi-channel model (via
:func:`repro.thermal.multichannel.cavity_from_flux_maps`) and the
finite-volume simulator (:mod:`repro.ice`).  A raster depends only on the
floorplan, the grid and the power scenario -- not on the flow rate or the
model family -- so each one is built once per process and served read-only
from a bounded LRU memo.

Coordinate convention: ``x`` is the coolant-flow direction (inlet at
``x = 0``), ``y`` is the lateral direction across the channels.  Rasterized
maps have shape ``(n_rows, n_cols) = (n_y, n_x)`` with row 0 at ``y = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..core.lru import BoundedLRU

__all__ = ["Block", "Floorplan", "PowerScenario"]

#: The two power scenarios evaluated in Fig. 8 of the paper.
PowerScenario = str
PEAK: PowerScenario = "peak"
AVERAGE: PowerScenario = "average"

#: Rasters kept process-wide.  A campaign sweep asks for each
#: (floorplan, grid, scenario) map once per flow rate; the Fig. 7 sweeps
#: touch 24 distinct maps (3 architectures x 2 dies x 2 grids x 2 powers).
_RASTER_CACHE_SIZE = 32
_RASTER_CACHE = BoundedLRU(_RASTER_CACHE_SIZE)


@dataclass(frozen=True)
class Block:
    """One functional block of a die.

    Attributes
    ----------
    name:
        Block name (e.g. ``"sparc0"``, ``"l2_bank1"``, ``"crossbar"``).
    x, y:
        Lower-left corner in meters (x along the flow direction).
    width, height:
        Extents along x and y in meters.
    peak_power_density:
        Worst-case heat flux in W/cm^2 (the paper's peak scenario).
    average_power_density:
        Average heat flux in W/cm^2 (the paper's average scenario).
    kind:
        Free-form category tag (``"core"``, ``"cache"``, ``"interconnect"``,
        ``"other"``), used by reports and layout re-arrangement helpers.
    """

    name: str
    x: float
    y: float
    width: float
    height: float
    peak_power_density: float
    average_power_density: float
    kind: str = "other"

    def __post_init__(self) -> None:
        if self.width <= 0.0 or self.height <= 0.0:
            raise ValueError(f"block {self.name!r} must have positive extents")
        if self.x < 0.0 or self.y < 0.0:
            raise ValueError(f"block {self.name!r} must lie in the first quadrant")
        if self.peak_power_density < 0.0 or self.average_power_density < 0.0:
            raise ValueError(f"block {self.name!r} power densities must be >= 0")
        if self.average_power_density > self.peak_power_density + 1e-12:
            raise ValueError(
                f"block {self.name!r}: average power density exceeds the peak"
            )

    @property
    def area(self) -> float:
        """Block area in m^2."""
        return self.width * self.height

    @property
    def bounds(self) -> Tuple[float, float, float, float]:
        """``(x_min, y_min, x_max, y_max)`` in meters."""
        return (self.x, self.y, self.x + self.width, self.y + self.height)

    def power(self, scenario: PowerScenario = PEAK) -> float:
        """Total block power (W) in the requested scenario."""
        return self.power_density(scenario) * 1e4 * self.area

    def power_density(self, scenario: PowerScenario = PEAK) -> float:
        """Heat flux (W/cm^2) in the requested scenario."""
        if scenario == PEAK:
            return self.peak_power_density
        if scenario == AVERAGE:
            return self.average_power_density
        raise ValueError(f"unknown power scenario {scenario!r}")

    def translated(self, dx: float, dy: float) -> "Block":
        """A copy of the block shifted by ``(dx, dy)`` meters."""
        return replace(self, x=self.x + dx, y=self.y + dy)

    def overlaps(self, other: "Block") -> bool:
        """True if the two block rectangles overlap with positive area."""
        ax0, ay0, ax1, ay1 = self.bounds
        bx0, by0, bx1, by1 = other.bounds
        return (ax0 < bx1 and bx0 < ax1) and (ay0 < by1 and by0 < ay1)


@dataclass(frozen=True)
class Floorplan:
    """A die floorplan: die extents plus a list of non-overlapping blocks.

    Attributes
    ----------
    name:
        Floorplan name (e.g. ``"niagara-compute"``).
    die_length:
        Die extent along the flow direction ``x`` (meters).
    die_width:
        Die extent across the flow direction ``y`` (meters).
    blocks:
        The functional blocks.  Blocks must fit inside the die and must not
        overlap; regions not covered by any block dissipate
        ``background_power_density``.
    background_power_density:
        Heat flux (W/cm^2) of the un-allocated die area (global routing,
        decap fill, ...), applied identically in both scenarios.
    """

    name: str
    die_length: float
    die_width: float
    blocks: Tuple[Block, ...] = field(default_factory=tuple)
    background_power_density: float = 0.0

    def __post_init__(self) -> None:
        if self.die_length <= 0.0 or self.die_width <= 0.0:
            raise ValueError("die extents must be positive")
        if self.background_power_density < 0.0:
            raise ValueError("background power density must be >= 0")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        for block in self.blocks:
            x0, y0, x1, y1 = block.bounds
            if x1 > self.die_length * (1 + 1e-9) or y1 > self.die_width * (1 + 1e-9):
                raise ValueError(
                    f"block {block.name!r} does not fit inside die "
                    f"{self.name!r} ({self.die_length} x {self.die_width} m)"
                )
        names = [block.name for block in self.blocks]
        if len(names) != len(set(names)):
            raise ValueError("block names must be unique within a floorplan")
        for i, first in enumerate(self.blocks):
            for second in self.blocks[i + 1 :]:
                if first.overlaps(second):
                    raise ValueError(
                        f"blocks {first.name!r} and {second.name!r} overlap"
                    )

    # -- queries --------------------------------------------------------------

    @property
    def area(self) -> float:
        """Die area in m^2."""
        return self.die_length * self.die_width

    def block(self, name: str) -> Block:
        """Look up a block by name."""
        for candidate in self.blocks:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no block named {name!r} in floorplan {self.name!r}")

    def blocks_of_kind(self, kind: str) -> List[Block]:
        """All blocks with the given category tag."""
        return [block for block in self.blocks if block.kind == kind]

    def total_power(self, scenario: PowerScenario = PEAK) -> float:
        """Total die power (W), including the background fill."""
        block_power = sum(block.power(scenario) for block in self.blocks)
        covered = sum(block.area for block in self.blocks)
        background = self.background_power_density * 1e4 * (self.area - covered)
        return block_power + background

    def power_density_range(
        self, scenario: PowerScenario = PEAK
    ) -> Tuple[float, float]:
        """``(min, max)`` heat flux over the die (W/cm^2), including background."""
        densities = [block.power_density(scenario) for block in self.blocks]
        covered = sum(block.area for block in self.blocks)
        if covered < self.area * (1 - 1e-9):
            densities.append(self.background_power_density)
        return (min(densities), max(densities))

    # -- rasterization -------------------------------------------------------------

    def power_density_map(
        self,
        n_cols: int,
        n_rows: int,
        scenario: PowerScenario = PEAK,
    ) -> np.ndarray:
        """Rasterize the floorplan into a ``(n_rows, n_cols)`` heat-flux map.

        Cell values are area-weighted averages of the block heat fluxes
        (W/cm^2) covering each cell, so the total power is preserved exactly
        regardless of the grid resolution.

        The map is cached process-wide on ``(floorplan, n_cols, n_rows,
        scenario)`` and returned read-only: every caller of one key shares
        the same array, so copy it before writing into it.
        """
        if n_cols < 1 or n_rows < 1:
            raise ValueError("the raster grid must have at least one cell")
        return _RASTER_CACHE.get_or_build(
            (self, n_cols, n_rows, scenario),
            lambda: self._rasterize(n_cols, n_rows, scenario),
        )[0]

    def _rasterize(
        self, n_cols: int, n_rows: int, scenario: PowerScenario
    ) -> np.ndarray:
        x_edges = np.linspace(0.0, self.die_length, n_cols + 1)
        y_edges = np.linspace(0.0, self.die_width, n_rows + 1)
        cell_area = (x_edges[1] - x_edges[0]) * (y_edges[1] - y_edges[0])
        flux = np.full((n_rows, n_cols), self.background_power_density, dtype=float)
        for block in self.blocks:
            bx0, by0, bx1, by1 = block.bounds
            x_overlap = np.clip(
                np.minimum(bx1, x_edges[1:]) - np.maximum(bx0, x_edges[:-1]),
                0.0,
                None,
            )
            y_overlap = np.clip(
                np.minimum(by1, y_edges[1:]) - np.maximum(by0, y_edges[:-1]),
                0.0,
                None,
            )
            overlap = np.outer(y_overlap, x_overlap)
            fraction = overlap / cell_area
            flux += fraction * (
                block.power_density(scenario) - self.background_power_density
            )
        flux.flags.writeable = False
        return flux

    def power_map(
        self, n_cols: int, n_rows: int, scenario: PowerScenario = PEAK
    ) -> np.ndarray:
        """Per-cell power map in W (heat flux times cell area)."""
        density = self.power_density_map(n_cols, n_rows, scenario)
        cell_area_cm2 = (self.die_length / n_cols) * (self.die_width / n_rows) * 1e4
        return density * cell_area_cm2

    # -- transformations -------------------------------------------------------------

    def mirrored_y(self) -> "Floorplan":
        """Mirror the floorplan across the horizontal midline of the die."""
        mirrored = tuple(
            replace(block, y=self.die_width - block.y - block.height)
            for block in self.blocks
        )
        return replace(self, blocks=mirrored, name=f"{self.name}-mirrored")

    def with_blocks(self, blocks: Iterable[Block]) -> "Floorplan":
        """A copy of the floorplan with a different block list."""
        return replace(self, blocks=tuple(blocks))

    def summary(self, scenario: PowerScenario = PEAK) -> Dict[str, float]:
        """Scalar metrics for reports."""
        low, high = self.power_density_range(scenario)
        return {
            "total_power_W": self.total_power(scenario),
            "min_flux_W_per_cm2": low,
            "max_flux_W_per_cm2": high,
            "n_blocks": float(len(self.blocks)),
        }
