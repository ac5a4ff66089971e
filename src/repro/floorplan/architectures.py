"""Two-die 3D-MPSoC stackings of the Niagara blocks (Fig. 7 of the paper).

The paper evaluates the channel-modulation technique on three two-die
3D-MPSoC configurations built out of UltraSPARC T1 components.  Fig. 7 only
shows the layouts schematically (dies A/B for Arch. 1, C/D for Arch. 2 and
two identical dies E for Arch. 3), so the reproduction encodes the three
qualitatively distinct stacking strategies they represent:

* **Arch. 1** -- *segregated* stack: one die carries all eight cores plus
  the crossbar (hot die), the other die carries the L2 cache and periphery
  (cool die).  This concentrates power in one tier.
* **Arch. 2** -- *complementary mixed* stack: each die carries four cores
  and half the cache, with the core bands on opposite sides of the die so
  that no core sits directly above another.
* **Arch. 3** -- *aligned mixed* stack: both dies are identical (four cores
  plus half the cache), so the core bands overlap vertically, producing the
  strongest localized hotspots.

Each architecture exposes the top/bottom die floorplans and helpers to build
the cavity model (for the analytical solver) or the layer stack (for the
finite-volume simulator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ExperimentConfig, DEFAULT_EXPERIMENT
from ..thermal.geometry import MultiChannelStructure, WidthProfile
from ..thermal.multichannel import cavity_from_flux_maps
from .blocks import Floorplan, PowerScenario
from .niagara import compute_die, memory_die, mixed_die

__all__ = ["Architecture", "ARCHITECTURES", "get_architecture", "architecture_names"]


@dataclass(frozen=True)
class Architecture:
    """A two-die liquid-cooled 3D-MPSoC configuration.

    Attributes
    ----------
    name:
        Architecture name (``"arch1"``, ``"arch2"``, ``"arch3"``).
    description:
        One-line description of the stacking strategy.
    top_die / bottom_die:
        Floorplans of the two active dies facing the inter-tier cavity.
    """

    name: str
    description: str
    top_die: Floorplan
    bottom_die: Floorplan

    @property
    def die_length(self) -> float:
        """Die extent along the flow direction (meters)."""
        return self.top_die.die_length

    @property
    def die_width(self) -> float:
        """Die extent across the flow direction (meters)."""
        return self.top_die.die_width

    def total_power(self, scenario: PowerScenario = "peak") -> float:
        """Total stack power (W) in the requested scenario."""
        return self.top_die.total_power(scenario) + self.bottom_die.total_power(
            scenario
        )

    def flux_maps(
        self, n_cols: int, n_rows: int, scenario: PowerScenario = "peak"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rasterized (top, bottom) heat-flux maps in W/cm^2 (cached, read-only)."""
        return (
            self.top_die.power_density_map(n_cols, n_rows, scenario),
            self.bottom_die.power_density_map(n_cols, n_rows, scenario),
        )

    def cavity(
        self,
        scenario: PowerScenario = "peak",
        config: ExperimentConfig = DEFAULT_EXPERIMENT,
        n_lanes: Optional[int] = None,
        n_cols: int = 50,
        width_profiles: Optional[Sequence[WidthProfile]] = None,
    ) -> MultiChannelStructure:
        """Build the analytical multi-channel cavity model of this stack.

        The die is spanned by ``die_width / W`` physical channels; they are
        clustered into ``n_lanes`` modeled lanes (defaulting to the
        experiment configuration) as permitted by the multi-channel
        extension of Sec. III.
        """
        lanes = config.n_lanes if n_lanes is None else int(n_lanes)
        if lanes < 1:
            raise ValueError("n_lanes must be at least 1")
        n_channels = int(round(self.die_width / config.params.channel_pitch))
        cluster_size = max(int(np.ceil(n_channels / lanes)), 1)
        n_rows = max(lanes * 4, 40)
        top, bottom = self.flux_maps(n_cols, n_rows, scenario)
        return cavity_from_flux_maps(
            top,
            bottom,
            params=config.params.with_overrides(channel_length=self.die_length),
            die_length=self.die_length,
            die_width=self.die_width,
            cluster_size=cluster_size,
            width_profiles=width_profiles,
        )

    def per_channel_width_profiles(
        self,
        lane_profiles: Sequence[WidthProfile],
        config: ExperimentConfig = DEFAULT_EXPERIMENT,
    ) -> List[WidthProfile]:
        """Expand per-lane width profiles onto the physical channels.

        The analytical cavity clusters the ``die_width / W`` physical
        channels into a few modeled lanes; the finite-volume simulator
        instead wants one profile per physical channel.  Each channel
        inherits the profile of the lane it belongs to -- using the same
        sequential ``ceil(n_channels / n_lanes)``-sized clusters as
        :meth:`cavity` -- so a design optimized on the clustered model is
        rendered (or re-validated) on exactly the geometry it describes.
        """
        profiles = list(lane_profiles)
        if not profiles:
            raise ValueError("at least one lane profile is required")
        n_channels = int(round(self.die_width / config.params.channel_pitch))
        cluster_size = max(int(np.ceil(n_channels / len(profiles))), 1)
        return [
            profiles[min(i // cluster_size, len(profiles) - 1)]
            for i in range(n_channels)
        ]

    def summary(self) -> Dict[str, float]:
        """Scalar metrics for reports."""
        return {
            "name": self.name,
            "peak_power_W": self.total_power("peak"),
            "average_power_W": self.total_power("average"),
            "die_length_mm": self.die_length * 1e3,
            "die_width_mm": self.die_width * 1e3,
        }


def _arch1() -> Architecture:
    return Architecture(
        name="arch1",
        description="segregated stack: compute die over memory die",
        top_die=compute_die("arch1-top-compute"),
        bottom_die=memory_die("arch1-bottom-memory"),
    )


def _arch2() -> Architecture:
    return Architecture(
        name="arch2",
        description="complementary mixed dies: core bands on opposite sides",
        top_die=mixed_die("arch2-top-mixed", cores_at_bottom=True),
        bottom_die=mixed_die("arch2-bottom-mixed", cores_at_bottom=False),
    )


def _arch3() -> Architecture:
    return Architecture(
        name="arch3",
        description="aligned mixed dies: identical dies, cores stacked",
        top_die=mixed_die("arch3-top-mixed", cores_at_bottom=True),
        bottom_die=mixed_die("arch3-bottom-mixed", cores_at_bottom=True),
    )


ARCHITECTURES: Dict[str, Architecture] = {
    "arch1": _arch1(),
    "arch2": _arch2(),
    "arch3": _arch3(),
}


def architecture_names() -> List[str]:
    """Names of the available architectures, in the paper's order."""
    return list(ARCHITECTURES)


def get_architecture(name: str) -> Architecture:
    """Look up an architecture by name (``"arch1"``, ``"arch2"``, ``"arch3"``)."""
    try:
        return ARCHITECTURES[name]
    except KeyError as error:
        raise ValueError(
            f"unknown architecture {name!r}; available: {architecture_names()}"
        ) from error
