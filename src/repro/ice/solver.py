"""Steady-state finite-volume solver for layer stacks.

The solver discretizes each layer of a :class:`~repro.ice.stack.LayerStack`
into ``n_rows x n_cols`` cells and assembles one energy balance per cell:

* solid cells exchange heat by conduction with their four lateral
  neighbours and with the cells directly above/below (series combination of
  the half-layer resistances), and receive the layer's heat-source map;
* cavity cells contain both the solid channel walls (vertical conduction
  between the neighbouring dies through the wall fraction ``1 - w_C/W``)
  and a coolant node.  The coolant node exchanges heat by convection with
  the die cells above and below (heat-transfer coefficient from the Shah &
  London correlations, wetted area of the channels crossing the cell) and
  advects enthalpy downstream along ``x`` with the capacity rate of the
  channels crossing the cell;
* all outer surfaces are adiabatic, exactly as in the analytical model, so
  the coolant is the only heat sink.

This mirrors the structure of the 3D-ICE compact model used by the paper
for validation and map rendering.

:func:`assemble_system` (equivalently ``AssembledSystem(stack)``) produces
all coefficient (COO) triplets with vectorized NumPy operations, including
the Shah & London ``heat_transfer_coefficient`` over the per-cell channel
widths.  The sparsity structure -- which depends only on the stack shape,
the layer kinds and the zero-coefficient mask -- is folded once per shape
into a :class:`~repro.core.linear_system.SparsityFold` kept in the pattern
cache both model families share, so repeated assemblies of the same
stack shape (width sweeps, an optimizer in the loop, transient re-runs)
only recompute the coefficient values.

The triplets are emitted in the per-cell order of the original
triple-nested Python-loop assembly, which lives on as the reference oracle
``tests/oracles/ice_assembly.py``.  Both share the conductance helpers of
this module and produce bit-identical matrices, right-hand sides and
capacitance vectors (the equivalence suite asserts exact equality).  The
linear systems are solved through the pluggable backends of
:mod:`repro.thermal.backends`, selected per solver via the ``backend``
argument.  The default ``sparse-lu`` backend picks its kernel from the
stack's bandwidth -- LAPACK's banded LU for single-row strips, SuperLU
under an ``A + A^T`` minimum-degree ordering for 2D grids -- and reuses
each factorization.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from ..core.linear_system import SparsityFold, cached_pattern
from ..thermal import correlations
from ..thermal.backends import SolverBackend, resolve_backend
from .results import ThermalMapResult
from .stack import CavityLayer, LayerStack, SolidLayer

__all__ = [
    "AssembledSystem",
    "SteadyStateSolver",
    "assemble_system",
]


# -- conductance helpers ---------------------------------------------------------


def _vertical_conductance_between(
    stack: LayerStack,
    lower: Union[SolidLayer, CavityLayer],
    upper: Union[SolidLayer, CavityLayer],
) -> float:
    """Solid-solid vertical conductance per cell between adjacent layers (W/K)."""
    area = stack.cell_area
    resistance = 0.0
    for layer in (lower, upper):
        if layer.is_cavity:
            raise ValueError("use the cavity coupling for cavity layers")
        resistance += layer.thickness / (
            2.0 * layer.material.thermal_conductivity * area
        )
    return 1.0 / resistance


def _lateral_conductances(stack: LayerStack, layer: SolidLayer) -> Tuple[float, float]:
    """(x-direction, y-direction) lateral conductances per cell face (W/K)."""
    k = layer.material.thermal_conductivity
    t = layer.thickness
    g_x = k * t * stack.cell_width / stack.cell_length
    g_y = k * t * stack.cell_length / stack.cell_width
    return g_x, g_y


def _cavity_row_widths(
    stack: LayerStack, layer: CavityLayer, x_centers: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Average channel width per cell and channels crossing each row.

    Channels are grouped uniformly onto the rows of the cell grid; each
    cell sees the mean width of the channels assigned to its row.
    """
    n_rows, n_cols = stack.n_rows, stack.n_cols
    n_channels = stack.channels_per_cavity()
    channels_per_row = n_channels / n_rows
    widths = layer.widths_for_channels(n_channels, stack.die_length, x_centers)
    row_of_channel = np.minimum(
        (np.arange(n_channels) * n_rows) // max(n_channels, 1), n_rows - 1
    )
    # np.add.at adds in channel order, so each row sum is bit-identical to
    # a per-channel loop's.
    row_widths = np.zeros((n_rows, n_cols))
    np.add.at(row_widths, row_of_channel, widths)
    counts = np.bincount(row_of_channel, minlength=n_rows).astype(float)
    counts[counts == 0] = 1.0
    row_widths /= counts[:, None]
    return row_widths, channels_per_row


class AssembledSystem:
    """The assembled sparse system ``A T = b`` plus the cell bookkeeping.

    Exposed separately so that the transient solver can reuse the exact same
    conduction/convection/advection matrix and only add capacitances.

    Parameters
    ----------
    stack:
        The layer stack to assemble.
    coolant_films:
        Optional mapping of cavity layer index to a film coolant record
        (an array-valued :class:`~repro.thermal.properties.CoolantState`)
        used *only* for the Shah & London heat-transfer-coefficient
        evaluation of that cavity.  The capacity rate, inlet enthalpy rhs
        and fluid capacitance keep the layer's own constant coolant, so
        the sparsity mask -- and hence the cached pattern token -- is
        unchanged and each Picard iteration is a pure value refresh.
    """

    def __init__(
        self,
        stack: LayerStack,
        coolant_films: Optional[Dict[int, object]] = None,
    ) -> None:
        self.stack = stack
        self.coolant_films = coolant_films or {}
        self.n_cells_per_layer = stack.n_rows * stack.n_cols
        self.n_unknowns = stack.n_layers * self.n_cells_per_layer
        self.rhs = np.zeros(self.n_unknowns)
        self.capacitances = np.zeros(self.n_unknowns)
        self._assemble()

    def index(self, layer: int, row: int, col: int) -> int:
        """Flat unknown index of cell ``(row, col)`` of ``layer``."""
        return (layer * self.stack.n_rows + row) * self.stack.n_cols + col

    # -- assembly --------------------------------------------------------------

    def _assemble(self) -> None:
        """Whole-array triplet construction in the loop oracle's emission order.

        Every layer contributes a ``(n_rows, n_cols, n_slots)`` block of
        row/column/value candidates whose C-order ravel reproduces the
        per-cell emission order of the reference loop exactly; structurally
        absent entries (last-column/last-row neighbours, the inlet upstream
        slot, zero wall fractions) are removed by a boolean mask, as is any
        exactly-zero coefficient (which the loop never emits).  The
        surviving entries are therefore element-for-element identical to the
        loop's triplet stream, which makes the folded matrix bit-identical to
        the loop-assembled one.
        """
        stack = self.stack
        x_centers = stack.x_centers()
        kinds: List[str] = []
        rows_parts: List[np.ndarray] = []
        cols_parts: List[np.ndarray] = []
        vals_parts: List[np.ndarray] = []
        mask_parts: List[np.ndarray] = []

        def emit(rows, cols, vals, mask):
            rows_parts.append(rows.reshape(-1))
            cols_parts.append(cols.reshape(-1))
            vals_parts.append(vals.reshape(-1))
            mask_parts.append(mask.reshape(-1))

        for layer_idx, layer in enumerate(stack.layers):
            if layer.is_cavity:
                kinds.append("cavity")
                emit(*self._cavity_triplets(layer_idx, layer, x_centers))
            else:
                kinds.append("solid")
                emit(*self._solid_triplets(layer_idx, layer))

        # Vertical coupling between directly adjacent solid layers (no cavity
        # in between).
        for lower_idx in range(stack.n_layers - 1):
            lower = stack.layers[lower_idx]
            upper = stack.layers[lower_idx + 1]
            if lower.is_cavity or upper.is_cavity:
                continue
            emit(*self._vertical_triplets(lower_idx, lower, upper))

        rows = np.concatenate(rows_parts)
        cols = np.concatenate(cols_parts)
        values = np.concatenate(vals_parts)
        mask = np.concatenate(mask_parts)
        mask &= values != 0.0
        digest = hashlib.blake2b(
            np.packbits(mask).tobytes(), digest_size=16
        ).hexdigest()
        #: Identity of the sparsity structure: stack shape, layer kinds and
        #: a digest of the zero-coefficient mask.
        self.pattern_token = ("ice", stack.n_rows, stack.n_cols, tuple(kinds), digest)
        #: The cached canonical fold of this shape's triplet stream.
        self.pattern = cached_pattern(
            self.pattern_token,
            lambda: SparsityFold(rows[mask], cols[mask], self.n_unknowns),
        )
        self._raw_values = values[mask]

    def _cell_indices(self, layer_idx: int) -> np.ndarray:
        """Flat unknown indices of one layer's cells, shape ``(n_rows, n_cols)``."""
        stack = self.stack
        offset = layer_idx * self.n_cells_per_layer
        return offset + np.arange(self.n_cells_per_layer).reshape(
            stack.n_rows, stack.n_cols
        )

    def _solid_triplets(self, layer_idx: int, layer: SolidLayer):
        """Lateral-conduction triplet block of one solid layer (8 slots/cell)."""
        stack = self.stack
        n_rows, n_cols = stack.n_rows, stack.n_cols
        g_x, g_y = _lateral_conductances(stack, layer)
        heat = layer.heat_map(n_rows, n_cols) * 1e4 * stack.cell_area  # W per cell
        capacitance = (
            layer.material.volumetric_heat_capacity
            * layer.thickness
            * stack.cell_area
        )
        start = layer_idx * self.n_cells_per_layer
        stop = start + self.n_cells_per_layer
        self.rhs[start:stop] += heat.reshape(-1)
        self.capacitances[start:stop] = capacitance

        here = self._cell_indices(layer_idx)
        east = here + 1
        south = here + n_cols
        rows = np.stack(
            [here, here, east, east, here, here, south, south], axis=-1
        )
        cols = np.stack(
            [here, east, east, here, here, south, south, here], axis=-1
        )
        vals = np.empty((n_rows, n_cols, 8))
        vals[..., 0] = g_x
        vals[..., 1] = -g_x
        vals[..., 2] = g_x
        vals[..., 3] = -g_x
        vals[..., 4] = g_y
        vals[..., 5] = -g_y
        vals[..., 6] = g_y
        vals[..., 7] = -g_y
        has_east = np.arange(n_cols)[None, :, None] + 1 < n_cols
        has_south = np.arange(n_rows)[:, None, None] + 1 < n_rows
        mask = np.empty((n_rows, n_cols, 8), dtype=bool)
        mask[..., :4] = has_east
        mask[..., 4:] = has_south
        return rows, cols, vals, mask

    def _cavity_triplets(
        self, layer_idx: int, layer: CavityLayer, x_centers: np.ndarray
    ):
        """Convection/wall/advection triplet block of one cavity (14 slots/cell)."""
        stack = self.stack
        n_rows, n_cols = stack.n_rows, stack.n_cols
        lower_idx, upper_idx = layer_idx - 1, layer_idx + 1
        lower = stack.layers[lower_idx]
        upper = stack.layers[upper_idx]
        if lower.is_cavity or upper.is_cavity:
            raise ValueError("a cavity layer must sit between two solid layers")

        row_widths, channels_per_row = _cavity_row_widths(stack, layer, x_centers)
        capacity_rate_cell = (
            layer.coolant.volumetric_heat_capacity
            * layer.flow_rate_per_channel
            * channels_per_row
        )
        fluid_capacitance = (
            layer.coolant.volumetric_heat_capacity
            * layer.channel_height
            * stack.cell_area
        )
        start = layer_idx * self.n_cells_per_layer
        self.capacitances[start : start + self.n_cells_per_layer] = fluid_capacitance

        coolant = self._cell_indices(layer_idx)
        below = coolant - self.n_cells_per_layer
        above = coolant + self.n_cells_per_layer
        self.rhs[coolant[:, 0]] += capacity_rate_cell * layer.inlet_temperature

        # Convective conductance channel->coolant for the channels crossing
        # each cell, per adjacent die (half of the wetted perimeter each), in
        # series with the half-thickness conduction of the adjacent solid
        # layer.  The Shah & London correlation is evaluated once over the
        # whole per-cell width grid -- against the per-cell film properties
        # when a Picard iteration supplied an override for this cavity.
        h = correlations.heat_transfer_coefficient(
            row_widths,
            layer.channel_height,
            self.coolant_films.get(layer_idx, layer.coolant),
        )
        wetted_per_layer = (row_widths + layer.channel_height) * (
            stack.cell_length * channels_per_row
        )
        g_convection = h * wetted_per_layer
        g_solid = []
        for solid in (lower, upper):
            half_resistance = solid.thickness / (
                2.0 * solid.material.thermal_conductivity * stack.cell_area
            )
            g_solid.append(1.0 / (half_resistance + 1.0 / g_convection))
        g_lower, g_upper = g_solid

        # Vertical conduction through the solid channel walls (fraction
        # 1 - w/W of the cell footprint), connecting the two dies directly.
        wall_fraction = np.maximum(1.0 - row_widths / layer.channel_pitch, 0.0)
        wall_area = wall_fraction * stack.cell_area
        with np.errstate(divide="ignore"):
            resistance = (
                lower.thickness
                / (2.0 * lower.material.thermal_conductivity * wall_area)
                + layer.channel_height
                / (layer.wall_material.thermal_conductivity * wall_area)
                + upper.thickness
                / (2.0 * upper.material.thermal_conductivity * wall_area)
            )
            g_wall = 1.0 / resistance

        upstream = coolant - 1
        rows = np.stack(
            [
                below, below, coolant, coolant,       # convection to the lower die
                above, above, coolant, coolant,       # convection to the upper die
                below, below, above, above,           # wall conduction
                coolant,                              # advection diagonal
                coolant,                              # upwind neighbour
            ],
            axis=-1,
        )
        cols = np.stack(
            [
                below, coolant, coolant, below,
                above, coolant, coolant, above,
                below, above, above, below,
                coolant,
                upstream,
            ],
            axis=-1,
        )
        vals = np.empty((n_rows, n_cols, 14))
        vals[..., 0] = g_lower
        vals[..., 1] = -g_lower
        vals[..., 2] = g_lower
        vals[..., 3] = -g_lower
        vals[..., 4] = g_upper
        vals[..., 5] = -g_upper
        vals[..., 6] = g_upper
        vals[..., 7] = -g_upper
        vals[..., 8] = g_wall
        vals[..., 9] = -g_wall
        vals[..., 10] = g_wall
        vals[..., 11] = -g_wall
        vals[..., 12] = capacity_rate_cell
        vals[..., 13] = -capacity_rate_cell
        mask = np.ones((n_rows, n_cols, 14), dtype=bool)
        mask[..., 8:12] = (wall_fraction > 0.0)[..., None]
        mask[:, 0, 13] = False  # the inlet column has no upstream neighbour
        return rows, cols, vals, mask

    def _vertical_triplets(
        self, lower_idx: int, lower: SolidLayer, upper: SolidLayer
    ):
        """Solid-solid vertical coupling triplet block (4 slots/cell)."""
        stack = self.stack
        g_vertical = _vertical_conductance_between(stack, lower, upper)
        a = self._cell_indices(lower_idx)
        b = a + self.n_cells_per_layer
        rows = np.stack([a, a, b, b], axis=-1)
        cols = np.stack([a, b, b, a], axis=-1)
        vals = np.empty((stack.n_rows, stack.n_cols, 4))
        vals[..., 0] = g_vertical
        vals[..., 1] = -g_vertical
        vals[..., 2] = g_vertical
        vals[..., 3] = -g_vertical
        mask = np.ones((stack.n_rows, stack.n_cols, 4), dtype=bool)
        return rows, cols, vals, mask

    # -- matrix access -----------------------------------------------------------------------

    def matrix(self) -> sparse.csr_matrix:
        """The assembled steady-state matrix ``A`` (CSR, canonical form)."""
        return self.pattern.matrix(self._raw_values)

    def split_solution(self, vector: np.ndarray) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Split a flat solution vector into per-layer maps."""
        stack = self.stack
        layer_maps: Dict[str, np.ndarray] = {}
        coolant_maps: Dict[str, np.ndarray] = {}
        for layer_idx, layer in enumerate(stack.layers):
            start = self.index(layer_idx, 0, 0)
            stop = start + self.n_cells_per_layer
            grid = vector[start:stop].reshape(stack.n_rows, stack.n_cols)
            if layer.is_cavity:
                coolant_maps[layer.name] = grid
            else:
                layer_maps[layer.name] = grid
        return layer_maps, coolant_maps


def assemble_system(stack: LayerStack) -> AssembledSystem:
    """Vectorized assembly of the finite-volume system."""
    return AssembledSystem(stack)


class SteadyStateSolver:
    """Solve the steady-state temperature field of a layer stack.

    Parameters
    ----------
    stack:
        The layer stack to solve.
    backend:
        Linear-solver backend: a registry name from
        :mod:`repro.thermal.backends` (``"auto"``, ``"sparse-lu"``,
        ``"dense"``), a backend instance, or None
        for the default (``"auto"``, which hands out ``"sparse-lu"``).
        The sparse-LU backend reuses its cached factorization across
        repeated solves of an unchanged stack.
    coolant_model:
        Optional :class:`~repro.thermal.properties.CoolantModel`.  None or
        a constant-mode model leaves the solve bit-identical to the
        constant-property path; a polynomial model wraps it in a Picard
        outer iteration (:mod:`repro.core.picard`) that refreshes the
        convective conductances from film properties at the per-cell bulk
        coolant temperatures.
    picard:
        Optional :class:`~repro.core.picard.PicardSettings` convergence
        knobs (defaults apply when omitted).  Ignored for constant models.
    """

    def __init__(
        self,
        stack: LayerStack,
        backend: Union[None, str, SolverBackend] = None,
        coolant_model=None,
        picard=None,
    ) -> None:
        self.stack = stack
        self.system = AssembledSystem(stack)
        self.backend = resolve_backend(backend)
        temperature_dependent = (
            coolant_model is not None and not coolant_model.is_constant
        )
        self.coolant_model = coolant_model if temperature_dependent else None
        self.picard = picard

    def _cavity_slices(self) -> List[Tuple[int, int, int]]:
        """``(layer_idx, start, stop)`` of every cavity layer's cells."""
        slices = []
        for layer_idx, layer in enumerate(self.stack.layers):
            if layer.is_cavity:
                start = self.system.index(layer_idx, 0, 0)
                slices.append(
                    (layer_idx, start, start + self.system.n_cells_per_layer)
                )
        return slices

    def solve(self, compute_residual: bool = True) -> ThermalMapResult:
        """Assemble and solve ``A T = b``; return per-layer thermal maps.

        Parameters
        ----------
        compute_residual:
            Report the max-norm residual of the solve in the result
            metadata.  The residual costs one extra sparse matrix-vector
            product per solve, so hot paths that solve the same stack shape
            repeatedly (width sweeps, benchmarks) pass False; the default
            keeps the diagnostic on for tests and one-off runs.
        """
        matrix = self.system.matrix()
        solution = self.backend.solve(
            matrix, self.system.rhs, self.system.pattern_token
        )
        if not np.all(np.isfinite(solution)):
            raise RuntimeError("steady-state solve produced non-finite values")
        picard_info = None
        if self.coolant_model is not None:
            solution, matrix, picard_info = self._solve_picard(solution)
        metadata = {
            "solver": "ice-steady",
            "backend": self.backend.name,
            "n_unknowns": self.system.n_unknowns,
            "grid": (self.stack.n_rows, self.stack.n_cols),
        }
        if picard_info is not None:
            metadata["picard"] = picard_info
        if compute_residual:
            residual = matrix @ solution - self.system.rhs
            metadata["residual_norm"] = float(np.max(np.abs(residual)))
        layer_maps, coolant_maps = self.system.split_solution(solution)
        return ThermalMapResult(
            layer_maps=layer_maps,
            coolant_maps=coolant_maps,
            metadata=metadata,
        )

    def _solve_picard(self, base_solution: np.ndarray):
        """Picard outer iteration over the cavity coolant temperatures.

        Each iteration builds a *fresh* :class:`AssembledSystem` with the
        film-property overrides (the rhs is accumulated with ``+=`` during
        assembly, so refreshing an existing system in place would
        double-count it); the sparsity mask is unchanged by construction
        (``h > 0``), so the pattern comes straight from the cache and only
        the value fold plus one backend factorization are paid.
        """
        from ..core.picard import (
            PicardSettings,
            picard_iterate,
            picard_metadata,
        )

        model = self.coolant_model
        settings = (
            self.picard if self.picard is not None else PicardSettings()
        )
        slices = self._cavity_slices()
        stack = self.stack
        shape = (stack.n_rows, stack.n_cols)
        last = {"matrix": None}

        def field_of(vector: np.ndarray) -> np.ndarray:
            return np.concatenate(
                [vector[start:stop] for _, start, stop in slices]
            )

        def refresh(field: np.ndarray):
            films = {}
            offset = 0
            for layer_idx, start, stop in slices:
                cells = field[offset : offset + (stop - start)]
                films[layer_idx] = model.film(cells.reshape(shape))
                offset += stop - start
            refreshed = AssembledSystem(stack, coolant_films=films)
            matrix = refreshed.matrix()
            last["matrix"] = matrix
            vector = self.backend.solve(
                matrix, refreshed.rhs, refreshed.pattern_token
            )
            return vector, field_of(vector)

        outcome = picard_iterate(
            base_solution, field_of(base_solution), refresh, settings
        )
        if outcome.fell_back or last["matrix"] is None:
            matrix = self.system.matrix()
        else:
            matrix = last["matrix"]
        info = picard_metadata(model.name, settings, outcome)
        return outcome.solution, matrix, info
