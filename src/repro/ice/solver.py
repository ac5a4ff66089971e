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
cache both model families share.

The operator is affine in flow, ``A(q) = A_fixed + q A_adv`` and
``b(q) = b_heat + q b_inlet``: the convection uses the fully developed
Nusselt number, so only the advection slots and the inlet-enthalpy rhs
see the flow rate, and power enters only the rhs.  Every
:class:`AssembledSystem` is therefore a flow-free *base* of its stack
geometry plus one write.  The base -- masked triplet values, pattern,
capacitances, each cavity's row widths and advection/convection
positions -- is built by the triplet emitters once per geometry and kept
in a process-wide LRU keyed on the stack's flow- and power-free content
(:func:`base_cache_info`, :func:`clear_base_cache`); a system copies the
base values, writes ``±_capacity_rate`` at each cavity's advection
positions, folds them and computes the rhs from the heat maps and inlet
temperatures; :meth:`AssembledSystem.at_flow` redoes just that flow
write.  Flow sweeps, flow policies and power sweeps of one stack thus pay
the triplet construction once per process.  Stacks with a callable width
profile have no content key and build their base uncached.
:meth:`AssembledSystem.refreshed` re-evaluates just the cavity convection
values for a Picard pass over the same base and shares everything else.

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

import copy
import hashlib
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..core.linear_system import SparsityFold, cached_pattern
from ..core.lru import BoundedLRU
from ..core.picard import picard_solve
from ..thermal import correlations
from ..thermal.backends import SolverBackend, resolve_backend
from ..thermal.geometry import WidthProfile
from .results import ThermalMapResult
from .stack import CavityLayer, LayerStack, SolidLayer

__all__ = [
    "AssembledSystem",
    "FlowSplit",
    "SteadyStateSolver",
    "assemble_system",
    "base_cache_info",
    "clear_base_cache",
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


def _capacity_rate(stack: LayerStack, layer: CavityLayer) -> float:
    """Coolant capacity rate (W/K) of the channels crossing one cell row."""
    channels_per_row = stack.channels_per_cavity() / stack.n_rows
    return (
        layer.coolant.volumetric_heat_capacity
        * layer.flow_rate_per_channel
        * channels_per_row
    )


#: Coefficient signs of a two-node coupling's four triplet slots.
_COUPLING = np.array([1.0, -1.0, 1.0, -1.0])

#: Triplet slots per cavity cell; the first eight hold the film-dependent
#: convection entries.
_CAVITY_SLOTS = 14


class _CavityBase(NamedTuple):
    """One cavity's flow-free share of a :class:`_StackBase`."""

    layer: int
    #: Mean channel width per cell and channels crossing each row.
    row_widths: np.ndarray
    channels_per_row: float
    #: Masked-stream positions of the convection slots 0-7, ``(n_rows, n_cols, 8)``.
    convection: np.ndarray
    #: Masked-stream positions of the advection diagonal (slot 12) and of
    #: the upwind neighbour (slot 13, absent in the inlet column).
    diagonal: np.ndarray
    upwind: np.ndarray


class _StackBase(NamedTuple):
    """Everything of an assembled stack that neither flow nor power touches.

    Built once per stack geometry by :meth:`AssembledSystem._build_base`
    and shared, read-only, by every system of that geometry; it holds
    arrays, never the stack.
    """

    pattern_token: tuple
    pattern: SparsityFold
    #: Masked raw value stream; the advection slots hold the capacity rate
    #: of the stack the base was built from and are overwritten per system.
    values: np.ndarray
    capacitances: np.ndarray
    cavities: Tuple[_CavityBase, ...]


class FlowSplit(NamedTuple):
    """A system's operator and rhs split into flow-free and flow-proportional shares.

    At ``s`` times the system's flow the matrix is ``fixed + s * advection``
    and the rhs is ``heat + s * inlet``; the four arrays are exact pieces of
    the system's own values (the shares have disjoint support in the raw
    triplet stream and in the rhs), so ``s = 1`` gives its matrix and rhs.
    """

    #: Conduction, convection and wall entries (CSR, the system's pattern).
    fixed: object
    #: ``±_capacity_rate`` at each cavity's advection positions (CSR).
    advection: object
    #: Heat sources of the solid layers.
    heat: np.ndarray
    #: The cavities' inlet enthalpy.
    inlet: np.ndarray


#: Stack geometries whose flow-free base is kept.
_BASE_CACHE_SIZE = 32
_BASE_CACHE = BoundedLRU(_BASE_CACHE_SIZE)


def clear_base_cache() -> None:
    """Drop every cached flow-free stack base (used by tests and benchmarks)."""
    _BASE_CACHE.clear()


def base_cache_info() -> dict:
    """Size, capacity and hit/miss/eviction counts of the stack-base cache."""
    return _BASE_CACHE.stats()


def _profile_key(profile) -> Optional[tuple]:
    """Content key of a cavity's width profile(s), None when not keyable."""
    if profile is None:
        return ("default",)
    shared = isinstance(profile, WidthProfile)
    keys = tuple(
        p.fingerprint() if isinstance(p, WidthProfile) else None
        for p in ([profile] if shared else profile)
    )
    if any(key is None for key in keys):
        return None
    return ("shared" if shared else "per-channel", keys)


def _base_key(stack: LayerStack) -> Optional[tuple]:
    """The flow- and power-free content of ``stack``, None when not keyable.

    Covers everything the triplets, the mask, the pattern and the
    capacitances read -- die extents, grid, each solid layer's material and
    thickness, each cavity's height, pitch, width profile(s), coolant and
    wall material -- and nothing that only the flow/power write reads: the
    flow rate, the inlet temperature, the heat sources and the layer
    names.  Callable width profiles have no content key.
    """
    layers = []
    for layer in stack.layers:
        if not layer.is_cavity:
            layers.append((layer.material, layer.thickness))
            continue
        profile = _profile_key(layer.width_profile)
        if profile is None:
            return None
        layers.append(
            (
                layer.channel_height,
                layer.channel_pitch,
                profile,
                layer.coolant,
                layer.wall_material,
            )
        )
    return (
        stack.die_length,
        stack.die_width,
        stack.n_rows,
        stack.n_cols,
        tuple(layers),
    )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class AssembledSystem:
    """The assembled sparse system ``A T = b`` plus the cell bookkeeping.

    ``matrix``, ``rhs``, ``pattern`` and ``pattern_token`` are attributes,
    as on the finite-difference
    :class:`~repro.thermal.assembly.AssembledSystem`; ``capacitances``
    holds the per-cell heat capacities of the transient solver.

    Every system is a flow-free base of its stack geometry plus one
    flow/power write: the base (masked triplet values, pattern,
    capacitances, per-cavity row widths and slot positions) comes from a
    process-wide LRU keyed on the
    stack's flow- and power-free content and is built by :meth:`_triplets`
    only on a miss; the system then writes ``±_capacity_rate`` into each
    cavity's advection slots, folds the values and computes the rhs from
    the heat maps and inlet temperatures.  :meth:`at_flow` redoes the
    flow write at another flow and :meth:`refreshed` re-evaluates the
    cavity convection against film coolant properties; both share
    everything else.
    """

    def __init__(self, stack: LayerStack) -> None:
        self.stack = stack
        self.n_cells_per_layer = stack.n_rows * stack.n_cols
        self.n_unknowns = stack.n_layers * self.n_cells_per_layer
        key = _base_key(stack)
        if key is None:
            base = self._build_base()
        else:
            base = _BASE_CACHE.get_or_build(key, self._build_base)[0]
        self._base = base
        #: Identity of the sparsity structure: stack shape, layer kinds and
        #: a digest of the zero-coefficient mask.
        self.pattern_token = base.pattern_token
        #: The cached canonical fold of this shape's triplet stream.
        self.pattern = base.pattern
        self.capacitances = base.capacitances
        #: This system's flow relative to its stack's (:meth:`at_flow`).
        self.flow_factor = 1.0
        values = base.values.copy()
        self._write_advection(values, 1.0)
        self._values = values
        #: The steady-state matrix ``A`` (CSR, canonical form).
        self.matrix = self.pattern.matrix(values)
        #: Heat sources of the solid layers plus the cavities' inlet enthalpy.
        self.rhs = self._rhs()

    def index(self, layer: int, row: int, col: int) -> int:
        """Flat unknown index of cell ``(row, col)`` of ``layer``."""
        return (layer * self.stack.n_rows + row) * self.stack.n_cols + col

    # -- assembly --------------------------------------------------------------

    def _triplets(self):
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

        Returns the raw-stream offset of every layer's block, each cavity's
        ``(row_widths, channels_per_row)`` by layer index, and the raw rows,
        columns, values and mask.
        """
        stack = self.stack
        x_centers = stack.x_centers()
        blocks = []
        starts: List[int] = []
        widths: Dict[int, Tuple[np.ndarray, float]] = {}
        for layer_idx, layer in enumerate(stack.layers):
            starts.append(sum(block[0].size for block in blocks))
            if layer.is_cavity:
                block, widths[layer_idx] = self._cavity_triplets(
                    layer_idx, layer, x_centers
                )
                blocks.append(block)
            else:
                blocks.append(self._solid_triplets(layer_idx, layer))

        # Vertical coupling between directly adjacent solid layers (no cavity
        # in between).
        for lower_idx in range(stack.n_layers - 1):
            lower = stack.layers[lower_idx]
            upper = stack.layers[lower_idx + 1]
            if lower.is_cavity or upper.is_cavity:
                continue
            blocks.append(self._vertical_triplets(lower_idx, lower, upper))

        rows, cols, values, mask = (
            np.concatenate([array.reshape(-1) for array in arrays])
            for arrays in zip(*blocks)
        )
        mask &= values != 0.0
        return starts, widths, rows, cols, values, mask

    def _build_base(self) -> _StackBase:
        """The flow-free base of this system's stack geometry."""
        stack = self.stack
        starts, widths, rows, cols, values, mask = self._triplets()
        kinds = tuple(
            "cavity" if layer.is_cavity else "solid" for layer in stack.layers
        )
        digest = hashlib.blake2b(
            np.packbits(mask).tobytes(), digest_size=16
        ).hexdigest()
        pattern_token = ("ice", stack.n_rows, stack.n_cols, kinds, digest)
        pattern = cached_pattern(
            pattern_token,
            lambda: SparsityFold(rows[mask], cols[mask], self.n_unknowns),
        )
        # Masked-stream position of every raw entry (valid where kept).
        position = np.cumsum(mask) - 1
        shape = (stack.n_rows, stack.n_cols, _CAVITY_SLOTS)
        cavities = []
        for layer_idx, (row_widths, channels_per_row) in widths.items():
            raw = starts[layer_idx] + np.arange(np.prod(shape)).reshape(shape)
            cavities.append(
                _CavityBase(
                    layer_idx,
                    _read_only(row_widths),
                    channels_per_row,
                    _read_only(position[raw[..., :8]]),
                    _read_only(position[raw[..., 12]].ravel()),
                    _read_only(position[raw[:, 1:, 13]].ravel()),
                )
            )
        return _StackBase(
            pattern_token,
            pattern,
            _read_only(values[mask]),
            _read_only(self._capacitances()),
            tuple(cavities),
        )

    def _write_advection(self, values: np.ndarray, factor: float) -> None:
        """Write ``±factor * _capacity_rate`` at every cavity's advection positions."""
        stack = self.stack
        for cavity in self._base.cavities:
            rate = factor * _capacity_rate(stack, stack.layers[cavity.layer])
            values[cavity.diagonal] = rate
            values[cavity.upwind] = -rate

    def _write_inlet(self, rhs: np.ndarray, factor: float) -> None:
        """Write ``factor * _capacity_rate * T_inlet`` at every cavity's inlet column."""
        stack = self.stack
        grid = rhs.reshape(stack.n_layers, stack.n_rows, stack.n_cols)
        for cavity in self._base.cavities:
            layer = stack.layers[cavity.layer]
            grid[cavity.layer, :, 0] = (
                factor * _capacity_rate(stack, layer) * layer.inlet_temperature
            )

    def at_flow(self, factor: float) -> "AssembledSystem":
        """This system at ``factor`` times its stack's flow.

        The advection slots and the inlet rhs are rewritten at ``factor``
        over copies; the base, ``pattern``, ``pattern_token`` and
        ``capacitances`` are shared.  It equals a fresh assembly at the
        scaled flow up to the rounding of the capacity-rate product.
        """
        factor = float(factor)
        if factor == self.flow_factor:
            return self
        values = self._values.copy()
        self._write_advection(values, factor)
        rhs = self.rhs.copy()
        self._write_inlet(rhs, factor)
        system = copy.copy(self)
        system.flow_factor = factor
        system._values = values
        system.matrix = self.pattern.matrix(values)
        system.rhs = rhs
        return system

    def flow_split(self) -> FlowSplit:
        """The :class:`FlowSplit` of this system at its own flow.

        Computed on request only: assembly never pays for it.  The
        advection share holds the values this system wrote at the base's
        advection positions, the fixed share the rest; the inlet share is
        the cavities' inlet columns of the rhs.
        """
        advection = np.zeros_like(self._values)
        self._write_advection(advection, self.flow_factor)
        fixed = self._values.copy()
        self._write_advection(fixed, 0.0)
        inlet = np.zeros(self.n_unknowns)
        self._write_inlet(inlet, self.flow_factor)
        return FlowSplit(
            fixed=self.pattern.matrix(fixed),
            advection=self.pattern.matrix(advection),
            heat=self.rhs - inlet,
            inlet=inlet,
        )

    def _rhs(self) -> np.ndarray:
        stack = self.stack
        rhs = np.zeros((stack.n_layers, stack.n_rows, stack.n_cols))
        for layer_idx, layer in enumerate(stack.layers):
            if not layer.is_cavity:
                rhs[layer_idx] += stack.cell_power(
                    layer.heat_map(stack.n_rows, stack.n_cols)
                )
        rhs = rhs.reshape(-1)
        self._write_inlet(rhs, 1.0)
        return rhs

    def _capacitances(self) -> np.ndarray:
        stack = self.stack
        per_layer = [
            (
                layer.coolant.volumetric_heat_capacity * layer.channel_height
                if layer.is_cavity
                else layer.material.volumetric_heat_capacity * layer.thickness
            )
            * stack.cell_area
            for layer in stack.layers
        ]
        return np.repeat(per_layer, self.n_cells_per_layer)

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
        vals[..., :4] = g_x * _COUPLING
        vals[..., 4:] = g_y * _COUPLING
        has_east = np.arange(n_cols)[None, :, None] + 1 < n_cols
        has_south = np.arange(n_rows)[:, None, None] + 1 < n_rows
        mask = np.empty((n_rows, n_cols, 8), dtype=bool)
        mask[..., :4] = has_east
        mask[..., 4:] = has_south
        return rows, cols, vals, mask

    def _set_convection(
        self, block: np.ndarray, layer_idx: int, row_widths, channels_per_row, coolant
    ) -> None:
        """Write the convection slots 0-7 of one ``(n_rows, n_cols, >= 8)`` cavity block.

        Convective conductance channel->coolant for the channels crossing
        each cell, per adjacent die (half of the wetted perimeter each), in
        series with the half-thickness conduction of that die.  The Shah &
        London correlation is evaluated once over the whole per-cell width
        grid, against ``coolant`` -- the layer's own record, or per-cell
        film properties on a Picard refresh.
        """
        stack = self.stack
        height = stack.layers[layer_idx].channel_height
        h = correlations.heat_transfer_coefficient(row_widths, height, coolant)
        wetted_per_layer = (row_widths + height) * (
            stack.cell_length * channels_per_row
        )
        g_convection = h * wetted_per_layer
        for offset, solid_idx in ((0, layer_idx - 1), (4, layer_idx + 1)):
            solid = stack.layers[solid_idx]
            half_resistance = solid.thickness / (
                2.0 * solid.material.thermal_conductivity * stack.cell_area
            )
            g_solid = 1.0 / (half_resistance + 1.0 / g_convection)
            block[..., offset] = g_solid
            block[..., offset + 1] = -g_solid
            block[..., offset + 2] = g_solid
            block[..., offset + 3] = -g_solid

    def _cavity_triplets(
        self, layer_idx: int, layer: CavityLayer, x_centers: np.ndarray
    ):
        """Convection/wall/advection triplet block of one cavity (14 slots/cell).

        Returns the block and the cavity's ``(row_widths, channels_per_row)``.
        """
        stack = self.stack
        n_rows, n_cols = stack.n_rows, stack.n_cols
        lower_idx, upper_idx = layer_idx - 1, layer_idx + 1
        lower = stack.layers[lower_idx]
        upper = stack.layers[upper_idx]
        if lower.is_cavity or upper.is_cavity:
            raise ValueError("a cavity layer must sit between two solid layers")
        n_channels = stack.channels_per_cavity()
        if n_channels < n_rows:
            raise ValueError(
                f"cavity layer {layer.name!r} has {n_channels} channels across "
                f"the die but the grid has n_rows={n_rows}; rows without a "
                f"channel cannot be assembled, so use n_rows <= {n_channels}"
            )

        row_widths, channels_per_row = _cavity_row_widths(stack, layer, x_centers)
        capacity_rate_cell = _capacity_rate(stack, layer)

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

        coolant = self._cell_indices(layer_idx)
        below = coolant - self.n_cells_per_layer
        above = coolant + self.n_cells_per_layer
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
        vals = np.empty((n_rows, n_cols, _CAVITY_SLOTS))
        self._set_convection(
            vals, layer_idx, row_widths, channels_per_row, layer.coolant
        )
        vals[..., 8] = g_wall
        vals[..., 9] = -g_wall
        vals[..., 10] = g_wall
        vals[..., 11] = -g_wall
        vals[..., 12] = capacity_rate_cell
        vals[..., 13] = -capacity_rate_cell
        mask = np.ones((n_rows, n_cols, _CAVITY_SLOTS), dtype=bool)
        mask[..., 8:12] = (wall_fraction > 0.0)[..., None]
        mask[:, 0, 13] = False  # the inlet column has no upstream neighbour
        return (rows, cols, vals, mask), (row_widths, channels_per_row)

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
        vals[...] = g_vertical * _COUPLING
        mask = np.ones((stack.n_rows, stack.n_cols, 4), dtype=bool)
        return rows, cols, vals, mask

    # -- value refresh -----------------------------------------------------------

    def refreshed(self, films) -> "AssembledSystem":
        """This system with the cavity convection re-evaluated against films.

        ``films`` holds one array-valued
        :class:`~repro.thermal.properties.CoolantState` per cavity,
        bottom-up, over the cavity's cells.  The capacity rate, the
        inlet-enthalpy rhs and the fluid capacitance keep the layer's own
        coolant, and ``h > 0`` keeps every convection entry in the mask, so
        the result shares ``pattern``, ``pattern_token``, ``rhs`` and
        ``capacitances`` with this system; only the convection values,
        written at the base's positions over the row widths kept on it,
        differ.
        """
        stack = self.stack
        values = self._values.copy()
        convection = np.empty((stack.n_rows, stack.n_cols, 8))
        for cavity, film in zip(self._base.cavities, films):
            self._set_convection(
                convection,
                cavity.layer,
                cavity.row_widths,
                cavity.channels_per_row,
                film,
            )
            values[cavity.convection] = convection
        system = copy.copy(self)
        system._values = values
        system.matrix = self.pattern.matrix(values)
        return system

    def split_solution(self, vector: np.ndarray) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Split a flat solution vector into per-layer maps (solid, coolant)."""
        stack = self.stack
        grids = vector.reshape(stack.n_layers, stack.n_rows, stack.n_cols)
        layer_maps: Dict[str, np.ndarray] = {}
        coolant_maps: Dict[str, np.ndarray] = {}
        for layer, grid in zip(stack.layers, grids):
            (coolant_maps if layer.is_cavity else layer_maps)[layer.name] = grid
        return layer_maps, coolant_maps

    def coolant_field(self, vector: np.ndarray) -> np.ndarray:
        """Bulk coolant temperatures of a solution, one grid per cavity."""
        stack = self.stack
        return vector.reshape(stack.n_layers, stack.n_rows, stack.n_cols)[
            [cavity.layer for cavity in self._base.cavities]
        ]


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
        outer iteration (:func:`repro.core.picard.picard_solve`) whose
        passes solve :meth:`AssembledSystem.refreshed`: the cavity
        convection at film properties of the per-cell bulk coolant
        temperatures, over the assembled pattern and rhs.
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

    def solve(self, compute_residual: bool = True) -> ThermalMapResult:
        """Assemble and solve ``A T = b``; return per-layer thermal maps.

        Parameters
        ----------
        compute_residual:
            Report the max-norm residual of the solve in the result
            metadata.  The residual costs one extra sparse matrix-vector
            product per solve, so hot paths that solve the same stack shape
            repeatedly (width sweeps, benchmarks) pass False; the default
            keeps the diagnostic on for tests and one-off runs.  Under a
            temperature-dependent coolant the residual is taken against
            the system that produced the reported field.
        """
        system = self.system
        solution = self.backend.solve(system.matrix, system.rhs, system.pattern_token)
        if not np.all(np.isfinite(solution)):
            raise RuntimeError("steady-state solve produced non-finite values")
        metadata = {
            "solver": "ice-steady",
            "backend": self.backend.name,
            "n_unknowns": system.n_unknowns,
            "grid": (self.stack.n_rows, self.stack.n_cols),
        }
        if self.coolant_model is not None:
            solution, system, metadata["picard"] = picard_solve(
                system, solution, self.backend, self.coolant_model, self.picard
            )
        if compute_residual:
            residual = system.matrix @ solution - system.rhs
            metadata["residual_norm"] = float(np.max(np.abs(residual)))
        layer_maps, coolant_maps = system.split_solution(solution)
        return ThermalMapResult(
            layer_maps=layer_maps,
            coolant_maps=coolant_maps,
            metadata=metadata,
        )
