"""Sparse assembly of the multi-channel finite-difference system.

This module builds the linear system solved by
:func:`repro.thermal.fdm.solve_finite_difference`.  All coefficient (COO)
triplets of :func:`assemble_system` are produced with vectorized NumPy
operations, and the *static* sparsity structure of the system -- which
depends only on the problem shape ``(n_lanes, n_points)``, the
lateral-coupling flag and the per-lane flow directions -- is computed once
per shape and cached as a :class:`SparsityPattern`.  Repeated solves of the
same shape (the optimizer evaluates hundreds of candidate designs on one
grid) only refresh the ``values`` array and reuse the precomputed CSR
structure.

The original per-grid-point Python-loop assembly lives on as the reference
oracle ``tests/oracles/assembly.py``; the equivalence suite checks that both
discretize the identical equations (see the module docstring of
:mod:`repro.thermal.fdm`) to floating-point round-off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from ..core.linear_system import (
    SparsityFold,
    cached_pattern,
    clear_pattern_cache,
    pattern_cache_info,
)
from . import conductances
from .geometry import MultiChannelStructure

__all__ = [
    "AssembledSystem",
    "LaneParameters",
    "SparsityPattern",
    "assemble_system",
    "clear_pattern_cache",
    "get_pattern",
    "lane_conductance_rows",
    "lane_parameters",
    "pattern_cache_info",
]


@dataclass(frozen=True)
class LaneParameters:
    """Per-unit-length parameters of every lane evaluated on the z-grid.

    Arrays are stacked lane-major: ``g_v[j, k]`` is the layer-to-coolant
    conductance of lane ``j`` at grid point ``k``.  Scalars per lane
    (``g_l``, ``cap``) have shape ``(n_lanes,)``.
    """

    g_v: np.ndarray
    g_w: np.ndarray
    q_top: np.ndarray
    q_bottom: np.ndarray
    g_l: np.ndarray
    cap: np.ndarray
    reversed_flags: Tuple[bool, ...]


def _conductance_rows(
    geometry, silicon, coolant, widths, flow_rate, z_grid, developing, scale
) -> Tuple[np.ndarray, np.ndarray]:
    """``(g_v, g_w)`` of one width row or a ``(k, n_points)`` stack, times ``scale``.

    The conductance functions are elementwise, so a stacked call gives
    each row exactly what a call on that row alone gives; ``scale`` is the
    cluster size (a scalar, or a ``(k, 1)`` column for a stack).
    """
    g_v = conductances.layer_to_coolant_conductance(
        geometry, silicon, coolant, widths, flow_rate, z_grid, developing
    )
    g_w = conductances.sidewall_conductance(geometry, silicon, widths)
    return np.asarray(g_v, dtype=float) * scale, np.asarray(g_w, dtype=float) * scale


def lane_conductance_rows(
    structure: MultiChannelStructure,
    z_grid: np.ndarray,
    lane_index: int,
    widths: Optional[np.ndarray] = None,
    coolant=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(g_v, g_w)`` rows of one lane, for the given (or its own) widths.

    These are the only :class:`LaneParameters` rows that depend on the
    channel-width profile, so the adjoint gradient path
    (:mod:`repro.core.adjoint`) re-evaluates just them when perturbing one
    lane's design variables.  Cluster scaling matches
    :func:`lane_parameters`.

    ``coolant`` overrides the lane's own coolant record for the ``g_v``
    evaluation -- the Picard outer iteration passes an array-valued
    :class:`~repro.thermal.properties.CoolantState` (film properties at
    the lane's bulk coolant temperatures) to refresh the convective
    conductances without touching the lane itself.
    """
    lane = structure.lanes[lane_index]
    if widths is None:
        widths = lane.width_profile(z_grid)
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    return _conductance_rows(
        lane.geometry,
        lane.silicon,
        lane.coolant if coolant is None else coolant,
        widths,
        lane.flow_rate,
        z_grid,
        lane.developing_flow,
        float(structure.cluster_size_of_lane(lane_index)),
    )


def lane_parameters(
    structure: MultiChannelStructure, z_grid: np.ndarray
) -> LaneParameters:
    """Evaluate every lane's per-unit-length parameters on the grid.

    Channel clustering scales every parameter of a lane by the number of
    physical channels the lane represents, exactly as in Sec. III of the
    paper.  Lanes that share geometry, materials, flow rate and flow
    regime get their ``g_v``/``g_w`` rows from one :func:`_conductance_rows`
    call on the stacked ``(k, n_points)`` widths, the evaluation
    :func:`lane_conductance_rows` makes for one lane, so each row equals
    that function's rows for its lane.
    """
    n_lanes = structure.n_lanes
    n_points = z_grid.size
    g_v = np.empty((n_lanes, n_points))
    g_w = np.empty((n_lanes, n_points))
    q_top = np.empty((n_lanes, n_points))
    q_bottom = np.empty((n_lanes, n_points))
    g_l = np.empty(n_lanes)
    cap = np.empty(n_lanes)
    scales = np.empty(n_lanes)
    groups: Dict[tuple, List[int]] = {}
    for index, lane in enumerate(structure.lanes):
        scale = scales[index] = float(structure.cluster_size_of_lane(index))
        key = (
            lane.geometry,
            lane.silicon,
            lane.coolant,
            lane.flow_rate,
            lane.developing_flow,
        )
        groups.setdefault(key, []).append(index)
        q_top[index] = np.atleast_1d(lane.heat_top(z_grid))
        q_bottom[index] = np.atleast_1d(lane.heat_bottom(z_grid))
        g_l[index] = (
            conductances.longitudinal_conductance(lane.geometry, lane.silicon)
            * scale
        )
        cap[index] = conductances.capacity_rate(lane.coolant, lane.flow_rate) * scale
    for (geometry, silicon, coolant, flow_rate, developing), members in groups.items():
        widths = np.stack(
            [
                np.atleast_1d(
                    np.asarray(structure.lanes[i].width_profile(z_grid), dtype=float)
                )
                for i in members
            ]
        )
        g_v[members], g_w[members] = _conductance_rows(
            geometry, silicon, coolant, widths, flow_rate, z_grid, developing,
            scales[members, None],
        )
    return LaneParameters(
        g_v=g_v,
        g_w=g_w,
        q_top=q_top,
        q_bottom=q_bottom,
        g_l=g_l,
        cap=cap,
        reversed_flags=tuple(bool(lane.flow_reversed) for lane in structure.lanes),
    )


def lateral_conductance_of(
    structure: MultiChannelStructure, lane_pitch: Optional[float] = None
) -> float:
    """The lane-to-lane lateral conductance of a cavity (0 when disabled).

    Conduction between the centers of two adjacent lane bands: the
    cross-section is one silicon slab of height ``H_Si`` per active layer
    regardless of how many channels the band clusters, so the conductance
    only depends on the band pitch.
    """
    if lane_pitch is None:
        lane_pitch = structure.cluster_size * structure.geometry.pitch
    if structure.lateral_coupling and structure.n_lanes > 1:
        return conductances.lateral_conductance(
            structure.geometry, structure.silicon, lane_pitch
        )
    return 0.0


def _pattern_token(n_lanes, n_points, lateral_coupling, reversed_flags) -> tuple:
    """Hashable identity of the FDM sparsity structure of one problem shape."""
    lateral = bool(lateral_coupling) and int(n_lanes) > 1
    flags = tuple(bool(flag) for flag in reversed_flags)
    return ("fdm", int(n_lanes), int(n_points), lateral, flags)


class SparsityPattern:
    """Precomputed sparsity structure of the FDM system for one shape.

    The unknown ordering is variable-major, then lane, then grid point
    (variable 0 = top-layer temperature, 1 = bottom-layer temperature,
    2 = coolant temperature)::

        index(variable, lane, point) = (variable * n_lanes + lane) * n_points + point

    The pattern owns the canonical CSR index arrays and the scatter map
    from raw COO entry order to CSR data slots (a
    :class:`~repro.core.linear_system.SparsityFold`), so refreshing a system
    for new parameter values is one ``np.bincount`` into the CSR data array
    -- no sorting, no duplicate folding, and a bit-identical structure
    across solves (which the solver backends use to recognize repeated
    matrices).
    """

    def __init__(
        self,
        n_lanes: int,
        n_points: int,
        lateral_coupling: bool,
        reversed_flags: Tuple[bool, ...],
    ) -> None:
        if n_points < 3:
            raise ValueError("n_points must be at least 3")
        if n_lanes < 1:
            raise ValueError("n_lanes must be at least 1")
        if len(reversed_flags) != n_lanes:
            raise ValueError("reversed_flags must provide one flag per lane")
        #: Hashable identity of this pattern; two systems assembled from the
        #: same token share indptr/indices arrays.
        self.token = _pattern_token(
            n_lanes, n_points, lateral_coupling, reversed_flags
        )
        _, self.n_lanes, self.n_points, self.lateral_coupling, self.reversed_flags = (
            self.token
        )
        self.n_unknowns = 3 * self.n_lanes * self.n_points

        L, P = self.n_lanes, self.n_points
        lanes = np.arange(L)[:, None]
        points = np.arange(P)[None, :]
        silicon = [(layer * L + lanes) * P + points for layer in (0, 1)]
        coolant = (2 * L + lanes) * P + points
        reversed_mask = np.asarray(self.reversed_flags, dtype=bool)
        inlet_point = np.where(reversed_mask, P - 1, 0)[:, None]
        upstream = np.where(reversed_mask, 1, -1)[:, None]
        inlet_mask = points == inlet_point

        rows, cols = [], []
        for layer in (0, 1):
            row = silicon[layer]
            other = silicon[1 - layer]
            # Longitudinal conduction neighbours (zero-flux ends).
            rows += [row[:, 1:], row[:, :-1]]
            cols += [row[:, :-1], row[:, 1:]]
            # Layer-to-coolant and inter-layer sidewall couplings.
            rows += [row, row]
            cols += [coolant, other]
            # Lateral conduction to the neighbouring lanes.
            if self.lateral_coupling:
                rows += [row[1:, :], row[:-1, :]]
                cols += [row[:-1, :], row[1:, :]]
            # Diagonal.
            rows.append(row)
            cols.append(row)
        # Coolant advection: diagonal, upwind neighbour, both silicon layers.
        # Inlet (Dirichlet) points redirect the off-diagonal slots onto the
        # diagonal with zero coefficients so the structure stays static.
        rows += [coolant] * 4
        cols += [
            coolant,
            np.where(inlet_mask, coolant, coolant + upstream),
            np.where(inlet_mask, coolant, silicon[0]),
            np.where(inlet_mask, coolant, silicon[1]),
        ]

        raw_rows = np.concatenate([part.ravel() for part in rows])
        raw_cols = np.concatenate([part.ravel() for part in cols])

        #: Canonical fold of the raw triplet stream (shared machinery with
        #: the finite-volume stack model).  Exposes the raw ``rows``/``cols``
        #: used by the adjoint stencils in :mod:`repro.core.adjoint`.
        self.fold = SparsityFold(raw_rows, raw_cols, self.n_unknowns)
        self.n_entries = self.fold.n_entries
        self.nnz = self.fold.nnz

        self._inlet_mask = inlet_mask

    # -- system refresh -----------------------------------------------------

    def values(self, params: LaneParameters, g_lat: float, dz: float) -> np.ndarray:
        """Raw COO coefficient values in the pattern's entry order."""
        L, P = self.n_lanes, self.n_points
        conduction = (params.g_l / dz**2)[:, None]
        inlet = self._inlet_mask
        advection = (params.cap / dz)[:, None]

        parts = []
        lateral = np.full((L - 1, P), g_lat) if self.lateral_coupling else None
        for _layer in (0, 1):
            neighbour = np.broadcast_to(conduction, (L, P - 1))
            parts += [neighbour, neighbour, params.g_v, params.g_w]
            diagonal = np.zeros((L, P))
            diagonal[:, 1:] -= conduction
            diagonal[:, :-1] -= conduction
            diagonal -= params.g_v
            diagonal -= params.g_w
            if self.lateral_coupling:
                parts += [lateral, lateral]
                diagonal[1:, :] -= g_lat
                diagonal[:-1, :] -= g_lat
            parts.append(diagonal)
        parts += [
            np.where(inlet, 1.0, -(advection + 2.0 * params.g_v)),
            np.where(inlet, 0.0, np.broadcast_to(advection, (L, P))),
            np.where(inlet, 0.0, params.g_v),
            np.where(inlet, 0.0, params.g_v),
        ]
        return np.concatenate([part.ravel() for part in parts])

    def conductance_sensitivities(
        self, weight: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fold per-entry adjoint weights into conductance sensitivities.

        The coefficient stream of :meth:`values` is *affine* in the
        conductance rows ``g_v`` and ``g_w`` with a fixed structural
        pattern (``+1`` on the coupling entries, ``-1`` on the diagonals,
        ``-2``/``+1``/``+1`` on the non-inlet coolant rows).  Given the
        per-raw-entry weights ``w_e = lambda[row_e] * u[col_e]`` this
        returns ``(s_v, s_w)`` of shape ``(n_lanes, n_points)`` such that
        for any conductance perturbation

            lambda^T (dA) u = sum(s_v * dg_v) + sum(s_w * dg_w)

        -- the adjoint gradient then needs only the two perturbed
        conductance rows per design variable, never a full value rebuild.
        """
        L, P = self.n_lanes, self.n_points
        weight = np.asarray(weight)
        if weight.shape != (self.n_entries,):
            raise ValueError(
                f"expected {self.n_entries} entry weights, got {weight.shape}"
            )
        s_v = np.zeros((L, P))
        s_w = np.zeros((L, P))
        offset = 0

        def take(shape):
            nonlocal offset
            size = int(np.prod(shape))
            part = weight[offset : offset + size].reshape(shape)
            offset += size
            return part

        for _layer in (0, 1):
            take((L, P - 1))  # conduction neighbours: width-independent
            take((L, P - 1))
            s_v += take((L, P))
            s_w += take((L, P))
            if self.lateral_coupling:
                take((L - 1, P))
                take((L - 1, P))
            diagonal = take((L, P))
            s_v -= diagonal
            s_w -= diagonal
        interior = ~self._inlet_mask
        s_v -= 2.0 * np.where(interior, take((L, P)), 0.0)
        take((L, P))  # advection neighbour: width-independent
        s_v += np.where(interior, take((L, P)), 0.0)
        s_v += np.where(interior, take((L, P)), 0.0)
        assert offset == self.n_entries
        return s_v, s_w

    def rhs(self, params: LaneParameters, inlet_temperature: float) -> np.ndarray:
        """Right-hand side vector for the given parameters."""
        rhs = np.empty(self.n_unknowns)
        L, P = self.n_lanes, self.n_points
        rhs[: L * P] = (-params.q_top).ravel()
        rhs[L * P : 2 * L * P] = (-params.q_bottom).ravel()
        rhs[2 * L * P :] = np.where(self._inlet_mask, inlet_temperature, 0.0).ravel()
        return rhs

    def matrix(self, values: np.ndarray) -> sparse.csr_matrix:
        """Fold raw COO values into a CSR matrix with the static structure."""
        return self.fold.matrix(values)


def get_pattern(
    n_lanes: int,
    n_points: int,
    lateral_coupling: bool,
    reversed_flags: Tuple[bool, ...],
) -> SparsityPattern:
    """Fetch (or build and cache) the pattern for one problem shape."""
    return cached_pattern(
        _pattern_token(n_lanes, n_points, lateral_coupling, reversed_flags),
        lambda: SparsityPattern(n_lanes, n_points, lateral_coupling, reversed_flags),
    )


@dataclass
class AssembledSystem:
    """A ready-to-solve linear system plus the context needed afterwards."""

    matrix: sparse.csr_matrix
    rhs: np.ndarray
    z_grid: np.ndarray
    params: LaneParameters
    lateral_conductance: float
    pattern: SparsityPattern
    #: Raw COO coefficient values in the pattern's entry order.  The adjoint
    #: path differentiates these directly.
    values: np.ndarray
    #: The cavity the system was assembled from.
    structure: MultiChannelStructure

    @property
    def pattern_token(self) -> tuple:
        """Identity of the sparsity structure."""
        return self.pattern.token

    def refreshed(self, films) -> "AssembledSystem":
        """This system with ``g_v`` re-evaluated against film coolant records.

        ``films`` holds one array-valued
        :class:`~repro.thermal.properties.CoolantState` per lane, over the
        lane's grid points.  Only ``g_v`` depends on it
        (``h = Nu k_f(T) / D_h``); the capacity rate keeps the base
        coolant, so the result shares ``pattern`` and ``rhs``.
        """
        g_v = self.params.g_v.copy()
        for lane_index, film in enumerate(films):
            g_v[lane_index], _ = lane_conductance_rows(
                self.structure, self.z_grid, lane_index, coolant=film
            )
        params = replace(self.params, g_v=g_v)
        dz = self.z_grid[1] - self.z_grid[0]
        values = self.pattern.values(params, self.lateral_conductance, dz)
        matrix = self.pattern.matrix(values)
        return replace(self, matrix=matrix, params=params, values=values)

    def coolant_field(self, vector: np.ndarray) -> np.ndarray:
        """Coolant temperatures of a solution, one row per lane."""
        pattern = self.pattern
        return vector.reshape(3, pattern.n_lanes, pattern.n_points)[2]


def assemble_system(
    structure: MultiChannelStructure,
    n_points: int = 201,
    lane_pitch: Optional[float] = None,
) -> AssembledSystem:
    """Vectorized assembly of the finite-difference system.

    There is no per-grid-point Python work: the sparsity structure comes
    from the per-shape :class:`SparsityPattern` cache and only the
    coefficient values are recomputed.
    """
    if n_points < 3:
        raise ValueError("n_points must be at least 3")
    z_grid = np.linspace(0.0, structure.length, n_points)
    dz = z_grid[1] - z_grid[0]
    g_lat = lateral_conductance_of(structure, lane_pitch)
    params = lane_parameters(structure, z_grid)
    pattern = get_pattern(
        structure.n_lanes, n_points, structure.lateral_coupling, params.reversed_flags
    )
    values = pattern.values(params, g_lat, dz)
    matrix = pattern.matrix(values)
    rhs = pattern.rhs(params, structure.inlet_temperature)
    return AssembledSystem(
        matrix=matrix,
        rhs=rhs,
        z_grid=z_grid,
        params=params,
        lateral_conductance=g_lat,
        pattern=pattern,
        values=values,
        structure=structure,
    )
