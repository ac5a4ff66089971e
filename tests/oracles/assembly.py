"""Per-grid-point loop assembly of the multi-channel finite-difference system.

This is the original assembly of :mod:`repro.thermal.assembly`, before the
vectorized triplet construction over a cached sparsity pattern.  It
evaluates the lane parameters and the lateral conductance through the same
production helpers, then emits one coefficient at a time:

* :func:`assemble_system_loop` returns the ``(matrix, rhs)`` pair;
* :func:`solve_loop` solves it with SciPy's direct solver and recovers the
  fields exactly as :func:`repro.thermal.fdm.solve_finite_difference` does.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from repro.thermal.assembly import lane_parameters, lateral_conductance_of
from repro.thermal.solution import ThermalSolution

__all__ = ["assemble_system_loop", "solve_loop"]


def _loop_system(structure, n_points: int, lane_pitch: Optional[float]):
    if n_points < 3:
        raise ValueError("n_points must be at least 3")
    n_lanes = structure.n_lanes
    z_grid = np.linspace(0.0, structure.length, n_points)
    dz = z_grid[1] - z_grid[0]
    g_lat = lateral_conductance_of(structure, lane_pitch)
    params = lane_parameters(structure, z_grid)

    def index(variable: int, lane: int, point: int) -> int:
        return (variable * n_lanes + lane) * n_points + point

    n_unknowns = 3 * n_lanes * n_points
    rows, cols, values = [], [], []
    rhs = np.zeros(n_unknowns)

    def add(row: int, col: int, value: float) -> None:
        rows.append(row)
        cols.append(col)
        values.append(value)

    for lane_idx in range(n_lanes):
        g_v = params.g_v[lane_idx]
        g_w = params.g_w[lane_idx]
        heat = (params.q_top[lane_idx], params.q_bottom[lane_idx])
        conduction = params.g_l[lane_idx] / dz**2
        cap = params.cap[lane_idx]
        for layer in range(2):
            other_layer = 1 - layer
            for k in range(n_points):
                row = index(layer, lane_idx, k)
                diagonal = 0.0
                # Longitudinal conduction with zero-flux (adiabatic) ends.
                if k > 0:
                    add(row, index(layer, lane_idx, k - 1), conduction)
                    diagonal -= conduction
                if k < n_points - 1:
                    add(row, index(layer, lane_idx, k + 1), conduction)
                    diagonal -= conduction
                # Layer to coolant.
                diagonal -= g_v[k]
                add(row, index(2, lane_idx, k), g_v[k])
                # Inter-layer sidewall conduction.
                diagonal -= g_w[k]
                add(row, index(other_layer, lane_idx, k), g_w[k])
                # Lateral conduction to the neighbouring lanes.
                if g_lat > 0.0:
                    if lane_idx > 0:
                        add(row, index(layer, lane_idx - 1, k), g_lat)
                        diagonal -= g_lat
                    if lane_idx < n_lanes - 1:
                        add(row, index(layer, lane_idx + 1, k), g_lat)
                        diagonal -= g_lat
                add(row, row, diagonal)
                rhs[row] = -heat[layer][k]

        # Coolant advection, first-order upwind.  For a reversed lane the
        # coolant enters at z = d and flows toward z = 0, so the inlet
        # Dirichlet condition and the upwind neighbour are mirrored.
        reversed_flow = structure.lanes[lane_idx].flow_reversed
        inlet_point = n_points - 1 if reversed_flow else 0
        upstream_offset = 1 if reversed_flow else -1
        for k in range(n_points):
            row = index(2, lane_idx, k)
            if k == inlet_point:
                add(row, row, 1.0)
                rhs[row] = structure.inlet_temperature
                continue
            advection = cap / dz
            add(row, row, -(advection + 2.0 * g_v[k]))
            add(row, index(2, lane_idx, k + upstream_offset), advection)
            add(row, index(0, lane_idx, k), g_v[k])
            add(row, index(1, lane_idx, k), g_v[k])
            rhs[row] = 0.0

    matrix = sparse.csr_matrix(
        (values, (rows, cols)), shape=(n_unknowns, n_unknowns)
    )
    return matrix, rhs, z_grid, params


def assemble_system_loop(
    structure, n_points: int = 201, lane_pitch: Optional[float] = None
):
    """``(matrix, rhs)`` of the finite-difference system, one entry at a time."""
    matrix, rhs, _, _ = _loop_system(structure, n_points, lane_pitch)
    return matrix, rhs


def solve_loop(
    structure, n_points: int = 201, lane_pitch: Optional[float] = None
) -> ThermalSolution:
    """Solve the loop-assembled system and return its :class:`ThermalSolution`."""
    matrix, rhs, z_grid, params = _loop_system(structure, n_points, lane_pitch)
    fields = spsolve(matrix.tocsc(), rhs).reshape(3, structure.n_lanes, n_points)
    temperatures = fields[:2].copy()
    gradient = np.gradient(temperatures, z_grid, axis=2)
    return ThermalSolution(
        z=z_grid,
        temperatures=temperatures,
        heat_flows=-params.g_l[None, :, None] * gradient,
        coolant_temperatures=fields[2].copy(),
        inlet_temperature=structure.inlet_temperature,
        metadata={"solver": "finite-difference-loop-oracle"},
    )
