"""Boundary-value solvers for the single-channel analytical model.

The steady-state model of Sec. III is a two-point boundary-value problem:
the ODE of :mod:`repro.thermal.state_space` with the adiabatic boundary
conditions ``q_1(0) = q_2(0) = 0`` and ``q_1(d) = q_2(d) = 0`` (Eq. 5), plus
the coolant inlet condition ``T_C(0) = T_Cin``.

The problem is *stiff*: longitudinal conduction in the thin silicon layers
gives the homogeneous solutions growth rates of order
``sqrt(g_v / g_l) ~ 1e4 1/m``, i.e. boundary layers a few hundred microns
wide next to growth factors around ``exp(80)`` over a 1 cm channel.  Single
shooting is therefore numerically useless, so :func:`solve_trapezoidal`
uses a *global* method that exploits the linearity of the ODE: the
augmented 5-state system ``dX/dz = A(z) X + b(z)`` is discretized with the
(A-stable) trapezoidal rule on a uniform grid, the boundary conditions are
appended, and the resulting banded sparse linear system is solved in one
shot.  Second-order accurate, unconditionally stable, and fast; it returns
a :class:`~repro.thermal.solution.ThermalSolution` sampled on a uniform
grid.  The test suite cross-checks it against SciPy's adaptive collocation
solver (``tests/oracles/bvp.py``).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .geometry import TestStructure
from .solution import ThermalSolution
from .state_space import SingleChannelStateSpace

__all__ = ["solve_trapezoidal"]

_N_STATES = 5  # T1, T2, q1, q2, TC


def solve_trapezoidal(
    structure: TestStructure,
    n_points: int = 401,
) -> ThermalSolution:
    """Solve the single-channel BVP with a global trapezoidal discretization.

    The augmented linear system ``dX/dz = A(z) X + b(z)`` is enforced on
    every interval of a uniform grid with the trapezoidal rule::

        X_{k+1} - X_k = (dz / 2) * (A_k X_k + b_k + A_{k+1} X_{k+1} + b_{k+1})

    and the five boundary conditions (``q_1(0) = q_2(0) = 0``,
    ``T_C(0) = T_Cin``, ``q_1(d) = q_2(d) = 0``) close the square system.
    Being a global method it is immune to the stiffness that defeats
    shooting approaches.
    """
    if n_points < 3:
        raise ValueError("n_points must be at least 3")
    model = SingleChannelStateSpace(structure)
    z_grid = np.linspace(0.0, structure.length, n_points)
    dz = z_grid[1] - z_grid[0]

    a_all, b_all = model.linear_coefficients(z_grid)

    n_unknowns = _N_STATES * n_points
    rows, cols, values = [], [], []
    rhs = np.zeros(n_unknowns)

    def state_index(point: int, state: int) -> int:
        return point * _N_STATES + state

    def add(row: int, col: int, value: float) -> None:
        if value != 0.0:
            rows.append(row)
            cols.append(col)
            values.append(value)

    identity = np.eye(_N_STATES)
    row_counter = 0
    for k in range(n_points - 1):
        # X_{k+1} - X_k - dz/2 (A_k X_k + A_{k+1} X_{k+1}) = dz/2 (b_k + b_{k+1})
        left = -identity - 0.5 * dz * a_all[k]
        right = identity - 0.5 * dz * a_all[k + 1]
        forcing = 0.5 * dz * (b_all[k] + b_all[k + 1])
        for i in range(_N_STATES):
            row = row_counter + i
            for j in range(_N_STATES):
                add(row, state_index(k, j), left[i, j])
                add(row, state_index(k + 1, j), right[i, j])
            rhs[row] = forcing[i]
        row_counter += _N_STATES

    # Boundary conditions: q1(0) = q2(0) = 0, TC(0) = T_Cin, q1(d) = q2(d) = 0.
    boundary_rows = [
        (state_index(0, 2), 0.0),
        (state_index(0, 3), 0.0),
        (state_index(0, 4), structure.inlet_temperature),
        (state_index(n_points - 1, 2), 0.0),
        (state_index(n_points - 1, 3), 0.0),
    ]
    for column, value in boundary_rows:
        add(row_counter, column, 1.0)
        rhs[row_counter] = value
        row_counter += 1

    matrix = sparse.csr_matrix(
        (values, (rows, cols)), shape=(n_unknowns, n_unknowns)
    )
    solution_vector = spsolve(matrix, rhs)
    if not np.all(np.isfinite(solution_vector)):
        raise RuntimeError("trapezoidal BVP solve produced non-finite values")
    states = solution_vector.reshape(n_points, _N_STATES).T

    temperatures = states[0:2, :][:, np.newaxis, :]
    heat_flows = states[2:4, :][:, np.newaxis, :]
    coolant = states[4, :][np.newaxis, :]
    residual = matrix @ solution_vector - rhs
    return ThermalSolution(
        z=z_grid,
        temperatures=temperatures,
        heat_flows=heat_flows,
        coolant_temperatures=coolant,
        inlet_temperature=structure.inlet_temperature,
        metadata={
            "solver": "trapezoidal",
            "n_points": n_points,
            "linear_residual": float(np.max(np.abs(residual))),
        },
    )
