"""SciPy-collocation oracle of the single-channel boundary-value problem.

:func:`repro.thermal.bvp.solve_trapezoidal` discretizes the Sec. III
boundary-value problem globally with the trapezoidal rule.
:func:`solve_collocation` solves the same problem with
:func:`scipy.integrate.solve_bvp` (adaptive collocation), which shares none
of the production discretization choices, and :func:`solve_single_channel`
dispatches one single-channel structure to either of them or to the
finite-difference workhorse.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.integrate import solve_bvp

from repro.thermal.bvp import solve_trapezoidal
from repro.thermal.fdm import solve_finite_difference
from repro.thermal.geometry import MultiChannelStructure, TestStructure
from repro.thermal.solution import ThermalSolution
from repro.thermal.state_space import SingleChannelStateSpace

__all__ = ["solve_collocation", "solve_single_channel"]

_N_STATES = 5  # T1, T2, q1, q2, TC


def solve_collocation(
    structure: TestStructure,
    n_points: int = 201,
    tol: float = 1e-6,
    max_nodes: int = 500_000,
    initial_guess: Optional[np.ndarray] = None,
) -> ThermalSolution:
    """Solve the single-channel BVP with SciPy's adaptive collocation solver.

    Slower than :func:`solve_trapezoidal` but fully independent of our
    discretization choices, which makes it a good cross-check (the test
    suite asserts the two agree).
    """
    model = SingleChannelStateSpace(structure)
    z_grid = np.linspace(0.0, structure.length, n_points)

    def rhs(z, state):
        return model.augmented_rhs(z, state)

    def boundary(inlet_state, outlet_state):
        return model.boundary_residual(inlet_state, outlet_state)

    if initial_guess is None:
        initial_guess = np.zeros((_N_STATES, z_grid.size))
        initial_guess[0:2, :] = structure.inlet_temperature + 10.0
        initial_guess[4, :] = structure.inlet_temperature
    result = solve_bvp(
        rhs, boundary, z_grid, initial_guess, tol=tol, max_nodes=max_nodes
    )
    if not result.success:
        raise RuntimeError(f"collocation BVP solve failed: {result.message}")

    evaluated = result.sol(z_grid)
    temperatures = evaluated[0:2, :][:, np.newaxis, :]
    heat_flows = evaluated[2:4, :][:, np.newaxis, :]
    coolant = evaluated[4, :][np.newaxis, :]
    return ThermalSolution(
        z=z_grid,
        temperatures=temperatures,
        heat_flows=heat_flows,
        coolant_temperatures=coolant,
        inlet_temperature=structure.inlet_temperature,
        metadata={
            "solver": "collocation",
            "n_points": n_points,
            "rms_residuals": float(np.max(result.rms_residuals)),
        },
    )


def solve_single_channel(
    structure: TestStructure,
    n_points: int = 401,
    method: str = "trapezoidal",
    **kwargs,
) -> ThermalSolution:
    """Solve a single-channel structure with the requested method.

    ``method`` is ``"trapezoidal"`` (default), ``"collocation"`` or
    ``"fdm"`` (the finite-difference workhorse from
    :mod:`repro.thermal.fdm`, which also handles multi-channel cavities).
    """
    if method == "trapezoidal":
        return solve_trapezoidal(structure, n_points=n_points, **kwargs)
    if method == "collocation":
        return solve_collocation(structure, n_points=n_points, **kwargs)
    if method == "fdm":
        return solve_finite_difference(
            MultiChannelStructure.single(structure), n_points=n_points, **kwargs
        )
    raise ValueError(f"unknown solver method: {method!r}")
