"""Finite-difference steady-state solver for multi-channel cavities.

This is the numerical workhorse used by the optimizer and by all
multi-channel experiments.  It discretizes the same per-unit-length thermal
network as the analytical state-space model (conduction along the active
layers, layer-to-coolant convection, inter-layer sidewall conduction,
coolant advection) on a uniform z-grid, adds lateral conduction between
adjacent channel lanes, and solves the resulting sparse linear system.

For a single lane the solver reproduces the analytical BVP solution (the
tests check agreement with :func:`repro.thermal.bvp.solve_trapezoidal`),
but it is much faster for cavities with many lanes because all lanes are
solved simultaneously in one sparse solve instead of a high-dimensional
shooting problem.

Discretization summary (lane ``j``, layer ``i``, grid point ``k``):

* silicon energy balance (adiabatic ends -> zero-flux Neumann boundaries)::

      g_l (T[i,j,k-1] - 2 T[i,j,k] + T[i,j,k+1]) / dz^2
        + q_hat[i,j](z_k)
        - g_v[j](z_k) (T[i,j,k] - TC[j,k])
        - g_w[j](z_k) (T[i,j,k] - T[i',j,k])
        - g_lat (2 T[i,j,k] - T[i,j-1,k] - T[i,j+1,k]) = 0

* coolant advection (first-order upwind, inlet Dirichlet)::

      c_v V_dot (TC[j,k] - TC[j,k-1]) / dz
        = sum_i g_v[j](z_k) (T[i,j,k] - TC[j,k])

Channel clustering scales every per-unit-length parameter of a lane by the
number of physical channels it represents, exactly as suggested at the end
of Sec. III of the paper.

The sparse system is produced by :mod:`repro.thermal.assembly` (vectorized
triplet construction over a cached per-shape sparsity pattern) and solved by
a pluggable backend from :mod:`repro.thermal.backends`: by default
``sparse-lu``, which orders the unknowns by reverse Cuthill--McKee once per
pattern and factorizes the resulting narrow band with LAPACK's banded LU,
reusing factorizations of unchanged matrices; or ``dense``.  The solve goes
through a :class:`~repro.thermal.backends.FactorizationHandle`, which the
``on_forward`` callback hands to the caller together with the system (the
evaluation engine keeps both for the adjoint's transpose solve).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from ..core.picard import picard_solve
from . import assembly
from .backends import FactorizationHandle, SolverBackend, resolve_backend
from .geometry import MultiChannelStructure, TestStructure
from .properties import CoolantModel
from .solution import ThermalSolution

__all__ = ["solve_finite_difference", "solve_structure"]


def solve_finite_difference(
    structure: MultiChannelStructure,
    n_points: int = 201,
    lane_pitch: Optional[float] = None,
    backend: Union[None, str, SolverBackend] = None,
    coolant_model: Optional[CoolantModel] = None,
    picard=None,
    on_forward: Optional[
        Callable[[assembly.AssembledSystem, FactorizationHandle], None]
    ] = None,
) -> ThermalSolution:
    """Solve a multi-channel cavity and return a :class:`ThermalSolution`.

    Parameters
    ----------
    structure:
        The cavity description (lanes, width profiles, heat inputs, flow).
        Heat inputs of each lane must already represent the full power of
        the physical channels merged into that lane when clustering is used.
    n_points:
        Number of grid points along the channel (>= 3).
    lane_pitch:
        Center-to-center distance between adjacent modeled lanes, used for
        the lateral conduction term.  Defaults to ``cluster_size * W``.
    backend:
        Linear-solver backend: a registry name from
        :mod:`repro.thermal.backends` (``"auto"``, ``"sparse-lu"``,
        ``"dense"``), a backend instance, or None
        for the default (``"auto"``, which hands out ``"sparse-lu"``).
    coolant_model:
        Optional :class:`~repro.thermal.properties.CoolantModel`.  None or
        a constant-mode model leaves this function bit-identical to the
        constant-property path; a polynomial model wraps the solve in a
        Picard outer iteration (:func:`repro.core.picard.picard_solve`)
        whose passes solve
        :meth:`~repro.thermal.assembly.AssembledSystem.refreshed`: the
        layer-to-coolant conductances ``g_v`` at film properties of the
        bulk coolant temperatures, over the assembled pattern and rhs.
    picard:
        Optional :class:`~repro.core.picard.PicardSettings` convergence
        knobs (defaults apply when omitted).  Ignored for constant models.
    on_forward:
        Optional callback ``on_forward(system, handle)``, called with the
        assembled system and the :class:`FactorizationHandle` it was solved
        through, so a caller can run further solves against the same matrix
        (the adjoint's ``handle.solve(rhs, "T")``) without assembling or
        looking it up again.  Never called for temperature-dependent
        models, whose final matrix is not the assembled one.
    """
    if n_points < 3:
        raise ValueError("n_points must be at least 3")
    temperature_dependent = coolant_model is not None and not coolant_model.is_constant
    system = assembly.assemble_system(structure, n_points, lane_pitch)

    solver = resolve_backend(backend)
    handle = solver.solver_for(system.matrix, system.pattern_token)
    solution_vector = handle.solve(system.rhs)
    if not np.all(np.isfinite(solution_vector)):
        raise RuntimeError("finite-difference solve produced non-finite values")

    n_lanes = structure.n_lanes
    metadata = {
        "solver": "finite-difference",
        "n_points": n_points,
        "n_lanes": n_lanes,
        "cluster_size": structure.cluster_size,
        "lateral_conductance": float(system.lateral_conductance),
        "backend": solver.name,
    }
    if temperature_dependent:
        solution_vector, system, metadata["picard"] = picard_solve(
            system, solution_vector, solver, coolant_model, picard
        )
    elif on_forward is not None:
        on_forward(system, handle)

    fields = solution_vector.reshape(3, n_lanes, n_points)
    temperatures = fields[:2].copy()
    coolant = fields[2].copy()

    # Longitudinal heat flows recovered from the temperature field.
    gradient = np.gradient(temperatures, system.z_grid, axis=2)
    heat_flows = -system.params.g_l[None, :, None] * gradient
    return ThermalSolution(
        z=system.z_grid,
        temperatures=temperatures,
        heat_flows=heat_flows,
        coolant_temperatures=coolant,
        inlet_temperature=structure.inlet_temperature,
        metadata=metadata,
    )


def solve_structure(
    structure,
    n_points: int = 201,
    **kwargs,
) -> ThermalSolution:
    """Solve either a single-channel or a multi-channel structure.

    Dispatches :class:`~repro.thermal.geometry.TestStructure` instances to
    the finite-difference solver by wrapping them in a one-lane cavity, so
    that callers (notably the optimizer) do not need to care which kind of
    structure they are optimizing.  Keyword arguments (``backend``,
    ``lane_pitch``, ...) are forwarded to :func:`solve_finite_difference`.
    """
    if isinstance(structure, TestStructure):
        structure = MultiChannelStructure.single(structure)
    if not isinstance(structure, MultiChannelStructure):
        raise TypeError(
            "solve_structure expects a TestStructure or MultiChannelStructure"
        )
    return solve_finite_difference(structure, n_points=n_points, **kwargs)
