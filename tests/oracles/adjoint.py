"""Re-assembling adjoint gradient: the oracle of the forward-slot adjoint.

:meth:`repro.core.adjoint.AdjointGradient.gradient` takes the forward
system and its factorization handle from the evaluation engine's forward
slot and solves the transpose system through that handle.  This is the
form it replaced: the candidate's system is assembled again and the
transpose system goes through a fresh handle of the backend, acquired by
a content hash of the matrix.  Both read the same deterministic assembly
and the same factor, so they agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.adjoint import objective_gradient
from repro.thermal.assembly import assemble_system, lane_conductance_rows
from repro.thermal.backends import resolve_backend

__all__ = ["reference_gradient"]


def reference_gradient(adjoint, vector) -> np.ndarray:
    """``dJ/dx`` of ``adjoint``'s problem at ``vector``, re-assembling the system."""
    par = adjoint.parameterization
    vector = np.clip(np.asarray(vector, dtype=float), 0.0, 1.0)
    profiles = par.profiles_from_vector(vector)
    candidate = adjoint.structure.with_width_profiles(profiles)
    solution = adjoint.engine.solve(candidate, n_points=adjoint.n_points)
    system = assemble_system(candidate, n_points=adjoint.n_points)

    u = np.concatenate(
        [solution.temperatures.ravel(), solution.coolant_temperatures.ravel()]
    )
    dJdT = objective_gradient(adjoint.objective, solution, system.params.g_l)
    dJdu = np.concatenate(
        [dJdT.ravel(), np.zeros(solution.coolant_temperatures.size)]
    )
    lam = (
        resolve_backend(adjoint.engine.solver_backend)
        .solver_for(system.matrix, system.pattern_token)
        .solve(dJdu, "T")
    )
    fold = system.pattern.fold
    s_v, s_w = system.pattern.conductance_sensitivities(lam[fold.rows] * u[fold.cols])

    n_variables = par.n_variables
    n_segments = par.n_segments
    z_grid = system.z_grid
    length = par.geometry.length
    z = np.clip(np.asarray(z_grid, dtype=float), 0.0, length)
    segment_of_point = np.minimum((z / length * n_segments).astype(int), n_segments - 1)
    low, high = par.width_bounds
    width_span = high - low
    delta_plus = np.minimum(adjoint.step, 1.0 - vector)
    delta_minus = np.minimum(adjoint.step, vector)
    denominator = delta_plus + delta_minus

    gradient = np.zeros(n_variables)
    for lane in range(par.n_lanes):
        if par.shared:
            variables = np.arange(n_variables)
        else:
            variables = np.arange(lane * n_segments, (lane + 1) * n_segments)
        base = np.asarray(profiles[lane](z_grid), dtype=float)
        segment_mask = segment_of_point[None, :] == (variables % n_segments)[:, None]
        widths = np.concatenate(
            [
                base[None, :]
                + segment_mask * (delta_plus[variables] * width_span)[:, None],
                base[None, :]
                - segment_mask * (delta_minus[variables] * width_span)[:, None],
            ]
        )
        g_v, g_w = lane_conductance_rows(candidate, z_grid, lane, widths=widths)
        k = variables.size
        inner = (g_v[:k] - g_v[k:]) @ s_v[lane]
        inner += (g_w[:k] - g_w[k:]) @ s_w[lane]
        safe = denominator[variables] > 0.0
        gradient[variables[safe]] += -inner[safe] / denominator[variables][safe]
    return gradient
