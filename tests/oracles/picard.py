"""Water-coolant Picard solves in the form they had before the refresh seam.

:func:`repro.core.picard.picard_solve` iterates over
``system.refreshed(films)``, which re-evaluates only the film-dependent
conductance values of an assembled system.  These are the loops it
replaced, and the test suite pins the production results to them bit
for bit:

* :func:`ice_picard_solve` assembles the finite-volume stack afresh on
  every pass, with the film records of that pass
  (:func:`oracles.ice_assembly.assemble_system_loop`), and reports the
  residual against the matrix of the accepted pass -- the base matrix after
  a fallback;
* :func:`fdm_picard_solve` recomputes each lane's ``g_v`` row on every
  pass, rebuilds the raw values over the cached pattern and folds them.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from oracles.ice_assembly import assemble_system_loop
from repro.core.picard import PicardSettings, picard_iterate, picard_metadata
from repro.thermal import assembly
from repro.thermal.backends import resolve_backend
from repro.thermal.geometry import MultiChannelStructure, TestStructure

__all__ = ["fdm_picard_solve", "ice_picard_solve"]


def _canonical(matrix):
    matrix = matrix.tocsr()
    matrix.sum_duplicates()
    matrix.sort_indices()
    return matrix


def ice_picard_solve(stack, coolant_model, settings=None, backend=None):
    """``(solution, picard metadata, residual_norm)`` of a finite-volume solve."""
    backend = resolve_backend(backend)
    settings = settings if settings is not None else PicardSettings()
    matrix, rhs, _ = assemble_system_loop(stack)
    base_matrix = _canonical(matrix)
    base_solution = backend.solve(base_matrix, rhs)
    n_cells = stack.n_rows * stack.n_cols
    cavities = [
        (layer_idx, layer_idx * n_cells)
        for layer_idx, layer in enumerate(stack.layers)
        if layer.is_cavity
    ]
    shape = (stack.n_rows, stack.n_cols)
    last = {"matrix": None}

    def field_of(vector):
        return np.concatenate(
            [vector[start : start + n_cells] for _, start in cavities]
        )

    def refresh(field):
        films = {}
        for offset, (layer_idx, _) in enumerate(cavities):
            cells = field[offset * n_cells : (offset + 1) * n_cells]
            films[layer_idx] = coolant_model.film(cells.reshape(shape))
        matrix, refreshed_rhs, _ = assemble_system_loop(stack, coolant_films=films)
        matrix = _canonical(matrix)
        last["matrix"] = matrix
        vector = backend.solve(matrix, refreshed_rhs)
        return vector, field_of(vector)

    outcome = picard_iterate(
        base_solution, field_of(base_solution), refresh, settings
    )
    if outcome.fell_back or last["matrix"] is None:
        matrix = base_matrix
    else:
        matrix = last["matrix"]
    residual = float(np.max(np.abs(matrix @ outcome.solution - rhs)))
    info = picard_metadata(coolant_model.name, settings, outcome)
    return outcome.solution, info, residual


def fdm_picard_solve(
    structure, n_points, coolant_model, settings=None, backend=None
):
    """``(solution, picard metadata)`` of a finite-difference cavity solve."""
    if isinstance(structure, TestStructure):
        structure = MultiChannelStructure.single(structure)
    solver = resolve_backend(backend)
    settings = settings if settings is not None else PicardSettings()
    system = assembly.assemble_system(structure, n_points)
    base_solution = solver.solve(system.matrix, system.rhs, system.pattern_token)
    n_lanes = structure.n_lanes
    pattern = system.pattern
    dz = system.z_grid[1] - system.z_grid[0]

    def refresh(coolant_field):
        g_v = np.empty_like(system.params.g_v)
        for lane_index in range(n_lanes):
            film = coolant_model.film(coolant_field[lane_index])
            g_v[lane_index], _ = assembly.lane_conductance_rows(
                structure, system.z_grid, lane_index, coolant=film
            )
        params = replace(system.params, g_v=g_v)
        values = pattern.values(params, system.lateral_conductance, dz)
        vector = solver.solve(pattern.matrix(values), system.rhs, pattern.token)
        return vector, vector.reshape(3, n_lanes, n_points)[2]

    outcome = picard_iterate(
        base_solution,
        base_solution.reshape(3, n_lanes, n_points)[2],
        refresh,
        settings,
    )
    return outcome.solution, picard_metadata(coolant_model.name, settings, outcome)
