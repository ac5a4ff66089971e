"""Water-coolant Picard results pinned to the fresh-assembly oracle.

Both model families run their Picard passes through one refresh seam,
``system.refreshed(films)`` (:func:`repro.core.picard.picard_solve`).
The forms it replaced -- a fresh finite-volume assembly per pass and a
lane-by-lane ``g_v`` rebuild for the FDM cavity -- live on in
``tests/oracles/picard.py``.  Every map, the ``metadata["picard"]``
payload and the finite-volume residual must equal the oracle's exactly,
on converging scenarios and on a forced fallback; and a water solve must
assemble once and refresh over the base system's pattern and rhs.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import picard as oracle
from repro.core.linear_system import pattern_cache_info
from repro.core.picard import PicardSettings
from repro.ice.solver import AssembledSystem, SteadyStateSolver
from repro.scenarios import get_scenario
from repro.thermal import assembly
from repro.thermal.fdm import solve_structure
from repro.thermal.properties import WATER_COOLANT_MODEL

FORCED_FALLBACK = PicardSettings(tolerance_K=1e-12, max_iterations=1)

CASES = [
    pytest.param("test-a", None, id="test-a"),
    pytest.param("test-b", None, id="test-b"),
    pytest.param("niagara-arch1", None, id="niagara-arch1"),
    pytest.param("test-a", FORCED_FALLBACK, id="test-a-forced-fallback"),
]


@pytest.mark.parametrize("name, settings", CASES)
def test_ice_water_solve_matches_the_fresh_assembly_oracle(name, settings):
    stack = get_scenario(name).build_stack()
    result = SteadyStateSolver(
        stack, coolant_model=WATER_COOLANT_MODEL, picard=settings
    ).solve()
    expected, picard, residual = oracle.ice_picard_solve(
        stack, WATER_COOLANT_MODEL, settings
    )
    n_cells = stack.n_rows * stack.n_cols
    for layer_idx, layer in enumerate(stack.layers):
        maps = result.coolant_maps if layer.is_cavity else result.layer_maps
        cells = expected[layer_idx * n_cells : (layer_idx + 1) * n_cells]
        assert np.array_equal(
            maps[layer.name], cells.reshape(stack.n_rows, stack.n_cols)
        ), layer.name
    assert result.metadata["picard"] == picard
    assert result.metadata["residual_norm"] == residual
    assert picard["fell_back"] == (settings is FORCED_FALLBACK)


@pytest.mark.parametrize("name, settings", CASES)
def test_fdm_water_solve_matches_the_lane_refresh_oracle(name, settings):
    spec = get_scenario(name)
    structure = spec.build_structure()
    n_points = spec.grid.n_grid_points
    solution = solve_structure(
        structure,
        n_points=n_points,
        coolant_model=WATER_COOLANT_MODEL,
        picard=settings,
    )
    expected, picard = oracle.fdm_picard_solve(
        structure, n_points, WATER_COOLANT_MODEL, settings
    )
    fields = expected.reshape(3, -1, n_points)
    assert np.array_equal(solution.temperatures, fields[:2])
    assert np.array_equal(solution.coolant_temperatures, fields[2])
    assert solution.metadata["picard"] == picard
    assert picard["fell_back"] == (settings is FORCED_FALLBACK)


def _record_refreshes(monkeypatch, system_class):
    """Wrap ``system_class.refreshed``; return the list of refreshed systems."""
    refreshed = []
    original = system_class.refreshed

    def recording(self, films):
        system = original(self, films)
        refreshed.append((self, system, pattern_cache_info()["n_misses"]))
        return system

    monkeypatch.setattr(system_class, "refreshed", recording)
    return refreshed


def _assert_refreshes_share_the_base(refreshed, n_iterations, misses_before):
    assert len(refreshed) == n_iterations >= 1
    base = refreshed[0][0]
    for source, system, n_misses in refreshed:
        assert source is base
        assert system is not base
        assert system.pattern is base.pattern
        assert system.rhs is base.rhs
        assert system.pattern_token == base.pattern_token
        assert n_misses == misses_before
    assert pattern_cache_info()["n_misses"] == misses_before


def test_ice_water_solve_assembles_once_and_refreshes_values(monkeypatch):
    stack = get_scenario("niagara-arch1").build_stack()
    constructed = []
    original_init = AssembledSystem.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(self)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(AssembledSystem, "__init__", counting_init)
    refreshed = _record_refreshes(monkeypatch, AssembledSystem)
    solver = SteadyStateSolver(stack, coolant_model=WATER_COOLANT_MODEL)
    misses_before = pattern_cache_info()["n_misses"]
    result = solver.solve()
    assert constructed == [solver.system]
    _assert_refreshes_share_the_base(
        refreshed, result.metadata["picard"]["n_iterations"], misses_before
    )
    assert all(
        system.capacitances is solver.system.capacitances
        for _, system, _ in refreshed
    )


def test_fdm_water_solve_assembles_once_and_refreshes_values(monkeypatch):
    spec = get_scenario("niagara-arch1")
    structure = spec.build_structure()
    n_points = spec.grid.n_grid_points
    assembly.assemble_system(structure, n_points)  # caches the base pattern
    assembled = []
    original_assemble = assembly.assemble_system

    def counting_assemble(*args, **kwargs):
        assembled.append(original_assemble(*args, **kwargs))
        return assembled[-1]

    monkeypatch.setattr(assembly, "assemble_system", counting_assemble)
    refreshed = _record_refreshes(monkeypatch, assembly.AssembledSystem)
    misses_before = pattern_cache_info()["n_misses"]
    solution = solve_structure(
        structure, n_points=n_points, coolant_model=WATER_COOLANT_MODEL
    )
    assert len(assembled) == 1
    _assert_refreshes_share_the_base(
        refreshed, solution.metadata["picard"]["n_iterations"], misses_before
    )
