"""Adjoint gradients: correctness, wiring and the shared linear-system core.

The adjoint path promises the *exact* gradient of the discrete problem
(one forward + one transpose solve), so the tests compare it against
central finite differences of the objective -- the reference oracle the
optimizer retains as ``gradient_mode="fd-batched"`` -- across randomized
feasible designs (Hypothesis), every registered steady scenario, and the
box bounds where the stencils must clamp.  The forward-slot tests check
that the gradient is bit-identical to the re-assembling oracle
(:mod:`oracles.adjoint`) and that, at a cost-evaluated iterate, it
assembles nothing and hashes nothing.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.adjoint import reference_gradient

import repro.thermal.assembly
from repro.core.adjoint import (
    ADJOINT_OBJECTIVES,
    AdjointGradient,
    objective_gradient,
    supports_adjoint,
)
from repro.core.engine import COUNTER_KEYS, EvaluationEngine
from repro.core.linear_system import SparsityFold
from repro.core.optimizer import (
    GRADIENT_MODES,
    ChannelModulationOptimizer,
    OptimizerSettings,
)
from repro.core.parameterization import WidthParameterization
from repro.scenarios import OptimizerSpec, get_scenario
from repro.thermal.assembly import assemble_system
from repro.thermal.backends import SparseLUBackend, get_backend
from repro.thermal.geometry import MultiChannelStructure
from repro.thermal.geometry import TestStructure as SingleChannelStructure


def as_multi(structure):
    if isinstance(structure, SingleChannelStructure):
        return MultiChannelStructure.single(structure)
    return structure


def central_fd_gradient(engine, structure, par, objective, vector, n_points, h=1e-5):
    """Central finite differences of the objective (the reference oracle)."""
    from repro.core.objectives import get_objective

    fn = get_objective(objective)
    candidates = []
    for index in range(vector.size):
        for sign in (+1.0, -1.0):
            point = np.array(vector)
            point[index] += sign * h
            candidates.append(
                structure.with_width_profiles(par.profiles_from_vector(point))
            )
    solutions = engine.solve_many(candidates, n_points=n_points)
    values = np.array([float(fn(s)) for s in solutions]).reshape(-1, 2)
    return (values[:, 0] - values[:, 1]) / (2.0 * h)


def assert_gradients_agree(adjoint, reference, rtol=1e-6):
    scale = np.max(np.abs(reference))
    assert scale > 0.0
    assert np.max(np.abs(adjoint - reference)) <= rtol * scale


# -- the analytic pieces -----------------------------------------------------


class TestObjectiveGradient:
    def test_gradient_transpose_is_the_exact_adjoint_of_np_gradient(self):
        from repro.core.adjoint import _gradient_transpose

        rng = np.random.default_rng(0)
        n = 17
        h = 0.3
        z = np.arange(n) * h
        u = rng.normal(size=(2, 3, n))
        v = rng.normal(size=(2, 3, n))
        lhs = np.sum(np.gradient(u, z, axis=2) * v)
        rhs = np.sum(u * _gradient_transpose(v, h))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    @pytest.mark.parametrize("objective", ADJOINT_OBJECTIVES)
    def test_djdt_matches_finite_differences_on_the_fields(
        self, objective, test_a
    ):
        from repro.core.objectives import get_objective
        from repro.thermal.fdm import solve_structure
        from repro.thermal.solution import ThermalSolution

        solution = solve_structure(test_a, n_points=61)
        system = assemble_system(as_multi(test_a), n_points=61)
        fn = get_objective(objective)
        analytic = objective_gradient(objective, solution, system.params.g_l)

        def cost_of(temperatures):
            return float(
                fn(
                    ThermalSolution(
                        z=solution.z,
                        temperatures=temperatures,
                        heat_flows=-system.params.g_l[None, :, None]
                        * np.gradient(temperatures, solution.z, axis=2),
                        coolant_temperatures=solution.coolant_temperatures,
                        inlet_temperature=solution.inlet_temperature,
                    )
                )
            )

        rng = np.random.default_rng(3)
        eps = 1e-4
        fd = np.zeros_like(analytic)
        for flat in rng.choice(analytic.size, size=12, replace=False):
            index = np.unravel_index(flat, analytic.shape)
            plus = solution.temperatures.copy()
            plus[index] += eps
            minus = solution.temperatures.copy()
            minus[index] -= eps
            fd[index] = (cost_of(plus) - cost_of(minus)) / (2 * eps)
            assert fd[index] == pytest.approx(
                analytic[index], rel=1e-5, abs=1e-9 * np.max(np.abs(analytic))
            )

    def test_unknown_objective_raises(self, test_a):
        from repro.thermal.fdm import solve_structure

        solution = solve_structure(test_a, n_points=41)
        with pytest.raises(ValueError, match="no adjoint"):
            objective_gradient("peak_temperature", solution, np.ones(1))


# -- adjoint vs the finite-difference oracle ---------------------------------


class TestAdjointMatchesFiniteDifferences:
    @settings(max_examples=12, deadline=None)
    @given(
        data=st.data(),
        n_segments=st.sampled_from([2, 3, 5]),
        n_points=st.sampled_from([41, 61, 81]),
        objective=st.sampled_from(["gradient_norm", "heat_flow"]),
    )
    def test_randomized_designs(
        self, data, n_segments, n_points, objective, test_a
    ):
        structure = as_multi(test_a)
        par = WidthParameterization(
            geometry=structure.geometry,
            n_segments=n_segments,
            n_lanes=structure.n_lanes,
        )
        vector = np.array(
            data.draw(
                st.lists(
                    st.floats(0.05, 0.95),
                    min_size=par.n_variables,
                    max_size=par.n_variables,
                )
            )
        )
        engine = EvaluationEngine()
        adjoint = AdjointGradient(structure, par, objective, n_points, engine)
        reference = central_fd_gradient(
            engine, structure, par, objective, vector, n_points
        )
        assert_gradients_agree(adjoint.gradient(vector), reference, rtol=2e-6)

    def test_softmax_range_objective(self, test_a):
        structure = as_multi(test_a)
        par = WidthParameterization(
            geometry=structure.geometry, n_segments=4, n_lanes=1
        )
        vector = np.linspace(0.25, 0.75, par.n_variables)
        engine = EvaluationEngine()
        adjoint = AdjointGradient(
            structure, par, "softmax_range", 81, engine
        )
        reference = central_fd_gradient(
            engine, structure, par, "softmax_range", vector, 81
        )
        assert_gradients_agree(adjoint.gradient(vector), reference, rtol=1e-6)

    def test_stencil_clamps_at_the_box_bounds(self, test_a):
        # At an active bound the width clipping flattens one side of any
        # naive central stencil; the adjoint must fall back to the
        # one-sided difference, matching one-sided FD of the cost.
        structure = as_multi(test_a)
        par = WidthParameterization(
            geometry=structure.geometry, n_segments=3, n_lanes=1
        )
        vector = np.array([1.0, 0.5, 0.0])
        engine = EvaluationEngine()
        adjoint = AdjointGradient(
            structure, par, "gradient_norm", 61, engine
        ).gradient(vector)
        from repro.core.objectives import get_objective

        fn = get_objective("gradient_norm")

        def cost(point):
            return float(
                fn(
                    engine.solve(
                        structure.with_width_profiles(
                            par.profiles_from_vector(point)
                        ),
                        n_points=61,
                    )
                )
            )

        h = 1e-5
        for index, sign in ((0, -1.0), (2, +1.0)):
            inner = np.array(vector)
            inner[index] += sign * h
            one_sided = sign * (cost(inner) - cost(vector)) / h
            assert adjoint[index] == pytest.approx(one_sided, rel=5e-4)

    @pytest.mark.parametrize(
        "name", ["test-a", "test-b", "niagara-arch1"]
    )
    def test_registered_scenarios(self, name):
        # The acceptance bar of the adjoint path: <= 1e-6 relative
        # agreement with the finite-difference oracle on every registered
        # steady scenario, at the scenario's own settings.
        spec = get_scenario(name)
        settings_ = spec.optimizer_settings()
        structure = as_multi(spec.build_structure())
        optimizer = ChannelModulationOptimizer(structure, settings_)
        par = optimizer.parameterization
        vector = np.linspace(0.3, 0.7, par.n_variables)
        reference = central_fd_gradient(
            optimizer.engine,
            structure,
            par,
            settings_.objective,
            vector,
            settings_.n_grid_points,
        )
        assert_gradients_agree(
            optimizer.adjoint_cost_gradient(vector), reference, rtol=1e-6
        )


# -- transposed handle solves -------------------------------------------------


class TestTransposedHandleSolve:
    def make_system(self, test_a, n_points=61):
        system = assemble_system(as_multi(test_a), n_points=n_points)
        rng = np.random.default_rng(11)
        rhs = rng.normal(size=system.matrix.shape[0])
        return system, rhs

    @pytest.mark.parametrize(
        "backend_name", ["dense", "sparse-lu", "auto"]
    )
    def test_solves_the_transposed_system(self, backend_name, test_a):
        system, rhs = self.make_system(test_a)
        handle = get_backend(backend_name).solver_for(
            system.matrix, system.pattern_token
        )
        solution = handle.solve(rhs, "T")
        residual = system.matrix.T @ solution - rhs
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs)

    def test_sparse_lu_reuses_the_forward_factorization(self, test_a):
        from repro.thermal.backends import SparseLUBackend

        system, rhs = self.make_system(test_a)
        backend = SparseLUBackend()
        backend.solve(system.matrix, system.rhs, system.pattern_token)
        assert backend.stats()["n_factorizations"] == 1
        backend.solver_for(system.matrix, system.pattern_token).solve(rhs, "T")
        stats = backend.stats()
        # The transpose solve must not factorize again -- SuperLU serves
        # it from the forward decomposition (trans='T').
        assert stats["n_factorizations"] == 1
        assert stats["n_factorization_reuses"] == 1

    def test_engine_counts_transpose_and_adjoint_solves(self, test_a):
        structure = as_multi(test_a)
        engine = EvaluationEngine()
        par = WidthParameterization(
            geometry=structure.geometry, n_segments=2, n_lanes=1
        )
        AdjointGradient(structure, par, "gradient_norm", 41, engine).gradient(
            np.array([0.4, 0.6])
        )
        stats = engine.stats()
        assert stats["n_adjoint_solves"] == 1
        assert stats["n_transpose_solves"] == 1
        assert "n_adjoint_solves" in COUNTER_KEYS
        assert "n_transpose_solves" in COUNTER_KEYS
        merged = EvaluationEngine.merge_stats([stats, stats])
        assert merged["n_adjoint_solves"] == 2
        assert merged["n_transpose_solves"] == 2


# -- the forward slot: no re-assembly, no content hash -----------------------


def count_assemblies(monkeypatch):
    """Count ``assemble_system`` calls through every module that holds it."""
    original = repro.thermal.assembly.assemble_system
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "assemble_system", None) is original:
            monkeypatch.setattr(module, "assemble_system", counted)
    return calls


def make_adjoint(structure, n_segments=3, n_points=61, shared=False, backend="auto"):
    structure = as_multi(structure)
    par = WidthParameterization(
        geometry=structure.geometry,
        n_segments=n_segments,
        n_lanes=structure.n_lanes,
        shared=shared,
    )
    engine = EvaluationEngine(solver_backend=backend)
    return AdjointGradient(structure, par, "gradient_norm", n_points, engine)


def cost_at(adjoint, vector):
    """Evaluate the forward solve at ``vector``, as SLSQP's cost call does."""
    candidate = adjoint.structure.with_width_profiles(
        adjoint.parameterization.profiles_from_vector(vector)
    )
    return adjoint.engine.solve(candidate, n_points=adjoint.n_points)


class TestForwardSlot:
    @pytest.mark.parametrize("fixture", ["test_a", "test_b"])
    def test_identical_to_the_reassembling_oracle(self, fixture, request):
        adjoint = make_adjoint(request.getfixturevalue(fixture), n_segments=4)
        vector = np.linspace(0.2, 0.8, adjoint.parameterization.n_variables)
        cost_at(adjoint, vector)
        gradient = adjoint.gradient(vector)
        assert np.array_equal(gradient, reference_gradient(adjoint, vector))

    @pytest.mark.parametrize("shared", [True, False])
    def test_identical_on_a_four_lane_cavity(self, shared, arch1_cavity):
        adjoint = make_adjoint(arch1_cavity, n_segments=3, n_points=41, shared=shared)
        rng = np.random.default_rng(4)
        vector = rng.uniform(0.1, 0.9, adjoint.parameterization.n_variables)
        cost_at(adjoint, vector)
        gradient = adjoint.gradient(vector)
        assert np.array_equal(gradient, reference_gradient(adjoint, vector))

    def test_identical_at_the_box_bounds(self, test_a):
        adjoint = make_adjoint(test_a)
        vector = np.array([1.0, 0.5, 0.0])
        cost_at(adjoint, vector)
        gradient = adjoint.gradient(vector)
        assert np.array_equal(gradient, reference_gradient(adjoint, vector))

    def test_slot_miss_rebuilds_once_and_stays_identical(self, test_a, monkeypatch):
        adjoint = make_adjoint(test_a, backend=SparseLUBackend())
        backend = adjoint.engine.solver_backend
        first = np.array([0.3, 0.5, 0.7])
        second = np.array([0.6, 0.4, 0.2])
        cost_at(adjoint, first)
        cost_at(adjoint, second)  # the slot now holds the second iterate
        calls = count_assemblies(monkeypatch)
        before = backend.stats()
        gradient = adjoint.gradient(first)
        after = backend.stats()
        assert len(calls) == 1
        assert after["n_content_hashes"] - before["n_content_hashes"] == 1
        assert after["n_factorizations"] == before["n_factorizations"]
        assert np.array_equal(gradient, reference_gradient(adjoint, first))

    def test_gradient_at_a_cost_evaluated_iterate_assembles_and_hashes_nothing(
        self, test_a, monkeypatch
    ):
        adjoint = make_adjoint(test_a, backend=SparseLUBackend())
        backend = adjoint.engine.solver_backend
        vector = np.array([0.3, 0.5, 0.7])
        cost_at(adjoint, vector)
        calls = count_assemblies(monkeypatch)
        before = backend.stats()
        adjoint.gradient(vector)
        after = backend.stats()
        assert len(calls) == 0
        assert after["n_content_hashes"] == before["n_content_hashes"]
        assert after["n_factorizations"] == before["n_factorizations"]
        assert (
            after["n_factorization_reuses"] - before["n_factorization_reuses"] == 1
        )

    def test_clear_cache_empties_the_slot(self, test_a, monkeypatch):
        adjoint = make_adjoint(test_a, backend=SparseLUBackend())
        vector = np.array([0.3, 0.5, 0.7])
        cost_at(adjoint, vector)
        adjoint.engine.clear_cache()
        assert adjoint.engine._forward is None
        calls = count_assemblies(monkeypatch)
        adjoint.gradient(vector)
        # The forward solve assembles once and refills the slot.
        assert len(calls) == 1

    def test_water_picard_solves_publish_no_slot(self, test_a):
        from repro.thermal.properties import get_coolant_model

        engine = EvaluationEngine(solver_backend=SparseLUBackend())
        engine.solve(
            as_multi(test_a),
            n_points=41,
            coolant_model=get_coolant_model("water"),
        )
        assert engine._forward is None


# -- gradient_mode wiring ----------------------------------------------------


class TestGradientModeWiring:
    def test_settings_reject_unknown_modes(self):
        with pytest.raises(ValueError, match="gradient_mode"):
            OptimizerSettings(gradient_mode="exact")

    def test_spec_rejects_unknown_modes(self):
        with pytest.raises(ValueError, match="optimizer.gradient_mode"):
            OptimizerSpec(gradient_mode="magic")

    def test_spec_threads_the_mode_into_settings(self):
        spec = get_scenario("test-a")
        assert spec.optimizer_settings().gradient_mode == "adjoint"
        from dataclasses import replace

        pinned = spec.with_overrides(
            optimizer=replace(spec.optimizer, gradient_mode="fd-batched")
        )
        assert pinned.optimizer_settings().gradient_mode == "fd-batched"
        assert pinned.to_dict()["optimizer"]["gradient_mode"] == "fd-batched"
        assert pinned.spec_hash() != spec.spec_hash()

    def test_nonsmooth_objective_falls_back_loudly(self, test_a):
        with pytest.warns(UserWarning, match="no adjoint"):
            optimizer = ChannelModulationOptimizer(
                test_a,
                OptimizerSettings(
                    objective="temperature_range", n_segments=2
                ),
            )
        assert optimizer.effective_gradient_mode == "fd-batched"
        with pytest.raises(RuntimeError, match="not available"):
            optimizer.adjoint_cost_gradient(np.array([0.5, 0.5]))

    def test_supported_objectives_registry(self):
        assert supports_adjoint("gradient_norm")
        assert supports_adjoint("heat_flow")
        assert supports_adjoint("softmax_range")
        assert not supports_adjoint("temperature_range")
        assert not supports_adjoint("peak_temperature")
        assert set(GRADIENT_MODES) == {"adjoint", "fd-batched"}

    def test_adjoint_and_fd_runs_find_equivalent_optima(self, test_a):
        # The two gradient strategies drive SLSQP along different inner
        # paths but must land on designs of equivalent quality.
        def run(mode):
            return ChannelModulationOptimizer(
                test_a,
                OptimizerSettings(
                    n_segments=4,
                    n_grid_points=101,
                    max_iterations=25,
                    gradient_mode=mode,
                ),
            ).optimize()

        adjoint_run = run("adjoint")
        fd_run = run("fd-batched")
        assert adjoint_run.optimal.cost == pytest.approx(
            fd_run.optimal.cost, rel=0.02
        )

    def test_cli_rejects_unknown_gradient_mode(self, capsys):
        from repro.cli import main

        code = main(["optimize", "test-a", "--gradient-mode", "bogus"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "gradient_mode" in err
        assert len(err.strip().splitlines()) == 1


# -- the shared linear-system core -------------------------------------------


class TestLinearSystemCore:
    def test_sparsity_fold_matches_scipy_coo_folding(self):
        rng = np.random.default_rng(5)
        n = 12
        rows = rng.integers(0, n, size=60)
        cols = rng.integers(0, n, size=60)
        values = rng.normal(size=60)
        fold = SparsityFold(rows, cols, n)
        from scipy import sparse

        expected = sparse.coo_matrix(
            (values, (rows, cols)), shape=(n, n)
        ).tocsr()
        expected.sum_duplicates()
        actual = fold.matrix(values)
        np.testing.assert_array_equal(actual.toarray(), expected.toarray())

    def test_fold_rejects_bad_shapes(self):
        fold = SparsityFold(np.array([0, 1]), np.array([1, 0]), 2)
        with pytest.raises(ValueError, match="expected 2 coefficient"):
            fold.fold(np.ones(3))
        with pytest.raises(ValueError, match="equal-length"):
            SparsityFold(np.array([0, 1]), np.array([0]), 2)
        with pytest.raises(ValueError, match="empty"):
            SparsityFold(np.array([], dtype=int), np.array([], dtype=int), 2)

    def test_fold_is_bit_identical_to_unbuffered_add_at(self):
        rng = np.random.default_rng(9)
        rows = rng.integers(0, 40, size=500)
        cols = rng.integers(0, 40, size=500)
        fold = SparsityFold(rows, cols, 40)
        values = rng.normal(size=500) * 10.0 ** rng.uniform(-8, 8, size=500)
        reference = np.zeros(fold.nnz)
        np.add.at(reference, fold.entry_to_slot, values)
        # Both accumulate each slot in raw entry order, so the folded data
        # must agree bit for bit, not just within tolerance.
        np.testing.assert_array_equal(fold.fold(values), reference)

    def test_assembled_system_retains_raw_values(self, test_a):
        system = assemble_system(as_multi(test_a), n_points=41)
        assert system.values is not None
        np.testing.assert_array_equal(
            system.pattern.matrix(system.values).toarray(),
            system.matrix.toarray(),
        )
