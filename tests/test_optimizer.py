"""Unit and integration tests of the direct sequential optimizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ChannelModulationDesigner,
    ChannelModulationOptimizer,
    OptimizerSettings,
)
from repro.core.baselines import (
    best_uniform_design,
    per_lane_uniform_design,
    uniform_maximum_design,
    uniform_minimum_design,
)
from repro.thermal.properties import TABLE_I


class TestOptimizerSettings:
    def test_defaults_use_paper_objective(self):
        assert OptimizerSettings().objective == "gradient_norm"

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            OptimizerSettings(n_segments=0)
        with pytest.raises(ValueError):
            OptimizerSettings(n_grid_points=1)
        with pytest.raises(ValueError):
            OptimizerSettings(multistart=0)
        # A zero step divides the finite-difference gradient by zero, a
        # negative or >= 1 step puts stencil points outside the [0, 1] box.
        for step in (0.0, -1e-3, 1.0, float("nan")):
            with pytest.raises(ValueError, match="finite_difference_step"):
                OptimizerSettings(finite_difference_step=step)
        for tolerance in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="tolerance"):
                OptimizerSettings(tolerance=tolerance)


class TestOptimizerUnits:
    @pytest.fixture(scope="class")
    def optimizer(self, test_a):
        return ChannelModulationOptimizer(
            test_a, OptimizerSettings(n_segments=6, n_grid_points=161)
        )

    def test_wraps_single_channel_structure(self, optimizer):
        assert optimizer.structure.n_lanes == 1

    def test_rejects_wrong_structure_type(self):
        with pytest.raises(TypeError):
            ChannelModulationOptimizer(42)

    def test_solution_cache_returns_same_object(self, optimizer):
        vector = optimizer.parameterization.midpoint_vector()
        first = optimizer.solve_candidate(vector)
        second = optimizer.solve_candidate(vector)
        assert first is second

    def test_cost_positive(self, optimizer):
        vector = optimizer.parameterization.midpoint_vector()
        assert optimizer.cost(vector) > 0.0

    def test_evaluate_uniform_label_and_pressure(self, optimizer, geometry):
        evaluation = optimizer.evaluate_uniform(geometry.max_width)
        assert "50" in evaluation.label
        assert evaluation.max_pressure_drop < TABLE_I.max_pressure_drop

    def test_pressure_limit_is_table_i(self, optimizer):
        assert optimizer.pressure.max_pressure_drop == pytest.approx(
            TABLE_I.max_pressure_drop
        )


class TestTestAOptimization:
    """Integration: the paper's Test A experiment (uniform 50 W/cm^2)."""

    def test_gradient_reduction_in_paper_range(self, test_a_result):
        """The paper reports ~32%; accept anything beyond 15% for the coarse
        settings used in the test fixture."""
        assert test_a_result.gradient_reduction > 0.15

    def test_optimal_beats_both_uniform_baselines(self, test_a_result):
        optimal = test_a_result.optimal.thermal_gradient
        for baseline in test_a_result.baselines:
            assert optimal < baseline.thermal_gradient

    def test_pressure_constraint_respected(self, test_a_result):
        assert test_a_result.optimal.max_pressure_drop <= (
            TABLE_I.max_pressure_drop * 1.01
        )

    def test_width_profile_narrows_toward_outlet(self, test_a_result):
        """Fig. 6(a): for uniform heating the width decreases monotonically."""
        widths = test_a_result.optimal.width_profiles[0].segment_widths
        assert widths[0] > widths[-1]
        # Allow small non-monotonic wiggles but require an overall decrease.
        assert np.sum(np.diff(widths) <= 1e-7) >= len(widths) - 2

    def test_optimal_peak_close_to_minimum_width_peak(self, test_a_result):
        """Sec. V-B observation: the optimal design implicitly minimizes the
        peak temperature down to the minimum-width level."""
        minimum = test_a_result.baseline("uniform minimum")
        maximum = test_a_result.baseline("uniform maximum")
        assert test_a_result.optimal.peak_temperature < maximum.peak_temperature
        assert test_a_result.optimal.peak_temperature == pytest.approx(
            minimum.peak_temperature, abs=2.0
        )

    def test_uniform_baselines_have_similar_gradients(self, test_a_result):
        gradients = [b.thermal_gradient for b in test_a_result.baselines]
        assert max(gradients) / min(gradients) < 1.15

    def test_trace_recorded(self, test_a_result):
        assert test_a_result.trace.n_iterations > 0
        assert len(test_a_result.trace.cost_history) == (
            test_a_result.trace.n_iterations
        )

    def test_summary_fields(self, test_a_result):
        summary = test_a_result.summary()
        assert 0.0 < summary["gradient_reduction"] < 1.0
        assert summary["optimal_gradient_K"] < summary["reference_gradient_K"]


class TestTestBOptimization:
    def test_hotspot_workload_benefits_from_modulation(self, test_b):
        designer = ChannelModulationDesigner(
            test_b,
            OptimizerSettings(n_segments=10, max_iterations=30, n_grid_points=161),
        )
        result = designer.design()
        assert result.gradient_reduction > 0.10
        assert result.optimal.max_pressure_drop <= TABLE_I.max_pressure_drop * 1.01


class TestWarmStartAndCallbacks:
    def test_warm_start_from_profiles(self, test_a, test_a_result):
        designer = ChannelModulationDesigner(
            test_a,
            OptimizerSettings(n_segments=8, max_iterations=10, n_grid_points=181),
        )
        warm = designer.design(initial_profiles=test_a_result.optimal.width_profiles)
        assert warm.optimal.thermal_gradient <= (
            test_a_result.reference_gradient
        )

    def test_callback_invoked(self, test_a):
        seen = []
        optimizer = ChannelModulationOptimizer(
            test_a,
            OptimizerSettings(n_segments=4, max_iterations=5, n_grid_points=121),
        )
        optimizer.optimize(callback=lambda vector: seen.append(vector.copy()))
        assert len(seen) > 0


class TestBaselines:
    @pytest.fixture(scope="class")
    def optimizer(self, test_a):
        return ChannelModulationOptimizer(
            test_a, OptimizerSettings(n_segments=4, n_grid_points=121)
        )

    def test_uniform_minimum_and_maximum_labels(self, optimizer):
        assert uniform_minimum_design(optimizer).label == "uniform minimum"
        assert uniform_maximum_design(optimizer).label == "uniform maximum"

    def test_best_uniform_respects_pressure_limit(self, optimizer):
        best = best_uniform_design(optimizer, n_candidates=9)
        assert best.max_pressure_drop <= optimizer.pressure.max_pressure_drop * 1.01
        assert best.label == "best uniform"

    def test_per_lane_uniform_single_lane(self, optimizer):
        design = per_lane_uniform_design(optimizer, n_candidates=5)
        assert design.label == "per-lane uniform"
        assert len(design.width_profiles) == 1


class TestMultiLaneOptimization:
    def test_arch1_cavity_gradient_reduction(self, arch1_cavity):
        designer = ChannelModulationDesigner(
            arch1_cavity,
            OptimizerSettings(
                n_segments=4, max_iterations=25, n_grid_points=121
            ),
        )
        result = designer.design()
        assert result.gradient_reduction > 0.08
        assert result.optimal.max_pressure_drop <= TABLE_I.max_pressure_drop * 1.01
        # Hydraulic balance (Eq. 10) within the configured tolerance.
        assert result.optimal.pressure_imbalance < 0.25

    def test_shared_profile_mode_runs(self, arch1_cavity):
        designer = ChannelModulationDesigner(
            arch1_cavity,
            OptimizerSettings(
                n_segments=4,
                max_iterations=15,
                n_grid_points=121,
                shared_profile=True,
            ),
        )
        result = designer.design()
        profiles = result.optimal.width_profiles
        assert len(profiles) == arch1_cavity.n_lanes
        first_widths = profiles[0].segment_widths
        for profile in profiles[1:]:
            np.testing.assert_allclose(profile.segment_widths, first_widths)


class TestBatchedGradients:
    @pytest.fixture()
    def optimizer(self, test_a):
        return ChannelModulationOptimizer(
            test_a,
            OptimizerSettings(n_segments=5, n_grid_points=81, n_workers=4),
        )

    def test_gradient_points_stay_in_bounds(self, optimizer):
        at_upper = np.ones(optimizer.parameterization.n_variables)
        steps, points = optimizer.gradient_points(at_upper)
        assert np.all(steps < 0.0)  # forward steps flip backward at the bound
        assert np.all(points >= 0.0) and np.all(points <= 1.0)

    def test_one_gradient_is_one_solve_many_batch(self, optimizer):
        """Acceptance: n+1 perturbed solves go through ONE solve_many call."""
        n_variables = optimizer.parameterization.n_variables
        midpoint = optimizer.parameterization.midpoint_vector()
        optimizer.engine.reset_stats()
        gradient = optimizer.cost_gradient(midpoint)
        stats = optimizer.engine.stats()
        assert gradient.shape == (n_variables,)
        assert stats["n_batches"] == 1
        assert stats["n_batch_items"] == n_variables + 1
        assert stats["n_solves"] <= n_variables + 1

    def test_gradient_batch_dedupes_against_cache(self, optimizer):
        midpoint = optimizer.parameterization.midpoint_vector()
        optimizer.solve_candidate(midpoint)  # the base point is now cached
        solves_before = optimizer.engine.stats()["n_solves"]
        optimizer.cost_gradient(midpoint)
        new_solves = optimizer.engine.stats()["n_solves"] - solves_before
        assert new_solves == optimizer.parameterization.n_variables

    def test_matches_sequential_finite_differences(self, optimizer):
        midpoint = optimizer.parameterization.midpoint_vector()
        batched = optimizer.cost_gradient(midpoint)
        step = optimizer.settings.finite_difference_step
        base = optimizer.cost(midpoint)
        sequential = np.empty_like(batched)
        for variable in range(midpoint.size):
            perturbed = midpoint.copy()
            perturbed[variable] += step
            sequential[variable] = (optimizer.cost(perturbed) - base) / step
        np.testing.assert_allclose(batched, sequential, rtol=1e-12, atol=0.0)

    def test_constraint_jacobians_attached(self, optimizer):
        constraints = optimizer.pressure.as_scipy_constraints()
        midpoint = optimizer.parameterization.midpoint_vector()
        for constraint in constraints:
            assert "jac" in constraint
            jacobian = np.atleast_2d(constraint["jac"](midpoint))
            assert jacobian.shape[1] == midpoint.size
            assert np.all(np.isfinite(jacobian))

    def test_margin_jacobian_sign(self, optimizer):
        """Widening any segment raises the margin (lower pressure drop)."""
        midpoint = optimizer.parameterization.midpoint_vector()
        jacobian = optimizer.pressure.margin_jacobian(midpoint)
        assert np.all(jacobian > 0.0)


class TestConcurrentMultistart:
    def test_concurrent_matches_sequential(self, test_a):
        results = {}
        for n_workers in (1, 4):
            settings = OptimizerSettings(
                n_segments=3,
                n_grid_points=81,
                max_iterations=10,
                multistart=3,
                n_workers=n_workers,
            )
            optimizer = ChannelModulationOptimizer(test_a, settings)
            results[n_workers] = optimizer.optimize()
        np.testing.assert_allclose(
            results[4].decision_vector,
            results[1].decision_vector,
            rtol=0.0,
            atol=1e-12,
        )
        assert results[4].optimal.thermal_gradient == pytest.approx(
            results[1].optimal.thermal_gradient, abs=1e-9
        )
