"""Tests of the boundary-value solvers for the single-channel model."""

from __future__ import annotations

import numpy as np
import pytest

from oracles.bvp import solve_collocation, solve_single_channel
from repro.thermal.bvp import solve_trapezoidal
from repro.thermal.conductances import capacity_rate
from repro.thermal.geometry import WidthProfile


class TestTrapezoidalSolver:
    def test_boundary_conditions_satisfied(self, test_a_solution):
        heat_flows = test_a_solution.heat_flows
        # Adiabatic ends (Eq. 5): q_i(0) = q_i(d) = 0.
        assert abs(heat_flows[0, 0, 0]) < 1e-6
        assert abs(heat_flows[1, 0, 0]) < 1e-6
        assert abs(heat_flows[0, 0, -1]) < 1e-6
        assert abs(heat_flows[1, 0, -1]) < 1e-6

    def test_coolant_starts_at_inlet_temperature(self, test_a_solution, test_a):
        assert test_a_solution.coolant_temperatures[0, 0] == pytest.approx(
            test_a.inlet_temperature
        )

    def test_energy_conservation(self, test_a_solution, test_a):
        """All injected power leaves through the coolant at steady state."""
        rate = capacity_rate(test_a.coolant, test_a.flow_rate)
        absorbed = test_a_solution.absorbed_power(rate)
        assert absorbed == pytest.approx(test_a.total_power, rel=2e-3)

    def test_silicon_hotter_than_coolant(self, test_a_solution):
        silicon_mean = test_a_solution.temperatures.mean(axis=(0, 1))
        coolant = test_a_solution.coolant_temperatures[0]
        assert np.all(silicon_mean > coolant - 1e-9)

    def test_coolant_monotonically_heats_up(self, test_a_solution):
        coolant = test_a_solution.coolant_temperatures[0]
        assert np.all(np.diff(coolant) >= -1e-9)

    def test_symmetric_inputs_give_symmetric_layers(self, test_a_solution):
        """Test A heats both layers identically, so T1(z) == T2(z)."""
        np.testing.assert_allclose(
            test_a_solution.temperatures[0, 0],
            test_a_solution.temperatures[1, 0],
            rtol=1e-9,
        )

    def test_gradient_matches_paper_magnitude(self, test_a_solution):
        """Test A with uniform widths shows a ~20-30 K gradient (paper: 28 C)."""
        assert 15.0 < test_a_solution.thermal_gradient < 35.0

    def test_grid_refinement_converges(self, test_a):
        coarse = solve_trapezoidal(test_a, n_points=101)
        fine = solve_trapezoidal(test_a, n_points=801)
        assert coarse.thermal_gradient == pytest.approx(
            fine.thermal_gradient, rel=2e-2
        )

    def test_rejects_too_few_points(self, test_a):
        with pytest.raises(ValueError):
            solve_trapezoidal(test_a, n_points=2)


class TestCollocationCrossCheck:
    def test_agrees_with_trapezoidal(self, test_a):
        trapezoidal = solve_trapezoidal(test_a, n_points=401)
        collocation = solve_collocation(test_a, n_points=201)
        assert collocation.peak_temperature == pytest.approx(
            trapezoidal.peak_temperature, abs=0.2
        )
        assert collocation.thermal_gradient == pytest.approx(
            trapezoidal.thermal_gradient, abs=0.3
        )

    def test_agreement_for_modulated_channel(self, test_a, geometry):
        # A smooth narrowing profile: the adaptive collocation solver copes
        # poorly with the discontinuous piecewise-constant controls, so the
        # cross-check uses the continuous equivalent.
        modulated = test_a.with_width_profile(
            WidthProfile.from_function(
                lambda z: 50e-6 - (40e-6 / geometry.length) * z, geometry.length
            )
        )
        trapezoidal = solve_trapezoidal(modulated, n_points=401)
        collocation = solve_collocation(modulated, n_points=201, tol=1e-5)
        assert collocation.thermal_gradient == pytest.approx(
            trapezoidal.thermal_gradient, abs=0.4
        )


class TestDispatcher:
    def test_dispatch_trapezoidal(self, test_a):
        solution = solve_single_channel(test_a, n_points=201, method="trapezoidal")
        assert solution.metadata["solver"] == "trapezoidal"

    def test_dispatch_fdm(self, test_a):
        solution = solve_single_channel(test_a, n_points=201, method="fdm")
        assert solution.metadata["solver"] == "finite-difference"

    def test_unknown_method_raises(self, test_a):
        with pytest.raises(ValueError):
            solve_single_channel(test_a, method="magic")


class TestPhysicalTrends:
    def test_narrow_channel_lowers_peak_temperature(self, test_a, geometry):
        wide = solve_trapezoidal(test_a, n_points=201)
        narrow = solve_trapezoidal(
            test_a.with_width_profile(
                WidthProfile.uniform(geometry.min_width, geometry.length)
            ),
            n_points=201,
        )
        assert narrow.peak_temperature < wide.peak_temperature

    def test_uniform_min_and_max_widths_have_similar_gradients(
        self, test_a, geometry
    ):
        """Section V-A: both uniform extremes give nearly equal gradients."""
        wide = solve_trapezoidal(test_a, n_points=201)
        narrow = solve_trapezoidal(
            test_a.with_width_profile(
                WidthProfile.uniform(geometry.min_width, geometry.length)
            ),
            n_points=201,
        )
        assert narrow.thermal_gradient == pytest.approx(
            wide.thermal_gradient, rel=0.1
        )

    def test_higher_flow_reduces_gradient(self, test_a):
        slow = solve_trapezoidal(test_a, n_points=201)
        fast = solve_trapezoidal(
            test_a.with_flow_rate(test_a.flow_rate * 2.0), n_points=201
        )
        assert fast.thermal_gradient < slow.thermal_gradient

    def test_modulated_channel_beats_uniform(self, test_a, geometry):
        """A hand-written narrowing profile already flattens the field."""
        modulated = test_a.with_width_profile(
            WidthProfile.from_function(
                lambda z: 50e-6 - (40e-6 / geometry.length) * z, geometry.length
            )
        )
        uniform = solve_trapezoidal(test_a, n_points=201)
        shaped = solve_trapezoidal(modulated, n_points=201)
        assert shaped.thermal_gradient < uniform.thermal_gradient
