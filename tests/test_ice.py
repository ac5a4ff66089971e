"""Tests of the finite-volume thermal simulator (stack, steady, transient)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DEFAULT_EXPERIMENT
from repro.ice import (
    CavityLayer,
    LayerStack,
    SolidLayer,
    SteadyStateSolver,
    TransientSolver,
    base_cache_info,
    clear_base_cache,
    two_die_stack_from_architecture,
    two_die_stack_from_maps,
    validate_against_analytical,
)
from repro.scenarios import get_scenario
from repro.thermal.geometry import WidthProfile
from repro.thermal.properties import SILICON, TABLE_I


def _simple_stack(flux=50.0, n_cols=20, n_rows=10, width_profile=None):
    return two_die_stack_from_maps(
        flux,
        flux,
        die_length=0.01,
        die_width=0.001,
        n_cols=n_cols,
        n_rows=n_rows,
        width_profile=width_profile,
    )


class TestLayerStackValidation:
    def test_valid_stack_properties(self):
        stack = _simple_stack()
        assert stack.n_layers == 3
        assert stack.solid_layer_names() == ["bottom_die", "top_die"]
        assert stack.cavity_layer_names() == ["cavity"]
        assert stack.channels_per_cavity() == 10

    def test_rejects_cavity_on_the_outside(self):
        cavity = CavityLayer("cavity")
        die = SolidLayer("die", SILICON, 50e-6)
        with pytest.raises(ValueError):
            LayerStack(0.01, 0.001, layers=[cavity, die], n_cols=5, n_rows=2)

    def test_rejects_adjacent_cavities(self):
        die = SolidLayer("die", SILICON, 50e-6)
        die2 = SolidLayer("die2", SILICON, 50e-6)
        with pytest.raises(ValueError):
            LayerStack(
                0.01,
                0.001,
                layers=[die, CavityLayer("c1"), CavityLayer("c2"), die2],
                n_cols=5,
                n_rows=2,
            )

    def test_rejects_duplicate_layer_names(self):
        die = SolidLayer("die", SILICON, 50e-6)
        with pytest.raises(ValueError):
            LayerStack(0.01, 0.001, layers=[die, SolidLayer("die", SILICON, 1e-5)])

    def test_layer_lookup(self):
        stack = _simple_stack()
        assert stack.layer("cavity").is_cavity
        with pytest.raises(KeyError):
            stack.layer("missing")

    def test_heat_map_broadcast_and_resample(self):
        layer = SolidLayer("die", SILICON, 50e-6, heat_source=25.0)
        assert layer.heat_map(4, 6).shape == (4, 6)
        np.testing.assert_allclose(layer.heat_map(4, 6), 25.0)
        patterned = SolidLayer(
            "die2", SILICON, 50e-6, heat_source=np.arange(12.0).reshape(3, 4)
        )
        resampled = patterned.heat_map(6, 8)
        assert resampled.shape == (6, 8)

    def test_cavity_width_profiles_per_channel(self):
        cavity = CavityLayer(
            "cavity",
            width_profile=[
                WidthProfile.uniform(20e-6, 0.01),
                WidthProfile.uniform(40e-6, 0.01),
            ],
        )
        widths = cavity.widths_for_channels(2, 0.01, np.array([0.002, 0.008]))
        np.testing.assert_allclose(widths[0], 20e-6)
        np.testing.assert_allclose(widths[1], 40e-6)
        with pytest.raises(ValueError):
            cavity.widths_for_channels(3, 0.01, np.array([0.002]))


class TestSteadyStateSolver:
    def test_energy_conservation(self):
        """All injected power must leave through the coolant."""
        stack = _simple_stack(flux=50.0, n_cols=40, n_rows=4)
        result = SteadyStateSolver(stack).solve()
        params = DEFAULT_EXPERIMENT.params
        injected = 2 * 50.0 * 1e4 * stack.die_length * stack.die_width
        capacity = (
            params.coolant.volumetric_heat_capacity
            * params.flow_rate_per_channel
            * stack.channels_per_cavity()
        )
        coolant = result.coolant_maps["cavity"]
        outlet_rise = coolant[:, -1].mean() - params.inlet_temperature
        absorbed = capacity * outlet_rise
        assert absorbed == pytest.approx(injected, rel=0.05)

    def test_temperature_rises_along_flow(self):
        stack = _simple_stack(n_cols=40, n_rows=4)
        result = SteadyStateSolver(stack).solve()
        profile = result.gradient_along_flow("top_die")
        assert profile[-1] > profile[0]

    def test_uniform_flux_gives_laterally_uniform_field(self):
        stack = _simple_stack(n_cols=20, n_rows=6)
        result = SteadyStateSolver(stack).solve()
        top = result.layer("top_die")
        # Every row should match every other row for a uniform heat flux.
        np.testing.assert_allclose(
            top, np.broadcast_to(top[0:1, :], top.shape), rtol=1e-6
        )

    def test_hot_region_is_hotter(self):
        flux = np.full((10, 20), 10.0)
        flux[7:, :] = 120.0
        stack = two_die_stack_from_maps(
            flux, flux, die_length=0.01, die_width=0.001, n_cols=20, n_rows=10
        )
        result = SteadyStateSolver(stack).solve()
        top = result.layer("top_die")
        assert top[8, :].mean() > top[2, :].mean()

    def test_narrow_channels_reduce_peak_temperature(self):
        wide = _simple_stack(
            width_profile=WidthProfile.uniform(TABLE_I.max_channel_width, 0.01)
        )
        narrow = _simple_stack(
            width_profile=WidthProfile.uniform(TABLE_I.min_channel_width, 0.01)
        )
        peak_wide = SteadyStateSolver(wide).solve().peak_temperature()
        peak_narrow = SteadyStateSolver(narrow).solve().peak_temperature()
        assert peak_narrow < peak_wide

    def test_modulated_widths_reduce_gradient(self):
        uniform = _simple_stack()
        modulated = _simple_stack(
            width_profile=WidthProfile.from_function(
                lambda z: 50e-6 - 3.8e-3 * z, 0.01
            )
        )
        grad_uniform = SteadyStateSolver(uniform).solve().thermal_gradient("top_die")
        grad_modulated = (
            SteadyStateSolver(modulated).solve().thermal_gradient("top_die")
        )
        assert grad_modulated < grad_uniform

    def test_architecture_builder(self, arch1):
        stack = two_die_stack_from_architecture(arch1, "peak", n_cols=20, n_rows=22)
        result = SteadyStateSolver(stack).solve()
        assert result.peak_temperature() > 300.0
        assert set(result.layer_names()) == {"top_die", "bottom_die"}

    def test_summary_keys(self):
        result = SteadyStateSolver(_simple_stack()).solve()
        summary = result.summary()
        assert "peak_temperature_K" in summary
        assert "top_die_gradient_K" in summary


class TestValidationAgainstAnalytical:
    def test_models_agree_on_uniform_strip(self):
        """The FV simulator and the analytical BVP must agree (paper Sec. III)."""
        report = validate_against_analytical(flux_w_per_cm2=50.0, n_cols=60)
        assert report.max_abs_error < 0.5
        assert abs(report.coolant_rise_error) < 0.5
        assert report.simulator_gradient == pytest.approx(
            report.analytical_gradient, rel=0.05
        )

    def test_agreement_for_narrow_channel(self):
        report = validate_against_analytical(
            flux_w_per_cm2=100.0, channel_width=20e-6, n_cols=60
        )
        assert report.max_abs_error < 1.0


class TestTransientSolver:
    def test_converges_to_steady_state(self):
        stack = _simple_stack(n_cols=20, n_rows=4)
        steady = SteadyStateSolver(stack).solve()
        transient = TransientSolver(stack).run(duration=0.5, time_step=0.01)
        final = transient.final_maps()
        assert final.peak_temperature() == pytest.approx(
            steady.peak_temperature(), abs=0.5
        )

    def test_monotonic_heating_from_cold_start(self):
        stack = _simple_stack(n_cols=20, n_rows=4)
        transient = TransientSolver(stack).run(duration=0.05, time_step=0.005)
        peaks = transient.peak_history("top_die")
        assert np.all(np.diff(peaks) >= -1e-6)

    def test_power_schedule_step(self):
        stack = _simple_stack(n_cols=20, n_rows=4)

        def schedule(time):
            # Switch the top die off after 50 ms.
            return {"top_die": 0.0} if time > 0.05 else {}

        transient = TransientSolver(stack, power_schedule=schedule).run(
            duration=0.2, time_step=0.01
        )
        peaks = transient.peak_history("top_die")
        assert peaks[-1] < peaks.max()

    def test_rejects_bad_time_step(self):
        stack = _simple_stack(n_cols=10, n_rows=2)
        with pytest.raises(ValueError):
            TransientSolver(stack).run(duration=1.0, time_step=0.0)

    def test_rejects_schedule_on_cavity_layer(self):
        stack = _simple_stack(n_cols=10, n_rows=2)
        solver = TransientSolver(stack, power_schedule=lambda t: {"cavity": 1.0})
        with pytest.raises(ValueError):
            solver.run(duration=0.01, time_step=0.005)


class TestFewerChannelsThanRows:
    """A grid with rows that no channel crosses is rejected at assembly."""

    @staticmethod
    def _narrow_stack(n_rows):
        # 7 channels at the 100 um pitch of Table I.
        return two_die_stack_from_maps(
            60.0, 30.0, die_length=0.01, die_width=7 * 100e-6, n_rows=n_rows
        )

    def test_steady_solver_names_the_layer_and_counts(self):
        with pytest.raises(
            ValueError, match=r"cavity layer 'cavity' has 7 channels.*n_rows=40"
        ):
            SteadyStateSolver(self._narrow_stack(40)).solve()

    def test_transient_solver_names_the_layer_and_counts(self):
        with pytest.raises(
            ValueError, match=r"cavity layer 'cavity' has 7 channels.*n_rows=40"
        ):
            TransientSolver(self._narrow_stack(40)).run(
                duration=0.01, time_step=0.005
            )

    def test_one_channel_per_row_still_solves(self):
        result = SteadyStateSolver(self._narrow_stack(7)).solve()
        assert result.metadata["residual_norm"] < 1e-8


class TestEnergyBalance:
    """Steady ICE solves carry all injected power out with the coolant.

    The adiabatic stack's only sink is advection, so the power of the heat
    sources equals ``sum_rows capacity_rate * (T_outlet - T_inlet)`` over
    the cavities -- a physical check of the advection write that every
    system after the first of a geometry takes over a cached base.
    """

    @pytest.mark.parametrize("name", ["test-a", "niagara-arch1"])
    def test_power_leaves_with_the_coolant_at_every_flow(self, name):
        clear_base_cache()
        misses = base_cache_info()["n_misses"]
        spec = get_scenario(name)
        nominal = spec.experiment_config().params.flow_rate_per_channel
        for scale in (0.5, 1.0, 2.0):
            stack = spec.with_params(
                flow_rate_per_channel=nominal * scale
            ).build_stack()
            result = SteadyStateSolver(stack).solve(compute_residual=False)
            injected = sum(
                np.sum(layer.heat_map(stack.n_rows, stack.n_cols))
                * 1e4
                * stack.cell_area
                for layer in stack.layers
                if not layer.is_cavity
            )
            carried = 0.0
            for layer in stack.layers:
                if not layer.is_cavity:
                    continue
                capacity_rate = (
                    layer.coolant.volumetric_heat_capacity
                    * layer.flow_rate_per_channel
                    * stack.channels_per_cavity()
                    / stack.n_rows
                )
                outlet = result.coolant_maps[layer.name][:, -1]
                carried += capacity_rate * np.sum(outlet - layer.inlet_temperature)
            assert injected > 0.0
            assert abs(carried - injected) <= 1e-10 * injected
        assert base_cache_info()["n_misses"] == misses + 1
