"""Tests of the simulator protocol, the session facade and its parity.

The acceptance-critical test lives here: running the registered ``test-a``
scenario through the new :func:`repro.run` facade must reproduce the
programmatic :class:`~repro.core.designer.ChannelModulationDesigner` path
it replaces to within 1e-9.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.pressure import lane_pressure_drops
from repro import ChannelModulationDesigner
from repro import test_a_structure as build_test_a_structure
from repro.api import (
    FDMSimulator,
    ICESimulator,
    Session,
    SimulationResult,
    Simulator,
    available_simulators,
    cross_validate,
    get_simulator,
    optimize,
    register_simulator,
    run,
)
from repro.scenarios import GridSpec, OptimizerSpec, get_scenario, scenario_names
from repro.thermal.geometry import MultiChannelStructure
from repro.thermal.geometry import TestStructure as SingleChannelStructure


@pytest.fixture()
def small_test_a():
    """Test A with a coarse grid and a tiny optimizer budget (fast)."""
    return get_scenario("test-a").with_overrides(
        grid=GridSpec(n_grid_points=81, n_lanes=1, n_rows=1, n_cols=40),
        optimizer=OptimizerSpec(n_segments=3, max_iterations=5),
    )


class TestRunParity:
    def test_run_test_a_matches_designer_path(self):
        """`run("test-a")` == the legacy ChannelModulationDesigner path."""
        result = run("test-a")
        designer = ChannelModulationDesigner(build_test_a_structure())
        evaluation = designer.uniform_maximum()
        assert result.peak_temperature_K == pytest.approx(
            evaluation.peak_temperature, abs=1e-9
        )
        assert result.thermal_gradient_K == pytest.approx(
            evaluation.thermal_gradient, abs=1e-9
        )
        assert result.max_pressure_drop_Pa == pytest.approx(
            evaluation.max_pressure_drop, rel=1e-12
        )

    def test_fdm_and_ice_agree_on_test_a(self):
        report = cross_validate("test-a")
        assert abs(report.peak_delta_K) < 1.0
        assert abs(report.gradient_delta_K) < 1.0
        assert abs(report.coolant_rise_delta_K) < 1.0


class TestSimulators:
    def test_registry(self):
        assert set(available_simulators()) >= {"fdm", "ice"}
        assert get_simulator("fdm").name == "fdm"
        assert get_simulator("ice").name == "ice"
        with pytest.raises(ValueError, match="unknown simulator"):
            get_simulator("magic")

    def test_simulators_satisfy_protocol(self):
        assert isinstance(FDMSimulator(), Simulator)
        assert isinstance(ICESimulator(), Simulator)

    def test_register_custom_simulator(self):
        class Fake:
            name = "fake"

            def run(self, spec):
                raise NotImplementedError

        with pytest.raises(ValueError, match="already registered"):
            register_simulator("fdm", Fake)
        register_simulator("fake", Fake)
        try:
            assert "fake" in available_simulators()
            assert isinstance(get_simulator("fake"), Fake)
        finally:
            from repro import api

            api._SIMULATORS.unregister("fake")

    def test_session_forwards_engine_to_custom_simulators(self, small_test_a):
        """Engine-accepting factories get the session engine, whatever the name."""
        captured = {}

        def factory(engine=None):
            captured["engine"] = engine
            return FDMSimulator(engine)

        register_simulator("fdm-custom", factory)
        try:
            session = Session()
            session.run(small_test_a, solver="fdm-custom")
            session.run(small_test_a, solver="fdm-custom")
            assert captured["engine"] is session.engine_for(small_test_a)
            assert session.stats()["auto@1"]["n_cache_hits"] == 1
        finally:
            from repro import api

            api._SIMULATORS.unregister("fdm-custom")

    def test_session_engines_are_separated_by_cache_size(self, small_test_a):
        from dataclasses import replace

        session = Session()
        session.run(small_test_a, solver="fdm")
        tiny_cache = small_test_a.with_overrides(
            solver=replace(small_test_a.solver, cache_size=8)
        )
        session.run(tiny_cache, solver="fdm")
        stats = session.stats()
        assert set(stats) == {"auto@1", "auto@1/cache8"} or set(stats) == {
            "auto@1",
            "auto@1/cache4096",
        }
        assert len(stats) == 2

    def test_common_result_schema(self, small_test_a):
        for solver in ("fdm", "ice"):
            result = run(small_test_a, solver=solver)
            assert isinstance(result, SimulationResult)
            assert result.simulator == solver
            assert result.scenario == "test-a"
            assert result.thermal_gradient_K == pytest.approx(
                result.peak_temperature_K - result.min_temperature_K
            )
            assert result.wall_time_s >= 0.0
            assert result.max_pressure_drop_Pa == max(result.pressure_drops_Pa)
            payload = result.to_dict()
            assert "solution" not in payload
            assert payload["provenance"]["backend"]
            import json

            json.dumps(payload)  # JSON-serializable end to end

    def test_fdm_provenance_has_cache_stats(self, small_test_a):
        result = run(small_test_a, solver="fdm")
        cache = result.provenance["cache"]
        assert cache["n_solves"] == 1
        assert result.provenance["n_lanes"] == 1

    def test_architecture_scenario_through_both_solvers(self):
        spec = get_scenario("niagara-arch1").with_overrides(
            grid=GridSpec(n_grid_points=61, n_lanes=3, n_rows=12, n_cols=12)
        ).with_design([(40e-6,), (25e-6, 35e-6), (15e-6,)])
        fdm = run(spec, solver="fdm")
        ice = run(spec, solver="ice")
        # Coarse grids: only sanity-level thermal agreement is expected...
        assert fdm.peak_temperature_K > 300.0
        assert ice.peak_temperature_K > 300.0
        # ...but the Eq. (9) hydraulics are a property of the design, so
        # both simulators must report identical values.
        assert fdm.pressure_drops_Pa == ice.pressure_drops_Pa
        assert len(fdm.pressure_drops_Pa) == 3

    def test_both_solvers_report_identical_pressure_drops(self, small_test_a):
        fdm = run(small_test_a, solver="fdm")
        ice = run(small_test_a, solver="ice")
        assert fdm.pressure_drops_Pa == ice.pressure_drops_Pa

    def test_ice_steady_run_leaves_the_session_engine_idle(self, small_test_a):
        # The ICE simulator accepts the shared session engine (it memoizes
        # transient outcomes on it), but a steady solve must not touch it:
        # no FDM solves, no cache traffic.
        session = Session()
        session.run(small_test_a, solver="ice")
        for stats in session.stats().values():
            assert stats["n_solves"] == 0
            assert stats["n_cache_hits"] == 0
            assert stats["n_cache_misses"] == 0


class TestSpecFlowNetwork:
    """``ScenarioSpec.flow_network`` is the one spec -> hydraulics path."""

    @pytest.mark.parametrize(
        "spec",
        [get_scenario(name) for name in scenario_names()]
        + [
            get_scenario("niagara-arch1").with_overrides(
                grid=GridSpec(n_grid_points=61, n_lanes=3, n_rows=12, n_cols=12)
            ).with_design([(40e-6,), (25e-6, 35e-6), (15e-6,)])
        ],
        ids=lambda spec: spec.name if spec.design is None else "designed",
    )
    def test_matches_the_built_cavity_bitwise(self, spec):
        structure = spec.build_structure()
        if isinstance(structure, SingleChannelStructure):
            structure = MultiChannelStructure.single(structure)
        assert np.array_equal(
            spec.flow_network().pressure_drops, lane_pressure_drops(structure)
        )


class TestSession:
    def test_engine_is_shared_across_runs(self, small_test_a):
        session = Session()
        first = session.run(small_test_a, solver="fdm")
        second = session.run(small_test_a, solver="fdm")
        stats = session.stats()["auto@1"]
        assert stats["n_solves"] == 1
        assert stats["n_cache_hits"] == 1
        assert second.thermal_gradient_K == pytest.approx(
            first.thermal_gradient_K, abs=1e-12
        )

    def test_spec_default_simulator_is_used(self, small_test_a):
        spec = small_test_a.with_solver(simulator="ice")
        result = Session().run(spec)
        assert result.simulator == "ice"

    def test_optimize_and_pinned_design(self, small_test_a):
        session = Session()
        outcome = session.optimize(small_test_a)
        assert outcome.scenario == "test-a"
        assert outcome.result.optimal.thermal_gradient > 0.0
        pinned = outcome.optimized_spec()
        assert pinned.design is not None
        assert len(pinned.design) == 1
        assert len(pinned.design[0]) == small_test_a.optimizer.n_segments
        replay = session.run(pinned, solver="fdm")
        assert replay.thermal_gradient_K == pytest.approx(
            outcome.result.optimal.thermal_gradient, abs=1e-9
        )
        # The pinned design also runs through the finite-volume solver.
        ice = session.run(pinned, solver="ice")
        assert ice.thermal_gradient_K == pytest.approx(
            replay.thermal_gradient_K, abs=2.0
        )

    def test_optimize_to_dict_is_json_serializable(self, small_test_a):
        import json

        outcome = optimize(small_test_a)
        payload = outcome.to_dict()
        json.dumps(payload)
        assert payload["summary"]["gradient_reduction"] >= 0.0
        assert payload["optimal_design"]["width_profiles"]

    def test_cross_validate_payload(self, small_test_a):
        report = Session().cross_validate(small_test_a)
        payload = report.to_dict()
        assert payload["fdm"]["simulator"] == "fdm"
        assert payload["ice"]["simulator"] == "ice"
        assert payload["gradient_delta_K"] == pytest.approx(
            payload["ice"]["thermal_gradient_K"]
            - payload["fdm"]["thermal_gradient_K"]
        )


class TestPickleRoundTrip:
    """Specs and results must pickle: the process executor ships both."""

    def test_simulation_result_pickles(self, small_test_a):
        import pickle

        result = run(small_test_a, solver="fdm")
        clone = pickle.loads(pickle.dumps(result))
        assert clone.to_dict() == result.to_dict()
        assert clone.peak_temperature_K == result.peak_temperature_K
        # The raw solution rides along too (needed by in-process reuse).
        assert clone.solution is not None
        assert clone.solution.peak_temperature == (
            result.solution.peak_temperature
        )

    def test_ice_result_pickles(self, small_test_a):
        import pickle

        result = run(small_test_a, solver="ice")
        clone = pickle.loads(pickle.dumps(result))
        assert clone.to_dict() == result.to_dict()

    def test_optimization_run_result_pickles(self, small_test_a):
        import pickle

        outcome = optimize(small_test_a)
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.to_dict() == outcome.to_dict()
        assert clone.optimized_spec() == outcome.optimized_spec()


class TestRegistryImportOrder:
    def test_lazy_module_attr_factory(self, small_test_a):
        """A "module:attr" registration resolves on first use only."""
        register_simulator("fdm-lazy", "repro.api:FDMSimulator")
        try:
            assert "fdm-lazy" in available_simulators()
            simulator = get_simulator("fdm-lazy")
            assert isinstance(simulator, FDMSimulator)
            result = Session().run(small_test_a, solver="fdm-lazy")
            assert result.simulator == "fdm"
        finally:
            from repro import api

            api._SIMULATORS.unregister("fdm-lazy")

    def test_lazy_reference_to_missing_module_registers_fine(self):
        """Registration never imports: bad references fail at *use* time."""
        register_simulator("broken-lazy", "no_such_module:Simulator")
        try:
            assert "broken-lazy" in available_simulators()
            with pytest.raises(ValueError, match="cannot import"):
                get_simulator("broken-lazy")
        finally:
            from repro import api

            api._SIMULATORS.unregister("broken-lazy")

    def test_lazy_reference_to_missing_attribute(self):
        register_simulator("broken-attr", "repro.api:NoSuchSimulator")
        try:
            with pytest.raises(ValueError, match="no attribute"):
                get_simulator("broken-attr")
        finally:
            from repro import api

            api._SIMULATORS.unregister("broken-attr")

    def test_available_simulators_returns_a_snapshot(self):
        names = available_simulators()
        names.append("mutated")
        assert "mutated" not in available_simulators()

    def test_invalid_factory_type_is_rejected(self):
        with pytest.raises(TypeError, match="callable"):
            register_simulator("bad", 42)

    def test_empty_name_is_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_simulator("", FDMSimulator)


class TestSessionSimulatorOverride:
    def test_session_default_simulator_name(self, small_test_a):
        session = Session(simulator="ice")
        assert session.run(small_test_a).simulator == "ice"
        # A per-call override still wins.
        assert session.run(small_test_a, solver="fdm").simulator == "fdm"

    def test_session_simulator_instance(self, small_test_a):
        """A ready-built Simulator bypasses the string registry entirely."""
        calls = []

        class Recording:
            name = "recording"

            def run(self, spec):
                calls.append(spec.name)
                return FDMSimulator().run(spec)

        session = Session(simulator=Recording())
        result = session.run(small_test_a)
        assert calls == ["test-a"]
        assert result.simulator == "fdm"

    def test_per_call_simulator_instance(self, small_test_a):
        engine_backed = FDMSimulator()
        result = Session().run(small_test_a, solver=engine_backed)
        assert result.simulator == "fdm"

    def test_invalid_session_simulator_is_rejected(self):
        with pytest.raises(TypeError, match="Simulator"):
            Session(simulator=42)
