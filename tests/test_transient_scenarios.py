"""Transient scenarios end to end: specs, policies, engine, API, CLI.

Covers the transient subsystem acceptance criteria:

* trace/policy/transient specs validate on construction and round-trip
  losslessly through JSON;
* the transient engine matches the plain step-by-step solver
  bit-identically, and scenarios sharing one backend and one implicit
  matrix share ONE factorization (asserted on a fresh backend's counters);
* a trace-driven scenario runs end to end through ``Session.run`` /
  ``run_many`` and a campaign sweep over several flow-control policies,
  with transient metrics in the records;
* the CLI accepts transient scenarios and reports their metrics.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.metrics import (
    piecewise_integral,
    thermal_cycling_amplitude,
    time_above_threshold,
)
from repro.api import FDMSimulator, Session, run_many
from repro.cli import main as cli_main
from repro.core.engine import EvaluationEngine
from repro.ice.transient import TransientSolver
from repro.policies import (
    BangBangFlowPolicy,
    ConstantFlowPolicy,
    ProportionalFlowPolicy,
    available_policies,
    policy_from_spec,
    register_policy,
)
from repro.scenarios import (
    GridSpec,
    ScenarioSpec,
    SolverSpec,
    WorkloadSpec,
    get_scenario,
)
from repro.sweeps import SweepSpec
from repro.thermal.backends import SparseLUBackend
from repro.transient import PolicySpec, TraceSpec, TransientSpec, load_trace_file
from repro.transient_engine import simulate_transient


def tiny_transient_spec(
    name="tiny-burst",
    policy=None,
    traces=None,
    duration=0.2,
    time_step=0.01,
    store_every=2,
    n_cols=16,
):
    """A fast single-channel transient scenario for the unit tests."""
    if traces is None:
        traces = (
            TraceSpec(
                layer="top_die",
                kind="periodic",
                period_s=0.08,
                duty=0.5,
                high=120.0,
                low=20.0,
            ),
        )
    if policy is None:
        policy = PolicySpec(kind="constant", control_interval_s=0.05)
    return ScenarioSpec(
        name=name,
        workload=WorkloadSpec(kind="test-a"),
        grid=GridSpec(n_grid_points=61, n_lanes=1, n_rows=1, n_cols=n_cols),
        solver=SolverSpec(simulator="ice"),
        transient=TransientSpec(
            duration_s=duration,
            time_step_s=time_step,
            traces=traces,
            policy=policy,
            store_every=store_every,
            threshold_K=320.0,
        ),
    )


# -- spec validation and serialization --------------------------------------


class TestTraceSpec:
    def test_piecewise_round_trip(self):
        trace = TraceSpec(
            layer="top_die", times=(0.0, 0.1, 0.3), values=(10.0, 50.0, 20.0)
        )
        assert TraceSpec.from_dict(trace.to_dict()) == trace

    def test_piecewise_flux_holds_between_breakpoints(self):
        trace = TraceSpec(
            layer="top_die", times=(0.0, 0.1, 0.3), values=(10.0, 50.0, 20.0)
        )
        assert trace.flux_at(0.0) == 10.0
        assert trace.flux_at(0.0999) == 10.0
        assert trace.flux_at(0.1) == 50.0
        assert trace.flux_at(0.2) == 50.0
        assert trace.flux_at(5.0) == 20.0  # last value holds forever

    def test_periodic_duty_cycle(self):
        trace = TraceSpec(
            layer="top_die", kind="periodic", period_s=0.2, duty=0.25,
            high=100.0, low=5.0,
        )
        assert trace.flux_at(0.0) == 100.0
        assert trace.flux_at(0.049) == 100.0
        assert trace.flux_at(0.05) == 5.0
        assert trace.flux_at(0.21) == 100.0

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(times=(0.1, 0.2), values=(1.0, 2.0)), "start at 0"),
            (dict(times=(0.0, 0.2, 0.2), values=(1.0, 2.0, 3.0)), "strictly"),
            (dict(times=(0.0,), values=(-1.0,)), "non-negative"),
            (dict(times=(0.0, 0.1), values=(1.0,)), "matching"),
            (dict(kind="periodic", period_s=0.0), "period_s"),
            (dict(kind="periodic", period_s=1.0, duty=1.5), "duty"),
            (dict(kind="nope"), "trace.kind"),
        ],
    )
    def test_rejects_malformed_traces(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TraceSpec(layer="top_die", **kwargs)

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown field"):
            TraceSpec.from_dict({"layer": "top_die", "wattage": 3})

    def test_from_csv_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time_s,flux\n0.0,10\n0.5,50\n1.0,5\n")
        trace = TraceSpec.from_file("top_die", path)
        assert trace.kind == "piecewise"
        assert trace.times == (0.0, 0.5, 1.0)
        assert trace.values == (10.0, 50.0, 5.0)

    def test_from_json_file_object_and_pairs(self, tmp_path):
        obj = tmp_path / "trace.json"
        obj.write_text(json.dumps({"times": [0.0, 1.0], "values": [5, 9]}))
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([[0.0, 5], [1.0, 9]]))
        assert TraceSpec.from_file("top_die", obj) == TraceSpec.from_file(
            "top_die", pairs
        )

    def test_load_trace_file_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("just one column\n")
        with pytest.raises(ValueError, match="time,value"):
            load_trace_file(bad)
        empty = tmp_path / "empty.csv"
        empty.write_text("t,v\n")
        with pytest.raises(ValueError, match="no samples"):
            load_trace_file(empty)


class TestPolicySpec:
    def test_round_trip(self):
        spec = PolicySpec(kind="bang-bang", control_interval_s=0.1,
                          threshold_K=340.0, high_scale=1.8)
        assert PolicySpec.from_dict(spec.to_dict()) == spec

    def test_reactive_policies_need_a_control_interval(self):
        with pytest.raises(ValueError, match="control_interval_s"):
            PolicySpec(kind="bang-bang", control_interval_s=0.0)
        with pytest.raises(ValueError, match="control_interval_s"):
            PolicySpec(kind="proportional")

    def test_scale_bounds_validated(self):
        with pytest.raises(ValueError, match="positive"):
            PolicySpec(scale=0.0)
        with pytest.raises(ValueError, match="min_scale"):
            PolicySpec(min_scale=3.0, max_scale=2.0)


class TestTransientSpec:
    def test_round_trip_with_traces_and_policy(self):
        spec = TransientSpec(
            duration_s=0.5,
            time_step_s=0.01,
            traces=(
                TraceSpec(layer="top_die", times=(0.0,), values=(50.0,)),
                TraceSpec(layer="bottom_die", kind="periodic", period_s=0.1,
                          high=80.0),
            ),
            policy=PolicySpec(kind="proportional", control_interval_s=0.05),
            store_every=4,
            initial_temperature_K=300.0,
        )
        assert TransientSpec.from_dict(spec.to_dict()) == spec
        assert spec.n_steps == 50
        assert spec.control_steps == 5

    def test_duplicate_trace_layers_rejected(self):
        with pytest.raises(ValueError, match="repeat layer"):
            TransientSpec(
                traces=(
                    TraceSpec(layer="top_die", times=(0.0,), values=(1.0,)),
                    TraceSpec(layer="top_die", times=(0.0,), values=(2.0,)),
                )
            )

    def test_control_interval_must_divide_into_steps(self):
        with pytest.raises(ValueError, match="whole multiple"):
            TransientSpec(
                time_step_s=0.01,
                policy=PolicySpec(kind="bang-bang", control_interval_s=0.015),
            )

    def test_schedule_matches_traces(self):
        spec = TransientSpec(
            traces=(TraceSpec(layer="top_die", times=(0.0, 0.5),
                              values=(10.0, 90.0)),)
        )
        schedule = spec.schedule()
        assert schedule(0.1) == {"top_die": 10.0}
        assert schedule(0.6) == {"top_die": 90.0}
        assert TransientSpec().schedule() is None


class TestScenarioIntegration:
    def test_transient_scenario_round_trips(self):
        spec = tiny_transient_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_transient_normalizes_simulator_to_ice(self):
        spec = tiny_transient_spec()
        fdm_defaulted = replace(spec, solver=SolverSpec(simulator="fdm"))
        assert fdm_defaulted.solver.simulator == "ice"
        assert fdm_defaulted.to_dict()["solver"]["simulator"] == "ice"

    def test_spec_hash_is_transient_aware(self):
        spec = tiny_transient_spec()
        other = replace(
            spec,
            transient=replace(spec.transient, duration_s=0.3),
        )
        steady = replace(spec, transient=None)
        assert spec.spec_hash() != other.spec_hash()
        assert spec.spec_hash() != steady.spec_hash()

    def test_registered_transient_scenarios_round_trip(self):
        for name in ("test-a-burst", "niagara-arch1-dvfs"):
            spec = get_scenario(name)
            assert spec.transient is not None
            assert spec.solver.simulator == "ice"
            assert ScenarioSpec.from_json(spec.to_json()) == spec


# -- policies ----------------------------------------------------------------


class TestPolicies:
    def test_builtins_are_registered(self):
        assert {"constant", "bang-bang", "proportional"} <= set(
            available_policies()
        )

    def test_constant(self):
        policy = ConstantFlowPolicy(scale=1.3)
        assert policy.initial_scale() == 1.3
        assert policy.update(0.1, 400.0) == 1.3

    def test_bang_bang_switches_on_threshold(self):
        policy = BangBangFlowPolicy(threshold_K=350.0, low_scale=0.8,
                                    high_scale=1.6)
        assert policy.initial_scale() == 0.8
        assert policy.update(0.0, 349.9) == 0.8
        assert policy.update(0.1, 350.0) == 1.6

    def test_proportional_clips(self):
        policy = ProportionalFlowPolicy(setpoint_K=340.0, gain_per_K=0.1,
                                        min_scale=0.5, max_scale=2.0)
        assert policy.update(0.0, 340.0) == 1.0
        assert policy.update(0.0, 345.0) == pytest.approx(1.5)
        assert policy.update(0.0, 400.0) == 2.0
        assert policy.update(0.0, 250.0) == 0.5

    def test_policy_from_spec_maps_fields(self):
        policy = policy_from_spec(
            PolicySpec(kind="bang-bang", control_interval_s=0.1,
                       threshold_K=333.0, low_scale=0.9, high_scale=1.9)
        )
        assert isinstance(policy, BangBangFlowPolicy)
        assert policy.threshold_K == 333.0
        assert policy.low_scale == 0.9

    def test_custom_policy_registration(self):
        class Weird:
            name = "weird"

            def __init__(self, spec):
                self.spec = spec

            def initial_scale(self):
                return 1.0

            def update(self, time_s, peak):
                return 1.0

        register_policy("weird-test", Weird, overwrite=True)
        spec = PolicySpec(kind="weird-test", control_interval_s=0.0)
        assert isinstance(policy_from_spec(spec), Weird)
        with pytest.raises(ValueError, match="already registered"):
            register_policy("weird-test", Weird)


# -- metric reducers ---------------------------------------------------------


class TestTransientMetrics:
    def test_time_above_threshold_counts_step_intervals(self):
        times = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
        values = np.array([300.0, 360.0, 340.0, 361.0, 362.0])
        assert time_above_threshold(times, values, 350.0) == pytest.approx(0.3)
        # the initial state carries no time
        assert time_above_threshold(times, 1000.0 * np.ones(5), 1500.0) == 0.0

    def test_thermal_cycling_amplitude_ignores_warmup(self):
        warmup = np.linspace(300.0, 350.0, 50)
        settled = 350.0 + 5.0 * np.sin(np.linspace(0.0, 20.0, 50))
        series = np.concatenate([warmup, settled])
        amplitude = thermal_cycling_amplitude(series)
        assert amplitude == pytest.approx(10.0, rel=0.05)

    def test_piecewise_integral(self):
        assert piecewise_integral([0.0, 1.0], [2.0, 4.0], 3.0) == pytest.approx(
            2.0 + 8.0
        )
        with pytest.raises(ValueError, match="precedes"):
            piecewise_integral([0.0, 1.0], [1.0, 1.0], 0.5)


# -- engine ------------------------------------------------------------------


class TestTransientEngine:
    def test_no_policy_run_matches_transient_solver_bitwise(self):
        """The chunked engine path IS the plain solver for inactive policies."""
        spec = tiny_transient_spec()
        outcome = simulate_transient(spec, backend=SparseLUBackend())
        stack = spec.build_stack()
        reference = TransientSolver(
            stack,
            power_schedule=spec.transient.schedule(),
            backend=SparseLUBackend(),
        ).run(
            duration=spec.transient.duration_s,
            time_step=spec.transient.time_step_s,
            store_every=spec.transient.store_every,
        )
        assert np.array_equal(outcome.result.times, reference.times)
        for name, history in reference.layer_histories.items():
            assert np.array_equal(outcome.result.layer_histories[name], history)

    def test_shared_backend_factorizes_once_per_implicit_matrix(self):
        """Scenarios differing only in traces share one factorization."""
        base = tiny_transient_spec()
        variants = [base]
        for index, duty in enumerate((0.25, 0.75)):
            trace = replace(base.transient.traces[0], duty=duty)
            variants.append(
                base.with_overrides(
                    name=f"variant-{index}",
                    transient=replace(base.transient, traces=(trace,)),
                )
            )
        backend = SparseLUBackend()
        for spec in variants:
            simulate_transient(spec, backend=backend)
        assert backend.n_factorizations == 1
        # Another flow is another implicit matrix: one more factorization.
        simulate_transient(
            base.with_params(flow_rate_per_channel=2e-7), backend=backend
        )
        assert backend.n_factorizations == 2

    def test_bang_bang_reacts_and_cools(self):
        uncontrolled = tiny_transient_spec(duration=0.4)
        controlled = tiny_transient_spec(
            name="controlled",
            duration=0.4,
            policy=PolicySpec(kind="bang-bang", control_interval_s=0.05,
                              threshold_K=315.0, low_scale=1.0,
                              high_scale=2.0),
        )
        base = simulate_transient(uncontrolled)
        cooled = simulate_transient(controlled)
        assert cooled.metrics["n_flow_changes"] >= 1
        assert np.any(cooled.flow_scales == 2.0)
        assert (
            cooled.metrics["final_peak_temperature_K"]
            < base.metrics["final_peak_temperature_K"]
        )
        # Pumping more coolant costs pumping energy.
        assert (
            cooled.metrics["pumping_energy_J"]
            > base.metrics["pumping_energy_J"]
        )

    def test_metrics_integrate_over_the_simulated_time(self):
        # duration 0.095 s rounds to 10 backward-Euler steps = 0.1 s; the
        # time integrals must use the simulated 0.1 s, not the requested
        # duration (a constant scale-1 policy must average to exactly 1).
        spec = tiny_transient_spec(duration=0.095, time_step=0.01)
        outcome = simulate_transient(spec)
        assert outcome.step_times_s[-1] == pytest.approx(0.1)
        assert outcome.metadata["simulated_duration_s"] == pytest.approx(0.1)
        assert outcome.metrics["mean_flow_scale"] == pytest.approx(1.0)

    def test_peak_flow_pressure_drop_tracks_the_policy(self):
        base = simulate_transient(tiny_transient_spec(duration=0.4))
        controlled = simulate_transient(
            tiny_transient_spec(
                name="controlled-dp",
                duration=0.4,
                policy=PolicySpec(kind="bang-bang", control_interval_s=0.05,
                                  threshold_K=310.0, high_scale=2.0),
            )
        )
        nominal = base.metrics["max_pressure_drop_at_peak_flow_Pa"]
        assert controlled.metrics["max_pressure_drop_at_peak_flow_Pa"] > nominal

    def test_unknown_trace_layer_is_a_clear_error(self):
        spec = tiny_transient_spec(
            traces=(TraceSpec(layer="nonexistent", times=(0.0,),
                              values=(1.0,)),)
        )
        with pytest.raises(ValueError, match="not a layer of the stack"):
            simulate_transient(spec)

    def test_steady_spec_is_rejected(self):
        with pytest.raises(ValueError, match="no transient section"):
            simulate_transient(get_scenario("test-a"))

    def test_store_every_bounds_snapshots_but_not_observables(self):
        spec = tiny_transient_spec(duration=0.2, time_step=0.01, store_every=5)
        outcome = simulate_transient(spec)
        n_steps = spec.transient.n_steps
        assert outcome.peak_history_K.size == n_steps + 1
        assert outcome.result.times.size == 1 + n_steps // 5
        assert outcome.step_times_s[-1] == pytest.approx(0.2)


# -- API / campaign / CLI end to end -----------------------------------------


class TestTransientAPI:
    def test_session_run_returns_transient_metrics(self):
        result = Session().run(tiny_transient_spec())
        assert result.simulator == "ice"
        assert result.transient is not None
        payload = result.to_dict()
        assert payload["transient"]["peak_transient_temperature_K"] == (
            result.peak_temperature_K
        )
        json.dumps(payload)  # record must be JSON-serializable

    def test_fdm_refuses_transient_scenarios(self):
        with pytest.raises(ValueError, match="steady-state only"):
            FDMSimulator().run(tiny_transient_spec())
        with pytest.raises(ValueError, match="steady-state only"):
            Session().run(tiny_transient_spec(), solver="fdm")

    def test_session_memoizes_transient_outcomes(self):
        session = Session()
        spec = tiny_transient_spec()
        first = session.run(spec)
        engine = session.engine_for(spec)
        misses = engine.stats()["n_cache_misses"]
        second = session.run(spec)
        assert engine.stats()["n_cache_hits"] >= 1
        assert engine.stats()["n_cache_misses"] == misses
        assert second.transient == first.transient
        assert second.provenance["memoized"]

    def test_run_many_sweeps_policies_with_transient_metrics(self):
        """Acceptance: a campaign sweep over >= 2 flow-control policies."""
        base = tiny_transient_spec(
            policy=PolicySpec(kind="constant", control_interval_s=0.05,
                              threshold_K=350.0)
        )
        sweep = SweepSpec(
            name="policy-compare",
            base=base,
            axes=(
                {
                    "field": "transient.policy.kind",
                    "values": ["constant", "bang-bang", "proportional"],
                },
            ),
        )
        campaign = run_many(sweep)
        assert campaign.n_ok == 3
        kinds = []
        for record in campaign.records:
            transient = record["result"]["transient"]
            kinds.append(transient["policy"])
            for key in (
                "peak_transient_temperature_K",
                "time_above_threshold_s",
                "thermal_cycling_amplitude_K",
                "pumping_energy_J",
            ):
                assert key in transient
        assert kinds == ["constant", "bang-bang", "proportional"]
        summary = campaign.summary()
        assert summary["n_transient"] == 3
        assert summary["policies_seen"] == [
            "bang-bang", "constant", "proportional"
        ]
        assert summary["pumping_energy_J_total"] > 0.0

    def test_campaign_store_resumes_transient_records(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        spec = tiny_transient_spec()
        first = run_many([spec], out=store)
        assert first.n_from_store == 0
        second = run_many([spec], out=store)
        assert second.n_from_store == 1
        assert (
            second.records[0]["result"]["transient"]
            == first.records[0]["result"]["transient"]
        )


class TestTransientCLI:
    def test_cli_run_emits_transient_payload(self, tmp_path, capsys):
        spec_file = tmp_path / "burst.json"
        tiny_transient_spec().save(spec_file)
        assert cli_main(["run", str(spec_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["simulator"] == "ice"
        assert payload["transient"]["policy"] == "constant"

    def test_cli_run_human_output_mentions_transient(self, tmp_path, capsys):
        spec_file = tmp_path / "burst.json"
        tiny_transient_spec().save(spec_file)
        assert cli_main(["run", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "transient (constant policy)" in out
        assert "peak_transient_temperature_K" in out

    def test_cli_list_marks_transient_scenarios(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "test-a-burst" in out
        assert "transient" in out

    def test_cli_run_fdm_on_transient_is_a_clean_error(self, tmp_path, capsys):
        spec_file = tmp_path / "burst.json"
        tiny_transient_spec().save(spec_file)
        assert cli_main(["run", str(spec_file), "--solver", "fdm"]) == 2
        assert "steady-state only" in capsys.readouterr().err


@pytest.mark.slow
class TestTransientSoak:
    """Long-trace soak tests (deselected by default; run with ``-m slow``)."""

    def test_long_trace_history_stays_subsampled(self):
        spec = tiny_transient_spec(
            duration=20.0, time_step=0.01, store_every=100
        )
        outcome = simulate_transient(spec)
        n_steps = spec.transient.n_steps
        assert n_steps == 2000
        # Scalars at every step, fields every 100th step only.
        assert outcome.peak_history_K.size == n_steps + 1
        assert outcome.result.times.size == 1 + n_steps // 100
        history = outcome.result.layer_histories["top_die"]
        assert history.shape[0] == outcome.result.times.size
        # The duty-cycled trace has settled into a steady oscillation.
        assert outcome.metrics["thermal_cycling_amplitude_K"] > 1.0

    def test_policy_campaign_on_the_registered_dvfs_scenario(self, tmp_path):
        base = get_scenario("niagara-arch1-dvfs")
        sweep = SweepSpec(
            name="dvfs-policies",
            base=base,
            axes=(
                {
                    "field": "transient.policy.kind",
                    "values": ["constant", "bang-bang"],
                },
            ),
        )
        campaign = run_many(sweep, out=tmp_path / "dvfs.jsonl")
        assert campaign.n_ok == 2
        for record in campaign.records:
            assert record["result"]["transient"]["peak_transient_temperature_K"] > 0


class TestEngineMemo:
    def test_memo_is_lru_bounded_and_counted(self):
        engine = EvaluationEngine(cache_size=2)
        calls = []

        def build(tag):
            def factory():
                calls.append(tag)
                return tag

            return factory

        assert engine.memo(("t", 1), build(1)) == 1
        assert engine.memo(("t", 1), build(1)) == 1  # hit
        assert calls == [1]
        assert engine.stats()["n_cache_hits"] == 1
        engine.memo(("t", 2), build(2))
        engine.memo(("t", 3), build(3))  # evicts ("t", 1)
        assert engine.stats()["n_evictions"] == 1
        engine.memo(("t", 1), build(1))
        assert calls == [1, 2, 3, 1]


class TestLaminarValidity:
    """The transient engine records Reynolds-number validity (metrics keys
    ``max_reynolds`` / ``laminar_violated``) instead of silently applying
    the laminar Nusselt correlation outside its regime."""

    def test_default_flow_is_laminar_and_recorded(self):
        outcome = simulate_transient(tiny_transient_spec())
        metrics = outcome.metrics
        assert metrics["max_reynolds"] > 0.0
        assert metrics["max_reynolds"] < 2300.0
        assert metrics["laminar_violated"] is False

    def test_high_flow_sets_the_violation_flag(self):
        # 2e-7 m^3/s per channel pushes Re well past the 2300 laminar
        # limit (the default effective flow sits near Re ~ 150).
        spec = tiny_transient_spec().with_params(flow_rate_per_channel=2e-7)
        outcome = simulate_transient(spec)
        assert outcome.metrics["max_reynolds"] > 2300.0
        assert outcome.metrics["laminar_violated"] is True

    def test_max_reynolds_uses_the_peak_flow_scale(self):
        from repro.transient_engine import _max_reynolds

        spec = tiny_transient_spec()
        at_one = _max_reynolds(spec, np.array([1.0]))
        at_two = _max_reynolds(spec, np.array([0.5, 2.0, 1.0]))
        assert at_two == pytest.approx(2.0 * at_one)

    def test_campaign_summary_rolls_up_laminar_violations(self):
        from repro.campaign import summarize_records

        def record(violated, reynolds):
            return {
                "status": "ok",
                "action": "run",
                "counters": {},
                "result": {
                    "transient": {
                        "peak_transient_temperature_K": 340.0,
                        "laminar_violated": violated,
                        "max_reynolds": reynolds,
                    }
                },
            }

        summary = summarize_records(
            [record(False, 150.0), record(True, 2990.0), record(True, 2400.0)]
        )
        assert summary["n_laminar_violated"] == 2
        assert summary["max_reynolds"] == pytest.approx(2990.0)
