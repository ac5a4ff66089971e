"""Tests of the campaign layer: executors, the JSONL store, run_many."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.api import Session
from repro.campaign import CampaignStore, summarize_records
from repro.exec import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_executors,
    get_executor,
    register_executor,
    unregister_executor,
)
from repro.exec.base import CampaignTask, execute_task, make_tasks
from repro.scenarios import GridSpec, OptimizerSpec, ScenarioSpec, get_scenario
from repro.sweeps import SweepAxis, SweepSpec


@pytest.fixture()
def small_base() -> ScenarioSpec:
    """A fast Test A base spec."""
    return get_scenario("test-a").with_overrides(
        grid=GridSpec(n_grid_points=61, n_lanes=1, n_rows=1, n_cols=20),
        optimizer=OptimizerSpec(n_segments=2, max_iterations=3),
    )


@pytest.fixture()
def small_sweep(small_base) -> SweepSpec:
    """A 2x2 heat-flux x grid sweep of the fast base."""
    return SweepSpec(
        name="t",
        base=small_base,
        axes=(
            SweepAxis("workload.flux_w_per_cm2", (40.0, 60.0)),
            SweepAxis("grid.n_grid_points", (61, 81)),
        ),
    )


#: One complete store line, and newline-less partial lines a writer killed
#: mid-write can leave after it.
RECORD_A = json.dumps({"spec_hash": "a", "status": "ok"}).encode() + b"\n"
TORN_TAILS = [b'{"spec_ha', b'{"spec_hash": "b", "status": "ok"']
TORN_TAIL_IDS = ["mid-key", "before-close"]


def flux_architecture_sweep() -> SweepSpec:
    """The acceptance campaign: 4 coolant-flux values x 3 architectures."""
    base = get_scenario("niagara-arch1").with_overrides(
        grid=GridSpec(n_grid_points=41, n_lanes=2, n_rows=4, n_cols=8),
        optimizer=OptimizerSpec(n_segments=2, max_iterations=3),
    )
    return SweepSpec(
        name="flux-arch",
        base=base,
        axes=(
            SweepAxis(
                "params.flow_rate_per_channel",
                (6.0e-9, 8.0e-9, 1.0e-8, 1.2e-8),
                label="flux",
            ),
            SweepAxis(
                "workload.architecture", ("arch1", "arch2", "arch3"), label="arch"
            ),
        ),
    )


class TestExecutorRegistry:
    def test_builtins_are_registered(self):
        assert {"serial", "thread", "process"} <= set(available_executors())

    def test_get_executor_builds_with_workers(self):
        executor = get_executor("thread", workers=3)
        assert isinstance(executor, ThreadExecutor)
        assert executor.workers == 3

    def test_unknown_executor_is_an_error(self):
        with pytest.raises(ValueError, match="unknown executor"):
            get_executor("no-such-executor")

    def test_register_and_overwrite_guard(self):
        class Custom(SerialExecutor):
            name = "custom-exec"

        register_executor("custom-exec", Custom, overwrite=True)
        try:
            assert isinstance(get_executor("custom-exec"), Custom)
            with pytest.raises(ValueError, match="already registered"):
                register_executor("custom-exec", Custom)
        finally:
            unregister_executor("custom-exec")

    def test_lazy_module_attr_registration(self):
        register_executor(
            "lazy-serial", "repro.exec.local:SerialExecutor", overwrite=True
        )
        try:
            assert isinstance(get_executor("lazy-serial"), SerialExecutor)
        finally:
            unregister_executor("lazy-serial")

    def test_lazy_bad_reference_is_an_error(self):
        register_executor("lazy-bad", "repro.exec.local:Missing", overwrite=True)
        try:
            with pytest.raises(ValueError, match="no attribute"):
                get_executor("lazy-bad")
        finally:
            unregister_executor("lazy-bad")


class TestCampaignTask:
    def test_key_covers_spec_action_and_solver(self, small_base):
        task = CampaignTask(0, small_base)
        assert task.key() == CampaignTask(5, small_base).key()  # index-free
        assert task.key() != CampaignTask(0, small_base, solver="ice").key()
        assert task.key() != CampaignTask(0, small_base, action="optimize").key()
        other = small_base.with_overrides(name="other")
        assert task.key() != CampaignTask(0, other).key()

    def test_explicit_default_solver_hashes_like_none(self, small_base):
        assert (
            CampaignTask(0, small_base, solver="fdm").key()
            == CampaignTask(0, small_base).key()
        )

    def test_bad_action_is_rejected(self, small_base):
        with pytest.raises(ValueError, match="action"):
            CampaignTask(0, small_base, action="explode")

    def test_simulator_instances_are_rejected(self, small_base):
        from repro.api import FDMSimulator

        with pytest.raises(ValueError, match="family name"):
            CampaignTask(0, small_base, solver=FDMSimulator())

    def test_execute_task_captures_errors(self, small_base):
        bad = small_base.with_overrides(name="bad")
        task = CampaignTask(0, bad, solver="no-such-simulator")
        record = execute_task(task, Session())
        assert record["status"] == "error"
        assert "no-such-simulator" in record["error"]
        assert record["scenario"] == "bad"
        assert "wall_time_s" in record


class TestCampaignStore:
    def test_append_and_load(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        with store:
            store.append({"spec_hash": "a", "status": "ok"})
            store.append({"spec_hash": "b", "status": "error"})
        loaded = CampaignStore(store.path).load()
        assert set(loaded) == {"a", "b"}
        assert loaded["a"]["status"] == "ok"

    def test_later_records_win(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        with store:
            store.append({"spec_hash": "a", "status": "error"})
            store.append({"spec_hash": "a", "status": "ok"})
        assert CampaignStore(store.path).load()["a"]["status"] == "ok"

    def test_missing_file_loads_empty(self, tmp_path):
        assert CampaignStore(tmp_path / "missing.jsonl").load() == {}

    @pytest.mark.parametrize("tail", TORN_TAILS, ids=TORN_TAIL_IDS)
    def test_torn_final_line_is_dropped(self, tmp_path, tail):
        path = tmp_path / "c.jsonl"
        path.write_bytes(RECORD_A + tail)
        store = CampaignStore(path)
        assert set(store.load()) == {"a"}
        assert store.n_dropped_torn == 1

    @pytest.mark.parametrize("load_first", [False, True], ids=["fresh", "loaded"])
    @pytest.mark.parametrize("tail", TORN_TAILS, ids=TORN_TAIL_IDS)
    def test_append_after_torn_line_heals_the_store(
        self, tmp_path, tail, load_first
    ):
        """Appending must not glue a record onto a torn final line, and a
        torn line that was both read and healed is counted once."""
        path = tmp_path / "c.jsonl"
        path.write_bytes(RECORD_A + tail)
        store = CampaignStore(path)
        if load_first:
            assert set(store.load()) == {"a"}
        with store:
            store.append({"spec_hash": "b", "status": "ok"})
        assert store.n_dropped_torn == 1
        loaded = CampaignStore(path).load()
        assert set(loaded) == {"a", "b"}
        assert [
            json.loads(line)["spec_hash"] for line in path.read_text().splitlines()
        ] == ["a", "b"]

    @pytest.mark.parametrize("load_first", [False, True], ids=["fresh", "loaded"])
    def test_append_completes_a_record_missing_its_newline(
        self, tmp_path, load_first
    ):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"spec_hash": "a", "status": "ok"}))  # no \n
        store = CampaignStore(path)
        if load_first:
            assert set(store.load()) == {"a"}
        with store:
            store.append({"spec_hash": "b", "status": "ok"})
        assert store.n_dropped_torn == 0
        assert set(CampaignStore(path).load()) == {"a", "b"}

    def test_malformed_interior_line_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            "not json\n" + json.dumps({"spec_hash": "a", "status": "ok"}) + "\n"
        )
        with pytest.raises(ValueError, match="malformed"):
            CampaignStore(path).load()

    @pytest.mark.parametrize("read", ["load", "iter_records"])
    @pytest.mark.parametrize(
        "final_line", [b"not json", b'{"spec_hash": "b", "sta'], ids=["text", "cut"]
    )
    def test_malformed_final_line_ending_in_newline_raises(
        self, tmp_path, final_line, read
    ):
        """A newline-terminated line is complete, so a malformed one is
        corruption even as the final line: the first read fails, naming
        it, instead of dropping it and breaking a later read."""
        path = tmp_path / "c.jsonl"
        path.write_bytes(RECORD_A + final_line + b"\n")
        store = CampaignStore(path)
        with pytest.raises(ValueError, match=r"c\.jsonl:2: malformed campaign record"):
            list(getattr(store, read)())

    def test_records_without_hash_are_rejected(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        with pytest.raises(ValueError, match="spec_hash"):
            store.append({"status": "ok"})


class TestRunMany:
    def test_serial_matches_session_run_loop(self, small_sweep):
        campaign = Session().run_many(small_sweep, executor="serial")
        assert campaign.n_ok == 4
        assert campaign.n_failed == 0
        session = Session()
        for spec, record in zip(small_sweep.scenarios(), campaign.records):
            reference = session.run(spec)
            assert record["result"]["peak_temperature_K"] == (
                reference.peak_temperature_K
            )
            assert record["result"]["thermal_gradient_K"] == (
                reference.thermal_gradient_K
            )
            assert record["scenario"] == spec.name

    def test_thread_matches_serial(self, small_sweep):
        serial = Session().run_many(small_sweep, executor="serial")
        threaded = Session().run_many(small_sweep, executor="thread", workers=2)
        assert [r["result"]["peak_temperature_K"] for r in threaded.records] == [
            r["result"]["peak_temperature_K"] for r in serial.records
        ]
        assert threaded.provenance["counters"]["n_solves"] == 4

    def test_records_come_back_in_sweep_order(self, small_sweep):
        campaign = Session().run_many(small_sweep, executor="thread", workers=2)
        assert [r["index"] for r in campaign.records] == [0, 1, 2, 3]
        assert [r["scenario"] for r in campaign.records] == (
            small_sweep.scenario_names()
        )

    def test_executor_instance_is_accepted(self, small_sweep):
        campaign = Session().run_many(small_sweep, executor=ThreadExecutor(2))
        assert campaign.executor == "thread"
        assert campaign.workers == 2

    def test_solver_override_applies_to_every_scenario(self, small_base):
        sweep = SweepSpec(
            name="ice",
            base=small_base,
            axes=(SweepAxis("workload.flux_w_per_cm2", (40.0, 60.0)),),
        )
        campaign = Session().run_many(sweep, solver="ice")
        assert all(
            record["result"]["simulator"] == "ice" for record in campaign.records
        )

    def test_failures_do_not_abort_the_campaign(self, small_base):
        # params.channel_length zero is caught by spec validation at
        # expansion, so break one scenario at the simulator level instead:
        # an unknown solver name fails inside the task.
        good = small_base
        campaign = Session().run_many(
            [good, good.with_overrides(name="boom")],
            solver=None,
            executor="serial",
        )
        assert campaign.n_failed == 0  # sanity: both fine normally
        failing = Session().run_many(
            [good, good.with_overrides(name="boom")], solver="no-such"
        )
        assert failing.n_ok == 0
        assert failing.n_failed == 2
        assert all(r["status"] == "error" for r in failing.records)

    def test_progress_callback_sees_every_fresh_record(self, small_sweep):
        seen = []
        Session().run_many(small_sweep, progress=lambda r: seen.append(r["index"]))
        assert sorted(seen) == [0, 1, 2, 3]

    def test_optimize_many_smoke(self, small_base):
        sweep = SweepSpec(
            name="opt",
            base=small_base,
            axes=(SweepAxis("workload.flux_w_per_cm2", (40.0, 60.0)),),
        )
        campaign = Session().optimize_many(sweep)
        assert campaign.n_ok == 2
        for record in campaign.records:
            assert record["action"] == "optimize"
            assert "optimal_design" in record["result"]

    def test_module_level_wrappers(self, small_sweep):
        from repro import optimize_many, run_many

        campaign = run_many(small_sweep)
        assert campaign.n_ok == 4
        assert callable(optimize_many)

    def test_summary_and_to_dict_are_json_compatible(self, small_sweep):
        campaign = Session().run_many(small_sweep)
        payload = json.dumps(campaign.to_dict())
        assert "records" in json.loads(payload)
        summary = campaign.summary()
        assert summary["n_ok"] == 4
        assert summary["counters"]["n_solves"] == 4


class TestStoreResume:
    def test_resume_skips_stored_scenarios(self, small_sweep, tmp_path):
        out = tmp_path / "campaign.jsonl"
        first = Session().run_many(small_sweep, out=out)
        assert first.n_from_store == 0
        assert first.provenance["counters"]["n_solves"] == 4
        second = Session().run_many(small_sweep, out=out)
        assert second.n_from_store == 4
        assert second.provenance["counters"]["n_solves"] == 0
        assert [r["source"] for r in second.records] == ["store"] * 4
        # The stored metrics survive the round trip untouched.
        assert [r["result"]["peak_temperature_K"] for r in second.records] == [
            r["result"]["peak_temperature_K"] for r in first.records
        ]

    def test_interrupted_campaign_resumes_where_it_stopped(
        self, small_sweep, tmp_path
    ):
        out = tmp_path / "campaign.jsonl"
        Session().run_many(small_sweep, out=out)
        # Simulate an interruption after two scenarios: keep only the
        # first two stored lines (plus a torn third line).
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[:2]) + "\n" + lines[2][:20])
        resumed = Session().run_many(small_sweep, out=out)
        assert resumed.n_from_store == 2
        assert resumed.provenance["counters"]["n_solves"] == 2
        assert resumed.n_ok == 4

    def test_error_records_are_recomputed_on_resume(self, small_base, tmp_path):
        out = tmp_path / "campaign.jsonl"
        scenarios = [small_base]
        failing = Session().run_many(scenarios, solver="no-such", out=out)
        assert failing.n_failed == 1
        healed = Session().run_many(scenarios, out=out)
        assert healed.n_from_store == 0  # error records never satisfy resume
        assert healed.n_ok == 1

    def test_changed_spec_is_recomputed(self, small_base, tmp_path):
        out = tmp_path / "campaign.jsonl"
        Session().run_many([small_base], out=out)
        changed = small_base.with_params(flow_rate_per_channel=8e-9)
        second = Session().run_many([changed], out=out)
        assert second.n_from_store == 0
        assert second.provenance["counters"]["n_solves"] == 1


class TestProcessExecutor:
    def test_acceptance_flux_architecture_sweep_process_bit_identical(
        self, tmp_path
    ):
        """ISSUE 4 acceptance: 12 scenarios, process workers=2, bitwise.

        The process campaign's per-scenario results must equal a serial
        ``Session.run`` loop exactly (==, not approx), and re-running with
        the same ``--out`` store must resume without recomputing.
        """
        sweep = flux_architecture_sweep()
        specs = sweep.scenarios()
        assert len(specs) == 12
        out = tmp_path / "campaign.jsonl"
        campaign = Session().run_many(
            sweep, executor="process", workers=2, out=out
        )
        assert campaign.n_ok == 12
        session = Session()
        for spec, record in zip(specs, campaign.records):
            reference = session.run(spec)
            result = record["result"]
            assert result["peak_temperature_K"] == reference.peak_temperature_K
            assert result["thermal_gradient_K"] == reference.thermal_gradient_K
            assert result["coolant_rise_K"] == reference.coolant_rise_K
            assert result["pressure_drops_Pa"] == list(
                reference.pressure_drops_Pa
            )
        # Counters aggregated across the worker processes.
        assert campaign.provenance["counters"]["n_solves"] == 12
        pids = {record["worker"]["pid"] for record in campaign.records}
        assert len(pids) >= 1
        # Interrupt/resume: the stored campaign satisfies every task.
        resumed = Session().run_many(
            sweep, executor="process", workers=2, out=out
        )
        assert resumed.n_from_store == 12
        assert resumed.provenance["counters"]["n_solves"] == 0

    def test_single_worker_runs_in_process(self, small_sweep):
        import os

        campaign = Session().run_many(small_sweep, executor="process", workers=1)
        assert campaign.n_ok == 4
        assert all(
            record["worker"]["pid"] == os.getpid()
            for record in campaign.records
        )

    def test_process_executor_counts_worker_solves(self, small_sweep):
        campaign = Session().run_many(small_sweep, executor="process", workers=2)
        assert campaign.provenance["counters"]["n_solves"] == 4


class TestSummarizeRecords:
    def test_roll_up(self, small_sweep, tmp_path):
        out = tmp_path / "campaign.jsonl"
        Session().run_many(small_sweep, out=out)
        records = sorted(
            CampaignStore(out).load().values(), key=lambda r: r["index"]
        )
        summary = summarize_records(records)
        assert summary["n_records"] == 4
        assert summary["n_ok"] == 4
        assert summary["n_failed"] == 0
        assert summary["counters"]["n_solves"] == 4
        assert summary["peak_temperature_K_max"] >= (
            summary["peak_temperature_K_min"]
        )

    def test_streaming_iterator_matches_bulk_load(self, small_sweep, tmp_path):
        out = tmp_path / "campaign.jsonl"
        Session().run_many(small_sweep, out=out)
        store = CampaignStore(out)
        assert summarize_records(store.iter_records()) == summarize_records(
            store.load().values()
        )

    def test_generator_input_is_consumed_single_pass(self, small_sweep):
        campaign = Session().run_many(small_sweep)
        summary = summarize_records(record for record in campaign.records)
        assert summary["n_records"] == 4


class TestIterRecords:
    def test_yields_only_winners_in_file_order(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        with store:
            store.append({"spec_hash": "ab" * 32, "status": "error", "n": 1})
            store.append({"spec_hash": "cd" * 32, "status": "ok", "n": 1})
            store.append({"spec_hash": "ab" * 32, "status": "ok", "n": 2})
        records = list(CampaignStore(tmp_path / "c.jsonl").iter_records())
        assert [record["n"] for record in records] == [1, 2]
        assert {record["spec_hash"] for record in records} == {
            "ab" * 32,
            "cd" * 32,
        }

    def test_matches_load_over_legacy_plus_shards(self, tmp_path):
        path = tmp_path / "c.jsonl"
        legacy = CampaignStore(path, sharded=False)
        with legacy:
            legacy.append({"spec_hash": "ab" * 32, "status": "error", "n": 1})
            legacy.append({"spec_hash": "cd" * 32, "status": "ok", "n": 1})
        sharded = CampaignStore(path, sharded=True)
        with sharded:
            sharded.append({"spec_hash": "ab" * 32, "status": "ok", "n": 2})
        store = CampaignStore(path)
        streamed = {
            record["spec_hash"]: record for record in store.iter_records()
        }
        assert streamed == store.load()

    def test_torn_tail_is_not_double_counted(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        with store:
            store.append({"spec_hash": "ab" * 32, "status": "ok"})
        with open(tmp_path / "c.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"spec_hash": "truncat')
        reopened = CampaignStore(tmp_path / "c.jsonl")
        assert len(list(reopened.iter_records())) == 1
        # The two scan passes of iter_records count the torn line once.
        assert reopened.n_dropped_torn == 1

    def test_empty_store_yields_nothing(self, tmp_path):
        assert list(CampaignStore(tmp_path / "missing.jsonl").iter_records()) == []

    def test_records_carry_their_spec(self, small_sweep, tmp_path):
        """Campaign records are self-describing training data: each ok
        record embeds the expanded spec it was solved from."""
        out = tmp_path / "campaign.jsonl"
        Session().run_many(small_sweep, out=out)
        for record in CampaignStore(out).iter_records():
            spec = ScenarioSpec.from_dict(record["spec"])
            assert spec.name == record["scenario"]


class TestStoreMemory:
    """Reading and appending stream the store: the traced allocation peak
    stays below half the file size (a whole-file read would exceed it)."""

    N_RECORDS = 2000

    @pytest.fixture()
    def big_store(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(self.N_RECORDS):
                record = {"spec_hash": f"{index:064x}", "pad": "x" * 1000}
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return path

    @staticmethod
    def traced_peak(action):
        """``(action(), peak traced allocation in bytes)``."""
        tracemalloc.start()
        try:
            return action(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_iter_records_holds_one_line_at_a_time(self, big_store):
        store = CampaignStore(big_store)
        count, peak = self.traced_peak(lambda: sum(1 for _ in store.iter_records()))
        assert count == self.N_RECORDS
        assert peak < big_store.stat().st_size / 2

    def test_first_append_reads_only_the_tail(self, big_store):
        size = big_store.stat().st_size
        store = CampaignStore(big_store)
        with store:
            _, peak = self.traced_peak(
                lambda: store.append({"spec_hash": "ff" * 32, "status": "ok"})
            )
        assert peak < size / 2
        assert len(CampaignStore(big_store).load()) == self.N_RECORDS + 1


class TestProcessExecutorGuard:
    def test_instance_solver_cannot_enter_a_campaign(self, small_base):
        from repro.api import FDMSimulator

        with pytest.raises(ValueError, match="family name"):
            make_tasks([small_base], solver=FDMSimulator())

    def test_process_executor_worker_validation(self):
        # workers=0/None means "use every core" for the process executor...
        assert ProcessExecutor(workers=0).workers >= 1
        with pytest.raises(ValueError, match="workers"):
            ProcessExecutor(workers=-1)
        # ...but the thread executor requires an explicit positive count.
        with pytest.raises(ValueError, match="workers"):
            ThreadExecutor(workers=0)


class TestThreadCounterAttribution:
    def test_thread_records_carry_no_per_task_counters(self, small_sweep):
        """Concurrent shared-session tasks cannot attribute deltas truthfully."""
        campaign = Session().run_many(small_sweep, executor="thread", workers=2)
        assert all(record["counters"] is None for record in campaign.records)
        # The campaign-level aggregation (session delta) is still exact.
        assert campaign.provenance["counters"]["n_solves"] == 4
        summary = summarize_records(campaign.records)
        assert summary["counters_complete"] is False

    def test_serial_and_process_records_keep_exact_counters(self, small_sweep):
        serial = Session().run_many(small_sweep, executor="serial")
        assert all(
            record["counters"]["n_solves"] == 1 for record in serial.records
        )
        assert summarize_records(serial.records)["counters_complete"] is True


class TestSessionOverrideInCampaigns:
    def test_session_simulator_name_reaches_records_and_keys(self, small_base):
        """Session(simulator=...) must be visible in records and resume keys."""
        campaign = Session(simulator="ice").run_many([small_base])
        record = campaign.records[0]
        assert record["solver"] == "ice"
        assert record["result"]["simulator"] == "ice"
        # The resume key differs from the spec-default (fdm) key, so an
        # ICE campaign can never satisfy an FDM resume (or vice versa).
        fdm_key = CampaignTask(0, small_base).key()
        assert record["spec_hash"] != fdm_key

    def test_session_simulator_instance_is_rejected_for_campaigns(
        self, small_base
    ):
        from repro.api import FDMSimulator

        session = Session(simulator=FDMSimulator())
        with pytest.raises(ValueError, match="family name"):
            session.run_many([small_base])

    def test_per_call_solver_still_wins(self, small_base):
        campaign = Session(simulator="ice").run_many([small_base], solver="fdm")
        assert campaign.records[0]["result"]["simulator"] == "fdm"

    def test_optimize_campaign_ignores_session_simulator(self, small_base):
        campaign = Session(simulator="ice").optimize_many([small_base])
        assert campaign.n_ok == 1
        assert campaign.records[0]["solver"] is None


class TestCampaignNaming:
    def test_sweep_file_keeps_its_name(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.json"
        small_sweep.save(path)
        campaign = Session().run_many(path)
        assert campaign.name == "t"

    def test_sweep_mapping_keeps_its_name(self, small_sweep):
        campaign = Session().run_many(small_sweep.to_dict())
        assert campaign.name == "t"

    def test_single_scenario_campaign_uses_the_scenario_name(self, small_base):
        campaign = Session().run_many(small_base)
        assert campaign.name == small_base.name

    def test_adhoc_sequence_is_named_campaign(self, small_base):
        campaign = Session().run_many([small_base])
        assert campaign.name == "campaign"


class TestCustomExecutorCounters:
    def test_shared_session_custom_executor_is_not_double_counted(
        self, small_sweep
    ):
        """A custom executor without shares_session runs on the caller's
        session; its activity must be counted once (the session delta)."""

        class Naive:
            name = "naive"
            workers = 1

            def execute(self, tasks, session):
                for task in tasks:
                    yield execute_task(task, session)

        campaign = Session().run_many(small_sweep, executor=Naive())
        assert campaign.provenance["counters"]["n_solves"] == 4  # not 8


class TestStoreRobustness:
    """Satellite coverage: torn-tail healing under interleaved
    append/resume cycles, loud failure on malformed interior records, and
    ``repro campaign summarize`` over a healed store."""

    def tear_tail(self, path, keep_lines, stub_chars=25):
        """Rewrite the store as ``keep_lines`` full records + a torn tail."""
        lines = path.read_text().splitlines()
        assert len(lines) > keep_lines
        path.write_text(
            "\n".join(lines[:keep_lines]) + "\n" + lines[keep_lines][:stub_chars]
        )

    def test_interleaved_append_resume_heals_every_torn_tail(
        self, small_sweep, tmp_path
    ):
        out = tmp_path / "campaign.jsonl"
        Session().run_many(small_sweep, out=out)
        # Interrupt / resume twice, tearing the tail each time: each resume
        # must truncate the partial line, recompute only what it lost, and
        # leave a fully parseable store behind.
        for keep, expected_from_store in ((3, 3), (2, 2)):
            self.tear_tail(out, keep)
            resumed = Session().run_many(small_sweep, out=out)
            assert resumed.n_from_store == expected_from_store
            assert resumed.n_ok == 4
            reloaded = CampaignStore(out)
            assert len(reloaded.load()) == 4
            assert reloaded.n_dropped_torn == 0  # healed, not re-dropped
            # No glued/corrupt lines: every stored line is valid JSON.
            for line in out.read_text().splitlines():
                json.loads(line)

    def test_malformed_interior_record_is_a_loud_error_on_resume(
        self, small_sweep, tmp_path
    ):
        out = tmp_path / "campaign.jsonl"
        Session().run_many(small_sweep, out=out)
        lines = out.read_text().splitlines()
        lines[1] = '{"broken": '  # interior corruption, not a torn tail
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":2: malformed"):
            Session().run_many(small_sweep, out=out)

    def test_cli_summarize_works_on_a_healed_store(
        self, small_sweep, tmp_path, capsys
    ):
        from repro.cli import main as cli_main

        out = tmp_path / "campaign.jsonl"
        Session().run_many(small_sweep, out=out)
        self.tear_tail(out, 3)
        resumed = Session().run_many(small_sweep, out=out)
        assert resumed.n_ok == 4
        assert cli_main(["campaign", "summarize", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_records"] == 4
        assert payload["n_ok"] == 4
        assert payload["n_dropped_torn"] == 0

    def test_cli_summarize_rejects_malformed_interior_records(
        self, small_sweep, tmp_path, capsys
    ):
        from repro.cli import main as cli_main

        out = tmp_path / "campaign.jsonl"
        Session().run_many(small_sweep, out=out)
        lines = out.read_text().splitlines()
        lines[0] = "not json at all"
        out.write_text("\n".join(lines) + "\n")
        assert cli_main(["campaign", "summarize", str(out)]) == 2
        err = capsys.readouterr().err
        assert "malformed" in err and ":1:" in err

class TestShardedStore:
    """Tentpole coverage: spec-hash-prefix sharding of the campaign store."""

    def test_appends_land_in_prefix_shards(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl", sharded=True)
        with store:
            store.append({"spec_hash": "ab" * 32, "status": "ok"})
            store.append({"spec_hash": "cd" * 32, "status": "ok"})
            store.append({"spec_hash": "abff" + "0" * 60, "status": "ok"})
        shards = store.shard_paths()
        assert [s.rsplit("/", 1)[-1] for s in shards] == ["ab.jsonl", "cd.jsonl"]
        assert not (tmp_path / "c.jsonl").exists()  # nothing in the legacy file
        loaded = CampaignStore(tmp_path / "c.jsonl").load()  # auto-detected
        assert len(loaded) == 3

    def test_sharding_is_autodetected_from_the_shard_dir(self, tmp_path):
        first = CampaignStore(tmp_path / "c.jsonl", sharded=True)
        with first:
            first.append({"spec_hash": "ab" * 32, "status": "ok"})
        second = CampaignStore(tmp_path / "c.jsonl")  # no explicit flag
        assert second.is_sharded
        with second:
            second.append({"spec_hash": "cd" * 32, "status": "ok"})
        assert len(second.shard_paths()) == 2

    def test_legacy_single_file_and_shards_merge_on_load(self, tmp_path):
        path = tmp_path / "c.jsonl"
        legacy = CampaignStore(path, sharded=False)
        with legacy:
            legacy.append({"spec_hash": "ab" * 32, "status": "error", "n": 1})
            legacy.append({"spec_hash": "cd" * 32, "status": "ok", "n": 1})
        sharded = CampaignStore(path, sharded=True)
        with sharded:
            sharded.append({"spec_hash": "ab" * 32, "status": "ok", "n": 2})
        loaded = CampaignStore(path).load()
        assert len(loaded) == 2
        assert loaded["ab" * 32]["n"] == 2  # shard records win over legacy
        assert loaded["cd" * 32]["n"] == 1  # legacy-only records survive

    def test_non_hex_keys_fall_into_the_overflow_shard(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl", sharded=True)
        with store:
            store.append({"spec_hash": "Z!" + "0" * 62, "status": "ok"})
        assert (tmp_path / "c.jsonl.d" / "xx.jsonl").exists()
        assert len(CampaignStore(tmp_path / "c.jsonl").load()) == 1

    def test_torn_tail_is_per_shard(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl", sharded=True)
        with store:
            store.append({"spec_hash": "ab" * 32, "status": "ok"})
            store.append({"spec_hash": "cd" * 32, "status": "ok"})
        shard = tmp_path / "c.jsonl.d" / "ab.jsonl"
        shard.write_text(shard.read_text() + '{"torn')
        reloaded = CampaignStore(tmp_path / "c.jsonl")
        assert len(reloaded.load()) == 2
        assert reloaded.n_dropped_torn == 1

    def test_run_many_resumes_transparently_over_shards(
        self, small_sweep, tmp_path
    ):
        out = CampaignStore(tmp_path / "campaign.jsonl", sharded=True)
        first = Session().run_many(small_sweep, out=out)
        assert first.n_ok == 4
        assert len(out.shard_paths()) >= 1
        resumed = Session().run_many(
            small_sweep, out=CampaignStore(tmp_path / "campaign.jsonl")
        )
        assert resumed.n_from_store == 4
        assert resumed.provenance["counters"]["n_solves"] == 0

    def test_summarize_covers_shards(self, small_sweep, tmp_path, capsys):
        from repro.cli import main as cli_main

        out = CampaignStore(tmp_path / "campaign.jsonl", sharded=True)
        Session().run_many(small_sweep, out=out)
        assert cli_main(
            ["campaign", "summarize", str(tmp_path / "campaign.jsonl"), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_records"] == 4
        assert payload["sharded"] is True
        assert payload["n_shards"] == len(out.shard_paths())


class TestStoreCloseRegression:
    """Satellite bugfix: append/close must be safe after close()."""

    def test_close_is_idempotent(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        store.append({"spec_hash": "a", "status": "ok"})
        store.close()
        store.close()  # second close must not raise
        assert store.closed

    def test_append_after_close_is_a_clear_error(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        store.append({"spec_hash": "a", "status": "ok"})
        store.close()
        with pytest.raises(ValueError, match="closed.*reopen"):
            store.append({"spec_hash": "b", "status": "ok"})
        # The failed append must not have corrupted the file.
        assert set(CampaignStore(store.path).load()) == {"a"}

    def test_reopen_makes_the_store_appendable_again(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        store.append({"spec_hash": "a", "status": "ok"})
        store.close()
        store.reopen()
        store.append({"spec_hash": "b", "status": "ok"})
        store.close()
        assert set(CampaignStore(store.path).load()) == {"a", "b"}

    def test_run_many_reuses_a_caller_provided_store_object(
        self, small_sweep, tmp_path
    ):
        """run_many closes the store; passing the same object again must
        resume, not raise append-after-close."""
        store = CampaignStore(tmp_path / "campaign.jsonl")
        Session().run_many(small_sweep, out=store)
        assert store.closed
        resumed = Session().run_many(small_sweep, out=store)
        assert resumed.n_from_store == 4


class TestRunManyResultCache:
    """Tentpole integration: the shared result cache inside run_many."""

    def test_second_campaign_is_served_from_cache(self, small_sweep, tmp_path):
        cache_dir = tmp_path / "cache"
        first = Session().run_many(small_sweep, cache=cache_dir)
        assert first.n_from_cache == 0
        assert first.provenance["counters"]["n_solves"] == 4
        second = Session().run_many(small_sweep, cache=cache_dir)
        assert second.n_from_cache == 4
        assert second.provenance["counters"]["n_solves"] == 0
        assert [r["source"] for r in second.records] == ["cache"] * 4
        for a, b in zip(first.records, second.records):
            assert a["result"] == b["result"]  # bit-identical replay
            assert b["counters"] == {key: 0 for key in b["counters"]}

    def test_cache_accepts_a_resultcache_instance(self, small_base, tmp_path):
        from repro.serve.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        Session().run_many([small_base], cache=cache)
        assert cache.stats()["n_puts"] == 1
        again = Session().run_many([small_base], cache=cache)
        assert again.n_from_cache == 1
        assert cache.stats()["n_hits"] == 1

    def test_store_hits_backfill_the_cache(self, small_sweep, tmp_path):
        out = tmp_path / "campaign.jsonl"
        Session().run_many(small_sweep, out=out)  # no cache involved
        from repro.serve.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        resumed = Session().run_many(small_sweep, out=out, cache=cache)
        assert resumed.n_from_store == 4
        assert len(cache) == 4  # store records were promoted into the cache
        fresh = Session().run_many(small_sweep, cache=cache)
        assert fresh.n_from_cache == 4

    def test_cache_hits_stream_into_the_store(self, small_sweep, tmp_path):
        cache_dir = tmp_path / "cache"
        Session().run_many(small_sweep, cache=cache_dir)
        out = tmp_path / "campaign.jsonl"
        cached = Session().run_many(small_sweep, out=out, cache=cache_dir)
        assert cached.n_from_cache == 4
        # The store now satisfies resume on its own (cache deleted).
        import shutil

        shutil.rmtree(cache_dir)
        resumed = Session().run_many(small_sweep, out=out)
        assert resumed.n_from_store == 4

    def test_error_records_are_not_cached(self, small_base, tmp_path):
        cache_dir = tmp_path / "cache"
        failing = Session().run_many(
            [small_base], solver="no-such", cache=cache_dir
        )
        assert failing.n_failed == 1
        retried = Session().run_many([small_base], solver="no-such", cache=cache_dir)
        assert retried.n_from_cache == 0  # errors must re-run, not replay

    def test_progress_sees_cache_hits(self, small_sweep, tmp_path):
        cache_dir = tmp_path / "cache"
        Session().run_many(small_sweep, cache=cache_dir)
        seen = []
        Session().run_many(
            small_sweep, cache=cache_dir, progress=lambda r: seen.append(r["source"])
        )
        assert seen == ["cache"] * 4
