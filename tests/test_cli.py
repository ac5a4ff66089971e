"""Tests of the ``repro`` command line."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.scenarios import GridSpec, OptimizerSpec, ScenarioSpec, get_scenario


@pytest.fixture()
def small_spec_file(tmp_path):
    """A fast Test A scenario written to a JSON file."""
    spec = get_scenario("test-a").with_overrides(
        name="test-a-small",
        grid=GridSpec(n_grid_points=81, n_lanes=1, n_rows=1, n_cols=40),
        optimizer=OptimizerSpec(n_segments=3, max_iterations=5),
    )
    path = tmp_path / "small.json"
    spec.save(path)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_lists_registered_scenarios(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        for name in ("test-a", "test-b", "niagara-arch1"):
            assert name in out

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--json")
        assert code == 0
        rows = json.loads(out)
        assert {"test-a", "test-b"} <= {row["name"] for row in rows}


class TestShow:
    def test_show_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "show", "test-a")
        assert code == 0
        assert ScenarioSpec.from_json(out) == get_scenario("test-a")


class TestRun:
    def test_run_test_a_json_matches_designer_path(self, capsys):
        """Acceptance: `repro run test-a --json` == the programmatic path."""
        from repro import ChannelModulationDesigner, test_a_structure

        code, out, _ = run_cli(capsys, "run", "test-a", "--json")
        assert code == 0
        payload = json.loads(out)
        evaluation = ChannelModulationDesigner(
            test_a_structure()
        ).uniform_maximum()
        assert payload["peak_temperature_K"] == pytest.approx(
            evaluation.peak_temperature, abs=1e-9
        )
        assert payload["thermal_gradient_K"] == pytest.approx(
            evaluation.thermal_gradient, abs=1e-9
        )
        assert payload["simulator"] == "fdm"

    def test_run_with_ice_solver(self, capsys, small_spec_file):
        code, out, _ = run_cli(
            capsys, "run", str(small_spec_file), "--solver", "ice", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["simulator"] == "ice"
        assert payload["scenario"] == "test-a-small"

    def test_run_writes_output_file(self, capsys, small_spec_file, tmp_path):
        out_file = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, "run", str(small_spec_file), "--output", str(out_file)
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["scenario"] == "test-a-small"

    def test_human_output(self, capsys, small_spec_file):
        code, out, _ = run_cli(capsys, "run", str(small_spec_file))
        assert code == 0
        assert "thermal_gradient_K" in out

    def test_unknown_scenario_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "no-such-scenario")
        assert code == 2
        assert "registered scenarios" in err

    @pytest.mark.parametrize("solver", ["fdm", "ice"])
    def test_unknown_backend_is_an_error(self, capsys, solver):
        code, _, err = run_cli(
            capsys, "run", "test-a", "--backend", "nope", "--solver", solver
        )
        assert code == 2
        assert err.startswith("error: unknown solver backend 'nope'; ")


class TestValidate:
    def test_validate_emits_both_results(self, capsys, small_spec_file):
        code, out, _ = run_cli(
            capsys, "validate", str(small_spec_file), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fdm"]["simulator"] == "fdm"
        assert payload["ice"]["simulator"] == "ice"
        assert abs(payload["gradient_delta_K"]) < 2.0


class TestOptimize:
    def test_optimize_and_save_design(self, capsys, small_spec_file, tmp_path):
        design_file = tmp_path / "optimized.json"
        code, out, _ = run_cli(
            capsys,
            "optimize",
            str(small_spec_file),
            "--json",
            "--save-design",
            str(design_file),
        )
        assert code == 0
        payload = json.loads(out)
        assert "gradient_reduction" in payload["summary"]
        pinned = ScenarioSpec.load(design_file)
        assert pinned.design is not None
        # The saved scenario is directly runnable.
        code, out, _ = run_cli(capsys, "run", str(design_file), "--json")
        assert code == 0
        assert json.loads(out)["thermal_gradient_K"] == pytest.approx(
            payload["summary"]["optimal_gradient_K"], abs=1e-9
        )


class TestBench:
    def test_bench_reports_cache_reuse(self, capsys, small_spec_file):
        code, out, _ = run_cli(
            capsys, "bench", str(small_spec_file), "--repeat", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["repeat"] == 3
        assert len(payload["wall_times_s"]) == 3
        stats = next(iter(payload["session"].values()))
        assert stats["n_solves"] == 1
        assert stats["n_cache_hits"] == 2
        assert payload["ice"]["assembly_vectorized_s"] > 0.0
        assert payload["ice"]["flow_refresh_s"] > 0.0

    def test_bench_rejects_bad_repeat(self, capsys, small_spec_file):
        code, _, err = run_cli(
            capsys, "bench", str(small_spec_file), "--repeat", "0"
        )
        assert code == 2
        assert "repeat" in err


class TestErrorPaths:
    """User-input mistakes must exit non-zero with a one-line error."""

    def test_unknown_scenario_name(self, capsys):
        code, _, err = run_cli(capsys, "run", "no-such-scenario")
        assert code == 2
        lines = [line for line in err.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "registered scenarios" in lines[0]

    def test_malformed_json_spec_file(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"name": "x", "workload": {')
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        lines = [line for line in err.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("error:")

    def test_conflicting_backend_flag(self, capsys, tmp_path):
        """--backend fighting a pinned spec backend is an error, not a silent override."""
        spec = get_scenario("test-a").with_solver(backend="sparse-lu")
        path = tmp_path / "pinned.json"
        spec.with_overrides(name="pinned").save(path)
        code, _, err = run_cli(capsys, "run", str(path), "--backend", "dense")
        assert code == 2
        lines = [line for line in err.splitlines() if line]
        assert len(lines) == 1
        assert "conflicts" in lines[0]

    def test_backend_flag_fills_in_auto(self, capsys, small_spec_file):
        """--backend on an `auto` spec is a selection, not a conflict."""
        code, out, _ = run_cli(
            capsys, "run", str(small_spec_file), "--backend", "dense", "--json"
        )
        assert code == 0
        assert json.loads(out)["provenance"]["backend"] == "dense"

    def test_matching_backend_flag_is_fine(self, capsys, tmp_path):
        spec = get_scenario("test-a").with_overrides(
            name="pinned-ok",
            grid=GridSpec(n_grid_points=61, n_lanes=1, n_rows=1, n_cols=20),
        ).with_solver(backend="dense")
        path = tmp_path / "pinned.json"
        spec.save(path)
        code, _, _ = run_cli(
            capsys, "run", str(path), "--backend", "dense", "--json"
        )
        assert code == 0


@pytest.fixture()
def sweep_file(tmp_path):
    """A 2x2 sweep JSON file over a fast Test A base."""
    from repro.sweeps import SweepAxis, SweepSpec

    base = get_scenario("test-a").with_overrides(
        name="sweep-base",
        grid=GridSpec(n_grid_points=61, n_lanes=1, n_rows=1, n_cols=20),
        optimizer=OptimizerSpec(n_segments=2, max_iterations=3),
    )
    sweep = SweepSpec(
        name="cli-sweep",
        base=base,
        axes=(
            SweepAxis("workload.flux_w_per_cm2", (40.0, 60.0), label="flux"),
            SweepAxis("grid.n_grid_points", (61, 81), label="nz"),
        ),
    )
    path = tmp_path / "sweep.json"
    sweep.save(path)
    return path


class TestSweep:
    def test_dry_run_lists_expansion(self, capsys, sweep_file):
        code, out, _ = run_cli(capsys, "sweep", str(sweep_file), "--dry-run")
        assert code == 0
        assert "cli-sweep/000-flux=40_nz=61" in out
        assert "4 scenario(s)" in out

    def test_sweep_runs_and_stores(self, capsys, sweep_file, tmp_path):
        out_file = tmp_path / "campaign.jsonl"
        code, out, _ = run_cli(
            capsys,
            "sweep",
            str(sweep_file),
            "--out",
            str(out_file),
            "--quiet",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["n_ok"] == 4
        assert len(out_file.read_text().splitlines()) == 4

    def test_sweep_resumes_from_store(self, capsys, sweep_file, tmp_path):
        out_file = tmp_path / "campaign.jsonl"
        run_cli(capsys, "sweep", str(sweep_file), "--out", str(out_file), "--quiet")
        code, out, _ = run_cli(
            capsys,
            "sweep",
            str(sweep_file),
            "--out",
            str(out_file),
            "--quiet",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n_from_store"] == 4
        assert payload["summary"]["counters"]["n_solves"] == 0
        # No duplicate lines were appended.
        assert len(out_file.read_text().splitlines()) == 4

    def test_sweep_thread_executor(self, capsys, sweep_file):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            str(sweep_file),
            "--executor",
            "thread",
            "--workers",
            "2",
            "--quiet",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["summary"]["n_ok"] == 4

    def test_sweep_accepts_plain_scenario(self, capsys, small_spec_file):
        code, out, _ = run_cli(
            capsys, "sweep", str(small_spec_file), "--quiet", "--json"
        )
        assert code == 0
        assert json.loads(out)["summary"]["n_records"] == 1

    def test_unknown_executor_is_an_error(self, capsys, sweep_file):
        code, _, err = run_cli(
            capsys, "sweep", str(sweep_file), "--executor", "bogus", "--quiet"
        )
        assert code == 2
        assert "unknown executor" in err

    def test_malformed_sweep_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run_cli(capsys, "sweep", str(bad))
        assert code == 2
        assert err.startswith("error:")


class TestCampaignSummarize:
    def test_summarize_stored_campaign(self, capsys, sweep_file, tmp_path):
        out_file = tmp_path / "campaign.jsonl"
        run_cli(capsys, "sweep", str(sweep_file), "--out", str(out_file), "--quiet")
        code, out, _ = run_cli(
            capsys, "campaign", "summarize", str(out_file), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n_records"] == 4
        assert payload["n_ok"] == 4
        assert payload["counters"]["n_solves"] == 4
        assert payload["peak_temperature_K_max"] >= payload["peak_temperature_K_min"]

    def test_summarize_human_output(self, capsys, sweep_file, tmp_path):
        out_file = tmp_path / "campaign.jsonl"
        run_cli(capsys, "sweep", str(sweep_file), "--out", str(out_file), "--quiet")
        code, out, _ = run_cli(capsys, "campaign", "summarize", str(out_file))
        assert code == 0
        assert "4/4 ok" in out

    def test_summarize_rejects_non_campaign_file(self, capsys, tmp_path):
        bad = tmp_path / "not-a-campaign.jsonl"
        bad.write_text("line one\nline two\n")
        code, _, err = run_cli(capsys, "campaign", "summarize", str(bad))
        assert code == 2
        assert err.startswith("error:")


class TestSweepOptimizeFlags:
    def test_solver_with_optimize_is_a_conflict(self, capsys, sweep_file):
        code, _, err = run_cli(
            capsys, "sweep", str(sweep_file), "--optimize", "--solver", "ice"
        )
        assert code == 2
        assert "--solver" in err

    def test_optimize_campaign_runs(self, capsys, sweep_file, tmp_path):
        out_file = tmp_path / "opt.jsonl"
        code, out, _ = run_cli(
            capsys,
            "sweep",
            str(sweep_file),
            "--optimize",
            "--out",
            str(out_file),
            "--quiet",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["n_ok"] == 4
        assert payload["summary"]["actions"] == ["optimize"]


class TestDryRunHashes:
    def test_dry_run_hashes_match_store_records(self, capsys, sweep_file, tmp_path):
        """The dry-run spec_hash column is the store's resume key."""
        code, out, _ = run_cli(
            capsys, "sweep", str(sweep_file), "--dry-run", "--json"
        )
        assert code == 0
        dry = {row["spec_hash"] for row in json.loads(out)}
        out_file = tmp_path / "c.jsonl"
        run_cli(capsys, "sweep", str(sweep_file), "--out", str(out_file), "--quiet")
        stored = {
            json.loads(line)["spec_hash"]
            for line in out_file.read_text().splitlines()
        }
        assert dry == stored

class TestSweepCache:
    def test_sweep_cache_flag_replays_without_solving(
        self, capsys, sweep_file, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        code, out, _ = run_cli(
            capsys, "sweep", str(sweep_file), "--cache", str(cache_dir),
            "--quiet", "--json",
        )
        assert code == 0
        assert json.loads(out)["n_from_cache"] == 0
        code, out, _ = run_cli(
            capsys, "sweep", str(sweep_file), "--cache", str(cache_dir),
            "--quiet", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n_from_cache"] == 4
        assert payload["summary"]["counters"]["n_solves"] == 0


@pytest.fixture()
def live_server(tmp_path):
    """A running serve stack for CLI client tests (ephemeral port)."""
    from repro.serve import CampaignServer, CampaignService

    service = CampaignService(tmp_path / "srv", executor="serial", workers=1)
    server = CampaignServer(service).start_in_thread()
    yield server
    server.stop()


class TestServeClients:
    def test_submit_wait_and_jobs_round_trip(
        self, capsys, live_server, small_spec_file
    ):
        code, out, _ = run_cli(
            capsys, "submit", str(small_spec_file),
            "--url", live_server.url, "--wait", "--json",
        )
        assert code == 0
        job = json.loads(out)
        assert job["state"] == "done"
        assert job["n_ok"] == 1

        code, out, _ = run_cli(capsys, "jobs", "--url", live_server.url)
        assert code == 0
        assert job["job_id"] in out and "done" in out

        code, out, _ = run_cli(
            capsys, "jobs", job["job_id"], "--url", live_server.url, "--json"
        )
        assert code == 0
        assert json.loads(out)["state"] == "done"

        code, out, _ = run_cli(
            capsys, "jobs", job["job_id"], "--url", live_server.url, "--records"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines() if line]
        assert len(records) == 1 and records[0]["status"] == "ok"

    def test_submit_detects_sweep_files(self, capsys, live_server, tmp_path):
        from repro.scenarios import get_scenario
        from repro.sweeps import SweepAxis, SweepSpec

        base = get_scenario("test-a").with_overrides(
            grid=GridSpec(n_grid_points=61, n_lanes=1, n_rows=1, n_cols=20),
            optimizer=OptimizerSpec(n_segments=2, max_iterations=3),
        )
        sweep = SweepSpec(
            name="cli-serve-sweep",
            base=base,
            axes=(SweepAxis("workload.flux_w_per_cm2", (40.0, 60.0)),),
        )
        path = tmp_path / "sweep.json"
        sweep.save(path)
        code, out, _ = run_cli(
            capsys, "submit", str(path), "--url", live_server.url,
            "--wait", "--json",
        )
        assert code == 0
        job = json.loads(out)
        assert job["kind"] == "sweep"
        assert job["n_ok"] == 2

    def test_submit_unknown_scenario_is_exit_2(self, capsys, live_server):
        code, _, err = run_cli(
            capsys, "submit", "no-such-scenario", "--url", live_server.url
        )
        assert code == 2
        assert err.startswith("error:")

    def test_clients_report_connection_failures_cleanly(self, capsys):
        # Port 1 is never listening; ServiceClient maps the refused
        # connection to a one-line ValueError naming the URL.
        code, _, err = run_cli(
            capsys, "jobs", "--url", "http://127.0.0.1:1"
        )
        assert code == 2
        assert err.startswith("error:")
        assert "cannot reach the campaign service" in err
        assert "http://127.0.0.1:1" in err
        assert err.count("\n") <= 1  # one line, no traceback

    def test_submit_against_dead_server_is_one_line_exit_2(
        self, capsys, small_spec_file
    ):
        code, _, err = run_cli(
            capsys, "submit", str(small_spec_file),
            "--url", "http://127.0.0.1:1",
        )
        assert code == 2
        assert err.startswith("error: cannot reach the campaign service")
        assert err.count("\n") <= 1

    def test_client_wraps_protocol_errors_too(self, monkeypatch):
        # A server dying mid-response raises http.client.HTTPException,
        # which is NOT an OSError and used to escape as a raw traceback.
        import http.client

        from repro.serve.client import ServiceClient, ServiceConnectionError

        client = ServiceClient("http://127.0.0.1:9")

        def boom(self, *args, **kwargs):
            raise http.client.BadStatusLine("garbage")

        monkeypatch.setattr(http.client.HTTPConnection, "request", boom)
        with pytest.raises(ServiceConnectionError, match="cannot reach"):
            client.jobs()
        with pytest.raises(ValueError):  # the CLI catches it as ValueError
            client.jobs()


class TestCacheGc:
    @staticmethod
    def seed_cache(data_dir, n):
        import os
        import time

        from repro.serve.cache import ResultCache

        cache = ResultCache(os.path.join(data_dir, "cache"))
        now = time.time()
        for index in range(n):
            key = f"{index:02x}" * 32
            cache.put(
                key,
                {
                    "spec_hash": key,
                    "scenario": f"s{index}",
                    "action": "run",
                    "solver": "fdm",
                    "status": "ok",
                    "result": {"peak_temperature_K": 300.0},
                },
            )
            mtime = now - (n - index) * 100.0
            os.utime(cache.path_for(key), (mtime, mtime))
        return cache

    def test_gc_by_entry_cap(self, capsys, tmp_path):
        self.seed_cache(tmp_path, 4)
        code, out, _ = run_cli(
            capsys,
            "cache",
            "gc",
            "--data-dir",
            str(tmp_path),
            "--max-entries",
            "1",
            "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["n_removed"] == 3
        assert report["n_kept"] == 1
        assert report["cache_root"].endswith("cache")

    def test_gc_by_age(self, capsys, tmp_path):
        self.seed_cache(tmp_path, 4)  # entries aged 400..100 s
        code, out, _ = run_cli(
            capsys,
            "cache",
            "gc",
            "--data-dir",
            str(tmp_path),
            "--max-age",
            "250",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["n_removed"] == 2

    def test_gc_without_limits_is_an_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "cache", "gc", "--data-dir", str(tmp_path))
        assert code == 2
        assert "--max-age" in err and "--max-entries" in err

    def test_gc_human_output(self, capsys, tmp_path):
        self.seed_cache(tmp_path, 2)
        code, out, _ = run_cli(
            capsys,
            "cache",
            "gc",
            "--data-dir",
            str(tmp_path),
            "--max-entries",
            "0",
        )
        assert code == 0
        assert "removed 2" in out


class TestCampaignExportAndMl:
    """``repro campaign export`` and the ``repro ml`` command family."""

    @pytest.fixture()
    def campaign_files(self, tmp_path):
        """A completed 3x2 campaign store plus a denser candidate sweep."""
        base = get_scenario("test-a").with_overrides(
            grid=GridSpec(n_grid_points=61, n_lanes=1, n_rows=1, n_cols=20),
            optimizer=OptimizerSpec(n_segments=2, max_iterations=3),
        )
        sweep = {
            "name": "train",
            "base": base.to_dict(),
            "axes": [
                {"field": "workload.flux_w_per_cm2", "values": [40.0, 50.0, 60.0]},
                {"field": "grid.n_grid_points", "values": [61, 81]},
            ],
        }
        candidates = {
            "name": "pool",
            "base": base.to_dict(),
            "axes": [
                {
                    "field": "workload.flux_w_per_cm2",
                    "values": [40.0, 45.0, 50.0, 55.0, 60.0],
                },
                {"field": "grid.n_grid_points", "values": [61, 71, 81]},
            ],
        }
        sweep_file = tmp_path / "sweep.json"
        sweep_file.write_text(json.dumps(sweep))
        candidates_file = tmp_path / "candidates.json"
        candidates_file.write_text(json.dumps(candidates))
        store = tmp_path / "campaign.jsonl"
        from repro.api import Session

        Session().run_many(str(sweep_file), out=store)
        return store, candidates_file, base

    def test_export_csv(self, capsys, campaign_files, tmp_path):
        store, _, _ = campaign_files
        out = tmp_path / "data.csv"
        code, _, err = run_cli(
            capsys, "campaign", "export", str(store), "--out", str(out)
        )
        assert code == 0
        assert "exported 6 row(s)" in err
        import csv

        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        header, body = rows[0], rows[1:]
        assert header[:2] == ["spec_hash", "scenario"]
        # Constant feature columns are kept (documentation), targets last.
        assert "workload.flux_w_per_cm2" in header
        assert "workload.kind=test-a" in header
        assert header[-2:] == ["peak_temperature_K", "max_pressure_drop_Pa"]
        assert len(body) == 6
        assert all(len(row) == len(header) for row in body)

    def test_export_json_rows(self, capsys, campaign_files):
        store, _, _ = campaign_files
        code, out, _ = run_cli(
            capsys, "campaign", "export", str(store), "--json"
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 6
        assert {"spec_hash", "scenario", "peak_temperature_K"} <= set(rows[0])

    def test_export_custom_target(self, capsys, campaign_files):
        store, _, _ = campaign_files
        code, out, _ = run_cli(
            capsys,
            "campaign",
            "export",
            str(store),
            "--target",
            "coolant_rise_K",
            "--json",
        )
        assert code == 0
        rows = json.loads(out)
        assert "coolant_rise_K" in rows[0]
        assert "peak_temperature_K" not in rows[0]

    def test_ml_fit_predict_round_trip(self, capsys, campaign_files, tmp_path):
        store, _, base = campaign_files
        models = tmp_path / "models"
        code, out, _ = run_cli(
            capsys,
            "ml",
            "fit",
            str(store),
            "--model-dir",
            str(models),
            "--json",
        )
        assert code == 0
        fitted = json.loads(out)
        assert fitted["model"] == "gp"
        assert fitted["dataset"]["n_samples"] == 6

        spec_file = tmp_path / "query.json"
        base.save(spec_file)
        code, out, _ = run_cli(
            capsys,
            "ml",
            "predict",
            str(spec_file),
            "--model-dir",
            str(models),
            "--json",
        )
        assert code == 0
        predicted = json.loads(out)
        # The base point is a training point: tight mean, tiny std.
        assert abs(predicted["mean"]["peak_temperature_K"] - 332.497) < 0.1
        assert predicted["std"]["peak_temperature_K"] < 0.5

    def test_ml_predict_without_a_model_is_an_error(
        self, capsys, small_spec_file, tmp_path
    ):
        code, _, err = run_cli(
            capsys,
            "ml",
            "predict",
            str(small_spec_file),
            "--model-dir",
            str(tmp_path / "empty"),
        )
        assert code == 2
        assert "error" in err

    def test_ml_active_dry_run(self, capsys, campaign_files, tmp_path):
        store, candidates, _ = campaign_files
        code, out, _ = run_cli(
            capsys,
            "ml",
            "active",
            str(store),
            str(candidates),
            "--n-points",
            "3",
            "--dry-run",
            "--json",
        )
        assert code == 0
        selection = json.loads(out)
        assert selection["dry_run"] is True
        assert len(selection["indices"]) == 3
        # The six training points are excluded from the 15-point pool.
        assert selection["n_excluded"] == 6
        assert selection["n_candidates"] == 9

    def test_ml_active_runs_and_shrinks_uncertainty(
        self, capsys, campaign_files
    ):
        store, candidates, _ = campaign_files
        code, out, _ = run_cli(
            capsys,
            "ml",
            "active",
            str(store),
            str(candidates),
            "--n-points",
            "3",
            "--json",
        )
        assert code == 0
        round_result = json.loads(out)
        assert round_result["campaign"]["n_ok"] == 3
        assert round_result["mean_std_after"] < round_result["mean_std"]
        assert round_result["n_training_samples_after"] == 9
