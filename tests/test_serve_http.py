"""End-to-end tests over real HTTP: server, client, and the acceptance path."""

from __future__ import annotations

import http.client
import json

import pytest

from repro.api import Session
from repro.scenarios import GridSpec, OptimizerSpec, ScenarioSpec, get_scenario
from repro.serve import CampaignServer, CampaignService, ServiceClient, ServiceError
from repro.sweeps import SweepAxis, SweepSpec


@pytest.fixture()
def small_base() -> ScenarioSpec:
    return get_scenario("test-a").with_overrides(
        grid=GridSpec(n_grid_points=61, n_lanes=1, n_rows=1, n_cols=20),
        optimizer=OptimizerSpec(n_segments=2, max_iterations=3),
    )


@pytest.fixture()
def small_sweep(small_base) -> SweepSpec:
    return SweepSpec(
        name="http",
        base=small_base,
        axes=(
            SweepAxis("workload.flux_w_per_cm2", (40.0, 60.0)),
            SweepAxis("grid.n_grid_points", (61, 81)),
        ),
    )


@pytest.fixture()
def server(tmp_path):
    """A running server (serial executor keeps the suite fast) + client."""
    service = CampaignService(tmp_path / "srv", executor="serial", workers=1)
    server = CampaignServer(service).start_in_thread()
    yield server
    server.stop()


@pytest.fixture()
def client(server) -> ServiceClient:
    return ServiceClient(server.url)


def physics(result):
    return {
        key: value
        for key, value in result.items()
        if key not in ("wall_time_s", "provenance")
    }


def raw_request(server, method, path, body=None, headers=()):
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.port, timeout=30
    )
    try:
        connection.request(method, path, body=body, headers=dict(headers))
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class TestReadEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["executor"] == "serial"

    def test_scenarios(self, client):
        names = {row["name"] for row in client.scenarios()}
        assert {"test-a", "test-b", "niagara-arch1"} <= names

    def test_jobs_starts_empty(self, client):
        assert client.jobs() == []


class TestHttpErrors:
    def test_unknown_path_is_404(self, server):
        status, _, body = raw_request(server, "GET", "/v2/healthz")
        assert status == 404
        assert "error" in json.loads(body)

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError):
            client.records("nope")

    def test_wrong_method_is_405(self, server):
        status, _, _ = raw_request(server, "POST", "/v1/healthz", body=b"{}")
        assert status == 405
        status, _, _ = raw_request(server, "GET", "/v1/sweep")
        assert status == 405

    def test_non_json_body_is_400(self, server):
        status, _, body = raw_request(server, "POST", "/v1/sweep", body=b"not json")
        assert status == 400
        assert "not JSON" in json.loads(body)["error"]

    def test_missing_campaign_key_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json("POST", "/v1/sweep", {"scenario": "test-a"})
        assert excinfo.value.status == 400
        assert "'sweep'" in excinfo.value.message

    def test_invalid_scenario_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_run("no-such-scenario")
        assert excinfo.value.status == 400

    def test_non_finite_scenario_field_is_400(self, server):
        body = b'{"scenario": {"name": "nan-flux", "workload": {"flux_w_per_cm2": NaN}}}'
        status, _, payload = raw_request(server, "POST", "/v1/run", body=body)
        assert status == 400
        assert "workload.flux_w_per_cm2 must be finite" in json.loads(payload)["error"]

    def test_malformed_request_line_is_400(self, server):
        import socket

        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as raw:
            raw.sendall(b"GARBAGE\r\n\r\n")
            response = raw.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]


class TestBackpressure:
    @pytest.fixture()
    def full_server(self, tmp_path):
        """A server capped at one pending job, with the workers parked.

        Stopping the supervisor keeps submissions from being claimed, so
        the queue stays deterministically full for the 429 assertions.
        """
        service = CampaignService(
            tmp_path / "srv", executor="serial", workers=1, max_pending=1
        )
        server = CampaignServer(service).start_in_thread()
        service.supervisor.stop()
        yield server
        server.stop()

    def test_submit_beyond_cap_is_429(self, full_server, small_base):
        client = ServiceClient(full_server.url)
        first = client.submit_run(small_base.to_dict())
        assert first["state"] == "submitted"
        with pytest.raises(ServiceError) as excinfo:
            client.submit_run(
                small_base.with_overrides(name="variant").to_dict()
            )
        assert excinfo.value.status == 429
        assert "queue is full" in excinfo.value.message
        assert "max_pending=1" in excinfo.value.message

    def test_idempotent_resubmission_is_exempt(self, full_server, small_base):
        client = ServiceClient(full_server.url)
        job = client.submit_run(small_base.to_dict())
        again = client.submit_run(small_base.to_dict())
        assert again["resubmitted"]
        assert again["job_id"] == job["job_id"]

    def test_healthz_reports_backpressure(self, full_server, small_base):
        client = ServiceClient(full_server.url)
        client.submit_run(small_base.to_dict())
        with pytest.raises(ServiceError):
            client.submit_run(
                small_base.with_overrides(name="variant").to_dict()
            )
        health = client.healthz()
        assert health["max_pending"] == 1
        assert health["n_rejected"] == 1
        assert "n_gc_runs" in health["cache"]


class TestAcceptance:
    def test_http_sweep_is_bit_identical_to_process_run_many(
        self, client, small_sweep
    ):
        """Acceptance: POST /v1/sweep == Session.run_many(executor="process").

        Identity is `==` on every non-volatile result field (wall time and
        provenance are timing/cache-stat carriers, the physics must match
        exactly).
        """
        job = client.submit_sweep(small_sweep.to_dict())
        assert job["state"] in ("submitted", "running")
        assert job["n_total"] == 4
        final = client.wait(job["job_id"], timeout=180)
        assert final["state"] == "done"
        assert final["n_ok"] == 4

        records = client.records(job["job_id"])
        assert [record["index"] for record in records] == [0, 1, 2, 3]
        reference = Session().run_many(
            small_sweep, executor="process", workers=2
        )
        for record, expected in zip(records, reference.records):
            assert record["scenario"] == expected["scenario"]
            assert record["spec_hash"] == expected["spec_hash"]
            assert physics(record["result"]) == physics(expected["result"])

    def test_identical_resubmission_is_deduplicated(self, client, small_sweep):
        job = client.submit_sweep(small_sweep.to_dict())
        client.wait(job["job_id"], timeout=180)
        again = client.submit_sweep(small_sweep.to_dict())
        assert again["resubmitted"]
        assert again["job_id"] == job["job_id"]

    def test_fresh_resubmission_runs_entirely_from_cache(
        self, client, small_sweep
    ):
        """Acceptance: resubmission -> 100% shared-cache, n_solves delta 0."""
        job = client.submit_sweep(small_sweep.to_dict())
        client.wait(job["job_id"], timeout=180)
        forced = client.submit_sweep(small_sweep.to_dict(), fresh=True)
        assert not forced["resubmitted"]
        final = client.wait(forced["job_id"], timeout=60)
        assert final["summary"]["n_from_cache"] == 4
        assert final["summary"]["counters"]["n_solves"] == 0
        assert client.healthz()["cache"]["n_hits"] >= 4

    def test_restart_preserves_jobs_over_http(self, tmp_path, small_base):
        """The journal makes jobs visible across server restarts."""
        service = CampaignService(tmp_path / "srv", executor="serial", workers=1)
        first = CampaignServer(service).start_in_thread()
        try:
            client = ServiceClient(first.url)
            job = client.submit_run(small_base.to_dict())
            client.wait(job["job_id"], timeout=120)
        finally:
            first.stop()

        second = CampaignServer(
            CampaignService(tmp_path / "srv", executor="serial", workers=1)
        ).start_in_thread()
        try:
            client = ServiceClient(second.url)
            detail = client.job(job["job_id"])
            assert detail["state"] == "done"
            records = client.records(job["job_id"])
            assert len(records) == 1 and records[0]["status"] == "ok"
        finally:
            second.stop()


class TestTransport:
    def test_records_stream_is_ndjson(self, server, client, small_base):
        job = client.submit_run(small_base.to_dict())
        client.wait(job["job_id"], timeout=120)
        status, headers, body = raw_request(
            server, "GET", f"/v1/jobs/{job['job_id']}/records"
        )
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        lines = [line for line in body.decode().splitlines() if line]
        assert len(lines) == 1
        assert json.loads(lines[0])["status"] == "ok"

    def test_jobs_listing_is_most_recent_first(self, client, small_base):
        first = client.submit_run(small_base.to_dict())
        second = client.submit_run(
            small_base.with_overrides(name="variant").to_dict()
        )
        listing = client.jobs()
        assert [job["job_id"] for job in listing[:2]] == [
            second["job_id"],
            first["job_id"],
        ]

    def test_client_rejects_non_http_urls(self):
        with pytest.raises(ValueError, match="http"):
            ServiceClient("https://example.com")
