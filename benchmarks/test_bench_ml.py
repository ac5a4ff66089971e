"""Surrogate benchmark: exact solves vs GP predictions vs gated serving.

Trains a GP surrogate on a small flux x grid campaign, then answers a
dense flux query sweep three ways and emits ``surrogate_throughput``
BENCH records comparing them::

    exact      Session.run_many over every query (the no-surrogate baseline)
    surrogate  model.predict_specs in-process, zero solves
    gated      POST /v1/predict per query with an uncertainty threshold;
               in-distribution queries answer from the surrogate, far-OOD
               ones enqueue exact jobs

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_ml.py -s \
        | grep '^BENCH '

Setting ``REPRO_BENCH_SMOKE=1`` shrinks the query sweep to smoke-test
size (the CI benchmark job).  The asserts are deterministic and hold in
both modes: the surrogate path performs zero direct solves (read from the
``sparse-lu`` backend's lookup counter, which the exact path moves), and
the far out-of-distribution query falls back to an exact job.  The speed
ratios live in the BENCH records only.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.api import Session
from repro.ml import build_dataset, make_surrogate
from repro.scenarios import GridSpec, OptimizerSpec, get_scenario
from repro.serve import CampaignServer, CampaignService, ServiceClient
from repro.sweeps import SweepAxis, SweepSpec, apply_field_overrides
from repro.thermal.backends import get_backend

#: Smoke mode: tiny query sweep, no throughput assertions (CI runs this).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

TRAIN_FLUXES = (30.0, 45.0, 60.0, 75.0)
TRAIN_GRIDS = (61, 81)
N_QUERIES = 4 if SMOKE else 32
#: Queries past the training flux range by this much fall back to exact.
OOD_FLUX = 400.0
THRESHOLD = 0.5


def emit_bench(record: dict) -> None:
    """Print one machine-readable benchmark record."""
    print("BENCH " + json.dumps(record, sort_keys=True))


def base_spec():
    return get_scenario("test-a").with_overrides(
        grid=GridSpec(n_grid_points=61, n_lanes=1, n_rows=1, n_cols=20),
        optimizer=OptimizerSpec(n_segments=2, max_iterations=3),
    )


def training_sweep() -> SweepSpec:
    return SweepSpec(
        name="bench-ml-train",
        base=base_spec(),
        axes=(
            SweepAxis("workload.flux_w_per_cm2", TRAIN_FLUXES, label="flux"),
            SweepAxis("grid.n_grid_points", TRAIN_GRIDS, label="grid"),
        ),
    )


def query_specs():
    """A dense in-distribution flux scan plus one far-OOD point."""
    base = base_spec()
    fluxes = list(np.linspace(32.0, 73.0, N_QUERIES - 1)) + [OOD_FLUX]
    return [
        apply_field_overrides(
            base,
            {"workload.flux_w_per_cm2": float(flux)},
            name=f"bench-ml-q{index}",
        )
        for index, flux in enumerate(fluxes)
    ]


def test_surrogate_throughput_records(tmp_path):
    """Time exact vs surrogate vs gated serving and emit BENCH records."""
    sweep = training_sweep()
    queries = query_specs()
    rows = []

    store_path = tmp_path / "train.jsonl"
    campaign = Session().run_many(sweep, out=store_path)
    assert campaign.n_failed == 0

    def direct_solves():
        return get_backend("sparse-lu").stats()["n_content_hashes"]

    before = direct_solves()
    start = time.perf_counter()
    exact = Session().run_many(queries)
    exact_wall = time.perf_counter() - start
    assert exact.n_failed == 0
    assert exact.provenance["counters"]["n_solves"] > 0
    assert direct_solves() > before
    rows.append(("exact", exact_wall, exact.provenance["counters"]["n_solves"], 0))

    start = time.perf_counter()
    dataset = build_dataset(store_path)
    model = make_surrogate("gp").fit(dataset)
    fit_wall = time.perf_counter() - start

    before = direct_solves()
    start = time.perf_counter()
    mean, std = model.predict_specs(queries)
    surrogate_wall = time.perf_counter() - start
    # Answering from the surrogate solves nothing.
    assert direct_solves() == before
    assert mean.shape == (len(queries), len(model.targets))
    index = list(model.targets).index("peak_temperature_K")
    # In-distribution queries are confident, the OOD tail point is not.
    assert float(std[-1, index]) > float(np.median(std[:-1, index]))
    rows.append(("surrogate", surrogate_wall, 0, 0))

    service = CampaignService(tmp_path / "srv", executor="serial", workers=1)
    server = CampaignServer(service).start_in_thread()
    try:
        client = ServiceClient(server.url)
        job = client.submit_sweep(sweep.to_dict())
        client.wait(job["job_id"], timeout=600, poll_s=0.05)
        client.fit()

        start = time.perf_counter()
        sources = []
        for query in queries:
            answer = client.predict(
                query.to_dict(), exact_if_std_above=THRESHOLD
            )
            sources.append(answer["source"])
            if answer["source"] == "exact":
                client.wait(answer["job"]["job_id"], timeout=600, poll_s=0.05)
        gated_wall = time.perf_counter() - start
        n_fallbacks = sources.count("exact")
        assert 1 <= n_fallbacks < len(queries)
        # The far out-of-distribution query (the last) is solved exactly.
        assert sources[-1] == "exact"
        rows.append(("gated", gated_wall, n_fallbacks, n_fallbacks))
    finally:
        server.stop()

    for path, wall, n_solves, n_fallbacks in rows:
        emit_bench(
            {
                "benchmark": "surrogate_throughput",
                "smoke": SMOKE,
                "path": path,
                "n_queries": len(queries),
                "n_training_samples": dataset.X.shape[0],
                "fit_wall_s": fit_wall,
                "wall_s": wall,
                "queries_per_s": len(queries) / wall if wall else float("inf"),
                "n_solves": n_solves,
                "n_exact_fallbacks": n_fallbacks,
                "speedup_vs_exact": exact_wall / wall if wall else float("inf"),
            }
        )
    print()
    print(f"surrogate throughput ({len(queries)} queries)")
    for path, wall, n_solves, _ in rows:
        print(
            f"  {path:10s} {wall * 1e3:9.1f} ms "
            f"({len(queries) / wall:.1f} queries/s, {n_solves} solves)"
        )
