"""One measured run: import ``repro``, warm up, then the timed closed loop.

Started by ``perfbench/run.py`` in a fresh process (thread-pinning
environment variables are already set, so they apply before numpy loads).
It writes one JSON result file and prints nothing on standard output.

Between operations (outside their timing) it measures the host-speed probe
of ``hostspeed.py`` about once a second, and scales each operation's
latency by the mean of the probes before and after it.

Untraced runs (``--trace 0``) never construct a tracer.  Traced runs
(``--trace 1``) alternate whole blocks of operations between untraced and
traced; every block holds the same mix of operation kinds, so the ratio of
the two halves' throughput is the tracing overhead, and the per-layer
figures are averaged over the traced operations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import hostspeed
import spans
import workloads

#: Seconds between host-speed probes in the timed loop.
PROBE_EVERY_S = 1.0

#: Tail percentile per workload, fixed so that every run at the benchmark's
#: run length has at least ten operations beyond it, and placed inside the
#: latency band of one operation kind (``design``: arch3 cavities, the top
#: 25%; ``transient``: MPC without the ROM, 82-91%): a percentile on the
#: edge between two kinds jumps between them from run to run.
TAIL_PERCENTILE = {"design": 80.0, "transient": 88.0, "campaign": 90.0}


def _rank(n_values: int, percentile: float) -> int:
    """1-based nearest rank of a percentile among ``n_values`` sorted values."""
    return max(1, math.ceil(percentile / 100.0 * n_values))


def _import_repro(root: str):
    import repro

    expected = os.path.join(root, "src", "repro")
    if os.path.dirname(os.path.abspath(repro.__file__)) != expected:
        raise SystemExit(f"imported repro from {repro.__file__}, expected {expected}")
    return repro


def _sparse_lu_stats():
    from repro.thermal.backends import get_backend

    return get_backend("sparse-lu").stats()


def _versions() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def _timed_loop(runner, workload, seed, seconds, tracer, probe):
    """Run operations until ``seconds`` have passed; one record per op.

    Returns ``(records, totals, sums, probes)``; ``records[i]["probe"]``
    indexes the last probe taken before op ``i`` (one more follows the
    last op).
    """
    block = workloads.block_size(workload)
    records = []
    probes = [probe.measure()]
    last_probe = time.perf_counter()
    totals = {
        "cache_hits": 0,
        "cache_lookups": 0,
        "factorizations": 0,
        "factorization_reuses": 0,
    }
    sums = {}
    deadline = time.perf_counter() + seconds
    for op in workloads.generate(workload, seed):
        if time.perf_counter() >= deadline:
            break
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(probe.measure())
            last_probe = time.perf_counter()
        traced = tracer is not None and (op.index // block) % 2 == 1
        prepared = runner.prepare(op)
        lu_before = _sparse_lu_stats()
        if traced:
            tracer.install()
        output, problems = None, []
        start = time.perf_counter()
        try:
            if traced:
                output = tracer.run_op(op.index, runner.execute, prepared)
            else:
                output = runner.execute(prepared)
        except Exception as error:  # noqa: BLE001 - a failed op is counted
            problems = [f"{type(error).__name__}: {error}"]
            traceback.print_exc(file=sys.stderr)
        latency = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        if output is not None:
            problems = runner.check(op, prepared, output)
            counts = runner.counters(prepared, output)
            lu_after = _sparse_lu_stats()
            totals["cache_hits"] += counts.pop("cache_hits")
            totals["cache_lookups"] += counts.pop("cache_lookups")
            totals["factorizations"] += (
                lu_after["n_factorizations"] - lu_before["n_factorizations"]
            )
            totals["factorization_reuses"] += (
                lu_after["n_factorization_reuses"] - lu_before["n_factorization_reuses"]
            )
            for key, value in counts.items():
                if key == "rom_peak_abs_err_K":
                    sums[key] = max(sums.get(key, 0.0), value)
                else:
                    sums[key] = sums.get(key, 0) + value
        records.append(
            {
                "index": op.index,
                "kind": op.kind,
                "latency_s": latency,
                "probe": len(probes) - 1,
                "traced": traced,
                "problems": problems,
            }
        )
    probes.append(probe.measure())
    for record in records:
        nearby = 0.5 * (probes[record["probe"]] + probes[record["probe"] + 1])
        record["scaled_latency_s"] = record["latency_s"] * hostspeed.REFERENCE_S / nearby
    return records, totals, sums, probes


def _end_to_end(records, workload, key="scaled_latency_s"):
    latencies = sorted(record[key] for record in records)
    n_ops = len(latencies)
    percentile = TAIL_PERCENTILE[workload]
    rank = _rank(n_ops, percentile)
    return {
        "ops_per_s": n_ops / sum(latencies),
        "latency_p50_s": latencies[_rank(n_ops, 50.0) - 1],
        "latency_tail_s": latencies[rank - 1],
    }, {
        "tail_percentile": percentile,
        "tail_ops_beyond": n_ops - rank,
        "n_ops": n_ops,
    }


def _overhead_ratio(records, block):
    """Traced over untraced throughput, over complete blocks only.

    Block 0 (untraced) is left out: it pays the first-use costs of every
    operation kind the warm-up op did not exercise.
    """
    by_block = {}
    for record in records:
        if record["index"] >= block:
            by_block.setdefault(record["index"] // block, []).append(record)
    time_of = {True: 0.0, False: 0.0}
    ops_of = {True: 0, False: 0}
    for members in by_block.values():
        if len(members) < block:
            continue
        traced = members[0]["traced"]
        time_of[traced] += sum(record["scaled_latency_s"] for record in members)
        ops_of[traced] += len(members)
    if not (ops_of[True] and ops_of[False]):
        # Too short for a complete block of each: use every op.
        for record in records[block:] or records:
            time_of[record["traced"]] += record["scaled_latency_s"]
            ops_of[record["traced"]] += 1
    return (ops_of[True] / time_of[True]) / (ops_of[False] / time_of[False])


def _per_layer(records, totals, sums, tracer, runner, block, scale):
    traced_ops = sum(1 for record in records if record["traced"])
    if not traced_ops or traced_ops == len(records):
        raise SystemExit("run too short to trace: it needs untraced and traced blocks")
    n_ops = len(records)
    summary = spans.summarize(tracer.spans)
    metrics = {}
    for name in spans.BOUNDARY_NAMES:
        entry = summary.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = entry["calls"] / traced_ops
        metrics[f"{name}.self_s"] = entry["self_s"] * scale / traced_ops
    lookups = totals["cache_lookups"]
    metrics["core.engine.hit_ratio"] = totals["cache_hits"] / lookups if lookups else 0.0
    metrics["core.optimizer.iterations"] = sums.get("optimizer_iterations", 0) / n_ops
    metrics["thermal.backends.n_factorizations"] = totals["factorizations"] / n_ops
    uses = totals["factorizations"] + totals["factorization_reuses"]
    metrics["thermal.backends.factorization_reuse_ratio"] = (
        totals["factorization_reuses"] / uses if uses else 0.0
    )
    metrics["transient_engine.n_steps"] = sums.get("transient_steps", 0) / n_ops
    metrics["core.rom.n_builds"] = sums.get("rom_builds", 0) / n_ops
    cache = runner.cache.stats()
    cache_lookups = cache["n_hits"] + cache["n_misses"]
    metrics["serve.cache.hit_ratio"] = cache["n_hits"] / cache_lookups if cache_lookups else 0.0
    metrics["campaign.bytes_appended"] = sums.get("bytes_appended", 0) / n_ops
    metrics["trace.overhead_ratio"] = _overhead_ratio(records, block)
    return metrics, {"traced_ops": traced_ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, help="checkout root (holds src/repro)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="result JSON file")
    args = parser.parse_args(argv)

    _import_repro(args.root)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.dirname(args.out))
    try:
        runner = workloads.Runner(args.workload, work_dir)
        warm = workloads.warmup_op(args.workload)
        prepared = runner.prepare(warm)
        problems = runner.check(warm, prepared, runner.execute(prepared))
        if problems:
            raise SystemExit(f"warm-up op failed its checks: {problems}")
        ready_wall = time.time()
        probe = hostspeed.HostProbe()
        result = {
            "ready_wall": ready_wall,
            "setup_scale": hostspeed.REFERENCE_S / probe.measure(),
        }
        if not args.setup_only:
            tracer = spans.Tracer() if args.trace else None
            records, totals, sums, probes = _timed_loop(
                runner, args.workload, args.seed, args.seconds, tracer, probe
            )
            if spans.wrapped_targets():
                raise SystemExit(f"wrappers left installed: {spans.wrapped_targets()}")
            failed = [record for record in records if record["problems"]]
            metrics, details = _end_to_end(records, args.workload)
            details["raw"] = _end_to_end(records, args.workload, "latency_s")[0]
            details["probes_s"] = probes
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            if tracer is not None:
                layer_metrics, layer_details = _per_layer(
                    records, totals, sums, tracer, runner,
                    workloads.block_size(args.workload),
                    hostspeed.REFERENCE_S / statistics.median(probes),
                )
                metrics.update(layer_metrics)
                details.update(layer_details)
                spans_path = args.out[: -len(".json")] + ".spans.jsonl.gz"
                tracer.write(spans_path)
                details["spans_file"] = os.path.basename(spans_path)
            details["max_rom_peak_abs_err_K"] = sums.get("rom_peak_abs_err_K")
            result.update(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "versions": _versions(),
                    "attempted": len(records),
                    "failed": len(failed),
                    "problems": [
                        {"index": record["index"], "kind": record["kind"], "problems": record["problems"]}
                        for record in failed[:20]
                    ],
                    "metrics": metrics,
                    "details": details,
                    "ops": records,
                }
            )
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
