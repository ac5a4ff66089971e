"""The repository benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload design --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A full result
file (every op's latency and kind, the tail percentile and its op count,
seed, versions, CPU count) is written to ``perfbench/out/``.

This launcher pins the BLAS/OpenMP thread pools to one thread and glibc's
mmap threshold to its default, then starts fresh Python processes
(``perfbench/worker.py``) one at a time: a few that only set up (import
``repro`` and run the warm-up op), then the measured run.  ``setup_s`` is
the median set-up time over all of them, measured from process start to
the first timed op and scaled to the reference host speed like every
other time (``perfbench/hostspeed.py``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("design", "transient", "campaign")

#: Set-up-only processes started before the measured one.
SETUP_PROBES = 3

#: Allowance for one process's set-up, shutdown and result writing.
PROCESS_SLACK_S = 60.0


def _environment() -> dict:
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    # glibc raises its mmap threshold after large frees, after which big
    # arrays come from the fragmenting heap and peak RSS wanders between
    # runs of one seed; pinning it at its 128 KiB default keeps peak RSS a
    # measure of live memory.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = OUT_DIR
    return env


def _start_worker(args, out_path: str, setup_only: bool, timeout: float) -> float:
    """Run one worker process to completion; return its scaled set-up time."""
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--root", ROOT,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", out_path,
    ]
    if setup_only:
        command.append("--setup-only")
    started = time.time()
    completed = subprocess.run(
        command, env=_environment(), cwd=ROOT, timeout=timeout,
        stdout=subprocess.DEVNULL,
    )
    if completed.returncode != 0:
        raise SystemExit(f"worker exited with code {completed.returncode}")
    with open(out_path, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    return (result["ready_wall"] - started) * result["setup_scale"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # worker instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    setups = []
    probe_path = stem + ".probe.json"
    for _ in range(SETUP_PROBES):
        setups.append(_start_worker(args, probe_path, True, PROCESS_SLACK_S))
    os.remove(probe_path)
    result_path = stem + ".json"
    setups.append(
        _start_worker(args, result_path, False, args.seconds + 2 * PROCESS_SLACK_S)
    )
    with open(result_path, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_s_samples"] = setups
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)

    measured = dict(result["metrics"])
    measured["setup_s"] = statistics.median(setups)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    metrics = {
        entry["name"]: {"value": measured[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }
    details = result["details"]
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(
            f"# latency_tail_s is p{details['tail_percentile']:g} of {details['n_ops']} ops "
            f"({details['tail_ops_beyond']} beyond it); result file {result_path}"
        )
    for entry in result["problems"]:
        print(f"# failed op {entry['index']} ({entry['kind']}): {entry['problems']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
