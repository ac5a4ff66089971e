"""Reduced-order transient tier: full solver vs ROM, cold and warm backend.

Times one ≥100-step trace-driven arch1 transient through the full
backward-Euler engine, through the Krylov reduced-order tier on a fresh
backend (the build pays the factorization and the Arnoldi solves), and
again on the warm backend (the factorization is cached; each run still
builds its own basis, since a model lives for one run), asserts the
measured-error contract and the solve structure of the build, and emits
the ``transient_rom`` ``BENCH {json}`` record:

.. code-block:: console

    PYTHONPATH=src python -m pytest benchmarks/test_bench_rom.py -s \
        | grep '^BENCH '

Setting ``REPRO_BENCH_SMOKE=1`` shrinks the problem to smoke-test size
(the CI benchmark job archives the records).  The speedups are reported
in the record only: a wall-clock ratio depends on machine load, so the
asserts cover what is deterministic -- one Krylov build per run, one
factorization and one content hash per build, the build's solve count,
a warm run that re-solves only its build and its checkpoints, and the
≤0.1 K error bound.  The cold build's own wall time (``build_ms``) and
solve count (``build_solves``) are reported alongside, with no
wall-clock assert; ``rom_warm_s`` times a warm factorization with a
rebuilt basis.

A proportional-policy run of the same scenario (``proportional_*`` keys)
checks that a policy moving the flow still builds one model: every scale
it visits is served from that model's affine flow split, at the reduced
setup cost ``proportional_setup_ms_per_scale`` (one order-sized dense
LU), and factorizes only where checkpoint probes take full steps.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace

import numpy as np

import repro.transient_engine as transient_engine
from repro.core.rom import ReducedTransientModel, build_reduced_model
from repro.scenarios import GridSpec, ScenarioSpec, SolverSpec, WorkloadSpec
from repro.thermal.backends import SparseLUBackend
from repro.transient import PolicySpec, RomSpec, TraceSpec, TransientSpec
from repro.transient_engine import simulate_transient

#: Smoke mode: tiny problem (CI runs this).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

N_COLS = 16 if SMOKE else 44
N_ROWS = 1 if SMOKE else 44
N_STEPS = 20 if SMOKE else 400
ROM_ORDER = 24 if SMOKE else 48

WORKLOAD = (
    WorkloadSpec(kind="test-a")
    if SMOKE
    else WorkloadSpec(kind="architecture", architecture="arch1")
)


def emit_bench(record: dict) -> None:
    """Print one machine-readable benchmark record."""
    print("BENCH " + json.dumps(record, sort_keys=True))


def _time_once(function, repeats: int = 2) -> float:
    """Best-of-``repeats`` wall time (first call may pay one-off setup)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def make_specs():
    """``(full, rom)`` variants of one trace-driven transient scenario."""
    full = ScenarioSpec(
        name="bench-rom",
        workload=WORKLOAD,
        grid=GridSpec(n_grid_points=61, n_lanes=1, n_rows=N_ROWS,
                      n_cols=N_COLS),
        solver=SolverSpec(simulator="ice"),
        transient=TransientSpec(
            duration_s=N_STEPS * 0.01,
            time_step_s=0.01,
            traces=(
                TraceSpec(layer="top_die", kind="periodic", period_s=0.08,
                          duty=0.5, high=120.0, low=20.0),
            ),
            policy=PolicySpec(kind="constant", control_interval_s=0.0),
            store_every=max(N_STEPS // 4, 1),
        ),
    )
    rom = replace(
        full,
        transient=replace(
            full.transient, rom=RomSpec(mode="rom", order=ROM_ORDER)
        ),
    )
    return full, rom


def _solve_counts(backend: SparseLUBackend) -> dict:
    stats = backend.stats()
    stats["n_solves"] = stats["n_factorizations"] + stats["n_factorization_reuses"]
    return stats


def test_transient_rom_speedup(benchmark, monkeypatch):
    """ROM vs full engine: solve structure, <=0.1 K error, timings reported."""
    full_spec, rom_spec = make_specs()

    full_backend = SparseLUBackend()
    full_s = _time_once(
        lambda: simulate_transient(full_spec, backend=full_backend)
    )
    full_outcome = simulate_transient(full_spec, backend=full_backend)

    rom_backend = SparseLUBackend()
    rom_cold_s = _time_once(
        lambda: simulate_transient(rom_spec, backend=rom_backend), repeats=1
    )
    rom_warm_s = _time_once(
        lambda: simulate_transient(rom_spec, backend=rom_backend)
    )
    rom_outcome = simulate_transient(rom_spec, backend=rom_backend)

    # Accuracy contract: the engine's self-measured checkpoint error and
    # the true trajectory error both stay within the acceptance band.
    measured_err = rom_outcome.metrics["rom_peak_abs_err_K"]
    true_err = float(
        np.max(
            np.abs(
                full_outcome.peak_history_K - rom_outcome.peak_history_K
            )
        )
    )
    assert measured_err <= 0.1
    assert true_err <= 0.1
    assert rom_outcome.metadata["n_rom_builds"] == 1

    # Solve structure, counted on a fresh backend.  The
    # constant policy makes the run one control chunk: its checkpoint
    # reference solves share one factorization handle, the Krylov build
    # another, and both solve the same implicit matrix.
    check_stride = rom_outcome.metadata["rom_check_stride"]
    n_checkpoints = sum(
        1 for step in range(1, N_STEPS + 1)
        if step % check_stride == 0 or step == N_STEPS
    )
    counted = SparseLUBackend()
    build_s = []

    def timed_build(*args, **kwargs):
        start = time.perf_counter()
        model = build_reduced_model(*args, **kwargs)
        build_s.append(time.perf_counter() - start)
        return model

    with monkeypatch.context() as patch:
        patch.setattr(transient_engine, "build_reduced_model", timed_build)
        assert simulate_transient(rom_spec, backend=counted).metadata["n_rom_builds"] == 1
    cold = _solve_counts(counted)
    build_solves = cold["n_solves"] - n_checkpoints
    assert cold["n_factorizations"] == 1
    assert cold["n_content_hashes"] == 2
    # Every basis vector but the uniform-state one costs one implicit
    # solve; deflated directions add a few more.
    rom_order = rom_outcome.metrics["rom_order"]
    assert rom_order - 1 <= build_solves <= 2 * rom_order
    assert simulate_transient(rom_spec, backend=counted).metadata["n_rom_builds"] == 1
    warm = _solve_counts(counted)
    assert warm["n_factorizations"] == 1
    # The warm run hashes the matrix once for its build handle and once
    # for its checkpoint handle, and factorizes nothing.
    assert warm["n_content_hashes"] == 4
    assert warm["n_solves"] - cold["n_solves"] == build_solves + n_checkpoints

    # A proportional policy around the constant run's mean peak, with a
    # gain spanning its peak range, moves the flow every control interval.
    peaks = rom_outcome.peak_history_K
    proportional_spec = replace(
        rom_spec,
        transient=replace(
            rom_spec.transient,
            policy=PolicySpec(
                kind="proportional",
                control_interval_s=max(N_STEPS // 8, 1) * 0.01,
                setpoint_K=float(np.mean(peaks)),
                gain_per_K=2.0 / max(float(np.ptp(peaks)), 1e-6),
                min_scale=0.5,
                max_scale=2.0,
            ),
        ),
    )
    setup_s = []
    at_flow = ReducedTransientModel.at_flow

    def timed_at_flow(model, factor):
        start = time.perf_counter()
        scaled = at_flow(model, factor)
        setup_s.append(time.perf_counter() - start)
        return scaled

    proportional_backend = SparseLUBackend()
    with monkeypatch.context() as patch:
        patch.setattr(ReducedTransientModel, "at_flow", timed_at_flow)
        proportional = simulate_transient(
            proportional_spec, backend=proportional_backend
        )
    n_scales = len(set(proportional.flow_scales.tolist()))
    assert proportional.metadata["n_rom_builds"] == 1

    benchmark(lambda: simulate_transient(rom_spec, backend=rom_backend))

    record = {
        "benchmark": "transient_rom",
        "n_steps": N_STEPS,
        "grid": [N_ROWS, N_COLS],
        "n_unknowns": rom_outcome.metadata["n_unknowns"],
        "rom_order": rom_order,
        "build_ms": build_s[0] * 1e3,
        "build_solves": build_solves,
        "checkpoint_solves": n_checkpoints,
        "full_s": full_s,
        "rom_cold_s": rom_cold_s,
        "rom_warm_s": rom_warm_s,
        "speedup_warm": full_s / rom_warm_s,
        "speedup_cold": full_s / rom_cold_s,
        "rom_peak_abs_err_K": measured_err,
        "true_peak_abs_err_K": true_err,
        "proportional_n_rom_builds": proportional.metadata["n_rom_builds"],
        "proportional_n_factorizations": proportional_backend.n_factorizations,
        "proportional_n_scales": n_scales,
        "proportional_setup_ms_per_scale": (
            1e3 * float(np.mean(setup_s)) if setup_s else 0.0
        ),
        "proportional_rom_peak_abs_err_K": proportional.metrics[
            "rom_peak_abs_err_K"
        ],
        "smoke": SMOKE,
    }
    emit_bench(record)
    print()
    print(
        f"transient rom {N_STEPS} steps ({record['n_unknowns']} unknowns, "
        f"order {record['rom_order']}): full {full_s * 1e3:.1f} ms, rom "
        f"cold {rom_cold_s * 1e3:.1f} ms, warm {rom_warm_s * 1e3:.1f} ms "
        f"({record['speedup_warm']:.1f}x warm, err {measured_err:.2e} K); "
        f"proportional: {n_scales} scales from 1 build, "
        f"{record['proportional_setup_ms_per_scale']:.2f} ms per scale, "
        f"{record['proportional_n_factorizations']} factorizations"
    )
