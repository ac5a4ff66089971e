"""Transient engine throughput on a batch of scenarios sharing one stack.

Times a batch of trace-driven transient scenarios that share one stack
and one solver backend (so one factorization serves every step of every
scenario), asserts that single factorization, and emits the
``transient_throughput`` ``BENCH {json}`` record.  A second
record, ``factorization_handles``, compares stepping through one
factorization handle with the per-step lookup path it replaced (every
step handing the matrix to ``backend.solve``, which content-hashes it):

.. code-block:: console

    PYTHONPATH=src python -m pytest benchmarks/test_bench_transient.py -s \
        | grep '^BENCH '

Setting ``REPRO_BENCH_SMOKE=1`` shrinks the problem to smoke-test size
(the CI benchmark job archives the records); throughput assertions apply
to the full-size run only.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace

import numpy as np

from repro.ice.transient import TransientSolver
from repro.scenarios import GridSpec, ScenarioSpec, SolverSpec, WorkloadSpec
from repro.thermal.backends import SparseLUBackend
from repro.transient import PolicySpec, TraceSpec, TransientSpec
from repro.transient_engine import simulate_transient

#: Smoke mode: tiny problem, no throughput assertions (CI runs this).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

N_SCENARIOS = 3 if SMOKE else 8
N_COLS = 16 if SMOKE else 44
N_ROWS = 1 if SMOKE else 44
N_STEPS = 20 if SMOKE else 100

#: The smoke run uses the tiny single-channel strip; the full run uses the
#: Fig. 7 arch1 stacking (44x44 cells per layer, ~5.8k unknowns) so the
#: record reflects a real multi-die transient.
WORKLOAD = (
    WorkloadSpec(kind="test-a")
    if SMOKE
    else WorkloadSpec(kind="architecture", architecture="arch1")
)


def emit_bench(record: dict) -> None:
    """Print one machine-readable benchmark record."""
    print("BENCH " + json.dumps(record, sort_keys=True))


def _time_once(function) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def make_batch():
    """N trace-driven scenarios sharing one stack (traces differ)."""
    base = ScenarioSpec(
        name="bench-transient",
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
    specs = []
    for index in range(N_SCENARIOS):
        duty = 0.25 + 0.5 * index / max(N_SCENARIOS - 1, 1)
        trace = replace(base.transient.traces[0], duty=duty)
        specs.append(
            base.with_overrides(
                name=f"bench-transient/{index}",
                transient=replace(base.transient, traces=(trace,)),
            )
        )
    return specs


def test_transient_throughput_shared_stack(benchmark):
    """Serial stepping of a shared-stack batch through one factorization."""
    specs = make_batch()
    n_steps = specs[0].transient.n_steps
    backend = SparseLUBackend()

    def run_batch():
        return [simulate_transient(s, backend=backend) for s in specs]

    start = time.perf_counter()
    outcomes = run_batch()
    serial_s = time.perf_counter() - start
    # Acceptance: ONE factorization serves all steps and scenarios.
    assert backend.n_factorizations == 1

    benchmark(run_batch)

    total_steps = N_SCENARIOS * n_steps
    record = {
        "benchmark": "transient_throughput",
        "n_scenarios": N_SCENARIOS,
        "n_steps": n_steps,
        "grid": [N_ROWS, N_COLS],
        "n_unknowns": outcomes[0].metadata["n_unknowns"],
        "serial_s": serial_s,
        "steps_per_s": total_steps / serial_s,
        "factorizations": backend.n_factorizations,
        "smoke": SMOKE,
    }
    emit_bench(record)
    print()
    print(
        f"transient {N_SCENARIOS} scenarios x {n_steps} steps "
        f"({record['n_unknowns']} unknowns): {serial_s * 1e3:.1f} ms, "
        f"{record['steps_per_s']:.0f} steps/s, one factorization"
    )


def _best_of(function, repeats: int = 2) -> float:
    return min(_time_once(function) for _ in range(repeats))


def test_factorization_handles_hash_once_per_chunk(benchmark):
    """One content hash per integrate call instead of one per step."""
    spec = make_batch()[0]
    stack = spec.build_stack()
    n_steps = spec.transient.n_steps
    dt = spec.transient.time_step_s

    def make_solver():
        backend = SparseLUBackend()
        solver = TransientSolver(
            stack, power_schedule=spec.transient.schedule(), backend=backend
        )
        return solver, backend

    def per_step_lookup(solver):
        implicit, c_over_dt, token = solver.implicit_system(dt)
        state = np.full(solver.system.n_unknowns, stack.ambient_temperature)
        states = []
        for step in range(1, n_steps + 1):
            rhs = solver.rhs_at(step * dt) + c_over_dt @ state
            state = solver.backend.solve(implicit, rhs, token)
            states.append(state)
        return states

    def through_handle(solver):
        states = []
        solver.integrate(
            np.full(solver.system.n_unknowns, stack.ambient_temperature),
            step_offset=0,
            n_steps=n_steps,
            time_step=dt,
            on_step=lambda step, time, state: states.append(state.copy()),
        )
        return states

    lookup_solver, lookup_backend = make_solver()
    handle_solver, handle_backend = make_solver()
    lookup_states = per_step_lookup(lookup_solver)
    handle_states = through_handle(handle_solver)
    for expected, got in zip(lookup_states, handle_states):
        assert np.array_equal(got, expected)
    before = lookup_backend.stats()
    after = handle_backend.stats()
    assert before["n_content_hashes"] == n_steps
    assert after["n_content_hashes"] == 1
    # Counter semantics are unchanged: one miss, then one reuse per step.
    for stats in (before, after):
        assert stats["n_factorizations"] == 1
        assert stats["n_factorization_reuses"] == n_steps - 1

    lookup_s = _best_of(lambda: per_step_lookup(lookup_solver))
    handle_s = _best_of(lambda: through_handle(handle_solver))
    benchmark(lambda: through_handle(handle_solver))

    record = {
        "benchmark": "factorization_handles",
        "n_steps": n_steps,
        "grid": [N_ROWS, N_COLS],
        "n_unknowns": handle_solver.system.n_unknowns,
        "hashes_per_step_before": before["n_content_hashes"] / n_steps,
        "hashes_per_step_after": after["n_content_hashes"] / n_steps,
        "per_step_lookup_s": lookup_s,
        "handle_s": handle_s,
        "speedup": lookup_s / handle_s,
        "bit_identical": True,
        "smoke": SMOKE,
    }
    emit_bench(record)
    print()
    print(
        f"factorization handles, {n_steps} steps: "
        f"{record['hashes_per_step_before']:.2f} -> "
        f"{record['hashes_per_step_after']:.3f} hashes/step, "
        f"{lookup_s * 1e3:.1f} -> {handle_s * 1e3:.1f} ms"
    )
