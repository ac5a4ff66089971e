"""Adjoint vs batched-FD gradient cost, and the value-refresh fold.

Times one full objective gradient of the Test A modulation problem
through both strategies as the design dimension grows (n = 6, 12, 24
segment widths), asserts the adjoint agrees with the finite-difference
oracle and that each strategy pays its expected solve counts, and emits
the ``optimizer_adjoint`` ``BENCH {json}`` record:

.. code-block:: console

    PYTHONPATH=src python -m pytest benchmarks/test_bench_adjoint.py -s \
        | grep '^BENCH '

The point of the record: batched FD needs ``2n`` solves per gradient so
its cost grows linearly with the number of design variables, while the
adjoint needs one forward and one transpose solve regardless of ``n`` --
the per-gradient cost stays flat.  The asserts check that structure
(solve, transpose-solve and batch counts per gradient, and no assembly or
content hash of the matrix at a cost-evaluated iterate -- the transpose
solve goes through the forward solve's factorization handle); the
speedups are reported in the BENCH record only.  The record also times the COO->CSR
value-refresh fold of the Test A pattern.  Setting ``REPRO_BENCH_SMOKE=1``
shrinks the problem to smoke-test size.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

import repro.core.engine
import repro.thermal.assembly
from repro.core import ChannelModulationOptimizer, OptimizerSettings
from repro.floorplan import test_a_structure as build_test_a
from repro.thermal.assembly import assemble_system
from repro.thermal.backends import get_backend
from repro.thermal.geometry import MultiChannelStructure

#: Smoke mode: tiny problem (CI runs this).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

SIZES = (2, 4) if SMOKE else (6, 12, 24)
N_GRID = 61 if SMOKE else 241
#: Engine counters compared per gradient.
COUNTERS = ("n_solves", "n_batches", "n_transpose_solves")


def emit_bench(record: dict) -> None:
    """Print one machine-readable benchmark record."""
    print("BENCH " + json.dumps(record, sort_keys=True))


def _time_gradient(optimizer, gradient_fn, base_vector, repeats: int = 3):
    """Best-of-N wall time of one gradient at *fresh* iterates.

    Each repeat shifts the vector slightly so neither strategy is served
    from the engine's solution cache, and evaluates the cost first --
    mirroring SLSQP, which calls the jacobian right after the cost at the
    same point (the forward solve is then warm for both strategies).
    """
    best = float("inf")
    for repeat in range(repeats):
        vector = np.clip(base_vector + 1e-3 * (repeat + 1), 0.0, 1.0)
        optimizer.cost(vector)
        start = time.perf_counter()
        gradient_fn(vector)
        best = min(best, time.perf_counter() - start)
    return best


def _gradient_counts(optimizer, gradient_fn, vector) -> dict:
    """Engine counter increments of one gradient at a cost-evaluated iterate."""
    optimizer.cost(vector)
    before = optimizer.engine.stats()
    gradient_fn(vector)
    after = optimizer.engine.stats()
    return {key: after[key] - before[key] for key in COUNTERS}


def _rebuild_counts(optimizer, vector, monkeypatch) -> dict:
    """Assemblies and matrix content hashes of one adjoint gradient.

    Measured at a cost-evaluated iterate, as SLSQP calls it; the default
    engine hands its solves to the shared ``sparse-lu`` backend.
    """
    optimizer.cost(vector)
    original = repro.thermal.assembly.assemble_system
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (repro.thermal.assembly, repro.core.engine):
        monkeypatch.setattr(module, "assemble_system", counted)
    backend = get_backend("sparse-lu")
    before = backend.stats()["n_content_hashes"]
    optimizer.adjoint_cost_gradient(vector)
    hashes = backend.stats()["n_content_hashes"] - before
    monkeypatch.undo()
    return {
        "assemblies_per_gradient": len(calls),
        "content_hashes_per_gradient": hashes,
    }


def make_optimizer(config, n_segments: int) -> ChannelModulationOptimizer:
    return ChannelModulationOptimizer(
        build_test_a(config),
        OptimizerSettings(
            n_segments=n_segments,
            n_grid_points=N_GRID,
            gradient_mode="adjoint",
        ),
    )


def test_adjoint_gradient_cost_is_flat(config, benchmark, monkeypatch):
    """One adjoint gradient stays ~constant while FD grows with n."""
    rows = []
    for n_segments in SIZES:
        optimizer = make_optimizer(config, n_segments)
        vector = np.linspace(0.35, 0.65, optimizer.parameterization.n_variables)
        # Warm both paths: prime the pattern cache and the forward
        # factorization so the timings measure the gradient, not setup.
        adjoint_gradient = optimizer.adjoint_cost_gradient(vector)
        fd_gradient = optimizer.cost_gradient(vector)
        scale = np.max(np.abs(fd_gradient))
        # The production fd-batched stencil is one-sided with step 1e-3,
        # so it carries O(h) truncation; the tight 1e-6 agreement against
        # central differences is asserted in tests/test_adjoint.py.
        assert np.max(np.abs(adjoint_gradient - fd_gradient)) <= 1e-2 * scale

        # Flat vs linear: the adjoint pays one transpose solve and no
        # forward solve at a cost-evaluated iterate; fd-batched pays one
        # batch of n forward solves.
        n_variables = optimizer.parameterization.n_variables
        fresh = np.clip(vector + 5e-3, 0.0, 1.0)
        assert _gradient_counts(
            optimizer, optimizer.adjoint_cost_gradient, fresh
        ) == {"n_solves": 0, "n_batches": 0, "n_transpose_solves": 1}
        assert _gradient_counts(
            optimizer, optimizer.cost_gradient, np.clip(fresh + 5e-3, 0.0, 1.0)
        ) == {"n_solves": n_variables, "n_batches": 1, "n_transpose_solves": 0}

        adjoint_s = _time_gradient(
            optimizer, optimizer.adjoint_cost_gradient, vector
        )
        fd_s = _time_gradient(optimizer, optimizer.cost_gradient, vector)
        rows.append(
            {
                "n_variables": optimizer.parameterization.n_variables,
                "adjoint_s": adjoint_s,
                "fd_batched_s": fd_s,
                "speedup": fd_s / adjoint_s,
            }
        )

    bench_optimizer = make_optimizer(config, SIZES[-1])
    bench_vector = np.linspace(
        0.35, 0.65, bench_optimizer.parameterization.n_variables
    )
    bench_optimizer.adjoint_cost_gradient(bench_vector)  # warm
    benchmark(lambda: bench_optimizer.adjoint_cost_gradient(bench_vector))
    rebuild = _rebuild_counts(
        bench_optimizer, np.clip(bench_vector + 5e-3, 0.0, 1.0), monkeypatch
    )
    assert rebuild == {
        "assemblies_per_gradient": 0,
        "content_hashes_per_gradient": 0,
    }

    record = {
        "benchmark": "optimizer_adjoint",
        "objective": "gradient_norm",
        "n_grid_points": N_GRID,
        "sizes": rows,
        **rebuild,
        "refresh": _refresh_record(),
        "smoke": SMOKE,
    }
    emit_bench(record)
    print()
    for row in rows:
        print(
            f"n={row['n_variables']:>2}: adjoint "
            f"{row['adjoint_s'] * 1e3:.2f} ms, fd-batched "
            f"{row['fd_batched_s'] * 1e3:.2f} ms "
            f"({row['speedup']:.1f}x)"
        )


def _refresh_record(repeats: int = 50) -> dict:
    """Time the COO->CSR value-refresh fold on the Test A pattern."""
    system = assemble_system(
        MultiChannelStructure.single(build_test_a()), n_points=N_GRID
    )
    fold = system.pattern.fold
    values = np.asarray(system.values)

    start = time.perf_counter()
    for _ in range(repeats):
        fold.fold(values)
    return {
        "n_entries": int(fold.n_entries),
        "fold_s": (time.perf_counter() - start) / repeats,
    }
