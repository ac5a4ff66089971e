"""Benchmark the structure-aware direct-solve kernels against SuperLU/COLAMD.

For every distinct system shape of the registered scenarios -- the FDM
cavity of each steady scenario, the ICE stack of every scenario and the
implicit backward-Euler matrix of the transient ones -- this builds the
``sparse-lu`` backend's factorization plan (reverse Cuthill--McKee
ordering, permuted bandwidth, kernel) and emits one
``direct_solve_kernels`` ``BENCH {json}`` record: unknowns, permuted
``kl``/``ku``, the chosen kernel, best-of-N factorize and solve times of
the kernel and of the default-ordering SuperLU oracle
(``tests/oracles/superlu.py``), and the fill of both factors::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_direct_solve.py -s \\
        | grep '^BENCH '

Timings go into the records only.  The one assert is that the kernel's
solution matches the oracle's to 1e-10 relative.  Setting
``REPRO_BENCH_SMOKE=1`` times each shape once (the CI benchmark job).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.ice import TransientSolver
from repro.ice import assemble_system as assemble_stack
from repro.scenarios import get_scenario, scenario_names
from repro.thermal import assembly
from repro.thermal.backends import _FactorPlan
from repro.thermal.geometry import MultiChannelStructure

TESTS_DIR = str(Path(__file__).resolve().parents[1] / "tests")
if TESTS_DIR not in sys.path:
    sys.path.insert(0, TESTS_DIR)

from oracles import superlu as oracle  # noqa: E402

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

N_REPEATS = 1 if SMOKE else 5


def emit_bench(record: dict) -> None:
    """Print one machine-readable BENCH record (JSON on a single line)."""
    print("BENCH " + json.dumps(record, sort_keys=True))


def registered_systems():
    """``(label, family, matrix, token)`` for each distinct registered shape."""
    seen = set()
    for name in scenario_names():
        spec = get_scenario(name)
        systems = []
        if spec.transient is None:
            structure = spec.build_structure()
            if not isinstance(structure, MultiChannelStructure):
                structure = MultiChannelStructure.single(structure)
            fdm = assembly.assemble_system(structure, n_points=spec.grid.n_grid_points)
            systems.append(("fdm", fdm.matrix, fdm.pattern_token))
        stack = spec.build_stack()
        ice = assemble_stack(stack)
        systems.append(("ice", ice.matrix, ice.pattern_token))
        if spec.transient is not None:
            implicit, _, token = TransientSolver(stack).implicit_system(
                spec.transient.time_step_s
            )
            systems.append(("ice-implicit", implicit, token))
        for family, matrix, token in systems:
            if token not in seen:
                seen.add(token)
                yield f"{name}/{family}", family, matrix, token


def best_of(function):
    """Best wall time over ``N_REPEATS`` calls, and the last result."""
    best, result = float("inf"), None
    for _ in range(N_REPEATS):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_direct_solve_kernel_records():
    rows = []
    for label, family, matrix, _ in registered_systems():
        plan = _FactorPlan(matrix)
        rhs = np.asarray(matrix.sum(axis=1)).ravel()
        factorize_s, factor = best_of(lambda: plan.factorize(matrix))
        oracle_factorize_s, reference = best_of(lambda: oracle.factorize(matrix))
        solve_s, solution = best_of(lambda: factor.solve(rhs))
        oracle_solve_s, expected = best_of(lambda: reference.solve(rhs))
        error = np.max(np.abs(solution - expected)) / np.max(np.abs(expected))
        assert error <= 1e-10, f"{label}: relative error {error:.2e}"
        record = {
            "benchmark": "direct_solve_kernels",
            "smoke": SMOKE,
            "system": label,
            "family": family,
            "n": matrix.shape[0],
            "nnz": int(matrix.nnz),
            "kl": plan.kl,
            "ku": plan.ku,
            "kernel": "superlu" if plan.scatter is None else "banded",
            "factorize_s": factorize_s,
            "solve_s": solve_s,
            "oracle_factorize_s": oracle_factorize_s,
            "oracle_solve_s": oracle_solve_s,
            "factorize_speedup": oracle_factorize_s / factorize_s,
            "solve_speedup": oracle_solve_s / solve_s,
            "fill": int(factor.nnz),
            "oracle_fill": int(reference.nnz),
            "relative_error": float(error),
        }
        emit_bench(record)
        rows.append(record)

    print()
    print("direct-solve kernels vs SuperLU/COLAMD (best of %d)" % N_REPEATS)
    for row in rows:
        print(
            f"  {row['system']:34s} n={row['n']:5d} kl/ku={row['kl']}/{row['ku']:<4d}"
            f" {row['kernel']:7s} factorize {row['factorize_s'] * 1e3:7.2f} ms"
            f" (x{row['factorize_speedup']:.1f})  solve {row['solve_s'] * 1e3:6.3f} ms"
            f" (x{row['solve_speedup']:.1f})  fill {row['fill']} vs {row['oracle_fill']}"
        )
