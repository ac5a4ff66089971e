"""Solver-scaling benchmark: assembly, backends, caching.

Times the finite-difference hot path against the seed implementation (the
per-grid-point Python-loop assembly kept as the oracle
``tests/oracles/assembly.py``) across lane counts and grid resolutions, for
every registered solver backend, and reports the evaluation engine's
cache-hit rate on an optimizer-like workload.

Each record is printed as a ``BENCH {json}`` line -- the repo's standard
machine-readable benchmark format -- in addition to the human-readable
tables, so the scaling data can be collected mechanically::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_solver_scaling.py -s \
        | grep '^BENCH '

Speed ratios (the vectorized assembly is typically 20-60x the loop at 32
lanes x 241 points) are reported in the BENCH records only.  The asserts
are deterministic: agreement with the oracle, pattern reuse and the
backends' factorization counts.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis import format_table
from repro.core import EvaluationEngine
from repro.thermal import assembly, backends
from repro.thermal.fdm import solve_finite_difference
from repro.thermal.geometry import ChannelGeometry, HeatInputProfile
from repro.thermal.multichannel import build_cavity

TESTS_DIR = str(Path(__file__).resolve().parents[1] / "tests")
if TESTS_DIR not in sys.path:
    sys.path.insert(0, TESTS_DIR)

from oracles import assembly as oracle  # noqa: E402

#: Lane counts of the scaling sweep (the paper's cavities use 4-64 lanes).
LANE_COUNTS = (1, 4, 16, 32, 64)
#: Grid resolutions of the resolution sweep.
GRID_SIZES = (61, 121, 241, 481)
#: Reference problem size of the acceptance criterion.
REFERENCE_LANES = 32
REFERENCE_POINTS = 241


def emit_bench(record: dict) -> None:
    """Print one machine-readable benchmark record."""
    print("BENCH " + json.dumps(record, sort_keys=True))


def best_time(function, repeats: int = 3) -> float:
    """Minimum wall time of ``function`` over ``repeats`` calls (seconds)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return min(times)


def make_cavity(config, n_lanes: int):
    """A multi-lane cavity with a mild lane-to-lane power imbalance."""
    params = config.params
    geometry = ChannelGeometry.from_parameters(params)
    heat = [
        HeatInputProfile.from_areal_flux(
            50.0 + 10.0 * (j % 5), geometry.pitch, geometry.length
        )
        for j in range(n_lanes)
    ]
    return build_cavity(
        geometry,
        heat,
        heat,
        flow_rate=params.flow_rate_per_channel,
        inlet_temperature=params.inlet_temperature,
    )


def test_assembly_speedup_over_seed_loop(benchmark, config):
    """Vectorized assembly vs the seed loop at 32 lanes: same system, one pattern."""
    cavity = make_cavity(config, REFERENCE_LANES)
    assembly.clear_pattern_cache()
    # Warm the pattern cache once: production solves amortize the pattern
    # over every solve of the same shape, so the steady-state cost is what
    # the optimizer hot loop actually pays.
    system = assembly.assemble_system(cavity, n_points=REFERENCE_POINTS)
    matrix, rhs = oracle.assemble_system_loop(cavity, n_points=REFERENCE_POINTS)
    # Elementwise |A - A_loop| <= 1e-13 |A_loop|, kept sparse.
    excess = abs(system.matrix - matrix) - 1e-13 * abs(matrix)
    assert excess.max() <= 0.0
    np.testing.assert_allclose(system.rhs, rhs, rtol=1e-13, atol=0.0)

    loop_time = best_time(
        lambda: oracle.assemble_system_loop(cavity, n_points=REFERENCE_POINTS)
    )
    vectorized_time = best_time(
        lambda: assembly.assemble_system(cavity, n_points=REFERENCE_POINTS)
    )
    benchmark(lambda: assembly.assemble_system(cavity, n_points=REFERENCE_POINTS))

    speedup = loop_time / vectorized_time
    emit_bench(
        {
            "benchmark": "assembly_speedup",
            "n_lanes": REFERENCE_LANES,
            "n_points": REFERENCE_POINTS,
            "loop_assembly_s": loop_time,
            "vectorized_assembly_s": vectorized_time,
            "speedup": speedup,
        }
    )
    print()
    print(
        f"assembly at {REFERENCE_LANES} lanes x {REFERENCE_POINTS} points: "
        f"loop {loop_time * 1e3:.1f} ms, vectorized {vectorized_time * 1e3:.2f} ms "
        f"({speedup:.0f}x)"
    )
    # Every timed assembly reused the one cached pattern of this shape.
    again = assembly.assemble_system(cavity, n_points=REFERENCE_POINTS)
    assert again.pattern is system.pattern
    assert assembly.pattern_cache_info()["size"] == 1


def test_end_to_end_solve_speedup(benchmark, config):
    """Full solve (assembly + linear solve) vs the seed loop path."""
    cavity = make_cavity(config, REFERENCE_LANES)
    rows = []
    # The seed path: loop assembly + a cold direct solve every time (no
    # factorization cache existed in the seed).
    reference = oracle.solve_loop(cavity, n_points=REFERENCE_POINTS)
    seed_like = best_time(
        lambda: oracle.solve_loop(cavity, n_points=REFERENCE_POINTS), repeats=2
    )
    # Cold: fresh factorization each call (distinct backend instance).
    cold_backend = backends.SparseLUBackend(factorization_cache_size=0)
    cold = best_time(
        lambda: solve_finite_difference(
            cavity, n_points=REFERENCE_POINTS, backend=cold_backend
        ),
        repeats=2,
    )
    # Warm: unchanged matrix reuses the cached factorization (the repeated
    # re-evaluations served by the engine hit this path when the solution
    # cache itself was evicted).
    warm_backend = backends.SparseLUBackend()
    solution = solve_finite_difference(
        cavity, n_points=REFERENCE_POINTS, backend=warm_backend
    )
    np.testing.assert_allclose(
        solution.temperatures, reference.temperatures, rtol=0.0, atol=1e-8
    )
    warm = best_time(
        lambda: solve_finite_difference(
            cavity, n_points=REFERENCE_POINTS, backend=warm_backend
        )
    )
    assert cold_backend.stats()["n_factorizations"] == 2
    assert cold_backend.stats()["n_factorization_reuses"] == 0
    assert warm_backend.stats()["n_factorizations"] == 1
    assert warm_backend.stats()["n_factorization_reuses"] == 3
    benchmark(
        lambda: solve_finite_difference(
            cavity, n_points=REFERENCE_POINTS, backend=warm_backend
        )
    )
    for label, seconds in (
        ("seed loop assembly + spsolve", seed_like),
        ("vectorized + sparse-lu (cold)", cold),
        ("vectorized + sparse-lu (factorization reuse)", warm),
    ):
        rows.append(
            {
                "path": label,
                "time_ms": seconds * 1e3,
                "speedup_vs_seed": seed_like / seconds,
            }
        )
        emit_bench(
            {
                "benchmark": "end_to_end_solve",
                "path": label,
                "n_lanes": REFERENCE_LANES,
                "n_points": REFERENCE_POINTS,
                "time_s": seconds,
                "speedup_vs_seed": seed_like / seconds,
            }
        )
    print()
    print("end-to-end solve, 32 lanes x 241 points:")
    print(format_table(rows))
    # The pytest-benchmark rounds above all reused the one factorization.
    assert warm_backend.stats()["n_factorizations"] == 1


def test_backend_scaling_with_lane_count(benchmark, config):
    """Wall time per backend as the lane count grows."""
    rows = []
    for n_lanes in LANE_COUNTS:
        cavity = make_cavity(config, n_lanes)
        n_unknowns = 3 * n_lanes * REFERENCE_POINTS
        candidates = ["sparse-lu", "auto"]
        if n_unknowns <= 1500:
            candidates.append("dense")
        for name in candidates:
            # Fresh instances so factorization caches do not flatter the
            # cold-solve numbers.
            if name == "sparse-lu":
                backend = backends.SparseLUBackend(factorization_cache_size=0)
            else:
                backend = name
            repeats = 3 if n_lanes <= 16 else 1
            seconds = best_time(
                lambda: solve_finite_difference(
                    cavity, n_points=REFERENCE_POINTS, backend=backend
                ),
                repeats=repeats,
            )
            # The registry's "auto" is a shared singleton whose underlying
            # sparse-lu may reuse cached factorizations from earlier calls.
            warm_cache = name == "auto"
            rows.append(
                {
                    "n_lanes": n_lanes,
                    "backend": name + (" (warm)" if warm_cache else ""),
                    "n_unknowns": n_unknowns,
                    "time_ms": seconds * 1e3,
                }
            )
            emit_bench(
                {
                    "benchmark": "backend_lane_scaling",
                    "backend": name,
                    "warm_cache": warm_cache,
                    "n_lanes": n_lanes,
                    "n_points": REFERENCE_POINTS,
                    "n_unknowns": n_unknowns,
                    "time_s": seconds,
                }
            )
    small = make_cavity(config, 4)
    benchmark(
        lambda: solve_finite_difference(
            small, n_points=REFERENCE_POINTS, backend="sparse-lu"
        )
    )
    print()
    print("backend scaling with lane count (241 grid points):")
    print(format_table(rows))


def test_backend_scaling_with_grid_resolution(benchmark, config):
    """Wall time vs grid resolution at a fixed 8-lane cavity."""
    cavity = make_cavity(config, 8)
    rows = []
    for n_points in GRID_SIZES:
        for name in ("sparse-lu", "auto"):
            backend = (
                backends.SparseLUBackend(factorization_cache_size=0)
                if name == "sparse-lu"
                else name
            )
            seconds = best_time(
                lambda: solve_finite_difference(
                    cavity, n_points=n_points, backend=backend
                )
            )
            warm_cache = name == "auto"
            rows.append(
                {
                    "n_points": n_points,
                    "backend": name + (" (warm)" if warm_cache else ""),
                    "time_ms": seconds * 1e3,
                }
            )
            emit_bench(
                {
                    "benchmark": "backend_grid_scaling",
                    "backend": name,
                    "warm_cache": warm_cache,
                    "n_lanes": 8,
                    "n_points": n_points,
                    "time_s": seconds,
                }
            )
    benchmark(
        lambda: solve_finite_difference(cavity, n_points=241, backend="sparse-lu")
    )
    print()
    print("backend scaling with grid resolution (8 lanes):")
    print(format_table(rows))


def test_engine_cache_hit_rate(benchmark, config):
    """Cache-hit rate of an optimizer-like repeated-evaluation workload."""
    cavity = make_cavity(config, 8)
    geometry = cavity.geometry
    widths = np.linspace(geometry.min_width, geometry.max_width, 9)

    def sweep_twice():
        engine = EvaluationEngine(cache_size=64)
        # A design-space sweep ...
        candidates = [cavity.with_uniform_width(float(w)) for w in widths]
        engine.solve_many(candidates, n_points=121)
        # ... then the optimizer revisits every design (cost + constraint
        # evaluations at the same iterate, baselines re-evaluated).
        for candidate in candidates:
            engine.solve(candidate, n_points=121)
            engine.solve(candidate, n_points=121)
        return engine

    engine = sweep_twice()
    stats = engine.stats()
    assert stats["n_solves"] == len(widths)
    assert stats["n_cache_hits"] >= 2 * len(widths)
    assert stats["hit_rate"] >= 0.6
    emit_bench(
        {
            "benchmark": "engine_cache_hit_rate",
            "n_lanes": 8,
            "n_points": 121,
            "n_designs": len(widths),
            "n_solves": stats["n_solves"],
            "n_cache_hits": stats["n_cache_hits"],
            "hit_rate": stats["hit_rate"],
        }
    )
    print()
    print(
        f"engine cache: {stats['n_solves']} solves, "
        f"{stats['n_cache_hits']} hits (hit rate {stats['hit_rate']:.2f})"
    )

    cached = EvaluationEngine(cache_size=64)
    warm_cavity = cavity.with_uniform_width(float(widths[0]))
    cached.solve(warm_cavity, n_points=121)
    benchmark(lambda: cached.solve(warm_cavity, n_points=121))
