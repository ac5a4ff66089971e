"""ICE finite-volume and optimizer-gradient scaling benchmarks.

Times the vectorized finite-volume assembly against the seed implementation
(the triple-nested Python loop kept as the oracle
``tests/oracles/ice_assembly.py``) across grid sizes and stack heights, the
backend-routed steady solves (cold factorization vs reuse), the optimizer's
batched SLSQP gradients against the sequential scalar loop they replace,
and full SLSQP runs under the adjoint and fd-batched gradient modes.

Each record is printed as a ``BENCH {json}`` line -- the repo's standard
machine-readable benchmark format -- in addition to the human-readable
tables, so the scaling data can be collected mechanically::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_ice_scaling.py -s \
        | grep '^BENCH '

Setting ``REPRO_BENCH_SMOKE=1`` shrinks every problem to smoke-test size
(used by the CI benchmark job to exercise the suite and archive the BENCH
records in seconds).

Every ICE system is a cached flow-free base of its stack geometry plus a
flow/power write, so the assembly records time the full assembly with the
base cache cleared before each timed call (``vectorized_assembly_s``) and,
apart, a system at a new flow over a warm base (``flow_refresh_s``).

Speed ratios are reported in the BENCH records only.  The asserts are
deterministic: the vectorized assembly of a 4-die 64x64 stack is
bit-identical to the loop oracle and reuses one cached pattern, cold and
warm solves pay the expected factorization counts, and one batched SLSQP
gradient issues its ``n + 1`` perturbed solves through a single
``solve_many`` call and equals the sequential finite differences.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis import format_table
from repro.config import DEFAULT_EXPERIMENT
from repro.core import ChannelModulationOptimizer, OptimizerSettings
from repro.core.linear_system import clear_pattern_cache, pattern_cache_info
from repro.floorplan import get_architecture
from repro.ice import (
    SteadyStateSolver,
    assemble_system,
    clear_base_cache,
    multi_die_stack_from_architecture,
)
from repro.thermal import backends
from repro.thermal.geometry import ChannelGeometry, HeatInputProfile
from repro.thermal.multichannel import build_cavity

TESTS_DIR = str(Path(__file__).resolve().parents[1] / "tests")
if TESTS_DIR not in sys.path:
    sys.path.insert(0, TESTS_DIR)

from oracles.ice_assembly import assemble_system_loop  # noqa: E402

#: Smoke mode: tiny grids (CI runs this).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

#: (n_dies, grid) points of the assembly scaling sweep.
STACK_SIZES = (
    [(2, 12), (4, 12)] if SMOKE else [(2, 32), (4, 32), (2, 64), (4, 64)]
)
#: Reference problem of the acceptance criterion.
REFERENCE_DIES = 4
REFERENCE_GRID = 12 if SMOKE else 64
#: Gradient benchmark problem size.
GRADIENT_LANES = 2 if SMOKE else 8
GRADIENT_SEGMENTS = 3 if SMOKE else 6
GRADIENT_POINTS = 61 if SMOKE else 241


def emit_bench(record: dict) -> None:
    """Print one machine-readable benchmark record."""
    print("BENCH " + json.dumps(record, sort_keys=True))


def best_time(function, repeats: int = 3, setup=None) -> float:
    """Minimum wall time of ``function`` over ``repeats`` calls (seconds).

    ``setup``, when given, runs untimed before each call.
    """
    times = []
    for _ in range(repeats):
        if setup is not None:
            setup()
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return min(times)


def make_stack(n_dies: int, grid: int, flow_scale: float = 1.0):
    """An n-die Niagara stacking on a grid x grid cell mesh."""
    params = DEFAULT_EXPERIMENT.params
    config = dataclasses.replace(
        DEFAULT_EXPERIMENT,
        params=dataclasses.replace(
            params, flow_rate_per_channel=flow_scale * params.flow_rate_per_channel
        ),
    )
    return multi_die_stack_from_architecture(
        get_architecture("arch1"),
        n_dies=n_dies,
        config=config,
        n_cols=grid,
        n_rows=grid,
    )


def assembly_times(n_dies: int, grid: int):
    """(full assembly, flow refresh) best wall times of one stack shape.

    The sparsity pattern is warm for both: the full assembly runs with the
    flow-free base cache cleared, the flow refresh assembles the stack at
    twice the flow over the base the full assembly left behind.
    """
    stack = make_stack(n_dies, grid)
    refresh_stack = make_stack(n_dies, grid, flow_scale=2.0)
    assemble_system(stack)  # warm the pattern for this shape
    full = best_time(lambda: assemble_system(stack), setup=clear_base_cache)
    refresh = best_time(lambda: assemble_system(refresh_stack))
    return full, refresh


def canonical(matrix):
    matrix = matrix.tocsr()
    matrix.sum_duplicates()
    matrix.sort_indices()
    return matrix


def test_ice_assembly_speedup_and_bit_identity(benchmark):
    """Vectorized vs loop assembly at 4-die 64x64: bit-identical, one pattern."""
    stack = make_stack(REFERENCE_DIES, REFERENCE_GRID)
    clear_pattern_cache()
    clear_base_cache()
    # Warm the pattern cache once: production solves amortize the fold over
    # every assembly of the same stack shape, so the steady-state cost is
    # what sweeps and transient re-runs actually pay.
    vectorized = assemble_system(stack)
    matrix, rhs, capacitances = assemble_system_loop(stack)

    a = canonical(vectorized.matrix)
    b = canonical(matrix)
    bit_identical = (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
        and np.array_equal(vectorized.rhs, rhs)
        and np.array_equal(vectorized.capacitances, capacitances)
    )
    assert bit_identical

    loop_time = best_time(lambda: assemble_system_loop(stack), repeats=1)
    vectorized_time, refresh_time = assembly_times(REFERENCE_DIES, REFERENCE_GRID)
    benchmark(lambda: assemble_system(stack))

    speedup = loop_time / vectorized_time
    emit_bench(
        {
            "benchmark": "ice_assembly_speedup",
            "n_dies": REFERENCE_DIES,
            "grid": REFERENCE_GRID,
            "n_unknowns": vectorized.n_unknowns,
            "loop_assembly_s": loop_time,
            "vectorized_assembly_s": vectorized_time,
            "flow_refresh_s": refresh_time,
            "speedup": speedup,
            "bit_identical": bit_identical,
            "smoke": SMOKE,
        }
    )
    print()
    print(
        f"ice assembly, {REFERENCE_DIES} dies x {REFERENCE_GRID}x"
        f"{REFERENCE_GRID}: loop {loop_time * 1e3:.1f} ms, vectorized "
        f"{vectorized_time * 1e3:.2f} ms ({speedup:.0f}x), flow refresh "
        f"{refresh_time * 1e3:.2f} ms"
    )
    # Every timed assembly reused the one cached pattern of this shape.
    assert assemble_system(stack).pattern is vectorized.pattern
    assert pattern_cache_info()["size"] == 1


def test_ice_assembly_grid_scaling(benchmark):
    """Assembly wall time vs stack height and grid resolution."""
    rows = []
    for n_dies, grid in STACK_SIZES:
        stack = make_stack(n_dies, grid)
        vectorized_time, refresh_time = assembly_times(n_dies, grid)
        loop_time = best_time(lambda: assemble_system_loop(stack), repeats=1)
        rows.append(
            {
                "n_dies": n_dies,
                "grid": f"{grid}x{grid}",
                "loop_ms": loop_time * 1e3,
                "vectorized_ms": vectorized_time * 1e3,
                "flow_refresh_ms": refresh_time * 1e3,
                "speedup": loop_time / vectorized_time,
            }
        )
        emit_bench(
            {
                "benchmark": "ice_assembly_grid_scaling",
                "n_dies": n_dies,
                "grid": grid,
                "loop_assembly_s": loop_time,
                "vectorized_assembly_s": vectorized_time,
                "flow_refresh_s": refresh_time,
                "speedup": loop_time / vectorized_time,
                "smoke": SMOKE,
            }
        )
    small = make_stack(2, STACK_SIZES[0][1])
    benchmark(lambda: assemble_system(small))
    print()
    print("ice assembly scaling (vectorized vs loop reference):")
    print(format_table(rows))


def test_ice_solve_backend_reuse(benchmark):
    """Steady solves through the backend layer: cold vs factorization reuse."""
    grid = 12 if SMOKE else 48
    stack = make_stack(2, grid)
    cold_backend = backends.SparseLUBackend(factorization_cache_size=0)
    cold = best_time(
        lambda: SteadyStateSolver(stack, backend=cold_backend).solve(
            compute_residual=False
        ),
        repeats=2,
    )
    warm_backend = backends.SparseLUBackend()
    warm_solver = SteadyStateSolver(stack, backend=warm_backend)
    warm_solver.solve(compute_residual=False)
    warm = best_time(lambda: warm_solver.solve(compute_residual=False))
    with_residual = best_time(lambda: warm_solver.solve(compute_residual=True))
    # Cold pays one factorization per solve, warm reuses its first one.
    assert cold_backend.stats()["n_factorizations"] == 2
    assert warm_backend.stats()["n_factorizations"] == 1
    assert warm_backend.stats()["n_factorization_reuses"] == 6
    benchmark(lambda: warm_solver.solve(compute_residual=False))
    for label, seconds in (
        ("cold factorization", cold),
        ("factorization reuse", warm),
        ("factorization reuse + residual", with_residual),
    ):
        emit_bench(
            {
                "benchmark": "ice_solve_backend",
                "path": label,
                "n_dies": 2,
                "grid": grid,
                "time_s": seconds,
                "smoke": SMOKE,
            }
        )
    print()
    print(
        f"ice steady solve, 2 dies x {grid}x{grid}: cold "
        f"{cold * 1e3:.1f} ms, reuse {warm * 1e3:.2f} ms, reuse+residual "
        f"{with_residual * 1e3:.2f} ms"
    )


def make_gradient_optimizer(n_workers: int) -> ChannelModulationOptimizer:
    """A multi-lane optimizer sized so thermal solves dominate gradients."""
    params = DEFAULT_EXPERIMENT.params
    geometry = ChannelGeometry.from_parameters(params)
    heat = [
        HeatInputProfile.from_areal_flux(
            50.0 + 20.0 * (lane % 4), geometry.pitch, geometry.length
        )
        for lane in range(GRADIENT_LANES)
    ]
    cavity = build_cavity(
        geometry,
        heat,
        heat,
        flow_rate=params.flow_rate_per_channel,
        inlet_temperature=params.inlet_temperature,
    )
    settings = OptimizerSettings(
        n_segments=GRADIENT_SEGMENTS,
        n_grid_points=GRADIENT_POINTS,
        n_workers=n_workers,
    )
    return ChannelModulationOptimizer(cavity, settings)


def test_optimizer_gradient_batching(benchmark):
    """One SLSQP gradient = one solve_many call of n+1 solves.

    Wall times are reported per worker count.  On multicore hosts the
    fan-out speedup is bounded by how much of the solve releases the GIL
    (SuperLU's factorization does not), so the structural guarantees --
    one batch, cache deduplication, no per-point Python dispatch -- and
    agreement with the sequential scalar loop are asserted, while the
    speedups and thread scaling are recorded for the BENCH trajectory.
    """
    optimizer = make_gradient_optimizer(n_workers=1)
    n_variables = optimizer.parameterization.n_variables
    midpoint = optimizer.parameterization.midpoint_vector()

    # Counters: the batch must be a single solve_many of n+1 candidates.
    optimizer.engine.reset_stats()
    batched_gradient = optimizer.cost_gradient(midpoint)
    stats = optimizer.engine.stats()
    assert stats["n_batches"] == 1
    assert stats["n_batch_items"] == n_variables + 1
    assert stats["n_solves"] <= n_variables + 1

    def scalar():
        optimizer.engine.clear_cache()
        step = optimizer.settings.finite_difference_step
        base = optimizer.cost(midpoint)
        gradient = np.empty(n_variables)
        for variable in range(n_variables):
            perturbed = midpoint.copy()
            perturbed[variable] += step
            gradient[variable] = (optimizer.cost(perturbed) - base) / step
        return gradient

    np.testing.assert_allclose(batched_gradient, scalar(), rtol=1e-12, atol=0.0)

    scalar_time = best_time(scalar)
    times = {}
    for n_workers in (1, 4):
        worker_optimizer = (
            optimizer if n_workers == 1 else make_gradient_optimizer(n_workers)
        )

        def batched(worker_optimizer=worker_optimizer):
            worker_optimizer.engine.clear_cache()
            worker_optimizer.cost_gradient(midpoint)

        times[n_workers] = best_time(batched)
        emit_bench(
            {
                "benchmark": "optimizer_gradient",
                "n_variables": n_variables,
                "n_lanes": GRADIENT_LANES,
                "n_points": GRADIENT_POINTS,
                "n_workers": n_workers,
                "n_cpus": os.cpu_count(),
                "solves_per_iterate": n_variables + 1,
                "solve_many_calls_per_gradient": 1,
                "batched_gradient_s": times[n_workers],
                "scalar_gradient_s": scalar_time,
                "speedup": scalar_time / times[n_workers],
                "smoke": SMOKE,
            }
        )
    benchmark(lambda: optimizer.cost_gradient(midpoint))
    print()
    print(
        f"gradient of {n_variables} variables ({GRADIENT_LANES} lanes x "
        f"{GRADIENT_POINTS} points): scalar {scalar_time * 1e3:.1f} ms, "
        f"batched {times[1] * 1e3:.1f} ms @1 worker / "
        f"{times[4] * 1e3:.1f} ms @4 workers ({os.cpu_count()} cpus)"
    )


def test_optimizer_wall_time_adjoint_vs_fd_batched(benchmark):
    """Full SLSQP runs under the adjoint and the fd-batched gradient oracle."""
    iterations = 4 if SMOKE else 12
    rows = []
    for label, gradient_mode in (
        ("fd-batched gradients", "fd-batched"),
        ("adjoint gradients", "adjoint"),
    ):
        params = DEFAULT_EXPERIMENT.params
        geometry = ChannelGeometry.from_parameters(params)
        heat = [
            HeatInputProfile.from_areal_flux(
                50.0 + 20.0 * (lane % 4), geometry.pitch, geometry.length
            )
            for lane in range(GRADIENT_LANES)
        ]
        cavity = build_cavity(
            geometry,
            heat,
            heat,
            flow_rate=params.flow_rate_per_channel,
            inlet_temperature=params.inlet_temperature,
        )
        settings = OptimizerSettings(
            n_segments=GRADIENT_SEGMENTS,
            n_grid_points=GRADIENT_POINTS,
            max_iterations=iterations,
            gradient_mode=gradient_mode,
        )
        optimizer = ChannelModulationOptimizer(cavity, settings)
        start = time.perf_counter()
        result = optimizer.optimize()
        seconds = time.perf_counter() - start
        stats = optimizer.engine.stats()
        rows.append(
            {
                "path": label,
                "time_s": seconds,
                "n_solves": stats["n_solves"],
                "gradient_K": result.optimal.thermal_gradient,
            }
        )
        emit_bench(
            {
                "benchmark": "optimizer_wall_time",
                "path": label,
                "gradient_mode": gradient_mode,
                "n_workers": 1,
                "n_variables": optimizer.parameterization.n_variables,
                "n_lanes": GRADIENT_LANES,
                "n_points": GRADIENT_POINTS,
                "max_iterations": iterations,
                "time_s": seconds,
                "n_solves": stats["n_solves"],
                "optimal_gradient_K": result.optimal.thermal_gradient,
                "smoke": SMOKE,
            }
        )
    benchmark(lambda: None)  # timings above; keep the fixture satisfied
    print()
    print(f"full SLSQP runs ({iterations} iterations max):")
    print(format_table(rows))
    gradients = [row["gradient_K"] for row in rows]
    assert gradients[1] == gradients[0] or (
        abs(gradients[1] - gradients[0]) / max(gradients) < 0.25
    )
