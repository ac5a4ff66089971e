"""Tests of the batched, LRU-cached evaluation engine.

Covers the two cache bugs this engine replaced (the clear-all eviction at
4096 entries and ``evaluate_design`` bypassing the cache), the LRU
bound/eviction order, batched evaluation with and without worker threads,
the solve/cache counters the benchmarks rely on, and counter totals when
threads share one engine.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import ICESimulator
from repro.core import ChannelModulationOptimizer, EvaluationEngine, OptimizerSettings
from repro.core.engine import COUNTER_KEYS
from repro.scenarios import (
    GridSpec,
    PolicySpec,
    RomSpec,
    ScenarioSpec,
    SolverSpec,
    TraceSpec,
    TransientSpec,
    WorkloadSpec,
    get_scenario,
)
from repro.thermal.geometry import WidthProfile


SETTINGS = OptimizerSettings(n_segments=3, n_grid_points=41)


@pytest.fixture()
def optimizer(test_a):
    return ChannelModulationOptimizer(test_a, SETTINGS)


def _uniform_structures(structure, widths, geometry):
    return [structure.with_uniform_width(float(width)) for width in widths]


class TestEngineCache:
    def test_repeat_solve_hits_cache(self, test_a):
        engine = EvaluationEngine()
        first = engine.solve(test_a, n_points=41)
        second = engine.solve(test_a, n_points=41)
        assert first is second
        stats = engine.stats()
        assert stats["n_solves"] == 1
        assert stats["n_cache_hits"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_different_grid_is_different_entry(self, test_a):
        engine = EvaluationEngine()
        a = engine.solve(test_a, n_points=41)
        b = engine.solve(test_a, n_points=61)
        assert a is not b
        assert engine.stats()["n_solves"] == 2

    def test_callable_profiles_are_uncacheable(self, test_a, geometry):
        engine = EvaluationEngine()
        profile = WidthProfile.from_function(
            lambda z: np.full_like(z, geometry.max_width), geometry.length
        )
        modulated = test_a.with_width_profile(profile)
        engine.solve(modulated, n_points=41)
        engine.solve(modulated, n_points=41)
        stats = engine.stats()
        assert stats["n_uncacheable"] == 2
        assert stats["n_solves"] == 2
        assert stats["cache_len"] == 0

    def test_per_lane_material_differences_do_not_collide(self, test_a):
        """Regression: the key must cover non-first-lane geometry/materials."""
        from dataclasses import replace

        from repro.thermal.geometry import MultiChannelStructure
        from repro.thermal.properties import SolidMaterial

        base = MultiChannelStructure.single(test_a)
        two_lane = replace(base, lanes=(base.lanes[0], base.lanes[0]))
        softer = SolidMaterial(
            name="low-k silicon",
            thermal_conductivity=test_a.silicon.thermal_conductivity / 5.0,
            volumetric_heat_capacity=test_a.silicon.volumetric_heat_capacity,
        )
        variant = replace(
            two_lane,
            lanes=(two_lane.lanes[0], replace(two_lane.lanes[1], silicon=softer)),
        )
        engine = EvaluationEngine()
        first = engine.solve(two_lane, n_points=41)
        second = engine.solve(variant, n_points=41)
        assert engine.stats()["n_solves"] == 2
        assert not np.allclose(first.temperatures, second.temperatures)

    def test_solver_options_are_part_of_the_key(self, test_a):
        """Regression: solver options such as lane_pitch change the answer,
        so they must not collide in the cache."""
        from dataclasses import replace

        from repro.thermal.geometry import HeatInputProfile, MultiChannelStructure

        base = MultiChannelStructure.single(test_a)
        hot = replace(
            base.lanes[0],
            heat_top=HeatInputProfile.from_areal_flux(
                250.0, test_a.geometry.pitch, test_a.geometry.length
            ),
        )
        cavity = replace(base, lanes=(hot, base.lanes[0]))
        engine = EvaluationEngine()
        near = engine.solve(cavity, n_points=41, lane_pitch=test_a.geometry.pitch)
        far = engine.solve(
            cavity, n_points=41, lane_pitch=100.0 * test_a.geometry.pitch
        )
        assert engine.stats()["n_solves"] == 2
        assert not np.allclose(near.temperatures, far.temperatures)
        # Repeating either call is still a cache hit.
        again = engine.solve(cavity, n_points=41, lane_pitch=test_a.geometry.pitch)
        assert again is near

    def test_explicit_key_none_disables_caching(self, test_a):
        engine = EvaluationEngine()
        engine.solve(test_a, n_points=41, key=None)
        assert engine.cache_len == 0

    def test_requires_structure(self):
        engine = EvaluationEngine()
        with pytest.raises(TypeError):
            engine.solve(n_points=41)

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            EvaluationEngine(cache_size=0)
        with pytest.raises(ValueError):
            EvaluationEngine(n_workers=0)


class TestLRUEviction:
    def test_hit_counts_survive_crossing_the_capacity(self, test_a, geometry):
        """Regression for the old clear-all eviction at 4096 entries.

        The previous per-optimizer dict dropped *every* cached solution
        when it overflowed, so entry N was gone right after entry
        N+capacity was inserted.  The LRU must instead keep the most
        recently used entries: re-solving the most recent designs after
        crossing the capacity must still hit the cache.
        """
        from repro.thermal.geometry import MultiChannelStructure

        cavity = MultiChannelStructure.single(test_a)
        capacity = 8
        engine = EvaluationEngine(cache_size=capacity)
        widths = np.linspace(
            geometry.min_width, geometry.max_width, capacity + 3
        )
        structures = _uniform_structures(cavity, widths, geometry)
        for structure in structures:
            engine.solve(structure, n_points=41)
        stats = engine.stats()
        assert stats["cache_len"] == capacity
        assert stats["n_evictions"] == 3
        # The last `capacity` designs must all still be cached ...
        before = engine.stats()["n_solves"]
        for structure in structures[-capacity:]:
            engine.solve(structure, n_points=41)
        assert engine.stats()["n_solves"] == before
        # ... while the oldest three were evicted one at a time.
        engine.solve(structures[0], n_points=41)
        assert engine.stats()["n_solves"] == before + 1

    def test_lru_order_refreshed_on_hit(self, test_a, geometry):
        from repro.thermal.geometry import MultiChannelStructure

        cavity = MultiChannelStructure.single(test_a)
        engine = EvaluationEngine(cache_size=2)
        widths = np.linspace(geometry.min_width, geometry.max_width, 3)
        first, second, third = _uniform_structures(cavity, widths, geometry)
        engine.solve(first, n_points=41)
        engine.solve(second, n_points=41)
        engine.solve(first, n_points=41)  # refresh "first"
        engine.solve(third, n_points=41)  # evicts "second", not "first"
        solves = engine.stats()["n_solves"]
        engine.solve(first, n_points=41)
        assert engine.stats()["n_solves"] == solves
        engine.solve(second, n_points=41)
        assert engine.stats()["n_solves"] == solves + 1


class TestBatchedEvaluation:
    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_solve_many_matches_sequential(self, test_a, geometry, n_workers):
        from repro.thermal.geometry import MultiChannelStructure

        cavity = MultiChannelStructure.single(test_a)
        widths = np.linspace(geometry.min_width, geometry.max_width, 5)
        structures = _uniform_structures(cavity, widths, geometry)
        reference = EvaluationEngine().solve_many(structures, n_points=41)
        batched = EvaluationEngine(n_workers=n_workers).solve_many(
            structures, n_points=41
        )
        for ref, got in zip(reference, batched):
            np.testing.assert_allclose(
                got.temperatures, ref.temperatures, rtol=0.0, atol=1e-8
            )

    def test_uncacheable_structures_still_solved_in_batch(self, test_a, geometry):
        """Regression: callable-profile structures must not be dropped from
        (or serialized out of) the batch."""
        engine = EvaluationEngine(n_workers=4)
        profiles = [
            WidthProfile.from_function(
                lambda z, s=scale: np.full_like(z, geometry.max_width * s),
                geometry.length,
            )
            for scale in (0.5, 0.75, 1.0)
        ]
        structures = [test_a.with_width_profile(profile) for profile in profiles]
        solutions = engine.solve_many(structures, n_points=41)
        assert len(solutions) == 3
        assert all(solution is not None for solution in solutions)
        assert engine.stats()["n_solves"] == 3
        assert engine.cache_len == 0
        # Narrower channels cool better: the fields must actually differ.
        assert solutions[0].peak_temperature < solutions[2].peak_temperature

    def test_duplicates_solved_once(self, test_a, geometry):
        from repro.thermal.geometry import MultiChannelStructure

        cavity = MultiChannelStructure.single(test_a)
        structure = cavity.with_uniform_width(geometry.max_width)
        engine = EvaluationEngine(n_workers=2)
        solutions = engine.solve_many([structure] * 6, n_points=41)
        assert engine.stats()["n_solves"] == 1
        assert all(solution is solutions[0] for solution in solutions)

    def test_batch_counters(self, test_a, geometry):
        from repro.thermal.geometry import MultiChannelStructure

        cavity = MultiChannelStructure.single(test_a)
        widths = np.linspace(geometry.min_width, geometry.max_width, 4)
        structures = _uniform_structures(cavity, widths, geometry)
        engine = EvaluationEngine()
        engine.solve_many(structures, n_points=41)
        engine.solve_many(structures, n_points=41)
        stats = engine.stats()
        assert stats["n_batches"] == 2
        assert stats["n_batch_items"] == 8
        assert stats["n_solves"] == 4

    def test_gather_uses_task_solutions_not_cache(self, test_a, geometry):
        """Regression: the gather phase must not re-enter solve().

        With a cache smaller than the batch, every solution is evicted
        before the batch ends; the old gather re-solved each one silently.
        Gathering from the task results keeps it at one solve per unique
        design regardless of evictions.
        """
        from repro.thermal.geometry import MultiChannelStructure

        cavity = MultiChannelStructure.single(test_a)
        widths = np.linspace(geometry.min_width, geometry.max_width, 6)
        structures = _uniform_structures(cavity, widths, geometry)
        engine = EvaluationEngine(cache_size=2)
        solutions = engine.solve_many(structures, n_points=41)
        assert all(solution is not None for solution in solutions)
        assert engine.stats()["n_solves"] == len(structures)
        # The fields must belong to the right designs (narrow = coolest).
        peaks = [solution.peak_temperature for solution in solutions]
        assert peaks == sorted(peaks)

    def test_cached_items_gathered_without_solving(self, test_a, geometry):
        from repro.thermal.geometry import MultiChannelStructure

        cavity = MultiChannelStructure.single(test_a)
        structure = cavity.with_uniform_width(geometry.max_width)
        engine = EvaluationEngine()
        first = engine.solve(structure, n_points=41)
        hits_before = engine.stats()["n_cache_hits"]
        solutions = engine.solve_many([structure, structure], n_points=41)
        assert all(solution is first for solution in solutions)
        assert engine.stats()["n_cache_hits"] == hits_before + 2
        assert engine.stats()["n_solves"] == 1


class TestOptimizerIntegration:
    def test_solve_candidate_served_by_engine(self, optimizer):
        vector = optimizer.parameterization.midpoint_vector()
        first = optimizer.solve_candidate(vector)
        second = optimizer.solve_candidate(vector)
        assert first is second
        assert optimizer.engine.stats()["n_cache_hits"] >= 1

    def test_evaluate_design_routed_through_cache(self, optimizer):
        """Regression: evaluate_design used to bypass the solution cache."""
        vector = optimizer.parameterization.midpoint_vector()
        optimizer.solve_candidate(vector)
        solves_before = optimizer.engine.stats()["n_solves"]
        profiles = optimizer.parameterization.profiles_from_vector(vector)
        evaluation = optimizer.evaluate_design(profiles, "revisited design")
        assert optimizer.engine.stats()["n_solves"] == solves_before
        assert evaluation.solution is optimizer.solve_candidate(vector)

    def test_evaluate_candidates_batches(self, optimizer):
        vectors = [
            optimizer.parameterization.midpoint_vector(),
            np.zeros(optimizer.parameterization.n_variables),
            np.ones(optimizer.parameterization.n_variables),
        ]
        solutions = optimizer.evaluate_candidates(vectors)
        assert len(solutions) == 3
        # Re-evaluating the same vectors is pure cache hits.
        before = optimizer.engine.stats()["n_solves"]
        optimizer.evaluate_candidates(vectors)
        assert optimizer.engine.stats()["n_solves"] == before

    def test_settings_thread_through_to_engine(self, test_a):
        settings = OptimizerSettings(
            n_segments=3,
            n_grid_points=41,
            solver_backend="dense",
            n_workers=2,
            cache_size=17,
        )
        optimizer = ChannelModulationOptimizer(test_a, settings)
        stats = optimizer.engine.stats()
        assert stats["backend"] == "dense"
        assert stats["n_workers"] == 2
        assert stats["cache_size"] == 17

    def test_shared_engine_across_optimizers(self, test_a):
        engine = EvaluationEngine()
        first = ChannelModulationOptimizer(test_a, SETTINGS, engine=engine)
        second = ChannelModulationOptimizer(test_a, SETTINGS, engine=engine)
        vector = first.parameterization.midpoint_vector()
        first.solve_candidate(vector)
        solves = engine.stats()["n_solves"]
        second.solve_candidate(vector)
        assert engine.stats()["n_solves"] == solves


class TestStatsManagement:
    def test_clear_cache_keeps_counters(self, test_a):
        engine = EvaluationEngine()
        engine.solve(test_a, n_points=41)
        engine.clear_cache()
        assert engine.cache_len == 0
        assert engine.stats()["n_solves"] == 1

    def test_reset_stats_keeps_cache(self, test_a):
        engine = EvaluationEngine()
        engine.solve(test_a, n_points=41)
        engine.reset_stats()
        assert engine.stats()["n_solves"] == 0
        assert engine.cache_len == 1
        engine.solve(test_a, n_points=41)
        assert engine.stats()["n_cache_hits"] == 1


def _rom_transient_spec(high: float) -> ScenarioSpec:
    """A small ROM-integrated Test A burst; ``high`` makes each spec distinct."""
    return ScenarioSpec(
        name=f"rom-burst-{high:g}",
        workload=WorkloadSpec(kind="test-a"),
        grid=GridSpec(n_grid_points=61, n_lanes=1, n_rows=1, n_cols=16),
        solver=SolverSpec(simulator="ice"),
        transient=TransientSpec(
            duration_s=0.2,
            time_step_s=0.01,
            traces=(
                TraceSpec(
                    layer="top_die",
                    kind="periodic",
                    period_s=0.08,
                    duty=0.5,
                    high=high,
                    low=20.0,
                ),
            ),
            policy=PolicySpec(kind="constant", control_interval_s=0.05),
            store_every=2,
            threshold_K=320.0,
            rom=RomSpec(mode="rom", order=30),
        ),
    )


class _YieldingCounters(dict):
    """Counter table that yields the GIL between reading and writing a count."""

    def __getitem__(self, key):
        value = super().__getitem__(key)
        time.sleep(0)
        return value


class TestConcurrentCounters:
    """Threads sharing one engine (the thread executor) lose no counts."""

    def test_count_is_atomic(self):
        engine = EvaluationEngine()
        # A read-modify-write outside the engine lock loses updates here.
        engine._counters = _YieldingCounters(engine._counters)

        def work(_):
            for _ in range(200):
                engine.count(n_rom_steps=1, n_picard_iterations=2)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(work, range(4)))
        stats = engine.stats()
        assert stats["n_rom_steps"] == 800
        assert stats["n_picard_iterations"] == 1600

    def test_count_rejects_cache_counters(self):
        # The cache counters are the LRU's; nothing else may move them.
        with pytest.raises(KeyError):
            EvaluationEngine().count(n_cache_hits=1)

    def _counters(self, specs, n_threads):
        engine = EvaluationEngine()
        simulator = ICESimulator(engine)
        if n_threads == 1:
            for spec in specs:
                simulator.run(spec)
        else:
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                list(pool.map(simulator.run, specs))
        stats = engine.stats()
        return {key: stats[key] for key in COUNTER_KEYS}

    def test_threaded_totals_equal_serial_totals(self):
        water = get_scenario("test-a").with_overrides(coolant_model="water")
        specs = [water] * 8 + [
            _rom_transient_spec(high) for high in (80.0, 100.0, 120.0, 140.0)
        ]
        serial = self._counters(specs, n_threads=1)
        assert serial["n_picard_iterations"] >= 8
        assert serial["n_rom_builds"] >= 1
        assert serial["n_rom_steps"] >= 4
        assert serial["n_cache_misses"] == 4
        interval = sys.getswitchinterval()
        # Switch threads as often as possible to provoke interleavings.
        sys.setswitchinterval(1e-6)
        try:
            threaded = self._counters(specs, n_threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
