"""Batched, cached steady-state evaluation engine.

Every experiment in the paper funnels through the finite-difference solver,
and the direct-sequential optimizer calls it hundreds of times per SLSQP
run through finite-difference gradients.  The :class:`EvaluationEngine`
gives all of those callers one code path with three properties:

* **bounded LRU solution cache** -- solutions are keyed on a structural
  fingerprint of the cavity (per-lane width/heat profiles, flow, grid
  size), so the optimizer's cost and constraint evaluations at the same
  iterate, repeated baseline evaluations, and `evaluate_design` calls on
  designs the optimizer already visited all reuse one solve.  Eviction is
  one least-recently-used entry at a time (the previous per-optimizer dict
  dropped all 4096 entries at once when it overflowed).
* **batched evaluation** -- :meth:`solve_many` deduplicates a batch of
  candidate structures and optionally fans the unique solves out over a
  ``concurrent.futures`` thread pool (``n_workers > 1``); used by the
  multistart schedule and the design-space-exploration sweeps.
* **observability** -- solve and cache-hit counters (:meth:`stats`) feed
  the scaling benchmarks and regression tests.

The engine is thread-safe; the solver backend is selected by name from
:mod:`repro.thermal.backends`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Hashable, List, Optional, Sequence

from ..thermal.fdm import solve_structure
from ..thermal.geometry import MultiChannelStructure, TestStructure
from ..thermal.solution import ThermalSolution

__all__ = ["EvaluationEngine", "COUNTER_KEYS"]

#: Sentinel meaning "derive the cache key from the structure fingerprint".
_AUTO_KEY = object()

#: Sentinel distinguishing "absent from the cache" from a cached None
#: (memoized factories may legitimately return None).
_MISSING = object()

#: The engine's monotonically-increasing solve/cache counters -- the
#: fields campaign aggregation sums across engines, sessions and worker
#: processes (:func:`EvaluationEngine.merge_stats`).
COUNTER_KEYS = (
    "n_solves",
    "n_cache_hits",
    "n_cache_misses",
    "n_evictions",
    "n_uncacheable",
    "n_batches",
    "n_batch_items",
    "n_adjoint_solves",
    "n_transpose_solves",
    "n_rom_builds",
    "n_rom_steps",
    "n_picard_iterations",
    "n_picard_fallbacks",
)


class EvaluationEngine:
    """One solve path for optimizer candidates, baselines and sweeps.

    Parameters
    ----------
    solver_backend:
        Name of the linear-solver backend (see
        :func:`repro.thermal.backends.available_backends`) or a backend
        instance; ``"auto"`` picks dense/sparse by system size.
    cache_size:
        Maximum number of cached :class:`ThermalSolution` objects; the
        least recently used entry is evicted first.
    n_workers:
        Thread-pool width used by :meth:`solve_many`; 1 (default) solves
        sequentially.
    """

    def __init__(
        self,
        solver_backend: str = "auto",
        cache_size: int = 4096,
        n_workers: int = 1,
    ) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        self.solver_backend = solver_backend
        self.cache_size = int(cache_size)
        self.n_workers = int(n_workers)
        self._cache: "OrderedDict[Hashable, ThermalSolution]" = OrderedDict()
        self._lock = threading.RLock()
        self.n_solves = 0
        self.n_cache_hits = 0
        self.n_cache_misses = 0
        self.n_evictions = 0
        self.n_uncacheable = 0
        self.n_batches = 0
        self.n_batch_items = 0
        self.n_adjoint_solves = 0
        self.n_transpose_solves = 0
        self.n_rom_builds = 0
        self.n_rom_steps = 0
        self.n_picard_iterations = 0
        self.n_picard_fallbacks = 0

    # -- cache keys ---------------------------------------------------------

    @staticmethod
    def structure_key(structure, n_points: int) -> Optional[tuple]:
        """Hashable fingerprint of a structure + grid, or None.

        The key covers everything the finite-difference solver reads:
        per-lane width/heat profiles, flow rates and directions, per-lane
        geometry and material records (the solver evaluates conductances
        per lane, and lanes are only validated to share length, coolant
        and inlet temperature), clustering, lateral coupling, the
        cavity-level geometry and the grid resolution.  Structures with
        callable (non-fingerprintable) profiles return None and are never
        cached.
        """
        if isinstance(structure, TestStructure):
            structure = MultiChannelStructure.single(structure)
        if not isinstance(structure, MultiChannelStructure):
            return None
        lanes = []
        for lane in structure.lanes:
            width = lane.width_profile.fingerprint()
            heat_top = lane.heat_top.fingerprint()
            heat_bottom = lane.heat_bottom.fingerprint()
            if width is None or heat_top is None or heat_bottom is None:
                return None
            lanes.append(
                (
                    width,
                    heat_top,
                    heat_bottom,
                    lane.flow_rate,
                    lane.flow_reversed,
                    lane.developing_flow,
                    lane.inlet_temperature,
                    lane.geometry,
                    lane.silicon,
                )
            )
        return (
            int(n_points),
            tuple(lanes),
            structure.cluster_size,
            structure.lane_cluster_sizes,
            structure.lateral_coupling,
            structure.geometry,
            structure.coolant,
        )

    def _derive_key(self, structure, n_points: int, solver_kwargs) -> Optional[tuple]:
        """Structure fingerprint extended with any extra solver options.

        Options forwarded to the solver (``lane_pitch``, ``backend``,
        ``coolant_model``, ...) change the solution, so they must be part of
        the cache key; unhashable option values make the call uncacheable.
        """
        base = self.structure_key(structure, n_points)
        if base is None or not solver_kwargs:
            return base
        try:
            extra = tuple(sorted(solver_kwargs.items()))
            hash(extra)
        except TypeError:
            return None
        return base + (extra,)

    # -- solving ------------------------------------------------------------

    def solve(
        self,
        structure=None,
        *,
        n_points: int,
        key=_AUTO_KEY,
        structure_factory: Optional[Callable[[], object]] = None,
        **solver_kwargs,
    ) -> ThermalSolution:
        """Cached steady-state solve of one structure.

        Either ``structure`` or ``structure_factory`` must be given; the
        factory is only invoked on a cache miss (callers that would build a
        candidate structure from a decision vector can skip that work when
        the solution is already cached -- in that case pass an explicit
        ``key``).  ``key=None`` disables caching for this call.
        """
        if structure is None and structure_factory is None:
            raise ValueError("either structure or structure_factory is required")
        if key is _AUTO_KEY:
            if structure is None:
                raise ValueError(
                    "an explicit key is required when only a factory is given"
                )
            key = self._derive_key(structure, n_points, solver_kwargs)
        if key is not None:
            with self._lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self.n_cache_hits += 1
                    return cached
                self.n_cache_misses += 1
        else:
            with self._lock:
                self.n_uncacheable += 1
        if structure is None:
            structure = structure_factory()
        solution = solve_structure(
            structure,
            n_points=n_points,
            backend=self.solver_backend,
            **solver_kwargs,
        )
        picard_info = solution.metadata.get("picard")
        with self._lock:
            self.n_solves += 1
            if picard_info is not None:
                self.n_picard_iterations += int(picard_info["n_iterations"])
                self.n_picard_fallbacks += int(bool(picard_info["fell_back"]))
            if key is not None:
                self._cache[key] = solution
                self._cache.move_to_end(key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
                    self.n_evictions += 1
        return solution

    def solve_many(
        self,
        structures: Sequence[object],
        *,
        n_points: int,
        **solver_kwargs,
    ) -> List[ThermalSolution]:
        """Solve a batch of structures, deduplicated and optionally parallel.

        Already-cached candidates are gathered up front (one cache hit per
        item); duplicate cacheable candidates (same fingerprint) are solved
        once and shared across their batch positions without extra cache
        traffic; all outstanding solves -- cacheable misses and uncacheable
        (callable-profile) structures alike -- are fanned out over a thread
        pool when the engine was created with ``n_workers > 1``.  Each task
        returns its solution directly, so the gather phase never re-derives
        keys or re-enters :meth:`solve` (a solution evicted mid-batch is
        not silently solved twice).  Results come back in input order.
        """
        keys = [
            self._derive_key(structure, n_points, solver_kwargs)
            for structure in structures
        ]
        results: List[Optional[ThermalSolution]] = [None] * len(structures)
        pending: "Dict[Hashable, List[int]]" = {}
        uncacheable: List[int] = []
        with self._lock:
            self.n_batches += 1
            self.n_batch_items += len(structures)
        for index, key in enumerate(keys):
            if key is None:
                uncacheable.append(index)
                continue
            with self._lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self.n_cache_hits += 1
                    results[index] = cached
                    continue
            pending.setdefault(key, []).append(index)

        def solve_pending(item):
            key, indices = item
            solution = self.solve(
                structures[indices[0]], n_points=n_points, key=key, **solver_kwargs
            )
            return indices, solution

        def solve_uncacheable(index):
            solution = self.solve(
                structures[index], n_points=n_points, key=None, **solver_kwargs
            )
            return [index], solution

        tasks = [lambda item=item: solve_pending(item) for item in pending.items()]
        tasks += [lambda index=index: solve_uncacheable(index) for index in uncacheable]
        if self.n_workers > 1 and len(tasks) > 1:
            with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
                outcomes = list(pool.map(lambda task: task(), tasks))
        else:
            outcomes = [task() for task in tasks]
        for indices, solution in outcomes:
            for index in indices:
                results[index] = solution
        return results

    def solve_transpose(self, matrix, rhs, pattern_token=None):
        """Solve ``A^T x = rhs`` through the engine's solver backend.

        The adjoint gradient path calls this with the matrix of the most
        recent forward assembly; the direct backends then reuse the cached
        forward factorization (SuperLU solves the transposed system from
        the same decomposition), so the adjoint costs one triangular solve.
        """
        from ..thermal.backends import resolve_backend

        backend = resolve_backend(self.solver_backend)
        with self._lock:
            self.n_transpose_solves += 1
        return backend.solve_transpose(matrix, rhs, pattern_token)

    def count_adjoint_solve(self) -> None:
        """Record one completed adjoint gradient evaluation."""
        with self._lock:
            self.n_adjoint_solves += 1

    def memo(self, key: Hashable, factory: Callable[[], object]) -> object:
        """Explicitly-keyed memoization sharing the engine's LRU cache.

        Producers other than the steady finite-difference solve -- e.g.
        the finite-volume transient engine, which keys whole transient
        outcomes on scenario content hashes -- use this to get the same
        bounded cache, eviction policy and hit/miss accounting as
        :meth:`solve`.  ``factory`` is invoked only on a miss.  Callers
        own key hygiene: prefix keys with a producer tag so they can never
        collide with structure fingerprints.
        """
        with self._lock:
            cached = self._cache.get(key, _MISSING)
            if cached is not _MISSING:
                self._cache.move_to_end(key)
                self.n_cache_hits += 1
                return cached
            self.n_cache_misses += 1
        value = factory()
        with self._lock:
            self._cache[key] = value
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
                self.n_evictions += 1
        return value

    # -- management ---------------------------------------------------------

    def clear_cache(self) -> None:
        """Drop every cached solution (counters are kept)."""
        with self._lock:
            self._cache.clear()

    def reset_stats(self) -> None:
        """Zero the solve/cache counters (the cache itself is kept)."""
        with self._lock:
            self.n_solves = 0
            self.n_cache_hits = 0
            self.n_cache_misses = 0
            self.n_evictions = 0
            self.n_uncacheable = 0
            self.n_batches = 0
            self.n_batch_items = 0
            self.n_adjoint_solves = 0
            self.n_transpose_solves = 0
            self.n_rom_builds = 0
            self.n_rom_steps = 0
            self.n_picard_iterations = 0
            self.n_picard_fallbacks = 0

    @property
    def cache_len(self) -> int:
        """Number of solutions currently cached."""
        with self._lock:
            return len(self._cache)

    def stats(self) -> Dict[str, object]:
        """Solve and cache counters for benchmarks and reports."""
        with self._lock:
            lookups = self.n_cache_hits + self.n_cache_misses
            return {
                "backend": getattr(
                    self.solver_backend, "name", self.solver_backend
                ),
                "n_workers": self.n_workers,
                "cache_size": self.cache_size,
                "cache_len": len(self._cache),
                "n_solves": self.n_solves,
                "n_cache_hits": self.n_cache_hits,
                "n_cache_misses": self.n_cache_misses,
                "n_evictions": self.n_evictions,
                "n_uncacheable": self.n_uncacheable,
                "n_batches": self.n_batches,
                "n_batch_items": self.n_batch_items,
                "n_adjoint_solves": self.n_adjoint_solves,
                "n_transpose_solves": self.n_transpose_solves,
                "n_rom_builds": self.n_rom_builds,
                "n_rom_steps": self.n_rom_steps,
                "n_picard_iterations": self.n_picard_iterations,
                "n_picard_fallbacks": self.n_picard_fallbacks,
                "hit_rate": (self.n_cache_hits / lookups) if lookups else 0.0,
            }

    @staticmethod
    def merge_stats(stats_list: Sequence[Dict[str, object]]) -> Dict[str, object]:
        """Sum counter fields across several :meth:`stats` payloads.

        Used by campaigns to aggregate solve/cache activity across the
        engines of one session and across worker processes; the hit rate
        is recomputed from the merged totals.
        """
        merged: Dict[str, object] = dict.fromkeys(COUNTER_KEYS, 0)
        for stats in stats_list:
            for key in COUNTER_KEYS:
                merged[key] += int(stats.get(key, 0))
        lookups = merged["n_cache_hits"] + merged["n_cache_misses"]
        merged["hit_rate"] = (merged["n_cache_hits"] / lookups) if lookups else 0.0
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        stats = self.stats()
        return (
            f"<EvaluationEngine backend={stats['backend']!r} "
            f"cache={stats['cache_len']}/{stats['cache_size']} "
            f"hits={stats['n_cache_hits']} solves={stats['n_solves']}>"
        )
