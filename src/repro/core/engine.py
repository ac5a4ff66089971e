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
* **the forward slot** -- besides the LRU, the engine keeps ONE slot with
  the most recent forward solve: its structure key, its
  :class:`~repro.thermal.assembly.AssembledSystem` and the
  :class:`~repro.thermal.backends.FactorizationHandle` it was solved
  through.  :meth:`forward_solve` hands the three to the adjoint gradient,
  which SLSQP asks for at the iterate it has just evaluated, so the
  transpose solve needs neither a second assembly nor a content lookup.
  One slot is enough for that access pattern; keeping a system and a
  factor next to every cached solution would pin them for the whole LRU.
  Water-Picard solves publish no slot (their final matrix is not the
  assembled one).
* **observability** -- solve and cache-hit counters (:meth:`stats`) feed
  the scaling benchmarks and regression tests.

The engine is thread-safe; the solver backend is selected by name from
:mod:`repro.thermal.backends`.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..thermal.assembly import AssembledSystem, assemble_system
from ..thermal.backends import FactorizationHandle, resolve_backend
from ..thermal.fdm import solve_structure
from ..thermal.geometry import MultiChannelStructure, TestStructure
from ..thermal.solution import ThermalSolution
from .lru import BoundedLRU

__all__ = ["EvaluationEngine", "COUNTER_KEYS"]

#: Sentinel meaning "derive the cache key from the structure fingerprint".
_AUTO_KEY = object()

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

#: Counters the engine's LRU keeps itself, with their LRU stats names.
_LRU_COUNTERS = {
    "n_cache_hits": "n_hits",
    "n_cache_misses": "n_misses",
    "n_evictions": "n_evictions",
}


def picard_counts(metadata: Dict[str, object]) -> Dict[str, int]:
    """Counter deltas of the water-Picard record in a solution's metadata."""
    picard = metadata.get("picard")
    if picard is None:
        return {}
    return {
        "n_picard_iterations": int(picard["n_iterations"]),
        "n_picard_fallbacks": int(bool(picard["fell_back"])),
    }


class EvaluationEngine:
    """One solve path for optimizer candidates, baselines and sweeps.

    Parameters
    ----------
    solver_backend:
        Name of the linear-solver backend (see
        :func:`repro.thermal.backends.available_backends`) or a backend
        instance; ``"auto"`` hands out ``"sparse-lu"`` at every size.
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
        self._cache = BoundedLRU(self.cache_size)
        #: ``(key, system, handle)`` of the most recent forward solve, or None.
        self._forward: Optional[tuple] = None
        self._lock = threading.Lock()
        self._counters = {
            key: 0 for key in COUNTER_KEYS if key not in _LRU_COUNTERS
        }

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
        structure,
        *,
        n_points: int,
        key=_AUTO_KEY,
        **solver_kwargs,
    ) -> ThermalSolution:
        """Cached steady-state solve of one structure.

        ``key`` defaults to the structure's fingerprint; :meth:`solve_many`
        passes the key it already derived.  ``key=None`` disables caching
        for this call.
        """
        if key is _AUTO_KEY:
            key = self._derive_key(structure, n_points, solver_kwargs)

        def compute() -> ThermalSolution:
            solution = solve_structure(
                structure,
                n_points=n_points,
                backend=self.solver_backend,
                on_forward=None if key is None else partial(self._remember, key),
                **solver_kwargs,
            )
            self.count(n_solves=1, **picard_counts(solution.metadata))
            return solution

        if key is None:
            self.count(n_uncacheable=1)
            return compute()
        return self._cache.get_or_build(key, compute)[0]

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
        self.count(n_batches=1, n_batch_items=len(structures))
        for index, key in enumerate(keys):
            if key is None:
                uncacheable.append(index)
                continue
            # Structure keys only ever map to solutions, never to None.
            results[index] = self._cache.get(key)
            if results[index] is None:
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

    def _remember(self, key, system: AssembledSystem, handle) -> None:
        """Publish a forward solve into the slot (``on_forward`` callback)."""
        with self._lock:
            self._forward = (key, system, handle)

    def forward_solve(
        self, structure, *, n_points: int
    ) -> Tuple[ThermalSolution, AssembledSystem, FactorizationHandle]:
        """``(solution, system, handle)`` of the steady solve of a cavity.

        ``structure`` is a
        :class:`~repro.thermal.geometry.MultiChannelStructure`.  The solution comes from :meth:`solve` (cached); the system and the
        factorization handle come from the forward slot when its key is
        this structure's -- no assembly and no content hash.  On a slot miss
        (an iterate that was not the most recent forward solve, or a
        cleared engine) they are rebuilt: one assembly, then one content
        lookup through the backend's
        :meth:`~repro.thermal.backends.SolverBackend.solver_for`.
        """
        key = self._derive_key(structure, n_points, {})
        solution = self.solve(structure, n_points=n_points, key=key)
        with self._lock:
            slot = self._forward
        if key is not None and slot is not None and slot[0] == key:
            return solution, slot[1], slot[2]
        system = assemble_system(structure, n_points=n_points)
        handle = resolve_backend(self.solver_backend).solver_for(
            system.matrix, system.pattern_token
        )
        return solution, system, handle

    def count(self, **deltas: int) -> None:
        """Add ``deltas`` to the named counters, atomically.

        Every counter update -- the engine's own and those of callers that
        share it (adjoint gradients, Picard passes and ROM activity of the
        finite-volume simulator) -- goes through here, under the engine
        lock.  The cache counters are the LRU's and cannot be counted.
        """
        with self._lock:
            for name, delta in deltas.items():
                self._counters[name] += delta

    def memo(self, key: Hashable, factory: Callable[[], object]) -> object:
        """Explicitly-keyed memoization sharing the engine's LRU cache.

        Producers other than the steady finite-difference solve -- e.g.
        the finite-volume transient engine, which keys whole transient
        outcomes on scenario content hashes -- use this to get the same
        bounded cache, eviction policy and hit/miss accounting as
        :meth:`solve`.  ``factory`` is invoked only on a miss, and ``None``
        results are cached too.  Callers own key hygiene: prefix keys with
        a producer tag so they can never collide with structure
        fingerprints.
        """
        return self._cache.get_or_build(key, factory)[0]

    # -- management ---------------------------------------------------------

    def clear_cache(self) -> None:
        """Drop every cached solution and the forward slot (counters are kept)."""
        self._cache.clear()
        with self._lock:
            self._forward = None

    def reset_stats(self) -> None:
        """Zero the solve/cache counters (the cache itself is kept)."""
        with self._lock:
            self._counters = dict.fromkeys(self._counters, 0)
            self._cache.reset_stats()

    @property
    def cache_len(self) -> int:
        """Number of solutions currently cached."""
        return self._cache.stats()["size"]

    def stats(self) -> Dict[str, object]:
        """Solve and cache counters for benchmarks and reports."""
        with self._lock:
            counters = dict(self._counters)
            cache = self._cache.stats()
        counters.update(
            (name, cache[lru_name]) for name, lru_name in _LRU_COUNTERS.items()
        )
        lookups = counters["n_cache_hits"] + counters["n_cache_misses"]
        return {
            "backend": getattr(self.solver_backend, "name", self.solver_backend),
            "n_workers": self.n_workers,
            "cache_size": cache["capacity"],
            "cache_len": cache["size"],
            **{key: counters[key] for key in COUNTER_KEYS},
            "hit_rate": (counters["n_cache_hits"] / lookups) if lookups else 0.0,
        }

    @staticmethod
    def merge_stats(stats_list: Iterable[Dict[str, object]]) -> Dict[str, object]:
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
