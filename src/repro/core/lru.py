"""The one bounded, thread-safe LRU cache of the solve stack.

Every cache between a scenario and its linear solves -- the floorplan
raster memo, the engine's solution/memo cache, the per-shape sparsity
patterns of both model families, the finite-volume model's flow-free
stack bases, and ``sparse-lu``'s factorization plans and factorizations
-- is a :class:`BoundedLRU`, so they share one eviction policy, one
locking discipline and one set of statistics.  Reduced-order models are
not cached: each belongs to the transient run that built it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Tuple

__all__ = ["BoundedLRU"]


class BoundedLRU:
    """Least-recently-used cache of at most ``capacity`` entries.

    ``capacity=0`` keeps nothing: every lookup misses and every built
    value is handed back without being stored.  ``None`` is a cacheable
    value.  Factories run outside the lock, so concurrent builders of one
    key may race; the first insertion wins and later builders get the
    stored value back.  :meth:`stats` reports the same keys for every
    cache: ``size``, ``capacity``, ``n_hits``, ``n_misses`` and
    ``n_evictions``.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._counts = {"n_hits": 0, "n_misses": 0, "n_evictions": 0}

    def get_or_build(
        self, key: Hashable, factory: Callable[[], object]
    ) -> Tuple[object, bool]:
        """``(value, built)``: the cached value, or ``factory()`` on a miss.

        ``built`` is True when this call's value is the one that ended up
        in the cache (or would have, at ``capacity=0``); a builder that
        lost a race to another insertion gets that value and False.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._counts["n_hits"] += 1
                return self._entries[key], False
            self._counts["n_misses"] += 1
        value = factory()
        with self._lock:
            if key in self._entries:
                return self._entries[key], False
            if self.capacity:
                self._entries[key] = value
                if len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self._counts["n_evictions"] += 1
        return value, True

    def get(self, key: Hashable, default: object = None) -> object:
        """The cached value (a counted hit, refreshing recency), or ``default``.

        A miss is not counted: callers probe with :meth:`get` before they
        build through :meth:`get_or_build`, which counts it.
        """
        with self._lock:
            if key not in self._entries:
                return default
            self._entries.move_to_end(key)
            self._counts["n_hits"] += 1
            return self._entries[key]

    def values(self) -> List[object]:
        """Snapshot of the cached values, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        """Drop every entry (the statistics are kept)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters (the entries are kept)."""
        with self._lock:
            self._counts = dict.fromkeys(self._counts, 0)

    def stats(self) -> Dict[str, int]:
        """``size``, ``capacity``, ``n_hits``, ``n_misses``, ``n_evictions``."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                **self._counts,
            }
