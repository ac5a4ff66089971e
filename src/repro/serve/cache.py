"""A content-addressed shared result cache: ``spec_hash -> result JSON``.

The campaign store answers "did *this campaign* already run this task?";
the result cache answers the multi-tenant question -- "did *anyone* ever
run this task?".  Keys are the campaign resume keys
(:meth:`repro.exec.base.CampaignTask.key`): a sha256 over the full
scenario spec plus the effective action and simulator family, so a hit is
by construction the exact payload the solve would have produced.

Entries are one JSON file each, fanned out over two directory levels by
hash prefix (``<root>/<aa>/<bb>/<hash>.json``) so even million-entry
caches keep directory listings small.  Writes go through
:func:`repro.durable.atomic_write` (temp file + atomic rename), which
makes concurrent writers from different jobs, worker threads or processes
safe: the worst case is the same content written twice.

:meth:`repro.api.Session.run_many` consults a cache (when given one, see
the ``cache`` argument) *before any solve*, which is how the serve layer
guarantees identical queries from different clients never recompute.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterator, Optional, Union

from ..durable import atomic_write

__all__ = ["ResultCache"]

#: Record fields a cache entry keeps.  Everything campaign-positional
#: (index, source, executor, wall time, counters, worker pid) is stripped:
#: a cached result is shared across campaigns, so only the content-derived
#: fields may survive.
_CACHED_FIELDS = (
    "spec_hash",
    "scenario",
    "action",
    "solver",
    "spec",
    "status",
    "result",
)


def cacheable_record(record: Dict[str, object]) -> Dict[str, object]:
    """The shareable subset of a campaign record (content fields only)."""
    return {key: record[key] for key in _CACHED_FIELDS if key in record}


class ResultCache:
    """Content-addressed on-disk cache of ok campaign records.

    Parameters
    ----------
    root:
        Directory the entries live under (created lazily on first put).
    """

    #: Root-level file the cumulative gc counters persist to.  It lives
    #: outside the two-level hash fan-out, so :meth:`keys` (which only
    #: descends directories) never mistakes it for an entry.
    GC_STATS_FILE = "gc-stats.json"

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = os.fspath(root)
        self.n_hits = 0
        self.n_misses = 0
        self.n_puts = 0
        # Unlike the per-handle traffic counters above, the gc counters
        # are durable: they reload from <root>/gc-stats.json so healthz
        # keeps reporting past gc work across service restarts.
        stats = self._load_gc_stats()
        self.n_gc_runs = stats["n_gc_runs"]
        self.n_gc_removed = stats["n_gc_removed"]

    def _check_key(self, key: str) -> str:
        if not isinstance(key, str) or len(key) < 8 or not all(
            c in "0123456789abcdef" for c in key
        ):
            raise ValueError(
                f"cache keys must be lowercase hex content hashes, got {key!r}"
            )
        return key

    def path_for(self, key: str) -> str:
        """The entry file of a key: ``<root>/<aa>/<bb>/<key>.json``."""
        key = self._check_key(key)
        return os.path.join(self.root, key[:2], key[2:4], f"{key}.json")

    # -- access ------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The cached record for a key, or None (counted as hit/miss)."""
        try:
            with open(self.path_for(key), "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.n_misses += 1
            return None
        except json.JSONDecodeError:
            # A torn entry (writer died between replace steps cannot
            # happen, but a corrupted disk can): treat as a miss -- the
            # solve re-runs and the put overwrites the bad entry.
            self.n_misses += 1
            return None
        self.n_hits += 1
        return entry

    def put(self, key: str, record: Dict[str, object]) -> None:
        """Store an ok record under its content key (atomic, idempotent).

        Only successful records are cacheable -- errors must be retried,
        not replayed to other clients.
        """
        if record.get("status") != "ok":
            raise ValueError(
                "only status='ok' records are cacheable, got "
                f"{record.get('status')!r}"
            )
        payload = json.dumps(cacheable_record(record), sort_keys=True)
        atomic_write(self.path_for(key), (payload + "\n").encode("utf-8"))
        self.n_puts += 1

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path_for(key))

    def keys(self) -> Iterator[str]:
        """Every cached key (walks the fan-out directories)."""
        if not os.path.isdir(self.root):
            return
        for level_one in sorted(os.listdir(self.root)):
            first = os.path.join(self.root, level_one)
            if not os.path.isdir(first):
                continue
            for level_two in sorted(os.listdir(first)):
                second = os.path.join(first, level_two)
                if not os.path.isdir(second):
                    continue
                for name in sorted(os.listdir(second)):
                    if name.endswith(".json") and not name.startswith("."):
                        yield name[: -len(".json")]

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # -- garbage collection -------------------------------------------------

    def gc(
        self,
        max_age_s: Optional[float] = None,
        max_entries: Optional[int] = None,
    ) -> Dict[str, int]:
        """Expire old entries and cap the cache size (both optional).

        ``max_age_s`` removes entries whose file modification time is
        older than that many seconds; ``max_entries`` then removes the
        *oldest* surviving entries until at most that many remain.
        Removal is one atomic ``os.remove`` per entry, so readers racing
        a gc see either a hit or a clean miss, never a torn file; an
        entry another process already removed is counted as gone, not an
        error.  Returns ``{"n_scanned", "n_removed", "n_kept"}``.
        """
        if max_age_s is not None and max_age_s < 0:
            raise ValueError(f"max_age_s must be >= 0, got {max_age_s}")
        if max_entries is not None and max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        now = time.time()
        entries = []  # (mtime, path)
        n_scanned = 0
        n_removed = 0
        for key in self.keys():
            path = self.path_for(key)
            try:
                mtime = os.path.getmtime(path)
            except FileNotFoundError:
                continue  # raced another gc / writer: already gone
            n_scanned += 1
            entries.append((mtime, path))
        survivors = []
        for mtime, path in entries:
            if max_age_s is not None and now - mtime > max_age_s:
                n_removed += self._remove(path)
            else:
                survivors.append((mtime, path))
        if max_entries is not None and len(survivors) > max_entries:
            survivors.sort()  # oldest first
            excess = len(survivors) - max_entries
            for _, path in survivors[:excess]:
                n_removed += self._remove(path)
            survivors = survivors[excess:]
        self.n_gc_runs += 1
        self.n_gc_removed += n_removed
        self._save_gc_stats()
        return {
            "n_scanned": n_scanned,
            "n_removed": n_removed,
            "n_kept": len(survivors),
        }

    @staticmethod
    def _remove(path: str) -> int:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass  # concurrent removal: the entry is gone either way
        return 1

    # -- durable gc counters -------------------------------------------------

    def _gc_stats_path(self) -> str:
        return os.path.join(self.root, self.GC_STATS_FILE)

    def _load_gc_stats(self) -> Dict[str, int]:
        """The persisted cumulative gc counters (zeros when absent/torn)."""
        try:
            with open(self._gc_stats_path(), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return {"n_gc_runs": 0, "n_gc_removed": 0}
        if not isinstance(payload, dict):
            return {"n_gc_runs": 0, "n_gc_removed": 0}
        return {
            "n_gc_runs": int(payload.get("n_gc_runs", 0)),
            "n_gc_removed": int(payload.get("n_gc_removed", 0)),
        }

    def _save_gc_stats(self) -> None:
        """Atomically persist the cumulative gc counters (the same
        :func:`~repro.durable.atomic_write` as entry writes)."""
        payload = json.dumps(
            {"n_gc_runs": self.n_gc_runs, "n_gc_removed": self.n_gc_removed},
            sort_keys=True,
        )
        atomic_write(self._gc_stats_path(), (payload + "\n").encode("utf-8"))

    def stats(self) -> Dict[str, int]:
        """Counters of this cache handle.

        The traffic counters (``n_hits/n_misses/n_puts``) are per handle
        and reset on restart; the gc counters are cumulative across every
        handle that ever gc'd this root (persisted in ``gc-stats.json``).
        """
        return {
            "n_hits": self.n_hits,
            "n_misses": self.n_misses,
            "n_puts": self.n_puts,
            "n_gc_runs": self.n_gc_runs,
            "n_gc_removed": self.n_gc_removed,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<ResultCache {self.root!r}>"
