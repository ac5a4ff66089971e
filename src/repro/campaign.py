"""Streaming campaign results: the JSONL store and the result facade.

Long campaigns must survive interruption.  A :class:`CampaignStore` is an
append-only JSONL file -- one self-describing record per completed
scenario, flushed as soon as the executor yields it -- keyed by the
record's ``spec_hash`` (a content hash over the spec plus the effective
action/simulator family, see :meth:`repro.exec.base.CampaignTask.key`).
On restart, :meth:`Session.run_many` loads the store and skips every task
whose hash is already present with ``status == "ok"``: interrupt a
12-hour sweep after scenario 700 and the re-run computes only the
remaining 300, whatever executor either run used.

The store is a JSONL journal of :mod:`repro.durable`: reading it and the
first append to each file apply the torn-tail rule stated there, so an
interrupted campaign resumes while a corrupt record fails loudly.

Million-scenario campaigns do not fit one append-only file comfortably:
every resume re-reads the whole history and every append contends on one
handle.  A store can therefore be **sharded** by spec-hash prefix: records
land in ``<path>.d/<xx>.jsonl`` (``xx`` = the first two hex digits of the
record's ``spec_hash``, 256 shards).  :meth:`load` always reads the legacy
single file *and* any shard directory, so old stores keep working and a
single-file store can be migrated by simply re-running the campaign with
``sharded=True``.  The torn-tail rule applies per physical file.

:class:`CampaignResult` is what :meth:`Session.run_many` returns: the
records in sweep order plus campaign-level provenance (executor, worker
count, wall time, and the solve/cache counters aggregated across workers).
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .core.engine import EvaluationEngine
from .durable import open_append, scan_jsonl

__all__ = ["CampaignStore", "CampaignResult", "summarize_records"]


class CampaignStore:
    """Append-only JSONL store of campaign records, keyed by spec hash.

    Parameters
    ----------
    path:
        The JSONL file; created on first :meth:`append`, loaded (if it
        exists) by :meth:`load`.
    sharded:
        ``True`` appends into per-prefix shard files under ``<path>.d/``
        instead of the single file; ``False`` forces the legacy single
        file; ``None`` (default) auto-detects -- a store whose shard
        directory already exists keeps sharding, anything else stays a
        single file.  Reads always cover both layouts.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        sharded: Optional[bool] = None,
    ) -> None:
        self.path = os.fspath(path)
        self.shard_dir = self.path + ".d"
        self._sharded = sharded
        self._handles: Dict[str, object] = {}
        self._closed = False
        self._torn_paths: set = set()

    @property
    def is_sharded(self) -> bool:
        """Whether appends go to shard files (explicit or auto-detected)."""
        if self._sharded is not None:
            return self._sharded
        return os.path.isdir(self.shard_dir)

    @property
    def n_dropped_torn(self) -> int:
        """Torn tails dropped so far, each counted once however often its
        file is read or healed (at most one per physical file)."""
        return len(self._torn_paths)

    @property
    def closed(self) -> bool:
        """True after :meth:`close`; appends raise until :meth:`reopen`."""
        return self._closed

    def shard_paths(self) -> List[str]:
        """The existing shard files, sorted by prefix."""
        return sorted(glob.glob(os.path.join(self.shard_dir, "??.jsonl")))

    # -- reading -----------------------------------------------------------

    def _scan_file(self, path: str) -> Iterator[Tuple[int, Dict[str, object]]]:
        """Yield ``(line_number, record)`` pairs from one physical file,
        dropping a torn tail (see :mod:`repro.durable`)."""
        for number, record in scan_jsonl(path, "spec_hash", "campaign record"):
            if record is None:
                self._torn_paths.add(path)
            else:
                yield number, record

    def _physical_paths(self) -> List[str]:
        """Every physical file of the store, legacy first then shards."""
        paths: List[str] = []
        if os.path.exists(self.path):
            paths.append(self.path)
        paths.extend(self.shard_paths())
        return paths

    def load(self) -> Dict[str, Dict[str, object]]:
        """Stored records keyed by ``spec_hash`` (later records win).

        Reads the legacy single file first and any shard files second, so
        a store migrated to shards prefers the sharded records; the
        torn-tail rule applies to each physical file.
        """
        records: Dict[str, Dict[str, object]] = {}
        for path in self._physical_paths():
            for _, record in self._scan_file(path):
                records[record["spec_hash"]] = record
        return records

    def iter_records(self) -> Iterator[Dict[str, object]]:
        """Stream the store's records one at a time, deduped by spec hash.

        Same later-wins / shard-over-legacy semantics as :meth:`load`
        (including the torn-tail rule per physical file), but only one
        line is held at a time: a first index pass notes *where* each spec
        hash's winning record lives (a hash-to-position map, no payloads),
        then a second pass re-reads the files in the same order and yields
        only the winners.  Appends racing the iteration are not guaranteed
        to be seen -- the view is the store as it was when the call began.

        Records stream in physical order (legacy file first, then shards
        sorted by prefix; line order within a file), so consumers like
        ``repro campaign summarize`` and :mod:`repro.ml.dataset` can fold
        arbitrarily large stores without materializing them.
        """
        paths = self._physical_paths()
        winners: Dict[str, Tuple[int, int]] = {}
        for file_index, path in enumerate(paths):
            for number, record in self._scan_file(path):
                winners[str(record["spec_hash"])] = (file_index, number)
        for file_index, path in enumerate(paths):
            try:
                for number, record in self._scan_file(path):
                    key = str(record["spec_hash"])
                    if winners.get(key) == (file_index, number):
                        yield record
            except FileNotFoundError:
                # The file vanished between passes (e.g. a concurrent
                # migration); its winning records are simply skipped.
                continue

    # -- writing -----------------------------------------------------------

    def _target_path(self, spec_hash: str) -> str:
        """The physical file a record belongs to (shard or legacy)."""
        if not self.is_sharded:
            return self.path
        prefix = str(spec_hash)[:2].lower()
        if len(prefix) < 2 or any(c not in "0123456789abcdef" for c in prefix):
            # Records with non-hash keys (hand-written stores) fall into a
            # dedicated overflow shard instead of being rejected.
            prefix = "xx"
        return os.path.join(self.shard_dir, f"{prefix}.jsonl")

    def append(self, record: Dict[str, object]) -> None:
        """Append one record and flush, so interrupts lose at most one line."""
        if "spec_hash" not in record:
            raise ValueError("campaign records must carry a 'spec_hash' key")
        if self._closed:
            raise ValueError(
                f"campaign store {self.path!r} is closed; call reopen() (or "
                "build a new CampaignStore) before appending more records"
            )
        target = self._target_path(str(record["spec_hash"]))
        handle = self._handles.get(target)
        if handle is None:
            handle, dropped = open_append(target)
            if dropped:
                self._torn_paths.add(target)
            self._handles[target] = handle
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()

    def close(self) -> None:
        """Close every append handle and mark the store closed (idempotent)."""
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()
        self._closed = True

    def reopen(self) -> "CampaignStore":
        """Make a closed store appendable again (handles reopen lazily)."""
        self._closed = False
        return self

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        layout = "sharded" if self.is_sharded else "single-file"
        return f"<CampaignStore {self.path!r} ({layout})>"


def summarize_records(
    records: Iterable[Dict[str, object]],
) -> Dict[str, object]:
    """Campaign-level roll-up of an iterable of campaign records.

    Shared by :meth:`CampaignResult.summary` and ``repro campaign
    summarize``, so a stored JSONL file summarizes exactly like a live
    campaign.  The fold is single-pass and holds only the running
    aggregates (plus the failure list), so it composes with
    :meth:`CampaignStore.iter_records` to summarize stores of any size
    without materializing them.
    """
    n_records = n_ok = n_failed = 0
    counters_complete = True
    actions: set = set()
    solvers: set = set()
    workers_seen: set = set()
    wall = 0.0
    counters = EvaluationEngine.merge_stats([])
    failures: List[Dict[str, object]] = []
    peak_min = peak_max = None
    n_transient = 0
    transient_peak_min = transient_peak_max = None
    time_above_total = 0.0
    pumping_total = 0.0
    policies_seen: set = set()
    n_laminar_violated = 0
    max_reynolds = None

    for record in records:
        n_records += 1
        status = record.get("status")
        result = record.get("result")
        if status == "ok":
            n_ok += 1
        elif status == "error":
            n_failed += 1
            failures.append(
                {"scenario": record.get("scenario"), "error": record.get("error")}
            )
        # Thread-executor records carry counters: None (per-task deltas on
        # a shared session are not attributable); when any such record is
        # present the summed counters are a lower bound, flagged here.
        if record.get("counters") is None:
            counters_complete = False
        counters = EvaluationEngine.merge_stats(
            [counters, record.get("counters") or {}]
        )
        actions.add(str(record.get("action")))
        if record.get("solver"):
            solvers.add(str(record.get("solver")))
        worker = record.get("worker")
        if isinstance(worker, dict) and "pid" in worker:
            workers_seen.add(int(worker["pid"]))
        wall += float(record.get("wall_time_s", 0.0))
        if status == "ok" and isinstance(result, dict):
            if (
                record.get("action") == "run"
                and "peak_temperature_K" in result
            ):
                peak = result["peak_temperature_K"]
                peak_min = peak if peak_min is None else min(peak_min, peak)
                peak_max = peak if peak_max is None else max(peak_max, peak)
            transient = result.get("transient")
            if isinstance(transient, dict):
                n_transient += 1
                if "peak_transient_temperature_K" in transient:
                    tpeak = transient["peak_transient_temperature_K"]
                    transient_peak_min = (
                        tpeak
                        if transient_peak_min is None
                        else min(transient_peak_min, tpeak)
                    )
                    transient_peak_max = (
                        tpeak
                        if transient_peak_max is None
                        else max(transient_peak_max, tpeak)
                    )
                time_above_total += float(
                    transient.get("time_above_threshold_s", 0.0)
                )
                pumping_total += float(transient.get("pumping_energy_J", 0.0))
                if transient.get("policy"):
                    policies_seen.add(str(transient.get("policy")))
                if transient.get("laminar_violated"):
                    n_laminar_violated += 1
                if "max_reynolds" in transient:
                    reynolds = float(transient["max_reynolds"])
                    max_reynolds = (
                        reynolds
                        if max_reynolds is None
                        else max(max_reynolds, reynolds)
                    )

    summary: Dict[str, object] = {
        "n_records": n_records,
        "n_ok": n_ok,
        "n_failed": n_failed,
        "counters_complete": counters_complete,
        "actions": sorted(actions),
        "solvers": sorted(solvers),
        "workers_seen": sorted(workers_seen),
        "task_wall_time_s": wall,
        "counters": counters,
        "failures": failures,
    }
    if peak_min is not None:
        summary["peak_temperature_K_min"] = peak_min
        summary["peak_temperature_K_max"] = peak_max
    if n_transient:
        summary["n_transient"] = n_transient
        if transient_peak_min is not None:
            summary["peak_transient_temperature_K_min"] = transient_peak_min
            summary["peak_transient_temperature_K_max"] = transient_peak_max
        summary["time_above_threshold_s_total"] = time_above_total
        summary["pumping_energy_J_total"] = pumping_total
        summary["policies_seen"] = sorted(policies_seen)
        # Correlation-validity roll-up: how many transient runs pushed the
        # flow past the laminar regime, and the worst Reynolds number seen.
        summary["n_laminar_violated"] = n_laminar_violated
        if max_reynolds is not None:
            summary["max_reynolds"] = max_reynolds
    return summary


@dataclass
class CampaignResult:
    """Outcome of one campaign: ordered records plus provenance.

    Attributes
    ----------
    name:
        The sweep name (or ``"campaign"`` for ad-hoc scenario lists).
    executor / workers:
        Which executor ran the fresh tasks and with how many workers.
    records:
        One plain-data record per scenario, in sweep order.  Records
        resumed from a store carry ``"source": "store"``; freshly-run
        records carry ``"source": "run"``.
    wall_time_s:
        End-to-end campaign wall time (fresh work only).
    n_from_store:
        How many scenarios were served from the campaign store.
    n_from_cache:
        How many scenarios were served from a shared result cache
        (see :class:`repro.serve.cache.ResultCache`) without solving.
    store_path:
        The JSONL file records were streamed to, if any.
    provenance:
        Campaign-level context, including ``counters`` -- the engine
        solve/cache counters attributable to this campaign, aggregated
        across threads and worker processes.
    """

    name: str
    executor: str
    workers: int
    records: List[Dict[str, object]]
    wall_time_s: float
    n_from_store: int = 0
    n_from_cache: int = 0
    store_path: Optional[str] = None
    provenance: Dict[str, object] = field(default_factory=dict)

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def n_ok(self) -> int:
        """Scenarios that completed successfully."""
        return sum(1 for r in self.records if r.get("status") == "ok")

    @property
    def n_failed(self) -> int:
        """Scenarios whose record is an error."""
        return sum(1 for r in self.records if r.get("status") == "error")

    def results(self) -> List[Optional[Dict[str, object]]]:
        """The per-scenario result payloads in sweep order (None on error)."""
        return [record.get("result") for record in self.records]

    def metrics(self, key: str) -> List[Optional[float]]:
        """One result metric across the campaign (None for failed runs)."""
        return [
            (record.get("result") or {}).get(key) for record in self.records
        ]

    # -- reporting ---------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Roll-up of the campaign (counts, failures, aggregated counters)."""
        summary = summarize_records(self.records)
        summary.update(
            {
                "name": self.name,
                "executor": self.executor,
                "workers": self.workers,
                "wall_time_s": self.wall_time_s,
                "n_from_store": self.n_from_store,
                "n_from_cache": self.n_from_cache,
                "store_path": self.store_path,
                "counters": self.provenance.get("counters", summary["counters"]),
            }
        )
        return summary

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation (summary + full records)."""
        return {
            "name": self.name,
            "executor": self.executor,
            "workers": self.workers,
            "wall_time_s": self.wall_time_s,
            "n_from_store": self.n_from_store,
            "n_from_cache": self.n_from_cache,
            "store_path": self.store_path,
            "summary": self.summary(),
            "provenance": self.provenance,
            "records": self.records,
        }
