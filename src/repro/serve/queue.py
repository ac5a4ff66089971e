"""A durable on-disk job queue: JSONL journal, crash-safe replay.

Every state transition of every job is one appended JSON line in the
journal (``queue.jsonl``)::

    {"event": "submitted", "job_id": ..., "kind": ..., "payload": ..., ...}
    {"event": "running",   "job_id": ..., "at": ...}
    {"event": "done",      "job_id": ..., "summary": {...}, "at": ...}
    {"event": "failed",    "job_id": ..., "error": "...", "at": ...}

so the queue's full state is reconstructible by folding the journal.  On
startup, :class:`JobQueue` replays it: jobs whose last event is
``running`` were in flight when the previous process died -- they are
requeued (``recovered: true``) and their campaign stores make the re-run
cheap (every record already written is resumed, not recomputed).  The
journal is a JSONL journal of :mod:`repro.durable`, like the campaign
store: replay and the first append apply the torn-tail rule stated there.

Submission is **idempotent**: jobs are keyed by a content hash over their
campaign task keys (the same sha256 resume keys the campaign store uses),
so resubmitting an identical sweep returns the existing job instead of
queuing duplicate work.  ``fresh=True`` opts out and forces a new job --
which the shared result cache then typically serves without a single
solve.  Failed jobs never satisfy resubmission (errors must be retryable).

States move ``submitted -> running -> done | failed``.  All public
methods are thread-safe; :meth:`claim` blocks (with timeout) until work
is available, so worker threads can drain the queue without polling.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..durable import open_append, scan_jsonl
from ..spec_codec import content_hash

__all__ = ["Job", "JobQueue", "QueueFullError", "JOB_STATES"]

#: The lifecycle states a job moves through.
JOB_STATES = ("submitted", "running", "done", "failed")

#: Journal events and the states they put a job into.
_EVENT_STATE = {
    "submitted": "submitted",
    "running": "running",
    "done": "done",
    "failed": "failed",
}


class QueueFullError(RuntimeError):
    """Raised by :meth:`JobQueue.submit` when ``max_pending`` is reached.

    The HTTP layer maps this to 429 so clients can back off and retry;
    idempotent resubmissions of existing jobs never raise it (they queue
    no new work).
    """


def job_hash(kind: str, task_keys: List[str]) -> str:
    """Content hash identifying a job's work (the resubmission key).

    Built from the campaign task keys -- the same spec/action/solver
    hashes the campaign store resumes on -- so two submissions that expand
    to the same work hash identically whatever surface form (registered
    name, inline spec, sweep file) they were submitted in.
    """
    return content_hash({"kind": kind, "tasks": list(task_keys)})


@dataclass
class Job:
    """One queued unit of service work: a campaign plus its lifecycle.

    Attributes
    ----------
    job_id:
        Short unique id (a prefix of :attr:`hash`, suffixed on forced
        resubmission).
    kind:
        ``"run"``, ``"sweep"`` or ``"optimize"`` -- which endpoint
        submitted it (run/sweep both simulate; optimize runs the design
        flow).
    payload:
        The campaign input exactly as submitted (scenario mapping or
        name, or sweep mapping).
    options:
        Submission options (currently ``solver``).
    hash:
        The idempotency key (see :func:`job_hash`).
    n_total:
        Number of scenarios the campaign expands to (known at submission:
        payloads are validated and expanded before queueing).
    state / error / summary:
        Lifecycle state, the failure message (``failed`` only) and the
        campaign summary (``done`` only).
    progress:
        Live in-memory progress (fresh records completed so far); not
        journaled -- a recovered job recomputes it from its store.
    recovered:
        True when the job was requeued by journal replay after a crash.
    """

    job_id: str
    kind: str
    payload: object
    options: Dict[str, object]
    hash: str
    n_total: int
    state: str = "submitted"
    error: Optional[str] = None
    summary: Optional[Dict[str, object]] = None
    progress: Dict[str, object] = field(default_factory=dict)
    recovered: bool = False
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation (what ``GET /v1/jobs/<id>`` shows)."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "hash": self.hash,
            "n_total": self.n_total,
            "options": dict(self.options),
            "error": self.error,
            "summary": self.summary,
            "progress": dict(self.progress),
            "recovered": self.recovered,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


class JobQueue:
    """Durable FIFO job queue journaled to one JSONL file."""

    def __init__(
        self,
        path: Union[str, os.PathLike],
        max_pending: Optional[int] = None,
    ) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.path = os.fspath(path)
        self.max_pending = max_pending
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._pending: List[str] = []
        self._handle = None
        self.n_recovered = 0
        self.n_rejected = 0
        self._replay()

    # -- journal -----------------------------------------------------------

    def _replay(self) -> None:
        """Rebuild queue state by folding the journal (crash-safe).

        Jobs whose last event is ``running`` are requeued as
        ``submitted`` with ``recovered=True``, preserving original
        submission order relative to still-pending jobs.
        """
        if not os.path.exists(self.path):
            return
        for number, event in scan_jsonl(self.path, "event", "queue journal line"):
            if event is not None:  # None: a torn tail, dropped
                self._apply(event, f"{self.path}:{number}")
        for job_id, job in self._jobs.items():
            if job.state == "running":
                job.state = "submitted"
                job.recovered = True
                self.n_recovered += 1
                self._pending.append(job_id)
        # Requeue in original submission order.
        self._pending.sort(key=lambda jid: self._jobs[jid].submitted_at)

    def _apply(self, event: Dict[str, object], where: str) -> None:
        """Fold one journal event into the in-memory state."""
        name = event.get("event")
        if name not in _EVENT_STATE:
            raise ValueError(f"{where}: unknown queue journal event {name!r}")
        job_id = event.get("job_id")
        if name == "submitted":
            job = Job(
                job_id=job_id,
                kind=event.get("kind", "run"),
                payload=event.get("payload"),
                options=dict(event.get("options") or {}),
                hash=event.get("hash", ""),
                n_total=int(event.get("n_total", 0)),
                submitted_at=float(event.get("at", 0.0)),
            )
            self._jobs[job.job_id] = job
            self._pending.append(job.job_id)
            return
        job = self._jobs.get(job_id)
        if job is None:
            raise ValueError(f"{where}: event for unknown job {job_id!r}")
        job.state = _EVENT_STATE[name]
        if name == "running":
            job.started_at = float(event.get("at", 0.0))
            if job_id in self._pending:
                self._pending.remove(job_id)
        elif name == "done":
            job.summary = event.get("summary")
            job.finished_at = float(event.get("at", 0.0))
        elif name == "failed":
            job.error = str(event.get("error"))
            job.finished_at = float(event.get("at", 0.0))

    def _append(self, event: Dict[str, object]) -> None:
        """Append one journal event and flush (caller holds the lock)."""
        if self._handle is None:
            self._handle, _ = open_append(self.path)
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self._handle.flush()

    # -- submission --------------------------------------------------------

    def submit(
        self,
        kind: str,
        payload: object,
        *,
        task_keys: List[str],
        options: Optional[Dict[str, object]] = None,
        fresh: bool = False,
    ) -> Tuple[Job, bool]:
        """Queue a job (idempotent); returns ``(job, resubmitted)``.

        ``resubmitted`` is True when an existing non-failed job with the
        same content hash satisfied the submission.  ``fresh=True`` always
        creates a new job (a forced re-run -- typically served from the
        shared result cache).

        When the queue was built with ``max_pending``, a submission that
        would queue *new* work while that many jobs are already pending
        raises :class:`QueueFullError` (backpressure).  Idempotent
        resubmissions are exempt -- they add nothing to the backlog -- and
        journal replay ignores the cap (recovered work is never dropped).
        """
        options = dict(options or {})
        content = job_hash(kind, task_keys)
        with self._work:
            if not fresh:
                for job in self._jobs.values():
                    if job.hash == content and job.state != "failed":
                        return job, True
            if (
                self.max_pending is not None
                and len(self._pending) >= self.max_pending
            ):
                self.n_rejected += 1
                raise QueueFullError(
                    f"job queue is full: {len(self._pending)} pending jobs "
                    f"(max_pending={self.max_pending}); retry once the "
                    "backlog drains"
                )
            job_id = content[:12]
            suffix = 1
            while job_id in self._jobs:
                suffix += 1
                job_id = f"{content[:12]}-r{suffix}"
            job = Job(
                job_id=job_id,
                kind=kind,
                payload=payload,
                options=options,
                hash=content,
                n_total=len(task_keys),
                submitted_at=time.time(),
            )
            self._append(
                {
                    "event": "submitted",
                    "job_id": job.job_id,
                    "kind": job.kind,
                    "payload": job.payload,
                    "options": job.options,
                    "hash": job.hash,
                    "n_total": job.n_total,
                    "at": job.submitted_at,
                }
            )
            self._jobs[job.job_id] = job
            self._pending.append(job.job_id)
            self._work.notify()
            return job, False

    # -- worker side -------------------------------------------------------

    def claim(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the oldest pending job and mark it running (blocking).

        Returns None when ``timeout`` elapses with nothing to do, so
        worker loops can check their stop flag between waits.
        """
        with self._work:
            if not self._pending:
                self._work.wait(timeout)
            if not self._pending:
                return None
            job = self._jobs[self._pending.pop(0)]
            job.state = "running"
            job.started_at = time.time()
            self._append(
                {"event": "running", "job_id": job.job_id, "at": job.started_at}
            )
            return job

    def mark_done(self, job_id: str, summary: Dict[str, object]) -> None:
        """Transition a running job to ``done`` with its campaign summary."""
        with self._work:
            job = self._require(job_id)
            job.state = "done"
            job.summary = summary
            job.finished_at = time.time()
            self._append(
                {
                    "event": "done",
                    "job_id": job_id,
                    "summary": summary,
                    "at": job.finished_at,
                }
            )

    def mark_failed(self, job_id: str, error: str) -> None:
        """Transition a running job to ``failed`` with its error message."""
        with self._work:
            job = self._require(job_id)
            job.state = "failed"
            job.error = error
            job.finished_at = time.time()
            self._append(
                {
                    "event": "failed",
                    "job_id": job_id,
                    "error": error,
                    "at": job.finished_at,
                }
            )

    def update_progress(self, job_id: str, **progress: object) -> None:
        """Merge live progress counters into a job (in memory only)."""
        with self._lock:
            self._require(job_id).progress.update(progress)

    # -- introspection -----------------------------------------------------

    def _require(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"no job {job_id!r} in queue {self.path!r}") from None

    def get(self, job_id: str) -> Job:
        """The job with this id (KeyError when unknown)."""
        with self._lock:
            return self._require(job_id)

    def jobs(self) -> List[Job]:
        """Every known job, oldest submission first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.submitted_at)

    def counts(self) -> Dict[str, int]:
        """Job counts per lifecycle state."""
        with self._lock:
            counts = dict.fromkeys(JOB_STATES, 0)
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts

    def notify_all(self) -> None:
        """Wake every blocked :meth:`claim` (used by supervisor shutdown)."""
        with self._work:
            self._work.notify_all()

    def close(self) -> None:
        """Close the journal handle (idempotent; reopened lazily on append)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<JobQueue {self.path!r} ({len(self._jobs)} jobs)>"
