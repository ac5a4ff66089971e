"""The campaign service: queue + workers + sharded stores + shared cache.

:class:`CampaignService` is the transport-free core of ``repro serve``:
the HTTP front door (:mod:`repro.serve.server`) is a thin adapter over it,
and tests drive it directly.  It owns one data directory::

    <data_dir>/
      queue.jsonl                      durable job journal (JobQueue)
      cache/<aa>/<bb>/<hash>.json      shared result cache (ResultCache)
      jobs/<job_id>/campaign.jsonl.d/  sharded per-job campaign store
      models/<digest>/model.pkl        content-addressed surrogate bundles

Submissions are validated eagerly (the campaign is expanded to scenario
specs before anything is queued, so a bad spec is a 400 at submit time,
not a failed job later), deduplicated by content hash (see
:meth:`JobQueue.submit`), and drained by a :class:`WorkerSupervisor`
through :meth:`repro.api.Session.run_many` -- the exact code path batch
campaigns use, so service results are bit-identical to offline runs.
Every job consults the shared result cache before solving and feeds it
afterwards, so identical queries from different clients (or forced
re-runs of a finished job) never recompute.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..api import Session
from ..campaign import CampaignStore
from ..exec import available_executors
from ..exec.base import make_tasks
from ..ml.dataset import DEFAULT_TARGETS, build_dataset
from ..ml.models import load_model, make_surrogate, save_model
from ..scenarios import SCENARIOS, resolve_scenario, scenario_rows
from ..sweeps import resolve_campaign
from .cache import ResultCache
from .queue import Job, JobQueue
from .workers import WorkerSupervisor

__all__ = ["CampaignService"]

#: Endpoint kinds and the campaign action each runs.
_KIND_ACTION = {"run": "run", "sweep": "run", "optimize": "optimize"}


class CampaignService:
    """Long-running multi-tenant campaign service over one data directory.

    Parameters
    ----------
    data_dir:
        Where the journal, cache and per-job stores live (created).
    executor / workers:
        The campaign executor jobs run under (any registered name;
        ``"process"`` is the one that scales past the GIL) and its worker
        count.
    pool_size:
        How many jobs run concurrently (supervisor threads).
    max_pending:
        Backpressure cap on *pending* (queued, not yet running) jobs;
        submissions of new work beyond it raise
        :class:`~repro.serve.queue.QueueFullError` (HTTP 429 at the
        front door).  None (default) keeps the queue unbounded.
    session:
        Optional shared :class:`~repro.api.Session`; by default the
        service builds one, so in-process executors share solution caches
        across jobs.
    """

    def __init__(
        self,
        data_dir: str,
        *,
        executor: str = "process",
        workers: int = 2,
        pool_size: int = 1,
        max_pending: Optional[int] = None,
        session: Optional[Session] = None,
    ) -> None:
        if executor not in available_executors():
            raise ValueError(
                f"unknown executor {executor!r}; available: "
                f"{available_executors()}"
            )
        self.data_dir = os.fspath(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self.executor = executor
        self.workers = int(workers)
        self.queue = JobQueue(
            os.path.join(self.data_dir, "queue.jsonl"),
            max_pending=max_pending,
        )
        self.cache = ResultCache(os.path.join(self.data_dir, "cache"))
        self.session = session or Session()
        self.supervisor = WorkerSupervisor(self, pool_size=pool_size)
        self.started_at = time.time()
        # Surrogate serving state: the model dir persists across
        # restarts, the in-memory handle loads lazily on first use.
        self.ml_dir = os.path.join(self.data_dir, "models")
        self._surrogate = None
        self._model_id: Optional[str] = None
        self._ml_lock = threading.Lock()
        self.n_surrogate_fits = 0
        self.n_surrogate_predictions = 0
        self.n_exact_fallbacks = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "CampaignService":
        """Start draining the queue (recovered jobs resume immediately)."""
        self.supervisor.start()
        return self

    def stop(self, join: bool = True) -> None:
        """Stop the workers and close the journal (idempotent)."""
        self.supervisor.stop(join=join)
        self.queue.close()

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- submission --------------------------------------------------------

    def submit(
        self,
        kind: str,
        campaign,
        *,
        solver: Optional[str] = None,
        fresh: bool = False,
    ) -> Tuple[Job, bool]:
        """Validate, deduplicate and queue a campaign; ``(job, resubmitted)``.

        ``kind`` is ``"run"`` / ``"sweep"`` / ``"optimize"`` (the three
        submission endpoints); ``campaign`` is anything
        :func:`repro.sweeps.resolve_campaign` accepts in its serialized
        form (a registered scenario name, a scenario mapping, or a sweep
        mapping).  Expansion happens *now*, so invalid specs raise
        ``ValueError`` here instead of failing the job later.
        """
        if kind not in _KIND_ACTION:
            raise ValueError(
                f"job kind must be one of {sorted(_KIND_ACTION)}, got {kind!r}"
            )
        action = _KIND_ACTION[kind]
        _, specs = resolve_campaign(campaign)
        if kind == "run" and len(specs) != 1:
            raise ValueError(
                f"'run' jobs take exactly one scenario, got {len(specs)}; "
                "submit families via the sweep endpoint"
            )
        tasks = make_tasks(specs, action=action, solver=solver)
        options: Dict[str, object] = {}
        if solver is not None:
            options["solver"] = solver
        return self.queue.submit(
            kind,
            campaign,
            task_keys=[task.key() for task in tasks],
            options=options,
            fresh=fresh,
        )

    # -- job execution (called from supervisor threads) --------------------

    def job_store(self, job_id: str) -> CampaignStore:
        """The sharded campaign store of one job."""
        return CampaignStore(
            os.path.join(self.data_dir, "jobs", job_id, "campaign.jsonl"),
            sharded=True,
        )

    def run_job(self, job: Job) -> Dict[str, object]:
        """Run one claimed job to completion and return its summary.

        Exceptions propagate to the supervisor, which marks the job
        failed; per-scenario errors do *not* raise -- they become error
        records in the job's store, visible in the summary.
        """
        self.queue.update_progress(job.job_id, n_total=job.n_total, n_done=0)
        done = {"count": 0}

        def progress(record: Dict[str, object]) -> None:
            done["count"] += 1
            self.queue.update_progress(job.job_id, n_done=done["count"])

        campaign = self.session.run_many(
            job.payload,
            executor=self.executor,
            workers=self.workers,
            solver=job.options.get("solver"),
            out=self.job_store(job.job_id),
            cache=self.cache,
            action=_KIND_ACTION[job.kind],
            progress=progress,
        )
        summary = campaign.summary()
        summary["job_id"] = job.job_id
        return summary

    # -- surrogate serving -------------------------------------------------

    def _job_ids(self) -> List[str]:
        """Every job id with a store on disk, oldest submission first."""
        jobs = sorted(self.queue.jobs(), key=lambda job: job.submitted_at)
        return [job.job_id for job in jobs]

    def fit_surrogate(
        self,
        job_ids: Optional[List[str]] = None,
        model: str = "gp",
        targets: Optional[List[str]] = None,
    ) -> Dict[str, object]:
        """Fit (and persist) a surrogate on stored job records.

        ``job_ids=None`` trains on every job the queue knows about --
        the whole data directory is one growing dataset.  The fitted
        model is saved to the content-addressed model dir and becomes
        the serving model immediately.
        """
        ids = job_ids if job_ids is not None else self._job_ids()
        for job_id in ids:
            self.queue.get(job_id)  # 404 on unknown ids before any I/O
        records = itertools.chain.from_iterable(
            self.job_store(job_id).iter_records() for job_id in ids
        )
        dataset = build_dataset(
            records, targets=tuple(targets or DEFAULT_TARGETS)
        )
        surrogate = make_surrogate(model).fit(dataset)
        with self._ml_lock:
            model_id = save_model(surrogate, self.ml_dir)
            self._surrogate = surrogate
            self._model_id = model_id
            self.n_surrogate_fits += 1
        payload = surrogate.describe()
        payload["model_id"] = model_id
        payload["dataset"] = dataset.summary()
        payload["job_ids"] = list(ids)
        return payload

    def _serving_model(self):
        """The in-memory surrogate, loading the persisted latest lazily."""
        with self._ml_lock:
            if self._surrogate is None:
                try:
                    with open(
                        os.path.join(self.ml_dir, "latest.json"),
                        "r",
                        encoding="utf-8",
                    ) as handle:
                        self._model_id = str(json.load(handle)["model_id"])
                    self._surrogate = load_model(self.ml_dir, self._model_id)
                except FileNotFoundError:
                    raise ValueError(
                        "no surrogate has been fitted yet; POST /v1/ml/fit "
                        "(or run 'repro ml fit') after a campaign completes"
                    ) from None
            return self._surrogate, self._model_id

    def predict(
        self,
        scenario,
        *,
        exact_if_std_above: Optional[float] = None,
        target: Optional[str] = None,
        solver: Optional[str] = None,
    ) -> Dict[str, object]:
        """Answer a scenario query from the surrogate, or fall through.

        Returns ``{"source": "surrogate", "mean": {...}, "std": {...}}``
        keyed per target when the model is confident.  When
        ``exact_if_std_above`` is given and the gating target's
        predictive std exceeds it, the query instead becomes an ordinary
        exact job (``{"source": "exact", "job": {...}}``) -- the same
        submission path as ``POST /v1/run``, so the answer lands in the
        job store, feeds the shared cache, and grows the surrogate's next
        training set.
        """
        spec = resolve_scenario(scenario)
        surrogate, model_id = self._serving_model()
        if target is None:
            gate_target = surrogate.targets[0]
        elif target in surrogate.targets:
            gate_target = target
        else:
            raise ValueError(
                f"model has no target {target!r}; it predicts "
                f"{list(surrogate.targets)}"
            )
        mean, std = surrogate.predict_specs([spec])
        means = {
            name: float(mean[0, i]) for i, name in enumerate(surrogate.targets)
        }
        stds = {
            name: float(std[0, i]) for i, name in enumerate(surrogate.targets)
        }
        gate_std = stds[gate_target]
        if exact_if_std_above is not None and gate_std > exact_if_std_above:
            with self._ml_lock:
                self.n_exact_fallbacks += 1
            job, resubmitted = self.submit(
                "run", spec.to_dict(), solver=solver
            )
            document = job.to_dict()
            document["resubmitted"] = resubmitted
            return {
                "source": "exact",
                "scenario": spec.name,
                "target": gate_target,
                "std": gate_std,
                "exact_if_std_above": exact_if_std_above,
                "job": document,
            }
        with self._ml_lock:
            self.n_surrogate_predictions += 1
        return {
            "source": "surrogate",
            "scenario": spec.name,
            "target": gate_target,
            "mean": means,
            "std": stds,
            "model_id": model_id,
            "exact_if_std_above": exact_if_std_above,
        }

    def ml_stats(self) -> Dict[str, object]:
        """Surrogate counters + serving-model identity (for healthz)."""
        with self._ml_lock:
            return {
                "n_surrogate_fits": self.n_surrogate_fits,
                "n_surrogate_predictions": self.n_surrogate_predictions,
                "n_exact_fallbacks": self.n_exact_fallbacks,
                "model_id": self._model_id,
                "targets": (
                    list(self._surrogate.targets)
                    if self._surrogate is not None
                    else []
                ),
            }

    # -- introspection -----------------------------------------------------

    def job_detail(self, job_id: str) -> Dict[str, object]:
        """Job state plus store-level record counts (``GET /v1/jobs/<id>``)."""
        detail = self.queue.get(job_id).to_dict()
        records = self.job_records(job_id)
        detail["n_records"] = len(records)
        detail["n_ok"] = sum(1 for r in records if r.get("status") == "ok")
        detail["n_failed"] = sum(
            1 for r in records if r.get("status") == "error"
        )
        return detail

    def job_records(self, job_id: str) -> List[Dict[str, object]]:
        """The stored records of a job so far, in sweep (index) order."""
        self.queue.get(job_id)  # 404 on unknown jobs, even before any record
        records = list(self.job_store(job_id).iter_records())
        records.sort(key=lambda record: record.get("index", 0))
        return records

    def scenario_rows(self) -> List[Dict[str, object]]:
        """The registered scenarios (``GET /v1/scenarios``)."""
        return scenario_rows()

    def healthz(self) -> Dict[str, object]:
        """Service liveness + queue/cache statistics (``GET /v1/healthz``)."""
        return {
            "status": "ok",
            "uptime_s": time.time() - self.started_at,
            "data_dir": self.data_dir,
            "executor": self.executor,
            "workers": self.workers,
            "pool_size": self.supervisor.pool_size,
            "jobs": self.queue.counts(),
            "n_recovered": self.queue.n_recovered,
            "max_pending": self.queue.max_pending,
            "n_rejected": self.queue.n_rejected,
            "cache": self.cache.stats(),
            "ml": self.ml_stats(),
            "n_scenarios_registered": len(SCENARIOS),
        }
