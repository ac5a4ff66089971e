"""Campaign tasks, the executor protocol, and the shared task runner.

An executor turns an ordered list of :class:`CampaignTask` objects into a
stream of plain-data *campaign records* (one JSON-compatible dict per
completed scenario).  The three built-in implementations share exactly one
task runner (:func:`execute_task`), so a record looks the same whether it
was produced in-process, on a thread, or in a worker process -- which is
what makes campaign stores resumable across executors.

A record carries:

``index / scenario / spec_hash / action / solver``
    Which task produced it (``spec_hash`` is the resume key: a content
    hash over the spec *and* the effective action/simulator family).
``spec``
    The full :meth:`ScenarioSpec.to_dict` payload, so a store doubles as
    self-describing supervised data for :mod:`repro.ml` (records written
    before this field existed are handled by ``dataset.build_dataset``'s
    ``specs=`` fallback).
``status``
    ``"ok"`` or ``"error"``; failed scenarios do not abort the campaign.
``result``
    The :meth:`SimulationResult.to_dict` payload (``action="run"``) or
    the :meth:`OptimizationRunResult.to_dict` payload
    (``action="optimize"``).
``error``
    ``"ExceptionType: message"`` when ``status == "error"``.
``wall_time_s / counters / worker``
    Task wall time, the engine solve/cache counter *delta* attributable
    to this task (summed over the running session's engines, so campaign
    aggregation across workers is a plain sum; ``None`` for executors
    that interleave tasks on one shared session -- see
    :func:`execute_task`), and worker provenance (process id).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Protocol, Sequence, runtime_checkable

from ..core.engine import COUNTER_KEYS, EvaluationEngine
from ..scenarios import ScenarioSpec
from ..spec_codec import content_hash

__all__ = [
    "ACTIONS",
    "COUNTER_KEYS",
    "CampaignTask",
    "Executor",
    "counter_delta",
    "execute_task",
    "session_counters",
]

#: Campaign actions a task can request.
ACTIONS = ("run", "optimize")


@dataclass(frozen=True)
class CampaignTask:
    """One unit of campaign work: a spec plus what to do with it.

    Attributes
    ----------
    index:
        Position of the task in the expanded sweep (records are re-ordered
        by this index in the final :class:`~repro.campaign.CampaignResult`).
    spec:
        The scenario to run (picklable, so process executors can ship it).
    action:
        ``"run"`` (simulate) or ``"optimize"`` (Sec. IV design flow).
    solver:
        Optional simulator-family override (``"fdm"`` / ``"ice"``); None
        uses the spec's own ``solver.simulator``.
    """

    index: int
    spec: ScenarioSpec
    action: str = "run"
    solver: Optional[str] = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"task action must be one of {list(ACTIONS)}, got {self.action!r}"
            )
        if self.solver is not None and not isinstance(self.solver, str):
            raise ValueError(
                "task solver must be a simulator-family name (string) or "
                f"None, got {type(self.solver).__name__}; pass Simulator "
                "instances via Session(simulator=...), not into campaigns"
            )

    def effective_solver(self) -> Optional[str]:
        """The simulator family that will actually serve this task."""
        if self.action != "run":
            return None  # the optimize flow always uses the FDM engine
        return self.solver or self.spec.solver.simulator

    def key(self) -> str:
        """Content hash identifying this task's outcome (the resume key).

        Covers the full spec plus the action and the *effective* simulator
        family, so re-running the same campaign file skips stored work,
        while changing the workload, the solver family or the action
        recomputes.
        """
        return content_hash(
            {
                "spec": self.spec.to_dict(),
                "action": self.action,
                "solver": self.effective_solver(),
            }
        )


@runtime_checkable
class Executor(Protocol):
    """Anything that can stream campaign tasks into campaign records."""

    name: str

    def execute(
        self, tasks: Sequence[CampaignTask], session
    ) -> Iterator[Dict[str, object]]:  # pragma: no cover - protocol
        """Run the tasks, yielding one record per task as it completes."""
        ...


def session_counters(session) -> Dict[str, object]:
    """Solve/cache counters summed over a session's engines."""
    return EvaluationEngine.merge_stats(session.stats().values())


def counter_delta(before: Dict[str, object], after: Dict[str, object]) -> Dict[str, int]:
    """Per-counter activity between two :func:`session_counters` snapshots."""
    return {key: after[key] - before[key] for key in COUNTER_KEYS}


def execute_task(
    task: CampaignTask, session, task_counters: bool = True
) -> Dict[str, object]:
    """Run one campaign task on a session and return its plain-data record.

    Exceptions become ``status="error"`` records instead of propagating,
    so one bad scenario never kills a long campaign.

    ``task_counters=False`` records ``counters: None`` instead of a
    before/after delta of the session's engine counters.  Executors that
    run tasks *concurrently on a shared session* (the thread executor)
    must pass False: overlapping tasks would attribute each other's
    engine activity, and summing such deltas double-counts.  Their
    campaign-level counters come from the session delta instead.
    """
    before = session_counters(session) if task_counters else None
    start = time.perf_counter()
    record: Dict[str, object] = {
        "index": task.index,
        "scenario": task.spec.name,
        "spec_hash": task.key(),
        "action": task.action,
        "solver": task.effective_solver(),
        # The full spec rides along so a store is self-describing
        # supervised data (spec -> metrics) for repro.ml, not just a
        # resume ledger of opaque hashes.
        "spec": task.spec.to_dict(),
        "status": "ok",
    }
    try:
        if task.action == "run":
            record["result"] = session.run(task.spec, solver=task.solver).to_dict()
        else:
            record["result"] = session.optimize(task.spec).to_dict()
    except Exception as error:  # noqa: BLE001 - campaign records carry failures
        record["status"] = "error"
        record["error"] = f"{type(error).__name__}: {error}"
    record["wall_time_s"] = time.perf_counter() - start
    record["counters"] = (
        counter_delta(before, session_counters(session))
        if task_counters
        else None
    )
    record["worker"] = {"pid": os.getpid()}
    return record


def make_tasks(
    specs: Iterable[ScenarioSpec],
    action: str = "run",
    solver: Optional[str] = None,
) -> list:
    """Index an iterable of specs into an ordered campaign task list."""
    return [
        CampaignTask(index=index, spec=spec, action=action, solver=solver)
        for index, spec in enumerate(specs)
    ]
