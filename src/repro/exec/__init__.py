"""Pluggable campaign executors: serial, thread and process fan-out.

The executor layer turns an expanded sweep (an ordered list of
:class:`~repro.exec.base.CampaignTask`) into a stream of plain-data
campaign records.  Three implementations ship:

========== ===================================================== ==========
name       parallelism                                           caches
========== ===================================================== ==========
serial     none (the reference; record order == task order)      shared
thread     ``ThreadPoolExecutor`` over the caller's session      shared
process    ``ProcessPoolExecutor``; workers build own sessions   per worker
========== ===================================================== ==========

``serial`` and ``thread`` share the calling session's evaluation engines;
``process`` is the executor that breaks the GIL bound of sparse-LU solves
-- workers receive pickled specs and return ``SimulationResult.to_dict``
payloads, bit-identical to serial execution.

Custom executors implement the :class:`~repro.exec.base.Executor` protocol
(``name`` + ``execute(tasks, session)``) and register under a name::

    from repro.exec import register_executor

    register_executor("slurm", SlurmExecutor)         # a factory, or
    register_executor("slurm", "my_pkg.exec:Slurm")   # lazy module:attr

String factories are resolved on first use, so registration never forces
an import (see :class:`~repro.core.registry.Registry`).
"""

from __future__ import annotations

from typing import Callable, List, Union

from ..core.registry import Registry

from .base import ACTIONS, COUNTER_KEYS, CampaignTask, Executor, execute_task, make_tasks
from .local import SerialExecutor, ThreadExecutor
from .process import ProcessExecutor

__all__ = [
    "ACTIONS",
    "COUNTER_KEYS",
    "CampaignTask",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "available_executors",
    "get_executor",
    "register_executor",
    "unregister_executor",
    "execute_task",
    "make_tasks",
]

#: Executor factories (``factory(workers=...)``, or lazy ``"module:attr"``
#: references) keyed by name.  Campaigns and the serve layer assume the
#: built-in ``serial``/``thread``/``process`` always resolve.
_EXECUTORS = Registry(
    "executor",
    {"serial": SerialExecutor, "thread": ThreadExecutor, "process": ProcessExecutor},
)


def available_executors() -> List[str]:
    """Names of the registered executors, in registration order."""
    return _EXECUTORS.names()


def register_executor(
    name: str,
    factory: Union[str, Callable[..., Executor]],
    overwrite: bool = False,
) -> None:
    """Register an executor factory (or lazy ``"module:attr"`` path)."""
    _EXECUTORS.register(name, factory, overwrite)


def unregister_executor(name: str) -> None:
    """Remove a registered executor (the built-ins cannot be removed)."""
    _EXECUTORS.unregister(name)


def get_executor(name: str, workers: int = 1) -> Executor:
    """Build a registered executor by name with the given worker count."""
    return _EXECUTORS.lookup(name)(workers=workers)
