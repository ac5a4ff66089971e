"""Span recorders wrapped around the public functions and methods of each layer.

A *boundary* is one named layer entry point (``"hydraulics.pressure_drop"``)
and the targets that implement it: module-level functions
(``"repro.hydraulics.pressure:pressure_drop"``) or methods defined on a class
(``"repro.api:Session.run"``).  :class:`Tracer` replaces every target by a
thin wrapper that records one span per call -- name, span id, parent span
id, operation id, start and end -- and restores the originals on
:meth:`Tracer.uninstall`.

A function imported with ``from module import f`` is a second reference to
the same object in the importing module; wrapping only the defining module
would silently bypass those call sites.  :meth:`Tracer.install` therefore
replaces *every* reference to the original object held by a loaded
``repro`` module.

A boundary called directly from inside itself (``AutoBackend.solve``
delegating to ``SparseLUBackend.solve``, ``EvaluationEngine.solve_many``
calling ``solve``) is folded into the outer span, so ``calls`` counts
entries into the layer rather than internal delegation.

Spans stay in memory and are written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

#: ``(boundary name, targets)``; a target is ``"module:function"`` or
#: ``"module:Class.method"``.  ``"module:Class.solve*"`` expands to every
#: method whose name starts with ``solve`` defined on ``Class`` or on any of
#: its subclasses in the same module.
BOUNDARIES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("api.run", ("repro.api:Session.run",)),
    ("api.optimize", ("repro.api:Session.optimize",)),
    ("api.run_many", ("repro.api:Session.run_many",)),
    ("scenarios.build_structure", ("repro.scenarios:ScenarioSpec.build_structure",)),
    ("scenarios.build_stack", ("repro.scenarios:ScenarioSpec.build_stack",)),
    ("scenarios.spec_hash", ("repro.scenarios:ScenarioSpec.spec_hash",)),
    (
        "sweeps.scenarios",
        # Expansion runs eagerly in __post_init__; scenarios() hands it out.
        ("repro.sweeps:SweepSpec.__post_init__", "repro.sweeps:SweepSpec.scenarios"),
    ),
    ("floorplan.cavity", ("repro.floorplan.architectures:Architecture.cavity",)),
    ("exec.execute_task", ("repro.exec.base:execute_task",)),
    (
        "core.optimizer.optimize",
        ("repro.core.optimizer:ChannelModulationOptimizer.optimize",),
    ),
    (
        "core.constraints.pressure_drops",
        ("repro.core.constraints:PressureConstraints.pressure_drops",),
    ),
    (
        "core.constraints.jacobian",
        (
            "repro.core.constraints:PressureConstraints.margin_jacobian",
            "repro.core.constraints:PressureConstraints.balance_jacobian",
        ),
    ),
    ("hydraulics.pressure_drop", ("repro.hydraulics.pressure:pressure_drop",)),
    ("hydraulics.flow_network", ("repro.hydraulics.network:FlowNetwork.__init__",)),
    (
        "core.engine.solve",
        (
            "repro.core.engine:EvaluationEngine.solve",
            "repro.core.engine:EvaluationEngine.solve_many",
        ),
    ),
    ("core.adjoint.gradient", ("repro.core.adjoint:AdjointGradient.gradient",)),
    ("thermal.fdm.solve_structure", ("repro.thermal.fdm:solve_structure",)),
    (
        "thermal.assembly.assemble_system",
        ("repro.thermal.assembly:assemble_system",),
    ),
    ("thermal.backends.solve", ("repro.thermal.backends:SolverBackend.solve*",)),
    ("ice.assemble", ("repro.ice.solver:AssembledSystem.__init__",)),
    ("ice.steady_solve", ("repro.ice.solver:SteadyStateSolver.solve",)),
    ("ice.integrate", ("repro.ice.transient:TransientSolver.integrate",)),
    ("transient_engine.simulate", ("repro.transient_engine:simulate_transient",)),
    ("core.rom.build", ("repro.core.rom:build_reduced_model",)),
    ("campaign.append", ("repro.campaign:CampaignStore.append",)),
    ("serve.cache.get", ("repro.serve.cache:ResultCache.get",)),
    ("serve.cache.put", ("repro.serve.cache:ResultCache.put",)),
)

BOUNDARY_NAMES: Tuple[str, ...] = tuple(name for name, _ in BOUNDARIES)

#: Name of the root span the runner opens around each traced operation.
OP_SPAN = "op"

#: Attribute set on every wrapper, naming the boundary it records.
MARKER = "__perfbench_boundary__"

#: ``(name, span_id, parent_id, op_id, start_s, end_s)``
Span = Tuple[str, int, int, int, float, float]


def _repro_modules():
    """``(name, module)`` of every loaded ``repro`` module."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            yield name, module


def _resolve(target: str) -> List[Tuple[object, str, object]]:
    """``(owner, attribute, original)`` triples a target names.

    ``owner`` is a class for methods and a module for functions.
    """
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        return [(module, path, getattr(module, path))]
    class_name, _, attribute = path.partition(".")
    base = getattr(module, class_name)
    if attribute.endswith("*"):
        prefix = attribute[:-1]
        classes = [
            cls
            for cls in vars(module).values()
            if inspect.isclass(cls)
            and issubclass(cls, base)
            and cls.__module__ == module.__name__
        ]
        return [
            (cls, name, function)
            for cls in classes
            for name, function in vars(cls).items()
            if name.startswith(prefix) and inspect.isfunction(function)
        ]
    function = vars(base)[attribute]
    if not inspect.isfunction(function):
        raise TypeError(f"{target} is not a plain function")
    return [(base, attribute, function)]


class Tracer:
    """Records spans at every boundary while installed.

    The tracer is inert until :meth:`install`; an untraced run never
    constructs one, so no wrapper is ever installed.
    """

    def __init__(self, boundaries: Sequence[Tuple[str, Tuple[str, ...]]] = BOUNDARIES):
        self.boundaries = tuple(boundaries)
        self.spans: List[Span] = []
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self.op_id = -1
        # (owner, attribute, original, wrapper) for every replaced reference.
        self._patches: List[Tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[Tuple[str, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def call(self, name: str, function, args, kwargs):
        """Run ``function`` inside a span named ``name``."""
        stack = self._stack()
        if stack and stack[-1][0] == name:
            return function(*args, **kwargs)
        span_id = self._new_id()
        parent = stack[-1][1] if stack else 0
        stack.append((name, span_id))
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((name, span_id, parent, self.op_id, start, end))

    def run_op(self, op_id: int, function, *args, **kwargs):
        """Run one operation under a root :data:`OP_SPAN` span."""
        self.op_id = op_id
        return self.call(OP_SPAN, function, args, kwargs)

    # -- installation ------------------------------------------------------

    def _wrapper(self, name: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs)

        setattr(wrapper, MARKER, name)
        return wrapper

    def install(self) -> None:
        """Wrap every target of every boundary (idempotent)."""
        if self._patches:
            return
        for name, targets in self.boundaries:
            for target in targets:
                for owner, attribute, original in _resolve(target):
                    wrapper = self._wrapper(name, original)
                    setattr(owner, attribute, wrapper)
                    self._patches.append((owner, attribute, original, wrapper))
                    if not inspect.isclass(owner):
                        self._patch_imports(original, wrapper)

    def _patch_imports(self, original, wrapper) -> None:
        """Replace ``from x import f`` copies held by other repro modules."""
        for _, module in _repro_modules():
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, wrapper)
                    self._patches.append((module, attribute, original, wrapper))

    def uninstall(self) -> None:
        """Restore every original reference."""
        for owner, attribute, original, _ in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Write the recorded spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def wrapped_targets() -> List[str]:
    """``owner.attribute`` of every wrapper currently installed.

    Scans the methods of the boundary classes and the globals of every
    loaded ``repro`` module, so a run can assert that it left no wrapper
    behind (or installed none).
    """
    found = []
    for _, targets in BOUNDARIES:
        for target in targets:
            for owner, attribute, _ in _resolve(target):
                if inspect.isclass(owner) and hasattr(getattr(owner, attribute), MARKER):
                    found.append(f"{owner.__name__}.{attribute}")
    for module_name, module in _repro_modules():
        for attribute, value in list(vars(module).items()):
            if callable(value) and hasattr(value, MARKER):
                found.append(f"{module_name}.{attribute}")
    return found


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus its children's durations.

    Children are the spans whose parent id is the span's id; spans of one
    thread nest properly, so the children's intervals lie inside the
    parent's and do not overlap each other.
    """
    spans = list(spans)
    child_time: Dict[int, float] = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        if parent:
            child_time[parent] += end - start
    return {
        span_id: (end - start) - child_time.get(span_id, 0.0)
        for _, span_id, _, _, start, end in spans
    }


def summarize(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per boundary name: ``{"calls": n, "self_s": total self time}``."""
    spans = list(spans)
    own = self_times(spans)
    summary: Dict[str, Dict[str, float]] = {}
    for name, span_id, _, _, _, _ in spans:
        entry = summary.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[span_id]
    return summary
