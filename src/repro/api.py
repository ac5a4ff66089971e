"""One simulator protocol over the analytical FDM and finite-volume paths.

This module is the programmatic front door of the library.  Every scenario
(a :class:`~repro.scenarios.ScenarioSpec`, a registered name or a scenario
JSON file) can be

* **run** through either simulator family behind one protocol --
  :class:`FDMSimulator` (the analytical finite-difference path, served by
  the batched, LRU-cached :class:`~repro.core.engine.EvaluationEngine`) or
  :class:`ICESimulator` (the 3D-ICE-like finite-volume solver) -- both of
  which return the same :class:`SimulationResult` schema;
* **cross-validated** by running both simulators on the same spec and
  comparing the reported metrics (:meth:`Session.cross_validate`);
* **optimized** with the paper's channel-modulation design flow
  (:meth:`Session.optimize`), yielding an :class:`OptimizationRunResult`
  whose :meth:`~OptimizationRunResult.optimized_spec` pins the optimal
  design back into a serializable scenario.

Quick use::

    from repro import run, optimize

    result = run("test-a")                    # FDM by default
    ice = run("test-a", solver="ice")         # same scenario, other model
    best = optimize("test-a")                 # Sec. IV design flow

A :class:`Session` keeps evaluation engines (and hence solution caches)
alive across calls, so repeated runs, sweeps and optimizations share
solves.
"""

from __future__ import annotations

import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Tuple, Union, runtime_checkable

import numpy as np

from .exec.base import Executor
from .core.designer import ChannelModulationDesigner
from .core.engine import EvaluationEngine, picard_counts
from .core.picard import PicardSettings
from .core.registry import Registry
from .core.results import ModulationResult
from .ice.solver import SteadyStateSolver
from .scenarios import ScenarioSpec, resolve_scenario
from .thermal.geometry import MultiChannelStructure, TestStructure
from .thermal.properties import get_coolant_model


__all__ = [
    "SimulationResult",
    "Simulator",
    "FDMSimulator",
    "ICESimulator",
    "CrossValidationResult",
    "OptimizationRunResult",
    "Session",
    "available_simulators",
    "get_simulator",
    "register_simulator",
    "run",
    "optimize",
    "cross_validate",
    "run_many",
    "optimize_many",
]


@dataclass
class SimulationResult:
    """Common result schema shared by every simulator backend.

    Attributes
    ----------
    scenario / simulator:
        Provenance labels: the scenario name and the simulator family
        (``"fdm"`` or ``"ice"``) that produced the result.
    peak_temperature_K / min_temperature_K / thermal_gradient_K:
        Silicon temperature extrema and the paper's max-min gradient metric.
    coolant_rise_K:
        Largest coolant inlet-to-outlet temperature rise.
    pressure_drops_Pa / max_pressure_drop_Pa:
        Per-lane Eq. (9) pressure drops of the scenario's channel design
        and their maximum, always evaluated at the *nominal* per-channel
        flow (they describe the design, not a control trajectory).  For
        policy-controlled transient runs the drop at the largest applied
        flow scale is reported separately as
        ``transient["max_pressure_drop_at_peak_flow_Pa"]``.
    wall_time_s:
        Wall-clock time of the solve.
    transient:
        Transient metrics (peak transient temperature, time above
        threshold, thermal-cycling amplitude, pumping energy, flow-scale
        schedule, ...) for scenarios with a transient section; ``None``
        for steady runs.  For transient runs the headline
        ``peak_temperature_K`` is the peak *over the whole run*, while
        ``min_temperature_K``/``thermal_gradient_K`` describe the final
        snapshot.
    provenance:
        Backend name, grid/unknown counts, cache statistics (FDM) or
        residual norm (ICE), and anything else worth auditing.
    solution:
        The raw solver output (:class:`~repro.thermal.solution.ThermalSolution`
        for FDM, :class:`~repro.ice.results.ThermalMapResult` for steady
        ICE, :class:`~repro.ice.results.TransientResult` for transient
        runs); excluded from :meth:`to_dict`.
    """

    scenario: str
    simulator: str
    peak_temperature_K: float
    min_temperature_K: float
    thermal_gradient_K: float
    coolant_rise_K: float
    pressure_drops_Pa: Tuple[float, ...]
    max_pressure_drop_Pa: float
    wall_time_s: float
    transient: Optional[Dict[str, object]] = None
    provenance: Dict[str, object] = field(default_factory=dict)
    solution: object = field(default=None, repr=False, compare=False)

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation (without the raw solution)."""
        return {
            "scenario": self.scenario,
            "simulator": self.simulator,
            "peak_temperature_K": self.peak_temperature_K,
            "peak_temperature_C": self.peak_temperature_K - 273.15,
            "min_temperature_K": self.min_temperature_K,
            "thermal_gradient_K": self.thermal_gradient_K,
            "coolant_rise_K": self.coolant_rise_K,
            "pressure_drops_Pa": list(self.pressure_drops_Pa),
            "max_pressure_drop_Pa": self.max_pressure_drop_Pa,
            "wall_time_s": self.wall_time_s,
            "transient": self.transient,
            "provenance": self.provenance,
        }

    def summary(self) -> Dict[str, float]:
        """Headline scalars (the metrics the paper reports per design)."""
        return {
            "peak_temperature_K": self.peak_temperature_K,
            "thermal_gradient_K": self.thermal_gradient_K,
            "coolant_rise_K": self.coolant_rise_K,
            "max_pressure_drop_Pa": self.max_pressure_drop_Pa,
        }


@runtime_checkable
class Simulator(Protocol):
    """Anything that can turn a :class:`ScenarioSpec` into a result."""

    name: str

    def run(self, spec: ScenarioSpec) -> SimulationResult:  # pragma: no cover
        """Simulate the scenario and return the common result schema."""
        ...


def _picard_options(spec: ScenarioSpec) -> Dict[str, object]:
    """Solver kwargs for a temperature-dependent coolant scenario.

    Empty for the default ``"constant"`` model -- the solvers are then
    called with exactly the pre-Picard signature, so engine cache keys
    (which fold extra solver kwargs in) and results stay bit-identical.
    """
    if spec.coolant_model == "constant":
        return {}
    return {
        "coolant_model": get_coolant_model(spec.coolant_model),
        "picard": PicardSettings.from_solver_spec(spec.solver),
    }


class FDMSimulator:
    """The analytical finite-difference path behind the simulator protocol.

    Wraps the exact solve the programmatic
    :class:`~repro.core.designer.ChannelModulationDesigner` path performs
    (same grid, same backend, same pressure model), so results agree with
    the legacy entry points bit for bit.

    Parameters
    ----------
    engine:
        Optional shared :class:`~repro.core.engine.EvaluationEngine`; by
        default a private engine is built from the spec's solver settings
        at every call.
    """

    name = "fdm"

    def __init__(self, engine: Optional[EvaluationEngine] = None) -> None:
        self.engine = engine

    def _engine_for(self, spec: ScenarioSpec) -> EvaluationEngine:
        if self.engine is not None:
            return self.engine
        return EvaluationEngine(
            solver_backend=spec.solver.backend,
            cache_size=spec.solver.cache_size,
            n_workers=spec.solver.n_workers,
        )

    def run(self, spec: ScenarioSpec) -> SimulationResult:
        spec = resolve_scenario(spec)
        if spec.transient is not None:
            raise ValueError(
                f"scenario {spec.name!r} is transient; the analytical FDM "
                "model is steady-state only -- run it with solver='ice' "
                "(transient specs default to the ice simulator)"
            )
        structure = spec.build_structure()
        if isinstance(structure, TestStructure):
            structure = MultiChannelStructure.single(structure)
        engine = self._engine_for(spec)
        start = time.perf_counter()
        solution = engine.solve(
            structure,
            n_points=spec.grid.n_grid_points,
            **_picard_options(spec),
        )
        wall_time = time.perf_counter() - start
        drops = spec.flow_network().pressure_drops
        provenance = {
            "backend": engine.stats()["backend"],
            "n_grid_points": spec.grid.n_grid_points,
            "n_lanes": structure.n_lanes,
            "n_physical_channels": structure.n_physical_channels,
            "cost_J": solution.cost,
            "cache": engine.stats(),
        }
        picard_info = solution.metadata.get("picard")
        if picard_info is not None:
            provenance["picard"] = dict(picard_info)
        return SimulationResult(
            scenario=spec.name,
            simulator=self.name,
            peak_temperature_K=solution.peak_temperature,
            min_temperature_K=solution.min_temperature,
            thermal_gradient_K=solution.thermal_gradient,
            coolant_rise_K=solution.coolant_temperature_rise,
            pressure_drops_Pa=tuple(float(drop) for drop in drops),
            max_pressure_drop_Pa=float(np.max(drops)),
            wall_time_s=wall_time,
            provenance=provenance,
            solution=solution,
        )


class ICESimulator:
    """The finite-volume (3D-ICE-like) path behind the simulator protocol.

    The steady solve goes through the pluggable linear-solver backends of
    :mod:`repro.thermal.backends`, selected by the scenario's
    ``solver.backend`` field (the same field the FDM path uses), so
    repeated runs of an unchanged stack reuse the cached factorization.

    Scenarios with a transient section dispatch to the transient engine
    (:mod:`repro.transient_engine`): trace-driven backward-Euler
    integration with the runtime flow-control policy in the loop.  When a
    shared session engine is supplied, whole transient outcomes are
    memoized on the scenario's content hash -- re-running an unchanged
    transient scenario in one session pays nothing.

    Parameters
    ----------
    engine:
        Optional shared :class:`~repro.core.engine.EvaluationEngine` used
        only as a bounded memo cache for transient outcomes (the
        finite-volume solves themselves do not go through it).
    """

    name = "ice"

    def __init__(self, engine: Optional[EvaluationEngine] = None) -> None:
        self.engine = engine

    def _run_transient(self, spec: ScenarioSpec) -> SimulationResult:
        from .transient_engine import simulate_transient

        start = time.perf_counter()
        computed = []

        def compute():
            computed.append(True)
            result = simulate_transient(spec)
            # ROM activity counts once per actual integration (memo hits
            # replay the outcome without building or stepping anything).
            if self.engine is not None:
                self.engine.count(
                    n_rom_builds=int(result.metadata.get("n_rom_builds", 0)),
                    n_rom_steps=int(result.metadata.get("n_rom_steps", 0)),
                )
            return result

        if self.engine is not None:
            key = ("ice-transient", spec.spec_hash())
            outcome = self.engine.memo(key, compute)
        else:
            outcome = compute()
        wall_time = time.perf_counter() - start
        memoized = self.engine is not None and not computed
        drops = spec.flow_network().pressure_drops
        final = outcome.result.final_maps()
        transient_payload: Dict[str, object] = dict(outcome.metrics)
        transient_payload.update(
            {
                "policy": spec.transient.policy.kind,
                "duration_s": spec.transient.duration_s,
                "time_step_s": spec.transient.time_step_s,
                "n_steps": outcome.metadata["n_steps"],
                "flow_times_s": [float(t) for t in outcome.flow_times_s],
                "flow_scales": [float(s) for s in outcome.flow_scales],
            }
        )
        return SimulationResult(
            scenario=spec.name,
            simulator=self.name,
            peak_temperature_K=outcome.metrics["peak_transient_temperature_K"],
            min_temperature_K=final.min_temperature(),
            thermal_gradient_K=final.thermal_gradient(),
            coolant_rise_K=float(outcome.coolant_rise_history_K[-1]),
            pressure_drops_Pa=tuple(float(drop) for drop in drops),
            max_pressure_drop_Pa=float(np.max(drops)),
            wall_time_s=wall_time,
            transient=transient_payload,
            provenance={
                "backend": str(outcome.metadata["backend"]),
                "solver": "ice-transient-backward-euler",
                "n_unknowns": outcome.metadata["n_unknowns"],
                "memoized": memoized,
                "cache": self.engine.stats() if self.engine else None,
            },
            solution=outcome.result,
        )

    def run(self, spec: ScenarioSpec) -> SimulationResult:
        spec = resolve_scenario(spec)
        if spec.transient is not None:
            return self._run_transient(spec)
        stack = spec.build_stack()
        start = time.perf_counter()
        solver = SteadyStateSolver(
            stack, backend=spec.solver.backend, **_picard_options(spec)
        )
        maps = solver.solve()
        wall_time = time.perf_counter() - start
        picard_info = maps.metadata.get("picard")
        if self.engine is not None:
            self.engine.count(**picard_counts(maps.metadata))
        config = spec.experiment_config()
        # The cavity's pressure drop is a property of the channel design,
        # not of the thermal model, so both simulators report the same
        # Eq. (9) values for the same scenario.
        drops = spec.flow_network().pressure_drops
        inlet = config.params.inlet_temperature
        coolant_rise = 0.0
        if maps.coolant_maps:
            coolant_rise = max(
                float(np.max(grid[:, -1])) - inlet
                for grid in maps.coolant_maps.values()
            )
        return SimulationResult(
            scenario=spec.name,
            simulator=self.name,
            peak_temperature_K=maps.peak_temperature(),
            min_temperature_K=maps.min_temperature(),
            thermal_gradient_K=maps.thermal_gradient(),
            coolant_rise_K=coolant_rise,
            pressure_drops_Pa=tuple(float(drop) for drop in drops),
            max_pressure_drop_Pa=float(np.max(drops)),
            wall_time_s=wall_time,
            provenance={
                "backend": str(maps.metadata.get("backend", "auto")),
                "solver": str(maps.metadata.get("solver", "ice-steady")),
                "grid": list(maps.metadata.get("grid", ())),
                "n_unknowns": maps.metadata.get("n_unknowns"),
                "residual_norm": maps.metadata.get("residual_norm"),
                "cache": None,
                **(
                    {"picard": dict(picard_info)}
                    if picard_info is not None
                    else {}
                ),
            },
            solution=maps,
        )


#: Simulator factories (classes/callables, or lazy ``"module:attr"``
#: references) keyed by family name.
_SIMULATORS = Registry("simulator", {"fdm": FDMSimulator, "ice": ICESimulator})


def available_simulators() -> List[str]:
    """Names of the registered simulator families (a snapshot copy)."""
    return _SIMULATORS.names()


def register_simulator(
    name: str,
    factory: Union[str, Callable[..., Simulator]],
    overwrite: bool = False,
) -> None:
    """Register a custom simulator factory under ``name``.

    ``factory`` may be a callable (class or function building a
    :class:`Simulator`) or a lazy ``"module:attr"`` string, resolved on
    first use.  The lazy form is import-order-safe -- it can be
    registered before its implementation module is importable (e.g. from
    an entry-point shim) and ships cleanly to campaign worker processes.
    """
    if not (callable(factory) or isinstance(factory, str)):
        raise TypeError(
            "simulator factory must be callable or a 'module:attr' string, "
            f"got {type(factory).__name__}"
        )
    _SIMULATORS.register(name, factory, overwrite)


def _accepts_engine(factory: Callable[..., Simulator]) -> bool:
    """True when a simulator factory takes an ``engine`` keyword."""
    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return False
    return "engine" in parameters or any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )


def get_simulator(
    name: str, engine: Optional[EvaluationEngine] = None
) -> Simulator:
    """Build a simulator by family name (``"fdm"`` or ``"ice"``).

    A shared evaluation engine is forwarded to any factory whose signature
    accepts an ``engine`` keyword (not just the built-in FDM family), so
    custom engine-backed simulators keep Session cache sharing.
    """
    factory = _SIMULATORS.lookup(name)
    if engine is not None and _accepts_engine(factory):
        return factory(engine=engine)
    return factory()


@dataclass
class CrossValidationResult:
    """Outcome of running both simulator families on one scenario."""

    scenario: str
    fdm: SimulationResult
    ice: SimulationResult

    @property
    def peak_delta_K(self) -> float:
        """ICE minus FDM peak temperature (K)."""
        return self.ice.peak_temperature_K - self.fdm.peak_temperature_K

    @property
    def gradient_delta_K(self) -> float:
        """ICE minus FDM thermal gradient (K)."""
        return self.ice.thermal_gradient_K - self.fdm.thermal_gradient_K

    @property
    def coolant_rise_delta_K(self) -> float:
        """ICE minus FDM coolant temperature rise (K)."""
        return self.ice.coolant_rise_K - self.fdm.coolant_rise_K

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation of both results and the deltas."""
        return {
            "scenario": self.scenario,
            "fdm": self.fdm.to_dict(),
            "ice": self.ice.to_dict(),
            "peak_delta_K": self.peak_delta_K,
            "gradient_delta_K": self.gradient_delta_K,
            "coolant_rise_delta_K": self.coolant_rise_delta_K,
        }


@dataclass
class OptimizationRunResult:
    """Outcome of running the Sec. IV design flow on one scenario.

    Wraps the optimizer's :class:`~repro.core.results.ModulationResult`
    with scenario provenance, and can pin the optimal design back into a
    serializable spec via :meth:`optimized_spec`.
    """

    scenario: str
    spec: ScenarioSpec
    result: ModulationResult
    wall_time_s: float
    provenance: Dict[str, object] = field(default_factory=dict)

    def optimized_spec(self) -> ScenarioSpec:
        """The scenario with the optimal width design pinned into it."""
        return self.spec.with_design(self.result.optimal.width_profiles)

    def summary(self) -> Dict[str, object]:
        """The optimizer's headline scalars plus provenance."""
        summary = dict(self.result.summary())
        summary["scenario"] = self.scenario
        summary["wall_time_s"] = self.wall_time_s
        return summary

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation of the full optimization run."""
        return {
            "scenario": self.scenario,
            "summary": self.result.summary(),
            "comparison": self.result.comparison_table(),
            "optimal_design": self.result.optimal.to_dict(),
            "wall_time_s": self.wall_time_s,
            "provenance": self.provenance,
        }


class Session:
    """A facade that keeps solution caches alive across scenario runs.

    One evaluation engine is maintained per (backend, worker-count) pair,
    so repeated runs of the same scenario -- or of design variants that
    revisit previously solved candidates -- are served from the LRU
    solution cache instead of re-solving.

    Parameters
    ----------
    cache_size / n_workers:
        Optional session-wide overrides of the per-spec solver settings.
    simulator:
        Optional session-wide default simulator: a registered family name
        (``"fdm"``/``"ice"``/custom) or a ready-built :class:`Simulator`
        instance -- the instance form bypasses the string registry
        entirely.  Per-call ``solver=...`` arguments still win.
    """

    def __init__(
        self,
        cache_size: Optional[int] = None,
        n_workers: Optional[int] = None,
        simulator: Optional[Union[str, Simulator]] = None,
    ) -> None:
        self.cache_size = cache_size
        self.n_workers = n_workers
        if simulator is not None and not isinstance(simulator, (str, Simulator)):
            raise TypeError(
                "Session simulator must be a registered family name or a "
                f"Simulator instance, got {type(simulator).__name__}"
            )
        self.simulator = simulator
        # Keyed on (backend, n_workers, cache_size); see engine_for.
        self._engines: Dict[Tuple[str, int, int], EvaluationEngine] = {}
        self._engines_lock = threading.Lock()

    def engine_for(self, spec: ScenarioSpec) -> EvaluationEngine:
        """The session engine serving this spec's solver settings.

        Engines are shared per (backend, worker count, cache capacity)
        triple; specs that only differ in problem content therefore share
        one solution cache, while a spec that asks for a different cache
        capacity gets its own engine instead of silently inheriting
        another spec's.  Creation is locked, so thread-executor campaigns
        racing on a cold session still share one engine per triple.
        """
        n_workers = self.n_workers or spec.solver.n_workers
        cache_size = self.cache_size or spec.solver.cache_size
        key = (spec.solver.backend, n_workers, cache_size)
        with self._engines_lock:
            if key not in self._engines:
                self._engines[key] = EvaluationEngine(
                    solver_backend=spec.solver.backend,
                    cache_size=cache_size,
                    n_workers=n_workers,
                )
            return self._engines[key]

    def _simulator_for(
        self, spec: ScenarioSpec, solver: Optional[Union[str, Simulator]]
    ) -> Simulator:
        """Build/select the simulator serving one run call.

        Precedence: per-call ``solver`` > session-wide ``simulator`` >
        the spec's own ``solver.simulator``.  A :class:`Simulator`
        instance is used as-is; names go through the registry and receive
        the shared session engine when their factory accepts one.
        """
        choice = solver if solver is not None else self.simulator
        if choice is None:
            choice = spec.solver.simulator
        if not isinstance(choice, str):
            if isinstance(choice, Simulator):
                return choice
            raise TypeError(
                "solver must be a registered family name or a Simulator "
                f"instance, got {type(choice).__name__}"
            )
        factory = _SIMULATORS.lookup(choice)
        # Build/look up the shared engine only for simulators that accept
        # one (the FDM solution cache, the ICE transient-outcome memo), so
        # sessions of engine-less custom simulators stay engine-free.
        engine = self.engine_for(spec) if _accepts_engine(factory) else None
        return get_simulator(choice, engine=engine)

    def run(
        self, scenario, solver: Optional[Union[str, Simulator]] = None
    ) -> SimulationResult:
        """Run a scenario through the requested (or its default) simulator."""
        spec = resolve_scenario(scenario)
        return self._simulator_for(spec, solver).run(spec)

    def optimize(self, scenario) -> OptimizationRunResult:
        """Run the optimal channel-modulation design flow on a scenario."""
        spec = resolve_scenario(scenario)
        if spec.coolant_model != "constant":
            # The design flow's cost, constraints and adjoint are built on
            # the constant-property model.
            raise ValueError(
                "scenario.coolant_model: the design flow (optimize) supports "
                f"only 'constant', got {spec.coolant_model!r}"
            )
        engine = self.engine_for(spec)
        designer = ChannelModulationDesigner.from_spec(spec, engine=engine)
        start = time.perf_counter()
        result = designer.design()
        wall_time = time.perf_counter() - start
        return OptimizationRunResult(
            scenario=spec.name,
            spec=spec,
            result=result,
            wall_time_s=wall_time,
            provenance={
                "backend": engine.stats()["backend"],
                "n_grid_points": spec.grid.n_grid_points,
                "gradient_mode": designer.optimizer.effective_gradient_mode,
                "cache": engine.stats(),
            },
        )

    def cross_validate(self, scenario) -> CrossValidationResult:
        """Run both simulator families on one scenario and compare."""
        spec = resolve_scenario(scenario)
        return CrossValidationResult(
            scenario=spec.name,
            fdm=self.run(spec, solver="fdm"),
            ice=self.run(spec, solver="ice"),
        )

    # -- campaigns ---------------------------------------------------------

    def run_many(
        self,
        sweep,
        *,
        executor: Union[str, Executor] = "serial",
        workers: int = 1,
        solver: Optional[str] = None,
        out=None,
        cache=None,
        action: str = "run",
        progress: Optional[Callable[[Dict[str, object]], None]] = None,
    ):
        """Run a whole sweep through an executor, streaming into a store.

        Parameters
        ----------
        sweep:
            A :class:`~repro.sweeps.SweepSpec`, a sweep mapping or JSON
            file path, a sequence of scenario-likes, or one scenario-like
            (see :func:`~repro.sweeps.expand_scenarios`).
        executor / workers:
            A registered executor name (``"serial"``, ``"thread"``,
            ``"process"`` or custom) or a ready-built executor instance;
            ``workers`` sizes named executors.
        solver:
            Optional simulator-family override applied to every scenario.
        out:
            Optional campaign-store target: a JSONL path or a
            :class:`~repro.campaign.CampaignStore`.  Completed records
            stream into it; on re-runs, scenarios whose ``spec_hash`` is
            already stored with ``status == "ok"`` are *not* recomputed.
        cache:
            Optional shared result cache: a
            :class:`~repro.serve.cache.ResultCache` or a directory path.
            Unlike ``out`` (which is scoped to one campaign), the cache
            is content-addressed and shared across campaigns, sessions
            and processes: every task is looked up by its resume key
            before any solve, hits are replayed with zero counters
            (``source == "cache"``), and fresh ok records (plus
            store-resumed records not yet cached) are written back.
        action:
            ``"run"`` (simulate) or ``"optimize"`` (Sec. IV design flow).
        progress:
            Optional callback invoked with each fresh record as it lands.

        Returns
        -------
        :class:`~repro.campaign.CampaignResult` with per-scenario records
        in sweep order and solve/cache counters aggregated across workers.
        """
        from .campaign import CampaignResult, CampaignStore
        from .exec import get_executor
        from .exec.base import (
            COUNTER_KEYS,
            CampaignTask,
            counter_delta,
            make_tasks,
            session_counters,
        )
        from .sweeps import resolve_campaign

        # The session-wide simulator override must be visible to the tasks
        # themselves: record labels, resume keys and process workers all
        # derive the effective simulator from the task, not from this
        # session.  Instance overrides cannot be recorded or shipped to
        # workers, so campaigns require a registered family name.
        if solver is None and action == "run" and self.simulator is not None:
            if not isinstance(self.simulator, str):
                raise ValueError(
                    "campaigns need a registered simulator family name; "
                    "Session(simulator=<instance>) cannot be recorded in a "
                    "campaign store or shipped to worker processes -- pass "
                    "solver=<name> or register the simulator by name"
                )
            solver = self.simulator
        name, specs = resolve_campaign(sweep)
        tasks = make_tasks(specs, action=action, solver=solver)
        if out is None or isinstance(out, CampaignStore):
            store = out
        else:
            store = CampaignStore(out)
        if store is not None and store.closed:
            # Caller-provided stores come back closed from a previous
            # run_many (the finally below); resuming with the same object
            # is legitimate, so reopen rather than raise.
            store.reopen()
        if cache is not None and not hasattr(cache, "get"):
            from .serve.cache import ResultCache

            cache = ResultCache(cache)
        stored = store.load() if store is not None else {}
        if isinstance(executor, str):
            executor_obj = get_executor(executor, workers=workers)
        else:
            executor_obj = executor
        records: List[Optional[Dict[str, object]]] = [None] * len(tasks)
        pending: List[CampaignTask] = []
        start = time.perf_counter()
        try:
            for task in tasks:
                previous = stored.get(task.key())
                if previous is not None and previous.get("status") == "ok":
                    resumed = dict(previous)
                    resumed["index"] = task.index
                    resumed["source"] = "store"
                    records[task.index] = resumed
                    if cache is not None and task.key() not in cache:
                        cache.put(task.key(), resumed)
                    continue
                cached = cache.get(task.key()) if cache is not None else None
                if cached is not None and cached.get("status") == "ok":
                    # A shared-cache hit: replay the content fields and
                    # zero the activity ones -- nothing was solved here.
                    record = dict(cached)
                    record["index"] = task.index
                    record["executor"] = executor_obj.name
                    record["counters"] = {key: 0 for key in COUNTER_KEYS}
                    record["wall_time_s"] = 0.0
                    if store is not None:
                        store.append(record)
                    record["source"] = "cache"
                    records[task.index] = record
                    if progress is not None:
                        progress(record)
                    continue
                pending.append(task)
            counters_before = session_counters(self)
            for record in executor_obj.execute(pending, session=self):
                record["executor"] = executor_obj.name
                if store is not None:
                    store.append(record)
                if cache is not None and record.get("status") == "ok":
                    cache.put(record["spec_hash"], record)
                record["source"] = "run"
                records[record["index"]] = record
                if progress is not None:
                    progress(record)
        finally:
            # A dying worker pool or a raising progress callback must not
            # leak the store handle -- every record streamed so far is
            # flushed and the interrupted campaign stays resumable.
            if store is not None:
                store.close()
        wall_time = time.perf_counter() - start
        # Aggregate the campaign's engine counters: activity on this
        # session's engines (serial/thread executors) plus the per-record
        # deltas reported by executors that declare running their own
        # sessions (shares_session=False: process workers, custom remote
        # executors).  The default is shares_session=True -- a custom
        # executor that simply runs execute_task on the caller's session
        # must not have its activity counted twice.
        deltas = [counter_delta(counters_before, session_counters(self))]
        if not getattr(executor_obj, "shares_session", True):
            deltas.extend(
                record["counters"]
                for record in records
                if record is not None
                and record.get("source") == "run"
                and record.get("counters")
            )
        counters = EvaluationEngine.merge_stats(deltas)
        return CampaignResult(
            name=name,
            executor=executor_obj.name,
            workers=getattr(executor_obj, "workers", workers),
            records=records,
            wall_time_s=wall_time,
            n_from_store=sum(
                1 for r in records if r is not None and r.get("source") == "store"
            ),
            n_from_cache=sum(
                1 for r in records if r is not None and r.get("source") == "cache"
            ),
            store_path=store.path if store is not None else None,
            provenance={
                "action": action,
                "solver": solver,
                "n_scenarios": len(tasks),
                "counters": counters,
            },
        )

    def optimize_many(
        self,
        sweep,
        *,
        executor: Union[str, Executor] = "serial",
        workers: int = 1,
        out=None,
        progress: Optional[Callable[[Dict[str, object]], None]] = None,
    ):
        """Run the Sec. IV design flow over a whole sweep (see run_many)."""
        return self.run_many(
            sweep,
            executor=executor,
            workers=workers,
            out=out,
            action="optimize",
            progress=progress,
        )

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Cache/solve statistics of every engine the session created."""
        report: Dict[str, Dict[str, object]] = {}
        with self._engines_lock:
            # Snapshot: thread-executor tasks may create engines while
            # another task is reading statistics.
            engines = list(self._engines.items())
        for (backend, workers, cache_size), engine in engines:
            label = f"{backend}@{workers}"
            if label in report:  # same backend/workers, other cache capacity
                label = f"{backend}@{workers}/cache{cache_size}"
            report[label] = engine.stats()
        return report


def run(
    scenario, solver: Optional[str] = None, session: Optional[Session] = None
) -> SimulationResult:
    """Run a scenario (spec, registered name or JSON path) once.

    ``solver`` overrides the spec's default simulator family; pass a
    :class:`Session` to share solution caches across calls.
    """
    return (session or Session()).run(scenario, solver=solver)


def optimize(scenario, session: Optional[Session] = None) -> OptimizationRunResult:
    """Run the Sec. IV channel-modulation design flow on a scenario."""
    return (session or Session()).optimize(scenario)


def cross_validate(
    scenario, session: Optional[Session] = None
) -> CrossValidationResult:
    """Run both the FDM and ICE simulators on a scenario and compare."""
    return (session or Session()).cross_validate(scenario)


def run_many(sweep, session: Optional[Session] = None, **kwargs):
    """Run a whole sweep/campaign once (see :meth:`Session.run_many`).

    Pass a :class:`Session` to share solution caches with other calls;
    keyword arguments (``executor``, ``workers``, ``out``, ``solver``,
    ``action``, ``progress``) are forwarded to :meth:`Session.run_many`.
    """
    return (session or Session()).run_many(sweep, **kwargs)


def optimize_many(sweep, session: Optional[Session] = None, **kwargs):
    """Optimize every scenario of a sweep (see :meth:`Session.optimize_many`)."""
    return (session or Session()).optimize_many(sweep, **kwargs)
