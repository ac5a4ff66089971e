"""Trace-driven transient simulation: the policy-aware engine.

This module turns a transient scenario (a
:class:`~repro.scenarios.ScenarioSpec` carrying a
:class:`~repro.transient.TransientSpec`) into a
:class:`TransientOutcome`: the subsampled field history, per-step scalar
observables (peak silicon temperature, coolant rise), the flow-scale
schedule the runtime policy produced, and the transient metrics campaigns
record (peak transient temperature, time above threshold, thermal-cycling
amplitude, pumping energy).

:func:`simulate_transient` steps one scenario chunk by chunk, one chunk
per control interval.  Each chunk advances through either the full
backward-Euler integrator
(:meth:`repro.ice.transient.TransientSolver.integrate`) or the reduced
Krylov model, as the spec's ``rom`` block selects; between chunks the flow
policy observes the peak temperature and may change the flow scale.  A
run builds one stack and one assembly, at the spec's nominal flow; every
flow scale it steps, probes or builds its reduced model at is a flow write
on that system (:meth:`repro.ice.transient.TransientSolver.at_flow`), and
the solver backend's keyed factorization cache makes revisited scales --
e.g. the two levels of a bang-bang controller -- pay only triangular
solves.  Each chunk acquires one factorization handle, so the matrix is
content-hashed once per chunk, not once per step; scenarios run through
one shared backend instance with content-identical implicit systems
(traces and static heat maps may differ) share one factorization.

One reduced model per run: the run builds its Krylov basis once, at its
initial flow scale, on first use -- for the reduced trajectory or for an
MPC rollout -- and serves every other scale from it through the operator's
affine flow split (:meth:`repro.core.rom.ReducedTransientModel.at_flow`,
one small dense LU per scale).  A policy that can change the flow gets a
flow-parametric basis; a constant policy gets the plain Krylov basis of
its one scale.  The reduced trajectory and MPC rollouts both step
through :meth:`~repro.core.rom.ReducedTransientModel.advance`.  The basis
is dropped when the run returns; a repeated run rebuilds it over the
backend's still-warm factorization, and a :class:`~repro.api.Session`
replays a repeated scenario from its engine's outcome memo without
running it.

Long traces do not blow memory: full-field snapshots are kept every
``store_every`` steps only, while the scalar observables driving metrics
and policies are tracked at every step.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Union

import numpy as np

from .analysis.metrics import (
    piecewise_integral,
    thermal_cycling_amplitude,
    time_above_threshold,
)
from .core.rom import ReducedTransientModel, build_reduced_model
from .ice.results import TransientResult
from .ice.transient import TransientSolver, result_from_snapshots
from .policies import ConstantFlowPolicy, FlowPolicy, policy_from_spec
from .scenarios import ScenarioSpec, resolve_scenario
from .thermal.backends import SolverBackend, resolve_backend
from .thermal.correlations import LAMINAR_REYNOLDS_LIMIT, reynolds_number

__all__ = [
    "TransientOutcome",
    "simulate_transient",
]

#: Flow scales are quantized to this many decimals before a solver or a
#: reduced model is derived for them, so revisited levels (bang-bang
#: toggling, a proportional controller hovering at its clip) reuse
#: solvers, factorizations and reduced operators instead of accumulating
#: near-duplicates.
_SCALE_DECIMALS = 6


@dataclass
class TransientOutcome:
    """Everything one transient run produced.

    Attributes
    ----------
    scenario:
        Name of the scenario that ran.
    result:
        The subsampled per-layer field history
        (:class:`~repro.ice.results.TransientResult`, solid layers only).
    step_times_s / peak_history_K / coolant_rise_history_K:
        Scalar observables at *every* step (index 0 is the initial state):
        absolute time, peak silicon temperature over all solid cells, and
        the largest coolant outlet rise over the inlet temperature.
    flow_times_s / flow_scales:
        The flow-scale schedule the policy produced: ``flow_scales[i]``
        applied from ``flow_times_s[i]`` until the next entry (or the end
        of the run).
    metrics:
        The transient reducers campaigns record (peak transient
        temperature, time above threshold, cycling amplitude, pumping
        energy, ...).
    metadata:
        Provenance: backend, policy, integration settings.
    """

    scenario: str
    result: TransientResult
    step_times_s: np.ndarray
    peak_history_K: np.ndarray
    coolant_rise_history_K: np.ndarray
    flow_times_s: np.ndarray
    flow_scales: np.ndarray
    metrics: Dict[str, float] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)


class _Context:
    """One scenario's full-order state: one stack, one assembly, every flow.

    A run builds its stack and its :class:`~repro.ice.solver.AssembledSystem`
    once, at the spec's nominal flow.  :meth:`solver_at` serves every flow
    scale the run steps or probes as a flow write on that system
    (:meth:`repro.ice.transient.TransientSolver.at_flow`), one solver per
    quantized scale; the cell bookkeeping is the same at every scale.
    """

    def __init__(self, spec: ScenarioSpec, backend: SolverBackend) -> None:
        self.spec = spec
        transient = spec.transient
        stack = spec.build_stack()
        for trace in transient.traces:
            try:
                index = stack.layer_index(trace.layer)
            except KeyError:
                raise ValueError(
                    f"scenario {spec.name!r}: trace layer {trace.layer!r} is "
                    f"not a layer of the stack; solid layers: "
                    f"{stack.solid_layer_names()}"
                ) from None
            if stack.layers[index].is_cavity:
                raise ValueError(
                    f"scenario {spec.name!r}: trace layer {trace.layer!r} is "
                    "a cavity; traces drive solid layers only"
                )
        self.stack = stack
        self._nominal = TransientSolver(
            stack, power_schedule=transient.schedule(), backend=backend
        )
        self._solvers: Dict[float, TransientSolver] = {}
        system = self.system = self._nominal.system
        solid, coolant = [], []
        for layer_index, layer in enumerate(stack.layers):
            start = system.index(layer_index, 0, 0)
            cells = np.arange(start, start + system.n_cells_per_layer)
            (coolant if layer.is_cavity else solid).append(cells)
        self.solid_cells = np.concatenate(solid)
        self.coolant_cells = (
            np.concatenate(coolant) if coolant else np.empty(0, dtype=int)
        )
        self.inlet_temperature = float(
            spec.experiment_config().params.inlet_temperature
        )

    def solver_at(self, scale: float) -> TransientSolver:
        """The transient solver at ``scale`` times the nominal flow."""
        solver = self._solvers.get(scale)
        if solver is None:
            solver = self._solvers[scale] = self._nominal.at_flow(scale)
        return solver

    def reduced_model(
        self, scale: float, flow_parametric: bool
    ) -> ReducedTransientModel:
        """The Krylov model of the implicit system at flow ``scale``.

        ``flow_parametric`` enriches the basis with flow derivatives and
        hands the model the system's flow split, taken at ``scale``, so it
        serves every scale through
        :meth:`~repro.core.rom.ReducedTransientModel.at_flow` (relative to
        ``scale``).
        """
        transient = self.spec.transient
        rom = transient.rom
        solver = self.solver_at(scale)
        system = solver.system
        implicit, c_over_dt, token = solver.implicit_system(transient.time_step_s)
        base_rhs = solver.rhs_at(0.0)
        row_blocks = []
        for trace in transient.traces:
            start = system.index(self.stack.layer_index(trace.layer), 0, 0)
            row_blocks.append(np.arange(start, start + system.n_cells_per_layer))
        input_rows = (
            np.unique(np.concatenate(row_blocks)) if row_blocks else None
        )
        # Sample the trace-driven load at a handful of times across the
        # run (plus the first step) so the starting block spans every
        # spatial pattern the schedule can produce.
        directions = []
        sample_times = sorted(
            {transient.time_step_s}
            | {
                fraction * transient.duration_s
                for fraction in (0.125, 0.375, 0.625, 0.875)
            }
        )
        for sample_time in sample_times:
            delta = solver.rhs_at(sample_time) - base_rhs
            if float(np.linalg.norm(delta)) > 0.0:
                directions.append(delta)
        flow_split = None
        if flow_parametric:
            split = system.flow_split()
            flow_split = (split.advection, split.inlet)

        # One handle per build: the seeds and every Arnoldi block are one
        # bare multi-RHS triangular solve each, never a content-hashed
        # factorization lookup.
        factorization = solver.backend.solver_for(implicit, token)
        return build_reduced_model(
            implicit,
            c_over_dt,
            factorization.solve,
            base_rhs,
            directions,
            solver.rhs_at,
            order=rom.order,
            tolerance=rom.tolerance,
            input_rows=input_rows,
            outputs={"solid": self.solid_cells, "coolant": self.coolant_cells},
            flow_split=flow_split,
        )

    def peak(self, state: np.ndarray) -> float:
        """Peak silicon temperature of a state vector (K)."""
        return float(np.max(state[self.solid_cells]))

    def coolant_rise(self, state: np.ndarray) -> float:
        """Largest coolant rise over the inlet temperature (K)."""
        if self.coolant_cells.size == 0:
            return 0.0
        return float(np.max(state[self.coolant_cells]) - self.inlet_temperature)

    def start_temperature(self) -> float:
        """Initial uniform temperature of the run (K)."""
        initial = self.spec.transient.initial_temperature_K
        if initial is not None:
            return float(initial)
        return float(self.stack.ambient_temperature)


class _Recorder:
    """Per-scenario history bookkeeping of one run.

    ``ctx`` is the run's context; ``scale`` is the flow scale currently
    applied, starting at the policy's initial one.
    """

    def __init__(
        self, ctx: _Context, scale: float, n_steps: int, store_every: int
    ) -> None:
        self.ctx = ctx
        self.scale = scale
        self.n_steps = int(n_steps)
        self.store_every = int(store_every)
        start = np.full(ctx.system.n_unknowns, ctx.start_temperature())
        self.state = start
        self.times: List[float] = [0.0]
        self.snapshots: List[np.ndarray] = [start.copy()]
        self.step_times: List[float] = [0.0]
        self.peaks: List[float] = [ctx.peak(start)]
        self.rises: List[float] = [ctx.coolant_rise(start)]
        self.flow_times: List[float] = [0.0]
        self.flow_scales: List[float] = [scale]

    def observe(self, global_step: int, time: float, state: np.ndarray) -> None:
        """Record one completed step (scalars always, fields subsampled)."""
        self.step_times.append(time)
        self.peaks.append(self.ctx.peak(state))
        self.rises.append(self.ctx.coolant_rise(state))
        if global_step % self.store_every == 0 or global_step == self.n_steps:
            self.times.append(time)
            self.snapshots.append(state.copy())

    def change_flow(self, time: float, scale: float) -> None:
        """Record a policy-driven flow-scale switch."""
        self.scale = scale
        self.flow_times.append(time)
        self.flow_scales.append(scale)


def _quantize(scale: float) -> float:
    return round(float(scale), _SCALE_DECIMALS)


def _max_reynolds(spec: ScenarioSpec, flow_scales: np.ndarray) -> float:
    """Worst-case channel Reynolds number over the applied flow scales.

    The Shah & London correlations behind every convective conductance are
    laminar-only; a runtime policy scaling the flow up can silently push
    the channels past that regime.  Re is evaluated at the narrowest
    channel cross-section (fixed per-channel flow -> the smallest
    ``w + h`` maximizes ``Re = 2 rho V_dot / (mu (w + h))``) and at the
    largest applied flow scale.
    """
    network = spec.flow_network(float(np.max(flow_scales)))
    min_width = min(min(p.segment_widths) for p in network.width_profiles)
    return float(
        reynolds_number(
            network.flow_rate_per_channel,
            min_width,
            network.geometry.channel_height,
            network.coolant,
        )
    )


def _finalize(
    spec: ScenarioSpec,
    recorder: _Recorder,
    backend: SolverBackend,
    *,
    wall_time_s: float,
    rom_stats: Dict[str, object],
) -> TransientOutcome:
    """Assemble histories, metrics and provenance into the outcome."""
    transient = spec.transient
    ctx = recorder.ctx
    system = ctx.system
    result = result_from_snapshots(
        system,
        ctx.stack,
        recorder.times,
        recorder.snapshots,
        metadata={
            "solver": "ice-transient-backward-euler",
            "backend": backend.name,
            "time_step": transient.time_step_s,
            "n_steps": transient.n_steps,
            "store_every": transient.store_every,
        },
    )
    step_times = np.asarray(recorder.step_times)
    peaks = np.asarray(recorder.peaks)
    rises = np.asarray(recorder.rises)
    flow_times = np.asarray(recorder.flow_times)
    flow_scales = np.asarray(recorder.flow_scales)
    # Per-lane Eq. (9) pressure drops at each applied flow scale feed the
    # per-channel pumping power ``dP * V_dot``; the mean over the modeled
    # lanes is scaled up to every physical channel of every cavity (the
    # lanes are the cavity's symmetric manifold clusters).
    networks = [spec.flow_network(scale) for scale in flow_scales]
    n_cavities = len(ctx.stack.cavity_layer_names())
    n_physical = ctx.stack.channels_per_cavity() * max(n_cavities, 1)
    pumping_powers = np.array(
        [
            network.total_pumping_power / network.n_channels * n_physical
            for network in networks
        ]
    )
    # Time integrals run over the time actually simulated: when duration_s
    # is not a whole multiple of the step, round(duration/dt) steps were
    # taken and the final recorded time -- not the requested duration --
    # is the honest upper bound.
    end_time = float(step_times[-1])
    final = result.final_maps()
    metrics: Dict[str, float] = {
        "peak_transient_temperature_K": float(np.max(peaks)),
        "final_peak_temperature_K": float(peaks[-1]),
        "final_thermal_gradient_K": final.thermal_gradient(),
        "time_above_threshold_s": time_above_threshold(
            step_times, peaks, transient.threshold_K
        ),
        "threshold_K": transient.threshold_K,
        "thermal_cycling_amplitude_K": thermal_cycling_amplitude(peaks),
        "max_coolant_rise_K": float(np.max(rises)),
        "pumping_energy_J": piecewise_integral(
            flow_times, pumping_powers, end_time
        ),
        "mean_flow_scale": piecewise_integral(
            flow_times, flow_scales, end_time
        )
        / end_time,
        # The steady pressure_drops_Pa fields describe the channel design
        # at *nominal* flow; this is the Eq. (9) worst-case drop at the
        # largest flow scale the policy actually applied.
        "max_pressure_drop_at_peak_flow_Pa": float(
            max(network.max_pressure_drop for network in networks)
        ),
        "n_flow_changes": int(np.count_nonzero(np.diff(flow_scales))),
    }
    # Correlation-validity check: every conductance in the model comes
    # from laminar-only correlations, so flag (instead of silently
    # extrapolating) when the policy's peak flow leaves the laminar
    # regime at the narrowest channel cross-section.
    max_reynolds = _max_reynolds(spec, flow_scales)
    metrics["max_reynolds"] = max_reynolds
    metrics["laminar_violated"] = bool(max_reynolds >= LAMINAR_REYNOLDS_LIMIT)
    metadata: Dict[str, object] = {
        "backend": backend.name,
        "policy": transient.policy.kind,
        "n_steps": transient.n_steps,
        "time_step_s": transient.time_step_s,
        "duration_s": transient.duration_s,
        "simulated_duration_s": end_time,
        "store_every": transient.store_every,
        "n_unknowns": system.n_unknowns,
        "wall_time_s": wall_time_s,
    }
    if (
        rom_stats.get("rom")
        or rom_stats.get("n_rom_builds")
        or rom_stats.get("n_rom_steps")
    ):
        # Measured-error contract: rom_* metrics appear exactly when the
        # trajectory itself was reduced; MPC rollouts over a full
        # trajectory surface only the build/step counters in metadata.
        if rom_stats.get("rom"):
            metrics["rom_order"] = int(rom_stats["rom_order"])
            metrics["rom_peak_abs_err_K"] = float(
                rom_stats["rom_peak_abs_err_K"]
            )
            metadata["rom_check_stride"] = int(rom_stats["rom_check_stride"])
        metadata["rom"] = bool(rom_stats.get("rom", False))
        metadata["rom_mode"] = transient.rom.mode
        metadata["n_rom_builds"] = int(rom_stats.get("n_rom_builds", 0))
        metadata["n_rom_steps"] = int(rom_stats.get("n_rom_steps", 0))
    return TransientOutcome(
        scenario=spec.name,
        result=result,
        step_times_s=step_times,
        peak_history_K=peaks,
        coolant_rise_history_K=rises,
        flow_times_s=flow_times,
        flow_scales=flow_scales,
        metrics=metrics,
        metadata=metadata,
    )


def simulate_transient(
    scenario,
    backend: Union[None, str, SolverBackend] = None,
) -> TransientOutcome:
    """Run one transient scenario step by step.

    ``backend`` overrides the spec's solver backend (a registry name from
    :mod:`repro.thermal.backends`, a backend instance, or None for the
    spec's own).  The run is chunked by the policy's control interval;
    with an inactive policy this is exactly one
    :meth:`~repro.ice.transient.TransientSolver.integrate` call, so the
    engine and the plain transient solver agree bit for bit.
    """
    spec = resolve_scenario(scenario)
    if spec.transient is None:
        raise ValueError(
            f"scenario {spec.name!r} has no transient section; the transient "
            "engine runs transient scenarios only (use the steady simulators "
            "for steady specs)"
        )
    backend = resolve_backend(
        backend if backend is not None else spec.solver.backend
    )
    start_wall = _time.perf_counter()
    policy = policy_from_spec(spec.transient.policy)
    recorder, rom_stats = _integrate_controlled(spec, policy, backend)
    wall_time = _time.perf_counter() - start_wall
    return _finalize(
        spec,
        recorder,
        backend,
        wall_time_s=wall_time,
        rom_stats=rom_stats,
    )


def _integrate_controlled(
    spec: ScenarioSpec, policy: FlowPolicy, backend: SolverBackend
) -> tuple:
    """Step one scenario to the end, consulting the policy each interval.

    Returns ``(recorder, rom_stats)``.  The trajectory advances one
    control interval (chunk) at a time through the full integrator or the
    reduced one, as the spec's ``rom`` block selects; after each chunk the
    policy may switch the flow scale.  Either way, a planning policy (one
    exposing ``bind_planner``) is handed a reduced-rollout planner, so MPC
    control is affordable even over full trajectories.

    The run builds one context (one stack, one assembly) and at most one
    reduced model, at its initial scale, and serves every other scale from
    them (:meth:`_Context.solver_at`, :meth:`ReducedTransientModel.at_flow`);
    a policy that can change the flow gets a flow-parametric model, a
    constant one the plain Krylov model of its only scale.
    """
    transient = spec.transient
    n_steps = transient.n_steps
    dt = transient.time_step_s
    models: Dict[float, ReducedTransientModel] = {}
    rom_stats: Dict[str, object] = {"n_rom_builds": 0, "n_rom_steps": 0}
    flow_varies = transient.policy.control_interval_s > 0.0 and not isinstance(
        policy, ConstantFlowPolicy
    )
    ctx = _Context(spec, backend)
    initial_scale = _quantize(policy.initial_scale())
    recorder = _Recorder(ctx, initial_scale, n_steps, transient.store_every)

    def model_at(scale: float) -> ReducedTransientModel:
        """The run's reduced model at one (quantized) flow scale."""
        if not models:
            models[initial_scale] = ctx.reduced_model(initial_scale, flow_varies)
            rom_stats["n_rom_builds"] += 1
        model = models.get(scale)
        if model is None:
            model = models[initial_scale].at_flow(scale / initial_scale)
            models[scale] = model
        return model

    if hasattr(policy, "bind_planner"):

        def plan(scale: float, horizon_s: float) -> float:
            """Predicted peak T over the horizon at one candidate scale."""
            model = model_at(_quantize(scale))
            steps = max(1, int(round(horizon_s / dt)))
            base_step = int(round(recorder.step_times[-1] / dt))
            times = (base_step + np.arange(1, steps + 1)) * dt
            states = model.advance(model.project(recorder.state), times)
            rom_stats["n_rom_steps"] += steps
            return float(np.max(model.output_max_many("solid", states)))

        policy.bind_planner(plan)

    if transient.rom_active:
        rom_stats.update(
            rom=True,
            rom_order=0,
            rom_peak_abs_err_K=0.0,
            rom_check_stride=transient.rom.check_every or max(1, n_steps // 4),
        )
    global_step = 0
    while global_step < n_steps:
        chunk = min(transient.control_steps, n_steps - global_step)
        scale = recorder.scale
        if transient.rom_active:
            _advance_reduced(
                transient, recorder, model_at(scale), global_step, chunk, rom_stats
            )
        else:
            _advance_full(
                transient, recorder, ctx.solver_at(scale), global_step, chunk
            )
        global_step += chunk
        if global_step < n_steps and transient.policy.control_interval_s > 0.0:
            scale = _quantize(
                policy.update(recorder.step_times[-1], recorder.peaks[-1])
            )
            if scale != recorder.scale:
                recorder.change_flow(recorder.step_times[-1], scale)
    return recorder, rom_stats


def _advance_full(
    transient,
    recorder: _Recorder,
    solver: TransientSolver,
    first_step: int,
    chunk: int,
) -> None:
    """One chunk of full-state backward-Euler steps through ``solver``."""

    def on_step(step: int, time: float, state: np.ndarray) -> None:
        recorder.observe(first_step + step, time, state)

    recorder.state = solver.integrate(
        recorder.state,
        step_offset=first_step,
        n_steps=chunk,
        time_step=transient.time_step_s,
        on_step=on_step,
    )


def _advance_reduced(
    transient,
    recorder: _Recorder,
    model: ReducedTransientModel,
    first_step: int,
    chunk: int,
    rom_stats: Dict[str, object],
) -> None:
    """One chunk of reduced steps: project, step in the subspace, lift.

    The chunk's states come from one :meth:`ReducedTransientModel.advance`
    call; scalar observables (peak temperature, coolant rise) come from
    the model's output maps over all of them at once, and full states are
    reconstructed only at stored-snapshot steps and at the chunk's end.
    At every ``rom_check_stride`` steps (and at the final step) one *full*
    implicit step at the chunk's flow scale is taken from the lifted
    reduced state and its peak is compared to the reduced prediction --
    the running maximum discrepancy is ``rom_stats["rom_peak_abs_err_K"]``.
    The probe solver is the run context's at that scale; a chunk without
    a checkpoint never asks for it.
    """
    n_steps = transient.n_steps
    dt = transient.time_step_s
    store_every = transient.store_every
    check_stride = rom_stats["rom_check_stride"]
    ctx = recorder.ctx
    rom_stats["rom_order"] = max(rom_stats["rom_order"], model.order)
    max_abs_err = rom_stats["rom_peak_abs_err_K"]
    x_start = model.project(recorder.state)
    # Acquired at the chunk's first checkpoint, if it has one.
    probe = reference_solver = None
    times = (first_step + np.arange(1, chunk + 1)) * dt
    states = model.advance(x_start, times)
    rom_stats["n_rom_steps"] = int(rom_stats["n_rom_steps"]) + chunk
    peaks = model.output_max_many("solid", states)
    if ctx.coolant_cells.size == 0:
        rises = np.zeros(chunk)
    else:
        rises = (
            model.output_max_many("coolant", states) - ctx.inlet_temperature
        )
    recorder.step_times.extend(float(time) for time in times)
    recorder.peaks.extend(float(peak) for peak in peaks)
    recorder.rises.extend(float(rise) for rise in rises)
    for column in range(chunk):
        global_index = first_step + column + 1
        checkpoint = (
            global_index % check_stride == 0 or global_index == n_steps
        )
        if checkpoint:
            x_prev = states[:, column - 1] if column else x_start
            if reference_solver is None:
                probe = ctx.solver_at(recorder.scale)
                implicit, c_over_dt, token = probe.implicit_system(dt)
                reference_solver = probe.backend.solver_for(implicit, token)
            reference = reference_solver.solve(
                probe.rhs_at(float(times[column]))
                + c_over_dt @ model.lift(x_prev)
            )
            max_abs_err = max(
                max_abs_err,
                abs(ctx.peak(reference) - float(peaks[column])),
            )
        if global_index % store_every == 0 or global_index == n_steps:
            recorder.times.append(float(times[column]))
            recorder.snapshots.append(model.lift(states[:, column]))
    recorder.state = model.lift(states[:, -1])
    rom_stats["rom_peak_abs_err_K"] = float(max_abs_err)
