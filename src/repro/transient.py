"""Transient workload specifications: power traces, schedules and policies.

Everything batch-facing in the library describes *what to run* as frozen,
JSON-round-trippable specs (:mod:`repro.scenarios`); this module extends
that vocabulary to time-varying workloads:

* :class:`TraceSpec` -- one per-block (per solid layer) power trace:
  piecewise-constant flux segments, a periodic duty cycle, or a trace
  loaded from a CSV/JSON file (:meth:`TraceSpec.from_file`, stored inline
  so the spec stays self-contained);
* :class:`PolicySpec` -- the serializable description of a runtime
  coolant flow-control policy (built into a live
  :class:`~repro.policies.FlowPolicy` by
  :func:`repro.policies.policy_from_spec`);
* :class:`TransientSpec` -- the full time axis of a scenario: duration,
  backward-Euler step, traces, control policy, history subsampling and
  the threshold used by the time-above-threshold metric.

A :class:`~repro.scenarios.ScenarioSpec` carries an optional
``transient`` field of this type; scenarios with one run through the
finite-volume transient engine (:mod:`repro.transient_engine`) instead of
the steady solvers.  All specs validate on construction and round-trip
losslessly through ``to_dict``/``from_dict`` (and JSON) of the spec codec
(:mod:`repro.spec_codec`), so transient scenarios serialize, hash, sweep
and resume exactly like steady ones.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from .spec_codec import Spec, coerce

__all__ = [
    "TRACE_KINDS",
    "POLICY_KINDS",
    "ROM_MODES",
    "ROM_AUTO_MIN_STEPS",
    "TraceSpec",
    "PolicySpec",
    "RomSpec",
    "TransientSpec",
    "load_trace_file",
]

#: Trace shapes a spec can describe.
TRACE_KINDS: Tuple[str, ...] = ("piecewise", "periodic")

#: Built-in flow-control policy kinds (see :mod:`repro.policies`).
POLICY_KINDS: Tuple[str, ...] = ("constant", "bang-bang", "proportional", "mpc")

#: Reduced-order-model dispatch modes (see :class:`RomSpec`).
ROM_MODES: Tuple[str, ...] = ("off", "rom", "auto")

#: ``mode="auto"`` picks the reduced integrator for traces at least this
#: many steps long (shorter traces cannot amortize the basis build).
ROM_AUTO_MIN_STEPS = 32


def load_trace_file(path: Union[str, os.PathLike]) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Read ``(times, values)`` from a CSV or JSON trace file.

    Two formats are accepted:

    * CSV: two columns ``time,value`` per line; a non-numeric first line
      is treated as a header and skipped;
    * JSON: either ``{"times": [...], "values": [...]}`` or a list of
      ``[time, value]`` pairs.

    The times must start at 0 and increase strictly; the returned pair is
    ready for :class:`TraceSpec` (``kind="piecewise"``), which stores the
    samples inline so the resulting spec is self-contained.
    """
    name = os.fspath(path)
    with open(name, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        data = json.loads(text)
        if isinstance(data, Mapping):
            if "times" not in data or "values" not in data:
                raise ValueError(
                    f"{name}: a JSON trace object needs 'times' and 'values'"
                )
            times, values = data["times"], data["values"]
        else:
            try:
                times = [pair[0] for pair in data]
                values = [pair[1] for pair in data]
            except (TypeError, IndexError):
                raise ValueError(
                    f"{name}: a JSON trace list must hold [time, value] pairs"
                ) from None
    else:
        times, values = [], []
        for number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            parts = [part.strip() for part in line.split(",")]
            if len(parts) < 2:
                raise ValueError(
                    f"{name}:{number}: expected 'time,value', got {line!r}"
                )
            try:
                time, value = float(parts[0]), float(parts[1])
            except ValueError:
                if number == 1:  # header line
                    continue
                raise ValueError(
                    f"{name}:{number}: non-numeric trace sample {line!r}"
                ) from None
            times.append(time)
            values.append(value)
    if not times:
        raise ValueError(f"{name}: the trace file holds no samples")
    return (
        tuple(float(time) for time in times),
        tuple(float(value) for value in values),
    )


@dataclass(frozen=True)
class TraceSpec(Spec, section="trace"):
    """A time-varying heat-flux trace for one solid layer of the stack.

    Attributes
    ----------
    layer:
        Name of the solid layer the trace drives (``"top_die"``, ...).
    kind:
        ``"piecewise"`` (explicit breakpoints) or ``"periodic"`` (duty
        cycle).
    times / values:
        Piecewise-constant samples: ``values[i]`` (W/cm^2) holds from
        ``times[i]`` until ``times[i+1]`` (the last value holds to the end
        of the run).  ``times`` must start at 0 and increase strictly.
    period_s / duty / high / low:
        Periodic traces: flux is ``high`` (W/cm^2) for the first
        ``duty`` fraction of every ``period_s`` seconds and ``low``
        otherwise.
    """

    layer: str
    kind: str = "piecewise"
    times: Tuple[float, ...] = ()
    values: Tuple[float, ...] = ()
    period_s: float = 0.0
    duty: float = 0.5
    high: float = 0.0
    low: float = 0.0

    def __post_init__(self) -> None:
        coerce(self)
        if not self.layer:
            raise ValueError(
                f"trace.layer must be a non-empty layer name, got {self.layer!r}"
            )
        if self.kind not in TRACE_KINDS:
            raise ValueError(
                f"trace.kind must be one of {list(TRACE_KINDS)}, got {self.kind!r}"
            )
        if self.kind == "piecewise":
            if not self.times or len(self.times) != len(self.values):
                raise ValueError(
                    f"trace {self.layer!r}: piecewise traces need matching, "
                    f"non-empty times/values, got {len(self.times)} times and "
                    f"{len(self.values)} values"
                )
            if self.times[0] != 0.0:
                raise ValueError(
                    f"trace {self.layer!r}: times must start at 0, "
                    f"got {self.times[0]}"
                )
            if any(b <= a for a, b in zip(self.times, self.times[1:])):
                raise ValueError(
                    f"trace {self.layer!r}: times must increase strictly, "
                    f"got {self.times}"
                )
            if any(v < 0.0 for v in self.values):
                raise ValueError(
                    f"trace {self.layer!r}: flux values must be "
                    f"non-negative, got {self.values}"
                )
        else:  # periodic
            if self.period_s <= 0.0:
                raise ValueError(
                    f"trace {self.layer!r}: period_s must be positive, "
                    f"got {self.period_s}"
                )
            if not 0.0 < self.duty <= 1.0:
                raise ValueError(
                    f"trace {self.layer!r}: duty must be in (0, 1], got {self.duty}"
                )
            if self.high < 0.0 or self.low < 0.0:
                raise ValueError(
                    f"trace {self.layer!r}: high/low fluxes must be "
                    f"non-negative, got ({self.high}, {self.low})"
                )

    @classmethod
    def from_file(cls, layer: str, path: Union[str, os.PathLike]) -> "TraceSpec":
        """Load a CSV/JSON trace file into a self-contained piecewise trace."""
        times, values = load_trace_file(path)
        return cls(layer=layer, kind="piecewise", times=times, values=values)

    def flux_at(self, time_s: float) -> float:
        """The trace's areal heat flux (W/cm^2) at ``time_s``."""
        if self.kind == "periodic":
            phase = time_s % self.period_s
            return self.high if phase < self.duty * self.period_s else self.low
        index = int(np.searchsorted(self.times, time_s, side="right")) - 1
        return self.values[max(index, 0)]


@dataclass(frozen=True)
class PolicySpec(Spec, section="policy"):
    """Serializable description of a runtime flow-control policy.

    The ``kind`` selects the policy family (see :mod:`repro.policies`);
    only the fields that family reads are meaningful, the rest keep their
    defaults so any spec round-trips losslessly.

    Attributes
    ----------
    kind:
        ``"constant"``, ``"bang-bang"``, ``"proportional"``, ``"mpc"`` or
        a custom registered policy name.
    control_interval_s:
        How often the policy observes the peak temperature and may change
        the flow (seconds).  ``0`` disables runtime control entirely (the
        initial scale applies for the whole run); threshold, proportional
        and model-predictive policies require a positive interval.
    scale:
        The fixed flow scale of ``"constant"`` policies.
    threshold_K / low_scale / high_scale:
        Bang-bang trigger temperature and its two flow levels.
    setpoint_K / gain_per_K / min_scale / max_scale:
        Proportional setpoint, gain and clip range.  ``"mpc"`` reuses
        ``threshold_K`` as the planning constraint and
        ``min_scale``/``max_scale`` as the candidate range.
    horizon_s / n_candidates:
        Model-predictive planning: each control interval the policy rolls
        a reduced model ``horizon_s`` seconds forward for each of
        ``n_candidates`` flow scales between ``min_scale`` and
        ``max_scale`` and commits the cheapest scale whose predicted peak
        stays under ``threshold_K``.
    """

    kind: str = "constant"
    control_interval_s: float = 0.0
    scale: float = 1.0
    threshold_K: float = 350.0
    low_scale: float = 1.0
    high_scale: float = 1.5
    setpoint_K: float = 345.0
    gain_per_K: float = 0.05
    min_scale: float = 0.25
    max_scale: float = 2.0
    horizon_s: float = 0.0
    n_candidates: int = 4

    def __post_init__(self) -> None:
        coerce(self)
        if not self.kind:
            raise ValueError(
                f"policy.kind must be a non-empty policy name, got {self.kind!r}"
            )
        if self.control_interval_s < 0.0:
            raise ValueError(
                f"policy.control_interval_s must be non-negative, "
                f"got {self.control_interval_s}"
            )
        for name in ("scale", "low_scale", "high_scale", "min_scale", "max_scale"):
            if getattr(self, name) <= 0.0:
                raise ValueError(
                    f"policy.{name} must be positive, got {getattr(self, name)}"
                )
        if self.min_scale > self.max_scale:
            raise ValueError(
                f"policy.min_scale must not exceed policy.max_scale, "
                f"got ({self.min_scale}, {self.max_scale})"
            )
        if self.threshold_K <= 0.0 or self.setpoint_K <= 0.0:
            raise ValueError("policy temperatures must be positive (Kelvin)")
        if self.horizon_s < 0.0:
            raise ValueError(
                f"policy.horizon_s must be non-negative, got {self.horizon_s}"
            )
        if self.n_candidates < 2:
            raise ValueError(
                f"policy.n_candidates must be at least 2, got {self.n_candidates}"
            )
        if self.kind in ("bang-bang", "proportional", "mpc") and self.control_interval_s <= 0.0:
            raise ValueError(
                f"policy.kind {self.kind!r} reacts to observed temperatures "
                "and needs a positive control_interval_s"
            )
        if self.kind == "mpc" and self.horizon_s <= 0.0:
            raise ValueError(
                "policy.kind 'mpc' plans over a horizon and needs a "
                f"positive horizon_s, got {self.horizon_s}"
            )


@dataclass(frozen=True)
class RomSpec(Spec, section="rom"):
    """Reduced-order-model settings for the transient integrator.

    Attributes
    ----------
    mode:
        ``"off"`` (default; the full finite-volume integrator, bit-
        identical to earlier releases), ``"rom"`` (always use the Krylov
        reduced integrator of :mod:`repro.core.rom`) or ``"auto"``
        (reduced for traces of at least ``ROM_AUTO_MIN_STEPS`` steps,
        full otherwise).
    order:
        Maximum Krylov basis size; the realized order may be smaller when
        the subspace closes or ``tolerance`` deflates directions, and is
        reported as ``rom_order`` in the transient metrics.
    tolerance:
        Relative deflation threshold of the block-Arnoldi recurrence:
        candidate directions whose orthogonal remainder falls below this
        fraction of their norm are dropped.
    check_every:
        Stride (in steps) of the error checkpoints: at every checkpoint
        one *full* backward-Euler step, at the flow scale then applied, is
        taken from the lifted reduced state and the peak-temperature
        discrepancy is folded into the reported ``rom_peak_abs_err_K``.
        ``0`` picks ``n_steps // 4`` (at least 1); the final step is
        always checked.  The metric is therefore the largest *one-step
        defect* at the checkpoints -- how far a single reduced step lands
        from a full step out of the same state -- not the trajectory error
        accumulated since the start of the run, which can be far larger:
        Krylov models built once per flow scale on Niagara arch1 runs
        under a proportional policy reported 1.4-90 µK while their true
        peak error against full integration was 0.23-1.1 mK.
    """

    mode: str = "off"
    order: int = 48
    tolerance: float = 1e-9
    check_every: int = 0

    def __post_init__(self) -> None:
        coerce(self)
        if self.mode not in ROM_MODES:
            raise ValueError(
                f"rom.mode must be one of {list(ROM_MODES)}, got {self.mode!r}"
            )
        if self.order < 1:
            raise ValueError(f"rom.order must be at least 1, got {self.order}")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError(
                f"rom.tolerance must be in (0, 1), got {self.tolerance}"
            )
        if self.check_every < 0:
            raise ValueError(
                f"rom.check_every must be non-negative, got {self.check_every}"
            )


@dataclass(frozen=True)
class TransientSpec(Spec, section="transient"):
    """The time axis of a scenario: traces, integration and control.

    Attributes
    ----------
    duration_s / time_step_s:
        Total simulated time and the backward-Euler step (seconds).  The
        scheme is unconditionally stable, so the step only controls
        accuracy.
    traces:
        Per-layer power traces (at most one per layer); layers without a
        trace keep the scenario's static heat maps.
    policy:
        The runtime flow-control policy (constant scale 1 by default,
        i.e. the uncontrolled scenario).
    store_every:
        Keep every ``store_every``-th field snapshot (plus the initial
        and final states), bounding memory for long traces.  Scalar
        observables (peak temperature, coolant rise) are tracked at every
        step regardless.
    initial_temperature_K:
        Uniform initial temperature; ``None`` starts from the stack's
        ambient (inlet) temperature.
    threshold_K:
        Temperature used by the time-above-threshold transient metric
        (85 C by default).
    rom:
        Reduced-order-model settings (:class:`RomSpec`); ``mode="off"``
        by default, keeping trajectories bit-identical to the full
        integrator.

    The plain-data form feeds :meth:`repro.scenarios.ScenarioSpec.spec_hash`,
    so the fields above are frozen: they serialize unconditionally, byte
    for byte.  A field added later must be declared with
    :func:`repro.spec_codec.late_field`, which omits it while it holds its
    default, so stored hashes of existing transient scenarios keep
    resolving.
    """

    duration_s: float = 1.0
    time_step_s: float = 0.01
    traces: Tuple[TraceSpec, ...] = ()
    policy: PolicySpec = PolicySpec()
    store_every: int = 1
    initial_temperature_K: Optional[float] = None
    threshold_K: float = 358.15
    rom: RomSpec = RomSpec()

    def __post_init__(self) -> None:
        coerce(self)
        if self.duration_s <= 0.0 or self.time_step_s <= 0.0:
            raise ValueError(
                "transient.duration_s and transient.time_step_s must be "
                f"positive, got ({self.duration_s}, {self.time_step_s})"
            )
        if self.store_every < 1:
            raise ValueError(
                f"transient.store_every must be at least 1, got {self.store_every}"
            )
        if self.threshold_K <= 0.0:
            raise ValueError(
                f"transient.threshold_K must be positive (Kelvin), "
                f"got {self.threshold_K}"
            )
        if self.initial_temperature_K is not None and self.initial_temperature_K <= 0.0:
            raise ValueError(
                "transient.initial_temperature_K must be positive "
                f"(Kelvin), got {self.initial_temperature_K}"
            )
        layers = [trace.layer for trace in self.traces]
        duplicates = sorted({layer for layer in layers if layers.count(layer) > 1})
        if duplicates:
            raise ValueError(
                f"transient.traces repeat layer(s) {duplicates}; at most one "
                "trace per layer"
            )
        policy = self.policy
        if policy.control_interval_s > 0.0:
            steps = policy.control_interval_s / self.time_step_s
            if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
                raise ValueError(
                    "policy.control_interval_s must be a positive whole "
                    f"multiple of transient.time_step_s, got "
                    f"{policy.control_interval_s} vs {self.time_step_s}"
                )

    # -- derived integration parameters ------------------------------------

    @property
    def n_steps(self) -> int:
        """Number of backward-Euler steps of the run."""
        return max(int(round(self.duration_s / self.time_step_s)), 1)

    @property
    def control_steps(self) -> int:
        """Steps per control interval (``n_steps`` when control is off)."""
        if self.policy.control_interval_s <= 0.0:
            return self.n_steps
        return int(round(self.policy.control_interval_s / self.time_step_s))

    @property
    def rom_active(self) -> bool:
        """Whether the reduced integrator should run this trajectory."""
        if self.rom.mode == "rom":
            return True
        if self.rom.mode == "auto":
            return self.n_steps >= ROM_AUTO_MIN_STEPS
        return False

    def schedule(self):
        """A ``time -> {layer: flux}`` callable over the traces (or None).

        This is exactly the ``power_schedule`` shape consumed by
        :class:`repro.ice.transient.TransientSolver`.
        """
        if not self.traces:
            return None
        traces = self.traces

        def power_schedule(time_s: float) -> Dict[str, float]:
            return {trace.layer: trace.flux_at(time_s) for trace in traces}

        return power_schedule
