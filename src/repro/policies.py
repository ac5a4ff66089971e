"""Runtime coolant flow-control policies for transient scenarios.

The paper's design flow shapes the channels *statically*; the runtime
thermal-management companion work (fuzzy and flow-rate controllers for
liquid-cooled 3D-MPSoCs, see PAPERS.md) instead modulates the *coolant
flow* while the workload runs.  This module provides that runtime axis:
a :class:`FlowPolicy` observes the stack's peak temperature once per
control interval and answers with a flow *scale* -- the factor applied to
the scenario's nominal per-channel flow rate for the next interval.

Three built-in policies cover the classic control shapes:

``constant``
    A fixed scale (1.0 reproduces the uncontrolled scenario exactly).
``bang-bang``
    Two-level threshold control: ``high_scale`` while the observed peak
    temperature is at or above ``threshold_K``, ``low_scale`` below it.
``proportional``
    ``scale = clip(1 + gain_per_K * (T_peak - setpoint_K))`` between
    ``min_scale`` and ``max_scale``.
``mpc``
    Model-predictive planning: each control interval the policy rolls a
    reduced-order model (:mod:`repro.core.rom`) ``horizon_s`` seconds
    forward for each candidate flow scale and commits the *cheapest*
    (lowest) scale whose predicted peak temperature stays under
    ``threshold_K`` -- planning instead of reacting, affordable only
    because the rollouts are reduced.  The transient engine binds the
    rollout capability via :meth:`ModelPredictiveFlowPolicy.bind_planner`;
    without a planner the policy degrades to bang-bang on the observation.

Policies are deliberately *stateless* pure functions of the observation:
the same temperature history always produces the same flow trajectory, so
transient campaigns comparing policies are reproducible.  (The MPC policy
keeps this determinism: its planner is a deterministic function of the
simulation state.)

Custom policies register with :func:`register_policy`; anything exposing
``initial_scale()`` and ``update(time_s, peak_temperature_K) -> float``
works.  :func:`policy_from_spec` builds a policy from the serializable
:class:`~repro.transient.PolicySpec` carried by transient scenarios.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .core.registry import Registry

__all__ = [
    "FlowPolicy",
    "ConstantFlowPolicy",
    "BangBangFlowPolicy",
    "ProportionalFlowPolicy",
    "ModelPredictiveFlowPolicy",
    "available_policies",
    "get_policy_factory",
    "register_policy",
    "policy_from_spec",
]


class FlowPolicy:
    """Interface of a runtime flow-control policy.

    A policy is queried once per control interval with the simulation time
    and the peak silicon temperature observed at that time, and returns
    the flow scale (a multiplier on the scenario's nominal per-channel
    flow rate) to apply over the *next* interval.
    """

    #: Registry name of the policy kind.
    name: str = "abstract"

    def initial_scale(self) -> float:
        """Flow scale applied before the first observation."""
        return 1.0

    def update(self, time_s: float, peak_temperature_K: float) -> float:
        """Flow scale for the next control interval."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} name={self.name!r}>"


class ConstantFlowPolicy(FlowPolicy):
    """Fixed flow scale; ``scale=1`` is the uncontrolled scenario."""

    name = "constant"

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0.0:
            raise ValueError(f"flow scale must be positive, got {scale}")
        self.scale = float(scale)

    def initial_scale(self) -> float:
        return self.scale

    def update(self, time_s, peak_temperature_K) -> float:
        return self.scale


class BangBangFlowPolicy(FlowPolicy):
    """Two-level threshold (bang-bang) control on the observed peak."""

    name = "bang-bang"

    def __init__(
        self,
        threshold_K: float = 350.0,
        low_scale: float = 1.0,
        high_scale: float = 1.5,
    ) -> None:
        if threshold_K <= 0.0:
            raise ValueError(f"threshold_K must be positive, got {threshold_K}")
        if low_scale <= 0.0 or high_scale <= 0.0:
            raise ValueError("flow scales must be positive")
        self.threshold_K = float(threshold_K)
        self.low_scale = float(low_scale)
        self.high_scale = float(high_scale)

    def initial_scale(self) -> float:
        return self.low_scale

    def update(self, time_s, peak_temperature_K) -> float:
        if peak_temperature_K >= self.threshold_K:
            return self.high_scale
        return self.low_scale


class ProportionalFlowPolicy(FlowPolicy):
    """Proportional control around a peak-temperature setpoint."""

    name = "proportional"

    def __init__(
        self,
        setpoint_K: float = 345.0,
        gain_per_K: float = 0.05,
        min_scale: float = 0.25,
        max_scale: float = 2.0,
    ) -> None:
        if setpoint_K <= 0.0:
            raise ValueError(f"setpoint_K must be positive, got {setpoint_K}")
        if min_scale <= 0.0 or max_scale < min_scale:
            raise ValueError(
                "flow scales must satisfy 0 < min_scale <= max_scale, got "
                f"({min_scale}, {max_scale})"
            )
        self.setpoint_K = float(setpoint_K)
        self.gain_per_K = float(gain_per_K)
        self.min_scale = float(min_scale)
        self.max_scale = float(max_scale)

    def _clip(self, scale: float) -> float:
        return min(max(scale, self.min_scale), self.max_scale)

    def initial_scale(self) -> float:
        return self._clip(1.0)

    def update(self, time_s, peak_temperature_K) -> float:
        error = peak_temperature_K - self.setpoint_K
        return self._clip(1.0 + self.gain_per_K * error)


class ModelPredictiveFlowPolicy(FlowPolicy):
    """Horizon-planning flow control over a reduced-order rollout model.

    Built from a whole :class:`~repro.transient.PolicySpec` (the custom-
    kind factory convention): ``threshold_K`` is the planning constraint,
    ``min_scale``/``max_scale`` bound ``n_candidates`` evenly spaced
    candidate scales, and ``horizon_s`` is the lookahead.  Each control
    interval the policy asks its planner -- bound by the transient engine
    via :meth:`bind_planner` -- for the predicted peak temperature of
    every candidate over the horizon, scanning cheapest (lowest pumping
    power, i.e. lowest scale) first, and commits the first candidate that
    keeps the prediction under the threshold; if none does it commits
    ``max_scale``.  Without a planner (e.g. a policy driven outside the
    transient engine) it degrades to bang-bang between the extreme
    candidates.
    """

    name = "mpc"

    def __init__(self, spec) -> None:
        threshold = float(spec.threshold_K)
        min_scale = float(spec.min_scale)
        max_scale = float(spec.max_scale)
        horizon = float(spec.horizon_s)
        n_candidates = int(spec.n_candidates)
        if threshold <= 0.0:
            raise ValueError(f"threshold_K must be positive, got {threshold}")
        if min_scale <= 0.0 or max_scale < min_scale:
            raise ValueError(
                "flow scales must satisfy 0 < min_scale <= max_scale, got "
                f"({min_scale}, {max_scale})"
            )
        if horizon <= 0.0:
            raise ValueError(f"horizon_s must be positive, got {horizon}")
        if n_candidates < 2:
            raise ValueError(
                f"n_candidates must be at least 2, got {n_candidates}"
            )
        self.threshold_K = threshold
        self.horizon_s = horizon
        # Ascending, so the planning scan commits the cheapest feasible
        # candidate first.
        self.candidates = tuple(
            min_scale + (max_scale - min_scale) * index / (n_candidates - 1)
            for index in range(n_candidates)
        )
        self._planner: Optional[Callable[[float, float], float]] = None

    def bind_planner(self, planner: Callable[[float, float], float]) -> None:
        """Attach ``planner(scale, horizon_s) -> predicted peak T (K)``."""
        self._planner = planner

    def initial_scale(self) -> float:
        # Nominal flow (clipped into the candidate band) until the first
        # planned decision: the planner has not seen the trace yet, and
        # opening at the cheapest candidate would let the first burst
        # overshoot before any control is possible.
        return min(max(1.0, self.candidates[0]), self.candidates[-1])

    def update(self, time_s, peak_temperature_K) -> float:
        if self._planner is None:  # no rollout model: react, don't plan
            if peak_temperature_K >= self.threshold_K:
                return self.candidates[-1]
            return self.candidates[0]
        for scale in self.candidates:
            if self._planner(scale, self.horizon_s) <= self.threshold_K:
                return scale
        return self.candidates[-1]


_REGISTRY = Registry(
    "flow policy",
    {
        "constant": ConstantFlowPolicy,
        "bang-bang": BangBangFlowPolicy,
        "proportional": ProportionalFlowPolicy,
        "mpc": ModelPredictiveFlowPolicy,
    },
    plural="flow policies",
    sort=True,
)


def register_policy(
    name: str, factory: Callable[..., FlowPolicy], overwrite: bool = False
) -> None:
    """Register a policy factory (class or callable) under ``name``."""
    if not callable(factory):
        raise TypeError("policy factory must be callable")
    _REGISTRY.register(name, factory, overwrite)


def get_policy_factory(name: str) -> Callable[..., FlowPolicy]:
    """Look up a policy factory by registry name."""
    return _REGISTRY.lookup(name)


def available_policies() -> List[str]:
    """Sorted names of the registered flow policies."""
    return _REGISTRY.names()


def policy_from_spec(spec) -> FlowPolicy:
    """Build a :class:`FlowPolicy` from a serializable ``PolicySpec``.

    The mapping from spec fields to constructor arguments is fixed per
    built-in kind; custom registered kinds receive the whole spec.
    """
    kind = spec.kind
    if kind == "constant":
        return ConstantFlowPolicy(scale=spec.scale)
    if kind == "bang-bang":
        return BangBangFlowPolicy(
            threshold_K=spec.threshold_K,
            low_scale=spec.low_scale,
            high_scale=spec.high_scale,
        )
    if kind == "proportional":
        return ProportionalFlowPolicy(
            setpoint_K=spec.setpoint_K,
            gain_per_K=spec.gain_per_K,
            min_scale=spec.min_scale,
            max_scale=spec.max_scale,
        )
    if kind == "mpc":
        return ModelPredictiveFlowPolicy(spec)
    return get_policy_factory(kind)(spec)
