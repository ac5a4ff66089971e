"""Transient finite-volume solver (backward Euler).

The paper's analytical model is steady-state, but the 3D-ICE simulator it
validates against is a transient compact model; a transient capability is
therefore part of the substrate.  The transient solver reuses the steady
assembly of :class:`~repro.ice.solver.AssembledSystem` (conduction,
convection, advection and sources) and integrates

    C dT/dt = -(A T - b)

with the unconditionally stable backward Euler scheme::

    (C / dt + A) T_{n+1} = (C / dt) T_n + b

Power maps may change between steps by supplying a schedule of heat-source
maps, which enables simple dynamic-thermal-management style experiments on
top of the reproduction.

The implicit step is solved through the pluggable backends of
:mod:`repro.thermal.backends`: each :meth:`TransientSolver.integrate` call
acquires one factorization handle for ``C/dt + A`` (the sparse-LU backend
factorizes it on a miss) and every step is a bare triangular solve
through it.  The backend's keyed factorization cache carries the
factorization across chunks and repeated runs of the same stack and time
step (re-running a transient after a parameter sweep pays only
triangular solves), and :meth:`TransientSolver.at_flow` serves another
flow scale of the same stack as a flow write on its assembled system.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, Optional, Union

import numpy as np
from scipy import sparse

from ..thermal.backends import SolverBackend, resolve_backend
from .results import TransientResult
from .solver import AssembledSystem
from .stack import LayerStack

__all__ = ["TransientSolver", "result_from_snapshots"]

PowerSchedule = Callable[[float], Dict[str, Union[float, np.ndarray]]]


def result_from_snapshots(
    system: AssembledSystem,
    stack: LayerStack,
    times,
    snapshots,
    metadata: Dict[str, object],
) -> TransientResult:
    """Fold full-state snapshots into a per-solid-layer TransientResult.

    Shared by :meth:`TransientSolver.run` and the transient engine
    (:mod:`repro.transient_engine`), so both paths assemble histories --
    and hence compare bit for bit -- through exactly one implementation.
    """
    layer_histories: Dict[str, np.ndarray] = {}
    for layer_idx, layer in enumerate(stack.layers):
        if layer.is_cavity:
            continue
        start = system.index(layer_idx, 0, 0)
        stop = start + system.n_cells_per_layer
        layer_histories[layer.name] = np.stack(
            [
                snapshot[start:stop].reshape(stack.n_rows, stack.n_cols)
                for snapshot in snapshots
            ]
        )
    return TransientResult(
        times=np.asarray(times),
        layer_histories=layer_histories,
        metadata=metadata,
    )


class TransientSolver:
    """Backward-Euler transient integration of a layer stack.

    Parameters
    ----------
    stack:
        The layer stack to simulate.  Heat-source maps attached to the
        stack's layers define the default (time-invariant) power input.
    power_schedule:
        Optional callable mapping the simulation time (s) to a dictionary
        ``{layer name: heat-flux map in W/cm^2}``; layers not present in the
        dictionary keep their default sources.  Evaluated once per step.
    backend:
        Linear-solver backend for the implicit steps (a registry name from
        :mod:`repro.thermal.backends`, a backend instance, or None for the
        default ``"auto"``).
    """

    def __init__(
        self,
        stack: LayerStack,
        power_schedule: Optional[PowerSchedule] = None,
        backend: Union[None, str, SolverBackend] = None,
    ) -> None:
        self.stack = stack
        self.system = AssembledSystem(stack)
        self.power_schedule = power_schedule
        self.backend = resolve_backend(backend)
        self._implicit: Dict[float, tuple] = {}

    def at_flow(self, factor: float) -> "TransientSolver":
        """This solver at ``factor`` times its stack's flow.

        Shares the stack, power schedule and backend; the system is
        :meth:`AssembledSystem.at_flow` of this one, with its own
        implicit-system cache.
        """
        system = self.system.at_flow(factor)
        if system is self.system:
            return self
        solver = copy.copy(self)
        solver.system = system
        solver._implicit = {}
        return solver

    # -- source updates -----------------------------------------------------------

    def rhs_at(self, time: float) -> np.ndarray:
        """Right-hand side with the power schedule applied at ``time``."""
        schedule = self.power_schedule
        overrides = None if schedule is None else schedule(time)
        if not overrides:
            return self.system.rhs
        rhs = self.system.rhs.copy()
        stack = self.stack
        for name, heat_map in overrides.items():
            layer_idx = stack.layer_index(name)
            layer = stack.layers[layer_idx]
            if layer.is_cavity:
                raise ValueError("power schedules apply to solid layers only")
            default = layer.heat_map(stack.n_rows, stack.n_cols)
            if np.isscalar(heat_map):
                new_map = np.full_like(default, float(heat_map))
            else:
                new_map = np.asarray(heat_map, dtype=float)
                if new_map.shape != default.shape:
                    raise ValueError(
                        f"schedule map for layer {name!r} has shape "
                        f"{new_map.shape}, expected {default.shape}"
                    )
            delta = stack.cell_power(new_map - default)
            start = self.system.index(layer_idx, 0, 0)
            rhs[start : start + self.system.n_cells_per_layer] += delta.ravel()
        return rhs

    # -- integration --------------------------------------------------------------------

    def implicit_system(self, time_step: float) -> tuple:
        """The backward-Euler system ``(implicit, C/dt, pattern_token)``.

        Cached per time step, so chunked integrations (the transient
        engine's policy-in-the-loop path) rebuild nothing between chunks.
        The token identifies the implicit system's structure to the solver
        backend, whose keyed factorization cache then recognizes the
        unchanged matrix across steps, chunks and repeated runs.
        """
        time_step = float(time_step)
        cached = self._implicit.get(time_step)
        if cached is not None:
            return cached
        c_over_dt = sparse.diags(self.system.capacitances / time_step)
        implicit = (c_over_dt + self.system.matrix).tocsr()
        implicit_token = ("ice-implicit",) + self.system.pattern_token
        cached = (implicit, c_over_dt, implicit_token)
        self._implicit[time_step] = cached
        return cached

    def integrate(
        self,
        state: np.ndarray,
        *,
        step_offset: int,
        n_steps: int,
        time_step: float,
        on_step: Callable[[int, float, np.ndarray], None],
    ) -> np.ndarray:
        """Advance a full state vector ``n_steps`` backward-Euler steps.

        The absolute time of each step is ``(step_offset + step) *
        time_step`` -- computed exactly as one unchunked run would, so an
        integration split into chunks (the transient engine's
        policy-in-the-loop path) evaluates power schedules at bit-identical
        times.  ``on_step(step, time, state)`` is invoked after every step
        with the 1-based step number *relative to this call*, the absolute
        time and the new state vector (not a copy -- callbacks that keep it
        must copy).  Returns the final state.  :meth:`run` is a convenience
        wrapper over this primitive.
        """
        implicit, c_over_dt, implicit_token = self.implicit_system(time_step)
        # One factorization handle per call: the matrix is looked up (and
        # content-hashed) once, every step is a bare triangular solve.
        factorization = self.backend.solver_for(implicit, implicit_token)
        temperature = state
        for step in range(1, int(n_steps) + 1):
            time = (step_offset + step) * time_step
            rhs = self.rhs_at(time) + c_over_dt @ temperature
            temperature = factorization.solve(rhs)
            on_step(step, time, temperature)
        return temperature

    def run(
        self,
        duration: float,
        time_step: float,
        initial_temperature: Optional[float] = None,
        store_every: int = 1,
    ) -> TransientResult:
        """Integrate for ``duration`` seconds with fixed ``time_step``.

        Parameters
        ----------
        duration:
            Total simulated time (s).
        time_step:
            Backward-Euler step (s); the scheme is unconditionally stable so
            the step only controls accuracy.
        initial_temperature:
            Uniform initial temperature (K); defaults to the stack's ambient
            temperature.
        store_every:
            Keep every ``store_every``-th snapshot (plus the initial and
            final states) to bound memory for long runs.
        """
        if duration <= 0.0 or time_step <= 0.0:
            raise ValueError("duration and time_step must be positive")
        if store_every < 1:
            raise ValueError("store_every must be at least 1")
        n_steps = max(int(round(duration / time_step)), 1)
        start_temperature = (
            self.stack.ambient_temperature
            if initial_temperature is None
            else float(initial_temperature)
        )

        temperature = np.full(self.system.n_unknowns, start_temperature)
        times = [0.0]
        snapshots = [temperature.copy()]

        def keep(step: int, time: float, state: np.ndarray) -> None:
            if step % store_every == 0 or step == n_steps:
                times.append(time)
                snapshots.append(state.copy())

        self.integrate(
            temperature,
            step_offset=0,
            n_steps=n_steps,
            time_step=time_step,
            on_step=keep,
        )

        return result_from_snapshots(
            self.system,
            self.stack,
            times,
            snapshots,
            metadata={
                "solver": "ice-transient-backward-euler",
                "backend": self.backend.name,
                "time_step": time_step,
                "n_steps": n_steps,
                "store_every": store_every,
            },
        )
