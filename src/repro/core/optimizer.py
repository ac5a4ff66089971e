"""Direct sequential solver for the optimal channel-modulation problem.

The paper (Sec. IV-C) solves the optimal control problem with the *direct
sequential* method: the control ``w_C(z)`` is parameterized as piecewise
constant, the state equation is solved exactly for every candidate control,
and the resulting finite-dimensional nonlinear program

    min_x  J(x)     subject to  0 <= x <= 1,  dP_i(x) <= dP_max,
                                dP_i(x) = dP_j(x)

is handed to a gradient-based NLP solver.  The paper leaves the choice of
NLP solver open; we use SciPy's SLSQP and optionally refine from several
starting points, which is sufficient for the problem sizes of the paper's
experiments.

The expensive part of every evaluation is the steady-state thermal solve.
Two mechanisms keep that cost down:

* solutions are memoized on the design fingerprint in the evaluation
  engine's LRU cache, so SLSQP's repeated cost/constraint evaluations at
  one iterate reuse one solve; and
* instead of SLSQP's *internal* finite differences (``n_variables + 1``
  strictly sequential solves per gradient), the optimizer hands SLSQP an
  explicit ``jac``: the adjoint gradient (one forward and one transpose
  solve) or, in ``"fd-batched"`` mode, all ``n + 1`` perturbed designs in
  a single :meth:`~repro.core.engine.EvaluationEngine.solve_many` batch --
  deduplicated against the cache and fanned out over the engine's thread
  pool -- plus explicit hydraulics-only constraint Jacobians, whose whole
  forward-difference stencil is one batched call of the closed-form Eq. (9)
  segment kernel.
  Multistart restarts likewise run concurrently off the shared engine when
  ``n_workers > 1``.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from ..hydraulics.pressure import pressure_drop
from ..thermal.geometry import (
    MultiChannelStructure,
    TestStructure,
    WidthProfile,
)
from ..thermal.solution import ThermalSolution
from .adjoint import AdjointGradient, supports_adjoint
from .constraints import PressureConstraints
from .engine import EvaluationEngine
from .objectives import get_objective
from .parameterization import WidthParameterization
from .results import DesignEvaluation, ModulationResult, OptimizationTrace

__all__ = ["GRADIENT_MODES", "OptimizerSettings", "ChannelModulationOptimizer"]

#: Cost-gradient evaluation strategies of the direct sequential solve.
GRADIENT_MODES = ("adjoint", "fd-batched")


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs of the direct sequential solve.

    Attributes
    ----------
    n_segments:
        Piecewise-constant segments per lane trajectory.
    shared_profile:
        If True, all lanes share one trajectory (fewer variables).
    objective:
        Name of the objective in :mod:`repro.core.objectives`
        (``"gradient_norm"`` is the paper's Eq. 7).
    n_grid_points:
        z-grid resolution of the thermal solves.
    max_iterations:
        SLSQP iteration limit.
    tolerance:
        SLSQP convergence tolerance (on the scaled cost); must be positive.
    finite_difference_step:
        Step of the finite-difference cost gradients (applied to the
        normalized decision variables in [0, 1]); must lie in ``(0, 1)`` so
        every stencil point stays inside the box.
    gradient_mode:
        Cost-gradient strategy: ``"adjoint"`` (default) evaluates the
        exact gradient of the discrete linear system with one forward and
        one transpose solve per iterate (see :mod:`repro.core.adjoint`),
        independent of the number of design variables; ``"fd-batched"``
        is the batched finite-difference reference oracle (``n + 1``
        solves per iterate).  Objectives without an adjoint
        (``temperature_range``, ``peak_temperature``) fall back to
        ``"fd-batched"`` with a warning.
    multistart:
        Number of starting points.  The first start is always the uniform
        mid-width design; additional starts interpolate between the uniform
        minimum and maximum width designs.
    enforce_equal_pressure:
        Add the Eq. (10) hydraulic balance constraint for multi-lane,
        per-lane problems.
    equal_pressure_tolerance:
        Allowed relative pressure imbalance when balancing is enforced.
    solver_backend:
        Name of the linear-solver backend used for the thermal solves
        (see :func:`repro.thermal.backends.available_backends`); ``"auto"``
        hands out ``sparse-lu`` at every system size.
    n_workers:
        Thread-pool width of the evaluation engine for batched candidate
        evaluation (multistart warm-up, sweeps); 1 solves sequentially.
    cache_size:
        Capacity of the engine's LRU solution cache.
    """

    n_segments: int = 10
    shared_profile: bool = False
    objective: str = "gradient_norm"
    n_grid_points: int = 241
    max_iterations: int = 80
    tolerance: float = 1e-8
    finite_difference_step: float = 1e-3
    gradient_mode: str = "adjoint"
    multistart: int = 1
    enforce_equal_pressure: bool = True
    equal_pressure_tolerance: float = 0.05
    solver_backend: str = "auto"
    n_workers: int = 1
    cache_size: int = 4096

    def __post_init__(self) -> None:
        if self.n_segments < 1:
            raise ValueError("n_segments must be at least 1")
        if self.n_grid_points < 3:
            raise ValueError("n_grid_points must be at least 3")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if not 0.0 < self.finite_difference_step < 1.0:
            raise ValueError(
                "finite_difference_step must lie in (0, 1), "
                f"got {self.finite_difference_step}"
            )
        if self.multistart < 1:
            raise ValueError("multistart must be at least 1")
        if self.n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        if self.cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        if self.gradient_mode not in GRADIENT_MODES:
            raise ValueError(
                f"gradient_mode must be one of {list(GRADIENT_MODES)}, "
                f"got {self.gradient_mode!r}"
            )


class ChannelModulationOptimizer:
    """Direct sequential optimizer for one cavity (single- or multi-channel).

    Parameters
    ----------
    structure:
        The cavity to optimize.  A plain
        :class:`~repro.thermal.geometry.TestStructure` is treated as a
        one-lane cavity.
    settings:
        Optimizer settings; defaults reproduce the paper's formulation.
    engine:
        Optional shared :class:`~repro.core.engine.EvaluationEngine`;
        passing one lets several optimizers (or an optimizer and external
        sweeps) share one solution cache.  By default a private engine is
        created from the settings.
    """

    def __init__(
        self,
        structure,
        settings: OptimizerSettings = OptimizerSettings(),
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        if isinstance(structure, TestStructure):
            structure = MultiChannelStructure.single(structure)
        if not isinstance(structure, MultiChannelStructure):
            raise TypeError(
                "structure must be a TestStructure or MultiChannelStructure"
            )
        self.structure = structure
        self.settings = settings
        self.parameterization = WidthParameterization(
            geometry=structure.geometry,
            n_segments=settings.n_segments,
            n_lanes=structure.n_lanes,
            shared=settings.shared_profile,
        )
        self._objective = get_objective(settings.objective)
        self.pressure = PressureConstraints(
            parameterization=self.parameterization,
            geometry=structure.geometry,
            coolant=structure.coolant,
            flow_rate=structure.lanes[0].flow_rate,
            max_pressure_drop=self._max_pressure_drop(),
            enforce_equal_pressure=settings.enforce_equal_pressure,
            equal_pressure_tolerance=settings.equal_pressure_tolerance,
        )
        self.engine = engine or EvaluationEngine(
            solver_backend=settings.solver_backend,
            cache_size=settings.cache_size,
            n_workers=settings.n_workers,
        )
        self._cost_scale: Optional[float] = None
        #: The gradient strategy actually in effect: the requested mode,
        #: demoted to "fd-batched" (loudly) when the objective is nonsmooth.
        self.effective_gradient_mode = settings.gradient_mode
        self._adjoint: Optional[AdjointGradient] = None
        if settings.gradient_mode == "adjoint":
            if supports_adjoint(settings.objective):
                self._adjoint = AdjointGradient(
                    structure=self.structure,
                    parameterization=self.parameterization,
                    objective=settings.objective,
                    n_points=settings.n_grid_points,
                    engine=self.engine,
                )
            else:
                warnings.warn(
                    f"objective {settings.objective!r} has no adjoint "
                    "(nonsmooth); falling back to gradient_mode="
                    "'fd-batched'",
                    stacklevel=2,
                )
                self.effective_gradient_mode = "fd-batched"

    def _max_pressure_drop(self) -> float:
        """Pressure limit, taken from the Table I default unless overridden."""
        # The limit is a property of the delivery network, not of the lanes,
        # so it is stored on the optimizer; designers can override it by
        # assigning ``optimizer.pressure.max_pressure_drop`` before running.
        from ..thermal.properties import TABLE_I

        return TABLE_I.max_pressure_drop

    # -- evaluation ----------------------------------------------------------------

    def candidate_structure(self, vector: np.ndarray) -> MultiChannelStructure:
        """The cavity with the width profiles encoded by ``vector``."""
        profiles = self.parameterization.profiles_from_vector(vector)
        return self.structure.with_width_profiles(profiles)

    def solve_candidate(self, vector: np.ndarray) -> ThermalSolution:
        """Steady-state thermal solution of the design encoded by ``vector``.

        Solutions come from the evaluation engine's LRU cache, which is
        shared with :meth:`evaluate_design` and the baselines: the repeated
        cost/constraint evaluations of SLSQP at one iterate, and any later
        re-evaluation of a design the optimizer already visited, reuse one
        thermal solve.
        """
        return self.engine.solve(
            self.candidate_structure(vector),
            n_points=self.settings.n_grid_points,
        )

    def evaluate_candidates(
        self, vectors: Sequence[np.ndarray]
    ) -> List[ThermalSolution]:
        """Batch-solve many decision vectors through the engine.

        Duplicates are solved once; with ``settings.n_workers > 1`` the
        unique solves run in parallel.  Used by the multistart schedule and
        available to design-space-exploration sweeps.
        """
        candidates = [self.candidate_structure(vector) for vector in vectors]
        return self.engine.solve_many(
            candidates, n_points=self.settings.n_grid_points
        )

    def cost(self, vector: np.ndarray) -> float:
        """Objective value (unscaled) for a decision vector."""
        return float(self._objective(self.solve_candidate(vector)))

    def _scaled_cost(self, vector: np.ndarray) -> float:
        """Objective scaled to order one for the NLP solver."""
        value = self.cost(vector)
        if self._cost_scale is None or self._cost_scale == 0.0:
            return value
        return value / self._cost_scale

    # -- batched gradients -------------------------------------------------------------

    def gradient_points(
        self, vector: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The forward-difference stencil around a decision vector.

        Returns ``(steps, points)`` where ``points[i]`` perturbs component
        ``i`` of ``vector`` by ``steps[i]``; the step flips to backward at
        the upper box bound so every evaluated design stays inside the
        fabrication limits.
        """
        vector = np.asarray(vector, dtype=float)
        step = float(self.settings.finite_difference_step)
        steps = np.where(vector + step <= 1.0, step, -step)
        points = vector[None, :] + np.diag(steps)
        return steps, points

    def cost_gradient(self, vector: np.ndarray) -> np.ndarray:
        """Finite-difference gradient of the (unscaled) objective.

        All ``n_variables + 1`` designs of the stencil (the base point plus
        one perturbation per variable) are solved in a *single*
        :meth:`~repro.core.engine.EvaluationEngine.solve_many` batch:
        duplicates and already-cached designs (typically the base point,
        which SLSQP just evaluated) cost nothing, and the remaining solves
        run in parallel across the engine's ``n_workers`` threads.
        """
        vector = np.asarray(vector, dtype=float)
        steps, points = self.gradient_points(vector)
        candidates = [self.candidate_structure(vector)] + [
            self.candidate_structure(point) for point in points
        ]
        solutions = self.engine.solve_many(
            candidates, n_points=self.settings.n_grid_points
        )
        values = np.array([float(self._objective(s)) for s in solutions])
        return (values[1:] - values[0]) / steps

    def adjoint_cost_gradient(self, vector: np.ndarray) -> np.ndarray:
        """Adjoint gradient of the (unscaled) objective.

        One cached forward solve plus one transpose solve reusing the
        forward factorization, regardless of the number of design
        variables (see :mod:`repro.core.adjoint`).  Only available when
        the objective supports it (``self._adjoint`` is set).
        """
        if self._adjoint is None:
            raise RuntimeError(
                "adjoint gradients are not available for objective "
                f"{self.settings.objective!r} (effective mode is "
                f"{self.effective_gradient_mode!r})"
            )
        return self._adjoint.gradient(vector)

    def _scaled_cost_gradient(self, vector: np.ndarray) -> np.ndarray:
        """Gradient of :meth:`_scaled_cost` (the ``jac`` handed to SLSQP)."""
        if self.effective_gradient_mode == "adjoint":
            gradient = self.adjoint_cost_gradient(vector)
        else:
            gradient = self.cost_gradient(vector)
        if self._cost_scale is None or self._cost_scale == 0.0:
            return gradient
        return gradient / self._cost_scale

    def evaluate_design(
        self, profiles: Sequence[WidthProfile], label: str
    ) -> DesignEvaluation:
        """Full thermal + hydraulic evaluation of an explicit design.

        The thermal solve goes through the evaluation engine, so designs
        the optimizer already visited (e.g. the optimum re-evaluated after
        the SLSQP run, or a baseline evaluated twice) are served from the
        solution cache instead of being re-solved.
        """
        candidate = self.structure.with_width_profiles(list(profiles))
        solution = self.engine.solve(
            candidate, n_points=self.settings.n_grid_points
        )
        flow_rate = self.structure.lanes[0].flow_rate
        drops = np.array(
            [
                pressure_drop(
                    profile,
                    self.structure.geometry,
                    flow_rate,
                    self.structure.coolant,
                )
                for profile in profiles
            ]
        )
        return DesignEvaluation(
            label=label,
            width_profiles=list(profiles),
            solution=solution,
            pressure_drops=drops,
            metadata={
                "objective": self.settings.objective,
                "n_grid_points": self.settings.n_grid_points,
                "cluster_size": self.structure.cluster_size,
            },
        )

    def evaluate_uniform(self, width: float, label: Optional[str] = None) -> DesignEvaluation:
        """Evaluate a uniform-width design (used for the paper's baselines)."""
        profile = WidthProfile.uniform(width, self.structure.geometry.length)
        label = label or f"uniform {width * 1e6:.0f} um"
        return self.evaluate_design([profile] * self.structure.n_lanes, label)

    # -- starting points --------------------------------------------------------------

    def _starting_points(self) -> List[np.ndarray]:
        """Decision vectors used as multistart initial guesses."""
        starts = [self.parameterization.midpoint_vector()]
        extra = self.settings.multistart - 1
        if extra > 0:
            fractions = np.linspace(0.15, 0.85, extra)
            for fraction in fractions:
                starts.append(
                    np.full(self.parameterization.n_variables, float(fraction))
                )
        return starts

    # -- feasibility repair -----------------------------------------------------------------

    def _repair_feasibility(self, vector: np.ndarray) -> np.ndarray:
        """Project a slightly infeasible iterate back into the feasible set.

        SLSQP iterates can end a run (e.g. at the iteration limit) with a
        small violation of the pressure constraints.  Channel widening
        monotonically reduces both the pressure drop and the imbalance, so
        blending the candidate toward the all-maximum-width design is a
        cheap, physically meaningful projection: a bisection on the blend
        factor finds the closest feasible point along that segment.  Feasible
        candidates are returned unchanged.
        """
        if self.pressure.is_feasible(vector, slack=1e-9):
            return vector
        widest = np.ones_like(vector)
        if not self.pressure.is_feasible(widest, slack=1e-9):
            # Even the widest channels violate the limit; nothing to repair.
            return vector
        low, high = 0.0, 1.0
        for _ in range(30):
            mid = 0.5 * (low + high)
            blended = (1.0 - mid) * vector + mid * widest
            if self.pressure.is_feasible(blended, slack=1e-9):
                high = mid
            else:
                low = mid
        return (1.0 - high) * vector + high * widest

    # -- single SLSQP run --------------------------------------------------------------

    def _minimize_from_start(
        self,
        start: np.ndarray,
        constraints: List[dict],
        bounds: List[Tuple[float, float]],
        callback: Optional[Callable[[np.ndarray], None]],
    ) -> Tuple[OptimizationTrace, np.ndarray, float, bool]:
        """One SLSQP run from one starting point.

        Returns ``(trace, repaired vector, cost, feasible)``.  Thread-safe
        against concurrent runs sharing the evaluation engine, so the
        multistart schedule can fan restarts out over a thread pool.
        """
        trace = OptimizationTrace()

        def record(vector: np.ndarray) -> None:
            solution = self.solve_candidate(vector)
            trace.record(self._objective(solution), solution.thermal_gradient)
            if callback is not None:
                callback(vector)

        result = optimize.minimize(
            self._scaled_cost,
            start,
            method="SLSQP",
            jac=self._scaled_cost_gradient,
            bounds=bounds,
            constraints=constraints,
            callback=record,
            options={
                "maxiter": self.settings.max_iterations,
                "ftol": self.settings.tolerance,
            },
        )
        trace.converged = bool(result.success)
        trace.message = str(result.message)
        trace.n_evaluations = int(result.get("nfev", 0))
        candidate_vector = np.clip(np.asarray(result.x, dtype=float), 0.0, 1.0)
        candidate_vector = self._repair_feasibility(candidate_vector)
        candidate_cost = self.cost(candidate_vector)
        feasible = self.pressure.is_feasible(candidate_vector, slack=1e-2)
        return trace, candidate_vector, candidate_cost, feasible

    # -- main entry point ----------------------------------------------------------------

    def optimize(
        self,
        initial_vector: Optional[np.ndarray] = None,
        callback: Optional[Callable[[np.ndarray], None]] = None,
    ) -> ModulationResult:
        """Run the direct sequential optimization and return the full result.

        With ``settings.multistart > 1`` and ``settings.n_workers > 1`` the
        SLSQP restarts run concurrently off the shared evaluation engine
        (one thread per start, solutions deduplicated through the engine's
        LRU cache); the best feasible optimum is selected deterministically
        in start order, so concurrent and sequential schedules return the
        same design.

        Parameters
        ----------
        initial_vector:
            Optional explicit starting point (normalized decision vector);
            when omitted the multistart schedule of the settings is used.
        callback:
            Optional callable invoked with the decision vector at every
            accepted SLSQP iterate (after the built-in trace recording).
            With concurrent restarts the callback may be invoked from
            several worker threads.
        """
        geometry = self.structure.geometry
        minimum = self.evaluate_uniform(geometry.min_width, "uniform minimum")
        maximum = self.evaluate_uniform(geometry.max_width, "uniform maximum")
        baselines = [minimum, maximum]

        # Scale the objective by the best uniform design so SLSQP sees O(1)
        # values regardless of which objective form is selected.
        uniform_costs = [
            self.cost(self.parameterization.uniform_vector(geometry.min_width)),
            self.cost(self.parameterization.uniform_vector(geometry.max_width)),
        ]
        self._cost_scale = max(min(uniform_costs), np.finfo(float).tiny)

        starts = (
            [np.asarray(initial_vector, dtype=float)]
            if initial_vector is not None
            else self._starting_points()
        )

        constraints = self.pressure.as_scipy_constraints()
        bounds = [(0.0, 1.0)] * self.parameterization.n_variables
        if len(starts) > 1 and self.settings.n_workers > 1:
            # Warm the solution cache for every starting point in one batch,
            # then run the SLSQP restarts concurrently off the shared engine.
            self.evaluate_candidates(starts)
            with ThreadPoolExecutor(
                max_workers=min(self.settings.n_workers, len(starts))
            ) as pool:
                runs = list(
                    pool.map(
                        lambda start: self._minimize_from_start(
                            start, constraints, bounds, callback
                        ),
                        starts,
                    )
                )
        else:
            runs = [
                self._minimize_from_start(start, constraints, bounds, callback)
                for start in starts
            ]

        best_vector: Optional[np.ndarray] = None
        best_cost = np.inf
        best_trace = OptimizationTrace()
        for trace, candidate_vector, candidate_cost, feasible in runs:
            if feasible and candidate_cost < best_cost:
                best_cost = candidate_cost
                best_vector = candidate_vector
                best_trace = trace

        if best_vector is None:
            # No start produced a feasible optimum; fall back to the best
            # feasible uniform design (the widest channel is always feasible
            # whenever the problem admits any feasible design at all).
            fallback = self.parameterization.uniform_vector(geometry.max_width)
            best_vector = fallback
            best_trace.message = (
                best_trace.message + " | no feasible optimum; fell back to the "
                "uniform maximum-width design"
            )
            best_trace.converged = False

        optimal_profiles = self.parameterization.profiles_from_vector(best_vector)
        optimal = self.evaluate_design(optimal_profiles, "optimal modulation")
        return ModulationResult(
            optimal=optimal,
            baselines=baselines,
            decision_vector=best_vector,
            trace=best_trace,
        )
