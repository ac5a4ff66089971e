"""Adjoint gradients of the steady finite-difference thermal objectives.

The steady cavity model is *linear* in the temperatures: ``A(w) u = b``
where ``w`` is the decision vector of normalized channel widths, ``u``
stacks the silicon and coolant temperatures, and ``b`` collects the heat
loads and the inlet Dirichlet rows.  For an objective ``J(u)`` the exact
gradient of the discrete problem is therefore

    dJ/dw_i = lambda^T (db/dw_i - (dA/dw_i) u),    A^T lambda = dJ/du

-- one forward solve and one transpose solve per gradient, independent of
the number of design variables, versus the ``n + 1`` solves per iterate of
the batched finite-difference path.  Two structural facts keep the rest of
the evaluation cheap:

* the right-hand side is width-independent (heat loads and the inlet
  temperature do not read the channel widths), so ``db/dw = 0`` exactly
  and only the matrix term survives;
* the matrix enters the inner product through its raw COO entries,
  ``lambda^T A u = sum_e v_e lambda[row_e] u[col_e]``, so with the raw
  coordinates retained by :class:`~repro.core.linear_system.SparsityFold`
  the per-variable work is a dot product -- the perturbed matrix is never
  folded, let alone factorized.

``dA/dw_i`` is evaluated by central differences *on the conductance rows*
(not on the solution): only the layer-to-coolant and sidewall conductance
rows of the affected lanes depend on the widths, the coefficients are
affine in those rows (folded once per gradient into per-point sensitivity
fields by
:meth:`~repro.thermal.assembly.SparsityPattern.conductance_sensitivities`),
and a decision variable is one piecewise-constant segment -- so all the
perturbed rows a lane needs go through ONE vectorized
:func:`~repro.thermal.assembly.lane_conductance_rows` call.  The
differencing step acts on an O(1) normalized variable, so the O(step^2)
linearization error sits far below the 1e-6 agreement the test suite
demands.

The transpose solve goes through the *forward* solve's own
:class:`~repro.thermal.backends.FactorizationHandle`
(``handle.solve(dJ/du, "T")``), which
:meth:`~repro.core.engine.EvaluationEngine.forward_solve` hands back
together with the forward system from the engine's one-entry forward
slot.  SLSQP asks for the gradient at the iterate whose cost it has just
evaluated, so the whole gradient costs one triangular solve plus the
stencil dot products: no re-assembly, no content hash of the matrix.
Only an iterate that is not the most recent forward solve pays one
assembly and one factorization lookup.

Supported objectives are the smooth ones -- ``gradient_norm``,
``heat_flow`` and ``softmax_range``; the nonsmooth ``temperature_range``
and ``peak_temperature`` have no meaningful adjoint and callers fall back
to finite differences (loudly -- see
:class:`~repro.core.optimizer.ChannelModulationOptimizer`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..thermal.assembly import lane_conductance_rows
from ..thermal.solution import ThermalSolution

__all__ = [
    "ADJOINT_OBJECTIVES",
    "AdjointGradient",
    "objective_gradient",
    "supports_adjoint",
]

#: Objectives with an implemented analytic ``dJ/du``.
ADJOINT_OBJECTIVES: Tuple[str, ...] = (
    "gradient_norm",
    "heat_flow",
    "softmax_range",
)

#: Sharpness of the ``softmax_range`` surrogate (matches
#: :func:`repro.core.objectives.softmax_temperature_range`).
_SOFTMAX_SHARPNESS = 2.0


def supports_adjoint(objective: str) -> bool:
    """True when ``objective`` has an analytic adjoint right-hand side."""
    return objective in ADJOINT_OBJECTIVES


def _trapezoid_weights(z: np.ndarray) -> np.ndarray:
    """Quadrature weights ``w`` with ``trapezoid(f, z) == w @ f``."""
    weights = np.empty_like(z)
    weights[0] = 0.5 * (z[1] - z[0])
    weights[-1] = 0.5 * (z[-1] - z[-2])
    weights[1:-1] = 0.5 * (z[2:] - z[:-2])
    return weights


def _gradient_transpose(v: np.ndarray, h: float) -> np.ndarray:
    """Apply ``D^T`` where ``D`` is ``np.gradient(. , z, axis=-1)``.

    ``np.gradient`` on the solver's uniform grid is central in the
    interior and one-sided first order at the edges; this is its exact
    transpose (verified entry by entry against the dense operator in the
    test suite).
    """
    out = np.zeros_like(v)
    inner = v[..., 1:-1] / (2.0 * h)
    out[..., :-2] -= inner
    out[..., 2:] += inner
    out[..., 0] -= v[..., 0] / h
    out[..., 1] += v[..., 0] / h
    out[..., -1] += v[..., -1] / h
    out[..., -2] -= v[..., -1] / h
    return out


def objective_gradient(
    objective: str, solution: ThermalSolution, g_l: np.ndarray
) -> np.ndarray:
    """``dJ/dT`` over the silicon temperatures, shape ``(2, n_lanes, n_points)``.

    All supported objectives read only the silicon block, so the coolant
    part of ``dJ/du`` is identically zero and is appended by the caller.
    ``g_l`` is the (cluster-scaled) per-lane longitudinal conductance used
    by the ``heat_flow`` form.
    """
    temperatures = solution.temperatures
    z = solution.z
    h = float(z[1] - z[0])
    if objective == "gradient_norm":
        grads = np.gradient(temperatures, z, axis=2)
        v = 2.0 * _trapezoid_weights(z)[None, None, :] * grads
        return _gradient_transpose(v, h)
    if objective == "heat_flow":
        grads = np.gradient(temperatures, z, axis=2)
        scale = np.asarray(g_l, dtype=float)[None, :, None] ** 2
        v = 2.0 * _trapezoid_weights(z)[None, None, :] * scale * grads
        return _gradient_transpose(v, h)
    if objective == "softmax_range":
        flat = temperatures.ravel()
        shifted = _SOFTMAX_SHARPNESS * (flat - float(np.mean(flat)))
        upper = np.exp(shifted - np.max(shifted))
        lower = np.exp(-shifted - np.max(-shifted))
        # d/dT [(1/s) logsumexp(s T~) + (1/s) logsumexp(-s T~)] =
        # softmax(s T~) - softmax(-s T~); the mean-reference terms cancel
        # because each softmax sums to one.
        grad = upper / upper.sum() - lower / lower.sum()
        return grad.reshape(temperatures.shape)
    raise ValueError(
        f"objective {objective!r} has no adjoint; supported: "
        f"{list(ADJOINT_OBJECTIVES)}"
    )


class AdjointGradient:
    """Adjoint gradient evaluator for one optimization problem.

    Parameters
    ----------
    structure:
        The base :class:`~repro.thermal.geometry.MultiChannelStructure`
        whose width profiles the decision vector re-parameterizes.
    parameterization:
        The :class:`~repro.core.parameterization.WidthParameterization`
        mapping decision vectors to per-lane width profiles.
    objective:
        Objective name; must be in :data:`ADJOINT_OBJECTIVES`.
    n_points:
        z-grid resolution of the thermal solves (must match the forward
        path so the factorization is reused).
    engine:
        The shared :class:`~repro.core.engine.EvaluationEngine`; supplies
        the cached forward solution, its system and its factorization
        handle.
    step:
        Central-difference step for the ``dA/dw`` stencils, applied to the
        normalized decision variables.
    """

    def __init__(
        self,
        structure,
        parameterization,
        objective: str,
        n_points: int,
        engine,
        step: float = 1e-6,
    ) -> None:
        if not supports_adjoint(objective):
            raise ValueError(
                f"objective {objective!r} has no adjoint; supported: "
                f"{list(ADJOINT_OBJECTIVES)}"
            )
        if step <= 0.0:
            raise ValueError("step must be positive")
        self.structure = structure
        self.parameterization = parameterization
        self.objective = objective
        self.n_points = int(n_points)
        self.engine = engine
        self.step = float(step)

    # -- helpers -------------------------------------------------------------

    def _segment_of_point(self, z_grid: np.ndarray) -> np.ndarray:
        """Piecewise-constant segment index of every grid point.

        Mirrors :meth:`repro.thermal.geometry.WidthProfile.__call__` for
        segment profiles, so a perturbed decision variable maps exactly to
        the grid points its segment covers.
        """
        n_segments = self.parameterization.n_segments
        length = self.parameterization.geometry.length
        z = np.clip(np.asarray(z_grid, dtype=float), 0.0, length)
        return np.minimum(
            (z / length * n_segments).astype(int), n_segments - 1
        )

    def _stencil_deltas(
        self, vector: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-variable clamped central-difference half-steps.

        The stencil is clamped to the box so clipped widths never flatten
        one side of the difference (SLSQP iterates sit on the bounds).
        """
        delta_plus = np.minimum(self.step, 1.0 - vector)
        delta_minus = np.minimum(self.step, vector)
        return delta_plus, delta_minus

    # -- the gradient --------------------------------------------------------

    def gradient(self, vector: np.ndarray) -> np.ndarray:
        """``dJ/dx`` at a normalized decision vector.

        The forward solution, its system and its factorization handle come
        from :meth:`~repro.core.engine.EvaluationEngine.forward_solve`
        (SLSQP has just evaluated the cost there); the transpose solve goes
        through that handle.
        """
        vector = np.clip(np.asarray(vector, dtype=float), 0.0, 1.0)
        profiles = self.parameterization.profiles_from_vector(vector)
        candidate = self.structure.with_width_profiles(profiles)
        solution, system, handle = self.engine.forward_solve(
            candidate, n_points=self.n_points
        )

        # The forward unknown vector, reconstructed bit-exactly from the
        # solution fields (the solver reshaped the unknowns into (3, L, P)).
        u = np.concatenate(
            [
                solution.temperatures.ravel(),
                solution.coolant_temperatures.ravel(),
            ]
        )
        n_coolant = solution.coolant_temperatures.size
        dJdT = objective_gradient(self.objective, solution, system.params.g_l)
        dJdu = np.concatenate([dJdT.ravel(), np.zeros(n_coolant)])

        lam = handle.solve(dJdu, "T")
        fold = system.pattern.fold
        # lambda^T (dA) u over raw COO entries: one weight per entry,
        # folded once into per-(lane, point) conductance sensitivities
        # (the coefficients are affine in g_v and g_w).
        weight = lam[fold.rows] * u[fold.cols]
        s_v, s_w = system.pattern.conductance_sensitivities(weight)

        # dA/dw_i by central differences on the conductance rows, batched
        # per lane: a decision variable is one piecewise-constant segment,
        # and the vector -> width map is affine inside the box, so the
        # perturbed width row differs from the base row only on that
        # segment's grid points.  All 2k rows a lane needs are evaluated
        # in ONE vectorized lane_conductance_rows call.
        n_variables = self.parameterization.n_variables
        n_segments = self.parameterization.n_segments
        z_grid = system.z_grid
        segment_of_point = self._segment_of_point(z_grid)
        low, high = self.parameterization.width_bounds
        width_span = high - low
        delta_plus, delta_minus = self._stencil_deltas(vector)
        denominator = delta_plus + delta_minus

        gradient = np.zeros(n_variables)
        for lane in range(self.parameterization.n_lanes):
            if self.parameterization.shared:
                variables = np.arange(n_variables)
            else:
                variables = np.arange(
                    lane * n_segments, (lane + 1) * n_segments
                )
            base = np.asarray(profiles[lane](z_grid), dtype=float)
            segment_mask = (
                segment_of_point[None, :] == (variables % n_segments)[:, None]
            )
            widths = np.concatenate(
                [
                    base[None, :]
                    + segment_mask * (delta_plus[variables] * width_span)[:, None],
                    base[None, :]
                    - segment_mask
                    * (delta_minus[variables] * width_span)[:, None],
                ]
            )
            g_v, g_w = lane_conductance_rows(
                candidate, z_grid, lane, widths=widths
            )
            k = variables.size
            # db/dw = 0 (width-independent loads), so only the matrix term
            # survives: dJ/dw_i = -lambda^T (dA/dw_i) u.
            inner = (g_v[:k] - g_v[k:]) @ s_v[lane]
            inner += (g_w[:k] - g_w[k:]) @ s_w[lane]
            safe = denominator[variables] > 0.0
            gradient[variables[safe]] += (
                -inner[safe] / denominator[variables][safe]
            )
        self.engine.count(n_transpose_solves=1, n_adjoint_solves=1)
        return gradient
