"""Design constraints of the optimal channel-modulation problem.

Section IV-B of the paper imposes three constraints on the width
trajectories:

1. *Boundedness of channel widths* (Eq. 8): ``w_Cmin <= w_C(z) <= w_Cmax``
   everywhere.  With the piecewise-constant parameterization this is a plain
   box constraint on the decision vector and is handled by the NLP solver's
   bounds, not by penalty terms.
2. *Maximum pressure drop* (Eq. 9): the Darcy-Weisbach pressure drop of every
   channel, at the fixed per-channel flow rate, must not exceed ``dP_max``.
3. *Equal pressure drops* (Eq. 10): all channels fed by the common reservoir
   must exhibit the same pressure drop, so that the constant-flow assumption
   is hydraulically consistent.

This module evaluates constraints 2 and 3 for a decision vector and exposes
them in the formats expected by :func:`scipy.optimize.minimize` (dictionaries
with ``type``/``fun``/``jac`` entries).  Constraint values are scaled to order
one so that SLSQP's merit function treats them on an equal footing with the
cost.  Every pressure evaluation goes through the closed-form segment kernel
:func:`~repro.hydraulics.pressure.piecewise_pressure_drop`, batched over all
lanes and, for the Jacobians, over the whole finite-difference stencil.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..hydraulics.pressure import piecewise_pressure_drop
from ..thermal.geometry import ChannelGeometry
from ..thermal.properties import Coolant
from .parameterization import WidthParameterization

__all__ = ["PressureConstraints"]


@dataclass
class PressureConstraints:
    """Pressure-related constraints evaluated on the decision vector.

    Attributes
    ----------
    parameterization:
        The width parameterization that decodes decision vectors.
    geometry:
        Channel geometry (provides the channel height and length).
    coolant:
        Coolant whose viscosity enters the Darcy-Weisbach expression.
    flow_rate:
        Volumetric flow rate per physical channel (m^3/s), fixed by the
        paper's assumption 3.
    max_pressure_drop:
        ``dP_max`` of Eq. (9), in Pa.
    enforce_equal_pressure:
        Whether to add the Eq. (10) equality constraints.  They are only
        meaningful for multi-lane problems with per-lane trajectories.
    equal_pressure_tolerance:
        Relative tolerance used when the equality is enforced as a pair of
        inequalities (SLSQP handles equalities natively; other solvers get
        the relaxed form).
    n_samples:
        Sample count (at least 2) of the trapezoidal pressure integral.
    jacobian_step:
        Forward-difference step of the explicit constraint Jacobians
        (:meth:`margin_jacobian`, :meth:`balance_jacobian`); matches
        SciPy's default derivative step.
    """

    parameterization: WidthParameterization
    geometry: ChannelGeometry
    coolant: Coolant
    flow_rate: float
    max_pressure_drop: float
    enforce_equal_pressure: bool = True
    equal_pressure_tolerance: float = 0.05
    n_samples: int = 513
    jacobian_step: float = float(np.sqrt(np.finfo(float).eps))

    def __post_init__(self) -> None:
        if self.flow_rate <= 0.0:
            raise ValueError("flow rate must be positive")
        if self.max_pressure_drop <= 0.0:
            raise ValueError("max pressure drop must be positive")
        if not (0.0 < self.equal_pressure_tolerance < 1.0):
            raise ValueError("equal_pressure_tolerance must lie in (0, 1)")
        if self.n_samples < 2:
            raise ValueError(
                f"the trapezoid rule needs n_samples >= 2, got {self.n_samples}"
            )

    # -- raw evaluations -----------------------------------------------------------

    def pressure_drops(self, vector: np.ndarray) -> np.ndarray:
        """Per-lane pressure drops (Pa) for a decision vector."""
        vector = np.asarray(vector, dtype=float)
        if vector.ndim != 1:
            raise ValueError(f"expected one decision vector, got shape {vector.shape}")
        return self._stacked_drops(vector)

    def _stacked_drops(self, vectors: np.ndarray) -> np.ndarray:
        """Per-lane drops of decision vectors ``(..., n)``, shape ``(..., n_lanes)``."""
        drops = piecewise_pressure_drop(
            self.parameterization.segment_widths(vectors),
            self.geometry,
            self.flow_rate,
            self.coolant,
            self.n_samples,
        )
        if self.parameterization.shared:
            # One trajectory feeds every lane.
            return np.repeat(drops, self.parameterization.n_lanes, axis=-1)
        return drops

    def max_drop(self, vector: np.ndarray) -> float:
        """Largest per-lane pressure drop (Pa)."""
        return float(np.max(self.pressure_drops(vector)))

    def imbalance(self, vector: np.ndarray) -> float:
        """Relative pressure imbalance ``(max - min)/dP_max`` across lanes."""
        drops = self.pressure_drops(vector)
        return float((np.max(drops) - np.min(drops)) / self.max_pressure_drop)

    def is_feasible(self, vector: np.ndarray, slack: float = 1e-6) -> bool:
        """True when both Eq. (9) and (when enforced) Eq. (10) hold."""
        drops = self.pressure_drops(vector)
        if np.max(drops) > self.max_pressure_drop * (1.0 + slack):
            return False
        if self.enforce_equal_pressure and drops.size > 1:
            spread = (np.max(drops) - np.min(drops)) / self.max_pressure_drop
            if spread > self.equal_pressure_tolerance + slack:
                return False
        return True

    # -- scipy constraint dictionaries ------------------------------------------------

    def _normalized_margin(self, vector: np.ndarray) -> np.ndarray:
        """``1 - dP_i / dP_max`` per lane; non-negative when feasible."""
        return 1.0 - self.pressure_drops(vector) / self.max_pressure_drop

    def _balance(self, vector: np.ndarray) -> float:
        """``tolerance - imbalance``; non-negative when hydraulically balanced."""
        return self.equal_pressure_tolerance - self.imbalance(vector)

    def _stencil_drops(self, vector: np.ndarray):
        """Drops at the forward-difference stencil of ``vector``.

        Returns ``(drops, steps)``: ``drops[0]`` is the base point and
        ``drops[1 + j]`` the point with variable ``j`` moved by
        ``steps[j]``.  The step flips to backward at the upper box bound so
        evaluations stay inside the feasible hypercube.  All ``n + 1``
        points go through one batched kernel call.
        """
        vector = np.asarray(vector, dtype=float)
        step = self.jacobian_step
        steps = np.where(vector + step <= 1.0, step, -step)
        points = np.vstack([vector, vector + np.diag(steps)])
        return self._stacked_drops(points), steps

    def margin_jacobian(self, vector: np.ndarray) -> np.ndarray:
        """Jacobian of the Eq. (9) normalized margins, shape ``(n_lanes, n)``."""
        drops, steps = self._stencil_drops(vector)
        margins = 1.0 - drops / self.max_pressure_drop
        return ((margins[1:] - margins[0]) / steps[:, None]).T

    def balance_jacobian(self, vector: np.ndarray) -> np.ndarray:
        """Gradient of the Eq. (10) balance constraint, shape ``(n,)``."""
        drops, steps = self._stencil_drops(vector)
        spread = (np.max(drops, axis=-1) - np.min(drops, axis=-1)) / (
            self.max_pressure_drop
        )
        balances = self.equal_pressure_tolerance - spread
        return (balances[1:] - balances[0]) / steps

    def as_scipy_constraints(self) -> List[Dict]:
        """Constraint dictionaries for :func:`scipy.optimize.minimize` (SLSQP).

        The Eq. (9) limit becomes one vector-valued inequality (one entry
        per lane).  The Eq. (10) equal-pressure requirement is expressed as
        a relaxed inequality ``tolerance - (max - min)/dP_max >= 0``: a strict
        equality across many lanes over-constrains the problem numerically,
        while the relaxed form keeps designs hydraulically balanced to
        within ``equal_pressure_tolerance`` of the allowed budget (the
        benchmarks report the achieved imbalance).

        Each dictionary carries an explicit ``jac`` entry, so SLSQP never
        falls back to its internal finite differences for the constraints.
        """
        constraints: List[Dict] = [
            {
                "type": "ineq",
                "fun": self._normalized_margin,
                "jac": self.margin_jacobian,
            }
        ]
        multi_lane = (
            self.parameterization.n_lanes > 1 and not self.parameterization.shared
        )
        if self.enforce_equal_pressure and multi_lane:
            constraints.append(
                {
                    "type": "ineq",
                    "fun": self._balance,
                    "jac": self.balance_jacobian,
                }
            )
        return constraints

    def summary(self, vector: np.ndarray) -> Dict[str, float]:
        """Scalar constraint metrics for reports."""
        drops = self.pressure_drops(vector)
        return {
            "max_pressure_drop_Pa": float(np.max(drops)),
            "min_pressure_drop_Pa": float(np.min(drops)),
            "pressure_limit_Pa": self.max_pressure_drop,
            "pressure_margin": float(1.0 - np.max(drops) / self.max_pressure_drop),
            "pressure_imbalance": self.imbalance(vector),
        }
