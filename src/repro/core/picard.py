"""Picard outer iteration for temperature-dependent coolant properties.

The paper freezes all fluid properties (assumption 2, Section IV); the
temperature-dependent coolant mode relaxes that by wrapping the linear
solve of either model family in a fixed-point (Picard) outer iteration --
the classic segregated-coupling pattern:

1. solve the system with the current film properties (the first iterate
   uses the constant ``base`` properties, so iteration 0 *is* the paper's
   solve);
2. re-evaluate the coolant film properties from the bulk coolant
   temperature field of that solution
   (:meth:`repro.thermal.properties.CoolantModel.film`);
3. refresh the conductance values and repeat until the coolant
   temperature field moves by less than ``tolerance_K`` in the infinity
   norm.

Under-relaxation damps oscillatory property coupling; a divergence guard
(non-finite iterates, or a residual that grows past
``divergence_factor x`` the first residual) and the iteration cap both
fall back to the constant-property solution with ``fell_back=True`` in
the result, so a run never silently reports an unconverged
temperature-dependent field.

Both model families go through one refresh seam, :func:`picard_solve`.
Their assembled systems (:mod:`repro.thermal.assembly` for the FDM
cavity, :mod:`repro.ice.solver` for the finite-volume stack) expose
``matrix``, ``rhs`` and ``pattern_token`` alike, plus
``coolant_field(vector)`` -- the bulk coolant temperatures, one row per
lane or cavity -- and ``refreshed(films)``, a system that re-evaluates
only the film-dependent values (FDM ``g_v``, the finite-volume cavity
convection) and shares ``pattern``, ``pattern_token`` and ``rhs`` with
the assembled one.  A pass is one value fold plus one
``backend.solver_for(matrix, token).solve(rhs)``; none assembles a new
system.  The system that produced the accepted iterate travels with it,
so a fallback reports the assembled system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

__all__ = [
    "PicardSettings",
    "PicardResult",
    "picard_iterate",
    "picard_metadata",
    "picard_solve",
]


@dataclass(frozen=True)
class PicardSettings:
    """Convergence knobs of the Picard outer iteration.

    Attributes
    ----------
    tolerance_K:
        Convergence tolerance on ``||delta T||_inf`` of the bulk coolant
        temperature field between consecutive iterates, in Kelvin.
    max_iterations:
        Hard cap on the number of outer iterations; reaching it without
        converging triggers the constant-property fallback.
    relaxation:
        Under-relaxation factor in (0, 1] applied to the coolant
        temperature update (1.0 = plain fixed point).
    divergence_factor:
        The iteration is declared divergent when the residual grows past
        this multiple of the first iteration's residual (or any iterate
        goes non-finite).
    """

    tolerance_K: float = 1e-4
    max_iterations: int = 25
    relaxation: float = 1.0
    divergence_factor: float = 100.0

    def __post_init__(self) -> None:
        if self.tolerance_K <= 0.0:
            raise ValueError(
                f"picard tolerance_K must be positive, got {self.tolerance_K}"
            )
        if self.max_iterations < 1:
            raise ValueError(
                f"picard max_iterations must be at least 1, "
                f"got {self.max_iterations}"
            )
        if not 0.0 < self.relaxation <= 1.0:
            raise ValueError(
                f"picard relaxation must be in (0, 1], got {self.relaxation}"
            )
        if self.divergence_factor <= 1.0:
            raise ValueError(
                f"picard divergence_factor must exceed 1, "
                f"got {self.divergence_factor}"
            )

    @classmethod
    def from_solver_spec(cls, solver) -> "PicardSettings":
        """Build settings from a :class:`~repro.scenarios.SolverSpec`."""
        return cls(
            tolerance_K=solver.picard_tolerance_K,
            max_iterations=solver.picard_max_iterations,
            relaxation=solver.picard_relaxation,
        )


@dataclass
class PicardResult:
    """Outcome of one Picard outer iteration.

    ``solution`` is the converged solver output, or the constant-property
    baseline when ``fell_back`` is True (divergence or cap exhaustion).
    ``residual_K`` is the last ``||delta T||_inf`` observed (infinity when
    no iteration completed).
    """

    solution: object
    n_iterations: int
    converged: bool
    fell_back: bool
    diverged: bool
    residual_K: float


def picard_iterate(
    base_solution: object,
    base_field: np.ndarray,
    resolve: Callable[[np.ndarray], Tuple[object, np.ndarray]],
    settings: PicardSettings,
) -> PicardResult:
    """Run the fixed-point loop around a solver's value-refresh callback.

    Parameters
    ----------
    base_solution:
        The constant-property solution (iteration 0); returned verbatim as
        the fallback when the iteration diverges or hits the cap.
    base_field:
        The bulk coolant temperature field of ``base_solution`` -- the
        quantity the film properties are evaluated from and the quantity
        convergence is measured on.
    resolve:
        ``resolve(field) -> (solution, new_field)``: re-evaluate the film
        properties at ``field``, refresh the conductance values, solve,
        and return the new solution plus its coolant temperature field.
    settings:
        Convergence knobs.
    """
    field = np.asarray(base_field, dtype=float).copy()
    solution = base_solution
    first_residual = None
    residual = float("inf")
    n_iterations = 0
    converged = False
    diverged = False
    for _ in range(settings.max_iterations):
        n_iterations += 1
        new_solution, candidate = resolve(field)
        candidate = np.asarray(candidate, dtype=float)
        if not np.all(np.isfinite(candidate)):
            diverged = True
            break
        updated = field + settings.relaxation * (candidate - field)
        residual = float(np.max(np.abs(updated - field))) if field.size else 0.0
        solution = new_solution
        field = updated
        if first_residual is None:
            first_residual = residual
        elif (
            first_residual > 0.0
            and residual > settings.divergence_factor * first_residual
        ):
            diverged = True
            break
        if residual <= settings.tolerance_K:
            converged = True
            break
    fell_back = not converged
    return PicardResult(
        solution=base_solution if fell_back else solution,
        n_iterations=n_iterations,
        converged=converged,
        fell_back=fell_back,
        diverged=diverged,
        residual_K=residual,
    )


def picard_metadata(
    model_name: str, settings: PicardSettings, result: PicardResult
) -> Dict[str, object]:
    """The ``metadata["picard"]`` payload both solver families report."""
    return {
        "coolant_model": model_name,
        "n_iterations": result.n_iterations,
        "converged": result.converged,
        "fell_back": result.fell_back,
        "diverged": result.diverged,
        "residual_K": result.residual_K,
        "tolerance_K": settings.tolerance_K,
        "max_iterations": settings.max_iterations,
        "relaxation": settings.relaxation,
    }


def picard_solve(system, solution: np.ndarray, backend, coolant_model, settings=None):
    """Picard-iterate ``system`` from its constant-property ``solution``.

    Returns ``(solution, solved_system, metadata)``: the accepted iterate,
    the system that produced it (``system`` itself after a fallback) and
    the ``metadata["picard"]`` payload.  ``settings`` defaults to
    :class:`PicardSettings()`.
    """
    settings = PicardSettings() if settings is None else settings

    def resolve(field: np.ndarray):
        refreshed = system.refreshed([coolant_model.film(cells) for cells in field])
        vector = backend.solver_for(
            refreshed.matrix, refreshed.pattern_token
        ).solve(refreshed.rhs)
        return (vector, refreshed), system.coolant_field(vector)

    outcome = picard_iterate(
        (solution, system), system.coolant_field(solution), resolve, settings
    )
    solution, solved_system = outcome.solution
    info = picard_metadata(coolant_model.name, settings, outcome)
    return solution, solved_system, info
