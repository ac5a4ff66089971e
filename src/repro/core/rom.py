"""Krylov reduced-order models for the transient path.

The transient engine integrates the full finite-volume state every
backward-Euler step: ``(C/dt + A) T_{n+1} = C/dt T_n + b(t_n)``.  For the
questions campaigns actually ask -- "peak temperature over this trace",
"time above threshold" -- the state wanders a low-dimensional subspace:
the thermal operator is strongly dissipative and the inputs (static heat
maps plus a handful of per-layer traces) span a few directions.  This
module projects the implicit system onto a block-Krylov subspace built
from exactly those directions, so a step becomes one small dense
triangular solve (order ~tens) instead of a sparse back-substitution over
every cell.

:func:`build_reduced_model` runs a block-Arnoldi recurrence on the
backward-Euler propagation operator ``P = (C/dt + A)^{-1} C/dt``: the
starting block holds the uniform initial-state direction, the implicit
solve of the static load ``b0`` and the implicit solves of the sampled
trace input directions, and successive blocks apply ``P``.  Every block
costs one ``(n, k)`` solve -- the seeds in one call, each Arnoldi block
in one call -- and is orthonormalized into a preallocated basis by
two-pass block classical Gram-Schmidt (BLAS-3 products against the
existing columns, then two passes per column against the block's own
accepted columns).  Directions whose residual norm falls below
``tolerance`` (relative to their pre-projection norm) are deflated, so the
realized order adapts to how much of the space the inputs actually
excite.  The dense reduced operators ``Vᵀ(C/dt + A)V``
(LU-factorized once) and ``Vᵀ(C/dt)V`` step the reduced state; *output
maps* -- the basis restricted to the solid and coolant cells -- track the
per-step peak temperature and coolant rise without lifting the full
state, which is reconstructed (``T ≈ V x``) only for stored snapshots and
on demand.

Because the Arnoldi solves go through the scenario's solver backend with
the implicit system's pattern token, building a model warms the very
factorization the full path (and the checkpoint error probes) would use.

A model belongs to the transient run that built it: the engine builds
at most one per flow scale the run visits and drops them all when the
run ends, so no basis outlives its run.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np
from scipy.linalg import lu_factor, lu_solve

__all__ = [
    "ReducedTransientModel",
    "build_reduced_model",
]

#: Deflation never goes below this, whatever ``tolerance`` says: directions
#: at the roundoff floor carry no information and destabilize the basis.
_DEFLATION_FLOOR = 1e-13


class ReducedTransientModel:
    """A projected backward-Euler integrator with peak-tracking outputs.

    Instances are immutable after construction and safe to share across
    threads: :meth:`step` only reads the factorized reduced operators.
    Build one with :func:`build_reduced_model`.
    """

    def __init__(
        self,
        basis: np.ndarray,
        reduced_implicit_lu,
        reduced_c_over_dt: np.ndarray,
        projected_base_rhs: np.ndarray,
        base_rhs: np.ndarray,
        rhs_fn: Callable[[float], np.ndarray],
        input_rows: Optional[np.ndarray],
        outputs: Dict[str, np.ndarray],
        n_build_solves: int,
    ) -> None:
        self.basis = basis
        self._lu = reduced_implicit_lu
        self._c_over_dt_r = reduced_c_over_dt
        # Dense propagation matrix of the reduced recurrence
        # ``x' = P x + M^{-1} Vᵀb``: precomputing ``P = M^{-1} Cr`` turns
        # the per-step triangular solve into one tiny matvec, and lets
        # the engine advance whole control chunks with BLAS-level loops.
        self._propagation = lu_solve(reduced_implicit_lu, reduced_c_over_dt)
        self._projected_base_rhs = projected_base_rhs
        self._base_rhs = base_rhs
        self._rhs_fn = rhs_fn
        self._input_rows = input_rows
        self._basis_input_rows = (
            None if input_rows is None else basis[input_rows, :].copy()
        )
        # Output maps: the basis restricted to a named cell selection, so
        # observables are small dense matvecs instead of full lifts.
        self._outputs = {
            name: basis[rows, :].copy() for name, rows in outputs.items()
        }
        self.n_build_solves = int(n_build_solves)

    @property
    def order(self) -> int:
        """Realized basis size (after tolerance-driven deflation)."""
        return int(self.basis.shape[1])

    @property
    def n_unknowns(self) -> int:
        """Dimension of the full state the model reduces."""
        return int(self.basis.shape[0])

    # -- state transport ----------------------------------------------------

    def project(self, state: np.ndarray) -> np.ndarray:
        """Galerkin projection of a full state onto the basis."""
        return self.basis.T @ state

    def lift(self, reduced_state: np.ndarray) -> np.ndarray:
        """Reconstruct the full state ``T ≈ V x`` (lift-on-demand)."""
        return self.basis @ reduced_state

    # -- stepping -----------------------------------------------------------

    def project_rhs(self, time: float) -> np.ndarray:
        """``Vᵀ b(time)`` without touching rows the traces cannot reach.

        The right-hand side differs from the static load only on the
        trace-driven rows, so the projection is the precomputed
        ``Vᵀ b0`` plus a small correction over those rows; a model built
        without ``input_rows`` falls back to the full projection.
        """
        rhs = self._rhs_fn(time)
        if rhs is self._base_rhs:
            return self._projected_base_rhs
        if self._basis_input_rows is None:
            return self.basis.T @ rhs
        rows = self._input_rows
        delta = rhs[rows] - self._base_rhs[rows]
        return self._projected_base_rhs + self._basis_input_rows.T @ delta

    def step(self, reduced_state: np.ndarray, time: float) -> np.ndarray:
        """One reduced backward-Euler step to absolute ``time``."""
        rhs = self.project_rhs(time) + self._c_over_dt_r @ reduced_state
        return lu_solve(self._lu, rhs)

    @property
    def propagation(self) -> np.ndarray:
        """The dense reduced propagation matrix ``P = M^{-1} Vᵀ(C/dt)V``."""
        return self._propagation

    def solve_projected(self, projected_rhs: np.ndarray) -> np.ndarray:
        """``M^{-1} r`` for one projected rhs vector or a matrix of them.

        With the propagation matrix this factors the recurrence as
        ``x_{k+1} = P x_k + M^{-1} Vᵀ b_k``: callers batch every ``b_k``
        of a control chunk into one dense solve, then advance with one
        tiny matvec per step.
        """
        return lu_solve(self._lu, projected_rhs)

    # -- outputs ------------------------------------------------------------

    def output(self, name: str, reduced_state: np.ndarray) -> np.ndarray:
        """The named output map applied to a reduced state."""
        return self._outputs[name] @ reduced_state

    def output_max(self, name: str, reduced_state: np.ndarray) -> float:
        """Max of an output map (empty selections are ``-inf``-free 0.0)."""
        values = self._outputs[name] @ reduced_state
        if values.size == 0:
            return 0.0
        return float(np.max(values))

    def output_max_many(
        self, name: str, reduced_states: np.ndarray
    ) -> np.ndarray:
        """Per-column maxima of an output map over a ``(order, k)`` block.

        One BLAS-3 product covers a whole control chunk of states; empty
        selections yield zeros (mirroring :meth:`output_max`).
        """
        output_map = self._outputs[name]
        if output_map.shape[0] == 0:
            return np.zeros(reduced_states.shape[1])
        return np.max(output_map @ reduced_states, axis=0)


def _orthonormalize_block(
    basis: np.ndarray, count: int, block: np.ndarray, tolerance: float
) -> int:
    """Append ``block``'s surviving directions to ``basis``; the new count.

    ``basis[:, :count]`` holds the orthonormal columns so far.  The block
    is projected in place against them by two passes of block classical
    Gram-Schmidt ("twice is enough"; Giraud, Langou & Rozloznik, 2005),
    then each of its columns, in order, against the columns this block has
    already accepted, again twice.  A column whose residual norm is at most
    ``max(tolerance, floor)`` relative to its pre-projection norm is
    deflated; appending stops once ``basis`` is full.
    """
    norms = np.linalg.norm(block, axis=0)
    existing = basis[:, :count]
    for _ in range(2):
        block -= existing @ (existing.T @ block)
    threshold = max(tolerance, _DEFLATION_FLOOR)
    start = count
    for column, norm0 in zip(block.T, norms):
        if count == basis.shape[1]:
            break
        if norm0 == 0.0 or not np.isfinite(norm0):
            continue
        vector = column / norm0
        accepted = basis[:, start:count]
        for _ in range(2):
            vector -= accepted @ (accepted.T @ vector)
        norm = float(np.linalg.norm(vector))
        if norm <= threshold:
            continue
        basis[:, count] = vector / norm
        count += 1
    return count


def build_reduced_model(
    implicit,
    c_over_dt,
    solve: Callable[[np.ndarray], np.ndarray],
    base_rhs: np.ndarray,
    input_directions: Sequence[np.ndarray],
    rhs_fn: Callable[[float], np.ndarray],
    *,
    order: int,
    tolerance: float,
    input_rows: Optional[np.ndarray] = None,
    outputs: Optional[Dict[str, np.ndarray]] = None,
) -> ReducedTransientModel:
    """Block-Arnoldi projection of one implicit backward-Euler system.

    Parameters
    ----------
    implicit / c_over_dt:
        The sparse ``C/dt + A`` matrix and the ``C/dt`` diagonal returned
        by :meth:`repro.ice.transient.TransientSolver.implicit_system`.
    solve:
        ``rhs -> implicit^{-1} rhs`` through the scenario's solver backend
        (which caches the factorization under the implicit token).  It
        receives ``(n, k)`` blocks -- the seeds, then each Arnoldi block --
        and must return the ``(n, k)`` solution block.
    base_rhs:
        The static load vector; its implicit solve seeds the basis and its
        projection is precomputed for the stepping hot path.
    input_directions:
        Extra input directions (sampled trace deltas); each is solved
        through ``implicit`` and joins the starting block.
    rhs_fn:
        ``time -> b(time)``, evaluated by :meth:`ReducedTransientModel.step`.
    order:
        Maximum basis size; the realized order may be smaller when the
        Krylov space closes or ``tolerance`` deflates directions.
    tolerance:
        Relative deflation threshold of the Gram-Schmidt recurrence.
    input_rows:
        Row indices the traces can modify (for the cheap per-step rhs
        projection); None projects the full rhs every step.
    outputs:
        Named cell selections to build output maps for (e.g. solid /
        coolant cells).
    """
    n = int(implicit.shape[0])
    order = max(1, min(int(order), n))
    tolerance = float(tolerance)
    basis = np.empty((n, order), order="F")

    # Starting block: the uniform-state direction (any uniform initial
    # condition is then represented exactly), then the static-load and
    # trace input responses, solved in one block.
    directions = [np.asarray(d, dtype=float) for d in (base_rhs, *input_directions)]
    directions = [d for d in directions if float(np.linalg.norm(d)) != 0.0]
    seeds = np.ones((n, 1 + len(directions)), order="F")
    if directions:
        seeds[:, 1:] = solve(np.column_stack(directions))
    n_solves = len(directions)
    count = _orthonormalize_block(basis, 0, seeds, tolerance)

    # Arnoldi recurrence on the propagation operator P = implicit^{-1} C/dt:
    # each block of accepted columns is propagated by one block solve, of
    # only as many columns as the basis still has room for.
    block = slice(0, count)
    while count < order and block.stop > block.start:
        width = min(block.stop - block.start, order - count)
        propagated = solve(c_over_dt @ basis[:, block.start : block.start + width])
        n_solves += width
        accepted = _orthonormalize_block(basis, count, propagated, tolerance)
        block, count = slice(count, accepted), accepted

    basis = np.ascontiguousarray(basis[:, :count])
    reduced_implicit = basis.T @ (implicit @ basis)
    reduced_c = basis.T @ (c_over_dt @ basis)
    return ReducedTransientModel(
        basis=basis,
        reduced_implicit_lu=lu_factor(reduced_implicit),
        reduced_c_over_dt=reduced_c,
        projected_base_rhs=basis.T @ np.asarray(base_rhs, dtype=float),
        base_rhs=np.asarray(base_rhs),
        rhs_fn=rhs_fn,
        input_rows=(
            None if input_rows is None else np.asarray(input_rows, dtype=int)
        ),
        outputs=outputs or {},
        n_build_solves=n_solves,
    )

