"""Krylov reduced-order models for the transient path.

The transient engine integrates the full finite-volume state every
backward-Euler step: ``(C/dt + A) T_{n+1} = C/dt T_n + b(t_n)``.  For the
questions campaigns actually ask -- "peak temperature over this trace",
"time above threshold" -- the state wanders a low-dimensional subspace:
the thermal operator is strongly dissipative and the inputs (static heat
maps plus a handful of per-layer traces) span a few directions.  This
module projects the implicit system onto a block-Krylov subspace built
from exactly those directions, so a step becomes one small dense matvec
(order ~tens) instead of a sparse back-substitution over every cell.

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
(LU-factorized once) and ``Vᵀ(C/dt)V`` step the reduced state through
one recurrence, :meth:`ReducedTransientModel.advance`; *output maps* --
the basis restricted to the solid and coolant cells -- track the per-step
peak temperature and coolant rise without lifting the full state, which
is reconstructed (``T ≈ V x``) only for stored snapshots and on demand.

Because the Arnoldi solves go through the scenario's solver backend with
the implicit system's pattern token, building a model warms the very
factorization the full path (and the checkpoint error probes) would use.

*One basis per run, every flow from it.*  The ICE operator is affine in
flow, ``C/dt + A(s) = K + (s - 1) A_adv`` and ``b(s) = b0 + (s - 1)
b_inlet`` relative to the build flow
(:meth:`repro.ice.solver.AssembledSystem.flow_split`).  Given that split,
:func:`build_reduced_model` builds a *flow-parametric* model: the inlet
response ``K^{-1} b_inlet`` joins the starting block, and the recurrence
pairs every propagated column ``K^{-1} (C/dt) v`` with its flow derivative
``K^{-1} A_adv v``, so the basis matches moments in time and in flow
(multi-parameter moment matching: Daniel et al., IEEE TCAD 23(5), 2004)
through the one factorization, inside the same ``order`` budget.  Those
columns are orthonormalized against the whole basis, not only against
their own block: the flow derivatives of neighbouring columns are nearly
parallel, and without the full passes the basis loses orthogonality.  The
build precomputes ``VᵀA_adv V`` and ``Vᵀb_inlet`` next to ``Vᵀ(C/dt + A)V``
and ``Vᵀb0``; :meth:`ReducedTransientModel.at_flow` then serves any flow
with one dense LU of order ~48 and no sparse work.  Without a split (a run
whose flow never changes) the build is the plain Krylov recurrence above.

A model belongs to the transient run that built it: the engine builds at
most one, at the run's initial flow scale, derives every other scale from
it, and drops it when the run ends, so no basis outlives its run.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import lu_factor, lu_solve

__all__ = [
    "ReducedTransientModel",
    "build_reduced_model",
]

#: Deflation never goes below this, whatever ``tolerance`` says: directions
#: at the roundoff floor carry no information and destabilize the basis.
_DEFLATION_FLOOR = 1e-13


class _FlowTerms(NamedTuple):
    """The build-flow operators and the flow share of a flow-parametric model."""

    #: ``Vᵀ(C/dt + A)V`` and ``Vᵀb0`` at the flow the model was built at.
    reduced_implicit: np.ndarray
    projected_base_rhs: np.ndarray
    #: ``Vᵀ A_adv V`` and ``Vᵀ b_inlet``: the flow-proportional shares.
    reduced_advection: np.ndarray
    projected_inlet: np.ndarray


class ReducedTransientModel:
    """A projected backward-Euler integrator with peak-tracking outputs.

    Instances are immutable after construction and safe to share across
    threads: :meth:`advance` only reads the factorized reduced operators,
    and :meth:`at_flow` returns a new model.  Build one with
    :func:`build_reduced_model`.
    """

    def __init__(
        self,
        basis: np.ndarray,
        reduced_implicit: np.ndarray,
        reduced_c_over_dt: np.ndarray,
        projected_base_rhs: np.ndarray,
        base_rhs: np.ndarray,
        rhs_fn: Callable[[float], np.ndarray],
        input_rows: Optional[np.ndarray],
        outputs: Dict[str, np.ndarray],
        n_build_solves: int,
        flow_terms: Optional[_FlowTerms] = None,
    ) -> None:
        self.basis = basis
        self._c_over_dt_r = reduced_c_over_dt
        self._factor_implicit(reduced_implicit)
        self._projected_base_rhs = projected_base_rhs
        self._base_rhs = base_rhs
        self._rhs_fn = rhs_fn
        self._input_rows = input_rows
        self._basis_input_rows = (
            None if input_rows is None else basis[input_rows, :]
        )
        # Output maps: the basis restricted to a named cell selection, so
        # observables are small dense matvecs instead of full lifts.  (Index
        # arrays select rows into new arrays: no copy is needed.)
        self._outputs = {name: basis[rows, :] for name, rows in outputs.items()}
        self.n_build_solves = int(n_build_solves)
        self._flow = flow_terms
        #: Flow of this model relative to the flow it was built at.
        self.flow_factor = 1.0

    def _factor_implicit(self, reduced_implicit: np.ndarray) -> None:
        self._lu = lu_factor(reduced_implicit)
        # Dense propagation matrix of the reduced recurrence
        # ``x' = P x + M^{-1} Vᵀb``: precomputing ``P = M^{-1} Cr`` turns
        # the per-step triangular solve into one tiny matvec, so
        # :meth:`advance` steps whole control chunks with BLAS-level loops.
        self._propagation = lu_solve(self._lu, self._c_over_dt_r)

    def at_flow(self, factor: float) -> "ReducedTransientModel":
        """This model at ``factor`` times the flow it was built at.

        The implicit operator and the static load are affine in flow
        (:class:`~repro.ice.solver.FlowSplit`), and so are their
        projections: with ``d = factor - 1`` the reduced operator is
        ``Vᵀ(C/dt + A)V + d VᵀA_adv V`` and the projected load
        ``Vᵀb0 + d Vᵀb_inlet``, all precomputed at build time.  A new flow
        therefore costs one dense LU of order :attr:`order` and no sparse
        work; the result shares the basis, the output maps and the input
        rows with this model.
        """
        factor = float(factor)
        if factor == self.flow_factor:
            return self
        flow = self._flow
        if flow is None:
            raise ValueError(
                "this reduced model was built without a flow split and "
                "serves only the flow it was built at"
            )
        offset = factor - 1.0
        model = copy.copy(self)
        model.flow_factor = factor
        model._factor_implicit(
            flow.reduced_implicit + offset * flow.reduced_advection
        )
        model._projected_base_rhs = (
            flow.projected_base_rhs + offset * flow.projected_inlet
        )
        return model

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
        trace-driven rows, at every flow (the inlet load sits on coolant
        rows, the traces on solid ones), so the projection is this flow's
        precomputed ``Vᵀ b0`` plus a small correction over those rows; a
        model built without ``input_rows`` projects the whole difference.
        """
        rhs = self._rhs_fn(time)
        if rhs is self._base_rhs:
            return self._projected_base_rhs
        if self._basis_input_rows is None:
            return self._projected_base_rhs + self.basis.T @ (rhs - self._base_rhs)
        rows = self._input_rows
        delta = rhs[rows] - self._base_rhs[rows]
        return self._projected_base_rhs + self._basis_input_rows.T @ delta

    def advance(self, reduced_state: np.ndarray, times) -> np.ndarray:
        """Reduced backward-Euler states at each of ``times``, ``(order, k)``.

        The factored recurrence ``x_{k+1} = P x_k + M^{-1} Vᵀ b_k`` from
        ``reduced_state``: the rhs projections of all ``times`` solve in
        one dense call, then each step is one order-sized matvec.
        """
        n_times = len(times)
        projected = np.empty((self.order, n_times))
        for column, time in enumerate(times):
            projected[:, column] = self.project_rhs(float(time))
        forced = lu_solve(self._lu, projected)
        states = np.empty((self.order, n_times))
        x = reduced_state
        for column in range(n_times):
            x = self._propagation @ x + forced[:, column]
            states[:, column] = x
        return states

    # -- outputs ------------------------------------------------------------

    def output_max_many(
        self, name: str, reduced_states: np.ndarray
    ) -> np.ndarray:
        """Per-column maxima of an output map over a ``(order, k)`` block.

        One BLAS-3 product covers a whole control chunk of states; empty
        selections yield zeros.
        """
        output_map = self._outputs[name]
        if output_map.shape[0] == 0:
            return np.zeros(reduced_states.shape[1])
        return np.max(output_map @ reduced_states, axis=0)


def _orthonormalize_block(
    basis: np.ndarray,
    count: int,
    block: np.ndarray,
    tolerance: float,
    reorthogonalize: bool = False,
) -> int:
    """Append ``block``'s surviving directions to ``basis``; the new count.

    ``basis[:, :count]`` holds the orthonormal columns so far.  The block
    is projected in place against them by two passes of block classical
    Gram-Schmidt ("twice is enough"; Giraud, Langou & Rozloznik, 2005),
    then each of its columns, in order, against the columns this block has
    already accepted, again twice.  A column whose residual norm is at most
    ``max(tolerance, floor)`` relative to its pre-projection norm is
    deflated; appending stops once ``basis`` is full.

    ``reorthogonalize`` runs the per-column passes against the whole basis
    instead.  A nearly dependent column keeps a roundoff-sized component
    along the existing columns after the block passes, which normalizing
    its small residual would amplify; the full passes remove it.
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
        accepted = basis[:, 0 if reorthogonalize else start : count]
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
    flow_split: Optional[Tuple[object, np.ndarray]] = None,
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
        ``time -> b(time)``, evaluated by :meth:`ReducedTransientModel.advance`.
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
    flow_split:
        ``(A_adv, b_inlet)``, the flow-proportional shares of ``implicit``
        and ``base_rhs`` (:meth:`repro.ice.solver.AssembledSystem.flow_split`),
        or None for a model of this flow only.  With it the recurrence
        also spans the flow moments (the inlet response joins the starting
        block, and every propagated column is paired with its flow
        derivative ``implicit^{-1} A_adv v``), and the model serves every
        flow through :meth:`ReducedTransientModel.at_flow`.
    """
    n = int(implicit.shape[0])
    order = max(1, min(int(order), n))
    tolerance = float(tolerance)
    basis = np.empty((n, order), order="F")

    # Starting block: the uniform-state direction (any uniform initial
    # condition is then represented exactly), then the static-load and
    # trace input responses, solved in one block -- and, for a
    # flow-parametric model, the response to the inlet load.
    directions = [np.asarray(d, dtype=float) for d in (base_rhs, *input_directions)]
    if flow_split is not None:
        advection, inlet = flow_split
        inlet = np.asarray(inlet, dtype=float)
        directions.append(inlet)
    directions = [d for d in directions if float(np.linalg.norm(d)) != 0.0]
    seeds = np.ones((n, 1 + len(directions)), order="F")
    if directions:
        seeds[:, 1:] = solve(np.column_stack(directions))
    n_solves = len(directions)
    count = _orthonormalize_block(basis, 0, seeds, tolerance)

    # Arnoldi recurrence on the propagation operator P = implicit^{-1} C/dt:
    # each block of accepted columns is propagated by one block solve, of
    # only as many columns as the basis still has room for.  A
    # flow-parametric build maps every source column by P and by the flow
    # derivative D = implicit^{-1} A_adv side by side, so the columns the
    # room admits first are the lowest-degree moments in time and in flow.
    block = slice(0, count)
    while count < order and block.stop > block.start:
        room = order - count
        if flow_split is None:
            sources = basis[:, block.start : block.start + min(block.stop - block.start, room)]
            images = c_over_dt @ sources
        else:
            width = min(block.stop - block.start, -(-room // 2))
            sources = basis[:, block.start : block.start + width]
            images = np.empty((n, 2 * width), order="F")
            images[:, 0::2] = c_over_dt @ sources
            images[:, 1::2] = advection @ sources
        propagated = solve(images)
        n_solves += images.shape[1]
        accepted = _orthonormalize_block(
            basis, count, propagated, tolerance, reorthogonalize=flow_split is not None
        )
        block, count = slice(count, accepted), accepted

    basis = np.ascontiguousarray(basis[:, :count])
    reduced_implicit = basis.T @ (implicit @ basis)
    reduced_c = basis.T @ (c_over_dt @ basis)
    projected_base_rhs = basis.T @ np.asarray(base_rhs, dtype=float)
    flow_terms = None
    if flow_split is not None:
        flow_terms = _FlowTerms(
            reduced_implicit=reduced_implicit,
            projected_base_rhs=projected_base_rhs,
            reduced_advection=basis.T @ (advection @ basis),
            projected_inlet=basis.T @ inlet,
        )
    return ReducedTransientModel(
        basis=basis,
        reduced_implicit=reduced_implicit,
        reduced_c_over_dt=reduced_c,
        projected_base_rhs=projected_base_rhs,
        base_rhs=np.asarray(base_rhs),
        rhs_fn=rhs_fn,
        input_rows=(
            None if input_rows is None else np.asarray(input_rows, dtype=int)
        ),
        outputs=outputs or {},
        n_build_solves=n_solves,
        flow_terms=flow_terms,
    )
