"""Pluggable linear-solver backends for the finite-difference thermal solver.

The FDM solve path is split in two: :mod:`repro.thermal.assembly` produces
the sparse system and this module solves it.  Backends are selected by name
through a small registry so experiments, benchmarks and the evaluation
engine can swap solvers without touching the assembly:

``sparse-lu`` (default workhorse)
    Direct LU with a factorization plan per sparsity structure.  The plan
    is computed once per structure (keyed on the pattern token, or on a
    hash of the structure when there is none) and holds a reverse
    Cuthill--McKee ordering of ``|A| + |A^T|`` (Cuthill & McKee, 1969) with
    its bandwidth.  Narrow structures -- every FDM cavity system, whose
    variable-major unknowns have bandwidth ~1000 before and ~15 after the
    ordering -- factorize with LAPACK's banded LU (``gbtrf``/``gbtrs``);
    wide ones -- the finite-volume stacks -- with SuperLU under an
    ``A + A^T`` minimum-degree ordering (Amestoy, Davis & Duff, 1996).  The
    kernel depends on the structure alone, never on whether the caller
    passed a token.  A small LRU of factorizations keyed on the structure
    plus a content hash of the coefficient values lets repeated solves of
    an unchanged matrix pay only a triangular solve.

``dense``
    LAPACK dense solve on the densified matrix; a reference for small
    systems.

``auto``
    Hands out ``sparse-lu`` at every size: its banded kernel is faster
    than the dense solve even at the smallest (120-unknown) cavities.

Factorization handles
---------------------
A caller that solves one fixed matrix many times -- a backward-Euler
control chunk, a Krylov ROM build -- acquires a :class:`FactorizationHandle` once with
:meth:`SolverBackend.solver_for` (one content lookup, which factorizes on
a miss) and then solves through it with :meth:`FactorizationHandle.solve`
(``trans="N"`` or ``"T"``), a bare triangular solve that never re-hashes
the matrix.  A handle solves a vector or an ``(n, k)`` block; the
registered backends hand a block to their kernel (SuperLU, ``gbtrs``,
``np.linalg.solve``) in one multi-RHS call, so its columns agree with the
single-RHS solves to rounding (``rtol=1e-12``), not bit for bit, while a
single vector solves exactly as ``solve`` does.  ``solve``,
``solve_transpose`` and ``solve_matrix`` are thin
wrappers over a handle acquired for the one call, so there is a single
lookup path.  Handles are meant to live for one unit of work: the
backend's bounded LRU stays the only long-lived owner of factorizations.

Custom backends register with :func:`register_backend`; anything exposing
``solve(matrix, rhs, pattern_token=None) -> ndarray`` works, and
:func:`solver_for` gives such duck-typed backends a handle that forwards
each solve to ``solve``, one block column at a time.
"""

from __future__ import annotations

import hashlib
import threading
from functools import partial
from typing import Callable, Dict, Optional, Union

import numpy as np
from scipy import sparse
from scipy.linalg import get_lapack_funcs
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from ..core.lru import BoundedLRU
from ..core.registry import Registry

__all__ = [
    "AutoBackend",
    "DEFAULT_BACKEND",
    "DenseBackend",
    "FactorizationHandle",
    "SolverBackend",
    "SparseLUBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "solver_for",
]

#: Name of the backend used when callers do not specify one.
DEFAULT_BACKEND = "auto"


def _columnwise(solve: Callable[[np.ndarray], np.ndarray], rhs) -> np.ndarray:
    """Apply a vector-only ``solve`` to a vector or to each column of a block.

    Only handles that forward to a ``solve`` promising vectors need this;
    the registered backends pass whole blocks to their kernels.
    """
    rhs = np.asarray(rhs)
    if rhs.ndim == 1:
        return solve(rhs)
    columns = [solve(rhs[:, column]) for column in range(rhs.shape[1])]
    return np.column_stack(columns) if columns else np.empty(rhs.shape)


def _transposed(matrix, pattern_token):
    """``(A^T, token)`` with the token wrapped so it never collides with ``A``'s."""
    token = None if pattern_token is None else ("transpose", pattern_token)
    return matrix.T.tocsr(), token


class FactorizationHandle:
    """One fixed matrix, looked up once, ready for repeated solves.

    Acquire handles with :meth:`SolverBackend.solver_for` (or the
    module-level :func:`solver_for` for duck-typed backends).  ``factor``
    is whatever the owning backend prepared -- a SuperLU object, a dense
    array, or None for backends that re-solve from the matrix each time.
    ``used`` records whether a solve has gone through the handle yet, so
    the backend can count every later solve as a factorization reuse.
    """

    __slots__ = ("backend", "matrix", "pattern_token", "factor", "used")

    def __init__(self, backend, matrix, pattern_token=None, factor=None) -> None:
        self.backend = backend
        self.matrix = matrix
        self.pattern_token = pattern_token
        self.factor = factor
        self.used = False

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve ``A x = rhs`` (``trans="T"``: ``A^T x = rhs``).

        ``rhs`` is a vector or an ``(n, k)`` block (``k`` may be 0).  A
        vector solves bit for bit as the backend's ``solve`` does; a block
        is one multi-RHS kernel call whose columns match the single-RHS
        solves within ``rtol=1e-12`` (blocked kernels reorder additions).
        """
        return self.backend.solve_with(self, rhs, trans)


class _ForwardingHandle(FactorizationHandle):
    """Handle over a duck-typed backend that only exposes ``solve``."""

    __slots__ = ()

    def solve(self, rhs, trans="N"):
        matrix, token = self.matrix, self.pattern_token
        if trans == "T":
            matrix, token = _transposed(matrix, token)
        return _columnwise(
            lambda column: self.backend.solve(matrix, column, token), rhs
        )


class SolverBackend:
    """Interface of a linear-solver backend.

    Subclasses implement :meth:`solve`; ``pattern_token`` (when provided by
    the assembly layer) identifies the static sparsity structure of the
    matrix so backends can cache factorizations cheaply.  Backends that can
    prepare a matrix once for many solves also override :meth:`solver_for`
    and :meth:`solve_with`; the defaults hand out a handle that re-solves
    from the matrix through :meth:`solve`/:meth:`solve_transpose`.
    """

    #: Registry name of the backend.
    name: str = "abstract"

    def solve(
        self,
        matrix: sparse.spmatrix,
        rhs: np.ndarray,
        pattern_token: Optional[tuple] = None,
    ) -> np.ndarray:
        raise NotImplementedError

    def solver_for(
        self, matrix: sparse.spmatrix, pattern_token: Optional[tuple] = None
    ) -> FactorizationHandle:
        """Acquire a :class:`FactorizationHandle` for repeated solves of ``matrix``."""
        return FactorizationHandle(self, matrix, pattern_token)

    def solve_with(
        self, handle: FactorizationHandle, rhs: np.ndarray, trans: str = "N"
    ) -> np.ndarray:
        """Solve through a handle this backend handed out (see :class:`FactorizationHandle`)."""
        solve = self.solve if trans == "N" else self.solve_transpose
        return _columnwise(
            lambda column: solve(handle.matrix, column, handle.pattern_token), rhs
        )

    def solve_matrix(
        self,
        matrix: sparse.spmatrix,
        rhs_matrix: np.ndarray,
        pattern_token: Optional[tuple] = None,
    ) -> np.ndarray:
        """Solve one matrix against many right-hand sides at once.

        ``rhs_matrix`` has shape ``(n, k)`` -- one column per right-hand
        side, ``k`` may be 0 -- and the result has the same shape.  One
        handle serves the whole block, so direct backends look up the
        factorization once and solve the block in one kernel call; each
        column matches the corresponding single-RHS solve within
        ``rtol=1e-12``.
        """
        rhs_matrix = np.asarray(rhs_matrix)
        if rhs_matrix.ndim != 2:
            raise ValueError(
                f"rhs_matrix must be 2-D (n, k), got shape {rhs_matrix.shape}"
            )
        return self.solve_with(self.solver_for(matrix, pattern_token), rhs_matrix)

    def solve_transpose(
        self,
        matrix: sparse.spmatrix,
        rhs: np.ndarray,
        pattern_token: Optional[tuple] = None,
    ) -> np.ndarray:
        """Solve ``A^T x = rhs`` (the adjoint system of :meth:`solve`).

        The base implementation materializes the transposed matrix and
        solves it like any other system; direct backends solve it through
        a handle on the *forward* factorization (SuperLU solves both
        ``A x = b`` and ``A^T x = b`` from one decomposition), so an adjoint
        solve after a forward solve of the same matrix costs only a
        triangular solve.  The pattern token is wrapped so transposed
        structures never collide with forward ones in structure-keyed
        caches.
        """
        transposed, token = _transposed(matrix, pattern_token)
        return self.solve(transposed, rhs, token)

    def reset(self) -> None:
        """Drop any cached state (factorizations, counters)."""

    def stats(self) -> Dict[str, object]:
        """Backend-specific counters (empty by default)."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} name={self.name!r}>"


class _HandleBackend(SolverBackend):
    """A backend whose every solve goes through a factorization handle."""

    def solve(self, matrix, rhs, pattern_token=None):
        return self.solve_with(self.solver_for(matrix, pattern_token), rhs)

    def solve_transpose(self, matrix, rhs, pattern_token=None):
        return self.solve_with(self.solver_for(matrix, pattern_token), rhs, "T")


class DenseBackend(_HandleBackend):
    """LAPACK dense solve on the densified matrix; a reference for small systems.

    The handle holds the densified matrix; every solve is a fresh
    ``np.linalg.solve`` on it, a vector or a whole ``(n, k)`` block per call.
    """

    name = "dense"

    def solver_for(self, matrix, pattern_token=None):
        return FactorizationHandle(self, matrix, pattern_token, matrix.toarray())

    def solve_with(self, handle, rhs, trans="N"):
        dense = handle.factor.T if trans == "T" else handle.factor
        return np.linalg.solve(dense, rhs)


#: Structures whose reverse Cuthill--McKee bandwidth ``kl + ku`` is at most
#: this factorize with LAPACK's banded LU; wider ones with SuperLU.  Set
#: from the FDM cavities (1-64 lanes) and finite-volume stacks (1-4 dies)
#: on a 2-CPU x86 host: up to ``kl + ku = 96`` the banded LU factorizes
#: 2-9x faster than SuperLU and solves within 1.2x of it; from 132 on its
#: solves are 1.5-5x slower, a loss the many-solve transient and ROM paths
#: would pay on every step.
BANDED_MAX_BANDWIDTH = 100

#: Structures whose factorization plan is kept (plans are small).
_PLAN_CACHE_SIZE = 32

#: SuperLU settings for wide structures.  Their matrices are (weakly)
#: diagonally dominant conduction/advection systems whose structure is
#: symmetric, so the ``A + A^T`` minimum-degree ordering runs in symmetric
#: mode, which prefers diagonal pivots; without it SuperLU's row
#: interchanges spoil the ordering (up to 15x slower than COLAMD on 4-die
#: stacks).
_SUPERLU_OPTIONS = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.1,
    "options": {"SymmetricMode": True},
}

_GBTRF, _GBTRS = get_lapack_funcs(("gbtrf", "gbtrs"), dtype=np.float64)
_LAPACK_TRANS = {"N": 0, "T": 1, "H": 2}


class _FactorPlan:
    """How one sparsity structure is factorized.

    ``perm`` is the reverse Cuthill--McKee ordering of ``|A| + |A^T|`` and
    ``kl``/``ku`` the lower/upper bandwidth of ``A[perm][:, perm]``.  For a
    narrow structure ``scatter`` maps each CSR ``data`` slot to its place in
    the column-major LAPACK band storage of ``2 kl + ku + 1`` rows, so the
    band is filled in one call per factorization; wide structures have no
    scatter and go to SuperLU.
    """

    __slots__ = ("perm", "kl", "ku", "scatter")

    def __init__(self, matrix) -> None:
        n = matrix.shape[0]
        pattern = sparse.csr_matrix(
            (np.ones(matrix.nnz), matrix.indices, matrix.indptr), shape=matrix.shape
        )
        symmetric = (pattern + pattern.T).tocsr()
        # Canonical form, so the ordering depends on the nonzero set alone,
        # not on how the CSR arrays store it (duplicates, index order).
        symmetric.sum_duplicates()
        self.perm = reverse_cuthill_mckee(symmetric, symmetric_mode=True).astype(np.intp)
        position = np.empty(n, dtype=np.intp)
        position[self.perm] = np.arange(n)
        rows = position[np.repeat(np.arange(n), np.diff(matrix.indptr))]
        cols = position[matrix.indices]
        self.kl = int((rows - cols).max(initial=0))
        self.ku = int((cols - rows).max(initial=0))
        self.scatter = None
        if self.kl + self.ku <= BANDED_MAX_BANDWIDTH:
            ldab = 2 * self.kl + self.ku + 1
            self.scatter = (self.kl + self.ku + rows - cols) + ldab * cols

    def factorize(self, matrix):
        """The banded LU or SuperLU factor of ``matrix`` (this structure)."""
        if self.scatter is None:
            return splu(matrix.tocsc(), **_SUPERLU_OPTIONS)
        return _BandedLU(self, matrix)


class _BandedLU:
    """LAPACK banded LU of ``A[perm][:, perm]``, solving like a SuperLU factor."""

    __slots__ = ("plan", "lu", "ipiv")

    def __init__(self, plan: _FactorPlan, matrix) -> None:
        n = matrix.shape[0]
        ldab = 2 * plan.kl + plan.ku + 1
        # bincount folds duplicate CSR entries, as SuperLU does.
        band = np.bincount(
            plan.scatter, weights=matrix.data, minlength=ldab * n
        ).reshape((ldab, n), order="F")
        self.lu, self.ipiv, info = _GBTRF(band, plan.kl, plan.ku, overwrite_ab=1)
        if info > 0:
            raise RuntimeError("Factor is exactly singular")
        if info < 0:
            raise ValueError(f"gbtrf rejected argument {-info}")
        self.plan = plan

    @property
    def nnz(self) -> int:
        """Stored factor entries: the size of the band storage."""
        return self.lu.size

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve ``A x = rhs`` (``trans="T"``: ``A^T x = rhs``).

        ``rhs`` is a vector or an ``(n, k)`` block; a block goes to
        ``gbtrs`` as ``nrhs = k`` in one call.
        """
        plan = self.plan
        permuted, info = _GBTRS(
            self.lu,
            plan.kl,
            plan.ku,
            np.asarray(rhs)[plan.perm],
            self.ipiv,
            trans=_LAPACK_TRANS[trans],
            overwrite_b=1,
        )
        if info != 0:
            raise ValueError(f"gbtrs rejected argument {-info}")
        solution = np.empty_like(permuted)
        solution[plan.perm] = permuted
        return solution


class SparseLUBackend(_HandleBackend):
    """Direct LU solve with per-structure plans and factorization reuse.

    Each sparsity structure gets a :class:`_FactorPlan` once (kept in a
    :class:`~repro.core.lru.BoundedLRU`), which picks the banded LAPACK
    kernel or SuperLU from the structure's bandwidth.  Factorizations are
    cached in a second ``BoundedLRU`` keyed on the structure plus a content
    hash of the coefficient values, so solving the same matrix again (same
    design, same grid) skips the numeric factorization entirely.  Acquiring
    a handle is one such lookup (counted in ``n_content_hashes``).  The
    counters count right-hand sides: a ``k``-column handle solve is ``k``
    uses, the first use through a fresh handle is the factorization's own
    and every later one counts as a factorization reuse, exactly as ``k``
    single-RHS lookups would.
    """

    name = "sparse-lu"

    def __init__(self, factorization_cache_size: int = 8) -> None:
        if factorization_cache_size < 0:
            raise ValueError("factorization_cache_size must be non-negative")
        self.factorization_cache_size = int(factorization_cache_size)
        self._factorizations = BoundedLRU(self.factorization_cache_size)
        self._plans = BoundedLRU(_PLAN_CACHE_SIZE)
        self._lock = threading.Lock()
        self.n_factorizations = 0
        self.n_factorization_reuses = 0
        self.n_content_hashes = 0

    def _matrix_key(self, matrix, pattern_token):
        """``(structure key, content key)`` of ``matrix``."""
        structure = pattern_token
        if structure is None:
            # Without a pattern token the structure itself must be hashed.
            digest = hashlib.blake2b(matrix.indices.tobytes(), digest_size=16)
            digest.update(matrix.indptr.tobytes())
            structure = ("structure", matrix.shape, matrix.nnz, digest.hexdigest())
        content = hashlib.blake2b(matrix.data.tobytes(), digest_size=16)
        return structure, (structure, content.hexdigest())

    def _factorization_for(self, matrix, pattern_token):
        """The (possibly cached) factorization of ``matrix``."""
        structure, key = self._matrix_key(matrix, pattern_token)
        with self._lock:
            self.n_content_hashes += 1
        factorized = []

        def factorize():
            plan, _ = self._plans.get_or_build(structure, partial(_FactorPlan, matrix))
            factorized.append(plan.factorize(matrix))
            return factorized[0]

        factorization, _ = self._factorizations.get_or_build(key, factorize)
        with self._lock:
            if factorized:
                self.n_factorizations += 1
            else:
                self.n_factorization_reuses += 1
        return factorization

    def solver_for(self, matrix, pattern_token=None):
        # Plans and content keys read the CSR arrays (indptr over rows).
        if not sparse.issparse(matrix) or matrix.format != "csr":
            matrix = sparse.csr_matrix(matrix)
        return FactorizationHandle(
            self, matrix, pattern_token, self._factorization_for(matrix, pattern_token)
        )

    def solve_with(self, handle, rhs, trans="N"):
        # Both kernels solve A^T x = b from the *forward* decomposition
        # (``trans='T'``), so the adjoint after a forward solve of the same
        # matrix -- the optimizer's hot path -- costs one triangular solve.
        rhs = np.asarray(rhs)
        uses = 1 if rhs.ndim == 1 else rhs.shape[1]
        if uses:
            with self._lock:
                self.n_factorization_reuses += uses if handle.used else uses - 1
            handle.used = True
        return handle.factor.solve(rhs, trans)

    def reset(self):
        with self._lock:
            self._factorizations.clear()
            self._plans.clear()
            self.n_factorizations = 0
            self.n_factorization_reuses = 0
            self.n_content_hashes = 0

    def stats(self):
        """Counters, plus the kernel mix and fill of the cached factors.

        ``cached_fill`` sums each cached factor's stored entries: the band
        storage of a banded LU, SuperLU's own ``nnz`` of its factors.
        """
        with self._lock:
            stats = {
                "n_factorizations": self.n_factorizations,
                "n_factorization_reuses": self.n_factorization_reuses,
                "n_content_hashes": self.n_content_hashes,
            }
        factors = self._factorizations.values()
        stats["cached_factorizations"] = len(factors)
        n_banded = sum(isinstance(factor, _BandedLU) for factor in factors)
        stats["cached_banded"] = n_banded
        stats["cached_superlu"] = len(factors) - n_banded
        stats["cached_fill"] = sum(int(factor.nnz) for factor in factors)
        return stats


class AutoBackend(_HandleBackend):
    """The default: hands out ``sparse-lu`` handles at every size.

    ``sparse-lu``'s banded kernel beats the dense solve even on the
    smallest cavity systems (120 unknowns), so it needs no size cutoff.
    """

    name = "auto"

    def solver_for(self, matrix, pattern_token=None):
        return get_backend("sparse-lu").solver_for(matrix, pattern_token)

    def solve_with(self, handle, rhs, trans="N"):
        return handle.backend.solve_with(handle, rhs, trans)


_REGISTRY = Registry(
    "solver backend",
    {
        backend.name: backend
        for backend in (DenseBackend(), SparseLUBackend(), AutoBackend())
    },
    sort=True,
)


def register_backend(backend: SolverBackend, overwrite: bool = False) -> SolverBackend:
    """Register a backend instance under its ``name`` (and return it)."""
    if not hasattr(backend, "solve"):
        raise TypeError("backend must implement solve(matrix, rhs, pattern_token)")
    return _REGISTRY.register(getattr(backend, "name", None), backend, overwrite)


def get_backend(name: str) -> SolverBackend:
    """Look up a backend by registry name (``ValueError`` when unknown)."""
    return _REGISTRY.lookup(name)


def available_backends() -> tuple:
    """Sorted names of every registered backend."""
    return tuple(_REGISTRY.names())


def resolve_backend(
    backend: Union[None, str, SolverBackend]
) -> SolverBackend:
    """Normalize a backend specification (None / name / instance)."""
    if backend is None:
        return get_backend(DEFAULT_BACKEND)
    if isinstance(backend, str):
        return get_backend(backend)
    if hasattr(backend, "solve"):
        return backend
    raise TypeError(
        "backend must be None, a registered backend name, or an object "
        "with a solve(matrix, rhs, pattern_token) method"
    )


def solver_for(
    backend, matrix: sparse.spmatrix, pattern_token: Optional[tuple] = None
) -> FactorizationHandle:
    """Acquire a :class:`FactorizationHandle` from any resolved backend.

    :class:`SolverBackend` instances hand out their own handles; duck-typed
    backends that only expose ``solve`` get one that forwards every solve
    to it (transposed solves go through the materialized transpose).
    """
    if isinstance(backend, SolverBackend):
        return backend.solver_for(matrix, pattern_token)
    return _ForwardingHandle(backend, matrix, pattern_token)
