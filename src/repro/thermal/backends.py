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
A backend is a :class:`SolverBackend` that hands out
:class:`FactorizationHandle` objects, and every solve goes through one.
:meth:`SolverBackend.solver_for` acquires a handle for one fixed matrix
(one content lookup, which factorizes on a miss), and
:meth:`FactorizationHandle.solve` then solves ``A x = b``
(``trans="N"``) or ``A^T x = b`` (``trans="T"``) through it, a bare
triangular solve that never re-hashes the matrix.  A handle solves a
vector or an ``(n, k)`` block; the registered backends hand a block to
their kernel (SuperLU, ``gbtrs``, ``np.linalg.solve``) in one multi-RHS
call, so its columns agree with the single-RHS solves to rounding
(``rtol=1e-12``), not bit for bit, while a single vector solves exactly as
``solve`` does.  ``solve`` itself acquires a handle for the one call, so
there is a single lookup path.  Handles are meant to live for one unit of
work -- a backward-Euler control chunk, a Krylov ROM build, a forward
solve and its adjoint -- and the backend's bounded LRU stays the only
long-lived owner of factorizations.

Custom backends subclass :class:`SolverBackend` and register with
:func:`register_backend`.  One that only overrides ``solve(matrix, rhs,
pattern_token=None)`` gets the base class's handles, which forward each
solve to it one block column at a time (a transposed solve goes through
the materialized transpose); direct backends override
:meth:`SolverBackend.solver_for` and :meth:`SolverBackend.solve_with`.
"""

from __future__ import annotations

import hashlib
import threading
from functools import partial
from typing import Dict, Optional, Union

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
]

#: Name of the backend used when callers do not specify one.
DEFAULT_BACKEND = "auto"


class FactorizationHandle:
    """One fixed matrix, looked up once, ready for repeated solves.

    Acquire handles with :meth:`SolverBackend.solver_for`.  ``factor`` is
    whatever the owning backend prepared -- a SuperLU object, a dense
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


class SolverBackend:
    """Interface of a linear-solver backend: it hands out factorization handles.

    ``pattern_token`` (when provided by the assembly layer) identifies the
    static sparsity structure of the matrix so backends can cache
    factorizations cheaply.  A backend that solves one system at a time
    overrides only :meth:`solve`; the default :meth:`solver_for` and
    :meth:`solve_with` then forward every handle solve to it.  Backends
    that prepare a matrix once for many solves override those two instead.
    """

    #: Registry name of the backend.
    name: str = "abstract"

    def solve(
        self,
        matrix: sparse.spmatrix,
        rhs: np.ndarray,
        pattern_token: Optional[tuple] = None,
    ) -> np.ndarray:
        """Solve ``A x = rhs`` for one right-hand-side vector."""
        raise NotImplementedError

    def solver_for(
        self, matrix: sparse.spmatrix, pattern_token: Optional[tuple] = None
    ) -> FactorizationHandle:
        """Acquire a :class:`FactorizationHandle` for repeated solves of ``matrix``."""
        return FactorizationHandle(self, matrix, pattern_token)

    def solve_with(
        self, handle: FactorizationHandle, rhs: np.ndarray, trans: str = "N"
    ) -> np.ndarray:
        """Solve through a handle this backend handed out (see :class:`FactorizationHandle`).

        The default forwards to :meth:`solve`, one block column at a time.
        A transposed solve materializes ``A^T`` and wraps the pattern token
        so the transpose never collides with ``A`` in structure-keyed caches.
        """
        matrix, token = handle.matrix, handle.pattern_token
        if trans == "T":
            matrix = matrix.T.tocsr()
            token = None if token is None else ("transpose", token)
        rhs = np.asarray(rhs)
        if rhs.ndim == 1:
            return self.solve(matrix, rhs, token)
        columns = [self.solve(matrix, rhs[:, j], token) for j in range(rhs.shape[1])]
        return np.column_stack(columns) if columns else np.empty(rhs.shape)

    def reset(self) -> None:
        """Drop any cached state (factorizations, counters)."""

    def stats(self) -> Dict[str, object]:
        """Backend-specific counters (empty by default)."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} name={self.name!r}>"


class _HandleBackend(SolverBackend):
    """A backend whose :meth:`solve` goes through a handle for the one call."""

    def solve(self, matrix, rhs, pattern_token=None):
        return self.solver_for(matrix, pattern_token).solve(rhs)


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


_REGISTRY = Registry(
    "solver backend",
    {
        backend.name: backend
        for backend in (DenseBackend(), SparseLUBackend(), AutoBackend())
    },
    sort=True,
)


def _require_backend(backend) -> SolverBackend:
    if not isinstance(backend, SolverBackend):
        raise TypeError(
            f"backend must be a SolverBackend instance, got {type(backend).__name__}"
        )
    return backend


def register_backend(backend: SolverBackend, overwrite: bool = False) -> SolverBackend:
    """Register a backend instance under its ``name`` (and return it)."""
    return _REGISTRY.register(_require_backend(backend).name, backend, overwrite)


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
    return _require_backend(backend)
