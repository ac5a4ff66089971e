"""Shared machinery of the assembled linear thermal systems.

Both model families assemble their sparse systems the same way: emit raw
COO triplets in a deterministic order, fold duplicate coordinates into
canonical CSR slots once per problem *shape*, and refresh only the
coefficient values on every re-assembly.  This module owns that shared hot
path, extracted from :mod:`repro.thermal.assembly` (the finite-difference
cavity model) and :mod:`repro.ice.solver` (the finite-volume stack model):

:class:`SparsityFold`
    The canonical fold of a raw triplet stream: CSR index arrays, the
    scatter map from raw entry order to CSR data slots, and the raw
    row/column arrays themselves (kept because the adjoint machinery of
    :mod:`repro.core.adjoint` evaluates ``lambda^T (dA) u`` directly over
    raw entries without ever folding the perturbed matrix).

The per-shape patterns of both families live in one token-keyed
:class:`~repro.core.lru.BoundedLRU` (:func:`cached_pattern`): the FDM
cavity model caches its :class:`~repro.thermal.assembly.SparsityPattern`
under an ``("fdm", ...)`` token, the finite-volume stack model its
:class:`SparsityFold` under an ``("ice", ...)`` token.  Folding raw values
into CSR data is an in-order scatter-accumulate (``np.bincount`` with
weights), so a refresh is bit-identical to the unbuffered ``np.add.at``
reference.
"""

from __future__ import annotations

from typing import Callable, Hashable

import numpy as np
from scipy import sparse

from .lru import BoundedLRU

__all__ = [
    "SparsityFold",
    "cached_pattern",
    "clear_pattern_cache",
    "pattern_cache_info",
]

#: Shapes whose pattern is kept, over both model families.
_PATTERN_CACHE_SIZE = 96
_PATTERN_CACHE = BoundedLRU(_PATTERN_CACHE_SIZE)


def cached_pattern(token: Hashable, build: Callable[[], object]):
    """The pattern cached under ``token``, built by ``build()`` on a miss."""
    return _PATTERN_CACHE.get_or_build(token, build)[0]


def clear_pattern_cache() -> None:
    """Drop every cached sparsity pattern (used by tests and benchmarks)."""
    _PATTERN_CACHE.clear()


def pattern_cache_info() -> dict:
    """Size, capacity and hit/miss/eviction counts of the pattern cache."""
    return _PATTERN_CACHE.stats()


class SparsityFold:
    """Canonical CSR fold of a raw COO triplet stream for one shape.

    Folds duplicate coordinates once (lexsort by row, then column; first
    occurrence defines the slot) and keeps the scatter map from raw entry
    order to CSR data slots, so re-assembling a system for new parameter
    values is a single scatter-accumulate into a preallocated data array
    -- no sorting, no duplicate folding, and a bit-identical structure
    across refreshes (which the solver backends use to recognize repeated
    matrices and reuse factorizations).

    The raw ``rows``/``cols`` arrays are retained: the adjoint gradient
    path evaluates ``lambda^T (dA/dw) u = sum_e (dv_e/dw) lambda[row_e]
    u[col_e]`` directly over raw entries, which needs the coordinates in
    the emitters' entry order.
    """

    def __init__(
        self, rows: np.ndarray, cols: np.ndarray, n_unknowns: int
    ) -> None:
        rows = np.ascontiguousarray(rows, dtype=np.intp)
        cols = np.ascontiguousarray(cols, dtype=np.intp)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("rows and cols must be equal-length 1-D arrays")
        if rows.size == 0:
            raise ValueError("cannot fold an empty triplet stream")
        self.rows = rows
        self.cols = cols
        self.n_unknowns = int(n_unknowns)
        self.n_entries = int(rows.size)

        order = np.lexsort((cols, rows))
        sorted_rows = rows[order]
        sorted_cols = cols[order]
        first = np.empty(self.n_entries, dtype=bool)
        first[0] = True
        first[1:] = (sorted_rows[1:] != sorted_rows[:-1]) | (
            sorted_cols[1:] != sorted_cols[:-1]
        )
        slot_of_sorted = np.cumsum(first) - 1
        entry_to_slot = np.empty(self.n_entries, dtype=np.intp)
        entry_to_slot[order] = slot_of_sorted
        self.entry_to_slot = entry_to_slot
        unique_rows = sorted_rows[first]
        self.nnz = int(unique_rows.size)
        self.indices = sorted_cols[first].astype(np.int32, copy=True)
        self.indptr = np.searchsorted(
            unique_rows, np.arange(self.n_unknowns + 1)
        ).astype(np.int32, copy=True)

    def fold(self, values: np.ndarray) -> np.ndarray:
        """Fold raw COO values into the CSR data array.

        ``np.bincount`` accumulates each slot's raw values in raw entry
        order, bit for bit what an unbuffered ``np.add.at`` scatter gives.
        """
        values = np.asarray(values)
        if values.shape != (self.n_entries,):
            raise ValueError(
                f"expected {self.n_entries} coefficient values, "
                f"got {values.shape}"
            )
        return np.bincount(self.entry_to_slot, weights=values, minlength=self.nnz)

    def matrix(self, values: np.ndarray) -> sparse.csr_matrix:
        """Fold raw COO values into a CSR matrix with the static structure."""
        return sparse.csr_matrix(
            (self.fold(values), self.indices, self.indptr),
            shape=(self.n_unknowns, self.n_unknowns),
        )
