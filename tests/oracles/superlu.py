"""Default-ordering SuperLU solve: the oracle of the direct-solve kernels.

:class:`repro.thermal.backends.SparseLUBackend` factorizes narrow
structures with LAPACK's banded LU after a reverse Cuthill--McKee
ordering, and wide ones with SuperLU under an ``A + A^T`` minimum-degree
ordering.  This is the plain ``splu(A.tocsc())`` solve (COLAMD ordering,
SciPy's defaults) that both must agree with to round-off.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import splu

__all__ = ["factorize", "solve"]


def factorize(matrix):
    """SuperLU factor of ``matrix`` under SciPy's default (COLAMD) ordering."""
    return splu(matrix.tocsc())


def solve(matrix, rhs, trans: str = "N") -> np.ndarray:
    """Solve ``A x = rhs`` (``trans="T"``: ``A^T x = rhs``); ``rhs`` may be ``(n, k)``."""
    return factorize(matrix).solve(np.asarray(rhs, dtype=float), trans=trans)
