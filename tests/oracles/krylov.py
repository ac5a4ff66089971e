"""Per-vector block-Arnoldi basis: the oracle of the block Krylov build.

:func:`repro.core.rom.build_reduced_model` solves each Arnoldi block in
one ``(n, k)`` call and orthonormalizes it with block Gram-Schmidt.  This
is the one-vector-at-a-time recurrence it replaced: every seed and every
propagated vector is solved alone and orthonormalized by two passes of
modified Gram-Schmidt against all columns so far, with the same
deflation test.  When no direction deflates in the last block, both
build the same sequence of columns, so they agree to round-off.
"""

from __future__ import annotations

import numpy as np

__all__ = ["krylov_basis"]

DEFLATION_FLOOR = 1e-13


def krylov_basis(
    implicit, c_over_dt, solve, base_rhs, input_directions, *, order, tolerance
) -> np.ndarray:
    """The ``(n, r)`` basis, ``solve`` taking ``(n, k)`` blocks as the build's does."""
    n = int(implicit.shape[0])
    order = max(1, min(int(order), n))
    columns = []

    def orthonormalize_into(vector):
        norm0 = float(np.linalg.norm(vector))
        if norm0 == 0.0 or not np.isfinite(norm0):
            return None
        vector = vector / norm0
        for _ in range(2):
            for column in columns:
                vector = vector - column * float(column @ vector)
        norm = float(np.linalg.norm(vector))
        if norm <= max(tolerance, DEFLATION_FLOOR):
            return None
        columns.append(vector / norm)
        return columns[-1]

    def solve_vector(rhs):
        return solve(rhs[:, np.newaxis])[:, 0]

    seeds = [np.ones(n)]
    for direction in (base_rhs, *input_directions):
        direction = np.asarray(direction, dtype=float)
        if float(np.linalg.norm(direction)) != 0.0:
            seeds.append(solve_vector(direction))

    block = []
    for seed in seeds:
        kept = orthonormalize_into(seed)
        if kept is not None:
            block.append(kept)
        if len(columns) >= order:
            break

    while len(columns) < order and block:
        next_block = []
        for vector in block:
            kept = orthonormalize_into(solve_vector(c_over_dt @ vector))
            if kept is not None:
                next_block.append(kept)
            if len(columns) >= order:
                break
        block = next_block
    return np.column_stack(columns)
