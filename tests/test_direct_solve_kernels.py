"""The structure-aware direct-solve kernels of the ``sparse-lu`` backend.

:class:`~repro.thermal.backends.SparseLUBackend` computes one plan per
sparsity structure: a reverse Cuthill--McKee ordering and its bandwidth.
Narrow structures factorize with LAPACK's banded LU, wide ones with
SuperLU under an ``A + A^T`` minimum-degree ordering.  These tests pin:

* agreement with the default-ordering SuperLU oracle
  (``tests/oracles/superlu.py``) to 1e-10 relative -- forward, transpose
  and ``(n, k)`` blocks -- on every registered scenario's FDM system, ICE
  stack and implicit transient matrix, and across a derandomized
  Hypothesis suite of width profiles, lane counts and flow directions;
* which kernel each family gets;
* that the kernel depends on the structure alone: a tokened matrix and a
  token-less copy solve bit for bit alike;
* that a singular matrix raises on either kernel instead of returning
  inf/NaN;
* that an ``(n, k)`` block solved in one kernel call matches per-column
  solves within ``rtol=1e-12`` on both kernels, whatever the block's
  memory layout.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from oracles import superlu as oracle
from repro.ice import TransientSolver
from repro.ice import assemble_system as assemble_stack
from repro.scenarios import get_scenario, scenario_names
from repro.thermal import assembly
from repro.thermal.backends import SparseLUBackend
from repro.thermal.geometry import HeatInputProfile, MultiChannelStructure, WidthProfile
from repro.thermal.multichannel import build_cavity
from repro.thermal.properties import TABLE_I

RTOL = 1e-10


def _fdm_system(spec):
    structure = spec.build_structure()
    if not isinstance(structure, MultiChannelStructure):
        structure = MultiChannelStructure.single(structure)
    system = assembly.assemble_system(structure, n_points=spec.grid.n_grid_points)
    return system.matrix, system.rhs, system.pattern_token


def _ice_system(spec):
    system = assemble_stack(spec.build_stack())
    return system.matrix, system.rhs, system.pattern_token


def _implicit_system(spec):
    solver = TransientSolver(spec.build_stack())
    implicit, _, token = solver.implicit_system(spec.transient.time_step_s)
    rhs = np.asarray(implicit.sum(axis=1)).ravel()
    return implicit, rhs, token


def _cases():
    cases = []
    for name in scenario_names():
        spec = get_scenario(name)
        if spec.transient is None:
            cases.append(pytest.param(name, _fdm_system, id=f"{name}-fdm"))
        cases.append(pytest.param(name, _ice_system, id=f"{name}-ice"))
        if spec.transient is not None:
            cases.append(pytest.param(name, _implicit_system, id=f"{name}-implicit"))
    return cases


def assert_close(actual, expected, label):
    scale = np.max(np.abs(expected))
    error = np.max(np.abs(actual - expected))
    assert error <= RTOL * scale, f"{label}: relative error {error / scale:.2e}"


def assert_matches_oracle(matrix, rhs, token):
    backend = SparseLUBackend()
    rng = np.random.default_rng(7)
    block = rng.standard_normal((matrix.shape[0], 3))
    assert_close(backend.solve(matrix, rhs, token), oracle.solve(matrix, rhs), "forward")
    assert_close(
        backend.solver_for(matrix, token).solve(block[:, 0], "T"),
        oracle.solve(matrix, block[:, 0], "T"),
        "transpose",
    )
    handle = backend.solver_for(matrix, token)
    assert_close(handle.solve(block), oracle.solve(matrix, block), "block")
    assert_close(handle.solve(block, "T"), oracle.solve(matrix, block, "T"), "block^T")
    return backend


class TestOracleAgreement:
    @pytest.mark.parametrize("name, build", _cases())
    def test_registered_systems_match_default_superlu(self, name, build):
        assert_matches_oracle(*build(get_scenario(name)))

    def test_each_family_gets_its_kernel(self):
        def kernel(matrix, token):
            backend = SparseLUBackend()
            backend.solver_for(matrix, token)
            stats = backend.stats()
            return "banded" if stats["cached_banded"] else "superlu"

        # FDM cavities (one or five lanes) and the single-row ICE strip are
        # narrow after the ordering; the 44 x 44 ICE grids are wide.
        for name in ("test-a", "niagara-arch1"):
            matrix, _, token = _fdm_system(get_scenario(name))
            assert kernel(matrix, token) == "banded", name
        strip, _, token = _ice_system(get_scenario("test-a"))
        assert kernel(strip, token) == "banded"
        grid, _, token = _ice_system(get_scenario("niagara-arch1"))
        assert kernel(grid, token) == "superlu"


@st.composite
def cavities(draw):
    length = TABLE_I.channel_length
    n_lanes = draw(st.integers(min_value=1, max_value=6))
    n_segments = draw(st.integers(min_value=1, max_value=5))
    width = st.floats(
        min_value=TABLE_I.min_channel_width, max_value=TABLE_I.max_channel_width
    )
    profiles = [
        WidthProfile.piecewise_constant(
            draw(st.lists(width, min_size=n_segments, max_size=n_segments)),
            length,
        )
        for _ in range(n_lanes)
    ]
    reversed_flags = draw(st.lists(st.booleans(), min_size=n_lanes, max_size=n_lanes))
    n_points = draw(st.integers(min_value=5, max_value=80))
    return profiles, reversed_flags, n_points


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cavities())
def test_random_cavities_match_default_superlu(geometry, params, case):
    profiles, reversed_flags, n_points = case
    heat = [
        HeatInputProfile.from_areal_flux(40.0 + 20.0 * j, geometry.pitch, geometry.length)
        for j in range(len(profiles))
    ]
    cavity = build_cavity(
        geometry,
        heat,
        heat,
        profiles,
        flow_rate=params.flow_rate_per_channel,
        inlet_temperature=params.inlet_temperature,
    )
    lanes = tuple(
        lane.with_flow_reversed(flag) for lane, flag in zip(cavity.lanes, reversed_flags)
    )
    system = assembly.assemble_system(replace(cavity, lanes=lanes), n_points=n_points)
    backend = assert_matches_oracle(system.matrix, system.rhs, system.pattern_token)
    assert backend.stats()["cached_banded"] == 1


def _copy(matrix):
    return sparse.csr_matrix(
        (matrix.data.copy(), matrix.indices.copy(), matrix.indptr.copy()),
        shape=matrix.shape,
    )


class TestStructureOnlyKernelChoice:
    @pytest.mark.parametrize("build", [_fdm_system, _ice_system], ids=["narrow", "wide"])
    def test_tokened_and_tokenless_copies_solve_bit_identically(self, build):
        matrix, rhs, token = build(get_scenario("niagara-arch1"))
        backend = SparseLUBackend()
        for trans in ("N", "T"):
            tokened = backend.solver_for(matrix, token).solve(rhs, trans)
            tokenless = backend.solver_for(_copy(matrix)).solve(rhs, trans)
            np.testing.assert_array_equal(tokened, tokenless)
        # Keyed apart, factorized apart: the match is not a cache hit.
        assert backend.stats()["n_factorizations"] == 2


def _split_diagonal(matrix):
    """``matrix`` with each diagonal entry stored twice, as two halves."""
    coo = matrix.tocoo()
    diagonal = coo.row == coo.col
    rows = np.concatenate([coo.row, coo.row[diagonal]])
    cols = np.concatenate([coo.col, coo.col[diagonal]])
    data = np.concatenate(
        [np.where(diagonal, 0.5 * coo.data, coo.data), 0.5 * coo.data[diagonal]]
    )
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(matrix.shape[0] + 1))
    return sparse.csr_matrix((data[order], cols[order], indptr), shape=matrix.shape)


def test_duplicate_entries_are_summed_into_the_band():
    matrix, rhs, _ = _fdm_system(get_scenario("niagara-arch1"))
    duplicated = _split_diagonal(matrix)
    assert duplicated.nnz == matrix.nnz + matrix.shape[0]
    backend = SparseLUBackend()
    np.testing.assert_array_equal(backend.solve(duplicated, rhs), backend.solve(matrix, rhs))
    assert backend.stats()["cached_banded"] == 2


class TestSingularMatrices:
    @pytest.mark.parametrize("build", [_fdm_system, _ice_system], ids=["narrow", "wide"])
    def test_all_zero_row_raises(self, build):
        matrix, rhs, _ = build(get_scenario("niagara-arch1"))
        singular = _copy(matrix)
        row = matrix.shape[0] // 2
        singular.data[singular.indptr[row] : singular.indptr[row + 1]] = 0.0
        with pytest.raises(RuntimeError, match="singular"):
            SparseLUBackend().solve(singular, rhs)


BLOCK_RTOL = 1e-12


@pytest.fixture(scope="module")
def kernel_handles():
    """A sparse-lu handle on a narrow (banded) and a wide (SuperLU) system."""
    handles = {}
    for kernel, build in (("banded", _fdm_system), ("superlu", _ice_system)):
        matrix, _, token = build(get_scenario("niagara-arch1"))
        backend = SparseLUBackend()
        handles[kernel] = backend.solver_for(matrix, token)
        assert backend.stats()[f"cached_{kernel}"] == 1
    return handles


def _laid_out(block, layout):
    if layout == "C":
        return np.ascontiguousarray(block)
    if layout == "F":
        return np.asfortranarray(block)
    # Strided: every other row and column of a larger array.
    n, k = block.shape
    host = np.zeros((2 * n, 2 * k))
    host[::2, ::2] = block
    return host[::2, ::2]


class TestBlockSolves:
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("trans", ["N", "T"])
    @pytest.mark.parametrize("kernel", ["banded", "superlu"])
    def test_block_matches_per_column_solves(self, kernel_handles, kernel, trans, k, layout):
        handle = kernel_handles[kernel]
        n = handle.matrix.shape[0]
        block = _laid_out(np.random.default_rng(k).standard_normal((n, k)), layout)
        solved = handle.solve(block, trans)
        assert solved.shape == (n, k)
        for column in range(k):
            np.testing.assert_allclose(
                solved[:, column],
                handle.solve(np.ascontiguousarray(block[:, column]), trans),
                rtol=BLOCK_RTOL,
                atol=0.0,
            )
