"""Bit-identical equivalence of the vectorized ICE assembly and its oracle.

The vectorized finite-volume assembly (NumPy triplet construction over the
cached :class:`~repro.core.linear_system.SparsityFold`) must reproduce the
triple-loop oracle of ``tests/oracles/ice_assembly.py`` *exactly* -- same
matrix coefficients bit for bit, same right-hand side, same capacitances --
across every stack class the solver supports: solid-only stacks, the
single-cavity strip and 2D two-die stacks, modulated and per-channel width
profiles, and the 4-die / 3-cavity Niagara stackings.  A transient run must
likewise produce identical histories.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import ice_assembly as oracle
from repro.floorplan import get_architecture
from repro.ice import (
    LayerStack,
    SolidLayer,
    SteadyStateSolver,
    TransientSolver,
    assemble_system,
    multi_die_stack_from_architecture,
    multi_die_stack_from_maps,
    two_die_stack_from_architecture,
    two_die_stack_from_maps,
)
from repro.ice.solver import _cavity_row_widths
from repro.core.linear_system import clear_pattern_cache, pattern_cache_info
from repro.ice.transient import result_from_snapshots
from repro.thermal.backends import SparseLUBackend
from repro.thermal.geometry import WidthProfile
from repro.thermal.properties import SILICON, TABLE_I


def _canonical(matrix):
    """Canonical CSR form (sorted indices, duplicates folded)."""
    matrix = matrix.tocsr()
    matrix.sum_duplicates()
    matrix.sort_indices()
    return matrix


def assert_bit_identical(stack, label):
    """The vectorized system must equal the loop system exactly."""
    vectorized = assemble_system(stack)
    matrix, rhs, capacitances = oracle.assemble_system_loop(stack)
    a = _canonical(vectorized.matrix)
    b = _canonical(matrix)
    assert np.array_equal(a.indptr, b.indptr), f"{label}: indptr differs"
    assert np.array_equal(a.indices, b.indices), f"{label}: sparsity differs"
    assert np.array_equal(a.data, b.data), f"{label}: coefficients differ"
    assert np.array_equal(vectorized.rhs, rhs), f"{label}: rhs differs"
    assert np.array_equal(
        vectorized.capacitances, capacitances
    ), f"{label}: capacitances differ"


def _strip_stack(width_profile=None, n_cols=24):
    return two_die_stack_from_maps(
        50.0,
        50.0,
        die_length=0.01,
        die_width=0.001,
        n_cols=n_cols,
        n_rows=1,
        width_profile=width_profile,
    )


class TestBitIdenticalAssembly:
    def test_solid_only_stack(self):
        layers = [
            SolidLayer(f"solid_{index}", SILICON, 50e-6, heat_source=25.0 * index)
            for index in range(3)
        ]
        stack = LayerStack(0.01, 0.002, layers=layers, n_cols=9, n_rows=5)
        assert_bit_identical(stack, "solid-only")

    def test_single_cavity_strip(self):
        assert_bit_identical(_strip_stack(), "single-cavity strip")

    def test_single_cavity_2d_patterned_flux(self):
        flux = np.arange(120.0).reshape(10, 12) + 10.0
        stack = two_die_stack_from_maps(
            flux,
            flux[::-1],
            die_length=0.01,
            die_width=0.004,
            n_cols=12,
            n_rows=10,
        )
        assert_bit_identical(stack, "two-die 2D")

    def test_modulated_width_profile(self):
        narrowing = WidthProfile.from_function(
            lambda z: 50e-6 - 3.8e-3 * z, 0.01
        )
        assert_bit_identical(_strip_stack(narrowing), "modulated width")

    def test_per_channel_width_profiles(self):
        profiles = [
            WidthProfile.uniform(20e-6 + 5e-6 * (channel % 4), 0.01)
            for channel in range(10)
        ]
        stack = two_die_stack_from_maps(
            80.0,
            40.0,
            die_length=0.01,
            die_width=0.001,
            n_cols=16,
            n_rows=4,
            width_profile=profiles,
        )
        assert_bit_identical(stack, "per-channel widths")

    def test_four_die_three_cavity_niagara(self):
        stack = multi_die_stack_from_architecture(
            get_architecture("arch1"), n_dies=4, n_cols=14, n_rows=14
        )
        assert stack.n_layers == 7
        assert len(stack.cavity_layer_names()) == 3
        assert_bit_identical(stack, "4-die/3-cavity niagara")

    def test_multi_die_from_maps(self):
        stack = multi_die_stack_from_maps(
            [30.0, 90.0, 60.0, 120.0],
            die_length=0.01,
            die_width=0.003,
            n_cols=10,
            n_rows=6,
        )
        assert_bit_identical(stack, "4-die from maps")

    def test_multi_die_requires_two_dies(self):
        with pytest.raises(ValueError):
            multi_die_stack_from_maps([50.0], die_length=0.01, die_width=0.001)


def assert_row_widths_identical(stack):
    cavity = stack.layers[1]
    assert cavity.is_cavity
    x_centers = stack.x_centers()
    widths, per_row = _cavity_row_widths(stack, cavity, x_centers)
    expected_widths, expected_per_row = oracle.cavity_row_widths(
        stack, cavity, x_centers
    )
    np.testing.assert_array_equal(widths, expected_widths)
    assert per_row == expected_per_row


def _channel_profiles(n_channels, length):
    """A distinct three-segment width profile for every physical channel."""
    return [
        WidthProfile.piecewise_constant(
            [20e-6 + 1e-6 * (channel % 7), 50e-6 - 3e-6 * (channel % 5), 35e-6],
            length,
        )
        for channel in range(n_channels)
    ]


class TestCavityRowWidths:
    """Channel-to-row grouping equals the per-channel loop bit for bit."""

    @pytest.mark.parametrize("grid", [(44, 44), (20, 22), (161, 55)])
    @pytest.mark.parametrize("per_channel", [False, True])
    @pytest.mark.parametrize("name", ["arch1", "arch2", "arch3"])
    def test_architecture_stacks(self, name, per_channel, grid):
        architecture = get_architecture(name)
        profile = None
        if per_channel:
            n_channels = int(round(architecture.die_width / TABLE_I.channel_pitch))
            profile = _channel_profiles(n_channels, architecture.die_length)
        stack = two_die_stack_from_architecture(
            architecture, n_cols=grid[0], n_rows=grid[1], width_profile=profile
        )
        assert_row_widths_identical(stack)

    @pytest.mark.parametrize("n_channels", [1, 7, 30])
    def test_die_narrower_than_its_row_count(self, n_channels):
        # Fewer channels than rows: some rows get no channel at all.
        stack = two_die_stack_from_maps(
            60.0,
            30.0,
            die_length=0.01,
            die_width=n_channels * TABLE_I.channel_pitch,
            n_cols=9,
            n_rows=40,
            width_profile=_channel_profiles(n_channels, 0.01),
        )
        assert_row_widths_identical(stack)


class TestStackPatternCache:
    def test_pattern_reused_across_same_shape(self):
        clear_pattern_cache()
        first = assemble_system(_strip_stack())
        modulated = assemble_system(
            _strip_stack(WidthProfile.uniform(TABLE_I.min_channel_width, 0.01))
        )
        assert first.pattern is modulated.pattern
        assert pattern_cache_info()["size"] == 1

    def test_distinct_shapes_get_distinct_patterns(self):
        clear_pattern_cache()
        a = assemble_system(_strip_stack(n_cols=24))
        b = assemble_system(_strip_stack(n_cols=32))
        assert a.pattern_token != b.pattern_token
        assert pattern_cache_info()["size"] == 2

    def test_matrix_structure_is_static_across_designs(self):
        first = assemble_system(_strip_stack()).matrix
        second = assemble_system(
            _strip_stack(WidthProfile.uniform(TABLE_I.min_channel_width, 0.01))
        ).matrix
        np.testing.assert_array_equal(first.indices, second.indices)
        np.testing.assert_array_equal(first.indptr, second.indptr)
        assert np.any(first.data != second.data)


class TestSolverEquivalence:
    def test_steady_solutions_identical(self):
        stack = _strip_stack(n_cols=20)
        backend = SparseLUBackend()
        solver = SteadyStateSolver(stack, backend=backend)
        vectorized = solver.solve()
        matrix, rhs, _ = oracle.assemble_system_loop(stack)
        layer_maps, _ = solver.system.split_solution(backend.solve(matrix, rhs))
        for name in vectorized.layer_names():
            np.testing.assert_array_equal(vectorized.layer(name), layer_maps[name])
        # The two assemblies are factorized independently (the oracle
        # carries no pattern token), yet bit-identical matrices make even
        # the factorized solves agree exactly.
        assert backend.stats()["n_factorizations"] == 2

    def test_transient_histories_identical(self):
        stack = _strip_stack(n_cols=16)
        backend = SparseLUBackend()
        solver = TransientSolver(stack, backend=backend)
        vectorized = solver.run(duration=0.05, time_step=0.005)
        matrix, rhs, capacitances = oracle.assemble_system_loop(stack)
        states = oracle.backward_euler_states(
            matrix,
            rhs,
            capacitances,
            np.full(matrix.shape[0], stack.ambient_temperature),
            time_step=0.005,
            n_steps=10,
            backend=backend,
        )
        loop = result_from_snapshots(
            solver.system, stack, 0.005 * np.arange(11), states, metadata={}
        )
        assert set(vectorized.layer_histories) == set(loop.layer_histories)
        np.testing.assert_array_equal(vectorized.times, loop.times)
        for name, history in vectorized.layer_histories.items():
            np.testing.assert_array_equal(history, loop.layer_histories[name])


class TestBackendRouting:
    def test_repeated_solves_reuse_factorization(self):
        stack = _strip_stack(n_cols=20)
        backend = SparseLUBackend()
        solver = SteadyStateSolver(stack, backend=backend)
        solver.solve()
        solver.solve()
        stats = backend.stats()
        assert stats["n_factorizations"] == 1
        assert stats["n_factorization_reuses"] >= 1

    def test_backend_name_in_metadata(self):
        result = SteadyStateSolver(_strip_stack(), backend="sparse-lu").solve()
        assert result.metadata["backend"] == "sparse-lu"

    def test_residual_is_opt_in(self):
        solver = SteadyStateSolver(_strip_stack())
        with_residual = solver.solve()
        without = solver.solve(compute_residual=False)
        assert "residual_norm" in with_residual.metadata
        assert "residual_norm" not in without.metadata
        assert with_residual.metadata["residual_norm"] < 1e-6

    def test_dense_backend_matches_sparse_lu(self):
        stack = two_die_stack_from_maps(
            np.linspace(20.0, 150.0, 10 * 16).reshape(10, 16),
            60.0,
            die_length=0.01,
            die_width=0.004,
            n_cols=16,
            n_rows=10,
        )
        direct = SteadyStateSolver(stack, backend="sparse-lu").solve()
        dense = SteadyStateSolver(stack, backend="dense").solve()
        for name in direct.layer_names():
            np.testing.assert_allclose(
                dense.layer(name), direct.layer(name), rtol=0.0, atol=1e-8
            )
