"""Bit-identical equivalence of the vectorized ICE assembly and its oracle.

The vectorized finite-volume assembly (NumPy triplet construction over the
cached :class:`~repro.core.linear_system.SparsityFold`) must reproduce the
triple-loop oracle of ``tests/oracles/ice_assembly.py`` *exactly* -- same
matrix coefficients bit for bit, same right-hand side, same capacitances --
across every stack class the solver supports: solid-only stacks, the
single-cavity strip and 2D two-die stacks, modulated and per-channel width
profiles, and the 4-die / 3-cavity Niagara stackings.  A transient run must
likewise produce identical histories.

Every system is a cached flow-free base of its stack geometry plus a
flow/power write, so the flow-refresh tests assemble the registered stacks
at several flows in shuffled order over bases seeded at another flow, and
check which stack changes share a base and which build their own.  A
system moved to another flow by ``at_flow`` must equal a fresh assembly at
that flow, and so must its affine flow split.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading

import numpy as np
import pytest

from oracles import ice_assembly as oracle
from repro.floorplan import get_architecture
from repro.ice import (
    AssembledSystem,
    LayerStack,
    SolidLayer,
    SteadyStateSolver,
    TransientSolver,
    assemble_system,
    base_cache_info,
    clear_base_cache,
    multi_die_stack_from_architecture,
    multi_die_stack_from_maps,
    two_die_stack_from_architecture,
    two_die_stack_from_maps,
)
from repro.ice.solver import _cavity_row_widths
from repro.core.linear_system import clear_pattern_cache, pattern_cache_info
from repro.ice.transient import result_from_snapshots
from repro.scenarios import get_scenario
from repro.thermal.backends import SparseLUBackend
from repro.thermal.geometry import WidthProfile
from repro.thermal.properties import COPPER, SILICON, TABLE_I


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
        clear_base_cache()
        first = assemble_system(_strip_stack())
        modulated = assemble_system(
            _strip_stack(WidthProfile.uniform(TABLE_I.min_channel_width, 0.01))
        )
        assert first.pattern is modulated.pattern
        assert pattern_cache_info()["size"] == 1

    def test_distinct_shapes_get_distinct_patterns(self):
        clear_pattern_cache()
        clear_base_cache()
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


FLOW_SCALES = (0.5, 1.0, 2.0)


def _scenario_stack(name, scale, n_dies=2):
    """A registered scenario's stack at ``scale`` x its nominal flow.

    ``n_dies > 2`` stacks the scenario's architecture on a 14x14 grid.
    """
    spec = get_scenario(name)
    nominal = spec.experiment_config().params.flow_rate_per_channel
    spec = spec.with_params(flow_rate_per_channel=nominal * scale)
    if n_dies == 2:
        return spec.build_stack()
    return multi_die_stack_from_architecture(
        get_architecture(spec.workload.architecture),
        n_dies=n_dies,
        config=spec.experiment_config(),
        n_cols=14,
        n_rows=14,
    )


FLOW_STACKS = [
    ("test-a", 2),
    ("test-b", 2),
    ("niagara-arch1", 2),
    ("niagara-arch2", 2),
    ("niagara-arch3", 2),
    ("niagara-arch1", 4),
    ("niagara-arch2", 4),
    ("niagara-arch3", 4),
]


def _with_cavities(stack, **changes):
    """``stack`` with ``changes`` applied to every cavity layer."""
    layers = [
        dataclasses.replace(layer, **changes) if layer.is_cavity else layer
        for layer in stack.layers
    ]
    return dataclasses.replace(stack, layers=layers)


def _with_heat(stack, scale):
    """``stack`` with every heat source scaled by ``scale``."""
    grid = (stack.n_rows, stack.n_cols)
    layers = [
        layer
        if layer.is_cavity
        else dataclasses.replace(layer, heat_source=scale * layer.heat_map(*grid))
        for layer in stack.layers
    ]
    return dataclasses.replace(stack, layers=layers)


def _grid_stack():
    flux = np.linspace(20.0, 140.0, 6 * 9).reshape(6, 9)
    return two_die_stack_from_maps(
        flux, flux[::-1], die_length=0.01, die_width=0.002, n_cols=9, n_rows=6
    )


@pytest.fixture
def triplet_runs(monkeypatch):
    """Count the full triplet constructions (base builds) of a test."""
    runs = []
    original = AssembledSystem._triplets

    def counting(self):
        runs.append(self.stack)
        return original(self)

    monkeypatch.setattr(AssembledSystem, "_triplets", counting)
    clear_base_cache()
    return runs


class TestFlowRefresh:
    """Base-plus-write systems equal a fresh loop assembly at every flow."""

    def test_any_flow_in_any_order_over_seeded_bases(self, triplet_runs):
        for name, n_dies in FLOW_STACKS:
            assemble_system(_scenario_stack(name, 1.37, n_dies))
        n_bases = len(triplet_runs)
        misses = base_cache_info()["n_misses"]
        visits = [
            (name, n_dies, scale)
            for name, n_dies in FLOW_STACKS
            for scale in FLOW_SCALES
        ]
        random.Random(26).shuffle(visits)
        for name, n_dies, scale in visits:
            assert_bit_identical(
                _scenario_stack(name, scale, n_dies),
                f"{name} x{n_dies} dies at flow scale {scale}",
            )
        assert len(triplet_runs) == n_bases
        assert base_cache_info()["n_misses"] == misses

    def test_flow_inlet_and_power_share_one_base(self, triplet_runs):
        stack = _grid_stack()
        variants = [
            stack,
            _with_cavities(stack, flow_rate_per_channel=3.3e-9),
            _with_cavities(stack, inlet_temperature=310.0),
            _with_heat(stack, 0.25),
            _with_cavities(
                _with_heat(stack, 3.0),
                flow_rate_per_channel=2.0e-8,
                inlet_temperature=290.0,
            ),
        ]
        systems = [assemble_system(variant) for variant in variants]
        assert len(triplet_runs) == 1
        assert base_cache_info()["size"] == 1
        for system, variant in zip(systems, variants):
            assert system.pattern is systems[0].pattern
            assert system.capacitances is systems[0].capacitances
            assert_bit_identical(variant, "flow/power variant")
        assert not np.array_equal(systems[0].rhs, systems[2].rhs)
        assert np.any(systems[0].matrix.data != systems[1].matrix.data)

    def test_geometry_and_materials_get_their_own_base(self, triplet_runs):
        stack = _grid_stack()
        coolant = dataclasses.replace(
            TABLE_I.coolant,
            name="coolant-b",
            thermal_conductivity=0.45,
            volumetric_heat_capacity=3.1e6,
        )
        variants = {
            "base": stack,
            "coolant": _with_cavities(stack, coolant=coolant),
            "channel height": _with_cavities(stack, channel_height=75e-6),
            "pitch": _with_cavities(stack, channel_pitch=125e-6),
            "wall material": _with_cavities(stack, wall_material=COPPER),
            "width profile": _with_cavities(
                stack,
                width_profile=WidthProfile.piecewise_constant(
                    [50e-6, 30e-6, 15e-6], 0.01
                ),
            ),
            "per-channel profiles": _with_cavities(
                stack, width_profile=_channel_profiles(20, 0.01)
            ),
        }
        for label, variant in variants.items():
            assert_bit_identical(variant, label)
        assert len(triplet_runs) == len(variants)
        assert base_cache_info()["size"] == len(variants)
        for label, variant in variants.items():
            assert_bit_identical(variant, f"{label} (cached base)")
        assert len(triplet_runs) == len(variants)

    def test_callable_profiles_take_the_uncached_path(self, triplet_runs):
        narrowing = WidthProfile.from_function(lambda z: 50e-6 - 3.8e-3 * z, 0.01)
        stack = _with_cavities(_grid_stack(), width_profile=narrowing)
        for scale in FLOW_SCALES:
            assert_bit_identical(
                _with_cavities(stack, flow_rate_per_channel=scale * 1e-8),
                f"callable profile at flow scale {scale}",
            )
        assert len(triplet_runs) == len(FLOW_SCALES)
        assert base_cache_info()["size"] == 0

    def test_too_few_channels_raises_on_every_assembly(self, triplet_runs):
        stack = _with_cavities(_grid_stack(), channel_pitch=0.002 / 4)
        for _ in range(2):
            with pytest.raises(ValueError, match="4 channels across"):
                assemble_system(stack)
        assert base_cache_info()["size"] == 0

    def test_threads_share_bases_bit_identically(self):
        stacks = [
            _with_cavities(_with_heat(stack, heat), flow_rate_per_channel=flow)
            for stack in (_grid_stack(), _strip_stack())
            for heat in (0.5, 2.0)
            for flow in (4e-9, 1e-8, 2.5e-8)
        ]
        expected = [
            (system.matrix.data.copy(), system.rhs.copy())
            for system in map(assemble_system, stacks)
        ]
        clear_base_cache()
        failures = []

        def worker(offset):
            for turn in range(4 * len(stacks)):
                index = (offset + turn) % len(stacks)
                system = assemble_system(stacks[index])
                data, rhs = expected[index]
                if not (
                    np.array_equal(system.matrix.data, data)
                    and np.array_equal(system.rhs, rhs)
                ):
                    failures.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(offset,))
                for offset in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert base_cache_info()["size"] == 2

    def test_base_arrays_are_read_only(self):
        system = assemble_system(_grid_stack())
        with pytest.raises(ValueError):
            system.capacitances[0] = 0.0
        system.matrix.data[0] = 0.0  # each system owns its values
        assert assemble_system(_grid_stack()).matrix.data[0] != 0.0


class TestFlowSplit:
    """``fixed + s * advection`` and ``heat + s * inlet`` are the system at ``s`` x its flow."""

    @pytest.mark.parametrize(
        "name, n_dies",
        [("test-a", 2), ("niagara-arch1", 2), ("niagara-arch2", 4)],
    )
    def test_affine_split_reproduces_every_scaled_flow(self, name, n_dies):
        system = assemble_system(_scenario_stack(name, 1.0, n_dies))
        split = system.flow_split()
        for share in (split.fixed, split.advection):
            assert np.array_equal(share.indices, system.matrix.indices)
            assert np.array_equal(share.indptr, system.matrix.indptr)
        # Exact scales: a power-of-two flow factor scales every capacity
        # rate without rounding, so the split is bit for bit the system.
        for scale in FLOW_SCALES:
            scaled = assemble_system(_scenario_stack(name, scale, n_dies))
            assert np.array_equal(
                split.fixed.data + scale * split.advection.data, scaled.matrix.data
            ), f"{name} x{n_dies} matrix at flow scale {scale}"
            assert np.array_equal(
                split.heat + scale * split.inlet, scaled.rhs
            ), f"{name} x{n_dies} rhs at flow scale {scale}"
        for scale in (0.71, 1.43):
            scaled = assemble_system(_scenario_stack(name, scale, n_dies))
            np.testing.assert_allclose(
                split.fixed.data + scale * split.advection.data,
                scaled.matrix.data,
                rtol=1e-14,
                atol=0.0,
            )
            np.testing.assert_allclose(
                split.heat + scale * split.inlet, scaled.rhs, rtol=1e-14, atol=0.0
            )

    @pytest.mark.parametrize(
        "name, n_dies",
        [("test-a", 2), ("niagara-arch1", 2), ("niagara-arch2", 4)],
    )
    def test_at_flow_equals_a_fresh_scaled_assembly(self, name, n_dies):
        system = assemble_system(_scenario_stack(name, 1.0, n_dies))
        assert system.flow_factor == 1.0
        assert system.at_flow(1.0) is system
        for scale in FLOW_SCALES + (0.71, 1.43):
            moved = system.at_flow(scale)
            fresh = assemble_system(_scenario_stack(name, scale, n_dies))
            label = f"{name} x{n_dies} at flow scale {scale}"
            assert moved.flow_factor == scale
            assert moved.at_flow(scale) is moved
            assert moved.pattern is system.pattern
            assert moved.pattern_token is system.pattern_token
            assert moved.capacitances is system.capacitances
            assert np.array_equal(moved.matrix.indices, fresh.matrix.indices)
            assert np.array_equal(moved.matrix.indptr, fresh.matrix.indptr)
            moved_split, fresh_split = moved.flow_split(), fresh.flow_split()
            pairs = [
                (moved.matrix.data, fresh.matrix.data),
                (moved.rhs, fresh.rhs),
                (moved_split.fixed.data, fresh_split.fixed.data),
                (moved_split.advection.data, fresh_split.advection.data),
                (moved_split.heat, fresh_split.heat),
                (moved_split.inlet, fresh_split.inlet),
            ]
            for actual, expected in pairs:
                if scale in FLOW_SCALES:
                    # A power-of-two factor scales the capacity rate
                    # without rounding.
                    assert np.array_equal(actual, expected), label
                else:
                    np.testing.assert_allclose(
                        actual, expected, rtol=1e-14, atol=0.0, err_msg=label
                    )
        # The unit system is left untouched by the writes.
        again = assemble_system(_scenario_stack(name, 1.0, n_dies))
        assert np.array_equal(system.matrix.data, again.matrix.data)
        assert np.array_equal(system.rhs, again.rhs)

    def test_transient_solver_at_flow_shares_all_but_the_system(self):
        stack = _scenario_stack("niagara-arch1", 1.0)
        backend = SparseLUBackend()
        solver = TransientSolver(stack, backend=backend)
        solver.implicit_system(0.02)
        assert solver.at_flow(1.0) is solver
        moved = solver.at_flow(2.0)
        assert moved.system.flow_factor == 2.0
        assert moved.stack is solver.stack
        assert moved.backend is solver.backend
        assert moved.power_schedule is solver.power_schedule
        implicit, _, token = moved.implicit_system(0.02)
        fresh = TransientSolver(_scenario_stack("niagara-arch1", 2.0))
        fresh_implicit, _, fresh_token = fresh.implicit_system(0.02)
        assert token == fresh_token
        assert np.array_equal(implicit.data, fresh_implicit.data)
        assert solver.implicit_system(0.02)[0] is not implicit

    def test_shares_have_disjoint_support(self):
        system = assemble_system(_scenario_stack("niagara-arch1", 1.0))
        split = system.flow_split()
        assert np.all(split.inlet[split.heat != 0.0] == 0.0)
        assert np.count_nonzero(split.inlet) == system.stack.n_rows
        # The advection share is the only flow-dependent part: it vanishes
        # on every solid row.
        is_coolant = np.repeat(
            [layer.is_cavity for layer in system.stack.layers],
            system.n_cells_per_layer,
        )
        advection = split.advection.tocoo()
        assert np.all(is_coolant[advection.row[advection.data != 0.0]])


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
