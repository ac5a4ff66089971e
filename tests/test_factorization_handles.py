"""Factorization handles: one lookup per matrix, bare solves after it.

A caller that solves one fixed matrix many times acquires a
:class:`~repro.thermal.backends.FactorizationHandle` once and solves
through it.  These tests pin the contract the transient tier relies on:

* handle solves (``trans`` N and T) of vectors are bit-identical to
  ``solve`` and to a fresh handle's solve on every registered backend,
  and block columns match them within ``rtol=1e-12`` (a block is one
  blocked kernel call);
* empty ``(n, 0)`` blocks solve to empty blocks on every backend and
  through forwarding handles;
* a backend that overrides only ``solve`` still runs the transient
  engine through the base class's forwarding handles;
* the factorization counters of full, reactive and reduced-order
  transients keep the values the per-step lookup path produced (a reactive
  reduced run builds one flow-parametric model, not one per scale, so it
  solves and hashes less), while the matrix is content-hashed once per ROM
  build and once per control chunk.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ice import TransientSolver, two_die_stack_from_maps
from repro.config import DEFAULT_EXPERIMENT
from repro.thermal import assembly, backends
from repro.thermal.backends import SolverBackend, SparseLUBackend
from repro.thermal.geometry import HeatInputProfile
from repro.thermal.multichannel import build_cavity
from repro.transient import PolicySpec, RomSpec
from repro.transient_engine import simulate_transient
from test_rom import rom_scenario
from test_transient_scenarios import tiny_transient_spec

BANG_BANG = PolicySpec(
    kind="bang-bang", control_interval_s=0.05, threshold_K=310.0, high_scale=1.5
)


@pytest.fixture(scope="module")
def systems(geometry, params):
    """A small (at most the 120-unknown Test A/B size) and a larger FDM system."""

    def make(n_lanes, n_points):
        heat = [
            HeatInputProfile.from_areal_flux(
                50.0 + 30.0 * j, geometry.pitch, geometry.length
            )
            for j in range(n_lanes)
        ]
        cavity = build_cavity(
            geometry,
            heat,
            heat,
            flow_rate=params.flow_rate_per_channel,
            inlet_temperature=params.inlet_temperature,
        )
        return assembly.assemble_system(cavity, n_points=n_points)

    small, large = make(1, 31), make(4, 41)
    assert small.matrix.shape[0] <= 120 < large.matrix.shape[0]
    return {"small": small, "large": large}


#: Block columns versus single-RHS solves (a blocked kernel reorders
#: additions; the measured difference is ~5e-14).
BLOCK_RTOL = 1e-12


def rhs_block(system, k=4):
    rng = np.random.default_rng(3)
    return np.column_stack(
        [system.rhs * (1.0 + 0.1 * j) for j in range(k)]
    ) + rng.standard_normal((system.rhs.size, k))


class SolveOnly(SolverBackend):
    """A backend that overrides ``solve`` and nothing else."""

    name = "solve-only"

    def __init__(self):
        self.inner = SparseLUBackend()
        self.n_calls = 0

    def solve(self, matrix, rhs, pattern_token=None):
        self.n_calls += 1
        return self.inner.solve(matrix, rhs, pattern_token)


def assert_same_trajectory(outcome, reference):
    assert np.array_equal(outcome.peak_history_K, reference.peak_history_K)
    for name, history in reference.result.layer_histories.items():
        assert np.array_equal(outcome.result.layer_histories[name], history)


class TestHandleEquivalence:
    @pytest.mark.parametrize("name", backends.available_backends())
    @pytest.mark.parametrize("size", ["small", "large"])
    def test_handle_solves_match_fresh_handles(self, systems, name, size):
        backend = backends.get_backend(name)
        system = systems[size]
        matrix, token = system.matrix, system.pattern_token
        block = rhs_block(system)
        handle = backend.solver_for(matrix, token)
        transposed_block = handle.solve(block, "T")
        for column in range(block.shape[1]):
            rhs = block[:, column]
            np.testing.assert_array_equal(
                handle.solve(rhs), backend.solve(matrix, rhs, token)
            )
            expected = backend.solver_for(matrix, token).solve(rhs, "T")
            np.testing.assert_array_equal(handle.solve(rhs, "T"), expected)
            np.testing.assert_allclose(
                transposed_block[:, column], expected, rtol=BLOCK_RTOL, atol=0.0
            )
        np.testing.assert_array_equal(
            handle.solve(block), backend.solver_for(matrix, token).solve(block)
        )

    def test_auto_hands_out_sparse_lu_at_every_size(self, systems):
        auto = backends.get_backend("auto")
        for system in systems.values():
            assert auto.solver_for(system.matrix).backend.name == "sparse-lu"


class TestEmptyBlocks:
    @pytest.mark.parametrize("name", backends.available_backends())
    def test_backend_solves_an_empty_block(self, systems, name):
        backend = backends.get_backend(name)
        system = systems["small"]
        n = system.matrix.shape[0]
        empty = np.empty((n, 0))
        handle = backend.solver_for(system.matrix, system.pattern_token)
        for trans in ("N", "T"):
            assert handle.solve(empty, trans).shape == (n, 0)

    def test_forwarding_handle_solves_an_empty_block(self, systems):
        system = systems["small"]
        n = system.matrix.shape[0]
        solve_only = SolveOnly()
        handle = solve_only.solver_for(system.matrix, system.pattern_token)
        for trans in ("N", "T"):
            assert handle.solve(np.empty((n, 0)), trans).shape == (n, 0)
        assert solve_only.n_calls == 0

    def test_empty_block_counts_no_use(self, systems):
        system = systems["small"]
        backend = SparseLUBackend()
        handle = backend.solver_for(system.matrix, system.pattern_token)
        handle.solve(np.empty((system.matrix.shape[0], 0)))
        handle.solve(system.rhs)
        assert backend.n_factorization_reuses == 0


class TestSparseLUCounters:
    def test_acquire_hashes_once_and_later_solves_count_as_reuses(self, systems):
        system = systems["large"]
        backend = SparseLUBackend()
        handle = backend.solver_for(system.matrix, system.pattern_token)
        assert backend.stats()["n_content_hashes"] == 1
        assert backend.n_factorizations == 1
        for _ in range(5):
            handle.solve(system.rhs)
        handle.solve(system.rhs, "T")
        stats = backend.stats()
        assert stats["n_content_hashes"] == 1
        assert stats["n_factorizations"] == 1
        # Same totals as six per-solve lookups: one miss, five hits.
        assert stats["n_factorization_reuses"] == 5

    def test_block_solves_count_right_hand_sides(self, systems):
        system = systems["large"]
        backend = SparseLUBackend()
        handle = backend.solver_for(system.matrix, system.pattern_token)
        handle.solve(rhs_block(system, k=3))
        assert backend.n_factorization_reuses == 2
        handle.solve(rhs_block(system, k=4), "T")
        handle.solve(system.rhs)
        # Same totals as eight single solves through the handle.
        assert backend.n_factorizations == 1
        assert backend.n_factorization_reuses == 7

    def test_second_handle_is_a_cache_hit(self, systems):
        system = systems["large"]
        backend = SparseLUBackend()
        first = backend.solver_for(system.matrix, system.pattern_token)
        second = backend.solver_for(system.matrix, system.pattern_token)
        assert second.factor is first.factor
        assert backend.n_factorizations == 1
        assert backend.n_factorization_reuses == 1

    def test_reset_clears_the_hash_count(self, systems):
        system = systems["small"]
        backend = SparseLUBackend()
        backend.solve(system.matrix, system.rhs, system.pattern_token)
        backend.reset()
        assert backend.stats()["n_content_hashes"] == 0

    def test_integrate_chunk_hashes_once(self):
        stack = two_die_stack_from_maps(
            60.0,
            40.0,
            die_length=DEFAULT_EXPERIMENT.params.channel_length,
            die_width=2 * DEFAULT_EXPERIMENT.params.channel_pitch,
            config=DEFAULT_EXPERIMENT,
            n_cols=12,
            n_rows=2,
        )
        backend = SparseLUBackend()
        solver = TransientSolver(stack, backend=backend)
        state = np.full(solver.system.n_unknowns, stack.ambient_temperature)
        for chunk in range(3):
            state = solver.integrate(
                state,
                step_offset=10 * chunk,
                n_steps=10,
                time_step=0.01,
                on_step=lambda step, time, vector: None,
            )
            assert backend.stats()["n_content_hashes"] == chunk + 1
        assert backend.n_factorizations == 1
        assert backend.n_factorization_reuses == 29

    def test_rom_build_hashes_once(self):
        # One control chunk: one handle for the Krylov build, one for the
        # chunk's checkpoint reference solves.  A repeated run rebuilds its
        # basis over the warm factorization: two more hashes, no refactor.
        spec = rom_scenario(
            rom=RomSpec(mode="rom", order=12),
            policy=PolicySpec(kind="constant", control_interval_s=0.0),
        )
        backend = SparseLUBackend()
        cold = simulate_transient(spec, backend=backend)
        assert cold.metadata["n_rom_builds"] == 1
        assert backend.stats()["n_content_hashes"] == 2
        warm = simulate_transient(spec, backend=backend)
        assert warm.metadata["n_rom_builds"] == 1
        assert backend.stats()["n_content_hashes"] == 4
        assert backend.stats()["n_factorizations"] == 1
        assert_same_trajectory(warm, cold)


class TestTransientCounters:
    """Counter values of the per-step lookup path these runs replaced."""

    @pytest.mark.parametrize(
        "spec, factorizations, reuses, hashes",
        [
            (tiny_transient_spec(), 1, 19, 4),
            (tiny_transient_spec(policy=BANG_BANG), 2, 18, 4),
            (rom_scenario(rom=RomSpec(mode="rom", order=12)), 1, 17, 5),
            # One flow-parametric build at the initial scale, checkpoint
            # probes at both: two factorizations, one build handle.
            (
                rom_scenario(rom=RomSpec(mode="rom", order=12), policy=BANG_BANG),
                2,
                20,
                5,
            ),
        ],
        ids=["full", "full-bang-bang", "rom", "rom-bang-bang"],
    )
    def test_counters_match_the_lookup_path(
        self, spec, factorizations, reuses, hashes
    ):
        backend = SparseLUBackend()
        simulate_transient(spec, backend=backend)
        stats = backend.stats()
        assert stats["n_factorizations"] == factorizations
        assert stats["n_factorization_reuses"] == reuses
        # One content hash per control chunk (and per ROM build), where
        # the lookup path hashed once per solve.
        assert stats["n_content_hashes"] == hashes


class TestSolveOnlyBackend:
    def test_simulate_transient_runs_on_solve_only(self):
        spec = tiny_transient_spec()
        solve_only = SolveOnly()
        outcome = simulate_transient(spec, backend=solve_only)
        assert solve_only.n_calls == spec.transient.n_steps
        assert outcome.metadata["backend"] == "solve-only"
        assert_same_trajectory(
            outcome, simulate_transient(spec, backend=SparseLUBackend())
        )

    def test_forwarding_handle_solves_the_materialized_transpose(self, systems):
        system = systems["large"]
        handle = SolveOnly().solver_for(system.matrix, system.pattern_token)
        reference = SparseLUBackend()
        np.testing.assert_array_equal(
            handle.solve(system.rhs),
            reference.solve(system.matrix, system.rhs, system.pattern_token),
        )
        np.testing.assert_array_equal(
            handle.solve(system.rhs, "T"),
            reference.solve(system.matrix.T.tocsr(), system.rhs),
        )
