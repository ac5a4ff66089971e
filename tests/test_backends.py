"""Tests of the pluggable linear-solver backend registry.

Every registered backend must reproduce the reference temperature fields
(loop-assembled by ``tests/oracles/assembly.py``, direct-solved) within
1e-8 on representative fixtures,
and the registry must reject unknown names, duplicate registrations and
objects that are not ``SolverBackend`` instances.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from oracles import assembly as oracle
from repro.thermal import assembly, backends
from repro.thermal.fdm import solve_finite_difference, solve_structure
from repro.thermal.geometry import HeatInputProfile
from repro.thermal.multichannel import build_cavity


@pytest.fixture(scope="module")
def cavities(geometry, params):
    def make(n_lanes, **kwargs):
        heat = [
            HeatInputProfile.from_areal_flux(
                50.0 + 30.0 * j, geometry.pitch, geometry.length
            )
            for j in range(n_lanes)
        ]
        return build_cavity(
            geometry,
            heat,
            heat,
            flow_rate=params.flow_rate_per_channel,
            inlet_temperature=params.inlet_temperature,
            **kwargs,
        )

    return {
        "single": make(1),
        "multi": make(5),
        "clustered": make(3, cluster_size=4),
    }


class TestBackendEquivalence:
    @pytest.mark.parametrize(
        "backend", ["dense", "sparse-lu", "auto"]
    )
    def test_matches_reference_solution(self, cavities, backend):
        for name, cavity in cavities.items():
            reference = oracle.solve_loop(cavity, n_points=61)
            solution = solve_finite_difference(cavity, n_points=61, backend=backend)
            np.testing.assert_allclose(
                solution.temperatures,
                reference.temperatures,
                rtol=0.0,
                atol=1e-8,
                err_msg=f"backend {backend!r} diverges on cavity {name!r}",
            )
            assert solution.metadata["backend"] == backend

    def test_single_channel_structure_accepts_backend(self, test_a):
        dense = solve_structure(test_a, n_points=101, backend="dense")
        sparse_lu = solve_structure(test_a, n_points=101, backend="sparse-lu")
        np.testing.assert_allclose(
            dense.temperatures, sparse_lu.temperatures, rtol=0.0, atol=1e-8
        )

    def test_backend_instance_accepted(self, cavities):
        backend = backends.SparseLUBackend()
        solution = solve_finite_difference(
            cavities["multi"], n_points=41, backend=backend
        )
        assert solution.metadata["backend"] == "sparse-lu"
        assert backend.stats()["n_factorizations"] == 1


class TestFactorizationReuse:
    def test_identical_matrix_reuses_factorization(self, cavities):
        backend = backends.SparseLUBackend()
        system = assembly.assemble_system(cavities["multi"], n_points=41)
        first = backend.solve(system.matrix, system.rhs, system.pattern_token)
        second = backend.solve(system.matrix, system.rhs, system.pattern_token)
        np.testing.assert_array_equal(first, second)
        stats = backend.stats()
        assert stats["n_factorizations"] == 1
        assert stats["n_factorization_reuses"] == 1

    def test_changed_values_refactorize(self, cavities, geometry):
        backend = backends.SparseLUBackend()
        cavity = cavities["multi"]
        a = assembly.assemble_system(cavity, n_points=41)
        b = assembly.assemble_system(
            cavity.with_uniform_width(geometry.min_width), n_points=41
        )
        backend.solve(a.matrix, a.rhs, a.pattern_token)
        backend.solve(b.matrix, b.rhs, b.pattern_token)
        assert backend.stats()["n_factorizations"] == 2

    def test_cache_bounded(self, cavities, geometry):
        backend = backends.SparseLUBackend(factorization_cache_size=2)
        cavity = cavities["multi"]
        widths = np.linspace(geometry.min_width, geometry.max_width, 4)
        for width in widths:
            system = assembly.assemble_system(
                cavity.with_uniform_width(float(width)), n_points=41
            )
            backend.solve(system.matrix, system.rhs, system.pattern_token)
        assert backend.stats()["cached_factorizations"] == 2


class TestHandleBlocks:
    """Multi-RHS handle solves match per-column solves within ``rtol=1e-12``.

    A block is one blocked kernel call, which reorders additions, so the
    columns agree with single-RHS solves to rounding, not bit for bit.
    """

    def rhs_block(self, system, k=5):
        rng = np.random.default_rng(7)
        return np.column_stack(
            [system.rhs * (1.0 + 0.1 * j) for j in range(k)]
        ) + rng.standard_normal((system.rhs.size, k))

    @pytest.mark.parametrize("name", ["sparse-lu", "dense", "auto"])
    def test_columns_match_single_solves(self, cavities, name):
        backend = backends.get_backend(name)
        system = assembly.assemble_system(cavities["multi"], n_points=41)
        block = self.rhs_block(system)
        solved = backend.solver_for(system.matrix, system.pattern_token).solve(block)
        for column in range(block.shape[1]):
            np.testing.assert_allclose(
                solved[:, column],
                backend.solve(
                    system.matrix, block[:, column], system.pattern_token
                ),
                rtol=1e-12,
                atol=0.0,
            )

    @pytest.mark.parametrize("name", ["sparse-lu", "dense", "auto"])
    def test_transposed_block_solves_a_transpose(self, cavities, name):
        backend = backends.get_backend(name)
        system = assembly.assemble_system(cavities["multi"], n_points=41)
        block = self.rhs_block(system)
        handle = backend.solver_for(system.matrix, system.pattern_token)
        solved = handle.solve(block, "T")
        np.testing.assert_allclose(
            system.matrix.T @ solved, block, rtol=0.0, atol=1e-8 * np.abs(block).max()
        )

    def test_sparse_lu_hashes_once_per_block(self, cavities):
        backend = backends.SparseLUBackend()
        system = assembly.assemble_system(cavities["multi"], n_points=41)
        block = self.rhs_block(system)
        backend.solver_for(system.matrix, system.pattern_token).solve(block)
        stats = backend.stats()
        # One lookup and one factorization for the whole block; the
        # counters count right-hand sides, so the block's other k - 1
        # columns are reuses, as k single solves would count them.
        assert stats["n_content_hashes"] == 1
        assert stats["n_factorizations"] == 1
        assert stats["n_factorization_reuses"] == block.shape[1] - 1


class TestRegistry:
    def test_available_backends(self):
        names = backends.available_backends()
        for expected in ("auto", "dense", "sparse-lu"):
            assert expected in names

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            backends.get_backend("does-not-exist")
        with pytest.raises(ValueError):
            backends.resolve_backend("does-not-exist")

    def test_resolve_none_gives_default(self):
        assert backends.resolve_backend(None).name == backends.DEFAULT_BACKEND

    def test_resolve_rejects_bad_spec(self):
        with pytest.raises(TypeError):
            backends.resolve_backend(123)

    def test_objects_that_are_not_solver_backends_are_rejected(self):
        class SolveOnly:
            name = "test-not-a-backend"

            def solve(self, matrix, rhs, pattern_token=None):
                return rhs

        with pytest.raises(TypeError, match="SolverBackend"):
            backends.register_backend(SolveOnly())
        with pytest.raises(TypeError, match="SolverBackend"):
            backends.resolve_backend(SolveOnly())
        assert "test-not-a-backend" not in backends.available_backends()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            backends.register_backend(backends.DenseBackend())

    def test_custom_backend_roundtrip(self):
        class EchoDense(backends.DenseBackend):
            name = "test-echo-dense"

        try:
            backends.register_backend(EchoDense())
            assert "test-echo-dense" in backends.available_backends()
            assert backends.get_backend("test-echo-dense").name == "test-echo-dense"
            # Re-registering with overwrite replaces the instance.
            replacement = EchoDense()
            backends.register_backend(replacement, overwrite=True)
            assert backends.get_backend("test-echo-dense") is replacement
        finally:
            backends._REGISTRY.unregister("test-echo-dense")

    def test_backend_without_name_rejected(self):
        class Nameless(backends.SolverBackend):
            name = ""

            def solve(self, matrix, rhs, pattern_token=None):
                return rhs

        with pytest.raises(ValueError):
            backends.register_backend(Nameless())


def _readme_custom_backend_example() -> str:
    """The custom-backend code block of the README's "Choosing a solver backend"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Choosing a solver backend", 1)[1]
    section = section.split("### Factorization handles", 1)[0]
    (block,) = [
        block for block in re.findall(r"```python\n(.*?)```", section, re.S)
        if "class MySolver(SolverBackend)" in block
    ]
    return block


class TestReadmeCustomBackend:
    def test_example_runs_as_written(self, cavities):
        system = assembly.assemble_system(cavities["multi"], n_points=41)
        namespace = {
            "matrix": system.matrix,
            "pattern_token": system.pattern_token,
            "rhs": system.rhs,
        }
        try:
            exec(_readme_custom_backend_example(), namespace)
            backend = namespace["backend"]
            assert backends.get_backend("my-solver") is backend
            assert backends.resolve_backend("my-solver") is backend
            np.testing.assert_allclose(
                system.matrix @ namespace["x"], system.rhs, rtol=0.0, atol=1e-8
            )
            np.testing.assert_allclose(
                system.matrix.T @ namespace["y"], system.rhs, rtol=0.0, atol=1e-8
            )
        finally:
            backends._REGISTRY.unregister("my-solver")
        assert "my-solver" not in backends.available_backends()
