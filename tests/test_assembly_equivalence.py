"""Equivalence of the vectorized assembly and the loop oracle.

The vectorized assembly (cached sparsity pattern + NumPy triplet
construction) must produce the same sparse matrix and the same
:class:`ThermalSolution` as the original per-grid-point Python-loop
assembly kept in ``tests/oracles/assembly.py``, on every structure class
the solver supports: single lane, multi-lane with lateral coupling, lateral
coupling disabled, channel clustering, and reversed (counterflow) lanes.
The grouped per-lane conductance rows of :func:`assembly.lane_parameters`
must equal :func:`assembly.lane_conductance_rows` lane by lane, exactly.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from oracles import assembly as oracle
from repro.thermal import assembly
from repro.thermal.fdm import solve_finite_difference
from repro.thermal.geometry import HeatInputProfile, WidthProfile
from repro.thermal.multichannel import build_cavity


def _cavity(
    geometry,
    params,
    n_lanes,
    cluster_size=1,
    lateral_coupling=True,
    reversed_lanes=None,
    fluxes=None,
):
    fluxes = fluxes or [50.0 + 25.0 * j for j in range(n_lanes)]
    heat = [
        HeatInputProfile.from_areal_flux(flux, geometry.pitch, geometry.length)
        for flux in fluxes
    ]
    cavity = build_cavity(
        geometry,
        heat,
        heat,
        flow_rate=params.flow_rate_per_channel,
        inlet_temperature=params.inlet_temperature,
        cluster_size=cluster_size,
        lateral_coupling=lateral_coupling,
    )
    if reversed_lanes:
        lanes = tuple(
            lane.with_flow_reversed(bool(flag))
            for lane, flag in zip(cavity.lanes, reversed_lanes)
        )
        cavity = replace(cavity, lanes=lanes)
    return cavity


def _cases(geometry, params):
    return {
        "single-lane": _cavity(geometry, params, n_lanes=1),
        "multi-lane": _cavity(geometry, params, n_lanes=4),
        "clustered": _cavity(geometry, params, n_lanes=3, cluster_size=5),
        "no-lateral": _cavity(geometry, params, n_lanes=3, lateral_coupling=False),
        "reversed-flow": _cavity(
            geometry,
            params,
            n_lanes=4,
            reversed_lanes=[False, True, False, True],
        ),
    }


class TestMatrixEquivalence:
    @pytest.mark.parametrize("n_points", [7, 41])
    def test_same_matrix_and_rhs(self, geometry, params, n_points):
        for name, cavity in _cases(geometry, params).items():
            vectorized = assembly.assemble_system(cavity, n_points=n_points)
            matrix, rhs = oracle.assemble_system_loop(cavity, n_points=n_points)
            np.testing.assert_allclose(
                vectorized.matrix.toarray(),
                matrix.toarray(),
                rtol=1e-13,
                atol=0.0,
                err_msg=f"matrix mismatch for case {name!r}",
            )
            np.testing.assert_allclose(
                vectorized.rhs,
                rhs,
                rtol=1e-13,
                atol=0.0,
                err_msg=f"rhs mismatch for case {name!r}",
            )

    def test_modulated_width_profile(self, geometry, params):
        cavity = _cavity(geometry, params, n_lanes=2)
        narrowing = WidthProfile.from_function(
            lambda z: 50e-6 - (38e-6 / geometry.length) * z, geometry.length
        )
        modulated = cavity.with_width_profiles([narrowing, narrowing])
        vectorized = assembly.assemble_system(modulated, n_points=31)
        matrix, _ = oracle.assemble_system_loop(modulated, n_points=31)
        np.testing.assert_allclose(
            vectorized.matrix.toarray(), matrix.toarray(), rtol=1e-13
        )

    def test_explicit_lane_pitch(self, geometry, params):
        cavity = _cavity(geometry, params, n_lanes=3)
        pitch = 4.0 * geometry.pitch
        vectorized = assembly.assemble_system(cavity, n_points=21, lane_pitch=pitch)
        matrix, _ = oracle.assemble_system_loop(cavity, n_points=21, lane_pitch=pitch)
        np.testing.assert_allclose(
            vectorized.matrix.toarray(), matrix.toarray(), rtol=1e-13
        )


class TestSolutionEquivalence:
    @pytest.mark.parametrize("n_points", [41, 121])
    def test_same_thermal_solution(self, geometry, params, n_points):
        for name, cavity in _cases(geometry, params).items():
            vectorized = solve_finite_difference(cavity, n_points=n_points)
            loop = oracle.solve_loop(cavity, n_points=n_points)
            np.testing.assert_allclose(
                vectorized.temperatures,
                loop.temperatures,
                rtol=0.0,
                atol=1e-8,
                err_msg=f"temperature mismatch for case {name!r}",
            )
            np.testing.assert_allclose(
                vectorized.coolant_temperatures,
                loop.coolant_temperatures,
                rtol=0.0,
                atol=1e-8,
                err_msg=f"coolant mismatch for case {name!r}",
            )
            np.testing.assert_allclose(
                vectorized.heat_flows,
                loop.heat_flows,
                rtol=1e-6,
                atol=1e-9,
                err_msg=f"heat-flow mismatch for case {name!r}",
            )


class TestSparsityPatternCache:
    def test_pattern_reused_across_solves(self, geometry, params):
        assembly.clear_pattern_cache()
        cavity = _cavity(geometry, params, n_lanes=3)
        first = assembly.assemble_system(cavity, n_points=33)
        modulated = cavity.with_uniform_width(geometry.min_width)
        second = assembly.assemble_system(modulated, n_points=33)
        assert first.pattern is second.pattern
        assert assembly.pattern_cache_info()["size"] == 1

    def test_distinct_shapes_get_distinct_patterns(self, geometry, params):
        assembly.clear_pattern_cache()
        cavity = _cavity(geometry, params, n_lanes=3)
        a = assembly.assemble_system(cavity, n_points=21)
        b = assembly.assemble_system(cavity, n_points=31)
        reversed_cavity = _cavity(
            geometry, params, n_lanes=3, reversed_lanes=[True, False, False]
        )
        c = assembly.assemble_system(reversed_cavity, n_points=21)
        tokens = {a.pattern.token, b.pattern.token, c.pattern.token}
        assert len(tokens) == 3
        assert assembly.pattern_cache_info()["size"] == 3

    def test_pattern_matrix_structure_is_static(self, geometry, params):
        cavity = _cavity(geometry, params, n_lanes=2)
        first = assembly.assemble_system(cavity, n_points=25)
        modulated = cavity.with_uniform_width(geometry.min_width)
        second = assembly.assemble_system(modulated, n_points=25)
        np.testing.assert_array_equal(
            first.matrix.indices, second.matrix.indices
        )
        np.testing.assert_array_equal(first.matrix.indptr, second.matrix.indptr)
        assert np.any(first.matrix.data != second.matrix.data)


def _modulated(geometry, n_lanes):
    """A different piecewise-constant width profile for every lane."""
    return [
        WidthProfile.piecewise_constant(
            [geometry.max_width - 4e-6 * lane, geometry.min_width + 2e-6 * lane],
            geometry.length,
        )
        for lane in range(n_lanes)
    ]


class TestBatchedLaneParameters:
    def _assert_rows_match(self, cavity, n_points=41):
        z_grid = np.linspace(0.0, cavity.geometry.length, n_points)
        batched = assembly.lane_parameters(cavity, z_grid)
        for lane in range(cavity.n_lanes):
            g_v, g_w = assembly.lane_conductance_rows(cavity, z_grid, lane)
            np.testing.assert_array_equal(batched.g_v[lane], g_v)
            np.testing.assert_array_equal(batched.g_w[lane], g_w)

    @pytest.mark.parametrize(
        "name", ["single-lane", "multi-lane", "clustered", "reversed-flow"]
    )
    def test_uniform_width_cases(self, geometry, params, name):
        self._assert_rows_match(_cases(geometry, params)[name])

    @pytest.mark.parametrize("n_lanes", [1, 4])
    @pytest.mark.parametrize("developing_flow", [False, True])
    def test_per_lane_width_profiles(
        self, geometry, params, n_lanes, developing_flow
    ):
        heat = [
            HeatInputProfile.from_areal_flux(60.0, geometry.pitch, geometry.length)
        ] * n_lanes
        cavity = build_cavity(
            geometry,
            heat,
            heat,
            _modulated(geometry, n_lanes),
            flow_rate=params.flow_rate_per_channel,
            cluster_size=3,
            developing_flow=developing_flow,
        )
        self._assert_rows_match(cavity)

    @pytest.mark.parametrize("developing_flow", [False, True])
    def test_two_flow_rate_groups_with_a_reversed_lane(
        self, geometry, params, developing_flow
    ):
        heat = [
            HeatInputProfile.from_areal_flux(60.0, geometry.pitch, geometry.length)
        ] * 4
        cavity = build_cavity(
            geometry,
            heat,
            heat,
            _modulated(geometry, 4),
            flow_rate=params.flow_rate_per_channel,
            developing_flow=developing_flow,
        )
        # Interleaved groups: lanes 1 and 3 carry half the flow, lane 2
        # flows backwards, and every lane clusters a different number of
        # channels.
        lanes = tuple(
            replace(
                lane,
                flow_rate=lane.flow_rate * (0.5 if index % 2 else 1.0),
                flow_reversed=index == 2,
            )
            for index, lane in enumerate(cavity.lanes)
        )
        cavity = replace(cavity, lanes=lanes, lane_cluster_sizes=(2, 3, 1, 4))
        self._assert_rows_match(cavity)
        self._assert_rows_match(cavity, n_points=7)
