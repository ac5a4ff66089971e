"""Tests of the multi-channel cavity builders."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import flux_maps as oracle
from repro.config import DEFAULT_EXPERIMENT
from repro.core.engine import EvaluationEngine
from repro.floorplan import get_architecture
from repro.scenarios import get_scenario
from repro.thermal.geometry import HeatInputProfile, WidthProfile
from repro.thermal.multichannel import (
    _channel_line_densities,
    build_cavity,
    cavity_from_flux_maps,
    cluster_line_densities,
)

#: ``(n_cols, n_rows)`` rasters: the campaign's FDM grid (44 columns, 40
#: rows for five lanes), a coarse one and a fine one.
PROJECTION_GRIDS = [(44, 40), (20, 22), (161, 55)]


class TestClusterLineDensities:
    def test_exact_grouping(self):
        densities = np.ones((6, 4)) * 10.0
        lanes = cluster_line_densities(densities, cluster_size=3)
        assert lanes.shape == (2, 4)
        np.testing.assert_allclose(lanes, 30.0)

    def test_partial_last_group_is_scaled(self):
        densities = np.ones((5, 2)) * 10.0
        lanes = cluster_line_densities(densities, cluster_size=3)
        assert lanes.shape == (2, 2)
        np.testing.assert_allclose(lanes[0], 30.0)
        # Last lane holds 2 channels scaled up to a full cluster of 3.
        np.testing.assert_allclose(lanes[1], 30.0)

    def test_cluster_size_one_is_identity(self):
        densities = np.arange(12.0).reshape(4, 3)
        lanes = cluster_line_densities(densities, cluster_size=1)
        np.testing.assert_allclose(lanes, densities)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cluster_line_densities(np.ones(5), cluster_size=2)
        with pytest.raises(ValueError):
            cluster_line_densities(np.ones((5, 2)), cluster_size=0)


class TestBuildCavity:
    def test_default_width_is_maximum(self, geometry, params):
        heat = [
            HeatInputProfile.from_areal_flux(50.0, geometry.pitch, geometry.length)
        ]
        cavity = build_cavity(geometry, heat, heat)
        assert cavity.lanes[0].width_profile(0.005) == pytest.approx(
            geometry.max_width
        )

    def test_lane_count_mismatch_raises(self, geometry):
        heat = [
            HeatInputProfile.from_areal_flux(50.0, geometry.pitch, geometry.length)
        ]
        with pytest.raises(ValueError):
            build_cavity(geometry, heat, heat * 2)

    def test_width_profile_count_mismatch_raises(self, geometry):
        heat = [
            HeatInputProfile.from_areal_flux(50.0, geometry.pitch, geometry.length)
        ] * 2
        with pytest.raises(ValueError):
            build_cavity(
                geometry,
                heat,
                heat,
                width_profiles=[WidthProfile.uniform(30e-6, geometry.length)],
            )


class TestCavityFromFluxMaps:
    def test_power_is_conserved(self, params):
        top = np.full((20, 10), 40.0)
        bottom = np.full((20, 10), 20.0)
        die_length, die_width = 0.01, 0.002  # 20 channels of 100 um pitch
        cavity = cavity_from_flux_maps(
            top,
            bottom,
            params=params,
            die_length=die_length,
            die_width=die_width,
            cluster_size=4,
        )
        expected = (40.0 + 20.0) * 1e4 * die_length * die_width
        assert cavity.total_power == pytest.approx(expected, rel=2e-2)

    def test_lane_count_follows_cluster_size(self, params):
        top = np.full((20, 10), 40.0)
        cavity = cavity_from_flux_maps(
            top,
            top,
            params=params,
            die_length=0.01,
            die_width=0.002,
            cluster_size=5,
        )
        assert cavity.n_lanes == 4  # 20 channels / cluster of 5
        assert cavity.cluster_size == 5

    def test_hot_band_maps_to_hot_lane(self, params):
        top = np.full((20, 10), 10.0)
        top[:10, :] = 200.0  # the lower half of the die is hot
        cavity = cavity_from_flux_maps(
            top,
            top,
            params=params,
            die_length=0.01,
            die_width=0.002,
            cluster_size=10,
        )
        assert cavity.n_lanes == 2
        hot_power = cavity.lanes[0].total_power
        cold_power = cavity.lanes[1].total_power
        assert hot_power > 5.0 * cold_power

    def test_shape_mismatch_raises(self, params):
        with pytest.raises(ValueError):
            cavity_from_flux_maps(
                np.ones((4, 5)), np.ones((5, 4)), params=params
            )

    def test_heat_varies_along_flow_direction(self, params):
        top = np.zeros((10, 10))
        top[:, 5:] = 100.0  # the downstream half is hot
        cavity = cavity_from_flux_maps(
            top, top, params=params, die_length=0.01, die_width=0.001
        )
        lane = cavity.lanes[0]
        assert lane.heat_top(0.008) > lane.heat_top(0.002)

    def test_lane_profiles_match_the_step_interpolator_oracle(self, params):
        rng = np.random.default_rng(11)
        length = 0.01
        z = np.concatenate(
            [
                np.linspace(-1e-3, length + 1e-3, 997),
                # Exact column edges, where the segment rule must round
                # the same way as the interpolator did.
                np.arange(0, 12) * length / 11,
            ]
        )
        for n_cols in (1, 7, 11, 44):
            values = rng.uniform(0.0, 5e3, n_cols)
            profile = HeatInputProfile.piecewise_constant(values, length)
            expected = oracle.step_profile(values, length)(z)
            np.testing.assert_array_equal(profile(z), expected)
        top = rng.uniform(5.0, 150.0, (20, 11))
        cavity = cavity_from_flux_maps(
            top, top[::-1], params=params, die_length=length, die_width=0.002,
            cluster_size=5,
        )
        for lane in cavity.lanes:
            for heat in (lane.heat_top, lane.heat_bottom):
                columns = heat((np.arange(11) + 0.5) * length / 11)
                np.testing.assert_array_equal(
                    heat(z), oracle.step_profile(columns, length)(z)
                )

    @pytest.mark.parametrize(
        "name", ["niagara-arch1", "niagara-arch2", "niagara-arch3"]
    )
    def test_niagara_designs_are_cacheable(self, name):
        structure = get_scenario(name).build_structure()
        assert EvaluationEngine.structure_key(structure, 41) is not None
        engine = EvaluationEngine()
        first = engine.solve(structure, n_points=41)
        second = engine.solve(structure, n_points=41)
        assert second is first
        stats = engine.stats()
        assert stats["n_solves"] == 1
        assert stats["n_uncacheable"] == 0


class TestChannelProjection:
    """The sparse projection equals the per-channel loop bit for bit."""

    @pytest.mark.parametrize("grid", PROJECTION_GRIDS)
    @pytest.mark.parametrize("scenario", ["peak", "average"])
    @pytest.mark.parametrize("name", ["arch1", "arch2", "arch3"])
    def test_architecture_maps(self, name, scenario, grid):
        architecture = get_architecture(name)
        maps = architecture.flux_maps(*grid, scenario)
        pitch = DEFAULT_EXPERIMENT.params.channel_pitch
        n_channels = int(round(architecture.die_width / pitch))
        projected = _channel_line_densities(maps, architecture.die_width, n_channels)
        for flux, densities in zip(maps, projected):
            np.testing.assert_array_equal(
                densities,
                oracle.channel_line_densities(
                    flux, architecture.die_width, n_channels
                ),
            )

    @pytest.mark.parametrize("scenario", ["peak", "average"])
    @pytest.mark.parametrize("name", ["arch1", "arch2", "arch3"])
    def test_cavity_heat_comes_from_the_loop_densities(self, name, scenario):
        architecture = get_architecture(name)
        cavity = architecture.cavity(scenario, n_lanes=5, n_cols=44)
        top, bottom = architecture.flux_maps(44, 40, scenario)
        pitch = DEFAULT_EXPERIMENT.params.channel_pitch
        n_channels = int(round(architecture.die_width / pitch))
        centers = (np.arange(44) + 0.5) * architecture.die_length / 44
        for flux, side in ((top, "heat_top"), (bottom, "heat_bottom")):
            expected = cluster_line_densities(
                oracle.channel_line_densities(
                    flux, architecture.die_width, n_channels
                ),
                cavity.cluster_size,
            )
            for lane, row in zip(cavity.lanes, expected):
                np.testing.assert_array_equal(getattr(lane, side)(centers), row)

    @pytest.mark.parametrize("n_channels", [1, 7, 30, 39])
    def test_die_narrower_than_its_row_count(self, n_channels):
        # Fewer channels than rows: every channel spans several row bands,
        # partially at its edges.
        rng = np.random.default_rng(n_channels)
        flux = rng.uniform(0.0, 150.0, (40, 13))
        die_width = n_channels * 100e-6
        (densities,) = _channel_line_densities((flux,), die_width, n_channels)
        np.testing.assert_array_equal(
            densities, oracle.channel_line_densities(flux, die_width, n_channels)
        )
