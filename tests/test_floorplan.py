"""Tests of blocks, floorplans, the Niagara model and the Fig. 7 architectures."""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.floorplan import blocks
from repro.floorplan.blocks import Block, Floorplan
from repro.floorplan.niagara import (
    DIE_LENGTH,
    DIE_WIDTH,
    compute_die,
    full_niagara_die,
    memory_die,
    mixed_die,
)
from repro.floorplan.architectures import (
    ARCHITECTURES,
    architecture_names,
    get_architecture,
)


class TestBlock:
    def test_power_from_density_and_area(self):
        block = Block("b", 0.0, 0.0, 0.01, 0.01, 50.0, 25.0)
        # 50 W/cm^2 over 1 cm^2 = 50 W.
        assert block.power("peak") == pytest.approx(50.0)
        assert block.power("average") == pytest.approx(25.0)

    def test_rejects_average_above_peak(self):
        with pytest.raises(ValueError):
            Block("b", 0.0, 0.0, 0.01, 0.01, 10.0, 20.0)

    def test_rejects_non_positive_extent(self):
        with pytest.raises(ValueError):
            Block("b", 0.0, 0.0, 0.0, 0.01, 10.0, 5.0)

    def test_unknown_scenario_raises(self):
        block = Block("b", 0.0, 0.0, 0.01, 0.01, 50.0, 25.0)
        with pytest.raises(ValueError):
            block.power_density("typical")

    def test_overlap_detection(self):
        first = Block("a", 0.0, 0.0, 0.01, 0.01, 10.0, 5.0)
        second = Block("b", 0.005, 0.005, 0.01, 0.01, 10.0, 5.0)
        third = Block("c", 0.02, 0.0, 0.01, 0.01, 10.0, 5.0)
        assert first.overlaps(second)
        assert not first.overlaps(third)

    def test_translation(self):
        block = Block("b", 0.0, 0.0, 0.01, 0.01, 10.0, 5.0)
        moved = block.translated(0.002, 0.003)
        assert moved.x == pytest.approx(0.002)
        assert moved.y == pytest.approx(0.003)


class TestFloorplan:
    def _simple(self):
        blocks = (
            Block("hot", 0.0, 0.0, 0.005, 0.01, 100.0, 50.0, kind="core"),
            Block("cold", 0.005, 0.0, 0.005, 0.01, 10.0, 8.0, kind="cache"),
        )
        return Floorplan("die", 0.01, 0.01, blocks)

    def test_total_power(self):
        plan = self._simple()
        # hot: 100 W/cm^2 * 0.5 cm^2 + cold: 10 W/cm^2 * 0.5 cm^2
        assert plan.total_power("peak") == pytest.approx(55.0)

    def test_rejects_overlapping_blocks(self):
        with pytest.raises(ValueError):
            Floorplan(
                "bad",
                0.01,
                0.01,
                (
                    Block("a", 0.0, 0.0, 0.006, 0.01, 10.0, 5.0),
                    Block("b", 0.005, 0.0, 0.005, 0.01, 10.0, 5.0),
                ),
            )

    def test_rejects_block_outside_die(self):
        with pytest.raises(ValueError):
            Floorplan(
                "bad",
                0.01,
                0.01,
                (Block("a", 0.008, 0.0, 0.005, 0.01, 10.0, 5.0),),
            )

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            Floorplan(
                "bad",
                0.01,
                0.01,
                (
                    Block("a", 0.0, 0.0, 0.004, 0.01, 10.0, 5.0),
                    Block("a", 0.005, 0.0, 0.004, 0.01, 10.0, 5.0),
                ),
            )

    def test_block_lookup_and_kind_filter(self):
        plan = self._simple()
        assert plan.block("hot").peak_power_density == pytest.approx(100.0)
        assert [b.name for b in plan.blocks_of_kind("cache")] == ["cold"]
        with pytest.raises(KeyError):
            plan.block("missing")

    def test_rasterization_conserves_power(self):
        plan = self._simple()
        for grid in ((10, 10), (17, 23), (40, 40)):
            power_map = plan.power_map(grid[0], grid[1], "peak")
            assert power_map.sum() == pytest.approx(plan.total_power("peak"), rel=1e-9)

    def test_rasterization_resolves_contrast(self):
        plan = self._simple()
        density = plan.power_density_map(10, 10, "peak")
        assert density[:, 0].mean() == pytest.approx(100.0)
        assert density[:, -1].mean() == pytest.approx(10.0)

    def test_power_density_range_includes_background(self):
        plan = Floorplan(
            "bg",
            0.01,
            0.01,
            (Block("a", 0.0, 0.0, 0.005, 0.01, 100.0, 50.0),),
            background_power_density=5.0,
        )
        low, high = plan.power_density_range("peak")
        assert low == pytest.approx(5.0)
        assert high == pytest.approx(100.0)

    def test_mirror_preserves_power(self):
        plan = self._simple()
        mirrored = plan.mirrored_y()
        assert mirrored.total_power("peak") == pytest.approx(plan.total_power("peak"))


@pytest.fixture()
def raster_cache():
    """The process-wide raster memo, emptied and with zeroed statistics."""
    cache = blocks._RASTER_CACHE
    cache.clear()
    cache.reset_stats()
    yield cache
    cache.clear()


#: A perfbench-shaped campaign sweep: 2 flows x arch1-3 x {fdm, ice} at
#: one power on the campaign grid (44 x 44 cells, 5 FDM lanes).
CAMPAIGN_SWEEP = {
    "name": "raster-memo",
    "base": {
        "name": "raster-memo-base",
        "workload": {"kind": "architecture", "architecture": "arch1", "power": "peak"},
        "grid": {"n_grid_points": 161, "n_lanes": 5, "n_rows": 44, "n_cols": 44},
    },
    "axes": [
        {"field": "params.flow_rate_per_channel", "values": [6e-8, 9e-8]},
        {"field": "workload.architecture", "values": ["arch1", "arch2", "arch3"]},
        {"field": "solver.simulator", "values": ["fdm", "ice"]},
    ],
}


class TestRasterMemo:
    def test_campaign_sweep_rasterizes_each_map_once(self, raster_cache):
        result = Session().run_many(CAMPAIGN_SWEEP, executor="serial")
        assert result.n_failed == 0
        stats = raster_cache.stats()
        # 3 architectures x 2 dies x {40-row FDM, 44-row ICE} rasters, each
        # built by the first flow rate and served to the second.
        assert stats["n_misses"] == 12
        assert stats["n_hits"] == 12

    def test_repeated_calls_share_one_read_only_map(self, raster_cache):
        plan = get_architecture("arch1").top_die
        first = plan.power_density_map(12, 10, "peak")
        assert plan.power_density_map(12, 10, "peak") is first
        assert plan.power_density_map(12, 10, "average") is not first
        with pytest.raises(ValueError):
            first[0, 0] = 0.0
        assert raster_cache.stats()["n_hits"] == 1

    def test_power_map_stays_writable(self, raster_cache):
        plan = get_architecture("arch1").top_die
        power = plan.power_map(12, 10, "peak")
        power[0, 0] = 0.0
        assert plan.power_density_map(12, 10, "peak")[0, 0] != 0.0

    def test_invalid_grid_raises_before_the_lookup(self, raster_cache):
        plan = get_architecture("arch1").top_die
        with pytest.raises(ValueError, match="at least one cell"):
            plan.power_density_map(0, 5)
        stats = raster_cache.stats()
        assert stats["n_misses"] == 0 and stats["size"] == 0

    def test_unknown_scenario_is_not_cached(self, raster_cache):
        plan = get_architecture("arch1").top_die
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown power scenario"):
                plan.power_density_map(12, 10, "typical")
        assert raster_cache.stats()["size"] == 0

    def test_equal_floorplans_share_a_map(self, raster_cache):
        plan = get_architecture("arch2").bottom_die
        copy = plan.with_blocks(list(plan.blocks))
        assert copy is not plan
        assert copy.power_density_map(8, 8) is plan.power_density_map(8, 8)


class TestNiagaraDies:
    @pytest.mark.parametrize(
        "builder", [compute_die, memory_die, mixed_die, full_niagara_die]
    )
    def test_dies_are_valid_and_sized_like_the_paper(self, builder):
        die = builder()
        assert die.die_length == pytest.approx(DIE_LENGTH)
        assert die.die_width == pytest.approx(DIE_WIDTH)
        assert die.total_power("peak") > die.total_power("average") > 0.0

    def test_flux_range_matches_paper_span(self):
        """Sec. V-B: heat flux densities range from 8 to 64 W/cm^2."""
        for die in (compute_die(), memory_die(), mixed_die()):
            low, high = die.power_density_range("peak")
            assert high <= 64.0 + 1e-9
            assert low >= 5.0 - 1e-9
        assert compute_die().power_density_range("peak")[1] == pytest.approx(64.0)

    def test_compute_die_is_hotter_than_memory_die(self):
        assert compute_die().total_power("peak") > memory_die().total_power("peak")

    def test_mixed_die_orientations_mirror_power(self):
        bottom = mixed_die(cores_at_bottom=True)
        top = mixed_die(cores_at_bottom=False)
        assert bottom.total_power("peak") == pytest.approx(top.total_power("peak"))

    def test_core_count(self):
        assert len(compute_die().blocks_of_kind("core")) == 8
        assert len(mixed_die().blocks_of_kind("core")) == 4


class TestArchitectures:
    def test_three_architectures_available(self):
        assert architecture_names() == ["arch1", "arch2", "arch3"]
        assert set(ARCHITECTURES) == {"arch1", "arch2", "arch3"}

    def test_unknown_architecture_raises(self):
        with pytest.raises(ValueError):
            get_architecture("arch9")

    def test_peak_power_exceeds_average(self):
        for name in architecture_names():
            architecture = get_architecture(name)
            assert architecture.total_power("peak") > architecture.total_power(
                "average"
            )

    def test_flux_maps_shapes(self, arch1):
        top, bottom = arch1.flux_maps(20, 22, "peak")
        assert top.shape == (22, 20)
        assert bottom.shape == (22, 20)

    def test_cavity_power_matches_stack_power(self, arch1, config):
        cavity = arch1.cavity("peak", config=config, n_lanes=4, n_cols=30)
        assert cavity.total_power == pytest.approx(
            arch1.total_power("peak"), rel=0.05
        )

    def test_cavity_lane_count(self, arch1_cavity):
        assert arch1_cavity.n_lanes == 4
        assert arch1_cavity.n_physical_channels >= 110

    def test_arch3_has_stacked_hotspots(self):
        """Arch. 3 stacks the core bands, so its gradient exceeds Arch. 2's."""
        from repro.thermal.fdm import solve_structure

        gradients = {}
        for name in ("arch2", "arch3"):
            cavity = get_architecture(name).cavity("peak", n_lanes=4, n_cols=30)
            gradients[name] = solve_structure(cavity, n_points=121).thermal_gradient
        assert gradients["arch3"] > gradients["arch2"]
