"""Tests of the declarative sweep specifications (repro.sweeps)."""

from __future__ import annotations

import pickle

import pytest

from repro.scenarios import GridSpec, ScenarioSpec, get_scenario
from repro.sweeps import (
    SweepAxis,
    SweepSpec,
    apply_field_overrides,
    expand_scenarios,
)


@pytest.fixture()
def small_base() -> ScenarioSpec:
    """A fast Test A base spec."""
    return get_scenario("test-a").with_overrides(
        grid=GridSpec(n_grid_points=61, n_lanes=1, n_rows=1, n_cols=20)
    )


class TestApplyFieldOverrides:
    def test_nested_field(self, small_base):
        spec = apply_field_overrides(
            small_base, {"workload.flux_w_per_cm2": 75.0}, name="x"
        )
        assert spec.workload.flux_w_per_cm2 == 75.0
        assert spec.name == "x"

    def test_params_field(self, small_base):
        spec = apply_field_overrides(
            small_base, {"params.flow_rate_per_channel": 8e-9}, name="x"
        )
        assert dict(spec.params)["flow_rate_per_channel"] == 8e-9

    def test_unknown_field_is_rejected(self, small_base):
        with pytest.raises(ValueError, match="unknown field"):
            apply_field_overrides(small_base, {"grid.bogus": 3}, name="x")

    def test_non_section_path_is_rejected(self, small_base):
        with pytest.raises(ValueError, match="not a section"):
            apply_field_overrides(small_base, {"workload.kind.deep": 3}, name="x")

    def test_validation_applies_per_point(self, small_base):
        with pytest.raises(ValueError, match="n_grid_points"):
            apply_field_overrides(small_base, {"grid.n_grid_points": 1}, name="x")


class TestExpansion:
    def test_grid_mode_is_cartesian_last_axis_fastest(self, small_base):
        sweep = SweepSpec(
            name="s",
            base=small_base,
            axes=(
                SweepAxis("workload.flux_w_per_cm2", (40.0, 60.0)),
                SweepAxis("grid.n_grid_points", (61, 81)),
            ),
        )
        specs = sweep.scenarios()
        assert len(specs) == 4
        assert [
            (s.workload.flux_w_per_cm2, s.grid.n_grid_points) for s in specs
        ] == [(40.0, 61), (40.0, 81), (60.0, 61), (60.0, 81)]

    def test_zip_mode_is_lockstep(self, small_base):
        sweep = SweepSpec(
            name="s",
            base=small_base,
            mode="zip",
            axes=(
                SweepAxis("workload.flux_w_per_cm2", (40.0, 60.0)),
                SweepAxis("grid.n_grid_points", (61, 81)),
            ),
        )
        specs = sweep.scenarios()
        assert [
            (s.workload.flux_w_per_cm2, s.grid.n_grid_points) for s in specs
        ] == [(40.0, 61), (60.0, 81)]

    def test_zip_mode_rejects_ragged_axes(self, small_base):
        with pytest.raises(ValueError, match="equal length"):
            SweepSpec(
                name="s",
                base=small_base,
                mode="zip",
                axes=(
                    SweepAxis("workload.flux_w_per_cm2", (40.0, 60.0, 80.0)),
                    SweepAxis("grid.n_grid_points", (61, 81)),
                ),
            )

    def test_explicit_overrides_cross_with_axes(self, small_base):
        sweep = SweepSpec(
            name="s",
            base=small_base,
            axes=(SweepAxis("workload.flux_w_per_cm2", (40.0, 60.0)),),
            overrides=({"grid.n_grid_points": 61}, {"grid.n_grid_points": 81}),
        )
        specs = sweep.scenarios()
        assert len(specs) == 4
        assert [s.grid.n_grid_points for s in specs] == [61, 81, 61, 81]

    def test_overrides_alone_define_the_expansion(self, small_base):
        sweep = SweepSpec(
            name="s",
            base=small_base,
            overrides=(
                {"workload.flux_w_per_cm2": 40.0},
                {"workload.flux_w_per_cm2": 90.0},
            ),
        )
        assert [s.workload.flux_w_per_cm2 for s in sweep.scenarios()] == [
            40.0,
            90.0,
        ]

    def test_names_are_deterministic_and_unique(self, small_base):
        sweep = SweepSpec(
            name="flux",
            base=small_base,
            axes=(SweepAxis("workload.flux_w_per_cm2", (40.0, 60.0), label="q"),),
        )
        names = sweep.scenario_names()
        assert names == ["flux/000-q=40", "flux/001-q=60"]
        assert names == sweep.scenario_names()  # pure / repeatable
        assert len(set(names)) == len(names)

    def test_expansion_is_deterministic(self, small_base):
        sweep = SweepSpec(
            name="s",
            base=small_base,
            axes=(SweepAxis("workload.flux_w_per_cm2", (40.0, 60.0)),),
        )
        first = [spec.spec_hash() for spec in sweep.scenarios()]
        second = [spec.spec_hash() for spec in sweep.scenarios()]
        assert first == second

    def test_no_axes_is_the_base_alone(self, small_base):
        specs = SweepSpec(name="one", base=small_base).scenarios()
        assert len(specs) == 1
        assert specs[0].workload == small_base.workload

    def test_name_axis_is_rejected(self, small_base):
        with pytest.raises(ValueError, match="name"):
            SweepSpec(
                name="s",
                base=small_base,
                axes=(SweepAxis("name", ("a", "b")),),
            )

    def test_duplicate_axis_fields_are_rejected(self, small_base):
        with pytest.raises(ValueError, match="repeat"):
            SweepSpec(
                name="s",
                base=small_base,
                axes=(
                    SweepAxis("grid.n_grid_points", (61,)),
                    SweepAxis("grid.n_grid_points", (81,)),
                ),
            )

    def test_bad_axis_value_fails_at_construction(self, small_base):
        with pytest.raises(ValueError, match="n_grid_points"):
            SweepSpec(
                name="s",
                base=small_base,
                axes=(SweepAxis("grid.n_grid_points", (61, 1)),),
            )


class TestSerialization:
    def test_json_round_trip(self, small_base):
        sweep = SweepSpec(
            name="s",
            base=small_base,
            axes=(
                SweepAxis("workload.flux_w_per_cm2", (40.0, 60.0), label="q"),
                SweepAxis("solver.backend", ("dense", "sparse-lu")),
            ),
            overrides=({"grid.n_cols": 10},),
            description="round trip",
        )
        assert SweepSpec.from_json(sweep.to_json()) == sweep

    def test_save_load(self, small_base, tmp_path):
        sweep = SweepSpec(
            name="s",
            base=small_base,
            axes=(SweepAxis("workload.flux_w_per_cm2", (40.0,)),),
        )
        path = tmp_path / "sweep.json"
        sweep.save(path)
        loaded = SweepSpec.load(path)
        assert loaded == sweep
        assert loaded.scenario_names() == sweep.scenario_names()

    def test_base_accepts_registered_name(self):
        sweep = SweepSpec.from_dict(
            {
                "name": "s",
                "base": "test-a",
                "axes": [
                    {"field": "workload.flux_w_per_cm2", "values": [40.0]}
                ],
            }
        )
        assert sweep.base == get_scenario("test-a")

    def test_unknown_sweep_key_is_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            SweepSpec.from_dict({"name": "s", "base": "test-a", "bogus": 1})

    def test_unknown_axis_key_is_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            SweepAxis.from_dict({"field": "grid.n_cols", "value": [3]})

    def test_pickle_round_trip(self, small_base):
        sweep = SweepSpec(
            name="s",
            base=small_base,
            axes=(SweepAxis("workload.flux_w_per_cm2", (40.0, 60.0)),),
        )
        assert pickle.loads(pickle.dumps(sweep)) == sweep


class TestExpandScenarios:
    def test_sweep_spec(self, small_base):
        sweep = SweepSpec(
            name="s",
            base=small_base,
            axes=(SweepAxis("workload.flux_w_per_cm2", (40.0, 60.0)),),
        )
        assert [s.name for s in expand_scenarios(sweep)] == sweep.scenario_names()

    def test_sweep_mapping(self, small_base):
        specs = expand_scenarios(
            {
                "name": "s",
                "base": small_base.to_dict(),
                "axes": [
                    {"field": "workload.flux_w_per_cm2", "values": [40.0, 60.0]}
                ],
            }
        )
        assert len(specs) == 2

    def test_sweep_file(self, small_base, tmp_path):
        sweep = SweepSpec(
            name="s",
            base=small_base,
            axes=(SweepAxis("workload.flux_w_per_cm2", (40.0,)),),
        )
        path = tmp_path / "sweep.json"
        sweep.save(path)
        assert [s.name for s in expand_scenarios(path)] == sweep.scenario_names()

    def test_scenario_file_is_single_scenario_campaign(self, small_base, tmp_path):
        path = tmp_path / "scenario.json"
        small_base.save(path)
        specs = expand_scenarios(path)
        assert [spec.name for spec in specs] == [small_base.name]

    def test_registered_name(self):
        assert [s.name for s in expand_scenarios("test-a")] == ["test-a"]

    def test_sequence_of_scenarios(self, small_base):
        specs = expand_scenarios(["test-a", small_base])
        assert [s.name for s in specs] == ["test-a", small_base.name]

    def test_malformed_file_is_a_value_error_naming_it(self, tmp_path):
        from repro.api import run_many

        path = tmp_path / "malformed.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="malformed.json: not valid JSON"):
            run_many(str(path))


class TestMappingAxisValues:
    def test_mapping_valued_axis_round_trips(self, small_base):
        """Whole-section axis values (mappings) expand and serialize."""
        sweep = SweepSpec(
            name="s",
            base=small_base,
            axes=(
                SweepAxis(
                    "grid",
                    (
                        {"n_grid_points": 61, "n_lanes": 1, "n_rows": 1, "n_cols": 20},
                        {"n_grid_points": 81, "n_lanes": 1, "n_rows": 1, "n_cols": 40},
                    ),
                ),
            ),
        )
        specs = sweep.scenarios()
        assert [s.grid.n_grid_points for s in specs] == [61, 81]
        assert [s.grid.n_cols for s in specs] == [20, 40]
        assert SweepSpec.from_json(sweep.to_json()) == sweep

    def test_design_list_axis_round_trips(self, small_base):
        sweep = SweepSpec(
            name="s",
            base=small_base,
            axes=(
                SweepAxis("design", ([[30e-6, 40e-6]], [[50e-6, 60e-6]])),
            ),
        )
        specs = sweep.scenarios()
        assert specs[0].design == ((30e-6, 40e-6),)
        assert specs[1].design == ((50e-6, 60e-6),)
        assert SweepSpec.from_json(sweep.to_json()) == sweep

    def test_python_and_json_written_sweeps_compare_equal(self, small_base):
        """Tuples in Python axes == lists from JSON after canonicalization."""
        python_side = SweepSpec(
            name="s",
            base=small_base,
            axes=(SweepAxis("workload.flux_w_per_cm2", (40.0, 60.0)),),
            overrides=({"grid.n_cols": 10},),
        )
        json_side = SweepSpec.from_dict(
            {
                "name": "s",
                "base": small_base.to_dict(),
                "axes": [
                    {"field": "workload.flux_w_per_cm2", "values": [40.0, 60.0]}
                ],
                "overrides": [{"grid.n_cols": 10}],
            }
        )
        assert python_side == json_side
