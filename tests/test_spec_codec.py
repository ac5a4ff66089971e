"""Tests of the spec codec (repro.spec_codec) and the validation it owns.

The frozen forms themselves are pinned in ``tests/test_frozen_forms.py``
and ``tests/test_picard.py::TestFrozenSpecHashes``; this module covers
construction-time coercion: non-finite numbers, non-integral or boolean
integers, non-boolean booleans, non-string strings and the dotted paths of
nested-spec errors.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from repro.scenarios import (
    GridSpec,
    OptimizerSpec,
    ScenarioSpec,
    SolverSpec,
    WorkloadSpec,
    get_scenario,
)
from repro.spec_codec import content_hash
from repro.sweeps import SweepAxis, SweepSpec
from repro.transient import PolicySpec, TraceSpec, TransientSpec

NAN = float("nan")
INF = float("inf")

#: (dotted field named by the error, builder taking the bad value)
NON_FINITE_FIELDS = [
    ("transient.threshold_K", lambda v: TransientSpec(threshold_K=v)),
    (
        "transient.initial_temperature_K",
        lambda v: TransientSpec(initial_temperature_K=v),
    ),
    ("transient.duration_s", lambda v: TransientSpec(duration_s=v)),
    ("optimizer.tolerance", lambda v: OptimizerSpec(tolerance=v)),
    (
        "optimizer.max_pressure_drop_Pa",
        lambda v: OptimizerSpec(max_pressure_drop_Pa=v),
    ),
    ("solver.picard_tolerance_K", lambda v: SolverSpec(picard_tolerance_K=v)),
    ("workload.flux_w_per_cm2", lambda v: WorkloadSpec(flux_w_per_cm2=v)),
    ("policy.scale", lambda v: PolicySpec(scale=v)),
    (
        "trace.high",
        lambda v: TraceSpec(layer="top_die", kind="periodic", period_s=0.2, high=v),
    ),
    ("trace.values[1]", lambda v: TraceSpec(layer="top_die", times=(0.0, 0.1), values=(1.0, v))),
    (
        "scenario.params.inlet_temperature",
        lambda v: get_scenario("test-a").with_params(inlet_temperature=v),
    ),
    ("scenario.design[0][1]", lambda v: get_scenario("test-a").with_design([(1e-4, v)])),
    ("grid.n_cols", lambda v: GridSpec(n_cols=v)),
    ("axis.values[1]", lambda v: SweepAxis("workload.flux_w_per_cm2", (40.0, v))),
]


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", [NAN, INF], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "path, build", NON_FINITE_FIELDS, ids=[path for path, _ in NON_FINITE_FIELDS]
    )
    def test_rejected_at_construction_naming_the_field(self, path, build, value):
        with pytest.raises(ValueError, match=re.escape(path)):
            build(value)

    def test_rejected_from_json_text(self):
        payload = get_scenario("test-a").to_dict()
        text = json.dumps(payload).replace('"flux_w_per_cm2": 50.0', '"flux_w_per_cm2": NaN')
        assert "NaN" in text
        with pytest.raises(ValueError, match=r"workload\.flux_w_per_cm2 must be finite"):
            ScenarioSpec.from_json(text)

    def test_sweep_override_values(self):
        with pytest.raises(ValueError, match=re.escape("sweep.overrides[0].grid.n_cols")):
            SweepSpec(name="s", base="test-a", overrides=({"grid.n_cols": INF},))

    def test_content_hash_refuses_non_json_floats(self):
        with pytest.raises(ValueError):
            content_hash({"x": math.nan})


class TestStringFields:
    def test_null_description_is_rejected(self):
        with pytest.raises(ValueError, match=r"scenario\.description must be a string"):
            ScenarioSpec.from_dict({"name": "x", "description": None})

    def test_null_axis_label_is_rejected(self):
        with pytest.raises(ValueError, match=r"axis\.label must be a string"):
            SweepAxis("grid.n_cols", (10, 20), label=None)

    def test_null_sweep_description_is_rejected(self):
        with pytest.raises(ValueError, match=r"sweep\.description must be a string"):
            SweepSpec(name="s", base="test-a", description=None)

    def test_non_string_coolant_model_is_rejected(self):
        with pytest.raises(ValueError, match=r"scenario\.coolant_model must be a string"):
            get_scenario("test-a").with_overrides(coolant_model=1)


class TestNestedSpecs:
    def test_unknown_fields_name_the_dotted_path(self):
        with pytest.raises(
            ValueError, match=r"^scenario\.transient: unknown field\(s\) \['bogus'\]"
        ):
            ScenarioSpec.from_dict({"name": "x", "transient": {"bogus": 1}})
        with pytest.raises(ValueError, match=r"^transient\.policy: unknown field\(s\) \['kindd'\]"):
            TransientSpec.from_dict({"policy": {"kindd": "constant"}})
        with pytest.raises(ValueError, match=r"^sweep\.axes\[0\]: unknown field\(s\) \['value'\]"):
            SweepSpec.from_dict(
                {"name": "s", "base": "test-a", "axes": [{"field": "grid.n_cols", "value": [3]}]}
            )

    def test_mappings_and_instances_build_equal_specs(self):
        spec = get_scenario("niagara-arch1")
        rebuilt = ScenarioSpec(
            name=spec.name,
            description=spec.description,
            workload=spec.workload.to_dict(),
            grid=spec.grid.to_dict(),
            solver=spec.solver.to_dict(),
            optimizer=spec.optimizer.to_dict(),
        )
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()

    def test_wrong_type_names_the_field(self):
        with pytest.raises(
            ValueError, match=r"scenario\.grid must be a GridSpec \(or mapping\), got int"
        ):
            ScenarioSpec(name="x", grid=3)
        with pytest.raises(ValueError, match=re.escape("transient.traces[0] must be a TraceSpec")):
            TransientSpec(traces=("top_die",))

    def test_picard_ranges_come_from_picard_settings(self):
        with pytest.raises(ValueError, match=r"^solver\.picard relaxation must be in \(0, 1\]"):
            SolverSpec(picard_relaxation=1.5)


class TestBooleanFields:
    def test_string_is_not_a_boolean(self):
        with pytest.raises(
            ValueError, match=r"optimizer\.shared_profile must be a boolean, got 'false'"
        ):
            OptimizerSpec(shared_profile="false")

    def test_string_is_rejected_from_a_scenario_mapping(self):
        payload = get_scenario("test-a").to_dict()
        payload["optimizer"]["enforce_equal_pressure"] = "no"
        with pytest.raises(
            ValueError, match=r"optimizer\.enforce_equal_pressure must be a boolean"
        ):
            ScenarioSpec.from_dict(payload)

    def test_numpy_booleans_are_booleans(self):
        assert OptimizerSpec(shared_profile=np.bool_(True)).shared_profile is True


class TestIntegerFields:
    def test_non_integral_number_is_rejected(self):
        with pytest.raises(
            ValueError, match=r"grid\.n_grid_points must be an integer, got 241\.9"
        ):
            GridSpec(n_grid_points=241.9)

    def test_integral_floats_and_numpy_integers_are_integers(self):
        assert GridSpec(n_grid_points=40.0).n_grid_points == 40
        assert GridSpec(n_grid_points=np.int64(40)).n_grid_points == 40
        assert type(GridSpec(n_grid_points=40.0).n_grid_points) is int

    def test_boolean_is_not_an_integer(self):
        with pytest.raises(
            ValueError, match=r"^grid\.n_lanes must be an integer, got True$"
        ):
            GridSpec(n_lanes=True)
        with pytest.raises(
            ValueError, match=r"^optimizer\.n_segments must be an integer, got True$"
        ):
            OptimizerSpec(n_segments=True)

    def test_numpy_boolean_is_not_an_integer(self):
        with pytest.raises(ValueError, match=r"^grid\.n_lanes must be an integer"):
            GridSpec(n_lanes=np.bool_(True))

    def test_boolean_is_rejected_from_a_scenario_mapping(self):
        payload = get_scenario("test-a").to_dict()
        payload["grid"]["n_grid_points"] = True
        with pytest.raises(
            ValueError, match=r"^grid\.n_grid_points must be an integer, got True$"
        ):
            ScenarioSpec.from_dict(payload)

    def test_sweep_axis_of_non_integral_values_is_rejected(self):
        with pytest.raises(ValueError, match=r"grid\.n_grid_points must be an integer"):
            SweepSpec(
                name="s",
                base="test-a",
                axes=(SweepAxis("grid.n_grid_points", (40.0, 40.5)),),
            )
