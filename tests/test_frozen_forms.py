"""Frozen plain-data forms of specs whose late fields are set.

``tests/test_picard.py::TestFrozenSpecHashes`` pins the registered
scenarios, where every late-added field holds its default and is omitted.
This module pins the other side of the omit-when-default rule: specs that
set the late fields (Picard knobs, ``coolant_model``, axis labels), carry
the irregular encodings (``params``, ``design``, sweep ``overrides``) or
exercise every transient sub-spec.  The constants were computed before the
spec codec replaced the hand-written ``to_dict`` methods; campaign stores,
the result cache and the serve queue key on them, so any change orphans
stored results.
"""

from __future__ import annotations

import hashlib
import json

from repro.exec.base import CampaignTask
from repro.ml.active import physical_key
from repro.scenarios import ScenarioSpec, SolverSpec, get_scenario
from repro.serve.queue import job_hash
from repro.sweeps import SweepAxis, SweepSpec
from repro.transient import PolicySpec, RomSpec, TraceSpec, TransientSpec


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _picard_water_spec() -> ScenarioSpec:
    return get_scenario("niagara-arch1").with_overrides(
        coolant_model="water",
        solver=SolverSpec(
            picard_tolerance_K=1e-6,
            picard_max_iterations=7,
            picard_relaxation=0.5,
        ),
    )


def _params_design_spec() -> ScenarioSpec:
    spec = get_scenario("test-a").with_params(
        flow_rate_per_channel=8e-9, inlet_temperature=305.0
    )
    spec = spec.with_design([(1.0e-4, 8.0e-5, 6.0e-5)])
    return spec.with_overrides(description="params and design pinned")


def _transient_spec() -> ScenarioSpec:
    return get_scenario("test-a-burst").with_overrides(
        transient=TransientSpec(
            duration_s=0.4,
            time_step_s=0.01,
            traces=(
                TraceSpec(
                    layer="top_die",
                    times=(0.0, 0.1, 0.3),
                    values=(80.0, 20.0, 60.0),
                ),
                TraceSpec(
                    layer="bottom_die",
                    kind="periodic",
                    period_s=0.2,
                    duty=0.25,
                    high=40.0,
                    low=5.0,
                ),
            ),
            policy=PolicySpec(
                kind="proportional",
                control_interval_s=0.05,
                setpoint_K=330.0,
                gain_per_K=0.1,
            ),
            store_every=4,
            initial_temperature_K=310.0,
            threshold_K=332.0,
            rom=RomSpec(mode="auto", order=24),
        )
    )


def _zip_sweep() -> SweepSpec:
    return SweepSpec(
        name="pinned-zip",
        base="test-a",
        mode="zip",
        axes=(
            SweepAxis("workload.flux_w_per_cm2", (40.0, 60.0), label="flux"),
            SweepAxis("grid.n_grid_points", (61, 81)),
        ),
        overrides=(
            {"params.flow_rate_per_channel": 8e-9},
            {"grid.n_cols": 20, "optimizer.multistart": 2},
        ),
        description="zip sweep with a labelled axis and explicit overrides",
    )


class TestScenarioForms:
    def test_picard_knobs_and_water_coolant(self):
        spec = _picard_water_spec()
        assert spec.spec_hash() == PICARD_WATER_HASH
        assert _sha(spec.to_json()) == PICARD_WATER_JSON

    def test_params_and_design(self):
        spec = _params_design_spec()
        assert spec.spec_hash() == PARAMS_DESIGN_HASH
        assert _sha(spec.to_json()) == PARAMS_DESIGN_JSON

    def test_transient_with_every_sub_spec(self):
        spec = _transient_spec()
        assert spec.spec_hash() == TRANSIENT_HASH
        assert _sha(spec.to_json()) == TRANSIENT_JSON


class TestSweepForm:
    def test_to_dict(self):
        sweep = _zip_sweep()
        payload = sweep.to_dict()
        assert {key: value for key, value in payload.items() if key != "base"} == {
            "name": "pinned-zip",
            "description": "zip sweep with a labelled axis and explicit overrides",
            "axes": [
                {
                    "field": "workload.flux_w_per_cm2",
                    "values": [40.0, 60.0],
                    "label": "flux",
                },
                {"field": "grid.n_grid_points", "values": [61, 81]},
            ],
            "mode": "zip",
            "overrides": [
                {"params.flow_rate_per_channel": 8e-9},
                {"grid.n_cols": 20, "optimizer.multistart": 2},
            ],
        }
        assert _sha(json.dumps(payload, sort_keys=True)) == SWEEP_DICT
        assert _sha(sweep.to_json()) == SWEEP_JSON

    def test_expanded_names(self):
        assert [spec.name for spec in _zip_sweep().scenarios()] == SWEEP_NAMES


class TestResumeKeys:
    def test_task_keys(self):
        sweep = _zip_sweep()
        keys = [
            CampaignTask(index=i, spec=spec).key()
            for i, spec in enumerate(sweep.scenarios())
        ]
        assert keys == SWEEP_TASK_KEYS
        spec = _picard_water_spec()
        assert CampaignTask(0, spec, action="optimize").key() == OPTIMIZE_TASK_KEY
        assert CampaignTask(0, spec, solver="ice").key() == ICE_TASK_KEY

    def test_physical_keys(self):
        assert physical_key(_picard_water_spec()) == PICARD_PHYSICAL_KEY
        assert physical_key(_transient_spec()) == TRANSIENT_PHYSICAL_KEY

    def test_job_hashes(self):
        assert job_hash("sweep", SWEEP_TASK_KEYS) == SWEEP_JOB_HASH
        assert job_hash("run", SWEEP_TASK_KEYS[:1]) == RUN_JOB_HASH


PICARD_WATER_HASH = "a6ced56c1a08d0df85c161b97928766101341473fc7471a54af5115f0407974a"
PICARD_WATER_JSON = "07bcc323402a29eae0f9d3d1634e16d847a3cc4042cba40a13bcf3b7fa9b030d"
PARAMS_DESIGN_HASH = "18c115890c34f8bb71b42430701f8e36f57e05b616a308463378597b613a8e14"
PARAMS_DESIGN_JSON = "a57eb33b1b10c674af0e09b5943f3c1034478ebc42740d34d2fc2ac805ff6c63"
TRANSIENT_HASH = "0d0b0b903a2d7d1c38bf77e3f9c2c110841adc19d0b653462b37fc7ab3736ce9"
TRANSIENT_JSON = "fa295afe26f7564bf2aab1c4f3829cb1535d3003bcfd3232bbc3214a4da17868"
SWEEP_DICT = "e3cb76e099f1392c9badd08d2bac10fc401c745189c345a28da7991ef18f2de7"
SWEEP_JSON = "659074f96887c9d9af74f7acfc8a3335e8cec1cd44ed2d0f447c8228abc7f138"
SWEEP_NAMES = [
    "pinned-zip/000-flux=40_n_grid_points=61_case0",
    "pinned-zip/001-flux=40_n_grid_points=61_case1",
    "pinned-zip/002-flux=60_n_grid_points=81_case0",
    "pinned-zip/003-flux=60_n_grid_points=81_case1",
]
SWEEP_TASK_KEYS = [
    "6d708658b5f04b238e6275c859d8f1b78748d25ae9e10abc21e813fd3a4dc5f3",
    "cbea4c46a752dfc4564152ad8fd12963c23f4bba04860c669d14b7045f9aaa36",
    "da5ab4f9b550e66512e9b66fa6b18630bd629a88e94fbaa260b4f025ffb865d5",
    "56b3d86e9f25c1bfcc6222d19a7d9e7172c8ab34f2c8544c296294ee54a59f3d",
]
OPTIMIZE_TASK_KEY = "b466a5d85461ea1d3cafc19022ccce44a57f56e3b151a584d7d86d4c559111ba"
ICE_TASK_KEY = "124b2801e6b610770f0c4a2b1fc30fa3638bc3ddeaff5c8a60c15748c1f5ab53"
PICARD_PHYSICAL_KEY = "5d1cf10ea20f591eca397b0bf82cdf23f12fbb64dd141fbb51cf9c2de5dc63c5"
TRANSIENT_PHYSICAL_KEY = "d1dd520ebe12e424bced386e5b6a0452f1dbcfedd4e1607ae3adb5f8ce7a6778"
SWEEP_JOB_HASH = "02289f3b4938cea096e791115aec02cc01c6d3ea1229a41fce67389e875bbbdc"
RUN_JOB_HASH = "04521877ea292bf87495e02e3c603e8bb55cd510bc7f189d8da7e4026b23d4ec"
