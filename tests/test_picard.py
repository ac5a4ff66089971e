"""Temperature-dependent coolant mode: Picard loop, specs, counters, CLI.

Covers the acceptance contract of the coolant-model feature:

* the default (``constant``) path is bit-identical to the pre-feature
  solver output for both model families (same arrays, same metadata);
* the ``water`` model converges on the paper's scenarios within the
  iteration cap and reports ``n_picard_iterations`` in metadata;
* a forced-divergence case exercises the constant-property fallback and
  its metadata flag;
* every registered scenario's spec_hash is pinned as a frozen constant
  (the omit-when-default serialization regression guard);
* the ``n_picard_iterations`` / ``n_picard_fallbacks`` counters flow
  through the engine, the session and ``repro run --coolant-model``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Session
from repro.cli import main
from repro.core.engine import COUNTER_KEYS, EvaluationEngine
from repro.core.picard import PicardSettings, picard_iterate
from repro.exec.base import session_counters
from repro.ice.solver import SteadyStateSolver
from repro.scenarios import ScenarioSpec, SolverSpec, get_scenario, scenario_names
from repro.thermal.fdm import solve_structure
from repro.thermal.properties import (
    WATER,
    WATER_COOLANT_MODEL,
    CoolantModel,
    get_coolant_model,
)

#: Frozen spec hashes of every registered scenario.  These are load-bearing
#: resume keys: campaign stores, the serve queue and the result cache all
#: key on them, so ANY change here silently orphans stored results.  New
#: optional spec fields must serialize omit-when-default (declared with
#: ``repro.spec_codec.late_field``) precisely so this table never has to
#: change.
FROZEN_SPEC_HASHES = {
    "test-a": "3b6039f41b4c10fad766cf59f10b62a0f28774876ede7130c49bbbb50ecde40f",
    "test-b": "242ac01a8656c2b06fe942d275982b5c3ed7df94695607f6125e074dd0fd6d77",
    "niagara-arch1": "deb1a7fa7873829e15a91e4dbcf119c03b1fdbba8ce7a1fde1bacb9c4fc17223",
    "niagara-arch2": "74e750024134e57b28d6a1d6236a94a41f8ffde2d95c29d3696af07b726a82a4",
    "niagara-arch3": "806ec5f7d558d91d68da51426f86e6837d3b93a5fdf8237d027cd51a1fa7d8f1",
    "test-a-burst": "077c95c58cde7ffc55b58cc719e297221e98db4380cd12406f75a05578fdf2b1",
    "test-a-burst-rom": "9b6c215f7770c383a57787dec4eb2faf4c22cbb7321364255c9f894648ad7ed1",
    "niagara-arch1-dvfs": "92ed126f1c3a753d4493d6b7613f92071dd5894901fb876e9c7570d734d224df",
}


class TestFrozenSpecHashes:
    def test_every_registered_scenario_is_pinned(self):
        assert set(scenario_names()) == set(FROZEN_SPEC_HASHES)

    @pytest.mark.parametrize("name", sorted(FROZEN_SPEC_HASHES))
    def test_spec_hash_unchanged(self, name):
        assert get_scenario(name).spec_hash() == FROZEN_SPEC_HASHES[name]

    def test_new_optional_fields_are_omitted_at_default(self):
        payload = get_scenario("test-a").to_dict()
        assert "coolant_model" not in payload
        for knob in (
            "picard_tolerance_K",
            "picard_max_iterations",
            "picard_relaxation",
        ):
            assert knob not in payload["solver"]

    def test_non_default_fields_serialize_and_round_trip(self):
        spec = get_scenario("test-a").with_overrides(coolant_model="water")
        spec = spec.with_overrides(
            solver=SolverSpec(
                picard_tolerance_K=1e-6, picard_max_iterations=7
            )
        )
        payload = spec.to_dict()
        assert payload["coolant_model"] == "water"
        assert payload["solver"]["picard_tolerance_K"] == 1e-6
        assert payload["solver"]["picard_max_iterations"] == 7
        assert "picard_relaxation" not in payload["solver"]
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()
        assert rebuilt.spec_hash() != FROZEN_SPEC_HASHES["test-a"]


class TestSpecValidation:
    def test_unknown_coolant_model_rejected(self):
        with pytest.raises(ValueError, match="unknown coolant model"):
            get_scenario("test-a").with_overrides(coolant_model="glycol")

    def test_transient_plus_water_rejected(self):
        with pytest.raises(ValueError, match="steady-state only"):
            get_scenario("test-a-burst").with_overrides(coolant_model="water")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"picard_tolerance_K": 0.0},
            {"picard_tolerance_K": -1.0},
            {"picard_max_iterations": 0},
            {"picard_relaxation": 0.0},
            {"picard_relaxation": 1.5},
        ],
    )
    def test_bad_picard_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError, match=r"solver\.picard"):
            SolverSpec(**kwargs)

    def test_knobs_flow_into_picard_settings(self):
        solver = SolverSpec(
            picard_tolerance_K=1e-3, picard_max_iterations=4,
            picard_relaxation=0.5,
        )
        settings = PicardSettings.from_solver_spec(solver)
        assert settings.tolerance_K == 1e-3
        assert settings.max_iterations == 4
        assert settings.relaxation == 0.5


class TestOptimizeRejectsTemperatureDependentCoolant:
    """The design flow is constant-property; a water spec must not be
    optimized as if it were constant."""

    def water_spec(self):
        return get_scenario("test-a").with_overrides(coolant_model="water")

    def test_session_optimize_raises(self):
        with pytest.raises(ValueError, match="scenario.coolant_model.*'constant'"):
            Session().optimize(self.water_spec())

    def test_run_many_records_the_error(self):
        result = Session().run_many([self.water_spec()], action="optimize")
        record = result.records[0]
        assert record["status"] == "error"
        assert "coolant_model" in record["error"]

    def test_cli_exits_2(self, tmp_path, capsys):
        path = tmp_path / "water.json"
        self.water_spec().save(str(path))
        code = main(["optimize", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "coolant_model" in err


class TestPicardLoop:
    def test_converges_on_contraction(self):
        # x_{n+1} = 0.5 x_n + 1 -> fixed point 2.0
        def resolve(field):
            new = 0.5 * field + 1.0
            return new, new

        outcome = picard_iterate(
            "base", np.array([0.0]), resolve,
            PicardSettings(tolerance_K=1e-10, max_iterations=80),
        )
        assert outcome.converged and not outcome.fell_back
        assert outcome.residual_K <= 1e-10

    def test_cap_exhaustion_falls_back_to_base(self):
        def resolve(field):
            new = 0.5 * field + 1.0
            return ("sol", tuple(new)), new

        outcome = picard_iterate(
            "base", np.array([0.0]), resolve,
            PicardSettings(tolerance_K=1e-10, max_iterations=2),
        )
        assert not outcome.converged
        assert outcome.fell_back
        assert outcome.solution == "base"
        assert outcome.n_iterations == 2

    def test_growing_residual_trips_divergence_guard(self):
        def resolve(field):
            new = 3.0 * field + 1.0
            return "sol", new

        outcome = picard_iterate(
            "base", np.array([0.0]), resolve,
            PicardSettings(
                tolerance_K=1e-10, max_iterations=50, divergence_factor=10.0
            ),
        )
        assert outcome.diverged and outcome.fell_back
        assert outcome.solution == "base"
        assert outcome.n_iterations < 50

    def test_non_finite_iterate_diverges(self):
        def resolve(field):
            return "sol", np.full_like(field, np.nan)

        outcome = picard_iterate(
            "base", np.array([1.0]), resolve, PicardSettings()
        )
        assert outcome.diverged and outcome.fell_back

    def test_under_relaxation_damps_update(self):
        seen = []

        def resolve(field):
            seen.append(field.copy())
            return "sol", field + 2.0

        picard_iterate(
            "base", np.array([0.0]), resolve,
            PicardSettings(
                tolerance_K=1e-12, max_iterations=2, relaxation=0.25
            ),
        )
        # Second resolve sees only a quarter of the raw +2.0 step.
        assert seen[1][0] == pytest.approx(0.5)


class TestFDMConstantModeBitIdentical:
    @pytest.mark.parametrize("name", ["test-a", "niagara-arch1"])
    def test_constant_model_is_the_base_solve(self, name):
        spec = get_scenario(name)
        structure = spec.build_structure()
        base = solve_structure(structure, n_points=spec.grid.n_grid_points)
        const = solve_structure(
            structure,
            n_points=spec.grid.n_grid_points,
            coolant_model=get_coolant_model("constant"),
        )
        assert np.array_equal(base.temperatures, const.temperatures)
        assert np.array_equal(
            base.coolant_temperatures, const.coolant_temperatures
        )
        assert base.metadata == const.metadata
        assert "picard" not in const.metadata

    def test_constant_film_returns_base_coolant_object(self):
        model = get_coolant_model("constant")
        assert model.film(np.array([300.0, 320.0])) is model.base


class TestFDMWaterMode:
    @pytest.mark.parametrize("name", ["test-a", "test-b", "niagara-arch1"])
    def test_converges_within_cap(self, name):
        spec = get_scenario(name)
        structure = spec.build_structure()
        solution = solve_structure(
            structure,
            n_points=spec.grid.n_grid_points,
            coolant_model=WATER_COOLANT_MODEL,
        )
        picard = solution.metadata["picard"]
        assert picard["converged"] and not picard["fell_back"]
        assert 1 <= picard["n_iterations"] <= picard["max_iterations"]
        assert picard["residual_K"] <= picard["tolerance_K"]
        assert picard["coolant_model"] == "water"

    def test_water_changes_the_field_physically(self):
        # Warmer film -> higher k_f -> better heat transfer -> the peak
        # temperature drops relative to the 300 K constant-property run.
        spec = get_scenario("test-a")
        structure = spec.build_structure()
        base = solve_structure(structure, n_points=spec.grid.n_grid_points)
        water = solve_structure(
            structure,
            n_points=spec.grid.n_grid_points,
            coolant_model=WATER_COOLANT_MODEL,
        )
        delta = float(np.max(np.abs(water.temperatures - base.temperatures)))
        assert 1e-3 < delta < 5.0
        assert water.peak_temperature < base.peak_temperature

    def test_forced_divergence_falls_back_with_flag(self):
        spec = get_scenario("test-a")
        structure = spec.build_structure()
        base = solve_structure(structure, n_points=spec.grid.n_grid_points)
        forced = solve_structure(
            structure,
            n_points=spec.grid.n_grid_points,
            coolant_model=WATER_COOLANT_MODEL,
            picard=PicardSettings(tolerance_K=1e-12, max_iterations=1),
        )
        picard = forced.metadata["picard"]
        assert picard["fell_back"] and not picard["converged"]
        assert np.array_equal(forced.temperatures, base.temperatures)


class TestICECoolantModel:
    @staticmethod
    def _maps_equal(left, right):
        return (
            set(left.layer_maps) == set(right.layer_maps)
            and all(
                np.array_equal(left.layer_maps[k], right.layer_maps[k])
                for k in left.layer_maps
            )
            and all(
                np.array_equal(left.coolant_maps[k], right.coolant_maps[k])
                for k in left.coolant_maps
            )
        )

    @pytest.mark.parametrize("name", ["test-a", "niagara-arch1"])
    def test_constant_mode_bit_identical(self, name):
        stack = get_scenario(name).build_stack()
        base = SteadyStateSolver(stack).solve()
        const = SteadyStateSolver(
            stack, coolant_model=get_coolant_model("constant")
        ).solve()
        assert self._maps_equal(base, const)
        assert base.metadata == const.metadata

    @pytest.mark.parametrize("name", ["test-a", "niagara-arch1"])
    def test_water_converges_and_solves_refreshed_system(self, name):
        stack = get_scenario(name).build_stack()
        water = SteadyStateSolver(
            stack, coolant_model=WATER_COOLANT_MODEL
        ).solve()
        picard = water.metadata["picard"]
        assert picard["converged"] and not picard["fell_back"]
        # The reported residual is computed against the final
        # (temperature-dependent) matrix, not the base one.
        assert water.metadata["residual_norm"] < 1e-8

    def test_forced_divergence_falls_back(self):
        stack = get_scenario("test-a").build_stack()
        base = SteadyStateSolver(stack).solve()
        forced = SteadyStateSolver(
            stack,
            coolant_model=WATER_COOLANT_MODEL,
            picard=PicardSettings(tolerance_K=1e-12, max_iterations=1),
        ).solve()
        picard = forced.metadata["picard"]
        assert picard["fell_back"] and not picard["converged"]
        assert self._maps_equal(base, forced)

    def test_fdm_and_ice_agree_on_the_water_shift(self):
        # Cross-family check: both models should see a comparable
        # water-vs-constant peak shift on the same scenario.
        spec = get_scenario("test-a")
        structure = spec.build_structure()
        fdm_base = solve_structure(structure, n_points=spec.grid.n_grid_points)
        fdm_water = solve_structure(
            structure,
            n_points=spec.grid.n_grid_points,
            coolant_model=WATER_COOLANT_MODEL,
        )
        stack = spec.build_stack()
        ice_base = SteadyStateSolver(stack).solve()
        ice_water = SteadyStateSolver(
            stack, coolant_model=WATER_COOLANT_MODEL
        ).solve()
        fdm_shift = fdm_base.peak_temperature - fdm_water.peak_temperature
        ice_shift = ice_base.peak_temperature() - ice_water.peak_temperature()
        assert fdm_shift == pytest.approx(ice_shift, rel=0.25)


class TestCountersAndSession:
    def test_counter_keys_include_picard(self):
        assert "n_picard_iterations" in COUNTER_KEYS
        assert "n_picard_fallbacks" in COUNTER_KEYS
        stats = EvaluationEngine().stats()
        assert stats["n_picard_iterations"] == 0
        assert stats["n_picard_fallbacks"] == 0
        merged = EvaluationEngine.merge_stats(
            [{"n_picard_iterations": 2}, {"n_picard_iterations": 3,
                                          "n_picard_fallbacks": 1}]
        )
        assert merged["n_picard_iterations"] == 5
        assert merged["n_picard_fallbacks"] == 1

    def test_engine_counts_iterations_and_reset(self):
        spec = get_scenario("test-a")
        engine = EvaluationEngine()
        engine.solve(
            spec.build_structure(),
            n_points=spec.grid.n_grid_points,
            coolant_model=WATER_COOLANT_MODEL,
            picard=PicardSettings(),
        )
        assert engine.stats()["n_picard_iterations"] >= 1
        assert engine.stats()["n_picard_fallbacks"] == 0
        engine.solve(
            spec.build_structure(),
            n_points=spec.grid.n_grid_points,
            coolant_model=WATER_COOLANT_MODEL,
            picard=PicardSettings(tolerance_K=1e-12, max_iterations=1),
        )
        assert engine.stats()["n_picard_fallbacks"] == 1
        engine.reset_stats()
        assert engine.stats()["n_picard_iterations"] == 0
        assert engine.stats()["n_picard_fallbacks"] == 0

    def test_default_path_engine_cache_key_unchanged(self):
        # A constant-model session run must hit the cache entry a plain
        # run created (the Picard kwargs are only added when non-constant).
        spec = get_scenario("test-a")
        session = Session()
        session.run(spec)
        before = session_counters(session)["n_cache_hits"]
        session.run(spec.with_overrides(coolant_model="constant"))
        assert session_counters(session)["n_cache_hits"] == before + 1

    def test_session_counters_flow_for_both_families(self):
        spec = get_scenario("test-a").with_overrides(coolant_model="water")
        session = Session()
        fdm = session.run(spec)
        ice = session.run(spec, solver="ice")
        for result in (fdm, ice):
            picard = result.provenance["picard"]
            assert picard["converged"]
            assert picard["n_iterations"] >= 1
        counters = session_counters(session)
        assert counters["n_picard_iterations"] == (
            fdm.provenance["picard"]["n_iterations"]
            + ice.provenance["picard"]["n_iterations"]
        )
        assert counters["n_picard_fallbacks"] == 0


class TestCoolantModelCLI:
    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_run_with_water_reports_picard(self, capsys):
        code, out, _ = self.run_cli(
            capsys, "run", "test-a", "--coolant-model", "water", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        picard = payload["provenance"]["picard"]
        assert picard["coolant_model"] == "water"
        assert picard["converged"]

    def test_human_output_mentions_picard(self, capsys):
        code, out, _ = self.run_cli(
            capsys, "run", "test-a", "--coolant-model", "water"
        )
        assert code == 0
        assert "picard: water model" in out

    def test_unknown_model_is_exit_2(self, capsys):
        code, _, err = self.run_cli(
            capsys, "run", "test-a", "--coolant-model", "glycol"
        )
        assert code == 2
        assert err.startswith("error:")
        assert "unknown coolant model" in err


class TestCoolantModelObject:
    def test_registry(self):
        assert get_coolant_model("water") is WATER_COOLANT_MODEL
        assert get_coolant_model("constant").is_constant
        with pytest.raises(ValueError, match="unknown coolant model"):
            get_coolant_model("nope")

    def test_water_properties_near_table_values(self):
        model = WATER_COOLANT_MODEL
        temperature = np.array([300.0])
        assert model.mu(temperature)[0] == pytest.approx(8.5e-4, rel=0.05)
        assert model.k_f(temperature)[0] == pytest.approx(0.61, rel=0.02)
        assert model.rho(temperature)[0] == pytest.approx(997.0, rel=0.01)
        assert model.cp(temperature)[0] == pytest.approx(4180.0, rel=0.01)

    def test_film_state_consistency(self):
        state = WATER_COOLANT_MODEL.film(np.array([310.0, 340.0]))
        mu = np.asarray(state.dynamic_viscosity)
        assert mu[1] < mu[0]  # viscosity falls with temperature
        k = np.asarray(state.thermal_conductivity)
        assert k[1] > k[0]  # conductivity rises
        np.testing.assert_allclose(
            np.asarray(state.kinematic_viscosity),
            mu / np.asarray(state.density),
        )

    def test_clamping_bounds_extrapolation(self):
        model = WATER_COOLANT_MODEL
        cold = model.mu(np.array([100.0]))
        assert cold[0] == model.mu(np.array([model.t_min]))[0]
        hot = model.mu(np.array([1000.0]))
        assert hot[0] == model.mu(np.array([model.t_max]))[0]

    def test_constant_model_round_trip(self):
        model = CoolantModel(name="const", mode="constant", base=WATER)
        rebuilt = CoolantModel.from_dict(model.to_dict())
        assert rebuilt == model
