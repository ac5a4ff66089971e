"""The Krylov reduced-order transient tier: accuracy, lifetime, MPC.

Covers the reduced-order acceptance criteria:

* property-based (Hypothesis) comparison of ROM vs full-solver
  trajectories across randomized traces, orders and grid sizes, with the
  observed peak-temperature error tied to the spec's ``rom.tolerance``
  contract (a basis spanning the whole state space must agree to
  round-off; truncated bases must agree to the measured error the engine
  itself reports);
* ``mode: off`` stays bit-identical to the full path (the PR 5 contract);
* the reduced path is bit-identical run to run, each run rebuilding its
  basis;
* the block Krylov build: an orthonormal basis of the expected order on
  the Test A burst and a Niagara arch1 ROM, one ``(n, k)`` solve per
  block with the last block clipped to the room left in the basis;
* model lifetime: no basis outlives the run that built it, and ROM
  sweeps give equal results through the serial, thread and process
  executors;
* one stack, one assembly and one flow-parametric model per run: a
  policy that changes the flow builds one stack, one assembled system and
  one basis, serves every scale from them by flow writes and the affine
  flow split, and factorizes only at the scales where full steps run; a
  model built at one flow tracks full integration at flows from 0.5x to
  2x, also when the run's initial scale is not 1;
* engine counters (``n_rom_builds`` / ``n_rom_steps``) through
  ``COUNTER_KEYS``, the Session and campaign summaries;
* the MPC policy: planning picks the cheapest feasible candidate, beats
  no planner degradation, and rides the reduced rollouts.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.krylov import krylov_basis
from test_serve_service import physics
from repro.core.engine import COUNTER_KEYS
from repro.core.rom import build_reduced_model
from repro.ice import AssembledSystem, TransientSolver
from repro.policies import ModelPredictiveFlowPolicy, policy_from_spec
import repro.transient_engine as transient_engine
from repro.scenarios import (
    GridSpec,
    ScenarioSpec,
    SolverSpec,
    WorkloadSpec,
    get_scenario,
)
from repro.transient import (
    ROM_AUTO_MIN_STEPS,
    PolicySpec,
    RomSpec,
    TraceSpec,
    TransientSpec,
)
from repro.thermal.backends import SparseLUBackend
from repro.transient_engine import simulate_transient


def rom_scenario(
    name="tiny-rom",
    n_cols=12,
    duration=0.2,
    time_step=0.01,
    period=0.08,
    high=120.0,
    low=20.0,
    rom=None,
    policy=None,
    store_every=2,
):
    """A fast single-channel transient scenario with a configurable rom block."""
    if policy is None:
        policy = PolicySpec(kind="constant", control_interval_s=0.05)
    return ScenarioSpec(
        name=name,
        workload=WorkloadSpec(kind="test-a"),
        grid=GridSpec(n_grid_points=61, n_lanes=1, n_rows=1, n_cols=n_cols),
        solver=SolverSpec(simulator="ice"),
        transient=TransientSpec(
            duration_s=duration,
            time_step_s=time_step,
            traces=(
                TraceSpec(
                    layer="top_die",
                    kind="periodic",
                    period_s=period,
                    duty=0.5,
                    high=high,
                    low=low,
                ),
            ),
            policy=policy,
            store_every=store_every,
            threshold_K=320.0,
            rom=rom if rom is not None else RomSpec(),
        ),
    )


# -- spec surface ------------------------------------------------------------


class TestRomSpec:
    def test_round_trip(self):
        rom = RomSpec(mode="auto", order=32, tolerance=1e-8, check_every=7)
        assert RomSpec.from_dict(rom.to_dict()) == rom

    def test_defaults_off(self):
        spec = rom_scenario()
        assert spec.transient.rom.mode == "off"
        assert not spec.transient.rom_active

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mode="sometimes"),
            dict(order=0),
            dict(tolerance=0.0),
            dict(tolerance=1.5),
            dict(check_every=-1),
        ],
    )
    def test_rejects_malformed(self, kwargs):
        with pytest.raises(ValueError):
            RomSpec(**kwargs)

    def test_auto_activates_on_long_runs_only(self):
        long_run = rom_scenario(
            duration=ROM_AUTO_MIN_STEPS * 0.01, rom=RomSpec(mode="auto")
        )
        short_run = rom_scenario(
            duration=(ROM_AUTO_MIN_STEPS - 1) * 0.01, rom=RomSpec(mode="auto")
        )
        assert long_run.transient.rom_active
        assert not short_run.transient.rom_active

    def test_rom_block_round_trips_through_scenario_json(self):
        spec = rom_scenario(rom=RomSpec(mode="rom", order=24))
        recovered = ScenarioSpec.from_dict(spec.to_dict())
        assert recovered.transient.rom == spec.transient.rom

    def test_spec_hash_sees_rom_block(self):
        off = rom_scenario()
        on = rom_scenario(rom=RomSpec(mode="rom"))
        assert off.spec_hash() != on.spec_hash()


# -- accuracy: ROM vs full solver -------------------------------------------


class TestRomAccuracy:
    def test_full_order_basis_is_near_exact(self):
        # order >= n_unknowns: the Krylov space is the full space, so the
        # reduced trajectory reproduces the full one to round-off.
        spec = rom_scenario(n_cols=8)
        n = 5 * 8  # 5 layers x n_cols cells
        full = simulate_transient(spec)
        reduced = simulate_transient(
            replace(
                spec,
                transient=replace(
                    spec.transient, rom=RomSpec(mode="rom", order=n)
                ),
            )
        )
        assert np.max(
            np.abs(full.peak_history_K - reduced.peak_history_K)
        ) < 1e-6
        assert reduced.metrics["rom_peak_abs_err_K"] < 1e-6
        assert reduced.metrics["rom_order"] <= n

    @settings(max_examples=10, deadline=None)
    @given(
        n_cols=st.integers(min_value=6, max_value=14),
        order=st.integers(min_value=20, max_value=80),
        high=st.floats(min_value=40.0, max_value=200.0),
        low=st.floats(min_value=5.0, max_value=39.0),
        period_steps=st.integers(min_value=4, max_value=12),
    )
    def test_rom_tracks_full_peak_trajectory(
        self, n_cols, order, high, low, period_steps
    ):
        # Randomized traces, orders and grids: the engine's own measured
        # error (one full reference step per checkpoint) must bound the
        # true trajectory error up to the tolerance contract, and a
        # generous absolute bound holds throughout.
        tolerance = 1e-9
        spec = rom_scenario(
            n_cols=n_cols,
            period=period_steps * 0.01,
            high=high,
            low=low,
            rom=RomSpec(mode="rom", order=order, tolerance=tolerance),
        )
        full = simulate_transient(
            replace(spec, transient=replace(spec.transient, rom=RomSpec()))
        )
        reduced = simulate_transient(spec)
        observed = float(
            np.max(np.abs(full.peak_history_K - reduced.peak_history_K))
        )
        measured = reduced.metrics["rom_peak_abs_err_K"]
        # Tolerance-tied: the deflation threshold bounds how much basis
        # truncation is allowed, so with these small systems the reduced
        # trajectory stays within a small multiple of round-off of the
        # full one -- and the self-reported error must be of the same
        # order as the true error, never wildly optimistic.
        bound = max(1e-5, tolerance * 1e4)
        assert observed <= bound
        assert measured <= bound
        assert reduced.metrics["rom_order"] <= order

    def test_mode_off_is_bit_identical_to_full_path(self):
        spec = rom_scenario()
        explicit_off = replace(
            spec, transient=replace(spec.transient, rom=RomSpec(mode="off"))
        )
        a = simulate_transient(spec)
        b = simulate_transient(explicit_off)
        assert np.array_equal(a.peak_history_K, b.peak_history_K)
        assert np.array_equal(a.step_times_s, b.step_times_s)
        assert "rom_order" not in a.metrics
        assert "rom_order" not in b.metrics
        assert "rom" not in a.metadata

    def test_reduced_with_reactive_policy_switches_flow(self):
        policy = PolicySpec(
            kind="bang-bang",
            threshold_K=315.0,
            high_scale=2.0,
            control_interval_s=0.05,
        )
        spec = rom_scenario(policy=policy, rom=RomSpec(mode="rom", order=60))
        full = simulate_transient(
            replace(spec, transient=replace(spec.transient, rom=RomSpec()))
        )
        reduced = simulate_transient(spec)
        assert np.array_equal(reduced.flow_scales, full.flow_scales)
        assert np.max(
            np.abs(full.peak_history_K - reduced.peak_history_K)
        ) < 1e-5


# -- determinism -------------------------------------------------------------


class TestRomDeterminism:
    def test_run_to_run_bit_identical(self):
        spec = rom_scenario(rom=RomSpec(mode="rom", order=40))
        first = simulate_transient(spec)
        again = simulate_transient(spec)  # rebuilt basis: same arithmetic
        assert again.metadata["n_rom_builds"] == 1
        assert np.array_equal(first.peak_history_K, again.peak_history_K)


# -- counters through the engine / Session / campaign ------------------------


class TestRomCounters:
    def test_counter_keys_cover_rom(self):
        assert "n_rom_builds" in COUNTER_KEYS
        assert "n_rom_steps" in COUNTER_KEYS

    def test_session_accumulates_rom_counters(self):
        from repro.api import Session

        session = Session()
        session.run("test-a-burst-rom")
        stats = list(session.stats().values())
        assert sum(s.get("n_rom_builds", 0) for s in stats) == 1
        assert sum(s.get("n_rom_steps", 0) for s in stats) == 100
        # A memoized replay adds nothing.
        session.run("test-a-burst-rom")
        stats = list(session.stats().values())
        assert sum(s.get("n_rom_builds", 0) for s in stats) == 1

    def test_outcome_metadata_reports_rom_provenance(self):
        outcome = simulate_transient("test-a-burst-rom")
        assert outcome.metadata["rom"] is True
        assert outcome.metadata["rom_mode"] == "rom"
        assert outcome.metadata["n_rom_steps"] == 100
        assert outcome.metadata["rom_check_stride"] >= 1
        assert outcome.metrics["rom_peak_abs_err_K"] <= 0.1


# -- the MPC policy ----------------------------------------------------------


def mpc_policy_spec(**overrides):
    base = dict(
        kind="mpc",
        threshold_K=330.0,
        min_scale=0.5,
        max_scale=2.0,
        control_interval_s=0.05,
        horizon_s=0.05,
        n_candidates=4,
    )
    base.update(overrides)
    return PolicySpec(**base)


class TestModelPredictiveFlowPolicy:
    def test_registered_and_built_from_spec(self):
        policy = policy_from_spec(mpc_policy_spec())
        assert isinstance(policy, ModelPredictiveFlowPolicy)
        assert policy.candidates == (0.5, 1.0, 1.5, 2.0)
        # Nominal flow until the first planned decision, clipped into the
        # candidate band.
        assert policy.initial_scale() == 1.0
        cold = policy_from_spec(mpc_policy_spec(min_scale=1.2, max_scale=2.0))
        assert cold.initial_scale() == 1.2
        hot = policy_from_spec(mpc_policy_spec(min_scale=0.2, max_scale=0.8))
        assert hot.initial_scale() == 0.8

    def test_spec_requires_horizon_and_candidates(self):
        with pytest.raises(ValueError, match="horizon_s"):
            PolicySpec(kind="mpc", control_interval_s=0.05)
        with pytest.raises(ValueError, match="n_candidates"):
            mpc_policy_spec(n_candidates=1)

    def test_picks_cheapest_feasible_candidate(self):
        policy = policy_from_spec(mpc_policy_spec())
        # Planner: higher flow -> lower predicted peak; only >=1.5 feasible.
        policy.bind_planner(lambda scale, horizon: 345.0 - 10.0 * scale)
        assert policy.update(0.0, 300.0) == 1.5

    def test_infeasible_horizon_commits_max_scale(self):
        policy = policy_from_spec(mpc_policy_spec())
        policy.bind_planner(lambda scale, horizon: 400.0)
        assert policy.update(0.0, 300.0) == 2.0

    def test_degrades_to_bang_bang_without_planner(self):
        policy = policy_from_spec(mpc_policy_spec())
        assert policy.update(0.0, 340.0) == 2.0
        assert policy.update(0.0, 300.0) == 0.5

    def test_mpc_plans_ahead_of_bang_bang(self):
        # The MPC run may raise flow *before* the observed peak crosses
        # the threshold; its trajectory must respect the planning
        # contract end to end and report rollout provenance.
        spec = rom_scenario(
            duration=0.3,
            policy=mpc_policy_spec(threshold_K=316.0),
        )
        outcome = simulate_transient(spec)
        assert outcome.metadata["n_rom_builds"] >= 1
        assert outcome.metadata["n_rom_steps"] > 0
        assert outcome.metadata["rom"] is False  # trajectory stayed full
        assert "rom_order" not in outcome.metrics
        assert set(np.unique(outcome.flow_scales)) <= {0.5, 1.0, 1.5, 2.0}

    def test_mpc_over_reduced_trajectory(self):
        spec = rom_scenario(
            duration=0.3,
            policy=mpc_policy_spec(threshold_K=316.0),
            rom=RomSpec(mode="rom", order=50),
        )
        outcome = simulate_transient(spec)
        assert outcome.metadata["rom"] is True
        assert outcome.metrics["rom_peak_abs_err_K"] <= 0.1


# -- model lifetime ----------------------------------------------------------


class TestRomLifetime:
    @pytest.mark.parametrize(
        "policy",
        [None, mpc_policy_spec(threshold_K=316.0)],
        ids=["constant", "mpc"],
    )
    def test_no_basis_outlives_its_run(self, monkeypatch, policy):
        refs = []

        def tracked_build(*args, **kwargs):
            model = build_reduced_model(*args, **kwargs)
            refs.append(weakref.ref(model))
            return model

        monkeypatch.setattr(transient_engine, "build_reduced_model", tracked_build)
        spec = rom_scenario(
            duration=0.3, policy=policy, rom=RomSpec(mode="rom", order=30)
        )
        outcome = simulate_transient(spec)
        assert outcome.metadata["n_rom_builds"] == len(refs) >= 1
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)


def strip_rom_sweep():
    """Test A strip ROM scenarios under bang-bang and MPC flow control."""
    base = get_scenario("test-a-burst-rom")
    policies = {
        "bang-bang": PolicySpec(
            kind="bang-bang",
            control_interval_s=0.1,
            threshold_K=318.0,
            low_scale=1.0,
            high_scale=1.5,
        ),
        "mpc": mpc_policy_spec(control_interval_s=0.1, horizon_s=0.1,
                               threshold_K=318.0),
    }
    return [
        replace(
            base,
            name=f"strip-{kind}-{high:g}",
            transient=replace(
                base.transient,
                duration_s=0.5,
                policy=policy,
                traces=(replace(base.transient.traces[0], high=high),),
            ),
        )
        for kind, policy in policies.items()
        for high in (80.0, 120.0)
    ]


class TestRomExecutorParity:
    def test_serial_thread_and_process_results_are_equal(self):
        from repro.api import Session

        specs = strip_rom_sweep()
        payloads = {}
        for executor, workers in (("serial", 1), ("thread", 2), ("process", 2)):
            campaign = Session().run_many(specs, executor=executor, workers=workers)
            assert campaign.n_ok == len(specs)
            payloads[executor] = [
                physics(record["result"]) for record in campaign.records
            ]
        serial = payloads["serial"]
        assert payloads["thread"] == serial
        assert payloads["process"] == serial
        # Every run was reduced, and flow control switched flow scales.
        for result in serial:
            assert result["transient"]["rom_order"] >= 1
        assert any(
            result["transient"]["n_flow_changes"] > 0 for result in serial
        )


# -- the block Krylov build ---------------------------------------------------


def arch1_rom_scenario():
    """A Niagara arch1 DVFS-style trace on the 44 x 44 grid, reduced."""
    return ScenarioSpec.from_dict(
        {
            "name": "arch1-rom",
            "workload": {"kind": "architecture", "architecture": "arch1"},
            "grid": {"n_grid_points": 161, "n_lanes": 5, "n_rows": 44, "n_cols": 44},
            "solver": {"simulator": "ice"},
            "transient": {
                "duration_s": 0.6,
                "time_step_s": 0.02,
                "traces": [
                    {
                        "layer": "top_die",
                        "kind": "piecewise",
                        "times": [0.0, 0.12, 0.24, 0.36, 0.48],
                        "values": [80.0, 95.0, 70.0, 100.0, 85.0],
                    }
                ],
                "policy": {"kind": "constant", "control_interval_s": 0.0},
                "store_every": 5,
                "threshold_K": 335.0,
                "rom": {"mode": "rom"},
            },
        }
    )


@pytest.fixture
def recorded_builds(monkeypatch):
    """``(args, kwargs, model)`` of every Krylov build the engine runs."""
    builds = []

    def recording_build(*args, **kwargs):
        builds.append((args, kwargs, build_reduced_model(*args, **kwargs)))
        return builds[-1][2]

    monkeypatch.setattr(transient_engine, "build_reduced_model", recording_build)
    return builds


class TestBlockBuild:
    @pytest.mark.parametrize(
        "make_spec",
        [lambda: get_scenario("test-a-burst-rom"), arch1_rom_scenario],
        ids=["test-a-burst-rom", "arch1-rom"],
    )
    def test_basis_is_orthonormal_at_the_full_order(self, recorded_builds, make_spec):
        outcome = simulate_transient(make_spec())
        ((_, _, model),) = recorded_builds
        basis = model.basis
        gram_error = np.max(np.abs(basis.T @ basis - np.eye(model.order)))
        assert gram_error <= 1e-10
        # The per-vector build realized the full order 48 on both.
        assert outcome.metrics["rom_order"] == model.order == 48
        assert outcome.metrics["rom_peak_abs_err_K"] <= 1e-3

    def test_matches_the_per_vector_reference(self, recorded_builds):
        # No direction deflates in the last block of the Test A burst, so
        # block and per-vector Gram-Schmidt build the same columns.
        simulate_transient(get_scenario("test-a-burst-rom"))
        ((args, kwargs, model),) = recorded_builds
        implicit, c_over_dt, solve, base_rhs, directions = args[:5]
        reference = krylov_basis(
            implicit,
            c_over_dt,
            solve,
            base_rhs,
            directions,
            order=kwargs["order"],
            tolerance=kwargs["tolerance"],
        )
        assert reference.shape == model.basis.shape
        np.testing.assert_allclose(model.basis, reference, rtol=0.0, atol=1e-12)

    def test_one_block_solve_per_block_and_the_last_is_clipped(self):
        import scipy.sparse as sp

        n = 40
        main = np.linspace(3.0, 5.0, n)
        implicit = sp.diags(
            [main, -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1], format="csr"
        )
        c_over_dt = sp.identity(n, format="csr")
        base = np.linspace(1.0, 2.0, n)
        bump = np.zeros(n)
        bump[:5] = 1.0
        widths = []

        def solve(block):
            assert block.ndim == 2
            widths.append(block.shape[1])
            return np.linalg.solve(implicit.toarray(), block)

        model = build_reduced_model(
            implicit,
            c_over_dt,
            solve,
            base,
            [bump],
            lambda time: base,
            order=5,
            tolerance=1e-12,
        )
        # Seeds: the two nonzero directions in one call (the uniform state
        # needs no solve); then the 3-column Arnoldi block, clipped to the
        # two columns the basis still has room for.
        assert widths == [2, 2]
        assert model.order == 5
        assert model.n_build_solves == 4
        assert np.max(np.abs(model.basis.T @ model.basis - np.eye(5))) <= 1e-12


# -- one flow-parametric model per run ----------------------------------------


def proportional_rom_spec():
    """A strip ROM run whose proportional policy visits four flow scales."""
    return rom_scenario(
        duration=0.4,
        policy=PolicySpec(
            kind="proportional",
            control_interval_s=0.05,
            setpoint_K=310.0,
            gain_per_K=0.1,
            min_scale=0.5,
            max_scale=2.0,
        ),
        rom=RomSpec(mode="rom"),
    )


def checkpoint_scales(outcome):
    """Flow scales of the steps a reduced run checked with a full step."""
    n_steps = outcome.metadata["n_steps"]
    stride = outcome.metadata["rom_check_stride"]
    scales = set()
    for step in range(1, n_steps + 1):
        if step % stride == 0 or step == n_steps:
            start = outcome.step_times_s[step - 1]
            index = np.searchsorted(outcome.flow_times_s, start, side="right") - 1
            scales.add(float(outcome.flow_scales[index]))
    return scales


def nominal_flow(spec):
    return spec.experiment_config().params.flow_rate_per_channel


@pytest.fixture
def assembled_flows(monkeypatch):
    """Per-channel flow of every ICE system the run assembles."""
    flows = []
    original = AssembledSystem.__init__

    def recording_init(self, stack):
        flows.append(
            next(layer.flow_rate_per_channel for layer in stack.layers if layer.is_cavity)
        )
        original(self, stack)

    monkeypatch.setattr(AssembledSystem, "__init__", recording_init)
    return flows


class TestOneModelPerRun:
    def test_proportional_run_builds_once_and_factorizes_at_probe_scales(self):
        backend = SparseLUBackend()
        outcome = simulate_transient(proportional_rom_spec(), backend=backend)
        visited = set(outcome.flow_scales.tolist())
        assert len(visited) >= 3
        assert outcome.metadata["n_rom_builds"] == 1
        # Full steps run at the build scale (the Krylov solves) and at the
        # checkpoints; a scale the reduced trajectory only passes through
        # costs no factorization.
        full_step_scales = checkpoint_scales(outcome) | {outcome.flow_scales[0]}
        assert backend.n_factorizations == len(full_step_scales) < len(visited)

    def test_mpc_plans_candidates_without_full_order_work(self, assembled_flows):
        spec = rom_scenario(duration=0.3, policy=mpc_policy_spec(threshold_K=316.0))
        backend = SparseLUBackend()
        outcome = simulate_transient(spec, backend=backend)
        stepped = set(outcome.flow_scales.tolist())
        candidates = set(policy_from_spec(spec.transient.policy).candidates)
        assert stepped < candidates  # some candidate was only ever planned
        assert outcome.metadata["n_rom_builds"] == 1
        # A full run steps every applied scale and nothing else.
        assert backend.n_factorizations == len(stepped)
        # Every applied scale is a flow write on the one nominal assembly.
        assert assembled_flows == [nominal_flow(spec)]

    def test_mpc_over_a_reduced_trajectory_probes_only(self, assembled_flows):
        spec = rom_scenario(
            duration=0.3,
            policy=mpc_policy_spec(threshold_K=316.0),
            rom=RomSpec(mode="rom"),
        )
        backend = SparseLUBackend()
        outcome = simulate_transient(spec, backend=backend)
        full_step_scales = checkpoint_scales(outcome) | {outcome.flow_scales[0]}
        assert outcome.metadata["n_rom_builds"] == 1
        assert backend.n_factorizations == len(full_step_scales)
        assert assembled_flows == [nominal_flow(spec)]

    @pytest.mark.parametrize("rom", ["off", "rom"])
    @pytest.mark.parametrize(
        "policy",
        [
            PolicySpec(
                kind="bang-bang",
                threshold_K=315.0,
                low_scale=0.5,
                high_scale=2.0,
                control_interval_s=0.05,
            ),
            proportional_rom_spec().transient.policy,
            mpc_policy_spec(threshold_K=316.0),
        ],
        ids=["bang-bang", "proportional", "mpc"],
    )
    def test_flow_varying_run_builds_one_stack_and_one_system(
        self, monkeypatch, assembled_flows, policy, rom
    ):
        stacks = []
        build_stack = ScenarioSpec.build_stack

        def recording_build_stack(self):
            stacks.append(self.name)
            return build_stack(self)

        monkeypatch.setattr(ScenarioSpec, "build_stack", recording_build_stack)
        spec = rom_scenario(duration=0.4, policy=policy, rom=RomSpec(mode=rom))
        backend = SparseLUBackend()
        outcome = simulate_transient(spec, backend=backend)
        assert outcome.metrics["n_flow_changes"] >= 1
        assert stacks == [spec.name]
        assert assembled_flows == [nominal_flow(spec)]
        # One factorization per scale that full steps ran at: every chunk
        # of a full run, the build scale and the checkpoints of a reduced
        # one.
        if rom == "off":
            full_step_scales = set(outcome.flow_scales.tolist())
        else:
            full_step_scales = checkpoint_scales(outcome) | {
                outcome.flow_scales[0]
            }
        assert backend.n_factorizations == len(full_step_scales)

    @pytest.mark.parametrize(
        "policy, parametric",
        [
            (PolicySpec(kind="constant", control_interval_s=0.05), False),
            (PolicySpec(kind="constant", control_interval_s=0.0, scale=1.5), False),
            (
                PolicySpec(
                    kind="bang-bang",
                    threshold_K=315.0,
                    high_scale=2.0,
                    control_interval_s=0.05,
                ),
                True,
            ),
        ],
        ids=["constant", "constant-scaled", "bang-bang"],
    )
    def test_only_a_flow_changing_policy_gets_the_flow_split(
        self, recorded_builds, policy, parametric
    ):
        outcome = simulate_transient(
            rom_scenario(policy=policy, rom=RomSpec(mode="rom"))
        )
        ((_, kwargs, _),) = recorded_builds
        assert outcome.metadata["n_rom_builds"] == 1
        assert (kwargs["flow_split"] is not None) is parametric


def step_peaks(model, start, n_steps, dt):
    """Per-step reduced peak predictions from a full initial state."""
    states = model.advance(model.project(start), np.arange(1, n_steps + 1) * dt)
    return model.output_max_many("solid", states)


def full_peaks(ctx, scale, backend):
    """Per-step peaks of full integration, from a fresh assembly at ``scale``.

    The stack is built from ``ctx``'s spec at the scaled flow, independently
    of the engine's flow writes, so the comparison checks two paths.
    """
    spec = ctx.spec
    scaled = spec.with_params(flow_rate_per_channel=nominal_flow(spec) * scale)
    solver = TransientSolver(
        scaled.build_stack(),
        power_schedule=spec.transient.schedule(),
        backend=backend,
    )
    start = np.full(ctx.system.n_unknowns, ctx.start_temperature())
    peaks = []
    solver.integrate(
        start,
        step_offset=0,
        n_steps=spec.transient.n_steps,
        time_step=spec.transient.time_step_s,
        on_step=lambda step, time, state: peaks.append(ctx.peak(state)),
    )
    return start, np.asarray(peaks)


class TestFlowParametricAccuracy:
    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda: rom_scenario(n_cols=40, duration=1.0, rom=RomSpec(mode="rom")),
            arch1_rom_scenario,
        ],
        ids=["test-a-strip", "arch1"],
    )
    def test_one_basis_tracks_full_integration_across_flows(self, make_spec):
        spec = make_spec()
        dt = spec.transient.time_step_s
        n_steps = spec.transient.n_steps
        backend = SparseLUBackend()
        nominal = transient_engine._Context(spec, backend)
        model = nominal.reduced_model(1.0, flow_parametric=True)
        assert model.order <= spec.transient.rom.order
        for scale in (0.5, 0.71, 1.0, 1.43, 2.0):
            start, full = full_peaks(nominal, scale, backend)
            reduced = step_peaks(model.at_flow(scale), start, n_steps, dt)
            error = float(np.max(np.abs(full - reduced)))
            assert error <= 1e-3, f"scale {scale}: peak error {error:.2e} K"

    def test_run_from_a_non_unit_initial_scale_tracks_full(self):
        # Bang-bang opens at its low level, 0.5: the run builds its one
        # model at half the nominal flow, and the split taken there must
        # still serve the high level (4x the build flow).
        policy = PolicySpec(
            kind="bang-bang",
            threshold_K=315.0,
            low_scale=0.5,
            high_scale=2.0,
            control_interval_s=0.05,
        )
        spec = rom_scenario(duration=0.4, policy=policy, rom=RomSpec(mode="rom"))
        reduced = simulate_transient(spec)
        full = simulate_transient(
            replace(spec, transient=replace(spec.transient, rom=RomSpec()))
        )
        assert reduced.flow_scales[0] == 0.5
        assert set(reduced.flow_scales.tolist()) == {0.5, 2.0}
        assert reduced.metadata["n_rom_builds"] == 1
        assert np.array_equal(reduced.flow_scales, full.flow_scales)
        error = float(np.max(np.abs(full.peak_history_K - reduced.peak_history_K)))
        assert error <= 1e-3

    def test_at_flow_serves_the_build_flow_unchanged(self):
        spec = rom_scenario(rom=RomSpec(mode="rom"))
        ctx = transient_engine._Context(spec, SparseLUBackend())
        parametric = ctx.reduced_model(1.0, flow_parametric=True)
        assert parametric.at_flow(1.0) is parametric
        scaled = parametric.at_flow(2.0)
        assert scaled.basis is parametric.basis
        assert scaled.flow_factor == 2.0
        plain = ctx.reduced_model(1.0, flow_parametric=False)
        assert plain.at_flow(1.0) is plain
        with pytest.raises(ValueError, match="flow split"):
            plain.at_flow(2.0)


# -- unit surface of core/rom ------------------------------------------------


class TestBuildReducedModel:
    def test_dense_identity_system_round_trips(self):
        import scipy.sparse as sp

        n = 10
        implicit = sp.identity(n, format="csr") * 2.0
        c_over_dt = sp.identity(n, format="csr")
        base = np.linspace(1.0, 2.0, n)
        model = build_reduced_model(
            implicit,
            c_over_dt,
            lambda rhs: rhs / 2.0,
            base,
            [],
            lambda time: base,
            order=n,
            tolerance=1e-12,
            outputs={"all": np.arange(n)},
        )
        x = model.project(np.ones(n))
        assert np.allclose(model.lift(x), np.ones(n))
        stepped = model.advance(x, [0.0])
        assert stepped.shape == (model.order, 1)
        expected = (base + np.ones(n)) / 2.0
        assert np.allclose(model.lift(stepped[:, 0]), expected)
        assert model.output_max_many("all", stepped)[0] == pytest.approx(
            float(np.max(expected))
        )

    def test_order_clamped_and_deflation_shrinks_basis(self):
        import scipy.sparse as sp

        n = 6
        implicit = sp.identity(n, format="csr")
        c_over_dt = sp.identity(n, format="csr")
        base = np.ones(n)
        # Identity propagation: every Arnoldi direction collapses onto the
        # seed, so the basis deflates to a single vector.
        model = build_reduced_model(
            implicit,
            c_over_dt,
            lambda rhs: rhs,
            base,
            [base * 3.0],
            lambda time: base,
            order=50,
            tolerance=1e-10,
        )
        assert model.order == 1
        assert model.n_unknowns == n
