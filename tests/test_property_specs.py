"""Property-based (hypothesis) tests of the spec layer invariants.

Randomized coverage of what every spec must guarantee by construction:

* ``to_dict`` -> ``from_dict`` (and JSON) round-trips are lossless for
  :class:`ScenarioSpec`, :class:`SweepSpec` and :class:`TransientSpec`;
* ``spec_hash`` depends only on spec *content* -- permuting dictionary
  key order or round-tripping through JSON never changes it;
* sweep expansion is deterministic and has the documented cardinality
  (product of axis lengths x overrides for grid mode, axis length for
  zip mode).
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.scenarios import (  # noqa: E402
    GridSpec,
    OptimizerSpec,
    ScenarioSpec,
    SolverSpec,
    WorkloadSpec,
)
from repro.sweeps import SweepAxis, SweepSpec  # noqa: E402
from repro.transient import PolicySpec, TraceSpec, TransientSpec  # noqa: E402

#: A modest example budget keeps the randomized suite inside tier-1 time.
COMMON = settings(max_examples=25, deadline=None)


def shuffled_dict(data, rng):
    """Deep copy of a plain-data payload with every dict's key order shuffled."""
    if isinstance(data, dict):
        keys = list(data)
        rng.shuffle(keys)
        return {key: shuffled_dict(data[key], rng) for key in keys}
    if isinstance(data, list):
        return [shuffled_dict(item, rng) for item in data]
    return data


# -- strategies --------------------------------------------------------------

fluxes = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)

workloads = st.one_of(
    st.builds(
        WorkloadSpec,
        kind=st.just("test-a"),
        flux_w_per_cm2=fluxes,
    ),
    st.builds(
        WorkloadSpec,
        kind=st.just("test-b"),
        segments=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        flux_range=st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=100.0, max_value=400.0),
        ),
    ),
    st.builds(
        WorkloadSpec,
        kind=st.just("architecture"),
        architecture=st.sampled_from(["arch1", "arch2", "arch3"]),
        power=st.sampled_from(["peak", "average"]),
    ),
)

grids = st.builds(
    GridSpec,
    n_grid_points=st.integers(min_value=3, max_value=301),
    n_lanes=st.integers(min_value=1, max_value=8),
    n_rows=st.integers(min_value=1, max_value=50),
    n_cols=st.integers(min_value=2, max_value=80),
)

solvers = st.builds(
    SolverSpec,
    simulator=st.sampled_from(["fdm", "ice"]),
    backend=st.sampled_from(["auto", "sparse-lu", "dense"]),
    n_workers=st.integers(min_value=1, max_value=4),
    cache_size=st.integers(min_value=1, max_value=8192),
)

optimizers = st.builds(
    OptimizerSpec,
    n_segments=st.integers(min_value=1, max_value=12),
    max_iterations=st.integers(min_value=1, max_value=100),
    multistart=st.integers(min_value=1, max_value=4),
    shared_profile=st.booleans(),
    enforce_equal_pressure=st.booleans(),
)

#: Parameter overrides restricted to fields whose random values cannot
#: violate the cross-field Table I validation.
params = st.dictionaries(
    st.sampled_from(["flow_rate_per_channel", "inlet_temperature"]),
    st.floats(min_value=1e-9, max_value=400.0),
    max_size=2,
)


@st.composite
def piecewise_traces(draw):
    layer = draw(st.sampled_from(["top_die", "bottom_die"]))
    n = draw(st.integers(min_value=1, max_value=5))
    steps = draw(
        st.lists(
            st.floats(min_value=1e-4, max_value=1.0),
            min_size=n, max_size=n,
        )
    )
    times, total = [0.0], 0.0
    for step in steps[:-1]:
        total += step
        times.append(total)
    values = draw(
        st.lists(fluxes, min_size=n, max_size=n)
    )
    return TraceSpec(layer=layer, kind="piecewise",
                     times=tuple(times), values=tuple(values))


periodic_traces = st.builds(
    TraceSpec,
    layer=st.sampled_from(["top_die", "bottom_die"]),
    kind=st.just("periodic"),
    period_s=st.floats(min_value=1e-3, max_value=10.0),
    duty=st.floats(min_value=0.05, max_value=1.0),
    high=fluxes,
    low=fluxes,
)

policies = st.one_of(
    st.builds(
        PolicySpec,
        kind=st.just("constant"),
        scale=st.floats(min_value=0.1, max_value=3.0),
        control_interval_s=st.just(0.0),
    ),
    st.builds(
        PolicySpec,
        kind=st.sampled_from(["bang-bang", "proportional"]),
        control_interval_s=st.just(0.05),
        threshold_K=st.floats(min_value=300.0, max_value=400.0),
        low_scale=st.floats(min_value=0.1, max_value=1.0),
        high_scale=st.floats(min_value=1.0, max_value=3.0),
        setpoint_K=st.floats(min_value=300.0, max_value=400.0),
        gain_per_K=st.floats(min_value=-1.0, max_value=1.0),
    ),
)


@st.composite
def transients(draw):
    # One trace per layer at most (the spec rejects duplicates).
    traces = []
    layers_seen = set()
    for trace in draw(
        st.lists(st.one_of(piecewise_traces(), periodic_traces), max_size=2)
    ):
        if trace.layer not in layers_seen:
            layers_seen.add(trace.layer)
            traces.append(trace)
    n_control = draw(st.integers(min_value=1, max_value=10))
    return TransientSpec(
        duration_s=draw(st.floats(min_value=0.05, max_value=5.0)),
        # Keep the control interval a whole multiple of the step.
        time_step_s=0.05 / n_control,
        traces=tuple(traces),
        policy=draw(policies),
        store_every=draw(st.integers(min_value=1, max_value=20)),
        threshold_K=draw(st.floats(min_value=300.0, max_value=420.0)),
    )


@st.composite
def scenarios(draw):
    return ScenarioSpec(
        name=draw(
            st.text(
                alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                min_size=1, max_size=24,
            )
        ),
        description=draw(st.text(max_size=30)),
        workload=draw(workloads),
        grid=draw(grids),
        solver=draw(solvers),
        optimizer=draw(optimizers),
        params=draw(params),
        transient=draw(st.one_of(st.none(), transients())),
    )


# -- round trips -------------------------------------------------------------


class TestScenarioRoundTrips:
    @COMMON
    @given(spec=scenarios())
    def test_dict_and_json_round_trips(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @COMMON
    @given(spec=scenarios(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_spec_hash_is_stable_across_key_order(self, spec, seed):
        import random

        rng = random.Random(seed)
        permuted = shuffled_dict(spec.to_dict(), rng)
        rebuilt = ScenarioSpec.from_dict(permuted)
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()

    @COMMON
    @given(spec=scenarios())
    def test_spec_hash_survives_json_round_trip(self, spec):
        over_the_wire = ScenarioSpec.from_json(
            json.dumps(json.loads(spec.to_json()))
        )
        assert over_the_wire.spec_hash() == spec.spec_hash()


class TestTransientRoundTrips:
    @COMMON
    @given(transient=transients())
    def test_dict_round_trip(self, transient):
        assert TransientSpec.from_dict(transient.to_dict()) == transient

    @COMMON
    @given(transient=transients())
    def test_json_payload_is_plain_data(self, transient):
        payload = json.loads(json.dumps(transient.to_dict()))
        assert TransientSpec.from_dict(payload) == transient


# -- sweeps ------------------------------------------------------------------


@st.composite
def sweeps(draw):
    base = draw(scenarios())
    n_axes = draw(st.integers(min_value=0, max_value=3))
    axis_pool = [
        ("workload.flux_w_per_cm2", fluxes),
        ("grid.n_grid_points", st.integers(min_value=3, max_value=200)),
        ("solver.backend", st.sampled_from(["auto", "dense", "sparse-lu"])),
        ("optimizer.multistart", st.integers(min_value=1, max_value=3)),
    ]
    mode = draw(st.sampled_from(["grid", "zip"]))
    length = draw(st.integers(min_value=1, max_value=3)) if mode == "zip" else None
    axes = []
    for field, value_strategy in axis_pool[:n_axes]:
        size = length if length is not None else draw(
            st.integers(min_value=1, max_value=3)
        )
        values = draw(
            st.lists(value_strategy, min_size=size, max_size=size)
        )
        axes.append(SweepAxis(field, tuple(values)))
    n_overrides = draw(st.integers(min_value=0, max_value=2))
    overrides = tuple(
        {"workload.seed": draw(st.integers(min_value=0, max_value=1000))}
        for _ in range(n_overrides)
    )
    return SweepSpec(
        name=draw(
            st.text(
                alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                min_size=1, max_size=16,
            )
        ),
        base=base,
        axes=tuple(axes),
        mode=mode,
        overrides=overrides,
    )


class TestSweepProperties:
    @COMMON
    @given(sweep=sweeps())
    def test_round_trip(self, sweep):
        assert SweepSpec.from_dict(sweep.to_dict()) == sweep
        assert SweepSpec.from_json(sweep.to_json()) == sweep

    @COMMON
    @given(sweep=sweeps())
    def test_expansion_cardinality(self, sweep):
        if sweep.mode == "zip" and sweep.axes:
            combos = len(sweep.axes[0].values)
        else:
            combos = 1
            for axis in sweep.axes:
                combos *= len(axis.values)
        expected = combos * max(len(sweep.overrides), 1)
        assert sweep.n_scenarios == expected
        assert len(sweep.scenarios()) == expected

    @COMMON
    @given(sweep=sweeps())
    def test_expansion_is_deterministic(self, sweep):
        first = sweep.scenarios()
        rebuilt = SweepSpec.from_json(sweep.to_json())
        second = rebuilt.scenarios()
        assert first == second
        assert [spec.name for spec in first] == [spec.name for spec in second]
        # Names are unique within a sweep (they are campaign record labels).
        names = [spec.name for spec in first]
        assert len(set(names)) == len(names)

    @COMMON
    @given(sweep=sweeps())
    def test_every_point_hashes_distinctly_or_equal_specs(self, sweep):
        specs = sweep.scenarios()
        hashes = [spec.spec_hash() for spec in specs]
        for spec, spec_hash in zip(specs, hashes):
            assert ScenarioSpec.from_dict(spec.to_dict()).spec_hash() == spec_hash
        # Equal hashes imply equal specs (hash == canonical content).
        by_hash = {}
        for spec, spec_hash in zip(specs, hashes):
            if spec_hash in by_hash:
                assert by_hash[spec_hash] == spec
            else:
                by_hash[spec_hash] = spec
