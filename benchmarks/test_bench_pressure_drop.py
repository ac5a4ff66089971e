"""Pressure-drop check (Sec. V text) -- "well below their safe limits".

The paper's abstract and Sec. V note that the optimally modulated designs
keep the channel pressure drops well below the 10-bar limit of Table I, and
Eq. (10) requires all channels fed by the common reservoir to see the same
pressure drop.  The benchmark evaluates the hydraulics of the single-channel
and 3D-MPSoC optimal designs, asserts both statements, and times the Eq. (9)
pressure integral.

Inside the design loop the pressure constraints are evaluated at every
SLSQP iterate and finite-differenced over every variable, which made them
the largest cost of a design run before the closed-form segment kernel.
``test_pressure_constraints_record`` emits the ``pressure_constraints``
``BENCH {json}`` record: per-call times of ``pressure_drops`` and
``margin_jacobian`` on a 4-lane x 5-segment problem, for the kernel and for
the sampled, per-column oracles of ``tests/oracles/pressure.py``, and their
ratios.  The ratios are reported, never asserted::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_pressure_drop.py -s \
        | grep '^BENCH '
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import format_table
from repro.hydraulics import FlowNetwork, pressure_drop
from repro.core.constraints import PressureConstraints
from repro.core.parameterization import WidthParameterization
from repro.thermal.geometry import ChannelGeometry, WidthProfile

TESTS_DIR = str(Path(__file__).resolve().parents[1] / "tests")
if TESTS_DIR not in sys.path:
    sys.path.insert(0, TESTS_DIR)

from oracles import pressure as oracle  # noqa: E402

#: Calls per timed batch and batches per timing (best batch is reported).
N_CALLS = 20
N_REPEATS = 3


def emit_bench(record: dict) -> None:
    """Print one machine-readable BENCH record (JSON on a single line)."""
    print("BENCH " + json.dumps(record, sort_keys=True))


def _per_call_seconds(function, vector) -> float:
    best = float("inf")
    for _ in range(N_REPEATS):
        start = time.perf_counter()
        for _ in range(N_CALLS):
            function(vector)
        best = min(best, (time.perf_counter() - start) / N_CALLS)
    return best


def test_pressure_drops_of_optimal_designs(
    benchmark, test_a_design, test_b_design, mpsoc_designs, config
):
    params = config.params
    geometry = ChannelGeometry.from_parameters(params)
    limit = params.max_pressure_drop

    rows = []
    designs = {
        "test A optimal": test_a_design.optimal,
        "test B optimal": test_b_design.optimal,
    }
    for name, bundle in mpsoc_designs.items():
        designs[f"{name} optimal"] = bundle["result"].optimal

    for label, evaluation in designs.items():
        # Eq. (9): every lane stays below the limit.
        assert evaluation.max_pressure_drop <= limit * 1.01, label
        # Eq. (10): lanes of one cavity stay hydraulically balanced.
        assert evaluation.pressure_imbalance <= 0.25, label
        rows.append(
            {
                "design": label,
                "max_pressure_drop_bar": evaluation.max_pressure_drop / 1e5,
                "pressure_limit_bar": limit / 1e5,
                "imbalance": evaluation.pressure_imbalance,
            }
        )

    # The conventional maximum-width design has a large pressure margin; the
    # uniform minimum-width design (the thermal bracket) violates the limit,
    # which is why it is not a practical design point.
    wide = pressure_drop(
        WidthProfile.uniform(params.max_channel_width, geometry.length),
        geometry,
        params.flow_rate_per_channel,
    )
    narrow = pressure_drop(
        WidthProfile.uniform(params.min_channel_width, geometry.length),
        geometry,
        params.flow_rate_per_channel,
    )
    assert wide < limit
    assert narrow > limit
    rows.append(
        {
            "design": "uniform maximum (baseline)",
            "max_pressure_drop_bar": wide / 1e5,
            "pressure_limit_bar": limit / 1e5,
            "imbalance": 0.0,
        }
    )
    rows.append(
        {
            "design": "uniform minimum (thermal bracket)",
            "max_pressure_drop_bar": narrow / 1e5,
            "pressure_limit_bar": limit / 1e5,
            "imbalance": 0.0,
        }
    )

    # A single-reservoir network built from the Test A optimal profile.
    network = FlowNetwork(
        geometry,
        test_a_design.optimal.width_profiles,
        params.flow_rate_per_channel,
    )
    assert network.max_pressure_drop <= limit * 1.01

    profile = test_a_design.optimal.width_profiles[0]

    def integrate_pressure():
        return pressure_drop(
            profile, geometry, params.flow_rate_per_channel, params.coolant
        )

    drop = benchmark(integrate_pressure)
    assert drop == pytest.approx(test_a_design.optimal.max_pressure_drop, rel=1e-3)

    print()
    print("pressure drops of the optimized designs (limit: 10 bar):")
    print(format_table(rows))
    print(
        f"pumping power of the Test A optimal channel: "
        f"{network.total_pumping_power * 1e3:.3f} mW per channel"
    )


def test_pressure_constraints_record(config):
    params = config.params
    geometry = ChannelGeometry.from_parameters(params)
    constraints = PressureConstraints(
        parameterization=WidthParameterization(geometry, n_segments=5, n_lanes=4),
        geometry=geometry,
        coolant=params.coolant,
        flow_rate=params.flow_rate_per_channel,
        max_pressure_drop=params.max_pressure_drop,
    )
    vector = np.random.default_rng(12).uniform(
        0.0, 1.0, constraints.parameterization.n_variables
    )

    np.testing.assert_allclose(
        constraints.pressure_drops(vector),
        oracle.sampled_pressure_drops(constraints, vector),
        rtol=1e-12,
    )
    looped = oracle.margin_jacobian(constraints, vector)
    assert np.max(np.abs(constraints.margin_jacobian(vector) - looped)) <= 1e-6 * np.max(
        np.abs(looped)
    )

    timings = {
        "pressure_drops_s": _per_call_seconds(constraints.pressure_drops, vector),
        "pressure_drops_oracle_s": _per_call_seconds(
            lambda point: oracle.sampled_pressure_drops(constraints, point), vector
        ),
        "margin_jacobian_s": _per_call_seconds(constraints.margin_jacobian, vector),
        "margin_jacobian_oracle_s": _per_call_seconds(
            lambda point: oracle.margin_jacobian(constraints, point), vector
        ),
    }
    emit_bench(
        {
            "benchmark": "pressure_constraints",
            "n_lanes": 4,
            "n_segments": 5,
            "n_samples": constraints.n_samples,
            **timings,
            "pressure_drops_speedup": timings["pressure_drops_oracle_s"]
            / timings["pressure_drops_s"],
            "margin_jacobian_speedup": timings["margin_jacobian_oracle_s"]
            / timings["margin_jacobian_s"],
        }
    )
