"""Equivalence of the closed-form Eq. (9) kernel and the sampled oracles.

The segment kernel (:func:`repro.hydraulics.pressure.piecewise_pressure_drop`)
replaces the sampled trapezoid for uniform and piecewise profiles, and the
batched forward-difference stencil replaces the per-column Jacobian loop of
:class:`~repro.core.constraints.PressureConstraints`.  These tests hold
both to the slow references kept in ``tests/oracles/pressure.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import pressure as oracle  # noqa: E402
from repro.core.constraints import PressureConstraints  # noqa: E402
from repro.core.parameterization import WidthParameterization  # noqa: E402
from repro.hydraulics.pressure import (  # noqa: E402
    piecewise_pressure_drop,
    pressure_drop,
    pressure_drop_rectangular,
    segment_weights,
)
from repro.thermal.geometry import ChannelGeometry, WidthProfile  # noqa: E402
from repro.thermal.properties import TABLE_I  # noqa: E402

GEOMETRY = ChannelGeometry()
COOLANT = TABLE_I.coolant
FLOW = TABLE_I.flow_rate_per_channel
LIMIT = TABLE_I.max_pressure_drop

#: Relative agreement of the kernel with the sampled trapezoid.
KERNEL_RTOL = 1e-12
#: FD Jacobian agreement, relative to the Jacobian's largest entry: the
#: ~1e-16 rounding difference of the drops is divided by the 1.5e-8 step.
JACOBIAN_RTOL = 1e-6

COMMON = settings(max_examples=40, deadline=None, derandomize=True)

SAMPLE_COUNTS = st.sampled_from([2, 3, 513, 2001])


@st.composite
def problems(draw):
    """``(constraints, vector)`` over segments, lanes, sharing and samples."""
    parameterization = WidthParameterization(
        GEOMETRY,
        n_segments=draw(st.integers(1, 20)),
        n_lanes=draw(st.integers(1, 6)),
        shared=draw(st.booleans()),
    )
    constraints = PressureConstraints(
        parameterization=parameterization,
        geometry=GEOMETRY,
        coolant=COOLANT,
        flow_rate=FLOW,
        max_pressure_drop=LIMIT,
        n_samples=draw(SAMPLE_COUNTS),
    )
    vector = np.array(
        draw(
            st.lists(
                st.floats(0.0, 1.0),
                min_size=parameterization.n_variables,
                max_size=parameterization.n_variables,
            )
        )
    )
    return constraints, vector


def make_constraints(n_segments=5, n_lanes=4, shared=False, n_samples=513):
    return PressureConstraints(
        parameterization=WidthParameterization(
            GEOMETRY, n_segments=n_segments, n_lanes=n_lanes, shared=shared
        ),
        geometry=GEOMETRY,
        coolant=COOLANT,
        flow_rate=FLOW,
        max_pressure_drop=LIMIT,
        n_samples=n_samples,
    )


def assert_jacobians_match(constraints, vector):
    pairs = (
        (constraints.margin_jacobian(vector), oracle.margin_jacobian(constraints, vector)),
        (constraints.balance_jacobian(vector), oracle.balance_jacobian(constraints, vector)),
    )
    for batched, looped in pairs:
        assert batched.shape == looped.shape
        scale = np.max(np.abs(looped), initial=0.0)
        assert np.max(np.abs(batched - looped), initial=0.0) <= JACOBIAN_RTOL * scale


class TestKernelMatchesTrapezoid:
    @given(problem=problems())
    @COMMON
    def test_constraint_drops(self, problem):
        constraints, vector = problem
        drops = constraints.pressure_drops(vector)
        expected = oracle.sampled_pressure_drops(constraints, vector)
        assert drops.shape == (constraints.parameterization.n_lanes,)
        np.testing.assert_allclose(drops, expected, rtol=KERNEL_RTOL, atol=0.0)

    @given(problem=problems())
    @COMMON
    def test_profile_pressure_drop(self, problem):
        constraints, vector = problem
        n_samples = constraints.n_samples
        for profile in constraints.parameterization.profiles_from_vector(vector):
            drop = pressure_drop(profile, GEOMETRY, FLOW, COOLANT, n_samples)
            expected = oracle.sampled_pressure_drop(
                profile, GEOMETRY, FLOW, COOLANT, n_samples
            )
            assert drop == pytest.approx(expected, rel=KERNEL_RTOL, abs=0.0)

    @given(
        widths=st.lists(
            st.floats(GEOMETRY.min_width, GEOMETRY.max_width), min_size=1, max_size=20
        ),
        n_samples=SAMPLE_COUNTS,
    )
    @COMMON
    def test_rectangular_matches_sample_loop(self, widths, n_samples):
        profile = WidthProfile.piecewise_constant(widths, GEOMETRY.length)
        drop = pressure_drop_rectangular(profile, GEOMETRY, FLOW, COOLANT, n_samples)
        expected = oracle.rectangular_pressure_drop_loop(
            profile, GEOMETRY, FLOW, COOLANT, n_samples
        )
        assert drop == pytest.approx(expected, rel=KERNEL_RTOL, abs=0.0)

    def test_uniform_profile(self):
        for width in (GEOMETRY.min_width, GEOMETRY.max_width):
            profile = WidthProfile.uniform(width, GEOMETRY.length)
            for model, reference in (
                (pressure_drop, oracle.sampled_pressure_drop),
                (pressure_drop_rectangular, oracle.rectangular_pressure_drop_loop),
            ):
                assert model(profile, GEOMETRY, FLOW, COOLANT) == pytest.approx(
                    reference(profile, GEOMETRY, FLOW, COOLANT), rel=KERNEL_RTOL
                )

    def test_callable_profile_is_sampled(self):
        def taper(z):
            return GEOMETRY.max_width - (GEOMETRY.max_width - GEOMETRY.min_width) * (
                z / GEOMETRY.length
            )

        profile = WidthProfile.from_function(taper, GEOMETRY.length)
        for model, reference in (
            (pressure_drop, oracle.sampled_pressure_drop),
            (pressure_drop_rectangular, oracle.rectangular_pressure_drop_loop),
        ):
            assert model(profile, GEOMETRY, FLOW, COOLANT, 257) == pytest.approx(
                reference(profile, GEOMETRY, FLOW, COOLANT, 257), rel=KERNEL_RTOL
            )

    def test_longer_profile_is_sampled_over_the_channel(self):
        # The profile spans twice the channel; only its first half is integrated.
        widths = [GEOMETRY.min_width, GEOMETRY.max_width]
        profile = WidthProfile.piecewise_constant(widths, 2.0 * GEOMETRY.length)
        drop = pressure_drop(profile, GEOMETRY, FLOW, COOLANT, 101)
        assert drop == pytest.approx(
            oracle.sampled_pressure_drop(profile, GEOMETRY, FLOW, COOLANT, 101),
            rel=KERNEL_RTOL,
        )

    def test_kernel_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(3)
        widths = rng.uniform(GEOMETRY.min_width, GEOMETRY.max_width, (3, 4, 7))
        drops = piecewise_pressure_drop(widths, GEOMETRY, FLOW, COOLANT, 513)
        assert drops.shape == (3, 4)
        for index in np.ndindex(3, 4):
            single = piecewise_pressure_drop(widths[index], GEOMETRY, FLOW, COOLANT, 513)
            assert drops[index] == single


class TestSegmentWeights:
    @pytest.mark.parametrize("n_segments", [1, 3, 10])
    @pytest.mark.parametrize("n_samples", [2, 3, 513, 2001])
    def test_weights_sum_to_the_length(self, n_segments, n_samples):
        weights = segment_weights(GEOMETRY.length, n_segments, n_samples)
        assert weights.shape == (n_segments,)
        assert np.all(weights >= 0.0)
        assert weights.sum() == pytest.approx(GEOMETRY.length, rel=1e-14)

    def test_weights_are_cached_and_read_only(self):
        first = segment_weights(GEOMETRY.length, 5, 513)
        assert segment_weights(GEOMETRY.length, 5, 513) is first
        with pytest.raises(ValueError):
            first[0] = 1.0

    def test_two_samples_skip_interior_segments(self):
        weights = segment_weights(GEOMETRY.length, 4, 2)
        np.testing.assert_array_equal(
            weights, [GEOMETRY.length / 2, 0.0, 0.0, GEOMETRY.length / 2]
        )


class TestBatchedJacobians:
    @given(problem=problems())
    @COMMON
    def test_match_the_per_column_loop(self, problem):
        constraints, vector = problem
        assert_jacobians_match(constraints, vector)

    @pytest.mark.parametrize("shared", [False, True])
    def test_all_lanes_tied_at_the_midpoint(self, shared):
        constraints = make_constraints(shared=shared)
        vector = constraints.parameterization.midpoint_vector()
        drops = constraints.pressure_drops(vector)
        # Identical lanes must tie exactly: the Eq. (10) spread is zero.
        assert np.all(drops == drops[0])
        assert constraints.imbalance(vector) == 0.0
        assert_jacobians_match(constraints, vector)
        balance = constraints.balance_jacobian(vector)
        if shared:
            assert np.all(balance == 0.0)
        else:
            # One-sided FD of max - min at a tie: every variable widens the spread.
            assert np.all(balance < 0.0)

    def test_backward_step_at_the_upper_bound(self):
        constraints = make_constraints()
        vector = np.linspace(0.0, 1.0, constraints.parameterization.n_variables)
        vector[::3] = 1.0
        assert_jacobians_match(constraints, vector)
        margin = constraints.margin_jacobian(vector)
        # Wider segments lower the drop, so every own-lane entry is positive.
        for lane in range(constraints.parameterization.n_lanes):
            own = constraints.parameterization.lane_slice(lane)
            assert np.all(margin[lane, own] > 0.0)
            assert np.all(np.delete(margin[lane], np.arange(own.start, own.stop)) == 0.0)

    def test_pressure_drops_take_one_vector(self):
        constraints = make_constraints()
        vector = constraints.parameterization.midpoint_vector()
        with pytest.raises(ValueError):
            constraints.pressure_drops(np.vstack([vector, vector]))
        with pytest.raises(ValueError):
            constraints.pressure_drops(vector[:-1])

    def test_all_entries_at_the_upper_bound(self):
        constraints = make_constraints(n_lanes=3)
        vector = np.ones(constraints.parameterization.n_variables)
        assert_jacobians_match(constraints, vector)


class TestSampleCountValidation:
    @pytest.mark.parametrize("n_samples", [-1, 0, 1])
    def test_pressure_drop_rejects_fewer_than_two_samples(self, n_samples):
        profile = WidthProfile.uniform(GEOMETRY.min_width, GEOMETRY.length)
        with pytest.raises(ValueError, match="n_samples"):
            pressure_drop(profile, GEOMETRY, FLOW, COOLANT, n_samples)

    @pytest.mark.parametrize("n_samples", [-1, 0, 1])
    def test_rectangular_rejects_fewer_than_two_samples(self, n_samples):
        profile = WidthProfile.uniform(GEOMETRY.min_width, GEOMETRY.length)
        with pytest.raises(ValueError, match="n_samples"):
            pressure_drop_rectangular(profile, GEOMETRY, FLOW, COOLANT, n_samples)

    @pytest.mark.parametrize("n_samples", [-1, 0, 1])
    def test_constraints_reject_fewer_than_two_samples(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            make_constraints(n_samples=n_samples)

    def test_all_minimum_width_design_is_infeasible(self):
        # With one sample the old integral read 0 Pa and passed this design.
        constraints = make_constraints(n_samples=2)
        vector = np.zeros(constraints.parameterization.n_variables)
        assert constraints.max_drop(vector) > LIMIT
        assert not constraints.is_feasible(vector)
