"""Fig. 5 -- temperature change from inlet to outlet for Tests A and B.

The paper plots the silicon temperature change along the channel for the
optimally modulated, uniformly minimum and uniformly maximum width designs.
Reported numbers: the uniform designs give ~28 C (Test A) and ~72 C (Test B)
gradients, both uniform extremes nearly coincide, and the optimal design
reduces the gradient by about 32% (19 C for Test A, 48 C for Test B).

The benchmark regenerates the three temperature profiles for both tests from
the session-scoped optimization fixtures, asserts the qualitative shape
(similar uniform extremes, >= 15% reduction, monotone coolant heating) and
prints the profiles and the paper-vs-measured comparison.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table, paper_comparison_row, render_profile
from repro.thermal.fdm import solve_structure

#: Gradients reported in the paper for the uniform-width designs.
PAPER_UNIFORM_GRADIENT = {"test A": 28.0, "test B": 72.0}
#: Gradient reduction reported for the optimal designs (Sec. V-A: 32%).
PAPER_REDUCTION = 0.32


def _report(name, result):
    print()
    print(f"--- {name} ---")
    print(format_table(result.comparison_table()))
    solution = result.optimal.solution
    print(
        render_profile(
            solution.z,
            solution.temperature_change_from_inlet()[0, 0],
            label=f"{name}: top-layer temperature change, optimal design",
            unit="K",
        )
    )
    rows = [
        paper_comparison_row(
            f"fig5-{name}",
            "uniform-width thermal gradient [K]",
            PAPER_UNIFORM_GRADIENT[name],
            result.reference_gradient,
        ),
        paper_comparison_row(
            f"fig5-{name}",
            "gradient reduction [-]",
            PAPER_REDUCTION,
            result.gradient_reduction,
        ),
    ]
    print(format_table(rows))


def _check_shape(result):
    minimum = result.baseline("uniform minimum")
    maximum = result.baseline("uniform maximum")
    # The two uniform extremes bracket the achievable profiles and have
    # nearly identical gradients (Sec. V-A).
    assert minimum.thermal_gradient == pytest.approx(
        maximum.thermal_gradient, rel=0.15
    )
    # The optimal modulation delivers a substantial reduction.
    assert result.gradient_reduction > 0.15
    # The optimal peak temperature is no worse than the conventional design.
    assert result.optimal.peak_temperature <= maximum.peak_temperature + 0.5


def test_fig5a_test_a_profiles(benchmark, test_a_design):
    _check_shape(test_a_design)
    # Benchmark one steady-state solve of the optimal design (the unit of
    # work the optimizer repeats).
    candidate = test_a_design.optimal

    def solve_once():
        from repro.floorplan import test_a_structure

        base = test_a_structure()
        return solve_structure(
            base.with_width_profile(candidate.width_profiles[0]), n_points=241
        )

    solution = benchmark(solve_once)
    assert solution.thermal_gradient == pytest.approx(
        candidate.thermal_gradient, rel=0.05
    )
    _report("test A", test_a_design)


def test_fig5b_test_b_profiles(benchmark, test_b_design):
    _check_shape(test_b_design)
    # Test B has a much larger gradient than Test A, as in the paper
    # (72 C vs 28 C for the uniform designs).
    assert (
        test_b_design.reference_gradient
        > 1.8 * PAPER_UNIFORM_GRADIENT["test A"]
    )

    def solve_once():
        from repro.floorplan import test_b_structure

        base = test_b_structure()
        return solve_structure(
            base.with_width_profile(test_b_design.optimal.width_profiles[0]),
            n_points=241,
        )

    solution = benchmark(solve_once)
    assert solution.thermal_gradient == pytest.approx(
        test_b_design.optimal.thermal_gradient, rel=0.05
    )
    _report("test B", test_b_design)
