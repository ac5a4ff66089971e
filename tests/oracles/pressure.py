"""Sampled-trapezoid and per-column finite-difference pressure oracles.

These are the Eq. (9) evaluations the library used before the closed-form
segment kernel of :mod:`repro.hydraulics.pressure`:

* :func:`sampled_pressure_drop` samples the width profile on
  ``linspace(0, L, n_samples)`` and integrates with the trapezoid rule;
* :func:`rectangular_pressure_drop_loop` evaluates the Shah & London
  gradient one sample at a time;
* :func:`sampled_pressure_drops` / :func:`margin_jacobian` /
  :func:`balance_jacobian` rebuild
  :class:`~repro.core.constraints.PressureConstraints` evaluations from
  per-lane profiles and a forward-difference loop over the variables;
* :func:`lane_pressure_drops` builds the flow network of a built cavity,
  the reference for :meth:`repro.scenarios.ScenarioSpec.flow_network`.
"""

from __future__ import annotations

import numpy as np

from repro._compat import trapezoid
from repro.hydraulics.network import FlowNetwork
from repro.thermal import correlations

__all__ = [
    "balance_jacobian",
    "finite_difference_jacobian",
    "lane_pressure_drops",
    "margin_jacobian",
    "rectangular_pressure_drop_loop",
    "sampled_pressure_drop",
    "sampled_pressure_drops",
]


def sampled_pressure_drop(width_profile, geometry, flow_rate, coolant, n_samples=2001):
    """Eq. (9) by the trapezoid rule on ``n_samples`` points of the profile."""
    z = np.linspace(0.0, geometry.length, n_samples)
    widths = np.atleast_1d(width_profile(z))
    gradients = (
        8.0
        * coolant.dynamic_viscosity
        * flow_rate
        * (geometry.channel_height + widths) ** 2
        / (geometry.channel_height * widths) ** 3
    )
    return float(trapezoid(gradients, z))


def rectangular_pressure_drop_loop(
    width_profile, geometry, flow_rate, coolant, n_samples=2001
):
    """Shah & London pressure drop, one gradient evaluation per sample."""
    z = np.linspace(0.0, geometry.length, n_samples)
    widths = np.atleast_1d(width_profile(z))
    gradients = np.empty_like(widths)
    for index, width in enumerate(widths):
        f_re = correlations.friction_factor_times_reynolds(
            width, geometry.channel_height
        )
        d_h = correlations.hydraulic_diameter(width, geometry.channel_height)
        velocity = correlations.mean_velocity(
            flow_rate, width, geometry.channel_height
        )
        gradients[index] = (
            2.0 * f_re * coolant.dynamic_viscosity * velocity / d_h**2
        )
    return float(trapezoid(gradients, z))


def sampled_pressure_drops(constraints, vector):
    """Per-lane drops of ``constraints`` from one sampled trapezoid per lane."""
    profiles = constraints.parameterization.profiles_from_vector(vector)
    return np.array(
        [
            sampled_pressure_drop(
                profile,
                constraints.geometry,
                constraints.flow_rate,
                constraints.coolant,
                constraints.n_samples,
            )
            for profile in profiles
        ]
    )


def finite_difference_jacobian(function, vector, step):
    """Forward-difference Jacobian, one column per call of ``function``.

    The step flips to backward where a forward step would leave the unit
    box, exactly like the constraint Jacobians of the optimizer.
    """
    vector = np.asarray(vector, dtype=float)
    base = np.atleast_1d(np.asarray(function(vector), dtype=float))
    jacobian = np.empty((base.size, vector.size))
    for variable in range(vector.size):
        signed = step if vector[variable] + step <= 1.0 else -step
        perturbed = vector.copy()
        perturbed[variable] += signed
        shifted = np.atleast_1d(np.asarray(function(perturbed), dtype=float))
        jacobian[:, variable] = (shifted - base) / signed
    return jacobian


def margin_jacobian(constraints, vector):
    """Per-column FD Jacobian of ``1 - dP_i/dP_max`` (sampled drops)."""

    def margin(point):
        return 1.0 - sampled_pressure_drops(constraints, point) / (
            constraints.max_pressure_drop
        )

    return finite_difference_jacobian(margin, vector, constraints.jacobian_step)


def balance_jacobian(constraints, vector):
    """Per-column FD gradient of ``tolerance - (max - min)/dP_max``."""

    def balance(point):
        drops = sampled_pressure_drops(constraints, point)
        imbalance = (np.max(drops) - np.min(drops)) / constraints.max_pressure_drop
        return constraints.equal_pressure_tolerance - imbalance

    return finite_difference_jacobian(balance, vector, constraints.jacobian_step)[0]


def lane_pressure_drops(structure):
    """Per-lane Eq. (9) pressure drops of a built cavity's width profiles."""
    network = FlowNetwork(
        structure.geometry,
        structure.width_profiles(),
        flow_rate_per_channel=structure.lanes[0].flow_rate,
        coolant=structure.coolant,
    )
    return network.pressure_drops
