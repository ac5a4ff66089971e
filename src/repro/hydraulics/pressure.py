"""Pressure-drop models for width-modulated microchannels.

The paper constrains the optimal design with the laminar Darcy-Weisbach
pressure drop of Eq. (9)::

    dP = Int_0^d  8 mu V_dot (H_C + w_C(z))^2 / (H_C w_C(z))^3  dz  <=  dP_max

which corresponds to a Poiseuille-type friction law with a constant
``f.Re = 16`` (the circular-duct value).  This module implements that exact
expression (so the constraint used by the optimizer matches the paper), plus
a refined variant that uses the Shah & London rectangular-duct ``f.Re``
correlation, which the ablation benchmarks compare against.

Both integrals use the trapezoid rule on ``n_samples`` equally spaced
points.  For the uniform and piecewise-constant profiles the optimizer
produces, that sum collapses to one weighted term per segment
(:func:`segment_weights`), so :func:`piecewise_pressure_drop` evaluates the
integrand once per segment, vectorized over any number of channels and
candidate designs; only callable profiles are actually sampled.
"""

from __future__ import annotations

import functools
from typing import Callable, Union

import numpy as np

from .._compat import trapezoid

from ..thermal import correlations
from ..thermal.geometry import ChannelGeometry, WidthProfile
from ..thermal.properties import Coolant, TABLE_I

__all__ = [
    "local_pressure_gradient",
    "piecewise_pressure_drop",
    "pressure_drop",
    "pressure_drop_rectangular",
    "segment_weights",
    "uniform_width_pressure_drop",
]

ArrayLike = Union[float, np.ndarray]


def local_pressure_gradient(
    channel_width: ArrayLike,
    channel_height: float,
    flow_rate: float,
    viscosity: float,
) -> ArrayLike:
    """Pressure gradient ``dP/dz`` of Eq. (9), in Pa/m.

    ``8 mu V_dot (H_C + w_C)^2 / (H_C w_C)^3`` -- laminar flow with the
    circular-duct friction constant, as written in the paper.
    """
    width = np.asarray(channel_width, dtype=float)
    if np.any(width <= 0.0):
        raise ValueError("channel width must be positive")
    if channel_height <= 0.0:
        raise ValueError("channel height must be positive")
    if flow_rate < 0.0:
        raise ValueError("flow rate must be non-negative")
    if viscosity <= 0.0:
        raise ValueError("viscosity must be positive")
    numerator = 8.0 * viscosity * flow_rate * (channel_height + width) ** 2
    denominator = (channel_height * width) ** 3
    result = numerator / denominator
    if np.isscalar(channel_width):
        return float(result)
    return result


@functools.lru_cache(maxsize=64)
def segment_weights(length: float, n_segments: int, n_samples: int) -> np.ndarray:
    """Trapezoid weights of a piecewise-constant integrand, one per segment.

    For ``g`` constant on each of ``n_segments`` equal segments,
    ``trapezoid(g(z), z)`` on ``z = linspace(0, length, n_samples)`` equals
    ``sum_k c_k g_k``; ``c_k`` is the trapezoid rule applied to the indicator
    of segment ``k`` (samples are assigned to segments exactly as
    :class:`~repro.thermal.geometry.WidthProfile` does).  The weights are
    cached per ``(length, n_segments, n_samples)`` and returned read-only,
    so concurrent callers can share them.
    """
    _check_samples(n_samples)
    if n_segments < 1:
        raise ValueError("n_segments must be at least 1")
    z = np.linspace(0.0, length, n_samples)
    index = np.minimum((z / length * n_segments).astype(int), n_segments - 1)
    indicators = (index == np.arange(n_segments)[:, None]).astype(float)
    weights = trapezoid(indicators, z, axis=-1)
    weights.flags.writeable = False
    return weights


def piecewise_pressure_drop(
    segment_widths: np.ndarray,
    geometry: ChannelGeometry,
    flow_rate: float,
    coolant: Coolant = TABLE_I.coolant,
    n_samples: int = 2001,
) -> np.ndarray:
    """Eq. (9) pressure drops (Pa) of piecewise-constant width profiles.

    ``segment_widths`` has shape ``(..., n_segments)``: each row along the
    last axis is one channel's equal-length segments over
    ``geometry.length``.  Returns shape ``(...)`` -- the sampled trapezoid
    of :func:`pressure_drop`, evaluated as ``sum_k c_k g(w_k)`` with the
    :func:`segment_weights` ``c_k`` (``n_segments`` integrand evaluations
    per channel instead of ``n_samples``).
    """
    widths = np.asarray(segment_widths, dtype=float)
    weights = segment_weights(geometry.length, widths.shape[-1], n_samples)
    gradients = local_pressure_gradient(
        widths, geometry.channel_height, flow_rate, coolant.dynamic_viscosity
    )
    # A per-row reduction (not BLAS): identical rows give identical drops,
    # so lanes with equal widths tie exactly in the Eq. (10) imbalance.
    return np.sum(gradients * weights, axis=-1)


def pressure_drop(
    width_profile: WidthProfile,
    geometry: ChannelGeometry,
    flow_rate: float,
    coolant: Coolant = TABLE_I.coolant,
    n_samples: int = 2001,
) -> float:
    """Total channel pressure drop of Eq. (9) in Pa (trapezoidal integration).

    ``n_samples`` (at least 2) sets the trapezoid grid; uniform and
    piecewise profiles are integrated exactly on that grid by the segment
    weights, callable profiles by sampling.
    """
    return _integrate(
        lambda widths: local_pressure_gradient(
            widths, geometry.channel_height, flow_rate, coolant.dynamic_viscosity
        ),
        width_profile,
        geometry,
        n_samples,
    )


def pressure_drop_rectangular(
    width_profile: WidthProfile,
    geometry: ChannelGeometry,
    flow_rate: float,
    coolant: Coolant = TABLE_I.coolant,
    n_samples: int = 2001,
) -> float:
    """Pressure drop using the Shah & London rectangular-duct friction factor.

    ``dP/dz = 2 (f.Re)(alpha) mu u / D_h^2`` with the aspect-ratio-dependent
    Fanning ``f.Re``.  More accurate than the paper's constant-``f.Re``
    expression for very flat channels; used by the ablation benchmarks.
    """
    height = geometry.channel_height

    def gradient(widths: np.ndarray) -> np.ndarray:
        f_re = correlations.friction_factor_times_reynolds(widths, height)
        d_h = correlations.hydraulic_diameter(widths, height)
        velocity = correlations.mean_velocity(flow_rate, widths, height)
        return 2.0 * f_re * coolant.dynamic_viscosity * velocity / d_h**2

    return _integrate(gradient, width_profile, geometry, n_samples)


def _integrate(
    gradient: Callable[[np.ndarray], np.ndarray],
    width_profile: WidthProfile,
    geometry: ChannelGeometry,
    n_samples: int,
) -> float:
    """Trapezoid of ``gradient(w(z))`` on ``linspace(0, L, n_samples)``.

    Uniform and piecewise profiles spanning the channel use the segment
    weights; callable profiles (no fingerprint) and profiles over another
    length are sampled.
    """
    _check_samples(n_samples)
    if width_profile.fingerprint() is not None and (
        width_profile.length == geometry.length
    ):
        widths = width_profile.segment_widths
        weights = segment_weights(geometry.length, widths.size, n_samples)
        return float(np.sum(gradient(widths) * weights))
    z = np.linspace(0.0, geometry.length, n_samples)
    return float(trapezoid(gradient(np.atleast_1d(width_profile(z))), z))


def _check_samples(n_samples: int) -> None:
    if n_samples < 2:
        raise ValueError(
            f"the trapezoid rule needs n_samples >= 2, got {n_samples}"
        )


def uniform_width_pressure_drop(
    width: float,
    geometry: ChannelGeometry,
    flow_rate: float,
    coolant: Coolant = TABLE_I.coolant,
) -> float:
    """Closed-form pressure drop of a constant-width channel (Pa)."""
    gradient = local_pressure_gradient(
        width, geometry.channel_height, flow_rate, coolant.dynamic_viscosity
    )
    return float(gradient * geometry.length)
