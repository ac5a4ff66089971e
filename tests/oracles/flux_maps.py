"""The per-lane and per-channel loops the flux-map rasterizer used to run.

:func:`repro.thermal.multichannel.cavity_from_flux_maps` once

* projected the flux maps onto the physical channels one channel at a
  time, reducing the whole map twice per channel
  (:func:`channel_line_densities`); it now applies one
  ``(n_channels, n_rows)`` overlap matrix as a sparse product;
* wrapped each lane's per-column line densities in this nearest-column
  closure and handed it to
  :meth:`~repro.thermal.geometry.HeatInputProfile.from_function`
  (:func:`step_profile`); it now builds equal-length piecewise-constant
  profiles instead, which fingerprint (so the evaluation engine can cache
  the solutions).

The tests hold both pairs to bit-identical values.
"""

from __future__ import annotations

import numpy as np

from repro.thermal.geometry import HeatInputProfile

__all__ = ["channel_line_densities", "step_interpolator", "step_profile"]


def channel_line_densities(
    flux: np.ndarray, die_width: float, n_channels: int
) -> np.ndarray:
    """Line densities (W/m) of one flux map (W/cm^2), one channel at a time."""
    flux = np.asarray(flux, dtype=float)
    n_rows, n_cols = flux.shape
    row_edges = np.linspace(0.0, die_width, n_rows + 1)
    channel_edges = np.linspace(0.0, die_width, n_channels + 1)
    densities = np.zeros((n_channels, n_cols))
    for channel in range(n_channels):
        lo, hi = channel_edges[channel], channel_edges[channel + 1]
        overlap = np.clip(
            np.minimum(hi, row_edges[1:]) - np.maximum(lo, row_edges[:-1]),
            0.0,
            None,
        )
        # overlap[r] is the width (m) of map row r covered by this channel.
        densities[channel] = (flux * 1e4 * overlap[:, None]).sum(axis=0)
    return densities


def step_interpolator(centers: np.ndarray, values: np.ndarray, length: float):
    """Nearest-column (piecewise-constant) interpolation of map columns."""
    centers = np.asarray(centers, dtype=float)
    values = np.asarray(values, dtype=float)
    n = centers.size

    def interpolate(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        index = np.clip((z / length * n).astype(int), 0, n - 1)
        return values[index]

    return interpolate


def step_profile(values: np.ndarray, length: float) -> HeatInputProfile:
    """The callable profile the rasterizer built for one lane's columns."""
    n_cols = len(values)
    centers = (np.arange(n_cols) + 0.5) * length / n_cols
    return HeatInputProfile.from_function(
        step_interpolator(centers, values, length), length
    )
