"""The callable heat-input profile the flux-map rasterizer used to build.

:func:`repro.thermal.multichannel.cavity_from_flux_maps` once wrapped each
lane's per-column line densities in this nearest-column closure and handed
it to :meth:`~repro.thermal.geometry.HeatInputProfile.from_function`.  It
now builds equal-length piecewise-constant profiles instead, which
fingerprint (so the evaluation engine can cache the solutions); the tests
hold the two to bit-identical values.
"""

from __future__ import annotations

import numpy as np

from repro.thermal.geometry import HeatInputProfile

__all__ = ["step_interpolator", "step_profile"]


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
