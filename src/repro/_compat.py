"""Small compatibility helpers shared across the package."""

from __future__ import annotations

import numpy as np

#: ``numpy.trapezoid`` on NumPy >= 2.0, falling back to the pre-2.0 name.
trapezoid = getattr(np, "trapezoid", None) or np.trapz

__all__ = ["trapezoid"]
