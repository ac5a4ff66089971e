"""Control-vector parameterization of the channel-width trajectories.

The direct sequential method (Sec. IV-C of the paper) restricts the control
``w_C(z)`` to piecewise-constant functions on a fixed number of equal-length
segments, turning the infinite-dimensional optimal control problem into a
finite nonlinear program.  This module owns the mapping between

* the optimizer's decision vector ``x`` (normalized to [0, 1] per entry for
  well-conditioned finite differences and simple box bounds), and
* the per-lane :class:`~repro.thermal.geometry.WidthProfile` objects
  consumed by the thermal solvers and the pressure-drop model.

Two sharing modes are supported:

* ``per_lane`` -- every lane gets its own ``n_segments`` decision variables
  (the paper's general formulation, Eq. 6-10 with ``N`` channels);
* ``shared`` -- all lanes share a single width trajectory, which shrinks the
  problem to ``n_segments`` variables and is a useful cheap variant when the
  power map varies little across the die width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..thermal.geometry import ChannelGeometry, WidthProfile

__all__ = ["WidthParameterization"]


@dataclass(frozen=True)
class WidthParameterization:
    """Mapping between decision vectors and channel width profiles.

    Attributes
    ----------
    geometry:
        Channel geometry providing the width bounds and the channel length.
    n_segments:
        Number of piecewise-constant segments per lane trajectory.
    n_lanes:
        Number of modeled channel lanes.
    shared:
        If True all lanes share one trajectory (``n_segments`` variables);
        otherwise each lane has its own (``n_lanes * n_segments`` variables).
    """

    geometry: ChannelGeometry
    n_segments: int = 10
    n_lanes: int = 1
    shared: bool = False

    def __post_init__(self) -> None:
        if self.n_segments < 1:
            raise ValueError("n_segments must be at least 1")
        if self.n_lanes < 1:
            raise ValueError("n_lanes must be at least 1")

    # -- sizes -----------------------------------------------------------------

    @property
    def n_variables(self) -> int:
        """Length of the decision vector."""
        if self.shared:
            return self.n_segments
        return self.n_segments * self.n_lanes

    @property
    def width_bounds(self) -> tuple:
        """Physical width bounds ``(w_Cmin, w_Cmax)`` in meters."""
        return (self.geometry.min_width, self.geometry.max_width)

    # -- normalization -----------------------------------------------------------

    def widths_to_vector(self, widths: np.ndarray) -> np.ndarray:
        """Normalize physical widths (m) into [0, 1] decision variables."""
        low, high = self.width_bounds
        widths = np.asarray(widths, dtype=float)
        return (widths - low) / (high - low)

    def vector_to_widths(self, vector: np.ndarray) -> np.ndarray:
        """Map a decision vector back to physical widths in meters.

        Values are clipped to the physical bounds so that the thermal and
        hydraulic models never see an out-of-range width even if the NLP
        solver takes a small excursion outside the box.
        """
        low, high = self.width_bounds
        vector = np.clip(np.asarray(vector, dtype=float), 0.0, 1.0)
        return low + vector * (high - low)

    # -- profile construction ------------------------------------------------------

    def segment_widths(self, vectors: np.ndarray) -> np.ndarray:
        """Physical segment widths (m) of one or a stack of decision vectors.

        ``vectors`` has shape ``(..., n_variables)``; the result has shape
        ``(..., n_trajectories, n_segments)`` with one trajectory when
        shared and ``n_lanes`` (in :meth:`lane_slice` order) otherwise.
        """
        vectors = np.asarray(vectors, dtype=float)
        if vectors.shape[-1:] != (self.n_variables,):
            raise ValueError(
                f"decision vector must have shape ({self.n_variables},), "
                f"got {vectors.shape}"
            )
        widths = self.vector_to_widths(vectors)
        return widths.reshape(vectors.shape[:-1] + (-1, self.n_segments))

    def profiles_from_vector(self, vector: np.ndarray) -> List[WidthProfile]:
        """Build one :class:`WidthProfile` per lane from a decision vector."""
        length = self.geometry.length
        profiles = [
            WidthProfile.piecewise_constant(widths, length)
            for widths in self.segment_widths(vector)
        ]
        if self.shared:
            return profiles * self.n_lanes
        return profiles

    def vector_from_profiles(self, profiles: Sequence[WidthProfile]) -> np.ndarray:
        """Project existing width profiles onto the decision vector.

        Used to warm-start the optimizer from a previous design or from a
        uniform baseline.
        """
        if self.shared:
            resampled = profiles[0].resampled(self.n_segments)
            return self.widths_to_vector(resampled.segment_widths)
        if len(profiles) != self.n_lanes:
            raise ValueError(
                f"expected {self.n_lanes} profiles, got {len(profiles)}"
            )
        pieces = [
            self.widths_to_vector(
                profile.resampled(self.n_segments).segment_widths
            )
            for profile in profiles
        ]
        return np.concatenate(pieces)

    # -- common starting points ------------------------------------------------------

    def uniform_vector(self, width: float) -> np.ndarray:
        """Decision vector describing a uniform width in every lane/segment."""
        low, high = self.width_bounds
        if not (low <= width <= high):
            raise ValueError(
                f"uniform width {width} lies outside the bounds [{low}, {high}]"
            )
        value = (width - low) / (high - low)
        return np.full(self.n_variables, value)

    def midpoint_vector(self) -> np.ndarray:
        """Decision vector at the middle of the width range (default start)."""
        return np.full(self.n_variables, 0.5)

    def lane_slice(self, lane: int) -> slice:
        """Slice of the decision vector owned by ``lane`` (per-lane mode)."""
        if self.shared:
            return slice(0, self.n_segments)
        if not (0 <= lane < self.n_lanes):
            raise IndexError(f"lane index {lane} out of range")
        start = lane * self.n_segments
        return slice(start, start + self.n_segments)
