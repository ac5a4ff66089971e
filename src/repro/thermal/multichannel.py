"""Builders for multi-channel cavity models.

The analytical model of the paper describes one channel; Sec. III explains
how it extends to many adjacent channels (two extra nodes per channel,
lateral heat spreading in the y direction) and how several physical channels
can be *combined* under one pair of nodes by scaling the per-unit-length
parameters.  This module builds :class:`MultiChannelStructure` instances
from per-lane heat descriptions, handling the clustering bookkeeping so the
floorplan layer and the optimizer never have to repeat it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
from scipy import sparse

from .geometry import (
    ChannelGeometry,
    HeatInputProfile,
    MultiChannelStructure,
    TestStructure,
    WidthProfile,
)
from .properties import Coolant, PaperParameters, SolidMaterial, TABLE_I

__all__ = [
    "build_cavity",
    "cavity_from_flux_maps",
    "cluster_line_densities",
]


def build_cavity(
    geometry: ChannelGeometry,
    heat_top: Sequence[HeatInputProfile],
    heat_bottom: Sequence[HeatInputProfile],
    width_profiles: Optional[Sequence[WidthProfile]] = None,
    *,
    silicon: SolidMaterial = TABLE_I.silicon,
    coolant: Coolant = TABLE_I.coolant,
    flow_rate: float = TABLE_I.flow_rate_per_channel,
    inlet_temperature: float = TABLE_I.inlet_temperature,
    cluster_size: int = 1,
    lateral_coupling: bool = True,
    developing_flow: bool = False,
) -> MultiChannelStructure:
    """Assemble a cavity from per-lane heat inputs and width profiles.

    Parameters
    ----------
    geometry:
        Geometry of one *physical* channel cell.
    heat_top, heat_bottom:
        One heat-input profile per modeled lane for the top and bottom
        active layers.  When ``cluster_size > 1`` the profiles must already
        contain the total power of all physical channels merged into the
        lane (use :func:`cluster_line_densities` to aggregate them).
    width_profiles:
        One width profile per lane; defaults to the maximum channel width
        everywhere (the common design used by prior work, per Sec. V).
    flow_rate:
        Volumetric flow rate per *physical* channel (paper assumption 3).
    cluster_size:
        Number of physical channels per modeled lane.
    """
    if len(heat_top) != len(heat_bottom):
        raise ValueError("heat_top and heat_bottom must have the same lane count")
    n_lanes = len(heat_top)
    if n_lanes == 0:
        raise ValueError("at least one lane is required")
    if width_profiles is None:
        width_profiles = [
            WidthProfile.uniform(geometry.max_width, geometry.length)
            for _ in range(n_lanes)
        ]
    if len(width_profiles) != n_lanes:
        raise ValueError("one width profile per lane is required")

    lanes = []
    for top, bottom, width in zip(heat_top, heat_bottom, width_profiles):
        lanes.append(
            TestStructure(
                geometry=geometry,
                width_profile=width,
                heat_top=top,
                heat_bottom=bottom,
                silicon=silicon,
                coolant=coolant,
                flow_rate=flow_rate,
                inlet_temperature=inlet_temperature,
                developing_flow=developing_flow,
            )
        )
    return MultiChannelStructure(
        geometry=geometry,
        lanes=tuple(lanes),
        cluster_size=cluster_size,
        lateral_coupling=lateral_coupling,
    )


def cluster_line_densities(
    per_channel_densities: np.ndarray, cluster_size: int
) -> np.ndarray:
    """Aggregate per-physical-channel line heat densities into lane totals.

    ``per_channel_densities`` has shape ``(n_channels, n_samples)`` in W/m;
    consecutive groups of ``cluster_size`` channels are summed.  A trailing
    partial group is scaled up to a full cluster so that the total power of
    the cavity is preserved (this mirrors how a designer would pad the last
    cluster with the same average load).
    """
    densities = np.asarray(per_channel_densities, dtype=float)
    if densities.ndim != 2:
        raise ValueError("per_channel_densities must be 2-D")
    if cluster_size < 1:
        raise ValueError("cluster_size must be at least 1")
    n_channels = densities.shape[0]
    n_lanes = int(np.ceil(n_channels / cluster_size))
    lanes = np.zeros((n_lanes, densities.shape[1]))
    for lane in range(n_lanes):
        start = lane * cluster_size
        stop = min(start + cluster_size, n_channels)
        group = densities[start:stop]
        total = group.sum(axis=0)
        if stop - start < cluster_size:
            total = total * (cluster_size / (stop - start))
        lanes[lane] = total
    return lanes


def _channel_line_densities(
    flux_maps: Sequence[np.ndarray], die_width: float, n_channels: int
) -> List[np.ndarray]:
    """Per-physical-channel line densities (W/m) of areal flux maps (W/cm^2).

    Each channel integrates the flux over its own pitch-wide band: row ``r``
    of a map contributes its flux times the width of the row band the
    channel covers.  The ``(n_channels, n_rows)`` overlap matrix is built
    once by broadcasting and applied as a CSR product, which adds each
    channel's rows in row order -- the summation order of a per-channel
    ``(flux * overlap[:, None]).sum(axis=0)`` reduction, so the result is
    bit-identical to it (a BLAS ``@`` would reorder the sums).
    """
    n_rows = flux_maps[0].shape[0]
    row_edges = np.linspace(0.0, die_width, n_rows + 1)
    channel_edges = np.linspace(0.0, die_width, n_channels + 1)
    overlap = np.clip(
        np.minimum(channel_edges[1:, None], row_edges[None, 1:])
        - np.maximum(channel_edges[:-1, None], row_edges[None, :-1]),
        0.0,
        None,
    )
    projection = sparse.csr_matrix(overlap)
    return [projection @ (flux * 1e4) for flux in flux_maps]


def cavity_from_flux_maps(
    flux_top_w_per_cm2: np.ndarray,
    flux_bottom_w_per_cm2: np.ndarray,
    *,
    params: PaperParameters = TABLE_I,
    die_length: Optional[float] = None,
    die_width: Optional[float] = None,
    cluster_size: int = 1,
    width_profiles: Optional[Sequence[WidthProfile]] = None,
    lateral_coupling: bool = True,
    developing_flow: bool = False,
) -> MultiChannelStructure:
    """Build a cavity model from two areal heat-flux maps (W/cm^2).

    The maps are 2-D arrays with the flow direction along axis 1 (columns,
    inlet at column 0) and the lateral direction along axis 0 (rows); each
    row band of the map is projected onto the physical channels underneath
    it in one sparse product over all channels (see
    :func:`_channel_line_densities`).  This is the bridge between the
    floorplan/power subsystem (which rasterizes block powers onto a grid)
    and the analytical cavity model.  The maps are only read, so the
    read-only rasters of :meth:`repro.floorplan.Floorplan.power_density_map`
    can be passed as they are.

    Parameters
    ----------
    flux_top_w_per_cm2, flux_bottom_w_per_cm2:
        Heat flux maps of the two active layers, same shape.
    die_length:
        Die extent along the flow direction (meters); defaults to the
        channel length in ``params``.
    die_width:
        Die extent across the flow direction (meters); defaults to
        ``n_channels * W`` for the number of physical channels that fit.
    cluster_size:
        Physical channels merged per modeled lane.
    """
    top = np.asarray(flux_top_w_per_cm2, dtype=float)
    bottom = np.asarray(flux_bottom_w_per_cm2, dtype=float)
    if top.shape != bottom.shape:
        raise ValueError("top and bottom flux maps must have the same shape")
    if top.ndim != 2:
        raise ValueError("flux maps must be 2-D arrays")

    length = params.channel_length if die_length is None else float(die_length)
    geometry = ChannelGeometry.from_parameters(params).__class__(
        pitch=params.channel_pitch,
        channel_height=params.channel_height,
        silicon_height=params.silicon_height,
        length=length,
        min_width=params.min_channel_width,
        max_width=params.max_channel_width,
    )

    if die_width is None:
        die_width = top.shape[0] * params.channel_pitch
    n_channels = max(int(round(die_width / params.channel_pitch)), 1)

    densities_top, densities_bottom = _channel_line_densities(
        (top, bottom), die_width, n_channels
    )
    lane_top = cluster_line_densities(densities_top, cluster_size)
    lane_bottom = cluster_line_densities(densities_bottom, cluster_size)

    # Column c of the map covers [c, c + 1) * length / n_cols along the
    # flow: exactly the equal-length segments of a piecewise-constant
    # profile, which (unlike a callable) fingerprints, so the evaluation
    # engine can cache solutions of rasterized designs.
    heat_top_profiles = [
        HeatInputProfile.piecewise_constant(values, length) for values in lane_top
    ]
    heat_bottom_profiles = [
        HeatInputProfile.piecewise_constant(values, length) for values in lane_bottom
    ]

    return build_cavity(
        geometry,
        heat_top_profiles,
        heat_bottom_profiles,
        width_profiles,
        silicon=params.silicon,
        coolant=params.coolant,
        flow_rate=params.flow_rate_per_channel,
        inlet_temperature=params.inlet_temperature,
        cluster_size=cluster_size,
        lateral_coupling=lateral_coupling,
        developing_flow=developing_flow,
    )
