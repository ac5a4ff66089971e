"""Layer-stack descriptions for the finite-volume 3D thermal simulator.

The simulator (`repro.ice`) plays the role that the 3D-ICE compact thermal
simulator plays in the paper: an independent, grid-based model used to
validate the analytical formulation and to render full-die thermal maps
(Figs. 1 and 9).  A 3D IC is described as an ordered stack of layers, each
either

* a :class:`SolidLayer` -- a slab of a homogeneous solid material, optionally
  carrying a heat-source map (an *active* layer), or
* a :class:`CavityLayer` -- a microchannel cavity with coolant flowing along
  the ``x`` direction, characterized by the channel pitch, the channel
  height, a (possibly position-dependent) channel width and the per-channel
  volumetric flow rate.

Layers are listed bottom-up.  The lateral cell grid is shared by all layers
(``n_cols`` cells along the flow direction ``x``, ``n_rows`` across it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from ..thermal.geometry import WidthProfile
from ..thermal.properties import Coolant, SolidMaterial, TABLE_I

__all__ = ["SolidLayer", "CavityLayer", "LayerStack"]


@dataclass
class SolidLayer:
    """A homogeneous solid layer of the stack.

    Attributes
    ----------
    name:
        Layer name (used to retrieve the layer's thermal map from results).
    material:
        Solid material of the layer.
    thickness:
        Layer thickness in meters.
    heat_source:
        Optional areal heat-flux map in W/cm^2 with shape
        ``(n_rows, n_cols)`` (or a scalar applied uniformly); an active
        silicon layer carries the power of the die attached to it.
    """

    name: str
    material: SolidMaterial
    thickness: float
    heat_source: Optional[Union[float, np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.thickness <= 0.0:
            raise ValueError(f"layer {self.name!r} thickness must be positive")

    @property
    def is_cavity(self) -> bool:
        """False for solid layers."""
        return False

    def heat_map(self, n_rows: int, n_cols: int) -> np.ndarray:
        """The heat-source map resampled/broadcast to the cell grid (W/cm^2)."""
        if self.heat_source is None:
            return np.zeros((n_rows, n_cols))
        if np.isscalar(self.heat_source):
            return np.full((n_rows, n_cols), float(self.heat_source))
        source = np.asarray(self.heat_source, dtype=float)
        if source.shape == (n_rows, n_cols):
            return source.copy()
        return _resample_map(source, n_rows, n_cols)


@dataclass
class CavityLayer:
    """A microchannel cavity layer with coolant flowing along ``x``.

    Attributes
    ----------
    name:
        Layer name.
    channel_height:
        Cavity (channel) height ``H_C`` in meters.
    channel_pitch:
        Lateral pitch ``W`` of the physical channels in meters.
    width_profile:
        Channel width as a function of the distance from the inlet.  A
        single profile applies to every channel; per-channel profiles can be
        supplied as a list with one entry per physical channel.
    flow_rate_per_channel:
        Volumetric flow rate per physical channel in m^3/s.
    coolant:
        Coolant properties.
    inlet_temperature:
        Coolant temperature at the inlet (x = 0) in Kelvin.
    wall_material:
        Material of the solid channel side walls (silicon by default).
    """

    name: str
    channel_height: float = TABLE_I.channel_height
    channel_pitch: float = TABLE_I.channel_pitch
    width_profile: Union[WidthProfile, Sequence[WidthProfile], None] = None
    flow_rate_per_channel: float = TABLE_I.flow_rate_per_channel
    coolant: Coolant = TABLE_I.coolant
    inlet_temperature: float = TABLE_I.inlet_temperature
    wall_material: SolidMaterial = TABLE_I.silicon

    def __post_init__(self) -> None:
        if self.channel_height <= 0.0 or self.channel_pitch <= 0.0:
            raise ValueError("channel height and pitch must be positive")
        if self.flow_rate_per_channel <= 0.0:
            raise ValueError("flow rate must be positive")
        if self.inlet_temperature <= 0.0:
            raise ValueError("inlet temperature must be positive (Kelvin)")

    @property
    def is_cavity(self) -> bool:
        """True for cavity layers."""
        return True

    @property
    def thickness(self) -> float:
        """The cavity occupies the channel height."""
        return self.channel_height

    def default_width_profile(self, die_length: float) -> WidthProfile:
        """The width profile used when none is supplied (uniform maximum width)."""
        return WidthProfile.uniform(TABLE_I.max_channel_width, die_length)

    def widths_for_channels(
        self, n_channels: int, die_length: float, x_centers: np.ndarray
    ) -> np.ndarray:
        """Channel widths per (channel, x-cell), shape ``(n_channels, n_x)``."""
        profile = self.width_profile
        if profile is None:
            profile = self.default_width_profile(die_length)
        if isinstance(profile, WidthProfile):
            row = np.atleast_1d(profile(x_centers))
            return np.tile(row, (n_channels, 1))
        profiles = list(profile)
        if len(profiles) != n_channels:
            raise ValueError(
                f"expected {n_channels} per-channel width profiles, "
                f"got {len(profiles)}"
            )
        return np.vstack([np.atleast_1d(p(x_centers)) for p in profiles])


@dataclass
class LayerStack:
    """A complete 3D stack: die extents, cell grid and ordered layers.

    Attributes
    ----------
    die_length:
        Die extent along the flow direction ``x`` in meters.
    die_width:
        Die extent across the flow direction ``y`` in meters.
    layers:
        Layers listed bottom-up.
    n_cols, n_rows:
        Lateral cell grid (columns along ``x``, rows along ``y``).
    ambient_temperature:
        Reference temperature (K) used as the initial condition by the
        transient solver.  The steady-state solver treats all outer surfaces
        as adiabatic (as in the paper), so the ambient value does not affect
        steady results.
    """

    die_length: float
    die_width: float
    layers: List[Union[SolidLayer, CavityLayer]] = field(default_factory=list)
    n_cols: int = 50
    n_rows: int = 55
    ambient_temperature: float = 300.0

    def __post_init__(self) -> None:
        if self.die_length <= 0.0 or self.die_width <= 0.0:
            raise ValueError("die extents must be positive")
        if self.n_cols < 2 or self.n_rows < 1:
            raise ValueError(
                "the cell grid needs at least 2 columns and 1 row"
            )
        if not self.layers:
            raise ValueError("a stack needs at least one layer")
        if self.layers[0].is_cavity or self.layers[-1].is_cavity:
            raise ValueError("the bottom and top layers must be solid")
        for below, above in zip(self.layers, self.layers[1:]):
            if below.is_cavity and above.is_cavity:
                raise ValueError("two cavity layers cannot be adjacent")
        names = [layer.name for layer in self.layers]
        if len(names) != len(set(names)):
            raise ValueError("layer names must be unique")

    # -- geometry helpers -----------------------------------------------------

    @property
    def n_layers(self) -> int:
        """Number of layers in the stack."""
        return len(self.layers)

    @property
    def cell_length(self) -> float:
        """Cell extent along the flow direction (m)."""
        return self.die_length / self.n_cols

    @property
    def cell_width(self) -> float:
        """Cell extent across the flow direction (m)."""
        return self.die_width / self.n_rows

    @property
    def cell_area(self) -> float:
        """Plan-view area of one cell (m^2)."""
        return self.cell_length * self.cell_width

    def cell_power(self, flux: np.ndarray) -> np.ndarray:
        """Heat per cell (W) of a heat-flux map in W/cm^2."""
        return flux * 1e4 * self.cell_area

    def x_centers(self) -> np.ndarray:
        """x coordinates of the cell centers (m), shape ``(n_cols,)``."""
        return (np.arange(self.n_cols) + 0.5) * self.cell_length

    def layer_index(self, name: str) -> int:
        """Index of the layer with the given name."""
        for index, layer in enumerate(self.layers):
            if layer.name == name:
                return index
        raise KeyError(f"no layer named {name!r}")

    def layer(self, name: str) -> Union[SolidLayer, CavityLayer]:
        """The layer with the given name."""
        return self.layers[self.layer_index(name)]

    def solid_layer_names(self) -> List[str]:
        """Names of the solid layers, bottom-up."""
        return [layer.name for layer in self.layers if not layer.is_cavity]

    def cavity_layer_names(self) -> List[str]:
        """Names of the cavity layers, bottom-up."""
        return [layer.name for layer in self.layers if layer.is_cavity]

    def channels_per_cavity(self) -> int:
        """Number of physical channels spanning the die width."""
        cavities = [layer for layer in self.layers if layer.is_cavity]
        if not cavities:
            return 0
        pitch = cavities[0].channel_pitch
        return max(int(round(self.die_width / pitch)), 1)


def _resample_map(source: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """Nearest-neighbour resampling of a heat map onto the cell grid."""
    rows = np.clip(
        (np.arange(n_rows) + 0.5) / n_rows * source.shape[0], 0, source.shape[0] - 1
    ).astype(int)
    cols = np.clip(
        (np.arange(n_cols) + 0.5) / n_cols * source.shape[1], 0, source.shape[1] - 1
    ).astype(int)
    return source[np.ix_(rows, cols)]
