"""Solution objects returned by the thermal solvers.

A :class:`ThermalSolution` packages the steady-state fields produced by any
of the solvers (analytical BVP, superposition shooting or the
finite-difference workhorse) on a common z-grid:

* silicon temperatures ``T[layer, lane, k]`` (Kelvin),
* longitudinal heat flows ``q[layer, lane, k]`` (W),
* coolant temperatures ``T_coolant[lane, k]`` (Kelvin),

together with the metrics the paper reports: the thermal gradient
(max - min temperature over the whole structure), the per-node gradient
profiles ``dT/dz`` and the optimal-control cost ``J = \\int ||T'||^2 dz``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .._compat import trapezoid

__all__ = ["ThermalSolution"]


@dataclass
class ThermalSolution:
    """Steady-state thermal fields of a microchannel-cooled structure.

    Attributes
    ----------
    z:
        Grid of positions from the inlet, shape ``(n_points,)``, meters.
    temperatures:
        Silicon temperatures in Kelvin, shape ``(n_layers, n_lanes,
        n_points)``.  The paper's single-channel test structure has
        ``n_layers = 2`` and ``n_lanes = 1``.
    heat_flows:
        Longitudinal heat flows ``q_i(z)`` in W, same shape as
        ``temperatures``.
    coolant_temperatures:
        Coolant temperatures in Kelvin, shape ``(n_lanes, n_points)``.
    inlet_temperature:
        Coolant inlet temperature in Kelvin.
    metadata:
        Free-form solver metadata (solver name, grid size, residuals, ...).
    """

    z: np.ndarray
    temperatures: np.ndarray
    heat_flows: np.ndarray
    coolant_temperatures: np.ndarray
    inlet_temperature: float
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.z = np.asarray(self.z, dtype=float)
        self.temperatures = np.asarray(self.temperatures, dtype=float)
        self.heat_flows = np.asarray(self.heat_flows, dtype=float)
        self.coolant_temperatures = np.asarray(
            self.coolant_temperatures, dtype=float
        )
        if self.z.ndim != 1 or self.z.size < 2:
            raise ValueError("z must be a 1-D grid with at least two points")
        if self.temperatures.ndim != 3:
            raise ValueError(
                "temperatures must have shape (n_layers, n_lanes, n_points)"
            )
        if self.temperatures.shape != self.heat_flows.shape:
            raise ValueError("temperatures and heat_flows must have equal shapes")
        if self.coolant_temperatures.shape != (
            self.temperatures.shape[1],
            self.z.size,
        ):
            raise ValueError(
                "coolant_temperatures must have shape (n_lanes, n_points)"
            )
        if self.temperatures.shape[2] != self.z.size:
            raise ValueError("field arrays must match the z grid length")

    # -- basic shape queries -------------------------------------------------

    @property
    def n_layers(self) -> int:
        """Number of active silicon layers."""
        return self.temperatures.shape[0]

    @property
    def n_lanes(self) -> int:
        """Number of modeled channel lanes."""
        return self.temperatures.shape[1]

    @property
    def n_points(self) -> int:
        """Number of grid points along the channel."""
        return self.z.size

    @property
    def length(self) -> float:
        """Channel length covered by the grid, meters."""
        return float(self.z[-1] - self.z[0])

    # -- temperatures ----------------------------------------------------------

    @property
    def peak_temperature(self) -> float:
        """Maximum silicon temperature in Kelvin."""
        return float(np.max(self.temperatures))

    @property
    def min_temperature(self) -> float:
        """Minimum silicon temperature in Kelvin."""
        return float(np.min(self.temperatures))

    @property
    def thermal_gradient(self) -> float:
        """The paper's thermal gradient metric: max - min silicon temperature (K).

        The paper defines the thermal gradient of a design as the difference
        between the maximum and minimum temperatures observed anywhere in
        the IC (Section V-A).
        """
        return self.peak_temperature - self.min_temperature

    @property
    def coolant_outlet_temperature(self) -> float:
        """Highest coolant outlet temperature across lanes (K)."""
        return float(np.max(self.coolant_temperatures[:, -1]))

    @property
    def coolant_temperature_rise(self) -> float:
        """Largest coolant temperature rise from inlet to outlet (K)."""
        return self.coolant_outlet_temperature - self.inlet_temperature

    def temperatures_celsius(self) -> np.ndarray:
        """Silicon temperatures converted to degrees Celsius."""
        return self.temperatures - 273.15

    def temperature_change_from_inlet(self) -> np.ndarray:
        """``T(z) - T(0)`` per layer and lane -- the quantity plotted in Fig. 5."""
        return self.temperatures - self.temperatures[:, :, :1]

    # -- gradients & cost ------------------------------------------------------

    def temperature_gradients(self) -> np.ndarray:
        """``dT/dz`` for every layer and lane, shape like ``temperatures`` (K/m)."""
        return np.gradient(self.temperatures, self.z, axis=2)

    def gradient_norm_squared(self) -> np.ndarray:
        """``||T'(z)||^2`` -- squared Euclidean norm over all nodes, per z point."""
        grads = self.temperature_gradients()
        return np.sum(grads**2, axis=(0, 1))

    @property
    def cost(self) -> float:
        """The paper's optimal-control cost ``J = \\int_0^d ||T'||^2 dz``."""
        return float(trapezoid(self.gradient_norm_squared(), self.z))

    @property
    def heat_flow_cost(self) -> float:
        """The equivalent cost expressed with heat flows, ``\\int ||q||^2 dz``.

        Section IV-A notes that ``||T'||^2`` can be replaced by ``||q||^2``
        since ``q_i = -g_l dT_i/dz``; this property exposes that form.
        """
        return float(trapezoid(np.sum(self.heat_flows**2, axis=(0, 1)), self.z))

    # -- energy bookkeeping ----------------------------------------------------

    def absorbed_power(self, capacity_rate: float) -> float:
        """Power carried away by the coolant, summed over lanes (W).

        ``capacity_rate`` is the per-lane coolant capacity rate ``c_v V_dot``
        in W/K (all lanes are assumed to share the same flow rate, as per
        the paper's assumption 3).
        """
        rises = self.coolant_temperatures[:, -1] - self.coolant_temperatures[:, 0]
        return float(capacity_rate * np.sum(rises))

    # -- extraction helpers -----------------------------------------------------

    def lane_maximum(self) -> np.ndarray:
        """Per-lane maximum silicon temperature, shape ``(n_lanes,)`` (K)."""
        return np.max(self.temperatures, axis=(0, 2))

    def as_map(self, layer: int) -> np.ndarray:
        """A (n_lanes, n_points) temperature map of one layer, in Kelvin.

        Lanes are rows (the y direction of the die) and grid points are
        columns (the flow direction z); this is the array rendered by
        :mod:`repro.analysis.maps` for Figs. 1 and 9.
        """
        return self.temperatures[layer].copy()

    def summary(self) -> Dict[str, float]:
        """Key scalar metrics, for reports and experiment tables."""
        return {
            "peak_temperature_K": self.peak_temperature,
            "min_temperature_K": self.min_temperature,
            "thermal_gradient_K": self.thermal_gradient,
            "coolant_rise_K": self.coolant_temperature_rise,
            "cost_J": self.cost,
        }
