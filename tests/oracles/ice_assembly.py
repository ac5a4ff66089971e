"""Triple-loop assembly of the finite-volume stack system.

This is the original assembly of :mod:`repro.ice.solver`, before the
whole-array triplet construction over a cached stack pattern.  It visits
every cell of every layer and emits one coefficient at a time, through the
same conductance helpers the production assembly uses, so comparing the
two checks the vectorized emission order and masking bit for bit:

* :func:`assemble_system_loop` returns ``(matrix, rhs, capacitances)``,
  optionally with film coolant records for the convection of some
  cavities (the fresh assembly of a Picard pass);
* :func:`cavity_row_widths` groups the channels onto the cell rows one
  channel at a time (production accumulates them in one ``np.add.at``);
* :func:`backward_euler_states` integrates ``C dT/dt = -(A T - b)`` with the
  arithmetic of :meth:`repro.ice.transient.TransientSolver.integrate`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy import sparse

from repro.ice.solver import (
    _lateral_conductances,
    _vertical_conductance_between,
)
from repro.thermal import correlations

__all__ = ["assemble_system_loop", "backward_euler_states", "cavity_row_widths"]


def cavity_row_widths(stack, layer, x_centers):
    """Mean channel width per cell and channels per row, one channel at a time."""
    n_rows, n_cols = stack.n_rows, stack.n_cols
    n_channels = stack.channels_per_cavity()
    channels_per_row = n_channels / n_rows
    widths = layer.widths_for_channels(n_channels, stack.die_length, x_centers)
    row_of_channel = np.minimum(
        (np.arange(n_channels) * n_rows) // max(n_channels, 1), n_rows - 1
    )
    row_widths = np.zeros((n_rows, n_cols))
    counts = np.zeros(n_rows)
    for channel in range(n_channels):
        row_widths[row_of_channel[channel]] += widths[channel]
        counts[row_of_channel[channel]] += 1
    counts[counts == 0] = 1.0
    row_widths /= counts[:, None]
    return row_widths, channels_per_row


def _cell_film(film, row, col):
    """One cell's record of an array-valued film ``CoolantState``."""
    return dataclasses.replace(
        film,
        **{
            field.name: np.asarray(getattr(film, field.name))[row, col]
            for field in dataclasses.fields(film)
            if field.name != "name"
        },
    )


class _LoopAssembler:
    def __init__(self, stack, coolant_films=None) -> None:
        self.stack = stack
        self.coolant_films = coolant_films or {}
        self.n_unknowns = stack.n_layers * stack.n_rows * stack.n_cols
        self.rows = []
        self.cols = []
        self.values = []
        self.rhs = np.zeros(self.n_unknowns)
        self.capacitances = np.zeros(self.n_unknowns)

    def index(self, layer: int, row: int, col: int) -> int:
        return (layer * self.stack.n_rows + row) * self.stack.n_cols + col

    def add(self, row: int, col: int, value: float) -> None:
        if value != 0.0:
            self.rows.append(row)
            self.cols.append(col)
            self.values.append(value)

    def assemble(self):
        stack = self.stack
        n_rows, n_cols = stack.n_rows, stack.n_cols
        x_centers = stack.x_centers()

        for layer_idx, layer in enumerate(stack.layers):
            if layer.is_cavity:
                self.cavity_layer(layer_idx, layer, x_centers)
            else:
                self.solid_layer(layer_idx, layer)

        # Vertical coupling between directly adjacent solid layers (no cavity
        # in between).
        for lower_idx in range(stack.n_layers - 1):
            lower = stack.layers[lower_idx]
            upper = stack.layers[lower_idx + 1]
            if lower.is_cavity or upper.is_cavity:
                continue
            g_vertical = _vertical_conductance_between(stack, lower, upper)
            for row in range(n_rows):
                for col in range(n_cols):
                    a = self.index(lower_idx, row, col)
                    b = self.index(lower_idx + 1, row, col)
                    self.add(a, a, g_vertical)
                    self.add(a, b, -g_vertical)
                    self.add(b, b, g_vertical)
                    self.add(b, a, -g_vertical)

        matrix = sparse.csr_matrix(
            (self.values, (self.rows, self.cols)),
            shape=(self.n_unknowns, self.n_unknowns),
        )
        return matrix, self.rhs, self.capacitances

    def solid_layer(self, layer_idx, layer) -> None:
        stack = self.stack
        n_rows, n_cols = stack.n_rows, stack.n_cols
        g_x, g_y = _lateral_conductances(stack, layer)
        heat = layer.heat_map(n_rows, n_cols) * 1e4 * stack.cell_area  # W per cell
        capacitance = (
            layer.material.volumetric_heat_capacity
            * layer.thickness
            * stack.cell_area
        )
        for row in range(n_rows):
            for col in range(n_cols):
                here = self.index(layer_idx, row, col)
                self.rhs[here] += heat[row, col]
                self.capacitances[here] = capacitance
                if col + 1 < n_cols:
                    neighbour = self.index(layer_idx, row, col + 1)
                    self.add(here, here, g_x)
                    self.add(here, neighbour, -g_x)
                    self.add(neighbour, neighbour, g_x)
                    self.add(neighbour, here, -g_x)
                if row + 1 < n_rows:
                    neighbour = self.index(layer_idx, row + 1, col)
                    self.add(here, here, g_y)
                    self.add(here, neighbour, -g_y)
                    self.add(neighbour, neighbour, g_y)
                    self.add(neighbour, here, -g_y)

    def cavity_layer(self, layer_idx, layer, x_centers) -> None:
        stack = self.stack
        n_rows, n_cols = stack.n_rows, stack.n_cols
        lower_idx, upper_idx = layer_idx - 1, layer_idx + 1
        lower = stack.layers[lower_idx]
        upper = stack.layers[upper_idx]
        if lower.is_cavity or upper.is_cavity:
            raise ValueError("a cavity layer must sit between two solid layers")

        row_widths, channels_per_row = cavity_row_widths(stack, layer, x_centers)
        capacity_rate_cell = (
            layer.coolant.volumetric_heat_capacity
            * layer.flow_rate_per_channel
            * channels_per_row
        )
        fluid_capacitance = (
            layer.coolant.volumetric_heat_capacity
            * layer.channel_height
            * stack.cell_area
        )
        film = self.coolant_films.get(layer_idx)

        for row in range(n_rows):
            for col in range(n_cols):
                width = float(row_widths[row, col])
                coolant_node = self.index(layer_idx, row, col)
                below_node = self.index(lower_idx, row, col)
                above_node = self.index(upper_idx, row, col)
                self.capacitances[coolant_node] = fluid_capacitance

                # Convective conductance channel->coolant for the channels
                # crossing this cell, per adjacent die (half of the wetted
                # perimeter each), in series with the half-thickness
                # conduction of the adjacent solid layer.
                coolant = (
                    layer.coolant if film is None else _cell_film(film, row, col)
                )
                h = correlations.heat_transfer_coefficient(
                    width, layer.channel_height, coolant
                )
                wetted_per_layer = (width + layer.channel_height) * (
                    stack.cell_length * channels_per_row
                )
                g_convection = h * wetted_per_layer
                for solid_idx, solid_node in (
                    (lower_idx, below_node),
                    (upper_idx, above_node),
                ):
                    solid = stack.layers[solid_idx]
                    half_resistance = solid.thickness / (
                        2.0
                        * solid.material.thermal_conductivity
                        * stack.cell_area
                    )
                    g_total = 1.0 / (half_resistance + 1.0 / g_convection)
                    self.add(solid_node, solid_node, g_total)
                    self.add(solid_node, coolant_node, -g_total)
                    self.add(coolant_node, coolant_node, g_total)
                    self.add(coolant_node, solid_node, -g_total)

                # Vertical conduction through the solid channel walls
                # (fraction 1 - w/W of the cell footprint), connecting the
                # two dies directly.
                wall_fraction = max(1.0 - width / layer.channel_pitch, 0.0)
                if wall_fraction > 0.0:
                    wall_area = wall_fraction * stack.cell_area
                    resistance = (
                        lower.thickness
                        / (2.0 * lower.material.thermal_conductivity * wall_area)
                        + layer.channel_height
                        / (layer.wall_material.thermal_conductivity * wall_area)
                        + upper.thickness
                        / (2.0 * upper.material.thermal_conductivity * wall_area)
                    )
                    g_wall = 1.0 / resistance
                    self.add(below_node, below_node, g_wall)
                    self.add(below_node, above_node, -g_wall)
                    self.add(above_node, above_node, g_wall)
                    self.add(above_node, below_node, -g_wall)

                # Coolant advection (upwind along +x).
                self.add(coolant_node, coolant_node, capacity_rate_cell)
                if col == 0:
                    self.rhs[coolant_node] += (
                        capacity_rate_cell * layer.inlet_temperature
                    )
                else:
                    upstream = self.index(layer_idx, row, col - 1)
                    self.add(coolant_node, upstream, -capacity_rate_cell)


def assemble_system_loop(stack, coolant_films=None):
    """``(matrix, rhs, capacitances)`` of the stack, one cell at a time.

    ``coolant_films`` maps a cavity layer index to an array-valued film
    ``CoolantState``; that cavity's convection then reads each cell's film
    record, while its capacity rate, inlet enthalpy and fluid capacitance
    keep the layer's own coolant.
    """
    return _LoopAssembler(stack, coolant_films).assemble()


def backward_euler_states(
    matrix, rhs, capacitances, initial, time_step, n_steps, backend
):
    """Every state of ``n_steps`` backward-Euler steps from ``initial``.

    ``(C/dt + A) T_{n+1} = (C/dt) T_n + b`` with the operand order and
    per-step solve of the production integrator, plus a zero-capacitance
    guard that is a no-op on any stack the layer validators accept.
    """
    capacitances = capacitances.copy()
    capacitances[capacitances <= 0.0] = np.min(capacitances[capacitances > 0.0])
    c_over_dt = sparse.diags(capacitances / time_step)
    factorization = backend.solver_for((c_over_dt + matrix).tocsr())
    temperature = np.asarray(initial, dtype=float)
    states = [temperature.copy()]
    for _ in range(int(n_steps)):
        temperature = factorization.solve(rhs + c_over_dt @ temperature)
        states.append(temperature.copy())
    return states
