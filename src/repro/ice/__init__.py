"""Finite-volume compact thermal simulator (3D-ICE-like substrate).

A grid-based steady-state and transient thermal simulator for liquid-cooled
3D stacks: solid layers with conduction and heat sources, microchannel
cavity layers with convection and coolant advection, adiabatic outer
surfaces.  It plays the role 3D-ICE plays in the paper -- validating the
analytical model and rendering the full-die thermal maps of Figs. 1 and 9.
"""

from .stack import CavityLayer, LayerStack, SolidLayer
from .results import ThermalMapResult, TransientResult
from .solver import (
    AssembledSystem,
    SteadyStateSolver,
    assemble_system,
    base_cache_info,
    clear_base_cache,
)
from .transient import TransientSolver
from .builders import (
    multi_die_stack_from_architecture,
    multi_die_stack_from_maps,
    two_die_stack_from_architecture,
    two_die_stack_from_floorplans,
    two_die_stack_from_maps,
)
from .validation import ValidationReport, validate_against_analytical

__all__ = [
    "CavityLayer",
    "LayerStack",
    "SolidLayer",
    "ThermalMapResult",
    "TransientResult",
    "AssembledSystem",
    "SteadyStateSolver",
    "TransientSolver",
    "assemble_system",
    "base_cache_info",
    "clear_base_cache",
    "multi_die_stack_from_architecture",
    "multi_die_stack_from_maps",
    "two_die_stack_from_architecture",
    "two_die_stack_from_floorplans",
    "two_die_stack_from_maps",
    "ValidationReport",
    "validate_against_analytical",
]
