"""Analytical thermal modeling of microchannel liquid-cooled 3D ICs.

This subpackage implements the thermal substrate of the reproduction: the
per-unit-length thermal network of Sec. III of the paper, its state-space
ODE form, boundary-value solvers, and the multi-channel finite-difference
workhorse used by the optimizer and by the 3D-MPSoC experiments.
"""

from .properties import (
    BEOL,
    COPPER,
    COOLANT_LIBRARY,
    Coolant,
    MATERIAL_LIBRARY,
    PaperParameters,
    SILICON,
    SILICON_DIOXIDE,
    SolidMaterial,
    TABLE_I,
    WATER,
    ml_per_min_to_m3_per_s,
    m3_per_s_to_ml_per_min,
)
from .correlations import (
    ChannelFlowState,
    aspect_ratio,
    characterize_flow,
    friction_factor_times_reynolds,
    graetz_number,
    heat_transfer_coefficient,
    hydraulic_diameter,
    mean_velocity,
    nusselt_developing,
    nusselt_fully_developed_h1,
    nusselt_fully_developed_t,
    prandtl_number,
    reynolds_number,
)
from .geometry import (
    ChannelGeometry,
    HeatInputProfile,
    MultiChannelStructure,
    TestStructure,
    WidthProfile,
)
from .conductances import (
    ElementConductances,
    capacity_rate,
    convective_conductance,
    evaluate_conductances,
    lateral_conductance,
    layer_to_coolant_conductance,
    longitudinal_conductance,
    sidewall_conductance,
    slab_conductance,
)
from .state_space import (
    AUGMENTED_STATE_NAMES,
    REDUCED_STATE_NAMES,
    SingleChannelStateSpace,
)
from .solution import ThermalSolution
from .assembly import (
    AssembledSystem,
    SparsityPattern,
    assemble_system,
    clear_pattern_cache,
    pattern_cache_info,
)
from .backends import (
    DEFAULT_BACKEND,
    AutoBackend,
    DenseBackend,
    SolverBackend,
    SparseLUBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from .bvp import solve_trapezoidal
from .fdm import solve_finite_difference, solve_structure
from .multichannel import build_cavity, cavity_from_flux_maps, cluster_line_densities

__all__ = [
    # properties
    "BEOL",
    "COPPER",
    "COOLANT_LIBRARY",
    "Coolant",
    "MATERIAL_LIBRARY",
    "PaperParameters",
    "SILICON",
    "SILICON_DIOXIDE",
    "SolidMaterial",
    "TABLE_I",
    "WATER",
    "ml_per_min_to_m3_per_s",
    "m3_per_s_to_ml_per_min",
    # correlations
    "ChannelFlowState",
    "aspect_ratio",
    "characterize_flow",
    "friction_factor_times_reynolds",
    "graetz_number",
    "heat_transfer_coefficient",
    "hydraulic_diameter",
    "mean_velocity",
    "nusselt_developing",
    "nusselt_fully_developed_h1",
    "nusselt_fully_developed_t",
    "prandtl_number",
    "reynolds_number",
    # geometry
    "ChannelGeometry",
    "HeatInputProfile",
    "MultiChannelStructure",
    "TestStructure",
    "WidthProfile",
    # conductances
    "ElementConductances",
    "capacity_rate",
    "convective_conductance",
    "evaluate_conductances",
    "lateral_conductance",
    "layer_to_coolant_conductance",
    "longitudinal_conductance",
    "sidewall_conductance",
    "slab_conductance",
    # assembly & backends
    "AssembledSystem",
    "SparsityPattern",
    "assemble_system",
    "clear_pattern_cache",
    "pattern_cache_info",
    "DEFAULT_BACKEND",
    "AutoBackend",
    "DenseBackend",
    "SolverBackend",
    "SparseLUBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    # state space & solvers
    "AUGMENTED_STATE_NAMES",
    "REDUCED_STATE_NAMES",
    "SingleChannelStateSpace",
    "ThermalSolution",
    "solve_trapezoidal",
    "solve_finite_difference",
    "solve_structure",
    # multichannel builders
    "build_cavity",
    "cavity_from_flux_maps",
    "cluster_line_densities",
]
