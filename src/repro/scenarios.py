"""Declarative scenario specifications -- the serializable front door.

Every experiment of the paper (the Fig. 4 Test A/B workloads, the Fig. 7
Niagara stackings, the Sec. IV modulation flow) is described by one frozen
:class:`ScenarioSpec`: the structure/stacking, the workload, the grids, the
solver backend and the optimizer settings.  Specs round-trip losslessly
through :meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict` (and
their JSON twins), so a scenario can live in a file, travel over the wire,
or be checked into a repository -- the same move 3D-ICE makes with its
stack-description files.

A spec knows how to build both model families of the library:

* :meth:`ScenarioSpec.build_structure` -- the analytical multi-channel
  cavity consumed by the finite-difference solver and the optimizer;
* :meth:`ScenarioSpec.build_stack` -- the finite-volume layer stack
  consumed by the 3D-ICE-like simulator.

The module also keeps a process-wide registry of named scenarios,
pre-populated with the paper's experiments (``test-a``, ``test-b`` and the
three ``niagara-arch*`` stackings); :func:`resolve_scenario` turns a name,
a JSON file path, a dictionary or a spec into a :class:`ScenarioSpec`.

Example::

    from repro.scenarios import get_scenario

    spec = get_scenario("test-a")
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    structure = spec.build_structure()      # analytical cavity
    stack = spec.build_stack()              # finite-volume stack
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .config import ExperimentConfig, paper_parameters
from .core.optimizer import OptimizerSettings
from .core.picard import PicardSettings
from .core.registry import Registry
from .floorplan.architectures import architecture_names, get_architecture
from .floorplan.workloads import (
    TEST_A_FLUX,
    test_a_structure,
    test_b_fluxes,
    test_b_structure,
)
from .hydraulics.network import FlowNetwork
from .ice.builders import two_die_stack_from_architecture, two_die_stack_from_maps
from .ice.stack import LayerStack
from .thermal.geometry import (
    ChannelGeometry,
    HeatInputProfile,
    MultiChannelStructure,
    TestStructure,
    WidthProfile,
)
from .spec_codec import (
    Spec,
    coded_field,
    coerce,
    content_hash,
    finite_float,
    late_field,
)
from .thermal.properties import get_coolant_model
from .transient import PolicySpec, RomSpec, TraceSpec, TransientSpec

__all__ = [
    "WorkloadSpec",
    "GridSpec",
    "SolverSpec",
    "OptimizerSpec",
    "ScenarioSpec",
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "scenario_rows",
    "resolve_scenario",
]

#: Workload families a spec can describe.
WORKLOAD_KINDS: Tuple[str, ...] = ("test-a", "test-b", "architecture")

#: Simulator families a spec can request.
SIMULATOR_KINDS: Tuple[str, ...] = ("fdm", "ice")

#: Power scenarios of the floorplan power model.
POWER_SCENARIOS: Tuple[str, ...] = ("peak", "average")

#: PaperParameters fields a spec may override (all scalar, SI units).
PARAMETER_OVERRIDE_FIELDS: Tuple[str, ...] = (
    "channel_pitch",
    "silicon_height",
    "channel_height",
    "flow_rate_per_channel",
    "inlet_temperature",
    "max_pressure_drop",
    "min_channel_width",
    "max_channel_width",
    "channel_length",
)


def _decode_params(value, path: str) -> Tuple[Tuple[str, float], ...]:
    """Parameter overrides (a mapping or pairs) as sorted ``(field, value)`` pairs."""
    pairs = value.items() if isinstance(value, Mapping) else value
    normalized = []
    for pair in pairs:
        try:
            key, number = pair
        except (TypeError, ValueError):
            raise ValueError(
                f"{path} must be a mapping or a sequence of "
                f"(field, value) pairs, got {value!r}"
            ) from None
        if key not in PARAMETER_OVERRIDE_FIELDS:
            raise ValueError(
                f"{path}: unknown parameter {key!r}; "
                f"overridable parameters are {list(PARAMETER_OVERRIDE_FIELDS)}"
            )
        normalized.append((key, finite_float(number, f"{path}.{key}")))
    return tuple(sorted(normalized))


def _decode_design(value, path: str) -> Optional[Tuple[Tuple[float, ...], ...]]:
    """Per-lane positive segment widths; a scalar lane is one segment."""
    if value is None:
        return None
    design = []
    for lane, segments in enumerate(value):
        widths = tuple(
            finite_float(width, f"{path}[{lane}][{index}]")
            for index, width in enumerate(np.atleast_1d(segments))
        )
        if not widths:
            raise ValueError(f"{path} lane {lane} has no segment widths")
        if any(width <= 0.0 for width in widths):
            raise ValueError(
                f"{path} lane {lane}: all widths must be positive, got {widths}"
            )
        design.append(widths)
    return tuple(design)


@dataclass(frozen=True)
class WorkloadSpec(Spec, section="workload"):
    """What heats the stack: a Fig. 4 test workload or a Fig. 7 stacking.

    Attributes
    ----------
    kind:
        ``"test-a"`` (uniform single-channel flux), ``"test-b"`` (random
        per-segment single-channel fluxes) or ``"architecture"`` (one of
        the two-die Niagara stackings).
    flux_w_per_cm2:
        Areal heat flux per active layer for ``"test-a"`` (W/cm^2).
    segments / flux_range / seed:
        Test B strip discretization, flux bounds (W/cm^2) and RNG seed.
    architecture / power:
        Stacking name (``"arch1"``..``"arch3"``) and power scenario
        (``"peak"`` or ``"average"``) for ``"architecture"`` workloads.
    """

    kind: str = "test-a"
    flux_w_per_cm2: float = TEST_A_FLUX
    segments: int = 10
    flux_range: Tuple[float, float] = (50.0, 250.0)
    seed: int = 2012
    architecture: str = ""
    power: str = "peak"

    def __post_init__(self) -> None:
        coerce(self)
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"workload.kind must be one of {list(WORKLOAD_KINDS)}, "
                f"got {self.kind!r}"
            )
        if self.flux_w_per_cm2 < 0.0:
            raise ValueError(
                f"workload.flux_w_per_cm2 must be non-negative, "
                f"got {self.flux_w_per_cm2}"
            )
        if self.segments < 1:
            raise ValueError(
                f"workload.segments must be at least 1, got {self.segments}"
            )
        flux_range = self.flux_range
        if len(flux_range) != 2:
            raise ValueError(
                "workload.flux_range must be a (low, high) pair, "
                f"got {flux_range!r}"
            )
        if flux_range[0] > flux_range[1] or flux_range[0] < 0.0:
            raise ValueError(
                "workload.flux_range must satisfy 0 <= low <= high, "
                f"got {flux_range}"
            )
        if self.power not in POWER_SCENARIOS:
            raise ValueError(
                f"workload.power must be one of {list(POWER_SCENARIOS)}, "
                f"got {self.power!r}"
            )
        if self.kind == "architecture":
            if self.architecture not in architecture_names():
                raise ValueError(
                    f"workload.architecture must be one of "
                    f"{architecture_names()}, got {self.architecture!r}"
                )

    @property
    def is_single_channel(self) -> bool:
        """True for the single-channel Test A / Test B workloads."""
        return self.kind in ("test-a", "test-b")


@dataclass(frozen=True)
class GridSpec(Spec, section="grid"):
    """Discretizations of the two model families.

    Attributes
    ----------
    n_grid_points:
        z-grid resolution of the analytical finite-difference solves.
    n_lanes:
        Modeled channel lanes of the analytical cavity (architecture
        workloads cluster the physical channels into this many lanes;
        single-channel workloads always use one lane).
    n_rows / n_cols:
        Finite-volume cell grid (rows across the flow, columns along it).
        Single-channel workloads are a strip exactly one channel pitch
        wide, so :class:`ScenarioSpec` normalizes ``n_rows`` to 1 for
        them at construction.
    """

    n_grid_points: int = 241
    n_lanes: int = 5
    n_rows: int = 44
    n_cols: int = 44

    def __post_init__(self) -> None:
        coerce(self)
        if self.n_grid_points < 3:
            raise ValueError(
                f"grid.n_grid_points must be at least 3, got {self.n_grid_points}"
            )
        if self.n_lanes < 1:
            raise ValueError(f"grid.n_lanes must be at least 1, got {self.n_lanes}")
        if self.n_rows < 1:
            raise ValueError(f"grid.n_rows must be at least 1, got {self.n_rows}")
        if self.n_cols < 2:
            raise ValueError(f"grid.n_cols must be at least 2, got {self.n_cols}")


@dataclass(frozen=True)
class SolverSpec(Spec, section="solver"):
    """Which simulator runs the scenario and how.

    Attributes
    ----------
    simulator:
        Default simulator for :func:`repro.api.run`: ``"fdm"`` (analytical
        finite-difference path through the evaluation engine) or ``"ice"``
        (finite-volume solver).
    backend:
        Linear-solver backend (a registry name from
        :mod:`repro.thermal.backends`) used by both solve paths: the
        finite-difference solves and the finite-volume steady solves.
    n_workers:
        Thread-pool width of the evaluation engine (batched solves and
        concurrent multistart restarts).
    cache_size:
        Capacity of the engine's LRU solution cache.
    picard_tolerance_K / picard_max_iterations / picard_relaxation:
        Convergence knobs of the Picard outer iteration used when the
        scenario requests a temperature-dependent coolant model
        (``ScenarioSpec.coolant_model != "constant"``); ignored otherwise.
        See :class:`repro.core.picard.PicardSettings`, which owns their
        ranges.  They were added after the spec-hash freeze, so they are
        late fields.
    """

    simulator: str = "fdm"
    backend: str = "auto"
    n_workers: int = 1
    cache_size: int = 4096
    picard_tolerance_K: float = late_field(1e-4)
    picard_max_iterations: int = late_field(25)
    picard_relaxation: float = late_field(1.0)

    def __post_init__(self) -> None:
        coerce(self)
        if self.simulator not in SIMULATOR_KINDS:
            raise ValueError(
                f"solver.simulator must be one of {list(SIMULATOR_KINDS)}, "
                f"got {self.simulator!r}"
            )
        if not self.backend:
            raise ValueError(
                f"solver.backend must be a non-empty backend name, "
                f"got {self.backend!r}"
            )
        if self.n_workers < 1:
            raise ValueError(
                f"solver.n_workers must be at least 1, got {self.n_workers}"
            )
        if self.cache_size < 1:
            raise ValueError(
                f"solver.cache_size must be at least 1, got {self.cache_size}"
            )
        try:
            PicardSettings.from_solver_spec(self)
        except ValueError as error:
            raise ValueError(f"solver.{error}") from None


@dataclass(frozen=True)
class OptimizerSpec(Spec, section="optimizer"):
    """Settings of the optimal channel-modulation design flow (Sec. IV).

    Mirrors the knobs of :class:`repro.core.optimizer.OptimizerSettings`
    that define the experiment; grid resolution and solver backend are
    taken from the scenario's :class:`GridSpec` / :class:`SolverSpec`.
    """

    n_segments: int = 10
    max_iterations: int = 80
    multistart: int = 1
    tolerance: float = 1e-8
    objective: str = "gradient_norm"
    gradient_mode: str = "adjoint"
    shared_profile: bool = False
    enforce_equal_pressure: bool = True
    max_pressure_drop_Pa: Optional[float] = None

    def __post_init__(self) -> None:
        coerce(self)
        if self.n_segments < 1:
            raise ValueError(
                f"optimizer.n_segments must be at least 1, got {self.n_segments}"
            )
        if self.max_iterations < 1:
            raise ValueError(
                f"optimizer.max_iterations must be at least 1, "
                f"got {self.max_iterations}"
            )
        if self.multistart < 1:
            raise ValueError(
                f"optimizer.multistart must be at least 1, got {self.multistart}"
            )
        if self.tolerance <= 0.0:
            raise ValueError(
                f"optimizer.tolerance must be positive, got {self.tolerance}"
            )
        if not self.objective:
            raise ValueError(
                f"optimizer.objective must be a non-empty objective name, "
                f"got {self.objective!r}"
            )
        from .core.optimizer import GRADIENT_MODES

        if self.gradient_mode not in GRADIENT_MODES:
            raise ValueError(
                f"optimizer.gradient_mode must be one of "
                f"{list(GRADIENT_MODES)}, got {self.gradient_mode!r}"
            )
        if self.max_pressure_drop_Pa is not None and self.max_pressure_drop_Pa <= 0.0:
            raise ValueError(
                f"optimizer.max_pressure_drop_Pa must be positive, "
                f"got {self.max_pressure_drop_Pa}"
            )


@dataclass(frozen=True)
class ScenarioSpec(Spec, section="scenario"):
    """One fully-specified, serializable experiment.

    Attributes
    ----------
    name:
        Scenario name (the registry key and the provenance label).
    description:
        One-line human description.
    workload / grid / solver / optimizer:
        The sub-specifications documented on their classes.
    params:
        Scalar :class:`~repro.thermal.properties.PaperParameters` overrides
        in SI units, stored as a sorted tuple of ``(field, value)`` pairs
        (accepts a mapping at construction).  Overrides are applied on top
        of the effective-flow Table I defaults.
    design:
        Optional explicit channel-width design: one tuple of
        piecewise-constant segment widths (meters) per modeled lane.
        ``None`` means the uniform maximum-width (conventional) design.
    transient:
        Optional :class:`~repro.transient.TransientSpec` turning the
        scenario into a time-varying workload (power traces, runtime
        flow-control policy, integration settings).  Transient scenarios
        run through the finite-volume transient engine, so their solver
        family must be ``"ice"``.
    coolant_model:
        Name of a registered coolant property model
        (:data:`repro.thermal.properties.COOLANT_MODEL_LIBRARY`).  The
        default ``"constant"`` is the paper's frozen-property assumption
        and leaves every solve bit-identical to a spec without the field;
        any other model (e.g. ``"water"``) wraps the steady solves in the
        Picard outer iteration of :mod:`repro.core.picard`.  Temperature-
        dependent models are steady-state only: combining one with a
        transient spec raises at construction.  Added after the spec-hash
        freeze, so it is a late field.
    """

    name: str
    description: str = ""
    workload: WorkloadSpec = WorkloadSpec()
    grid: GridSpec = GridSpec()
    solver: SolverSpec = SolverSpec()
    optimizer: OptimizerSpec = OptimizerSpec()
    params: Tuple[Tuple[str, float], ...] = coded_field(
        _decode_params, encode=dict, default=()
    )
    design: Optional[Tuple[Tuple[float, ...], ...]] = coded_field(
        _decode_design, default=None
    )
    transient: Optional[TransientSpec] = None
    coolant_model: str = late_field("constant")

    def __post_init__(self) -> None:
        coerce(self)
        if not self.name:
            raise ValueError(f"scenario name must be a non-empty string, got {self.name!r}")
        # A single-channel workload is a strip exactly one channel pitch
        # wide: the finite-volume grid has one row of cells by construction.
        # Normalizing here keeps the spec equal to what actually runs
        # (to_dict shows n_rows=1) instead of silently ignoring the field.
        if self.workload.is_single_channel and self.grid.n_rows != 1:
            object.__setattr__(self, "grid", replace(self.grid, n_rows=1))
        # Building the parameter record eagerly surfaces range errors
        # (negative lengths, inverted width bounds, ...) at spec
        # construction instead of deep inside a solver.
        try:
            self._parameters()
        except ValueError as error:
            raise ValueError(f"scenario.params: {error}") from None
        # Transient scenarios run through the finite-volume transient
        # engine; like the n_rows normalization above, pinning the
        # simulator family here keeps the spec equal to what actually
        # runs (to_dict shows simulator="ice").
        if self.transient is not None and self.solver.simulator != "ice":
            object.__setattr__(self, "solver", replace(self.solver, simulator="ice"))
        # Raises ValueError (listing the registered models) on unknown names.
        get_coolant_model(self.coolant_model)
        if self.transient is not None and self.coolant_model != "constant":
            raise ValueError(
                "scenario.coolant_model: temperature-dependent coolant "
                "models are steady-state only (the Picard outer iteration "
                "wraps steady solves); transient scenarios must use "
                f"'constant', got {self.coolant_model!r}"
            )

    # -- derived configuration --------------------------------------------

    def _parameters(self):
        """Effective Table I parameters with the spec's overrides applied."""
        return paper_parameters().with_overrides(**dict(self.params))

    def experiment_config(self) -> ExperimentConfig:
        """The :class:`~repro.config.ExperimentConfig` this spec describes."""
        return ExperimentConfig(
            params=self._parameters(),
            n_grid_points=self.grid.n_grid_points,
            n_segments=self.optimizer.n_segments,
            n_lanes=self.grid.n_lanes,
            test_b_segments=self.workload.segments,
            test_b_flux_range=self.workload.flux_range,
            random_seed=self.workload.seed,
            solver_backend=self.solver.backend,
            n_workers=self.solver.n_workers,
        )

    def optimizer_settings(self) -> OptimizerSettings:
        """The :class:`~repro.core.optimizer.OptimizerSettings` of this spec."""
        return OptimizerSettings(
            n_segments=self.optimizer.n_segments,
            shared_profile=self.optimizer.shared_profile,
            objective=self.optimizer.objective,
            gradient_mode=self.optimizer.gradient_mode,
            n_grid_points=self.grid.n_grid_points,
            max_iterations=self.optimizer.max_iterations,
            tolerance=self.optimizer.tolerance,
            multistart=self.optimizer.multistart,
            enforce_equal_pressure=self.optimizer.enforce_equal_pressure,
            solver_backend=self.solver.backend,
            n_workers=self.solver.n_workers,
            cache_size=self.solver.cache_size,
        )

    @property
    def n_lanes(self) -> int:
        """Modeled lanes of the analytical cavity for this workload."""
        return 1 if self.workload.is_single_channel else self.grid.n_lanes

    def channel_length(self) -> float:
        """Channel length (m): the die length for stackings, ``d`` otherwise."""
        if self.workload.kind == "architecture":
            return get_architecture(self.workload.architecture).die_length
        return self._parameters().channel_length

    def width_profiles(self) -> Optional[List[WidthProfile]]:
        """The explicit per-lane design as width profiles, or None."""
        if self.design is None:
            return None
        if len(self.design) != self.n_lanes:
            raise ValueError(
                f"scenario {self.name!r}: design has {len(self.design)} lane "
                f"profiles but the workload models {self.n_lanes} lane(s)"
            )
        length = self.channel_length()
        profiles = []
        for segments in self.design:
            if len(segments) == 1:
                profiles.append(WidthProfile.uniform(segments[0], length))
            else:
                profiles.append(
                    WidthProfile.piecewise_constant(list(segments), length)
                )
        return profiles

    def flow_network(self, flow_scale: float = 1.0) -> FlowNetwork:
        """The cavity's Eq. (9) flow network at ``flow_scale`` x nominal flow.

        The hydraulic inputs -- geometry with the scenario's channel
        length, the per-lane width profiles (uniform at the maximum width
        without a design) and the per-channel flow rate -- come straight
        from the spec, so hydraulics never pay for the flux-map
        rasterization a cavity build performs.  At ``flow_scale=1.0`` the
        pressure drops equal those of the built cavity bit for bit.
        """
        params = self._parameters().with_overrides(
            channel_length=self.channel_length()
        )
        geometry = ChannelGeometry.from_parameters(params)
        profiles = self.width_profiles()
        if profiles is None:
            profiles = [
                WidthProfile.uniform(geometry.max_width, geometry.length)
            ] * self.n_lanes
        return FlowNetwork(
            geometry,
            profiles,
            flow_rate_per_channel=params.flow_rate_per_channel * flow_scale,
            coolant=params.coolant,
        )

    # -- model builders ---------------------------------------------------

    def build_structure(self) -> Union[TestStructure, MultiChannelStructure]:
        """The analytical cavity model (finite-difference / optimizer path)."""
        config = self.experiment_config()
        workload = self.workload
        profiles = self.width_profiles()
        if workload.kind == "architecture":
            return get_architecture(workload.architecture).cavity(
                workload.power,
                config=config,
                n_lanes=self.grid.n_lanes,
                n_cols=self.grid.n_cols,
                width_profiles=profiles,
            )
        profile = profiles[0] if profiles is not None else None
        if workload.kind == "test-a":
            structure = test_a_structure(config, width_profile=profile)
            if workload.flux_w_per_cm2 != TEST_A_FLUX:
                heat = HeatInputProfile.from_areal_flux(
                    workload.flux_w_per_cm2,
                    structure.geometry.pitch,
                    structure.geometry.length,
                )
                structure = replace(structure, heat_top=heat, heat_bottom=heat)
            return structure
        return test_b_structure(config, width_profile=profile)

    def build_stack(self) -> LayerStack:
        """The finite-volume layer stack (3D-ICE-like validation path)."""
        config = self.experiment_config()
        workload = self.workload
        profiles = self.width_profiles()
        if workload.kind == "architecture":
            architecture = get_architecture(workload.architecture)
            if profiles is None:
                width_argument = None
            elif len(profiles) == 1:
                width_argument = profiles[0]
            else:
                width_argument = architecture.per_channel_width_profiles(
                    profiles, config=config
                )
            return two_die_stack_from_architecture(
                architecture,
                workload.power,
                config=config,
                n_cols=self.grid.n_cols,
                n_rows=self.grid.n_rows,
                width_profile=width_argument,
            )
        geometry = ChannelGeometry.from_parameters(config.params)
        n_cols = self.grid.n_cols
        if workload.kind == "test-a":
            top = bottom = workload.flux_w_per_cm2
        else:
            top_fluxes, bottom_fluxes = test_b_fluxes(config)
            x_centers = (np.arange(n_cols) + 0.5) * geometry.length / n_cols
            index = np.minimum(
                (x_centers / geometry.length * workload.segments).astype(int),
                workload.segments - 1,
            )
            top = top_fluxes[index][None, :]
            bottom = bottom_fluxes[index][None, :]
        return two_die_stack_from_maps(
            top,
            bottom,
            die_length=geometry.length,
            die_width=geometry.pitch,
            config=config,
            n_cols=n_cols,
            n_rows=self.grid.n_rows,  # normalized to 1 in __post_init__
            width_profile=profiles[0] if profiles is not None else None,
        )

    # -- functional updates ------------------------------------------------

    def with_overrides(self, **kwargs) -> "ScenarioSpec":
        """Return a copy with the given top-level fields replaced."""
        return replace(self, **kwargs)

    def with_solver(
        self, simulator: Optional[str] = None, backend: Optional[str] = None
    ) -> "ScenarioSpec":
        """Return a copy with the simulator and/or backend replaced."""
        updates = {}
        if simulator is not None:
            updates["simulator"] = simulator
        if backend is not None:
            updates["backend"] = backend
        return replace(self, solver=replace(self.solver, **updates))

    def with_design(
        self, profiles: Sequence[Union[WidthProfile, Mapping, Sequence[float]]]
    ) -> "ScenarioSpec":
        """Return a copy pinning an explicit per-lane channel-width design.

        Accepts :class:`WidthProfile` objects (uniform or piecewise), the
        mappings :meth:`WidthProfile.to_dict` emits (e.g. lifted from a
        ``repro optimize --json`` payload), or raw per-segment width
        sequences in meters.
        """
        design = []
        for profile in profiles:
            if isinstance(profile, Mapping):
                profile = WidthProfile.from_dict(profile)
            if isinstance(profile, WidthProfile):
                profile = profile.segment_widths
            design.append(profile)
        return replace(self, design=design)

    def with_params(self, **overrides) -> "ScenarioSpec":
        """Return a copy with extra Table I parameter overrides merged in."""
        return replace(self, params={**dict(self.params), **overrides})

    # -- serialization ----------------------------------------------------

    def spec_hash(self) -> str:
        """Content hash of the spec (sha256 over the canonical JSON form).

        Two specs have equal hashes exactly when they are equal as specs
        (same canonical plain-data form), so campaign stores can use the
        hash as a resume key across processes and sessions.
        """
        return content_hash(self.to_dict())


# -- named-scenario registry ------------------------------------------------


def register_scenario(spec: ScenarioSpec, overwrite: bool = False) -> ScenarioSpec:
    """Add a scenario to the registry (refusing silent overwrites)."""
    if not isinstance(spec, ScenarioSpec):
        raise TypeError(f"expected a ScenarioSpec, got {type(spec).__name__}")
    return SCENARIOS.register(spec.name, spec, overwrite)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    return SCENARIOS.lookup(name)


def scenario_names() -> List[str]:
    """Names of the registered scenarios, in registration order."""
    return SCENARIOS.names()


def scenario_rows() -> List[Dict[str, object]]:
    """One summary row per registered scenario (``repro list``, ``/v1/scenarios``)."""
    return [
        {
            "name": spec.name,
            "workload": spec.workload.kind,
            "simulator": spec.solver.simulator,
            "transient": spec.transient is not None,
            "description": spec.description,
        }
        for spec in SCENARIOS.values()
    ]


def resolve_scenario(
    scenario: Union[ScenarioSpec, str, os.PathLike, Mapping]
) -> ScenarioSpec:
    """Turn a spec, registered name, JSON file path or mapping into a spec."""
    if isinstance(scenario, ScenarioSpec):
        return scenario
    if isinstance(scenario, Mapping):
        return ScenarioSpec.from_dict(scenario)
    if isinstance(scenario, (str, os.PathLike)):
        text = os.fspath(scenario)
        if text in SCENARIOS:
            return SCENARIOS[text]
        if os.path.exists(text):
            return ScenarioSpec.load(text)
        raise ValueError(
            f"{text!r} is neither a registered scenario nor a scenario file; "
            f"registered scenarios: {scenario_names()}"
        )
    raise TypeError(
        "scenario must be a ScenarioSpec, a registered name, a JSON file "
        f"path or a mapping, got {type(scenario).__name__}"
    )


def _paper_scenarios() -> Iterator[ScenarioSpec]:
    """The paper's experiments."""
    yield ScenarioSpec(
        name="test-a",
        description=(
            "Test A (Fig. 4a): uniform 50 W/cm^2 on both active layers "
            "of the single-channel test structure"
        ),
        workload=WorkloadSpec(kind="test-a"),
        grid=GridSpec(n_grid_points=241, n_lanes=1, n_rows=1, n_cols=80),
        optimizer=OptimizerSpec(n_segments=10, max_iterations=60),
    )
    yield ScenarioSpec(
        name="test-b",
        description=(
            "Test B (Fig. 4b): random per-segment heat fluxes in "
            "[50, 250] W/cm^2 along the single channel"
        ),
        workload=WorkloadSpec(kind="test-b", segments=10, seed=2012),
        grid=GridSpec(n_grid_points=241, n_lanes=1, n_rows=1, n_cols=80),
        optimizer=OptimizerSpec(n_segments=10, max_iterations=80),
    )
    descriptions = {
        "arch1": "segregated two-die stack: compute die over memory die",
        "arch2": "complementary mixed dies: core bands on opposite sides",
        "arch3": "aligned mixed dies: identical dies, cores stacked",
    }
    for arch in ("arch1", "arch2", "arch3"):
        yield ScenarioSpec(
            name=f"niagara-{arch}",
            description=f"Fig. 7 {arch}: {descriptions[arch]} (peak power)",
            workload=WorkloadSpec(kind="architecture", architecture=arch),
            grid=GridSpec(n_grid_points=161, n_lanes=5, n_rows=44, n_cols=44),
            optimizer=OptimizerSpec(n_segments=6, max_iterations=40),
        )


def _transient_scenarios() -> Iterator[ScenarioSpec]:
    """Trace-driven transient workloads."""
    yield ScenarioSpec(
        name="test-a-burst",
        description=(
            "Test A structure under a bursty duty cycle: the top die "
            "toggles 100/10 W/cm^2 every 0.1 s (finite-volume transient)"
        ),
        workload=WorkloadSpec(kind="test-a"),
        grid=GridSpec(n_grid_points=241, n_lanes=1, n_rows=1, n_cols=80),
        solver=SolverSpec(simulator="ice"),
        transient=TransientSpec(
            duration_s=1.0,
            time_step_s=0.01,
            traces=(
                TraceSpec(
                    layer="top_die",
                    kind="periodic",
                    period_s=0.2,
                    duty=0.5,
                    high=100.0,
                    low=10.0,
                ),
            ),
            policy=PolicySpec(kind="constant", control_interval_s=0.1),
            store_every=5,
            threshold_K=330.0,
        ),
    )
    yield ScenarioSpec(
        name="test-a-burst-rom",
        description=(
            "test-a-burst integrated through the Krylov reduced-order "
            "tier (order-48 basis, measured-error reporting)"
        ),
        workload=WorkloadSpec(kind="test-a"),
        grid=GridSpec(n_grid_points=241, n_lanes=1, n_rows=1, n_cols=80),
        solver=SolverSpec(simulator="ice"),
        transient=TransientSpec(
            duration_s=1.0,
            time_step_s=0.01,
            traces=(
                TraceSpec(
                    layer="top_die",
                    kind="periodic",
                    period_s=0.2,
                    duty=0.5,
                    high=100.0,
                    low=10.0,
                ),
            ),
            policy=PolicySpec(kind="constant", control_interval_s=0.1),
            store_every=5,
            threshold_K=330.0,
            rom=RomSpec(mode="rom", order=48),
        ),
    )
    yield ScenarioSpec(
        name="niagara-arch1-dvfs",
        description=(
            "Fig. 7 arch1 under a DVFS-like power-state trace: the "
            "compute die steps 120 -> 40 -> 90 W/cm^2 (finite-volume "
            "transient)"
        ),
        workload=WorkloadSpec(kind="architecture", architecture="arch1"),
        grid=GridSpec(n_grid_points=161, n_lanes=5, n_rows=44, n_cols=44),
        solver=SolverSpec(simulator="ice"),
        transient=TransientSpec(
            duration_s=0.6,
            time_step_s=0.02,
            traces=(
                TraceSpec(
                    layer="top_die",
                    kind="piecewise",
                    times=(0.0, 0.2, 0.4),
                    values=(120.0, 40.0, 90.0),
                ),
            ),
            policy=PolicySpec(kind="constant", control_interval_s=0.1),
            store_every=5,
            threshold_K=335.0,
        ),
    )


#: Process-wide registry of named scenarios, built-ins first.
SCENARIOS = Registry(
    "scenario",
    {spec.name: spec for spec in (*_paper_scenarios(), *_transient_scenarios())},
)
