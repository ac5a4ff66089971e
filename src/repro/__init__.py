"""repro -- Thermal balancing of liquid-cooled 3D-MPSoCs using channel modulation.

The one way in is :func:`run`: every experiment of the DATE 2012 paper by
Sabry, Sridhar and Atienza is a declarative, JSON-serializable
:class:`~repro.scenarios.ScenarioSpec`, and ``run(spec)`` simulates it
through either model family behind one simulator protocol::

    from repro import run, optimize, get_scenario

    result = run("test-a")                  # analytical FDM path
    other = run("test-a", solver="ice")     # finite-volume cross-check
    print(result.thermal_gradient_K, other.thermal_gradient_K)

    best = optimize("test-a")               # Sec. IV design flow
    run(best.optimized_spec(), solver="ice")

Scenarios come from the registry (``test-a``, ``test-b`` and the Fig. 7
``niagara-arch1..3`` stackings, see :func:`scenario_names`), from JSON
files, or from :class:`~repro.scenarios.ScenarioSpec` built in code; a
:class:`~repro.api.Session` keeps solution caches alive across calls, and
the ``repro`` console script (:mod:`repro.cli`) exposes the same facade
from the shell (``repro list``, ``repro run test-a --json``, ``repro
optimize``, ``repro bench``).

Families of runs -- flux sweeps, architecture comparisons -- are first
class: a :class:`~repro.sweeps.SweepSpec` expands one base scenario plus
axes into an ordered scenario list, and :func:`run_many` executes it
through a pluggable executor (``serial``/``thread``/``process``; the
process executor scales past the GIL) while streaming records into a
resumable :class:`~repro.campaign.CampaignStore`::

    campaign = run_many("sweep.json", executor="process", workers=4,
                        out="campaign.jsonl")

Under the facade the package contains:

* :mod:`repro.scenarios` -- declarative scenario specs and the registry;
* :mod:`repro.sweeps` / :mod:`repro.exec` / :mod:`repro.campaign` -- the
  batch layer: sweep expansion, campaign executors, streaming stores;
* :mod:`repro.api` -- the simulator protocol (:class:`~repro.api.FDMSimulator`,
  :class:`~repro.api.ICESimulator`), the shared
  :class:`~repro.api.SimulationResult` schema and the session facade;
* :mod:`repro.thermal` -- the analytical per-unit-length thermal model of a
  microchannel-cooled 3D IC (Sec. III), its state-space/BVP form and a
  multi-channel finite-difference solver;
* :mod:`repro.hydraulics` -- pressure drop (Eq. 9), pumping power and the
  single-reservoir flow network (Eq. 10);
* :mod:`repro.ice` -- a 3D-ICE-like finite-volume thermal simulator used
  for validation and full-die thermal maps;
* :mod:`repro.floorplan` -- UltraSPARC T1 floorplans, the Fig. 7 stackings
  and the Fig. 4 synthetic workloads;
* :mod:`repro.core` -- the paper's contribution: the optimal channel-width
  modulation design flow (Sec. IV), served by a batched, LRU-cached
  :class:`~repro.core.engine.EvaluationEngine`;
* :mod:`repro.ml` -- surrogate models trained from campaign stores
  (exact GP / random-feature ridge), deterministic spec featurization and
  active-learning batch selection; served with uncertainty gating by
  :mod:`repro.serve` (``POST /v1/predict``);
* :mod:`repro.analysis` -- metrics, ASCII map rendering and experiment
  reporting.

The classic programmatic entry points (:class:`ChannelModulationDesigner`,
:func:`solve_structure`, :func:`test_a_structure`, ...) remain fully
supported -- the scenario API is a facade over them, and
``run("test-a")`` reproduces the designer path bit for bit.

The finite-difference hot path is split into a vectorized sparse assembly
(:mod:`repro.thermal.assembly`, with per-shape sparsity-pattern caching)
and pluggable linear-solver backends (:mod:`repro.thermal.backends`):
``"sparse-lu"`` (banded LAPACK or SuperLU LU with factorization reuse),
``"dense"`` and ``"auto"``.  Select a backend
via ``ScenarioSpec(solver=SolverSpec(backend=...))``,
``OptimizerSettings(solver_backend=...)`` or
``solve_structure(..., backend=...)``; list them with
:func:`available_backends`.
"""

from .api import (
    CrossValidationResult,
    FDMSimulator,
    ICESimulator,
    OptimizationRunResult,
    Session,
    SimulationResult,
    Simulator,
    available_simulators,
    cross_validate,
    get_simulator,
    optimize,
    optimize_many,
    register_simulator,
    run,
    run_many,
)
from .campaign import CampaignResult, CampaignStore
from .exec import available_executors, get_executor, register_executor
from .sweeps import SweepAxis, SweepSpec, expand_scenarios
from .config import (
    DEFAULT_EXPERIMENT,
    EFFECTIVE_FLOW_RATE_ML_PER_MIN,
    ExperimentConfig,
    paper_parameters,
)
from .scenarios import (
    GridSpec,
    OptimizerSpec,
    ScenarioSpec,
    SolverSpec,
    WorkloadSpec,
    get_scenario,
    register_scenario,
    resolve_scenario,
    scenario_names,
)
from .transient import PolicySpec, TraceSpec, TransientSpec
from .transient_engine import TransientOutcome, simulate_transient
from .policies import (
    BangBangFlowPolicy,
    ConstantFlowPolicy,
    FlowPolicy,
    ProportionalFlowPolicy,
    available_policies,
    register_policy,
)
from .core import (
    ChannelModulationDesigner,
    ChannelModulationOptimizer,
    DesignEvaluation,
    EvaluationEngine,
    ModulationResult,
    OptimizerSettings,
)
from .floorplan import (
    Architecture,
    architecture_names,
    get_architecture,
    test_a_structure,
    test_b_structure,
)
from .ml import (
    FeatureSchema,
    GaussianProcessSurrogate,
    RandomFeatureSurrogate,
    Surrogate,
    build_dataset,
    infer_schema,
    load_model,
    make_surrogate,
    save_model,
    select_batch,
)
from .thermal import (
    ChannelGeometry,
    HeatInputProfile,
    MultiChannelStructure,
    PaperParameters,
    SolverBackend,
    TABLE_I,
    TestStructure,
    ThermalSolution,
    WidthProfile,
    available_backends,
    get_backend,
    register_backend,
    solve_finite_difference,
    solve_structure,
)

__version__ = "1.1.0"

__all__ = [
    "CrossValidationResult",
    "FDMSimulator",
    "ICESimulator",
    "OptimizationRunResult",
    "Session",
    "SimulationResult",
    "Simulator",
    "available_simulators",
    "cross_validate",
    "get_simulator",
    "optimize",
    "optimize_many",
    "register_simulator",
    "run",
    "run_many",
    "CampaignResult",
    "CampaignStore",
    "SweepAxis",
    "SweepSpec",
    "available_executors",
    "expand_scenarios",
    "get_executor",
    "register_executor",
    "GridSpec",
    "OptimizerSpec",
    "ScenarioSpec",
    "SolverSpec",
    "WorkloadSpec",
    "get_scenario",
    "register_scenario",
    "resolve_scenario",
    "scenario_names",
    "PolicySpec",
    "TraceSpec",
    "TransientSpec",
    "TransientOutcome",
    "simulate_transient",
    "BangBangFlowPolicy",
    "ConstantFlowPolicy",
    "FlowPolicy",
    "ProportionalFlowPolicy",
    "available_policies",
    "register_policy",
    "DEFAULT_EXPERIMENT",
    "EFFECTIVE_FLOW_RATE_ML_PER_MIN",
    "ExperimentConfig",
    "paper_parameters",
    "ChannelModulationDesigner",
    "ChannelModulationOptimizer",
    "DesignEvaluation",
    "EvaluationEngine",
    "ModulationResult",
    "OptimizerSettings",
    "FeatureSchema",
    "GaussianProcessSurrogate",
    "RandomFeatureSurrogate",
    "Surrogate",
    "build_dataset",
    "infer_schema",
    "load_model",
    "make_surrogate",
    "save_model",
    "select_batch",
    "Architecture",
    "architecture_names",
    "get_architecture",
    "test_a_structure",
    "test_b_structure",
    "ChannelGeometry",
    "HeatInputProfile",
    "MultiChannelStructure",
    "PaperParameters",
    "SolverBackend",
    "TABLE_I",
    "TestStructure",
    "ThermalSolution",
    "WidthProfile",
    "available_backends",
    "get_backend",
    "register_backend",
    "solve_finite_difference",
    "solve_structure",
    "__version__",
]
