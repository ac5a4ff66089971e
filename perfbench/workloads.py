"""The benchmark's workloads: seeded inputs, one operation each, output checks.

Every workload is a closed loop with one client: the next operation is
issued only after the previous one returned.  Operations go through the
public API (:class:`repro.api.Session`) and each one is distinct.

Inputs are generated so that every seed produces the same *mix* of
operation kinds: kinds come in fixed blocks whose order is shuffled by the
seed (``campaign`` keeps one order, so a re-submission always follows the
sweeps it may pick), and the continuous inputs (flow rates, fluxes) walk a seeded
low-discrepancy sequence over their range.  A run therefore measures the
same population of problems whatever the seed, which keeps run-to-run
spread small while no two operations (and no two seeds) share inputs.

Why each workload was chosen is written in ``perfbench/README.md``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List

WORKLOADS = ("design", "transient", "campaign")

#: Per-dimension irrational steps of the additive low-discrepancy sequence.
_STEPS = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0, math.sqrt(5.0) - 2.0)

#: Per-channel coolant flow range of the generated problems (m^3/s); the
#: paper's effective 0.6 ml/min is 1e-8.
FLOW_RANGE = (6e-9, 1.2e-8)


@dataclass
class Op:
    """One generated operation: its kind label and its plain-data input."""

    index: int
    kind: str
    payload: Dict[str, object]


@dataclass
class OpOutput:
    """What one operation returned, plus the session that served it."""

    session: object
    result: object


class _Sequence:
    """Seeded additive-recurrence point set: coordinate d of point i is
    ``frac(offset_d + i * step_d)``."""

    def __init__(self, rng: random.Random) -> None:
        self.offsets = [rng.random() for _ in _STEPS]

    def point(self, index: int) -> List[float]:
        return [
            (offset + index * step) % 1.0
            for offset, step in zip(self.offsets, _STEPS)
        ]


def _lerp(low: float, high: float, u: float) -> float:
    return low + (high - low) * u


def _blocks(rng: random.Random, block: List[tuple]) -> Iterator[tuple]:
    """Endless kinds: the block repeated, each copy in a seeded order."""
    while True:
        order = list(block)
        rng.shuffle(order)
        yield from order


# -- design -------------------------------------------------------------------

#: Reduced optimizer budget: one op stays well under a second.
_NIAGARA_GRID = {"n_grid_points": 121, "n_lanes": 4, "n_rows": 44, "n_cols": 44}
#: 40 grid points keep the 3 x 40 = 120-unknown Test A/B systems on the
#: dense side of the auto backend's cutoff.
_STRIP_GRID = {"n_grid_points": 40, "n_lanes": 1, "n_rows": 1, "n_cols": 80}
_DESIGN_OPTIMIZER = {"n_segments": 5, "max_iterations": 30}

#: 3/4 Niagara cavities (every architecture at both power scenarios), 1/4
#: single-channel test problems.
_DESIGN_BLOCK = [
    ("niagara", arch, power)
    for arch in ("arch1", "arch2", "arch3")
    for power in ("peak", "average")
] + [("test-a",), ("test-b",)]


def _design_spec(name: str, kind: tuple, u: List[float], rng) -> Dict[str, object]:
    flow = _lerp(*FLOW_RANGE, u[0])
    if kind[0] == "niagara":
        workload = {"kind": "architecture", "architecture": kind[1], "power": kind[2]}
        grid = _NIAGARA_GRID
    elif kind[0] == "test-a":
        workload = {"kind": "test-a", "flux_w_per_cm2": _lerp(30.0, 150.0, u[1])}
        grid = _STRIP_GRID
    else:
        workload = {"kind": "test-b", "seed": rng.randrange(1, 1 << 30)}
        grid = _STRIP_GRID
    return {
        "name": name,
        "workload": workload,
        "grid": dict(grid),
        "optimizer": dict(_DESIGN_OPTIMIZER),
        "params": {"flow_rate_per_channel": flow},
    }


# -- transient ----------------------------------------------------------------

_POLICIES = {
    "constant": {"kind": "constant", "control_interval_s": 0.1},
    "bang-bang": {
        "kind": "bang-bang",
        "control_interval_s": 0.1,
        "threshold_K": 335.0,
        "low_scale": 1.0,
        "high_scale": 1.5,
    },
    "proportional": {
        "kind": "proportional",
        "control_interval_s": 0.1,
        "setpoint_K": 330.0,
        "gain_per_K": 0.05,
        "min_scale": 0.5,
        "max_scale": 2.0,
    },
    "mpc": {
        "kind": "mpc",
        "control_interval_s": 0.1,
        "threshold_K": 335.0,
        "min_scale": 0.5,
        "max_scale": 2.0,
        "horizon_s": 0.1,
        "n_candidates": 4,
    },
}

#: Every policy with and without the reduced-order model on Niagara arch1,
#: plus three reactive policies on the Test A strip.  Eleven kinds put the
#: median inside the arch1 constant+ROM latency band instead of on the edge
#: between two bands, where it would jump between them from run to run.
_TRANSIENT_BLOCK = [
    ("arch1", policy, rom) for policy in _POLICIES for rom in ("off", "rom")
] + [
    ("strip", "bang-bang", "rom"),
    ("strip", "proportional", "off"),
    ("strip", "mpc", "rom"),
]


def _transient_spec(name: str, kind: tuple, u: List[float], rng) -> Dict[str, object]:
    family, policy, rom = kind
    if family == "arch1":
        n_steps = rng.choice((4, 5, 6))
        duration = 0.6
        # The trace's mean level walks the sequence; its shape is random.
        level = _lerp(45.0, 115.0, u[0])
        trace = {
            "layer": "top_die",
            "kind": "piecewise",
            "times": [duration * step / n_steps for step in range(n_steps)],
            "values": [level + rng.uniform(-15.0, 15.0) for _ in range(n_steps)],
        }
        return {
            "name": name,
            "workload": {"kind": "architecture", "architecture": "arch1"},
            "grid": {"n_grid_points": 161, "n_lanes": 5, "n_rows": 44, "n_cols": 44},
            "solver": {"simulator": "ice"},
            "transient": {
                "duration_s": duration,
                "time_step_s": 0.02,
                "traces": [trace],
                "policy": dict(_POLICIES[policy]),
                "store_every": 5,
                "threshold_K": 335.0,
                "rom": {"mode": rom},
            },
        }
    trace = {
        "layer": "top_die",
        "kind": "periodic",
        "period_s": _lerp(0.1, 0.3, u[1]),
        "duty": 0.5,
        "high": _lerp(60.0, 140.0, u[0]),
        "low": 10.0,
    }
    return {
        "name": name,
        "workload": {"kind": "test-a"},
        "grid": {"n_grid_points": 241, "n_lanes": 1, "n_rows": 1, "n_cols": 80},
        "solver": {"simulator": "ice"},
        "transient": {
            "duration_s": 1.0,
            "time_step_s": 0.01,
            "traces": [trace],
            "policy": dict(_POLICIES[policy]),
            "store_every": 5,
            "threshold_K": 330.0,
            "rom": {"mode": rom},
        },
    }


# -- campaign -----------------------------------------------------------------

#: The registered Niagara grids: at this resolution FDM and ICE peaks agree
#: within about 0.42 K over the swept flows, powers and architectures.
_CAMPAIGN_GRID = {"n_grid_points": 161, "n_lanes": 5, "n_rows": 44, "n_cols": 44}

#: Three fresh sweeps, then one re-submission of an earlier sweep.
_CAMPAIGN_BLOCK = [("fresh",), ("fresh",), ("fresh",), ("replay",)]


def _campaign_sweep(name: str, power: str, u: List[float]) -> Dict[str, object]:
    low, high = FLOW_RANGE
    middle = 0.5 * (low + high)
    return {
        "name": name,
        "base": {
            "name": "campaign-base",
            "workload": {"kind": "architecture", "architecture": "arch1", "power": power},
            "grid": dict(_CAMPAIGN_GRID),
        },
        "axes": [
            {
                "field": "params.flow_rate_per_channel",
                "values": [_lerp(low, middle, u[0]), _lerp(middle, high, u[1])],
            },
            {"field": "workload.architecture", "values": ["arch1", "arch2", "arch3"]},
            {"field": "solver.simulator", "values": ["fdm", "ice"]},
        ],
    }


# -- generation ---------------------------------------------------------------


def generate(workload: str, seed: int) -> Iterator[Op]:
    """The endless, seed-determined operation stream of a workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    sequence = _Sequence(rng)
    if workload == "design":
        for index, kind in enumerate(_blocks(rng, _DESIGN_BLOCK)):
            name = f"design-s{seed}-{index:05d}"
            payload = _design_spec(name, kind, sequence.point(index), rng)
            yield Op(index, "-".join(kind), payload)
    elif workload == "transient":
        for index, kind in enumerate(_blocks(rng, _TRANSIENT_BLOCK)):
            name = f"transient-s{seed}-{index:05d}"
            payload = _transient_spec(name, kind, sequence.point(index), rng)
            yield Op(index, "-".join(kind), payload)
    else:
        fresh: List[Dict[str, object]] = []
        # Fixed order, so a re-submission always has earlier sweeps to pick.
        for index, kind in enumerate(itertools.cycle(_CAMPAIGN_BLOCK)):
            if kind[0] == "fresh":
                power = ("peak", "average")[len(fresh) % 2]
                name = f"campaign-s{seed}-{index:05d}"
                sweep = _campaign_sweep(name, power, sequence.point(len(fresh)))
                fresh.append(sweep)
                yield Op(index, "fresh", sweep)
            else:
                yield Op(index, "replay", rng.choice(fresh))


def block_size(workload: str) -> int:
    """Operations per block: every block holds the same mix of kinds."""
    return {
        "design": len(_DESIGN_BLOCK),
        "transient": len(_TRANSIENT_BLOCK),
        "campaign": len(_CAMPAIGN_BLOCK),
    }[workload]


def warmup_op(workload: str) -> Op:
    """A fixed operation run once, untimed, before the first timed one.

    It does not depend on the seed (set-up time is the same experiment for
    every seed) and never coincides with a generated operation.
    """
    u = [0.5, 0.5, 0.5]
    rng = random.Random("warm-up")
    if workload == "design":
        return Op(-1, "warm-up", _design_spec("warm-up", ("niagara", "arch1", "peak"), u, rng))
    if workload == "transient":
        return Op(-1, "warm-up", _transient_spec("warm-up", ("arch1", "bang-bang", "rom"), u, rng))
    return Op(-1, "warm-up", _campaign_sweep("warm-up", "peak", u))


# -- execution ----------------------------------------------------------------


class Runner:
    """Executes and checks operations of one workload.

    Parameters
    ----------
    workload:
        One of :data:`WORKLOADS`.
    work_dir:
        A fresh directory for campaign stores and the run-wide result
        cache.
    """

    def __init__(self, workload: str, work_dir: str) -> None:
        from repro.serve.cache import ResultCache

        self.workload = workload
        self.work_dir = work_dir
        self.cache = ResultCache(os.path.join(work_dir, "cache"))
        # Fresh-sweep records by sweep name, for checking replays.
        self._originals: Dict[str, List[Dict[str, object]]] = {}
        self._n_stores = 0

    def prepare(self, op: Op):
        """The op's input as the API takes it (built outside the timing)."""
        from repro.scenarios import ScenarioSpec

        if self.workload == "campaign":
            self._n_stores += 1
            store = os.path.join(self.work_dir, f"store-{self._n_stores:05d}", "campaign.jsonl")
            return op.payload, store
        return ScenarioSpec.from_dict(op.payload), None

    def execute(self, prepared) -> OpOutput:
        """The timed operation: one call through the public API."""
        from repro.api import Session

        argument, store = prepared
        session = Session()
        if self.workload == "design":
            return OpOutput(session, session.optimize(argument))
        if self.workload == "transient":
            return OpOutput(session, session.run(argument))
        result = session.run_many(
            argument, executor="serial", out=store, cache=self.cache
        )
        return OpOutput(session, result)

    # -- checks -----------------------------------------------------------

    def check(self, op: Op, prepared, output: OpOutput) -> List[str]:
        """Problems found in one op's output (empty when correct)."""
        if self.workload == "design":
            return _check_design(prepared[0], output.result)
        if self.workload == "transient":
            return _check_transient(prepared[0], output.result)
        return self._check_campaign(op, output.result)

    def _check_campaign(self, op: Op, result) -> List[str]:
        problems = []
        if result.n_failed:
            problems.append(f"{result.n_failed} task(s) failed")
        records = [record for record in result.records if record is not None]
        expected = 1
        for axis in op.payload["axes"]:
            expected *= len(axis["values"])
        if len(records) != expected:
            problems.append(f"{len(records)} records for {expected} scenarios")
        name = op.payload["name"]
        if op.kind != "replay":
            self._originals[name] = records
            peaks: Dict[tuple, Dict[str, float]] = {}
            for record in records:
                spec = record["spec"]
                point = (
                    spec["params"]["flow_rate_per_channel"],
                    spec["workload"]["architecture"],
                    spec["workload"]["power"],
                )
                peaks.setdefault(point, {})[spec["solver"]["simulator"]] = record[
                    "result"
                ]["peak_temperature_K"]
            for point, pair in peaks.items():
                if set(pair) != {"fdm", "ice"}:
                    problems.append(f"{point}: missing a model family")
                elif not abs(pair["fdm"] - pair["ice"]) <= 1.0:
                    problems.append(
                        f"{point}: FDM {pair['fdm']:.3f} K vs ICE {pair['ice']:.3f} K"
                    )
        else:
            originals = self._originals.get(name)
            if originals is None:
                problems.append(f"replay of unknown sweep {name!r}")
            else:
                if any(record.get("source") != "cache" for record in records):
                    problems.append("a re-submitted sweep was solved, not replayed")
                for original, replay in zip(originals, records):
                    if _canonical(original["result"]) != _canonical(replay["result"]):
                        problems.append(f"{replay['scenario']}: replay differs")
        return problems

    # -- counters ---------------------------------------------------------

    def counters(self, prepared, output: OpOutput) -> Dict[str, float]:
        """Per-op counts read from public stats() and from the outputs."""
        counts: Dict[str, float] = {"cache_hits": 0, "cache_lookups": 0, "rom_builds": 0}
        for stats in output.session.stats().values():
            counts["cache_hits"] += stats["n_cache_hits"]
            counts["cache_lookups"] += stats["n_cache_hits"] + stats["n_cache_misses"]
            counts["rom_builds"] += stats["n_rom_builds"]
        if self.workload == "design":
            counts["optimizer_iterations"] = output.result.result.trace.n_iterations
        elif self.workload == "transient":
            counts["transient_steps"] = output.result.transient["n_steps"]
            error = output.result.transient.get("rom_peak_abs_err_K")
            if error is not None:
                counts["rom_peak_abs_err_K"] = error
        else:
            counts["bytes_appended"] = _tree_size(os.path.dirname(prepared[1]))
        return counts


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def _tree_size(root: str) -> int:
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def _finite(values) -> bool:
    import numpy as np

    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


#: The optimizer accepts a design as feasible within 1% of the pressure
#: limit (``is_feasible(slack=1e-2)``); the final Eq. (9) evaluation of an
#: active constraint lands a hair above the limit.
PRESSURE_SLACK = 1e-2


def _check_design(spec, run) -> List[str]:
    from repro.thermal.properties import TABLE_I

    problems = []
    result = run.result
    limit = spec.optimizer.max_pressure_drop_Pa or TABLE_I.max_pressure_drop
    drop = result.optimal.max_pressure_drop
    if not drop <= limit * (1.0 + PRESSURE_SLACK):
        problems.append(f"max pressure drop {drop:.6g} Pa over the {limit:.6g} Pa limit")
    # The flow minimizes the Eq. (7) gradient-norm cost, not the max-min
    # gradient, which can end a hair above the uniform designs' (Test B flux
    # seed 177175124: 77.644 K against 77.610 K); the cost is what must not
    # exceed that of the always-feasible widest uniform design.
    widest = result.baseline("uniform maximum")
    if not result.optimal.cost <= widest.cost * (1.0 + 1e-9):
        problems.append(
            f"optimal cost {result.optimal.cost:.6g} above the uniform "
            f"maximum-width cost {widest.cost:.6g}"
        )
    solution = result.optimal.solution
    for label, field_values in (
        ("silicon", solution.temperatures),
        ("coolant", solution.coolant_temperatures),
    ):
        if not _finite(field_values):
            problems.append(f"non-finite {label} temperatures")
        elif float(field_values.min()) < solution.inlet_temperature - 1e-9:
            problems.append(f"{label} temperature below the inlet temperature")
    return problems


def _check_transient(spec, result) -> List[str]:
    problems = []
    transient = result.transient
    expected_steps = round(spec.transient.duration_s / spec.transient.time_step_s)
    if transient["n_steps"] != expected_steps:
        problems.append(f"{transient['n_steps']} steps, expected {expected_steps}")
    histories = result.solution.layer_histories.values()
    if not (_finite([result.peak_temperature_K]) and all(_finite(h) for h in histories)):
        problems.append("non-finite temperatures")
    if spec.transient.rom.mode == "rom":
        error = transient.get("rom_peak_abs_err_K")
        if error is None or not _finite([error]) or error < 0.0:
            problems.append(f"reduced-order op reports no measured error ({error!r})")
    return problems
