"""The ``repro`` command line: reproduce any scenario from the shell.

Every subcommand resolves its scenario argument the same way (a registered
name such as ``test-a``, or a path to a scenario JSON file) and emits JSON
with ``--json`` / ``--output``, so runs can be scripted and diffed:

.. code-block:: console

    repro list                               # registered scenarios
    repro show test-a > my-scenario.json     # bootstrap a scenario file
    repro run test-a --json                  # analytical FDM simulation
    repro run my-scenario.json --solver ice  # same scenario, finite volume
    repro validate test-a                    # FDM vs ICE cross-check
    repro optimize test-a --save-design opt.json
    repro run opt.json --solver ice          # render the optimized design
    repro bench test-a --repeat 3            # wall times + cache stats
    repro sweep sweep.json --executor process --workers 4 \
        --out campaign.jsonl                 # run a whole scenario family
    repro campaign summarize campaign.jsonl  # roll up a stored campaign
    repro campaign export campaign.jsonl --out data.csv  # features + metrics
    repro serve --data-dir ./serve-data --port 8080   # campaign service
    repro submit sweep.json --url http://127.0.0.1:8080 --wait
    repro jobs --url http://127.0.0.1:8080   # list service jobs
    repro ml fit campaign.jsonl --model-dir models    # train a surrogate
    repro ml predict test-a --model-dir models        # mean + std, no solve
    repro ml active campaign.jsonl candidates.json --model-dir models

Campaigns stream one JSONL record per completed scenario into ``--out``;
re-running the same sweep with the same ``--out`` file *resumes* -- stored
scenarios are skipped by spec hash instead of recomputed.  ``repro serve``
puts the same campaigns behind a durable HTTP service (see
:mod:`repro.serve`); ``submit``/``jobs`` are its thin clients.

The console script is installed by the package (``pyproject.toml``); the
module also runs as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from .api import Session
from .campaign import CampaignStore, summarize_records
from .exec import available_executors, make_tasks
from .scenarios import ScenarioSpec, resolve_scenario, scenario_rows
from .sweeps import (
    SweepSpec,
    expand_scenarios,
    is_sweep_mapping,
    load_campaign,
    read_campaign_file,
)

__all__ = ["main", "build_parser"]


def _time_once(function) -> float:
    """Wall time of one call (seconds)."""
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def _emit(payload: Dict[str, object], args: argparse.Namespace) -> None:
    """Write a JSON payload to stdout and/or the requested output file."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    if not output or getattr(args, "json", False):
        print(text)


def _resolve(argument: str, backend: Optional[str] = None) -> ScenarioSpec:
    """Resolve a CLI scenario argument (registered name or JSON file).

    ``backend`` (from ``--backend``) selects the linear-solver backend for
    both the FDM and the finite-volume solve paths.  It fills in for the
    spec's default (``"auto"``), but *conflicting* with a backend the
    scenario pins explicitly is an error -- silently overriding a pinned
    backend would make the flag and the file disagree about what ran.
    """
    spec = resolve_scenario(argument)
    if backend:
        pinned = spec.solver.backend
        if pinned != "auto" and pinned != backend:
            raise ValueError(
                f"--backend {backend} conflicts with the scenario's pinned "
                f"solver.backend {pinned!r}; edit the spec or drop --backend"
            )
        spec = spec.with_solver(backend=backend)
    return spec


def _print_metrics(prefix: str, payload: Dict[str, object]) -> None:
    """Human-readable one-metric-per-line rendering of a result dict."""
    print(prefix)
    for key in (
        "peak_temperature_K",
        "thermal_gradient_K",
        "coolant_rise_K",
        "max_pressure_drop_Pa",
        "wall_time_s",
    ):
        if key in payload:
            print(f"  {key:24s} {payload[key]:.6g}")
    picard = (payload.get("provenance") or {}).get("picard")
    if picard:
        state = (
            "converged"
            if picard.get("converged")
            else "fell back to constant properties"
        )
        print(
            f"  picard: {picard.get('coolant_model', '?')} model, "
            f"{picard.get('n_iterations', 0)} iteration(s), {state}"
        )
    transient = payload.get("transient")
    if transient:
        print(f"  transient ({transient.get('policy', '?')} policy)")
        for key in (
            "peak_transient_temperature_K",
            "final_peak_temperature_K",
            "time_above_threshold_s",
            "thermal_cycling_amplitude_K",
            "pumping_energy_J",
            "mean_flow_scale",
            "max_pressure_drop_at_peak_flow_Pa",
            "n_flow_changes",
            "max_reynolds",
            "rom_order",
            "rom_peak_abs_err_K",
        ):
            if key in transient:
                print(f"    {key:28s} {transient[key]:.6g}")
        if transient.get("laminar_violated"):
            print(
                "    laminar_violated: Re exceeds the laminar limit; the "
                "Shah & London correlations are extrapolating"
            )


# -- subcommands ------------------------------------------------------------


def cmd_list(args: argparse.Namespace) -> int:
    """``repro list`` -- the registered scenarios."""
    rows = scenario_rows()
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    width = max(len(row["name"]) for row in rows) if rows else 0
    for row in rows:
        kind = row["workload"] + (", transient" if row["transient"] else "")
        print(f"{row['name']:{width}s}  [{kind}]  {row['description']}")
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    """``repro show`` -- emit a scenario spec as JSON."""
    spec = _resolve(args.scenario)
    _emit(spec.to_dict(), args)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run`` -- simulate a scenario through one simulator family."""
    spec = _resolve(args.scenario, getattr(args, "backend", None))
    coolant_model = getattr(args, "coolant_model", None)
    if coolant_model is not None:
        spec = spec.with_overrides(coolant_model=coolant_model)
    result = Session().run(spec, solver=args.solver)
    payload = result.to_dict()
    if args.json or args.output:
        _emit(payload, args)
    else:
        _print_metrics(
            f"{payload['scenario']} via {payload['simulator']}", payload
        )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """``repro validate`` -- cross-validate FDM against the ICE solver."""
    spec = _resolve(args.scenario, getattr(args, "backend", None))
    report = Session().cross_validate(spec)
    payload = report.to_dict()
    if args.json or args.output:
        _emit(payload, args)
    else:
        _print_metrics(f"{spec.name} via fdm", payload["fdm"])
        _print_metrics(f"{spec.name} via ice", payload["ice"])
        print("deltas (ice - fdm)")
        for key in ("peak_delta_K", "gradient_delta_K", "coolant_rise_delta_K"):
            print(f"  {key:24s} {payload[key]:+.6g}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    """``repro optimize`` -- run the Sec. IV channel-modulation flow."""
    from dataclasses import replace

    spec = _resolve(args.scenario)
    if args.gradient_mode:
        # Validation lives in OptimizerSpec, so an unknown mode surfaces
        # as the standard one-line `error: ...` with exit code 2.
        spec = spec.with_overrides(
            optimizer=replace(spec.optimizer, gradient_mode=args.gradient_mode)
        )
    outcome = Session().optimize(spec)
    if args.save_design:
        outcome.optimized_spec().save(args.save_design)
    payload = outcome.to_dict()
    if args.json or args.output:
        _emit(payload, args)
    else:
        summary = payload["summary"]
        print(f"{spec.name}: optimal channel modulation")
        for key, value in summary.items():
            formatted = f"{value:.6g}" if isinstance(value, float) else value
            print(f"  {key:28s} {formatted}")
        provenance = payload.get("provenance", {})
        cache = provenance.get("cache", {})
        print(
            f"  gradient mode {provenance.get('gradient_mode', '?')}: "
            f"{cache.get('n_adjoint_solves', 0)} adjoint gradients, "
            f"{cache.get('n_transpose_solves', 0)} transpose solves, "
            f"{cache.get('n_solves', 0)} forward solves"
        )
        if args.save_design:
            print(f"  optimized scenario saved to {args.save_design}")
    return 0


def _ice_bench_record(spec: ScenarioSpec) -> Dict[str, object]:
    """Finite-volume benchmark record: assembly + cold and warm solves.

    ``assembly_vectorized_s`` times a full assembly (flow-free base cache
    cleared, sparsity pattern warm); ``flow_refresh_s`` times a system at
    twice the flow over the base that assembly left behind.
    """
    from .ice import SteadyStateSolver, assemble_system, clear_base_cache

    stack = spec.build_stack()
    nominal = spec.experiment_config().params.flow_rate_per_channel
    refresh_stack = spec.with_params(
        flow_rate_per_channel=2.0 * nominal
    ).build_stack()
    assemble_system(stack)  # warm the shared sparsity-pattern cache
    clear_base_cache()
    vectorized_s = _time_once(lambda: assemble_system(stack))
    flow_refresh_s = _time_once(lambda: assemble_system(refresh_stack))
    solver = SteadyStateSolver(stack, backend=spec.solver.backend)
    cold_solve_s = _time_once(lambda: solver.solve(compute_residual=False))
    warm_solve_s = _time_once(lambda: solver.solve(compute_residual=False))
    return {
        "simulator": "ice",
        "backend": solver.backend.name,
        "grid": [stack.n_rows, stack.n_cols],
        "n_unknowns": solver.system.n_unknowns,
        "assembly_vectorized_s": vectorized_s,
        "flow_refresh_s": flow_refresh_s,
        "solve_cold_s": cold_solve_s,
        "solve_warm_s": warm_solve_s,
    }


def _gradient_bench_record(spec: ScenarioSpec) -> Dict[str, object]:
    """Optimizer-gradient record: one batched SLSQP gradient evaluation.

    Uses a private designer (and hence a private engine) so the session
    statistics of the repeated runs stay untouched.
    """
    from .core.designer import ChannelModulationDesigner

    designer = ChannelModulationDesigner.from_spec(spec)
    optimizer = designer.optimizer
    midpoint = optimizer.parameterization.midpoint_vector()
    optimizer.engine.reset_stats()
    batched_s = _time_once(lambda: optimizer.cost_gradient(midpoint))
    stats = optimizer.engine.stats()
    return {
        "n_variables": int(optimizer.parameterization.n_variables),
        "n_workers": int(optimizer.settings.n_workers),
        "batched_gradient_s": batched_s,
        "solves_per_iterate": stats["n_solves"],
        "solve_many_calls": stats["n_batches"],
        "batch_items": stats["n_batch_items"],
    }


def _adjoint_bench_record(spec: ScenarioSpec) -> Dict[str, object]:
    """Adjoint-gradient record: one adjoint vs one fd-batched evaluation.

    Falls back to an fd-only record (``adjoint_supported: False``) when
    the scenario's objective has no adjoint.
    """
    from .core.adjoint import supports_adjoint
    from .core.designer import ChannelModulationDesigner

    designer = ChannelModulationDesigner.from_spec(spec)
    optimizer = designer.optimizer
    midpoint = optimizer.parameterization.midpoint_vector()
    record: Dict[str, object] = {
        "n_variables": int(optimizer.parameterization.n_variables),
        "objective": optimizer.settings.objective,
        "adjoint_supported": supports_adjoint(optimizer.settings.objective),
        "fd_batched_gradient_s": _time_once(
            lambda: optimizer.cost_gradient(midpoint)
        ),
    }
    if record["adjoint_supported"]:
        optimizer.adjoint_cost_gradient(midpoint)  # warm the factorization
        record["adjoint_gradient_s"] = _time_once(
            lambda: optimizer.adjoint_cost_gradient(midpoint)
        )
        record["adjoint_speedup"] = (
            record["fd_batched_gradient_s"] / record["adjoint_gradient_s"]
        )
    return record


def cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench`` -- repeated runs, finite-volume and gradient records."""
    if args.repeat < 1:
        raise ValueError("--repeat must be at least 1")
    spec = _resolve(args.scenario, getattr(args, "backend", None))
    session = Session()
    wall_times: List[float] = []
    last = None
    for _ in range(args.repeat):
        last = session.run(spec, solver=args.solver)
        wall_times.append(last.wall_time_s)
    payload = {
        "scenario": spec.name,
        "simulator": last.simulator,
        "repeat": args.repeat,
        "wall_times_s": wall_times,
        "cold_s": wall_times[0],
        "best_s": min(wall_times),
        "mean_s": sum(wall_times) / len(wall_times),
        "metrics": last.summary(),
        "provenance": last.provenance,
        "session": session.stats(),
        "ice": _ice_bench_record(spec),
        "optimizer_gradient": _gradient_bench_record(spec),
        "optimizer_adjoint": _adjoint_bench_record(spec),
    }
    if args.json or args.output:
        _emit(payload, args)
    else:
        print(
            f"{spec.name} via {payload['simulator']}: "
            f"cold {payload['cold_s'] * 1e3:.2f} ms, "
            f"best of {args.repeat}: {payload['best_s'] * 1e3:.2f} ms"
        )
        for backend, stats in payload["session"].items():
            print(
                f"  engine {backend}: {stats['n_solves']} solves, "
                f"{stats['n_cache_hits']} cache hits "
                f"(hit rate {stats['hit_rate']:.0%})"
            )
        ice = payload["ice"]
        print(
            f"  ice assembly {ice['grid'][0]}x{ice['grid'][1]}: "
            f"{ice['assembly_vectorized_s'] * 1e3:.2f} ms (flow refresh "
            f"{ice['flow_refresh_s'] * 1e3:.2f} ms), solve cold "
            f"{ice['solve_cold_s'] * 1e3:.2f} ms / warm "
            f"{ice['solve_warm_s'] * 1e3:.2f} ms [{ice['backend']}]"
        )
        gradient = payload["optimizer_gradient"]
        print(
            f"  gradient: {gradient['n_variables']} variables, "
            f"{gradient['solves_per_iterate']} solves in "
            f"{gradient['solve_many_calls']} solve_many call(s), "
            f"{gradient['batched_gradient_s'] * 1e3:.2f} ms"
        )
        adjoint = payload["optimizer_adjoint"]
        if adjoint["adjoint_supported"]:
            print(
                f"  adjoint: {adjoint['adjoint_gradient_s'] * 1e3:.2f} ms "
                f"vs fd-batched {adjoint['fd_batched_gradient_s'] * 1e3:.2f}"
                f" ms ({adjoint['adjoint_speedup']:.1f}x)"
            )
        else:
            print(
                f"  adjoint: unsupported for objective "
                f"{adjoint['objective']!r} (fd-batched "
                f"{adjoint['fd_batched_gradient_s'] * 1e3:.2f} ms)"
            )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep`` -- run a scenario family through an executor."""
    if args.optimize and args.solver:
        raise ValueError(
            "--solver does not apply to --optimize campaigns (the design "
            "flow always runs on the FDM engine); drop --solver"
        )
    sweep = load_campaign(args.sweep)
    specs = expand_scenarios(sweep)
    action = "optimize" if args.optimize else "run"
    if args.dry_run:
        # Emit the exact resume keys campaign records will carry, so the
        # dry-run output can be matched against a store's spec_hash field.
        rows = [
            {"index": task.index, "scenario": task.spec.name, "spec_hash": task.key()}
            for task in make_tasks(specs, action=action, solver=args.solver)
        ]
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True))
        else:
            for row in rows:
                print(f"{row['index']:4d}  {row['scenario']}")
            print(f"{len(rows)} scenario(s); nothing run (--dry-run)")
        return 0

    def report(record: Dict[str, object]) -> None:
        status = record["status"]
        tail = (
            f"peak {record['result']['peak_temperature_K']:.3f} K"
            if status == "ok" and record.get("action") == "run"
            else (record.get("error") or "done")
        )
        print(
            f"[{record['index'] + 1}/{len(specs)}] {record['scenario']}: "
            f"{status} ({record['wall_time_s']:.3g} s) {tail}",
            file=sys.stderr,
        )

    campaign = Session().run_many(
        sweep,
        executor=args.executor,
        workers=args.workers,
        solver=args.solver,
        out=args.out,
        cache=args.cache,
        action=action,
        progress=report if not args.quiet else None,
    )
    payload = campaign.to_dict()
    if args.json or args.output:
        _emit(payload, args)
    else:
        summary = payload["summary"]
        print(
            f"{campaign.name}: {summary['n_ok']}/{summary['n_records']} ok "
            f"via {campaign.executor} ({campaign.workers} worker(s)), "
            f"{campaign.n_from_store} from store, "
            f"{campaign.n_from_cache} from cache, "
            f"wall {campaign.wall_time_s:.3g} s"
        )
        counters = summary["counters"]
        print(
            f"  engines: {counters['n_solves']} solves, "
            f"{counters['n_cache_hits']} cache hits across all workers"
        )
        if campaign.store_path:
            print(f"  campaign store: {campaign.store_path}")
        for failure in summary["failures"]:
            print(f"  FAILED {failure['scenario']}: {failure['error']}")
    return 0 if campaign.n_failed == 0 else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    """``repro campaign summarize`` -- roll up a stored campaign JSONL."""
    store = CampaignStore(args.file)
    # iter_records streams shard by shard, so summarizing never loads the
    # whole store; the fold in summarize_records is single-pass too.
    summary = summarize_records(store.iter_records())
    summary["store_path"] = store.path
    summary["n_dropped_torn"] = store.n_dropped_torn
    summary["sharded"] = store.is_sharded
    summary["n_shards"] = len(store.shard_paths())
    if args.json or args.output:
        _emit(summary, args)
    else:
        layout = (
            f", {summary['n_shards']} shard(s)" if summary["sharded"] else ""
        )
        print(
            f"{store.path}: {summary['n_ok']}/{summary['n_records']} ok, "
            f"{summary['n_failed']} failed, task wall "
            f"{summary['task_wall_time_s']:.3g} s, "
            f"{len(summary['workers_seen'])} worker(s){layout}"
        )
        counters = summary["counters"]
        qualifier = (
            ""
            if summary["counters_complete"]
            else " (lower bound: some records carry no per-task counters)"
        )
        print(
            f"  engines: {counters['n_solves']} solves, "
            f"{counters['n_cache_hits']} cache hits{qualifier}"
        )
        if "peak_temperature_K_max" in summary:
            print(
                f"  peak temperature: "
                f"{summary['peak_temperature_K_min']:.3f} .. "
                f"{summary['peak_temperature_K_max']:.3f} K"
            )
        for failure in summary["failures"]:
            print(f"  FAILED {failure['scenario']}: {failure['error']}")
    return 0


def cmd_campaign_export(args: argparse.Namespace) -> int:
    """``repro campaign export`` -- dump features + metrics rows.

    One row per unique ok record: ``spec_hash``, ``scenario``, the
    numeric feature columns of :mod:`repro.ml.features` (constants kept
    -- an export is documentation) and the requested target metrics.
    CSV by default, a JSON array with ``--json``.
    """
    from .ml.dataset import DEFAULT_TARGETS, build_dataset

    targets = tuple(args.target) if args.target else DEFAULT_TARGETS
    dataset = build_dataset(
        CampaignStore(args.file), targets=targets, drop_constant=False
    )
    feature_names = dataset.schema.column_names()
    header = ["spec_hash", "scenario"] + feature_names + list(dataset.targets)
    rows = [
        [dataset.spec_hashes[i], dataset.scenarios[i]]
        + [float(v) for v in dataset.X[i]]
        + [float(v) for v in dataset.y[i]]
        for i in range(dataset.n_samples)
    ]
    if args.json:
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            print(text)
    else:
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header)
        writer.writerows(rows)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(buffer.getvalue())
        else:
            sys.stdout.write(buffer.getvalue())
    skipped = sum(dataset.skipped.values())
    print(
        f"exported {dataset.n_samples} row(s) x {len(header)} column(s)"
        + (f" to {args.out}" if args.out else "")
        + (f"; skipped {skipped} record(s) {dataset.skipped}" if skipped else ""),
        file=sys.stderr,
    )
    return 0


def cmd_ml_fit(args: argparse.Namespace) -> int:
    """``repro ml fit`` -- train a surrogate on a campaign store."""
    from .ml import build_dataset, make_surrogate, save_model
    from .ml.dataset import DEFAULT_TARGETS

    targets = tuple(args.target) if args.target else DEFAULT_TARGETS
    dataset = build_dataset(CampaignStore(args.file), targets=targets)
    model = make_surrogate(args.model).fit(dataset)
    model_id = save_model(model, args.model_dir)
    payload = model.describe()
    payload["model_id"] = model_id
    payload["model_dir"] = args.model_dir
    payload["dataset"] = dataset.summary()
    if args.json or args.output:
        _emit(payload, args)
    else:
        print(
            f"fitted {args.model} surrogate on {dataset.n_samples} sample(s) "
            f"({', '.join(dataset.targets)})"
        )
        print(f"  features: {', '.join(dataset.schema.column_names())}")
        print(f"  saved as {model_id} in {args.model_dir}")
    return 0


def cmd_ml_predict(args: argparse.Namespace) -> int:
    """``repro ml predict`` -- surrogate mean + std for a scenario, no solve."""
    from .ml import load_model

    spec = _resolve(args.scenario)
    model = load_model(args.model_dir, args.model_id)
    mean, std = model.predict_specs([spec])
    payload: Dict[str, object] = {
        "scenario": spec.name,
        "model": model.name,
        "mean": {
            target: float(mean[0, i]) for i, target in enumerate(model.targets)
        },
        "std": {
            target: float(std[0, i]) for i, target in enumerate(model.targets)
        },
    }
    if args.json or args.output:
        _emit(payload, args)
    else:
        print(f"{spec.name} via {model.name} surrogate (no solve)")
        for target in model.targets:
            print(
                f"  {target:36s} {payload['mean'][target]:.6g} "
                f"+/- {payload['std'][target]:.3g}"
            )
    return 0


def cmd_ml_active(args: argparse.Namespace) -> int:
    """``repro ml active`` -- one active-learning round over a store.

    Fits a surrogate on the store, scores the candidate sweep with the
    chosen acquisition, runs the selected batch through the ordinary
    campaign machinery *into the same store* (so the round is resumable
    and interruptible like any sweep), refits, and reports how much the
    mean predictive std over the candidates shrank.
    """
    from .ml import build_dataset, make_surrogate, select_batch
    from .ml.dataset import DEFAULT_TARGETS

    targets = tuple(args.target) if args.target else DEFAULT_TARGETS
    candidates = load_campaign(args.candidates)
    if not isinstance(candidates, SweepSpec):
        raise ValueError(
            f"{args.candidates}: candidates must be a sweep JSON file "
            "(a 'base' plus axes), not a single scenario"
        )
    store = CampaignStore(args.file)
    dataset = build_dataset(store, targets=targets)
    model = make_surrogate(args.model).fit(dataset)
    # Exclude by spec payload, not resume key: the training sweep and the
    # candidate pool are usually named differently, and physical identity
    # is what "already labelled" means (see repro.ml.active.physical_key).
    selection = select_batch(
        model,
        candidates,
        n_points=args.n_points,
        acquisition=args.acquisition,
        exclude=dataset.specs,
    )
    payload = selection.to_dict()
    payload["n_training_samples"] = dataset.n_samples
    if args.dry_run:
        payload["dry_run"] = True
        if args.json or args.output:
            _emit(payload, args)
        else:
            print(
                f"would run {len(selection.indices)} point(s) "
                f"[{args.acquisition} on {selection.target}]; "
                f"mean candidate std {selection.mean_std:.4g}"
            )
            for name in selection.sweep.scenario_names():
                print(f"  {name}")
        return 0
    campaign = Session().run_many(
        selection.sweep,
        executor=args.executor,
        workers=args.workers,
        out=store,
    )
    refit_dataset = build_dataset(
        store, targets=targets, schema=dataset.schema
    )
    refit = make_surrogate(args.model).fit(refit_dataset)
    _, std_after = refit.predict_specs(candidates.scenarios())
    target_index = list(refit.targets).index(selection.target)
    payload["campaign"] = campaign.summary()
    payload["mean_std_after"] = float(std_after[:, target_index].mean())
    payload["n_training_samples_after"] = refit_dataset.n_samples
    if args.json or args.output:
        _emit(payload, args)
    else:
        print(
            f"ran {len(selection.indices)} point(s) "
            f"[{args.acquisition} on {selection.target}]: "
            f"{campaign.n_ok} ok, {campaign.n_from_store} from store"
        )
        print(
            f"  mean candidate std: {selection.mean_std:.4g} -> "
            f"{payload['mean_std_after']:.4g} "
            f"({dataset.n_samples} -> {refit_dataset.n_samples} samples)"
        )
    return 0 if campaign.n_failed == 0 else 1


def cmd_cache_gc(args: argparse.Namespace) -> int:
    """``repro cache gc`` -- expire and cap the shared result cache."""
    import os

    from .serve import ResultCache

    if args.max_age is None and args.max_entries is None:
        print(
            "nothing to do: pass --max-age and/or --max-entries",
            file=sys.stderr,
        )
        return 2
    cache = ResultCache(os.path.join(args.data_dir, "cache"))
    report = cache.gc(max_age_s=args.max_age, max_entries=args.max_entries)
    report["cache_root"] = cache.root
    if args.json or args.output:
        _emit(report, args)
    else:
        print(
            f"{cache.root}: scanned {report['n_scanned']}, removed "
            f"{report['n_removed']}, kept {report['n_kept']}"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve`` -- run the campaign service HTTP front door."""
    from .serve import CampaignServer, CampaignService

    service = CampaignService(
        args.data_dir,
        executor=args.executor,
        workers=args.workers,
        pool_size=args.pool_size,
        max_pending=args.max_pending,
    )
    server = CampaignServer(service, host=args.host, port=args.port)
    server.start_in_thread()
    print(
        f"repro serve listening on {server.url} "
        f"(data dir {service.data_dir}, executor {service.executor} "
        f"x{service.workers}, {args.pool_size} job worker(s))",
        file=sys.stderr,
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.stop()
    return 0


def _campaign_payload(argument: str) -> object:
    """A CLI campaign argument as the JSON value a submission carries.

    Files are sent as their parsed JSON (sweep or scenario mapping);
    anything else is sent verbatim as a registered scenario name -- the
    server validates eagerly, so typos come back as HTTP 400s.
    """
    import os

    return read_campaign_file(argument) if os.path.exists(argument) else argument


def cmd_submit(args: argparse.Namespace) -> int:
    """``repro submit`` -- queue a campaign on a running service."""
    from .serve import ServiceClient

    client = ServiceClient(args.url)
    payload = _campaign_payload(args.campaign)
    if args.optimize:
        job = client.submit_optimize(payload, fresh=args.fresh)
    elif isinstance(payload, dict) and is_sweep_mapping(payload):
        job = client.submit_sweep(payload, fresh=args.fresh)
    else:
        job = client.submit_run(payload, solver=args.solver, fresh=args.fresh)
    if args.wait:
        job = client.wait(job["job_id"], timeout=args.timeout)
    if args.json or args.output:
        _emit(job, args)
    else:
        dedup = " (deduplicated: already queued)" if job.get("resubmitted") else ""
        print(
            f"job {job['job_id']}: {job['state']} "
            f"({job['kind']}, {job['n_total']} scenario(s)){dedup}"
        )
        if job.get("error"):
            print(f"  error: {job['error']}")
        summary = job.get("summary")
        if summary:
            print(
                f"  {summary['n_ok']}/{summary['n_records']} ok, "
                f"{summary['n_from_store']} from store, "
                f"{summary['n_from_cache']} from cache, "
                f"wall {summary['wall_time_s']:.3g} s"
            )
    return 0 if job["state"] in ("submitted", "running", "done") else 1


def cmd_jobs(args: argparse.Namespace) -> int:
    """``repro jobs`` -- inspect a running service's queue."""
    from .serve import ServiceClient

    client = ServiceClient(args.url)
    if args.job_id and args.records:
        records = client.records(args.job_id)
        for record in records:
            print(json.dumps(record, sort_keys=True))
        return 0
    if args.job_id:
        detail = client.job(args.job_id)
        if args.json or args.output:
            _emit(detail, args)
        else:
            print(
                f"job {detail['job_id']}: {detail['state']} "
                f"({detail['kind']}, {detail['n_ok']}/{detail['n_total']} ok)"
            )
            if detail.get("error"):
                print(f"  error: {detail['error']}")
        return 0
    jobs = client.jobs()
    if args.json or args.output:
        _emit({"jobs": jobs}, args)
        return 0
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        done = job.get("progress", {}).get("n_done", "?")
        print(
            f"{job['job_id']}  {job['state']:9s} {job['kind']:8s} "
            f"{done}/{job['n_total']}"
        )
    return 0


# -- parser -----------------------------------------------------------------


def _add_scenario_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "scenario",
        help="registered scenario name (see 'repro list') or scenario JSON file",
    )


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON on stdout"
    )
    parser.add_argument(
        "--output", metavar="FILE", help="also write the JSON payload to FILE"
    )


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        metavar="NAME",
        default=None,
        help=(
            "linear-solver backend for both solve paths (auto, sparse-lu, "
            "dense, or a custom registered name; default: the scenario's own)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the channel-modulation experiments: run, "
            "cross-validate, optimize and benchmark declarative scenarios."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list the registered scenarios"
    )
    list_parser.add_argument("--json", action="store_true")
    list_parser.set_defaults(func=cmd_list)

    show_parser = subparsers.add_parser(
        "show", help="print a scenario spec as JSON (bootstrap scenario files)"
    )
    _add_scenario_argument(show_parser)
    show_parser.add_argument("--output", metavar="FILE")
    show_parser.set_defaults(func=cmd_show, json=True)

    run_parser = subparsers.add_parser(
        "run", help="simulate a scenario (FDM or ICE)"
    )
    _add_scenario_argument(run_parser)
    run_parser.add_argument(
        "--solver",
        choices=("fdm", "ice"),
        default=None,
        help="simulator family (default: the scenario's own)",
    )
    run_parser.add_argument(
        "--coolant-model",
        metavar="NAME",
        default=None,
        help=(
            "coolant property model (e.g. 'water' for temperature-"
            "dependent properties via Picard iteration; default: the "
            "scenario's own, normally 'constant')"
        ),
    )
    _add_backend_argument(run_parser)
    _add_output_arguments(run_parser)
    run_parser.set_defaults(func=cmd_run)

    validate_parser = subparsers.add_parser(
        "validate", help="cross-validate the FDM and ICE simulators"
    )
    _add_scenario_argument(validate_parser)
    _add_backend_argument(validate_parser)
    _add_output_arguments(validate_parser)
    validate_parser.set_defaults(func=cmd_validate)

    optimize_parser = subparsers.add_parser(
        "optimize", help="run the optimal channel-modulation design flow"
    )
    _add_scenario_argument(optimize_parser)
    optimize_parser.add_argument(
        "--save-design",
        metavar="FILE",
        help="save the scenario with the optimized design pinned into it",
    )
    optimize_parser.add_argument(
        "--gradient-mode",
        metavar="MODE",
        default=None,
        help=(
            "cost-gradient strategy: adjoint (one forward + one transpose "
            "solve per iterate; falls back to fd-batched for nonsmooth "
            "objectives) or fd-batched (the finite-difference reference); "
            "default: the scenario's own"
        ),
    )
    _add_output_arguments(optimize_parser)
    optimize_parser.set_defaults(func=cmd_optimize)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a scenario family (sweep JSON, scenario file or name)",
    )
    sweep_parser.add_argument(
        "sweep",
        help=(
            "sweep JSON file (base + axes), scenario JSON file, or "
            "registered scenario name"
        ),
    )
    sweep_parser.add_argument(
        "--executor",
        default="serial",
        help=(
            "campaign executor: one of "
            + "/".join(available_executors())
            + " or a custom registered name (default: serial)"
        ),
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=1, help="worker count for thread/process"
    )
    sweep_parser.add_argument(
        "--solver",
        choices=("fdm", "ice"),
        default=None,
        help="simulator family override for every scenario",
    )
    sweep_parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help=(
            "campaign store (JSONL, one record per scenario); re-running "
            "with the same file resumes instead of recomputing"
        ),
    )
    sweep_parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help=(
            "shared result-cache directory (content-addressed by spec "
            "hash); hits are replayed without solving, across campaigns "
            "and processes"
        ),
    )
    sweep_parser.add_argument(
        "--optimize",
        action="store_true",
        help="run the Sec. IV design flow on every scenario instead of simulating",
    )
    sweep_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="list the expanded scenarios without running anything",
    )
    sweep_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-scenario progress lines"
    )
    _add_output_arguments(sweep_parser)
    sweep_parser.set_defaults(func=cmd_sweep)

    campaign_parser = subparsers.add_parser(
        "campaign", help="inspect stored campaign JSONL files"
    )
    campaign_sub = campaign_parser.add_subparsers(
        dest="campaign_command", required=True
    )
    summarize_parser = campaign_sub.add_parser(
        "summarize", help="roll up a campaign store (counts, counters, extrema)"
    )
    summarize_parser.add_argument("file", help="campaign JSONL file")
    _add_output_arguments(summarize_parser)
    summarize_parser.set_defaults(func=cmd_campaign)

    export_parser = campaign_sub.add_parser(
        "export",
        help="dump the store as a feature/metric table (CSV or JSON)",
    )
    export_parser.add_argument("file", help="campaign JSONL file")
    export_parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the table here instead of stdout",
    )
    export_parser.add_argument(
        "--target",
        action="append",
        metavar="PATH",
        default=None,
        help=(
            "dotted result path to include as a metric column (repeatable; "
            "default: peak_temperature_K and max_pressure_drop_Pa)"
        ),
    )
    export_parser.add_argument(
        "--json",
        action="store_true",
        help="emit a JSON array of row objects instead of CSV",
    )
    export_parser.set_defaults(func=cmd_campaign_export)

    ml_parser = subparsers.add_parser(
        "ml",
        help="surrogate models: fit from campaigns, predict, active learning",
    )
    ml_sub = ml_parser.add_subparsers(dest="ml_command", required=True)

    ml_fit_parser = ml_sub.add_parser(
        "fit", help="train a surrogate on a campaign store's ok records"
    )
    ml_fit_parser.add_argument("file", help="campaign JSONL file to train on")
    ml_fit_parser.add_argument(
        "--model",
        choices=("gp", "rff"),
        default="gp",
        help="surrogate family: exact GP or random-feature ridge (default: gp)",
    )
    ml_fit_parser.add_argument(
        "--target",
        action="append",
        metavar="PATH",
        default=None,
        help=(
            "dotted result path to regress on (repeatable; default: "
            "peak_temperature_K and max_pressure_drop_Pa)"
        ),
    )
    ml_fit_parser.add_argument(
        "--model-dir",
        metavar="DIR",
        default="models",
        help="content-addressed model directory (default: ./models)",
    )
    _add_output_arguments(ml_fit_parser)
    ml_fit_parser.set_defaults(func=cmd_ml_fit)

    ml_predict_parser = ml_sub.add_parser(
        "predict", help="surrogate mean and uncertainty for a scenario, no solve"
    )
    _add_scenario_argument(ml_predict_parser)
    ml_predict_parser.add_argument(
        "--model-dir",
        metavar="DIR",
        default="models",
        help="model directory written by 'repro ml fit' (default: ./models)",
    )
    ml_predict_parser.add_argument(
        "--model-id",
        metavar="ID",
        default=None,
        help="specific saved model (default: the latest fit)",
    )
    _add_output_arguments(ml_predict_parser)
    ml_predict_parser.set_defaults(func=cmd_ml_predict)

    ml_active_parser = ml_sub.add_parser(
        "active",
        help="one active-learning round: fit, pick informative points, run them",
    )
    ml_active_parser.add_argument(
        "file", help="campaign JSONL store to train on and run into"
    )
    ml_active_parser.add_argument(
        "candidates", help="sweep JSON file (base + axes) defining the pool"
    )
    ml_active_parser.add_argument(
        "--model",
        choices=("gp", "rff"),
        default="gp",
        help="surrogate family (default: gp)",
    )
    ml_active_parser.add_argument(
        "--target",
        action="append",
        metavar="PATH",
        default=None,
        help="dotted result path(s) to model (repeatable; default: built-ins)",
    )
    ml_active_parser.add_argument(
        "--n-points",
        type=int,
        default=4,
        help="batch size: scenarios to run this round (default: 4)",
    )
    ml_active_parser.add_argument(
        "--acquisition",
        choices=("max_variance", "ucb", "ei"),
        default="max_variance",
        help="how to score candidates (default: max_variance)",
    )
    ml_active_parser.add_argument(
        "--executor",
        default="serial",
        help=(
            "campaign executor for the selected batch: one of "
            + "/".join(available_executors())
            + " (default: serial)"
        ),
    )
    ml_active_parser.add_argument(
        "--workers", type=int, default=1, help="worker count for thread/process"
    )
    ml_active_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report the selection without running anything",
    )
    _add_output_arguments(ml_active_parser)
    ml_active_parser.set_defaults(func=cmd_ml_active)

    serve_parser = subparsers.add_parser(
        "serve", help="run the campaign service (durable queue + HTTP API)"
    )
    serve_parser.add_argument(
        "--data-dir",
        default="serve-data",
        help=(
            "service state directory: job journal, shared result cache and "
            "per-job sharded campaign stores (default: ./serve-data)"
        ),
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port (0 picks an ephemeral port; default: 8080)",
    )
    serve_parser.add_argument(
        "--executor",
        default="process",
        help=(
            "campaign executor jobs run under: one of "
            + "/".join(available_executors())
            + " or a custom registered name (default: process)"
        ),
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2, help="executor workers per job"
    )
    serve_parser.add_argument(
        "--pool-size", type=int, default=1, help="jobs run concurrently"
    )
    serve_parser.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help=(
            "backpressure: reject new submissions (HTTP 429) once this many "
            "jobs are queued (default: unbounded)"
        ),
    )
    serve_parser.set_defaults(func=cmd_serve)

    cache_parser = subparsers.add_parser(
        "cache", help="manage the shared result cache of a serve data dir"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    gc_parser = cache_sub.add_parser(
        "gc", help="expire old cache entries and/or cap the entry count"
    )
    gc_parser.add_argument(
        "--data-dir",
        default="serve-data",
        help="service state directory holding the cache (default: ./serve-data)",
    )
    gc_parser.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="remove entries older than this many seconds",
    )
    gc_parser.add_argument(
        "--max-entries",
        type=int,
        default=None,
        help="keep at most this many entries (oldest removed first)",
    )
    _add_output_arguments(gc_parser)
    gc_parser.set_defaults(func=cmd_cache_gc)

    submit_parser = subparsers.add_parser(
        "submit", help="queue a campaign on a running 'repro serve' instance"
    )
    submit_parser.add_argument(
        "campaign",
        help=(
            "sweep JSON file (base + axes), scenario JSON file, or "
            "registered scenario name"
        ),
    )
    submit_parser.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="service URL (default: http://127.0.0.1:8080)",
    )
    submit_parser.add_argument(
        "--solver",
        choices=("fdm", "ice"),
        default=None,
        help="simulator family override (single-scenario submissions)",
    )
    submit_parser.add_argument(
        "--optimize",
        action="store_true",
        help="run the Sec. IV design flow instead of simulating",
    )
    submit_parser.add_argument(
        "--fresh",
        action="store_true",
        help=(
            "force a new job even if an identical one exists (typically "
            "served from the shared result cache without solving)"
        ),
    )
    submit_parser.add_argument(
        "--wait",
        action="store_true",
        help="poll until the job finishes and report its summary",
    )
    submit_parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="--wait timeout in seconds (default: 600)",
    )
    _add_output_arguments(submit_parser)
    submit_parser.set_defaults(func=cmd_submit)

    jobs_parser = subparsers.add_parser(
        "jobs", help="inspect the jobs of a running 'repro serve' instance"
    )
    jobs_parser.add_argument(
        "job_id", nargs="?", default=None, help="job id (default: list all)"
    )
    jobs_parser.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="service URL (default: http://127.0.0.1:8080)",
    )
    jobs_parser.add_argument(
        "--records",
        action="store_true",
        help="dump the job's stored records as NDJSON (requires a job id)",
    )
    _add_output_arguments(jobs_parser)
    jobs_parser.set_defaults(func=cmd_jobs)

    bench_parser = subparsers.add_parser(
        "bench", help="repeated runs: wall times and cache statistics"
    )
    _add_scenario_argument(bench_parser)
    bench_parser.add_argument(
        "--solver", choices=("fdm", "ice"), default=None
    )
    bench_parser.add_argument("--repeat", type=int, default=3)
    _add_backend_argument(bench_parser)
    _add_output_arguments(bench_parser)
    bench_parser.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `repro run ... | head`
        return 0
    except (ValueError, OSError) as error:
        # User-input problems surface as ValueError (spec validation,
        # unknown names, bad JSON) or OSError (unreadable/unwritable
        # files); anything else is a bug and should show its traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
