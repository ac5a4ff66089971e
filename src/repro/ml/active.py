"""Active learning: pick the next campaign points a surrogate is unsure of.

An acquisition function scores candidate scenarios from a surrogate's
predictive mean and std; :func:`select_batch` takes the top-scoring
points of a candidate :class:`~repro.sweeps.SweepSpec` and re-emits them
as a *new* sweep of explicit override points (via
:meth:`SweepSpec.override_mappings`).  That sweep runs through the
ordinary :meth:`Session.run_many` machinery -- so an active-learning
round is just another resumable campaign: it streams into the same
store, can be interrupted and resumed, and the next ``repro ml fit``
picks its records up automatically.  Nothing in the execution path knows
it was chosen by a model.

Three acquisitions are provided, all phrased for **minimization** of the
target metric (the paper's co-design loop minimizes peak temperature):

``"max_variance"``
    Pure exploration: score = predictive std.  The right default for
    shrinking a surrogate's global uncertainty.
``"ucb"``
    Exploration/exploitation blend: score = kappa*std - mean (the lower
    confidence bound, negated so larger is better).
``"ei"``
    Expected improvement over the best observed value: classic
    Bayesian-optimization exploitation with a closed Gaussian form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..exec.base import CampaignTask
from ..scenarios import ScenarioSpec
from ..spec_codec import content_hash
from ..sweeps import SweepSpec
from .models import Surrogate

__all__ = [
    "ACQUISITIONS",
    "ActiveSelection",
    "acquisition_scores",
    "candidate_keys",
    "physical_key",
    "select_batch",
]

#: Registered acquisition function names.
ACQUISITIONS: Tuple[str, ...] = ("max_variance", "ucb", "ei")


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)


def acquisition_scores(
    name: str,
    mean: np.ndarray,
    std: np.ndarray,
    best: Optional[float] = None,
    kappa: float = 2.0,
) -> np.ndarray:
    """Score candidates; larger means "run this one next".

    Parameters
    ----------
    name:
        One of :data:`ACQUISITIONS`.
    mean / std:
        1-D predictive mean and std of *one* target over the candidates.
    best:
        Best (lowest) observed target value so far -- required by
        ``"ei"``, ignored by the others.
    kappa:
        Exploration weight of ``"ucb"``.
    """
    mean = np.asarray(mean, dtype=float).reshape(-1)
    std = np.asarray(std, dtype=float).reshape(-1)
    if mean.shape != std.shape:
        raise ValueError(
            f"mean and std must align, got shapes {mean.shape} and {std.shape}"
        )
    if name == "max_variance":
        return std.copy()
    if name == "ucb":
        return kappa * std - mean
    if name == "ei":
        if best is None:
            raise ValueError(
                "acquisition 'ei' needs best= (the lowest observed target "
                "value so far)"
            )
        # EI for minimization: E[max(best - Y, 0)] under Y ~ N(mean, std^2).
        safe_std = np.where(std > 0.0, std, 1.0)
        z = (best - mean) / safe_std
        ei = (best - mean) * _norm_cdf(z) + safe_std * _norm_pdf(z)
        return np.where(std > 0.0, ei, np.maximum(best - mean, 0.0))
    raise ValueError(
        f"unknown acquisition {name!r}; registered: {list(ACQUISITIONS)}"
    )


def candidate_keys(
    sweep: SweepSpec, action: str = "run", solver: Optional[str] = None
) -> Tuple[str, ...]:
    """The campaign resume keys of a candidate sweep's scenarios.

    These are exactly the ``spec_hash`` values a campaign over the sweep
    would write, so intersecting them with a store's keys tells which
    candidates already have exact labels.
    """
    return tuple(
        CampaignTask(index=i, spec=spec, action=action, solver=solver).key()
        for i, spec in enumerate(sweep.scenarios())
    )


def physical_key(
    spec: Union[ScenarioSpec, Mapping],
    action: str = "run",
    solver: Optional[str] = None,
) -> str:
    """Identity of a scenario's *physics*: the resume key minus naming.

    :meth:`CampaignTask.key` hashes the full spec, ``name`` and
    ``description`` included, so the same physical point expanded under
    two differently-named sweeps gets two different resume keys.  That
    is right for store resume (records belong to their campaign) but
    wrong for "has this point already been labelled?" -- which is what
    active-learning exclusion asks.  This hash drops the naming fields
    (exactly the ones :func:`~repro.ml.features.flatten_spec` excludes
    from features) and keeps everything that changes the solve.
    """
    if not isinstance(spec, ScenarioSpec):
        spec = ScenarioSpec.from_dict(spec)
    task = CampaignTask(index=0, spec=spec, action=action, solver=solver)
    data = spec.to_dict()
    data.pop("name", None)
    data.pop("description", None)
    return content_hash(
        {"spec": data, "action": action, "solver": task.effective_solver()}
    )


@dataclass(frozen=True)
class ActiveSelection:
    """Outcome of one acquisition pass over a candidate sweep.

    Attributes
    ----------
    sweep:
        The selected points as an explicit-overrides :class:`SweepSpec`
        (same base as the candidates) -- run it with
        :meth:`Session.run_many` like any other campaign.
    indices:
        Positions of the selected points in the candidate expansion.
    scores:
        Their acquisition scores, selection order (descending).
    acquisition / target:
        Which acquisition ranked them, on which target column.
    mean_std:
        Mean predictive std over *all* scored candidates -- refit after
        the round and compare to see the uncertainty shrink.
    n_candidates / n_excluded:
        How many points were scored and how many were skipped as already
        labelled.
    """

    sweep: SweepSpec
    indices: Tuple[int, ...]
    scores: Tuple[float, ...]
    acquisition: str
    target: str
    mean_std: float
    n_candidates: int
    n_excluded: int

    def to_dict(self) -> Dict[str, object]:
        """Plain-data summary (for CLI --json output and journals)."""
        return {
            "acquisition": self.acquisition,
            "target": self.target,
            "indices": list(self.indices),
            "scores": list(self.scores),
            "scenarios": self.sweep.scenario_names(),
            "mean_std": self.mean_std,
            "n_candidates": self.n_candidates,
            "n_excluded": self.n_excluded,
            "sweep": self.sweep.to_dict(),
        }


def select_batch(
    model: Surrogate,
    candidates: SweepSpec,
    n_points: int = 4,
    acquisition: str = "max_variance",
    target: Optional[str] = None,
    best: Optional[float] = None,
    kappa: float = 2.0,
    exclude: Sequence[Union[str, Mapping, ScenarioSpec]] = (),
    round_name: Optional[str] = None,
) -> ActiveSelection:
    """Pick the next batch of scenarios to run from a candidate sweep.

    Parameters
    ----------
    model:
        A fitted surrogate (its schema encodes the candidates).
    candidates:
        The candidate pool as a :class:`SweepSpec` (typically a denser
        grid over the same axes the training campaign swept).
    n_points:
        Batch size; fewer are returned when the pool is smaller.
    acquisition / best / kappa:
        See :func:`acquisition_scores`.  ``best`` defaults to the lowest
        predicted mean over the candidates when ``"ei"`` is used without
        an observed incumbent.
    target:
        Which model target to score on (default: the model's first).
    exclude:
        Points that already have exact labels and must not be re-run.
        Entries may be resume-key strings (matched against
        :func:`candidate_keys`, i.e. same-sweep naming) or spec
        mappings/:class:`ScenarioSpec` (matched by :func:`physical_key`,
        so labels from a *differently named* training sweep still
        exclude the same physical point -- pass ``dataset.specs``).
    round_name:
        Name of the emitted sweep (default ``"<candidates.name>-active"``).

    The returned sweep reproduces the selected points as explicit
    override mappings over the same base spec, so running it is an
    ordinary resumable campaign.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    if target is None:
        target = model.targets[0]
    if target not in model.targets:
        raise ValueError(
            f"model has no target {target!r}; it predicts {list(model.targets)}"
        )
    target_index = list(model.targets).index(target)
    specs = candidates.scenarios()
    mappings = candidates.override_mappings()
    keys = candidate_keys(candidates)
    excluded: Set[str] = set()
    excluded_physical: Set[str] = set()
    for entry in exclude:
        if isinstance(entry, str):
            excluded.add(entry)
        else:
            excluded_physical.add(physical_key(entry))
    if excluded_physical:
        physical = [physical_key(spec) for spec in specs]
    else:
        physical = [""] * len(specs)
    live = [
        i
        for i, key in enumerate(keys)
        if key not in excluded and physical[i] not in excluded_physical
    ]
    if not live:
        raise ValueError(
            "every candidate point is excluded (already labelled?); widen "
            "the candidate sweep"
        )
    mean, std = model.predict_specs([specs[i] for i in live])
    mean_t = mean[:, target_index]
    std_t = std[:, target_index]
    if acquisition == "ei" and best is None:
        best = float(mean_t.min())
    scores = acquisition_scores(
        acquisition, mean_t, std_t, best=best, kappa=kappa
    )
    order = np.argsort(-scores, kind="stable")[: min(n_points, len(live))]
    chosen = [live[int(i)] for i in order]
    sweep = SweepSpec(
        name=round_name or f"{candidates.name}-active",
        base=candidates.base,
        overrides=tuple(
            tuple(sorted(mappings[i].items())) for i in chosen
        ),
        description=(
            f"active-learning batch ({acquisition} on {target}) from "
            f"{candidates.name}"
        ),
    )
    return ActiveSelection(
        sweep=sweep,
        indices=tuple(chosen),
        scores=tuple(float(scores[int(i)]) for i in order),
        acquisition=acquisition,
        target=target,
        mean_std=float(std_t.mean()),
        n_candidates=len(live),
        n_excluded=len(keys) - len(live),
    )
