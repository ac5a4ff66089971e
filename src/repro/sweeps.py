"""Declarative sweep specifications -- families of scenarios as one value.

The paper's headline results are not single runs but *families* of runs:
flux sweeps (Fig. 4), architecture comparisons (Fig. 7), design-space
explorations.  A :class:`SweepSpec` describes such a family declaratively
-- one base :class:`~repro.scenarios.ScenarioSpec` plus *axes* that vary
any spec field -- and expands deterministically into an ordered list of
named scenarios that the executor layer (:mod:`repro.exec`) can run
serially, over threads, or over worker processes.

Three expansion shapes are supported, mirroring common experiment designs:

* ``mode="grid"`` (default) -- the cartesian product of the axes, last
  axis fastest (row-major, like :func:`itertools.product`);
* ``mode="zip"`` -- axes advance in lockstep (all must share one length);
* ``overrides`` -- an explicit list of override mappings; when axes are
  also present every axis combination is crossed with every override.

Axis fields are dotted paths into the scenario dictionary
(:meth:`ScenarioSpec.to_dict`): ``"workload.flux_w_per_cm2"``,
``"workload.architecture"``, ``"grid.n_grid_points"``,
``"solver.backend"``, ``"optimizer.multistart"``,
``"params.flow_rate_per_channel"`` and so on.  Every expanded scenario is
rebuilt through :meth:`ScenarioSpec.from_dict`, so spec validation applies
to each point of the sweep, and expansion is pure: the same sweep always
produces the same scenarios with the same names.

Like scenarios, sweeps round-trip losslessly through JSON
(:meth:`SweepSpec.to_json` / :meth:`SweepSpec.from_json`), so a whole
campaign can live in one checked-in file::

    {
      "name": "flux-arch",
      "base": "niagara-arch1",
      "axes": [
        {"field": "workload.flux_w_per_cm2", "values": [50, 100, 150]},
        {"field": "workload.architecture", "values": ["arch1", "arch2"]}
      ]
    }

Example::

    from repro.sweeps import SweepAxis, SweepSpec
    from repro.scenarios import get_scenario

    sweep = SweepSpec(
        name="flux",
        base=get_scenario("test-a"),
        axes=(SweepAxis("workload.flux_w_per_cm2", (50.0, 100.0)),),
    )
    specs = sweep.scenarios()        # 2 ScenarioSpecs, deterministic names
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .scenarios import ScenarioSpec, resolve_scenario
from .spec_codec import Spec, coded_field, coerce, late_field, plain

__all__ = [
    "SweepAxis",
    "SweepSpec",
    "apply_field_overrides",
    "expand_scenarios",
    "is_sweep_mapping",
    "load_campaign",
    "read_campaign_file",
    "resolve_campaign",
]

#: Expansion modes a sweep can request.
SWEEP_MODES: Tuple[str, ...] = ("grid", "zip")

#: Maximum length of the human-readable slug in expanded scenario names.
_MAX_SLUG = 72


def _format_value(value) -> Optional[str]:
    """Compact rendering of an axis value for scenario names, or None."""
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, (int, float)):
        return format(value, "g")
    if isinstance(value, str) and value:
        return value.replace("/", "-").replace(" ", "-")
    return None


def _assign(data: Dict[str, object], dotted: str, value) -> None:
    """Set a dotted-path field inside a scenario dictionary in place."""
    parts = dotted.split(".")
    node = data
    for part in parts[:-1]:
        child = node.get(part)
        if not isinstance(child, dict):
            raise ValueError(
                f"sweep field {dotted!r}: {part!r} is not a section of a "
                f"scenario (sections: {sorted(k for k, v in data.items() if isinstance(v, dict))})"
            )
        node = child
    node[parts[-1]] = value


def apply_field_overrides(
    base: ScenarioSpec,
    overrides: Mapping[str, object],
    name: Optional[str] = None,
    description: Optional[str] = None,
) -> ScenarioSpec:
    """Rebuild ``base`` with dotted-path field overrides applied.

    Overrides go through the plain-data representation and back through
    :meth:`ScenarioSpec.from_dict`, so every expanded point is validated
    exactly like a hand-written spec (unknown fields, range errors and
    inconsistent sections are rejected with the scenarios' own messages).
    """
    data = base.to_dict()
    for field, value in overrides.items():
        _assign(data, field, value)
    if name is not None:
        data["name"] = name
    if description is not None:
        data["description"] = description
    return ScenarioSpec.from_dict(data)


def _decode_base(value, path: str) -> ScenarioSpec:
    """The base scenario from a spec, a registered name, a file or a mapping."""
    if isinstance(value, Mapping):
        return ScenarioSpec.from_dict(value, path)
    return resolve_scenario(value)


def _decode_overrides(value, path: str) -> Tuple[Tuple[Tuple[str, object], ...], ...]:
    """Override mappings (or pair sequences) as tuples of canonical pairs."""
    overrides = []
    for index, entry in enumerate(value):
        pairs = tuple(
            (str(key), plain(item, f"{path}[{index}].{key}"))
            for key, item in (entry.items() if isinstance(entry, Mapping) else entry)
        )
        if any(key == "name" for key, _ in pairs):
            raise ValueError(
                f"{path} must not set 'name': expanded "
                "scenarios are named deterministically by the sweep"
            )
        overrides.append(pairs)
    return tuple(overrides)


@dataclass(frozen=True)
class SweepAxis(Spec, section="axis"):
    """One varied spec field: a dotted path and the values it takes.

    Attributes
    ----------
    field:
        Dotted path into :meth:`ScenarioSpec.to_dict` (for example
        ``"workload.flux_w_per_cm2"`` or ``"solver.backend"``).
    values:
        The ordered values the field takes across the sweep, in their
        plain-data form (tuples become lists, mapping keys strings), so a
        value written in Python compares, serializes and round-trips like
        the same value loaded from a sweep JSON file.
    label:
        Optional short label used in expanded scenario names; defaults to
        the last path segment.  A late field: omitted while empty.
    """

    field: str
    values: Tuple[object, ...] = ()
    label: str = late_field("")

    def __post_init__(self) -> None:
        coerce(self)
        if not self.field:
            raise ValueError(
                f"axis.field must be a non-empty dotted path, got {self.field!r}"
            )
        if self.field == "name" or self.field.startswith("name."):
            raise ValueError(
                "axis.field must not be 'name': expanded scenarios are "
                "named deterministically by the sweep"
            )
        if not self.values:
            raise ValueError(f"axis {self.field!r} has no values")

    @property
    def display_label(self) -> str:
        """The label used in expanded scenario names."""
        return self.label or self.field.rsplit(".", 1)[-1]


@dataclass(frozen=True)
class SweepSpec(Spec, section="sweep"):
    """A family of scenarios: one base spec plus the axes that vary it.

    Attributes
    ----------
    name:
        Sweep name; expanded scenarios are named ``{name}/{index}-{slug}``.
    base:
        The :class:`ScenarioSpec` every expansion starts from (a registered
        scenario name or spec mapping is accepted at construction).
    axes:
        The varied fields (see :class:`SweepAxis`).
    mode:
        ``"grid"`` (cartesian product, last axis fastest) or ``"zip"``
        (lockstep; all axes must share one length).
    overrides:
        Optional explicit list of dotted-field override mappings; each
        axis combination is crossed with each override (override values
        win on shared fields).  With no axes, the overrides alone define
        the expansion.
    description:
        One-line human description of the campaign.

    The plain-data form (``to_dict``) is what sweep files and active-learning
    selections store; its fields are frozen like a scenario's.  Resume keys
    do not hash it: campaign stores and the serve queue's ``job_hash`` key
    on the task keys of the expanded scenarios.
    """

    name: str
    base: ScenarioSpec = coded_field(_decode_base)
    axes: Tuple[SweepAxis, ...] = ()
    mode: str = "grid"
    overrides: Tuple[Tuple[Tuple[str, object], ...], ...] = coded_field(
        _decode_overrides,
        encode=lambda overrides: [dict(pairs) for pairs in overrides],
        default=(),
    )
    description: str = ""

    def __post_init__(self) -> None:
        coerce(self)
        if not self.name:
            raise ValueError(f"sweep name must be a non-empty string, got {self.name!r}")
        fields = [axis.field for axis in self.axes]
        duplicates = sorted({field for field in fields if fields.count(field) > 1})
        if duplicates:
            raise ValueError(f"sweep.axes repeat field(s) {duplicates}")
        if self.mode not in SWEEP_MODES:
            raise ValueError(
                f"sweep.mode must be one of {list(SWEEP_MODES)}, got {self.mode!r}"
            )
        if self.mode == "zip" and self.axes:
            lengths = {len(axis.values) for axis in self.axes}
            if len(lengths) > 1:
                raise ValueError(
                    "sweep.mode 'zip' needs axes of equal length, got lengths "
                    f"{[len(axis.values) for axis in self.axes]}"
                )
        # Expanding eagerly surfaces bad fields/values at construction time
        # (each point runs through ScenarioSpec.from_dict validation)
        # instead of mid-campaign; the result is cached so later
        # scenarios() calls (CLI totals, run_many) pay nothing.
        object.__setattr__(self, "_expanded", tuple(self._expand()))

    # -- expansion ---------------------------------------------------------

    def _axis_combos(self) -> List[List[Tuple[str, object]]]:
        """Ordered (field, value) combinations produced by the axes."""
        if not self.axes:
            return [[]]
        per_axis = [
            [(axis.field, value) for value in axis.values] for axis in self.axes
        ]
        if self.mode == "zip":
            return [list(combo) for combo in zip(*per_axis)]
        return [list(combo) for combo in itertools.product(*per_axis)]

    @property
    def n_scenarios(self) -> int:
        """Number of scenarios the sweep expands into."""
        return len(self._expanded)

    def _slug(self, combo: Sequence[Tuple[str, object]], override_index: int) -> str:
        """Human-readable tail of an expanded scenario name."""
        labels = {axis.field: axis.display_label for axis in self.axes}
        parts = []
        for field, value in combo:
            rendered = _format_value(value)
            if rendered is not None:
                parts.append(f"{labels.get(field, field)}={rendered}")
        if len(self.overrides) > 1:
            parts.append(f"case{override_index}")
        slug = "_".join(parts)
        return slug[:_MAX_SLUG]

    def scenarios(self) -> List[ScenarioSpec]:
        """The ordered, named scenario specs this sweep expands into.

        Expansion is deterministic: grid mode walks the cartesian product
        with the last axis fastest, zip mode walks the axes in lockstep,
        and each combination is crossed with each explicit override (in
        list order).  Names are ``{sweep}/{index:03d}-{slug}``.  The
        expansion is computed once at construction and cached.
        """
        return list(self._expanded)

    def override_mappings(self) -> List[Dict[str, object]]:
        """The merged dotted-field overrides of each expansion point.

        One mapping per expanded scenario, aligned with :meth:`scenarios`
        (axis combination values first, explicit override values winning
        on shared fields).  This is the sweep's expansion *recipe* in
        plain data: ``SweepSpec(name, base, overrides=override_mappings())``
        reproduces the same points -- which is how
        :mod:`repro.ml.active` turns acquisition-selected candidates back
        into an ordinary, resumable campaign.
        """
        mappings: List[Dict[str, object]] = []
        overrides = [dict(pairs) for pairs in self.overrides] or [{}]
        for combo in self._axis_combos():
            for override in overrides:
                merged = dict(combo)
                merged.update(override)
                mappings.append(merged)
        return mappings

    def _expand(self) -> List[ScenarioSpec]:
        combos = self._axis_combos()
        n_overrides = len(self.overrides) or 1
        expanded: List[ScenarioSpec] = []
        for index, merged in enumerate(self.override_mappings()):
            combo = combos[index // n_overrides]
            override_index = index % n_overrides
            slug = self._slug(combo, override_index)
            name = f"{self.name}/{index:03d}" + (f"-{slug}" if slug else "")
            description = self.description or (
                f"{self.name} sweep point {index} over {self.base.name}"
            )
            expanded.append(
                apply_field_overrides(
                    self.base, merged, name=name, description=description
                )
            )
        return expanded

    def scenario_names(self) -> List[str]:
        """Names of the expanded scenarios, in expansion order."""
        return [spec.name for spec in self.scenarios()]


def is_sweep_mapping(data) -> bool:
    """True when a mapping looks like a sweep (has a ``base`` section)."""
    return isinstance(data, Mapping) and "base" in data


def read_campaign_file(path: Union[str, os.PathLike]) -> object:
    """The parsed JSON of a sweep or scenario file.

    Malformed JSON raises a ``ValueError`` that names the file.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError(f"{os.fspath(path)}: not valid JSON ({error})") from None


def load_campaign(source: Union[str, os.PathLike]) -> Union[SweepSpec, ScenarioSpec]:
    """A sweep or scenario from a JSON file path, else a registered scenario."""
    text = os.fspath(source)
    if not os.path.exists(text):
        return resolve_scenario(text)
    data = read_campaign_file(text)
    if is_sweep_mapping(data):
        return SweepSpec.from_dict(data)
    return ScenarioSpec.from_dict(data)


def resolve_campaign(sweep) -> Tuple[str, List[ScenarioSpec]]:
    """Campaign name + ordered scenario specs of anything campaign-shaped.

    Accepts a :class:`SweepSpec`, a sweep mapping (with a ``base`` key), a
    path to a sweep *or* scenario JSON file, a sequence of scenario-likes,
    or any single scenario-like accepted by
    :func:`~repro.scenarios.resolve_scenario` (spec, registered name,
    mapping) -- the latter expand to a one-scenario campaign.  The name is
    the sweep's name (wherever the sweep came from), the single scenario's
    name, or ``"campaign"`` for ad-hoc scenario sequences.
    """
    if is_sweep_mapping(sweep):
        sweep = SweepSpec.from_dict(sweep)
    elif isinstance(sweep, (str, os.PathLike)):
        sweep = load_campaign(sweep)
    if isinstance(sweep, SweepSpec):
        return sweep.name, sweep.scenarios()
    if isinstance(sweep, Sequence) and not isinstance(sweep, (str, bytes, Mapping)):
        return "campaign", [resolve_scenario(item) for item in sweep]
    spec = resolve_scenario(sweep)
    return spec.name, [spec]


def expand_scenarios(sweep) -> List[ScenarioSpec]:
    """The ordered scenario specs of anything campaign-shaped.

    See :func:`resolve_campaign` for the accepted shapes.
    """
    return resolve_campaign(sweep)[1]
