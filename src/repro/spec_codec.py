"""One codec for the frozen spec dataclasses.

Every experiment is a frozen spec (:mod:`repro.scenarios`,
:mod:`repro.transient`, :mod:`repro.sweeps`), and a spec's canonical
plain-data form is the resume key of every campaign store, result cache
and served job.  This module owns the rules all specs share:

* the plain-data walk (:func:`plain`): a nested spec becomes its dict,
  tuples become lists and mapping keys become strings;
* the frozen-form rule: every field serializes unconditionally, except
  the fields added after the spec-hash freeze.  Those are declared once,
  with :func:`late_field`, and are omitted while they hold their default,
  so specs written before a field existed keep their hashes;
* construction-time coercion (:func:`coerce`), driven by each field's
  annotation: numbers are converted and must be finite, integers must be
  integral, booleans must be booleans, strings must be strings, nested
  specs are accepted as instances or as mappings, and every error names
  the dotted field;
* :func:`content_hash`, the sha256 over canonical JSON that every resume
  key is.

A spec class derives from :class:`Spec` with its section name
(``class GridSpec(Spec, section="grid")``), calls :func:`coerce` first in
its ``__post_init__`` and inherits ``to_dict``/``from_dict`` and their
JSON and file twins.  A field whose coercion or plain form is not the
one its annotation implies (``ScenarioSpec.params`` and ``design``,
``SweepSpec.base`` and ``overrides``) declares its own decoder, and
encoder if needed, with :func:`coded_field`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections.abc import Mapping
from dataclasses import MISSING, field, fields
from typing import (
    Callable,
    Dict,
    FrozenSet,
    NamedTuple,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

import numpy as np

__all__ = [
    "Spec",
    "coded_field",
    "coerce",
    "content_hash",
    "finite_float",
    "late_field",
    "plain",
]

#: ``decode(value, dotted_path) -> coerced value``
Decoder = Callable[[object, str], object]

#: ``encode(value) -> plain data``; ``None`` is the identity.
Encoder = Optional[Callable[[object], object]]

_SCALARS = (str, float, int, bool, type(None))


def content_hash(payload) -> str:
    """sha256 over the canonical (sorted, compact) JSON form of ``payload``."""
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def plain(value, path: Optional[str] = None):
    """The plain-data (JSON-compatible) form of ``value``.

    Specs become their :meth:`Spec.to_dict`, tuples become lists and
    mapping keys become strings, so a value written in Python compares,
    serializes and hashes like the same value loaded from JSON.  With a
    ``path``, non-finite floats are rejected with an error naming it.
    """
    if path is not None and isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{path} must be finite, got {value}")
    if type(value) in _SCALARS:
        return value
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [
            plain(item, None if path is None else f"{path}[{index}]")
            for index, item in enumerate(value)
        ]
    if isinstance(value, Mapping):
        return {
            str(key): plain(item, None if path is None else f"{path}.{key}")
            for key, item in value.items()
        }
    return value


def late_field(default):
    """A field added after the spec-hash freeze: omitted while at ``default``."""
    return field(default=default, metadata={"late": True})


def coded_field(decode: Decoder, encode: Callable = plain, default=MISSING):
    """A field with its own decoder and plain-data encoder."""
    return field(default=default, metadata={"decode": decode, "encode": encode})


# -- per-annotation decoders and encoders ------------------------------------


def finite_float(value, path: str) -> float:
    """``float(value)``, rejecting non-numbers and non-finite values."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{path} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{path} must be finite, got {number}")
    return number


def _integer(value, path: str) -> int:
    """Integers and integral floats (``40.0``); never a truncated ``241.9``.

    Booleans are refused although ``bool`` subclasses ``int``: ``True`` is
    a mistyped field, not one lane (``numpy.bool_`` is neither an integer
    nor a float, so it is refused too).
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{path} must be an integer, got {value!r}")


def _boolean(value, path: str) -> bool:
    """Booleans only: a truthy ``"false"`` is an error, not ``True``."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValueError(f"{path} must be a boolean, got {value!r}")


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{path} must be a string, got {value!r}")
    return value


def _optional(decode: Decoder, encode: Encoder) -> Tuple[Decoder, Encoder]:
    def decode_optional(value, path: str):
        return None if value is None else decode(value, path)

    if encode is None:
        return decode_optional, None
    return decode_optional, lambda value: None if value is None else encode(value)


def _sequence(decode: Decoder, encode: Encoder) -> Tuple[Decoder, Encoder]:
    def decode_sequence(value, path: str) -> tuple:
        try:
            items = tuple(value)
        except TypeError:
            raise ValueError(
                f"{path} must be a sequence, got {type(value).__name__}"
            ) from None
        return tuple(decode(item, f"{path}[{index}]") for index, item in enumerate(items))

    if encode is None:
        return decode_sequence, list
    return decode_sequence, lambda value: [encode(item) for item in value]


def _nested(cls) -> Tuple[Decoder, Encoder]:
    def decode_nested(value, path: str):
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(value, path)
        raise ValueError(
            f"{path} must be a {cls.__name__} (or mapping), "
            f"got {type(value).__name__}"
        )

    return decode_nested, cls.to_dict


_SCALAR_CODECS: Dict[object, Tuple[Decoder, Encoder]] = {
    float: (finite_float, None),
    int: (_integer, None),
    str: (_string, None),
    bool: (_boolean, None),
    object: (plain, plain),
}


def _codec(hint) -> Tuple[Decoder, Encoder]:
    """The ``(decoder, encoder)`` pair of a field annotation."""
    if hint in _SCALAR_CODECS:
        return _SCALAR_CODECS[hint]
    if isinstance(hint, type) and issubclass(hint, Spec):
        return _nested(hint)
    args = get_args(hint)
    if get_origin(hint) is Union:  # Optional[X]
        (inner,) = [arg for arg in args if arg is not type(None)]
        return _optional(*_codec(inner))
    # Tuple[X, ...] or a fixed-length Tuple[X, X]: homogeneous items.
    if get_origin(hint) is tuple and {arg for arg in args if arg is not Ellipsis} == {args[0]}:
        return _sequence(*_codec(args[0]))
    raise TypeError(f"the spec codec has no decoder for {hint!r}")


# -- per-class field tables --------------------------------------------------


class _Table(NamedTuple):
    names: FrozenSet[str]
    required: Tuple[str, ...]
    #: ``(name, dotted path, decoder)`` per field
    decoders: Tuple[Tuple[str, str, Decoder], ...]
    #: ``(name, is late, default, encoder)`` per field
    encoders: Tuple[Tuple[str, bool, object, Encoder], ...]


_TABLES: Dict[type, _Table] = {}


def _table(cls) -> _Table:
    """The codec's field table of a spec class (built on first use)."""
    table = _TABLES.get(cls)
    if table is not None:
        return table
    hints = get_type_hints(cls)
    decoders, encoders = [], []
    for spec_field in fields(cls):
        name, metadata = spec_field.name, spec_field.metadata
        if "decode" in metadata:
            decode, encode = metadata["decode"], metadata["encode"]
        else:
            decode, encode = _codec(hints[name])
        decoders.append((name, f"{cls.section}.{name}", decode))
        encoders.append((name, metadata.get("late", False), spec_field.default, encode))
    table = _TABLES[cls] = _Table(
        names=frozenset(name for name, _, _ in decoders),
        required=tuple(
            spec_field.name for spec_field in fields(cls) if spec_field.default is MISSING
        ),
        decoders=tuple(decoders),
        encoders=tuple(encoders),
    )
    return table


def coerce(spec: "Spec") -> None:
    """Decode every field of ``spec`` in place; call first in ``__post_init__``."""
    values = vars(spec)  # frozen dataclasses refuse setattr
    for name, path, decode in _table(type(spec)).decoders:
        values[name] = decode(values[name], path)


class Spec:
    """Base of the frozen spec dataclasses: the codec's serialization methods.

    Subclasses name their section (the prefix of their error messages)
    with ``class WorkloadSpec(Spec, section="workload")``.
    """

    section = ""

    def __init_subclass__(cls, section: str = "", **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.section = section

    def to_dict(self) -> Dict[str, object]:
        """Plain-data (JSON-compatible) form; late fields at their default are omitted."""
        data = {}
        for name, late, default, encode in _table(type(self)).encoders:
            value = getattr(self, name)
            if late and value == default:
                continue
            data[name] = value if encode is None else encode(value)
        return data

    @classmethod
    def from_dict(cls, data: Mapping, path: Optional[str] = None):
        """Rebuild a spec from :meth:`to_dict` output (with validation).

        ``path`` names the spec in error messages (the class's section by
        default; the dotted field when the spec is nested).
        """
        path = path or cls.section
        if not isinstance(data, Mapping):
            raise ValueError(f"{path} must be a mapping, got {type(data).__name__}")
        table = _table(cls)
        unknown = sorted(set(data) - table.names)
        if unknown:
            raise ValueError(
                f"{path}: unknown field(s) {unknown}; allowed fields are "
                f"{sorted(table.names)}"
            )
        for name in table.required:
            if name not in data:
                raise ValueError(f"{path}: the {name!r} field is required")
        return cls(**data)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON form of :meth:`to_dict` (sorted keys)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str):
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, os.PathLike]) -> None:
        """Write the spec to a JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: Union[str, os.PathLike]):
        """Read a spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())
