"""The one name registry behind every pluggable family.

Solver backends, simulator families, campaign executors, flow policies and
named scenarios are each a :class:`Registry`, so they share one overwrite
guard, one lazy ``"module:attr"`` resolution rule, one lock and one
``ValueError`` for unknown names.
"""

from __future__ import annotations

import importlib
import threading
from collections.abc import Mapping
from typing import Dict, Iterator, List, Optional

__all__ = ["Registry"]

_MISSING = object()


def _import_attribute(path: str, context: str):
    """Resolve a lazy ``"module:attr"`` (or ``"module.attr"``) reference."""
    if ":" in path:
        module_name, _, attribute = path.partition(":")
    else:
        module_name, _, attribute = path.rpartition(".")
    if not module_name or not attribute:
        raise ValueError(f"{context}: {path!r} is not a 'module:attr' reference")
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise ValueError(
            f"{context}: cannot import module {module_name!r} ({error})"
        ) from None
    try:
        return getattr(module, attribute)
    except AttributeError:
        raise ValueError(
            f"{context}: module {module_name!r} has no attribute {attribute!r}"
        ) from None


class Registry(Mapping):
    """Thread-safe ``name -> value`` table of one family, in insertion order.

    A ``str`` value is a lazy ``"module:attr"`` reference: registering it
    never imports, so plugins register in any order (and the reference
    ships cleanly to worker processes).  The first lookup imports it and
    caches the result, unless the name was re-registered meanwhile.

    The entries given at construction are the family's built-ins: they
    can be replaced with ``overwrite=True`` but never unregistered.
    :meth:`names` lists sorted when ``sort`` is set, else in insertion
    order, and the mapping protocol follows it.  ``registry[name]`` raises
    ``KeyError`` like any mapping; :meth:`lookup` raises the family's
    ``ValueError`` listing the registered names.
    """

    def __init__(
        self,
        kind: str,
        builtins: Optional[Dict[str, object]] = None,
        *,
        plural: Optional[str] = None,
        sort: bool = False,
    ) -> None:
        self.kind = kind
        self.plural = plural or f"{kind}s"
        self.sort = sort
        self._entries: Dict[str, object] = dict(builtins or {})
        self._builtins = frozenset(self._entries)
        self._lock = threading.Lock()

    def register(self, name: str, value, overwrite: bool = False):
        """Add ``value`` under ``name`` (refusing silent overwrites)."""
        if not isinstance(name, str) or not name:
            raise ValueError(
                f"{self.kind} name must be a non-empty string, got {name!r}"
            )
        with self._lock:
            if name in self._entries and not overwrite:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered; "
                    "pass overwrite=True to replace it"
                )
            self._entries[name] = value
        return value

    def unregister(self, name: str) -> None:
        """Remove a registered name (built-ins cannot be removed)."""
        if name in self._builtins:
            raise ValueError(
                f"the built-in {self.kind} {name!r} cannot be unregistered"
            )
        with self._lock:
            removed = self._entries.pop(name, _MISSING)
        if removed is _MISSING:
            raise self._unknown(name)

    def lookup(self, name: str):
        """The value registered under ``name`` (``ValueError`` when unknown)."""
        with self._lock:
            value = self._entries.get(name, _MISSING)
        if value is _MISSING:
            raise self._unknown(name)
        return self._resolved(name, value)

    def names(self) -> List[str]:
        """A snapshot of the registered names in listing order."""
        with self._lock:
            names = list(self._entries)
        return sorted(names) if self.sort else names

    def __getitem__(self, name: str):
        with self._lock:
            value = self._entries[name]
        return self._resolved(name, value)

    def __contains__(self, name) -> bool:
        with self._lock:
            return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _resolved(self, name: str, value):
        if not isinstance(value, str):
            return value
        resolved = _import_attribute(value, context=f"{self.kind} {name!r}")
        with self._lock:
            if self._entries.get(name) == value:
                self._entries[name] = resolved
        return resolved

    def _unknown(self, name) -> ValueError:
        return ValueError(
            f"unknown {self.kind} {name!r}; registered {self.plural}: "
            f"{', '.join(self.names())}"
        )
