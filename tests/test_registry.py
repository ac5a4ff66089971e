"""Tests of the one name registry and the five families built on it."""

from __future__ import annotations

import sys
import threading
from collections.abc import Mapping

import pytest

from repro.api import get_simulator
from repro.core.registry import Registry
from repro.exec import get_executor
from repro.policies import get_policy_factory
from repro.scenarios import SCENARIOS, get_scenario
from repro.thermal.backends import get_backend


@pytest.fixture()
def registry():
    return Registry("widget", {"builtin": 1, "lazy-builtin": "json:dumps"})


class TestRegistration:
    def test_insertion_order_and_snapshot(self, registry):
        registry.register("zeta", 2)
        registry.register("alpha", 3)
        names = registry.names()
        assert names == ["builtin", "lazy-builtin", "zeta", "alpha"]
        names.append("mutated")
        assert "mutated" not in registry

    def test_sorted_listing(self):
        registry = Registry("widget", {"b": 1}, sort=True)
        registry.register("a", 2)
        assert registry.names() == ["a", "b"]
        assert list(registry) == ["a", "b"]

    def test_overwrite_guard(self, registry):
        with pytest.raises(ValueError, match="widget 'builtin' is already registered"):
            registry.register("builtin", 5)
        assert registry.register("builtin", 5, overwrite=True) == 5
        assert registry.lookup("builtin") == 5

    @pytest.mark.parametrize("name", ["", None, 3])
    def test_name_must_be_a_non_empty_string(self, registry, name):
        with pytest.raises(ValueError, match="non-empty string"):
            registry.register(name, 1)


class TestLookup:
    def test_unknown_name_lists_the_registered_ones(self, registry):
        with pytest.raises(
            ValueError, match="unknown widget 'nope'; registered widgets: builtin, "
        ):
            registry.lookup("nope")

    def test_plural(self):
        registry = Registry("flow policy", plural="flow policies")
        with pytest.raises(ValueError, match="registered flow policies: $"):
            registry.lookup("nope")

    def test_lazy_reference_resolves_once_and_caches(self, registry):
        import json

        assert registry.lookup("lazy-builtin") is json.dumps
        assert registry._entries["lazy-builtin"] is json.dumps

    def test_dotted_reference(self, registry):
        import json

        registry.register("dotted", "json.loads")
        assert registry.lookup("dotted") is json.loads

    @pytest.mark.parametrize(
        "reference, message",
        [
            ("no_such_module_xyz:thing", "cannot import"),
            ("json:no_such_thing", "no attribute"),
            ("nothing-to-split", "not a 'module:attr' reference"),
        ],
    )
    def test_bad_references_fail_at_lookup(self, registry, reference, message):
        registry.register("bad", reference)
        with pytest.raises(ValueError, match=f"widget 'bad': .*{message}"):
            registry.lookup("bad")
        assert registry._entries["bad"] == reference

    def test_resolution_does_not_clobber_a_re_registration(
        self, registry, monkeypatch
    ):
        """A name re-registered while its old reference imports keeps the new value."""
        from repro.core import registry as registry_module

        def import_while_re_registered(path, context):
            registry.register("racy", "pkg:replacement", overwrite=True)
            return "resolved"

        monkeypatch.setattr(
            registry_module, "_import_attribute", import_while_re_registered
        )
        registry.register("racy", "pkg:original")
        assert registry.lookup("racy") == "resolved"
        assert registry._entries["racy"] == "pkg:replacement"


class TestUnregister:
    def test_removes_a_custom_name(self, registry):
        registry.register("custom", 1)
        registry.unregister("custom")
        assert "custom" not in registry
        with pytest.raises(ValueError, match="unknown widget 'custom'"):
            registry.unregister("custom")

    def test_builtins_stay(self, registry):
        registry.register("builtin", 9, overwrite=True)
        with pytest.raises(ValueError, match="cannot be unregistered"):
            registry.unregister("builtin")
        assert registry.lookup("builtin") == 9


class TestMappingProtocol:
    def test_reads_as_a_mapping(self, registry):
        assert isinstance(registry, Mapping)
        assert len(registry) == 2
        assert "builtin" in registry
        assert registry["builtin"] == 1
        assert registry.get("missing") is None
        with pytest.raises(KeyError):
            registry["missing"]

    def test_contains_does_not_import(self, registry):
        registry.register("broken", "no_such_module_xyz:thing")
        assert "broken" in registry

    def test_scenarios_iterate_in_registration_order(self):
        assert list(SCENARIOS)[:2] == ["test-a", "test-b"]
        assert [spec.name for spec in SCENARIOS.values()] == list(SCENARIOS)


class TestThreadSafety:
    def test_concurrent_registration_has_one_winner_per_name(self):
        """Check-then-insert is atomic: racing registrations never both succeed."""
        registry = Registry("widget")
        n_threads, n_names = 8, 300
        winners = [[] for _ in range(n_threads)]

        def race(offset):
            for index in range(n_names):
                try:
                    registry.register(f"w{index}", offset)
                except ValueError:
                    continue
                winners[offset].append(f"w{index}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=race, args=(offset,))
                for offset in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        won = [name for names in winners for name in names]
        assert sorted(won) == sorted(registry.names())
        for offset, names in enumerate(winners):
            assert all(registry.lookup(name) == offset for name in names)


class TestFamiliesShareOneErrorType:
    @pytest.mark.parametrize(
        "lookup, fragment",
        [
            (get_backend, "unknown solver backend 'nope'; registered solver backends: "),
            (get_simulator, "unknown simulator 'nope'; registered simulators: fdm, ice"),
            (get_executor, "unknown executor 'nope'; registered executors: serial, "),
            (get_policy_factory, "unknown flow policy 'nope'; registered flow policies: "),
            (get_scenario, "unknown scenario 'nope'; registered scenarios: test-a, "),
        ],
    )
    def test_unknown_names_raise_value_error(self, lookup, fragment):
        with pytest.raises(ValueError) as error:
            lookup("nope")
        assert str(error.value).startswith(fragment)
