"""Tests of the bounded LRU that every solve-stack cache is built on."""

from __future__ import annotations

import threading

import pytest

from repro.core.engine import EvaluationEngine
from repro.core.lru import BoundedLRU
from repro.core.linear_system import pattern_cache_info
from repro.ice import base_cache_info
from repro.thermal.backends import SparseLUBackend

STATS_KEYS = {"size", "capacity", "n_hits", "n_misses", "n_evictions"}


def tagged(tag, builds):
    def build():
        builds.append(tag)
        return tag

    return build


class TestBoundedLRU:
    def test_hits_build_once_and_evict_least_recent(self):
        cache = BoundedLRU(2)
        builds = []
        assert cache.get_or_build("a", tagged("a", builds)) == ("a", True)
        assert cache.get_or_build("a", tagged("a2", builds)) == ("a", False)
        assert builds == ["a"]
        cache.get_or_build("b", tagged("b", builds))
        cache.get("a")  # refreshes "a", so "b" is the least recent
        cache.get_or_build("c", tagged("c", builds))  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == "a"
        assert cache.values() == ["c", "a"]
        assert cache.stats() == {
            "size": 2,
            "capacity": 2,
            "n_hits": 3,
            "n_misses": 3,
            "n_evictions": 1,
        }

    def test_get_counts_hits_but_not_misses(self):
        cache = BoundedLRU(1)
        assert cache.get("absent", "fallback") == "fallback"
        assert cache.stats()["n_misses"] == 0

    def test_capacity_zero_keeps_nothing(self):
        cache = BoundedLRU(0)
        builds = []
        for _ in range(3):
            assert cache.get_or_build("k", tagged("k", builds)) == ("k", True)
        assert builds == ["k", "k", "k"]
        assert cache.stats() == {
            "size": 0,
            "capacity": 0,
            "n_hits": 0,
            "n_misses": 3,
            "n_evictions": 0,
        }

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            BoundedLRU(-1)

    def test_none_values_are_cached(self):
        cache = BoundedLRU(2)
        builds = []
        assert cache.get_or_build("k", lambda: builds.append("k")) == (None, True)
        assert cache.get_or_build("k", lambda: builds.append("k")) == (None, False)
        assert builds == ["k"]
        assert cache.stats()["n_hits"] == 1

    def test_first_insertion_wins_when_factories_race(self):
        cache = BoundedLRU(4)
        both_building = threading.Barrier(2)
        first, second = object(), object()

        def factory(value):
            def build():
                both_building.wait(timeout=10)
                return value

            return build

        results = {}

        def racer(name, value):
            results[name] = cache.get_or_build("k", factory(value))

        threads = [
            threading.Thread(target=racer, args=("first", first)),
            threading.Thread(target=racer, args=("second", second)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        (value_a, built_a), (value_b, built_b) = results.values()
        assert value_a is value_b
        assert sorted([built_a, built_b]) == [False, True]
        assert cache.get("k") is value_a
        stats = cache.stats()
        assert stats["n_misses"] == 2 and stats["size"] == 1

    def test_clear_and_reset_stats_are_independent(self):
        cache = BoundedLRU(2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("a", lambda: 1)
        cache.reset_stats()
        assert cache.stats()["size"] == 1 and cache.stats()["n_hits"] == 0
        cache.get_or_build("a", lambda: 1)
        cache.clear()
        assert cache.stats()["size"] == 0 and cache.stats()["n_hits"] == 1


class TestSolveStackCaches:
    def test_every_cache_reports_the_same_stats_keys(self):
        caches = [
            EvaluationEngine()._cache,
            SparseLUBackend()._factorizations,
            SparseLUBackend()._plans,
        ]
        for cache in caches:
            assert isinstance(cache, BoundedLRU)
            assert set(cache.stats()) == STATS_KEYS
        assert set(pattern_cache_info()) == STATS_KEYS
        assert set(base_cache_info()) == STATS_KEYS
