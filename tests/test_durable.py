"""Tests of the durable-file primitives (repro.durable) and their users."""

from __future__ import annotations

import json
import os

import pytest

from repro.durable import _TAIL_BLOCK, atomic_write, open_append, scan_jsonl
from repro.serve.cache import ResultCache


def leftover_temp_files(directory):
    return [name for name in os.listdir(directory) if name.startswith(".tmp-")]


def failing_replace(monkeypatch):
    def replace(src, dst):
        raise OSError("disk detached")

    monkeypatch.setattr(os, "replace", replace)


class TestAtomicWrite:
    def test_failed_replace_keeps_old_content_and_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "f.json"
        atomic_write(str(path), b"old\n")
        failing_replace(monkeypatch)
        with pytest.raises(OSError, match="disk detached"):
            atomic_write(str(path), b"new\n")
        assert path.read_bytes() == b"old\n"
        assert leftover_temp_files(tmp_path) == []

    def test_failed_cache_put_keeps_the_entry(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        key = "ab" * 32
        record = {"spec_hash": key, "status": "ok", "result": {"peak": 1.0}}
        cache.put(key, record)
        before = open(cache.path_for(key), "rb").read()
        failing_replace(monkeypatch)
        with pytest.raises(OSError, match="disk detached"):
            cache.put(key, dict(record, result={"peak": 2.0}))
        assert open(cache.path_for(key), "rb").read() == before
        assert leftover_temp_files(os.path.dirname(cache.path_for(key))) == []
        assert cache.stats()["n_puts"] == 1

    def test_failed_gc_stats_save_keeps_the_counters_file(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        cache.gc()
        stats_path = os.path.join(cache.root, ResultCache.GC_STATS_FILE)
        before = open(stats_path, "rb").read()
        failing_replace(monkeypatch)
        with pytest.raises(OSError, match="disk detached"):
            cache.gc()
        assert open(stats_path, "rb").read() == before
        assert leftover_temp_files(cache.root) == []


class TestOpenAppend:
    @pytest.mark.parametrize(
        "tail_size",
        [1, _TAIL_BLOCK - 1, _TAIL_BLOCK, _TAIL_BLOCK + 1, 3 * _TAIL_BLOCK + 5],
    )
    @pytest.mark.parametrize("head", [b"", b'{"k": 1}\n'], ids=["alone", "after"])
    def test_torn_tail_of_any_length_is_truncated(self, tmp_path, head, tail_size):
        path = tmp_path / "j.jsonl"
        path.write_bytes(head + b'{"k": "' + b"x" * tail_size)
        handle, dropped = open_append(str(path))
        handle.close()
        assert dropped
        assert path.read_bytes() == head

    @pytest.mark.parametrize("size", [10, _TAIL_BLOCK, 2 * _TAIL_BLOCK + 3])
    def test_parseable_tail_is_completed(self, tmp_path, size):
        path = tmp_path / "j.jsonl"
        body = json.dumps({"k": "x" * size}).encode()
        path.write_bytes(b'{"k": 1}\n' + body)
        handle, dropped = open_append(str(path))
        handle.close()
        assert not dropped
        assert path.read_bytes() == b'{"k": 1}\n' + body + b"\n"

    def test_complete_file_is_left_alone(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"k": 1}\nnot json\n')
        handle, dropped = open_append(str(path))
        handle.close()
        assert not dropped
        assert path.read_bytes() == b'{"k": 1}\nnot json\n'


class TestScanJsonl:
    def test_blank_lines_are_skipped_and_numbers_kept(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"k": 1}\n\n  \n{"k": 2}\n')
        assert list(scan_jsonl(str(path), "k", "entry")) == [
            (1, {"k": 1}),
            (4, {"k": 2}),
        ]

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"k": 1}\n{"k": \n', r"j\.jsonl:2: malformed entry \(not JSON\)"),
            (b'{"k": 1}\n[1, 2]\n', r"j\.jsonl:2: malformed entry: expected .* key 'k'"),
            (b'{"j": 1}\n', r"j\.jsonl:1: malformed entry: expected .* key 'k'"),
            (b'{"j": 1}', r"j\.jsonl:1: malformed entry: expected .* key 'k'"),
        ],
    )
    def test_malformed_complete_lines_raise(self, tmp_path, content, message):
        path = tmp_path / "j.jsonl"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=message):
            list(scan_jsonl(str(path), "k", "entry"))
