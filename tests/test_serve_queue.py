"""Tests of the serve primitives: the durable job queue and the result cache."""

from __future__ import annotations

import json

import pytest

from repro.serve.cache import ResultCache, cacheable_record
from repro.serve.queue import JobQueue, job_hash


def ok_record(spec_hash="ab" * 32, **extra):
    record = {
        "spec_hash": spec_hash,
        "scenario": "t",
        "action": "run",
        "solver": "fdm",
        "status": "ok",
        "result": {"peak_temperature_K": 331.25},
        "index": 3,
        "source": "run",
        "executor": "serial",
        "wall_time_s": 0.01,
        "counters": {"n_solves": 1},
    }
    record.update(extra)
    return record


class TestJobLifecycle:
    def test_submit_claim_done(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        job, resubmitted = queue.submit("sweep", {"x": 1}, task_keys=["a1" * 32])
        assert not resubmitted
        assert job.state == "submitted"
        assert job.n_total == 1
        assert job.job_id == job.hash[:12]
        claimed = queue.claim(timeout=0.1)
        assert claimed.job_id == job.job_id
        assert claimed.state == "running"
        queue.mark_done(job.job_id, {"n_ok": 1})
        assert queue.get(job.job_id).state == "done"
        assert queue.get(job.job_id).summary == {"n_ok": 1}
        assert queue.counts()["done"] == 1

    def test_failed_jobs_record_the_error(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        job, _ = queue.submit("run", "test-a", task_keys=["a1" * 32])
        queue.claim(timeout=0.1)
        queue.mark_failed(job.job_id, "RuntimeError: boom")
        final = queue.get(job.job_id)
        assert final.state == "failed"
        assert "boom" in final.error

    def test_claim_times_out_empty(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        assert queue.claim(timeout=0.01) is None

    def test_claim_is_fifo(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        first, _ = queue.submit("run", "a", task_keys=["a1" * 32])
        second, _ = queue.submit("run", "b", task_keys=["b2" * 32])
        assert queue.claim(timeout=0.1).job_id == first.job_id
        assert queue.claim(timeout=0.1).job_id == second.job_id

    def test_unknown_job_is_a_keyerror(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        with pytest.raises(KeyError, match="nope"):
            queue.get("nope")

    def test_progress_is_in_memory_only(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        queue = JobQueue(path)
        job, _ = queue.submit("run", "a", task_keys=["a1" * 32])
        queue.update_progress(job.job_id, n_done=2, n_total=4)
        assert queue.get(job.job_id).progress == {"n_done": 2, "n_total": 4}
        queue.close()
        assert JobQueue(path).get(job.job_id).progress == {}


class TestIdempotentSubmission:
    def test_identical_resubmission_returns_existing_job(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        job, _ = queue.submit("sweep", {"x": 1}, task_keys=["a1" * 32, "b2" * 32])
        again, resubmitted = queue.submit(
            "sweep", {"x": 1}, task_keys=["a1" * 32, "b2" * 32]
        )
        assert resubmitted
        assert again.job_id == job.job_id
        assert queue.counts()["submitted"] == 1

    def test_done_jobs_still_satisfy_resubmission(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        job, _ = queue.submit("sweep", {"x": 1}, task_keys=["a1" * 32])
        queue.claim(timeout=0.1)
        queue.mark_done(job.job_id, {})
        again, resubmitted = queue.submit("sweep", {"x": 1}, task_keys=["a1" * 32])
        assert resubmitted and again.job_id == job.job_id

    def test_failed_jobs_never_satisfy_resubmission(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        job, _ = queue.submit("sweep", {"x": 1}, task_keys=["a1" * 32])
        queue.claim(timeout=0.1)
        queue.mark_failed(job.job_id, "boom")
        retry, resubmitted = queue.submit("sweep", {"x": 1}, task_keys=["a1" * 32])
        assert not resubmitted
        assert retry.job_id != job.job_id

    def test_fresh_forces_a_new_job(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        job, _ = queue.submit("sweep", {"x": 1}, task_keys=["a1" * 32])
        forced, resubmitted = queue.submit(
            "sweep", {"x": 1}, task_keys=["a1" * 32], fresh=True
        )
        assert not resubmitted
        assert forced.job_id != job.job_id
        assert forced.hash == job.hash  # same content, distinct job

    def test_hash_covers_kind_and_task_keys(self):
        keys = ["a1" * 32, "b2" * 32]
        assert job_hash("sweep", keys) == job_hash("sweep", list(keys))
        assert job_hash("sweep", keys) != job_hash("optimize", keys)
        assert job_hash("sweep", keys) != job_hash("sweep", keys[:1])


class TestJournalDurability:
    def test_replay_restores_all_states(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        queue = JobQueue(path)
        done, _ = queue.submit("sweep", {"x": 1}, task_keys=["a1" * 32])
        queue.claim(timeout=0.1)
        queue.mark_done(done.job_id, {"n_ok": 1})
        failed, _ = queue.submit("run", "b", task_keys=["b2" * 32])
        queue.claim(timeout=0.1)
        queue.mark_failed(failed.job_id, "boom")
        waiting, _ = queue.submit("run", "c", task_keys=["c3" * 32])
        queue.close()

        replayed = JobQueue(path)
        assert replayed.get(done.job_id).state == "done"
        assert replayed.get(done.job_id).summary == {"n_ok": 1}
        assert replayed.get(failed.job_id).error == "boom"
        assert replayed.claim(timeout=0.1).job_id == waiting.job_id

    def test_running_jobs_are_requeued_as_recovered(self, tmp_path):
        """A job mid-flight when the process dies is requeued on replay."""
        path = tmp_path / "queue.jsonl"
        queue = JobQueue(path)
        job, _ = queue.submit("sweep", {"x": 1}, task_keys=["a1" * 32])
        queue.claim(timeout=0.1)
        queue.close()  # die without mark_done: journal ends at "running"

        replayed = JobQueue(path)
        assert replayed.n_recovered == 1
        recovered = replayed.claim(timeout=0.1)
        assert recovered.job_id == job.job_id
        assert recovered.recovered

    @pytest.mark.parametrize(
        "torn",
        ['{"event": "running", "job_id"', '{"event": "running"'],
        ids=["mid-key", "before-close"],
    )
    def test_torn_final_line_is_tolerated_and_healed(self, tmp_path, torn):
        path = tmp_path / "queue.jsonl"
        queue = JobQueue(path)
        job, _ = queue.submit("sweep", {"x": 1}, task_keys=["a1" * 32])
        queue.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(torn)  # torn write

        replayed = JobQueue(path)
        assert replayed.get(job.job_id).state == "submitted"
        replayed.claim(timeout=0.1)  # appends: the torn tail must be healed
        replayed.close()
        lines = path.read_text().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_complete_final_event_missing_its_newline_is_completed(
        self, tmp_path
    ):
        path = tmp_path / "queue.jsonl"
        queue = JobQueue(path)
        job, _ = queue.submit("sweep", {"x": 1}, task_keys=["a1" * 32])
        queue.close()
        path.write_text(path.read_text().rstrip("\n"))  # newline lost

        replayed = JobQueue(path)
        assert replayed.claim(timeout=0.1).job_id == job.job_id
        replayed.close()
        events = [json.loads(line)["event"] for line in path.read_text().splitlines()]
        assert events == ["submitted", "running"]

    @pytest.mark.parametrize(
        "final_line", ["not json", '{"event": "running", "job_id"'], ids=["text", "cut"]
    )
    def test_malformed_final_line_ending_in_newline_raises(
        self, tmp_path, final_line
    ):
        """A newline-terminated line is complete, so a malformed one is
        corruption even as the final line: replay fails at once, naming
        it, instead of dropping it and failing the restart after the next
        append."""
        path = tmp_path / "queue.jsonl"
        queue = JobQueue(path)
        queue.submit("sweep", {"x": 1}, task_keys=["a1" * 32])
        queue.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(final_line + "\n")
        with pytest.raises(ValueError, match=r"queue\.jsonl:2: malformed queue journal"):
            JobQueue(path)

    def test_malformed_interior_line_raises(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        path.write_text('not json\n{"event": "submitted", "job_id": "x"}\n')
        with pytest.raises(ValueError, match="queue.jsonl:1"):
            JobQueue(path)

    def test_unknown_event_raises(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        path.write_text('{"event": "exploded", "job_id": "x"}\n')
        with pytest.raises(ValueError, match="exploded"):
            JobQueue(path)


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "ab" * 32
        cache.put(key, ok_record(key))
        entry = cache.get(key)
        assert entry["result"] == {"peak_temperature_K": 331.25}
        assert entry["status"] == "ok"
        assert cache.stats() == {
            "n_hits": 1,
            "n_misses": 0,
            "n_puts": 1,
            "n_gc_runs": 0,
            "n_gc_removed": 0,
        }

    def test_entries_strip_campaign_positional_fields(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "ab" * 32
        cache.put(key, ok_record(key))
        entry = cache.get(key)
        for volatile in ("index", "source", "executor", "wall_time_s", "counters"):
            assert volatile not in entry
        assert cacheable_record(ok_record(key)) == entry

    def test_two_level_fanout_layout(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "deadbeef" * 8
        cache.put(key, ok_record(key))
        assert cache.path_for(key).endswith(f"de/ad/{key}.json")
        assert key in cache
        assert list(cache.keys()) == [key]
        assert len(cache) == 1

    def test_miss_is_counted(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("ab" * 32) is None
        assert cache.stats()["n_misses"] == 1

    def test_only_ok_records_are_cacheable(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="status='ok'"):
            cache.put("ab" * 32, ok_record(status="error"))

    def test_non_hash_keys_are_rejected(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="lowercase hex"):
            cache.path_for("../../etc/passwd")
        with pytest.raises(ValueError, match="lowercase hex"):
            cache.path_for("abc")  # too short to fan out

    def test_corrupt_entry_is_a_miss_then_overwritten(self, tmp_path):
        import os

        cache = ResultCache(tmp_path / "cache")
        key = "ab" * 32
        cache.put(key, ok_record(key))
        with open(cache.path_for(key), "w", encoding="utf-8") as handle:
            handle.write('{"torn')
        assert cache.get(key) is None
        cache.put(key, ok_record(key))
        assert cache.get(key)["status"] == "ok"
        assert not [
            name
            for name in os.listdir(os.path.dirname(cache.path_for(key)))
            if name.startswith(".tmp-")
        ]


class TestResultCacheGc:
    @staticmethod
    def fill(cache, n, age_step_s=100.0):
        """n entries with strictly increasing mtimes (oldest first)."""
        import os
        import time

        now = time.time()
        keys = [f"{index:02x}" * 32 for index in range(n)]
        for index, key in enumerate(keys):
            cache.put(key, ok_record(key))
            mtime = now - (n - index) * age_step_s
            os.utime(cache.path_for(key), (mtime, mtime))
        return keys

    def test_age_expiry_removes_only_old_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = self.fill(cache, 4, age_step_s=100.0)  # ages 400..100 s
        report = cache.gc(max_age_s=250.0)
        assert report == {"n_scanned": 4, "n_removed": 2, "n_kept": 2}
        assert keys[0] not in cache and keys[1] not in cache
        assert keys[2] in cache and keys[3] in cache

    def test_entry_cap_removes_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = self.fill(cache, 5)
        report = cache.gc(max_entries=2)
        assert report["n_removed"] == 3
        assert report["n_kept"] == 2
        assert [key for key in keys if key in cache] == keys[3:]

    def test_age_and_cap_compose(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = self.fill(cache, 6, age_step_s=100.0)  # ages 600..100 s
        report = cache.gc(max_age_s=450.0, max_entries=2)
        assert report["n_removed"] == 4
        assert [key for key in keys if key in cache] == keys[4:]

    def test_noop_gc_keeps_everything_but_counts_the_run(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self.fill(cache, 3)
        report = cache.gc()
        assert report == {"n_scanned": 3, "n_removed": 0, "n_kept": 3}
        stats = cache.stats()
        assert stats["n_gc_runs"] == 1
        assert stats["n_gc_removed"] == 0

    def test_negative_limits_are_rejected(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="max_age_s"):
            cache.gc(max_age_s=-1.0)
        with pytest.raises(ValueError, match="max_entries"):
            cache.gc(max_entries=-1)

    def test_gc_counters_survive_a_restart(self, tmp_path):
        # Regression: gc runs/removals used to be per-handle, so 'repro
        # cache gc' (a fresh process each time) always reported zeros.
        cache = ResultCache(tmp_path / "cache")
        self.fill(cache, 4)
        cache.gc(max_entries=2)
        cache.gc()
        stats = cache.stats()
        assert stats["n_gc_runs"] == 2
        assert stats["n_gc_removed"] == 2

        reopened = ResultCache(tmp_path / "cache")
        durable = reopened.stats()
        assert durable["n_gc_runs"] == 2
        assert durable["n_gc_removed"] == 2
        # Traffic counters are per-handle by design and start at zero.
        assert durable["n_hits"] == 0 and durable["n_misses"] == 0
        # The stats file does not masquerade as a cache entry.
        assert len(list(reopened.keys())) == 2

    def test_gc_counters_accumulate_across_handles(self, tmp_path):
        first = ResultCache(tmp_path / "cache")
        self.fill(first, 3)
        first.gc(max_entries=1)
        second = ResultCache(tmp_path / "cache")
        second.gc()
        assert second.stats()["n_gc_runs"] == 2
        assert second.stats()["n_gc_removed"] == 2

    def test_torn_gc_stats_file_resets_to_zero(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self.fill(cache, 2)
        cache.gc()
        import os

        stats_file = os.path.join(cache.root, "gc-stats.json")
        assert os.path.exists(stats_file)
        with open(stats_file, "w", encoding="utf-8") as handle:
            handle.write("{torn")
        reopened = ResultCache(tmp_path / "cache")
        assert reopened.stats()["n_gc_runs"] == 0

    def test_gc_tolerates_concurrently_removed_entries(self, tmp_path):
        import os

        cache = ResultCache(tmp_path / "cache")
        keys = self.fill(cache, 3)
        os.remove(cache.path_for(keys[0]))
        report = cache.gc(max_entries=0)
        assert report["n_scanned"] == 2
        assert report["n_removed"] == 2
        assert len(cache) == 0

    def test_removed_entries_become_clean_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = self.fill(cache, 2)
        cache.gc(max_entries=1)
        assert cache.get(keys[0]) is None
        assert cache.get(keys[1])["status"] == "ok"
        assert cache.stats()["n_gc_removed"] == 1


class TestSubmitBackpressure:
    def submit(self, queue, name, index):
        return queue.submit(
            "run", {"scenario": name}, task_keys=[f"{index:02x}" * 32]
        )

    def test_submissions_beyond_the_cap_raise(self, tmp_path):
        from repro.serve.queue import QueueFullError

        queue = JobQueue(tmp_path / "queue.jsonl", max_pending=2)
        self.submit(queue, "a", 0)
        self.submit(queue, "b", 1)
        with pytest.raises(QueueFullError, match="max_pending=2"):
            self.submit(queue, "c", 2)
        assert queue.n_rejected == 1

    def test_resubmission_of_a_pending_job_is_exempt(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl", max_pending=1)
        job, resubmitted = self.submit(queue, "a", 0)
        assert not resubmitted
        again, resubmitted = self.submit(queue, "a", 0)
        assert resubmitted and again.job_id == job.job_id
        assert queue.n_rejected == 0

    def test_draining_the_queue_reopens_submission(self, tmp_path):
        from repro.serve.queue import QueueFullError

        queue = JobQueue(tmp_path / "queue.jsonl", max_pending=1)
        job, _ = self.submit(queue, "a", 0)
        with pytest.raises(QueueFullError):
            self.submit(queue, "b", 1)
        claimed = queue.claim(timeout=1.0)
        assert claimed.job_id == job.job_id
        self.submit(queue, "b", 1)  # pending slot freed by the claim

    def test_default_queue_is_unbounded(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        assert queue.max_pending is None
        for index in range(20):
            self.submit(queue, f"s{index}", index)

    def test_cap_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="max_pending"):
            JobQueue(tmp_path / "queue.jsonl", max_pending=0)

    def test_replay_ignores_the_cap(self, tmp_path):
        """A journal holding more pending jobs than the cap must load."""
        queue = JobQueue(tmp_path / "queue.jsonl")
        for index in range(3):
            self.submit(queue, f"s{index}", index)
        reopened = JobQueue(tmp_path / "queue.jsonl", max_pending=1)
        assert reopened.counts()["submitted"] == 3
