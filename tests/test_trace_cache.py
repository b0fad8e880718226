"""Content-addressed trace cache: keys, integrity, wiring.

The invalidation contract: a cache key covers everything the trace
bytes depend on, so any change to the workload, device geometry,
placement policy, or the lowering algorithm makes old entries
unreachable.  The integrity contract: a corrupted or truncated entry is
detected by checksum, deleted, and recompiled — never half-loaded.
"""

import dataclasses
import gc
import json
import shutil

import numpy as np
import pytest

from repro.core.compile import (
    LOWERING_VERSION,
    compile_workload,
    task_cache_key,
)
from repro.core.device import StreamPIMConfig, StreamPIMDevice
from repro.core.scheduler import SchedulerPolicy
from repro.isa.columnar import ColumnarTrace
from repro.isa.trace import VPCTrace
from repro.isa.trace_cache import TraceCache, make_cache_key
from repro.isa.vpc import VPC
from repro.obs.metrics import MetricsRegistry
from repro.workloads import polybench_workload


def _spec(scale=0.01):
    return polybench_workload("gemm", scale=scale)


def _sample_trace():
    return ColumnarTrace.from_trace(
        VPCTrace(
            [VPC.mul(0, 8, 16, 4), VPC.tran(16, 32, 4)]
        )
    )


class TestCacheKey:
    def test_key_is_stable(self):
        device = StreamPIMDevice()
        assert task_cache_key(_spec(), device) == task_cache_key(
            _spec(), device
        )

    def test_key_changes_with_workload_scale(self):
        device = StreamPIMDevice()
        assert task_cache_key(_spec(0.01), device) != task_cache_key(
            _spec(0.02), device
        )

    def test_key_changes_with_seed(self):
        device = StreamPIMDevice()
        assert task_cache_key(_spec(), device, seed=7) != task_cache_key(
            _spec(), device, seed=8
        )

    def test_key_changes_with_geometry(self, small_device):
        assert task_cache_key(_spec(), StreamPIMDevice()) != task_cache_key(
            _spec(), small_device
        )

    def test_key_changes_with_placement_policy(self):
        keys = {
            task_cache_key(
                _spec(),
                StreamPIMDevice(
                    StreamPIMConfig(scheduler_policy=policy)
                ),
            )
            for policy in SchedulerPolicy
        }
        assert len(keys) == len(SchedulerPolicy)

    def test_key_changes_with_lowering_version(self, monkeypatch):
        device = StreamPIMDevice()
        before = task_cache_key(_spec(), device)
        monkeypatch.setattr(
            "repro.core.compile.LOWERING_VERSION", LOWERING_VERSION + 1
        )
        assert task_cache_key(_spec(), device) != before

    def test_make_cache_key_order_independent(self):
        assert make_cache_key(a=1, b=[2, 3]) == make_cache_key(b=[2, 3], a=1)
        assert make_cache_key(a=1) != make_cache_key(a=2)


class TestTraceCacheStore:
    def test_put_get_round_trip(self, tmp_path):
        cache = TraceCache(tmp_path / "c")
        trace = _sample_trace()
        cache.put(
            "k" * 64,
            trace,
            aux={"plan": {"x": 1}},
            provenance={"workload": "t"},
        )
        entry = TraceCache(tmp_path / "c").get("k" * 64)
        assert entry is not None
        assert entry.trace == trace
        assert entry.aux == {"plan": {"x": 1}}
        assert entry.provenance == {"workload": "t"}

    def test_absent_key_is_a_miss(self, tmp_path):
        registry = MetricsRegistry()
        cache = TraceCache(tmp_path / "c", registry=registry)
        assert cache.get("0" * 64) is None
        assert registry.counter("trace_cache.misses").value == 1

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda blob: blob[:-1],  # truncated payload
            lambda blob: b"XXXX\x01" + blob[5:],  # wrong magic
            lambda blob: blob[:40] + b"\xff" + blob[41:],  # flipped meta
            lambda blob: blob[:-3]
            + bytes(b ^ 0xFF for b in blob[-3:]),  # payload bits
            lambda blob: blob[: len(blob) // 2],  # half a file
        ],
    )
    def test_corruption_detected_and_dropped(self, tmp_path, corrupt):
        registry = MetricsRegistry()
        cache = TraceCache(tmp_path / "c", registry=registry)
        key = "a" * 64
        path = cache.put(key, _sample_trace())
        path.write_bytes(corrupt(path.read_bytes()))
        fresh = TraceCache(tmp_path / "c", registry=registry)
        assert fresh.get(key) is None
        assert not path.exists()  # dropped, ready for the recompile
        assert registry.counter("trace_cache.corrupt").value == 1

    def test_corrupt_entry_recompiles_never_half_loads(self, tmp_path):
        cold = compile_workload(_spec(), cache=TraceCache(tmp_path / "c"))
        assert not cold.cache_hit
        path = TraceCache(tmp_path / "c").entry_path(cold.cache_key)
        path.write_bytes(path.read_bytes()[:-2])
        fresh = compile_workload(_spec(), cache=TraceCache(tmp_path / "c"))
        assert not fresh.cache_hit
        assert fresh.trace == cold.trace
        # The recompiled entry replaced the corrupt file.
        again = compile_workload(_spec(), cache=TraceCache(tmp_path / "c"))
        assert again.cache_hit and again.trace == cold.trace

    def test_memory_lru_front(self, tmp_path):
        registry = MetricsRegistry()
        cache = TraceCache(
            tmp_path / "c", registry=registry, memory_entries=1
        )
        trace = _sample_trace()
        cache.put("c" * 64, trace)
        cache.put("d" * 64, trace)  # evicts c* from the LRU
        assert cache.get("d" * 64) is not None  # memory hit
        assert cache.get("c" * 64) is not None  # disk hit
        assert registry.counter("trace_cache.memory_hits").value == 1
        assert registry.counter("trace_cache.hits").value == 2

    def test_stats_persist_across_instances(self, tmp_path):
        cache = TraceCache(tmp_path / "c", memory_entries=0)
        cache.put("e" * 64, _sample_trace())
        cache.get("e" * 64)
        cache.get("f" * 64)
        stats = TraceCache(tmp_path / "c").stats()
        assert stats["puts"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["entry_bytes"] > 0

    def test_memory_hits_batch_their_stats_write(self, tmp_path):
        """A memory hit writes no stats.json; its counts land with the
        next stats() call, disk access, or when the cache is dropped."""
        cache = TraceCache(tmp_path / "c")
        cache.put("a" * 64, _sample_trace())
        path = cache.cache_dir / "stats.json"
        written = path.read_bytes()
        assert cache.get("a" * 64) is not None  # memory hit
        assert path.read_bytes() == written
        stats = cache.stats()
        assert (stats["hits"], stats["memory_hits"]) == (1, 1)
        cache.get("a" * 64)
        cache.get("b" * 64)  # a miss flushes the pending hit with it
        stats = json.loads(path.read_text("utf-8"))
        assert (stats["hits"], stats["misses"]) == (2, 1)
        cache.get("a" * 64)
        del cache
        gc.collect()
        assert TraceCache(tmp_path / "c").stats()["memory_hits"] == 3

    def test_dropped_cache_does_not_recreate_its_directory(self, tmp_path):
        cache = TraceCache(tmp_path / "c")
        cache.put("a" * 64, _sample_trace())
        cache.get("a" * 64)  # pending memory hit
        shutil.rmtree(tmp_path / "c")
        del cache
        gc.collect()
        assert not (tmp_path / "c").exists()

    def test_clear_removes_entries_and_counters(self, tmp_path):
        cache = TraceCache(tmp_path / "c")
        cache.put("f" * 64, _sample_trace())
        assert cache.clear() == 1
        assert cache.get("f" * 64) is None
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["puts"] == 0  # counters reset with the store


class TestCompileWorkload:
    def test_second_compile_is_a_hit_with_identical_trace(self):
        cold = compile_workload(_spec())
        warm = compile_workload(_spec())
        assert not cold.cache_hit
        assert warm.cache_hit
        assert warm.cache_key == cold.cache_key
        assert warm.trace.to_bytes() == cold.trace.to_bytes()

    def test_cached_task_state_supports_functional_run(self):
        def run(compiled):
            compiled.task.materialize(compiled.device)
            compiled.device.execute_trace(compiled.trace, functional=True)
            return compiled.task.fetch_results(compiled.device)

        fresh = run(compile_workload(_spec()))
        cached_compiled = compile_workload(_spec())
        assert cached_compiled.cache_hit
        cached = run(cached_compiled)
        assert fresh.keys() == cached.keys()
        for name in fresh:
            np.testing.assert_array_equal(fresh[name], cached[name])

    def test_use_cache_false_touches_nothing(self, tmp_path):
        cache_dir = tmp_path / "never"
        compiled = compile_workload(
            _spec(), use_cache=False, cache_dir=cache_dir
        )
        assert not compiled.cache_hit
        assert compiled.cache_key == ""
        assert not cache_dir.exists()

    def test_unusable_aux_recompiles(self, tmp_path):
        cache = TraceCache(tmp_path / "c")
        cold = compile_workload(_spec(), cache=cache)
        # Clobber the stored placement plan: the entry still decodes,
        # but the plan cannot be restored, so compile falls back.
        path = cache.entry_path(cold.cache_key)
        blob = path.read_bytes()
        entry = cache._decode_entry(cold.cache_key, blob)
        assert entry is not None
        cache.put(cold.cache_key, entry.trace, aux={"plan": "garbage"})
        cache._memory.clear()
        warm = compile_workload(_spec(), cache=cache)
        assert not warm.cache_hit
        assert warm.trace.to_bytes() == cold.trace.to_bytes()


class TestCampaignWiring:
    def test_campaign_identical_with_and_without_cache(self):
        from repro.resilience import FaultCampaignConfig, run_campaign
        from repro.rm.faults import ShiftFaultConfig

        config = FaultCampaignConfig(
            faults=ShiftFaultConfig(p_per_step=2e-6)
        )
        kwargs = dict(
            config=config, scale=0.01, runs=3, master_seed=5
        )
        cached = run_campaign("gemm", use_cache=True, **kwargs)
        uncached = run_campaign("gemm", use_cache=False, **kwargs)
        assert cached.to_dict() == uncached.to_dict()

    def test_campaign_hits_the_cache(self):
        from repro.resilience import run_campaign

        run_campaign("gemm", scale=0.01, runs=3)
        stats = TraceCache().stats()
        assert stats["puts"] == 1
        assert stats["hits"] >= 3


class TestCacheCLI:
    def test_stats_and_clear(self, capsys):
        from repro.cli import main

        compile_workload(_spec())
        compile_workload(_spec())
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "hits      : 1" in out
        assert "misses    : 1" in out
        assert main(["cache", "clear"]) == 0
        assert "removed 1 cached trace(s)" in capsys.readouterr().out

    def test_stats_json(self, capsys):
        from repro.cli import main

        compile_workload(_spec())
        assert main(["cache", "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["puts"] == 1
        assert stats["entries"] == 1

    def test_trace_command_reports_cache_hit(self, capsys):
        from repro.cli import main

        assert main(["trace", "gemm", "--scale", "0.01"]) == 0
        assert "(compiled)" in capsys.readouterr().out
        assert main(["trace", "gemm", "--scale", "0.01"]) == 0
        assert "(cache hit)" in capsys.readouterr().out
        assert (
            main(
                ["trace", "gemm", "--scale", "0.01", "--no-trace-cache"]
            )
            == 0
        )
        assert "(compiled)" in capsys.readouterr().out

    def test_cache_dir_flag_overrides_env(self, tmp_path, capsys):
        from repro.cli import main

        other = tmp_path / "elsewhere"
        assert (
            main(
                [
                    "trace",
                    "gemm",
                    "--scale",
                    "0.01",
                    "--cache-dir",
                    str(other),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(other)]) == 0
        assert "entries   : 1" in capsys.readouterr().out


class TestStatsCrashSafety:
    """``stats.json`` damage must never raise — tolerate + regenerate."""

    def _cache_with_stats(self, tmp_path):
        cache = TraceCache(tmp_path / "c", memory_entries=0)
        cache.put("a" * 64, _sample_trace())
        cache.get("a" * 64)
        path = cache.cache_dir / "stats.json"
        assert path.is_file()
        return cache, path

    def test_truncated_mid_content_tolerated_and_regenerated(
        self, tmp_path
    ):
        cache, path = self._cache_with_stats(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # crash mid-write
        stats = TraceCache(tmp_path / "c").stats()
        assert stats["hits"] == 0  # damaged counters read as zero
        assert stats["entries"] == 1  # the store itself is untouched
        # The damaged file was atomically replaced with a clean one.
        regenerated = json.loads(path.read_text("utf-8"))
        assert regenerated["hits"] == 0

    @pytest.mark.parametrize(
        "damage",
        [
            b"",  # zero-length (crash before any byte landed)
            b"{\"hits\": 3",  # truncated json
            b"not json at all",
            b"[1, 2, 3]",  # wrong shape
            b"{\"hits\": \"many\"}",  # wrong-typed counter
            b"{\"hits\": -4}",  # nonsense value
        ],
    )
    def test_damaged_stats_read_as_zero(self, tmp_path, damage):
        cache, path = self._cache_with_stats(tmp_path)
        path.write_bytes(damage)
        stats = TraceCache(tmp_path / "c").stats()
        assert stats["hits"] == 0
        assert json.loads(path.read_text("utf-8"))  # clean file again

    def test_partial_damage_keeps_the_valid_counters(self, tmp_path):
        cache, path = self._cache_with_stats(tmp_path)
        path.write_text('{"hits": 5, "puts": "garbage"}')
        stats = TraceCache(tmp_path / "c").stats()
        assert stats["hits"] == 5
        assert stats["puts"] == 0

    def test_counting_through_damage_still_works(self, tmp_path):
        cache, path = self._cache_with_stats(tmp_path)
        path.write_bytes(b"\xff\xfe garbage")
        cache.get("a" * 64)  # bumps counters through the damaged file
        stats = TraceCache(tmp_path / "c").stats()
        assert stats["hits"] == 1

    def test_writes_leave_no_temp_residue(self, tmp_path):
        cache, path = self._cache_with_stats(tmp_path)
        leftovers = list(cache.cache_dir.glob(".stats.*.tmp"))
        assert leftovers == []


class TestInflightTracker:
    def _tracker(self, tmp_path, **kwargs):
        from repro.isa.trace_cache import InflightTracker

        return InflightTracker(tmp_path / "c", **kwargs)

    def test_mark_clear_round_trip(self, tmp_path):
        tracker = self._tracker(tmp_path)
        tracker.mark("k1")
        assert tracker.is_inflight("k1")
        assert tracker.active()["k1"]["pid"] == __import__("os").getpid()
        tracker.clear("k1")
        assert not tracker.is_inflight("k1")

    def test_dead_owner_is_stale_and_pruned(self, tmp_path):
        import multiprocessing

        proc = multiprocessing.get_context("spawn").Process(target=int)
        proc.start()
        proc.join()
        tracker = self._tracker(tmp_path)
        path = tracker.mark("k1")
        payload = json.loads(path.read_text("utf-8"))
        payload["pid"] = proc.pid  # a pid that no longer runs
        path.write_text(json.dumps(payload))
        assert not tracker.is_inflight("k1")
        assert not path.exists()  # a crashed worker leaves no residue

    def test_too_old_marker_is_stale(self, tmp_path):
        import time as _time

        tracker = self._tracker(tmp_path, max_age_s=10.0)
        path = tracker.mark("k1")
        payload = json.loads(path.read_text("utf-8"))
        payload["started"] = _time.time() - 3600.0
        path.write_text(json.dumps(payload))
        assert not tracker.is_inflight("k1")

    def test_unreadable_marker_is_stale(self, tmp_path):
        tracker = self._tracker(tmp_path)
        path = tracker.mark("k1")
        path.write_bytes(b"{half a mar")  # crash mid-write
        assert tracker.active() == {}
        assert not path.exists()

    def test_compile_marks_and_clears(self, tmp_path):
        from repro.isa.trace_cache import InflightTracker

        events = []

        class Recording(InflightTracker):
            def mark(self, key):
                events.append(("mark", key))
                return super().mark(key)

            def clear(self, key):
                events.append(("clear", key))
                super().clear(key)

        cache = TraceCache(tmp_path / "c")
        tracker = Recording(cache.cache_dir)
        cold = compile_workload(_spec(), cache=cache, inflight=tracker)
        assert events == [
            ("mark", cold.cache_key),
            ("clear", cold.cache_key),
        ]
        assert tracker.active() == {}  # nothing left behind
        # A warm hit never marks: no compile is in flight.
        events.clear()
        warm = compile_workload(_spec(), cache=cache, inflight=tracker)
        assert warm.cache_hit
        assert events == []


def test_config_key_uses_geometry_dataclass():
    """Guard: geometry must stay asdict-able or keys silently collide."""
    device = StreamPIMDevice()
    assert dataclasses.is_dataclass(device.config.geometry)
