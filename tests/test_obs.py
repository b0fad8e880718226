"""Observability layer: metrics, spans, Chrome export, engine parity."""

import json
import math

import pytest

from repro.cli import main
from repro.core.device import StreamPIMDevice
from repro.isa.columnar import ColumnarTrace
from repro.isa.trace import VPCTrace
from repro.isa.vpc import VPC
from repro.obs import (
    Collector,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COLLECTOR,
    NULL_REGISTRY,
    Span,
    chrome_trace_dict,
    exclusive_breakdown,
    spans_to_intervals,
    track_utilisation,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.resilience import (
    FaultCampaignConfig,
    RecoveryPolicy,
    run_with_faults,
)
from repro.workloads.polybench import polybench_workload
from tests.oracles import scalar_exec

_BREAKDOWN_FIELDS = (
    "read_ns",
    "write_ns",
    "shift_ns",
    "process_ns",
    "overlapped_ns",
    "recovery_ns",
)


def _gemm_trace(scale=0.01):
    task = polybench_workload("gemm", scale=scale).build_task()
    return task, task.to_trace()


def _observed_run(trace, engine, config=None, functional=True):
    device = StreamPIMDevice(config) if config else StreamPIMDevice()
    collector = Collector()
    device.observe(collector)
    run = (
        scalar_exec.execute_trace
        if engine == "scalar"
        else StreamPIMDevice.execute_trace
    )
    stats = run(device, trace, workload="obs", functional=functional)
    return stats, collector


def _engine_comparable(snapshot):
    """Drop rmbus.* model-query metrics (documented as engine-local)."""
    return {
        key: value
        for key, value in snapshot.items()
        if not key.startswith("rmbus.")
    }


class TestMetrics:
    def test_counter_accumulates(self):
        counter = Counter("n")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("n").inc(-1)

    def test_gauge_tracks_extrema(self):
        gauge = Gauge("g")
        for value in (3.0, -1.0, 7.0):
            gauge.set(value)
        assert gauge.value == 7.0
        assert gauge.min == -1.0
        assert gauge.max == 7.0

    def test_histogram_order_free_sum(self):
        hist = Histogram("h")
        values = [1e16, 1.0, -1e16, 1.0]
        hist.observe_many(values)
        assert hist.sum == math.fsum(values)
        assert hist.count == 4

    def test_registry_memoises(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
        assert len(registry) == 3

    def test_registry_rejects_kind_collisions(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.gauge("b").set(1.5)
        registry.histogram("c").observe(3.0)
        text = json.dumps(registry.snapshot())
        assert json.loads(text)["a"] == 2

    def test_null_registry_is_inert(self):
        NULL_REGISTRY.counter("a").inc(10)
        NULL_REGISTRY.gauge("b").set(1.0)
        NULL_REGISTRY.histogram("c").observe(2.0)
        assert NULL_REGISTRY.snapshot() == {}


class TestSpans:
    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Span("x", "pim", 0.0, -1.0, "t")

    def test_end_ns(self):
        assert Span("x", "pim", 2.0, 3.0, "t").end_ns == 5.0

    def test_collector_emit_and_extend(self):
        collector = Collector()
        assert collector.enabled
        collector.emit("a", "pim", 0.0, 1.0, "t0")
        collector.extend([Span("b", "rw", 1.0, 2.0, "t1")])
        assert [span.name for span in collector.spans] == ["a", "b"]

    def test_null_collector_is_inert_singleton(self):
        assert not NULL_COLLECTOR.enabled
        NULL_COLLECTOR.emit("a", "pim", 0.0, 1.0, "t0")
        NULL_COLLECTOR.extend([Span("b", "rw", 1.0, 2.0, "t1")])
        NULL_COLLECTOR.counter("n").inc()

    def test_spans_to_intervals_lanes(self):
        spans = [Span("a", "pim", 0.0, 2.0, "sub-0")]
        intervals = spans_to_intervals(spans)
        assert intervals[0].lane == "sub-0"
        assert intervals[0].end_ns == 2.0

    def test_track_utilisation_ratio(self):
        spans = [
            Span("a", "pim", 0.0, 4.0, "t0"),
            Span("b", "pim", 6.0, 2.0, "t0"),
            Span("c", "rw", 0.0, 10.0, "bus"),
        ]
        rows = {row[0]: row for row in track_utilisation(spans, 10.0)}
        assert rows["t0"][1] == 6.0
        assert rows["t0"][2] == 2
        assert rows["t0"][3] == pytest.approx(0.6)
        assert rows["bus"][3] == pytest.approx(1.0)

    def test_exclusive_breakdown_includes_recovery(self):
        spans = [
            Span("MUL", "pim", 0.0, 10.0, "sub-0"),
            Span("bus.TRAN", "rw", 5.0, 10.0, "bus"),
            Span("retry", "recovery", 0.0, 3.0, "recovery"),
        ]
        swept = exclusive_breakdown(spans)
        # 0-5 pim only, 5-10 overlapped, 10-15 rw only (0.3/0.7 split).
        assert swept.process_ns == pytest.approx(5.0)
        assert swept.overlapped_ns == pytest.approx(5.0)
        assert swept.read_ns == pytest.approx(1.5)
        assert swept.write_ns == pytest.approx(3.5)
        assert swept.recovery_ns == pytest.approx(3.0)


class TestEngineParity:
    """Scalar and vector engines emit identical observation streams."""

    def test_span_streams_and_metrics_identical(self):
        _, trace = _gemm_trace()
        scalar_stats, scalar_obs = _observed_run(trace, "scalar")
        vector_stats, vector_obs = _observed_run(trace, "vector")
        assert scalar_obs.spans == vector_obs.spans
        assert len(scalar_obs.spans) > 0
        assert _engine_comparable(
            scalar_obs.registry.snapshot()
        ) == _engine_comparable(vector_obs.registry.snapshot())
        assert scalar_stats.time_ns == vector_stats.time_ns

    def test_span_count_matches_metric(self):
        _, trace = _gemm_trace()
        _, obs = _observed_run(trace, "vector")
        snapshot = obs.registry.snapshot()
        assert snapshot["trace.spans"] == len(obs.spans)
        assert snapshot["trace.vpcs"] == len(trace)

    def test_local_tran_span_is_named_pim(self):
        # Regression: in-subarray TRANs produced unnamed spans.
        trace = VPCTrace([VPC.tran(0, 64, 8), VPC.add(0, 64, 128, 8)])
        _, obs = _observed_run(trace, "scalar")
        tran = [span for span in obs.spans if span.name == "TRAN"]
        assert len(tran) == 1
        assert tran[0].category == "pim"

    def test_disabled_run_matches_observed_run(self):
        _, trace = _gemm_trace()
        observed_stats, _ = _observed_run(trace, "vector")
        plain_stats = StreamPIMDevice().execute_trace(
            ColumnarTrace.from_trace(trace),
            workload="obs",
        )
        for field in _BREAKDOWN_FIELDS:
            assert getattr(plain_stats.time_breakdown, field) == getattr(
                observed_stats.time_breakdown, field
            )
        assert plain_stats.time_ns == observed_stats.time_ns
        assert plain_stats.energy.total_pj == observed_stats.energy.total_pj

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_breakdown_reconciles_exactly(self, engine):
        _, trace = _gemm_trace()
        stats, obs = _observed_run(trace, engine)
        swept = exclusive_breakdown(obs.spans)
        for field in _BREAKDOWN_FIELDS:
            assert getattr(swept, field) == pytest.approx(
                getattr(stats.time_breakdown, field), rel=1e-12, abs=1e-9
            ), field

    def test_empty_trace_observed(self):
        stats, obs = _observed_run(VPCTrace([]), "vector")
        assert obs.spans == []
        assert stats.time_ns == 0.0


class TestRecoverySpans:
    def test_recovery_span_sum_equals_charged_ns(self):
        task, trace = _gemm_trace(scale=0.02)
        collector = Collector()
        task.device.observe(collector)
        from repro.rm.faults import ShiftFaultConfig

        config = FaultCampaignConfig(
            faults=ShiftFaultConfig(p_per_step=2e-6),
            policy=RecoveryPolicy.RETRY,
        )
        stats, report = run_with_faults(
            task.device, trace, config=config, seed=0, workload="gemm"
        )
        assert report.retries > 0
        recovery = [
            span for span in collector.spans if span.category == "recovery"
        ]
        assert len(recovery) == report.retries
        total = 0.0
        for span in recovery:
            assert span.ts_ns == total  # running-offset layout
            total += span.dur_ns
        assert total == report.recovery_ns
        snapshot = collector.registry.snapshot()
        assert snapshot["faults.retries"] == report.retries
        assert snapshot["faults.injected"] == report.injected


class TestSchedulerSpans:
    def test_compose_emits_sched_lanes(self):
        from repro.core.scheduler import Round
        from repro.sim.stats import EnergyBreakdown, TimeBreakdown

        device = StreamPIMDevice()
        collector = Collector()
        device.observe(collector)
        rounds = [
            Round(
                label=f"r{i}",
                prep_words=256,
                prep_targets=2,
                compute_ns=100.0,
                compute_time=TimeBreakdown(process_ns=100.0),
                compute_energy=EnergyBreakdown(compute_pj=1.0),
            )
            for i in range(3)
        ]
        result = device.execute_rounds(rounds)
        sched = [
            span for span in collector.spans if span.category == "sched"
        ]
        assert sched
        assert {span.track for span in sched} == {
            "sched.prep",
            "sched.compute",
        }
        snapshot = collector.registry.snapshot()
        assert snapshot["sched.rounds"] == 3
        assert snapshot["sched.total_ns"]["value"] == result.total_ns


class TestChromeTrace:
    def _payload(self):
        _, trace = _gemm_trace()
        stats, obs = _observed_run(trace, "vector")
        return chrome_trace_dict(
            obs.spans, metrics=obs.registry.snapshot()
        )

    def test_payload_schema(self):
        payload = self._payload()
        validate_chrome_trace(payload)
        assert payload["displayTimeUnit"] == "ns"
        slices = [
            event
            for event in payload["traceEvents"]
            if event["ph"] == "X"
        ]
        assert slices
        for event in slices:
            assert event["dur"] >= 0
            assert event["args"]["dur_ns"] >= 0

    def test_ts_monotone_per_track(self):
        payload = self._payload()
        clocks = {}
        for event in payload["traceEvents"]:
            if event["ph"] != "X":
                continue
            key = (event["pid"], event["tid"])
            assert event["ts"] >= clocks.get(key, 0.0)
            clocks[key] = event["ts"]

    def test_validation_rejects_ts_rewind(self):
        payload = chrome_trace_dict(
            [
                Span("a", "pim", 10.0, 1.0, "t"),
                Span("b", "pim", 0.0, 1.0, "t"),
            ]
        )
        # Sorting repairs the order, so corrupt it after the fact.
        events = payload["traceEvents"]
        slices = [event for event in events if event["ph"] == "X"]
        slices[0]["ts"], slices[1]["ts"] = slices[1]["ts"], slices[0]["ts"]
        with pytest.raises(ValueError, match="rewinds"):
            validate_chrome_trace(payload)

    def test_validation_rejects_unknown_phase(self):
        payload = chrome_trace_dict([Span("a", "pim", 0.0, 1.0, "t")])
        payload["traceEvents"][-1]["ph"] = "Q"
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace(payload)

    def test_write_roundtrip(self, tmp_path):
        _, trace = _gemm_trace()
        _, obs = _observed_run(trace, "vector")
        path = tmp_path / "trace.json"
        write_chrome_trace(
            str(path), obs.spans, metrics=obs.registry.snapshot()
        )
        payload = json.loads(path.read_text())
        validate_chrome_trace(payload)
        assert payload["otherData"]["metrics"]["trace.spans"] == len(
            obs.spans
        )


class TestProfileCLI:
    def test_profile_writes_valid_trace(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert main(
            [
                "profile",
                "gemm",
                "--scale",
                "0.01",
                "-o",
                str(target),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "breakdown reconciliation: OK" in out
        validate_chrome_trace(json.loads(target.read_text()))

    def test_replay_profile_flag(self, tmp_path, capsys):
        trace_path = tmp_path / "t.trace"
        target = tmp_path / "trace.json"
        assert main(
            ["trace", "gemm", "--scale", "0.01", "-o", str(trace_path)]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "replay",
                str(trace_path),
                "--profile",
                str(target),
            ]
        ) == 0
        assert "breakdown reconciliation: OK" in capsys.readouterr().out
        validate_chrome_trace(json.loads(target.read_text()))

    def test_faults_run_profile_flag(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert main(
            [
                "faults", "run", "gemm", "--scale", "0.01",
                "--p-per-step", "2e-6",
                "--profile", str(target),
            ]
        ) == 0
        capsys.readouterr()
        payload = json.loads(target.read_text())
        validate_chrome_trace(payload)


class TestHistogramBounds:
    """Review regression: the histogram used to keep every sample
    forever and re-sort them all on each percentile call."""

    def test_reservoir_bounds_memory(self):
        hist = Histogram("h", reservoir_size=64)
        hist.observe_many(float(i) for i in range(10_000))
        assert hist.count == 10_000
        assert len(hist._samples) == 64
        assert hist.sum == math.fsum(float(i) for i in range(10_000))
        assert hist.min == 0.0 and hist.max == 9999.0
        p99 = hist.percentile(99.0)
        assert 0.0 <= p99 <= 9999.0

    def test_percentile_exact_below_capacity(self):
        hist = Histogram("h")
        hist.observe_many([5.0, 1.0, 3.0, 2.0, 4.0])
        assert hist.percentile(0.0) == 1.0
        assert hist.percentile(50.0) == 3.0
        assert hist.percentile(100.0) == 5.0

    def test_reservoir_is_deterministic_per_name(self):
        first = Histogram("same", reservoir_size=32)
        second = Histogram("same", reservoir_size=32)
        values = [float((i * 37) % 101) for i in range(1000)]
        first.observe_many(values)
        second.observe_many(values)
        assert first._samples == second._samples
        assert first.percentile(99.0) == second.percentile(99.0)
