"""Closed-form predictor: properties, accuracy, and the explorer.

The analytic model (``src/repro/analysis/predictor.py``) has three
kinds of correctness obligations:

* **properties** — prediction is a pure function of (trace, device
  config): deterministic across predictor instances, independent of
  whether costs come from a full :class:`StreamPIMDevice` or the light
  :class:`AnalyticDevice`, and monotone in trace length (appending
  work never makes the predicted run faster or cheaper);
* **accuracy** — against the trace executor it must stay inside the
  documented per-class bounds on real workloads (the streamed path is
  bit-identical to the phased one by contract, so one error figure
  covers both);
* **integration** — op boundaries survive the compile cache round
  trip, and the explorer re-simulates only its Pareto frontier.
"""

import json

import numpy as np
import pytest

from repro.analysis.calibrate import calibrate_workload
from repro.analysis.explore import (
    DesignPoint,
    build_grid,
    pareto_frontier,
    run_explore,
)
from repro.analysis.predictor import (
    AnalyticDevice,
    TracePredictor,
    predict_trace,
    predict_workload,
)
from repro.core.compile import compile_workload
from repro.core.device import StreamPIMConfig, StreamPIMDevice
from repro.isa.columnar import (
    ColumnarTraceBuilder,
    MUL_BYTE,
    TRAN_BYTE,
)
from repro.workloads import find_workload

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

#: words per subarray of the default geometry — synthetic traces place
#: operands at ``subarray * WPS + offset`` so homes land where intended.
WPS = AnalyticDevice().address_map.words_per_subarray

_SETTINGS = settings(max_examples=20, deadline=None)


def _synthetic_trace(groups, seed=0):
    """``groups`` op groups of TRAN+MUL pairs across a few subarrays.

    Shapes mirror what lowering emits: a TRAN delivering an operand
    into the consumer's subarray, then a MUL reading it — with homes
    spread over four subarrays so cross-subarray bus traffic occurs.
    """
    rng = np.random.default_rng(seed)
    builder = ColumnarTraceBuilder()
    for g in range(groups):
        home = int(rng.integers(0, 4))
        src_sub = int(rng.integers(0, 4))
        size = int(rng.integers(4, 40))
        builder.emit(
            TRAN_BYTE,
            src_sub * WPS + 10,
            None,
            home * WPS + 100,
            size,
        )
        builder.emit(
            MUL_BYTE,
            home * WPS + 100,
            home * WPS + 200,
            home * WPS + 300,
            size,
        )
        builder.mark_op_boundary()
    return builder.build()


class TestProperties:
    @_SETTINGS
    @given(groups=st.integers(1, 12), seed=st.integers(0, 50))
    def test_deterministic_across_instances(self, groups, seed):
        trace = _synthetic_trace(groups, seed)
        device = AnalyticDevice()
        a = TracePredictor(trace, WPS).predict(device)
        b = TracePredictor(trace, WPS).predict(device)
        assert a.time_ns == b.time_ns
        assert a.energy.total_pj == b.energy.total_pj
        assert a.category_ns == b.category_ns

    @_SETTINGS
    @given(groups=st.integers(1, 10), seed=st.integers(0, 50))
    def test_monotone_in_vpc_count(self, groups, seed):
        """Appending op groups never shortens or cheapens the run."""
        device = AnalyticDevice()
        shorter = TracePredictor(
            _synthetic_trace(groups, seed), WPS
        ).predict(device)
        longer = TracePredictor(
            _synthetic_trace(groups + 1, seed), WPS
        ).predict(device)
        assert longer.time_ns >= shorter.time_ns
        assert longer.energy.total_pj > shorter.energy.total_pj
        assert longer.commands == shorter.commands + 2

    def test_analytic_device_matches_full_device(self):
        spec = find_workload("atax", scale=0.02)
        compiled = compile_workload(spec, use_cache=False)
        predictor = TracePredictor(
            compiled.trace,
            compiled.device.address_map.words_per_subarray,
        )
        via_full = predictor.predict(compiled.device)
        via_light = predictor.predict(AnalyticDevice())
        assert via_full.time_ns == via_light.time_ns
        assert via_full.energy.total_pj == via_light.energy.total_pj

    def test_empty_trace_predicts_zero(self):
        trace = ColumnarTraceBuilder().build()
        predicted = predict_trace(AnalyticDevice(), trace)
        assert predicted.time_ns == 0.0
        assert predicted.energy.total_pj == 0.0
        assert predicted.commands == 0

    def test_cross_trans_only_trace_has_no_shape(self):
        """Cross-subarray TRANs are bus copies: a trace of nothing else
        prices no shape, and its energy is still the engine's."""
        builder = ColumnarTraceBuilder()
        builder.emit(TRAN_BYTE, 10, None, WPS + 100, 8)
        builder.emit(TRAN_BYTE, 2 * WPS + 10, None, 3 * WPS + 100, 8)
        trace = builder.build()
        predictor = TracePredictor(trace, WPS)
        predicted = predictor.predict(AnalyticDevice())
        stats = StreamPIMDevice().execute_trace(trace, functional=False)
        assert predictor._shape_keys == []
        assert predicted.cross_trans == 2
        assert predicted.energy.total_pj == pytest.approx(
            stats.energy.total_pj, rel=1e-12
        )

    def test_breakdown_conserves_category_busy_time(self):
        predicted = predict_trace(
            AnalyticDevice(), _synthetic_trace(3), workload="syn"
        )
        # The breakdown mirror conserves category busy time: exclusive
        # slices plus twice the overlap reassemble the copy/bus/exec/tran
        # sums (busy is summed across subarrays, so it exceeds the
        # parallel makespan).
        tb = predicted.time_breakdown
        busy = sum(predicted.category_ns.values())
        reassembled = (
            tb.read_ns
            + tb.write_ns
            + tb.process_ns
            + 2 * tb.overlapped_ns
        )
        assert reassembled == pytest.approx(busy)
        assert min(tb.read_ns, tb.write_ns, tb.process_ns) >= 0.0
        assert tb.overlapped_ns >= 0.0


class TestAccuracy:
    """Within documented bounds against every reference engine/path."""

    def test_phased_path(self, tmp_path):
        for name, scale in (("atax", 0.02), ("gemm", 0.02)):
            result = calibrate_workload(
                name, scale=scale, cache_dir=tmp_path
            )
            assert result.ok, (
                f"{name}@{scale}: time "
                f"{result.time_rel_error:+.4%} "
                f"energy {result.energy_rel_error:+.4%}"
            )

    def test_energy_is_exact(self, tmp_path):
        result = calibrate_workload("mvt", scale=0.02, cache_dir=tmp_path)
        assert result.energy_rel_error == pytest.approx(0.0, abs=1e-9)


class TestOpStarts:
    def test_builder_marks_boundaries(self):
        trace = _synthetic_trace(4)
        assert trace.op_starts.tolist() == [0, 2, 4, 6]
        assert len(trace) == 8

    def test_compile_cache_round_trip(self, tmp_path):
        spec = find_workload("atax", scale=0.02)
        cold = compile_workload(spec, cache_dir=tmp_path)
        warm = compile_workload(spec, cache_dir=tmp_path)
        assert not cold.cache_hit and warm.cache_hit
        assert cold.trace.op_starts is not None
        assert warm.trace.op_starts is not None
        np.testing.assert_array_equal(
            cold.trace.op_starts, warm.trace.op_starts
        )

    def test_single_segment_fallback_stays_in_bounds(self):
        """Without boundaries the model treats the trace as one op."""
        spec = find_workload("atax", scale=0.02)
        compiled = compile_workload(spec, use_cache=False)
        wps = compiled.device.address_map.words_per_subarray
        with_ops = TracePredictor(compiled.trace, wps).predict(
            AnalyticDevice()
        )
        without = TracePredictor(
            compiled.trace, wps, op_starts=np.array([0], dtype=np.int64)
        ).predict(AnalyticDevice())
        assert without.ops == 1
        assert with_ops.ops > 1
        # Same energy (static), time from the same command stream.
        assert without.energy.total_pj == pytest.approx(
            with_ops.energy.total_pj
        )


class TestExplore:
    def test_pareto_frontier(self):
        points = [
            (1.0, 5.0),  # fastest, most energy: on frontier
            (2.0, 3.0),  # on frontier
            (2.5, 3.5),  # dominated by (2.0, 3.0)
            (4.0, 1.0),  # cheapest: on frontier
            (4.0, 2.0),  # dominated (same time, more energy)
        ]
        assert pareto_frontier(points) == [0, 1, 3]

    def test_frontier_of_one(self):
        assert pareto_frontier([(1.0, 1.0)]) == [0]
        assert pareto_frontier([]) == []

    def test_design_point_config(self):
        point = DesignPoint(
            workload="atax",
            scale=0.02,
            policy="base",
            read_scale=2.0,
            write_scale=0.5,
            decode_ns=20.0,
        )
        config = point.config(StreamPIMConfig())
        base = StreamPIMConfig()
        assert config.timing.read_ns == base.timing.read_ns * 2.0
        assert config.timing.read_pj == base.timing.read_pj / 2.0
        assert config.timing.write_ns == base.timing.write_ns * 0.5
        assert config.vpc_decode_ns == 20.0
        assert config.scheduler_policy.value == "base"

    def test_run_explore_resimulates_frontier_only(self, tmp_path):
        # Port speed grades trade time against energy (all frontier
        # candidates); decode latency is pure time, so every slow-decode
        # point is dominated by its fast-decode twin.
        grid = build_grid(
            workloads=[("atax", 0.02)],
            policies=["unblock"],
            read_scales=[0.5, 1.0, 2.0],
            write_scales=[1.0, 2.0],
            decode_ns=[10.0, 80.0],
        )
        report = run_explore(grid, cache_dir=tmp_path)
        assert report.total_points == 12
        assert 0 < report.frontier_points < report.total_points
        verified = [
            p for p in report.points if p.simulated_time_ns is not None
        ]
        assert len(verified) == report.verified == report.frontier_points
        assert all(p.on_frontier for p in verified)
        assert report.max_abs_time_error <= 0.10
        assert report.max_abs_energy_error <= 1e-6
        assert 0.0 < report.pruning_ratio < 1.0
        # Every grid point was predicted through one shared compile.
        assert report.compiles == 1
        payload = report.to_dict()
        assert payload["total_points"] == 12
        assert len(payload["points"]) == 12


class TestCli:
    def test_workloads_json(self, capsys):
        from repro.cli import main

        assert main(["workloads", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        by_name = {e["workload"]: e for e in entries}
        assert by_name["gemm"]["suite"] == "polybench"
        assert by_name["gemm"]["buildable"] is True
        assert by_name["gemm"]["class"] == "matmul"
        assert by_name["mlp"]["suite"] == "dnn"
        assert by_name["trmm"]["buildable"] is False
        assert all(
            set(e) >= {"workload", "suite", "pim_vpcs", "move_vpcs"}
            for e in entries
        )

    def test_calibrate_cli(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "cal.json"
        code = main(
            [
                "calibrate",
                "--workloads",
                "atax:0.02",
                "--cache-dir",
                str(tmp_path / "cache"),
                "-o",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["workloads"][0]["workload"] == "atax"

    def test_explore_cli(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "explore.json"
        code = main(
            [
                "explore",
                "--workloads",
                "atax:0.02",
                "--policies",
                "unblock",
                "--read-scales",
                "1",
                "2",
                "--write-scales",
                "1",
                "--decode-ns",
                "10",
                "--cache-dir",
                str(tmp_path / "cache"),
                "-o",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["total_points"] == 2
        assert payload["frontier_points"] >= 1
        assert payload["max_abs_time_error"] <= 0.10
