"""Differential verification: scalar walk vs columnar fast path.

Two layers of evidence that ``TraceVerifier.verify`` and the whole-trace
VPC walk it is held to (``tests/oracles/scalar_verify.py``) implement the
same rule semantics:

* every shipped workload generator, compiled and verified through both
  entry points, must yield identical diagnostics;
* hypothesis-generated traces seeded to trigger each of SPV001-SPV007
  must keep the two paths in lockstep on *dirty* traces too (the
  workload sweep only ever exercises the clean path).

``StreamingTraceVerifier`` (the per-chunk gate of the streamed
pipeline) is held to the same standard: feeding any chunking of a
trace must reproduce the whole-trace ``verify`` report
exactly — diagnostics, indices, and the suppression count — including
SPV004 hazards that span a chunk boundary.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.placement import (  # noqa: E402
    MatrixHandle,
    PlacementPlan,
    PlacementPolicy,
)
from repro.core.rmbus import RMBusConfig  # noqa: E402
from repro.isa.columnar import ColumnarTrace  # noqa: E402
from repro.isa.trace import VPCTrace  # noqa: E402
from repro.isa.vpc import VPC  # noqa: E402
from repro.rm.address import AddressMap, DeviceGeometry  # noqa: E402
from repro.verify import TraceVerifier  # noqa: E402
from tests.oracles.scalar_verify import verify as scalar_verify  # noqa: E402

GEOMETRY = DeviceGeometry()
AMAP = AddressMap(GEOMETRY)
BASE = AMAP.subarray_base(0, 0)
CAP = AMAP.words_per_subarray
TOTAL = AMAP.total_words

#: A bus with 16-word segments so SPV007 is reachable with small sizes.
SMALL_BUS = RMBusConfig(
    segment_domains=16, length_domains=64, width_wires=8, word_bits=8
)

_SETTINGS = settings(max_examples=25, deadline=None)


def _verify_streamed(verifier, cols, chunk, subject="trace"):
    """Verify ``cols`` per-chunk through the streaming front-end."""
    from repro.verify import StreamingTraceVerifier

    streaming = StreamingTraceVerifier(verifier, subject=subject)
    for start in range(0, len(cols), chunk):
        streaming.feed(ColumnarTrace(cols.records[start : start + chunk]))
    return streaming.finish()


def assert_parity(trace, **verifier_kwargs):
    """All verifier entry points must agree exactly on ``trace``."""
    verifier = TraceVerifier(geometry=GEOMETRY, **verifier_kwargs)
    scalar = scalar_verify(verifier, trace)
    cols = ColumnarTrace.from_trace(trace)
    columnar = verifier.verify(cols)
    assert scalar.diagnostics == columnar.diagnostics
    assert scalar.suppressed == columnar.suppressed
    # Any chunking of the same trace through the streaming verifier
    # must merge to the identical report (chunk=1 forces every SPV004
    # hazard window to straddle a chunk boundary).
    for chunk in (1, 3):
        streamed = _verify_streamed(verifier, cols, chunk)
        assert streamed.diagnostics == columnar.diagnostics
        assert streamed.suppressed == columnar.suppressed
    return scalar


def _rules(report):
    return set(report.rule_ids())


class TestGeneratedTraces:
    @_SETTINGS
    @given(offset=st.integers(1, 4096), size=st.integers(1, 32))
    def test_spv001_out_of_bounds(self, offset, size):
        trace = VPCTrace([VPC.tran(TOTAL + offset, BASE, size)])
        report = assert_parity(trace)
        assert "SPV001" in _rules(report)

    @_SETTINGS
    @given(tail=st.integers(1, 3), extra=st.integers(1, 8))
    def test_spv002_subarray_overflow(self, tail, extra):
        start = BASE + CAP - tail
        dest = AMAP.subarray_base(0, 2)
        trace = VPCTrace([VPC.tran(start, dest, tail + extra)])
        report = assert_parity(trace)
        assert "SPV002" in _rules(report)

    @_SETTINGS
    @given(size=st.integers(2, 16), data=st.data())
    def test_spv003_overlapping_src_des(self, size, data):
        shift = data.draw(st.integers(1, size - 1))
        trace = VPCTrace(
            [VPC.add(BASE, BASE + 4 * size, BASE + shift, size)]
        )
        report = assert_parity(trace)
        assert "SPV003" in _rules(report)

    @_SETTINGS
    @given(gap=st.integers(0, 2))
    def test_spv004_pipeline_hazard(self, gap):
        # gap fillers put the dependent compute at distance gap + 1,
        # which stays inside the window-4 hazard scan for gap <= 2.
        filler = [
            VPC.tran(BASE + 256 + 16 * i, BASE + 512 + 16 * i, 4)
            for i in range(gap)
        ]
        trace = VPCTrace(
            [VPC.mul(BASE, BASE + 8, BASE + 16, 4)]
            + filler
            + [VPC.add(BASE + 16, BASE + 32, BASE + 48, 4)]
        )
        report = assert_parity(trace, hazard_window=4)
        assert "SPV004" in _rules(report)

    @_SETTINGS
    @given(offset=st.integers(0, 12))
    def test_spv005_tran_into_operand(self, offset):
        placed = AMAP.subarray_base(0, 1)
        plan = PlacementPlan(policy=PlacementPolicy.DISTRIBUTE)
        plan.matrices["A"] = MatrixHandle(
            name="A",
            rows=1,
            cols=16,
            slices=[(0, 1, placed, 0, 16)],
            result_set=False,
        )
        trace = VPCTrace([VPC.tran(BASE, placed + offset, 4)])
        report = assert_parity(trace, plan=plan)
        assert "SPV005" in _rules(report)

    @_SETTINGS
    @given(overlap=st.integers(1, 8))
    def test_spv006_double_booked_placement(self, overlap):
        placed = AMAP.subarray_base(0, 2)
        plan = PlacementPlan(policy=PlacementPolicy.DISTRIBUTE)
        for name, start in (
            ("A", placed),
            ("B", placed + 16 - overlap),
        ):
            plan.matrices[name] = MatrixHandle(
                name=name,
                rows=1,
                cols=16,
                slices=[(0, 1, start, 0, 16)],
                result_set=False,
            )
        report = assert_parity(VPCTrace(), plan=plan)
        assert "SPV006" in _rules(report)

    @_SETTINGS
    @given(size=st.integers(17, 64))
    def test_spv007_oversized_shift(self, size):
        trace = VPCTrace(
            [VPC.tran(BASE, AMAP.subarray_base(0, 3), size)]
        )
        report = assert_parity(trace, bus=SMALL_BUS)
        assert "SPV007" in _rules(report)

    @_SETTINGS
    @given(
        kinds=st.lists(
            st.sampled_from(["oob", "overflow", "overlap", "clean"]),
            min_size=1,
            max_size=8,
        )
    )
    def test_mixed_traces_stay_in_lockstep(self, kinds):
        vpcs = []
        for slot, kind in enumerate(kinds):
            anchor = BASE + 1024 + 64 * slot
            if kind == "oob":
                vpcs.append(VPC.tran(TOTAL + slot + 1, anchor, 2))
            elif kind == "overflow":
                vpcs.append(
                    VPC.tran(BASE + CAP - 1, anchor, 4)
                )
            elif kind == "overlap":
                vpcs.append(
                    VPC.add(anchor, anchor + 32, anchor + 1, 4)
                )
            else:
                vpcs.append(VPC.tran(anchor, anchor + 32, 4))
        assert_parity(VPCTrace(vpcs))


def _workload_specs():
    from repro.cli import _check_specs

    return [(spec.name, spec) for spec in _check_specs(0.01)]


_SPECS = _workload_specs()


class TestWorkloadDifferential:
    @pytest.mark.parametrize(
        "spec", [s for _, s in _SPECS], ids=[n for n, _ in _SPECS]
    )
    def test_shipped_workloads_identical_diagnostics(self, spec):
        task = spec.build_task()
        cols = task.to_trace()
        verifier = TraceVerifier(
            geometry=task.device.config.geometry,
            plan=task.placement_plan,
        )
        scalar = scalar_verify(verifier, cols, subject=spec.name)
        columnar = verifier.verify(cols, subject=spec.name)
        assert scalar.diagnostics == columnar.diagnostics
        assert scalar.suppressed == columnar.suppressed
        assert scalar.ok(strict=True), scalar.render(strict=True)

    @pytest.mark.parametrize(
        "spec", [s for _, s in _SPECS], ids=[n for n, _ in _SPECS]
    )
    def test_streamed_chunks_match_whole_trace(self, spec):
        # The streamed pipeline's per-chunk SPV gate, merged, must
        # equal the whole-trace report on every shipped workload.
        task = spec.build_task()
        cols = task.to_trace()
        verifier = TraceVerifier(
            geometry=task.device.config.geometry,
            plan=task.placement_plan,
        )
        whole = verifier.verify(cols, subject=spec.name)
        streamed = _verify_streamed(verifier, cols, 64, subject=spec.name)
        assert streamed.diagnostics == whole.diagnostics
        assert streamed.suppressed == whole.suppressed

    @pytest.mark.parametrize(
        "spec",
        [s for n, s in _SPECS if n in ("gemm", "mvt")],
        ids=[n for n, _ in _SPECS if n in ("gemm", "mvt")],
    )
    def test_streamed_fast_rule_subset_matches(self, spec):
        # SPV001+SPV007 alone take the vectorized per-chunk scan in
        # the streaming verifier; it must match the whole-trace result.
        task = spec.build_task()
        cols = task.to_trace()
        verifier = TraceVerifier(
            geometry=task.device.config.geometry,
            rules=("SPV001", "SPV007"),
        )
        whole = verifier.verify(cols)
        streamed = _verify_streamed(verifier, cols, 50)
        assert streamed.diagnostics == whole.diagnostics
        assert streamed.suppressed == whole.suppressed

    @pytest.mark.parametrize(
        "spec",
        [s for n, s in _SPECS if n in ("gemm", "mvt")],
        ids=[n for n, _ in _SPECS if n in ("gemm", "mvt")],
    )
    def test_vectorized_rule_subset_matches(self, spec):
        # SPV001+SPV007 alone take the pure-columnar fast path inside
        # verify; the result must still match the scalar walk.
        task = spec.build_task()
        cols = task.to_trace()
        verifier = TraceVerifier(
            geometry=task.device.config.geometry,
            rules=("SPV001", "SPV007"),
        )
        scalar = scalar_verify(verifier, cols)
        columnar = verifier.verify(cols)
        assert scalar.diagnostics == columnar.diagnostics
