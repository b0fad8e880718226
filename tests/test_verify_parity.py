"""Differential verification: scalar walk vs the columnar scan.

Three layers of evidence that ``TraceVerifier.verify`` and the
whole-trace VPC walk it is held to (``tests/oracles/scalar_verify.py``)
implement the same rule semantics:

* every shipped workload generator, compiled and verified through both
  entry points, must yield identical diagnostics;
* hypothesis-generated traces seeded to trigger each of SPV001-SPV007
  must keep the two paths in lockstep on *dirty* traces too (the
  workload sweep only ever exercises the clean path);
* random dirty traces under any rule subset, hazard window and
  diagnostic cap, fed through random chunk cuts, must match the walk
  finding for finding (``TestConfigurationLockstep``).

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
from repro.isa.vpc import VPC, VPCOpcode  # noqa: E402
from repro.rm.address import AddressMap, DeviceGeometry  # noqa: E402
from repro.verify import StreamingTraceVerifier, TraceVerifier  # noqa: E402
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


def _assert_same_report(actual, expected):
    assert actual.diagnostics == expected.diagnostics
    assert actual.suppressed_by_rule == expected.suppressed_by_rule
    assert actual.ok() == expected.ok()
    assert actual.ok(strict=True) == expected.ok(strict=True)


def _feed_cuts(verifier, cols, cuts):
    """Feed ``cols`` cut at the sorted positions ``cuts`` (repeats give
    empty chunks)."""
    streaming = StreamingTraceVerifier(verifier)
    edges = [0, *cuts, len(cols)]
    for lo, hi in zip(edges, edges[1:]):
        streaming.feed(ColumnarTrace(cols.records[lo:hi]))
    return streaming.finish()


def _operand_plan(*spans, result=None):
    """A plan of one-row operand matrices at ``spans`` (start, length),
    plus an optional result-set matrix at ``result``."""
    plan = PlacementPlan(policy=PlacementPolicy.DISTRIBUTE)
    for number, (start, length) in enumerate(spans):
        name = f"M{number}"
        plan.matrices[name] = MatrixHandle(
            name=name,
            rows=1,
            cols=length,
            slices=[(0, 0, start, 0, length)],
            result_set=False,
        )
    if result is not None:
        plan.matrices["R"] = MatrixHandle(
            name="R",
            rows=1,
            cols=16,
            slices=[(0, 0, result, 0, 16)],
            result_set=True,
        )
    return plan


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


#: The rules the scan implements (SPV008-SPV012 are the deep pass's).
_SCAN_RULES = [f"SPV00{number}" for number in range(1, 8)]

#: Address neighbourhoods where the rules fire: a subarray boundary
#: (SPV002), the end of the device (SPV001) and placed operand rows
#: (SPV005); nearby operands overlap (SPV003) and chain (SPV004).  The
#: device end is drawn least: a range past it exempts its command from
#: the hazard check.
_EDGE = BASE + CAP
_ANCHORS = (_EDGE - 24, _EDGE - 24, _EDGE + 256, _EDGE + 256, TOTAL - 12)

#: Plans: none, disjoint operand spans beside a result set, and
#: double-booked operand spans (SPV006, nested SPV005 spans).
_PLANS = (
    None,
    lambda: _operand_plan(
        (_EDGE - 12, 8), (_EDGE + 256, 12), result=_EDGE + 280
    ),
    lambda: _operand_plan(
        (_EDGE + 250, 30), (_EDGE + 256, 4), (_EDGE + 262, 6)
    ),
)


#: Rules colliding on neighbouring rows: a TRAN hitting SPV002, SPV005
#: and SPV007, then a compute hitting SPV002, SPV003 and SPV004 twice
#: (with an operand span at ``_EDGE - 16`` and 16-word bus segments).
_COLLIDING_VPCS = [
    VPC.mul(BASE, BASE + 64, BASE + 200, 8),
    VPC.add(BASE + 300, BASE + 400, BASE + 200, 4),
    VPC.tran(BASE + 500, _EDGE - 8, 20),
    VPC.add(BASE + 200, _EDGE - 4, BASE + 201, 8),
]


@st.composite
def _dirty_vpc(draw):
    def address():
        return draw(st.sampled_from(_ANCHORS)) + draw(st.integers(0, 40))

    # TRAN twice as likely: it alone can overwrite operands (SPV005).
    opcode = draw(st.sampled_from([VPCOpcode.TRAN, *VPCOpcode]))
    src1 = address()
    src2 = None if opcode is VPCOpcode.TRAN else address()
    return VPC(opcode, src1, src2, address(), draw(st.integers(1, 20)))


class TestConfigurationLockstep:
    """Any rule set, window, cap and chunking against the oracle walk."""

    @settings(max_examples=200, deadline=None)
    @given(
        vpcs=st.lists(_dirty_vpc(), min_size=1, max_size=14),
        rules=st.sets(st.sampled_from(_SCAN_RULES), min_size=1),
        hazard_window=st.sampled_from([1, 2, 3, 4, 8]),
        max_diagnostics=st.integers(1, 5),
        plan=st.sampled_from(range(len(_PLANS))),
        small_bus=st.booleans(),
        data=st.data(),
    )
    def test_rule_window_cap_and_cuts_match_walk(
        self,
        vpcs,
        rules,
        hazard_window,
        max_diagnostics,
        plan,
        small_bus,
        data,
    ):
        make_plan = _PLANS[plan]
        verifier = TraceVerifier(
            geometry=GEOMETRY,
            plan=None if make_plan is None else make_plan(),
            hazard_window=hazard_window,
            rules=sorted(rules),
            max_diagnostics=max_diagnostics,
            bus=SMALL_BUS if small_bus else None,
        )
        trace = VPCTrace(vpcs)
        cols = ColumnarTrace.from_trace(trace)
        oracle = scalar_verify(verifier, trace)
        _assert_same_report(verifier.verify(cols), oracle)
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, len(cols)), max_size=len(cols))
            )
        )
        _assert_same_report(_feed_cuts(verifier, cols, cuts), oracle)

    def test_hazard_straddle_and_overwrite_on_neighbouring_rows(self):
        # SPV004 applies to compute commands only and SPV005 to TRANs
        # only, so the densest collision is a straddling TRAN into
        # placed rows (SPV002 + SPV005 + SPV007) followed, inside one
        # hazard window, by a straddling compute that hazards with two
        # earlier computes (SPV002 + SPV003 + SPV004 twice).
        verifier = TraceVerifier(
            geometry=GEOMETRY,
            plan=_operand_plan((_EDGE - 16, 16)),
            bus=SMALL_BUS,
            max_diagnostics=50,
        )
        trace = VPCTrace(_COLLIDING_VPCS)
        oracle = scalar_verify(verifier, trace)
        by_row = {}
        for diagnostic in oracle.diagnostics:
            by_row.setdefault(diagnostic.index, []).append(
                diagnostic.rule_id
            )
        assert by_row[2] == ["SPV002", "SPV007", "SPV005"]
        assert by_row[3] == ["SPV002", "SPV003", "SPV004", "SPV004"]
        self._assert_every_cut(verifier, trace, oracle)

    @pytest.mark.parametrize("rule", _SCAN_RULES)
    def test_each_rule_alone_matches_walk(self, rule):
        # With one rule enabled, its mask alone decides which rows the
        # explainer sees.  The extra TRANs overwrite a span that starts
        # inside their destination and read past the device's end.
        verifier = TraceVerifier(
            geometry=GEOMETRY,
            plan=_operand_plan((_EDGE - 16, 16), (_EDGE - 16, 4)),
            rules=[rule],
            bus=SMALL_BUS,
        )
        trace = VPCTrace(
            [
                *_COLLIDING_VPCS,
                VPC.tran(BASE + 500, _EDGE - 20, 8),
                VPC.tran(TOTAL - 2, BASE + 600, 4),
            ]
        )
        oracle = scalar_verify(verifier, trace)
        assert rule in _rules(oracle)
        self._assert_every_cut(verifier, trace, oracle)

    @staticmethod
    def _assert_every_cut(verifier, trace, oracle):
        cols = ColumnarTrace.from_trace(trace)
        _assert_same_report(verifier.verify(cols), oracle)
        for cut in range(len(cols) + 1):
            _assert_same_report(_feed_cuts(verifier, cols, [cut]), oracle)
        _assert_same_report(
            _feed_cuts(verifier, cols, list(range(1, len(cols)))), oracle
        )


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
        # SPV001+SPV007 alone (the rule set of a bounds gate) through
        # the per-chunk scan must match the whole-trace result.
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
        # SPV001+SPV007 alone compute only their own masks in the
        # scan; the result must still match the scalar walk.
        task = spec.build_task()
        cols = task.to_trace()
        verifier = TraceVerifier(
            geometry=task.device.config.geometry,
            rules=("SPV001", "SPV007"),
        )
        scalar = scalar_verify(verifier, cols)
        columnar = verifier.verify(cols)
        assert scalar.diagnostics == columnar.diagnostics
