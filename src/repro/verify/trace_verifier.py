"""Static verification of VPC traces and placement plans.

The trace executors assume invariants that nothing used to check: VPC
operand ranges stay inside the device and inside one subarray (section
IV-C places every vector operand in a single subarray), source and
destination ranges of one VPC do not overlap (undefined per Table II),
dependent compute VPCs are not issued closer together than the RM
processor's pipeline window, move-VPCs never overwrite placed operand
rows, and a placement plan never books the same subarray words twice.

:class:`TraceVerifier` checks all of that in one O(#VPC) pass over a
trace (plus an optional placement plan) and reports typed
:class:`~repro.verify.diagnostics.Diagnostic` objects — milliseconds
instead of a simulation run, so bad workload generators and bad
placements are caught before (or instead of) execution.  The pass is
chunked: :class:`StreamingTraceVerifier` carries the cross-chunk state,
and a whole-trace :meth:`TraceVerifier.verify` is one chunk of it.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.rmbus import RMBusConfig
from repro.isa.vpc import VPC, VPCOpcode
from repro.rm.address import AddressMap, DeviceGeometry
from repro.verify.diagnostics import (
    TRACE_RULES,
    Severity,
    VerifyReport,
    make_diagnostic,
    validate_rule_ids,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports us)
    from repro.core.placement import PlacementPlan

#: Default hazard window: the RM processor pipeline is four stages deep
#: (Fig. 11), so up to four in-flight VPCs can overlap execution.
DEFAULT_HAZARD_WINDOW = 4

#: Interval: half-open [start, end) word-address range plus an access tag.
_Interval = Tuple[int, int]


class TraceVerificationError(RuntimeError):
    """Raised when a trace fails pre-execution verification."""

    def __init__(self, report: VerifyReport) -> None:
        self.report = report
        summary = "; ".join(d.render().splitlines()[0] for d in report.errors[:3])
        extra = (
            len(report.errors)
            - 3
            + report.suppressed_count(Severity.ERROR)
        )
        if extra > 0:
            summary += f"; and {extra} more"
        super().__init__(f"trace verification failed: {summary}")


def _overlap(a: _Interval, b: _Interval) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def _vpc_reads(vpc: VPC) -> List[_Interval]:
    if vpc.opcode is VPCOpcode.TRAN:
        return [(vpc.src1, vpc.src1 + vpc.size)]
    if vpc.opcode is VPCOpcode.SMUL:
        # src1 is the scalar: one word.
        return [
            (vpc.src1, vpc.src1 + 1),
            (vpc.src2, vpc.src2 + vpc.size),
        ]
    return [
        (vpc.src1, vpc.src1 + vpc.size),
        (vpc.src2, vpc.src2 + vpc.size),
    ]


def _vpc_writes(vpc: VPC) -> List[_Interval]:
    if vpc.opcode is VPCOpcode.MUL:
        # A dot product reduces to a single result word.
        return [(vpc.des, vpc.des + 1)]
    return [(vpc.des, vpc.des + vpc.size)]


class TraceVerifier:
    """Walks a trace (and optionally a placement plan) and reports
    every invariant violation as a typed diagnostic.

    Args:
        geometry: device geometry the trace targets (defaults to the
            paper's Table III device).
        plan: optional placement plan; enables the placement rules
            (SPV005 operand overwrite, SPV006 double booking).
        hazard_window: pipeline depth in VPCs; two dependent compute
            VPCs fewer than this many trace positions apart overlap in
            the processor pipeline and hazard (default: the four-stage
            pipeline depth, so distance >= 4 is hazard-free).
        rules: restrict checking to these rule IDs (None = all).
        max_diagnostics: stop recording past this many findings (the
            rest are tallied by rule and still fail the report).
        bus: RM-bus configuration supplying the bounded per-segment
            length for SPV007 (defaults to the paper's segmented bus).
    """

    def __init__(
        self,
        geometry: Optional[DeviceGeometry] = None,
        plan: Optional["PlacementPlan"] = None,
        hazard_window: int = DEFAULT_HAZARD_WINDOW,
        rules: Optional[Sequence[str]] = None,
        max_diagnostics: int = 500,
        bus: Optional["RMBusConfig"] = None,
    ) -> None:
        if hazard_window < 1:
            raise ValueError(
                f"hazard_window must be >= 1, got {hazard_window}"
            )
        if max_diagnostics < 1:
            raise ValueError(
                f"max_diagnostics must be >= 1, got {max_diagnostics}"
            )
        self.geometry = geometry or DeviceGeometry()
        self.address_map = AddressMap(self.geometry)
        self.plan = plan
        self.hazard_window = hazard_window
        # Unknown IDs would silently disable every check (a typo like
        # "SPV08" matches nothing), so reject them up front.
        self.rules = validate_rule_ids(rules, TRACE_RULES)
        self.max_diagnostics = max_diagnostics
        # Geometry-derived bounds are fixed for the verifier's lifetime;
        # cache them so repeated verify() calls don't re-derive them.
        self._total_words = self.address_map.total_words
        self._words_per_subarray = self.address_map.words_per_subarray
        self.bus = bus or RMBusConfig()
        self._segment_words = self.bus.words_per_segment
        self._operand_spans: List[Tuple[int, int, str]] = []
        self._operand_starts: List[int] = []
        if plan is not None:
            self._operand_spans = sorted(self._placed_spans(plan, False))
            self._operand_starts = [s[0] for s in self._operand_spans]

    # ------------------------------------------------------------------
    def verify(self, trace, subject: str = "trace") -> VerifyReport:
        """Run every enabled rule over ``trace``; never raises.

        The whole trace is one :class:`StreamingTraceVerifier` chunk,
        so the vectorized fast path applies whenever the rule set
        allows it.
        """
        from repro.isa.columnar import ColumnarTrace

        if not isinstance(trace, ColumnarTrace):
            trace = ColumnarTrace.from_trace(trace)
        checker = StreamingTraceVerifier(self, subject=subject)
        checker.feed(trace)
        return checker.finish()

    def _scan_vpcs(
        self,
        trace,
        emit,
        offset: int,
        recent: List[Tuple[int, List[_Interval], List[_Interval]]],
    ) -> List[Tuple[int, List[_Interval], List[_Interval]]]:
        """Per-VPC rule scan over one (chunk of a) trace.

        ``offset`` is the global trace index of ``trace``'s first
        command and ``recent`` the SPV004 hazard ring carried in from
        the previous chunk — feeding a trace as consecutive chunks
        through this scan emits exactly the diagnostics one whole-trace
        scan emits.  Returns the ring to carry into the next chunk.
        """
        total_words = self._total_words
        words_per_subarray = self._words_per_subarray
        for index, vpc in enumerate(trace, start=offset):
            reads = _vpc_reads(vpc)
            writes = _vpc_writes(vpc)
            location = f"vpc #{index}"
            in_bounds = True
            for start, end in reads + writes:
                if end > total_words:
                    in_bounds = False
                    if self._enabled("SPV001"):
                        emit(
                            make_diagnostic(
                                "SPV001",
                                location,
                                f"{vpc.opcode.value} range [{start}, {end}) "
                                f"exceeds the device's {total_words} words",
                                index=index,
                            )
                        )
                elif (
                    start // words_per_subarray
                    != (end - 1) // words_per_subarray
                    and self._enabled("SPV002")
                ):
                    emit(
                        make_diagnostic(
                            "SPV002",
                            location,
                            f"{vpc.opcode.value} range [{start}, {end}) "
                            f"crosses a subarray boundary (capacity "
                            f"{words_per_subarray} words)",
                            index=index,
                        )
                    )
            if (
                self._enabled("SPV007")
                and vpc.size > self._segment_words
            ):
                emit(
                    make_diagnostic(
                        "SPV007",
                        location,
                        f"{vpc.opcode.value} moves {vpc.size} words in "
                        f"one commanded shift train, exceeding the "
                        f"bounded segment length of "
                        f"{self._segment_words} words",
                        index=index,
                    )
                )
            if self._enabled("SPV003"):
                for diagnostic in self._check_overlap(
                    vpc, reads, writes, index
                ):
                    emit(diagnostic)
            if (
                self._enabled("SPV005")
                and vpc.opcode is VPCOpcode.TRAN
                and self._operand_spans
            ):
                for diagnostic in self._check_operand_overwrite(
                    writes[0], index
                ):
                    emit(diagnostic)
            if self._enabled("SPV004") and in_bounds:
                if vpc.is_compute:
                    for diagnostic in self._check_hazards(
                        index, reads, writes, recent
                    ):
                        emit(diagnostic)
                    recent.append((index, reads, writes))
                # Drop entries outside the window for the *next* VPC.
                recent = [
                    entry
                    for entry in recent
                    if index + 1 - entry[0] < self.hazard_window
                ]
        return recent

    # ------------------------------------------------------------------
    def _scan_columnar_fast(self, cols, emit, offset: int) -> None:
        """Vectorized SPV001/SPV007 scan over one (chunk of a) trace.

        ``offset`` is the global trace index of ``cols[0]``; emitted
        diagnostics carry whole-trace indices, so per-chunk scans merge
        into exactly the whole-trace result.
        """
        import numpy as np

        if len(cols) == 0:
            return
        from repro.isa.columnar import MUL_BYTE, SMUL_BYTE

        total_words = self._total_words
        opcode = cols.opcode
        size = cols.size
        compute = cols.is_compute
        no_rows = np.zeros(len(cols), dtype=bool)
        if "SPV001" in self.rules:
            # Range ends in the VPC walk's order: reads then writes.
            read1_end = cols.src1 + np.where(opcode == SMUL_BYTE, 1, size)
            read2_end = cols.src2 + size  # meaningful on compute rows
            write_end = cols.des + np.where(opcode == MUL_BYTE, 1, size)
            bad_bounds = (
                (read1_end > total_words)
                | (compute & (read2_end > total_words))
                | (write_end > total_words)
            )
        else:
            bad_bounds = no_rows
        if "SPV007" in self.rules:
            bad_segment = size > self._segment_words
        else:
            bad_segment = no_rows
        bad = bad_bounds | bad_segment
        if not bad.any():
            return

        for local in np.flatnonzero(bad).tolist():
            vpc = cols[local]
            index = offset + local
            if bad_bounds[local]:
                for start, end in _vpc_reads(vpc) + _vpc_writes(vpc):
                    if end <= total_words:
                        continue
                    emit(
                        make_diagnostic(
                            "SPV001",
                            f"vpc #{index}",
                            f"{vpc.opcode.value} range [{start}, {end}) "
                            f"exceeds the device's {total_words} words",
                            index=index,
                        )
                    )
            if bad_segment[local]:
                emit(
                    make_diagnostic(
                        "SPV007",
                        f"vpc #{index}",
                        f"{vpc.opcode.value} moves {vpc.size} words in "
                        f"one commanded shift train, exceeding the "
                        f"bounded segment length of "
                        f"{self._segment_words} words",
                        index=index,
                    )
                )

    # ------------------------------------------------------------------
    def _enabled(self, rule_id: str) -> bool:
        return self.rules is None or rule_id in self.rules

    def _check_overlap(
        self,
        vpc: VPC,
        reads: List[_Interval],
        writes: List[_Interval],
        index: int,
    ):
        for read in reads:
            for write in writes:
                if read == write:
                    # Exactly aligned in-place access is well defined:
                    # an identity TRAN is a no-op copy (the operand
                    # delivery convention for pre-seeded scalars) and an
                    # element-aligned in-place ADD/SMUL reads each word
                    # before rewriting it.  Only partial overlap is
                    # undefined per Table II.
                    continue
                if _overlap(read, write):
                    yield make_diagnostic(
                        "SPV003",
                        f"vpc #{index}",
                        f"{vpc.opcode.value} source [{read[0]}, {read[1]}) "
                        f"overlaps destination [{write[0]}, {write[1]})",
                        index=index,
                    )

    def _check_hazards(
        self,
        index: int,
        reads: List[_Interval],
        writes: List[_Interval],
        recent: List[Tuple[int, List[_Interval], List[_Interval]]],
    ):
        for prev_index, prev_reads, prev_writes in recent:
            # With a `hazard_window`-deep pipeline, VPCs a full window
            # apart no longer overlap: the older one has drained.
            if index - prev_index >= self.hazard_window:
                continue
            kinds = []
            if any(
                _overlap(r, w) for r in reads for w in prev_writes
            ):
                kinds.append("RAW")
            if any(
                _overlap(w, r) for w in writes for r in prev_reads
            ):
                kinds.append("WAR")
            if any(
                _overlap(w, pw) for w in writes for pw in prev_writes
            ):
                kinds.append("WAW")
            if kinds:
                yield make_diagnostic(
                    "SPV004",
                    f"vpc #{index}",
                    f"{'/'.join(kinds)} hazard with compute vpc "
                    f"#{prev_index} ({index - prev_index} apart, "
                    f"pipeline depth {self.hazard_window})",
                    index=index,
                )

    def _check_operand_overwrite(self, write: _Interval, index: int):
        start, end = write
        pos = bisect.bisect_right(self._operand_starts, start)
        # The span just before `pos` may straddle `start`.
        for span_start, span_end, name in self._operand_spans[
            max(0, pos - 1):
        ]:
            if span_start >= end:
                break
            if _overlap((start, end), (span_start, span_end)):
                yield make_diagnostic(
                    "SPV005",
                    f"vpc #{index}",
                    f"TRAN destination [{start}, {end}) overwrites "
                    f"placed rows of operand matrix {name!r} "
                    f"([{span_start}, {span_end}))",
                    index=index,
                )

    # ------------------------------------------------------------------
    @staticmethod
    def _placed_handles(plan: "PlacementPlan", include_results: bool = True):
        """Every placed handle of ``plan``, each mirror after its
        primary; result-set handles only with ``include_results``."""
        for handle in plan.matrices.values():
            for item in (handle, handle.mirror):
                if item is not None and (
                    include_results or not item.result_set
                ):
                    yield item

    @staticmethod
    def _placed_spans(
        plan: "PlacementPlan", include_results: bool
    ) -> List[Tuple[int, int, str]]:
        """(start, end, matrix) spans of placed row slices.

        With ``include_results`` False, only operand-set matrices (and
        their mirrors) are listed — the data a move-VPC must never
        overwrite.
        """
        spans: List[Tuple[int, int, str]] = []
        for item in TraceVerifier._placed_handles(plan, include_results):
            for _, _, address, _, length in item.slices.tolist():
                spans.append((address, address + length, item.name))
        return spans

    def _check_plan(self, plan: "PlacementPlan"):
        """SPV006: no two row slices may claim the same words."""
        if not self._enabled("SPV006"):
            return
        by_subarray: Dict[
            Tuple[int, int], List[Tuple[int, int, str]]
        ] = {}
        for item in self._placed_handles(plan):
            for bank, sub, address, _, length in item.slices.tolist():
                by_subarray.setdefault((bank, sub), []).append(
                    (address, address + length, item.name)
                )
        for key, spans in sorted(by_subarray.items()):
            spans.sort()
            for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
                if s1 < e0:
                    yield make_diagnostic(
                        "SPV006",
                        f"placement {key}",
                        f"matrices {n0!r} and {n1!r} both claim words "
                        f"[{s1}, {min(e0, e1)}) of subarray {key}",
                    )


class StreamingTraceVerifier:
    """Per-chunk verification with whole-trace-identical findings.

    The streamed compile/execute pipeline verifies each
    :class:`~repro.isa.columnar.ColumnarTrace` chunk before it
    executes, and :meth:`TraceVerifier.verify` feeds a whole trace as
    one chunk.  This class keeps the cross-chunk state — one report,
    one ``max_diagnostics`` budget, the global command index, and the
    SPV004 hazard ring — so the merged findings after :meth:`finish`
    are exactly (same diagnostics, same order, same suppressed
    tallies) what one whole-trace pass over the concatenated chunks
    produces.

    Plan-level diagnostics (SPV005 placement spans are per-VPC; SPV006
    double booking is plan-only) are emitted once, up front, matching
    the whole-trace pass's plan-first ordering.  When the wrapped
    verifier's rule set is within the vectorized subset
    ({SPV001, SPV007}), each chunk is scanned with the bulk array fast
    path; any broader rule set walks the chunk's VPCs.
    """

    def __init__(
        self, verifier: TraceVerifier, subject: str = "trace"
    ) -> None:
        self.verifier = verifier
        self.report = VerifyReport(
            subject=subject, max_diagnostics=verifier.max_diagnostics
        )
        self.offset = 0
        self._recent: List[
            Tuple[int, List[_Interval], List[_Interval]]
        ] = []
        self._finished = False
        self._fast = verifier.rules is not None and verifier.rules <= {
            "SPV001",
            "SPV007",
        }
        if verifier.plan is not None:
            for diagnostic in verifier._check_plan(verifier.plan):
                self.report.emit(diagnostic)

    def feed(self, cols) -> VerifyReport:
        """Verify the next chunk; returns the (running) report.

        The report accumulates across chunks, so ``feed(...).ok()``
        fails as soon as any chunk (or the plan) produced an error —
        the streamed executor uses that to stop before executing a bad
        chunk.
        """
        if self._finished:
            raise RuntimeError("verification already finished")
        if self._fast:
            self.verifier._scan_columnar_fast(
                cols, self.report.emit, self.offset
            )
        else:
            self._recent = self.verifier._scan_vpcs(
                cols, self.report.emit, self.offset, self._recent
            )
        self.offset += len(cols)
        return self.report

    def finish(self) -> VerifyReport:
        """Seal the pass and return the merged report."""
        self._finished = True
        return self.report


def verify_trace(
    trace,
    geometry: Optional[DeviceGeometry] = None,
    plan: Optional["PlacementPlan"] = None,
    hazard_window: int = DEFAULT_HAZARD_WINDOW,
    rules: Optional[Sequence[str]] = None,
    subject: str = "trace",
    bus: Optional["RMBusConfig"] = None,
) -> VerifyReport:
    """One-shot convenience wrapper around :class:`TraceVerifier`."""
    verifier = TraceVerifier(
        geometry=geometry,
        plan=plan,
        hazard_window=hazard_window,
        rules=rules,
        bus=bus,
    )
    return verifier.verify(trace, subject=subject)
