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
and a whole-trace :meth:`TraceVerifier.verify` is one chunk of it.  The
per-VPC walk the scan is held to lives in ``tests/oracles/`` only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.rmbus import RMBusConfig
from repro.isa.columnar import ColumnarTrace
from repro.isa.encoding import BYTE_TO_OPCODE
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


#: Rules whose masks read where ranges start (SPV001/SPV007 need only
#: range ends and sizes).
_START_RULES = frozenset({"SPV002", "SPV003", "SPV004", "SPV005"})


def _overlaps(a_start, a_end, b_start, b_end):
    """Elementwise overlap of half-open ranges (broadcasting)."""
    return (a_start < b_end) & (b_start < a_end)


class TraceVerifier:
    """Checks a trace (and optionally a placement plan) and reports
    every invariant violation as a typed diagnostic.

    The trace rules SPV001–SPV005 and SPV007 run as one columnar scan:
    a boolean row mask per enabled rule, computed with array
    operations, and a per-row explainer that turns only the flagged
    rows into diagnostics.  SPV006 checks the plan alone.

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
        # Operand-set spans a move-VPC must not overwrite (SPV005),
        # sorted, with their starts and ends as search arrays.
        self._operand_spans: List[Tuple[int, int, str]] = (
            sorted(self._placed_spans(plan, False)) if plan is not None else []
        )
        self._span_starts = np.array(
            [span[0] for span in self._operand_spans], dtype=np.int64
        )
        self._span_ends = np.array(
            [span[1] for span in self._operand_spans], dtype=np.int64
        )

    # ------------------------------------------------------------------
    def verify(self, trace, subject: str = "trace") -> VerifyReport:
        """Run every enabled rule over ``trace``; never raises.

        The whole trace is one :class:`StreamingTraceVerifier` chunk.
        """
        if not isinstance(trace, ColumnarTrace):
            trace = ColumnarTrace.from_trace(trace)
        checker = StreamingTraceVerifier(self, subject=subject)
        checker.feed(trace)
        return checker.finish()

    def _scan(self, records, first: int, base: int, emit) -> None:
        """Check rows ``first:`` of ``records`` and emit their findings.

        Row ``k`` is trace command ``base + k``; the rows before
        ``first`` are the trace's previous commands, there only as the
        SPV004 window's history.  Each enabled rule is one boolean mask
        over the rows, so only the enabled rules cost anything.  Only
        flagged rows are explained, one diagnostic at a time, in the
        order a per-VPC walk finds them: range findings (SPV001/SPV002)
        range by range, then SPV007, SPV003, SPV005 and SPV004 — so any
        chunking emits exactly the whole-trace findings.
        """
        cols = ColumnarTrace(records)
        n = len(cols)
        window = self.hazard_window
        check_bounds = self._enabled("SPV001")
        end = cols.operand_ends()
        compute = cols.is_compute
        # Row 1 (the src2 read) exists on compute commands only, so
        # every per-range mask drops it on TRAN rows.
        out = end > self._total_words
        out[1] &= compute
        outside = out[0] | out[1] | out[2]
        flagged = outside if check_bounds else np.zeros(n, bool)
        start = (
            np.stack([cols.src1, cols.src2, cols.des])
            if self.rules is None or self.rules & _START_RULES
            else None
        )
        straddle = big = clash = overwrite = hazard = None
        if self._enabled("SPV002"):
            per = self._words_per_subarray
            straddle = ~out & (start // per != (end - 1) // per)
            straddle[1] &= compute
            flagged = flagged | straddle.any(axis=0)
        if self._enabled("SPV007"):
            big = cols.size > self._segment_words
            flagged = flagged | big
        if self._enabled("SPV003"):
            # Exactly aligned in-place access is well defined: an
            # identity TRAN is a no-op copy (the operand delivery
            # convention for pre-seeded scalars) and an element-aligned
            # in-place ADD/SMUL reads each word before rewriting it.
            # Only partial overlap is undefined per Table II.
            clash = _overlaps(start[:2], end[:2], start[2], end[2]) & (
                (start[:2] != start[2]) | (end[:2] != end[2])
            )
            clash[1] &= compute
            flagged = flagged | clash.any(axis=0)
        if self._enabled("SPV005") and self._operand_spans:
            # Spans are checked from the last one starting at or before
            # the destination: every later span starting inside the
            # destination overlaps it, that last one only if it reaches
            # past the destination's start.
            span_starts, span_ends = self._span_starts, self._span_ends
            pos = np.searchsorted(span_starts, start[2], side="right")
            before = np.maximum(pos - 1, 0)
            overwrite = ~compute & (
                (np.searchsorted(span_starts, end[2]) > pos)
                | (
                    (pos > 0)
                    & (span_starts[before] < end[2])
                    & (span_ends[before] > start[2])
                )
            )
            flagged = flagged | overwrite
        if self._enabled("SPV004") and window > 1:
            # hazard[lag, kind, k]: RAW/WAR/WAW between command k and
            # command k - lag, both in-bounds computes.
            live = compute & ~outside
            hazard = np.zeros((window, 3, n), dtype=bool)
            for lag in range(1, min(window, n)):
                now, then = slice(lag, None), slice(None, n - lag)
                pair = live[now] & live[then]
                hazard[lag, 0, now] = pair & _overlaps(
                    start[:2, now], end[:2, now], start[2, then], end[2, then]
                ).any(axis=0)
                hazard[lag, 1, now] = pair & _overlaps(
                    start[2, now], end[2, now], start[:2, then], end[:2, then]
                ).any(axis=0)
                hazard[lag, 2, now] = pair & _overlaps(
                    start[2, now], end[2, now], start[2, then], end[2, then]
                )
            flagged = flagged | hazard.any(axis=(0, 1))

        for k in (np.flatnonzero(flagged[first:]) + first).tolist():
            index = base + k
            location = f"vpc #{index}"
            name = BYTE_TO_OPCODE[int(cols.opcode[k])].value
            _, src1, src2, des, size = cols.records[k].tolist()
            ranges = list(zip((src1, src2, des), end[:, k].tolist()))
            rows = (0, 1, 2) if compute[k] else (0, 2)
            for row in rows:
                lo, hi = ranges[row]
                if out[row, k]:
                    if check_bounds:
                        emit(
                            make_diagnostic(
                                "SPV001",
                                location,
                                f"{name} range [{lo}, {hi}) exceeds the "
                                f"device's {self._total_words} words",
                                index=index,
                            )
                        )
                elif straddle is not None and straddle[row, k]:
                    emit(
                        make_diagnostic(
                            "SPV002",
                            location,
                            f"{name} range [{lo}, {hi}) crosses a "
                            f"subarray boundary (capacity "
                            f"{self._words_per_subarray} words)",
                            index=index,
                        )
                    )
            if big is not None and big[k]:
                emit(
                    make_diagnostic(
                        "SPV007",
                        location,
                        f"{name} moves {size} words in "
                        f"one commanded shift train, exceeding the "
                        f"bounded segment length of "
                        f"{self._segment_words} words",
                        index=index,
                    )
                )
            des_lo, des_hi = ranges[2]
            if clash is not None:
                for row in rows[:-1]:
                    if clash[row, k]:
                        lo, hi = ranges[row]
                        emit(
                            make_diagnostic(
                                "SPV003",
                                location,
                                f"{name} source [{lo}, {hi}) overlaps "
                                f"destination [{des_lo}, {des_hi})",
                                index=index,
                            )
                        )
            if overwrite is not None and overwrite[k]:
                pos = int(
                    np.searchsorted(self._span_starts, des_lo, side="right")
                )
                for lo, hi, matrix in self._operand_spans[max(0, pos - 1):]:
                    if lo >= des_hi:
                        break
                    if hi > des_lo:
                        emit(
                            make_diagnostic(
                                "SPV005",
                                location,
                                f"TRAN destination [{des_lo}, {des_hi}) "
                                f"overwrites placed rows of operand "
                                f"matrix {matrix!r} ([{lo}, {hi}))",
                                index=index,
                            )
                        )
            if hazard is not None:
                # Oldest partner first, as the pipeline issued them.
                for lag in range(window - 1, 0, -1):
                    kinds = [
                        kind
                        for kind, hit in zip(
                            ("RAW", "WAR", "WAW"), hazard[lag, :, k]
                        )
                        if hit
                    ]
                    if kinds:
                        emit(
                            make_diagnostic(
                                "SPV004",
                                location,
                                f"{'/'.join(kinds)} hazard with compute "
                                f"vpc #{index - lag} ({lag} apart, "
                                f"pipeline depth {window})",
                                index=index,
                            )
                        )

    # ------------------------------------------------------------------
    def _enabled(self, rule_id: str) -> bool:
        return self.rules is None or rule_id in self.rules

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
    last ``hazard_window - 1`` trace rows that SPV004 compares the next
    chunk against — so the merged findings after :meth:`finish` are
    exactly (same diagnostics, same order, same suppressed tallies)
    what one whole-trace pass over the concatenated chunks produces.

    Plan-level diagnostics (SPV006 double booking) are emitted once, up
    front, before any chunk's.  Every chunk goes through the one
    columnar scan, whatever the rule set; the per-VPC walk it is held
    to is the test oracle ``tests/oracles/scalar_verify.py``.
    """

    def __init__(
        self, verifier: TraceVerifier, subject: str = "trace"
    ) -> None:
        self.verifier = verifier
        self.report = VerifyReport(
            subject=subject, max_diagnostics=verifier.max_diagnostics
        )
        self.offset = 0
        self._history_rows = (
            verifier.hazard_window - 1 if verifier._enabled("SPV004") else 0
        )
        self._history = None
        self._finished = False
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
        if len(cols) == 0:
            return self.report
        records = cols.records
        if self._history is not None:
            records = np.concatenate([self._history, records])
        first = len(records) - len(cols)
        self.verifier._scan(
            records, first, self.offset - first, self.report.emit
        )
        if self._history_rows:
            self._history = records[-self._history_rows :].copy()
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
