"""Whole-trace VPC walk of a :class:`~repro.verify.TraceVerifier`.

Always walks one VPC at a time, plan rules first — the reference the
columnar scan and every chunking of the streamed scan must reproduce
exactly (diagnostics, order, suppressed tallies).  The walk is the
verifier's former per-VPC scan, kept verbatim: it reads only the
verifier's configuration (rules, window, bounds, bus, plan spans) and
calls none of its scan code.
"""

from __future__ import annotations

import bisect
from typing import List, Tuple

from repro.isa.vpc import VPC, VPCOpcode
from repro.verify.diagnostics import VerifyReport, make_diagnostic

#: Interval: half-open [start, end) word-address range.
_Interval = Tuple[int, int]


def verify(verifier, trace, subject: str = "trace") -> VerifyReport:
    """Run ``verifier``'s enabled rules over ``trace`` VPC by VPC."""
    report = VerifyReport(
        subject=subject, max_diagnostics=verifier.max_diagnostics
    )
    if verifier.plan is not None:
        for diagnostic in verifier._check_plan(verifier.plan):
            report.emit(diagnostic)
    _Walk(verifier)._scan_vpcs(trace, report.emit, 0, [])
    return report


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


class _Walk:
    """The per-VPC rule walk over one verifier's configuration."""

    def __init__(self, verifier) -> None:
        self.rules = verifier.rules
        self.hazard_window = verifier.hazard_window
        self._total_words = verifier.address_map.total_words
        self._words_per_subarray = verifier.address_map.words_per_subarray
        self._segment_words = verifier.bus.words_per_segment
        self._operand_spans: List[Tuple[int, int, str]] = []
        self._operand_starts: List[int] = []
        if verifier.plan is not None:
            self._operand_spans = sorted(
                verifier._placed_spans(verifier.plan, False)
            )
            self._operand_starts = [s[0] for s in self._operand_spans]

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
