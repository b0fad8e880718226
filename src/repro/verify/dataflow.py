"""Whole-trace dataflow analysis over columnar traces.

The per-VPC rules (SPV001-007) are local: each command is checked in
isolation (plus a small hazard window).  This module analyses the whole
program at once.  It builds a *def-use index* — every access to every
touched address segment, in trace order — directly from a
:class:`~repro.isa.columnar.ColumnarTrace`'s columns, seeded from the
placement plan's initialised regions, and runs the deep rules on top:

* **SPV008** uninitialised read — an operand read with no prior writer
  and no placement init.
* **SPV009** dead store — a written range never read before being
  overwritten or falling off the end of the trace.
* **SPV010** schedule-aware race — delegated to
  :mod:`repro.verify.races`, built on the scheduler's dependency
  relation.
* **SPV011** scratch-slot leak — scratch words written but never
  consumed or recycled before end-of-trace.
* **SPV012** redundant copy — a TRAN whose source bytes are provably
  already resident at the destination (an optimisation hint).

Index construction is loop-free over commands: access intervals come
from :meth:`~repro.isa.columnar.ColumnarTrace.read_intervals` /
:meth:`write_intervals`, interval endpoints are coordinate-compressed
into elementary *segments* (``np.unique``), each access is expanded to
its covered segments with ``np.repeat`` arithmetic, and one ``lexsort``
orders all (segment, command) access pairs so that per-segment def-use
chains fall out of prefix sums and neighbour comparisons.  Python loops
touch only findings and copy candidates, never the command stream.

Without a placement plan (raw trace files) the pass degrades
gracefully: SPV008 and SPV011 need the initialised/placed regions and
are skipped, and SPV009 only fires on overwritten-before-read stores
(end-of-trace liveness is unknown).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import NULL_REGISTRY
from repro.rm.address import AddressMap, DeviceGeometry
from repro.verify.diagnostics import (
    ALL_RULES,
    DATAFLOW_RULES,
    VerifyReport,
    make_diagnostic,
    validate_rule_ids,
)

#: Half-open [start, end) word range.
_Interval = Tuple[int, int]


class DataflowIndex:
    """Def-use index of one columnar trace.

    Access *events* are the union of every command's read/write
    intervals plus two pseudo generations: placement-initialised
    regions enter as writes at position ``-1`` and live-out regions
    (everything ``fetch_results`` reads back) as reads at position
    ``n_commands``.  Interval endpoints are coordinate-compressed into
    elementary segments; all per-segment chains are precomputed as
    arrays, so rule passes and queries never walk the command stream.
    """

    def __init__(
        self,
        cols,
        init_intervals: Optional[Sequence[_Interval]] = None,
        liveout_intervals: Optional[Sequence[_Interval]] = None,
    ) -> None:
        self.n_commands = n = len(cols)
        #: Whether end-of-trace liveness is known (a plan was supplied).
        self.liveout_known = liveout_intervals is not None
        self.init_known = init_intervals is not None

        read_idx, read_start, read_end = cols.read_intervals()
        write_idx, write_start, write_end = cols.write_intervals()
        idx_parts = [read_idx, write_idx]
        start_parts = [read_start, write_start]
        end_parts = [read_end, write_end]
        write_parts = [
            np.zeros(len(read_idx), dtype=bool),
            np.ones(len(write_idx), dtype=bool),
        ]
        for intervals, position, as_write in (
            (init_intervals, -1, True),
            (liveout_intervals, n, False),
        ):
            if not intervals:
                continue
            starts = np.array([s for s, _ in intervals], dtype=np.int64)
            ends = np.array([e for _, e in intervals], dtype=np.int64)
            keep = ends > starts
            starts, ends = starts[keep], ends[keep]
            idx_parts.append(np.full(len(starts), position, dtype=np.int64))
            start_parts.append(starts)
            end_parts.append(ends)
            write_parts.append(np.full(len(starts), as_write, dtype=bool))

        #: One row per access event (reads, writes, pseudo generations).
        self.ev_idx = np.concatenate(idx_parts)
        self.ev_start = np.concatenate(start_parts)
        self.ev_end = np.concatenate(end_parts)
        self.ev_write = np.concatenate(write_parts)

        if len(self.ev_idx) == 0:
            self.bounds = np.empty(0, dtype=np.int64)
        else:
            self.bounds = np.unique(
                np.concatenate([self.ev_start, self.ev_end])
            )

        # Expand events to (event, segment) pairs without a Python loop:
        # each event covers the consecutive segment ids
        # [searchsorted(start), searchsorted(end)).
        seg_lo = np.searchsorted(self.bounds, self.ev_start)
        seg_hi = np.searchsorted(self.bounds, self.ev_end)
        counts = seg_hi - seg_lo
        pair_ev = np.repeat(
            np.arange(len(self.ev_idx), dtype=np.int64), counts
        )
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pair_seg = (
            np.repeat(seg_lo - offsets, counts)
            + np.arange(int(counts.sum()), dtype=np.int64)
        )

        # Segment-major order; within a segment by trace position, with
        # reads sorted before writes at equal position (an in-place
        # compute reads its words before rewriting them).  Pairs with
        # identical (segment, position, kind) are interchangeable, so a
        # single packed key sorted with the default introsort replaces
        # the 3-key stable lexsort — substantially faster at the
        # hundreds-of-thousands-of-pairs scale real traces produce.
        p_idx = self.ev_idx[pair_ev]
        p_write = self.ev_write[pair_ev]
        n_segments = max(len(self.bounds) - 1, 0)
        stride = 2 * (n + 2)
        if n_segments * stride < (1 << 62):
            key = (
                pair_seg * stride
                + (p_idx + 1) * 2
                + p_write
            )
            order = np.argsort(key)
        else:  # pragma: no cover - traces beyond the packed-key range
            order = np.lexsort((p_write, p_idx, pair_seg))
        self.pair_ev = pair_ev[order]
        self.pair_seg = pair_seg[order]
        self.p_idx = p_idx[order]
        self.p_write = p_write[order]

        total = len(self.pair_ev)
        self.new_group = np.empty(total, dtype=bool)
        if total:
            self.new_group[0] = True
            self.new_group[1:] = self.pair_seg[1:] != self.pair_seg[:-1]
        group_start = np.flatnonzero(self.new_group)
        group_sizes = np.diff(np.concatenate((group_start, [total])))

        # Writes strictly before each pair within its segment.
        wcum = np.cumsum(self.p_write.astype(np.int64))
        before = wcum - self.p_write
        if total:
            base = before[group_start]
            self.writes_before = before - np.repeat(base, group_sizes)
        else:
            self.writes_before = before

        # Whether the pair after each pair stays in the same segment,
        # and whether that successor is a write — the "next access"
        # relation every liveness rule reads.
        self.next_same_group = np.zeros(total, dtype=bool)
        self.next_is_write = np.zeros(total, dtype=bool)
        if total:
            self.next_same_group[:-1] = ~self.new_group[1:]
            self.next_is_write[:-1] = self.p_write[1:]

        # Per-segment real-write positions (sorted by segment, then
        # position) for windowed "any write in (i, j)?" queries.
        real = (self.p_idx >= 0) & (self.p_idx < n)
        sel = self.p_write & real
        self.wp_seg = self.pair_seg[sel]
        self.wp_idx = self.p_idx[sel]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _segment_range(self, start: int, end: int) -> Tuple[int, int]:
        """Ids of the segments intersecting ``[start, end)``."""
        lo = int(np.searchsorted(self.bounds, start, side="right")) - 1
        hi = int(np.searchsorted(self.bounds, end, side="left"))
        return max(lo, 0), min(hi, max(len(self.bounds) - 1, 0))

    def segment_bounds(self, segment: int) -> _Interval:
        return int(self.bounds[segment]), int(self.bounds[segment + 1])

    def any_write_between(
        self, start: int, end: int, after: int, before: int
    ) -> bool:
        """Whether any command in positions ``(after, before)`` (both
        exclusive) writes a word of ``[start, end)``."""
        lo, hi = self._segment_range(start, end)
        for segment in range(lo, hi):
            left = int(np.searchsorted(self.wp_seg, segment, side="left"))
            right = int(
                np.searchsorted(self.wp_seg, segment, side="right")
            )
            window = self.wp_idx[left:right]
            pos_lo = int(np.searchsorted(window, after, side="right"))
            pos_hi = int(np.searchsorted(window, before, side="left"))
            if pos_hi > pos_lo:
                return True
        return False


class DataflowAnalyzer:
    """Runs the deep (whole-trace) rules over a columnar trace.

    Args:
        geometry: device geometry (defaults to the paper's Table III
            device); provides the subarray width the race rule needs.
        plan: optional placement plan of the trace; seeds the index with
            the initialised regions and enables the plan-dependent rules
            (SPV008 init state, SPV011 scratch classification, live-out
            reads for SPV009).
        scalar_slots: ``{address: name}`` scalar-slot words seeded by
            ``materialize()`` (see
            :attr:`repro.core.task.PimTask.trace_scalar_slots`).
        rules: restrict to these rule IDs (subset of
            :data:`~repro.verify.diagnostics.DATAFLOW_RULES`; None =
            all).
        max_diagnostics: recording cap, as in ``TraceVerifier``.
        registry: metrics registry receiving the ``dataflow.*`` family
            (timings, index sizes, finding counts); defaults to the
            no-op registry.
    """

    def __init__(
        self,
        geometry: Optional[DeviceGeometry] = None,
        plan=None,
        scalar_slots: Optional[Dict[int, object]] = None,
        rules: Optional[Sequence[str]] = None,
        max_diagnostics: int = 500,
        registry=None,
    ) -> None:
        if max_diagnostics < 1:
            raise ValueError(
                f"max_diagnostics must be >= 1, got {max_diagnostics}"
            )
        self.geometry = geometry or DeviceGeometry()
        self.address_map = AddressMap(self.geometry)
        self.plan = plan
        self.scalar_slots = dict(scalar_slots or {})
        self.rules = validate_rule_ids(
            rules, {r: ALL_RULES[r] for r in DATAFLOW_RULES}
        )
        self.max_diagnostics = max_diagnostics
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._placed: Optional[List[Tuple[int, int, str]]] = None
        if plan is not None:
            from repro.verify.trace_verifier import TraceVerifier

            spans = TraceVerifier._placed_spans(plan, True)
            spans += [
                (address, address + 1, f"scalar slot {name!r}")
                for address, name in sorted(self.scalar_slots.items())
            ]
            self._placed = spans

    # ------------------------------------------------------------------
    def _enabled(self, rule_id: str) -> bool:
        return self.rules is None or rule_id in self.rules

    def build_index(self, cols) -> DataflowIndex:
        """The def-use index this analyzer's rules run on."""
        intervals = None
        if self._placed is not None:
            intervals = [(start, end) for start, end, _ in self._placed]
        return DataflowIndex(
            cols, init_intervals=intervals, liveout_intervals=intervals
        )

    def analyze(self, cols, subject: str = "trace") -> VerifyReport:
        """Run every enabled deep rule over ``cols``; never raises."""
        started = time.perf_counter_ns()
        report = VerifyReport(
            subject=subject, max_diagnostics=self.max_diagnostics
        )
        emit = report.emit
        index = self.build_index(cols)
        if self._enabled("SPV008") and index.init_known:
            self._check_uninitialized_reads(cols, index, emit)
        if self._enabled("SPV009") or self._enabled("SPV011"):
            self._check_dead_stores(cols, index, emit)
        if self._enabled("SPV010"):
            from repro.verify.races import check_races

            check_races(cols, self.address_map, index, emit)
        if self._enabled("SPV012"):
            self._check_redundant_copies(cols, index, emit)

        registry = self.registry
        registry.counter("dataflow.analyses").inc()
        registry.counter("dataflow.commands").inc(len(cols))
        registry.counter("dataflow.access_events").inc(len(index.ev_idx))
        registry.counter("dataflow.segments").inc(
            max(len(index.bounds) - 1, 0)
        )
        for rule_id in sorted(DATAFLOW_RULES):
            count = len(report.by_rule(rule_id))
            if count:
                registry.counter(f"dataflow.findings.{rule_id}").inc(count)
        registry.gauge("dataflow.analyze_ns").set(
            float(time.perf_counter_ns() - started)
        )
        return report

    # ------------------------------------------------------------------
    # SPV008: uninitialised read
    # ------------------------------------------------------------------
    def _check_uninitialized_reads(self, cols, index, emit) -> None:
        n = index.n_commands
        real = (index.p_idx >= 0) & (index.p_idx < n)
        bad = ~index.p_write & real & (index.writes_before == 0)
        if not bad.any():
            return
        # One diagnostic per offending read access, citing its first
        # uninitialised segment.
        first_bad: Dict[int, int] = {}
        for pair in np.flatnonzero(bad).tolist():
            first_bad.setdefault(
                int(index.pair_ev[pair]), int(index.pair_seg[pair])
            )
        for event in sorted(first_bad, key=lambda e: int(index.ev_idx[e])):
            position = int(index.ev_idx[event])
            seg_start, seg_end = index.segment_bounds(first_bad[event])
            vpc = cols[position]
            emit(
                make_diagnostic(
                    "SPV008",
                    f"vpc #{position}",
                    f"{vpc.opcode.value} reads "
                    f"[{int(index.ev_start[event])}, "
                    f"{int(index.ev_end[event])}) but words "
                    f"[{seg_start}, {seg_end}) have no prior writer and "
                    f"no placement init",
                    index=position,
                )
            )

    # ------------------------------------------------------------------
    # SPV009 dead store / SPV011 scratch-slot leak
    # ------------------------------------------------------------------
    def _check_dead_stores(self, cols, index, emit) -> None:
        n = index.n_commands
        if n == 0:
            return
        real = (index.p_idx >= 0) & (index.p_idx < n)
        sel = index.p_write & real
        if not sel.any():
            return
        # A written segment is dead when its next access (same segment)
        # is another write, or absent while liveness is known; it is
        # trailing when no access follows at all.
        dead_seg = np.where(
            index.next_same_group[sel],
            index.next_is_write[sel],
            index.liveout_known,
        )
        trailing_seg = ~index.next_same_group[sel]
        events = index.pair_ev[sel]
        n_events = len(index.ev_idx)
        counts = np.bincount(events, minlength=n_events)
        dead_counts = np.bincount(
            events, weights=dead_seg.astype(np.float64), minlength=n_events
        )
        trailing_counts = np.bincount(
            events,
            weights=trailing_seg.astype(np.float64),
            minlength=n_events,
        )
        dead_event = (counts > 0) & (dead_counts == counts)
        if not dead_event.any():
            return
        scratch_known = self._placed is not None
        if scratch_known:
            seg_scratch = self._segment_scratch_mask(index)
            scratch_counts = np.bincount(
                events,
                weights=seg_scratch[index.pair_seg[sel]].astype(
                    np.float64
                ),
                minlength=n_events,
            )
            leak_event = (
                dead_event
                & (trailing_counts == counts)
                & (scratch_counts == counts)
            )
        else:
            leak_event = np.zeros(n_events, dtype=bool)
        overwritten = trailing_counts < counts
        for event in np.flatnonzero(dead_event).tolist():
            position = int(index.ev_idx[event])
            start = int(index.ev_start[event])
            end = int(index.ev_end[event])
            vpc = cols[position]
            if leak_event[event] and self._enabled("SPV011"):
                emit(
                    make_diagnostic(
                        "SPV011",
                        f"vpc #{position}",
                        f"{vpc.opcode.value} stages [{start}, {end}) in "
                        f"scratch but the words are never read or "
                        f"recycled before end of trace",
                        index=position,
                    )
                )
            elif not leak_event[event] and self._enabled("SPV009"):
                fate = (
                    "overwritten before any read"
                    if overwritten[event]
                    else "never read before end of trace"
                )
                emit(
                    make_diagnostic(
                        "SPV009",
                        f"vpc #{position}",
                        f"{vpc.opcode.value} writes [{start}, {end}) "
                        f"but the stored words are {fate}",
                        index=position,
                    )
                )

    def _segment_scratch_mask(self, index) -> np.ndarray:
        """Per-segment mask: True where the segment lies outside every
        placed span (i.e. in scratch space).

        Placed spans are index endpoints (they enter as init/live-out
        events), so touched segments never straddle a placed boundary.
        """
        n_segments = max(len(index.bounds) - 1, 0)
        if not n_segments:
            return np.zeros(0, dtype=bool)
        starts = np.array(
            [s for s, _, _ in self._placed], dtype=np.int64
        )
        ends = np.array([e for _, e, _ in self._placed], dtype=np.int64)
        if not len(starts):
            return np.ones(n_segments, dtype=bool)
        order = np.argsort(starts, kind="stable")
        starts = starts[order]
        running = np.maximum.accumulate(ends[order])
        seg_starts = index.bounds[:-1]
        pos = np.searchsorted(starts, seg_starts, side="right") - 1
        covered = (pos >= 0) & (seg_starts < running[np.maximum(pos, 0)])
        return ~covered

    # ------------------------------------------------------------------
    # SPV012: redundant copy
    # ------------------------------------------------------------------
    def _check_redundant_copies(self, cols, index, emit) -> None:
        move = ~cols.is_compute
        if not move.any():
            return
        positions = np.flatnonzero(move)
        src = cols.src1[positions].astype(np.int64)
        des = cols.des[positions].astype(np.int64)
        size = cols.size[positions].astype(np.int64)
        # Identity TRANs are the operand-delivery convention for
        # pre-seeded scalars, not copies; exempt them.
        keep = src != des
        positions, src, des, size = (
            positions[keep], src[keep], des[keep], size[keep]
        )
        if len(positions) < 2:
            return
        order = np.lexsort((positions, size, des, src))
        positions, src, des, size = (
            positions[order], src[order], des[order], size[order]
        )
        same_key = (
            (src[1:] == src[:-1])
            & (des[1:] == des[:-1])
            & (size[1:] == size[:-1])
        )
        for offset in np.flatnonzero(same_key).tolist():
            earlier = int(positions[offset])
            later = int(positions[offset + 1])
            s, d, k = int(src[offset]), int(des[offset]), int(size[offset])
            if index.any_write_between(s, s + k, earlier, later):
                continue
            if index.any_write_between(d, d + k, earlier, later):
                continue
            emit(
                make_diagnostic(
                    "SPV012",
                    f"vpc #{later}",
                    f"TRAN copies [{s}, {s + k}) to [{d}, {d + k}) but "
                    f"vpc #{earlier} already performed this copy and "
                    f"neither range was written since",
                    index=later,
                )
            )
