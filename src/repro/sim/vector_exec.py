"""Vectorized event-mode trace execution.

A per-VPC event loop interprets one command at a time: per command it
decomposes addresses, builds a fresh cycle/energy profile, and merges
dataclass breakdowns — tens of microseconds of Python per command,
which limited the event mode to reduced problem sizes.

This module is the columnar engine behind
:meth:`~repro.core.device.StreamPIMDevice.execute_trace` and
:meth:`~repro.core.device.StreamPIMDevice.execute_trace_stream`.  It
splits the work into

* **bulk array passes** for everything value-parallel: subarray ids of
  every operand (one integer division per column), the chunk's *event
  table* — one row per busy span in the reference loop's order, with
  its duration and energy (priced once per process for each unique
  ``(opcode, size)`` shape or copy word count, :func:`priced_costs`,
  and gathered) — decode-ready times, and the
  exclusive-category time sweep (:func:`sweep_spans`);
* a **begin-only busy-until scan** for the one genuinely sequential
  part — the per-subarray blocking recurrence — one Python loop over
  per-command class codes that keeps the clocks in a flat list indexed
  by subarray id and records only each row's begin; finishes are one
  array add afterwards;
* a **dataflow-batched functional apply**: one sort of a chunk's word
  ranges finds each read's producer, TRANs become renames, every
  compute result gets its own slot, and each ``(RAW level, opcode,
  size)`` group runs as one gather and one ``einsum``/``+``/``*`` —
  seeded by one gather from the word store and flushed by one scatter
  per chunk.

Equivalence contract: for every trace the engine produces
*bit-identical* results to the per-VPC reference loop kept as a test
oracle (``tests/oracles/scalar_exec.py``) — the same ``RunStats``
(total time, time/energy breakdowns, counters) and the same word-store
contents.  Every floating-point accumulation is performed in the same
order with the same IEEE operations; the differential tests in
``tests/test_vector_exec.py`` assert exact equality over every shipped
workload generator.
"""

from __future__ import annotations

import math

from typing import Dict, List, Tuple

import numpy as np

from numpy.lib.stride_tricks import sliding_window_view

from repro.isa.columnar import (
    ADD_BYTE,
    ColumnarTrace,
    MUL_BYTE,
    SMUL_BYTE,
    TRAN_BYTE,
)
from repro.isa.encoding import BYTE_TO_OPCODE
from repro.isa.vpc import VPC, VPCOpcode
from repro.rm.nanowire import ShiftError
from repro.sim.errors import SimulationFault
from repro.sim.stats import EnergyBreakdown, RunStats, TimeBreakdown


def _ordered_sum(values: np.ndarray) -> float:
    """Strict left-to-right float sum (matches sequential accumulation).

    The per-VPC reference loop accumulates breakdown components with
    repeated Python float additions; reproducing its results exactly
    requires the same association order, which pairwise reductions
    (``np.sum``) do not guarantee.  ``np.cumsum`` is a running total
    and therefore exactly that order; dropping exact zeros first is
    safe (adding 0.0 never changes a finite accumulator) and keeps the
    pass short.
    """
    compressed = values[np.nonzero(values)]
    if not len(compressed):
        return 0.0
    return float(compressed.cumsum()[-1])


def _ordered_sum_carry(carry: float, values: np.ndarray) -> float:
    """Continue a strict left-to-right float sum across a chunk boundary.

    ``_ordered_sum_carry(_ordered_sum(a), b)`` is bit-identical to
    ``_ordered_sum(concatenate((a, b)))``: the carry is the running
    total so far, and prepending it to the next chunk's compressed
    values preserves the association order exactly.  A zero carry can
    be dropped because every kept value is nonzero and ``0.0 + x == x``
    bitwise for finite nonzero ``x`` — the same argument that lets
    :func:`_ordered_sum` compress zeros.
    """
    compressed = values[np.nonzero(values)]
    if not len(compressed):
        return carry
    if carry:
        # Exact-zero test on purpose (not a tolerance): a zero carry is
        # dropped for the same reason _ordered_sum compresses zeros.
        compressed = np.concatenate(
            (np.array([carry], dtype=np.float64), compressed)
        )
    return float(compressed.cumsum()[-1])


#: One pim span in :func:`sweep_spans`'s packed running count (rw spans
#: count in the bits below).
_PIM_COUNT = 1 << 32


def sweep_spans(
    starts: np.ndarray, finishes: np.ndarray, is_rw: np.ndarray
) -> TimeBreakdown:
    """Sweep busy spans into exclusive time categories (vectorized).

    Array-pass replacement for the O(spans^2) interval scan: one sort
    of every start and finish, the rw and pim coverage as one running
    total of +1/-1 deltas in sorted order, read at the last position of
    each distinct edge, and the per-interval contributions reduced in
    edge order (bit-identical to the sequential scan).  Edges are never
    searched for, so the sort is the only pass that is not linear.

    The sort is stable, which keeps every start ahead of the finishes
    tied with it (starts come first in the concatenation): no running
    count ever goes negative, so both classes share one int64 total,
    rw in the low 32 bits and pim above.
    """
    if len(starts) == 0:
        return TimeBreakdown()
    is_rw = np.asarray(is_rw, dtype=bool)
    edges = np.concatenate((starts, finishes)).astype(np.float64, copy=False)
    order = np.argsort(edges, kind="stable")
    edges = edges[order]
    # Each distinct edge's first position holds its value (as np.unique
    # picks it) and its last the coverage after every delta at it.
    change = edges[1:] != edges[:-1]
    if not change.any():
        return TimeBreakdown()
    delta = np.where(is_rw, 1, _PIM_COUNT)
    running = np.concatenate((delta, -delta))[order].cumsum()[
        np.append(change, True)
    ][:-1]
    edges = edges[np.insert(change, 0, True)]
    rw_cover = (running & (_PIM_COUNT - 1)) > 0
    pim_cover = running >= _PIM_COUNT
    widths = np.diff(edges)
    both = rw_cover & pim_cover
    rw_only = rw_cover & ~pim_cover
    pim_only = pim_cover & ~rw_cover
    return TimeBreakdown(
        read_ns=_ordered_sum(widths[rw_only] * 0.3),
        write_ns=_ordered_sum(widths[rw_only] * 0.7),
        process_ns=_ordered_sum(widths[pim_only]),
        overlapped_ns=_ordered_sum(widths[both]),
    )


def shape_keys(opcode: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Pack each command's ``(opcode byte, size)`` shape into one int64."""
    return (opcode.astype(np.int64) << 48) | size


def shape_costs(
    device, keys
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(time_ns, shift_pj, compute_pj) of each packed shape key.

    ``SubarrayEngine.profile`` depends only on ``(opcode, size)``, and
    real traces hold a handful of distinct shapes, so callers price the
    unique keys (:func:`shape_keys`) once and gather.
    """
    count = len(keys)
    time_ns = np.empty(count, dtype=np.float64)
    shift_pj = np.empty(count, dtype=np.float64)
    compute_pj = np.empty(count, dtype=np.float64)
    profile = device.engine_model.profile
    for j, packed in enumerate(keys):
        vpc_opcode = BYTE_TO_OPCODE[packed >> 48]
        words = packed & ((1 << 48) - 1)
        if vpc_opcode is VPCOpcode.TRAN:
            proto = VPC.tran(0, 0, words)
        else:
            proto = VPC(vpc_opcode, 0, 0, 0, words)
        costs = profile(proto)
        time_ns[j] = costs.time_ns
        shift_pj[j] = costs.energy.shift_pj
        compute_pj[j] = costs.energy.compute_pj
    return time_ns, shift_pj, compute_pj


def copy_costs(
    device, counts
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(time_ns, read_pj, write_pj) of a cross-subarray copy per word
    count.

    Delegates the duration to the device's scalar cost model (same
    ``math.ceil`` float divisions), so the values are the exact floats
    the per-VPC reference loop computes.
    """
    model = device.config.prep_model
    read_pj = device.timing.read_pj
    write_pj = device.timing.write_pj
    time_ns = np.empty(len(counts), dtype=np.float64)
    reads_pj = np.empty(len(counts), dtype=np.float64)
    writes_pj = np.empty(len(counts), dtype=np.float64)
    for j, words in enumerate(counts):
        time_ns[j] = device._copy_cost_ns(words)
        reads_pj[j] = math.ceil(words / model.access_width_words) * read_pj
        writes_pj[j] = (
            math.ceil(words / model.write_access_width_words) * write_pj
        )
    return time_ns, reads_pj, writes_pj


def pricing_inputs(device) -> tuple:
    """Every device input :func:`shape_costs` and :func:`copy_costs`
    read.

    The engine model's class (a device may swap in another engine, as
    StPIM-e does) and its ``econfig`` when it has one, and the config
    fields :meth:`SubarrayEngine.profile` and ``_copy_cost_ns`` read; of
    the scheduler policy only whether it overlaps preparation, so BASE
    and DISTRIBUTE share an entry.  Neither the geometry nor
    ``vpc_decode_ns`` enters a cost.
    """
    config = device.config
    engine = device.engine_model
    return (
        type(engine),
        getattr(engine, "econfig", None),
        config.timing,
        config.processor,
        config.bus,
        config.scheduler_policy.overlaps_prep,
        config.prep_model,
    )


#: Most pricing configurations (:func:`pricing_inputs`) the process-wide
#: cost memo keeps.  An ``explore`` sweep adds one per timing point;
#: past the bound the oldest configuration is dropped.
PRICE_MEMO_CONFIGS = 64

#: The process-wide cost memo: per pricing configuration, a
#: ``{key: (three costs)}`` dict for ``"shape"`` (:func:`shape_costs`,
#: by packed shape key) and one for ``"copy"`` (:func:`copy_costs`, by
#: word count).  Costs are pure functions of those inputs, so every
#: device and predictor with an equal configuration shares them.
_PRICES: Dict[tuple, Dict[str, dict]] = {}


def priced_costs(
    device, kind: str, keys: List[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`shape_costs` (``kind`` ``"shape"``) or :func:`copy_costs`
    (``"copy"``) of ``keys`` on ``device``, pricing only the keys no
    device of an equal pricing configuration has priced in this
    process."""
    inputs = pricing_inputs(device)
    memos = _PRICES.get(inputs)
    if memos is None:
        if len(_PRICES) >= PRICE_MEMO_CONFIGS:
            del _PRICES[next(iter(_PRICES))]
        memos = _PRICES[inputs] = {"shape": {}, "copy": {}}
    memo = memos[kind]
    missing = [key for key in keys if key not in memo]
    if missing:
        price = shape_costs if kind == "shape" else copy_costs
        memo.update(zip(missing, zip(*price(device, missing))))
    costs = np.array([memo[key] for key in keys], dtype=np.float64)
    # Contiguous tables: a strided one can change how ``@`` associates
    # (the predictor's exact-energy dot products).
    return tuple(np.ascontiguousarray(costs.reshape(-1, 3).T))


def check_addresses(device, cols: ColumnarTrace) -> None:
    """Fail fast on out-of-range addresses.

    Matches the IndexError per-VPC address decomposition raises (same
    first offender: lowest trace index, then src1 -> src2 -> des
    order).
    """
    src1 = cols.src1
    src2 = cols.src2
    des = cols.des
    compute = cols.is_compute
    total_words = device.address_map.total_words
    bad_src1 = (src1 < 0) | (src1 >= total_words)
    bad_src2 = compute & ((src2 < 0) | (src2 >= total_words))
    bad_des = (des < 0) | (des >= total_words)
    bad_any = bad_src1 | bad_src2 | bad_des
    if bad_any.any():
        index = int(np.argmax(bad_any))
        if bad_src1[index]:
            value = int(src1[index])
        elif bad_src2[index]:
            value = int(src2[index])
        else:
            value = int(des[index])
        raise IndexError(
            f"address {value} out of range [0, {total_words})"
        )


class VectorExecState:
    """Resumable vector execution: one trace, fed as ordered chunks.

    Holds the per-subarray busy-until list (one clock per subarray of
    the device, indexed by subarray id), the bus/total clocks, the span
    record (one ``starts``/``finishes``/``is_rw`` array triple per
    chunk), the breakdown accumulators, and the functional word state,
    so a trace can be executed incrementally while later chunks are
    still being lowered (the streamed compile/execute pipeline).
    The contract is bit-identity: feeding a trace as any sequence of
    chunks and calling :meth:`finish` produces exactly the
    ``RunStats``, word-store contents, and span triple that feeding it
    as one chunk (what ``execute_trace`` does) produces.

    The float accumulations that make that non-trivial are handled
    explicitly: energy components carry the running left-to-right sum
    over event rows across chunks (:func:`_ordered_sum_carry`),
    decode-ready times are derived from the global command index, and
    the time sweep (:func:`sweep_spans`, which globally sorts span
    edges) runs once in :meth:`finish` over the concatenated spans.
    Within a chunk, a span's finish is ``begin + duration`` computed as
    one array add after the scan — the same IEEE addition the scan
    performs when it advances a clock, and every begin is an exact
    ``max`` of clocks, so the spans equal the per-VPC loop's bit for
    bit.

    Functional state advances per chunk through the dataflow-batched
    apply (:func:`_apply_functional_chunk`), which cuts a chunk before
    each command whose ranges overlap an earlier one's without being
    equal and batches each piece.  A chunk whose first piece holds a
    negative seed or result falls back to the exact per-command loop
    (:func:`_apply_functional_columnar`) from the unchanged store, so
    error behaviour (message and offending command) is preserved.
    ``exact_apply=True`` forces the per-command loop for every chunk —
    the phased ``execute_trace`` uses it to stay the unchanged
    bit-identity reference, and it is implied whenever a fault session
    is attached.
    """

    def __init__(
        self,
        device,
        workload: str = "trace",
        functional: bool = True,
        faults=None,
        span_sink=None,
        exact_apply: bool = False,
    ) -> None:
        self.device = device
        self.workload = workload
        self.functional = functional
        self.faults = faults
        self.span_sink = span_sink
        self.exact_apply = bool(exact_apply or faults is not None)
        #: Commands consumed so far (the global index of the next one).
        self.offset = 0
        self.pim_vpcs = 0
        self.chunks_fed = 0
        #: Chunks the batched apply replayed through the exact loop
        #: because a seed or result was negative.
        self.fallbacks = 0
        address_map = device.address_map
        #: Busy-until clock of every subarray, indexed by subarray id
        #: (``check_addresses`` keeps every id in range).
        self._busy = [0.0] * -(
            -address_map.total_words // address_map.words_per_subarray
        )
        self._bus_busy = 0.0
        self._finish_time = 0.0
        #: Per-chunk span arrays, concatenated once in :meth:`finish`.
        self._span_start: List[np.ndarray] = []
        self._span_finish: List[np.ndarray] = []
        self._span_rw: List[np.ndarray] = []
        self._read_pj = 0.0
        self._write_pj = 0.0
        self._shift_pj = 0.0
        self._compute_pj = 0.0
        self._stats: "RunStats | None" = None

    def feed(self, cols: ColumnarTrace) -> None:
        """Advance the execution by one chunk of the trace."""
        if self._stats is not None:
            raise RuntimeError("execution already finished")
        n = len(cols)
        if n == 0:
            return
        check_addresses(self.device, cols)
        abort_at = None if self.faults is None else self.faults.abort_index
        if abort_at is not None and abort_at < self.offset + n:
            # Execution stops at the faulting VPC with every earlier one
            # applied; reproduce that observable state exactly.
            if self.functional:
                _apply_functional_columnar(
                    self.device,
                    cols,
                    faults=self.faults,
                    limit=abort_at - self.offset,
                    index_offset=self.offset,
                )
            raise self.faults.abort_error()

        device = self.device
        opcode = cols.opcode
        size = cols.size
        compute = cols.is_compute
        self.pim_vpcs += int(compute.sum())

        # The scheduler's dependency relation names the resources each
        # command serialises on; it is a pure per-command map, so
        # per-chunk evaluation equals the whole-trace one.  (Lazy
        # import: core.device imports this module.)
        from repro.core.scheduler import trace_dependencies

        deps = trace_dependencies(
            cols, device.address_map.words_per_subarray
        )
        operand_copy = deps.remote >= 0
        result_copy = compute & (deps.dest >= 0)
        cross = deps.uses_bus

        # --------------------------------------------------------------
        # Event table: one row per busy span, in the reference loop's
        # order (operand copy, then compute, then result copy; one row
        # per TRAN), with its duration and rw flag.
        # --------------------------------------------------------------
        extra = operand_copy.astype(np.int64) + result_copy
        first_row = np.arange(n) + np.cumsum(extra) - extra
        main_row = first_row + operand_copy
        rows = n + int(extra.sum())
        is_rw = np.zeros(rows, dtype=bool)
        is_rw[first_row[operand_copy]] = True
        is_rw[main_row[cross]] = True
        is_rw[main_row[result_copy] + 1] = True
        copy_words = np.empty(rows, dtype=np.int64)
        copy_words[main_row] = size
        copy_words[first_row[operand_copy]] = size[operand_copy]
        copy_words[main_row[result_copy] + 1] = np.where(
            opcode[result_copy] == MUL_BYTE, 1, size[result_copy]
        )
        words, word_of = np.unique(copy_words[is_rw], return_inverse=True)
        copy_ns, read_pj, write_pj = priced_costs(
            device, "copy", words.tolist()
        )
        keys, shape_of = np.unique(
            shape_keys(opcode[~cross], size[~cross]), return_inverse=True
        )
        profile_ns, shift_pj, compute_pj = priced_costs(
            device, "shape", keys.tolist()
        )
        duration = np.empty(rows, dtype=np.float64)
        duration[is_rw] = copy_ns[word_of]
        duration[~is_rw] = profile_ns[shape_of]

        # Energy: every row's contribution is static; continue the
        # running left-to-right reduction over the rows across chunks.
        self._read_pj = _ordered_sum_carry(self._read_pj, read_pj[word_of])
        self._write_pj = _ordered_sum_carry(
            self._write_pj, write_pj[word_of]
        )
        self._shift_pj = _ordered_sum_carry(
            self._shift_pj, shift_pj[shape_of]
        )
        self._compute_pj = _ordered_sum_carry(
            self._compute_pj, compute_pj[shape_of]
        )

        # --------------------------------------------------------------
        # Busy-until scan: the only sequential dependence.  Class codes:
        # 0 plain compute or local TRAN, 1 compute + result copy, 2 cross
        # TRAN, 3 compute + operand copy, 4 compute + both copies.  The
        # scan records each row's begin only; a row's finish is its
        # begin plus its duration, the same single addition.  The decode
        # clock continues from the global command index, and the busy
        # list / bus clock persist on the state across chunks.
        # --------------------------------------------------------------
        code = np.where(
            cross, 2, np.where(operand_copy, 3 + result_copy, result_copy)
        )
        other = np.where(operand_copy, deps.remote, deps.dest)
        second = np.minimum(first_row + 1, rows - 1)
        ready_list = (
            np.arange(
                self.offset + 1, self.offset + n + 1, dtype=np.float64
            )
            * device.config.vpc_decode_ns
        ).tolist()
        both = np.flatnonzero(operand_copy & result_copy)
        last_copy = iter(
            zip(
                deps.dest[both].tolist(),
                duration[first_row[both] + 2].tolist(),
            )
        ).__next__
        busy = self._busy
        bus_busy = self._bus_busy
        begins: List[float] = []
        append = begins.append
        for kind, ready, home, far, first, then in zip(
            code.tolist(),
            ready_list,
            deps.home.tolist(),
            other.tolist(),
            duration[first_row].tolist(),
            duration[second].tolist(),
        ):
            if kind == 1:
                begin = busy[home]
                if ready > begin:
                    begin = ready
                append(begin)
                finish = begin + first
                busy[home] = finish
                begin = busy[far]
                if finish > begin:
                    begin = finish
                append(begin)
                busy[far] = begin + then
            elif kind == 2:
                begin = bus_busy if bus_busy > ready else ready
                if busy[home] > begin:
                    begin = busy[home]
                if busy[far] > begin:
                    begin = busy[far]
                append(begin)
                bus_busy = busy[home] = busy[far] = begin + first
            elif kind == 0:
                begin = busy[home]
                if ready > begin:
                    begin = ready
                append(begin)
                busy[home] = begin + first
            else:
                begin = busy[home]
                if ready > begin:
                    begin = ready
                if busy[far] > begin:
                    begin = busy[far]
                append(begin)
                start = begin + first
                busy[far] = start
                append(start)
                finish = start + then
                busy[home] = finish
                if kind == 4:
                    dest, result_ns = last_copy()
                    begin = busy[dest]
                    if finish > begin:
                        begin = finish
                    append(begin)
                    busy[dest] = begin + result_ns
        self._bus_busy = bus_busy

        starts = np.array(begins, dtype=np.float64)
        finishes = starts + duration
        self._finish_time = max(self._finish_time, float(finishes.max()))
        self._span_start.append(starts)
        self._span_finish.append(finishes)
        self._span_rw.append(is_rw)

        if self.functional:
            if self.exact_apply or not _apply_functional_chunk(
                device, cols, index_offset=self.offset
            ):
                if not self.exact_apply:
                    self.fallbacks += 1
                _apply_functional_columnar(
                    device,
                    cols,
                    faults=self.faults,
                    index_offset=self.offset,
                )
        self.offset += n
        self.chunks_fed += 1

    def finish(self) -> RunStats:
        """Close the execution and assemble the final ``RunStats``.

        Idempotent: subsequent calls return the same object.  The span
        sink (when attached) receives the whole-trace
        ``(starts, finishes, is_rw)`` triple here, exactly as the
        phased path emits it.
        """
        if self._stats is not None:
            return self._stats
        stats = RunStats(
            platform="StPIM",
            workload=self.workload,
            time_ns=self._finish_time,
            time_breakdown=TimeBreakdown(),
            energy=EnergyBreakdown(
                read_pj=self._read_pj,
                write_pj=self._write_pj,
                shift_pj=self._shift_pj,
                compute_pj=self._compute_pj,
            ),
        )
        stats.bump("pim_vpcs", self.pim_vpcs)
        stats.bump("move_vpcs", self.offset - self.pim_vpcs)
        starts_array = np.concatenate(
            self._span_start or [np.empty(0, dtype=np.float64)]
        )
        finishes_array = np.concatenate(
            self._span_finish or [np.empty(0, dtype=np.float64)]
        )
        rw_array = np.concatenate(self._span_rw or [np.empty(0, dtype=bool)])
        # sweep_spans globally sorts span edges, so it must see the
        # whole span record at once — per-chunk sweeps would not merge
        # intervals that straddle a chunk boundary identically.
        stats.time_breakdown = sweep_spans(
            starts_array, finishes_array, rw_array
        )
        if self.span_sink is not None:
            self.span_sink.append(
                (starts_array, finishes_array, rw_array)
            )
        if self.faults is not None:
            stats.time_breakdown.add("recovery", self.faults.recovery_ns)
            stats.energy.add("recovery", self.faults.recovery_pj)
            stats.time_ns = self._finish_time + self.faults.recovery_ns
        self._stats = stats
        return stats


# ----------------------------------------------------------------------
# Batched functional apply
# ----------------------------------------------------------------------
def _merge_ranges(
    starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Union of half-open ranges as sorted disjoint segments."""
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    running_end = np.maximum.accumulate(ends[order])
    breaks = np.empty(len(starts), dtype=bool)
    breaks[0] = True
    breaks[1:] = starts[1:] > running_end[:-1]
    segment_starts = starts[breaks]
    last = np.concatenate(
        (np.flatnonzero(breaks)[1:] - 1, [len(starts) - 1])
    )
    return segment_starts, running_end[last]


def _expand(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + length)`` over the pairs."""
    firsts = np.cumsum(lengths) - lengths
    return np.repeat(starts - firsts, lengths) + np.arange(
        int(lengths.sum()), dtype=np.int64
    )


class _ChunkBuffer:
    """A chunk's operand and result words, compacted into one buffer.

    Every word range the chunk reads or writes is merged into sorted
    disjoint segments laid end to end in the dense int64 ``buffer``,
    seeded with one gather from the device's word store (unwritten
    words read 0).  The exact loop indexes the buffer through the
    per-command offset lists, and :meth:`flush` writes the result ranges
    back with one scatter, so the cost follows the chunk's words, not
    the size of the store.
    """

    def __init__(self, store, cols: ColumnarTrace) -> None:
        opcode = cols.opcode
        src1 = cols.src1.astype(np.int64)
        src2 = cols.src2.astype(np.int64)
        des = cols.des.astype(np.int64)
        size = cols.size.astype(np.int64)
        compute = cols.is_compute
        src1_len = np.where(opcode == SMUL_BYTE, 1, size)
        self.des_len = np.where(opcode == MUL_BYTE, 1, size)
        self._des = des
        starts, ends = _merge_ranges(
            np.concatenate((src1, src2[compute], des)),
            np.concatenate(
                (src1 + src1_len, (src2 + size)[compute], des + self.des_len)
            ),
        )
        lengths = ends - starts
        self._segment_starts = starts
        self._offsets = np.cumsum(lengths) - lengths
        self.buffer = store.gather(_expand(starts, lengths))
        self.op_list = opcode.tolist()
        self.a_list = self._compact(src1).tolist()
        # src2 of TRAN rows is the no-operand sentinel, outside every
        # segment; substitute src1 so _compact() stays in range (the
        # value is never used for TRAN rows).
        self.b_list = self._compact(np.where(compute, src2, src1)).tolist()
        self.d_list = self._compact(des).tolist()
        self.size_list = size.tolist()

    def _compact(self, addresses: np.ndarray) -> np.ndarray:
        starts = self._segment_starts
        index = np.searchsorted(starts, addresses, side="right") - 1
        return self._offsets[index] + (addresses - starts[index])

    def flush(self, store, count: int) -> None:
        """Write the results of the first ``count`` commands back."""
        des = self._des[:count]
        starts, ends = _merge_ranges(des, des + self.des_len[:count])
        lengths = ends - starts
        store.scatter(
            _expand(starts, lengths),
            self.buffer[_expand(self._compact(starts), lengths)],
        )


def _apply_functional_columnar(
    device, cols: ColumnarTrace, faults=None, limit=None, index_offset=0
) -> None:
    """Replay the trace's data movement on a compacted dense buffer.

    The chunk's words are compacted into a :class:`_ChunkBuffer`, every
    command is applied with NumPy slice arithmetic, and the written
    ranges are flushed back — producing exactly the word-store contents
    a per-VPC, per-word replay produces.

    ``faults`` corrupts destination slices at the session's undetected-
    drift indices (same rotation, same point in the apply sequence as
    the reference loop); ``limit`` truncates the apply at an abort index
    so the flushed store holds every VPC before the abort.
    ``index_offset`` is the global trace index of ``cols[0]`` when the
    trace arrives as chunks — fault indices and diagnostics stay in
    whole-trace terms.
    """
    n = len(cols)
    count = n if limit is None else min(limit, n)
    if count == 0:
        return
    compacted = _ChunkBuffer(device.store, cols)
    buffer = compacted.buffer
    op_list = compacted.op_list
    a_list = compacted.a_list
    b_list = compacted.b_list
    d_list = compacted.d_list
    size_list = compacted.size_list
    apply_compute = device.processor.apply
    drift_map = faults.drift if faults is not None else None
    if not drift_map:
        drift_map = None
        des_len_list = None
    else:
        des_len_list = compacted.des_len.tolist()

    i = -1
    try:
        for i in range(count):
            code = op_list[i]
            words = size_list[i]
            a = a_list[i]
            d = d_list[i]
            if code == TRAN_BYTE:
                if a != d:
                    chunk = buffer[a : a + words]
                    if abs(a - d) < words:
                        chunk = chunk.copy()
                    buffer[d : d + words] = chunk
            else:
                vpc_opcode = BYTE_TO_OPCODE[code]
                first_len = 1 if code == SMUL_BYTE else words
                result = apply_compute(
                    vpc_opcode,
                    buffer[a : a + first_len],
                    buffer[b_list[i] : b_list[i] + words],
                )
                buffer[d : d + len(result)] = result
            if drift_map is not None:
                drift = drift_map.get(index_offset + i)
                if drift:
                    span = des_len_list[i]
                    buffer[d : d + span] = faults.corrupt_values(
                        buffer[d : d + span], drift
                    )
    except ShiftError as exc:
        raise SimulationFault(
            f"shift escaped the nanowire model during replay: {exc}",
            index=index_offset + i,
        ) from exc

    compacted.flush(device.store, count)


#: Operand words one batched apply step gathers per side: bounds the
#: temporaries of a large (level, opcode, size) group.
_BATCH_WORDS = 1 << 16


def _apply_functional_chunk(
    device, cols: ColumnarTrace, index_offset: int = 0
) -> bool:
    """Dataflow-batched functional apply of one trace chunk.

    Every word range the chunk reads or writes is one row of a single
    sort keyed on (start address, command, read before write).  Where
    ranges that overlap are always equal (*interval-exact*), each range
    is a variable and the sort yields, per read, the command that last
    wrote it.  The chunk is cut before each command whose range clashes
    with an earlier one's (overlaps it without being equal), and every
    interval-exact piece is applied in order by
    :func:`_apply_interval_exact`, read from the store as the pieces
    before it left it.  A command that clashes with itself, or a piece
    with an empty range, leaves the rest of the chunk to the exact loop
    :func:`_apply_functional_columnar`.

    Returns False *without touching the store* when the first piece
    sees a negative value (seed or result): the caller replays the
    chunk through the exact loop, which reproduces the canonical
    ``ValueError`` at the first offending command if one of its
    operands really is negative.  A later piece that sees one hands
    the chunk from that piece on, at its global index, to the exact
    loop here.
    """
    n = len(cols)
    if n == 0:
        return True
    opcode = cols.opcode
    size = cols.size

    # Range rows 3i (src1), 3i+1 (src2, compute only) and 3i+2 (des):
    # row order is command order with reads first, so a stable sort on
    # the start address is the (start, command, read-before-write) key.
    starts = np.stack((cols.src1, cols.src2, cols.des), axis=1).ravel()
    lengths = np.stack(
        (
            np.where(opcode == SMUL_BYTE, 1, size),
            size,
            np.where(opcode == MUL_BYTE, 1, size),
        ),
        axis=1,
    ).ravel()
    present = np.ones(3 * n, dtype=bool)
    present[1::3] = cols.is_compute
    row = np.flatnonzero(present)
    row = row[np.argsort(starts[row], kind="stable")]
    start = starts[row]
    length = lengths[row]
    del starts, lengths, present
    begin = 0
    while begin < n:
        if begin:
            # Filtering keeps the sort order: the rest's own sort.
            rest = row >= 3 * begin
            row, start, length = row[rest], start[rest], length[rest]
        if not length.all():
            break
        end, (piece_row, piece_start, piece_length) = _exact_prefix(
            row, start, length, n
        )
        if end == begin:
            break
        if not _apply_interval_exact(
            device,
            ColumnarTrace(cols.records[begin:end]),
            piece_row - 3 * begin,
            piece_start,
            piece_length,
        ):
            if not begin:
                return False
            break
        begin = end
    if begin < n:
        _apply_functional_columnar(
            device,
            ColumnarTrace(cols.records[begin:]) if begin else cols,
            index_offset=index_offset + begin,
        )
    return True


def _exact_prefix(
    row: np.ndarray, start: np.ndarray, length: np.ndarray, end: int
) -> Tuple[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The longest interval-exact run of commands from the first one
    in ``row``, and its rows in sort order.

    Returns ``end``, the first command whose range clashes with an
    earlier one's or its own (or the given ``end``), and the sorted
    ``(row, start, length)`` of the commands before it.  A clash
    shows between neighbours in the sort, and the later command of a
    clashing pair bounds the run.  Dropping the commands past the
    least such bound can make two earlier ranges neighbours, so the
    bound is refined until the run is clean.
    """
    command = row // 3
    while True:
        same = start[1:] == start[:-1]
        clash = np.flatnonzero(
            np.where(
                same,
                length[1:] != length[:-1],
                start[:-1] + length[:-1] > start[1:],
            )
        )
        if not len(clash):
            return end, (row, start, length)
        end = int(np.maximum(command[clash], command[clash + 1]).min())
        keep = command < end
        row, start, length, command = (
            row[keep], start[keep], length[keep], command[keep]
        )


def _apply_interval_exact(
    device,
    cols: ColumnarTrace,
    row: np.ndarray,
    start: np.ndarray,
    length: np.ndarray,
) -> bool:
    """Apply an interval-exact chunk, given its range rows in sort
    order (``row`` as in :func:`_apply_functional_chunk`).

    Values live in a version buffer: the chunk's ranges as gathered
    from the store, then one private slot per compute result, so a
    staging word reused row to row carries no WAR or WAW hazard.  A
    TRAN is a rename: a read of its output resolves to what the TRAN
    itself read, and no TRAN is executed.  Compute commands run by RAW
    depth, each ``(level, opcode, size)`` group as one gather of
    operand windows and one row-wise ``einsum`` (MUL), ``+`` (ADD) or
    broadcast ``*`` (SMUL); one scatter of the final writers' values
    updates the store.

    The arithmetic skips ``RMProcessor.apply``'s operand-range checks.
    Soundness is restored by monitoring: the gathered ranges and every
    compute result are checked once for negatives.  If both checks
    pass, no per-command operand check could have fired — every value a
    command read was a non-negative seed or a non-negative earlier
    result, and int64 arithmetic wraps identically in any order — so
    the store ends bit-identical to the exact loop's.  Returns False
    without touching the store when a check fails.
    """
    n = len(cols)
    opcode = cols.opcode
    size = cols.size
    compute = cols.is_compute
    same = start[1:] == start[:-1]

    # Groups of equal ranges; each read's producer is the last write
    # sorted before it in its group (a command's reads sort before its
    # own write, so a producer is always an earlier command).
    m = len(row)
    first = np.flatnonzero(np.concatenate(([True], ~same)))
    counts = np.diff(np.append(first, m))
    group_first = np.repeat(first, counts)
    group_len = length[first]
    seed_at = np.cumsum(group_len) - group_len
    is_write = row % 3 == 2
    position = np.arange(m)
    last_write = np.maximum.accumulate(np.where(is_write, position, -1))
    produced = last_write >= group_first
    producer = row[last_write] // 3
    compute_index = np.full(n, -1, dtype=np.int64)
    c = np.flatnonzero(compute)
    compute_index[c] = np.arange(len(c))
    # A version >= 0 names a compute result; -1 - k names seed word k.
    version = np.where(
        produced,
        compute_index[producer],
        -1 - np.repeat(seed_at, counts),
    )
    sorted_at = np.empty(3 * n, dtype=np.int64)
    sorted_at[row] = position
    # Reads of a TRAN's output point at the TRAN's own read; pointer
    # jumping resolves every TRAN chain to a seed or compute result.
    ref = np.where(
        produced & ~is_write & ~compute[producer],
        sorted_at[3 * producer],
        -1,
    )
    pending = np.flatnonzero(ref >= 0)
    while len(pending):
        target = ref[pending]
        version[pending] = version[target]
        ref[pending] = ref[target]
        pending = pending[ref[pending] >= 0]

    last = np.append(first[1:], m) - 1
    final = last_write[last]
    written = final >= first
    writer = row[final[written]] // 3
    out_version = np.where(
        compute[writer], compute_index[writer], version[sorted_at[3 * writer]]
    )
    out_start = start[first[written]]
    out_len = group_len[written]
    src_a = version[sorted_at[3 * c]]
    src_b = version[sorted_at[3 * c + 1]]
    seed_addresses = _expand(start[first], group_len)
    del row, start, length, same, group_first, last_write, produced
    del producer, version, sorted_at, ref, position, is_write

    seeds = device.store.gather(seed_addresses)
    if bool((seeds < 0).any()):
        return False
    seed_len = len(seeds)
    n_compute = len(c)
    if not n_compute:
        values = seeds
        out_offset = -1 - out_version
    else:
        # RAW depth by fixed-point iteration: level 0 reads only seeds.
        dep_a = np.where(src_a >= 0, src_a, n_compute)
        dep_b = np.where(src_b >= 0, src_b, n_compute)
        depth = np.zeros(n_compute + 1, dtype=np.int64)
        depth[n_compute] = -1
        while True:
            level = np.maximum(depth[dep_a], depth[dep_b]) + 1
            if np.array_equal(level, depth[:n_compute]):
                break
            depth[:n_compute] = level
        del dep_a, dep_b, depth

        c_op = opcode[c]
        c_size = size[c]
        order = np.lexsort((c_size, c_op, level))
        c_op = c_op[order]
        c_size = c_size[order]
        slot_len = np.where(c_op == MUL_BYTE, 1, c_size)
        slot_at = seed_len + np.cumsum(slot_len) - slot_len
        slot_of = np.empty(n_compute, dtype=np.int64)
        slot_of[order] = slot_at

        def offset_of(v: np.ndarray) -> np.ndarray:
            return np.where(v >= 0, slot_of[np.maximum(v, 0)], -1 - v)

        a_at = offset_of(src_a)[order]
        b_at = offset_of(src_b)[order]
        out_offset = offset_of(out_version)
        level = level[order]
        cut = np.flatnonzero(
            (level[1:] != level[:-1])
            | (c_op[1:] != c_op[:-1])
            | (c_size[1:] != c_size[:-1])
        ) + 1
        bounds = np.concatenate(([0], cut, [n_compute])).tolist()
        del order, slot_of, level, cut, src_a, src_b

        values = np.empty(seed_len + int(slot_len.sum()), dtype=np.int64)
        values[:seed_len] = seeds
        del seeds
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            code = int(c_op[lo])
            words = int(c_size[lo])
            window = sliding_window_view(values, words)
            step = max(1, _BATCH_WORDS // words)
            for b0 in range(lo, hi, step):
                b1 = min(b0 + step, hi)
                right = window[b_at[b0:b1]]
                if code == MUL_BYTE:
                    result = np.einsum(
                        "ij,ij->i", window[a_at[b0:b1]], right
                    )
                elif code == ADD_BYTE:
                    result = window[a_at[b0:b1]] + right
                else:  # SMUL
                    result = values[a_at[b0:b1], None] * right
                at = int(slot_at[b0])
                values[at : at + result.size] = result.ravel()
        if bool((values[seed_len:] < 0).any()):
            return False

    device.store.scatter(
        _expand(out_start, out_len), values[_expand(out_offset, out_len)]
    )
    return True
