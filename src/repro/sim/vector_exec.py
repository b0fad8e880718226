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
  every operand (one integer division per column), per-command durations
  and energies (profiled once per unique ``(opcode, size)`` shape and
  gathered), decode-ready times, and the exclusive-category time sweep
  (:func:`sweep_spans`);
* a **minimal busy-until scan** for the one genuinely sequential part —
  the per-subarray blocking recurrence — reduced to a handful of float
  ``max``/``add`` operations per command over precomputed columns;
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


def sweep_spans(
    starts: np.ndarray, finishes: np.ndarray, is_rw: np.ndarray
) -> TimeBreakdown:
    """Sweep busy spans into exclusive time categories (vectorized).

    Array-pass replacement for the O(spans^2) interval scan: sort the
    unique edges once, count rw/pim coverage per elementary interval
    with difference arrays, and reduce the per-interval contributions in
    edge order (bit-identical to the sequential scan).
    """
    if len(starts) == 0:
        return TimeBreakdown()
    starts = np.asarray(starts, dtype=np.float64)
    finishes = np.asarray(finishes, dtype=np.float64)
    is_rw = np.asarray(is_rw, dtype=bool)
    edges = np.unique(np.concatenate((starts, finishes)))
    n_edges = len(edges)
    if n_edges < 2:
        return TimeBreakdown()
    first = np.searchsorted(edges, starts)
    last = np.searchsorted(edges, finishes)
    rw_delta = np.bincount(
        first[is_rw], minlength=n_edges
    ) - np.bincount(last[is_rw], minlength=n_edges)
    pim_delta = np.bincount(
        first[~is_rw], minlength=n_edges
    ) - np.bincount(last[~is_rw], minlength=n_edges)
    rw_cover = np.cumsum(rw_delta)[:-1] > 0
    pim_cover = np.cumsum(pim_delta)[:-1] > 0
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


def _unique_profiles(
    device, opcode: np.ndarray, size: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-command (duration, shift_pj, compute_pj) via shape dedup.

    ``SubarrayEngine.profile`` depends only on ``(opcode, size)``;
    real traces contain a handful of distinct shapes, so profiling each
    unique shape once and gathering is exact and cheap.
    """
    key = (opcode.astype(np.int64) << 48) | size
    uniq, inverse = np.unique(key, return_inverse=True)
    duration = np.empty(len(uniq), dtype=np.float64)
    shift_pj = np.empty(len(uniq), dtype=np.float64)
    compute_pj = np.empty(len(uniq), dtype=np.float64)
    for j, packed in enumerate(uniq.tolist()):
        code = packed >> 48
        words = packed & ((1 << 48) - 1)
        vpc_opcode = BYTE_TO_OPCODE[code]
        if vpc_opcode is VPCOpcode.TRAN:
            proto = VPC.tran(0, 0, words)
        else:
            proto = VPC(vpc_opcode, 0, 0, 0, words)
        profile = device.engine_model.profile(proto)
        duration[j] = profile.time_ns
        shift_pj[j] = profile.energy.shift_pj
        compute_pj[j] = profile.energy.compute_pj
    return duration[inverse], shift_pj[inverse], compute_pj[inverse]


def _copy_costs(
    device, words: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(duration, read_pj, write_pj) of a cross-subarray copy per size.

    Delegates each unique word count to the device's scalar cost model
    (same ``math.ceil`` float divisions) so the gathered values are the
    exact floats the per-VPC reference loop computes.
    """
    uniq, inverse = np.unique(words, return_inverse=True)
    model = device.config.prep_model
    duration = np.empty(len(uniq), dtype=np.float64)
    read_pj = np.empty(len(uniq), dtype=np.float64)
    write_pj = np.empty(len(uniq), dtype=np.float64)
    for j, count in enumerate(uniq.tolist()):
        duration[j] = device._copy_cost_ns(count)
        reads = math.ceil(count / model.access_width_words)
        writes = math.ceil(count / model.write_access_width_words)
        read_pj[j] = reads * device.timing.read_pj
        write_pj[j] = writes * device.timing.write_pj
    return duration[inverse], read_pj[inverse], write_pj[inverse]


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

    Holds the per-subarray busy-until map, the bus/total clocks, the
    span record, the breakdown accumulators, and the functional word
    state, so a trace can be executed incrementally while later chunks
    are still being lowered (the streamed compile/execute pipeline).
    The contract is bit-identity: feeding a trace as any sequence of
    chunks and calling :meth:`finish` produces exactly the
    ``RunStats``, word-store contents, and span triple that feeding it
    as one chunk (what ``execute_trace`` does) produces.

    The float accumulations that make that non-trivial are handled
    explicitly: energy components carry the running left-to-right sum
    across chunks (:func:`_ordered_sum_carry`), decode-ready times are
    derived from the global command index, and the time sweep
    (:func:`sweep_spans`, which globally sorts span edges) runs once in
    :meth:`finish` over the accumulated spans.

    Functional state advances per chunk through the dataflow-batched
    apply (:func:`_apply_functional_chunk`), which hands a chunk whose
    ranges overlap without being equal to the exact per-command loop
    (:func:`_apply_functional_columnar`).  A chunk holding a negative
    seed or result falls back to that loop from the unchanged store,
    so error behaviour (message and offending command) is preserved.
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
        self._busy: Dict[int, float] = {}
        self._bus_busy = 0.0
        self._finish_time = 0.0
        self._span_start: List[float] = []
        self._span_finish: List[float] = []
        self._span_rw: List[bool] = []
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

        is_mul = opcode == MUL_BYTE
        profile_ns, profile_shift, profile_compute = _unique_profiles(
            device, opcode, size
        )
        copy_ns, copy_read, copy_write = _copy_costs(device, size)
        result_words = np.where(is_mul, 1, size)
        result_ns, result_read, result_write = _copy_costs(
            device, result_words
        )

        operand_copy = deps.remote >= 0
        result_copy = compute & (deps.dest >= 0)
        cross_tran = deps.uses_bus

        # --------------------------------------------------------------
        # Energy: per-command contributions are fully static; lay them
        # out in the reference loop's event order (operand copy,
        # profile, result copy — three slots per command) and continue
        # the running left-to-right reduction across chunks.
        # --------------------------------------------------------------
        read_contrib = np.zeros(3 * n)
        write_contrib = np.zeros(3 * n)
        shift_contrib = np.zeros(3 * n)
        compute_contrib = np.zeros(3 * n)
        slot0 = 3 * np.flatnonzero(operand_copy)
        read_contrib[slot0] = copy_read[operand_copy]
        write_contrib[slot0] = copy_write[operand_copy]
        profiled = compute | ~cross_tran
        slot1 = 3 * np.flatnonzero(profiled) + 1
        shift_contrib[slot1] = profile_shift[profiled]
        compute_contrib[slot1] = profile_compute[profiled]
        slot1_cross = 3 * np.flatnonzero(cross_tran) + 1
        read_contrib[slot1_cross] = copy_read[cross_tran]
        write_contrib[slot1_cross] = copy_write[cross_tran]
        slot2 = 3 * np.flatnonzero(result_copy) + 2
        read_contrib[slot2] = result_read[result_copy]
        write_contrib[slot2] = result_write[result_copy]
        self._read_pj = _ordered_sum_carry(self._read_pj, read_contrib)
        self._write_pj = _ordered_sum_carry(self._write_pj, write_contrib)
        self._shift_pj = _ordered_sum_carry(self._shift_pj, shift_contrib)
        self._compute_pj = _ordered_sum_carry(
            self._compute_pj, compute_contrib
        )

        # --------------------------------------------------------------
        # Busy-until scan: the only sequential dependence.  The decode
        # clock continues from the global command index, and the busy
        # map / bus clock persist on the state across chunks.
        # --------------------------------------------------------------
        decode_ns = device.config.vpc_decode_ns
        ready_list = (
            np.arange(
                self.offset + 1, self.offset + n + 1, dtype=np.float64
            )
            * decode_ns
        ).tolist()
        busy = self._busy
        busy_get = busy.get
        bus_busy = self._bus_busy
        finish_time = self._finish_time
        start_append = self._span_start.append
        finish_append = self._span_finish.append
        rw_append = self._span_rw.append

        for (
            ready,
            code,
            home,
            remote,
            dest,
            profile_dur,
            copy_dur,
            result_dur,
            has_operand_copy,
            has_result_copy,
            is_cross,
        ) in zip(
            ready_list,
            opcode.tolist(),
            deps.home.tolist(),
            deps.remote.tolist(),
            deps.dest.tolist(),
            profile_ns.tolist(),
            copy_ns.tolist(),
            result_ns.tolist(),
            operand_copy.tolist(),
            result_copy.tolist(),
            cross_tran.tolist(),
        ):
            if code != TRAN_BYTE:
                home_busy = busy_get(home, 0.0)
                start = ready if ready > home_busy else home_busy
                if has_operand_copy:
                    remote_busy = busy_get(remote, 0.0)
                    begin = start if start > remote_busy else remote_busy
                    start = begin + copy_dur
                    busy[remote] = start
                    start_append(begin)
                    finish_append(start)
                    rw_append(True)
                finish = start + profile_dur
                busy[home] = finish
                start_append(start)
                finish_append(finish)
                rw_append(False)
                if has_result_copy:
                    dest_busy = busy_get(dest, 0.0)
                    begin = finish if finish > dest_busy else dest_busy
                    finish = begin + result_dur
                    busy[dest] = finish
                    start_append(begin)
                    finish_append(finish)
                    rw_append(True)
            elif not is_cross:
                source_busy = busy_get(home, 0.0)
                begin = ready if ready > source_busy else source_busy
                finish = begin + profile_dur
                busy[home] = finish
                start_append(begin)
                finish_append(finish)
                rw_append(False)
            else:
                begin = bus_busy if bus_busy > ready else ready
                source_busy = busy_get(home, 0.0)
                if source_busy > begin:
                    begin = source_busy
                dest_busy = busy_get(dest, 0.0)
                if dest_busy > begin:
                    begin = dest_busy
                finish = begin + copy_dur
                bus_busy = finish
                busy[home] = finish
                busy[dest] = finish
                start_append(begin)
                finish_append(finish)
                rw_append(True)
            if finish > finish_time:
                finish_time = finish

        self._bus_busy = bus_busy
        self._finish_time = finish_time

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
        starts_array = np.array(self._span_start, dtype=np.float64)
        finishes_array = np.array(self._span_finish, dtype=np.float64)
        rw_array = np.array(self._span_rw, dtype=bool)
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
    sort keyed on (start address, command, read before write).  When
    ranges that overlap are always equal (the chunk is *interval-exact*),
    each range is a variable and the sort yields, per read, the command
    that last wrote it, and per range, its final writer.  Values then
    live in a version buffer: the chunk's ranges as gathered from the
    store, then one private slot per compute result, so a staging word
    reused row to row carries no WAR or WAW hazard.  A TRAN is a
    rename: a read of its output resolves to what the TRAN itself read,
    and no TRAN is executed.  Compute commands run by RAW depth, each
    ``(level, opcode, size)`` group as one gather of operand windows and
    one row-wise ``einsum`` (MUL), ``+`` (ADD) or broadcast ``*``
    (SMUL); one scatter of the final writers' values updates the store.

    The arithmetic skips ``RMProcessor.apply``'s operand-range checks.
    Soundness is restored by monitoring: the gathered ranges and every
    compute result are checked once for negatives.  If both checks
    pass, no per-command operand check could have fired — every value a
    command read was a non-negative seed or a non-negative earlier
    result, and int64 arithmetic wraps identically in any order — so
    the store ends bit-identical to the exact loop's.

    A chunk that is not interval-exact, or holds an empty range, is
    applied by the exact loop :func:`_apply_functional_columnar` here.  Returns False *without
    touching the store* when a negative value appears (seed or result):
    the caller replays the chunk through the exact loop, which
    reproduces the canonical ``ValueError`` at the first offending
    command if one of its operands really is negative.
    """
    n = len(cols)
    if n == 0:
        return True
    opcode = cols.opcode
    size = cols.size
    compute = cols.is_compute

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
    present[1::3] = compute
    row = np.flatnonzero(present)
    row = row[np.argsort(starts[row], kind="stable")]
    start = starts[row]
    length = lengths[row]
    del starts, lengths, present
    same = start[1:] == start[:-1]
    clash = np.where(
        same, length[1:] != length[:-1], start[:-1] + length[:-1] > start[1:]
    )
    if clash.any() or not length.all():
        _apply_functional_columnar(device, cols, index_offset=index_offset)
        return True

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
    del row, start, length, same, clash, group_first, last_write, produced
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
