"""Streamed compile/execute pipeline: chunk driver and telemetry.

StreamPIM's core argument is that matrix computation should *stream*
through the device rather than stall on phase boundaries.  The phased
reproduction still compiled and executed as strictly sequential phases:
the whole :class:`~repro.isa.columnar.ColumnarTrace` materialised in
``PimTask.to_trace`` before ``execute_trace`` saw VPC 0.  This module
drives the chunked alternative end to end:

* the producer is :meth:`~repro.core.task.PimTask.to_trace_chunks` (or
  :func:`iter_trace_chunks` slicing an already-compiled trace, e.g. on
  a trace-cache hit), yielding op-boundary-aligned chunks;
* the consumer is
  :meth:`~repro.core.device.StreamPIMDevice.execute_trace_stream` — a
  per-chunk SPV verification gate feeding one resumable
  :class:`~repro.sim.vector_exec.VectorExecState`;
* :func:`run_stream` couples the two, times both sides of the pipe,
  and reports the ``stream.*`` metrics family through the device's
  observation collector.

The pipeline is interleaved on one thread: the generator lowers the
next operation exactly while the engine is between chunks.  (A threaded
producer was measured and rejected — both sides are GIL-bound Python
loops, so handing chunks across a queue *added* ~40% wall time.)  The
streamed speedup instead comes from removing the phase barrier and from
the chunked consumer's dataflow-batched functional apply; the telemetry
still separates produce (lowering) from consume (execution) time so
the stall/overlap economics stay measurable.

Bit-identity contract: for any chunk size, the streamed run's
``RunStats``, word-store contents, and emitted spans equal the phased
``compile -> materialize -> execute_trace`` sequence
exactly (``tests/test_stream_exec.py``).
"""

from __future__ import annotations

import time

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.isa.columnar import ColumnarTrace

#: Default minimum chunk size (records) before a chunk is cut at the
#: next operation boundary.  Large enough to amortise per-chunk array
#: passes, small enough that shipped workloads stream in several chunks.
DEFAULT_CHUNK_VPCS = 4096


@dataclass
class StreamTelemetry:
    """Measured behaviour of one streamed compile/execute run.

    ``produce_ns`` is wall time spent inside the producer (lowering the
    next chunk, seeding newly discovered scalar slots) — from the
    consumer's point of view this is stall time, so it is also exposed
    as :attr:`stall_ns`.  ``consume_ns`` is everything else under the
    run (per-chunk verification and execution).
    """

    chunks: int = 0
    records: int = 0
    produce_ns: int = 0
    consume_ns: int = 0
    wall_ns: int = 0
    fallbacks: int = 0
    cache_hit: bool = False

    @property
    def stall_ns(self) -> int:
        """Time the consumer waited on the producer."""
        return self.produce_ns

    @property
    def overlap_ratio(self) -> float:
        """Fraction of the shorter pipeline side hidden under the other.

        ``(produce + consume - wall) / min(produce, consume)``, clamped
        to [0, 1].  The interleaved single-thread pipeline reports ~0 —
        both sides share the thread, so nothing runs concurrently; the
        metric exists so alternative drivers (process pools, shared
        memory rings) can report real overlap through the same channel.
        """
        shorter = min(self.produce_ns, self.consume_ns)
        if shorter <= 0:
            return 0.0
        hidden = self.produce_ns + self.consume_ns - self.wall_ns
        return max(0.0, min(1.0, hidden / shorter))


class TimedChunkProducer:
    """Iterator wrapper that accounts time spent producing chunks."""

    def __init__(self, chunks: Iterable[ColumnarTrace]) -> None:
        self._iterator = iter(chunks)
        self.produce_ns = 0

    def __iter__(self) -> "TimedChunkProducer":
        return self

    def __next__(self) -> ColumnarTrace:
        begin = time.perf_counter_ns()
        try:
            return next(self._iterator)
        finally:
            self.produce_ns += time.perf_counter_ns() - begin


def iter_trace_chunks(
    trace: ColumnarTrace, chunk_vpcs: int = DEFAULT_CHUNK_VPCS
) -> Iterator[ColumnarTrace]:
    """Slice an already-compiled trace into execution chunks.

    Used when the trace cache already holds the full trace: there is
    nothing left to overlap with lowering, but the chunked consumer
    (and its per-chunk batched apply) still wants chunk-sized pieces.
    With operation boundaries (``trace.op_starts``) the chunks are the
    ones a cold streamed run drains — cut at the first boundary at
    least ``chunk_vpcs`` records on, plus the remainder — otherwise
    fixed ``chunk_vpcs``-record slices.
    """
    if chunk_vpcs < 1:
        raise ValueError(f"chunk_vpcs must be positive, got {chunk_vpcs}")
    records = trace.records
    starts = trace.op_starts
    if starts is None or not len(starts):
        cuts = range(chunk_vpcs, len(records), chunk_vpcs)
    else:
        cuts = []
        begin = 0
        for end in starts[1:].tolist():
            if end - begin >= chunk_vpcs:
                cuts.append(end)
                begin = end
    begin = 0
    for end in [*cuts, len(records)]:
        if end > begin:
            yield ColumnarTrace(records[begin:end])
        begin = end


def task_chunk_producer(
    task, chunk_vpcs: int = DEFAULT_CHUNK_VPCS, device=None
) -> Iterator[ColumnarTrace]:
    """Chunked lowering plus incremental word-store materialisation.

    Wraps :meth:`PimTask.to_trace_chunks` so the device's word store is
    seeded exactly when the streamed executor needs it: matrices once
    placement exists (before the first chunk executes), scalar slots
    incrementally as lowering discovers them.  Slot addresses are
    never-reused scratch words, so incremental seeding is equivalent to
    the phased up-front ``materialize`` (see
    :meth:`PimTask.materialize_scalar_slots`).
    """
    device = device or task.device
    seeded = 0
    first = True
    for chunk in task.to_trace_chunks(chunk_vpcs=chunk_vpcs):
        if first:
            task.materialize_matrices(device)
            first = False
        seeded = task.materialize_scalar_slots(device, start=seeded)
        yield chunk


def run_stream(
    device,
    chunks: Iterable[ColumnarTrace],
    workload: str = "trace",
    functional: bool = True,
    verify: bool = True,
    faults=None,
    cache_hit: bool = False,
):
    """Drive the chunk pipeline through a device and measure it.

    Returns ``(result, telemetry)`` where ``result`` is the device's
    :class:`~repro.core.device.StreamExecResult` and ``telemetry`` a
    :class:`StreamTelemetry`.  When the device's observation collector
    is enabled, the ``stream.*`` metrics family is recorded.
    """
    producer = TimedChunkProducer(chunks)
    begin = time.perf_counter_ns()
    result = device.execute_trace_stream(
        producer,
        workload=workload,
        functional=functional,
        verify=verify,
        faults=faults,
    )
    wall_ns = time.perf_counter_ns() - begin
    telemetry = StreamTelemetry(
        chunks=result.chunks,
        records=len(result.trace),
        produce_ns=producer.produce_ns,
        consume_ns=max(0, wall_ns - producer.produce_ns),
        wall_ns=wall_ns,
        fallbacks=result.fallbacks,
        cache_hit=cache_hit,
    )
    if device.obs.enabled:
        from repro.obs.stream_metrics import record_stream_run

        record_stream_run(device.obs, telemetry)
    return result, telemetry


__all__ = [
    "DEFAULT_CHUNK_VPCS",
    "StreamTelemetry",
    "TimedChunkProducer",
    "iter_trace_chunks",
    "task_chunk_producer",
    "run_stream",
]
