"""StreamPIM device: VPC queue, bank controllers, execution engines.

Implements the control flow of Fig. 14: the host streams VPCs into the
device's command queue (asynchronous send-response); each VPC is decoded
and dispatched to the bank/subarray holding its operands; bank
controllers drive the RM bus and RM processor; cross-subarray operand
collection uses read/write commands.

Two execution modes are provided:

* **event mode** (:meth:`StreamPIMDevice.execute_trace`) — execution of
  an explicit VPC stream with per-subarray blocking between read/write
  and shift/compute operation classes, through the columnar engine of
  :mod:`repro.sim.vector_exec`.  State-accurate for data (a paged word
  store, :class:`WordStore`) and used to validate the analytic mode.
* **analytic mode** (:meth:`StreamPIMDevice.execute_rounds`) — closed-form
  composition of prep/compute rounds through the
  :class:`~repro.core.scheduler.Scheduler`; this is how the paper-scale
  workloads (millions of VPCs) are simulated in reasonable time.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.processor import RMProcessor, RMProcessorConfig
from repro.core.rmbus import RMBus, RMBusConfig
from repro.core.scheduler import (
    PrepCostModel,
    Round,
    ScheduleResult,
    Scheduler,
    SchedulerPolicy,
)
from repro.core.subarray_engine import SubarrayEngine
from repro.obs.spans import NULL_COLLECTOR
from repro.rm.address import AddressMap, DeviceGeometry
from repro.rm.timing import RMTimingConfig
from repro.sim.stats import RunStats


@dataclass(frozen=True)
class StreamPIMConfig:
    """Complete configuration of one StreamPIM device."""

    geometry: DeviceGeometry = field(default_factory=DeviceGeometry)
    timing: RMTimingConfig = field(default_factory=RMTimingConfig)
    processor: RMProcessorConfig = field(default_factory=RMProcessorConfig)
    bus: RMBusConfig = field(default_factory=RMBusConfig)
    scheduler_policy: SchedulerPolicy = SchedulerPolicy.UNBLOCK
    prep_model: PrepCostModel = field(default_factory=PrepCostModel)
    #: Host-link decode/dispatch overhead per VPC (ns); the asynchronous
    #: send-response protocol pipelines this behind execution, so it is
    #: exposed only when the device would otherwise be idle.
    vpc_decode_ns: float = 10.0

    def __post_init__(self) -> None:
        if self.vpc_decode_ns < 0:
            raise ValueError(
                f"vpc_decode_ns must be non-negative, got "
                f"{self.vpc_decode_ns}"
            )

    def with_policy(self, policy: SchedulerPolicy) -> "StreamPIMConfig":
        return StreamPIMConfig(
            geometry=self.geometry,
            timing=self.timing,
            processor=self.processor,
            bus=self.bus,
            scheduler_policy=policy,
            prep_model=self.prep_model,
            vpc_decode_ns=self.vpc_decode_ns,
        )


@dataclass(frozen=True)
class StreamExecResult:
    """Outcome of one :meth:`StreamPIMDevice.execute_trace_stream` run."""

    #: The run statistics (bit-identical to the phased vector engine).
    stats: RunStats
    #: Concatenation of every executed chunk, in order — what the phased
    #: path would have compiled up front; cache write-through stores it.
    trace: "object"
    #: Number of non-empty chunks fed to the execution state.
    chunks: int
    #: Chunks the batched functional apply replayed through the exact
    #: loop because a seed or result was negative.
    fallbacks: int


def run_heads(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal neighbours in the
    non-empty 1-D ``values``."""
    head = np.empty(len(values), dtype=bool)
    head[0] = True
    np.not_equal(values[1:], values[:-1], out=head[1:])
    return head


class WordStore:
    """Paged word-addressable data store backing event-mode execution.

    Words live in :attr:`PAGE_WORDS`-word int64 pages, allocated on
    first write as rows of one growable 2-D array; a boolean mask beside
    it records which words were written, and a sorted page-id index maps
    an address's page to its row.  Unwritten words read 0 and ``len``
    counts written words, explicit zeros included.  :meth:`gather` and
    :meth:`scatter` move a whole address array at once, so their cost
    follows the number of words moved, not the size of the store.
    """

    #: Words per page; a power of two, so an address splits into
    #: ``(address >> _PAGE_SHIFT, address & _PAGE_MASK)``.
    PAGE_WORDS = 512
    _PAGE_SHIFT = 9
    _PAGE_MASK = PAGE_WORDS - 1

    def __init__(self) -> None:
        #: Sorted ids of the allocated pages, and the row of each.
        self._page_ids = np.empty(0, dtype=np.int64)
        self._page_rows = np.empty(0, dtype=np.int64)
        #: Page rows (allocated up to ``len(self._page_ids)``; the rest
        #: is spare capacity) and the written mask beside them.
        self._pages = np.zeros((0, self.PAGE_WORDS), dtype=np.int64)
        self._written = np.zeros((0, self.PAGE_WORDS), dtype=bool)

    def read(self, address: int, length: int) -> np.ndarray:
        """``length`` words from ``address`` (unwritten words read 0)."""
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        return self.gather(np.arange(address, address + length))

    def write(self, address: int, values) -> None:
        """Store ``values`` in consecutive words from ``address``."""
        values = np.asarray(values).ravel()
        self.scatter(np.arange(address, address + len(values)), values)

    def gather(self, addresses) -> np.ndarray:
        """Values at ``addresses`` (any shape; unwritten words read 0)."""
        addresses = np.asarray(addresses, dtype=np.int64)
        rows = self._rows_of(addresses >> self._PAGE_SHIFT)
        words = (rows << self._PAGE_SHIFT) | (addresses & self._PAGE_MASK)
        hit = rows >= 0
        if hit.all():
            return self._pages.reshape(-1)[words]
        out = np.zeros(addresses.shape, dtype=np.int64)
        out[hit] = self._pages.reshape(-1)[words[hit]]
        return out

    def scatter(self, addresses, values) -> None:
        """Store ``values[i]`` at ``addresses[i]`` (distinct addresses)."""
        addresses = np.asarray(addresses, dtype=np.int64).ravel()
        values = np.asarray(values).astype(np.int64, copy=False).ravel()
        if len(addresses) != len(values):
            raise ValueError(
                f"{len(addresses)} addresses but {len(values)} values"
            )
        if not len(addresses):
            return
        # Addresses come in runs that share a page: each run's page is
        # looked up, and allocated when missing, once.
        pages = addresses >> self._PAGE_SHIFT
        first = np.flatnonzero(run_heads(pages))
        run_pages = pages[first]
        rows = self._lookup_rows(run_pages)
        missing = rows < 0
        if missing.any():
            absent = run_pages[missing]
            self._allocate(np.unique(absent))
            rows[missing] = self._lookup_rows(absent)
        rows = np.repeat(rows, np.diff(np.append(first, len(pages))))
        words = (rows << self._PAGE_SHIFT) | (addresses & self._PAGE_MASK)
        # The page arrays are always C-contiguous (np.zeros / np.empty),
        # so reshape(-1) is a view and these writes land in the store.
        self._pages.reshape(-1)[words] = values
        self._written.reshape(-1)[words] = True

    def snapshot(self) -> Dict[int, int]:
        """``{address: value}`` for every written word, zeros included."""
        rows = self._page_rows
        index, offsets = np.nonzero(self._written[rows])
        addresses = (self._page_ids[index] << self._PAGE_SHIFT) + offsets
        values = self._pages[rows[index], offsets]
        return dict(zip(addresses.tolist(), values.tolist()))

    def __len__(self) -> int:
        return int(np.count_nonzero(self._written[: len(self._page_ids)]))

    def _rows_of(self, pages: np.ndarray) -> np.ndarray:
        """Row of each page id; -1 where the page is not allocated.

        Callers pass addresses in runs that share a page (expanded
        word ranges), so each run's page is looked up once and its row
        repeated over the run.
        """
        flat = pages.ravel()
        if not len(flat):
            return np.full(pages.shape, -1, dtype=np.int64)
        first = np.flatnonzero(run_heads(flat))
        rows = self._lookup_rows(flat[first])
        return np.repeat(rows, np.diff(np.append(first, len(flat)))).reshape(
            pages.shape
        )

    def _lookup_rows(self, page_ids: np.ndarray) -> np.ndarray:
        """Row of each 1-D page id; -1 where the page is not allocated."""
        ids = self._page_ids
        if not len(ids):
            return np.full(len(page_ids), -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(ids, page_ids), len(ids) - 1)
        return np.where(ids[pos] == page_ids, self._page_rows[pos], -1)

    def _allocate(self, new_pages: np.ndarray) -> None:
        """Add zeroed rows for ``new_pages`` (sorted, none allocated
        yet).

        Growth makes room for twice the rows needed, so the allocations
        after the first big one (the operand seeding) seldom copy the
        store.  Spare capacity is left uninitialised until allocated.
        """
        used = len(self._page_ids)
        need = used + len(new_pages)
        if need > len(self._pages):
            rows = max(2 * need, 8)
            pages = np.empty((rows, self.PAGE_WORDS), dtype=np.int64)
            written = np.empty((rows, self.PAGE_WORDS), dtype=bool)
            pages[:used] = self._pages[:used]
            written[:used] = self._written[:used]
            self._pages, self._written = pages, written
        self._pages[used:need] = 0
        self._written[used:need] = False
        at = np.searchsorted(self._page_ids, new_pages)
        self._page_ids = np.insert(self._page_ids, at, new_pages)
        self._page_rows = np.insert(
            self._page_rows, at, np.arange(used, need, dtype=np.int64)
        )


class StreamPIMDevice:
    """One StreamPIM device instance."""

    def __init__(self, config: Optional[StreamPIMConfig] = None) -> None:
        self.config = config or StreamPIMConfig()
        self.timing = self.config.timing
        self.address_map = AddressMap(self.config.geometry)
        self.processor = RMProcessor(self.config.processor, self.timing)
        self.bus = RMBus(self.config.bus, self.timing)
        self.engine_model = SubarrayEngine(
            processor=self.processor, bus=self.bus, timing=self.timing
        )
        self.scheduler = Scheduler(
            policy=self.config.scheduler_policy,
            timing=self.timing,
            prep_model=self.config.prep_model,
        )
        self.store = WordStore()
        self._bounds_verifier = None
        #: Observation sink (:mod:`repro.obs`); the disabled singleton
        #: by default — attach a real collector with :meth:`observe`.
        self.obs = NULL_COLLECTOR

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def observe(self, collector) -> "StreamPIMDevice":
        """Attach an observation collector to this device.

        Wires the device's trace execution plus the analytic scheduler
        and RM-bus cost model to the same collector, so one profiled
        run lands in one span/metric stream.  Pass
        :data:`repro.obs.NULL_COLLECTOR` to detach.  Returns the device
        for chaining.
        """
        self.obs = collector
        self.scheduler.obs = collector
        self.bus.obs = collector
        return self

    # ------------------------------------------------------------------
    # Analytic mode
    # ------------------------------------------------------------------
    def execute_rounds(self, rounds: List[Round]) -> ScheduleResult:
        """Compose prep/compute rounds under the configured policy."""
        return self.scheduler.compose(rounds)

    # ------------------------------------------------------------------
    # Event mode
    # ------------------------------------------------------------------
    def execute_trace(
        self,
        trace,
        workload: str = "trace",
        functional: bool = True,
        verify: bool = True,
        engine: str = "vector",
        faults=None,
    ) -> RunStats:
        """Execute an explicit VPC stream with per-subarray blocking.

        VPCs are issued in order; each waits for the subarrays it touches
        (and, for read/write-class transfers, the shared internal bus).
        The asynchronous send-response protocol lets independent VPCs on
        different subarrays overlap.  The trace (a ``VPCTrace`` is
        converted to columnar on entry) runs as one chunk of a
        :class:`~repro.sim.vector_exec.VectorExecState`.

        Args:
            workload: label for the returned stats.
            functional: move/compute real data through the word store.
            verify: run the O(#VPC) SPV001 operand-bounds gate first; a
                failing trace raises
                :class:`~repro.verify.trace_verifier.TraceVerificationError`
                instead of corrupting the word store.  The full rule set
                is the job of ``repro-streampim check``.
            engine: must be ``"vector"``; the per-VPC reference loop is
                a test oracle (``tests/oracles/scalar_exec.py``).
            faults: an optional resolved fault session
                (:class:`~repro.resilience.session.FaultSession`):
                undetected shift faults silently corrupt destination
                words, repair costs are charged to the ``recovery``
                breakdown categories, and an aborting policy raises a
                typed :class:`~repro.sim.errors.SimulationFault` at the
                faulting trace index, with every earlier VPC applied.

        Returns:
            RunStats with total time, time/energy breakdowns and VPC
            counters.
        """
        if engine != "vector":
            raise ValueError(
                f"engine must be 'vector', got {engine!r}; the scalar "
                f"reference executor is a test oracle in tests/oracles"
            )
        return self._execute_chunks(
            [trace], workload, functional, verify, faults, exact_apply=True
        ).stats

    # ------------------------------------------------------------------
    # Streamed event mode (chunked compile/execute pipeline)
    # ------------------------------------------------------------------
    def execute_trace_stream(
        self,
        chunks,
        workload: str = "trace",
        functional: bool = True,
        verify: bool = True,
        faults=None,
    ):
        """Execute a columnar trace delivered as an iterator of chunks.

        The streamed counterpart of :meth:`execute_trace`:
        each chunk is verified through the same vectorized SPV rule
        gate (one :class:`~repro.verify.StreamingTraceVerifier` pass,
        whole-trace-identical findings) and then advances one
        :class:`~repro.sim.vector_exec.VectorExecState`, so execution
        of chunk K proceeds while chunk K+1 is still being lowered by
        the producer.  The resulting ``RunStats``, word-store contents
        and observation spans are bit-identical to the phased path on
        the concatenated trace.

        Returns a :class:`StreamExecResult` carrying the stats, the
        concatenated :class:`~repro.isa.columnar.ColumnarTrace` (for
        cache write-through and span attribution), and per-stream
        counters.
        """
        return self._execute_chunks(
            chunks, workload, functional, verify, faults, exact_apply=False
        )

    def _execute_chunks(
        self, chunks, workload, functional, verify, faults, exact_apply
    ) -> StreamExecResult:
        """Verify and execute ``chunks`` in order through one
        :class:`~repro.sim.vector_exec.VectorExecState`."""
        from repro.isa.columnar import ColumnarTrace, RECORD_DTYPE
        from repro.sim.vector_exec import VectorExecState
        from repro.verify.trace_verifier import (
            StreamingTraceVerifier,
            TraceVerificationError,
        )

        checker = (
            StreamingTraceVerifier(self._trace_verifier(), subject=workload)
            if verify
            else None
        )
        # Observability: checked once per run.  The engine stays
        # untouched when disabled; when enabled it hands back the
        # busy-interval arrays it computed anyway and the spans are
        # batch-built here, after the run.
        sink = [] if self.obs.enabled else None
        state = VectorExecState(
            self,
            workload=workload,
            functional=functional,
            faults=faults,
            span_sink=sink,
            exact_apply=exact_apply,
        )
        record_parts = []
        for cols in chunks:
            if not isinstance(cols, ColumnarTrace):
                cols = ColumnarTrace.from_trace(cols)
            if checker is not None:
                report = checker.feed(cols)
                if not report.ok():
                    raise TraceVerificationError(report)
            state.feed(cols)
            record_parts.append(cols.records)
        stats = state.finish()
        if len(record_parts) == 1:
            records = record_parts[0]
        elif record_parts:
            records = np.concatenate(record_parts)
        else:
            records = np.empty(0, dtype=RECORD_DTYPE)
        trace = ColumnarTrace(records)
        if sink is not None:
            from repro.obs.trace_spans import record_trace_run

            starts, finishes, is_rw = sink[0]
            record_trace_run(
                self.obs, self, trace, starts, finishes, is_rw, stats
            )
        return StreamExecResult(
            stats=stats,
            trace=trace,
            chunks=state.chunks_fed,
            fallbacks=state.fallbacks,
        )

    # ------------------------------------------------------------------
    def _copy_cost_ns(self, words: int) -> float:
        """Read/write copy duration (row-streaming accesses)."""
        model = self.config.prep_model
        if self.config.scheduler_policy.overlaps_prep:
            reads = math.ceil(words / model.access_width_words)
            writes = math.ceil(words / model.write_access_width_words)
        else:
            reads = writes = math.ceil(words / model.blocked_access_width)
        return (
            model.activate_ns
            + reads * self.timing.read_ns
            + writes * self.timing.write_ns
        )

    # ------------------------------------------------------------------
    def _trace_verifier(self):
        """The cached pre-replay bounds verifier (SPV001 only).

        Geometry is frozen for the device's lifetime, so one verifier
        (with its geometry-derived bounds) serves every execute_trace
        call instead of being rebuilt per call.
        """
        if self._bounds_verifier is None:
            from repro.verify.trace_verifier import TraceVerifier

            self._bounds_verifier = TraceVerifier(
                geometry=self.config.geometry, rules=("SPV001",)
            )
        return self._bounds_verifier

    # ------------------------------------------------------------------
    @property
    def pim_subarrays(self) -> int:
        return self.config.geometry.pim_subarrays

