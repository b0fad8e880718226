"""Host programming interface (section IV-D, Fig. 16).

A :class:`PimTask` collects matrix operands and matrix-grained
operations, then lowers them to vector-grained VPCs with the
``distribute``/``unblock`` optimisations applied::

    task = create_pim_task()
    task.add_matrix("A", a)          # numpy arrays, unsigned 8-bit
    task.add_matrix("B", b)
    task.add_matrix("C", shape=(m, n))
    task.add_operation(TaskOp.MATMUL, "A", "B", "C")
    report = task.run()              # -> RunReport

Lowering produces two artifacts:

* a *round plan* — prep/compute rounds executed analytically by the
  device's scheduler (used at paper scale, millions of VPCs);
* optionally an explicit :class:`~repro.isa.columnar.ColumnarTrace` —
  one command per dot product / transfer, with real placed addresses
  (used by the event-driven mode and for Table IV counting; enumerating
  it is O(#VPC), so it is intended for reduced problem sizes).

VPC counting follows the trace-generation convention recovered from
Table IV: every PIM VPC is accompanied by one operand-delivery TRAN, plus
one collection TRAN when its result is not co-located with the row it was
computed next to (matrix-matrix products leave result rows in place;
matrix-vector products collect each scalar result).
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.device import StreamPIMDevice, StreamPIMConfig, run_heads
from repro.core.placement import (
    ADDRESS,
    BANK,
    LENGTH,
    OFFSET,
    SUBARRAY,
    MatrixHandle,
    Placer,
    PlacementPolicy,
)
from repro.core.scheduler import Round, SchedulerPolicy
from repro.core.stream import DEFAULT_CHUNK_VPCS
from repro.isa.columnar import (
    ADD_BYTE,
    MUL_BYTE,
    RECORD_DTYPE,
    SMUL_BYTE,
    TRAN_BYTE,
    ColumnarTrace,
    ColumnarTraceBuilder,
)
from repro.isa.encoding import NO_OPERAND_SENTINEL
from repro.isa.vpc import VPC
from repro.sim.stats import EnergyBreakdown, RunStats, TimeBreakdown

#: The one read-only zero word every shape-only operand views.
_ZERO_WORD = np.zeros(1, dtype=np.int64)
_ZERO_WORD.flags.writeable = False


class TaskOp(enum.Enum):
    """Matrix-grained operations a task understands."""

    MATMUL = "matmul"  # C = A @ B
    MATVEC = "matvec"  # y = A @ x
    MATVEC_T = "matvec_t"  # y = A.T @ x
    MAT_ADD = "mat_add"  # C = A + B
    MAT_SCALE = "mat_scale"  # B = alpha * A
    VEC_ADD = "vec_add"  # z = x + y
    VEC_SCALE = "vec_scale"  # y = alpha * x
    DOT = "dot"  # s = x . y
    MATVEC_ACC = "matvec_acc"  # y = y + A @ x
    MATVEC_T_ACC = "matvec_t_acc"  # y = y + A.T @ x


@dataclass(frozen=True)
class TaskOperation:
    """One recorded operation: opcode plus operand/destination names."""

    op: TaskOp
    inputs: Tuple[str, ...]
    output: str
    scalar: Optional[str] = None


@dataclass
class OpCounts:
    """Closed-form VPC counts of one lowered operation."""

    pim_vpcs: int = 0
    move_vpcs: int = 0

    def merge(self, other: "OpCounts") -> None:
        self.pim_vpcs += other.pim_vpcs
        self.move_vpcs += other.move_vpcs


@dataclass
class RunReport:
    """Result of :meth:`PimTask.run`.

    Attributes:
        stats: platform timing/energy statistics.
        results: functional values of every matrix after the task.
        counts: total VPC counts (the Table IV columns).
    """

    stats: RunStats
    results: Dict[str, np.ndarray]
    counts: OpCounts

    @property
    def time_ns(self) -> float:
        return self.stats.time_ns

    @property
    def energy_pj(self) -> float:
        return self.stats.energy.total_pj


class PimTask:
    """A StreamPIM computation task (Fig. 16)."""

    def __init__(self, device: Optional[StreamPIMDevice] = None) -> None:
        self.device = device or StreamPIMDevice()
        self._matrices: Dict[str, np.ndarray] = {}
        self._scalars: Dict[str, int] = {}
        self._operations: List[TaskOperation] = []
        self._ran = False

    # ------------------------------------------------------------------
    # Step 2 of Fig. 16: register operands and operations
    # ------------------------------------------------------------------
    def add_matrix(
        self,
        name: str,
        values: Optional[np.ndarray] = None,
        shape: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Register a matrix operand (or a destination via ``shape``).

        A ``shape``-only operand reads as zeros and is stored as a
        read-only view, so it costs no memory until a functional run
        copies it.
        """
        if name in self._matrices or name in self._scalars:
            raise ValueError(f"operand {name!r} already added")
        if values is None:
            if shape is None:
                raise ValueError("provide either values or shape")
            rows, cols = shape
            if rows <= 0 or cols <= 0:
                raise ValueError(f"shape must be positive, got {shape}")
            # A read-only zero-stride view of one zero: timing-only runs
            # never read an operand's values, and np.zeros at paper
            # dimensions would make the allocator zero-fill every page
            # it serves from the heap.  The functional path copies every
            # operand before writing, and trace seeding only reads.
            values = np.ndarray(
                (rows, cols), np.int64, _ZERO_WORD, strides=(0, 0)
            )
        else:
            values = np.asarray(values, dtype=np.int64)
            if values.ndim == 1:
                values = values.reshape(1, -1)
            if values.ndim != 2:
                raise ValueError(
                    f"matrices must be 1-D or 2-D, got {values.ndim}-D"
                )
            values = values.copy()
        self._matrices[name] = values

    def add_vector(self, name: str, values: np.ndarray) -> None:
        """Register a vector operand (stored as a 1-row matrix)."""
        self.add_matrix(name, np.asarray(values).reshape(1, -1))

    def add_scalar(self, name: str, value: int) -> None:
        """Register a scalar operand (for SMUL-style scaling)."""
        if name in self._matrices or name in self._scalars:
            raise ValueError(f"operand {name!r} already added")
        self._scalars[name] = int(value)

    def add_operation(
        self,
        op: TaskOp,
        *names: str,
        scalar: Optional[str] = None,
    ) -> None:
        """Record one operation; the last name is the destination."""
        if len(names) < 2:
            raise ValueError("an operation needs inputs and a destination")
        *inputs, output = names
        for name in inputs:
            if name not in self._matrices:
                raise KeyError(f"unknown input matrix {name!r}")
        if output not in self._matrices:
            raise KeyError(f"unknown destination matrix {output!r}")
        if scalar is not None and scalar not in self._scalars:
            raise KeyError(f"unknown scalar {scalar!r}")
        self._validate_shapes(op, tuple(inputs), output)
        self._operations.append(
            TaskOperation(op, tuple(inputs), output, scalar)
        )

    # ------------------------------------------------------------------
    # Step 3 of Fig. 16: run
    # ------------------------------------------------------------------
    def run(self, workload: str = "task", functional: bool = True) -> RunReport:
        """Lower, schedule, and execute the task on the device.

        Args:
            workload: label recorded in the returned stats.
            functional: compute the real matrix results (numpy).  Pass
                False for timing-only runs at paper scale, where the
                functional arithmetic would dwarf the simulation cost.

        Returns:
            A :class:`RunReport` with timing/energy statistics, the
            functional results (empty when ``functional`` is False), and
            the VPC counts.
        """
        if not self._operations:
            raise RuntimeError("task has no operations; add some first")
        placer = self._build_placer()
        handles = self._place_all(placer)
        rounds: List[Round] = []
        counts = OpCounts()
        results = (
            {k: v.copy() for k, v in self._matrices.items()}
            if functional
            else {}
        )
        for operation in self._operations:
            op_rounds, op_counts = self._lower(operation, handles, placer)
            rounds.extend(op_rounds)
            counts.merge(op_counts)
            if functional:
                self._apply_functional(operation, results)
        schedule = self.device.execute_rounds(rounds)
        stats = RunStats(
            platform="StPIM",
            workload=workload,
            time_ns=schedule.total_ns,
            time_breakdown=schedule.time,
            energy=schedule.energy,
        )
        stats.bump("pim_vpcs", counts.pim_vpcs)
        stats.bump("move_vpcs", counts.move_vpcs)
        self._ran = True
        return RunReport(stats=stats, results=results, counts=counts)

    # ------------------------------------------------------------------
    # Lowering to rounds (analytic mode)
    # ------------------------------------------------------------------
    def _build_placer(self) -> Placer:
        policy = (
            PlacementPolicy.BASE
            if self.device.config.scheduler_policy is SchedulerPolicy.BASE
            else PlacementPolicy.DISTRIBUTE
        )
        return Placer(
            geometry=self.device.config.geometry,
            policy=policy,
            disjoint_result_sets=(
                self.device.config.scheduler_policy
                is SchedulerPolicy.UNBLOCK
            ),
        )

    def _place_all(self, placer: Placer) -> Dict[str, MatrixHandle]:
        """Place every matrix, applying the layout optimisations.

        Matrices consumed only as the second operand of matrix products
        (or produced by one and consumed by another) are stored
        transposed, so their columns stream contiguously onto the RM
        bus.  Matrices read by transposed matrix-vector products get a
        transposed mirror replica (both orientations are accessed).
        """
        produced = {op.output for op in self._operations}
        matmul_second = {
            op.inputs[1]
            for op in self._operations
            if op.op is TaskOp.MATMUL
        }
        non_transposable = set()
        for op in self._operations:
            if op.op is TaskOp.MATMUL:
                non_transposable.add(op.inputs[0])
            else:
                non_transposable.update(op.inputs)
                non_transposable.add(op.output)
        transposed = matmul_second - non_transposable
        matvec_t_inputs = {
            op.inputs[0]
            for op in self._operations
            if op.op in (TaskOp.MATVEC_T, TaskOp.MATVEC_T_ACC)
        }
        stale_mirrors = matvec_t_inputs & produced
        if stale_mirrors:
            raise NotImplementedError(
                f"matrices {sorted(stale_mirrors)} are written and then "
                "read column-wise; keeping their transposed mirrors "
                "coherent is not supported"
            )
        mirrored = matvec_t_inputs - transposed
        handles: Dict[str, MatrixHandle] = {}
        for name, values in self._matrices.items():
            rows, cols = values.shape
            handles[name] = placer.place_matrix(
                name,
                rows,
                cols,
                result=name in produced,
                transposed=name in transposed,
                mirror=name in mirrored,
            )
        return handles

    def _lower(
        self,
        operation: TaskOperation,
        handles: Dict[str, MatrixHandle],
        placer: Placer,
    ) -> Tuple[List[Round], OpCounts]:
        op = operation.op
        if op is TaskOp.MATMUL:
            return self._lower_matmul(operation, handles, placer)
        if op in (TaskOp.MATVEC, TaskOp.MATVEC_T, TaskOp.MATVEC_ACC,
                  TaskOp.MATVEC_T_ACC):
            return self._lower_matvec(operation, handles, placer)
        if op in (TaskOp.MAT_ADD, TaskOp.VEC_ADD):
            return self._lower_add(operation, handles, placer)
        if op in (TaskOp.MAT_SCALE, TaskOp.VEC_SCALE):
            return self._lower_scale(operation, handles, placer)
        if op is TaskOp.DOT:
            return self._lower_dot(operation, handles, placer)
        raise NotImplementedError(f"lowering for {op} missing")

    def _engine(self):
        return self.device.engine_model

    @staticmethod
    def _parallelism(handle, rows: int) -> int:
        """Processors available to a matrix's row-wise VPCs.

        A VPC runs where its resident row lives, so the parallelism is
        the number of distinct subarrays the matrix actually occupies —
        512 under distribute placement, a handful under base placement.
        """
        return max(1, min(rows, handle.subarray_count()))

    def _lower_matmul(self, operation, handles, placer):
        """C = A @ B: column rounds over B, as runs; C rows stay with A rows.

        When A has fewer rows than the PIM pool (small-batch DNN layers),
        several columns of B are processed concurrently: the pool splits
        into ``col_groups`` replicas of A's row set, each handling one
        column per round (the layout optimisation replicates A at task
        creation, cf. section IV-D).
        """
        a = handles[operation.inputs[0]]
        b = handles[operation.inputs[1]]
        m, k = a.shape
        n = b.cols
        # Orientation: keep the larger side resident and broadcast the
        # smaller one (C = A @ B and C^T = B^T @ A^T are the same VPCs;
        # the task's layout optimisation picks whichever needs less copy
        # traffic — crucial for small-batch DNN layers).
        if n > m:
            resident, rows_count, bcast_count = b, n, m
        else:
            resident, rows_count, bcast_count = a, m, n
        parallel_rows = self._parallelism(resident, rows_count)
        lo, hi = placer._pools["operand"]
        pool = hi - lo
        col_groups = 1
        if parallel_rows == rows_count and rows_count < pool:
            col_groups = min(bcast_count, max(1, pool // rows_count))
        per_sub = math.ceil(rows_count / parallel_rows)
        slices = resident.slices_per_row()
        slice_length = math.ceil(k / slices)
        engine = self._engine()
        proto = VPC.mul(0, 0, 0, slice_length)
        batch = engine.batch_profile(proto, per_sub * slices)
        # The batch profile covers one subarray's share; the round's
        # energy covers every dot product of its columns (each a partial
        # dot per slice, plus the partial-sum reduction below).
        round_energy = engine.profile(proto).energy.scaled(
            float(rows_count * col_groups * slices)
        )
        reduce_time = None
        if slices > 1:
            reduce_proto = VPC.add(0, 0, 0, rows_count * (slices - 1))
            reduce_batch = engine.batch_profile(reduce_proto, 1)
            reduce_time = reduce_batch.time
            merged_energy = EnergyBreakdown()
            merged_energy.merge(round_energy)
            merged_energy.merge(engine.profile(reduce_proto).energy)
            round_energy = merged_energy
        compute_ns = batch.time_ns
        compute_time = batch.time
        if reduce_time is not None:
            compute_ns += reduce_time.total_ns
            merged_time = TimeBreakdown()
            merged_time.merge(compute_time)
            merged_time.merge(reduce_time)
            compute_time = merged_time
        # Every round handles ``col_groups`` columns except a last,
        # narrower one: at most two runs.
        rounds: List[Round] = []
        full, rest = divmod(bcast_count, col_groups)
        for repeat, cols, first in (
            (full, col_groups, 0),
            (1, rest, full * col_groups),
        ):
            if cols == 0:
                continue
            prep = cols * k + k * parallel_rows * cols
            if slices > 1:
                prep += rows_count * (slices - 1) * cols
            rounds.append(
                Round(
                    label=f"{operation.output} cols {first}..",
                    # Gather each broadcast vector from its subarrays,
                    # then copy it to its replica of the resident rows.
                    prep_words=prep,
                    prep_targets=parallel_rows * cols,
                    compute_ns=compute_ns,
                    compute_time=compute_time,
                    compute_energy=round_energy,
                    move_vpcs=rows_count * cols * slices,
                    repeat=repeat,
                )
            )
        counts = OpCounts(
            pim_vpcs=m * n * (2 * slices - 1),
            move_vpcs=m * n * (2 * slices - 1),
        )
        return rounds, counts

    def _lower_matvec(self, operation, handles, placer):
        """y = A @ x (or A.T @ x, optionally accumulating into y)."""
        op = operation.op
        a = handles[operation.inputs[0]]
        transposed = op in (TaskOp.MATVEC_T, TaskOp.MATVEC_T_ACC)
        accumulate = op in (TaskOp.MATVEC_ACC, TaskOp.MATVEC_T_ACC)
        rows, length = (a.cols, a.rows) if transposed else (a.rows, a.cols)
        parallel = self._parallelism(a, rows)
        per_sub = math.ceil(rows / parallel)
        slices = a.slices_per_row()
        slice_length = math.ceil(length / slices)
        engine = self._engine()
        proto = VPC.mul(0, 0, 0, slice_length)
        batch = engine.batch_profile(proto, per_sub * slices)
        # Broadcast x to the row subarrays.  Transposed products need no
        # column gather: A^T x is executed as scalar-vector products on
        # the resident rows (y += x_i * A_i), so only x moves.
        prep_words = length * parallel + rows
        compute_ns = batch.time_ns
        compute_time = batch.time
        compute_energy = engine.profile(proto).energy.scaled(
            float(rows * slices)
        )
        pim = rows * slices
        move = rows * slices + rows  # delivery per partial + collection
        if slices > 1:
            # Partial-sum reduction: the slice results are collected to
            # the first slice's subarray and summed there.
            reduce_proto = VPC.add(0, 0, 0, rows * (slices - 1))
            reduce_batch = engine.batch_profile(reduce_proto, 1)
            compute_ns += reduce_batch.time_ns
            merged_time = TimeBreakdown()
            merged_time.merge(compute_time)
            merged_time.merge(reduce_batch.time)
            compute_time = merged_time
            merged_energy = EnergyBreakdown()
            merged_energy.merge(compute_energy)
            merged_energy.merge(engine.profile(reduce_proto).energy)
            compute_energy = merged_energy
            prep_words += rows * (slices - 1)
            pim += rows * (slices - 1)
            move += 2 * rows * (slices - 1)
        if accumulate:
            # Collected scalars land as a contiguous staging vector next
            # to the destination; the accumulation is then one pipelined
            # vector addition.  (The trace convention still counts its
            # element-wise ADD commands, matching Table IV.)
            add_proto = VPC.add(0, 0, 0, rows)
            add_batch = engine.batch_profile(add_proto, 1)
            compute_ns += add_batch.time_ns
            merged = TimeBreakdown()
            merged.merge(compute_time)
            merged.merge(add_batch.time)
            compute_time = merged
            merged_energy = EnergyBreakdown()
            merged_energy.merge(compute_energy)
            merged_energy.merge(engine.profile(add_proto).energy)
            compute_energy = merged_energy
            pim += rows
            move += 2 * rows
            prep_words += rows
        rounds = [
            Round(
                label=f"{operation.output} = "
                f"{'T' if transposed else ''}matvec",
                prep_words=prep_words,
                prep_targets=parallel,
                compute_ns=compute_ns,
                compute_time=compute_time,
                compute_energy=compute_energy,
                move_vpcs=move,
            )
        ]
        return rounds, OpCounts(pim_vpcs=pim, move_vpcs=move)

    def _lower_add(self, operation, handles, placer):
        """C = A + B, row-wise vector additions distributed over rows."""
        a = handles[operation.inputs[0]]
        m, k = a.shape
        parallel = self._parallelism(a, m)
        per_sub = math.ceil(m / parallel)
        engine = self._engine()
        proto = VPC.add(0, 0, 0, k)
        batch = engine.batch_profile(proto, per_sub)
        rounds = [
            Round(
                label=f"{operation.output} = add",
                prep_words=m * k,  # move every B row to its A row
                prep_targets=parallel,
                compute_ns=batch.time_ns,
                compute_time=batch.time,
                compute_energy=engine.profile(proto).energy.scaled(float(m)),
                move_vpcs=m,
            )
        ]
        return rounds, OpCounts(pim_vpcs=m, move_vpcs=m)

    def _lower_scale(self, operation, handles, placer):
        """B = alpha * A, row-wise SMULs; results stay in place."""
        a = handles[operation.inputs[0]]
        m, k = a.shape
        parallel = self._parallelism(a, m)
        per_sub = math.ceil(m / parallel)
        engine = self._engine()
        proto = VPC.smul(0, 0, 0, k)
        batch = engine.batch_profile(proto, per_sub)
        rounds = [
            Round(
                label=f"{operation.output} = scale",
                prep_words=parallel,  # deliver the scalar to each subarray
                prep_targets=parallel,
                compute_ns=batch.time_ns,
                compute_time=batch.time,
                compute_energy=engine.profile(proto).energy.scaled(float(m)),
                move_vpcs=m,
            )
        ]
        return rounds, OpCounts(pim_vpcs=m, move_vpcs=m)

    def _lower_dot(self, operation, handles, placer):
        """s = x . y: a single MUL VPC."""
        x = handles[operation.inputs[0]]
        length = x.cols
        engine = self._engine()
        profile = engine.profile(VPC.mul(0, 0, 0, length))
        rounds = [
            Round(
                label=f"{operation.output} = dot",
                prep_words=length,  # deliver y to x's subarray
                prep_targets=1,
                compute_ns=profile.time_ns,
                compute_time=profile.time,
                compute_energy=profile.energy,
                move_vpcs=1,
            )
        ]
        return rounds, OpCounts(pim_vpcs=1, move_vpcs=2)

    # ------------------------------------------------------------------
    # Functional execution (exact integer arithmetic)
    # ------------------------------------------------------------------
    def _apply_functional(
        self, operation: TaskOperation, results: Dict[str, np.ndarray]
    ) -> None:
        op = operation.op
        inputs = [results[name] for name in operation.inputs]
        scalar = (
            self._scalars[operation.scalar]
            if operation.scalar is not None
            else 1
        )
        if op is TaskOp.MATMUL:
            results[operation.output] = scalar * (inputs[0] @ inputs[1])
        elif op is TaskOp.MATVEC:
            results[operation.output] = scalar * (
                inputs[0] @ inputs[1].ravel()
            ).reshape(1, -1)
        elif op is TaskOp.MATVEC_T:
            results[operation.output] = scalar * (
                inputs[0].T @ inputs[1].ravel()
            ).reshape(1, -1)
        elif op is TaskOp.MATVEC_ACC:
            results[operation.output] = results[operation.output] + scalar * (
                inputs[0] @ inputs[1].ravel()
            ).reshape(1, -1)
        elif op is TaskOp.MATVEC_T_ACC:
            results[operation.output] = results[operation.output] + scalar * (
                inputs[0].T @ inputs[1].ravel()
            ).reshape(1, -1)
        elif op in (TaskOp.MAT_ADD, TaskOp.VEC_ADD):
            results[operation.output] = inputs[0] + inputs[1]
        elif op in (TaskOp.MAT_SCALE, TaskOp.VEC_SCALE):
            results[operation.output] = scalar * inputs[0]
        elif op is TaskOp.DOT:
            results[operation.output] = np.array(
                [[int(np.dot(inputs[0].ravel(), inputs[1].ravel()))]],
                dtype=np.int64,
            )
        else:  # pragma: no cover - exhaustive over TaskOp
            raise NotImplementedError(str(op))

    # ------------------------------------------------------------------
    # Explicit trace generation (event mode / Table IV validation)
    # ------------------------------------------------------------------
    def run_event(self, workload: str = "task") -> RunReport:
        """Execute this task through the event-driven engine.

        Enumerates the VPC trace, seeds the device's word store with the
        operand values, replays the trace with per-subarray blocking,
        and reads the results back.  O(#VPC) — intended for reduced
        problem sizes; use :meth:`run` at paper scale.
        """
        trace = self.to_trace()
        self.materialize(self.device)
        stats = self.device.execute_trace(trace, workload=workload)
        results = self.fetch_results(self.device)
        counts = OpCounts(
            pim_vpcs=trace.stats.pim_vpcs,
            move_vpcs=trace.stats.move_vpcs,
        )
        return RunReport(stats=stats, results=results, counts=counts)

    def to_trace(self) -> ColumnarTrace:
        """Enumerate the full VPC stream with placed addresses.

        One MUL per dot product, one TRAN per operand delivery, one TRAN
        per scalar collection — the Table IV counting convention.  Cost
        is O(#VPC); intended for reduced problem sizes.

        The whole lowering drains as the single forced chunk of
        :meth:`to_trace_chunks`; the returned
        :class:`~repro.isa.columnar.ColumnarTrace` carries the
        operation boundaries as ``op_starts``.  The placement used is
        cached so :meth:`materialize` can seed a device's word store and
        :meth:`fetch_results` can read the outputs back after event-mode
        execution.
        """
        chunks = list(self.to_trace_chunks(chunk_vpcs=sys.maxsize))
        records = (
            chunks[0].records if chunks else np.empty(0, dtype=RECORD_DTYPE)
        )
        return ColumnarTrace(records, op_starts=self._trace_op_starts)

    def to_trace_chunks(self, chunk_vpcs: int = DEFAULT_CHUNK_VPCS):
        """Incremental :meth:`to_trace`: yield the trace as chunks.

        The lowering itself, as a generator for the streamed
        compile/execute pipeline — each operation is lowered through the
        vectorized path, and finished records are drained as
        :class:`~repro.isa.columnar.ColumnarTrace` chunks of at least
        ``chunk_vpcs`` commands (cut only at operation boundaries, so a
        chunk never splits an op group; see
        :meth:`ColumnarTraceBuilder.drain_chunks`).  The concatenation
        of all yielded chunks is bit-identical to :meth:`to_trace`'s
        result.

        Placement state (:attr:`placement_plan`, handles) is available
        as soon as the first chunk is yielded; scalar slots accumulate
        as lowering proceeds, and every slot a chunk references exists
        in :attr:`trace_scalar_slots` by the time that chunk is yielded
        — :meth:`materialize_scalar_slots` seeds them incrementally.
        """
        if chunk_vpcs < 1:
            raise ValueError(
                f"chunk_vpcs must be positive, got {chunk_vpcs}"
            )
        placer = self._build_placer()
        handles = self._place_all(placer)
        builder = ColumnarTraceBuilder()
        scratch = ScratchAllocator(placer)
        self._trace_handles = handles
        self._trace_plan = placer.plan
        self._trace_scalar_slots = {}
        for operation in self._operations:
            self._trace_operation_columnar(
                operation, handles, builder, scratch
            )
            scratch.recycle()
            builder.mark_op_boundary()
            yield from builder.drain_chunks(min_records=chunk_vpcs)
        yield from builder.drain_chunks(min_records=1, force=True)
        self._trace_op_starts = builder.op_starts_so_far()

    def materialize(self, device: Optional[StreamPIMDevice] = None) -> None:
        """Seed a device's word store with the placed operand values.

        Call after :meth:`to_trace`; writes every matrix (primary layout
        plus any transposed mirror) and every scalar slot the trace
        references.
        """
        self.materialize_matrices(device)
        self.materialize_scalar_slots(device)

    def materialize_matrices(
        self, device: Optional[StreamPIMDevice] = None
    ) -> None:
        """Seed every placed matrix (but not the scalar slots) with one
        scatter, so the word store allocates every matrix page at once.

        The streamed pipeline calls this once placement exists (after
        the first chunk of :meth:`to_trace_chunks`) and seeds scalar
        slots incrementally as lowering discovers them.
        """
        device = device or self.device
        handles = self._require_trace_state()
        words = [
            pair
            for name, values in self._matrices.items()
            for pair in self._stored_words(handles[name], values)
        ]
        if words:
            device.store.scatter(
                np.concatenate([addresses for addresses, _ in words]),
                np.concatenate([values for _, values in words]),
            )

    def materialize_scalar_slots(
        self, device: Optional[StreamPIMDevice] = None, start: int = 0
    ) -> int:
        """Seed scalar-slot words ``start..`` discovered so far.

        Slot addresses come from ``ScratchAllocator.unique`` and are
        never handed out again, so no trace command ever writes one —
        seeding a slot any time before the first chunk that reads it is
        exactly equivalent to the phased up-front :meth:`materialize`.

        Returns the new slot count, to pass as ``start`` next call.
        """
        device = device or self.device
        self._require_trace_state()
        slots = self._trace_scalar_slots
        items = list(slots.items())[start:]
        device.store.scatter(
            [address for address, _ in items],
            [
                self._scalars[name] if name is not None else 1
                for _, name in items
            ],
        )
        return len(slots)

    def fetch_results(self, device: Optional[StreamPIMDevice] = None):
        """Read every matrix back from a device's word store.

        Returns:
            {name: ndarray} in logical orientation.
        """
        device = device or self.device
        handles = self._require_trace_state()
        out: Dict[str, np.ndarray] = {}
        for name in self._matrices:
            out[name] = self._read_matrix(device, handles[name])
        return out

    def _require_trace_state(self) -> Dict[str, MatrixHandle]:
        handles = getattr(self, "_trace_handles", None)
        if handles is None:
            raise RuntimeError("call to_trace() before seeding/fetching")
        return handles

    @property
    def placement_plan(self):
        """The placement plan of the last :meth:`to_trace` call.

        Static verification (``repro-streampim check``) pairs it with
        the enumerated trace to check operand-overwrite and
        double-booking rules.

        Raises:
            RuntimeError: if :meth:`to_trace` has not run yet.
        """
        plan = getattr(self, "_trace_plan", None)
        if plan is None:
            raise RuntimeError("call to_trace() before reading the plan")
        return plan

    @property
    def trace_scalar_slots(self):
        """Scalar-slot words of the last :meth:`to_trace` call.

        ``{address: scalar_name}`` (name ``None`` for the implicit unit
        scalar); :meth:`materialize` seeds these words, so dataflow
        analysis treats them as initialised alongside the placed
        matrices.

        Raises:
            RuntimeError: if :meth:`to_trace` has not run yet.
        """
        self._require_trace_state()
        return dict(self._trace_scalar_slots)

    @staticmethod
    def _stored_words(
        handle, values
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``(addresses, values)`` that store ``values`` in ``handle``'s
        layout: one pair for the primary layout, one per mirror."""
        stored = np.asarray(
            np.asarray(values).T if handle.stored_transposed else values
        ).astype(np.int64, copy=False)
        first = handle.first_slices()
        addresses = first[:, ADDRESS]
        # Each stored row's first slice takes the row's leading words.
        columns = np.arange(stored.shape[1])
        inside = columns < first[:, LENGTH, None]
        words = [((addresses[:, None] + columns)[inside], stored[inside])]
        if handle.mirror is not None:
            words += PimTask._stored_words(handle.mirror, np.asarray(values).T)
        return words

    @staticmethod
    def _read_matrix(device, handle) -> np.ndarray:
        first = handle.first_slices()
        lengths = first[:, LENGTH]
        width = int(lengths[0])
        if (lengths != width).any():
            raise ValueError("stored rows differ in first-slice length")
        stored = device.store.gather(
            first[:, ADDRESS, None] + np.arange(width)
        )
        return stored.T if handle.stored_transposed else stored

    # ------------------------------------------------------------------
    # Vectorized trace generation (same streams, array expressions)
    # ------------------------------------------------------------------
    @staticmethod
    def _row_columns(handle) -> Tuple[np.ndarray, np.ndarray]:
        """First-slice address and encoded subarray key
        (:meth:`ScratchAllocator.encode_key`) of every stored row."""
        first = handle.first_slices()
        return first[:, ADDRESS], ScratchAllocator.encode_key(
            first[:, BANK], first[:, SUBARRAY]
        )

    @staticmethod
    def _element_addresses(handle, rows_idx, cols_idx):
        """Linear addresses of logical elements ``(rows_idx, cols_idx)``.

        ``rows_idx``/``cols_idx`` broadcast; the result is the flattened
        address array in broadcast order.  Each element must lie in its
        stored row's first slice (always true at the reduced scales
        trace generation targets); the first (in that order) that does
        not raises :class:`IndexError`.
        """
        rows_b, cols_b = np.broadcast_arrays(
            np.asarray(rows_idx, dtype=np.int64),
            np.asarray(cols_idx, dtype=np.int64),
        )
        rows_f = rows_b.ravel()
        cols_f = cols_b.ravel()
        if handle.stored_transposed:
            stored, offset = cols_f, rows_f
        else:
            stored, offset = rows_f, cols_f
        first = handle.first_slices()
        piece_offset = first[stored, OFFSET]
        bad = (offset < piece_offset) | (
            offset >= piece_offset + first[stored, LENGTH]
        )
        if bad.any():
            index = int(np.argmax(bad))
            raise IndexError(
                f"element ({int(rows_f[index])}, {int(cols_f[index])}) "
                f"falls outside the first slice "
                f"of stored row {int(stored[index])}"
            )
        return first[stored, ADDRESS] + (offset - piece_offset)

    def _trace_operation_columnar(
        self, operation, handles, builder, scratch
    ) -> None:
        """Emit one operation's commands as bulk record blocks.

        Emits exactly the per-command reference lowering's stream (a
        test oracle, ``tests/oracles/scalar_lowering.py``) — same
        commands, same order, same scratch-allocation sequence — but
        computes every address stream as a NumPy expression and hands
        the builder whole blocks, so the cost per command is amortised
        array work instead of a Python-level loop iteration.
        """
        op = operation.op
        if op is TaskOp.MATMUL:
            self._trace_matmul_columnar(
                operation, handles, builder, scratch
            )
        elif op in (TaskOp.MATVEC, TaskOp.MATVEC_T,
                    TaskOp.MATVEC_ACC, TaskOp.MATVEC_T_ACC):
            self._trace_matvec_columnar(
                operation, handles, builder, scratch
            )
        elif op in (TaskOp.MAT_ADD, TaskOp.VEC_ADD):
            a = handles[operation.inputs[0]]
            b = handles[operation.inputs[1]]
            c = handles[operation.output]
            a_addr, a_key = self._row_columns(a)
            b_addr, _ = self._row_columns(b)
            c_addr, _ = self._row_columns(c)
            staged = scratch.near_block(a_key, a.cols)
            rec = np.empty((a.rows, 2), dtype=RECORD_DTYPE)
            rec["opcode"][:, 0] = TRAN_BYTE
            rec["opcode"][:, 1] = ADD_BYTE
            rec["src1"][:, 0] = b_addr
            rec["src1"][:, 1] = a_addr
            rec["src2"][:, 0] = NO_OPERAND_SENTINEL
            rec["src2"][:, 1] = staged
            rec["des"][:, 0] = staged
            rec["des"][:, 1] = c_addr
            rec["size"] = a.cols
            builder.emit_records(rec)
        elif op in (TaskOp.MAT_SCALE, TaskOp.VEC_SCALE):
            a = handles[operation.inputs[0]]
            c = handles[operation.output]
            a_addr, a_key = self._row_columns(a)
            c_addr, _ = self._row_columns(c)
            slots = scratch.unique_block(a_key, 1)
            for slot in slots.tolist():
                self._trace_scalar_slots[slot] = operation.scalar
            rec = np.empty((a.rows, 2), dtype=RECORD_DTYPE)
            rec["opcode"][:, 0] = TRAN_BYTE
            rec["opcode"][:, 1] = SMUL_BYTE
            rec["src1"][:, 0] = slots
            rec["src1"][:, 1] = slots
            rec["src2"][:, 0] = NO_OPERAND_SENTINEL
            rec["src2"][:, 1] = a_addr
            rec["des"][:, 0] = slots
            rec["des"][:, 1] = c_addr
            rec["size"][:, 0] = 1
            rec["size"][:, 1] = a.cols
            builder.emit_records(rec)
        elif op is TaskOp.DOT:
            x = handles[operation.inputs[0]]
            y = handles[operation.inputs[1]]
            s = handles[operation.output]
            x_addr, x_key = self._row_columns(x)
            staged = scratch.near_block(x_key[0], x.cols)[0]
            rec = np.empty(2, dtype=RECORD_DTYPE)
            rec["opcode"] = (TRAN_BYTE, MUL_BYTE)
            rec["src1"] = (self._row_columns(y)[0][0], x_addr[0])
            rec["src2"] = (NO_OPERAND_SENTINEL, staged)
            rec["des"] = (staged, self._row_columns(s)[0][0])
            rec["size"] = x.cols
            builder.emit_records(rec)
        else:  # pragma: no cover - exhaustive over TaskOp
            raise NotImplementedError(str(op))

    def _trace_matmul_columnar(
        self, operation, handles, builder, scratch
    ) -> None:
        a = handles[operation.inputs[0]]
        b = handles[operation.inputs[1]]
        c = handles[operation.output]
        m, k = a.shape
        n = b.cols
        a_addr, a_key = self._row_columns(a)
        # Destination addresses in emission order: j-major, i-minor.
        jj = np.repeat(np.arange(n, dtype=np.int64), m)
        ii = np.tile(np.arange(m, dtype=np.int64), n)
        c_addr = self._element_addresses(c, ii, jj)
        if b.stored_transposed:
            b_addr, _ = self._row_columns(b)
            column = scratch.near_block(np.tile(a_key, n), k)
            rec = np.empty((n * m, 2), dtype=RECORD_DTYPE)
            rec["opcode"][:, 0] = TRAN_BYTE
            rec["opcode"][:, 1] = MUL_BYTE
            rec["src1"][:, 0] = np.repeat(b_addr, m)
            rec["src1"][:, 1] = np.tile(a_addr, n)
            rec["src2"][:, 0] = NO_OPERAND_SENTINEL
            rec["src2"][:, 1] = column
            rec["des"][:, 0] = column
            rec["des"][:, 1] = c_addr
            rec["size"] = k
            builder.emit_records(rec)
            return
        # Gathered columns: per column j, k element TRANs assemble the
        # column into staging before the m delivery/MUL pairs consume
        # it.  The scratch-call sequence per column is the staging slot
        # followed by the m per-row column slots (all size k).
        b0_key = self._row_columns(b)[1][0]
        keys = np.empty((n, m + 1), dtype=np.int64)
        keys[:, 0] = b0_key
        keys[:, 1:] = a_key
        addrs = scratch.near_block(keys, k).reshape(n, m + 1)
        staging = addrs[:, 0]
        column = addrs[:, 1:]
        rr = np.tile(np.arange(k, dtype=np.int64), n)
        jg = np.repeat(np.arange(n, dtype=np.int64), k)
        gather_src = self._element_addresses(b, rr, jg)
        rec = np.empty((n, k + 2 * m), dtype=RECORD_DTYPE)
        rec["opcode"][:, :k] = TRAN_BYTE
        rec["src1"][:, :k] = gather_src.reshape(n, k)
        rec["src2"][:, :k] = NO_OPERAND_SENTINEL
        rec["des"][:, :k] = (
            staging[:, None] + np.arange(k, dtype=np.int64)[None, :]
        )
        rec["size"][:, :k] = 1
        rec["opcode"][:, k::2] = TRAN_BYTE
        rec["opcode"][:, k + 1 :: 2] = MUL_BYTE
        rec["src1"][:, k::2] = staging[:, None]
        rec["src1"][:, k + 1 :: 2] = a_addr[None, :]
        rec["src2"][:, k::2] = NO_OPERAND_SENTINEL
        rec["src2"][:, k + 1 :: 2] = column
        rec["des"][:, k::2] = column
        rec["des"][:, k + 1 :: 2] = c_addr.reshape(n, m)
        rec["size"][:, k:] = k
        builder.emit_records(rec)

    def _trace_matvec_columnar(
        self, operation, handles, builder, scratch
    ) -> None:
        op = operation.op
        a = handles[operation.inputs[0]]
        x = handles[operation.inputs[1]]
        y = handles[operation.output]
        transposed = op in (TaskOp.MATVEC_T, TaskOp.MATVEC_T_ACC)
        accumulate = op in (TaskOp.MATVEC_ACC, TaskOp.MATVEC_T_ACC)
        rows = a.cols if transposed else a.rows
        length = a.rows if transposed else a.cols
        source = a.mirror if (transposed and a.mirror) else a
        if transposed and a.mirror is None and not a.stored_transposed:
            raise RuntimeError(
                f"matrix {a.name!r} needs a transposed layout for "
                "column access; _place_all should have mirrored it"
            )
        row_handle = a if (transposed and a.stored_transposed) else source
        row_addr, row_key = self._row_columns(row_handle)
        x_addr = self._row_columns(x)[0][0]
        dest = self._element_addresses(
            y, 0, np.arange(rows, dtype=np.int64)
        )
        y_key = self._row_columns(y)[1][0]
        calls = 5 if accumulate else 2
        keys = np.empty((rows, calls), dtype=np.int64)
        keys[:, 0] = row_key
        keys[:, 1] = row_key
        sizes = np.ones((rows, calls), dtype=np.int64)
        sizes[:, 0] = length
        if accumulate:
            keys[:, 2:] = y_key
        addrs = scratch.near_block(keys, sizes).reshape(rows, calls)
        operand = addrs[:, 0]
        result = addrs[:, 1]
        width = 6 if accumulate else 3
        rec = np.empty((rows, width), dtype=RECORD_DTYPE)
        rec["opcode"][:, 0] = TRAN_BYTE
        rec["src1"][:, 0] = x_addr
        rec["src2"][:, 0] = NO_OPERAND_SENTINEL
        rec["des"][:, 0] = operand
        rec["size"][:, 0] = length
        rec["opcode"][:, 1] = MUL_BYTE
        rec["src1"][:, 1] = row_addr
        rec["src2"][:, 1] = operand
        rec["des"][:, 1] = result
        rec["size"][:, 1] = length
        rec["size"][:, 2:] = 1
        if accumulate:
            collected = addrs[:, 2]
            old_value = addrs[:, 3]
            acc = addrs[:, 4]
            rec["opcode"][:, 2] = TRAN_BYTE
            rec["src1"][:, 2] = result
            rec["src2"][:, 2] = NO_OPERAND_SENTINEL
            rec["des"][:, 2] = collected
            rec["opcode"][:, 3] = TRAN_BYTE
            rec["src1"][:, 3] = dest
            rec["src2"][:, 3] = NO_OPERAND_SENTINEL
            rec["des"][:, 3] = old_value
            rec["opcode"][:, 4] = ADD_BYTE
            rec["src1"][:, 4] = collected
            rec["src2"][:, 4] = old_value
            rec["des"][:, 4] = acc
            rec["opcode"][:, 5] = TRAN_BYTE
            rec["src1"][:, 5] = acc
            rec["src2"][:, 5] = NO_OPERAND_SENTINEL
            rec["des"][:, 5] = dest
        else:
            rec["opcode"][:, 2] = TRAN_BYTE
            rec["src1"][:, 2] = result
            rec["src2"][:, 2] = NO_OPERAND_SENTINEL
            rec["des"][:, 2] = dest
        builder.emit_records(rec)

    # ------------------------------------------------------------------
    def _validate_shapes(
        self, op: TaskOp, inputs: Tuple[str, ...], output: str
    ) -> None:
        shapes = [self._matrices[name].shape for name in inputs]
        out_shape = self._matrices[output].shape
        if op is TaskOp.MATMUL:
            if len(inputs) != 2:
                raise ValueError("MATMUL takes two inputs")
            if shapes[0][1] != shapes[1][0]:
                raise ValueError(
                    f"inner dimensions differ: {shapes[0]} @ {shapes[1]}"
                )
            if out_shape != (shapes[0][0], shapes[1][1]):
                raise ValueError(
                    f"output shape {out_shape} != "
                    f"{(shapes[0][0], shapes[1][1])}"
                )
        elif op in (TaskOp.MATVEC, TaskOp.MATVEC_ACC):
            if shapes[0][1] != shapes[1][1] or shapes[1][0] != 1:
                raise ValueError(
                    f"matvec shapes incompatible: {shapes[0]} @ {shapes[1]}"
                )
        elif op in (TaskOp.MATVEC_T, TaskOp.MATVEC_T_ACC):
            if shapes[0][0] != shapes[1][1] or shapes[1][0] != 1:
                raise ValueError(
                    f"matvec_t shapes incompatible: {shapes[0]} "
                    f"vs {shapes[1]}"
                )
        elif op in (TaskOp.MAT_ADD, TaskOp.VEC_ADD):
            if shapes[0] != shapes[1] or out_shape != shapes[0]:
                raise ValueError(
                    f"addition needs equal shapes, got {shapes} -> "
                    f"{out_shape}"
                )
        elif op in (TaskOp.MAT_SCALE, TaskOp.VEC_SCALE):
            if out_shape != shapes[0]:
                raise ValueError(
                    f"scale output {out_shape} != input {shapes[0]}"
                )
        elif op is TaskOp.DOT:
            if shapes[0] != shapes[1] or shapes[0][0] != 1:
                raise ValueError(
                    f"dot needs two equal vectors, got {shapes}"
                )


class ScratchAllocator:
    """Allocates scratch staging words near a row slice (trace
    generation).

    Staging areas are physically reused across VPCs (the bus drains one
    operand before the next arrives), so allocations of the same size in
    the same subarray cycle through a small pool of slots instead of
    consuming fresh capacity per VPC.  At operation boundaries the
    lowering calls :meth:`recycle`, which returns every pooled slot to a
    per-``(subarray, size)`` free list; the next operation's staging
    re-uses those addresses instead of advancing the cursor, so a long
    chain of operations occupies a bounded scratch region instead of
    exhausting the subarray.  :meth:`unique` slots are exempt — they
    hold constants pre-seeded by :meth:`PimTask.materialize` before the
    trace runs, so their addresses must never be aliased by later
    staging.

    The batched entry points (:meth:`near_block`, :meth:`unique_block`)
    take encoded subarray keys (:meth:`encode_key`) and evolve the
    allocator state exactly as the equivalent sequence of per-slot
    :meth:`near`/:meth:`unique` calls would — the vectorized lowering
    and the per-command reference lowering (a test oracle) must emit
    bit-identical streams.
    """

    #: Concurrent staging slots per (subarray, size) class.
    SLOTS = 4

    #: Encoded subarray keys pack ``bank << _KEY_SHIFT | subarray``.
    _KEY_SHIFT = 32

    def __init__(self, placer: Placer) -> None:
        self._placer = placer
        self._cursors: Dict[Tuple[int, int], int] = {}
        self._pools: Dict[Tuple[Tuple[int, int], int], List[int]] = {}
        self._next_slot: Dict[Tuple[Tuple[int, int], int], int] = {}
        self._free: Dict[Tuple[Tuple[int, int], int], List[int]] = {}

    @classmethod
    def encode_key(cls, bank: int, subarray: int) -> int:
        """Pack a ``(bank, subarray)`` key into one int64-safe integer."""
        return (bank << cls._KEY_SHIFT) | subarray

    @classmethod
    def _decode_keys(cls, encoded: np.ndarray) -> List[Tuple[int, int]]:
        """The ``(bank, subarray)`` key of each encoded key."""
        return list(
            zip(
                (encoded >> cls._KEY_SHIFT).tolist(),
                (encoded & ((1 << cls._KEY_SHIFT) - 1)).tolist(),
            )
        )

    def near(self, row_slice, words: int) -> int:
        """Scratch address in the same subarray as ``row_slice``."""
        key = row_slice.subarray_key
        pool_key = (key, words)
        pool = self._pools.setdefault(pool_key, [])
        if len(pool) < self.SLOTS:
            pool.append(self._allocate(key, words))
            index = len(pool) - 1
        else:
            index = self._next_slot.get(pool_key, 0)
        self._next_slot[pool_key] = (index + 1) % self.SLOTS
        return pool[index]

    def unique(self, row_slice, words: int) -> int:
        """A never-reused scratch address (for pre-seeded constants)."""
        return self._allocate(row_slice.subarray_key, words, reuse=False)

    def recycle(self) -> None:
        """Return every pooled staging slot to the free lists.

        Called at operation boundaries: the previous operation's staging
        traffic has fully drained by the time the next operation's
        commands issue, so its slots are safe to hand out again.  Slots
        re-enter in pool order and :meth:`_allocate` pops from the tail,
        so the next operation with the same staging shape receives the
        same addresses — recycling never changes a single-operation
        trace and keeps multi-operation traces compact.
        """
        for pool_key, pool in self._pools.items():
            if pool:
                self._free.setdefault(pool_key, []).extend(reversed(pool))
        self._pools.clear()
        self._next_slot.clear()

    def near_block(self, keys, sizes) -> np.ndarray:
        """Vectorized :meth:`near` over encoded subarray keys.

        Args:
            keys: array of :meth:`encode_key` values, one per call.
            sizes: per-call word counts (broadcasts against ``keys``).

        Returns:
            The scratch addresses the equivalent sequence of scalar
            :meth:`near` calls would return, with identical end state.
        """
        keys, sizes = np.broadcast_arrays(
            np.asarray(keys, dtype=np.int64),
            np.asarray(sizes, dtype=np.int64),
        )
        keys = keys.ravel()
        sizes = sizes.ravel()
        n = keys.size
        if n == 0:
            return np.empty(0, dtype=np.int64)
        # One stable sort groups the calls by (subarray, size), each group
        # in call order; groups, counts and ranks come from run heads.
        if (sizes == sizes[0]).all():
            order = np.argsort(keys, kind="stable")
            head = run_heads(keys[order])
        else:
            order = np.lexsort((sizes, keys))
            head = run_heads(keys[order]) | run_heads(sizes[order])
        heads = np.flatnonzero(head)
        counts = np.diff(np.append(heads, n))
        ginv = np.empty(n, dtype=np.int64)
        ginv[order] = np.cumsum(head) - 1
        ranks = np.empty(n, dtype=np.int64)
        ranks[order] = np.arange(n, dtype=np.int64) - np.repeat(heads, counts)
        first = order[heads]
        pool_keys = list(
            zip(self._decode_keys(keys[first]), sizes[first].tolist())
        )
        pools = list(map(self._pools.get, pool_keys))
        for group in [g for g, pool in enumerate(pools) if pool is None]:
            pools[group] = self._pools[pool_keys[group]] = []
        # Invariant of near(): while the pool is not full the next
        # rotation index equals the pool length, so one start value
        # covers both the growth and the steady-state phases.
        slot_start = np.fromiter(
            map(self._next_slot.get, pool_keys, itertools.repeat(0)),
            np.int64,
            len(pool_keys),
        )
        self._next_slot.update(
            zip(pool_keys, ((slot_start + counts) % self.SLOTS).tolist())
        )
        held = np.fromiter(map(len, pools), np.int64, len(pools))
        grow = np.minimum(self.SLOTS - held, counts)
        if grow.any():
            self._grow_pools(keys, sizes, ginv, ranks, pools, pool_keys, grow)
        # One (groups, SLOTS) pool table, padded where a pool is not
        # full, and one gather.
        if (held + grow == self.SLOTS).all():
            table = np.array(pools, dtype=np.int64)
        else:
            table = np.array(
                [pool + [0] * (self.SLOTS - len(pool)) for pool in pools],
                dtype=np.int64,
            )
        return table.ravel()[
            ginv * self.SLOTS + (slot_start[ginv] + ranks) % self.SLOTS
        ]

    def _grow_pools(self, keys, sizes, ginv, ranks, pools, pool_keys, grow):
        """Add ``grow[g]`` slots to each group's pool, in call order.

        A group's first new slots come off its free list (:meth:`_allocate`
        pops the tail first), the rest advance its subarray's cursor,
        which the groups of one subarray share in call order.
        """
        growing_groups = np.flatnonzero(grow).tolist()
        taken = np.zeros(len(pools), dtype=np.int64)
        reused: List[int] = []
        for group, free in zip(
            growing_groups,
            map(self._free.get, [pool_keys[g] for g in growing_groups]),
        ):
            if free:
                take = min(int(grow[group]), len(free))
                reused.extend(reversed(free[-take:]))
                del free[-take:]
                taken[group] = take
        growing = np.flatnonzero(ranks < grow[ginv])
        grow_group = ginv[growing]
        grow_rank = ranks[growing]
        new_slots = np.empty(len(growing), dtype=np.int64)
        from_free = grow_rank < taken[grow_group]
        new_slots[from_free] = np.asarray(reused, dtype=np.int64)[
            (np.cumsum(taken) - taken)[grow_group[from_free]]
            + grow_rank[from_free]
        ]
        fresh = growing[~from_free]
        new_slots[~from_free] = self._advance_cursors(
            keys[fresh], sizes[fresh]
        )
        # Within a group the growing calls come in rank order.
        new_list = new_slots[np.argsort(grow_group, kind="stable")].tolist()
        at = 0
        for group in growing_groups:
            need = int(grow[group])
            pools[group].extend(new_list[at : at + need])
            at += need

    def _advance_cursors(
        self, encoded: np.ndarray, words: np.ndarray
    ) -> np.ndarray:
        """Fresh addresses for allocations given in call order.

        Each subarray's cursor moves down by every allocation's words in
        turn, exactly as successive non-recycling :meth:`_allocate`
        calls move it.  This is :meth:`unique_block` and the growth of
        :meth:`near_block` pools past their free lists.
        """
        n = len(encoded)
        if not n:
            return np.empty(0, dtype=np.int64)
        # Running words per subarray: one stable sort by subarray, one
        # cumsum, minus each subarray's total before its first call.
        order = np.argsort(encoded, kind="stable")
        head = run_heads(encoded[order])
        first = np.flatnonzero(head)
        sizes = np.diff(np.append(first, n))
        keys = self._decode_keys(encoded[order[first]])
        capacity = self._placer.subarray_capacity_words
        start = np.fromiter(
            map(self._cursors.get, keys, itertools.repeat(capacity - 1)),
            np.int64,
            len(keys),
        )
        base = np.fromiter(
            itertools.starmap(self._placer.address_map.subarray_base, keys),
            np.int64,
            len(keys),
        )
        key_id = np.empty(n, dtype=np.int64)
        key_id[order] = np.cumsum(head) - 1
        running = np.cumsum(words[order])
        before = (running - words[order])[first]
        used = np.empty(n, dtype=np.int64)
        used[order] = running - np.repeat(before, sizes)
        cursor = start[key_id] - used
        exhausted = cursor < 0
        if exhausted.any():
            key = keys[int(key_id[np.argmax(exhausted)])]
            raise MemoryError(f"scratch exhausted in subarray {key}")
        last = np.append(first[1:], n) - 1
        self._cursors.update(
            zip(keys, (start - running[last] + before).tolist())
        )
        return base[key_id] + cursor + 1

    def unique_block(self, keys, words: int) -> np.ndarray:
        """Vectorized :meth:`unique` over encoded subarray keys."""
        keys = np.asarray(keys, dtype=np.int64).ravel()
        return self._advance_cursors(
            keys, np.full(keys.size, words, dtype=np.int64)
        )

    def _allocate(
        self, key: Tuple[int, int], words: int, reuse: bool = True
    ) -> int:
        if reuse:
            free = self._free.get((key, words))
            if free:
                return free.pop()
        capacity = self._placer.subarray_capacity_words
        base = self._placer.address_map.subarray_base(*key)
        cursor = self._cursors.get(key, capacity - 1)
        cursor -= words
        if cursor < 0:
            raise MemoryError(f"scratch exhausted in subarray {key}")
        self._cursors[key] = cursor
        return base + cursor + 1


def create_pim_task(
    device: Optional[StreamPIMDevice] = None,
    config: Optional[StreamPIMConfig] = None,
) -> PimTask:
    """Create a PIM task (step 1 of Fig. 16)."""
    if device is not None and config is not None:
        raise ValueError("pass either a device or a config, not both")
    if device is None:
        device = StreamPIMDevice(config)
    return PimTask(device)
