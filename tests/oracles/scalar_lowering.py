"""Per-command reference lowering of a :class:`~repro.core.task.PimTask`.

One Python loop iteration per command, through the same
:class:`~repro.core.task.ScratchAllocator` call sequence as the
vectorized ``PimTask.to_trace``; both must emit byte-identical streams.
"""

from __future__ import annotations

from repro.core.task import ScratchAllocator, TaskOp
from repro.isa.trace import VPCTrace
from repro.isa.vpc import VPC


def to_trace(task) -> VPCTrace:
    """Lower ``task`` one command at a time; leaves the task's
    placement state set exactly as ``task.to_trace()`` does."""
    placer = task._build_placer()
    handles = task._place_all(placer)
    trace = VPCTrace()
    scratch = ScratchAllocator(placer)
    task._trace_handles = handles
    task._trace_plan = placer.plan
    task._trace_scalar_slots = {}
    for operation in task._operations:
        _trace_operation(task, operation, handles, trace, scratch)
        scratch.recycle()
    return trace


def _trace_operation(task, operation, handles, trace, scratch) -> None:
    op = operation.op
    if op is TaskOp.MATMUL:
        a = handles[operation.inputs[0]]
        b = handles[operation.inputs[1]]
        c = handles[operation.output]
        m, k = a.shape
        n = b.cols
        for j in range(n):
            column_source = _column_source(b, j, k, trace, scratch)
            for i in range(m):
                row = a.row_slices(i)[0]
                column = scratch.near(row, k)
                trace.append(VPC.tran(column_source, column, k))
                trace.append(
                    VPC.mul(row.address, column,
                            c.element_address(i, j), k)
                )
    elif op in (TaskOp.MATVEC, TaskOp.MATVEC_T,
                TaskOp.MATVEC_ACC, TaskOp.MATVEC_T_ACC):
        a = handles[operation.inputs[0]]
        x = handles[operation.inputs[1]]
        y = handles[operation.output]
        transposed = op in (TaskOp.MATVEC_T, TaskOp.MATVEC_T_ACC)
        accumulate = op in (TaskOp.MATVEC_ACC, TaskOp.MATVEC_T_ACC)
        rows, length = (
            (a.cols, a.rows) if transposed else (a.rows, a.cols)
        )
        source = a.mirror if (transposed and a.mirror) else a
        if transposed and a.mirror is None and not a.stored_transposed:
            raise RuntimeError(
                f"matrix {a.name!r} needs a transposed layout for "
                "column access; _place_all should have mirrored it"
            )
        for i in range(rows):
            if transposed and a.stored_transposed:
                row_piece = a.row_slices(i)[0]
            else:
                row_piece = source.row_slices(i)[0]
            operand = scratch.near(row_piece, length)
            trace.append(VPC.tran(x.row_slices(0)[0].address,
                                  operand, length))
            result = scratch.near(row_piece, 1)
            trace.append(
                VPC.mul(row_piece.address, operand, result, length)
            )
            dest = y.element_address(0, i)
            if accumulate:
                # Dot collect, add delivery, the add itself, and the
                # add's collect back into the destination vector.
                collected = scratch.near(y.row_slices(0)[0], 1)
                trace.append(VPC.tran(result, collected, 1))
                old_value = scratch.near(y.row_slices(0)[0], 1)
                trace.append(VPC.tran(dest, old_value, 1))
                acc = scratch.near(y.row_slices(0)[0], 1)
                trace.append(VPC.add(collected, old_value, acc, 1))
                trace.append(VPC.tran(acc, dest, 1))
            else:
                trace.append(VPC.tran(result, dest, 1))
    elif op in (TaskOp.MAT_ADD, TaskOp.VEC_ADD):
        a = handles[operation.inputs[0]]
        b = handles[operation.inputs[1]]
        c = handles[operation.output]
        for i in range(a.rows):
            row = a.row_slices(i)[0]
            staged = scratch.near(row, a.cols)
            trace.append(
                VPC.tran(b.row_slices(i)[0].address, staged, a.cols)
            )
            trace.append(
                VPC.add(row.address, staged,
                        c.row_slices(i)[0].address, a.cols)
            )
    elif op in (TaskOp.MAT_SCALE, TaskOp.VEC_SCALE):
        a = handles[operation.inputs[0]]
        c = handles[operation.output]
        for i in range(a.rows):
            row = a.row_slices(i)[0]
            scalar_slot = scratch.unique(row, 1)
            task._trace_scalar_slots[scalar_slot] = operation.scalar
            trace.append(VPC.tran(scalar_slot, scalar_slot, 1))
            trace.append(
                VPC.smul(scalar_slot, row.address,
                         c.row_slices(i)[0].address, a.cols)
            )
    elif op is TaskOp.DOT:
        x = handles[operation.inputs[0]]
        y = handles[operation.inputs[1]]
        s = handles[operation.output]
        row = x.row_slices(0)[0]
        staged = scratch.near(row, x.cols)
        trace.append(VPC.tran(y.row_slices(0)[0].address, staged, x.cols))
        trace.append(
            VPC.mul(row.address, staged, s.row_slices(0)[0].address,
                    x.cols)
        )
    else:  # pragma: no cover - exhaustive over TaskOp
        raise NotImplementedError(str(op))

def _column_source(b, j, k, trace, scratch) -> int:
    """Address of a contiguous copy of column ``j`` of ``b``.

    Transposed-stored matrices expose columns directly; otherwise
    the column is gathered element-wise into scratch (extra size-1
    TRANs beyond the Table IV counting convention — the layout
    optimisation in ``PimTask._place_all`` avoids this for every
    workload in the repository).
    """
    if b.stored_transposed:
        return b.row_slices(j)[0].address
    staging = scratch.near(b.row_slices(0)[0], k)
    for r in range(k):
        trace.append(VPC.tran(b.element_address(r, j), staging + r, 1))
    return staging
