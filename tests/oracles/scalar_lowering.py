"""Per-command reference lowering of a :class:`~repro.core.task.PimTask`.

One Python loop iteration per command, through the same
:class:`~repro.core.task.ScratchAllocator` call sequence as the
vectorized ``PimTask.to_trace``; both must emit byte-identical streams.
"""

from __future__ import annotations

from repro.core.placement import RowSlice
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


class _Rows:
    """A placed matrix's first slice per stored row, as
    :class:`RowSlice` objects listed once per operation."""

    def __init__(self, handle) -> None:
        self.handle = handle
        self.first = [
            RowSlice(*piece) for piece in handle.first_slices().tolist()
        ]

    def element_address(self, row: int, col: int) -> int:
        """Linear address of logical element (row, col), one element
        at a time (``PimTask._element_addresses`` is the array form)."""
        if self.handle.stored_transposed:
            stored_row, offset = col, row
        else:
            stored_row, offset = row, col
        piece = self.first[stored_row]
        if not piece.offset <= offset < piece.offset + piece.length:
            raise IndexError(
                f"element ({row}, {col}) falls outside the first slice "
                f"of stored row {stored_row}"
            )
        return piece.address + (offset - piece.offset)


def _trace_operation(task, operation, handles, trace, scratch) -> None:
    op = operation.op
    if op is TaskOp.MATMUL:
        a = handles[operation.inputs[0]]
        b = handles[operation.inputs[1]]
        c = _Rows(handles[operation.output])
        a_rows = _Rows(a).first
        b_rows = _Rows(b)
        m, k = a.shape
        n = b.cols
        for j in range(n):
            column_source = _column_source(b_rows, j, k, trace, scratch)
            for i in range(m):
                row = a_rows[i]
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
        if transposed and a.stored_transposed:
            row_pieces = _Rows(a).first
        else:
            row_pieces = _Rows(source).first
        x_row = _Rows(x).first[0]
        y_rows = _Rows(y)
        y_row = y_rows.first[0]
        for i in range(rows):
            row_piece = row_pieces[i]
            operand = scratch.near(row_piece, length)
            trace.append(VPC.tran(x_row.address, operand, length))
            result = scratch.near(row_piece, 1)
            trace.append(
                VPC.mul(row_piece.address, operand, result, length)
            )
            dest = y_rows.element_address(0, i)
            if accumulate:
                # Dot collect, add delivery, the add itself, and the
                # add's collect back into the destination vector.
                collected = scratch.near(y_row, 1)
                trace.append(VPC.tran(result, collected, 1))
                old_value = scratch.near(y_row, 1)
                trace.append(VPC.tran(dest, old_value, 1))
                acc = scratch.near(y_row, 1)
                trace.append(VPC.add(collected, old_value, acc, 1))
                trace.append(VPC.tran(acc, dest, 1))
            else:
                trace.append(VPC.tran(result, dest, 1))
    elif op in (TaskOp.MAT_ADD, TaskOp.VEC_ADD):
        a = handles[operation.inputs[0]]
        a_rows = _Rows(a).first
        b_rows = _Rows(handles[operation.inputs[1]]).first
        c_rows = _Rows(handles[operation.output]).first
        for i in range(a.rows):
            row = a_rows[i]
            staged = scratch.near(row, a.cols)
            trace.append(VPC.tran(b_rows[i].address, staged, a.cols))
            trace.append(
                VPC.add(row.address, staged, c_rows[i].address, a.cols)
            )
    elif op in (TaskOp.MAT_SCALE, TaskOp.VEC_SCALE):
        a = handles[operation.inputs[0]]
        a_rows = _Rows(a).first
        c_rows = _Rows(handles[operation.output]).first
        for i in range(a.rows):
            row = a_rows[i]
            scalar_slot = scratch.unique(row, 1)
            task._trace_scalar_slots[scalar_slot] = operation.scalar
            trace.append(VPC.tran(scalar_slot, scalar_slot, 1))
            trace.append(
                VPC.smul(scalar_slot, row.address, c_rows[i].address,
                         a.cols)
            )
    elif op is TaskOp.DOT:
        x = handles[operation.inputs[0]]
        row = _Rows(x).first[0]
        y_row = _Rows(handles[operation.inputs[1]]).first[0]
        s_row = _Rows(handles[operation.output]).first[0]
        staged = scratch.near(row, x.cols)
        trace.append(VPC.tran(y_row.address, staged, x.cols))
        trace.append(VPC.mul(row.address, staged, s_row.address, x.cols))
    else:  # pragma: no cover - exhaustive over TaskOp
        raise NotImplementedError(str(op))

def _column_source(b: _Rows, j, k, trace, scratch) -> int:
    """Address of a contiguous copy of column ``j`` of ``b``.

    Transposed-stored matrices expose columns directly; otherwise
    the column is gathered element-wise into scratch (extra size-1
    TRANs beyond the Table IV counting convention — the layout
    optimisation in ``PimTask._place_all`` avoids this for every
    workload in the repository).
    """
    if b.handle.stored_transposed:
        return b.first[j].address
    staging = scratch.near(b.first[0], k)
    for r in range(k):
        trace.append(VPC.tran(b.element_address(r, j), staging + r, 1))
    return staging
