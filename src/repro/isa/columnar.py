"""Columnar VPC traces: NumPy structured arrays instead of objects.

The object-based :class:`~repro.isa.trace.VPCTrace` is convenient for
generation and inspection, but walking millions of :class:`VPC`
dataclasses dominates event-mode replay time.  This module keeps the
same trace *content* in a single NumPy structured array — one record per
command, one column per field — so that decoding, verification and
execution can run as bulk array passes:

* binary traces decode with one ``np.frombuffer`` over the fixed
  21-byte wire records (no per-record ``struct``/``int.from_bytes``);
* text traces parse straight into columns without building ``VPC``
  objects;
* conversion to/from :class:`~repro.isa.trace.VPCTrace` is lossless and
  property-tested, so the columnar form is a faithful interchange format
  rather than a lossy cache.

Malformed inputs raise the same :class:`~repro.isa.trace.TraceFormatError`
(with the same byte offsets / line numbers) as the scalar readers.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterator, List, Optional, Union

import numpy as np

from repro.isa.encoding import (
    BYTE_TO_OPCODE,
    NO_OPERAND_SENTINEL,
    OPCODE_TO_BYTE,
    VPC_ENCODED_BYTES,
    decode_vpc,
)
from repro.isa.trace import (
    _BINARY_MAGIC,
    TraceFormatError,
    TraceStats,
    VPCTrace,
    _parse_vpc,
)
from repro.isa.vpc import VPC, VPCOpcode

#: One trace record: the wire opcode byte plus the four integer fields.
#: ``src2`` holds :data:`NO_OPERAND_SENTINEL` for TRAN commands.
RECORD_DTYPE = np.dtype(
    [
        ("opcode", np.uint8),
        ("src1", np.int64),
        ("src2", np.int64),
        ("des", np.int64),
        ("size", np.int64),
    ]
)

#: Wire byte of the TRAN opcode (the only single-source command).
TRAN_BYTE = OPCODE_TO_BYTE[VPCOpcode.TRAN]
#: Wire byte of the MUL opcode (the only single-result-word command).
MUL_BYTE = OPCODE_TO_BYTE[VPCOpcode.MUL]
#: Wire byte of the SMUL opcode (scalar first operand).
SMUL_BYTE = OPCODE_TO_BYTE[VPCOpcode.SMUL]
#: Wire byte of the ADD opcode (element-wise addition).
ADD_BYTE = OPCODE_TO_BYTE[VPCOpcode.ADD]

_VALID_OPCODE_BYTES = np.array(sorted(BYTE_TO_OPCODE), dtype=np.uint8)
_TEXT_OPCODE_BYTES = {op.value: OPCODE_TO_BYTE[op] for op in VPCOpcode}
#: Columnar fields are int64; anything beyond this cannot round-trip.
_COLUMN_MAX = np.iinfo(np.int64).max
#: Wire fields are the low 5 bytes of a little-endian int64.
_WIRE_INT = np.dtype("<i8")


class ColumnarTrace:
    """An ordered VPC stream stored as one structured NumPy array.

    Semantically equivalent to :class:`~repro.isa.trace.VPCTrace`
    (``from_trace``/``to_trace`` round-trip losslessly); operationally a
    set of parallel columns that vectorized passes index directly.
    """

    def __init__(
        self,
        records: np.ndarray,
        op_starts: Optional[np.ndarray] = None,
    ) -> None:
        records = np.asarray(records)
        if records.dtype != RECORD_DTYPE:
            raise TypeError(
                f"records must have dtype {RECORD_DTYPE}, got "
                f"{records.dtype}"
            )
        if records.ndim != 1:
            raise ValueError(
                f"records must be 1-D, got {records.ndim}-D"
            )
        self.records = records
        self.op_starts = (
            None
            if op_starts is None
            else _validate_op_starts(op_starts, len(records))
        )

    # ------------------------------------------------------------------
    # Column views
    # ------------------------------------------------------------------
    @property
    def opcode(self) -> np.ndarray:
        """Wire opcode byte per command (uint8)."""
        return self.records["opcode"]

    @property
    def src1(self) -> np.ndarray:
        return self.records["src1"]

    @property
    def src2(self) -> np.ndarray:
        """Second operand; :data:`NO_OPERAND_SENTINEL` for TRAN."""
        return self.records["src2"]

    @property
    def des(self) -> np.ndarray:
        return self.records["des"]

    @property
    def size(self) -> np.ndarray:
        return self.records["size"]

    @property
    def is_compute(self) -> np.ndarray:
        """Boolean mask of PIM (compute) commands."""
        return self.records["opcode"] != TRAN_BYTE

    # ------------------------------------------------------------------
    # Interval index (address footprints, one row per access)
    # ------------------------------------------------------------------
    def operand_ends(self) -> np.ndarray:
        """Where each command's three word ranges end, ``(3, n)`` int64.

        The half-open ranges start at ``src1``, ``src2`` and ``des``:
        row 0 ends the ``src1`` read (one word for SMUL, whose first
        operand is a scalar), row 1 the ``src2`` read (meaningful on
        compute commands only) and row 2 the ``des`` write (one word
        for MUL, a dot-product result).
        """
        rec = self.records
        opcode = rec["opcode"]
        size = rec["size"]
        end = np.empty((3, len(rec)), dtype=np.int64)
        np.add(rec["src1"], np.where(opcode == SMUL_BYTE, 1, size), out=end[0])
        np.add(rec["src2"], size, out=end[1])
        np.add(rec["des"], np.where(opcode == MUL_BYTE, 1, size), out=end[2])
        return end

    def read_intervals(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Every word range a command reads, as parallel arrays.

        Returns ``(index, start, end)`` with one row per read access and
        half-open ``[start, end)`` ranges: the ``src1`` range of every
        command followed by the ``src2`` range of every compute command
        (rows 0 and 1 of :meth:`operand_ends`).  Rows are grouped by
        operand, not sorted; callers that need address order sort
        themselves.
        """
        rec = self.records
        end = self.operand_ends()
        compute = self.is_compute
        index = np.arange(len(rec), dtype=np.int64)
        return (
            np.concatenate([index, index[compute]]),
            np.concatenate([rec["src1"], rec["src2"][compute]]),
            np.concatenate([end[0], end[1][compute]]),
        )

    def write_intervals(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Every word range a command writes, as ``(index, start, end)``.

        One row per command: the ``des`` range (row 2 of
        :meth:`operand_ends`).
        """
        rec = self.records
        return (
            np.arange(len(rec), dtype=np.int64),
            rec["des"].astype(np.int64, copy=True),
            self.operand_ends()[2],
        )

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[VPC]:
        rec = self.records
        for code, src1, src2, des, size in zip(
            rec["opcode"].tolist(),
            rec["src1"].tolist(),
            rec["src2"].tolist(),
            rec["des"].tolist(),
            rec["size"].tolist(),
        ):
            yield VPC(
                BYTE_TO_OPCODE[code],
                src1,
                None if src2 == NO_OPERAND_SENTINEL else src2,
                des,
                size,
            )

    def __getitem__(self, index: int) -> VPC:
        rec = self.records[index]
        src2 = int(rec["src2"])
        return VPC(
            BYTE_TO_OPCODE[int(rec["opcode"])],
            int(rec["src1"]),
            None if src2 == NO_OPERAND_SENTINEL else src2,
            int(rec["des"]),
            int(rec["size"]),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        return np.array_equal(self.records, other.records)

    @property
    def stats(self) -> TraceStats:
        """The Table IV statistics, computed by column reduction."""
        compute = self.is_compute
        size = self.records["size"]
        return TraceStats(
            pim_vpcs=int(compute.sum()),
            move_vpcs=int((~compute).sum()),
            elements_processed=int(size[compute].sum()),
            elements_moved=int(size[~compute].sum()),
        )

    # ------------------------------------------------------------------
    # Conversion to/from the object form
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace) -> "ColumnarTrace":
        """Columnarise any iterable of VPCs (lossless)."""
        rows = [
            (
                OPCODE_TO_BYTE[vpc.opcode],
                vpc.src1,
                NO_OPERAND_SENTINEL if vpc.src2 is None else vpc.src2,
                vpc.des,
                vpc.size,
            )
            for vpc in trace
        ]
        for row in rows:
            for value in row[1:]:
                if value > _COLUMN_MAX:
                    raise ValueError(
                        f"field value {value} exceeds the columnar "
                        f"int64 range"
                    )
        return cls(np.array(rows, dtype=RECORD_DTYPE))

    def to_trace(self) -> VPCTrace:
        """Rebuild the object-form trace (inverse of :meth:`from_trace`)."""
        return VPCTrace(self)

    # ------------------------------------------------------------------
    # Binary wire format (same format as write_trace_binary)
    # ------------------------------------------------------------------
    @classmethod
    def from_bytes(cls, data: bytes) -> "ColumnarTrace":
        """Decode a binary trace in one bulk pass.

        Accepts exactly the files :func:`~repro.isa.trace.write_trace_binary`
        produces and raises the same :class:`TraceFormatError` (message
        and byte offset included) on bad magic, truncated records, or
        undecodable records.
        """
        magic_len = len(_BINARY_MAGIC)
        if data[:magic_len] != _BINARY_MAGIC:
            raise TraceFormatError(
                f"not a binary VPC trace: expected magic "
                f"{_BINARY_MAGIC!r}, got {bytes(data[:magic_len])!r}",
                offset=0,
            )
        body = memoryview(data)[magic_len:]
        extra = len(body) % VPC_ENCODED_BYTES
        if extra:
            raise TraceFormatError(
                f"truncated record / trailing garbage: got {extra} "
                f"of {VPC_ENCODED_BYTES} bytes",
                offset=magic_len + len(body) - extra,
            )
        raw = np.frombuffer(body, dtype=np.uint8).reshape(
            -1, VPC_ENCODED_BYTES
        )
        # Widen each 5-byte little-endian field to 8 zero-padded bytes
        # and view the block as int64.
        wide = np.zeros((len(raw), 4, 8), dtype=np.uint8)
        wide[:, :, :5] = raw[:, 1:].reshape(-1, 4, 5)
        values = wide.view(_WIRE_INT).reshape(-1, 4)
        records = np.empty(len(raw), dtype=RECORD_DTYPE)
        records["opcode"] = raw[:, 0]
        records["src1"] = values[:, 0]
        records["src2"] = values[:, 1]
        records["des"] = values[:, 2]
        records["size"] = values[:, 3]
        _validate_records(records, body, magic_len)
        return cls(records)

    def to_bytes(self) -> bytes:
        """Encode to the binary wire format (one bulk pass).

        Byte-identical to :func:`~repro.isa.trace.write_trace_binary`
        over :meth:`to_trace`'s output.
        """
        rec = self.records
        field_max = NO_OPERAND_SENTINEL - 1
        for name in ("src1", "des", "size"):
            column = rec[name]
            bad = (column < 0) | (column > field_max)
            if bad.any():
                value = int(column[int(np.argmax(bad))])
                raise ValueError(
                    f"field value {value} out of range [0, {field_max}]"
                )
        src2 = rec["src2"]
        bad = (src2 < 0) | (
            (src2 > field_max) & (src2 != NO_OPERAND_SENTINEL)
        )
        if bad.any():
            value = int(src2[int(np.argmax(bad))])
            raise ValueError(
                f"field value {value} out of range [0, {field_max}]"
            )
        out = np.empty((len(rec), VPC_ENCODED_BYTES), dtype=np.uint8)
        out[:, 0] = rec["opcode"]
        # Every field is now known to fit 5 bytes: view the fields as
        # little-endian int64 bytes and keep the low 5 of each 8.
        values = np.stack(
            [rec["src1"], src2, rec["des"], rec["size"]], axis=1
        ).astype(_WIRE_INT, copy=False)
        out[:, 1:] = (
            values.view(np.uint8).reshape(-1, 4, 8)[:, :, :5].reshape(-1, 20)
        )
        return _BINARY_MAGIC + out.tobytes()

    # ------------------------------------------------------------------
    # Text format (same format as write_trace)
    # ------------------------------------------------------------------
    @classmethod
    def from_text(
        cls, source: Union[str, Path, io.TextIOBase]
    ) -> "ColumnarTrace":
        """Parse the line-oriented text format straight into columns.

        Raises the same :class:`TraceFormatError` (with line numbers) as
        :func:`~repro.isa.trace.read_trace` on malformed records.
        """
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8") as handle:
                return cls.from_text(handle)
        rows = []
        for line_no, line in enumerate(source, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            try:
                code = _TEXT_OPCODE_BYTES[parts[0]]
                if code == TRAN_BYTE:
                    if len(parts) != 4:
                        raise ValueError("TRAN takes 3 fields")
                    src1, des, size = (
                        int(parts[1]), int(parts[2]), int(parts[3])
                    )
                    src2 = NO_OPERAND_SENTINEL
                else:
                    if len(parts) != 5:
                        raise ValueError("takes 4 fields")
                    src1, src2, des, size = (
                        int(parts[1]), int(parts[2]),
                        int(parts[3]), int(parts[4]),
                    )
                if size < 1 or src1 < 0 or src2 < 0 or des < 0:
                    raise ValueError("field out of range")
            except (ValueError, KeyError, IndexError):
                # Re-parse through the scalar reader so the diagnostic
                # (message and line number) is exactly the canonical one.
                _parse_vpc(stripped, line_no)
                raise TraceFormatError(
                    f"bad trace record {stripped!r}: not representable "
                    f"in columnar form",
                    line=line_no,
                )
            if (
                code != TRAN_BYTE and src2 == NO_OPERAND_SENTINEL
            ) or max(src1, src2, des, size) > _COLUMN_MAX:
                raise TraceFormatError(
                    f"bad trace record {stripped!r}: field exceeds the "
                    f"columnar field range",
                    line=line_no,
                )
            rows.append((code, src1, src2, des, size))
        return cls(np.array(rows, dtype=RECORD_DTYPE))

    # ------------------------------------------------------------------
    # File helpers
    # ------------------------------------------------------------------
    @classmethod
    def read(cls, path: Union[str, Path]) -> "ColumnarTrace":
        """Read a trace file, sniffing the binary magic prefix."""
        with open(path, "rb") as handle:
            head = handle.read(len(_BINARY_MAGIC))
            if head == _BINARY_MAGIC:
                return cls.from_bytes(head + handle.read())
        return cls.from_text(path)

    def write_binary(self, target: Union[str, Path, io.BufferedIOBase]) -> None:
        """Write the binary wire format."""
        if isinstance(target, (str, Path)):
            with open(target, "wb") as handle:
                handle.write(self.to_bytes())
            return
        target.write(self.to_bytes())


def _validate_op_starts(op_starts, total: int) -> np.ndarray:
    """Normalise operation-boundary starts: sorted, in-range, unique."""
    starts = np.asarray(op_starts, dtype=np.int64).ravel()
    if len(starts) == 0:
        return starts
    if starts[0] != 0:
        raise ValueError(
            f"op_starts must begin at command 0, got {int(starts[0])}"
        )
    if np.any(np.diff(starts) <= 0):
        raise ValueError("op_starts must be strictly increasing")
    if int(starts[-1]) >= total and total > 0:
        raise ValueError(
            f"op_starts beyond trace end: {int(starts[-1])} >= {total}"
        )
    if total == 0 and len(starts):
        raise ValueError("op_starts must be empty for an empty trace")
    return starts


class ColumnarTraceBuilder:
    """Batched, append-only construction of a :class:`ColumnarTrace`.

    Vectorized trace lowering computes whole address streams as NumPy
    expressions; this builder accepts them in bulk —
    :meth:`emit_block` takes one array per column,
    :meth:`emit_records` takes pre-assembled :data:`RECORD_DTYPE`
    records — and never materialises per-command :class:`VPC` objects.
    Storage grows in chunks (scalar :meth:`emit` fills a doubling
    buffer; block emissions append whole chunks), so building an
    n-command trace is O(n) with no quadratic reallocation.

    Every emission is validated with the same rules the scalar
    :class:`~repro.isa.vpc.VPC` constructor enforces (known opcode,
    positive size, non-negative addresses, src2 sentinel if and only if
    TRAN), so a built trace always encodes and round-trips.
    """

    #: Initial scalar-emission buffer length (doubles when full).
    _INITIAL_BUFFER = 1024

    def __init__(self, capacity: int = _INITIAL_BUFFER) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._chunks: List[np.ndarray] = []
        self._buffer = np.empty(capacity, dtype=RECORD_DTYPE)
        self._filled = 0
        self._total = 0
        self._sealed = False
        self._boundary = 0
        self._drained = 0
        self._op_marks: List[int] = []
        self._op_marked = False

    def __len__(self) -> int:
        return self._total

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._sealed:
            raise RuntimeError("builder already built; create a new one")

    def emit(
        self,
        opcode: int,
        src1: int,
        src2: Optional[int],
        des: int,
        size: int,
    ) -> None:
        """Append one command (``src2=None`` for TRAN)."""
        self._check_open()
        if self._filled == len(self._buffer):
            self._flush_buffer(grow=True)
        record = self._buffer[self._filled]
        record["opcode"] = opcode
        record["src1"] = src1
        record["src2"] = NO_OPERAND_SENTINEL if src2 is None else src2
        record["des"] = des
        record["size"] = size
        _validate_built(self._buffer[self._filled : self._filled + 1])
        self._filled += 1
        self._total += 1

    def emit_block(
        self,
        opcodes,
        src1s,
        src2s,
        dess,
        sizes,
    ) -> None:
        """Append a batch of commands given one array per column.

        Columns broadcast against each other, so scalars are fine for
        constant fields (e.g. ``sizes=k``).  Pass ``src2s=None`` for an
        all-TRAN block; otherwise TRAN rows must carry
        :data:`~repro.isa.encoding.NO_OPERAND_SENTINEL`.
        """
        opcodes = np.asarray(opcodes)
        src1s = np.asarray(src1s, dtype=np.int64)
        if src2s is None:
            src2s = np.int64(NO_OPERAND_SENTINEL)
        src2s = np.asarray(src2s, dtype=np.int64)
        dess = np.asarray(dess, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        opcodes, src1s, src2s, dess, sizes = np.broadcast_arrays(
            opcodes, src1s, src2s, dess, sizes
        )
        records = np.empty(opcodes.size, dtype=RECORD_DTYPE)
        records["opcode"] = opcodes.ravel()
        records["src1"] = src1s.ravel()
        records["src2"] = src2s.ravel()
        records["des"] = dess.ravel()
        records["size"] = sizes.ravel()
        self.emit_records(records, _validated=False)

    def emit_records(
        self, records: np.ndarray, _validated: bool = False
    ) -> None:
        """Append pre-assembled :data:`RECORD_DTYPE` records (raveled)."""
        self._check_open()
        records = np.ascontiguousarray(records).ravel()
        if records.dtype != RECORD_DTYPE:
            raise TypeError(
                f"records must have dtype {RECORD_DTYPE}, got "
                f"{records.dtype}"
            )
        if not _validated:
            _validate_built(records)
        if len(records) == 0:
            return
        self._flush_buffer(grow=False)
        self._chunks.append(records)
        self._total += len(records)

    # ------------------------------------------------------------------
    def _flush_buffer(self, grow: bool) -> None:
        if self._filled:
            self._chunks.append(self._buffer[: self._filled].copy())
            self._filled = 0
        if grow:
            self._buffer = np.empty(
                max(len(self._buffer) * 2, self._INITIAL_BUFFER),
                dtype=RECORD_DTYPE,
            )

    def build(self) -> ColumnarTrace:
        """Seal the builder and return the assembled trace."""
        self._check_open()
        if self._drained:
            raise RuntimeError(
                "builder already drained incrementally; the full trace "
                "is the concatenation of the drained chunks"
            )
        self._flush_buffer(grow=False)
        self._sealed = True
        if not self._chunks:
            records = np.empty(0, dtype=RECORD_DTYPE)
        elif len(self._chunks) == 1:
            records = self._chunks[0]
        else:
            records = np.concatenate(self._chunks)
        self._chunks = []
        op_starts = self.op_starts_so_far() if self._op_marked else None
        return ColumnarTrace(records, op_starts=op_starts)

    def op_starts_so_far(self) -> np.ndarray:
        """Operation start offsets recorded by :meth:`mark_op_boundary`.

        After the final drain this is the boundary list of the
        concatenated drained chunks.
        """
        if self._total == 0:
            return np.empty(0, dtype=np.int64)
        return np.array(
            [0] + [m for m in self._op_marks if 0 < m < self._total],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    # Incremental chunk API (streamed compile/execute pipeline)
    # ------------------------------------------------------------------
    def mark_op_boundary(self) -> None:
        """Record that every emitted record belongs to a finished op.

        :meth:`drain_chunks` only ever cuts a chunk at the most recent
        boundary, so a drained chunk can never split a multi-record
        operation group mid-op — the invariant the per-chunk functional
        apply and scratch recycling rely on.  Trace lowering calls this
        after each operation's ``ScratchAllocator.recycle()``.
        """
        self._check_open()
        self._boundary = self._total
        self._op_marked = True
        if not self._op_marks or self._op_marks[-1] != self._total:
            self._op_marks.append(self._total)

    def pending_records(self) -> int:
        """Records emitted up to the last op boundary but not drained."""
        return self._boundary - self._drained

    def drain_chunks(
        self, min_records: int = 1, force: bool = False
    ) -> Iterator[ColumnarTrace]:
        """Yield finished, validated chunks of the trace built so far.

        Records are handed out strictly in emission order and only up to
        the last :meth:`mark_op_boundary`; the concatenation of every
        yielded chunk (in order) is bit-identical to what :meth:`build`
        would have returned.  A chunk is cut once at least
        ``min_records`` boundary-complete records are pending (always,
        when ``force`` is true and anything is pending), so
        ``min_records=1`` gives per-operation chunks and larger values
        amortise per-chunk overheads.

        After the first drain the builder is committed to streaming:
        :meth:`build` raises, since the drained records are no longer
        held.
        """
        self._check_open()
        if min_records < 1:
            raise ValueError(
                f"min_records must be positive, got {min_records}"
            )
        pending = self._boundary - self._drained
        if pending <= 0 or (pending < min_records and not force):
            return
        self._flush_buffer(grow=False)
        take: List[np.ndarray] = []
        taken = 0
        while taken < pending:
            arr = self._chunks.pop(0)
            need = pending - taken
            if len(arr) <= need:
                take.append(arr)
                taken += len(arr)
            else:
                take.append(arr[:need])
                self._chunks.insert(0, arr[need:])
                taken = pending
        records = take[0] if len(take) == 1 else np.concatenate(take)
        self._drained += pending
        yield ColumnarTrace(records)


def _validate_built(records: np.ndarray) -> None:
    """Reject records the scalar VPC constructor would reject."""
    opcode = records["opcode"]
    src2 = records["src2"]
    bad = ~np.isin(opcode, _VALID_OPCODE_BYTES)
    bad |= records["size"] < 1
    bad |= records["src1"] < 0
    bad |= records["des"] < 0
    bad |= src2 < 0
    is_tran = opcode == TRAN_BYTE
    has_operand = src2 != NO_OPERAND_SENTINEL
    bad |= is_tran & has_operand
    bad |= ~is_tran & ~has_operand
    if not bad.any():
        return
    index = int(np.argmax(bad))
    record = records[index]
    raise ValueError(
        f"invalid trace record at emission index {index}: "
        f"opcode=0x{int(record['opcode']):02x} "
        f"src1={int(record['src1'])} src2={int(record['src2'])} "
        f"des={int(record['des'])} size={int(record['size'])}"
    )


def _validate_records(
    records: np.ndarray, body: memoryview, magic_len: int
) -> None:
    """Reject records the scalar decoder would reject.

    The offending record is re-decoded through the scalar
    :func:`~repro.isa.encoding.decode_vpc` path so the raised
    :class:`TraceFormatError` carries exactly the canonical message.
    """
    opcode = records["opcode"]
    src2 = records["src2"]
    bad = ~np.isin(opcode, _VALID_OPCODE_BYTES)
    bad |= records["size"] < 1
    is_tran = opcode == TRAN_BYTE
    has_operand = src2 != NO_OPERAND_SENTINEL
    bad |= is_tran & has_operand
    bad |= ~is_tran & ~has_operand
    if not bad.any():
        return
    index = int(np.argmax(bad))
    offset = magic_len + index * VPC_ENCODED_BYTES
    packet = bytes(
        body[index * VPC_ENCODED_BYTES : (index + 1) * VPC_ENCODED_BYTES]
    )
    try:
        decode_vpc(packet)
    except ValueError as exc:
        raise TraceFormatError(
            f"undecodable record: {exc}", offset=offset
        ) from exc
    raise TraceFormatError(  # pragma: no cover - defensive guard
        "undecodable record", offset=offset
    )


def binary_record_offset(index: int) -> int:
    """Byte offset of record ``index`` in the binary wire encoding.

    Lets diagnostics point at the offending record of a ``.bin`` trace
    without re-reading the file.
    """
    if index < 0:
        raise ValueError(f"record index must be >= 0, got {index}")
    return len(_BINARY_MAGIC) + index * VPC_ENCODED_BYTES
