"""Typed runtime faults surfaced by trace execution.

Static problems in a trace file raise
:class:`~repro.isa.trace.TraceFormatError` with a byte offset or line
number; *dynamic* problems discovered while executing the trace — a
shift that escapes the nanowire model, an injected fault the recovery
policy decides to surface, a retry budget that runs out — raise
:class:`SimulationFault` with the same locating convention so tooling
can point at the offending command in the stored trace.
"""

from __future__ import annotations

from typing import Optional

from repro.isa.encoding import VPC_ENCODED_BYTES
from repro.isa.trace import _BINARY_MAGIC


def trace_byte_offset(index: int) -> int:
    """Byte offset of command ``index`` in the binary trace encoding.

    Mirrors the offsets :class:`~repro.isa.trace.TraceFormatError`
    reports for malformed binary traces, so dynamic faults and static
    format errors locate commands the same way.
    """
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return len(_BINARY_MAGIC) + index * VPC_ENCODED_BYTES


class SimulationFault(RuntimeError):
    """A fault raised during event-mode trace execution.

    Attributes:
        index: trace position (VPC index) of the faulting command.
        offset: byte offset of that command in the binary encoding
            (same convention as :class:`~repro.isa.trace.TraceFormatError`).
        line: 1-based line number in the text encoding (one command per
            line, no header).
    """

    def __init__(
        self,
        message: str,
        index: Optional[int] = None,
        offset: Optional[int] = None,
    ) -> None:
        where = ""
        if index is not None:
            where = f" at vpc #{index}"
            if offset is None:
                offset = trace_byte_offset(index)
            where += f" (byte offset {offset}, line {index + 1})"
        super().__init__(message + where)
        self.index = index
        self.offset = offset
        self.line = None if index is None else index + 1
