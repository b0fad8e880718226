"""Vector Processing Command (VPC) instruction set.

Table II of the paper defines four host-visible commands at vector
granularity: MUL (dot product), SMUL (scalar-vector multiplication), ADD
(vector addition) and TRAN (data transfer).  This package provides the
command objects, a binary encoding, and trace containers with the
PIM-VPC / move-VPC statistics reported in Table IV.
"""

from repro.isa.vpc import VPCOpcode, VPC, BankCommand, BankOp
from repro.isa.encoding import (
    encode_vpc,
    decode_vpc,
    OPCODE_TO_BYTE,
    BYTE_TO_OPCODE,
    NO_OPERAND_SENTINEL,
    VPC_ENCODED_BYTES,
)
from repro.isa.columnar import (
    ColumnarTrace,
    RECORD_DTYPE,
)
from repro.isa.trace import (
    VPCTrace,
    TraceStats,
    TraceFormatError,
    write_trace,
    read_trace,
    write_trace_binary,
    read_trace_binary,
)
from repro.isa.granularity import (
    CommandGranularity,
    GranularityProfile,
    HostLinkModel,
    compare_granularities,
    profile_workload,
)

__all__ = [
    "VPCOpcode",
    "VPC",
    "BankCommand",
    "BankOp",
    "encode_vpc",
    "decode_vpc",
    "OPCODE_TO_BYTE",
    "BYTE_TO_OPCODE",
    "NO_OPERAND_SENTINEL",
    "VPC_ENCODED_BYTES",
    "ColumnarTrace",
    "RECORD_DTYPE",
    "VPCTrace",
    "TraceStats",
    "TraceFormatError",
    "write_trace",
    "read_trace",
    "write_trace_binary",
    "read_trace_binary",
    "CommandGranularity",
    "GranularityProfile",
    "HostLinkModel",
    "compare_granularities",
    "profile_workload",
]
