"""Columnar trace codec: lossless round-trips + scalar-reader parity."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import TraceFormatError
from repro.isa.columnar import RECORD_DTYPE, ColumnarTrace
from repro.isa.encoding import (
    NO_OPERAND_SENTINEL,
    VPC_ENCODED_BYTES,
)
from repro.isa.trace import (
    VPCTrace,
    read_trace,
    read_trace_binary,
    write_trace,
    write_trace_binary,
)
from repro.isa.vpc import VPC, VPCOpcode

_MAGIC = b"VPCT\x01"

_FIELD_MAX = (1 << 40) - 2
addresses = st.integers(min_value=0, max_value=_FIELD_MAX)
sizes = st.integers(min_value=1, max_value=_FIELD_MAX)


@st.composite
def vpcs(draw):
    opcode = draw(st.sampled_from(list(VPCOpcode)))
    src2 = None if opcode is VPCOpcode.TRAN else draw(addresses)
    return VPC(opcode, draw(addresses), src2, draw(addresses), draw(sizes))


def binary_bytes(trace):
    buffer = io.BytesIO()
    write_trace_binary(trace, buffer)
    return buffer.getvalue()


_SAMPLE = VPCTrace(
    [
        VPC.mul(0, 8, 16, 4),
        VPC.smul(1, 8, 16, 4),
        VPC.add(0, 8, 16, 4),
        VPC.tran(16, 32, 4),
    ]
)


class TestRoundTripProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(vpcs(), max_size=20))
    def test_trace_round_trip(self, commands):
        cols = ColumnarTrace.from_trace(VPCTrace(commands))
        assert list(cols.to_trace()) == commands
        assert list(cols) == commands
        assert len(cols) == len(commands)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(vpcs(), max_size=20))
    def test_bytes_match_scalar_writer(self, commands):
        trace = VPCTrace(commands)
        cols = ColumnarTrace.from_trace(trace)
        assert cols.to_bytes() == binary_bytes(trace)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(vpcs(), max_size=20))
    def test_bytes_round_trip(self, commands):
        cols = ColumnarTrace.from_trace(VPCTrace(commands))
        assert ColumnarTrace.from_bytes(cols.to_bytes()) == cols

    @settings(max_examples=50, deadline=None)
    @given(st.lists(vpcs(), max_size=20))
    def test_stats_match_scalar_trace(self, commands):
        trace = VPCTrace(commands)
        cols = ColumnarTrace.from_trace(trace)
        assert cols.stats == trace.stats

    @settings(max_examples=50, deadline=None)
    @given(st.lists(vpcs(), min_size=1, max_size=20))
    def test_getitem_matches_scalar_trace(self, commands):
        cols = ColumnarTrace.from_trace(VPCTrace(commands))
        assert cols[0] == commands[0]
        assert cols[-1] == commands[-1]

    def test_text_parses_like_scalar_reader(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(_SAMPLE, path)
        cols = ColumnarTrace.from_text(path)
        assert list(cols) == list(read_trace(path))

    def test_read_sniffs_binary_and_text(self, tmp_path):
        binary = tmp_path / "t.bin"
        text = tmp_path / "t.trace"
        ColumnarTrace.from_trace(_SAMPLE).write_binary(binary)
        write_trace(_SAMPLE, text)
        assert list(ColumnarTrace.read(binary)) == list(_SAMPLE)
        assert list(ColumnarTrace.read(text)) == list(_SAMPLE)

    def test_write_binary_accepts_stream(self):
        buffer = io.BytesIO()
        ColumnarTrace.from_trace(_SAMPLE).write_binary(buffer)
        assert buffer.getvalue() == binary_bytes(_SAMPLE)


class TestBinaryErrorParity:
    """from_bytes raises the scalar reader's exact diagnostics."""

    def _both(self, data):
        with pytest.raises(TraceFormatError) as scalar:
            read_trace_binary(io.BytesIO(data))
        with pytest.raises(TraceFormatError) as columnar:
            ColumnarTrace.from_bytes(data)
        return scalar.value, columnar.value

    def test_bad_magic_reports_offset_zero(self):
        scalar, columnar = self._both(b"NOPE\x01" + b"\x00" * 21)
        assert columnar.offset == 0
        assert "magic" in str(columnar)
        assert str(columnar) == str(scalar)

    def test_empty_file_is_bad_magic(self):
        scalar, columnar = self._both(b"")
        assert columnar.offset == 0
        assert str(columnar) == str(scalar)

    def test_truncated_record_reports_byte_offset(self):
        trace = VPCTrace([VPC.tran(0, 8, 4), VPC.add(0, 8, 16, 4)])
        scalar, columnar = self._both(binary_bytes(trace)[:-7])
        assert columnar.offset == len(_MAGIC) + VPC_ENCODED_BYTES
        assert "truncated" in str(columnar)
        assert str(columnar) == str(scalar)

    def test_trailing_garbage_is_rejected(self):
        data = binary_bytes(VPCTrace([VPC.tran(0, 8, 4)]))
        scalar, columnar = self._both(data + b"\xff\xff")
        assert str(columnar) == str(scalar)

    def test_unknown_opcode_byte_reports_offset(self):
        corrupt = bytearray(binary_bytes(VPCTrace([VPC.tran(0, 8, 4)])))
        corrupt[len(_MAGIC)] = 0x7F
        scalar, columnar = self._both(bytes(corrupt))
        assert columnar.offset == len(_MAGIC)
        assert "0x7f" in str(columnar)
        assert str(columnar) == str(scalar)

    def test_bad_record_after_good_ones_reports_offset(self):
        trace = VPCTrace([VPC.tran(0, 8, 4), VPC.mul(0, 8, 16, 4)])
        corrupt = bytearray(binary_bytes(trace))
        corrupt[len(_MAGIC) + VPC_ENCODED_BYTES] = 0x7F
        scalar, columnar = self._both(bytes(corrupt))
        assert columnar.offset == len(_MAGIC) + VPC_ENCODED_BYTES
        assert str(columnar) == str(scalar)

    def test_zero_size_record_is_rejected(self):
        # A TRAN with size forced to zero on the wire.
        good = binary_bytes(VPCTrace([VPC.tran(0, 8, 1)]))
        corrupt = bytearray(good)
        corrupt[len(_MAGIC) + 16 : len(_MAGIC) + 21] = b"\x00" * 5
        scalar, columnar = self._both(bytes(corrupt))
        assert str(columnar) == str(scalar)


class TestTextErrorParity:
    def _both(self, text):
        with pytest.raises(TraceFormatError) as scalar:
            read_trace(io.StringIO(text))
        with pytest.raises(TraceFormatError) as columnar:
            ColumnarTrace.from_text(io.StringIO(text))
        return scalar.value, columnar.value

    def test_bad_line_reports_line_number(self):
        scalar, columnar = self._both(
            "# header\nTRAN 0 8 4\nMUL 1 2 oops 4\n"
        )
        assert columnar.line == 3
        assert str(columnar) == str(scalar)

    def test_wrong_field_count_is_flagged(self):
        scalar, columnar = self._both("TRAN 0 8\n")
        assert str(columnar) == str(scalar)
        scalar, columnar = self._both("ADD 0 8 16\n")
        assert str(columnar) == str(scalar)

    def test_unknown_opcode_is_flagged(self):
        scalar, columnar = self._both("FROB 0 8 16 4\n")
        assert str(columnar) == str(scalar)

    def test_negative_field_is_flagged(self):
        scalar, columnar = self._both("ADD 0 -8 16 4\n")
        assert str(columnar) == str(scalar)

    def test_zero_size_is_flagged(self):
        scalar, columnar = self._both("TRAN 0 8 0\n")
        assert str(columnar) == str(scalar)

    def test_comments_and_blanks_are_skipped(self):
        cols = ColumnarTrace.from_text(io.StringIO("# c\n\nTRAN 0 8 4\n"))
        assert len(cols) == 1

    def test_sentinel_src2_not_representable(self):
        # The scalar reader accepts this VPC object, but neither the
        # wire format nor the columnar form can represent a compute
        # command whose src2 equals the TRAN sentinel.
        line = f"ADD 0 {NO_OPERAND_SENTINEL} 16 4\n"
        with pytest.raises(TraceFormatError) as excinfo:
            ColumnarTrace.from_text(io.StringIO(line))
        assert excinfo.value.line == 1


class TestConstructionGuards:
    def test_records_dtype_is_checked(self):
        with pytest.raises(TypeError):
            ColumnarTrace(np.zeros(3, dtype=np.int64))

    def test_records_must_be_one_dimensional(self):
        with pytest.raises(ValueError):
            ColumnarTrace(np.zeros((2, 2), dtype=RECORD_DTYPE))

    def test_eq_against_other_types(self):
        cols = ColumnarTrace.from_trace(_SAMPLE)
        assert cols != "not a trace"
        assert cols == ColumnarTrace.from_trace(_SAMPLE)

    def test_is_compute_mask(self):
        cols = ColumnarTrace.from_trace(_SAMPLE)
        assert cols.is_compute.tolist() == [True, True, True, False]
