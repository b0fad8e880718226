"""Batched trace builder, vectorized lowering, scratch free lists.

Three contracts from the vectorized compile path:

* :class:`ColumnarTraceBuilder` assembles exactly the trace the
  record-at-a-time path would (round-trips are bit-identical);
* ``PimTask.to_trace()`` emits byte-for-byte the same stream as the
  per-command reference lowering (``tests/oracles/scalar_lowering.py``),
  for every shipped workload at multiple dataset scales;
* :class:`ScratchAllocator` recycles freed staging slots across
  operation boundaries (bounded scratch) and its batched entry points
  evolve the allocator state exactly like the scalar call sequence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.device import StreamPIMDevice
from repro.core.task import PimTask, ScratchAllocator, TaskOp
from repro.isa.columnar import (
    MUL_BYTE,
    OPCODE_TO_BYTE,
    RECORD_DTYPE,
    TRAN_BYTE,
    ColumnarTrace,
    ColumnarTraceBuilder,
)
from repro.isa.encoding import NO_OPERAND_SENTINEL
from tests.oracles import scalar_lowering
from repro.isa.trace import VPCTrace
from repro.isa.vpc import VPC, VPCOpcode
from repro.workloads import (
    EXTRA_WORKLOADS,
    POLYBENCH,
    extra_workload,
    polybench_workload,
)

_FIELD_MAX = (1 << 40) - 2
addresses = st.integers(min_value=0, max_value=_FIELD_MAX)
sizes = st.integers(min_value=1, max_value=_FIELD_MAX)


@st.composite
def vpcs(draw):
    opcode = draw(st.sampled_from(list(VPCOpcode)))
    src2 = None if opcode is VPCOpcode.TRAN else draw(addresses)
    return VPC(opcode, draw(addresses), src2, draw(addresses), draw(sizes))


def _emit_scalar(builder, command):
    builder.emit(
        OPCODE_TO_BYTE[command.opcode],
        command.src1,
        command.src2,
        command.des,
        command.size,
    )


class TestBuilderUnit:
    def test_emit_matches_from_trace(self):
        commands = [
            VPC.mul(0, 8, 16, 4),
            VPC.smul(1, 8, 16, 4),
            VPC.add(0, 8, 16, 4),
            VPC.tran(16, 32, 4),
        ]
        builder = ColumnarTraceBuilder()
        for command in commands:
            _emit_scalar(builder, command)
        assert len(builder) == len(commands)
        built = builder.build()
        reference = ColumnarTrace.from_trace(VPCTrace(commands))
        assert built == reference
        assert built.to_bytes() == reference.to_bytes()

    def test_emit_block_broadcasts_scalars(self):
        builder = ColumnarTraceBuilder()
        builder.emit_block(MUL_BYTE, np.arange(5), 7, np.arange(5) + 10, 3)
        built = builder.build()
        assert list(built) == [
            VPC.mul(i, 7, i + 10, 3) for i in range(5)
        ]

    def test_emit_block_none_src2_means_tran(self):
        builder = ColumnarTraceBuilder()
        builder.emit_block(TRAN_BYTE, np.arange(3), None, 20, 2)
        built = builder.build()
        assert (built.src2 == NO_OPERAND_SENTINEL).all()
        assert list(built) == [VPC.tran(i, 20, 2) for i in range(3)]

    def test_chunk_growth_preserves_order(self):
        builder = ColumnarTraceBuilder(capacity=2)
        reference = VPCTrace()
        for i in range(100):
            command = VPC.tran(i, i + 1, 1)
            reference.append(command)
            _emit_scalar(builder, command)
            if i % 7 == 0:
                block = np.zeros(3, dtype=RECORD_DTYPE)
                block["opcode"] = MUL_BYTE
                block["src1"] = i
                block["src2"] = i + 1
                block["des"] = i + 2
                block["size"] = 1
                builder.emit_records(block)
                reference.extend(
                    VPC.mul(i, i + 1, i + 2, 1) for _ in range(3)
                )
        built = builder.build()
        expected = ColumnarTrace.from_trace(reference)
        assert built == expected
        assert built.to_bytes() == expected.to_bytes()

    def test_empty_build(self):
        built = ColumnarTraceBuilder().build()
        assert len(built) == 0
        assert built == ColumnarTrace.from_trace(VPCTrace())

    def test_sealed_builder_rejects_use(self):
        builder = ColumnarTraceBuilder()
        builder.build()
        with pytest.raises(RuntimeError, match="already built"):
            builder.emit(TRAN_BYTE, 0, None, 1, 1)
        with pytest.raises(RuntimeError, match="already built"):
            builder.build()

    @pytest.mark.parametrize(
        "record",
        [
            (0x7F, 0, 5, 1, 1),  # unknown opcode
            (MUL_BYTE, 0, 5, 1, 0),  # size < 1
            (MUL_BYTE, -1, 5, 1, 1),  # negative src1
            (MUL_BYTE, 0, NO_OPERAND_SENTINEL, 1, 1),  # sentinel non-TRAN
            (TRAN_BYTE, 0, 5, 1, 1),  # TRAN with a real src2
        ],
    )
    def test_invalid_records_rejected(self, record):
        builder = ColumnarTraceBuilder()
        block = np.array([record], dtype=RECORD_DTYPE)
        with pytest.raises(ValueError, match="invalid trace record"):
            builder.emit_records(block)

    def test_validation_reports_first_bad_index(self):
        block = np.zeros(4, dtype=RECORD_DTYPE)
        block["opcode"] = MUL_BYTE
        block["size"] = 1
        block["size"][2] = 0
        with pytest.raises(ValueError, match="emission index 2"):
            ColumnarTraceBuilder().emit_records(block)


class TestBuilderRoundTripProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(vpcs(), max_size=30))
    def test_builder_matches_scalar_writer(self, commands):
        builder = ColumnarTraceBuilder(capacity=4)
        for command in commands:
            _emit_scalar(builder, command)
        built = builder.build()
        assert built.to_bytes() == ColumnarTrace.from_trace(
            VPCTrace(commands)
        ).to_bytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(vpcs(), max_size=30))
    def test_scalar_iterate_rebuild_is_bit_identical(self, commands):
        """builder -> columnar -> scalar iterate -> rebuild round-trip."""
        builder = ColumnarTraceBuilder(capacity=4)
        for command in commands:
            _emit_scalar(builder, command)
        built = builder.build()
        rebuilt = ColumnarTraceBuilder()
        for command in built:  # scalar VPC objects
            _emit_scalar(rebuilt, command)
        assert rebuilt.build().to_bytes() == built.to_bytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(vpcs(), max_size=30))
    def test_len_iter_equality_consistency(self, commands):
        trace = VPCTrace(commands)
        cols = ColumnarTrace.from_trace(trace)
        assert len(cols) == len(trace)
        assert list(cols) == list(trace)
        assert cols == ColumnarTrace.from_trace(VPCTrace(commands))


def _differential_specs():
    for scale in (0.01, 0.04):
        for name in POLYBENCH:
            spec = polybench_workload(name, scale=scale)
            if spec.build is not None:
                yield pytest.param(spec, id=f"{name}-{scale}")
        for name in EXTRA_WORKLOADS:
            spec = extra_workload(name, scale=scale)
            if spec.build is not None:
                yield pytest.param(spec, id=f"{name}-{scale}")
    from repro.workloads.dnn import (
        BERTShape,
        MLPShape,
        bert_spec,
        mlp_spec,
    )

    yield pytest.param(
        mlp_spec(MLPShape(batch=4, layers=(16, 12, 8))), id="mlp-small"
    )
    yield pytest.param(
        mlp_spec(MLPShape(batch=8, layers=(24, 16, 12))), id="mlp-medium"
    )
    yield pytest.param(
        bert_spec(BERTShape(seq_len=4, hidden=8, ffn=16, heads=2, layers=1)),
        id="bert-small",
    )
    yield pytest.param(
        bert_spec(
            BERTShape(seq_len=8, hidden=16, ffn=32, heads=2, layers=1)
        ),
        id="bert-medium",
    )


class TestLoweringDifferential:
    """to_trace() must emit the scalar lowering's exact bytes."""

    @pytest.mark.parametrize("spec", _differential_specs())
    def test_workload_traces_bit_identical(self, spec):
        scalar_trace = scalar_lowering.to_trace(spec.build_task(seed=7))
        columnar_trace = spec.build_task(seed=7).to_trace()
        assert isinstance(scalar_trace, VPCTrace)
        assert isinstance(columnar_trace, ColumnarTrace)
        assert (
            ColumnarTrace.from_trace(scalar_trace).to_bytes()
            == columnar_trace.to_bytes()
        )

    def test_gather_matmul_path_bit_identical(self):
        """Matmul whose B operand cannot be mirrored (used elsewhere)
        exercises the per-element gather lowering."""

        def build():
            rng = np.random.default_rng(11)
            task = PimTask(StreamPIMDevice())
            task.add_matrix("A", rng.integers(0, 50, size=(6, 5)))
            task.add_matrix("B", rng.integers(0, 50, size=(5, 7)))
            task.add_matrix("B2", rng.integers(0, 50, size=(5, 7)))
            task.add_matrix("C", shape=(6, 7))
            task.add_matrix("D", shape=(5, 7))
            task.add_operation(TaskOp.MAT_ADD, "B", "B2", "D")
            task.add_operation(TaskOp.MATMUL, "A", "B", "C")
            return task

        scalar_trace = scalar_lowering.to_trace(build())
        columnar_trace = build().to_trace()
        assert (
            ColumnarTrace.from_trace(scalar_trace).to_bytes()
            == columnar_trace.to_bytes()
        )


class _Slice:
    """Minimal stand-in carrying the subarray key near()/unique() read."""

    def __init__(self, bank, subarray):
        self.subarray_key = (bank, subarray)


def _allocator():
    return ScratchAllocator(PimTask(StreamPIMDevice())._build_placer())


class TestScratchFreeList:
    def test_recycle_reuses_freed_slots(self):
        alloc = _allocator()
        row = _Slice(0, 0)
        first = [alloc.near(row, 8) for _ in range(4)]
        assert len(set(first)) == 4
        cursor_after_first = dict(alloc._cursors)
        alloc.recycle()
        second = [alloc.near(row, 8) for _ in range(4)]
        # Same addresses, same order, and no new capacity consumed.
        assert second == first
        assert alloc._cursors == cursor_after_first

    def test_cursor_bounded_across_many_operations(self):
        """The regression: before the free list, every operation
        advanced the cursor and long chains exhausted the subarray."""
        alloc = _allocator()
        row = _Slice(0, 0)
        for _ in range(4):
            alloc.near(row, 16)
        consumed_one_op = dict(alloc._cursors)
        for _ in range(200):
            alloc.recycle()
            for _ in range(4):
                alloc.near(row, 16)
        assert alloc._cursors == consumed_one_op

    def test_exhaustion_without_recycle(self):
        alloc = _allocator()
        row = _Slice(0, 0)
        capacity = alloc._placer.subarray_capacity_words
        with pytest.raises(MemoryError, match="scratch exhausted"):
            # Each new size class allocates fresh words; without
            # recycling nothing is ever returned.
            for words in range(1, capacity + 2):
                alloc.near(row, words)

    def test_unique_never_reuses_freed_addresses(self):
        alloc = _allocator()
        row = _Slice(0, 0)
        staged = alloc.near(row, 4)
        alloc.recycle()
        constant = alloc.unique(row, 4)
        assert constant != staged
        # The freed staging slot is still first in line for near().
        assert alloc.near(row, 4) == staged

    def test_free_lists_are_per_size_class(self):
        alloc = _allocator()
        row = _Slice(0, 0)
        small = alloc.near(row, 2)
        alloc.recycle()
        large = alloc.near(row, 32)
        assert large != small
        assert alloc.near(row, 2) == small


_KEYS = [(0, 0), (0, 1), (1, 0)]
calls_strategy = st.lists(
    st.tuples(
        st.sampled_from(range(len(_KEYS))),
        st.integers(min_value=1, max_value=5),
    ),
    min_size=1,
    max_size=40,
)


class TestBlockParity:
    """near_block/unique_block == the equivalent scalar call sequence,
    including end state (cursors, pools, free lists)."""

    @settings(max_examples=60, deadline=None)
    @given(calls_strategy, calls_strategy)
    def test_near_block_parity_with_recycle(self, batch_a, batch_b):
        scalar = _allocator()
        block = _allocator()
        for batch in (batch_a, batch_b):
            expected = [
                scalar.near(_Slice(*_KEYS[ki]), words)
                for ki, words in batch
            ]
            scalar.recycle()
            got = block.near_block(
                np.array(
                    [
                        ScratchAllocator.encode_key(*_KEYS[ki])
                        for ki, _ in batch
                    ]
                ),
                np.array([words for _, words in batch]),
            )
            block.recycle()
            assert got.tolist() == expected
        assert block._cursors == scalar._cursors
        assert block._free == scalar._free

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(calls_strategy, st.booleans()), min_size=1, max_size=4
        )
    )
    def test_near_block_parity_partial_pools(self, batches):
        """Blocks that end with or without a recycle: pools that enter a
        block partly filled or full, free lists drained part-way, then
        cursor growth — every allocator field ends equal."""
        scalar = _allocator()
        block = _allocator()
        for batch, recycle in batches:
            expected = [
                scalar.near(_Slice(*_KEYS[ki]), words)
                for ki, words in batch
            ]
            got = block.near_block(
                [ScratchAllocator.encode_key(*_KEYS[ki]) for ki, _ in batch],
                [words for _, words in batch],
            )
            assert got.tolist() == expected
            if recycle:
                scalar.recycle()
                block.recycle()
            assert block._pools == scalar._pools
            assert block._next_slot == scalar._next_slot
            assert block._cursors == scalar._cursors
            assert block._free == scalar._free

    def test_near_block_exhaustion_names_first_failing_subarray(self):
        capacity = _allocator()._placer.subarray_capacity_words
        # (0, 1) runs out on its second call, before (0, 0) does.
        calls = [((0, 0), 1), ((0, 1), capacity - 1), ((0, 1), 2),
                 ((0, 0), capacity)]
        block = _allocator()
        with pytest.raises(MemoryError, match=r"subarray \(0, 1\)"):
            block.near_block(
                [ScratchAllocator.encode_key(*key) for key, _ in calls],
                [words for _, words in calls],
            )
        scalar = _allocator()
        with pytest.raises(MemoryError, match=r"subarray \(0, 1\)"):
            for key, words in calls:
                scalar.near(_Slice(*key), words)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(range(len(_KEYS))), max_size=12))
    def test_unique_block_parity(self, key_ids):
        scalar = _allocator()
        block = _allocator()
        expected = [
            scalar.unique(_Slice(*_KEYS[ki]), 3) for ki in key_ids
        ]
        got = block.unique_block(
            np.array(
                [ScratchAllocator.encode_key(*_KEYS[ki]) for ki in key_ids],
                dtype=np.int64,
            ),
            3,
        )
        assert got.tolist() == expected
        assert block._cursors == scalar._cursors

    def test_near_block_2d_broadcast(self):
        scalar = _allocator()
        block = _allocator()
        keys = np.full((3, 2), ScratchAllocator.encode_key(0, 0))
        sizes = np.array([[4, 1]] * 3)
        expected = [
            scalar.near(_Slice(0, 0), int(words))
            for words in sizes.ravel()
        ]
        assert block.near_block(keys, sizes).tolist() == expected
