"""Tests for the StreamPIM device: event-mode execution and word store."""

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from repro.core.device import (
    StreamPIMConfig,
    StreamPIMDevice,
    WordStore,
)
from repro.core.scheduler import SchedulerPolicy
from repro.isa.trace import VPCTrace
from repro.isa.vpc import VPC
from repro.rm.address import AddressMap, DeviceGeometry
from tests.oracles.scalar_exec import _Span
from tests.oracles.scalar_exec import spans_to_breakdown


class TestWordStore:
    def test_roundtrip(self):
        store = WordStore()
        store.write(100, [1, 2, 3])
        assert list(store.read(100, 3)) == [1, 2, 3]

    def test_unwritten_words_read_zero(self):
        assert list(WordStore().read(0, 4)) == [0, 0, 0, 0]

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            WordStore().read(0, 0)

    def test_len_counts_written_words(self):
        store = WordStore()
        store.write(0, [1, 2])
        store.write(1, [9])  # overwrite
        assert len(store) == 2

    def test_written_zeros_count_and_snapshot(self):
        store = WordStore()
        store.write(10, [0, 5, 0])
        assert len(store) == 3
        assert store.snapshot() == {10: 0, 11: 5, 12: 0}

    def test_scatter_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="2 addresses but 1 values"):
            WordStore().scatter([1, 2], [7])


#: Words on the default device (2**33); the store's address range.
_TOTAL_WORDS = AddressMap(DeviceGeometry()).total_words
_PAGE = WordStore.PAGE_WORDS


def _near(base: int):
    """Addresses within two pages of ``base``, inside the device."""
    return st.integers(-2 * _PAGE, 2 * _PAGE).map(
        lambda delta: min(max(base + delta, 0), _TOTAL_WORDS - 1)
    )


#: Addresses clustered at page boundaries, far apart, and at the top of
#: the device's range, so ranges straddle pages and page ids span 2**24.
_ADDRESSES = st.one_of(
    _near(0), _near(3 * _PAGE), _near(1 << 20), _near(_TOTAL_WORDS - 1)
)
_VALUES = st.integers(-(2**63), 2**63 - 1) | st.just(0)
_STORE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            _ADDRESSES,
            st.lists(_VALUES, min_size=1, max_size=3 * _PAGE),
        ),
        st.tuples(st.just("read"), _ADDRESSES, st.integers(1, 3 * _PAGE)),
        st.tuples(
            st.just("scatter"),
            st.lists(
                st.tuples(_ADDRESSES, _VALUES),
                max_size=40,
                unique_by=lambda pair: pair[0],
            ),
        ),
        st.tuples(st.just("gather"), st.lists(_ADDRESSES, max_size=40)),
    ),
    max_size=25,
)


class TestWordStoreOracle:
    """The paged store behaves exactly like a plain ``dict`` of words."""

    @settings(max_examples=150, deadline=None)
    @given(ops=_STORE_OPS)
    def test_matches_dict_oracle(self, ops):
        store = WordStore()
        oracle = {}
        for op in ops:
            if op[0] == "write":
                _, address, values = op
                # A range may run past the top of the device; the store
                # (like the dict) is not bounded by geometry.
                store.write(address, values)
                for i, value in enumerate(values):
                    oracle[address + i] = value
            elif op[0] == "read":
                _, address, length = op
                expected = [oracle.get(address + i, 0) for i in range(length)]
                assert store.read(address, length).tolist() == expected
            elif op[0] == "scatter":
                pairs = op[1]
                store.scatter(
                    np.array([a for a, _ in pairs], dtype=np.int64),
                    np.array([v for _, v in pairs], dtype=np.int64),
                )
                oracle.update(pairs)
            else:
                addresses = op[1]
                gathered = store.gather(np.array(addresses, dtype=np.int64))
                assert gathered.dtype == np.int64
                assert gathered.tolist() == [
                    oracle.get(a, 0) for a in addresses
                ]
            assert len(store) == len(oracle)
        assert store.snapshot() == oracle


class TestSpansToBreakdown:
    def test_disjoint_spans(self):
        spans = [_Span(0, 10, "rw"), _Span(10, 30, "pim")]
        b = spans_to_breakdown(spans)
        assert b.read_ns + b.write_ns == pytest.approx(10.0)
        assert b.process_ns == pytest.approx(20.0)
        assert b.overlapped_ns == 0.0

    def test_overlap_classified(self):
        spans = [_Span(0, 10, "rw"), _Span(5, 15, "pim")]
        b = spans_to_breakdown(spans)
        assert b.overlapped_ns == pytest.approx(5.0)
        assert b.process_ns == pytest.approx(5.0)

    def test_empty(self):
        assert spans_to_breakdown([]).total_ns == 0.0


class TestEventMode:
    def _subarray_base(self, device, bank, sub):
        return device.address_map.subarray_base(bank, sub)

    def test_functional_dot_product(self, small_device):
        device = small_device
        base = self._subarray_base(device, 0, 0)
        device.store.write(base, [1, 2, 3, 4])
        device.store.write(base + 10, [5, 6, 7, 8])
        trace = VPCTrace([VPC.mul(base, base + 10, base + 20, 4)])
        stats = device.execute_trace(trace)
        assert device.store.read(base + 20, 1)[0] == 70
        assert stats.time_ns > 0

    def test_functional_tran_same_subarray(self, small_device):
        device = small_device
        base = self._subarray_base(device, 0, 0)
        device.store.write(base, [9, 9])
        device.execute_trace(VPCTrace([VPC.tran(base, base + 5, 2)]))
        assert list(device.store.read(base + 5, 2)) == [9, 9]

    def test_functional_cross_subarray_tran(self, small_device):
        device = small_device
        src = self._subarray_base(device, 0, 0)
        dst = self._subarray_base(device, 0, 1)
        device.store.write(src, [4, 5, 6])
        stats = device.execute_trace(VPCTrace([VPC.tran(src, dst, 3)]))
        assert list(device.store.read(dst, 3)) == [4, 5, 6]
        # Cross-subarray movement is read/write class.
        assert stats.energy.read_pj > 0
        assert stats.energy.write_pj > 0

    def test_smul_and_add(self, small_device):
        device = small_device
        base = self._subarray_base(device, 0, 0)
        device.store.write(base, [3])
        device.store.write(base + 1, [1, 2, 3])
        trace = VPCTrace(
            [
                VPC.smul(base, base + 1, base + 10, 3),
                VPC.add(base + 10, base + 1, base + 20, 3),
            ]
        )
        device.execute_trace(trace)
        assert list(device.store.read(base + 10, 3)) == [3, 6, 9]
        assert list(device.store.read(base + 20, 3)) == [4, 8, 12]

    def test_counters(self, small_device):
        base = small_device.address_map.subarray_base(0, 0)
        trace = VPCTrace(
            [VPC.mul(base, base + 8, base + 16, 4), VPC.tran(base, base + 30, 2)]
        )
        stats = small_device.execute_trace(trace)
        assert stats.counters["pim_vpcs"] == 1
        assert stats.counters["move_vpcs"] == 1

    def test_independent_subarrays_overlap(self, small_device):
        """Two VPCs on different subarrays run concurrently."""
        device = small_device
        a = self._subarray_base(device, 0, 0)
        b = self._subarray_base(device, 0, 1)
        one = device.execute_trace(VPCTrace([VPC.mul(a, a + 8, a + 16, 16)]))
        both_trace = VPCTrace(
            [
                VPC.mul(a, a + 8, a + 16, 16),
                VPC.mul(b, b + 8, b + 16, 16),
            ]
        )
        fresh = StreamPIMDevice(device.config)
        both = fresh.execute_trace(both_trace)
        # The second VPC overlaps the first almost entirely.
        assert both.time_ns < 1.5 * one.time_ns

    def test_same_subarray_serialises(self, small_device):
        device = small_device
        a = self._subarray_base(device, 0, 0)
        one = device.execute_trace(VPCTrace([VPC.mul(a, a + 8, a + 16, 16)]))
        fresh = StreamPIMDevice(device.config)
        two = fresh.execute_trace(
            VPCTrace(
                [
                    VPC.mul(a, a + 8, a + 16, 16),
                    VPC.mul(a, a + 8, a + 24, 16),
                ]
            )
        )
        assert two.time_ns > 1.5 * one.time_ns

    def test_remote_operand_charged_as_rw(self, small_device):
        device = small_device
        a = self._subarray_base(device, 0, 0)
        b = self._subarray_base(device, 0, 1)
        stats = device.execute_trace(VPCTrace([VPC.mul(a, b, a + 16, 8)]))
        assert stats.energy.read_pj > 0
        assert stats.energy.write_pj > 0

    def test_remote_destination_copy_back(self, small_device):
        device = small_device
        a = self._subarray_base(device, 0, 0)
        b = self._subarray_base(device, 0, 1)
        device.store.write(a, [2, 2])
        device.store.write(a + 4, [3, 3])
        device.execute_trace(VPCTrace([VPC.add(a, a + 4, b, 2)]))
        assert list(device.store.read(b, 2)) == [5, 5]

    def test_functional_disabled_skips_store(self, small_device):
        device = small_device
        a = self._subarray_base(device, 0, 0)
        device.store.write(a, [1])
        device.execute_trace(
            VPCTrace([VPC.tran(a, a + 3, 1)]), functional=False
        )
        assert device.store.read(a + 3, 1)[0] == 0


class TestConfig:
    def test_with_policy_preserves_other_fields(self):
        config = StreamPIMConfig()
        other = config.with_policy(SchedulerPolicy.BASE)
        assert other.scheduler_policy is SchedulerPolicy.BASE
        assert other.geometry is config.geometry
        assert other.bus is config.bus

    def test_device_exposes_pim_subarrays(self, small_device):
        geo = small_device.config.geometry
        assert small_device.pim_subarrays == geo.pim_subarrays
