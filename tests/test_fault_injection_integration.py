"""Integration: fault injection through the mat and device layers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import (
    VPC,
    VPCTrace,
    read_trace_binary,
    write_trace_binary,
)
from repro.rm.address import DeviceGeometry
from repro.rm.bank import BankConfig
from repro.rm.faults import FaultInjector, FaultyRacetrack, ShiftFaultConfig
from repro.rm.mat import Mat, MatConfig
from repro.rm.subarray import SubarrayConfig
from repro.core.placement import Placer, PlacementPolicy


def _tiny_geometry() -> DeviceGeometry:
    mat = MatConfig(
        save_tracks=16,
        transfer_tracks=16,
        domains_per_track=64,
        word_bits=8,
        ports_per_track=2,
    )
    return DeviceGeometry(
        banks=2,
        pim_banks=1,
        bank=BankConfig(
            subarrays=4,
            subarray=SubarrayConfig(mats=2, pim_mats=1, mat=mat),
            pim_bank=True,
        ),
    )


def _faulty_mat(p_per_step: float, seed: int = 1) -> Mat:
    injector = FaultInjector(ShiftFaultConfig(p_per_step=p_per_step), seed)
    mat = Mat(
        MatConfig(
            save_tracks=8,
            transfer_tracks=0,
            domains_per_track=32,
            word_bits=8,
            ports_per_track=2,
        ),
        track_factory=lambda n, ports: FaultyRacetrack(
            n, ports=ports, injector=injector
        ),
    )
    mat.injector = injector  # test-side handle
    return mat


class TestFaultyMats:
    def test_fault_free_factory_behaves_normally(self):
        mat = _faulty_mat(0.0)
        mat.write_vector(0, 0, [9, 8, 7])
        assert mat.read_vector(0, 0, 3) == [9, 8, 7]
        assert mat.injector.injected == 0

    def test_heavy_faults_corrupt_reads(self):
        """With an absurd fault rate, word accesses visibly corrupt —
        either wrong data or a boundary violation a real device would
        flag — the failure modes guard-domain schemes exist for."""
        corrupted = False
        for seed in range(30):
            mat = _faulty_mat(0.3, seed)
            try:
                mat.write_vector(0, 0, [0xAA, 0x55, 0xFF, 0x00])
                readback = mat.read_vector(0, 0, 4)
            except IndexError:
                # Drift pushed an access outside the data region: a
                # detected (not silent) fault.
                corrupted = True
                break
            if readback != [0xAA, 0x55, 0xFF, 0x00]:
                corrupted = True
                assert mat.injector.injected > 0
                break
        assert corrupted, "no corruption across 30 seeds at 30% rate"

    def test_misalignment_is_observable(self):
        """The drift that guard domains would detect is exposed."""
        for seed in range(20):
            mat = _faulty_mat(0.4, seed=seed)
            try:
                mat.write_vector(0, 0, [1, 2, 3, 4, 5])
                mat.read_vector(0, 0, 5)
            except IndexError:
                pass
            tracks = [mat.save_track(i) for i in range(8)]
            drifts = [getattr(t, "misalignment", 0) for t in tracks]
            if any(d != 0 for d in drifts):
                return
        assert False, "no drift observed across 20 seeds at 40% rate"

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_property_zero_rate_never_corrupts(self, seed):
        mat = _faulty_mat(0.0, seed)
        values = [(seed * 7 + i) % 256 for i in range(6)]
        mat.write_vector(0, 2, values)
        assert mat.read_vector(0, 2, 6) == values


class TestBinaryTraces:
    def test_roundtrip(self, tmp_path):
        trace = VPCTrace(
            [
                VPC.mul(10, 20, 30, 40),
                VPC.smul(1, 2, 3, 4),
                VPC.add(5, 6, 7, 8),
                VPC.tran(100, 200, 300),
            ]
        )
        path = tmp_path / "trace.bin"
        write_trace_binary(trace, path)
        loaded = read_trace_binary(path)
        assert list(loaded) == list(trace)
        assert loaded.stats == trace.stats

    def test_size_is_link_capture(self, tmp_path):
        from repro.isa import VPC_ENCODED_BYTES

        trace = VPCTrace([VPC.tran(0, 1, 2)] * 10)
        path = tmp_path / "t.bin"
        write_trace_binary(trace, path)
        assert path.stat().st_size == 5 + 10 * VPC_ENCODED_BYTES

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNK" * 10)
        with pytest.raises(ValueError, match="magic"):
            read_trace_binary(path)

    def test_truncation_detected(self, tmp_path):
        trace = VPCTrace([VPC.mul(1, 2, 3, 4)])
        path = tmp_path / "cut.bin"
        write_trace_binary(trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(ValueError, match="truncated"):
            read_trace_binary(path)


class TestPlacementBalance:
    @settings(max_examples=20, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=32),
        cols=st.integers(min_value=1, max_value=16),
    )
    def test_property_distribute_is_balanced(self, rows, cols):
        """Round-robin placement never skews rows per subarray by more
        than one (when every row fits everywhere)."""
        placer = Placer(_tiny_geometry(), PlacementPolicy.DISTRIBUTE)
        try:
            handle = placer.place_matrix("A", rows, cols)
        except MemoryError:
            return
        first = handle.first_slices()
        _, counts = np.unique(first[:, :2], axis=0, return_counts=True)
        assert max(counts) - min(counts) <= 1
