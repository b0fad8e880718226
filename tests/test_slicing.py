"""Tests for the oversized-vector slicing strategy (section IV-C).

"To handle an oversized vector which is larger than a subarray's
capacity, StreamPIM employs a slicing strategy to distribute different
parts of the vector to different subarrays, process them and then
collect the results."
"""

import numpy as np
import pytest

from repro.core.device import StreamPIMConfig, StreamPIMDevice
from repro.core.task import PimTask, TaskOp
from repro.workloads.generator import random_matrix


@pytest.fixture
def sliced_geometry(small_mat_config):
    """A device with 256-word subarrays but enough of them that
    over-capacity vectors fit once sliced."""
    from repro.rm.address import DeviceGeometry
    from repro.rm.bank import BankConfig
    from repro.rm.subarray import SubarrayConfig

    return DeviceGeometry(
        banks=2,
        pim_banks=1,
        bank=BankConfig(
            subarrays=16,
            subarray=SubarrayConfig(
                mats=2, pim_mats=1, mat=small_mat_config
            ),
            pim_bank=True,
        ),
    )


@pytest.fixture
def sliced_device(sliced_geometry, small_bus_config):
    return StreamPIMDevice(
        StreamPIMConfig(geometry=sliced_geometry, bus=small_bus_config)
    )


def _capacity(device):
    return device.config.geometry.subarray_capacity_words


class TestSlicedPlacement:
    def test_oversized_row_spans_subarrays(self, sliced_device):
        task = PimTask(sliced_device)
        cols = _capacity(sliced_device) + 44
        task.add_matrix("A", shape=(2, cols))
        task.add_matrix("x", shape=(1, cols))
        task.add_matrix("y", shape=(1, 2))
        task.add_operation(TaskOp.MATVEC, "A", "x", "y")
        placer = task._build_placer()
        handles = task._place_all(placer)
        assert handles["A"].sliced
        assert handles["A"].slices_per_row() == 2


class TestSlicedCosts:
    def _matvec_report(self, device, cols, rows=2):
        task = PimTask(device)
        task.add_matrix("A", shape=(rows, cols))
        task.add_matrix("x", shape=(1, cols))
        task.add_matrix("y", shape=(1, rows))
        task.add_operation(TaskOp.MATVEC, "A", "x", "y")
        return task.run(functional=False)

    def test_sliced_matvec_counts_partial_work(self, sliced_device):
        capacity = _capacity(sliced_device)
        report = self._matvec_report(sliced_device, capacity + 10)
        # 2 slices: 2 partial dots + 1 reduction add per row.
        assert report.counts.pim_vpcs == 2 * 2 + 2
        # Deliveries per partial + partial collect + final collect.
        assert report.counts.move_vpcs == 2 * 2 + 2 + 2 * 2

    def test_unsliced_counts_unchanged(self, sliced_device):
        report = self._matvec_report(sliced_device, 64)
        assert report.counts.pim_vpcs == 2
        assert report.counts.move_vpcs == 4

    def test_sliced_dot_costs_more_than_unsliced_of_same_length(
        self, sliced_geometry, small_bus_config
    ):
        times = {}
        for cols_over in (False, True):
            device = StreamPIMDevice(
                StreamPIMConfig(
                    geometry=sliced_geometry, bus=small_bus_config
                )
            )
            capacity = _capacity(device)
            cols = capacity + 20 if cols_over else capacity - 20
            times[cols_over] = self._matvec_report(device, cols).time_ns
        # The sliced version processes barely more data but pays the
        # partial-collection and reduction overheads.
        assert times[True] > times[False]

    def test_sliced_matmul_runs(self, sliced_device):
        capacity = _capacity(sliced_device)
        task = PimTask(sliced_device)
        k = capacity + 30
        task.add_matrix("A", shape=(3, k))
        task.add_matrix("B", shape=(k, 2))
        task.add_matrix("C", shape=(3, 2))
        task.add_operation(TaskOp.MATMUL, "A", "B", "C")
        report = task.run(functional=False)
        # Each of the 6 dots becomes 2 partial dots + 1 reduction.
        assert report.counts.pim_vpcs == 6 * 3
        assert report.time_ns > 0

    def test_sliced_functional_results_still_exact(self, sliced_device, rng):
        capacity = _capacity(sliced_device)
        cols = capacity + 10
        a = random_matrix(2, cols, rng)
        x = random_matrix(1, cols, rng)
        task = PimTask(sliced_device)
        task.add_matrix("A", a)
        task.add_matrix("x", x)
        task.add_matrix("y", shape=(1, 2))
        task.add_operation(TaskOp.MATVEC, "A", "x", "y")
        report = task.run()
        assert np.array_equal(report.results["y"][0], a @ x[0])
