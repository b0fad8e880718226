"""Tests for the PimTask programming interface (Fig. 16)."""

import numpy as np
import pytest

from repro.core.device import StreamPIMConfig, StreamPIMDevice
from repro.core.placement import MatrixHandle
from repro.core.scheduler import SchedulerPolicy
from repro.core.task import PimTask, TaskOp, create_pim_task
from repro.workloads.generator import random_matrix


def _device(small_geometry, small_bus_config, policy=SchedulerPolicy.UNBLOCK):
    return StreamPIMDevice(
        StreamPIMConfig(
            geometry=small_geometry,
            bus=small_bus_config,
            scheduler_policy=policy,
        )
    )


@pytest.fixture
def device(small_geometry, small_bus_config):
    return _device(small_geometry, small_bus_config)


class TestApi:
    def test_create_with_config(self):
        task = create_pim_task(config=StreamPIMConfig())
        assert isinstance(task, PimTask)

    def test_create_rejects_device_and_config(self, device):
        with pytest.raises(ValueError):
            create_pim_task(device=device, config=StreamPIMConfig())

    def test_duplicate_matrix_rejected(self, device):
        task = PimTask(device)
        task.add_matrix("A", shape=(2, 2))
        with pytest.raises(ValueError):
            task.add_matrix("A", shape=(2, 2))

    def test_matrix_needs_values_or_shape(self, device):
        with pytest.raises(ValueError):
            PimTask(device).add_matrix("A")

    def test_vector_stored_as_row(self, device):
        task = PimTask(device)
        task.add_vector("x", np.array([1, 2, 3]))
        assert task._matrices["x"].shape == (1, 3)

    def test_3d_rejected(self, device):
        with pytest.raises(ValueError):
            PimTask(device).add_matrix("A", np.zeros((2, 2, 2)))

    def test_unknown_operand_rejected(self, device):
        task = PimTask(device)
        task.add_matrix("A", shape=(2, 2))
        with pytest.raises(KeyError):
            task.add_operation(TaskOp.MAT_ADD, "A", "B", "A")

    def test_unknown_scalar_rejected(self, device):
        task = PimTask(device)
        task.add_matrix("A", shape=(2, 2))
        with pytest.raises(KeyError):
            task.add_operation(TaskOp.MAT_SCALE, "A", "A", scalar="alpha")

    def test_shape_mismatch_rejected(self, device):
        task = PimTask(device)
        task.add_matrix("A", shape=(2, 3))
        task.add_matrix("B", shape=(2, 3))  # inner dims don't match
        task.add_matrix("C", shape=(2, 3))
        with pytest.raises(ValueError):
            task.add_operation(TaskOp.MATMUL, "A", "B", "C")

    def test_run_without_operations_rejected(self, device):
        task = PimTask(device)
        with pytest.raises(RuntimeError):
            task.run()

    def test_input_matrices_not_mutated(self, device):
        a = np.array([[1, 2], [3, 4]])
        task = PimTask(device)
        task.add_matrix("A", a)
        task.add_matrix("B", a)
        task.add_matrix("C", shape=(2, 2))
        task.add_operation(TaskOp.MAT_ADD, "A", "B", "C")
        report = task.run()
        assert np.array_equal(a, [[1, 2], [3, 4]])
        assert np.array_equal(report.results["A"], a)


class TestFunctionalCorrectness:
    def _run(self, device, build):
        task = PimTask(device)
        build(task)
        return task.run()

    def test_matmul(self, device, rng):
        a = random_matrix(6, 5, rng)
        b = random_matrix(5, 4, rng)

        def build(task):
            task.add_matrix("A", a)
            task.add_matrix("B", b)
            task.add_matrix("C", shape=(6, 4))
            task.add_operation(TaskOp.MATMUL, "A", "B", "C")

        report = self._run(device, build)
        assert np.array_equal(report.results["C"], a @ b)

    def test_matvec_and_transposed(self, device, rng):
        a = random_matrix(5, 7, rng)
        x = random_matrix(1, 7, rng)
        z = random_matrix(1, 5, rng)

        def build(task):
            task.add_matrix("A", a)
            task.add_matrix("x", x)
            task.add_matrix("z", z)
            task.add_matrix("y", shape=(1, 5))
            task.add_matrix("w", shape=(1, 7))
            task.add_operation(TaskOp.MATVEC, "A", "x", "y")
            task.add_operation(TaskOp.MATVEC_T, "A", "z", "w")

        report = self._run(device, build)
        assert np.array_equal(report.results["y"][0], a @ x[0])
        assert np.array_equal(report.results["w"][0], a.T @ z[0])

    def test_matvec_accumulate(self, device, rng):
        a = random_matrix(4, 4, rng)
        x = random_matrix(1, 4, rng)
        y0 = random_matrix(1, 4, rng)

        def build(task):
            task.add_matrix("A", a)
            task.add_matrix("x", x)
            task.add_matrix("y", y0)
            task.add_operation(TaskOp.MATVEC_ACC, "A", "x", "y")

        report = self._run(device, build)
        assert np.array_equal(report.results["y"][0], y0[0] + a @ x[0])

    def test_add_scale_dot(self, device, rng):
        a = random_matrix(3, 6, rng)
        b = random_matrix(3, 6, rng)
        x = random_matrix(1, 9, rng)
        y = random_matrix(1, 9, rng)

        def build(task):
            task.add_matrix("A", a)
            task.add_matrix("B", b)
            task.add_matrix("S", shape=(3, 6))
            task.add_matrix("Sc", shape=(3, 6))
            task.add_matrix("x", x)
            task.add_matrix("y", y)
            task.add_matrix("d", shape=(1, 1))
            task.add_scalar("alpha", 3)
            task.add_operation(TaskOp.MAT_ADD, "A", "B", "S")
            task.add_operation(TaskOp.MAT_SCALE, "A", "Sc", scalar="alpha")
            task.add_operation(TaskOp.DOT, "x", "y", "d")

        report = self._run(device, build)
        assert np.array_equal(report.results["S"], a + b)
        assert np.array_equal(report.results["Sc"], 3 * a)
        assert report.results["d"][0, 0] == int(np.dot(x[0], y[0]))

    def test_chained_operations(self, device, rng):
        """Outputs feed later operations (2mm-style chain)."""
        a = random_matrix(4, 3, rng)
        b = random_matrix(3, 4, rng)
        c = random_matrix(4, 2, rng)

        def build(task):
            task.add_matrix("A", a)
            task.add_matrix("B", b)
            task.add_matrix("C", c)
            task.add_matrix("T", shape=(4, 4))
            task.add_matrix("E", shape=(4, 2))
            task.add_operation(TaskOp.MATMUL, "A", "B", "T")
            task.add_operation(TaskOp.MATMUL, "T", "C", "E")

        report = self._run(device, build)
        assert np.array_equal(report.results["E"], (a @ b) @ c)

    def test_functional_false_skips_results(self, device):
        task = PimTask(device)
        task.add_matrix("A", shape=(2, 2))
        task.add_matrix("B", shape=(2, 2))
        task.add_matrix("C", shape=(2, 2))
        task.add_operation(TaskOp.MAT_ADD, "A", "B", "C")
        report = task.run(functional=False)
        assert report.results == {}
        assert report.time_ns > 0


class TestMatrixStoreRoundTrip:
    """Matrices go to and from the word store through their placement."""

    def test_write_then_read_transposed(self):
        device = StreamPIMDevice()
        handle = MatrixHandle(
            "M", 2, 3,
            slices=[(0, 0, 100 + 10 * col, 0, 2) for col in range(3)],
            stored_transposed=True,
        )
        values = np.array([[1, 2, 3], [4, 5, 6]])
        (words,) = PimTask._stored_words(handle, values)
        device.store.scatter(*words)
        assert device.store.snapshot() == {
            100: 1, 101: 4, 110: 2, 111: 5, 120: 3, 121: 6,
        }
        assert np.array_equal(PimTask._read_matrix(device, handle), values)

    def test_read_rejects_ragged_first_slices(self):
        handle = MatrixHandle(
            "M", 2, 3,
            slices=[(0, 0, 100, 0, 3), (0, 0, 200, 0, 2), (0, 1, 300, 2, 1)],
            row_ptr=[0, 1, 3],
        )
        with pytest.raises(ValueError, match="first-slice length"):
            PimTask._read_matrix(StreamPIMDevice(), handle)


class TestCountsAndTrace:
    def _task(self, device, m=4, k=3, n=2):
        task = PimTask(device)
        task.add_matrix("A", shape=(m, k))
        task.add_matrix("B", shape=(k, n))
        task.add_matrix("C", shape=(m, n))
        task.add_operation(TaskOp.MATMUL, "A", "B", "C")
        return task

    def test_matmul_counts(self, device):
        report = self._task(device).run(functional=False)
        assert report.counts.pim_vpcs == 4 * 2
        assert report.counts.move_vpcs == 4 * 2

    def test_trace_counts_match_closed_form(self, device):
        task = self._task(device)
        trace = task.to_trace()
        report = task.run(functional=False)
        assert trace.stats.pim_vpcs == report.counts.pim_vpcs
        assert trace.stats.move_vpcs == report.counts.move_vpcs

    def test_matvec_trace_counts(self, device):
        task = PimTask(device)
        task.add_matrix("A", shape=(5, 4))
        task.add_matrix("x", shape=(1, 4))
        task.add_matrix("y", shape=(1, 5))
        task.add_operation(TaskOp.MATVEC, "A", "x", "y")
        trace = task.to_trace()
        report = task.run(functional=False)
        assert trace.stats.pim_vpcs == report.counts.pim_vpcs == 5
        assert trace.stats.move_vpcs == report.counts.move_vpcs == 10


class TestPolicies:
    def _time(self, small_geometry, small_bus_config, policy, m=8, k=8, n=8):
        device = _device(small_geometry, small_bus_config, policy)
        task = PimTask(device)
        task.add_matrix("A", shape=(m, k))
        task.add_matrix("B", shape=(k, n))
        task.add_matrix("C", shape=(m, n))
        task.add_operation(TaskOp.MATMUL, "A", "B", "C")
        return task.run(functional=False).time_ns

    def test_fig22_ordering(self, small_geometry, small_bus_config):
        """base >= distribute >= unblock execution time (Fig. 22)."""
        base = self._time(small_geometry, small_bus_config, SchedulerPolicy.BASE)
        distribute = self._time(
            small_geometry, small_bus_config, SchedulerPolicy.DISTRIBUTE
        )
        unblock = self._time(
            small_geometry, small_bus_config, SchedulerPolicy.UNBLOCK
        )
        assert base >= distribute >= unblock

    def test_functional_results_policy_invariant(
        self, small_geometry, small_bus_config, rng
    ):
        a = random_matrix(4, 4, rng)
        b = random_matrix(4, 4, rng)
        outputs = []
        for policy in SchedulerPolicy:
            device = _device(small_geometry, small_bus_config, policy)
            task = PimTask(device)
            task.add_matrix("A", a)
            task.add_matrix("B", b)
            task.add_matrix("C", shape=(4, 4))
            task.add_operation(TaskOp.MATMUL, "A", "B", "C")
            outputs.append(task.run().results["C"])
        assert np.array_equal(outputs[0], outputs[1])
        assert np.array_equal(outputs[1], outputs[2])
        assert np.array_equal(outputs[0], a @ b)


class TestRunEvent:
    def test_run_event_matches_analytic(self, device, rng):
        a = random_matrix(4, 3, rng)
        b = random_matrix(3, 4, rng)

        def build(task):
            task.add_matrix("A", a)
            task.add_matrix("B", b)
            task.add_matrix("C", shape=(4, 4))
            task.add_operation(TaskOp.MATMUL, "A", "B", "C")

        analytic_task = PimTask(device)
        build(analytic_task)
        analytic = analytic_task.run()

        event_device = StreamPIMDevice(device.config)
        event_task = PimTask(event_device)
        build(event_task)
        event = event_task.run_event()

        assert np.array_equal(event.results["C"], analytic.results["C"])
        assert event.counts.pim_vpcs == analytic.counts.pim_vpcs
        assert event.time_ns > 0
