"""Tests for the beyond-paper kernels and the sweep utility."""

import numpy as np
import pytest

from repro.analysis.sweep import sweep
from repro.baselines import CpuRM, StreamPIMPlatform
from repro.core.device import StreamPIMConfig, StreamPIMDevice
from repro.core.processor import RMProcessorConfig
from repro.workloads import EXTRA_WORKLOADS, extra_workload, polybench_workload
from repro.workloads.spec import MatrixOpKind


class TestExtraWorkloads:
    def test_catalogue(self):
        assert set(EXTRA_WORKLOADS) == {
            "trmm",
            "symm",
            "gramschmidt",
            "power_iter",
        }

    def test_no_paper_counts(self):
        """Beyond-paper kernels carry no Table IV reference."""
        for spec in EXTRA_WORKLOADS.values():
            assert spec.paper_pim_vpcs is None
            assert spec.paper_move_vpcs is None

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            extra_workload("cholesky")

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            extra_workload("trmm", scale=0)

    def test_all_runnable_on_stpim(self):
        platform = StreamPIMPlatform()
        for name in EXTRA_WORKLOADS:
            spec = extra_workload(name, scale=0.02)
            stats = platform.run(spec)
            assert stats.time_ns > 0, name
            assert stats.energy.total_pj > 0, name

    def test_all_runnable_on_cpu(self):
        cpu = CpuRM()
        for name in EXTRA_WORKLOADS:
            stats = cpu.run(extra_workload(name, scale=0.02))
            assert stats.time_ns > 0, name

    def test_power_iteration_functional(
        self, small_geometry, small_bus_config
    ):
        """The chained matvec/scale structure computes correctly."""
        spec = extra_workload("power_iter", scale=0.005)
        device = StreamPIMDevice(
            StreamPIMConfig(geometry=small_geometry, bus=small_bus_config)
        )
        task = spec.build_task(device, seed=4)
        report = task.run()
        a = task._matrices["A"]
        x = task._matrices["x0"][0]
        steps = sum(
            1 for op in task._operations if op.op.value == "matvec"
        )
        expected = x
        for _ in range(steps):
            expected = a @ expected  # inv_norm scalar is 1
        assert np.array_equal(report.results[f"x{steps}"][0], expected)

    def test_gramschmidt_is_matvec_shaped(self):
        spec = EXTRA_WORKLOADS["gramschmidt"]
        kinds = {op.kind for op in spec.ops}
        assert MatrixOpKind.MATMUL not in kinds
        assert MatrixOpKind.MATVEC in kinds

    def test_trmm_modelled_at_full_cost(self):
        spec = EXTRA_WORKLOADS["trmm"]
        matmul = next(
            op for op in spec.ops if op.kind is MatrixOpKind.MATMUL
        )
        m, k, n = matmul.dims
        assert m == k  # the triangular operand is square


class TestSweep:
    @pytest.fixture(scope="class")
    def workloads(self):
        return [
            polybench_workload("atax", scale=0.05),
            polybench_workload("bicg", scale=0.05),
        ]

    def test_sweep_runs_every_point(self, workloads):
        result = sweep(
            "duplicators",
            [1, 2, 4],
            lambda d: StreamPIMConfig(
                processor=RMProcessorConfig(duplicators=d)
            ),
            workloads,
        )
        assert result.points == [1, 2, 4]
        for point in result.points:
            assert set(result.runs[point]) == {"atax", "bicg"}

    def test_average_speedup_normalised(self, workloads):
        result = sweep(
            "duplicators",
            [1, 2],
            lambda d: StreamPIMConfig(
                processor=RMProcessorConfig(duplicators=d)
            ),
            workloads,
        )
        assert result.average_speedup(1, reference=1) == pytest.approx(1.0)
        assert result.average_speedup(2, reference=1) > 1.0

    def test_energies_exposed(self, workloads):
        result = sweep(
            "duplicators",
            [2],
            lambda d: StreamPIMConfig(
                processor=RMProcessorConfig(duplicators=d)
            ),
            workloads,
        )
        energies = result.energies(2)
        assert all(value > 0 for value in energies.values())

    def test_validation(self, workloads):
        with pytest.raises(ValueError):
            sweep("p", [], lambda _: StreamPIMConfig(), workloads)
        with pytest.raises(ValueError):
            sweep("p", [1], lambda _: StreamPIMConfig(), [])
