"""Tests for the analytic baseline platforms."""

import pytest

from repro.baselines import (
    CoruscantPlatform,
    CpuDRAM,
    CpuRM,
    Elp2imPlatform,
    FelixPlatform,
    GpuPlatform,
    StreamPIMPlatform,
    StpimEPlatform,
    default_platforms,
)
from repro.baselines.coruscant import CoruscantConfig
from repro.baselines.cpu import CpuModelConfig
from repro.baselines.elp2im import Elp2imConfig
from repro.baselines.felix import FelixConfig
from repro.baselines.gpu import GpuModelConfig
from repro.baselines.stpim import spec_to_task
from repro.baselines.stpim_e import StpimEConfig
from repro.workloads import POLYBENCH, SMALL_KERNELS, polybench_workload
from repro.workloads.spec import MatrixOp, MatrixOpKind, WorkloadSpec


@pytest.fixture(scope="module")
def tiny_gemm():
    return polybench_workload("gemm", scale=0.02)


@pytest.fixture(scope="module")
def tiny_atax():
    return polybench_workload("atax", scale=0.02)


class TestRegistry:
    def test_default_platform_set(self):
        platforms = default_platforms()
        assert set(platforms) == {
            "CPU-RM",
            "CPU-DRAM",
            "ELP2IM",
            "FELIX",
            "CORUSCANT",
            "StPIM-e",
            "StPIM",
        }

    def test_labels_match_instances(self):
        for name, platform in default_platforms().items():
            assert platform.name == name


class TestCpu:
    def test_dram_faster_than_rm(self, tiny_gemm):
        assert CpuDRAM().run(tiny_gemm).time_ns < CpuRM().run(tiny_gemm).time_ns

    def test_memory_share_small_kernels_near_paper(self):
        """Fig. 3a: ~47.6% of CPU-RM time is memory on small kernels."""
        cpu = CpuRM()
        shares = []
        for name in SMALL_KERNELS:
            stats = cpu.run(POLYBENCH[name])
            fractions = stats.time_breakdown.fractions()
            shares.append(fractions["read"] + fractions["write"])
        average = sum(shares) / len(shares)
        assert abs(average - 0.476) < 0.05

    def test_time_is_compute_plus_memory(self, tiny_gemm):
        cpu = CpuRM()
        stats = cpu.run(tiny_gemm)
        assert stats.time_ns == pytest.approx(
            cpu.compute_ns(tiny_gemm) + cpu.memory_ns(tiny_gemm)
        )

    def test_matmul_traffic_uses_inner_loop_model(self):
        cpu = CpuRM()
        mm = WorkloadSpec("mm", [MatrixOp(MatrixOpKind.MATMUL, (10, 10, 10))])
        mv = WorkloadSpec("mv", [MatrixOp(MatrixOpKind.MATVEC, (10, 10))])
        assert cpu.traffic_bytes(mm) == pytest.approx(
            1000 * cpu.config.mm_bytes_per_iter
        )
        assert cpu.traffic_bytes(mv) == pytest.approx(
            (100 + 10 + 10) * cpu.config.element_bytes
        )

    def test_energy_positive_both_categories(self, tiny_gemm):
        stats = CpuDRAM().run(tiny_gemm)
        assert stats.energy.compute_pj > 0
        assert stats.energy.transfer_pj > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CpuModelConfig(effective_gflops=0)


class TestGpu:
    def test_small_kernel_transfer_dominated(self):
        """Fig. 3b: ~90% of GPU time is data transfer on small kernels."""
        gpu = GpuPlatform()
        fractions = [
            gpu.transfer_fraction(POLYBENCH[name]) for name in SMALL_KERNELS
        ]
        average = sum(fractions) / len(fractions)
        assert average > 0.75

    def test_large_kernels_less_transfer_bound(self):
        gpu = GpuPlatform()
        assert gpu.transfer_fraction(POLYBENCH["gemm"]) < gpu.transfer_fraction(
            POLYBENCH["atax"]
        )

    def test_breakdown_sums_to_total(self, tiny_atax):
        stats = GpuPlatform().run(tiny_atax)
        assert stats.time_breakdown.total_ns == pytest.approx(stats.time_ns)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GpuModelConfig(pcie_gbps=0)
        with pytest.raises(ValueError):
            GpuModelConfig(launch_overhead_ns=-1)


class TestCoruscant:
    def test_fig4a_mul_split(self):
        """Fig. 4a: write ~51%, compute ~30%, read+shift ~19%."""
        fractions = CoruscantPlatform().op_time_ns("mul").fractions()
        assert abs(fractions["write"] - 0.51) < 0.06
        assert abs(fractions["process"] - 0.30) < 0.06

    def test_fig4b_energy_write_dominated(self):
        fractions = CoruscantPlatform().op_energy_pj("mul").fractions()
        assert fractions["write"] > 0.4
        assert fractions["compute"] < 0.35

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CoruscantPlatform().op_time_ns("div")
        with pytest.raises(ValueError):
            CoruscantPlatform().op_energy_pj("div")

    def test_time_scales_with_ops(self, tiny_gemm):
        small = CoruscantPlatform().run(tiny_gemm)
        big = CoruscantPlatform().run(polybench_workload("gemm", scale=0.04))
        assert big.time_ns > 4 * small.time_ns

    def test_parallel_units_speed_up(self, tiny_gemm):
        few = CoruscantPlatform(CoruscantConfig(parallel_units=64))
        many = CoruscantPlatform(CoruscantConfig(parallel_units=512))
        assert many.run(tiny_gemm).time_ns < few.run(tiny_gemm).time_ns

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CoruscantConfig(parallel_units=0)


class TestBitSerialPlatforms:
    def test_elp2im_mul_steps_dominate_add(self):
        cfg = Elp2imConfig()
        assert cfg.steps_per_mul > 4 * cfg.steps_per_add

    def test_felix_faster_than_elp2im_per_op(self, tiny_gemm):
        """FELIX removes the precharge penalty (section V-B)."""
        felix = FelixPlatform().run(tiny_gemm)
        elp2im = Elp2imPlatform().run(tiny_gemm)
        assert felix.time_ns < elp2im.time_ns

    def test_energy_amortises_over_full_row(self):
        cfg = Elp2imConfig()
        assert cfg.energy_row_width_words > cfg.row_width_words

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Elp2imConfig(word_bits=0)
        with pytest.raises(ValueError):
            FelixConfig(step_ns=0)


class TestStreamPIMPlatforms:
    def test_spec_to_task_covers_all_op_kinds(self, small_device):
        ops = [
            MatrixOp(MatrixOpKind.MATMUL, (3, 4, 2)),
            MatrixOp(MatrixOpKind.MATVEC, (3, 4)),
            MatrixOp(MatrixOpKind.MATVEC_T, (3, 4)),
            MatrixOp(MatrixOpKind.MAT_ADD, (3, 4)),
            MatrixOp(MatrixOpKind.MAT_SCALE, (3, 4)),
            MatrixOp(MatrixOpKind.VEC_ADD, (4,)),
            MatrixOp(MatrixOpKind.VEC_SCALE, (4,)),
            MatrixOp(MatrixOpKind.DOT, (4,)),
            MatrixOp(MatrixOpKind.MATVEC, (3, 4), accumulate=True),
        ]
        spec = WorkloadSpec("all-ops", ops)
        task = spec_to_task(spec, small_device)
        report = task.run(functional=False)
        expected_pim, expected_move = spec.vpc_counts()
        assert report.counts.pim_vpcs == expected_pim
        assert report.counts.move_vpcs == expected_move

    def test_stpim_faster_than_stpim_e(self, tiny_gemm):
        stpim = StreamPIMPlatform().run(tiny_gemm)
        stpim_e = StpimEPlatform().run(tiny_gemm)
        assert stpim.time_ns < stpim_e.time_ns

    def test_stpim_e_has_conversion_energy(self, tiny_gemm):
        stats = StpimEPlatform().run(tiny_gemm)
        assert stats.energy.read_pj > 0
        assert stats.energy.write_pj > 0

    def test_stpim_transfer_is_shift_class(self, tiny_gemm):
        stats = StreamPIMPlatform().run(tiny_gemm)
        # RM-bus movement never converts to electronic signals.
        assert stats.energy.shift_pj > 0

    def test_stpim_e_config_validation(self):
        with pytest.raises(ValueError):
            StpimEConfig(conversions_per_word=0)

    def test_platform_label_on_stats(self, tiny_gemm):
        assert StreamPIMPlatform().run(tiny_gemm).platform == "StPIM"
        assert StpimEPlatform().run(tiny_gemm).platform == "StPIM-e"
