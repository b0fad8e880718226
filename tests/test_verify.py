"""Static trace verifier: every SPV rule, positive and negative."""

import io

import pytest

from repro.core.device import StreamPIMConfig, StreamPIMDevice
from repro.core.placement import (
    MatrixHandle,
    PlacementPlan,
    PlacementPolicy,
)
from repro.isa.trace import VPCTrace, write_trace, write_trace_binary
from repro.isa.vpc import VPC
from repro.rm.address import AddressMap, DeviceGeometry
from repro.verify import (
    Severity,
    TraceVerificationError,
    TraceVerifier,
    VerifyReport,
    make_diagnostic,
    verify_trace,
)
from tests.oracles.scalar_verify import verify as scalar_verify


@pytest.fixture
def geometry(small_geometry):
    return small_geometry


@pytest.fixture
def amap(geometry):
    return AddressMap(geometry)


def rules_of(report):
    return set(report.rule_ids())


class TestBounds:
    def test_clean_trace_passes(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        trace = VPCTrace([VPC.mul(base, base + 8, base + 16, 4)])
        report = verify_trace(trace, geometry=geometry)
        assert report.ok(strict=True)
        assert not report.diagnostics

    def test_spv001_out_of_device(self, geometry, amap):
        end = amap.total_words
        trace = VPCTrace([VPC.tran(end + 10, 0, 4)])
        report = verify_trace(trace, geometry=geometry)
        assert "SPV001" in rules_of(report)
        assert not report.ok()

    def test_spv001_range_runs_past_end(self, geometry, amap):
        # Start is in bounds; start + size is not.
        trace = VPCTrace([VPC.tran(amap.total_words - 2, 0, 8)])
        report = verify_trace(trace, geometry=geometry)
        assert "SPV001" in rules_of(report)

    def test_spv002_crosses_subarray(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        cap = amap.words_per_subarray
        trace = VPCTrace([VPC.tran(base + cap - 2, base, 4)])
        report = verify_trace(trace, geometry=geometry)
        assert "SPV002" in rules_of(report)
        # Subarray overflow is a warning: fails only under strict.
        assert report.ok()
        assert not report.ok(strict=True)

    def test_diagnostic_carries_index_and_hint(self, geometry, amap):
        trace = VPCTrace(
            [
                VPC.tran(amap.subarray_base(0, 0), amap.subarray_base(0, 1), 2),
                VPC.tran(amap.total_words, 0, 1),
            ]
        )
        report = verify_trace(trace, geometry=geometry)
        (diag,) = report.by_rule("SPV001")
        assert diag.index == 1
        assert diag.hint
        assert diag.severity is Severity.ERROR
        assert "vpc #1" in diag.render()


class TestOverlap:
    def test_spv003_des_inside_source(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        trace = VPCTrace([VPC.add(base, base + 16, base + 4, 8)])
        report = verify_trace(trace, geometry=geometry)
        assert "SPV003" in rules_of(report)
        assert not report.ok()

    def test_spv003_partial_tran_overlap(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        trace = VPCTrace([VPC.tran(base, base + 2, 4)])
        report = verify_trace(trace, geometry=geometry)
        assert "SPV003" in rules_of(report)

    def test_identity_tran_is_defined(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        trace = VPCTrace([VPC.tran(base, base, 3)])
        report = verify_trace(trace, geometry=geometry)
        assert report.ok(strict=True)

    def test_aligned_inplace_add_is_defined(self, geometry, amap):
        # C = C + B with C read and written at the same aligned range
        # (the MLP bias add) is element-wise defined.
        base = amap.subarray_base(0, 0)
        trace = VPCTrace([VPC.add(base, base + 32, base, 8)])
        report = verify_trace(trace, geometry=geometry)
        assert report.ok(strict=True)


class TestHazards:
    def test_spv004_raw_between_adjacent_computes(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        trace = VPCTrace(
            [
                VPC.mul(base, base + 8, base + 16, 4),
                VPC.add(base + 16, base + 32, base + 48, 4),
            ]
        )
        report = verify_trace(trace, geometry=geometry)
        (diag,) = report.by_rule("SPV004")
        assert "RAW" in diag.message
        assert report.ok() and not report.ok(strict=True)

    def test_spv004_waw_and_war(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        # vpc1 writes [base+8, base+20): over vpc0's src2 read (WAR) and
        # its destination (WAW), without reading anything vpc0 wrote.
        trace = VPCTrace(
            [
                VPC.add(base, base + 8, base + 16, 4),
                VPC.add(base + 64, base + 96, base + 8, 12),
            ]
        )
        report = verify_trace(trace, geometry=geometry)
        (diag,) = report.by_rule("SPV004")
        assert "WAR" in diag.message
        assert "WAW" in diag.message
        assert "RAW" not in diag.message

    def test_no_hazard_outside_window(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        filler = [
            VPC.tran(base + 64 + 8 * i, base + 128 + 8 * i, 4)
            for i in range(4)
        ]
        trace = VPCTrace(
            [VPC.mul(base, base + 8, base + 16, 4)]
            + filler
            + [VPC.add(base + 16, base + 32, base + 48, 4)]
        )
        report = verify_trace(trace, geometry=geometry)
        assert not report.by_rule("SPV004")

    def test_tran_never_hazards(self, geometry, amap):
        # Move-VPCs go through the blocking read/write path, not the
        # processor pipeline: MUL -> TRAN(result) at distance 1 is the
        # generator's collection idiom and must stay clean.
        base = amap.subarray_base(0, 0)
        trace = VPCTrace(
            [
                VPC.mul(base, base + 8, base + 16, 4),
                VPC.tran(base + 16, base + 32, 1),
            ]
        )
        report = verify_trace(trace, geometry=geometry)
        assert report.ok(strict=True)

    def test_window_is_configurable(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        trace = VPCTrace(
            [
                VPC.mul(base, base + 8, base + 16, 4),
                VPC.tran(base + 64, base + 96, 4),
                VPC.add(base + 16, base + 32, base + 48, 4),
            ]
        )
        wide = verify_trace(trace, geometry=geometry, hazard_window=8)
        narrow = verify_trace(trace, geometry=geometry, hazard_window=2)
        assert wide.by_rule("SPV004")
        assert not narrow.by_rule("SPV004")


def _plan_with(handles):
    plan = PlacementPlan(policy=PlacementPolicy.DISTRIBUTE)
    for handle in handles:
        plan.matrices[handle.name] = handle
    return plan


def _handle(name, slices, result=False):
    """One stored row per ``(bank, subarray, address, offset, length)``
    slice."""
    return MatrixHandle(
        name=name,
        rows=len(slices),
        cols=slices[0][4],
        slices=slices,
        result_set=result,
    )


class TestPlacementRules:
    def test_spv005_tran_overwrites_operand(self, geometry, amap):
        base = amap.subarray_base(0, 1)
        plan = _plan_with(
            [
                _handle(
                    "A",
                    [(0, 1, base, 0, 16)],
                    result=False,
                )
            ]
        )
        trace = VPCTrace([VPC.tran(amap.subarray_base(0, 0), base + 4, 4)])
        report = verify_trace(trace, geometry=geometry, plan=plan)
        (diag,) = report.by_rule("SPV005")
        assert "'A'" in diag.message
        assert not report.ok()

    def test_tran_into_result_rows_is_fine(self, geometry, amap):
        base = amap.subarray_base(0, 1)
        plan = _plan_with(
            [_handle("C", [(0, 1, base, 0, 16)], result=True)]
        )
        trace = VPCTrace([VPC.tran(amap.subarray_base(0, 0), base + 4, 4)])
        report = verify_trace(trace, geometry=geometry, plan=plan)
        assert not report.by_rule("SPV005")

    def test_spv006_double_booked_slice(self, geometry, amap):
        base = amap.subarray_base(0, 2)
        plan = _plan_with(
            [
                _handle("A", [(0, 2, base, 0, 16)]),
                _handle("B", [(0, 2, base + 8, 0, 16)]),
            ]
        )
        report = verify_trace(VPCTrace(), geometry=geometry, plan=plan)
        (diag,) = report.by_rule("SPV006")
        assert "'A'" in diag.message and "'B'" in diag.message
        assert not report.ok()

    def test_disjoint_slices_pass(self, geometry, amap):
        base = amap.subarray_base(0, 2)
        plan = _plan_with(
            [
                _handle("A", [(0, 2, base, 0, 16)]),
                _handle("B", [(0, 2, base + 16, 0, 16)]),
            ]
        )
        report = verify_trace(VPCTrace(), geometry=geometry, plan=plan)
        assert report.ok(strict=True)


class TestSegmentLength:
    """SPV007: commanded shift bounded by one RM-bus segment."""

    def _small_bus(self):
        from repro.core.rmbus import RMBusConfig

        # words_per_segment = 16 * (8 // 8) = 16
        return RMBusConfig(
            segment_domains=16,
            length_domains=64,
            width_wires=8,
            word_bits=8,
        )

    def test_oversized_shift_flagged(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        trace = VPCTrace([VPC.tran(base, base + 64, 17)])
        report = verify_trace(
            trace, geometry=geometry, bus=self._small_bus()
        )
        (diag,) = report.by_rule("SPV007")
        assert diag.index == 0
        assert "17 words" in diag.message
        assert "16 words" in diag.message
        assert not report.ok()

    def test_segment_sized_shift_passes(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        trace = VPCTrace([VPC.tran(base, base + 64, 16)])
        report = verify_trace(
            trace, geometry=geometry, bus=self._small_bus()
        )
        assert not report.by_rule("SPV007")

    def test_default_bus_never_flags_shipped_workloads(self):
        from repro.workloads import polybench_workload

        task = polybench_workload("gemm", scale=0.01).build_task()
        verifier = TraceVerifier(
            geometry=task.device.config.geometry, rules=("SPV007",)
        )
        report = verifier.verify(task.to_trace())
        assert report.ok(strict=True)

    def test_columnar_fast_path_matches_scalar_walk(self, geometry, amap):
        from repro.isa.columnar import ColumnarTrace

        base = amap.subarray_base(0, 0)
        end = amap.total_words
        trace = VPCTrace(
            [
                VPC.tran(base, base + 64, 8),
                VPC.tran(base, base + 64, 17),  # SPV007 only
                VPC.tran(end - 4, base, 17),  # SPV001 + SPV007
            ]
        )
        verifier = TraceVerifier(
            geometry=geometry,
            rules=("SPV001", "SPV007"),
            bus=self._small_bus(),
        )
        scalar = scalar_verify(verifier, trace)
        columnar = verifier.verify(ColumnarTrace.from_trace(trace))
        assert scalar.diagnostics == columnar.diagnostics
        assert scalar.suppressed == columnar.suppressed
        assert [d.rule_id for d in scalar.diagnostics] == [
            "SPV007",
            "SPV001",
            "SPV007",
        ]

    def test_columnar_fast_path_respects_cap(self, geometry, amap):
        from repro.isa.columnar import ColumnarTrace

        base = amap.subarray_base(0, 0)
        trace = VPCTrace(
            [VPC.tran(base, base + 64, 17) for _ in range(8)]
        )
        verifier = TraceVerifier(
            geometry=geometry,
            rules=("SPV007",),
            bus=self._small_bus(),
            max_diagnostics=3,
        )
        report = verifier.verify(ColumnarTrace.from_trace(trace))
        assert len(report.diagnostics) == 3
        assert report.suppressed == 5


class TestVerifierMechanics:
    def test_rule_subset(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        trace = VPCTrace([VPC.add(base, base + 16, base + 4, 8)])
        verifier = TraceVerifier(geometry=geometry, rules=("SPV001",))
        assert verifier.verify(trace).ok(strict=True)

    def test_diagnostic_cap(self, geometry, amap):
        bad = amap.total_words
        trace = VPCTrace([VPC.tran(bad, 0, 1) for _ in range(40)])
        verifier = TraceVerifier(geometry=geometry, max_diagnostics=10)
        report = verifier.verify(trace)
        assert len(report.diagnostics) == 10
        assert report.suppressed == 30
        assert "suppressed" in report.render()

    def test_suppressed_warning_fails_only_strict(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        trace = VPCTrace([VPC.add(base, base + 16, base + 32, 4)] * 3)
        verifier = TraceVerifier(geometry=geometry, max_diagnostics=1)
        report = verifier.verify(trace)
        assert report.suppressed_by_rule == {"SPV004": 2}
        report.diagnostics.clear()
        assert report.ok()
        assert not report.ok(strict=True)

    def test_keep_rules_and_merge_carry_tallies(self):
        report = VerifyReport(max_diagnostics=1)
        for rule_id in ("SPV004", "SPV004", "SPV001"):
            report.emit(make_diagnostic(rule_id, "vpc #0", "finding"))
        report.merge(VerifyReport(suppressed_by_rule={"SPV004": 2}))
        assert report.suppressed_by_rule == {"SPV004": 3, "SPV001": 1}
        assert "(+4 suppressed: SPV001 1, SPV004 3)" in report.render()
        report.keep_rules(lambda rule_id: rule_id != "SPV001")
        assert report.suppressed_by_rule == {"SPV004": 3}
        assert report.ok()

    def test_bad_window_rejected(self, geometry):
        with pytest.raises(ValueError):
            TraceVerifier(geometry=geometry, hazard_window=0)

    def test_report_render_mentions_verdict(self, geometry, amap):
        report = verify_trace(VPCTrace(), geometry=geometry)
        assert "PASS" in report.render()


class TestDeviceAutoVerify:
    def test_execute_trace_rejects_out_of_bounds(self, small_device):
        bad = small_device.address_map.total_words
        trace = VPCTrace([VPC.tran(bad, 0, 4)])
        with pytest.raises(TraceVerificationError) as excinfo:
            small_device.execute_trace(trace)
        assert "SPV001" in str(excinfo.value)
        assert excinfo.value.report.by_rule("SPV001")

    def test_verify_flag_skips_the_gate(self, small_device):
        # With the gate off the bad address reaches the address map raw:
        # an IndexError from deep inside instead of a typed report.
        bad = small_device.address_map.total_words
        trace = VPCTrace([VPC.tran(bad, 0, 4)])
        with pytest.raises(IndexError):
            small_device.execute_trace(trace, verify=False)

    def test_semantic_warnings_do_not_block_execution(self, small_device):
        # Only memory-safety (bounds) gates execution; Table II overlap
        # is check-tool territory.
        base = small_device.address_map.subarray_base(0, 0)
        trace = VPCTrace([VPC.add(base, base + 16, base + 4, 8)])
        stats = small_device.execute_trace(trace)
        assert stats.time_ns > 0


class TestWorkloadGeneratorsPassStrict:
    @pytest.mark.parametrize(
        "name", ["gemm", "atax", "bicg", "mvt", "gesu", "2mm"]
    )
    def test_polybench_strict_clean(self, name):
        from repro.workloads import polybench_workload

        spec = polybench_workload(name, scale=0.01)
        task = spec.build_task()
        trace = task.to_trace()
        verifier = TraceVerifier(
            geometry=task.device.config.geometry,
            plan=task.placement_plan,
        )
        report = verifier.verify(trace, subject=spec.name)
        assert report.ok(strict=True), report.render(strict=True)

    def test_dnn_generators_strict_clean(self):
        from repro.workloads.dnn import (
            BERTShape,
            MLPShape,
            bert_spec,
            mlp_spec,
        )

        for spec in (
            mlp_spec(MLPShape(batch=4, layers=(16, 12, 8))),
            bert_spec(
                BERTShape(seq_len=4, hidden=8, ffn=16, heads=2, layers=1)
            ),
        ):
            task = spec.build_task()
            trace = task.to_trace()
            verifier = TraceVerifier(
                geometry=task.device.config.geometry,
                plan=task.placement_plan,
            )
            report = verifier.verify(trace, subject=spec.name)
            assert report.ok(strict=True), report.render(strict=True)


class TestCheckCli:
    def test_check_workload_passes(self, capsys):
        from repro.cli import main

        assert main(["check", "gemm", "--scale", "0.01", "--strict"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_flags_seeded_corrupt_trace(self, tmp_path, capsys):
        from repro.cli import main

        amap = AddressMap(DeviceGeometry())
        base = amap.subarray_base(0, 0)
        trace = VPCTrace(
            [
                # out-of-bounds address
                VPC.tran(amap.total_words + 5, base, 4),
                # overlapping src/des
                VPC.add(base, base + 16, base + 4, 8),
            ]
        )
        path = tmp_path / "corrupt.trace"
        write_trace(trace, path)
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "SPV001" in out
        assert "SPV003" in out
        assert "FAIL" in out

    @staticmethod
    def _flood_trace(path, pairs):
        """``pairs`` dependent ADD pairs, then one out-of-bounds TRAN."""
        amap = AddressMap(DeviceGeometry())
        base = amap.subarray_base(0, 0)
        vpcs = []
        for _ in range(pairs):
            vpcs.append(VPC.add(base, base + 8, base + 16, 4))
            vpcs.append(VPC.add(base + 16, base + 24, base + 32, 4))
        vpcs.append(VPC.tran(amap.total_words + 5, base, 4))
        write_trace(VPCTrace(vpcs), path)
        return path

    @pytest.mark.parametrize("pairs", [10, 300])
    def test_error_past_the_cap_fails_check(self, tmp_path, capsys, pairs):
        from repro.cli import main

        path = self._flood_trace(tmp_path / "flood.trace", pairs)
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "PASS" not in out
        # With 300 pairs the SPV001 error falls past the 500-finding cap.
        assert ("suppressed: SPV001 1" in out) == (pairs == 300)

    def test_ignored_rule_cannot_crowd_out_kept_rules(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = self._flood_trace(tmp_path / "flood.trace", 300)
        assert main(["check", str(path), "--ignore", "SPV004"]) == 1
        out = capsys.readouterr().out
        assert "SPV001 error" in out
        assert "SPV004" not in out
        assert "suppressed" not in out

    def test_check_reads_binary_traces(self, tmp_path, capsys):
        from repro.cli import main

        amap = AddressMap(DeviceGeometry())
        base = amap.subarray_base(0, 0)
        trace = VPCTrace([VPC.mul(base, base + 8, base + 16, 4)])
        path = tmp_path / "ok.bin"
        write_trace_binary(trace, path)
        assert main(["check", str(path), "--strict"]) == 0

    def test_check_requires_a_target(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["check"])

    def test_lint_cli_clean_on_repo(self, capsys):
        from repro.cli import main

        assert main(["lint"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_replay_no_verify_flag(self, tmp_path, capsys):
        from repro.cli import main

        amap = AddressMap(DeviceGeometry())
        trace = VPCTrace([VPC.tran(amap.total_words + 5, 0, 1)])
        path = tmp_path / "bad.trace"
        write_trace(trace, path)
        # Gated replay fails with the typed report; --no-verify bypasses
        # the gate, so the raw IndexError from the address map surfaces.
        with pytest.raises(TraceVerificationError):
            main(["replay", str(path)])
        with pytest.raises(IndexError):
            main(["replay", str(path), "--no-verify"])
