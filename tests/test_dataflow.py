"""Whole-trace dataflow analysis: SPV008-SPV012, index queries, CLI."""

import json

import pytest

from repro.core.placement import (
    MatrixHandle,
    PlacementPlan,
    PlacementPolicy,
)
from repro.isa.columnar import ColumnarTrace
from repro.isa.trace import VPCTrace, write_trace
from repro.isa.vpc import VPC
from repro.rm.address import AddressMap, DeviceGeometry
from repro.verify import (
    DataflowAnalyzer,
    DataflowIndex,
    Severity,
    TraceVerifier,
)


@pytest.fixture
def geometry(small_geometry):
    return small_geometry


@pytest.fixture
def amap(geometry):
    return AddressMap(geometry)


def cols_of(*vpcs):
    return ColumnarTrace.from_trace(VPCTrace(list(vpcs)))


def rules_of(report):
    return set(report.rule_ids())


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


def _plan_at(base, length=16):
    """One placed matrix covering ``[base, base + length)``."""
    return _plan_with([_handle("A", [(0, 1, base, 0, length)])])


class TestIndexQueries:
    def test_any_write_between_is_exclusive(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        a, b = base, base + 16
        cols = cols_of(VPC.tran(a, b, 4), VPC.tran(a, b, 4))
        index = DataflowIndex(cols)
        assert index.any_write_between(b, b + 4, -1, 1)
        assert not index.any_write_between(b, b + 4, 0, 1)
        assert not index.any_write_between(a, a + 4, -1, 2)

    def test_empty_trace(self):
        index = DataflowIndex(cols_of())
        assert len(index.bounds) == 0
        report = DataflowAnalyzer().analyze(cols_of())
        assert report.ok(strict=True)
        assert not report.diagnostics


class TestUninitializedReads:
    def test_spv008_read_of_unwritten_words(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        plan = _plan_at(base)
        analyzer = DataflowAnalyzer(
            geometry=geometry, plan=plan, rules=("SPV008",)
        )
        # Reads [base+32, base+36): neither placed nor written.
        report = analyzer.analyze(cols_of(VPC.tran(base + 32, base, 4)))
        (diag,) = report.by_rule("SPV008")
        assert diag.index == 0
        assert diag.severity is Severity.ERROR
        assert "no prior writer" in diag.message
        assert not report.ok()

    def test_placed_and_written_reads_are_clean(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        plan = _plan_at(base)
        analyzer = DataflowAnalyzer(
            geometry=geometry, plan=plan, rules=("SPV008",)
        )
        report = analyzer.analyze(
            cols_of(
                VPC.tran(base, base + 32, 4),  # read placed words
                VPC.tran(base + 32, base + 48, 4),  # read written words
            )
        )
        assert report.ok(strict=True)
        assert not report.diagnostics

    def test_scalar_slots_count_as_initialised(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        plan = _plan_at(base)
        trace = cols_of(VPC.tran(base + 100, base + 32, 1))
        with_slot = DataflowAnalyzer(
            geometry=geometry,
            plan=plan,
            scalar_slots={base + 100: "alpha"},
            rules=("SPV008",),
        ).analyze(trace)
        without = DataflowAnalyzer(
            geometry=geometry, plan=plan, rules=("SPV008",)
        ).analyze(trace)
        assert not with_slot.by_rule("SPV008")
        assert without.by_rule("SPV008")

    def test_skipped_without_plan(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        report = DataflowAnalyzer(
            geometry=geometry, rules=("SPV008",)
        ).analyze(cols_of(VPC.tran(base + 32, base, 4)))
        assert not report.diagnostics


class TestDeadStores:
    def test_spv009_overwritten_before_read(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        plan = _plan_at(base)
        analyzer = DataflowAnalyzer(
            geometry=geometry, plan=plan, rules=("SPV009",)
        )
        report = analyzer.analyze(
            cols_of(
                VPC.tran(base, base + 32, 4),
                VPC.tran(base + 4, base + 32, 4),  # overwrites vpc#0
                VPC.tran(base + 32, base + 48, 4),  # reads vpc#1's store
            )
        )
        (diag,) = report.by_rule("SPV009")
        assert diag.index == 0
        assert "overwritten before any read" in diag.message
        assert report.ok() and not report.ok(strict=True)

    def test_read_store_is_live(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        plan = _plan_at(base)
        analyzer = DataflowAnalyzer(
            geometry=geometry, plan=plan, rules=("SPV009",)
        )
        report = analyzer.analyze(
            cols_of(
                VPC.tran(base, base + 32, 4),
                VPC.tran(base + 32, base + 4, 4),  # consumes the store
            )
        )
        assert not report.diagnostics

    def test_overwrite_detected_even_without_plan(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        analyzer = DataflowAnalyzer(geometry=geometry, rules=("SPV009",))
        report = analyzer.analyze(
            cols_of(
                VPC.tran(base, base + 32, 4),
                VPC.tran(base + 4, base + 32, 4),
                VPC.tran(base + 32, base + 48, 4),
            )
        )
        assert report.by_rule("SPV009")

    def test_trailing_store_needs_liveout_knowledge(self, geometry, amap):
        # Without a plan, end-of-trace liveness is unknown: a store the
        # trace never reads again must not be called dead.
        base = amap.subarray_base(0, 0)
        report = DataflowAnalyzer(
            geometry=geometry, rules=("SPV009", "SPV011")
        ).analyze(cols_of(VPC.tran(base, base + 32, 4)))
        assert not report.diagnostics


class TestScratchLeaks:
    def test_spv011_unconsumed_scratch_write(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        plan = _plan_at(base)
        analyzer = DataflowAnalyzer(
            geometry=geometry, plan=plan, rules=("SPV011",)
        )
        report = analyzer.analyze(cols_of(VPC.tran(base, base + 64, 4)))
        (diag,) = report.by_rule("SPV011")
        assert diag.index == 0
        assert diag.severity is Severity.WARNING
        assert "scratch" in diag.message

    def test_consumed_scratch_is_clean(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        plan = _plan_at(base)
        analyzer = DataflowAnalyzer(geometry=geometry, plan=plan)
        report = analyzer.analyze(
            cols_of(
                VPC.tran(base, base + 64, 4),
                VPC.tran(base + 64, base + 4, 4),  # back into placed rows
            )
        )
        assert report.ok(strict=True)
        assert not report.diagnostics

    def test_skipped_without_plan(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        report = DataflowAnalyzer(
            geometry=geometry, rules=("SPV011",)
        ).analyze(cols_of(VPC.tran(base, base + 64, 4)))
        assert not report.diagnostics


class TestScheduleRaces:
    def _straddling_tran(self, amap):
        """A TRAN whose write spills past its destination subarray."""
        wps = amap.words_per_subarray
        sub0 = amap.subarray_base(0, 0)
        sub1 = amap.subarray_base(0, 1)
        # Write [sub1 + wps - 2, sub1 + wps + 2): the last two words
        # land in subarray 2, which the TRAN never acquires.
        return VPC.tran(sub0, sub1 + wps - 2, 4), sub1 + wps

    def test_spv010_unordered_conflict(self, geometry, amap):
        tran, spill = self._straddling_tran(amap)
        # The ADD lives entirely in subarray 2: acquired sets {0, 1}
        # vs {2} are disjoint, so no busy-until edge orders the pair.
        add = VPC.add(spill, spill + 16, spill + 32, 4)
        report = DataflowAnalyzer(
            geometry=geometry, rules=("SPV010",)
        ).analyze(cols_of(tran, add))
        (diag,) = report.by_rule("SPV010")
        assert diag.index == 0
        assert diag.severity is Severity.ERROR
        assert "no ordering edge" in diag.message
        assert not report.ok()

    def test_no_partner_no_race(self, geometry, amap):
        tran, spill = self._straddling_tran(amap)
        # Nothing else touches the spilled words: unprotected access,
        # but no conflicting partner.
        report = DataflowAnalyzer(
            geometry=geometry, rules=("SPV010",)
        ).analyze(cols_of(tran))
        assert not report.diagnostics

    def test_bus_serialises_cross_subarray_trans(self, geometry, amap):
        tran, spill = self._straddling_tran(amap)
        # A second cross-subarray TRAN overlaps the spilled words, but
        # both hold the global RM bus, which orders them.
        other = VPC.tran(amap.subarray_base(0, 3), spill, 2)
        report = DataflowAnalyzer(
            geometry=geometry, rules=("SPV010",)
        ).analyze(cols_of(tran, other))
        assert not report.diagnostics

    def test_same_subarray_accesses_are_ordered(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        report = DataflowAnalyzer(
            geometry=geometry, rules=("SPV010",)
        ).analyze(
            cols_of(
                VPC.add(base, base + 16, base + 32, 4),
                VPC.add(base + 32, base + 48, base + 64, 4),
            )
        )
        assert not report.diagnostics


class TestRedundantCopies:
    def test_spv012_repeat_tran(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        copy = VPC.tran(base, base + 32, 4)
        report = DataflowAnalyzer(
            geometry=geometry, rules=("SPV012",)
        ).analyze(cols_of(copy, copy))
        (diag,) = report.by_rule("SPV012")
        assert diag.index == 1
        assert diag.severity is Severity.INFO
        assert "vpc #0" in diag.message
        # INFO findings never fail, even under strict.
        assert report.ok(strict=True)

    def test_intervening_write_makes_copy_useful(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        copy = VPC.tran(base, base + 32, 4)
        clobber = VPC.tran(base + 64, base + 32, 4)
        report = DataflowAnalyzer(
            geometry=geometry, rules=("SPV012",)
        ).analyze(cols_of(copy, clobber, copy))
        assert not report.diagnostics

    def test_identity_trans_are_exempt(self, geometry, amap):
        # Identity TRANs deliver pre-seeded scalars to the processor;
        # repeating one is the calling convention, not a copy.
        base = amap.subarray_base(0, 0)
        seed = VPC.tran(base, base, 1)
        report = DataflowAnalyzer(
            geometry=geometry, rules=("SPV012",)
        ).analyze(cols_of(seed, seed))
        assert not report.diagnostics


class TestAnalyzerMechanics:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            DataflowAnalyzer(rules=("SPV08",))
        assert "SPV08" in str(excinfo.value)

    def test_non_dataflow_rule_rejected(self):
        # SPV001 is a TraceVerifier rule, not a deep rule.
        with pytest.raises(ValueError):
            DataflowAnalyzer(rules=("SPV001",))

    def test_verifier_rejects_unknown_rules(self):
        with pytest.raises(ValueError) as excinfo:
            TraceVerifier(rules=("SPV08", "SPV001"))
        assert "SPV08" in str(excinfo.value)
        assert "SPV001" not in str(excinfo.value).split(";")[0]

    def test_diagnostic_cap(self, geometry, amap):
        base = amap.subarray_base(0, 0)
        plan = _plan_at(base)
        vpcs = [
            VPC.tran(base, base + 64 + 8 * i, 4) for i in range(8)
        ]
        report = DataflowAnalyzer(
            geometry=geometry,
            plan=plan,
            rules=("SPV011",),
            max_diagnostics=3,
        ).analyze(cols_of(*vpcs))
        assert len(report.diagnostics) == 3
        assert report.suppressed == 5

    def test_metrics_emitted(self, geometry, amap):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        base = amap.subarray_base(0, 0)
        plan = _plan_at(base)
        analyzer = DataflowAnalyzer(
            geometry=geometry, plan=plan, registry=registry
        )
        trace = cols_of(VPC.tran(base, base + 64, 4))
        report = analyzer.analyze(trace)
        snapshot = registry.snapshot()
        assert snapshot["dataflow.analyses"] == 1
        assert snapshot["dataflow.commands"] == 1
        assert snapshot["dataflow.access_events"] > 0
        assert snapshot["dataflow.segments"] > 0
        assert snapshot["dataflow.findings.SPV011"] == len(
            report.by_rule("SPV011")
        )
        assert snapshot["dataflow.analyze_ns"]["value"] > 0


class TestCompileIntegration:
    def test_compile_attaches_deep_report(self):
        from repro.core.compile import compile_workload
        from repro.workloads import polybench_workload

        spec = polybench_workload("gemm", scale=0.01)
        cold = compile_workload(spec, deep_verify=True)
        assert cold.deep_report is not None
        assert cold.deep_report.ok(strict=True)
        # Deep verification also runs on cache hits: a stale or corrupt
        # cached trace would be caught before execution.
        warm = compile_workload(spec, deep_verify=True)
        assert warm.cache_hit
        assert warm.deep_report is not None
        assert warm.deep_report.ok(strict=True)
        plain = compile_workload(spec)
        assert plain.deep_report is None

    def test_campaign_deep_check_passes_clean_workload(self):
        from repro.resilience import run_campaign

        report = run_campaign(
            "gemm", scale=0.01, runs=1, deep_check=True
        )
        assert report.n_runs == 1


class TestDeepCli:
    def test_check_deep_workload_passes(self, capsys):
        from repro.cli import main

        assert (
            main(["check", "gemm", "--scale", "0.01", "--deep", "--strict"])
            == 0
        )
        assert "PASS" in capsys.readouterr().out

    def test_check_deep_trace_file(self, tmp_path, capsys):
        from repro.cli import main

        amap = AddressMap(DeviceGeometry())
        base = amap.subarray_base(0, 0)
        # Each copied range is read back, so only the repeat copy at
        # vpc #2 is findable — an INFO hint, clean even under strict.
        trace = VPCTrace(
            [
                VPC.tran(base, base + 32, 4),
                VPC.tran(base + 32, base + 64, 4),
                VPC.tran(base, base + 32, 4),
                VPC.tran(base + 32, base + 96, 4),
            ]
        )
        path = tmp_path / "dup.trace"
        write_trace(trace, path)
        # Redundant copy is an INFO hint: reported but never failing.
        assert main(["check", str(path), "--deep", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "SPV012" in out
        assert "1 hint(s)" in out

    def test_json_schema(self, tmp_path, capsys):
        from repro.cli import main
        from repro.isa.columnar import binary_record_offset

        amap = AddressMap(DeviceGeometry())
        base = amap.subarray_base(0, 0)
        trace = VPCTrace(
            [
                VPC.tran(amap.total_words + 5, base, 4),  # SPV001
                VPC.add(base, base + 16, base + 4, 8),  # SPV003
            ]
        )
        path = tmp_path / "corrupt.trace"
        write_trace(trace, path)
        assert main(["check", str(path), "--json"]) == 1
        captured = capsys.readouterr()
        lines = [
            line for line in captured.out.splitlines() if line.strip()
        ]
        records = [json.loads(line) for line in lines]
        assert {record["rule"] for record in records} == {
            "SPV001",
            "SPV003",
        }
        for record in records:
            assert set(record) == {
                "rule",
                "severity",
                "subject",
                "location",
                "index",
                "offset",
                "line",
                "message",
                "hint",
            }
            assert record["subject"] == f"trace {path}"
            assert record["offset"] == binary_record_offset(
                record["index"]
            )
        # The human summary stays off the NDJSON stream.
        assert "FAILED" in captured.err

    def test_select_and_ignore_filters(self, tmp_path, capsys):
        from repro.cli import main

        amap = AddressMap(DeviceGeometry())
        base = amap.subarray_base(0, 0)
        trace = VPCTrace(
            [
                VPC.tran(amap.total_words + 5, base, 4),  # SPV001
                VPC.add(base, base + 16, base + 4, 8),  # SPV003
            ]
        )
        path = tmp_path / "corrupt.trace"
        write_trace(trace, path)

        assert main(["check", str(path), "--select", "SPV003"]) == 1
        out = capsys.readouterr().out
        assert "SPV003" in out and "SPV001" not in out

        # Ignoring every firing rule also clears the verdict.
        assert (
            main(["check", str(path), "--ignore", "SPV001,SPV003"]) == 0
        )
        assert "PASS" in capsys.readouterr().out

    def test_unknown_filter_rule_rejected(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "empty.trace"
        write_trace(VPCTrace(), path)
        with pytest.raises(SystemExit) as excinfo:
            main(["check", str(path), "--select", "SPV08"])
        assert "SPV08" in str(excinfo.value)

    def test_lint_json_clean(self, capsys):
        from repro.cli import main

        assert main(["lint", "--json"]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_campaign_deep_flag(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "faults",
                    "campaign",
                    "gemm",
                    "--scale",
                    "0.01",
                    "--runs",
                    "1",
                    "--deep",
                ]
            )
            == 0
        )
        assert "campaign" in capsys.readouterr().out


class TestWorkloadsDeepClean:
    @pytest.mark.parametrize("name", ["gemm", "atax", "mvt", "2mm"])
    def test_polybench_deep_clean(self, name):
        from repro.workloads import polybench_workload

        task = polybench_workload(name, scale=0.01).build_task()
        trace = task.to_trace()
        analyzer = DataflowAnalyzer(
            geometry=task.device.config.geometry,
            plan=task.placement_plan,
            scalar_slots=task.trace_scalar_slots,
        )
        report = analyzer.analyze(trace, subject=name)
        assert report.ok(strict=True), report.render(strict=True)
        assert not report.infos
