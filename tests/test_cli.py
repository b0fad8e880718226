"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.device import StreamPIMDevice
from repro.isa.trace import read_trace
from repro.workloads import find_workload
from tests.oracles import scalar_exec


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "gemm"])
        assert args.platform == "StPIM"
        assert args.scale == 1.0

    def test_trace_output_flag(self):
        args = build_parser().parse_args(
            ["trace", "atax", "-o", "out.trace"]
        )
        assert args.output == "out.trace"


class TestCommands:
    def test_run_small_workload(self, capsys):
        assert main(["run", "atax", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "atax" in out
        assert "time" in out
        assert "energy" in out

    def test_run_other_platform(self, capsys):
        assert main(
            ["run", "bicg", "--platform", "CORUSCANT", "--scale", "0.05"]
        ) == 0
        assert "CORUSCANT" in capsys.readouterr().out

    def test_run_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "cholesky"])

    def test_run_unknown_platform(self):
        with pytest.raises(SystemExit):
            main(["run", "gemm", "--platform", "TPU"])

    def test_dnn_rejects_scale(self):
        with pytest.raises(SystemExit):
            main(["run", "mlp", "--scale", "0.5"])

    def test_sweep_small(self, capsys):
        assert main(
            ["sweep", "--workloads", "atax", "bicg", "--scale", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "StPIM" in out
        assert "CPU-RM" in out

    def test_counts(self, capsys):
        assert main(["counts"]) == 0
        out = capsys.readouterr().out
        assert "gemm" in out
        assert "4,606,000" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "512" in out  # PIM subarrays
        assert "10.27" in out  # write latency

    def test_trace_roundtrips(self, tmp_path, capsys):
        path = tmp_path / "atax.trace"
        assert main(
            ["trace", "atax", "--scale", "0.01", "-o", str(path)]
        ) == 0
        trace = read_trace(path)
        assert trace.stats.pim_vpcs > 0
        assert trace.stats.move_vpcs > 0

    def test_trace_without_output(self, capsys):
        assert main(["trace", "mvt", "--scale", "0.01"]) == 0
        assert "PIM VPCs" in capsys.readouterr().out


class TestReplay:
    def test_replay_saved_trace(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        assert main(["trace", "atax", "--scale", "0.01", "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out
        assert "time breakdown" in out

    def test_default_flags_match_scalar_oracle(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        assert main(["trace", "gemm", "--scale", "0.01", "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        reference = scalar_exec.execute_trace(
            StreamPIMDevice(), read_trace(path), functional=False
        )
        assert f"time   : {reference.time_ns / 1e3:.2f} us" in out
        assert (
            f"energy : {reference.energy.total_pj / 1e3:.2f} nJ" in out
        )

    def test_replay_missing_file(self):
        with pytest.raises(FileNotFoundError):
            main(["replay", "/nonexistent/trace.txt"])


class TestProfile:
    def test_functional_profile_matches_scalar_oracle(
        self, tmp_path, capsys
    ):
        assert main(
            [
                "profile",
                "gemm",
                "--scale",
                "0.01",
                "--functional",
                "-o",
                str(tmp_path / "trace.json"),
            ]
        ) == 0
        out = capsys.readouterr().out
        task = find_workload("gemm", scale=0.01).build_task()
        trace = task.to_trace()
        task.materialize()
        reference = scalar_exec.execute_trace(
            task.device, trace, workload="gemm", functional=True
        )
        assert f"time   : {reference.time_ns / 1e3:.2f} us" in out
        assert (
            f"energy : {reference.energy.total_pj / 1e3:.2f} nJ" in out
        )
        assert "breakdown reconciliation: OK" in out


#: Run-path selectors, and cache flags on commands that lower no trace:
#: each is a usage error.
REMOVED_FLAGS = [
    [*command, *flag]
    for command in (
        ["sweep"],
        ["trace", "gemm"],
        ["replay", "t.trace"],
        ["profile", "gemm"],
    )
    for flag in (["--stream"], ["--no-stream"], ["--chunk-vpcs", "512"])
] + [
    [*command, *flag]
    for command in (["sweep"], ["replay", "t.trace"])
    for flag in (["--no-trace-cache"], ["--cache-dir", "cache"])
]


@pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=" ".join)
def test_removed_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestFaults:
    def test_run_prints_reliability_report(self, capsys):
        assert main(
            [
                "faults",
                "run",
                "gemm",
                "--scale",
                "0.01",
                "--seed",
                "42",
                "--p-per-step",
                "2e-6",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "injected" in out
        assert "SDC" in out
        assert "policy   : retry" in out

    def test_run_engines_print_identical_reports(self, tmp_path, capsys):
        import json

        from repro.cli import _fault_config
        from repro.resilience import run_with_faults
        from repro.workloads.request import CompileSpec, compile_spec, resolve

        target = tmp_path / "report.json"
        argv = ["faults", "run", "gemm", "--scale", "0.01",
                "--seed", "3", "--p-per-step", "2e-6", "-o", str(target)]
        assert main(argv) == 0
        capsys.readouterr()
        # The same run through the per-VPC reference loop.
        args = build_parser().parse_args(argv)
        spec = CompileSpec("gemm", scale=0.01)
        compiled = compile_spec(spec, resolve(spec), cache_dir=args.cache_dir)
        _, report = run_with_faults(
            scalar_exec.use_scalar_engine(compiled.device),
            compiled.trace,
            config=_fault_config(args),
            seed=3,
            workload="gemm",
        )
        expected = json.loads(json.dumps(report.to_dict()))
        assert json.loads(target.read_text()) == expected
        assert report.injected > 0

    def test_campaign_refuses_scaled_dnn(self, capsys):
        """A DNN's dimensions are fixed: ``faults campaign`` refuses a
        scale, as ``faults run`` does, rather than run the full-size
        graph under a scaled label."""
        with pytest.raises(SystemExit) as exc:
            main(["faults", "campaign", "mlp", "--scale", "0.01",
                  "--runs", "1"])
        assert exc.value.code == "DNN workload 'mlp' does not support scaling"
        assert capsys.readouterr().out == ""

    def test_campaign_writes_json_report(self, tmp_path, capsys):
        import json

        target = tmp_path / "campaign.json"
        assert main(
            [
                "faults",
                "campaign",
                "gemm",
                "--scale",
                "0.01",
                "--runs",
                "3",
                "--p-per-step",
                "2e-6",
                "-o",
                str(target),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "observed" in out
        payload = json.loads(target.read_text())
        assert payload["n_runs"] == 3
        assert len(payload["runs"]) == 3

    def test_rejects_bad_policy_parameters(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "faults",
                    "run",
                    "gemm",
                    "--scale",
                    "0.01",
                    "--max-retries",
                    "0",
                ]
            )

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["faults", "run", "cholesky"])


class TestWorkloadsListing:
    def test_lists_all_suites(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("gemm", "mvt", "mlp", "bert", "trmm", "power_iter"):
            assert name in out
        for suite in ("polybench", "dnn", "extra"):
            assert suite in out


# ----------------------------------------------------------------------
# sweep robustness: per-cell timeouts and inert-flag warnings
# ----------------------------------------------------------------------
import time as _time

import repro.cli as _cli

_REAL_SWEEP_WORKER = _cli._sweep_worker


def _hang_one_cell_worker(job):
    """Sweep worker that hangs on exactly one (platform, workload) cell.

    Top level so the pool can pickle it by reference; the forked child
    inherits the monkeypatched ``repro.cli._sweep_worker`` binding.
    """
    pname, wname, _scale = job
    if (pname, wname) == ("ELP2IM", "atax"):
        _time.sleep(120.0)
    return _REAL_SWEEP_WORKER(job)


class TestSweepRobustness:
    def test_job_timeout_surfaces_instead_of_hanging(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(_cli, "_sweep_worker", _hang_one_cell_worker)
        rc = main(
            [
                "sweep",
                "--workloads",
                "atax",
                "--scale",
                "0.05",
                "--jobs",
                "2",
                "--job-timeout",
                "3",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1  # a timed-out cell fails the sweep loudly
        assert "JobTimeout: ELP2IM/atax exceeded 3s" in captured.err
        # The stuck platform's row says so; the others still report.
        assert "timeout" in captured.out
        assert "StPIM" in captured.out
        assert "CPU-RM" in captured.out

    def test_generous_timeout_passes_through_the_pool_path(self, capsys):
        rc = main(
            [
                "sweep",
                "--workloads",
                "atax",
                "--scale",
                "0.05",
                "--jobs",
                "2",
                "--job-timeout",
                "300",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "JobTimeout" not in captured.err
        assert "StPIM" in captured.out
