"""One typed request for the CLI, serve and fault campaigns.

Both front ends parse ``run``/``compile`` inputs into the frozen specs
of :mod:`repro.workloads.request` and look workloads up through its
:func:`~repro.workloads.request.resolve`, so their defaults and their
error messages cannot drift apart.  These tests fail on any drift.
"""

import pytest

from repro import cli
from repro.baselines import PlatformRegistry, default_platforms
from repro.cli import build_parser, main
from repro.resilience import run_campaign
from repro.serve.protocol import ErrorCode, work_spec
from repro.serve.supervisor import execute_request
from repro.workloads.request import (
    CompileSpec,
    RunSpec,
    UnknownWorkloadError,
    find_workload,
    resolve,
    run_spec,
)


def _spy(monkeypatch, name):
    """Record the spec each call of ``cli.<name>`` receives."""
    seen = []
    real = getattr(cli, name)

    def spy(spec, *args, **kwargs):
        seen.append(spec)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    return seen


class TestDefaults:
    """Every serve default is the CLI's default."""

    def test_run_parser_defaults(self):
        args = build_parser().parse_args(["run", "atax"])
        spec = work_spec("run", {"workload": "atax"})
        assert (args.scale, args.platform) == (spec.scale, spec.platform)

    def test_trace_parser_defaults(self):
        args = build_parser().parse_args(["trace", "atax"])
        assert args.scale == work_spec("compile", {"workload": "x"}).scale

    def test_run_command_builds_the_serve_spec(self, monkeypatch, capsys):
        seen = _spy(monkeypatch, "run_spec")
        assert main(["run", "atax"]) == 0
        assert seen == [work_spec("run", {"workload": "atax"})]

    def test_trace_command_builds_the_serve_spec(self, monkeypatch, capsys):
        # Scale and seed both: ``trace`` has no seed flag, so the spec's
        # default seed is the one it compiles with.
        seen = _spy(monkeypatch, "compile_spec")
        assert main(["trace", "atax"]) == 0
        assert seen == [work_spec("compile", {"workload": "atax"})]


class TestErrorParity:
    """For each lookup failure the CLI exits with serve's message."""

    @pytest.mark.parametrize(
        "argv, method, params",
        [
            (["run", "nope"], "run", {"workload": "nope"}),
            (
                ["run", "atax", "--platform", "TPU"],
                "run",
                {"workload": "atax", "platform": "TPU"},
            ),
            (["trace", "trmm"], "compile", {"workload": "trmm"}),
            (["faults", "run", "trmm"], "compile", {"workload": "trmm"}),
            (
                ["run", "mlp", "--scale", "0.5"],
                "run",
                {"workload": "mlp", "scale": 0.5},
            ),
            (["trace", "mlp"], "compile", {"workload": "mlp"}),
        ],
        ids=["workload", "platform", "builder", "faults-builder",
             "dnn-scale", "dnn-default-scale"],
    )
    def test_cli_exit_message_is_serve_message(self, argv, method, params):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        envelope = execute_request(method, params, None, {})
        assert envelope["code"] == ErrorCode.UNKNOWN_WORKLOAD.value
        assert exc.value.code == envelope["message"]

    def test_message_is_plain(self):
        with pytest.raises(UnknownWorkloadError) as exc:
            resolve(RunSpec("mlp", scale=0.5))
        assert str(exc.value) == "DNN workload 'mlp' does not support scaling"

    def test_error_is_a_key_and_value_error(self):
        with pytest.raises(KeyError):
            find_workload("nope")
        with pytest.raises(ValueError):
            resolve(CompileSpec("trmm"))


class TestCampaignLookup:
    """``faults campaign`` follows ``faults run``'s lookup rules."""

    def test_scaled_dnn_campaign_refuses_like_faults_run(self, capsys):
        with pytest.raises(SystemExit) as run_exc:
            main(["faults", "run", "mlp", "--scale", "0.01"])
        with pytest.raises(ValueError) as campaign_exc:
            run_campaign("mlp", scale=0.01, runs=1)
        assert str(campaign_exc.value) == run_exc.value.code


class TestVerifyFailed:
    def test_deep_finding_maps_to_verify_failed(self, monkeypatch, tmp_path):
        """A deep-verify failure in ``compile_spec`` is serve's
        ``VERIFY_FAILED``, with the findings as detail."""
        from repro.verify.diagnostics import VerifyReport

        monkeypatch.setattr(VerifyReport, "ok", lambda self, strict=False: False)
        envelope = execute_request(
            "compile",
            {"workload": "atax", "deep": True},
            None,
            {"cache_dir": str(tmp_path)},
        )
        assert envelope["code"] == ErrorCode.VERIFY_FAILED.value
        assert envelope["message"] == "deep dataflow verification failed"
        assert isinstance(envelope["detail"]["findings"], list)


class TestRunSpec:
    """``run_spec`` builds the one platform it runs, and returns what a
    run of that platform in the full set returns."""

    @pytest.mark.parametrize("name", sorted(default_platforms()))
    def test_builds_only_its_platform(self, name, monkeypatch):
        spec = RunSpec("atax", scale=0.05, platform=name)
        workload = resolve(spec)
        stats = default_platforms()[name].run(workload)
        built = []
        makers = PlatformRegistry.constructors()

        def counted(label):
            def make():
                built.append(label)
                return makers[label]()

            return make

        monkeypatch.setattr(
            PlatformRegistry,
            "constructors",
            staticmethod(lambda: {label: counted(label) for label in makers}),
        )
        assert run_spec(spec, workload) == {
            "workload": workload.name,
            "platform": stats.platform,
            "scale": spec.scale,
            "time_ns": stats.time_ns,
            "energy_pj": stats.energy.total_pj,
            "time_fractions": stats.time_breakdown.fractions(),
            "energy_fractions": stats.energy.fractions(),
            "counters": dict(stats.counters),
        }
        assert built == [name]

    def test_registry_builds_the_full_set_from_one_map(self):
        assert list(default_platforms()) == list(
            PlatformRegistry.constructors()
        )
