"""Command-line interface for the StreamPIM reproduction.

Subcommands:

* ``repro-streampim run <workload> [--platform P] [--scale S]`` — run one
  workload on one platform and print its timing/energy report;
* ``repro-streampim sweep [--workloads ...]`` — regenerate the Fig. 17/18
  platform comparison table;
* ``repro-streampim counts`` — print the Table IV VPC-count comparison;
* ``repro-streampim info`` — show the default device configuration and
  area breakdown;
* ``repro-streampim trace <workload> --scale S [-o FILE]`` — enumerate a
  VPC trace at reduced scale and write it out;
* ``repro-streampim check <trace|workload>`` — static trace/placement
  verification (the ``SPV`` rule catalogue, ``docs/static_analysis.md``);
* ``repro-streampim faults run|campaign`` — seeded fault-injection runs
  and Monte-Carlo reliability campaigns (``docs/reliability.md``);
* ``repro-streampim profile <workload>`` — instrumented run writing a
  Chrome-trace JSON plus a metrics/utilisation summary
  (``docs/observability.md``); ``replay`` and ``faults run`` accept
  ``--profile FILE`` for the same export;
* ``repro-streampim lint`` — repository-invariant AST lint (``SPL``
  rules) over ``src/repro``;
* ``repro-streampim cache stats|clear`` — inspect or empty the
  content-addressed trace cache (``docs/compile_pipeline.md``);
* ``repro-streampim calibrate`` — analytic-predictor error report
  against the trace executor (``docs/modeling.md``);
* ``repro-streampim explore`` — closed-form design-space sweep with
  Pareto-frontier re-simulation (``docs/modeling.md``);
* ``repro-streampim serve`` — long-lived simulation service with a
  supervised worker pool, deadlines/retries, admission control and
  graceful drain (``docs/serving.md``);
* ``repro-streampim client <method>`` — send one request to a running
  service and print the JSON response.

Commands that lower workloads to traces (``trace``, ``profile``,
``check``, ``faults``) serve repeat compilations from the trace cache;
``--no-trace-cache`` forces a fresh compile and ``--cache-dir``
relocates the store.

Installed as the ``repro-streampim`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.area import AreaModel
from repro.analysis.report import format_table
from repro.baselines import default_platforms
from repro.isa.trace import write_trace
from repro.workloads import (
    DNN_WORKLOADS,
    EXTRA_WORKLOADS,
    POLYBENCH,
    extra_workload,
    polybench_workload,
)
from repro.workloads.request import (
    CompileSpec,
    RunSpec,
    UnknownWorkloadError,
    compile_spec,
    resolve,
    run_spec,
)
from repro.workloads.spec import DEFAULT_SEED


def _resolve(spec):
    """:func:`~repro.workloads.request.resolve`, exiting with its
    message on failure."""
    try:
        return resolve(spec)
    except UnknownWorkloadError as exc:
        raise SystemExit(str(exc))


def _compile(args: argparse.Namespace):
    """``(workload, compiled)`` of ``args.workload`` under the cache flags."""
    spec = CompileSpec(
        args.workload, scale=args.scale, no_cache=args.no_trace_cache
    )
    workload = _resolve(spec)
    return workload, compile_spec(spec, workload, cache_dir=args.cache_dir)


def _cmd_run(args: argparse.Namespace) -> int:
    spec = RunSpec(args.workload, scale=args.scale, platform=args.platform)
    workload = _resolve(spec)
    result = run_spec(spec, workload)
    print(f"workload : {workload.name} ({workload.description})")
    print(f"platform : {result['platform']}")
    print(f"time     : {result['time_ns'] / 1e6:.3f} ms")
    print(f"energy   : {result['energy_pj'] / 1e9:.3f} mJ")
    for label in ("time", "energy"):
        shares = ", ".join(
            f"{k} {v:.1%}"
            for k, v in result[f"{label}_fractions"].items()
            if v > 0.0005
        )
        print(f"{label} breakdown : {shares}")
    if result["counters"]:
        print(f"counters : {result['counters']}")
    return 0


def _sweep_worker(job):
    """Run one (platform, workload) pair; top-level so it pickles."""
    pname, wname, scale = job
    spec = _resolve(RunSpec(wname, scale=scale))
    stats = default_platforms()[pname].run(spec)
    return pname, wname, stats.time_ns, stats.energy.total_pj


class JobTimeout:
    """Typed sweep-cell result: the job exceeded ``--job-timeout``.

    Stored in the metrics map in place of the ``(time_ns, total_pj)``
    tuple so the report can name the cell instead of the whole sweep
    hanging on one stuck process.
    """

    __slots__ = ("platform", "workload", "timeout_s")

    def __init__(self, platform: str, workload: str, timeout_s: float):
        self.platform = platform
        self.workload = workload
        self.timeout_s = timeout_s

    def __repr__(self) -> str:
        return (
            f"JobTimeout({self.platform}/{self.workload} "
            f"> {self.timeout_s:g}s)"
        )


def _sweep_metrics(
    names, scale: float, jobs: int, job_timeout: Optional[float] = None
):
    """(time_ns, total_pj) per (platform, workload), optionally parallel.

    The (platform x workload) grid is embarrassingly parallel — every
    cell builds its own spec and platform, so with ``--jobs N`` the
    cells run in a process pool and results are identical to the
    sequential order (each cell is deterministic).

    With ``job_timeout`` set, cells always run in a pool (even at
    ``--jobs 1``) so a stuck cell can be abandoned: its slot in the
    result map becomes a :class:`JobTimeout` and the pool is torn down
    at the end, killing any still-hung process.  Waits are sequential,
    so a cell queued behind a slow one gets its full budget only once
    it is being waited on — the timeout bounds *additional* wait, not
    queue time.
    """
    platform_names = list(default_platforms())
    jobs_list = [
        (pname, wname, scale)
        for pname in platform_names
        for wname in names
    ]
    metrics = {}
    if jobs <= 1 and job_timeout is None:
        results = [_sweep_worker(job) for job in jobs_list]
        for pname, wname, time_ns, total_pj in results:
            metrics[(pname, wname)] = (time_ns, total_pj)
        return platform_names, metrics
    import multiprocessing

    with multiprocessing.Pool(processes=max(1, jobs)) as pool:
        handles = [
            (job, pool.apply_async(_sweep_worker, (job,)))
            for job in jobs_list
        ]
        for (pname, wname, _), handle in handles:
            try:
                _, _, time_ns, total_pj = handle.get(timeout=job_timeout)
                metrics[(pname, wname)] = (time_ns, total_pj)
            except multiprocessing.TimeoutError:
                metrics[(pname, wname)] = JobTimeout(
                    pname, wname, job_timeout
                )
        # Pool.__exit__ terminates the workers, so a job that timed
        # out cannot outlive the sweep.
    return platform_names, metrics


def _cmd_sweep(args: argparse.Namespace) -> int:
    names = args.workloads or list(POLYBENCH)
    for name in names:
        _resolve(RunSpec(name, scale=args.scale))  # fail fast on bad names
    platform_names, metrics = _sweep_metrics(
        names, args.scale, args.jobs, job_timeout=args.job_timeout
    )
    timeouts = [
        cell for cell in metrics.values() if isinstance(cell, JobTimeout)
    ]

    def _ok(pname, wname):
        return not isinstance(metrics[(pname, wname)], JobTimeout)

    rows = []
    for pname in platform_names:
        # A timed-out cell drops its workload from this platform's
        # averages (the two ratio baselines must have finished too).
        usable = [
            w
            for w in names
            if _ok(pname, w) and _ok("CPU-RM", w) and _ok("StPIM", w)
        ]
        if not usable:
            rows.append([pname, "timeout", "timeout"])
            continue
        speedups = [
            metrics[("CPU-RM", w)][0] / metrics[(pname, w)][0]
            for w in usable
        ]
        energies = [
            metrics[(pname, w)][1] / metrics[("StPIM", w)][1]
            for w in usable
        ]
        rows.append(
            [
                pname,
                sum(speedups) / len(speedups),
                sum(energies) / len(energies),
            ]
        )
    print(f"workloads: {', '.join(names)} (scale {args.scale})")
    print(
        format_table(
            ["platform", "avg speedup vs CPU-RM", "avg energy vs StPIM"],
            rows,
        )
    )
    for cell in timeouts:
        print(
            f"JobTimeout: {cell.platform}/{cell.workload} exceeded "
            f"{cell.timeout_s:g}s and was killed; excluded from the "
            f"averages above",
            file=sys.stderr,
        )
    return 1 if timeouts else 0


def _cmd_counts(_args: argparse.Namespace) -> int:
    rows = []
    for name, spec in POLYBENCH.items():
        pim, move = spec.vpc_counts()
        rows.append(
            [
                name,
                f"{pim:,}",
                f"{spec.paper_pim_vpcs:.3g}",
                f"{move:,}",
                f"{spec.paper_move_vpcs:.3g}",
            ]
        )
    print(
        format_table(
            ["workload", "#PIM-VPC", "paper", "#move-VPC", "paper"], rows
        )
    )
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    from repro.core.device import StreamPIMConfig

    config = StreamPIMConfig()
    geometry = config.geometry
    timing = config.timing
    print("StreamPIM default configuration (paper Table III)")
    print(
        f"  device   : {geometry.banks} banks "
        f"({geometry.pim_banks} PIM) x {geometry.subarrays_per_bank} "
        f"subarrays, {geometry.capacity_bytes / 2**30:.0f} GiB"
    )
    print(f"  PIM subarrays : {geometry.pim_subarrays}")
    print(
        f"  latencies : read {timing.read_ns} ns, write "
        f"{timing.write_ns} ns, shift {timing.shift_ns} ns"
    )
    print(
        f"  energies  : read {timing.read_pj} pJ, write "
        f"{timing.write_pj} pJ, shift {timing.shift_pj} pJ, "
        f"add {timing.pim_add_pj} pJ, mul {timing.pim_mul_pj} pJ"
    )
    print(
        f"  core clock : {timing.core_freq_mhz:.0f} MHz, process "
        f"{timing.process_nm:.0f} nm"
    )
    print(
        f"  bus : {config.bus.segment_domains}-domain segments, "
        f"{config.bus.n_segments} hops"
    )
    model = AreaModel()
    breakdown = model.breakdown()
    print("area breakdown:")
    print(f"  RM bus        : {breakdown.fraction('bus'):.2%}")
    print(f"  RM processor  : {breakdown.fraction('processor'):.2%}")
    print(
        f"  transfer tracks (of PIM bank) : "
        f"{model.transfer_fraction_of_pim_bank_area():.2%}"
    )
    from repro.analysis.datasheet import build_datasheet

    print("derived datasheet:")
    for line in build_datasheet(config).render().splitlines():
        print(f"  {line}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    workload, compiled = _compile(args)
    trace = compiled.trace
    source = "cache hit" if compiled.cache_hit else "compiled"
    stats = trace.stats
    print(
        f"{workload.name} @ scale {args.scale}: {stats.pim_vpcs:,} PIM VPCs, "
        f"{stats.move_vpcs:,} move VPCs ({source})"
    )
    if args.output:
        write_trace(trace, args.output)
        print(f"wrote {len(trace):,} commands to {args.output}")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    """List every available workload with its shape summary."""
    suites = (
        ("polybench", POLYBENCH),
        ("dnn", DNN_WORKLOADS),
        ("extra", EXTRA_WORKLOADS),
    )
    if getattr(args, "json", False):
        import json

        entries = []
        for suite, table in suites:
            for name, spec in table.items():
                pim, move = spec.vpc_counts()
                entries.append(
                    {
                        "workload": name,
                        "suite": suite,
                        "pim_vpcs": pim,
                        "move_vpcs": move,
                        "buildable": spec.build is not None,
                        "class": _workload_class(name),
                        "description": spec.description,
                    }
                )
        print(json.dumps(entries, indent=1))
        return 0
    rows = []
    for suite, table in suites:
        for name, spec in table.items():
            pim, move = spec.vpc_counts()
            rows.append(
                [name, suite, f"{pim:,}", f"{move:,}", spec.description]
            )
    print(
        format_table(
            ["workload", "suite", "#PIM-VPC", "#move-VPC", "description"],
            rows,
        )
    )
    return 0


def _workload_class(name: str) -> str:
    from repro.analysis.calibrate import workload_class

    return workload_class(name)


def _parse_cases(items):
    """Parse ``name`` / ``name:scale`` CLI items into (name, scale) pairs."""
    cases = []
    for item in items:
        name, sep, scale = item.partition(":")
        try:
            cases.append((name, float(scale) if sep else None))
        except ValueError:
            raise SystemExit(f"bad workload spec {item!r}: scale must be a number")
        _resolve(RunSpec(name))  # fail fast on bad names
    return cases


def _cmd_calibrate(args: argparse.Namespace) -> int:
    """Predictor calibration: analytic model vs the trace executor."""
    from repro.analysis.calibrate import run_calibration

    cases = _parse_cases(args.workloads) if args.workloads else None

    def show(result):
        print(
            f"{result.workload:>11}"
            f"{'' if result.scale is None else f'@{result.scale:g}':<6} "
            f"{result.commands:>9,} cmds  "
            f"time {result.time_rel_error * 100:+7.3f}% "
            f"(bound {result.class_time_bound * 100:.0f}%)  "
            f"energy {result.energy_rel_error * 100:+.2e}%  "
            f"sim {result.sim_seconds:6.2f}s  "
            f"predict {result.predict_seconds * 1e3:7.2f}ms"
        )

    report = run_calibration(
        cases,
        seed=args.seed,
        cache_dir=args.cache_dir,
        use_cache=not args.no_trace_cache,
        heavy=args.heavy,
        progress=show,
    )
    print(
        f"max |time err| {report.max_abs_time_error * 100:.3f}%, "
        f"max |energy err| {report.max_abs_energy_error * 100:.2e}%, "
        f"{'OK' if report.ok() else 'OUT OF BOUNDS'}"
    )
    if args.output:
        import json

        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=1)
        print(f"wrote {args.output}")
    return 0 if report.ok() else 1


def _cmd_explore(args: argparse.Namespace) -> int:
    """Analytic design-space exploration with Pareto re-simulation."""
    from repro.analysis.explore import build_grid, run_explore

    kwargs = {}
    if args.workloads:
        kwargs["workloads"] = _parse_cases(args.workloads)
    if args.policies:
        kwargs["policies"] = args.policies
    if args.read_scales:
        kwargs["read_scales"] = args.read_scales
    if args.write_scales:
        kwargs["write_scales"] = args.write_scales
    if args.decode_ns:
        kwargs["decode_ns"] = args.decode_ns
    grid = build_grid(**kwargs)
    print(f"exploring {len(grid)} design points")
    report = run_explore(
        grid,
        seed=args.seed,
        cache_dir=args.cache_dir,
        use_cache=not args.no_trace_cache,
        verify_limit=args.verify_limit,
        progress=lambda stage, detail: print(f"[{stage}] {detail}"),
    )
    print(
        f"frontier {report.frontier_points}/{report.total_points} points "
        f"(pruned {report.pruning_ratio:.1%}), "
        f"re-simulated {report.verified}, "
        f"max |time err| {report.max_abs_time_error * 100:.3f}%, "
        f"max |energy err| {report.max_abs_energy_error * 100:.2e}%"
    )
    print(
        f"wall: compile {report.compile_seconds:.2f}s + "
        f"predict {report.predict_seconds:.2f}s analytic vs "
        f"~{report.estimated_speedup:.0f}x that to simulate the grid"
    )
    if args.output:
        import json

        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=1)
        print(f"wrote {args.output}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Replay a saved VPC trace through the event-driven device."""
    from repro.core.device import StreamPIMDevice
    from repro.isa.columnar import ColumnarTrace

    trace = ColumnarTrace.read(args.trace)
    device = StreamPIMDevice()
    collector = None
    if args.profile:
        from repro.obs import Collector

        collector = Collector()
        device.observe(collector)
    stats = device.execute_trace(
        trace, functional=False, verify=not args.no_verify
    )
    print(f"replayed {len(trace):,} commands from {args.trace}")
    print(f"time   : {stats.time_ns / 1e3:.2f} us")
    print(f"energy : {stats.energy.total_pj / 1e3:.2f} nJ")
    fractions = stats.time_breakdown.fractions()
    shares = ", ".join(
        f"{k} {v:.1%}" for k, v in fractions.items() if v > 0.0005
    )
    print(f"time breakdown : {shares}")
    if collector is not None:
        return _export_profile(collector, stats, args.profile)
    return 0


def _breakdown_rows(stats, collector):
    """(category, span-derived ns, engine ns, delta) reconciliation rows."""
    from repro.obs import exclusive_breakdown

    swept = exclusive_breakdown(collector.spans)
    reported = stats.time_breakdown
    rows = []
    worst = 0.0
    for category in (
        "read", "write", "shift", "process", "overlapped", "recovery"
    ):
        field = f"{category}_ns"
        from_spans = getattr(swept, field)
        from_engine = getattr(reported, field)
        scale = max(abs(from_spans), abs(from_engine), 1.0)
        delta = abs(from_spans - from_engine) / scale
        worst = max(worst, delta)
        rows.append([category, from_spans, from_engine, delta])
    return rows, worst


def _export_profile(collector, stats, path: str) -> int:
    """Write the Chrome trace and print the observation summary."""
    from repro.analysis.report import format_table
    from repro.obs import track_utilisation, write_chrome_trace

    payload = write_chrome_trace(
        path, collector.spans, metrics=collector.registry.snapshot()
    )
    print(
        f"wrote {path} ({len(payload['traceEvents']):,} trace events; "
        f"open in chrome://tracing or https://ui.perfetto.dev)"
    )
    print()
    print(collector.registry.render())
    if stats is None:
        return 0
    elapsed = stats.time_ns
    rows = [
        [track, busy, count, ratio]
        for track, busy, count, ratio in track_utilisation(
            collector.spans, elapsed
        )[:12]
    ]
    if rows:
        print()
        print(
            format_table(
                ["track", "busy_ns", "spans", "utilisation"], rows
            )
        )
    recon_rows, worst = _breakdown_rows(stats, collector)
    print()
    print(
        format_table(
            ["category", "spans_ns", "engine_ns", "rel_delta"],
            [[c, s, e, f"{d:.2e}"] for c, s, e, d in recon_rows],
            float_format="{:.3f}",
        )
    )
    if worst > 1e-9:
        print(
            f"FAIL: span-derived breakdown diverges from the engine's "
            f"by {worst:.3e} (relative)"
        )
        return 1
    print("breakdown reconciliation: OK (span sums match the engine)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run one workload instrumented; export trace.json + summaries.

    Lowering streams straight into the vector executor
    (:func:`~repro.core.compile.stream_workload`).
    """
    from repro.core.compile import stream_workload
    from repro.core.device import StreamPIMDevice
    from repro.obs import Collector

    spec = _resolve(CompileSpec(args.workload, scale=args.scale))
    collector = Collector()
    streamed = stream_workload(
        spec,
        device=StreamPIMDevice().observe(collector),
        use_cache=not args.no_trace_cache,
        cache_dir=args.cache_dir,
        functional=args.functional,
    )
    stats = streamed.stats
    telemetry = streamed.telemetry
    print(
        f"profiled {spec.name} @ scale {args.scale}: "
        f"{len(streamed.trace):,} commands"
    )
    print(f"time   : {stats.time_ns / 1e3:.2f} us")
    print(f"energy : {stats.energy.total_pj / 1e3:.2f} nJ")
    print(
        f"stream : {telemetry.chunks} chunks "
        f"({telemetry.records:,} records), "
        f"{telemetry.fallbacks} exact-replay fallbacks, "
        f"produce {telemetry.produce_ns / 1e6:.2f} ms / "
        f"consume {telemetry.consume_ns / 1e6:.2f} ms "
        f"(overlap {telemetry.overlap_ratio:.0%})"
    )
    return _export_profile(collector, stats, args.output)


def _check_specs(scale: float):
    """Every shipped workload generator at a reduced, checkable size."""
    from repro.workloads.dnn import (
        BERTShape,
        MLPShape,
        bert_spec,
        mlp_spec,
    )

    for name in POLYBENCH:
        spec = polybench_workload(name, scale=scale)
        if spec.build is not None:
            yield spec
    for name in EXTRA_WORKLOADS:
        spec = extra_workload(name, scale=scale)
        if spec.build is not None:
            yield spec
    yield mlp_spec(MLPShape(batch=4, layers=(16, 12, 8)))
    yield bert_spec(
        BERTShape(seq_len=4, hidden=8, ffn=16, heads=2, layers=1)
    )


def _verify_spec(spec, hazard_window: int, args):
    """Enumerate a workload's trace and verify it with its placement.

    When ``args.deep`` is set, compilation already ran the whole-trace
    dataflow pass (SPV008–SPV012) — including on cache hits — and its
    findings are merged here.
    """
    from repro.core.compile import compile_workload
    from repro.verify import TraceVerifier

    compiled = compile_workload(
        spec,
        use_cache=not args.no_trace_cache,
        cache_dir=args.cache_dir,
        deep_verify=args.deep,
    )
    verifier = TraceVerifier(
        geometry=compiled.device.config.geometry,
        plan=compiled.task.placement_plan,
        hazard_window=hazard_window,
        rules=_trace_rules(args),
    )
    report = verifier.verify(
        compiled.trace, subject=f"workload {spec.name}"
    )
    if compiled.deep_report is not None:
        report.merge(compiled.deep_report)
    return report


def _parse_rule_filter(value: Optional[str]):
    """Validate a comma-separated ``--select``/``--ignore`` rule list."""
    from repro.verify import validate_rule_ids

    if value is None:
        return None
    ids = [item.strip() for item in value.split(",") if item.strip()]
    try:
        return validate_rule_ids(ids)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _rule_filter(args):
    """The ``--select``/``--ignore`` selection as a rule-ID predicate."""
    select = _parse_rule_filter(getattr(args, "select", None))
    ignore = _parse_rule_filter(getattr(args, "ignore", None))
    return lambda rule_id: (select is None or rule_id in select) and (
        ignore is None or rule_id not in ignore
    )


def _trace_rules(args):
    """The trace rules ``check`` should run (None: all of them).

    Passing the selection to the verifier, not just filtering its
    report, keeps a filtered-out rule from spending the diagnostic cap
    that the kept rules' findings need.
    """
    from repro.verify import TRACE_RULES

    keep = _rule_filter(args)
    rules = [rule_id for rule_id in TRACE_RULES if keep(rule_id)]
    return None if len(rules) == len(TRACE_RULES) else rules


def _report_findings(reports, args, strict: bool) -> int:
    """Print reports (text or ``--json`` NDJSON); count the failures.

    ``--select``/``--ignore`` filter diagnostics and suppressed tallies
    before the pass/fail decision, so ignoring a rule also stops it
    from failing the run.
    """
    import json

    keep = _rule_filter(args)
    failed = 0
    for report in reports:
        report.keep_rules(keep)
        ok = report.ok(strict=strict)
        failed += 0 if ok else 1
        if getattr(args, "json", False):
            for diagnostic in report.diagnostics:
                print(
                    json.dumps(
                        diagnostic.to_dict(subject=report.subject),
                        sort_keys=True,
                    )
                )
        elif ok and len(reports) > 1 and not report.diagnostics:
            print(f"{report.subject}: PASS")
        else:
            print(report.render(strict=strict))
    return failed


def _cmd_check(args: argparse.Namespace) -> int:
    """Statically verify traces/workloads against the SPV rules."""
    import os

    from repro.verify import TraceVerifier

    reports = []
    if args.all_workloads:
        for spec in _check_specs(args.scale):
            reports.append(_verify_spec(spec, args.hazard_window, args))
    elif args.target is None:
        raise SystemExit("check needs a trace file or workload name")
    elif os.path.exists(args.target):
        from repro.isa.columnar import ColumnarTrace

        trace = ColumnarTrace.read(args.target)
        verifier = TraceVerifier(
            hazard_window=args.hazard_window, rules=_trace_rules(args)
        )
        report = verifier.verify(trace, subject=f"trace {args.target}")
        if args.deep:
            # Bare trace files carry no placement plan, so the dataflow
            # pass runs degraded: SPV008/SPV011 need initialised spans
            # and are skipped, SPV009/SPV010/SPV012 still apply.
            from repro.verify import DataflowAnalyzer

            report.merge(
                DataflowAnalyzer().analyze(trace, subject=report.subject)
            )
        reports.append(report)
    else:
        spec = _resolve(CompileSpec(args.target, scale=args.scale))
        reports.append(_verify_spec(spec, args.hazard_window, args))
    failed = _report_findings(reports, args, strict=args.strict)
    if failed:
        summary = f"{failed} of {len(reports)} target(s) FAILED"
        # Keep stdout pure NDJSON under --json.
        print(summary, file=sys.stderr if args.json else sys.stdout)
        return 1
    return 0


def _fault_config(args: argparse.Namespace):
    """Build a FaultCampaignConfig from the shared faults CLI flags."""
    from repro.resilience import FaultCampaignConfig, RecoveryPolicy
    from repro.rm.faults import ShiftFaultConfig

    try:
        return FaultCampaignConfig(
            faults=ShiftFaultConfig(
                p_per_step=args.p_per_step,
                guard_detection=args.guard_detection,
            ),
            policy=RecoveryPolicy(args.policy),
            max_retries=args.max_retries,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _print_run_report(report) -> None:
    print(f"workload : {report.workload} (seed {report.seed})")
    print(f"policy   : {report.policy}")
    print(
        f"hops     : {report.hops:,} "
        f"(p_hop {report.p_hop:.3e})"
    )
    print(
        f"faults   : {report.injected} injected, "
        f"{report.detected} detected, {report.undetected} silent"
    )
    print(
        f"recovery : {report.retries} retries, "
        f"{report.recovered} recovered, "
        f"{report.recovery_ns / 1e3:.3f} us / "
        f"{report.recovery_pj / 1e3:.3f} nJ charged"
    )
    if report.quarantined:
        pairs = ", ".join(
            f"(bank {bank}, subarray {sub})"
            for bank, sub in report.quarantined
        )
        print(f"quarantined : {pairs}")
    if report.aborted:
        print(f"aborted  : yes, at vpc #{report.abort_index}")
    elif report.time_ns is not None:
        print(f"time     : {report.time_ns / 1e3:.2f} us")
    print(
        f"SDC      : {report.sdc_events} corrupted VPC(s), "
        f"rate {report.sdc_rate:.3e} "
        f"(analytic expectation {report.expected_undetected:.3e})"
    )
    if report.mttf_ns is not None:
        print(f"MTTF     : {report.mttf_ns / 1e3:.2f} us")


def _cmd_faults_run(args: argparse.Namespace) -> int:
    """One fault-injected trace execution with a reliability report."""
    import json

    from repro.resilience import run_with_faults

    workload, compiled = _compile(args)
    trace = compiled.trace
    collector = None
    if args.profile:
        from repro.obs import Collector

        collector = Collector()
        compiled.device.observe(collector)
    stats, report = run_with_faults(
        compiled.device,
        trace,
        config=_fault_config(args),
        seed=args.seed,
        workload=workload.name,
        placement=compiled.task.placement_plan,
    )
    _print_run_report(report)
    if stats is not None and stats.time_breakdown.recovery_ns > 0.0:
        share = stats.time_breakdown.fractions()["recovery"]
        print(f"recovery time share : {share:.2%}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=1)
        print(f"report written to {args.output}")
    if collector is not None:
        return _export_profile(collector, stats, args.profile)
    return 0


def _cmd_faults_campaign(args: argparse.Namespace) -> int:
    """Monte-Carlo fault campaign over independent seeds."""
    from repro.resilience import run_campaign
    from repro.verify import TraceVerificationError

    try:
        report = run_campaign(
            args.workload,
            config=_fault_config(args),
            scale=args.scale,
            runs=args.runs,
            master_seed=args.master_seed,
            jobs=args.jobs,
            use_cache=not args.no_trace_cache,
            cache_dir=args.cache_dir,
            deep_check=args.deep,
        )
    except TraceVerificationError as exc:
        print(exc.report.render())
        print(
            "campaign aborted: the workload's dataflow is already "
            "broken, so fault attribution would be meaningless"
        )
        return 1
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(
        f"campaign : {report.workload} (scale {report.scale}), "
        f"{report.n_runs} runs, policy {report.policy}"
    )
    print(
        f"faults   : {report.total_injected} injected, "
        f"{report.total_detected} detected, "
        f"{report.total_undetected} silent"
    )
    print(
        f"runs     : {report.aborted_runs} aborted, "
        f"{report.sdc_runs} with silent corruption"
    )
    print(
        f"undetected/run : observed {report.observed_undetected_mean:.4f}"
        f" vs analytic {report.expected_undetected_per_run:.4f}"
    )
    if report.mttf_ns is not None:
        print(f"observed MTTF : {report.mttf_ns / 1e3:.2f} us")
    if report.analytic_mttf_ns is not None:
        print(f"analytic MTTF : {report.analytic_mttf_ns / 1e3:.2f} us")
    if args.output:
        report.to_json(args.output)
        print(f"report written to {args.output}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the content-addressed trace cache."""
    import json

    from repro.isa.trace_cache import TraceCache

    cache = TraceCache(args.cache_dir)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(
            f"removed {removed} cached trace(s) from {cache.cache_dir}"
        )
        return 0
    stats = cache.stats()
    if args.json:
        print(json.dumps(stats, indent=1, sort_keys=True))
        return 0
    print(f"cache dir : {stats['cache_dir']}")
    print(
        f"entries   : {stats['entries']} "
        f"({stats['entry_bytes']:,} bytes)"
    )
    print(
        f"hits      : {stats['hits']} "
        f"({stats['memory_hits']} served from memory)"
    )
    print(f"misses    : {stats['misses']}")
    print(f"puts      : {stats['puts']}")
    print(f"corrupt   : {stats['corrupt']} (detected and recompiled)")
    print(
        f"io        : {stats['bytes_read']:,} B read, "
        f"{stats['bytes_written']:,} B written"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the repository-invariant AST lint (SPL rules)."""
    from repro.verify import lint_paths

    report = lint_paths(args.paths or None)
    failed = _report_findings([report], args, strict=False)
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived simulation service (docs/serving.md)."""
    from repro.serve import CoreConfig, RetryPolicy, ServeConfig, run_server

    if args.socket is None and args.host is None:
        raise SystemExit("serve needs --socket PATH or --host HOST")
    core = CoreConfig(
        queue_limit=args.queue_limit,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        max_batch=args.max_batch,
        batch_linger_s=args.batch_linger_ms / 1000.0,
        drr_quantum=args.drr_quantum,
        default_deadline_s=args.default_deadline,
        hang_grace_s=args.hang_grace,
        max_redeliveries=args.max_redeliveries,
        retry=RetryPolicy(max_attempts=args.max_attempts),
        breaker_failure_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        responded_ledger_limit=args.responded_ledger_limit,
        enable_debug_methods=args.chaos,
    )
    config = ServeConfig(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        http_host=args.http_host,
        http_port=args.http_port,
        workers=args.workers,
        core=core,
        drain_timeout_s=args.drain_timeout,
        cache_dir=args.cache_dir,
    )
    try:
        return run_server(config)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


def _cmd_client(args: argparse.Namespace) -> int:
    """Send one request to a running service and print the response."""
    import json

    from repro.serve import ServeClient, ServeClientError

    params = {}
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"--params must be valid JSON: {exc}")
        if not isinstance(params, dict):
            raise SystemExit("--params must be a JSON object")
    if args.workload is not None:
        params.setdefault("workload", args.workload)
    if args.platform is not None:
        params.setdefault("platform", args.platform)
    if args.scale is not None:
        params.setdefault("scale", args.scale)
    try:
        with ServeClient(
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            timeout_s=args.timeout,
            tenant=args.tenant,
        ) as client:
            response = client.call(
                args.method, params, deadline_ms=args.deadline_ms
            )
    except (ServeClientError, ValueError) as exc:
        raise SystemExit(str(exc))
    print(json.dumps(response.to_dict(), indent=1, sort_keys=True))
    if response.ok:
        return 0
    # Distinguish "try again later" from "this request will never
    # work" in the exit status for scripting.
    return 2 if response.error is not None and response.error.retryable else 1


def _add_rule_filter_flags(cmd: argparse.ArgumentParser) -> None:
    """``--json``/``--select``/``--ignore`` on a diagnostics command.

    The NDJSON schema (one diagnostic object per line) is documented in
    ``docs/static_analysis.md`` and stable across releases.
    """
    cmd.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON diagnostic per line instead of text "
        "(stable schema; see docs/static_analysis.md)",
    )
    cmd.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule IDs to report (all others dropped); "
        "unknown IDs are an error",
    )
    cmd.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule IDs to suppress; unknown IDs are "
        "an error",
    )


def _add_cache_flags(cmd: argparse.ArgumentParser) -> None:
    """``--no-trace-cache``/``--cache-dir`` on a trace-lowering command."""
    cmd.add_argument(
        "--no-trace-cache",
        dest="no_trace_cache",
        action="store_true",
        help="compile the trace fresh instead of using the "
        "content-addressed cache",
    )
    cmd.add_argument(
        "--cache-dir",
        default=None,
        help="trace cache directory (default: "
        "$REPRO_STREAMPIM_CACHE_DIR or ~/.cache/repro-streampim)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-streampim",
        description="StreamPIM (HPCA 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one workload on one platform")
    run.add_argument("workload")
    run.add_argument("--platform", default=RunSpec.platform)
    run.add_argument("--scale", type=float, default=RunSpec.scale)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="Fig. 17/18 platform comparison")
    sweep.add_argument("--workloads", nargs="*", default=None)
    sweep.add_argument("--scale", type=float, default=1.0)
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run (platform, workload) pairs in N parallel processes",
    )
    sweep.add_argument(
        "--job-timeout",
        dest="job_timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abandon any single (platform, workload) cell after this "
        "many seconds: the cell is reported as JobTimeout and excluded "
        "from the averages instead of hanging the sweep",
    )
    sweep.set_defaults(func=_cmd_sweep)

    counts = sub.add_parser("counts", help="Table IV VPC counts")
    counts.set_defaults(func=_cmd_counts)

    info = sub.add_parser("info", help="device configuration and area")
    info.set_defaults(func=_cmd_info)

    trace = sub.add_parser("trace", help="enumerate a VPC trace")
    trace.add_argument("workload")
    trace.add_argument("--scale", type=float, default=CompileSpec.scale)
    trace.add_argument("-o", "--output", default=None)
    _add_cache_flags(trace)
    trace.set_defaults(func=_cmd_trace)

    replay = sub.add_parser(
        "replay", help="replay a saved trace on the event engine"
    )
    replay.add_argument("trace")
    replay.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the pre-execution bounds verification",
    )
    replay.add_argument(
        "--profile",
        metavar="FILE",
        default=None,
        help="collect metrics and spans; write a Chrome trace to FILE",
    )
    replay.set_defaults(func=_cmd_replay)

    profile = sub.add_parser(
        "profile",
        help="instrumented workload run: Chrome trace + metrics summary",
    )
    profile.add_argument("workload")
    profile.add_argument("--scale", type=float, default=0.05)
    profile.add_argument(
        "--functional",
        action="store_true",
        help="also execute word-level semantics during the run",
    )
    profile.add_argument(
        "-o",
        "--output",
        default="trace.json",
        help="Chrome trace_event JSON output path",
    )
    _add_cache_flags(profile)
    profile.set_defaults(func=_cmd_profile)

    check = sub.add_parser(
        "check",
        help="static trace/placement verification (SPV rules)",
    )
    check.add_argument(
        "target",
        nargs="?",
        help="a trace file (text or binary) or a workload name",
    )
    check.add_argument(
        "--all-workloads",
        action="store_true",
        help="check every shipped workload generator at reduced size",
    )
    check.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as errors",
    )
    check.add_argument("--scale", type=float, default=0.01)
    check.add_argument(
        "--hazard-window",
        type=int,
        default=4,
        help="pipeline depth for the SPV004 hazard scan",
    )
    check.add_argument(
        "--deep",
        action="store_true",
        help="also run the whole-trace dataflow analysis "
        "(SPV008-SPV012: uninitialised reads, dead stores, schedule "
        "races, scratch leaks, redundant copies)",
    )
    _add_rule_filter_flags(check)
    _add_cache_flags(check)
    check.set_defaults(func=_cmd_check)

    faults = sub.add_parser(
        "faults",
        help="fault-injection runs and Monte-Carlo campaigns",
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)

    def _add_fault_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("workload")
        cmd.add_argument("--scale", type=float, default=CompileSpec.scale)
        cmd.add_argument(
            "--policy",
            choices=("retry", "abort", "degrade"),
            default="retry",
            help="recovery policy for guard-detected faults",
        )
        cmd.add_argument(
            "--p-per-step",
            type=float,
            default=1e-7,
            help="per-step shift misalignment probability",
        )
        cmd.add_argument(
            "--guard-detection",
            type=float,
            default=0.99,
            help="probability a guard domain catches a misaligned hop",
        )
        cmd.add_argument(
            "--max-retries",
            type=int,
            default=3,
            help="re-shift attempts before retry escalates to abort",
        )
        cmd.add_argument(
            "-o",
            "--output",
            default=None,
            help="write the JSON report to this file",
        )
        _add_cache_flags(cmd)

    faults_run = faults_sub.add_parser(
        "run", help="one seeded fault-injected trace execution"
    )
    _add_fault_flags(faults_run)
    faults_run.add_argument("--seed", type=int, default=0)
    faults_run.add_argument(
        "--profile",
        metavar="FILE",
        default=None,
        help="collect metrics and spans; write a Chrome trace to FILE",
    )
    faults_run.set_defaults(func=_cmd_faults_run)

    faults_campaign = faults_sub.add_parser(
        "campaign", help="Monte-Carlo campaign over independent seeds"
    )
    _add_fault_flags(faults_campaign)
    faults_campaign.add_argument("--runs", type=int, default=16)
    faults_campaign.add_argument("--master-seed", type=int, default=0)
    faults_campaign.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="distribute runs over N processes (same report as jobs=1)",
    )
    faults_campaign.add_argument(
        "--deep",
        action="store_true",
        help="gate the campaign on the whole-trace dataflow analysis: "
        "abort before injecting faults if the program already has "
        "error-severity findings",
    )
    faults_campaign.set_defaults(func=_cmd_faults_campaign)

    cache = sub.add_parser(
        "cache", help="inspect or clear the trace cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="hit/miss counters and on-disk footprint"
    )
    cache_stats.add_argument(
        "--json",
        action="store_true",
        help="emit the counters as JSON (machine-readable)",
    )
    cache_clear = cache_sub.add_parser(
        "clear", help="delete every cached trace and the counters"
    )
    for cmd in (cache_stats, cache_clear):
        cmd.add_argument(
            "--cache-dir",
            default=None,
            help="trace cache directory (default: "
            "$REPRO_STREAMPIM_CACHE_DIR or ~/.cache/repro-streampim)",
        )
        cmd.set_defaults(func=_cmd_cache)

    lint = sub.add_parser(
        "lint", help="repository-invariant AST lint (SPL rules)"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    _add_rule_filter_flags(lint)
    lint.set_defaults(func=_cmd_lint)

    workloads = sub.add_parser("workloads", help="list available workloads")
    workloads.add_argument(
        "--json",
        action="store_true",
        help="emit the registry as JSON (machine-readable)",
    )
    workloads.set_defaults(func=_cmd_workloads)

    calibrate = sub.add_parser(
        "calibrate",
        help="analytic predictor error vs the trace executor",
    )
    calibrate.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        metavar="NAME[:SCALE]",
        help="cases to calibrate (default: the full buildable set)",
    )
    calibrate.add_argument(
        "--heavy",
        action="store_true",
        help="include bert (~24M commands; the simulation side alone "
        "takes ~10 minutes)",
    )
    calibrate.add_argument("--seed", type=int, default=DEFAULT_SEED)
    calibrate.add_argument(
        "-o", "--output", default=None, help="write the report as JSON"
    )
    _add_cache_flags(calibrate)
    calibrate.set_defaults(func=_cmd_calibrate)

    explore = sub.add_parser(
        "explore",
        help="analytic design-space sweep + Pareto re-simulation",
    )
    explore.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        metavar="NAME[:SCALE]",
        help="workload axis of the grid (default: gemm:0.02 plus the "
        "full-scale matvec family)",
    )
    explore.add_argument(
        "--policies",
        nargs="*",
        default=None,
        choices=("base", "distribute", "unblock"),
        help="scheduler-policy axis (default: all three)",
    )
    explore.add_argument(
        "--read-scales",
        nargs="*",
        type=float,
        default=None,
        metavar="X",
        help="read-port latency multipliers (energy scales inversely)",
    )
    explore.add_argument(
        "--write-scales",
        nargs="*",
        type=float,
        default=None,
        metavar="X",
        help="write-port latency multipliers (energy scales inversely)",
    )
    explore.add_argument(
        "--decode-ns",
        nargs="*",
        type=float,
        default=None,
        metavar="NS",
        help="host decode overheads per VPC",
    )
    explore.add_argument(
        "--verify-limit",
        type=int,
        default=None,
        metavar="N",
        help="re-simulate at most N frontier points per workload "
        "(default: the whole frontier)",
    )
    explore.add_argument("--seed", type=int, default=DEFAULT_SEED)
    explore.add_argument(
        "-o", "--output", default=None, help="write the report as JSON"
    )
    _add_cache_flags(explore)
    explore.set_defaults(func=_cmd_explore)

    serve = sub.add_parser(
        "serve",
        help="long-lived simulation service over a unix socket / TCP",
    )
    serve.add_argument(
        "--socket", default=None, metavar="PATH", help="unix socket path"
    )
    serve.add_argument(
        "--host",
        default=None,
        help="TCP bind host (alternative to --socket)",
    )
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--http-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve the HTTP/REST API on this port (0 = ephemeral; "
        "POST /v1/run, POST /v1/compile, GET /v1/stats, POST /v1/drain)",
    )
    serve.add_argument(
        "--http-host",
        default="127.0.0.1",
        help="HTTP bind host (with --http-port)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="worker process count"
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=1,
        help="most compatible run requests one worker dispatch may "
        "carry (1 disables batching)",
    )
    serve.add_argument(
        "--batch-linger-ms",
        type=float,
        default=0.0,
        help="milliseconds a partial batch may wait for more "
        "compatible requests before dispatching anyway",
    )
    serve.add_argument(
        "--drr-quantum",
        type=float,
        default=1.0,
        help="deficit-round-robin quantum granted per tenant per "
        "round (cost is 1 per request)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="bounded accept queue; beyond it requests shed QUEUE_FULL",
    )
    serve.add_argument(
        "--tenant-rate",
        type=float,
        default=50.0,
        help="per-tenant token refill rate (requests/second)",
    )
    serve.add_argument(
        "--tenant-burst",
        type=float,
        default=100.0,
        help="per-tenant token bucket capacity",
    )
    serve.add_argument(
        "--default-deadline",
        type=float,
        default=30.0,
        help="deadline (seconds) for requests that set none",
    )
    serve.add_argument(
        "--hang-grace",
        type=float,
        default=2.0,
        help="seconds past its deadline an in-flight request may run "
        "before its worker is presumed hung and killed",
    )
    serve.add_argument(
        "--max-redeliveries",
        type=int,
        default=2,
        help="crash redeliveries per request before DEAD_LETTER",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="total attempts per request for retryable failures",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive worker-killing failures that open a "
        "workload class's circuit",
    )
    serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=5.0,
        help="seconds an open circuit waits before half-opening",
    )
    serve.add_argument(
        "--responded-ledger-limit",
        type=int,
        default=8192,
        help="request ids remembered by the exactly-once ledger "
        "(duplicate-id rejection window; retries need fresh ids)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds accepted work may finish after SIGTERM/drain",
    )
    serve.add_argument(
        "--chaos",
        action="store_true",
        help="honour x-crash/x-sleep/x-fault debug methods "
        "(chaos benching only; never in production)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="trace cache directory workers compile into (default: "
        "$REPRO_STREAMPIM_CACHE_DIR or ~/.cache/repro-streampim)",
    )
    serve.set_defaults(func=_cmd_serve)

    client = sub.add_parser(
        "client", help="send one request to a running service"
    )
    client.add_argument(
        "method",
        help="request method: run, compile, ping, stats, drain",
    )
    client.add_argument(
        "--socket", default=None, metavar="PATH", help="unix socket path"
    )
    client.add_argument("--host", default=None, help="TCP host")
    client.add_argument("--port", type=int, default=0, help="TCP port")
    client.add_argument(
        "--workload", default=None, help="params.workload shorthand"
    )
    client.add_argument(
        "--platform", default=None, help="params.platform shorthand"
    )
    client.add_argument(
        "--scale", type=float, default=None, help="params.scale shorthand"
    )
    client.add_argument(
        "--params",
        default=None,
        metavar="JSON",
        help="request params as a JSON object (merged under the "
        "shorthand flags)",
    )
    client.add_argument(
        "--deadline-ms",
        dest="deadline_ms",
        type=float,
        default=None,
        help="per-request deadline in milliseconds",
    )
    client.add_argument(
        "--tenant", default="default", help="admission tenant label"
    )
    client.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="socket timeout in seconds",
    )
    client.set_defaults(func=_cmd_client)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - direct invocation
    sys.exit(main())
