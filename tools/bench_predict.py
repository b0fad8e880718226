#!/usr/bin/env python
"""Accuracy and speedup gates for the closed-form performance predictor.

Two sections, both written into one JSON artifact (``BENCH_predict.json``)
and both gating the exit status:

* **Calibration** — the full buildable workload set through the vector
  engine and the analytic model (:mod:`repro.analysis.calibrate`); every
  workload must stay inside its documented per-class time bound
  (``docs/modeling.md``: chained-matvec 3%, matmul 8%, dnn 10%) and the
  global 10%/15% time/energy acceptance bounds.

* **Analytic-sweep speedup** — per sweep workload: compile once, then
  (a) time one *simulated* design point — fresh device + operand
  materialisation + functional vector execution, the default execution
  path — and (b) time the analytic side of an N-point timing sweep:
  one TracePredictor build plus N closed-form evaluations.  The gated
  figure is the aggregate wall-time reduction of the sweep::

      speedup = sum_w(sim_point_s[w]) * N / analytic_total_s

  i.e. what simulating every point of the sweep would cost versus what
  the analytic sweep actually cost.  Floor: ``--min-speedup`` (100x).

Run directly or via ``make bench-predict``::

    PYTHONPATH=src python tools/bench_predict.py \
        --timing-points 8 --min-speedup 100 --out BENCH_predict.json
"""

from __future__ import annotations

import argparse
import sys
import time

from bench_common import report_failures, write_json

from repro.analysis.calibrate import run_calibration  # noqa: E402
from repro.analysis.predictor import (  # noqa: E402
    AnalyticDevice,
    TracePredictor,
)

#: (read_scale, write_scale, vpc_decode_ns) timing points of the sweep
#: side; the first entry is the paper's default configuration.
TIMING_POINTS = [
    (1.0, 1.0, 10.0),
    (0.5, 1.0, 10.0),
    (2.0, 1.0, 10.0),
    (1.0, 0.5, 10.0),
    (1.0, 2.0, 10.0),
    (1.0, 1.0, 5.0),
    (1.0, 1.0, 40.0),
    (2.0, 2.0, 20.0),
]

SWEEP_WORKLOADS = [("gemm", 0.05), ("3mm", 0.05), ("mlp", None)]


def _parse_cases(items):
    cases = []
    for item in items:
        name, sep, scale = item.partition(":")
        cases.append((name, float(scale) if sep else None))
    return cases


def _point_config(base, read_scale, write_scale, decode_ns):
    from dataclasses import replace

    timing = replace(
        base.timing,
        read_ns=base.timing.read_ns * read_scale,
        write_ns=base.timing.write_ns * write_scale,
    )
    return replace(base, timing=timing, vpc_decode_ns=decode_ns)


def run_sweep_gate(args, failures):
    """Measured analytic-sweep speedup over the simulated baseline."""
    from repro.core.compile import compile_workload
    from repro.core.device import StreamPIMConfig, StreamPIMDevice
    from repro.workloads import find_workload

    base = StreamPIMConfig()
    points = list(TIMING_POINTS)
    while len(points) < args.timing_points:
        # Extend cyclically with distinct decode offsets so any
        # requested width is honoured.
        r, w, d = TIMING_POINTS[len(points) % len(TIMING_POINTS)]
        points.append(
            (r, w, d + 2.5 * (len(points) // len(TIMING_POINTS)))
        )
    points = points[: args.timing_points]
    workloads = (
        _parse_cases(args.sweep_workloads)
        if args.sweep_workloads
        else SWEEP_WORKLOADS
    )

    per_workload = {}
    sim_total_s = 0.0
    analytic_total_s = 0.0
    for name, scale in workloads:
        spec = (
            find_workload(name, scale=scale)
            if scale is not None
            else find_workload(name)
        )
        compiled = compile_workload(spec, seed=args.seed)

        # Simulated design point: the default execution path end to end
        # (fresh device, operand materialisation, functional vector
        # execution) — what a sweep would pay per point without the
        # analytic model.
        t0 = time.perf_counter()
        device = StreamPIMDevice(base)
        compiled.task.materialize(device)
        stats = device.execute_trace(
            compiled.trace,
            workload=spec.name,
            functional=True,
            verify=False,
        )
        sim_s = time.perf_counter() - t0

        # Analytic sweep: one predictor build + N closed-form points.
        t0 = time.perf_counter()
        predictor = TracePredictor(
            compiled.trace, device.address_map.words_per_subarray
        )
        build_s = time.perf_counter() - t0
        predict_s = 0.0
        default_predicted = None
        for read_scale, write_scale, decode_ns in points:
            config = _point_config(
                base, read_scale, write_scale, decode_ns
            )
            t0 = time.perf_counter()
            predicted = predictor.predict(
                AnalyticDevice(config), workload=spec.name
            )
            predict_s += time.perf_counter() - t0
            if (read_scale, write_scale, decode_ns) == (1.0, 1.0, 10.0):
                default_predicted = predicted

        time_err = None
        if default_predicted is not None:
            time_err = (
                default_predicted.time_ns - stats.time_ns
            ) / stats.time_ns
            if abs(time_err) > args.max_sweep_error:
                failures.append(
                    f"sweep cross-check: {spec.name} predicted time off "
                    f"by {time_err * 100:+.2f}% at the default point "
                    f"(max {args.max_sweep_error * 100:.0f}%)"
                )
        sim_total_s += sim_s
        analytic_total_s += build_s + predict_s
        per_workload[f"{name}" + (f"@{scale:g}" if scale else "")] = {
            "commands": predictor.commands,
            "sim_point_s": round(sim_s, 4),
            "predictor_build_s": round(build_s, 4),
            "predict_total_s": round(predict_s, 4),
            "predict_per_point_ms": round(
                predict_s / len(points) * 1e3, 3
            ),
            "default_point_time_error": time_err,
        }
        print(
            f"  {spec.name:<6} {predictor.commands:>8,} cmds  "
            f"sim point {sim_s:6.2f}s  build {build_s * 1e3:6.1f}ms  "
            f"{len(points)} predictions {predict_s * 1e3:7.1f}ms"
        )

    estimated_sim_sweep_s = sim_total_s * len(points)
    speedup = (
        estimated_sim_sweep_s / analytic_total_s
        if analytic_total_s > 0
        else float("inf")
    )
    print(
        f"sweep: {len(points)} points x {len(workloads)} workloads  "
        f"simulated ~{estimated_sim_sweep_s:.1f}s vs analytic "
        f"{analytic_total_s:.2f}s  speedup {speedup:.0f}x "
        f"(floor {args.min_speedup}x)"
    )
    if speedup < args.min_speedup:
        failures.append(
            f"analytic-sweep speedup {speedup:.0f}x below the "
            f"{args.min_speedup}x floor"
        )
    return {
        "timing_points": len(points),
        "workloads": per_workload,
        "sim_point_total_s": round(sim_total_s, 4),
        "estimated_sim_sweep_s": round(estimated_sim_sweep_s, 2),
        "analytic_total_s": round(analytic_total_s, 4),
        "speedup": round(speedup, 1),
        "min_speedup": args.min_speedup,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        metavar="NAME[:SCALE]",
        help="calibration cases (default: the full buildable set)",
    )
    parser.add_argument(
        "--heavy",
        action="store_true",
        help="include bert in the calibration (~10 extra minutes)",
    )
    parser.add_argument(
        "--sweep-workloads",
        nargs="*",
        default=None,
        metavar="NAME[:SCALE]",
        help="workloads of the speedup gate (default: gemm:0.05, "
        "3mm:0.05, mlp)",
    )
    parser.add_argument(
        "--timing-points",
        type=int,
        default=32,
        help="timing points per workload on the analytic sweep side "
        "(wide enough to amortise the one-time predictor builds, as "
        "the explorer's 1,000+-point grids do)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=100.0,
        help="fail if the analytic-sweep speedup drops below this",
    )
    parser.add_argument(
        "--max-sweep-error",
        type=float,
        default=0.10,
        help="max |predicted-simulated|/simulated time error at the "
        "sweep gate's default point",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    failures = []

    print("calibration: analytic model vs the vector engine")
    cases = _parse_cases(args.workloads) if args.workloads else None

    def show(result):
        scale = "" if result.scale is None else f"@{result.scale:g}"
        print(
            f"  {result.workload + scale:<12} "
            f"[{result.workload_class:<14}] "
            f"{result.commands:>9,} cmds  "
            f"time {result.time_rel_error * 100:+7.3f}% "
            f"(bound {result.class_time_bound * 100:.0f}%)  "
            f"energy {result.energy_rel_error * 100:+.1e}%"
        )

    report = run_calibration(
        cases, seed=args.seed, heavy=args.heavy, progress=show
    )
    print(
        f"calibration: max |time err| "
        f"{report.max_abs_time_error * 100:.3f}%, max |energy err| "
        f"{report.max_abs_energy_error * 100:.2e}%"
    )
    if not report.ok():
        failures.append(
            "calibration out of bounds: "
            + ", ".join(
                f"{r.workload}@{r.scale} time "
                f"{r.time_rel_error * 100:+.2f}%"
                for r in report.results
                if not r.ok
            )
        )

    print("analytic-sweep speedup gate")
    sweep = run_sweep_gate(args, failures)

    payload = {
        "calibration": report.to_dict(),
        "sweep": sweep,
        "failures": failures,
        "ok": not failures,
    }
    write_json(args.out, payload, "BENCH_predict.json", indent=1)
    return report_failures(failures)


if __name__ == "__main__":
    sys.exit(main())
