#!/usr/bin/env python3
"""Benchmark of the StreamPIM reproduction (see ``perfbench/README.md``).

    python3 perfbench/run.py --workload cold --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--trace 1]
    python3 perfbench/run.py --self-check [--out FILE]

A call measures one workload in fresh child processes with a pinned
environment and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--all`` runs
every workload and prints each metric with its unit; ``--self-check``
runs every workload as two sets of seeded runs and reports every
end-to-end metric's spread and shift against its bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from harness import (
    REF_KERNEL_MS,
    RESULT_MARK,
    SETUP_MARK,
    load_benchmark,
    merge_parts,
    relative_spread,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper", "cold", "warm", "serve")
#: Measuring processes of an untraced call, each for a third of the run.
#: Memory layout differs from process to process and can slow some items
#: for a process's whole life; an item's fastest pass in any of them
#: escapes that, as the fastest pass escapes slow stretches of host time.
MEASURE_PROCESSES = 3
#: Seeded runs in each of the two sets of ``--self-check``.
RUNS_PER_SET = 5
#: A call must end within 180 s; its processes are killed past this.
CALL_LIMIT_S = 170.0
PINNED_ENV = {
    # NumPy links an OpenBLAS built for 64 threads; on a 2-core host one
    # thread per process keeps BLAS calls from oversubscribing it.
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # glibc raises its mmap threshold after large frees, up to 32 MiB, so
    # whether later arrays land on the heap depends on allocation history
    # and the same pass peaked at 94 or 355 MB.  Fixed at that ceiling,
    # arrays below 32 MiB always come from the heap.
    "MALLOC_MMAP_THRESHOLD_": str(32 * 1024 * 1024),
}


class BenchError(RuntimeError):
    """A call that cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    # A cache the program opens by default stays inside the checkout.
    env["REPRO_STREAMPIM_CACHE_DIR"] = str(ROOT / ".perfbench" / "cache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def compile_bytecode() -> bool:
    """Byte-compile the program and the benchmark before any timing."""
    return all(
        compileall.compile_dir(str(path), quiet=1) for path in (ROOT / "src", BENCH_DIR)
    )


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def wait_group_gone(pgid: int, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_worker(argv: list, deadline: float, echo: bool):
    """Run one worker; returns (its set-up seconds, its result or None)."""
    begin = time.perf_counter()
    process = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    # The worker's process group holds everything it starts (a server and
    # its pool), so one kill at the deadline stops all of it.
    watchdog = threading.Timer(
        max(0.0, deadline - time.monotonic()), kill_group, (process.pid,)
    )
    watchdog.daemon = True
    watchdog.start()
    setup_s = result = None
    try:
        for line in process.stdout:
            line = line.rstrip("\n")
            if line == SETUP_MARK:
                setup_s = time.perf_counter() - begin
            elif line.startswith(RESULT_MARK):
                result = json.loads(line[len(RESULT_MARK):])
            elif echo:
                print(line, flush=True)
    except BaseException:
        kill_group(process.pid)
        raise
    finally:
        watchdog.cancel()
        code = process.wait()
        process.stdout.close()
        kill_group(process.pid)  # anything the worker left behind
        wait_group_gone(process.pid)
    if code != 0:
        raise BenchError(f"worker {' '.join(argv[2:])} exited with code {code}")
    if setup_s is None:
        raise BenchError("the worker never reported its set-up")
    return setup_s, result


def run_call(workload: str, seed: int, seconds: int, trace: int, echo: bool = True) -> dict:
    """One benchmark call: fresh measuring processes, each timed to its
    set-up.

    An untraced call splits the run over :data:`MEASURE_PROCESSES`
    processes and merges their parts.  ``setup_s`` is the fastest of
    their set-ups and those of the fresh processes they run between
    their passes: host noise only slows a set-up down, and the host
    switches between fast and slow stretches that last seconds, so a
    median of nine still flips between the two.
    """
    deadline = time.monotonic() + CALL_LIMIT_S
    scratch = Path(".perfbench") / f"{workload}-{seed}-{os.getpid()}"
    count = 1 if trace else MEASURE_PROCESSES
    setups, results = [], []
    try:
        for index in range(count):
            argv = [
                sys.executable, str(BENCH_DIR / "worker.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds / count), "--trace", str(trace),
                "--role", "measure", "--scratch", str(scratch / f"m{index}"),
            ]
            setup_s, result = run_worker(argv, deadline, echo)
            if result is None:
                raise BenchError(f"{workload}: the worker printed no result")
            setups += [setup_s] + result.pop("setup_probes_s")
            results.append(result)
    finally:
        shutil.rmtree(ROOT / scratch, ignore_errors=True)
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"],
    }
    if not trace:
        values = merge_parts([r["parts"] for r in results])
        values["setup_s"] = min(setups)
        units = {name: metric["unit"] for name, metric in results[0]["metrics"].items()}
        units["setup_s"] = "s"
        merged["metrics"] = {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        }
        if echo:
            print(f"{workload} (seed {seed}), merged over {count} processes:")
            for name, metric in merged["metrics"].items():
                print(f"  {name:<36} {metric['value']:>18.6f} {metric['unit']}")
            if "host_scale" in values:
                scale = values["host_scale"]
                print(
                    f"  batch timings scaled by {scale:.4f} (reference kernel at its "
                    f"fastest {REF_KERNEL_MS / scale:.3f} ms, scaled to {REF_KERNEL_MS:g} ms); "
                    f"as measured: latency_ms {values['latency_ms'] / scale:.6g}, "
                    f"latency_tail_ms {values['latency_tail_ms'] / scale:.6g}, "
                    f"work_per_s {values['work_per_s'] * scale:.6g}"
                )
            print(
                f"  setup_s is the fastest of {len(setups)} fresh-process set-ups: "
                + ", ".join(f"{s:.4f}" for s in setups)
                + " s"
            )
    return merged


def run_all(args) -> int:
    """Every workload in turn; one table of every metric with its unit."""
    bench = load_benchmark(ROOT)
    results = {}
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        results[workload] = run_call(workload, args.seed, args.seconds, args.trace)
    specs = bench["per_layer" if args.trace else "end_to_end"]
    print()
    print(f"{'metric [unit, better]':<46}" + "".join(f"{w:>16}" for w in results))
    for spec in specs:
        label = f"{spec['name']} [{spec['unit']}, {spec['better']}]"
        cells = "".join(
            f"{results[w]['metrics'][spec['name']]['value']:>16.6g}" for w in results
        )
        print(f"{label:<46}{cells}")
    cells = "".join(
        f"{results[w]['failed'] / results[w]['attempted']:>16.6g}" for w in results
    )
    print(f"{'error_ratio [ratio, lower]':<46}{cells}")
    if args.out:
        args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in results.values()) else 1


def self_check(args) -> int:
    """Two sets of seeded runs per workload, their runs alternating.

    For every end-to-end metric it reports the spread of the runs (the
    quartile distance over the median, per set and pooled) and how much
    worse the second set's median is than the first's, against the
    metric's bound; both must stay within it.  The record written to
    ``--out`` replaces any earlier one.
    """
    bench = load_benchmark(ROOT)
    out = args.out or ROOT / ".perfbench" / "self-check.json"
    record = {"runs_per_set": RUNS_PER_SET, "seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in WORKLOADS:
        sets = ([], [])
        for run in range(RUNS_PER_SET):
            for which in (0, 1):
                seed = 2 * run + which + 1
                sets[which].append(run_call(workload, seed, args.seconds, 0, echo=False))
        traced = run_call(workload, 1, args.seconds, 1, echo=False)
        rows = {}
        print(f"== {workload}: {RUNS_PER_SET} + {RUNS_PER_SET} runs, seeds 1-{2 * RUNS_PER_SET}")
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            a = [r["metrics"][name]["value"] for r in sets[0]]
            b = [r["metrics"][name]["value"] for r in sets[1]]
            pooled = a + b
            shift = statistics.median(b) / statistics.median(a) - 1.0
            if spec["better"] == "higher":
                shift = -shift
            q1, _, q3 = statistics.quantiles(pooled, n=4)
            row = {
                "bound": bound,
                "set_a": a,
                "set_b": b,
                "median": statistics.median(pooled),
                "q1": q1,
                "q3": q3,
                "spread": relative_spread(pooled),
                "spread_a": relative_spread(a),
                "spread_b": relative_spread(b),
                "shift": shift,
            }
            ok = shift <= bound and row["spread"] <= bound
            steady = steady and ok
            rows[name] = row
            print(
                f"  {name:<16} median {row['median']:>12.6g} {spec['unit']:<4} "
                f"spread {row['spread']:6.1%} (sets {row['spread_a']:5.1%}, "
                f"{row['spread_b']:5.1%})  shift {shift:+6.1%}  "
                f"bound {bound:4.0%}  {'ok' if ok else 'OVER'}"
            )
        runs = sets[0] + sets[1]
        record["workloads"][workload] = {
            "end_to_end": rows,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "traced_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(
            f"  failed {record['workloads'][workload]['failed']} of "
            f"{record['workloads'][workload]['attempted']} attempted",
            flush=True,
        )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"record written to {out}")
    return 0 if steady else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true", help="run every workload")
    mode.add_argument(
        "--self-check", action="store_true", help="two sets of runs per workload"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=int, help="run length (default: run_seconds of BENCHMARK.json)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="JSON record of --all or --self-check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    if not compile_bytecode():
        print("perfbench: byte-compiling src/ or perfbench/ failed", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = load_benchmark(ROOT)["run_seconds"]
    try:
        if args.self_check:
            return self_check(args)
        if args.all:
            return run_all(args)
        result = run_call(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
