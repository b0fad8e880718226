"""One workload process, driven by ``run.py``.

    python3 perfbench/worker.py --workload cold --seed 1 --seconds 20 \\
        --trace 0 --role measure --scratch .perfbench/cold-1-0/rep0

Sets the workload up and prints the set-up marker.  In the ``measure``
role it then measures, prints a readable report, and prints one result
line carrying exactly the metrics ``BENCHMARK.json`` declares.  An
untraced measurement also runs :data:`SETUP_PROBES` fresh ``setup``-role
processes between its passes and reports their set-up times.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from harness import RESULT_MARK, SETUP_MARK, SetupProbes, load_benchmark

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper", "cold", "warm", "serve")
#: Set-ups timed beside an untraced measurement.  A call runs three
#: measuring processes, so ``setup_s`` is the fastest of nine.
SETUP_PROBES = 2


def make_workload(name: str):
    if name == "serve":
        from serve_load import ServeWorkload

        return ServeWorkload()
    from batch import BATCH_WORKLOADS

    return BATCH_WORKLOADS[name]()


def declared(values: dict, specs: list, fill: bool) -> dict:
    """``values`` as the declared metrics, each with its unit.

    With ``fill``, a per-layer metric of a layer the workload never calls
    reads 0; a metric that is undeclared, or otherwise missing, is a bug.
    """
    names = [spec["name"] for spec in specs]
    unknown = sorted(set(values) - set(names))
    missing = [name for name in names if name not in values]
    if unknown or (missing and not fill):
        raise KeyError(f"metrics undeclared: {unknown}, missing: {missing}")
    return {
        spec["name"]: {"value": float(values.get(spec["name"], 0.0)), "unit": spec["unit"]}
        for spec in specs
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = load_benchmark(ROOT)
    workload = make_workload(args.workload)

    def probe_argv(index: int) -> list:
        return [
            sys.executable, __file__,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--role", "setup",
            "--scratch", str(args.scratch / f"probe{index}"),
        ]

    try:
        workload.setup(args.seed, args.scratch)
        print(SETUP_MARK, flush=True)
        if args.role == "setup":
            return 0
        count = 0 if args.trace else SETUP_PROBES
        probes = SetupProbes(probe_argv, count, args.seconds, ROOT)
        measured = workload.measure(args.seconds, bool(args.trace), probes)
        setup_probes_s = probes.finish()
    finally:
        workload.close()

    outcomes = measured["outcomes"]
    if args.trace:
        metrics = declared(measured["per_layer"], bench["per_layer"], fill=True)
    else:
        specs = [s for s in bench["end_to_end"] if s["name"] != "setup_s"]
        metrics = declared(measured["end_to_end"], specs, fill=False)
    mode = "traced" if args.trace else "untraced"
    print(f"{args.workload} (seed {args.seed}, {mode}):")
    for note in measured["notes"]:
        print(f"  {note}")
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:>18.6f} {metric['unit']}")
    if not args.trace:
        print("  counts and host probe (one pass; exact unless a time):")
        for name, value in sorted(measured["per_layer"].items()):
            print(f"    {name:<34} {value:.17g}")
    print(
        f"  error_ratio {outcomes.error_ratio:.6g} "
        f"({outcomes.failed} of {outcomes.attempted} failed)"
    )
    for reason in outcomes.reasons:
        print(f"  FAILED {reason}")
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
        "setup_probes_s": setup_probes_s,
        "parts": measured["parts"],
    }
    print(RESULT_MARK + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
