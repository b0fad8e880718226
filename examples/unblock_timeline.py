"""Visualise the unblock optimisation as a schedule timeline.

Builds the round plan of a matrix multiplication, reconstructs when
preparation and compute actually run under the blocked (`distribute`)
and overlapped (`unblock`) schedules, and renders both as Gantt charts —
the mechanism behind Fig. 22's ~200x.

Run:  python examples/unblock_timeline.py
"""

from dataclasses import replace

from repro.analysis.timeline import render_gantt, schedule_timeline
from repro.baselines.stpim import spec_to_task
from repro.core.device import StreamPIMConfig, StreamPIMDevice
from repro.core.scheduler import Scheduler, SchedulerPolicy
from repro.workloads import polybench_workload


def main() -> None:
    spec = polybench_workload("gemm", scale=0.01)
    device = StreamPIMDevice(StreamPIMConfig())
    task = spec_to_task(spec, device)
    placer = task._build_placer()
    handles = task._place_all(placer)
    # A readable window: the first 12 rounds, cutting the run that
    # crosses the edge short.
    rounds, left = [], 12
    for operation in task._operations:
        op_rounds, _ = task._lower(operation, handles, placer)
        for run in op_rounds:
            if left:
                rounds.append(replace(run, repeat=min(run.repeat, left)))
                left -= rounds[-1].repeat

    print(f"first {12 - left} rounds of {spec.name} (scale 0.01)")
    print()
    for policy in (SchedulerPolicy.DISTRIBUTE, SchedulerPolicy.UNBLOCK):
        scheduler = Scheduler(policy, prep_model=device.scheduler.prep_model)
        timeline = schedule_timeline(scheduler, rounds)
        end = max(interval.end_ns for interval in timeline)
        print(f"-- {policy.value}: {end / 1e3:.1f} us")
        print(render_gantt(timeline))
        print()
    print(
        "under unblock the preparation stream (▒) hides behind compute "
        "(█);\nblocked scheduling serialises them, which is the gap "
        "Fig. 22 measures."
    )


if __name__ == "__main__":
    main()
