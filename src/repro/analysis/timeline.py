"""Schedule timelines: when preparation and compute actually run.

The ``unblock`` optimisation is about *when* things happen — preparation
flowing behind compute.  This module reconstructs interval timelines
from a round plan under each scheduling policy, exports them as CSV, and
renders an ASCII Gantt chart, making the Fig. 22 mechanism visible:

    prep    |▒▒▒░░░░▒▒▒░░░░            |   (blocked: serialised)
    compute |   ████   ████            |

    prep    |▒▒▒▒▒▒                    |   (unblock: overlapped)
    compute |█████████                 |
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import List, Optional, Sequence, TextIO, Union

from repro.core.scheduler import Round, Scheduler, SchedulerPolicy


@dataclass(frozen=True)
class Interval:
    """One busy interval of one lane."""

    lane: str  # "prep" or "compute"
    start_ns: float
    end_ns: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.end_ns < self.start_ns:
            raise ValueError("interval ends before it starts")

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


def schedule_timeline(
    scheduler: Scheduler, rounds: Sequence[Round]
) -> List[Interval]:
    """Reconstruct the prep/compute interval timeline of a round plan.

    Serial policies alternate prep and compute; under ``unblock`` the
    compute lane runs back-to-back after the startup copy while the prep
    lane streams continuously beside it (the fluid software-pipelining
    model of the scheduler).  A run of ``repeat`` rounds is expanded
    into ``repeat`` rounds that all carry the run's label.
    """
    intervals: List[Interval] = []
    if not rounds:
        return intervals
    expanded = [
        (run, scheduler.prep_duration_ns(run))
        for run in rounds
        for _ in range(run.repeat)
    ]
    if not scheduler.policy.overlaps_prep:
        clock = 0.0
        for index, (round_, prep) in enumerate(expanded):
            if prep > 0:
                intervals.append(
                    Interval("prep", clock, clock + prep, round_.label)
                )
                clock += prep
            if round_.compute_ns > 0:
                intervals.append(
                    Interval(
                        "compute",
                        clock,
                        clock + round_.compute_ns,
                        round_.label or f"round {index}",
                    )
                )
                clock += round_.compute_ns
        return intervals

    first, first_prep = expanded[0]
    startup = first_prep / max(1, first.prep_targets)
    if startup > 0:
        intervals.append(Interval("prep", 0.0, startup, "startup copy"))
    compute_clock = startup
    prep_clock = startup
    for index, (round_, prep) in enumerate(expanded):
        if round_.compute_ns > 0:
            intervals.append(
                Interval(
                    "compute",
                    compute_clock,
                    compute_clock + round_.compute_ns,
                    round_.label or f"round {index}",
                )
            )
            compute_clock += round_.compute_ns
        remaining = prep - (startup if index == 0 else 0.0)
        if remaining > 0:
            intervals.append(
                Interval(
                    "prep",
                    prep_clock,
                    prep_clock + remaining,
                    round_.label,
                )
            )
            prep_clock += remaining
    return intervals


def timeline_to_csv(
    intervals: Sequence[Interval],
    target: Union[str, TextIO],
) -> None:
    """Write a timeline as CSV (lane, start_ns, end_ns, label).

    Labels are emitted through the :mod:`csv` module, so commas, quotes
    and newlines in round labels survive quoting intact instead of
    corrupting the row structure; :func:`timeline_from_csv` reads the
    file back losslessly (timestamps are rounded to 3 decimals on the
    way out).
    """
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            timeline_to_csv(intervals, handle)
        return
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(["lane", "start_ns", "end_ns", "label"])
    for interval in intervals:
        writer.writerow(
            [
                interval.lane,
                f"{interval.start_ns:.3f}",
                f"{interval.end_ns:.3f}",
                interval.label,
            ]
        )


def timeline_from_csv(
    source: Union[str, TextIO],
) -> List[Interval]:
    """Read a :func:`timeline_to_csv` file back into intervals."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return timeline_from_csv(handle)
    reader = csv.reader(source)
    header = next(reader, None)
    if header != ["lane", "start_ns", "end_ns", "label"]:
        raise ValueError(f"unrecognised timeline CSV header: {header!r}")
    intervals = []
    for row in reader:
        if not row:
            continue
        if len(row) != 4:
            raise ValueError(f"malformed timeline CSV row: {row!r}")
        lane, start, end, label = row
        intervals.append(Interval(lane, float(start), float(end), label))
    return intervals


def render_gantt(
    intervals: Sequence[Interval], width: int = 60
) -> str:
    """ASCII Gantt chart: one row per lane, time left to right."""
    if not intervals:
        raise ValueError("empty timeline")
    if width <= 0:
        raise ValueError("width must be positive")
    span = max(interval.end_ns for interval in intervals)
    if span <= 0:
        raise ValueError("timeline has zero span")
    lanes = []
    for lane in ("prep", "compute"):
        if any(i.lane == lane for i in intervals):
            lanes.append(lane)
    glyphs = {"prep": "▒", "compute": "█"}
    rows = []
    for lane in lanes:
        cells = [" "] * width
        for interval in intervals:
            if interval.lane != lane:
                continue
            first = int(interval.start_ns / span * width)
            last = max(first + 1, int(interval.end_ns / span * width))
            for cell in range(first, min(last, width)):
                cells[cell] = glyphs[lane]
        rows.append(f"{lane.rjust(7)} |{''.join(cells)}|")
    rows.append(f"{'':7s}  0 {'-' * (width - 12)} {span / 1e3:.1f} us")
    return "\n".join(rows)
