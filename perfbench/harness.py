"""Pure helpers of the benchmark.

Pass aggregation, the tail-percentile rule, open-loop timing, output
check bookkeeping, the host reference kernel, set-up probes and process
probes.
Nothing here imports the simulator, so ``perfbench/tests`` runs without
it.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Line a worker prints once its workload is set up.
SETUP_MARK = "@@perfbench setup-done"
#: Prefix of the line carrying a worker's result.
RESULT_MARK = "@@perfbench result "


def load_benchmark(root: Path) -> dict:
    """The benchmark definition: workloads, metrics, units and bounds."""
    return json.loads((root / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Batch workloads: interleaved passes
# ----------------------------------------------------------------------
def fastest_per_item(passes: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Each item's fastest time over interleaved passes.

    Host noise only ever slows a run down, so the minimum over passes is
    the estimate closest to the code's own cost.  An item missing from a
    pass (it failed there) keeps its times from the other passes.
    """
    best: Dict[str, float] = {}
    for times in passes:
        for item, seconds in times.items():
            if item not in best or seconds < best[item]:
                best[item] = seconds
    return best


@dataclass(frozen=True)
class Tail:
    """One tail statistic: ``value`` is the sample at ``percentile``,
    with ``beyond`` of the ``samples`` above it."""

    percentile: float
    value: float
    samples: int
    beyond: int


def tail(values: Sequence[float], beyond: int = 10) -> Tail:
    """The highest percentile with at least ``beyond`` samples beyond it.

    For ``n`` sorted samples that is the ``n - beyond``-th one, the
    ``100 * (n - beyond) / n``-th percentile.  With ``beyond`` samples or
    fewer no percentile qualifies, and the maximum is returned as the
    100th percentile with nothing beyond it.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of an empty sample")
    n = len(ordered)
    if n <= beyond:
        return Tail(100.0, ordered[-1], n, 0)
    rank = n - beyond
    return Tail(100.0 * rank / n, ordered[rank - 1], n, beyond)


def batch_summary(
    passes: Sequence[Mapping[str, float]], work: Mapping[str, float]
) -> Tuple[float, Tail, float]:
    """``latency_ms``, its tail and ``work_per_s`` of a batch workload.

    Latency is the median over items of each item's fastest pass, in
    milliseconds; throughput is the items' summed work over their summed
    fastest times.
    """
    fastest = fastest_per_item(passes)
    if not fastest:
        raise ValueError("no item succeeded in any pass")
    millis = [seconds * 1000.0 for seconds in fastest.values()]
    per_second = sum(work[item] for item in fastest) / sum(fastest.values())
    return statistics.median(millis), tail(millis), per_second


def merge_parts(parts: Sequence[Mapping[str, object]]) -> Dict[str, float]:
    """End-to-end metrics of one call from its measuring processes' parts.

    Batch workloads: each item at its fastest pass in any process, then
    :func:`batch_summary`, with the timings scaled by
    :func:`host_scale` (returned as ``host_scale``).  ``serve``:
    latencies from the fastest pass of any process, throughput over all
    of them.  Peak RSS: the median process.
    """
    peak = statistics.median(float(part["peak_rss_mb"]) for part in parts)
    if "fastest_s" in parts[0]:
        work: Dict[str, float] = {}
        for part in parts:
            work.update(part["work"])
        latency, item_tail, per_second = batch_summary(
            [part["fastest_s"] for part in parts], work
        )
        scale = host_scale([part["ref_min_ms"] for part in parts])
        return {
            "latency_ms": latency * scale,
            "latency_tail_ms": item_tail.value * scale,
            "work_per_s": per_second / scale,
            "peak_rss_mb": peak,
            "host_scale": scale,
        }
    return {
        "latency_ms": min(v for part in parts for v in part["pass_p50_ms"]),
        "latency_tail_ms": min(v for part in parts for v in part["pass_tail_ms"]),
        "work_per_s": sum(part["completed"] for part in parts)
        / sum(part["window_s"] for part in parts),
        "peak_rss_mb": peak,
    }


def relative_spread(values: Sequence[float]) -> float:
    """Quartile distance over the median (``statistics.quantiles``, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else float("inf")


# ----------------------------------------------------------------------
# Serve workload: open loop
# ----------------------------------------------------------------------
@dataclass
class Request:
    """One open-loop request and the times the client saw for it."""

    index: int
    due: float
    sent: Optional[float] = None
    arrived: Optional[float] = None
    ok: bool = False

    @property
    def latency_ms(self) -> float:
        """Time from when the request was due, not from when it was sent:
        a stalled generator delays later requests, and that wait counts.
        A request that failed or never came back misses every limit."""
        if self.arrived is None or not self.ok:
            return float("inf")
        return (self.arrived - self.due) * 1000.0

    @property
    def late_ms(self) -> Optional[float]:
        """How far behind its schedule the generator sent this request."""
        if self.sent is None:
            return None
        return (self.sent - self.due) * 1000.0


def schedule(start: float, rate_per_s: float, count: int, burst: int = 1) -> List[Request]:
    """``count`` requests due at a fixed rate from ``start``, in groups of
    ``burst`` due at the same instant."""
    if rate_per_s <= 0 or burst < 1:
        raise ValueError(f"need a positive rate and burst, got {rate_per_s}, {burst}")
    return [
        Request(index=i, due=start + (i // burst) * burst / rate_per_s) for i in range(count)
    ]


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
@dataclass
class Outcomes:
    """Attempted and failed items or requests, with the first reasons.

    An item fails when it raises, is refused, misses its deadline, or
    gives a wrong output; every failure counts toward ``error_ratio``.
    """

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason or "failed")

    def check(self, label: str, got: object, expected: object) -> bool:
        """Record one output check; True when ``got == expected``."""
        ok = got == expected
        self.record(ok, f"{label}: got {got!r}, expected {expected!r}")
        return ok

    @property
    def error_ratio(self) -> float:
        """Failed over attempted; a run that attempted nothing failed."""
        if not self.attempted:
            return 1.0
        return self.failed / self.attempted


# ----------------------------------------------------------------------
# Host and process probes
# ----------------------------------------------------------------------
#: Reference-kernel time that batch timings are scaled to: its reading
#: on a 2-vCPU VM in a fast stretch of host time.
REF_KERNEL_MS = 17.0


def host_scale(ref_ms: Sequence[float]) -> float:
    """Factor that takes a call's fastest-pass timings to a host whose
    reference kernel reads :data:`REF_KERNEL_MS`.

    The host switches between fast and slow stretches, and a slow one
    can outlast a whole call; then every fastest pass of the call is
    slow, and so is the fastest reference-kernel reading beside them, by
    about the same factor.  The benchmark's own kernel, not the program,
    sets the scale, so a change to the program cannot move it.
    """
    return REF_KERNEL_MS / min(ref_ms)


def ref_kernel_ms() -> float:
    """Time a fixed pure-Python kernel (~17 ms on a 2-vCPU VM).

    Timed beside every pass: when it reads slow the host was slow, so an
    outlier run can be told apart from a slower program.
    """
    begin = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    if total != 8999955000050000:
        raise AssertionError("reference kernel miscomputed")
    return (time.perf_counter() - begin) * 1000.0


def time_to_mark(argv: List[str], cwd: Path) -> float:
    """Seconds from spawning ``argv`` until it prints :data:`SETUP_MARK`;
    the process is then waited for."""
    begin = time.perf_counter()
    process = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=cwd)
    marked = None
    with process.stdout:
        for line in process.stdout:
            if marked is None and line.rstrip("\n") == SETUP_MARK:
                marked = time.perf_counter() - begin
    code = process.wait()
    if code != 0 or marked is None:
        raise RuntimeError(f"set-up probe {' '.join(argv[1:])} failed (code {code})")
    return marked


class SetupProbes:
    """Fresh-process set-ups run between the passes of a measurement.

    Host speed switches between fast and slow stretches that last
    seconds, so set-ups run back to back all see the same stretch.
    Probe ``k`` of ``count`` falls due ``k * seconds / count`` into the
    run; :meth:`between_passes` runs the ones due and :meth:`finish` the
    rest.  ``spent`` is the time they took, which the caller keeps out
    of its pass budget.
    """

    def __init__(self, argv_for: Callable[[int], List[str]], count: int,
                 seconds: float, cwd: Path) -> None:
        self.argv_for = argv_for
        self.count = count
        self.seconds = seconds
        self.cwd = cwd
        self.times: List[float] = []
        self.spent = 0.0
        self._start = time.perf_counter()

    def _probe(self) -> None:
        begin = time.perf_counter()
        self.times.append(time_to_mark(self.argv_for(len(self.times)), self.cwd))
        self.spent += time.perf_counter() - begin

    def between_passes(self) -> None:
        elapsed = time.perf_counter() - self._start - self.spent
        while len(self.times) < self.count and (
            elapsed >= len(self.times) * self.seconds / self.count
        ):
            self._probe()

    def finish(self) -> List[float]:
        while len(self.times) < self.count:
            self._probe()
        return self.times


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _descendants(pid: int) -> List[int]:
    """``pid`` and every live process below it, from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; the fields resume after ')'.
        fields = stat[stat.rfind(b")") + 2 :].split()
        children.setdefault(int(fields[1]), []).append(int(name))
    found, todo = [], [pid]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(children.get(current, ()))
    return found


def _peak_rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak resident set of ``pid`` and its live descendants."""
    return sum(_peak_rss_kib(p) for p in _descendants(pid)) / 1024.0


def kill_tree(pid: int) -> None:
    """SIGKILL ``pid`` and every live descendant."""
    for victim in _descendants(pid):
        try:
            os.kill(victim, signal.SIGKILL)
        except ProcessLookupError:
            pass
