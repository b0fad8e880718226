"""Shared plumbing for the ``tools/bench_*.py`` harnesses.

Importing this module puts ``<repo>/src`` and ``<repo>`` on
``sys.path`` (every bench script runs from a source checkout, not an
installed package; the repo root makes the reference implementations
in ``tests/oracles`` importable), and the
helpers below factor out the patterns each harness used to re-implement:
best-of-N timing, the RunStats comparison field list, percentile
summaries, JSON artifact writing, and the FAIL/PASS exit protocol.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: (name, getter) pairs covering every numeric field of a RunStats that
#: engine-equivalence gates compare.
STAT_FIELDS = (
    ("time_ns", lambda s: s.time_ns),
    ("read_ns", lambda s: s.time_breakdown.read_ns),
    ("write_ns", lambda s: s.time_breakdown.write_ns),
    ("shift_ns", lambda s: s.time_breakdown.shift_ns),
    ("process_ns", lambda s: s.time_breakdown.process_ns),
    ("overlapped_ns", lambda s: s.time_breakdown.overlapped_ns),
    ("read_pj", lambda s: s.energy.read_pj),
    ("write_pj", lambda s: s.energy.write_pj),
    ("shift_pj", lambda s: s.energy.shift_pj),
    ("compute_pj", lambda s: s.energy.compute_pj),
)


def stat_values(stats) -> list:
    """The :data:`STAT_FIELDS` values of one RunStats, in order."""
    return [get(stats) for _, get in STAT_FIELDS]


def stat_mismatches(a, b) -> list:
    """Names of the :data:`STAT_FIELDS` where ``a`` and ``b`` differ."""
    return [name for name, get in STAT_FIELDS if get(a) != get(b)]


def best_of(repeats: int, fn, *args, **kwargs):
    """Best-of-N wall time of ``fn(*args, **kwargs)``.

    Runs ``fn`` ``repeats`` times and returns ``(best_seconds, result)``
    — the minimum is the least noise-contaminated estimate of the cost
    (as ``timeit`` reports), the first iteration doubles as warmup, and
    the last call's return value is handed back for correctness checks.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def percentile(values, q):
    """Linear-interpolated percentile ``q`` (0-100); None when empty."""
    if not values:
        return None
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def write_json(path, payload, default_name: str, **dump_kwargs) -> Path:
    """Write the benchmark artifact and announce it; returns the path."""
    out = Path(path or default_name)
    dump_kwargs.setdefault("indent", 2)
    out.write_text(
        json.dumps(payload, **dump_kwargs) + "\n", encoding="utf-8"
    )
    print(f"wrote {out}")
    return out


def report_failures(failures) -> int:
    """Print FAIL lines (or PASS) and return the exit status."""
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("PASS")
    return 0


__all__ = [
    "REPO_ROOT",
    "STAT_FIELDS",
    "best_of",
    "percentile",
    "report_failures",
    "stat_mismatches",
    "stat_values",
    "write_json",
]
