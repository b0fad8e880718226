"""Reference span sweep: unique edges, searchsorted, difference arrays.

The engine's :func:`repro.sim.vector_exec.sweep_spans` sorts the span
edges once and reads the running coverage at each distinct edge; this
is the sweep it replaced, kept so the scalar oracle
(``tests/oracles/scalar_exec.py``) does not check the engine's sweep
against itself.  Both must return bit-identical breakdowns.
"""

from __future__ import annotations

import numpy as np

from repro.sim.stats import TimeBreakdown
from repro.sim.vector_exec import _ordered_sum


def sweep_spans(
    starts: np.ndarray, finishes: np.ndarray, is_rw: np.ndarray
) -> TimeBreakdown:
    """Sweep busy spans into exclusive time categories: sort the unique
    edges, count rw/pim coverage per elementary interval with difference
    arrays, and reduce the per-interval contributions in edge order."""
    if len(starts) == 0:
        return TimeBreakdown()
    starts = np.asarray(starts, dtype=np.float64)
    finishes = np.asarray(finishes, dtype=np.float64)
    is_rw = np.asarray(is_rw, dtype=bool)
    edges = np.unique(np.concatenate((starts, finishes)))
    n_edges = len(edges)
    if n_edges < 2:
        return TimeBreakdown()
    first = np.searchsorted(edges, starts)
    last = np.searchsorted(edges, finishes)
    rw_delta = np.bincount(
        first[is_rw], minlength=n_edges
    ) - np.bincount(last[is_rw], minlength=n_edges)
    pim_delta = np.bincount(
        first[~is_rw], minlength=n_edges
    ) - np.bincount(last[~is_rw], minlength=n_edges)
    rw_cover = np.cumsum(rw_delta)[:-1] > 0
    pim_cover = np.cumsum(pim_delta)[:-1] > 0
    widths = np.diff(edges)
    both = rw_cover & pim_cover
    rw_only = rw_cover & ~pim_cover
    pim_only = pim_cover & ~rw_cover
    return TimeBreakdown(
        read_ns=_ordered_sum(widths[rw_only] * 0.3),
        write_ns=_ordered_sum(widths[rw_only] * 0.7),
        process_ns=_ordered_sum(widths[pim_only]),
        overlapped_ns=_ordered_sum(widths[both]),
    )
