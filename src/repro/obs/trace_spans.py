"""Batched span construction for trace execution.

The trace executor records every busy interval as parallel
``(start, finish, is_rw)`` arrays — the columns it feeds
``sweep_spans``.  It does not know (or pay for) span *names*; this
module reconstructs the attribution afterwards, entirely from the
columnar trace, because the per-command emission order is deterministic:

* compute VPC — optional operand copy (``rw``), the engine execution
  (``pim``), optional result copy (``rw``);
* in-subarray TRAN — one ``pim`` shift span;
* cross-subarray TRAN — one ``rw`` bus-transfer span.

Because attribution is derived from the columns alone, the per-VPC
reference loop (a test oracle), whose interval arrays are bit-identical,
emits *identical* span streams and metric totals through this module —
the differential tests in ``tests/test_obs.py`` assert exact equality.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.isa.encoding import BYTE_TO_OPCODE
from repro.obs.spans import Span

#: Track name of the shared internal bus.
BUS_TRACK = "bus"


def engine_spans(
    device,
    cols,
    starts: np.ndarray,
    finishes: np.ndarray,
    is_rw: np.ndarray,
) -> List[Span]:
    """Name and attribute the executor's interval arrays as spans.

    Args:
        device: the executing
            :class:`~repro.core.device.StreamPIMDevice` (for geometry).
        cols: the executed
            :class:`~repro.isa.columnar.ColumnarTrace`.
        starts/finishes/is_rw: the engine's busy-interval columns, in
            emission order.

    Returns:
        One :class:`~repro.obs.spans.Span` per interval, in the same
        order, each carrying its trace index and word count in ``args``.
    """
    n = len(cols)
    if n == 0:
        return []
    words_per_subarray = device.address_map.words_per_subarray
    opcode = cols.opcode
    compute = cols.is_compute
    sub1 = cols.src1 // words_per_subarray
    sub2 = cols.src2 // words_per_subarray
    subd = cols.des // words_per_subarray
    operand_copy = compute & (sub2 != sub1)
    result_copy = compute & (subd != sub1)
    cross_tran = ~compute & (sub1 != subd)

    counts = np.where(
        compute,
        1 + operand_copy.astype(np.int64) + result_copy.astype(np.int64),
        1,
    )
    total = int(counts.sum())
    if total != len(starts):
        raise RuntimeError(
            f"span attribution mismatch: trace implies {total} spans, "
            f"engine recorded {len(starts)}"
        )

    cmd = np.repeat(np.arange(n), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    pos = np.arange(total) - np.repeat(offsets, counts)

    comp = compute[cmd]
    oc = operand_copy[cmd]
    rc = result_copy[cmd]
    exec_pos = oc.astype(np.int64)
    is_opcopy = comp & oc & (pos == 0)
    is_exec = comp & (pos == exec_pos)
    is_rescopy = comp & rc & (pos == exec_pos + 1)
    is_cross = ~comp & cross_tran[cmd]
    is_local = ~comp & ~cross_tran[cmd]

    expected_rw = is_opcopy | is_rescopy | is_cross
    if bool(np.any(expected_rw != np.asarray(is_rw, dtype=bool))):
        raise RuntimeError(
            "span attribution mismatch: rw/pim classes disagree with "
            "the trace structure"
        )

    # Per-span display name: the opcode name for executions, fixed
    # labels for the copy classes.
    opcode_names = np.array(
        [
            BYTE_TO_OPCODE[code].name if code in BYTE_TO_OPCODE else "?"
            for code in np.unique(opcode).tolist()
        ]
    )
    name_index = np.searchsorted(np.unique(opcode), opcode)
    exec_names = opcode_names[name_index]

    names = np.empty(total, dtype=object)
    names[is_exec] = exec_names[cmd[is_exec]]
    names[is_local] = exec_names[cmd[is_local]]
    names[is_opcopy] = "copy.operand"
    names[is_rescopy] = "copy.result"
    names[is_cross] = "bus.TRAN"

    # Track: the resource each span primarily occupies (matching the
    # engines' busy-until bookkeeping).
    track_id = np.where(is_rescopy, subd[cmd], sub1[cmd])
    categories = np.where(expected_rw, "rw", "pim")

    sizes = cols.size
    spans: List[Span] = []
    append = spans.append
    for name, category, begin, finish, tid, on_bus, index in zip(
        names.tolist(),
        categories.tolist(),
        np.asarray(starts, dtype=np.float64).tolist(),
        np.asarray(finishes, dtype=np.float64).tolist(),
        track_id.tolist(),
        is_cross.tolist(),
        cmd.tolist(),
    ):
        track = BUS_TRACK if on_bus else f"subarray-{tid}"
        append(
            Span(
                name,
                category,
                begin,
                finish - begin,
                track,
                {"index": index, "words": int(sizes[index])},
            )
        )
    return spans


def record_trace_run(
    obs,
    device,
    cols,
    starts: np.ndarray,
    finishes: np.ndarray,
    is_rw: np.ndarray,
    stats,
) -> List[Span]:
    """Emit one trace run's spans and metric totals into ``obs``.

    Called once per run, phased or streamed, after execution; returns
    the spans it emitted.
    """
    spans = engine_spans(device, cols, starts, finishes, is_rw)
    obs.extend(spans)
    registry = obs.registry
    n = len(cols)
    compute = cols.is_compute
    pim = int(compute.sum())
    registry.counter("trace.vpcs").inc(n)
    registry.counter("trace.pim_vpcs").inc(pim)
    registry.counter("trace.move_vpcs").inc(n - pim)
    registry.counter("trace.spans").inc(len(spans))
    by_name = {}
    for span in spans:
        by_name[span.name] = by_name.get(span.name, 0) + 1
    for name in sorted(by_name):
        registry.counter(f"trace.span.{name}").inc(by_name[name])
    registry.counter("trace.bus_transfers").inc(by_name.get("bus.TRAN", 0))
    registry.gauge("trace.time_ns").set(stats.time_ns)
    registry.gauge("trace.energy_pj").set(stats.energy.total_pj)
    durations = (
        np.asarray(finishes, dtype=np.float64)
        - np.asarray(starts, dtype=np.float64)
    )
    hist = registry.histogram("trace.span_ns")
    hist.observe_many(durations.tolist())
    return spans
