"""Structured span tracing: the event half of the observability layer.

A :class:`Span` is one ``(name, category, ts, dur, args)`` record on a
named *track* (a resource: one subarray, the internal bus, the recovery
ledger, a scheduler lane).  A :class:`Collector` bundles a span log with
a :class:`~repro.obs.metrics.MetricsRegistry`; instrumented code holds
one collector and checks ``collector.enabled`` **once per run** — the
disabled singleton :data:`NULL_COLLECTOR` makes every hook a no-op
without per-event branching in hot loops.

Span categories used by trace execution:

* ``"rw"`` — read/write-class busy time (operand/result copies,
  cross-subarray bus transfers);
* ``"pim"`` — shift/compute-class busy time (VPC execution,
  in-subarray TRAN shifts);
* ``"recovery"`` — detect-and-repair work charged by a fault session;
* ``"sched"`` — analytic-mode scheduler rounds (prep/compute lanes).

:func:`exclusive_breakdown` sweeps a span list back into the exclusive
time categories of :class:`~repro.sim.stats.TimeBreakdown` with the same
interval scan the executor uses, so an exported trace can always be
reconciled against the run's reported breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import (
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)

#: Span categories swept as read/write-class busy time.
RW_CATEGORIES = ("rw",)
#: Span categories swept as shift/compute-class busy time.
PIM_CATEGORIES = ("pim",)


@dataclass(frozen=True)
class Span:
    """One named busy interval on one track.

    Attributes:
        name: what ran ("MUL", "copy.operand", "bus.TRAN", ...).
        category: coarse class ("rw", "pim", "recovery", "sched").
        ts_ns: start timestamp (simulated ns).
        dur_ns: duration (simulated ns).
        track: the resource the span occupied ("subarray-12", "bus").
        args: free-form structured payload (trace index, word count...).
    """

    name: str
    category: str
    ts_ns: float
    dur_ns: float
    track: str
    args: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dur_ns < 0:
            raise ValueError(
                f"span duration must be non-negative, got {self.dur_ns}"
            )

    @property
    def end_ns(self) -> float:
        return self.ts_ns + self.dur_ns


class Collector:
    """An enabled observation sink: spans plus a metrics registry."""

    enabled = True

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.spans: List[Span] = []

    # ------------------------------------------------------------------
    def emit(
        self,
        name: str,
        category: str,
        ts_ns: float,
        dur_ns: float,
        track: str,
        args: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Record one span."""
        self.spans.append(
            Span(name, category, ts_ns, dur_ns, track, args or {})
        )

    def extend(self, spans: Sequence[Span]) -> None:
        """Record a pre-built span batch (the vectorized path)."""
        self.spans.extend(spans)

    # ------------------------------------------------------------------
    def counter(self, name: str):
        return self.registry.counter(name)

    def gauge(self, name: str):
        return self.registry.gauge(name)

    def histogram(self, name: str):
        return self.registry.histogram(name)


class NullCollector:
    """The disabled sink; all methods are no-ops.

    ``enabled`` is False — instrumented code checks it once per run and
    skips every span/metric call, so the only disabled-mode cost is that
    single check.
    """

    enabled = False
    spans: Tuple[Span, ...] = ()
    registry: NullRegistry = NULL_REGISTRY

    __slots__ = ()

    def emit(self, *args, **kwargs) -> None:
        return None

    def extend(self, spans) -> None:
        return None

    def counter(self, name: str):
        return NULL_REGISTRY.counter(name)

    def gauge(self, name: str):
        return NULL_REGISTRY.gauge(name)

    def histogram(self, name: str):
        return NULL_REGISTRY.histogram(name)


NULL_COLLECTOR = NullCollector()


# ----------------------------------------------------------------------
# Derived views
# ----------------------------------------------------------------------
def spans_to_intervals(spans: Sequence[Span]) -> list:
    """Per-resource utilisation timeline as
    :class:`repro.analysis.timeline.Interval` rows (lane = track)."""
    from repro.analysis.timeline import Interval

    return [
        Interval(span.track, span.ts_ns, span.end_ns, span.name)
        for span in spans
    ]


def track_utilisation(
    spans: Sequence[Span], elapsed_ns: float
) -> List[Tuple[str, float, int, float]]:
    """Per-track ``(track, busy_ns, spans, utilisation)`` rows.

    Tracks are exclusive resources (their spans never overlap), so busy
    time is the plain sum of durations; rows are sorted by descending
    busy time.  ``utilisation`` is the *raw* busy/elapsed ratio — a
    value above 1.0 means the span stream double-books the resource and
    should be treated as a ledger bug, exactly like
    :meth:`repro.sim.engine.Resource.utilisation`.
    """
    busy: Dict[str, List[float]] = {}
    counts: Dict[str, int] = {}
    for span in spans:
        busy.setdefault(span.track, []).append(span.dur_ns)
        counts[span.track] = counts.get(span.track, 0) + 1
    rows = []
    for track, durations in busy.items():
        busy_ns = math.fsum(durations)
        ratio = busy_ns / elapsed_ns if elapsed_ns > 0 else 0.0
        rows.append((track, busy_ns, counts[track], ratio))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


def exclusive_breakdown(spans: Sequence[Span]):
    """Sweep engine spans back into a
    :class:`~repro.sim.stats.TimeBreakdown`.

    Applies the executor's exclusive-category interval scan
    (:func:`repro.sim.vector_exec.sweep_spans`) to the ``rw``/``pim``
    spans and adds the ``recovery`` spans' summed duration, mirroring
    how execution builds ``RunStats.time_breakdown``.  Matches the
    engine-reported breakdown to float tolerance (spans store
    ``(ts, dur)``, so reconstructed interval ends can differ from the
    engine's internal finish times by an ulp).
    """
    import numpy as np

    from repro.sim.vector_exec import sweep_spans

    engine_spans = [
        s for s in spans if s.category in RW_CATEGORIES + PIM_CATEGORIES
    ]
    starts = np.array([s.ts_ns for s in engine_spans], dtype=np.float64)
    ends = np.array([s.end_ns for s in engine_spans], dtype=np.float64)
    is_rw = np.array(
        [s.category in RW_CATEGORIES for s in engine_spans], dtype=bool
    )
    breakdown = sweep_spans(starts, ends, is_rw)
    recovery = 0.0
    for span in spans:
        if span.category == "recovery":
            recovery += span.dur_ns
    if recovery > 0:
        breakdown.add("recovery", recovery)
    return breakdown
