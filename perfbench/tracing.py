"""Spans around the simulator's public layer calls, recorded from outside.

:meth:`Tracer.install` swaps each public function or method named in
:data:`LAYER_CALLS` for a wrapper that records a span (name, start, end,
parent, item id), and :meth:`Tracer.uninstall` restores the originals;
``src/`` itself carries no instrumentation.  Spans stay in memory and
are written once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    item: Optional[str]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


#: (module, class or "" for a module function, attribute, span name).
#: A generator gets one span per ``next()``, so lowering is timed chunk
#: by chunk while the consumer runs in between.
LAYER_CALLS = (
    ("repro.workloads.spec", "WorkloadSpec", "build_task", "workloads.build_task"),
    ("repro.baselines.stpim", "", "spec_to_task", "baselines.task_build"),
    ("repro.baselines.stpim_e", "", "spec_to_task", "baselines.task_build"),
    ("repro.baselines.cpu", "CpuPlatform", "run", "baselines.closed_form"),
    ("repro.baselines.elp2im", "Elp2imPlatform", "run", "baselines.closed_form"),
    ("repro.baselines.felix", "FelixPlatform", "run", "baselines.closed_form"),
    ("repro.baselines.coruscant", "CoruscantPlatform", "run", "baselines.closed_form"),
    ("repro.baselines.stpim_e", "StpimEPlatform", "run", "baselines.stpim_e"),
    ("repro.core.task", "PimTask", "run", "core.task.round_run"),
    ("repro.core.task", "PimTask", "to_trace_chunks", "core.task.lower"),
    ("repro.core.task", "PimTask", "materialize_matrices", "core.task.materialize"),
    ("repro.core.task", "PimTask", "materialize_scalar_slots", "core.task.materialize"),
    ("repro.core.device", "StreamPIMDevice", "execute_trace_stream", "core.stream.run"),
    ("repro.isa.trace_cache", "TraceCache", "put", "isa.trace_cache.put"),
    ("repro.isa.trace_cache", "TraceCache", "get", "isa.trace_cache.get"),
    ("repro.verify.trace_verifier", "StreamingTraceVerifier", "feed", "verify.spv"),
    ("repro.sim.vector_exec", "VectorExecState", "feed", "sim.vector_exec"),
    ("repro.sim.vector_exec", "VectorExecState", "finish", "sim.vector_exec"),
    ("repro.analysis.predictor", "TracePredictor", "__init__", "analysis.predictor.build"),
    ("repro.analysis.predictor", "TracePredictor", "predict", "analysis.predictor.predict"),
    # Evaluating a grid point builds its cost-surface device first.
    ("repro.analysis.predictor", "AnalyticDevice", "__init__", "analysis.predictor.predict"),
)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Id shared by every span of the item being run.
        self.item: Optional[str] = None
        self._stack: List[int] = []
        self._next_id = 0
        self._originals: List[tuple] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.item))

    def wrap(self, original, name: str):
        """``original`` with a span around each call (each ``next()`` for
        a generator function)."""
        tracer = self
        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def generator(*args, **kwargs):
                chunks = original(*args, **kwargs)
                while True:
                    with tracer.span(name):
                        try:
                            chunk = next(chunks)
                        except StopIteration:
                            return
                    yield chunk

            return generator

        @functools.wraps(original)
        def call(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        return call

    def install(self) -> None:
        """Wrap every call in :data:`LAYER_CALLS`."""
        for module_name, owner_name, attribute, name in LAYER_CALLS:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            original = vars(owner)[attribute]
            setattr(owner, attribute, self.wrap(original, name))
            self._originals.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every wrapped call."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
def self_times_ns(spans: Iterable[Span]) -> Dict[int, int]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span never overlap
    and their summed durations are the covered time.
    """
    spans = list(spans)
    covered: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration_ns
    return {span.id: span.duration_ns - covered[span.id] for span in spans}


def seconds_by_name(
    spans: Iterable[Span], inclusive: bool = False
) -> Dict[str, float]:
    """Summed self time (or, with ``inclusive``, whole time) per name."""
    spans = list(spans)
    own = self_times_ns(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        value = span.duration_ns if inclusive else own[span.id]
        totals[span.name] += value / 1e9
    return dict(totals)


def uncovered_share(spans: Iterable[Span], root: str = "item") -> float:
    """The share of the ``root`` spans' time that no layer span covers:
    their summed self time over their summed duration.  Time spent
    between the wrapped calls, in code no listed layer owns, shows here."""
    spans = list(spans)
    own = self_times_ns(spans)
    roots = [span for span in spans if span.name == root]
    whole = sum(span.duration_ns for span in roots)
    return sum(own[span.id] for span in roots) / whole if whole else 0.0
