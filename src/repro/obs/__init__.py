"""Observability layer: metrics registry + span tracing + trace export.

The paper's evaluation is built on *breakdowns* (Fig. 19's exclusive
time split, Fig. 20's energy split, Fig. 22's unblock overlap); this
package makes the simulators' runs auditable at that granularity:

* :class:`~repro.obs.metrics.MetricsRegistry` — named counters, gauges
  and histograms with a no-op disabled sink
  (:data:`~repro.obs.metrics.NULL_REGISTRY`);
* :class:`~repro.obs.spans.Collector` /
  :data:`~repro.obs.spans.NULL_COLLECTOR` — span-based structured
  tracing; every VPC execution, bus transfer, recovery retry and
  scheduler round emits a ``(name, category, ts, dur, args)`` span;
* :func:`~repro.obs.chrome_trace.write_chrome_trace` — export to Chrome
  ``trace_event`` JSON, loadable in ``chrome://tracing`` / Perfetto;
* :func:`~repro.obs.trace_spans.record_trace_run` — the batched hook
  phased and streamed trace runs share, so both emit identical
  observation streams.

Instrumentation is attached per device with
``StreamPIMDevice.observe(Collector())`` and is off by default; the
disabled path costs one ``enabled`` check per run.  See
``docs/observability.md`` and ``repro-streampim profile``.
"""

from repro.obs.chrome_trace import (
    chrome_trace_dict,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.obs.spans import (
    Collector,
    NULL_COLLECTOR,
    NullCollector,
    Span,
    exclusive_breakdown,
    spans_to_intervals,
    track_utilisation,
)
from repro.obs.stream_metrics import record_stream_run
from repro.obs.trace_spans import engine_spans, record_trace_run

__all__ = [
    "Collector",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COLLECTOR",
    "NULL_REGISTRY",
    "NullCollector",
    "NullRegistry",
    "Span",
    "chrome_trace_dict",
    "engine_spans",
    "exclusive_breakdown",
    "record_stream_run",
    "record_trace_run",
    "spans_to_intervals",
    "track_utilisation",
    "validate_chrome_trace",
    "write_chrome_trace",
]
