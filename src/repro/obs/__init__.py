"""Machine-wide observability in the simulated-cycle time domain.

Three instruments behind the probe spine's one gate:

* :class:`MetricsRegistry` — counters, gauges, and histograms, fed by
  live increments at instrumentation sites plus *polled sources* that
  read existing component counters (bus occupancy, FIFO high water,
  cache hit/miss, ...) only when a snapshot is taken.
* :class:`Tracer` — Chrome trace-event / Perfetto-compatible JSON
  whose ``ts`` values are machine cycles.
* :class:`CycleProfiler` — attributes simulated cycles to
  component/site and renders a flat + cumulative report.

All three hang off one :class:`Observability` object, a subscriber of
the :mod:`repro.probe` spine: uninstrumented hot paths pay exactly one
``is None`` check on the spine's gate.  See :mod:`repro.obs.core`.

Two further instruments subscribe to the same spine:
:class:`CausalTracker` (:mod:`repro.obs.causal`) — per-request trace
contexts, Perfetto flow events, and critical-path stage attribution for
the serving front-end — and :class:`FlightRecorder`
(:mod:`repro.obs.flight`) — an always-on bounded ring of recent events
captured into every crash point and packaged by
:mod:`repro.obs.postmortem`.

The CLI entry points are ``python -m repro trace <workload>`` and
``python -m repro obs postmortem`` (:mod:`repro.obs.cli`).
"""

from repro.obs.causal import CausalTracker, TraceContext
from repro.obs.core import (
    Observability,
    active,
    install,
    installed,
    uninstall,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiler import CycleProfiler
from repro.obs.trace import Tracer, TraceFormatError, validate_trace

__all__ = [
    "CausalTracker",
    "Counter",
    "CycleProfiler",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "TraceContext",
    "TraceFormatError",
    "Tracer",
    "active",
    "install",
    "installed",
    "uninstall",
    "validate_trace",
]
