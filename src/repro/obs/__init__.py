"""Live observability: metrics, tracing, events, health, HTTP endpoints.

Dependency-free observability for the Tasklet middleware.  Five pillars:

* :mod:`repro.obs.metrics` — a thread-safe registry of counters, gauges,
  and fixed-bucket histograms with labeled families, rendered as
  Prometheus text exposition or a JSON snapshot;
* :mod:`repro.obs.trace` — cross-node Tasklet tracing: a
  :class:`TraceContext` rides on envelopes so one Tasklet's life
  (submit → place → assign → execute → result) becomes a single
  reconstructable span tree, stored in an in-memory ring buffer;
* :mod:`repro.obs.events` — the flight recorder: typed lifecycle events
  (node join/leave, placement, re-issue, reconnect, faults, alerts) in a
  bounded ring, optionally mirrored to rotating JSONL files;
* :mod:`repro.obs.health` — the broker-side cluster health model:
  per-provider scorecards and the straggler watchdog;
* :mod:`repro.obs.server` — :class:`ObsServer`, a stdlib HTTP server
  exposing ``/metrics``, ``/healthz``, ``/readyz``, ``/traces``, and
  ``/events`` from any middleware process;
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` facade the cores
  accept, plus per-subsystem metric bundles (broker, provider, consumer,
  transport).

Everything is strictly opt-in: every instrumented core takes
``telemetry=None`` and the disabled path reduces to one ``is not None``
check per event (guarded by ``benchmarks/bench_micro_telemetry.py``).
"""

from .analysis import (
    NodeTiming,
    WorkflowTraceAnalysis,
    analyze_workflow,
    chrome_trace_json,
    find_workflow_trace,
    latency_summary,
    to_chrome_trace,
)
from .events import Event, FlightRecorder
from .health import (
    HealthModel,
    ProviderScorecard,
    StragglerAlert,
    StragglerWatchdog,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_LATENCY_BUCKETS,
    parse_prometheus,
)
from .server import ObsServer
from .trace import Span, SpanStore, TraceContext, Tracer, build_trace_tree, format_trace
from .telemetry import (
    BrokerMetrics,
    ConsumerMetrics,
    ProviderMetrics,
    Telemetry,
    TransportMetrics,
)

__all__ = [
    "BrokerMetrics",
    "ConsumerMetrics",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Event",
    "FlightRecorder",
    "Gauge",
    "HealthModel",
    "Histogram",
    "MetricsRegistry",
    "NodeTiming",
    "ObsServer",
    "ProviderMetrics",
    "ProviderScorecard",
    "Span",
    "SpanStore",
    "StragglerAlert",
    "StragglerWatchdog",
    "Telemetry",
    "TraceContext",
    "Tracer",
    "TransportMetrics",
    "WorkflowTraceAnalysis",
    "analyze_workflow",
    "build_trace_tree",
    "chrome_trace_json",
    "find_workflow_trace",
    "format_trace",
    "latency_summary",
    "parse_prometheus",
    "to_chrome_trace",
]
