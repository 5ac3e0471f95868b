"""The :class:`Telemetry` facade and per-subsystem metric bundles.

Cores accept ``telemetry: Telemetry | None``.  ``None`` (the default)
means *fully disabled*: the instrumented code paths reduce to one
``is not None`` check per event, and no obs object is ever allocated.
When enabled, each core builds its metric bundle once at construction —
:class:`BrokerMetrics`, :class:`ProviderMetrics`, :class:`ConsumerMetrics`,
:class:`TransportMetrics` — so the hot path only touches pre-resolved
family/child handles.

Several cores sharing one :class:`Telemetry` (the normal single-process
arrangement: simulator, tests, broker+providers co-located) share its
registry and span store, which is what makes the cross-node span tree
reconstructable from one place.
"""

from __future__ import annotations

from .events import FlightRecorder
from .metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from .trace import SpanStore, Tracer

#: Buckets for per-execution VM wall/service time in seconds.
EXECUTION_TIME_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0,
)

#: Buckets for heartbeat round-trip times in seconds.
RTT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)


class Telemetry:
    """Bundle of metrics registry, tracer/span store, and flight recorder.

    Pass ``events=FlightRecorder(jsonl_path=...)`` to mirror lifecycle
    events into rotating JSONL files; the default recorder is in-memory
    only.  Event volume is always visible in the exposition through the
    ``repro_events_total{kind=...}`` counter attached here.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        span_capacity: int = 4096,
        events: FlightRecorder | None = None,
    ):
        self.registry = registry or MetricsRegistry()
        self.tracer = tracer or Tracer(SpanStore(span_capacity))
        # Not `or`: an empty FlightRecorder is falsy (len 0), which would
        # silently discard a caller's JSONL-backed recorder.
        self.events = events if events is not None else FlightRecorder()
        self.events.attach_counter(
            self.registry.counter(
                "repro_events_total",
                "Flight-recorder events recorded, by kind",
                labelnames=("kind",),
            )
        )

    @property
    def spans(self) -> SpanStore:
        return self.tracer.store


class BrokerMetrics:
    """Broker-side families (shared across brokers on one registry)."""

    def __init__(self, registry: MetricsRegistry):
        self.tasklets_submitted = registry.counter(
            "repro_broker_tasklets_submitted_total",
            "Tasklets admitted for scheduling",
        )
        self.tasklets_completed = registry.counter(
            "repro_broker_tasklets_completed_total",
            "Tasklets that reached a final result, by outcome",
            labelnames=("outcome",),
        )
        self.executions_issued = registry.counter(
            "repro_broker_executions_issued_total",
            "Execution replicas assigned to providers",
        )
        self.executions_reissued = registry.counter(
            "repro_broker_executions_reissued_total",
            "Replicas issued to replace a failed/lost/timed-out execution",
        )
        self.execution_results = registry.counter(
            "repro_broker_execution_results_total",
            "Terminal execution records folded into votes, by status",
            labelnames=("status",),
        )
        self.placements = registry.counter(
            "repro_broker_placements_total",
            "Providers chosen by the scheduling strategy",
            labelnames=("strategy",),
        )
        self.replicas_queued = registry.counter(
            "repro_broker_replicas_queued_total",
            "Replicas that could not be placed immediately and were queued",
        )
        self.providers_failed = registry.counter(
            "repro_broker_providers_failed_total",
            "Providers declared dead by the heartbeat failure detector",
        )
        self.pending_tasklets = registry.gauge(
            "repro_broker_pending_tasklets",
            "Tasklets admitted but not yet completed",
        )
        self.backlog_replicas = registry.gauge(
            "repro_broker_backlog_replicas",
            "Replicas queued waiting for provider capacity",
        )
        self.providers_alive = registry.gauge(
            "repro_broker_providers_alive",
            "Registered providers currently considered alive",
        )
        self.heartbeat_gap = registry.histogram(
            "repro_broker_heartbeat_gap_seconds",
            "Observed gap between consecutive heartbeats of one provider",
            buckets=RTT_BUCKETS + (2.5, 5.0, 10.0),
        )
        self.memo_cache = registry.counter(
            "repro_broker_memo_cache_total",
            "Result-memoization lookups at admission, by result",
            labelnames=("result",),
        )
        self.journal_records = registry.counter(
            "repro_broker_journal_records_total",
            "Work-journal records appended, by kind",
            labelnames=("kind",),
        )
        self.tasklets_recovered = registry.counter(
            "repro_broker_tasklets_recovered_total",
            "Pending tasklets re-admitted from the work journal at startup",
        )
        self.completions_redelivered = registry.counter(
            "repro_broker_completions_redelivered_total",
            "Journalled completions re-delivered on idempotent resubmit",
        )
        self.replicas_overflowed = registry.counter(
            "repro_broker_replicas_overflowed_total",
            "Replicas dropped because the scheduling backlog was full",
        )
        self.journal_compactions = registry.counter(
            "repro_broker_journal_compactions_total",
            "Automatic in-place rewrites of the work journal",
        )


class FederationMetrics:
    """Broker federation families (peer gossip, forwarding, handoff)."""

    def __init__(self, registry: MetricsRegistry):
        self.gossip = registry.counter(
            "repro_federation_gossip_total",
            "Gossip digests exchanged with peer brokers, by direction",
            labelnames=("direction",),
        )
        self.forwards = registry.counter(
            "repro_federation_forwards_total",
            "Tasklets forwarded between brokers, by direction",
            labelnames=("direction",),
        )
        self.forward_results = registry.counter(
            "repro_federation_forward_results_total",
            "Forwarded tasklets that reached a terminal state, by outcome",
            labelnames=("outcome",),
        )
        self.peers_alive = registry.gauge(
            "repro_federation_peers_alive",
            "Configured peer brokers currently considered alive",
        )
        self.handoff = registry.counter(
            "repro_federation_handoff_total",
            "Journal records adopted from dead peers' journals, by kind",
            labelnames=("kind",),
        )


class WorkflowMetrics:
    """DAG-workflow families (broker-held dependency scheduling)."""

    def __init__(self, registry: MetricsRegistry):
        self.submitted = registry.counter(
            "repro_workflows_submitted_total",
            "Workflow (DAG) submissions admitted or rejected",
        )
        self.completed = registry.counter(
            "repro_workflows_completed_total",
            "Workflows that reached a terminal state, by outcome",
            labelnames=("outcome",),
        )
        self.nodes = registry.counter(
            "repro_workflow_nodes_total",
            "Workflow nodes that reached a terminal state, by outcome",
            labelnames=("outcome",),
        )
        self.active = registry.gauge(
            "repro_workflows_active",
            "Workflows admitted and not yet terminal",
        )


class ProviderMetrics:
    """Provider-side families."""

    def __init__(self, registry: MetricsRegistry):
        self.executions = registry.counter(
            "repro_provider_executions_total",
            "Execution attempts run on this provider pool, by status",
            labelnames=("status",),
        )
        self.rejected = registry.counter(
            "repro_provider_rejected_total",
            "Assignments refused (queue full, draining)",
        )
        self.busy_slots = registry.gauge(
            "repro_provider_busy_slots",
            "Execution slots currently occupied, per provider",
            labelnames=("provider",),
        )
        self.program_cache = registry.counter(
            "repro_provider_program_cache_total",
            "Program-LRU lookups, by result",
            labelnames=("result",),
        )
        self.execution_seconds = registry.histogram(
            "repro_provider_execution_seconds",
            "Service time of one execution (queue excluded)",
            buckets=EXECUTION_TIME_BUCKETS,
        )
        self.vm_instructions = registry.counter(
            "repro_provider_vm_instructions_total",
            "TVM instructions retired across all executions",
        )
        self.vm_runs = registry.counter(
            "repro_provider_vm_runs_total",
            "Executions by the engine that ran them: translated, portable "
            "(declined, profiled or uncached program), or restarted (both)",
            labelnames=("engine",),
        )
        self.vm_opcodes = registry.counter(
            "repro_provider_vm_opcodes_total",
            "TVM instructions retired by opcode group (profiled executions only)",
            labelnames=("group",),
        )


class ConsumerMetrics:
    """Consumer-side families."""

    def __init__(self, registry: MetricsRegistry):
        self.submitted = registry.counter(
            "repro_consumer_tasklets_submitted_total",
            "Tasklets handed to the middleware",
        )
        self.completed = registry.counter(
            "repro_consumer_tasklets_completed_total",
            "Tasklet futures resolved, by outcome",
            labelnames=("outcome",),
        )
        self.failures = registry.counter(
            "repro_consumer_failures_total",
            "Failed Tasklets by error family",
            labelnames=("kind",),
        )
        self.latency = registry.histogram(
            "repro_consumer_latency_seconds",
            "Submit-to-resolve latency of completed Tasklets",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )


class TransportMetrics:
    """TCP transport families (bytes, connections, heartbeat RTT)."""

    def __init__(self, registry: MetricsRegistry):
        self.bytes = registry.counter(
            "repro_transport_bytes_total",
            "Framed bytes moved over TCP, by direction and wire codec",
            labelnames=("direction", "codec"),
        )
        self.messages = registry.counter(
            "repro_transport_messages_total",
            "Envelopes moved over TCP, by direction and wire codec",
            labelnames=("direction", "codec"),
        )
        self.flushes = registry.counter(
            "repro_transport_flushes_total",
            "Coalesced socket writes (messages/flushes = mean batch size)",
        )
        self.connections = registry.gauge(
            "repro_transport_connections",
            "Open TCP connections",
        )
        self.reconnects = registry.counter(
            "repro_transport_reconnects_total",
            "Successful provider reconnections after a lost broker link",
        )
        self.heartbeat_rtt = registry.histogram(
            "repro_transport_heartbeat_rtt_seconds",
            "Provider-measured heartbeat round-trip time",
            buckets=RTT_BUCKETS,
        )
        self.heartbeats_unechoed = registry.counter(
            "repro_transport_heartbeats_unechoed_total",
            "Heartbeat acks carrying no RTT echo (silent RTT gaps)",
        )
