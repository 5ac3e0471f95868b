"""Out-of-tree tracing shims for the end-to-end benchmark.

The program under test is not edited: every layer is timed from outside
by swapping a public function for a wrapper that records a span, and the
originals are put back when the traced window ends, so the untraced
window runs the program exactly as shipped.

A span is ``(name, start_ns, end_ns, tasklet_id, parent)`` on
``time.monotonic_ns`` (CLOCK_MONOTONIC is system-wide on Linux, so spans
from the provider processes line up with the benchmark process).
``parent`` names the span that caused this one; together with the shared
``tasklet_id`` it identifies the parent span.  Counts taken at the same
boundaries are ``(name, at_ns, value)``.  Both lists are append-only, so
concurrent threads need no lock, and stay in memory until the window
ends.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from repro.broker.core import BrokerCore
from repro.consumer.core import ConsumerCore
from repro.consumer.library import TaskletLibrary
from repro.dag.scheduler import DagScheduler
from repro.provider.executor import TaskletExecutor
from repro.transport import aio, tcp
from repro.transport.codec import EnvelopeDecoder
from repro.transport.message import (
    AssignExecution,
    ExecutionResult,
    Heartbeat,
    SubmitTasklet,
    SubmitWorkflow,
)

now_ns = time.monotonic_ns

_MISSING = object()

#: Inbound broker message type -> (metric suffix, span that caused it).
BROKER_KINDS = {
    SubmitTasklet.TYPE: ("submit", "consumer.submit"),
    SubmitWorkflow.TYPE: ("submit", "consumer.submit"),
    ExecutionResult.TYPE: ("result", "provider.execute"),
    Heartbeat.TYPE: ("heartbeat", None),
}


def _request_id(payload: dict) -> str | None:
    """The identifier every span of one request shares."""
    if "tasklet_id" in payload:
        return payload["tasklet_id"]
    if "tasklet" in payload:
        return payload["tasklet"].get("tasklet_id")
    if "workflow" in payload:
        return payload["workflow"].get("workflow_id")
    return payload.get("workflow_id")


class Tracer:
    """Span and count store for one process, plus the installed shims."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []
        # ``strategy.select`` runs ~250 times per broker message under a
        # backlog; one span each would dwarf everything else, and it only
        # ever runs under the broker's core lock, so plain sums are safe.
        self.select_calls = 0
        self.select_ns = 0
        self._cache_base: tuple[int, int] | None = None
        self._cache_last: tuple[int, int] = (0, 0)
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, wrap) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrap(getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- shims shared by every process --------------------------------------

    def _install_codec(self) -> None:
        spans, counts = self.spans, self.counts

        def encode(name: str):
            def wrap(original):
                def traced(batch, codec):
                    start = now_ns()
                    data = original(batch, codec)
                    end = now_ns()
                    spans.append((name, start, end, None, None))
                    counts.append((name + ".envelopes", end, len(batch)))
                    counts.append((name + ".bytes", end, len(data)))
                    return data

                return traced

            return wrap

        def feed(original):
            def traced(decoder, chunk):
                start = now_ns()
                frames = original(decoder, chunk)
                end = now_ns()
                spans.append(("codec.decode", start, end, None, None))
                counts.append(("codec.decode.envelopes", end, len(frames)))
                return frames

            return traced

        # Both transports import ``encode_batch`` by name.
        self._patch(tcp, "encode_batch", encode("codec.encode.tcp"))
        self._patch(aio, "encode_batch", encode("codec.encode.aio"))
        self._patch(EnvelopeDecoder, "feed", feed)

    # -- benchmark process: consumer + broker --------------------------------

    def install_bench(self, broker_core: BrokerCore) -> None:
        spans = self.spans
        assign = AssignExecution.TYPE

        def submit(original):
            def traced(library, *args, **kwargs):
                start = now_ns()
                pending = original(library, *args, **kwargs)
                request = getattr(pending, "tasklet_id", None) or pending.workflow_id
                spans.append(("consumer.submit", start, now_ns(), request, None))
                return pending

            return traced

        def resolve(original):
            def traced(core, envelope):
                start = now_ns()
                out = original(core, envelope)
                spans.append(
                    (
                        "consumer.resolve",
                        start,
                        now_ns(),
                        _request_id(envelope.payload),
                        "broker.handle",
                    )
                )
                return out

            return traced

        def note_assigns(out, at: int, cause: str) -> None:
            for envelope in out:
                if envelope.type == assign:
                    spans.append(
                        ("broker.assign", at, at, envelope.payload["tasklet_id"], cause)
                    )

        def handle(original):
            def traced(core, envelope):
                start = now_ns()
                out = original(core, envelope)
                end = now_ns()
                suffix, parent = BROKER_KINDS.get(envelope.type, ("other", None))
                name = "broker.handle." + suffix
                spans.append(
                    (name, start, end, _request_id(envelope.payload), parent)
                )
                note_assigns(out, end, name)
                return out

            return traced

        def tick(original):
            def traced(core):
                start = now_ns()
                out = original(core)
                end = now_ns()
                spans.append(("broker.tick", start, end, None, None))
                note_assigns(out, end, "broker.tick")
                return out

            return traced

        def select(original):
            def traced(views, n, qoc):
                start = now_ns()
                chosen = original(views, n, qoc)
                self.select_ns += now_ns() - start
                self.select_calls += 1
                return chosen

            return traced

        def dag(original):
            def traced(scheduler, *args):
                start = now_ns()
                released = original(scheduler, *args)
                spans.append(
                    (
                        "dag.scheduler",
                        start,
                        now_ns(),
                        scheduler.spec.workflow_id,
                        "broker.handle",
                    )
                )
                return released

            return traced

        self._install_codec()
        self._patch(TaskletLibrary, "submit", submit)
        self._patch(TaskletLibrary, "submit_workflow", submit)
        self._patch(ConsumerCore, "handle", resolve)
        self._patch(BrokerCore, "handle", handle)
        self._patch(BrokerCore, "tick", tick)
        self._patch(broker_core.strategy, "select", select)
        self._patch(DagScheduler, "start", dag)
        self._patch(DagScheduler, "complete", dag)

    # -- provider process ----------------------------------------------------

    def install_provider(self) -> None:
        spans, counts = self.spans, self.counts

        def execute(original):
            def traced(executor, request):
                if self._cache_base is None:
                    self._cache_base = (executor.cache_hits, executor.cache_misses)
                start = now_ns()
                outcome = original(executor, request)
                end = now_ns()
                spans.append(
                    ("provider.execute", start, end, request.tasklet_id, "broker.assign")
                )
                counts.append(("vm.instructions", end, outcome.instructions))
                self._cache_last = (executor.cache_hits, executor.cache_misses)
                return outcome

            return traced

        self._install_codec()
        self._patch(TaskletExecutor, "execute", execute)

    # -- hand-over -------------------------------------------------------------

    def dump(self) -> dict:
        """Everything recorded, JSON-safe (provider processes pipe this)."""
        base = self._cache_base or self._cache_last
        return {
            "spans": self.spans,
            "counts": self.counts,
            "select_calls": self.select_calls,
            "select_ns": self.select_ns,
            "cache_hits": self._cache_last[0] - base[0],
            "cache_misses": self._cache_last[1] - base[1],
        }


def merge(dumps: dict[str, dict]) -> dict:
    """Fold per-process dumps into one; spans gain a trailing process tag."""
    merged = {
        "spans": [],
        "counts": [],
        "select_calls": 0,
        "select_ns": 0,
        "cache_hits": 0,
        "cache_misses": 0,
    }
    for proc, dump in dumps.items():
        merged["spans"].extend((*span, proc) for span in dump["spans"])
        merged["counts"].extend(tuple(count) for count in dump["counts"])
        for key in ("select_calls", "select_ns", "cache_hits", "cache_misses"):
            merged[key] += dump[key]
    return merged


def _median_ms(deltas_ns: list[int]) -> float:
    return statistics.median(deltas_ns) / 1e6 if deltas_ns else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """Quotient that reads 0 where nothing was counted (an idle layer)."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: dict, t0: int, t1: int, units: int, slots: int) -> dict:
    """Per-layer numbers for the window ``[t0, t1)`` of a merged trace.

    ``units`` is the number of tasklets (DAG nodes) correctly completed
    in the window; ``slots`` the provider slots in the cluster.
    """
    total: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    first: dict[str, dict] = defaultdict(dict)  # span name -> request -> span
    durations: dict[str, list[int]] = defaultdict(list)
    for span in trace["spans"]:
        name, start, end, request = span[0], span[1], span[2], span[3]
        if not t0 <= start < t1:
            continue
        total[name] += end - start
        calls[name] += 1
        durations[name].append(end - start)
        if request is not None:
            first[name].setdefault(request, span)
    summed: dict[str, int] = defaultdict(int)
    for name, at, value in trace["counts"]:
        if t0 <= at < t1:
            summed[name] += value

    def gaps(before: str, edge: int, after: str) -> list[int]:
        """after.start - before[edge] for every request seen at both."""
        return [
            first[after][request][1] - span[edge]
            for request, span in first[before].items()
            if request in first[after]
        ]

    wall = t1 - t0
    encode_ns = total["codec.encode.tcp"] + total["codec.encode.aio"]
    envelopes_out = (
        summed["codec.encode.tcp.envelopes"] + summed["codec.encode.aio.envelopes"]
    )
    bytes_out = summed["codec.encode.tcp.bytes"] + summed["codec.encode.aio.bytes"]
    broker_ns = total["broker.tick"] + sum(
        total["broker.handle." + suffix]
        for suffix in ("submit", "result", "heartbeat", "other")
    )
    executions = calls["broker.assign"]
    hits, misses = trace["cache_hits"], trace["cache_misses"]

    def mean_us(name: str) -> float:
        return ratio(total[name], calls[name]) / 1e3

    return {
        "consumer.submit_us": ratio(total["consumer.submit"], units) / 1e3,
        "consumer.resolve_us": ratio(total["consumer.resolve"], units) / 1e3,
        "codec.encode_us_per_env": ratio(encode_ns, envelopes_out) / 1e3,
        "codec.decode_us_per_env": ratio(
            total["codec.decode"], summed["codec.decode.envelopes"]
        )
        / 1e3,
        "codec.bytes_per_tasklet": ratio(bytes_out, units),
        "transport.envelopes_per_flush": ratio(
            summed["codec.encode.aio.envelopes"], calls["codec.encode.aio"]
        ),
        "wire.submit_to_broker_ms_p50": _median_ms(
            gaps("consumer.submit", 2, "broker.handle.submit")
        ),
        "broker.handle_us.submit": mean_us("broker.handle.submit"),
        "broker.handle_us.result": mean_us("broker.handle.result"),
        "broker.handle_us.heartbeat": mean_us("broker.handle.heartbeat"),
        "broker.tick_ms": mean_us("broker.tick") / 1e3,
        "broker.busy_frac": broker_ns / wall,
        "broker.queue_wait_ms_p50": _median_ms(
            gaps("broker.handle.submit", 2, "broker.assign")
        ),
        "sched.select_us": ratio(trace["select_ns"], trace["select_calls"]) / 1e3,
        "sched.select_calls_per_execution": ratio(trace["select_calls"], executions),
        "dag.scheduler_us_per_node": ratio(total["dag.scheduler"], units) / 1e3,
        "provider.dispatch_ms_p50": _median_ms(
            gaps("broker.assign", 1, "provider.execute")
        ),
        "provider.execute_ms_p50": _median_ms(durations["provider.execute"]),
        "provider.busy_frac": total["provider.execute"] / (slots * wall),
        "provider.program_cache_hit_frac": ratio(hits, hits + misses),
        "vm.instructions_per_tasklet": ratio(
            summed["vm.instructions"], calls["provider.execute"]
        ),
        "vm.ns_per_instruction": ratio(
            total["provider.execute"], summed["vm.instructions"]
        ),
    }
