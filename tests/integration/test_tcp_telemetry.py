"""Integration: telemetry over real TCP sockets.

Broker, provider, and consumer share one :class:`Telemetry` (the normal
co-located test arrangement), so one Tasklet's spans — recorded on three
different "nodes" across threads — land in one store and reassemble into
a single tree, and the exposition carries all four subsystem families.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core import kernels
from repro.obs import Telemetry, build_trace_tree, parse_prometheus
from repro.obs import events as ev
from repro.obs.metrics import iter_metric_names
from repro.transport.message import BROKER_ADDRESS, HeartbeatAck
from repro.transport.tcp import TcpBroker, TcpConsumer, TcpProvider

from .test_tcp import wait_for_registration


@pytest.fixture
def telemetry():
    return Telemetry()


@pytest.fixture
def broker(telemetry):
    server = TcpBroker(telemetry=telemetry).start()
    yield server
    server.stop()


def run_tasklets(broker, telemetry, tasks=2):
    host, port = broker.address
    provider = TcpProvider(
        host, port, node_id="p1", benchmark_score=1e7, capacity=2,
        telemetry=telemetry,
    )
    with provider:
        wait_for_registration(broker, 1)
        with TcpConsumer(host, port, telemetry=telemetry) as consumer:
            futures = consumer.library.map(
                kernels.PRIME_COUNT, [[300]] * tasks
            )
            values = consumer.library.gather(futures, timeout=60)
            assert values == [kernels.python_prime_count(300)] * tasks


def test_tcp_run_produces_complete_span_trees(broker, telemetry):
    run_tasklets(broker, telemetry, tasks=2)
    trace_ids = telemetry.spans.trace_ids()
    assert len(trace_ids) == 2
    for trace_id in trace_ids:
        roots = build_trace_tree(telemetry.spans.for_trace(trace_id))
        assert len(roots) == 1, "spans from all three nodes join one tree"
        root = roots[0]
        assert root.span.name == "tasklet"
        assert root.span.status == "ok"
        names = []

        def walk(node):
            names.append(node.span.name)
            for child in node.children:
                walk(child)

        walk(root)
        assert names == [
            "tasklet", "broker.tasklet", "broker.assign", "provider.execute"
        ]
        # Three distinct nodes contributed spans to the one trace.
        nodes = {span.node for span in telemetry.spans.for_trace(trace_id)}
        assert len(nodes) == 3


def test_tcp_exposition_covers_all_four_subsystems(broker, telemetry):
    run_tasklets(broker, telemetry, tasks=1)
    text = telemetry.registry.render_prometheus()
    names = set(iter_metric_names(text))
    for expected in (
        "repro_broker_tasklets_completed_total",
        "repro_provider_executions_total",
        "repro_consumer_latency_seconds",
        "repro_transport_bytes_total",
        "repro_transport_messages_total",
        "repro_transport_connections",
    ):
        assert expected in names, f"missing family {expected}"
    parsed = parse_prometheus(text)

    def by_direction(family, direction):
        return sum(
            value
            for labels, value in parsed[family].items()
            if f'direction="{direction}"' in labels
        )

    assert by_direction("repro_transport_bytes_total", "in") > 0
    assert by_direction("repro_transport_bytes_total", "out") > 0
    assert by_direction("repro_transport_messages_total", "in") > 0
    # The handshake negotiated the binary codec, and the label makes a
    # mixed-codec cluster visible: both codecs appear in the exposition.
    codecs = {
        labels.split('codec="')[1].rstrip('"')
        for labels in parsed["repro_transport_bytes_total"]
    }
    assert "bin2" in codecs and "json" in codecs
    assert parsed["repro_transport_flushes_total"][""] > 0
    assert parsed["repro_provider_executions_total"]['status="success"'] == 1


def test_heartbeat_rtt_is_observed(telemetry):
    from repro.broker.core import BrokerConfig

    server = TcpBroker(
        config=BrokerConfig(heartbeat_interval=0.05),
        telemetry=telemetry,
    ).start()
    try:
        host, port = server.address
        with TcpProvider(
            host, port, node_id="p1", benchmark_score=1e7,
            telemetry=telemetry,
        ):
            wait_for_registration(server, 1)
            rtt = telemetry.registry.get("repro_transport_heartbeat_rtt_seconds")
            deadline = time.perf_counter() + 10.0
            while rtt.count == 0 and time.perf_counter() < deadline:
                time.sleep(0.02)
            assert rtt.count > 0, "no heartbeat round trip measured"
            assert rtt.sum >= 0.0
    finally:
        server.stop()


def test_connections_gauge_returns_to_zero(broker, telemetry):
    run_tasklets(broker, telemetry, tasks=1)
    gauge = telemetry.registry.get("repro_transport_connections")
    deadline = time.perf_counter() + 10.0
    while gauge.value != 0 and time.perf_counter() < deadline:
        time.sleep(0.02)
    assert gauge.value == 0


def test_unechoed_heartbeat_acks_are_counted(telemetry):
    # A constructed (never-started) provider exercises the dispatch path
    # directly: an ack without the RTT echo must tick the gap counter,
    # one with it must observe an RTT sample instead.
    provider = TcpProvider(
        "127.0.0.1", 1, node_id="p1", benchmark_score=1e7, telemetry=telemetry
    )
    counter = telemetry.registry.get("repro_transport_heartbeats_unechoed_total")
    rtt = telemetry.registry.get("repro_transport_heartbeat_rtt_seconds")
    def deliver(ack):
        provider._on_envelope(ack.envelope(BROKER_ADDRESS, provider.node_id))

    deliver(HeartbeatAck(provider_id="p1", echo_sent_at=0.0))
    assert counter.value == 1
    assert rtt.count == 0
    deliver(HeartbeatAck(provider_id="p1", echo_sent_at=time.monotonic()))
    assert counter.value == 1
    assert rtt.count == 1


def _get(url):
    """GET -> (status, body-bytes); HTTP error statuses don't raise."""
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def test_live_obs_endpoints_on_broker_and_provider(telemetry):
    """A broker started with ``obs_port`` serves the full operational
    plane over HTTP while the cluster runs; a provider does likewise."""
    server = TcpBroker(telemetry=telemetry, obs_port=0).start()
    try:
        host, port = server.address
        # A modest claimed benchmark keeps the speed-delivery check green
        # on any machine (being faster than promised never degrades).
        provider = TcpProvider(
            host, port, node_id="p1", benchmark_score=1e5, capacity=2,
            obs_port=0,  # auto-creates its own Telemetry
        )
        with provider:
            wait_for_registration(server, 1)
            with TcpConsumer(host, port, telemetry=telemetry) as consumer:
                futures = consumer.library.map(kernels.PRIME_COUNT, [[200]] * 2)
                consumer.library.gather(futures, timeout=60)

            base = server.obs.url
            # Health gauges are sampled on broker ticks; wait out the
            # first tick rather than racing it.
            deadline = time.perf_counter() + 10.0
            while time.perf_counter() < deadline:
                status, body = _get(base + "/metrics")
                assert status == 200
                parsed = parse_prometheus(body.decode())
                if parsed.get("repro_health_providers", {}).get('grade="healthy"'):
                    break
                time.sleep(0.05)
            assert parsed["repro_broker_tasklets_submitted_total"][""] == 2
            assert parsed["repro_health_providers"]['grade="healthy"'] == 1
            assert 'kind="placement"' in body.decode()  # repro_events_total

            status, body = _get(base + "/healthz")
            assert status == 200
            doc = json.loads(body)
            assert doc["status"] == "ok"
            assert doc["role"] == "broker"
            assert [p["provider_id"] for p in doc["providers"]] == ["p1"]
            assert doc["providers"][0]["grade"] == "healthy"

            status, body = _get(base + "/events?kind=" + ev.NODE_JOIN)
            assert status == 200
            joins = json.loads(body)["events"]
            assert [event["node"] for event in joins] == ["p1"]

            assert _get(base + "/readyz")[0] == 200

            # The provider's own plane: identity + connection state.
            status, body = _get(provider.obs.url + "/healthz")
            assert status == 200
            doc = json.loads(body)
            assert doc == {
                "status": "ok",
                "role": "provider",
                "node": "p1",
                "connected": True,
                "draining": False,
                "capacity": 2,
                "active_slots": 0,
                "inflight": 0,
                "epoch": 1,
                "benchmark_score": 1e5,
                "codec": "bin2",
            }
    finally:
        server.stop()
    # Stopped broker: the obs endpoint is gone with it.
    with pytest.raises((urllib.error.URLError, OSError)):
        urllib.request.urlopen(server.obs.url + "/healthz", timeout=0.5)


SEEDED = "func main(i: int) -> int { return rand_int(0, 1000000000) * 100 + i; }"


def test_map_is_one_socket_write():
    """A whole ``library.map`` is one registration and one flush, and is
    otherwise indistinguishable from as many ``submit`` calls."""
    server = TcpBroker().start()
    host, port = server.address
    try:
        with TcpProvider(host, port, node_id="p1", benchmark_score=1e7):
            wait_for_registration(server, 1)
            telemetry = Telemetry()  # the consumer's own: only its link counts
            with TcpConsumer(
                host, port, base_seed=7, telemetry=telemetry
            ) as consumer:
                flushes = consumer._link.metrics.flushes
                program = consumer.library.compile(SEEDED)
                before = flushes.value
                mapped = consumer.library.map(program, [[i] for i in range(50)])
                assert flushes.value - before == 1
                assert consumer.core.stats.submitted == 50
                mapped_values = consumer.library.gather(mapped, timeout=60)
            with TcpConsumer(host, port, base_seed=7) as consumer:
                singles = [
                    consumer.library.submit(SEEDED, args=[i]) for i in range(50)
                ]
                single_values = consumer.library.gather(singles, timeout=60)
    finally:
        server.stop()
    assert [f.tasklet_id for f in mapped] == [f.tasklet_id for f in singles]
    # The value is a function of the derived seed, so equal values mean
    # equal seeds; distinct values mean the seeds differ per tasklet.
    assert mapped_values == single_values
    assert len({value // 100 for value in mapped_values}) > 1
