"""TCP robustness: garbage on the wire, abrupt disconnects, process providers."""

import json
import socket
import time

import pytest

from repro.bench.cluster import wait_until
from repro.common.ids import NodeId, TaskletId
from repro.common.serde import packed
from repro.core import kernels
from repro.core.qoc import QoC
from repro.core.tasklet import Tasklet
from repro.obs import Telemetry
from repro.provider.process import ProviderProcess
from repro.transport.codec import encode_envelope
from repro.transport.message import (
    AssignExecution,
    CancelExecution,
    Envelope,
    ExecutionResult,
    Heartbeat,
    RegisterAck,
    RegisterProvider,
    SubmitTasklet,
    Unregister,
)
from repro.transport.tcp import (
    TcpBroker,
    TcpConsumer,
    TcpProvider,
)
from repro.tvm.compiler import compile_source

from tests.transport.test_broker_link import Listener, read_envelopes, sever


@pytest.fixture
def broker():
    server = TcpBroker().start()
    yield server
    server.stop()


def _wait_registered(broker, count, timeout=15.0):
    deadline = time.perf_counter() + timeout
    while len(broker.core.registry) < count:
        if time.perf_counter() > deadline:
            raise TimeoutError("registration timeout")
        time.sleep(0.02)


def test_garbage_bytes_do_not_kill_the_broker(broker):
    host, port = broker.address
    # A client that speaks nonsense...
    rogue = socket.create_connection((host, port))
    rogue.sendall(b"\x00\x00\x00\x05hello")  # valid length, not bin2
    time.sleep(0.2)
    rogue.close()
    # ...must not affect well-behaved peers.
    with TcpProvider(host, port, node_id="p1", benchmark_score=1e7):
        _wait_registered(broker, 1)
        with TcpConsumer(host, port) as consumer:
            future = consumer.library.submit(kernels.PRIME_COUNT, args=[300])
            assert future.result(timeout=30) == kernels.python_prime_count(300)


def test_oversized_length_prefix_is_contained(broker):
    host, port = broker.address
    rogue = socket.create_connection((host, port))
    rogue.sendall((2**31 - 1).to_bytes(4, "big"))  # claims a 2 GiB frame
    time.sleep(0.2)
    rogue.close()
    with TcpProvider(host, port, node_id="p1", benchmark_score=1e7):
        _wait_registered(broker, 1)  # broker still alive and serving


def test_abrupt_consumer_disconnect_leaves_broker_healthy(broker):
    host, port = broker.address
    with TcpProvider(host, port, node_id="p1", benchmark_score=1e7):
        _wait_registered(broker, 1)
        consumer = TcpConsumer(host, port).start()
        consumer.library.submit(kernels.PRIME_COUNT, args=[5000])
        sever(consumer)  # vanish without goodbye
        time.sleep(0.3)
        # New consumers are served normally.
        with TcpConsumer(host, port) as fresh:
            future = fresh.library.submit(kernels.PRIME_COUNT, args=[200])
            assert future.result(timeout=30) == kernels.python_prime_count(200)


def test_provider_process_lifecycle(broker):
    host, port = broker.address
    process = ProviderProcess(
        host, port, capacity=1, node_id="proc-1", benchmark_score=1e7
    ).start()
    try:
        _wait_registered(broker, 1)
        with TcpConsumer(host, port) as consumer:
            future = consumer.library.submit(kernels.PRIME_COUNT, args=[400])
            assert future.result(timeout=60) == kernels.python_prime_count(400)
    finally:
        process.stop()
    assert not process._process.is_alive()


def test_two_consumers_share_one_broker(broker):
    host, port = broker.address
    with TcpProvider(host, port, node_id="p1", capacity=2, benchmark_score=1e7):
        _wait_registered(broker, 1)
        with TcpConsumer(host, port) as first, TcpConsumer(host, port) as second:
            f1 = first.library.submit(kernels.PRIME_COUNT, args=[300])
            f2 = second.library.submit(kernels.PRIME_COUNT, args=[500])
            assert f1.result(timeout=30) == kernels.python_prime_count(300)
            assert f2.result(timeout=30) == kernels.python_prime_count(500)


def test_messages_larger_than_one_recv_chunk(broker):
    # Regression: a frame spanning multiple 64 KiB recv() chunks must be
    # reassembled, not treated as a dead connection.
    host, port = broker.address
    parts = []
    for index in range(450):
        parts.append(
            f"func helper_{index}(x: float) -> float {{\n"
            f"    return x * {index}.5 + sqrt(abs(x) + {index}.0);\n"
            f"}}\n"
        )
    parts.append(
        "func main(x: float) -> float { return helper_0(x) + helper_449(x); }"
    )
    big_source = "".join(parts)
    from repro.tvm.compiler import compile_source
    program = compile_source(big_source)
    # The assignment that ships this program exceeds one recv chunk.
    assert len(program.packed()) > 65536

    with TcpProvider(host, port, node_id="p1", benchmark_score=1e7):
        _wait_registered(broker, 1)
        with TcpConsumer(host, port) as consumer:
            future = consumer.library.submit(program, args=[2.0])
            expected = 2.0 * 0.5 + (2.0 + 0.0) ** 0.5 + (
                2.0 * 449.5 + (2.0 + 449.0) ** 0.5
            )
            assert future.result(timeout=60) == pytest.approx(expected)


# -- the wire boundary on real sockets ------------------------------------------


def test_unhashable_cancel_does_not_deafen_the_provider():
    """Regression: ``cancel_execution`` with ``execution_id: {}`` raised
    ``TypeError: unhashable`` on the provider's link thread, which died
    behind an ``up`` link — heartbeats kept flowing, nothing was ever read
    again.  The cancel is unreadable; the assignment behind it is served."""
    program = compile_source("func main(x: int) -> int { return x + 1; }")
    listener = Listener()
    provider = TcpProvider(*listener.address, node_id="p1", benchmark_score=1e7).start()
    peer = listener.accept()
    try:
        (registration,) = read_envelopes(peer, 1)
        assert registration.type == "register_provider"
        me, them = NodeId("broker"), NodeId("p1")
        cancel = CancelExecution(execution_id="ex-0").envelope(me, them)
        cancel.payload["execution_id"] = {}
        assign = AssignExecution(
            execution_id="ex-1",
            tasklet_id="tl-1",
            consumer_id="c1",
            program=program.packed(),
            program_fingerprint=program.fingerprint(),
            entry="main",
            args=packed([41]),
            seed=0,
            fuel=10_000,
        ).envelope(me, them)
        peer.sendall(
            encode_envelope(RegisterAck(accepted=True).envelope(me, them))
            + encode_envelope(cancel)
            + encode_envelope(assign)
        )
        (result,) = read_envelopes(peer, 1)
        assert result.type == "execution_result"
        assert (result.payload["execution_id"], result.payload["value"]) == ("ex-1", packed(42))
        assert provider.connected
    finally:
        provider.stop()
        peer.close()
        listener.close()


def test_unreadable_envelopes_are_counted_and_the_link_keeps_serving(broker):
    host, port = broker.address
    stranger, me = NodeId("ghost"), NodeId("broker")
    mistyped = Heartbeat(provider_id="ghost", free_slots=1).envelope(stranger, me)
    mistyped.payload["free_slots"] = "many"
    unknown = Envelope(type="from_the_future", src=stranger, dst=me, payload={})
    heartbeat = Heartbeat(provider_id="ghost", free_slots=1).envelope(stranger, me)
    with socket.create_connection((host, port)) as peer:
        peer.settimeout(5.0)
        for _ in range(2):
            peer.sendall(
                encode_envelope(mistyped)
                + encode_envelope(unknown)
                + encode_envelope(heartbeat)
            )
            (nack,) = read_envelopes(peer, 1)  # the same link still answers
            assert nack.type == "register_ack" and not nack.payload["accepted"]
    assert broker.core.stats.messages_unreadable == 4
    assert len(broker.core.registry) == 0


def test_a_link_speaks_for_the_peer_it_introduced_itself_as(broker):
    """Regression (ROADMAP 3(b)): a peer could claim any ``envelope.src``.
    A consumer link that introduced itself as ``c1`` and then sends an
    ``execution_result`` as ``prov-0`` — naming an execution that really is
    outstanding on ``prov-0`` — decides nothing, re-points no route and is
    counted; the link stays up and keeps being answered as ``c1``."""
    me, c1, prov = NodeId("broker"), NodeId("c1"), NodeId("prov-0")
    program = compile_source("func main(x: int) -> int { return x + 1; }")

    def submit(name):
        tasklet = Tasklet(
            tasklet_id=TaskletId(name), program=program, entry="main", args=[41], qoc=QoC()
        )
        return encode_envelope(SubmitTasklet(tasklet=tasklet.to_dict()).envelope(c1, me))

    with socket.create_connection(broker.address) as provider, socket.create_connection(
        broker.address
    ) as consumer:
        provider.settimeout(5.0)
        consumer.settimeout(5.0)
        registration = RegisterProvider(
            provider_id="prov-0", device_class="host", capacity=1, benchmark_score=1e7
        )
        provider.sendall(encode_envelope(registration.envelope(prov, me)))
        assert read_envelopes(provider, 1)[0].type == "register_ack"
        consumer.sendall(submit("tl-1"))
        (assignment,) = read_envelopes(provider, 1)  # (an accepted submit is not acked)
        assert assignment.type == "assign_execution"
        forged = ExecutionResult(
            execution_id=assignment.payload["execution_id"],
            tasklet_id="tl-1",
            provider_id="prov-0",
            status="success",
            value=packed(666),
        ).envelope(prov, me)
        consumer.sendall(encode_envelope(forged) + submit("tl-2"))
        # The link is still up and still c1's: the next submit is admitted
        # from it (and answered on it below), and tl-1 is not decided.
        wait_until(lambda: broker.core.pending_tasklets == 2, what="tl-2's admission")
        assert broker.core.stats.messages_unreadable == 1
        assert broker.core.stats.tasklets_completed == 0
        assert broker.core.pending_tasklets == 2
        # prov-0's route was not taken over: its real result still decides.
        real = ExecutionResult(
            execution_id=assignment.payload["execution_id"],
            tasklet_id="tl-1",
            provider_id="prov-0",
            status="success",
            value=packed(42),
        ).envelope(prov, me)
        provider.sendall(encode_envelope(real))
        (second,) = read_envelopes(provider, 1)
        assert second.payload["tasklet_id"] == "tl-2"
        (complete,) = read_envelopes(consumer, 1)
        assert complete.type == "tasklet_complete"
        assert (complete.payload["tasklet_id"], complete.payload["value"]) == ("tl-1", packed(42))
        provider.sendall(encode_envelope(ExecutionResult(
            execution_id=second.payload["execution_id"], tasklet_id="tl-2",
            provider_id="prov-0", status="success", value=packed(42),
        ).envelope(prov, me)))
        (complete,) = read_envelopes(consumer, 1)
        assert (complete.type, complete.payload["tasklet_id"]) == ("tasklet_complete", "tl-2")


def test_a_json_frame_is_refused_on_its_link_only():
    """bin2 is the only wire: a frame whose first body byte is not 0xB2 —
    here the ``{`` of the JSON frames older builds opened with — closes
    that link with one ``disconnect`` event naming the byte, while a bin2
    link opened before it keeps being served."""
    telemetry = Telemetry()
    me, c1, prov = NodeId("broker"), NodeId("c1"), NodeId("prov-0")
    program = compile_source("func main(x: int) -> int { return x + 1; }")

    with TcpBroker(telemetry=telemetry) as broker, socket.create_connection(
        broker.address
    ) as provider:
        provider.settimeout(5.0)
        registration = RegisterProvider(
            provider_id="prov-0", device_class="host", capacity=1, benchmark_score=1e7
        )
        provider.sendall(encode_envelope(registration.envelope(prov, me)))
        assert read_envelopes(provider, 1)[0].type == "register_ack"

        def served(link, name, x):
            """``name``, submitted on ``link``, is assigned and its outcome
            comes back on ``link``: the link is read and answered."""
            tasklet = Tasklet(TaskletId(name), program, "main", args=[x], qoc=QoC())
            link.sendall(encode_envelope(SubmitTasklet(tasklet=tasklet.to_dict()).envelope(c1, me)))
            (assignment,) = read_envelopes(provider, 1)
            assert (assignment.type, assignment.payload["tasklet_id"]) == ("assign_execution", name)
            provider.sendall(encode_envelope(ExecutionResult(
                execution_id=assignment.payload["execution_id"], tasklet_id=name,
                provider_id="prov-0", status="success", value=packed(x + 1),
            ).envelope(prov, me)))
            (complete,) = read_envelopes(link, 1)
            assert (complete.type, complete.payload["tasklet_id"]) == ("tasklet_complete", name)

        with socket.create_connection(broker.address) as good:
            good.settimeout(5.0)
            served(good, "tl-1", 41)
            document = {"type": "heartbeat", "src": "old", "dst": "broker", "seq": 0,
                        "payload": {"provider_id": "old", "free_slots": 1}}
            body = json.dumps(document).encode()
            with socket.create_connection(broker.address) as old:
                old.settimeout(5.0)
                old.sendall(len(body).to_bytes(4, "big") + body)
                assert old.recv(65536) == b""  # refused: closed, nothing said
            wait_until(lambda: telemetry.events.events(kind="disconnect"), what="the report")
            (event,) = telemetry.events.events(kind="disconnect")
            assert event.attrs["reason"] == "refused: not a bin2 frame: first body byte 0x7b"
            served(good, "tl-2", 42)
        assert [r.provider_id for r in broker.core.registry.records()] == ["prov-0"]
        assert broker.core.stats.messages_unreadable == 0


def test_a_handler_fault_on_the_broker_costs_that_link_and_says_why():
    telemetry = Telemetry()
    with TcpBroker(telemetry=telemetry) as broker:
        host, port = broker.address
        real_handle, faults = broker.core.handle, []

        def faulty(envelope):
            if envelope.type == "unregister":
                faults.append(envelope)
                raise RuntimeError("boom")
            return real_handle(envelope)

        broker.core.handle = faulty
        goodbye = Unregister(provider_id="p9").envelope(NodeId("p9"), NodeId("broker"))
        with socket.create_connection((host, port)) as peer:
            peer.settimeout(5.0)
            peer.sendall(encode_envelope(goodbye))
            assert peer.recv(65536) == b""  # closed, not left deaf
        wait_until(lambda: telemetry.events.events(kind="disconnect"), what="the report")
        (event,) = telemetry.events.events(kind="disconnect")
        assert event.node == "p9"
        assert event.attrs["reason"] == "handler fault: RuntimeError: boom"
        assert len(faults) == 1
        # Everybody else is served as before.
        with TcpProvider(host, port, node_id="p1", benchmark_score=1e7):
            _wait_registered(broker, 1)


# -- liveness under a stalled broker (ROADMAP 2(i)) ---------------------------------


def test_a_stalled_broker_loop_does_not_kill_a_heartbeating_provider():
    """A broker loop blocked for longer than a provider's silence horizon
    must not declare that provider dead: the heartbeats that arrived during
    the stall are read (I/O callbacks run before the timers that fell due)
    before the tick that follows it.  The control: the same detector does
    declare a provider that really went silent."""
    telemetry = Telemetry()
    with TcpBroker(telemetry=telemetry) as broker:
        host, port = broker.address
        provider = TcpProvider(
            host, port, node_id="p1", benchmark_score=1e7, reconnect=False
        ).start()
        try:
            _wait_registered(broker, 1)
            registry = broker.core.registry
            horizon = registry.horizon(registry.get(NodeId("p1")))
            assert horizon == 3.0  # the defaults: a 1 s heartbeat, 3 missed
            stall = horizon + 1.0
            broker._loop.call_soon_threadsafe(time.sleep, stall)
            time.sleep(stall + 1.5)  # the stall, then three ticks after it
            assert telemetry.events.events(kind="node_dead") == []
            assert broker.core.stats.providers_failed == 0
            provider.core.stop()  # control: no more heartbeats ...
            sever(provider)  # ... and no link
            wait_until(
                lambda: broker.core.stats.providers_failed == 1,
                timeout=horizon + 5.0,
                what="the failure detector",
            )
            (dead,) = telemetry.events.events(kind="node_dead")
            assert dead.node == "p1"
        finally:
            provider.stop()
