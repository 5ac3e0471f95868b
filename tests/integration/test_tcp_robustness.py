"""TCP robustness: garbage on the wire, abrupt disconnects, process providers."""

import socket
import time

import pytest

from repro.common.ids import NodeId, TaskletId
from repro.common.serde import packed
from repro.core import kernels
from repro.core.qoc import QoC
from repro.core.tasklet import Tasklet
from repro.obs import Telemetry
from repro.provider.process import ProviderProcess
from repro.transport.codec import SUPPORTED_CODECS, encode_envelope
from repro.transport.message import (
    AssignExecution,
    CancelExecution,
    Envelope,
    ExecutionResult,
    Heartbeat,
    Hello,
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

from tests.transport.test_broker_link import Listener, read_envelopes, wait_until


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
    rogue.sendall(b"\x00\x00\x00\x05hello")  # valid length, invalid JSON
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
        consumer._link._connection.sock.close()  # vanish without goodbye
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
        hello, registration = read_envelopes(peer, 2)
        assert (hello.type, registration.type) == ("hello", "register_provider")
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
        assert provider._link.connected
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
        for codec in SUPPORTED_CODECS:
            peer.sendall(
                encode_envelope(mistyped, codec)
                + encode_envelope(unknown, codec)
                + encode_envelope(heartbeat, codec)
            )
            (nack,) = read_envelopes(peer, 1)  # the same link still answers
            assert nack.type == "register_ack" and not nack.payload["accepted"]
    assert broker.core.stats.messages_unreadable == 4
    assert len(broker.core.registry) == 0


def test_a_link_speaks_for_the_peer_it_introduced_itself_as(broker):
    """Regression (ROADMAP 3(b)): a peer could claim any ``envelope.src``.
    A consumer link that said hello as ``c1`` and then sends an
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
        hello = Hello(node_id="c1", codecs=["json"], role="consumer")
        consumer.sendall(encode_envelope(hello.envelope(c1, me)) + submit("tl-1"))
        assert [e.type for e in read_envelopes(consumer, 2)] == ["hello_ack", "submit_ack"]
        (assignment,) = read_envelopes(provider, 1)
        assert assignment.type == "assign_execution"
        forged = ExecutionResult(
            execution_id=assignment.payload["execution_id"],
            tasklet_id="tl-1",
            provider_id="prov-0",
            status="success",
            value=packed(666),
        ).envelope(prov, me)
        consumer.sendall(encode_envelope(forged) + submit("tl-2"))
        # The link is still up and still c1's: the next submit is answered
        # on it, and no ``tasklet_complete`` for tl-1 came first.
        (ack,) = read_envelopes(consumer, 1)
        assert (ack.type, ack.payload["tasklet_id"]) == ("submit_ack", "tl-2")
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
        assert read_envelopes(provider, 1)[0].payload["tasklet_id"] == "tl-2"
        (complete,) = read_envelopes(consumer, 1)
        assert complete.type == "tasklet_complete"
        assert (complete.payload["tasklet_id"], complete.payload["value"]) == ("tl-1", packed(42))


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
        wait_until(lambda: telemetry.events.events(kind="disconnect"), message="the report")
        (event,) = telemetry.events.events(kind="disconnect")
        assert event.node == "p9"
        assert event.attrs["reason"] == "handler fault: RuntimeError: boom"
        assert len(faults) == 1
        # Everybody else is served as before.
        with TcpProvider(host, port, node_id="p1", benchmark_score=1e7):
            _wait_registered(broker, 1)
