"""The client side's one link to its broker, against plain listeners.

A provider and a consumer open their link with the same dial loop
(``aio.dial``, which federation peer links use too) and keep it in the
same ``_Client`` state, so what they share is pinned down here once: the
dial order, the backoff, the attempt cap, loss detection, what may be
written first on a new stream, and a clean ``stop`` in every state.  A
provider greets with its registration; a consumer says nothing first.
"""

import asyncio
import random
import socket
import threading
import time

import pytest

from repro.bench.cluster import wait_until
from repro.common.errors import BrokerUnreachable, FederationExhausted, TransportError
from repro.common.ids import NodeId
from repro.consumer.core import ConsumerCore
from repro.core import kernels
from repro.obs.telemetry import Telemetry
from repro.provider.core import ProviderCore
from repro.transport import aio, tcp
from repro.transport.codec import EnvelopeDecoder, encode_envelope
from repro.transport.message import HeartbeatAck
from repro.transport.tcp import TcpConsumer, TcpProvider

ME, BROKER = NodeId("n1"), NodeId("broker")


class Listener:
    """A bare TCP endpoint; ``listening=False`` only reserves the port."""

    def __init__(self, listening=True, port=0):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", port))
        self.address = self.sock.getsockname()
        if listening:
            self.sock.listen(8)

    def accept(self, timeout=5.0):
        self.sock.settimeout(timeout)
        peer, _ = self.sock.accept()
        peer.settimeout(5.0)
        return peer

    def close(self):
        self.sock.close()


def read_envelopes(peer, count):
    decoder, envelopes = EnvelopeDecoder(), []
    while len(envelopes) < count:
        chunk = peer.recv(65536)
        assert chunk, f"EOF after {len(envelopes)} of {count} envelopes"
        envelopes.extend(envelope for envelope, _size in decoder.feed(chunk))
    return envelopes


def sever(node):
    """Cut a client's link as a dead network would: the socket goes,
    without a goodbye, on the loop that owns it."""
    connection = node._connection
    assert connection is not None, f"{node.node_id}'s link is {node.state}"
    node._loop.call_soon_threadsafe(connection._transport.abort)


def link_threads():
    return [t for t in threading.enumerate() if t.name == f"{ME}-link"]


@pytest.fixture
def quick(monkeypatch):
    """Backoffs short enough to watch several rounds."""
    monkeypatch.setattr(aio, "RECONNECT_BACKOFF_S", 0.01)
    monkeypatch.setattr(aio, "RECONNECT_BACKOFF_MAX_S", 0.04)
    monkeypatch.setattr(tcp, "FAILOVER_BACKOFF_MAX_S", 0.04)


def provider(brokers, **options):
    settings = dict(node_id=str(ME), benchmark_score=1e7, heartbeat_interval=30.0)
    settings.update(options)
    return TcpProvider(brokers=brokers, **settings)


def test_redial_cycles_the_list_from_the_last_good_broker(quick):
    first, second, third = Listener(listening=False), Listener(), Listener()
    telemetry = Telemetry()
    node = provider([first.address, second.address, third.address], telemetry=telemetry)
    try:
        node.start()  # first refuses, second answers
        peer = second.accept()
        assert read_envelopes(peer, 1)[0].type == "register_provider"
        first.sock.listen(8)  # alive again — but not where the cycle resumes
        second.close()
        peer.close()
        assert read_envelopes(third.accept(), 1)[0].type == "register_provider"
        wait_until(lambda: node.connected)
        with pytest.raises(socket.timeout):
            first.accept(timeout=0.2)
        (failover,) = telemetry.events.events(kind="broker_failover")
        assert failover.attrs["broker"] == "%s:%d" % third.address
    finally:
        node.stop()
        for listener in (first, second, third):
            listener.close()


def test_backoff_doubles_to_its_cap_with_jitter_then_the_cap_raises(monkeypatch, quick):
    waits = []
    original = aio._jittered

    def recording(rng, delay):
        waits.append((delay, original(rng, delay)))
        return waits[-1][1]

    monkeypatch.setattr(aio, "_jittered", recording)
    monkeypatch.setattr(tcp, "MAX_FAILOVER_ATTEMPTS", 9)
    dead_a, dead_b = Listener(listening=False), Listener(listening=False)
    consumer = TcpConsumer(node_id=str(ME), brokers=[dead_a.address, dead_b.address])
    try:
        with pytest.raises(FederationExhausted) as excinfo:
            consumer.start()
    finally:
        dead_a.close()
        dead_b.close()
    # Rounds of two dials until at least nine have failed: five rounds.
    assert excinfo.value.attempts == 10
    assert excinfo.value.brokers == [
        "%s:%d" % dead_a.address,
        "%s:%d" % dead_b.address,
    ]
    assert isinstance(excinfo.value.__cause__, OSError)
    assert [delay for delay, _ in waits] == [0.01, 0.02, 0.04, 0.04]
    assert all(delay <= waited <= 1.5 * delay for delay, waited in waits)
    assert consumer.state == consumer.CLOSED and not link_threads()
    rng = random.Random(7)
    assert len({original(rng, 1.0) for _ in range(8)}) == 8  # it is jitter


def test_one_shot_start_raises_the_dials_own_error():
    dead = Listener(listening=False)
    try:
        with pytest.raises(ConnectionRefusedError):
            TcpConsumer(*dead.address, node_id=str(ME)).start()
        with pytest.raises(ConnectionRefusedError):
            provider([dead.address]).start()  # redials forever, but dials once first
        assert not link_threads()
    finally:
        dead.close()


def test_redial_cap_ends_exhausted_with_the_typed_error_and_event(monkeypatch, quick):
    monkeypatch.setattr(tcp, "MAX_FAILOVER_ATTEMPTS", 3)
    listener = Listener()
    telemetry, lost = Telemetry(), []
    consumer = TcpConsumer(
        node_id=str(ME), brokers=[listener.address], telemetry=telemetry,
        on_disconnect=lost.append,
    )
    try:
        consumer.start()
        peer = listener.accept()
        listener.close()
        peer.close()
        wait_until(lambda: consumer.state == consumer.EXHAUSTED, what="exhaustion")
        assert lost == ["connection to broker lost"]
        assert consumer.exhausted.attempts == 3
        assert consumer.exhausted.brokers == ["%s:%d" % listener.address]
        (event,) = telemetry.events.events(kind="federation_exhausted")
        assert event.attrs["attempts"] == 3
        with pytest.raises(FederationExhausted):
            consumer.library.submit(kernels.PRIME_COUNT, args=[10])
    finally:
        consumer.stop()
    assert not link_threads()


def test_garbage_from_the_peer_reports_the_link_lost():
    listener, telemetry = Listener(), Telemetry()
    node = provider([listener.address], reconnect=False, telemetry=telemetry)
    try:
        node.start()
        peer = listener.accept()
        peer.sendall(b"\x00\x00\x00\x05hello")  # valid length, not bin2
        wait_until(lambda: telemetry.events.events(kind="disconnect"), what="the loss")
        (event,) = telemetry.events.events(kind="disconnect")
        assert event.attrs["reason"] == "refused: not a bin2 frame: first body byte 0x68"
        assert event.attrs["will_reconnect"] is False
        assert node.state == node.DOWN and not node.connected
        assert read_envelopes(peer, 1)[0].type == "register_provider"
        assert peer.recv(65536) == b""  # the greeting, then EOF
    finally:
        node.stop()
        listener.close()
    assert not link_threads()


def test_handler_fault_is_a_lost_link_not_a_deaf_one(monkeypatch, quick):
    """Regression: an exception out of the envelope handler unwound the
    reader and left the link ``up`` — sends kept succeeding and nothing was
    ever read again.  It is the link's loss like any other: closed,
    reported with its cause, redialled."""
    listener, lost, delivered, faults = Listener(), [], [], []
    real_handle = ConsumerCore.handle

    def handle(core, envelope):
        if not faults:
            faults.append(envelope)
            raise RuntimeError("boom")
        delivered.append(envelope)
        return real_handle(core, envelope)

    monkeypatch.setattr(ConsumerCore, "handle", handle)
    consumer = TcpConsumer(
        node_id=str(ME), brokers=[listener.address], on_disconnect=lost.append
    )
    marker = HeartbeatAck(provider_id="n1", echo_sent_at=1.0).envelope(BROKER, ME)
    try:
        consumer.start()
        first = listener.accept()
        first.sendall(encode_envelope(marker))
        wait_until(lambda: lost, what="on_disconnect")
        assert lost == ["handler fault: RuntimeError: boom"]
        assert first.recv(65536) == b""  # closed: no deaf link left up
        second = listener.accept()  # the redial
        wait_until(lambda: consumer.connected)
        second.sendall(encode_envelope(marker))
        wait_until(lambda: delivered, what="delivery on the second incarnation")
        assert [envelope.type for envelope in delivered] == ["heartbeat_ack"]
        assert len(faults) == 1 and consumer.connected
        consumer.library.submit(kernels.PRIME_COUNT, args=[10])
        assert read_envelopes(second, 1)[0].type == "submit_tasklet"
        first.close()
        second.close()
    finally:
        consumer.stop()
        listener.close()


def test_nothing_precedes_the_on_connect_envelopes(monkeypatch, quick):
    """A redial's registration is queued by the dial's factory, before the
    link is up; heartbeats keep firing on the same loop meanwhile, and a
    slow registration holds them back rather than letting one overtake
    it."""
    real_registration = ProviderCore.registration

    def slow_registration(core):
        time.sleep(0.1)  # three heartbeat intervals, on the loop
        return real_registration(core)

    listener = Listener()
    node = provider([listener.address], heartbeat_interval=0.03)
    try:
        node.start()
        first = listener.accept()
        assert read_envelopes(first, 2)[1].type == "heartbeat"  # beating
        monkeypatch.setattr(ProviderCore, "registration", slow_registration)
        first.close()
        received = read_envelopes(listener.accept(), 3)
        assert [envelope.type for envelope in received] == [
            "register_provider", "heartbeat", "heartbeat",
        ]
    finally:
        node.stop()
        listener.close()


def test_a_dial_landing_after_close_says_and_leaves_nothing(monkeypatch, quick):
    listener = Listener()
    consumer = TcpConsumer(node_id=str(ME), brokers=[listener.address])
    dialing = threading.Event()
    real_connect = asyncio.BaseEventLoop.create_connection

    async def slow(loop, *args, **kwargs):
        dialing.set()
        await asyncio.sleep(0.3)  # a dial still in flight when stop() comes
        return await real_connect(loop, *args, **kwargs)

    try:
        consumer.start()
        first = listener.accept()
        monkeypatch.setattr(asyncio.BaseEventLoop, "create_connection", slow)
        first.close()  # link lost: the redial parks inside the slow dial
        assert dialing.wait(5.0)
        consumer.stop()
        assert not link_threads()
        assert consumer.state == consumer.CLOSED and not consumer.connected
        try:
            late = listener.accept(timeout=0.6)
        except socket.timeout:
            pass  # the dial was dropped before it connected
        else:
            assert late.recv(65536) == b""  # or closed at once, not a byte said
    finally:
        consumer.stop()
        listener.close()


def test_consumer_stop_during_failover_is_prompt_and_leaves_nothing(monkeypatch):
    monkeypatch.setattr(aio, "RECONNECT_BACKOFF_S", 0.05)
    monkeypatch.setattr(tcp, "FAILOVER_BACKOFF_MAX_S", 0.05)
    monkeypatch.setattr(tcp, "MAX_FAILOVER_ATTEMPTS", 10_000)
    listener = Listener()
    telemetry, disconnects = Telemetry(), []
    consumer = TcpConsumer(
        node_id="n1",
        brokers=[listener.address],
        on_disconnect=disconnects.append,
        telemetry=telemetry,
    ).start()
    try:
        peer = listener.accept()
        listener.close()
        peer.close()
        wait_until(lambda: disconnects, what="on_disconnect")
        assert not consumer.connected
        time.sleep(0.12)  # a few refused redials into the failover
        started = time.monotonic()
        consumer.stop()
        assert time.monotonic() - started < 0.5
        # A broker that comes back late finds nobody dialing it any more.
        late = Listener(port=listener.address[1])
        try:
            with pytest.raises(socket.timeout):
                late.accept(timeout=0.4)
        finally:
            late.close()
        assert not link_threads()
        assert telemetry.events.events(kind="federation_exhausted") == []
        assert disconnects == ["connection to broker lost"]
        with pytest.raises(TransportError, match="not started"):
            consumer.library.submit(kernels.PRIME_COUNT, args=[10])
    finally:
        consumer.stop()


def test_a_consumer_stopped_from_its_own_disconnect_hook_winds_down():
    """``on_disconnect`` runs on the consumer's loop; a ``stop()`` there
    cannot join its own thread, so it stops the loop instead of waiting."""
    listener, stopped = Listener(), []
    consumer = None

    def on_disconnect(reason):
        consumer.stop()
        stopped.append(reason)

    consumer = TcpConsumer(*listener.address, node_id=str(ME), on_disconnect=on_disconnect)
    try:
        consumer.start()
        listener.accept().close()
        wait_until(lambda: stopped, what="the hook's stop")
        wait_until(lambda: not link_threads(), what="the loop thread's exit")
        assert consumer.state == consumer.CLOSED
        with pytest.raises(TransportError, match="not started"):
            consumer.library.submit(kernels.PRIME_COUNT, args=[10])
    finally:
        consumer.stop()
        listener.close()


def test_a_consumer_reconnected_from_its_own_disconnect_hook_serves_again():
    """A ``reconnect()`` inside ``on_disconnect`` (the consumer's loop)
    cannot wait for its dial there: the dial runs next, and a submission
    the hook makes at once waits for it and is written on the new link."""
    listener, calls = Listener(), []
    consumer = None

    def on_disconnect(reason):
        consumer.reconnect()
        calls.append(consumer.library.submit(kernels.PRIME_COUNT, args=[10], tasklet_id="t2"))

    consumer = TcpConsumer(*listener.address, node_id=str(ME), on_disconnect=on_disconnect)
    try:
        consumer.start()
        first = listener.accept()
        lost = consumer.library.submit(kernels.PRIME_COUNT, args=[10], tasklet_id="t1")
        assert read_envelopes(first, 1)[0].payload["tasklet"]["tasklet_id"] == "t1"
        first.close()
        with pytest.raises(BrokerUnreachable):
            lost.result(timeout=5)
        second = listener.accept()
        (resubmitted,) = read_envelopes(second, 1)
        assert resubmitted.payload["tasklet"]["tasklet_id"] == "t2"
        assert consumer.connected and len(calls) == 1 and not calls[0].done
        assert len(link_threads()) == 1
        second.close()
    finally:
        consumer.stop()
        listener.close()


def test_a_reconnect_from_the_hook_that_finds_no_broker_leaves_the_link_down():
    """The hook's dial has nobody waiting to be told it failed: the link
    stays down, so what is submitted fails typed, and the error goes to
    the loop's exception handler."""
    listener, errors = Listener(), []
    consumer = None

    def on_disconnect(reason):
        consumer._loop.set_exception_handler(lambda loop, context: errors.append(context))
        listener.close()  # nothing answers the redial
        consumer.reconnect()

    consumer = TcpConsumer(*listener.address, node_id=str(ME), on_disconnect=on_disconnect)
    try:
        consumer.start()
        listener.accept().close()
        wait_until(lambda: errors, what="the failed dial's report")
        assert isinstance(errors[0]["exception"], OSError)
        assert consumer.state == consumer.DOWN and not consumer.connected
        doomed = consumer.library.submit(kernels.PRIME_COUNT, args=[10], tasklet_id="t3")
        with pytest.raises(BrokerUnreachable):
            doomed.result(timeout=5)
    finally:
        consumer.stop()
        listener.close()
