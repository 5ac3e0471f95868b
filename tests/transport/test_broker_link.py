"""The client-side broker link against plain listeners (no broker).

Everything a provider and a consumer need from their one connection is
``_BrokerLink``'s job, so it is pinned down here once: the dial order,
the backoff, the attempt cap, loss detection, what may be written first
on a new stream, and a clean ``close`` in every state.
"""

import random
import socket
import threading
import time

import pytest

from repro.bench.cluster import wait_until
from repro.common.errors import ConnectionClosed, FederationExhausted
from repro.common.ids import NodeId
from repro.obs.telemetry import Telemetry
from repro.transport import tcp
from repro.transport.codec import EnvelopeDecoder, encode_envelope
from repro.transport.message import Heartbeat, HeartbeatAck
from repro.transport.tcp import TcpConsumer, _BrokerLink

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


def heartbeat(i):
    return Heartbeat(provider_id=f"p{i}", free_slots=i).envelope(ME, BROKER)


def link_threads():
    return [t for t in threading.enumerate() if t.name == f"{ME}-link"]


class Owner:
    """Records what the link calls back."""

    def __init__(self):
        self.envelopes, self.lost = [], []


def make_link(brokers, owner=None, **kwargs):
    owner = owner or Owner()
    settings = dict(
        backoff=0.01,
        backoff_max=0.04,
        max_attempts=None,
        telemetry=None,
        on_envelope=owner.envelopes.append,
        on_lost=owner.lost.append,
        on_connect=lambda redial: [heartbeat(0)],  # stands in for a registration
    )
    settings.update(kwargs)
    return _BrokerLink(ME, brokers, None, None, **settings)


def test_redial_cycles_the_list_from_the_last_good_broker():
    first, second, third = Listener(listening=False), Listener(), Listener()
    telemetry = Telemetry()
    link = make_link(
        [first.address, second.address, third.address], telemetry=telemetry
    )
    try:
        link.start()  # first refuses, second answers
        peer = second.accept()
        assert read_envelopes(peer, 1)[0].type == "heartbeat"
        first.sock.listen(8)  # alive again — but not where the cycle resumes
        second.close()
        peer.close()
        assert read_envelopes(third.accept(), 1)[0].type == "heartbeat"
        wait_until(lambda: link.connected)
        with pytest.raises(socket.timeout):
            first.accept(timeout=0.2)
        (failover,) = telemetry.events.events(kind="broker_failover")
        assert failover.attrs["broker"] == "%s:%d" % third.address
    finally:
        link.close()
        for listener in (first, second, third):
            listener.close()


def test_backoff_doubles_to_its_cap_with_jitter_then_the_cap_raises(monkeypatch):
    waits = []
    original = tcp._jittered

    def recording(rng, delay):
        waits.append((delay, original(rng, delay)))
        return waits[-1][1]

    monkeypatch.setattr(tcp, "_jittered", recording)
    dead_a, dead_b = Listener(listening=False), Listener(listening=False)
    link = make_link([dead_a.address, dead_b.address], max_attempts=9)
    try:
        with pytest.raises(FederationExhausted) as excinfo:
            link.start()
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
    assert link.state == link.CLOSED and not link_threads()
    rng = random.Random(7)
    assert len({original(rng, 1.0) for _ in range(8)}) == 8  # it is jitter


def test_one_shot_start_raises_the_dials_own_error():
    dead = Listener(listening=False)
    try:
        with pytest.raises(ConnectionRefusedError):
            make_link([dead.address], max_attempts=0).start()
        with pytest.raises(ConnectionRefusedError):
            make_link([dead.address], max_attempts=None).start()
    finally:
        dead.close()


def test_redial_cap_ends_exhausted_with_the_typed_error_and_event():
    listener = Listener()
    telemetry, owner = Telemetry(), Owner()
    link = make_link(
        [listener.address], owner, max_attempts=3, telemetry=telemetry
    )
    try:
        link.start()
        peer = listener.accept()
        listener.close()
        peer.close()
        wait_until(lambda: link.state == link.EXHAUSTED, what="exhaustion")
        assert owner.lost == ["connection to broker lost"]
        assert link.exhausted.attempts == 3
        assert link.exhausted.brokers == ["%s:%d" % listener.address]
        (event,) = telemetry.events.events(kind="federation_exhausted")
        assert event.attrs["attempts"] == 3
        with pytest.raises(ConnectionClosed):
            link.send_many([heartbeat(1)])
        wait_until(lambda: not link_threads(), what="link thread exit")
    finally:
        link.close()


def test_garbage_from_the_peer_reports_the_link_lost():
    listener, owner = Listener(), Owner()
    link = make_link([listener.address], owner, max_attempts=0)
    try:
        link.start()
        peer = listener.accept()
        peer.sendall(b"\x00\x00\x00\x05hello")  # valid length, not bin2
        wait_until(lambda: owner.lost, what="on_lost")
        assert owner.lost == ["refused: not a bin2 frame: first body byte 0x68"]
        assert link.state == link.DOWN and not link.connected
        assert peer.recv(65536)[:4] and peer.recv(65536) == b""  # greeting, then EOF
        wait_until(lambda: not link_threads(), what="link thread exit")
    finally:
        link.close()
        listener.close()


def test_handler_fault_is_a_lost_link_not_a_deaf_one():
    """Regression: an exception out of ``on_envelope`` unwound the reader
    thread and left ``state`` at ``up`` — sends kept succeeding and nothing
    was ever read again.  It is the link's loss like any other: closed,
    reported with its cause, redialled."""
    listener, owner = Listener(), Owner()
    faults = []

    def on_envelope(envelope):
        if not faults:
            faults.append(envelope)
            raise RuntimeError("boom")
        owner.envelopes.append(envelope)

    def up_means_reading():
        return link.state != link.UP or link_threads()

    link = make_link([listener.address], owner, on_envelope=on_envelope)
    marker = HeartbeatAck(provider_id="n1", echo_sent_at=1.0).envelope(BROKER, ME)
    try:
        link.start()
        first = listener.accept()
        first.sendall(encode_envelope(marker))
        wait_until(lambda: owner.lost, what="on_lost")
        assert up_means_reading()
        assert owner.lost == ["handler fault: RuntimeError: boom"]
        assert first.recv(65536)[:4] and first.recv(65536) == b""  # greeting, then EOF
        second = listener.accept()  # the redial
        assert read_envelopes(second, 1)[0].type == "heartbeat"
        wait_until(lambda: link.connected)
        second.sendall(encode_envelope(marker))
        wait_until(lambda: owner.envelopes, what="delivery on the second incarnation")
        assert [envelope.type for envelope in owner.envelopes] == ["heartbeat_ack"]
        assert len(faults) == 1 and up_means_reading()
        link.send_many([heartbeat(1)])
        assert read_envelopes(second, 1)[0].type == "heartbeat"
        first.close()
        second.close()
    finally:
        link.close()
        listener.close()


def test_nothing_precedes_the_on_connect_envelopes():
    listener = Listener()
    connecting, registered = threading.Event(), threading.Event()

    def on_connect(redial):
        connecting.set()
        assert registered.wait(5.0)
        return [heartbeat(1)]  # stands in for a registration

    link = make_link([listener.address], on_connect=on_connect)
    refused = []

    def heartbeat_thread():
        assert connecting.wait(5.0)
        while True:  # as the provider's heartbeat loop would: retry until up
            try:
                link.send_many([heartbeat(2)])
                return
            except ConnectionClosed:
                refused.append(link.state)
                registered.set()
                time.sleep(0.005)

    sender = threading.Thread(target=heartbeat_thread)
    sender.start()
    try:
        link.start()
        sender.join(5.0)
        assert not sender.is_alive()
        received = read_envelopes(listener.accept(), 2)
        assert [envelope.payload["provider_id"] for envelope in received] == ["p1", "p2"]
        assert refused and set(refused) <= {link.CONNECTING}
    finally:
        registered.set()
        link.close()
        listener.close()


def test_a_dial_landing_after_close_says_and_leaves_nothing(monkeypatch):
    listener = Listener()
    link = make_link([listener.address])
    dialing, release = threading.Event(), threading.Event()
    real_connect = socket.create_connection
    try:
        link.start()
        first = listener.accept()

        def gated(address, timeout=None):
            dialing.set()
            assert release.wait(5.0)
            return real_connect(address, timeout=timeout)

        monkeypatch.setattr(socket, "create_connection", gated)
        first.close()  # link lost: the redial parks inside the gated dial
        assert dialing.wait(5.0)
        link.close()
        release.set()
        late = listener.accept()
        assert late.recv(65536) == b""  # closed at once, not even a greeting
        wait_until(lambda: not link_threads(), what="link thread exit")
        assert link.state == link.CLOSED and not link.connected
    finally:
        release.set()
        link.close()
        listener.close()


def test_consumer_stop_during_failover_is_prompt_and_leaves_nothing(monkeypatch):
    monkeypatch.setattr(tcp, "FAILOVER_BACKOFF_S", 0.05)
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
        wait_until(lambda: not link_threads(), what="link thread exit")
        assert telemetry.events.events(kind="federation_exhausted") == []
        assert disconnects == ["connection to broker lost"]
    finally:
        consumer.stop()
