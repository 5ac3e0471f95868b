"""The client-side broker link against plain listeners (no broker).

Everything a provider and a consumer need from their one connection is
``_BrokerLink``'s job, so it is pinned down here once: the dial order,
the backoff, the attempt cap, codec acceptance, loss detection, what may
be written first on a new stream, and a clean ``close`` in every state.
(One test does start a broker: what a peer of the replaced codec gets.)
"""

import random
import socket
import threading
import time

import pytest

from repro.common.errors import ConnectionClosed, FederationExhausted
from repro.common.ids import NodeId
from repro.obs.telemetry import Telemetry
from repro.transport import tcp
from repro.transport.codec import CODEC_BINARY, EnvelopeDecoder, encode_envelope
from repro.transport.message import Heartbeat, HeartbeatAck, Hello, HelloAck
from repro.transport.tcp import TcpBroker, TcpConsumer, TcpProvider, _BrokerLink

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
        envelopes.extend(envelope for envelope, _c, _s in decoder.feed(chunk))
    return envelopes


def heartbeat(i):
    return Heartbeat(provider_id=f"p{i}", free_slots=i).envelope(ME, BROKER)


def wait_until(predicate, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {message}"
        time.sleep(0.01)


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
    )
    settings.update(kwargs)
    codec = settings.pop("codec", "binary")
    link = _BrokerLink(ME, "provider", brokers, None, None, **settings)
    if codec == "json":  # play a peer that offers nothing better
        link._offered = ("json",)
        link._hello = Hello(node_id=ME, codecs=["json"], role="provider").envelope(
            ME, BROKER
        )
    return link


def test_redial_cycles_the_list_from_the_last_good_broker():
    first, second, third = Listener(listening=False), Listener(), Listener()
    telemetry = Telemetry()
    link = make_link(
        [first.address, second.address, third.address], telemetry=telemetry
    )
    try:
        link.start()  # first refuses, second answers
        peer = second.accept()
        assert read_envelopes(peer, 1)[0].type == "hello"
        first.sock.listen(8)  # alive again — but not where the cycle resumes
        second.close()
        peer.close()
        assert read_envelopes(third.accept(), 1)[0].type == "hello"
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
        wait_until(lambda: link.state == link.EXHAUSTED, message="exhaustion")
        assert owner.lost == ["connection to broker lost"]
        assert link.exhausted.attempts == 3
        assert link.exhausted.brokers == ["%s:%d" % listener.address]
        (event,) = telemetry.events.events(kind="federation_exhausted")
        assert event.attrs["attempts"] == 3
        with pytest.raises(ConnectionClosed):
            link.send_many([(heartbeat(1), None)])
        wait_until(lambda: not link_threads(), message="link thread exit")
    finally:
        link.close()


@pytest.mark.parametrize(
    "codec, acked, expected",
    [
        ("json", "bin1", "json"),
        # The id predates the codec's second contract name; kept so the
        # suite's history stays comparable across the rename.
        pytest.param("binary", CODEC_BINARY, CODEC_BINARY, id="binary-bin1-bin1"),
        ("binary", "bin1", "json"),  # the replaced contract is never offered
        ("binary", "zstd9", "json"),
    ],
)
def test_hello_ack_switches_only_to_an_offered_codec(codec, acked, expected):
    listener, owner = Listener(), Owner()
    link = make_link([listener.address], owner, codec=codec)
    try:
        link.start()
        peer = listener.accept()
        ack = HelloAck(codec=acked, codecs=[acked]).envelope(BROKER, ME)
        marker = HeartbeatAck(provider_id="n1", echo_sent_at=1.0)
        peer.sendall(encode_envelope(ack) + encode_envelope(marker.envelope(BROKER, ME)))
        # The ack is consumed by the link; the marker behind it reaches us.
        wait_until(lambda: owner.envelopes, message="marker delivery")
        assert [envelope.type for envelope in owner.envelopes] == ["heartbeat_ack"]
        assert link.send_codec == expected
    finally:
        link.close()
        listener.close()


def test_peer_offering_only_bin1_negotiates_json_and_round_trips_an_array():
    """A build from before ``bin2`` offers a codec this one no longer
    speaks: both directions settle on JSON, and an array — which ``bin2``
    would have bulk-packed — crosses all four hops intact."""
    array = [(-1) ** i * i * 2_000_003 for i in range(1024)]
    with TcpBroker() as broker:
        host, port = broker.address
        with TcpProvider(host, port, node_id="p1", benchmark_score=1e7):
            wait_until(lambda: len(broker.core.registry) == 1, message="registration")
            consumer = TcpConsumer(host, port, node_id="old-consumer")
            consumer._link._offered = ("bin1",)
            consumer._link._hello = Hello(
                node_id="old-consumer", codecs=["bin1"], role="consumer"
            ).envelope(NodeId("old-consumer"), BROKER)
            with consumer:
                future = consumer.library.submit(
                    "func main(a: array) -> array { return a; }", args=[array]
                )
                result = future.result(timeout=30)
                assert result == array and set(map(type, result)) == {int}
                assert consumer._link.send_codec == "json"
                codecs = broker._health_document()["transport"]["codecs"]
                assert codecs == {"json": 1, CODEC_BINARY: 1}  # the consumer, the provider


def test_garbage_from_the_peer_reports_the_link_lost():
    listener, owner = Listener(), Owner()
    link = make_link([listener.address], owner, max_attempts=0)
    try:
        link.start()
        peer = listener.accept()
        peer.sendall(b"\x00\x00\x00\x05hello")  # valid length, invalid body
        wait_until(lambda: owner.lost, message="on_lost")
        assert owner.lost == ["connection to broker lost"]
        assert link.state == link.DOWN and not link.connected
        assert peer.recv(65536)[:4] and peer.recv(65536) == b""  # hello, then EOF
        wait_until(lambda: not link_threads(), message="link thread exit")
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
        wait_until(lambda: owner.lost, message="on_lost")
        assert up_means_reading()
        assert owner.lost == ["handler fault: RuntimeError: boom"]
        assert first.recv(65536)[:4] and first.recv(65536) == b""  # hello, then EOF
        second = listener.accept()  # the redial
        assert read_envelopes(second, 1)[0].type == "hello"
        wait_until(lambda: link.connected)
        second.sendall(encode_envelope(marker))
        wait_until(lambda: owner.envelopes, message="delivery on the second incarnation")
        assert [envelope.type for envelope in owner.envelopes] == ["heartbeat_ack"]
        assert len(faults) == 1 and up_means_reading()
        link.send_many([(heartbeat(1), None)])
        assert read_envelopes(second, 1)[0].type == "heartbeat"
        first.close()
        second.close()
    finally:
        link.close()
        listener.close()


def test_nothing_precedes_the_hello_and_the_on_connect_envelopes():
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
                link.send_many([(heartbeat(2), None)])
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
        received = read_envelopes(listener.accept(), 3)
        assert [envelope.type for envelope in received] == ["hello"] + ["heartbeat"] * 2
        assert [envelope.payload["provider_id"] for envelope in received[1:]] == ["p1", "p2"]
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
        assert late.recv(65536) == b""  # closed at once, not even a hello
        wait_until(lambda: not link_threads(), message="link thread exit")
        assert link.state == link.CLOSED and not link.connected
    finally:
        release.set()
        link.close()
        listener.close()


def test_consumer_stop_during_failover_is_prompt_and_leaves_nothing():
    listener = Listener()
    telemetry, disconnects = Telemetry(), []
    consumer = TcpConsumer(
        node_id="n1",
        brokers=[listener.address],
        failover_backoff=0.05,
        failover_backoff_max=0.05,
        max_failover_attempts=10_000,
        on_disconnect=disconnects.append,
        telemetry=telemetry,
    ).start()
    try:
        peer = listener.accept()
        listener.close()
        peer.close()
        wait_until(lambda: disconnects, message="on_disconnect")
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
        wait_until(lambda: not link_threads(), message="link thread exit")
        assert telemetry.events.events(kind="federation_exhausted") == []
        assert disconnects == ["connection to broker lost"]
    finally:
        consumer.stop()
