"""The broker's connection: coalescing, framing, lifecycle.

An :class:`AioConnection` is an ``asyncio.Protocol`` on one event loop,
touched by that loop's thread only (DESIGN.md, "Who runs what"), so every
test drives it from a coroutine on a loop it runs itself; the peer is a
plain blocking socket.
"""

import asyncio
import socket

import pytest

from repro.common.errors import CodecError, ConnectionClosed
from repro.common.ids import NodeId
from repro.transport.aio import FLUSH_MAX_ENVELOPES, AioConnection
from repro.transport.codec import MAGIC_BINARY, EnvelopeDecoder, encode_envelope
from repro.transport.message import Heartbeat


def make_envelope(i=0):
    return Heartbeat(provider_id=f"p{i}", free_slots=i).envelope(
        NodeId(f"p{i}"), NodeId("broker")
    )


def on_loop(scenario, timeout=10.0, on_envelope=None):
    """Run ``scenario(connection, peer)`` on a fresh event loop:
    ``connection`` is wired to the blocking socket ``peer``, hands what it
    reads to ``on_envelope`` and records why it ended in ``connection.causes``."""
    server, peer = socket.socketpair()

    async def run():
        causes = []
        connection = AioConnection(
            on_envelope or (lambda conn, envelope: None),
            lambda conn, cause: causes.append(cause),
        )
        connection.causes = causes
        await asyncio.get_running_loop().create_connection(lambda: connection, sock=server)
        try:
            return await asyncio.wait_for(scenario(connection, peer), timeout)
        finally:
            connection.close()

    try:
        return asyncio.run(run())
    finally:
        peer.close()


async def recv_frames(sock, count):
    """Read from the blocking peer (off the loop) until ``count`` frames
    arrived."""

    def read():
        sock.settimeout(5.0)
        decoder = EnvelopeDecoder()
        frames = []
        while len(frames) < count:
            chunk = sock.recv(65536)
            assert chunk, "peer closed early"
            frames.extend(decoder.feed(chunk))
        return frames

    return await asyncio.get_running_loop().run_in_executor(None, read)


def test_send_delivers_and_respects_codec():
    async def scenario(connection, peer):
        # bin2 from the first frame: there is nothing to negotiate.
        connection.send(make_envelope(1))
        ((envelope, size),) = await recv_frames(peer, 1)
        assert envelope.payload["provider_id"] == "p1"
        assert size == len(encode_envelope(envelope))
        assert encode_envelope(envelope)[4] == MAGIC_BINARY

    on_loop(scenario)


class CountingMetrics:
    """Stand-in metrics: count flushes without a full registry."""

    class _Inc:
        def __init__(self):
            self.value = 0

        def labels(self, **_kw):
            return self

        def inc(self, amount=1):
            self.value += amount

    def __init__(self):
        self.bytes = self._Inc()
        self.messages = self._Inc()
        self.flushes = self._Inc()


def test_writes_coalesce_under_burst():
    total = FLUSH_MAX_ENVELOPES + 88

    async def scenario(connection, peer):
        connection._metrics = metrics = CountingMetrics()
        # One loop callback queues the lot — what routing one inbound
        # chunk's replies looks like: it all shares the flush that runs
        # next, split only at the per-write cap.
        for i in range(total):
            connection.send(make_envelope(i))
        assert metrics.flushes.value == 0, "send never writes, it queues"
        frames = await recv_frames(peer, total)
        assert [e.payload["provider_id"] for e, _s in frames] == [
            f"p{i}" for i in range(total)
        ]
        assert metrics.messages.value == total
        assert metrics.flushes.value == 2, "≤ 512 envelopes per write, no fewer"
        # What is queued while a flush drains rides the next one whole.
        connection.send(make_envelope(1))
        connection.send(make_envelope(2))
        await recv_frames(peer, 2)
        assert metrics.flushes.value == 3

    on_loop(scenario)


def test_send_after_close_raises_typed():
    async def scenario(connection, peer):
        connection.close()
        assert connection.closed
        with pytest.raises(ConnectionClosed):
            connection.send(make_envelope())

    on_loop(scenario)


def test_reader_dispatches_and_reports_close():
    received = []

    async def scenario(connection, peer):
        # Two frames in one write: both are handled in the callback that
        # read them, in order.
        peer.sendall(encode_envelope(make_envelope(7)) + encode_envelope(make_envelope(8)))
        while len(received) < 2:
            await asyncio.sleep(0.01)
        assert [e.payload["provider_id"] for _conn, e in received] == ["p7", "p8"]
        assert received[0][0] is connection
        peer.close()
        await connection.lost  # resolves on EOF
        assert connection.closed
        assert connection.causes == [None]

    on_loop(scenario, on_envelope=lambda conn, envelope: received.append((conn, envelope)))


def test_reader_drops_link_on_garbage():
    async def scenario(connection, peer):
        peer.sendall(b"\xde\xad\xbe\xef" * 4)
        # Garbage must end the link with a typed refusal, not hang it
        # (``on_loop`` bounds it), and close it on the way out.
        await connection.lost
        (cause,) = connection.causes
        assert isinstance(cause, CodecError) and "too large" in str(cause)
        assert connection.closed
        peer.settimeout(5.0)
        assert peer.recv(1) == b""  # the peer sees the close

    on_loop(scenario)


def test_a_handler_fault_ends_the_link_with_its_cause():
    async def scenario(connection, peer):
        peer.sendall(encode_envelope(make_envelope(1)) + encode_envelope(make_envelope(2)))
        await connection.lost
        (cause,) = connection.causes
        assert isinstance(cause, RuntimeError) and str(cause) == "p1"
        assert connection.closed

    def boom(conn, envelope):
        raise RuntimeError(envelope.payload["provider_id"])

    on_loop(scenario, on_envelope=boom)


def test_a_paused_transport_queues_and_resume_flushes_in_order():
    async def scenario(connection, peer):
        connection._metrics = metrics = CountingMetrics()
        connection.pause_writing()  # (what the transport calls when its buffer is full)
        for i in range(3):
            connection.send(make_envelope(i))
        await asyncio.sleep(0.05)
        assert metrics.flushes.value == 0, "nothing is written while paused"
        connection.resume_writing()
        connection.send(make_envelope(3))
        frames = await recv_frames(peer, 4)
        assert [e.payload["provider_id"] for e, _s in frames] == ["p0", "p1", "p2", "p3"]
        assert metrics.flushes.value == 1

    on_loop(scenario)


def test_a_full_kernel_buffer_pauses_the_flush_and_loses_nothing():
    total = 3 * FLUSH_MAX_ENVELOPES

    async def scenario(connection, peer):
        connection._transport.set_write_buffer_limits(high=1024)
        paused = []
        original = connection.pause_writing

        def pause():
            paused.append(len(connection._queue))
            original()

        connection.pause_writing = pause
        big = "x" * 2000
        for i in range(total):
            envelope = make_envelope(i)
            envelope.payload["provider_id"] = f"p{i}-{big}"
            connection.send(envelope)
        frames = await recv_frames(peer, total)
        assert [e.payload["provider_id"] for e, _s in frames] == [
            f"p{i}-{big}" for i in range(total)
        ]
        assert paused and paused[0] > 0, "the flush stopped with envelopes still queued"

    on_loop(scenario)


def test_no_link_of_the_broker_waits_out_nagle():
    """Regression: frames are small, and a link with Nagle on holds each
    one back until the peer's delayed ack (~40 ms on loopback) — an
    accepted link, and one dialed to a federation peer, alike."""
    from repro.bench.cluster import wait_until
    from repro.transport.tcp import TcpBroker

    def nodelay(connection):
        sock = connection._transport.get_extra_info("socket")
        return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    with TcpBroker(broker_id="b2") as b2, TcpBroker(broker_id="b1", peers={"b2": b2.address}) as b1:
        with socket.create_connection(b1.address):
            wait_until(lambda: "b2" in b1._connections and len(b1._accepted) == 2, what="links")
            assert all(nodelay(connection) for connection in list(b1._accepted))


def test_a_broker_whose_bind_fails_opens_no_journal(tmp_path):
    """Regression: the listener is bound before the journal is opened, so a
    taken port leaves no journal file (nor an open socket) behind."""
    from repro.transport.tcp import TcpBroker

    journal = tmp_path / "fresh" / "journal.jsonl"
    journal.parent.mkdir()
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        with pytest.raises(OSError):
            TcpBroker(port=holder.getsockname()[1], journal_path=str(journal))
    assert not journal.exists()
