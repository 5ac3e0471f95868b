"""The broker's connection: coalescing, framing, lifecycle.

An :class:`AioConnection` lives on one event loop and is touched by that
loop's thread only (DESIGN.md, "Who runs what"), so every test drives it
from a coroutine on a loop it runs itself; the peer is a plain blocking
socket.
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


def on_loop(scenario, timeout=10.0):
    """Run ``scenario(connection, peer)`` on a fresh event loop:
    ``connection`` is wired to the blocking socket ``peer``."""
    server, peer = socket.socketpair()

    async def run():
        reader, writer = await asyncio.open_connection(sock=server)
        connection = AioConnection(reader, writer)
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
    async def scenario(connection, peer):
        received = []
        reader = asyncio.ensure_future(
            connection.run_reader(lambda conn, envelope: received.append(envelope))
        )
        peer.sendall(encode_envelope(make_envelope(7)))
        while not received:
            await asyncio.sleep(0.01)
        assert received[0].payload["provider_id"] == "p7"
        peer.close()
        await reader  # returns on EOF
        assert connection.closed

    on_loop(scenario)


def test_reader_drops_link_on_garbage():
    async def scenario(connection, peer):
        peer.sendall(b"\xde\xad\xbe\xef" * 4)
        # Garbage must end the reader with a typed refusal, not hang it
        # (``on_loop`` bounds it), and close the link on the way out.
        with pytest.raises(CodecError, match="too large"):
            await connection.run_reader(lambda conn, envelope: None)
        assert connection.closed

    on_loop(scenario)
