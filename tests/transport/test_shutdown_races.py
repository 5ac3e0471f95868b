"""Deterministic regressions for the transport's shutdown races.

* a client ``send`` returns only once its bytes are written, so a graceful
  close cannot lose it, and a send that fails to encode wedges nobody;
* what the broker-side connection accepted before a graceful close still
  reaches the wire;
* an assignment the provider's link thread hands to the pool after
  ``stop()`` shut it is rejected, not an unhandled thread exception.
"""

import asyncio
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.common.errors import CodecError
from repro.common.ids import NodeId
from repro.transport.aio import AioConnection
from repro.transport.codec import EnvelopeDecoder
from repro.transport.message import (
    BROKER_ADDRESS,
    AssignExecution,
    ExecutionRejected,
    Heartbeat,
    body_of,
)
from repro.transport.tcp import TcpProvider, _Connection


def make_envelope(i):
    return Heartbeat(provider_id=f"p{i}", free_slots=i).envelope(
        NodeId(f"p{i}"), NodeId("broker")
    )


def recv_until_eof(sock, timeout=5.0):
    sock.settimeout(timeout)
    decoder = EnvelopeDecoder()
    envelopes = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return envelopes
        envelopes.extend(envelope for envelope, _size in decoder.feed(chunk))


class GatedSocket:
    """A socket whose ``sendall`` parks until the test opens the gate."""

    def __init__(self, sock):
        self._sock = sock
        self.entered = threading.Event()
        self.gate = threading.Event()

    def sendall(self, data):
        self.entered.set()
        assert self.gate.wait(5.0)
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_threaded_send_returns_once_written_so_close_loses_nothing():
    ours, peer = socket.socketpair()
    gated = GatedSocket(ours)
    connection = _Connection(gated)
    first = threading.Thread(target=connection.send, args=(make_envelope(1),))
    first.start()
    assert gated.entered.wait(5.0)
    # The first sender is parked inside sendall holding the send lock; a
    # second send must wait its turn rather than return with its envelope
    # merely queued.
    second = threading.Thread(target=connection.send, args=(make_envelope(2),))
    second.start()
    second.join(0.2)
    assert second.is_alive()
    gated.gate.set()
    first.join(5.0)
    second.join(5.0)
    assert not first.is_alive() and not second.is_alive()
    # Both sends returned, so both are with the kernel: close loses neither.
    connection.close()
    received = recv_until_eof(peer)
    peer.close()
    assert [e.payload["provider_id"] for e in received] == ["p1", "p2"]


def test_close_waits_for_a_send_in_progress():
    ours, peer = socket.socketpair()
    gated = GatedSocket(ours)
    connection = _Connection(gated)
    sender = threading.Thread(target=connection.send, args=(make_envelope(1),))
    sender.start()
    assert gated.entered.wait(5.0)
    closer = threading.Thread(target=connection.close)
    closer.start()
    closer.join(0.2)
    assert closer.is_alive()  # waiting for the send lock, socket still open
    gated.gate.set()
    sender.join(5.0)
    closer.join(5.0)
    assert not sender.is_alive() and not closer.is_alive()
    received = recv_until_eof(peer)
    peer.close()
    assert [e.payload["provider_id"] for e in received] == ["p1"]


def test_encode_failure_does_not_wedge_the_connection():
    ours, peer = socket.socketpair()
    connection = _Connection(ours)
    unencodable = make_envelope(1)
    unencodable.payload["free_slots"] = {1, 2}  # a set is not a wire value
    with pytest.raises(CodecError):
        connection.send(unencodable)
    connection.send(make_envelope(2))
    connection.close()
    received = recv_until_eof(peer)
    peer.close()
    assert [e.payload["provider_id"] for e in received] == ["p2"]


def test_aio_close_flushes_sends_accepted_before_it():
    server, peer = socket.socketpair()
    try:

        async def send_then_close():
            connection = AioConnection(lambda conn, envelope: None, lambda conn, cause: None)
            await asyncio.get_running_loop().create_connection(lambda: connection, sock=server)
            # One loop callback, no await: the close runs before the
            # flush the first send scheduled ever does.
            connection.send(make_envelope(1))
            connection.send(make_envelope(2))
            connection.close()

        asyncio.run(asyncio.wait_for(send_then_close(), timeout=5.0))
        received = recv_until_eof(peer)
        assert [e.payload["provider_id"] for e in received] == ["p1", "p2"]
    finally:
        peer.close()


def test_assignment_delivered_after_stop_is_rejected_not_raised():
    # A program this provider never ran: not known cheap, so the link thread
    # hands it to the pool (the path a shut pool refuses), not to itself.
    assign = AssignExecution(
        execution_id="ex-1",
        tasklet_id="tl-1",
        consumer_id="c1",
        program=b"",
        program_fingerprint="f",
        entry="main",
        args=b"\x07\x00",  # a packed []
        seed=0,
        fuel=1000,
    )
    # Still RUNNING = the reader passed its check just before stop()
    # flipped the state; STOPPED = it reads one more message afterwards.
    for still_running in (True, False):
        provider = TcpProvider("127.0.0.1", 1, node_id="p1", benchmark_score=1e7)
        sent = []
        provider._send = lambda envelope, stamp=None: sent.append(envelope)
        provider._pool = ThreadPoolExecutor(max_workers=1)
        provider._pool.shutdown(wait=False, cancel_futures=True)  # as stop() does
        assert not provider.core.executor.known_cheap(assign.program_fingerprint)
        if still_running:
            provider.core.start()
        thread_errors = []
        previous_hook = threading.excepthook
        threading.excepthook = thread_errors.append
        try:
            reader = threading.Thread(
                target=provider._on_envelope,
                args=(assign.envelope(BROKER_ADDRESS, provider.node_id),),
            )
            reader.start()
            reader.join(5.0)
        finally:
            threading.excepthook = previous_hook
        assert not reader.is_alive()
        assert thread_errors == []
        assert not provider.core.inflight
        (rejection,) = [body_of(envelope) for envelope in sent]
        assert isinstance(rejection, ExecutionRejected)
        assert rejection.execution_id == "ex-1"
