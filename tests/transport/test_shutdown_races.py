"""Deterministic regressions for the transport's shutdown races.

* a client's submission hops onto its loop ahead of any later ``stop``, so
  a graceful close cannot lose it, and an envelope that fails to encode
  fails its sender alone, wedging nobody;
* what the broker-side connection accepted before a graceful close still
  reaches the wire;
* an assignment the provider's loop hands to the pool after
  ``stop()`` shut it is rejected, not an unhandled thread exception.
"""

import asyncio
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench.cluster import wait_until
from repro.common.errors import BrokerUnreachable, CodecError
from repro.common.ids import NodeId
from repro.core import kernels
from repro.transport import codec
from repro.transport.aio import AioConnection
from repro.transport.codec import EnvelopeDecoder, encode_envelope
from repro.transport.message import (
    BROKER_ADDRESS,
    AssignExecution,
    ExecutionRejected,
    Heartbeat,
    body_of,
)
from repro.transport.tcp import TcpConsumer, TcpProvider
from repro.tvm.compiler import compile_source

from .test_broker_link import Listener, read_envelopes
from .test_provider_handoff import _assign as assign


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


def submits(envelopes):
    return [e.payload["tasklet"]["tasklet_id"] for e in envelopes if e.type == "submit_tasklet"]


def test_threaded_send_returns_once_written_so_close_loses_nothing():
    """An application thread's submission hops onto the consumer's loop;
    a ``stop`` right after it hops there too, behind it, so the graceful
    close writes the submission before the stream ends."""
    listener = Listener()
    consumer = TcpConsumer(*listener.address, node_id="c1").start()
    peer = listener.accept()
    try:
        first = consumer.library.submit(kernels.PRIME_COUNT, args=[10], tasklet_id="t1")
        sender = threading.Thread(
            target=consumer.library.submit,
            args=(kernels.PRIME_COUNT,),
            kwargs=dict(args=[20], tasklet_id="t2"),
        )
        sender.start()
        sender.join(5.0)
        consumer.stop()
        assert submits(recv_until_eof(peer)) == ["t1", "t2"]
        with pytest.raises(BrokerUnreachable):
            first.result(0)  # stopped: answered typed, not left pending
    finally:
        consumer.stop()
        peer.close()
        listener.close()


def test_close_waits_for_a_send_in_progress(monkeypatch):
    """A ``stop`` that arrives while the loop is writing waits for the
    write, which still reaches the wire, before the stream ends."""
    entered, gate = threading.Event(), threading.Event()
    real_write = AioConnection._write_batch

    def gated(connection, batch):  # the consumer's first write: its submission
        entered.set()
        assert gate.wait(5.0)
        return real_write(connection, batch)

    monkeypatch.setattr(AioConnection, "_write_batch", gated)
    listener = Listener()
    consumer = TcpConsumer(*listener.address, node_id="c1").start()
    peer = listener.accept()
    try:
        consumer.library.submit(kernels.PRIME_COUNT, args=[10], tasklet_id="t1")
        assert entered.wait(5.0)  # the loop is inside the write
        closer = threading.Thread(target=consumer.stop)
        closer.start()
        closer.join(0.2)
        assert closer.is_alive()  # behind the write, the stream still open
        gate.set()
        closer.join(5.0)
        assert not closer.is_alive()
        assert submits(recv_until_eof(peer)) == ["t1"]
    finally:
        gate.set()
        consumer.stop()
        peer.close()
        listener.close()


def test_encode_failure_does_not_wedge_the_connection(monkeypatch):
    """A submission that does not encode (a frame over the cap) raises
    ``CodecError`` to its sender alone: its waiter is failed, not left
    pending, and the link stays up — the next submission reaches the peer."""
    monkeypatch.setattr(codec, "MAX_FRAME_BYTES", 4096)
    listener = Listener()
    disconnects = []
    consumer = TcpConsumer(
        *listener.address, node_id="c1", on_disconnect=disconnects.append
    ).start()
    peer = listener.accept()
    try:
        with pytest.raises(CodecError, match="frame too large"):
            consumer.library.submit(kernels.PRIME_COUNT, args=[list(range(4096))], tasklet_id="t1")
        assert consumer.core.pending == 0  # failed with it, so "t1" is free again
        consumer.library.submit(kernels.PRIME_COUNT, args=[20], tasklet_id="t1")
        consumer.stop()
        assert submits(recv_until_eof(peer)) == ["t1"]
        assert disconnects == []
    finally:
        consumer.stop()
        peer.close()
        listener.close()


def test_a_result_that_does_not_encode_is_dropped_and_the_link_stays_up(monkeypatch):
    """A provider's result over the frame cap is not sent, as a failed send
    never was: the results beside and after it still go out on the same
    link, with no redial and no re-registration."""
    monkeypatch.setattr(codec, "MAX_FRAME_BYTES", 4096)
    zeros = compile_source("func main(n: int) -> array { return array(n); }")
    listener = Listener()
    provider = TcpProvider(
        *listener.address, node_id="p1", benchmark_score=1e7, heartbeat_interval=30.0
    ).start()
    peer = listener.accept()
    try:
        assert [e.type for e in read_envelopes(peer, 1)] == ["register_provider"]
        for execution_id, n in (("big", 4096), ("small", 1)):
            peer.sendall(encode_envelope(assign(execution_id, zeros, n)))
        (result,) = read_envelopes(peer, 1)
        assert (result.type, result.payload["execution_id"]) == ("execution_result", "small")
        wait_until(lambda: not provider.core.inflight, what="both purged")
        peer.sendall(encode_envelope(assign("later", zeros, 2)))
        (result,) = read_envelopes(peer, 1)
        assert result.payload["execution_id"] == "later"
        assert provider.connected and provider.core.epoch == 1
    finally:
        provider.stop()
        peer.close()
        listener.close()


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
    # A program this provider never ran: not known cheap, so the loop
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
        provider._write = sent.extend
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
                args=(None, assign.envelope(BROKER_ADDRESS, provider.node_id)),
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
