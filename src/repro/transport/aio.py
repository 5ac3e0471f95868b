"""Asyncio event-loop transport core (broker side only).

The broker serves many links, so it runs them all on one single-threaded
``asyncio`` event loop owned by :class:`LoopThread` (providers and
consumers have one link each and use the blocking, mutex-written
``_Connection`` of :mod:`repro.transport.tcp` instead):

* :class:`AioConnection` — one reader/writer pair per peer.  Writes are
  *coalesced*: ``send`` (callable from any thread) enqueues and schedules
  a flush on the loop; every envelope queued by the time the flush runs —
  including everything that accumulates while the previous ``drain()``
  awaits — is encoded and written in **one** socket write.  Under load
  the batch size grows automatically; idle links flush per message, so
  latency is never traded away when there is nothing to batch.  This is
  the only send queue in the package.
* :class:`LoopThread` — owns the loop on a daemon thread and bridges the
  synchronous public API (``start``/``stop``/``submit``) into it.

Frames are the dual-codec format of :mod:`repro.transport.codec`: the
reader accepts JSON and binary interleaved on one stream; the writer
emits whatever ``send_codec`` was negotiated for the peer (JSON until a
``hello`` advertises better).  Byte/message accounting and the
"undecodable bytes end the link" rule are shared with the client
connection (``count_sent`` / ``decode_chunk``).

Per-envelope *stamps* run at flush time, immediately before encoding —
that is what keeps ``Heartbeat.sent_at`` honest under coalescing: a
heartbeat that sat behind a large batch is stamped when it actually hits
the socket, not when it was enqueued, so RTT telemetry (and the EWMA
straggler watchdog fed by it) never sees batching delay as network
delay.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from typing import Callable

from ..common.errors import ConnectionClosed, TransportError
from ..common.ids import NodeId
from .codec import (
    CODEC_JSON,
    EnvelopeDecoder,
    Stamp,
    count_sent,
    decode_chunk,
    encode_batch,
)
from .message import Envelope

RECV_CHUNK = 262144

#: A flush larger than this is split across writes; bounds per-batch
#: encode latency so one huge program payload cannot starve small acks.
FLUSH_MAX_ENVELOPES = 512


class LoopThread:
    """One asyncio event loop running on a dedicated daemon thread."""

    def __init__(self, name: str = "aio"):
        self.loop = asyncio.new_event_loop()
        self._name = name
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    def start(self) -> "LoopThread":
        self._thread = threading.Thread(
            target=self._run, name=self._name, daemon=True
        )
        self._thread.start()
        self._started.wait(5.0)
        return self

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.call_soon(self._started.set)
        try:
            self.loop.run_forever()
            # Drain: give cancelled tasks one cycle to unwind before the
            # loop closes, so shutdown never leaks "pending task" noise.
            pending = asyncio.all_tasks(self.loop)
            for task in pending:
                task.cancel()
            if pending:
                self.loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        finally:
            self.loop.close()

    def stop(self, timeout: float = 5.0) -> None:
        thread = self._thread
        if thread is None or not thread.is_alive():
            return
        try:
            self.loop.call_soon_threadsafe(self.loop.stop)
        except RuntimeError:
            return  # loop already closed
        thread.join(timeout)

    def submit(self, coro) -> "asyncio.Future":
        """Run a coroutine on the loop; returns a concurrent future."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def call_soon(self, fn: Callable, *args) -> None:
        """Schedule ``fn`` on the loop from any thread (loop-safe)."""
        thread = self._thread
        if thread is not None and threading.get_ident() == thread.ident:
            self.loop.call_soon(fn, *args)
        else:
            self.loop.call_soon_threadsafe(fn, *args)

    def on_loop(self) -> bool:
        thread = self._thread
        return thread is not None and threading.get_ident() == thread.ident


class AioConnection:
    """One framed peer link on the event loop, with write coalescing.

    ``metrics`` is the optional ``TransportMetrics`` bundle; bytes and
    envelope counts are reported per direction *and* per codec, flushes
    per flush, so a mixed-codec cluster is visible in the exposition.
    """

    def __init__(
        self,
        loop_thread: LoopThread,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        metrics=None,
    ):
        self._loop_thread = loop_thread
        self._reader = reader
        self._writer = writer
        self._metrics = metrics
        self.decoder = EnvelopeDecoder()
        #: Codec used for the *send* direction; flipped by negotiation.
        self.send_codec = CODEC_JSON
        self.peer_id: NodeId | None = None  # learned from hello/first envelope
        self._queue: deque[tuple[Envelope, Stamp | None]] = deque()
        self._queue_lock = threading.Lock()
        self._flush_scheduled = False
        self._closed = False

    # -- write path ---------------------------------------------------------

    def send(self, envelope: Envelope, stamp: Stamp | None = None) -> None:
        """Enqueue one envelope; thread-safe, never blocks on the socket.

        Raises :class:`ConnectionClosed` only when the link is already
        known dead; write errors discovered later surface through the
        reader loop's close path (the caller's failure detector).
        """
        with self._queue_lock:
            if self._closed:
                raise ConnectionClosed("connection closed")
            self._queue.append((envelope, stamp))
            if self._flush_scheduled:
                return
            self._flush_scheduled = True
        self._loop_thread.call_soon(self._spawn_flush)

    def _spawn_flush(self) -> None:
        if self._closed:
            return
        self._loop_thread.loop.create_task(self._flush())

    async def _flush(self) -> None:
        try:
            while True:
                with self._queue_lock:
                    if not self._queue or self._closed:
                        self._flush_scheduled = False
                        return
                    batch = []
                    while self._queue and len(batch) < FLUSH_MAX_ENVELOPES:
                        batch.append(self._queue.popleft())
                self._write_batch(batch)
                await self._writer.drain()
        except (OSError, asyncio.CancelledError, TransportError):
            # Encoding failures and dead sockets end the link; the reader
            # loop (or its absence) reports the close upstream.
            self._close_on_loop()

    def _write_batch(self, batch: list[tuple[Envelope, Stamp | None]]) -> None:
        codec = self.send_codec
        data = encode_batch(batch, codec)
        self._writer.write(data)
        count_sent(self._metrics, codec, len(data), len(batch))

    # -- read path ----------------------------------------------------------

    async def run_reader(
        self,
        on_envelope: Callable[["AioConnection", Envelope], None],
    ) -> None:
        """Read frames until EOF/garbage; dispatch on the loop thread."""
        try:
            while True:
                chunk = await self._reader.read(RECV_CHUNK)
                if not chunk:
                    return
                envelopes = decode_chunk(self.decoder, chunk, self._metrics)
                if envelopes is None:
                    return  # undecodable peer == broken peer: drop the link
                for envelope in envelopes:
                    on_envelope(self, envelope)
        except (OSError, asyncio.CancelledError):
            return
        finally:
            self._close_on_loop()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Thread-safe, idempotent graceful close: everything ``send``
        accepted is handed to the socket before it closes."""
        self._loop_thread.call_soon(self._close_on_loop, True)

    def _close_on_loop(self, flush: bool = False) -> None:
        """Tear the link down.  Error paths drop what is still queued; a
        graceful close (``flush``) writes it first — without waiting, as
        the transport sends its buffer before it closes the socket."""
        with self._queue_lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._queue) if flush else []
            self._queue.clear()
        try:
            if pending:
                self._write_batch(pending)
            self._writer.close()
        except Exception:
            pass

    @property
    def closed(self) -> bool:
        return self._closed
