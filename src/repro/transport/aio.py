"""The broker's driver: one asyncio loop thread that owns everything.

:class:`TcpBroker` serves every peer — providers, consumers, federation
peer brokers — from one event loop on one thread it starts, runs and
joins itself.  That thread is the only one that touches the
:class:`~repro.broker.core.BrokerCore`, the connection table and every
:class:`AioConnection` send queue, so nothing here takes a lock; the one
outside reader, ``/healthz``, hops onto the loop and waits (DESIGN.md,
"Who runs what").  Providers and consumers have one link each and use
the blocking client link of :mod:`repro.transport.tcp` instead.

Writes are coalesced and stamped at flush time (docs/PROTOCOL.md, "Write
coalescing"); frames and byte accounting are those of
:mod:`repro.transport.codec`, shared with the client connection.
"""

from __future__ import annotations

import asyncio
import random
import socket
import threading
import time
import uuid
from collections import deque
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Callable

from ..broker.core import BrokerConfig, BrokerCore
from ..broker.federation import FederationConfig
from ..broker.journal import WorkJournal
from ..broker.scheduling import make_strategy
from ..common.clock import WallClock
from ..common.errors import CodecError, ConnectionClosed, TransportError
from ..common.ids import IdGenerator, NodeId
from ..obs import events as ev
from ..obs.server import ObsServer
from ..obs.telemetry import Telemetry, TransportMetrics
from .codec import (
    CODEC_BINARY,
    EnvelopeDecoder,
    Stamp,
    count_sent,
    decode_chunk,
    encode_batch,
)
from .message import BROKER_ADDRESS, Envelope, PeerHello

RECV_CHUNK = 262144

#: A flush larger than this is split across writes; bounds per-batch
#: encode latency so one huge program payload cannot starve small acks.
FLUSH_MAX_ENVELOPES = 512

#: How long a ``/healthz`` scrape waits for the loop to answer before it
#: reports the loop itself as the fault.
HEALTH_WAIT_S = 1.0


def _nodelay(sock: socket.socket | None) -> None:
    """Frames are small and latency-bound: never wait out Nagle."""
    if sock is not None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass


def _jittered(rng: random.Random, delay: float) -> float:
    """Stretch a backoff delay by up to 50 %: no fleet redials in lockstep."""
    return delay * (1.0 + 0.5 * rng.random())


class _Node:
    """``with node:`` is ``node.start()`` … ``node.stop()``."""

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class AioConnection:
    """One framed peer link of the broker, with write coalescing.

    Built and used on the loop thread only.  ``metrics`` is the optional
    ``TransportMetrics`` bundle; bytes and envelope counts are reported
    per direction, flushes per flush.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        metrics=None,
    ):
        self._reader = reader
        self._writer = writer
        self._metrics = metrics
        self.decoder = EnvelopeDecoder()
        self.peer_id: NodeId | None = None  # learned from the first envelope
        self._queue: deque[tuple[Envelope, Stamp | None]] = deque()
        self._flush_task: asyncio.Task | None = None  # set while one is due
        self.closed = False

    # -- write path ---------------------------------------------------------

    def send(self, envelope: Envelope, stamp: Stamp | None = None) -> None:
        """Enqueue one envelope; never blocks on the socket.

        Raises :class:`ConnectionClosed` only when the link is already
        known dead; write errors discovered later surface through the
        reader's close path (the caller's failure detector).
        """
        if self.closed:
            raise ConnectionClosed("connection closed")
        self._queue.append((envelope, stamp))
        if self._flush_task is None:
            self._flush_task = asyncio.get_running_loop().create_task(
                self._flush()
            )

    async def _flush(self) -> None:
        try:
            while self._queue and not self.closed:
                batch = [
                    self._queue.popleft()
                    for _ in range(min(len(self._queue), FLUSH_MAX_ENVELOPES))
                ]
                self._write_batch(batch)
                await self._writer.drain()
        except (OSError, TransportError):
            # Encoding failures and dead sockets end the link; the reader
            # (or its absence) reports the close upstream.
            self.close(flush=False)
        finally:
            self._flush_task = None

    def _write_batch(self, batch: list[tuple[Envelope, Stamp | None]]) -> None:
        data = encode_batch(batch, CODEC_BINARY)
        self._writer.write(data)
        count_sent(self._metrics, len(data), len(batch))

    # -- read path ----------------------------------------------------------

    async def run_reader(
        self,
        on_envelope: Callable[["AioConnection", Envelope], None],
    ) -> None:
        """Read frames until EOF, dispatching each envelope; the link is
        closed on the way out, however that is.  Bytes that are not
        ``bin2`` frames raise :class:`~repro.common.errors.CodecError`."""
        try:
            while True:
                chunk = await self._reader.read(RECV_CHUNK)
                if not chunk:
                    return
                for envelope in decode_chunk(self.decoder, chunk, self._metrics):
                    on_envelope(self, envelope)
        except OSError:
            return
        finally:
            self.close(flush=False)

    # -- lifecycle ----------------------------------------------------------

    def close(self, flush: bool = True) -> None:
        """Tear the link down; idempotent.  A graceful close hands
        everything ``send`` accepted to the socket first — without
        waiting, as the transport sends its buffer before it closes the
        socket; error paths (``flush=False``) drop what is still queued."""
        if self.closed:
            return
        self.closed = True
        pending = list(self._queue) if flush else []
        self._queue.clear()
        try:
            if pending:
                self._write_batch(pending)
            self._writer.close()
        except Exception:
            pass


class TcpBroker(_Node):
    """The broker as an asyncio TCP server (see module docstring).

    ``state`` is the driver's one lifecycle fact: ``stopped`` →
    ``running`` (``start`` returned) → ``stopping`` (``stop`` is tearing
    the loop down) → ``stopped``.

    Federation: pass ``broker_id`` plus ``peers`` (peer broker id ->
    ``(host, port)``) to join a static peer set.  The broker dials every
    peer (with backoff), introduces itself with a ``PeerHello``, and the
    shared reader path routes gossip/forward traffic into the core like
    any other connection.
    ``peer_journals`` (peer id -> journal path) additionally enables
    journal handoff: when a peer is declared dead and this broker is its
    successor, the peer's journal is adopted.  ``peer_obs_urls`` (peer id
    -> ObsServer base URL) lets this broker's ``/traces?workflow_id=``
    endpoint merge peer spans, so federated workflow traces render whole.
    """

    STOPPED, RUNNING, STOPPING = "stopped", "running", "stopping"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        strategy: str = "qoc",
        config: BrokerConfig | None = None,
        telemetry: Telemetry | None = None,
        obs_port: int | None = None,
        obs_host: str = "127.0.0.1",
        journal_path: str | None = None,
        journal_sync: bool = False,
        journal_compact_records: int | None = None,
        journal_compact_bytes: int | None = None,
        broker_id: str | None = None,
        peers: dict[str, tuple[str, int]] | None = None,
        peer_journals: dict[str, str] | None = None,
        peer_obs_urls: dict[str, str] | None = None,
        gossip_interval: float = 1.0,
    ):
        self.config = config or BrokerConfig()
        if obs_port is not None and telemetry is None:
            # An observability endpoint is useless without telemetry;
            # asking for one implies opting in.
            telemetry = Telemetry()
        self.telemetry = telemetry
        self._transport_metrics = (
            TransportMetrics(telemetry.registry) if telemetry else None
        )
        #: Durable work journal (None = volatile broker).  Constructing the
        #: core replays it: pending tasklets are re-admitted (queued until
        #: providers re-register) and completed outcomes become
        #: re-deliverable to reconnecting consumers that resubmit.
        self.journal = (
            WorkJournal(
                journal_path,
                fsync=journal_sync,
                auto_compact_records=journal_compact_records,
                auto_compact_bytes=journal_compact_bytes,
            )
            if journal_path
            else None
        )
        #: Federation peer addresses (empty = standalone broker).
        self._peer_addresses = dict(peers or {})
        federation = (
            FederationConfig(
                peers=list(self._peer_addresses),
                gossip_interval=gossip_interval,
                peer_journals=dict(peer_journals or {}),
            )
            if self._peer_addresses
            else None
        )
        self.core = BrokerCore(
            clock=WallClock(),
            strategy=make_strategy(strategy),
            config=self.config,
            node_id=NodeId(broker_id) if broker_id else BROKER_ADDRESS,
            # Namespaced ids: a restarted broker must never mint an
            # execution id that a previous incarnation already used (a
            # provider could still answer the old one).
            id_generator=IdGenerator(namespace=uuid.uuid4().hex[:8]),
            telemetry=telemetry,
            journal=self.journal,
            federation=federation,
        )
        #: Where to route: the connection that last introduced itself as
        #: each peer.  Loop thread only, like ``_accepted`` and the core.
        self._connections: dict[NodeId, AioConnection] = {}
        #: Every live connection, registered or not, so ``stop`` can
        #: close them all promptly.
        self._accepted: set[AioConnection] = set()
        # The listener is bound synchronously so ``address`` is valid
        # immediately (and bind failures raise here, where the restart
        # retry loops expect them); asyncio adopts the socket at start.
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self.state = self.STOPPED
        self._loop: asyncio.AbstractEventLoop | None = None  # while not stopped
        self._thread: threading.Thread | None = None
        self._server: asyncio.base_events.Server | None = None
        self._tasks: list[asyncio.Task] = []
        self.obs: ObsServer | None = (
            ObsServer(
                telemetry,
                host=obs_host,
                port=obs_port,
                node=str(self.core.node_id),
                role="broker",
                health=self._health_document,
                ready=lambda: self.state == self.RUNNING,
                peer_obs_urls=list((peer_obs_urls or {}).values()),
            )
            if obs_port is not None and telemetry is not None
            else None
        )

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()

    # -- lifecycle (the caller's thread) --------------------------------------

    def start(self) -> "TcpBroker":
        """Serve.  A ``start`` that raises left nothing running and may
        be tried again."""
        if self.state != self.STOPPED:
            raise TransportError(f"broker is {self.state}")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, args=(self._loop,), name="broker-aio", daemon=True
        )
        self.state = self.RUNNING
        self._thread.start()
        try:
            asyncio.run_coroutine_threadsafe(
                self._serve(), self._loop
            ).result(timeout=10.0)
            if self.obs is not None:
                self.obs.start()
        except BaseException:
            self._halt()
            raise
        return self

    def stop(self) -> None:
        if self.obs is not None:
            self.obs.stop()
        if self.state == self.RUNNING:
            self._halt()
        try:
            # Normally the asyncio server owns (and closed) this socket;
            # closing again is a no-op but covers the never-started case.
            self._listener.close()
        except OSError:
            pass
        if self.journal is not None:
            self.journal.close()

    def _halt(self) -> None:
        """Shut the loop down and join its thread (bounded: a wedged
        loop is abandoned to its daemon thread)."""
        self.state = self.STOPPING
        loop, thread = self._loop, self._thread
        try:
            asyncio.run_coroutine_threadsafe(
                self._shutdown(), loop
            ).result(timeout=5.0)
        except Exception:
            pass  # loop wedged or already dead; the join below cleans up
        try:
            loop.call_soon_threadsafe(loop.stop)
        except RuntimeError:
            pass  # loop already closed
        thread.join(5.0)
        self._loop = self._thread = None
        self.state = self.STOPPED

    def _health_document(self) -> dict:
        """The ``/healthz`` document (scrape thread): computed on the
        loop, which this thread only waits for — how long it waited is
        the loop's saturation signal, and no answer in time is a fault."""
        asked = time.monotonic()
        document = {
            "status": "unhealthy",
            "reason": "event loop unresponsive",
            "role": "broker",
            "node": str(self.core.node_id),
        }
        loop = self._loop
        if loop is not None and not loop.is_closed():
            answer = asyncio.run_coroutine_threadsafe(self._health(), loop)
            try:
                document = answer.result(timeout=HEALTH_WAIT_S)
            except FutureTimeout:
                answer.cancel()
        transport = document.setdefault("transport", {"loop": "asyncio"})
        transport["loop_wait_ms"] = round((time.monotonic() - asked) * 1e3, 3)
        return document

    # -- everything below runs on the loop thread ------------------------------

    @staticmethod
    def _run_loop(loop: asyncio.AbstractEventLoop) -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_forever()
            # Drain: give cancelled tasks one cycle to unwind before the
            # loop closes, so shutdown never leaks "pending task" noise.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        finally:
            loop.close()

    async def _health(self) -> dict:
        document = self.core.health_snapshot()
        document["transport"] = {
            "loop": "asyncio",
            "connections": len(self._accepted),
        }
        return document

    async def _serve(self) -> None:
        self._server = await asyncio.start_server(self._adopt, sock=self._listener)
        loop = asyncio.get_running_loop()
        self._tasks = [loop.create_task(self._tick_task())]
        for peer_id, (peer_host, peer_port) in self._peer_addresses.items():
            self._tasks.append(
                loop.create_task(self._peer_task(peer_id, peer_host, peer_port))
            )

    async def _shutdown(self) -> None:
        for task in self._tasks:
            task.cancel()
        self._tasks = []
        # Yield once so handler tasks for just-accepted connections get to
        # run their first statements and register in ``_accepted`` — an
        # unregistered transport would otherwise never be closed and its
        # peer never see EOF.  Stragglers after this cycle self-close on
        # the ``state`` guard in ``_adopt``.
        await asyncio.sleep(0)
        connections = list(self._accepted)
        self._accepted.clear()
        self._connections.clear()
        for connection in connections:
            connection.close()
        if self._transport_metrics is not None and connections:
            # Reader tasks skip their own dec once a connection left
            # ``_accepted``, so this is the only decrement for these.
            self._transport_metrics.connections.dec(len(connections))
        if self._server is not None:
            self._server.close()
            try:
                # On 3.12+ this also waits for handler tasks; connections
                # are closed above, so their readers exit promptly.
                await asyncio.wait_for(self._server.wait_closed(), timeout=2.0)
            except asyncio.TimeoutError:
                pass
            self._server = None

    async def _adopt(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer_id: NodeId | None = None,
        greeting: Envelope | None = None,
    ) -> None:
        """Serve one stream — accepted, or dialed to ``peer_id`` — until
        it dies: track it, say ``greeting``, read it, forget it."""
        if self.state != self.RUNNING:
            # Accepted during shutdown (after the close sweep snapshotted
            # ``_accepted``): close here or the peer never sees EOF.
            writer.close()
            return
        _nodelay(writer.get_extra_info("socket"))
        connection = AioConnection(reader, writer, metrics=self._transport_metrics)
        self._accepted.add(connection)
        if peer_id is not None:
            self._learn_peer(connection, peer_id)
        if self._transport_metrics is not None:
            self._transport_metrics.connections.inc()
        if greeting is not None:
            connection.send(greeting)  # nothing awaited since it was built
        try:
            await connection.run_reader(self._on_envelope)
        except CodecError as exc:
            # Not bin2 (a JSON ``{``, an older contract) or corrupt: the
            # peer is refused, and only its link ends.
            if self.telemetry is not None:
                self.telemetry.events.record(
                    ev.DISCONNECT, node=str(connection.peer_id), reason=f"refused: {exc}"
                )
        except Exception as exc:
            # Nothing a peer sends raises out of ``_on_envelope`` (the core
            # reports an unreadable envelope), so this is a defect in a
            # handler.  The reader closed the link on its way out.
            self._report_defect(ev.DISCONNECT, connection.peer_id, "handler fault", exc)
        finally:
            self._drop_connection(connection)

    def _report_defect(
        self, kind: str, node: NodeId | None, what: str, exc: Exception
    ) -> None:
        """A fault in our own code, met while serving ``node``: say why,
        once — to the loop's exception handler and as a ``kind`` event —
        rather than leave it to "Task exception was never retrieved"."""
        reason = f"{what}: {type(exc).__name__}: {exc}"
        asyncio.get_running_loop().call_exception_handler(
            {"message": f"{node}: {reason}", "exception": exc}
        )
        if self.telemetry is not None:
            self.telemetry.events.record(kind, node=str(node), reason=reason)

    async def _tick_task(self) -> None:
        interval = self.config.heartbeat_interval / 2.0
        while True:
            await asyncio.sleep(interval)
            try:
                self._route(self.core.tick())
            except Exception as exc:
                # One bad tick must not be the last: failure detection,
                # execution timeouts and the backlog drain all live here.
                self._report_defect(ev.TICK_FAULT, self.core.node_id, "tick fault", exc)

    async def _peer_task(self, peer_id: str, host: str, port: int) -> None:
        """Maintain the outbound link to one federation peer.

        Dial with capped exponential backoff plus jitter, introduce
        ourselves with a ``PeerHello`` (reply expected, so the peer's
        epoch lands in our table immediately), then read the link like any
        other connection.  Both sides dialing each other is fine: forwards
        and gossip are idempotent, and ``_connections`` keeps whichever
        link registered last.
        """
        backoff = 0.2
        rng = random.Random(f"{self.core.node_id}->{peer_id}")
        me, peer = self.core.node_id, NodeId(peer_id)
        while self.state == self.RUNNING:
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port), timeout=5.0
                )
            except (OSError, asyncio.TimeoutError):
                await asyncio.sleep(_jittered(rng, backoff))
                backoff = min(backoff * 2.0, 5.0)
                continue
            backoff = 0.2
            hello = PeerHello(
                broker_id=str(me),
                epoch=self.core.federation.epoch,
                reply_expected=True,
            )
            await self._adopt(reader, writer, peer, greeting=hello.envelope(me, peer))

    def _learn_peer(self, connection: AioConnection, peer_id: NodeId) -> None:
        """``connection`` speaks for ``peer_id`` from now on.  A new
        connection naming a known peer takes over its routing: that is
        how a redial looks from here."""
        connection.peer_id = peer_id
        self._connections[peer_id] = connection

    def _drop_connection(self, connection: AioConnection) -> None:
        dropped = connection in self._accepted
        self._accepted.discard(connection)
        if self._connections.get(connection.peer_id) is connection:
            del self._connections[connection.peer_id]
        if dropped and self._transport_metrics is not None:
            self._transport_metrics.connections.dec()
        # A provider that drops TCP is handled by the heartbeat failure
        # detector; nothing else to do here.

    def _on_envelope(
        self, connection: AioConnection, envelope: Envelope
    ) -> None:
        """Dispatch one inbound envelope."""
        if connection.peer_id is None:
            self._learn_peer(connection, envelope.src)
        elif envelope.src != connection.peer_id:
            # A link speaks for the one peer it introduced itself as.
            self.core.observer.message_unreadable(
                envelope,
                f"src {envelope.src!r} on the link of {connection.peer_id!r}",
            )
            return
        self._route(self.core.handle(envelope))

    def _route(self, envelopes: list[Envelope]) -> None:
        connections = self._connections
        for envelope in envelopes:
            connection = connections.get(envelope.dst)
            if connection is None:
                continue  # peer gone; failure detector will clean up
            try:
                connection.send(envelope)
            except ConnectionClosed:
                if connections.get(envelope.dst) is connection:
                    del connections[envelope.dst]
