"""Every node's driver runs one asyncio loop, on one thread it owns.

:class:`_Node` is that lifecycle, shared by :class:`TcpBroker` (here) and
:mod:`repro.transport.tcp`'s provider and consumer.  A node's loop thread
alone touches its core's handler, its connections and their send queues,
so nothing takes a lock; other threads hop onto the loop (DESIGN.md, "Who
runs what").  Every link is an :class:`AioConnection`, and :func:`dial`
opens every outbound one: a client's to its broker, a broker's to each
federation peer.  Writes are coalesced, one flush per loop turn
(docs/PROTOCOL.md, "Write coalescing"); frames are :mod:`.codec`'s.
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
from typing import Awaitable, Callable, Sequence

from ..broker.core import BrokerConfig, BrokerCore
from ..broker.federation import FederationConfig
from ..broker.journal import WorkJournal
from ..broker.scheduling import make_strategy
from ..common.clock import WallClock
from ..common.errors import CodecError, ConnectionClosed, FederationExhausted, TransportError
from ..common.ids import IdGenerator, NodeId
from ..obs import events as ev
from ..obs.server import ObsServer
from ..obs.telemetry import Telemetry, TransportMetrics
from .codec import CODEC_BINARY, EnvelopeDecoder, decode_chunk, encode_batch
from .message import BROKER_ADDRESS, Envelope, PeerHello

#: A flush larger than this is split across writes; bounds per-batch
#: encode latency so one huge program payload cannot starve small acks.
FLUSH_MAX_ENVELOPES = 512

#: How long a ``/healthz`` scrape waits for the loop to answer before it
#: reports the loop itself as the fault.
HEALTH_WAIT_S = 1.0

#: The dial loop's first wait between rounds, and its cap for the links
#: that redial forever (a provider's, a federation peer's), in seconds.
RECONNECT_BACKOFF_S = 0.2
RECONNECT_BACKOFF_MAX_S = 5.0


def _jittered(rng: random.Random, delay: float) -> float:
    """Stretch a backoff delay by up to 50 %: no fleet redials in lockstep."""
    return delay * (1.0 + 0.5 * rng.random())


async def dial(
    addresses: Sequence[tuple[str, int]],
    factory: Callable[[int], "AioConnection"],
    rng: random.Random,
    first: int = 0,
    wait: bool = False,
    cap: int | None = None,
    typed: bool = False,
    backoff_max: float = RECONNECT_BACKOFF_MAX_S,
) -> None:
    """The one dial loop: connect to the first of ``addresses`` that
    answers, its protocol built by ``factory(index)`` — which queues the
    greeting, so nothing precedes it on the stream.

    Rounds cycle the list from ``first`` (the last good address); before
    each round — but the first, unless ``wait`` — the wait is the capped,
    doubling, jittered backoff from :data:`RECONNECT_BACKOFF_S`.  Once
    ``cap`` dials failed (``None``: never) it raises the last dial's own
    ``OSError``, or with ``typed`` a :class:`FederationExhausted`.
    """
    loop = asyncio.get_running_loop()
    attempts, delay = 0, RECONNECT_BACKOFF_S
    while True:
        if wait or attempts:
            await asyncio.sleep(_jittered(rng, delay))
            delay = min(delay * 2.0, backoff_max)
        for offset in range(len(addresses)):
            index = (first + offset) % len(addresses)
            attempts += 1
            host, port = addresses[index]
            try:
                connect = loop.create_connection(lambda: factory(index), host, port)
                await asyncio.wait_for(connect, timeout=5.0)
                return
            except asyncio.TimeoutError:  # (an OSError itself only from Python 3.11)
                error = TimeoutError(f"dial to {host}:{port} timed out")
            except OSError as exc:
                error = exc
        if cap is not None and attempts >= cap:
            if not typed:
                raise error
            raise FederationExhausted(
                f"no broker reachable after {attempts} attempts",
                brokers=[f"{host}:{port}" for host, port in addresses],
                attempts=attempts,
            ) from error


def _run_loop(loop: asyncio.AbstractEventLoop) -> None:
    """A node's loop thread: run until stopped, then close the loop."""
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


class _Node:
    """A node's driver: one asyncio loop on one thread it starts, runs and
    joins itself.  ``with node:`` is ``node.start()`` … ``node.stop()``."""

    _loop: asyncio.AbstractEventLoop | None = None  # from start to stop
    _thread: threading.Thread | None = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _start_loop(self, name: str) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=_run_loop, args=(self._loop,), name=name, daemon=True
        )
        self._thread.start()

    def _await(self, coroutine: Awaitable, timeout: float | None = None):
        """Run ``coroutine`` on the loop; its result (another thread)."""
        if threading.current_thread() is self._thread:
            raise TransportError("a node's loop cannot wait on itself")
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(timeout)

    def _hop(self, callback: Callable, *args) -> bool:
        """Post ``callback(*args)`` to the loop (another thread): the one
        way in.  False once the loop is gone."""
        loop = self._loop
        try:
            loop.call_soon_threadsafe(callback, *args)
        except (AttributeError, RuntimeError):  # (stopped: None, or closed)
            return False
        return True

    def _halt_loop(self, closing: Callable[[], Awaitable]) -> None:
        """Run ``closing()`` on the loop, stop it and join its thread
        (bounded: a wedged loop is abandoned to its daemon thread)."""
        loop, thread = self._loop, self._thread
        self._loop = self._thread = None
        if thread is threading.current_thread():  # (a callback stopping its own node)
            loop.create_task(closing()).add_done_callback(lambda _: loop.stop())
            return
        try:
            asyncio.run_coroutine_threadsafe(closing(), loop).result(timeout=5.0)
        except Exception:
            pass  # loop wedged or already dead; the join below cleans up
        try:
            loop.call_soon_threadsafe(loop.stop)
        except RuntimeError:
            pass  # loop already closed
        thread.join(5.0)


class AioConnection(asyncio.Protocol):
    """One framed link of a node (its loop thread only).  Bytes are
    decoded in the callback that received them, each envelope handed to
    ``on_envelope(connection, envelope)`` there and then.  ``send``
    queues; the first send of a loop turn schedules the one flush of what
    the turn queued, and while the transport is paused the queue waits.

    The link ends once — EOF, a dead socket, bytes that are not ``bin2``
    frames, a handler fault, or ``close`` — calling ``on_lost(connection,
    cause)`` (the ``CodecError`` or the handler's exception, else None)
    and resolving ``lost``.  ``metrics``: the optional ``TransportMetrics``.
    """

    def __init__(self, on_envelope: Callable, on_lost: Callable, metrics=None):
        self._on_envelope = on_envelope
        self._on_lost = on_lost
        self._metrics = metrics
        self.decoder = EnvelopeDecoder()
        self.peer_id: NodeId | None = None  # learned from the first envelope
        self._loop = asyncio.get_running_loop()
        self._transport: asyncio.Transport | None = None
        self._queue: deque[Envelope] = deque()
        self._flush_due = False  # a flush is scheduled for this loop turn
        self._paused = False  # the transport's buffer is full
        self.closed = False  # no more sends
        self.lost: asyncio.Future = self._loop.create_future()

    # -- write path ---------------------------------------------------------

    def send(self, envelope: Envelope) -> None:
        """Enqueue one envelope.  Raises :class:`ConnectionClosed` only when
        the link is known dead; a write error found later ends the link."""
        if self.closed:
            raise ConnectionClosed("connection closed")
        self._queue.append(envelope)
        self._schedule()

    def send_encoded(self, frames: bytes, count: int, now: bool = False) -> None:
        """Enqueue ``count`` envelopes already encoded into ``frames`` by
        the thread that made them — where one that does not encode fails
        alone, as it would not here — and with ``now`` write the queue at
        once, not at the turn's flush.  Raises as :meth:`send` does."""
        if self.closed:
            raise ConnectionClosed("connection closed")
        self._queue.append((frames, count))
        if now and self._transport is not None:
            self.flush()
        else:
            self._schedule()

    def _schedule(self) -> None:
        if not (self._flush_due or self._paused or self._transport is None):
            self._flush_due = True
            self._loop.call_soon(self.flush)

    def flush(self) -> None:
        """Write what is queued: the loop turn's one flush, or sooner for
        a sender that asked for ``now``."""
        self._flush_due = False
        queue = self._queue
        try:
            while queue and not (self._paused or self.closed):
                count = min(len(queue), FLUSH_MAX_ENVELOPES)
                self._write_batch([queue.popleft() for _ in range(count)])
        except (OSError, TransportError):
            # An envelope that does not encode, or a dead socket: the
            # link ends (and ``connection_lost`` reports it).
            self.close(flush=False)

    def _write_batch(self, batch: list) -> None:
        """One socket write, in queue order: each run of envelopes encoded
        in one call, and the ``(frames, count)`` senders encoded as is."""
        parts, run, count = [], [], 0
        for item in batch:
            if type(item) is not tuple:
                run.append(item)
                continue
            if run:
                parts.append(encode_batch(run, CODEC_BINARY))
                count, run = count + len(run), []
            parts.append(item[0])
            count += item[1]
        if run:
            parts.append(encode_batch(run, CODEC_BINARY))
            count += len(run)
        data = parts[0] if len(parts) == 1 else b"".join(parts)
        self._transport.write(data)
        if (metrics := self._metrics) is not None:
            metrics.bytes.labels(direction="out", codec=CODEC_BINARY).inc(len(data))
            metrics.messages.labels(direction="out", codec=CODEC_BINARY).inc(count)
            metrics.flushes.inc()

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        if self._queue:
            self._schedule()

    # -- read path ----------------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        if self.closed:  # closed before the transport existed
            transport.close()
        elif self._queue:
            self._schedule()

    def data_received(self, data: bytes) -> None:
        try:
            for envelope in decode_chunk(self.decoder, data, self._metrics):
                self._on_envelope(self, envelope)
        except Exception as exc:  # not bin2, or a handler fault: this link ends
            self._end(exc)

    def eof_received(self) -> None:
        self._end(None)

    def connection_lost(self, exc: Exception | None) -> None:
        self._end(None)  # (a socket error is the peer's loss, not a fault)

    def _end(self, cause: Exception | None) -> None:
        self.close(flush=False)
        if not self.lost.done():
            self.lost.set_result(None)
            self._on_lost(self, cause)

    # -- lifecycle ----------------------------------------------------------

    def close(self, flush: bool = True) -> None:
        """Stop sending and close the transport; idempotent.  A graceful
        close hands what ``send`` accepted to the transport, which writes
        it out before it closes; ``flush=False`` drops it."""
        if self.closed:
            return
        self.closed = True
        pending = list(self._queue) if flush else []
        self._queue.clear()
        if self._transport is None:
            return
        try:
            if pending:
                self._write_batch(pending)
        except Exception:
            pass
        self._transport.close()


class TcpBroker(_Node):
    """The broker as an asyncio TCP server (see module docstring).

    ``state`` is the driver's one lifecycle fact: ``stopped`` →
    ``running`` (``start`` returned) → ``stopping`` (``stop`` is tearing
    the loop down) → ``stopped``.

    Federation: pass ``broker_id`` plus ``peers`` (peer broker id ->
    ``(host, port)``) to join a static peer set.  The broker dials every
    peer (:func:`dial`), introduces itself with a ``PeerHello``, and the
    link's callbacks route gossip/forward traffic into the core like any
    other connection's.
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
        broker_id: str | None = None,
        peers: dict[str, tuple[str, int]] | None = None,
        peer_journals: dict[str, str] | None = None,
        peer_obs_urls: dict[str, str] | None = None,
        gossip_interval: float = 1.0,
    ):
        # The listener is bound first and synchronously: ``address`` is valid
        # immediately, and a bind failure raises before the journal is opened
        # or replayed, leaving nothing open.  asyncio adopts the socket at
        # start.  Declared IPPROTO_TCP, which accepted sockets inherit:
        # asyncio turns Nagle off only on those (small frames must not wait).
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM, socket.IPPROTO_TCP)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(128)
        except OSError:
            self._listener.close()
            raise
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
        self.state = self.STOPPED
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
        self.state = self.RUNNING
        self._start_loop("broker-aio")
        try:
            self._await(self._serve(), timeout=10.0)
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
        self.state = self.STOPPING
        self._halt_loop(self._shutdown)
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

    async def _health(self) -> dict:
        document = self.core.health_snapshot()
        document["transport"] = {
            "loop": "asyncio",
            "connections": len(self._accepted),
        }
        return document

    async def _serve(self) -> None:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(self._adopt, sock=self._listener)
        self._tasks = [loop.create_task(self._tick_task())] + [
            loop.create_task(self._peer_task(peer_id, *address))
            for peer_id, address in self._peer_addresses.items()
        ]

    async def _shutdown(self) -> None:
        for task in self._tasks:
            task.cancel()
        self._tasks = []
        # Stop accepting, and give the connections accepted just before two
        # turns to exist (asyncio makes their protocols in tasks of its own):
        # the sweep below then closes every connection there is.
        asyncio.get_running_loop().remove_reader(self._listener.fileno())
        for _ in range(2):
            await asyncio.sleep(0)
        connections = list(self._accepted)
        self._accepted.clear()
        self._connections.clear()
        for connection in connections:
            connection.close()
        if self._transport_metrics is not None and connections:
            # ``_drop_connection`` skips its dec once a connection left
            # ``_accepted``, so this is the only decrement for these.
            self._transport_metrics.connections.dec(len(connections))
        if self._server is not None:
            # Asked before ``close``, this waits for the accepted sockets to
            # close too (their last callbacks run before the loop stops).
            closed = asyncio.ensure_future(self._server.wait_closed())
            self._server.close()
            try:
                await asyncio.wait_for(closed, timeout=2.0)
            except asyncio.TimeoutError:
                pass
            self._server = None

    def _adopt(
        self, peer_id: NodeId | None = None, greeting: Envelope | None = None
    ) -> AioConnection:
        """The protocol of one stream — accepted, or dialed to ``peer_id``
        — tracked from now until it is lost, ``greeting`` said first."""
        connection = AioConnection(self._on_envelope, self._drop_connection, self._transport_metrics)
        self._accepted.add(connection)
        if peer_id is not None:
            self._learn_peer(connection, peer_id)
        if self._transport_metrics is not None:
            self._transport_metrics.connections.inc()
        if greeting is not None:
            connection.send(greeting)
        return connection

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
        """Keep the outbound link to one federation peer up: :func:`dial`
        it, forever, introducing ourselves with a ``PeerHello`` (reply
        expected, so the peer's epoch lands in our table immediately), and
        read the link like any other connection.  Both sides dialing each
        other is fine: forwards and gossip are idempotent, and
        ``_connections`` keeps whichever link registered last.
        """
        rng = random.Random(f"{self.core.node_id}->{peer_id}")
        me, peer = self.core.node_id, NodeId(peer_id)
        connection = None

        def dialed(_index: int) -> AioConnection:
            nonlocal connection
            hello = PeerHello(str(me), self.core.federation.epoch, reply_expected=True)
            connection = self._adopt(peer, greeting=hello.envelope(me, peer))
            return connection

        while self.state == self.RUNNING:
            await dial([(host, port)], dialed, rng, wait=connection is not None)
            await connection.lost

    def _learn_peer(self, connection: AioConnection, peer_id: NodeId) -> None:
        """``connection`` speaks for ``peer_id`` from now on.  A new
        connection naming a known peer takes over its routing: that is
        how a redial looks from here."""
        connection.peer_id = peer_id
        self._connections[peer_id] = connection

    def _drop_connection(self, connection: AioConnection, cause: Exception | None) -> None:
        """``connection`` is lost (its ``on_lost``): say why if it was
        refused or faulted, and forget it."""
        if isinstance(cause, CodecError):
            # Not bin2 (a JSON ``{``, an older contract) or corrupt: the
            # peer is refused, and only its link ends.
            if self.telemetry is not None:
                self.telemetry.events.record(
                    ev.DISCONNECT, node=str(connection.peer_id), reason=f"refused: {cause}"
                )
        elif cause is not None:
            # Nothing a peer sends raises out of ``_on_envelope`` (the core
            # reports an unreadable envelope): a defect in a handler.
            self._report_defect(ev.DISCONNECT, connection.peer_id, "handler fault", cause)
        dropped = connection in self._accepted
        self._accepted.discard(connection)
        if self._connections.get(connection.peer_id) is connection:
            del self._connections[connection.peer_id]
        if dropped and self._transport_metrics is not None:
            self._transport_metrics.connections.dec()
        # A provider that drops TCP is handled by the heartbeat failure
        # detector; nothing else to do here.

    def _on_envelope(self, connection: AioConnection, envelope: Envelope) -> None:
        """Dispatch one inbound envelope (in the callback that read it)."""
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
