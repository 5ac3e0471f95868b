"""Real TCP deployment of the Tasklet middleware.

The same sans-IO cores used by the simulator run here behind real
sockets:

* :class:`TcpBroker` — a **single-threaded asyncio event loop** (see
  :mod:`repro.transport.aio`) serving every peer — providers, consumers,
  and federation peer brokers — with one reader/writer pair per
  connection instead of a thread per connection.  It has many links, so
  its outbound envelopes are write-coalesced: everything routed while a
  previous flush is draining goes out in one socket write.
* :class:`TcpProvider` — runs what its :class:`~repro.provider.core.ProviderCore`
  accepts on a pool of worker threads, heartbeats periodically;
* :class:`TcpConsumer` — a :class:`~repro.consumer.library.Session` over a
  broker connection, so ``TaskletLibrary`` works unchanged.

Provider and consumer are thin clients of the broker with one link
each, so they share one client-side mechanism, :class:`_BrokerLink`: a
blocking socket written under a mutex (:class:`_Connection`), a reader
thread, the broker list, the redial backoff, the ``hello`` exchange and
one explicit state.  What differs by role — what to say on connect;
redial forever, up to a cap, or never — the role passes in.

Framing is the dual-codec format of :mod:`repro.transport.codec`: every
connection starts on length-prefixed JSON; a ``hello`` handshake
negotiates the compact ``bin2`` binary codec per link (JSON remains the
debug fallback and the interop path for peers that offer no ``bin2``).
Receivers decode both codecs frame-by-frame, so negotiation never races
decoding.

For *parallel* scaling on one machine (experiment F8) use
:func:`spawn_provider_processes`: each provider lives in its own OS
process, so TVM execution escapes the GIL.

Connection lifecycle (documented in detail in ``docs/PROTOCOL.md``):

* A consumer that loses its broker connection fails every pending future
  with a typed :class:`~repro.common.errors.BrokerUnreachable` error —
  nothing hangs — and fires its ``on_disconnect`` hook.
* A provider that loses its broker connection redials with exponential
  backoff plus jitter, re-registering with its *cached* benchmark score;
  the broker's flap-recovery path fails the previous incarnation's
  executions so re-issue happens immediately.
* ``TcpProvider.stop(drain=True)`` rejects new assignments, finishes
  in-flight executions, writes their results, and only then unregisters;
  a client ``send`` returns once its bytes are with the kernel, so the
  unregister can never overtake the final result on the wire.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import random
import socket
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from ..broker.core import BrokerConfig, BrokerCore
from ..broker.federation import FederationConfig
from ..broker.journal import WorkJournal
from ..broker.scheduling import make_strategy
from ..common.clock import WallClock
from ..common.errors import (
    ConnectionClosed,
    FederationExhausted,
    TransportError,
)
from ..common.ids import IdGenerator, NodeId, random_id
from ..consumer.core import ConsumerCore
from ..consumer.session import CoreSession
from ..obs import events as ev
from ..obs.server import ObsServer
from ..obs.telemetry import Telemetry, TransportMetrics
from ..provider.benchmark import run_benchmark
from ..provider.core import ProviderConfig, ProviderCore, Work
from ..provider.executor import PROGRAM_CACHE_SIZE
from ..transport.aio import AioConnection, LoopThread
from ..transport.codec import (
    CODEC_JSON,
    SUPPORTED_CODECS,
    EnvelopeDecoder,
    Stamp,
    accept_codec,
    choose_codec,
    count_sent,
    decode_chunk,
    encode_batch,
)
from ..transport.message import (
    BROKER_ADDRESS,
    Envelope,
    HeartbeatAck,
    Hello,
    HelloAck,
    PeerHello,
    body_of,
)

_RECV_CHUNK = 65536


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


class _Connection:
    """One framed, thread-safe TCP connection (client side).

    Writes go out under a mutex: ``send`` takes the send lock, runs the
    per-envelope ``stamp`` hooks, encodes, hands the bytes to the kernel
    in one ``sendall`` and releases.  So a ``send`` that returned *is*
    written — a later ``close`` cannot lose it — senders reach the wire
    in lock order, and a stamp (``Heartbeat.sent_at``) is taken just
    before its bytes leave.  A ``send`` that raises wrote nothing or
    killed the stream; it never wedges the senders behind it.

    ``metrics`` is an optional :class:`TransportMetrics` bundle; framed
    bytes and envelope counts are reported per direction and codec.
    """

    def __init__(
        self, sock: socket.socket, metrics: TransportMetrics | None = None
    ):
        self.sock = sock
        self.decoder = EnvelopeDecoder()
        #: Codec for the send direction; flipped by the hello handshake.
        self.send_codec = CODEC_JSON
        self._send_lock = threading.Lock()
        self._closed = False
        self._metrics = metrics

    def send(self, envelope: Envelope, stamp: Stamp | None = None) -> None:
        self.send_many(((envelope, stamp),))

    def send_many(
        self, entries: Sequence[tuple[Envelope, Stamp | None]]
    ) -> None:
        """Write ``entries`` as one socket write; returns once written."""
        with self._send_lock:
            if self._closed:
                raise ConnectionClosed("connection closed")
            codec = self.send_codec
            data = encode_batch(entries, codec)
            try:
                self.sock.sendall(data)
            except OSError as exc:
                raise ConnectionClosed(f"send failed: {exc}") from exc
        count_sent(self._metrics, codec, len(data), len(entries))

    def recv_envelopes(self) -> list[Envelope] | None:
        """Block for data; completed envelopes, or ``None`` once the
        stream is dead (EOF, socket error, or undecodable bytes)."""
        try:
            chunk = self.sock.recv(_RECV_CHUNK)
        except OSError:
            chunk = b""
        return decode_chunk(self.decoder, chunk, self._metrics) if chunk else None

    def close(self) -> None:
        # A send in progress finishes first.  The wait is bounded: a
        # sender wedged on a dead peer is cut off by the shutdown below.
        held = self._send_lock.acquire(timeout=2.0)
        self._closed = True
        if held:
            self._send_lock.release()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class TcpBroker(_Node):
    """The broker as an asyncio TCP server (see module docstring).

    One event-loop thread owns every connection: acceptance, reads,
    coalesced writes, the periodic tick, and the federation peer dials.
    Every peer that advertises the compact binary wire codec is spoken to
    in it; one that offers nothing better stays on JSON.

    Federation: pass ``broker_id`` plus ``peers`` (peer broker id ->
    ``(host, port)``) to join a static peer set.  The broker dials every
    peer (with backoff), introduces itself with a transport ``hello``
    followed by a ``PeerHello``, and the shared reader path routes
    gossip/forward traffic into the core like any other connection.
    ``peer_journals`` (peer id -> journal path) additionally enables
    journal handoff: when a peer is declared dead and this broker is its
    successor, the peer's journal is adopted.  ``peer_obs_urls`` (peer id
    -> ObsServer base URL) lets this broker's ``/traces?workflow_id=``
    endpoint merge peer spans, so federated workflow traces render whole.
    """

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
        self._core_lock = threading.Lock()
        self._connections: dict[NodeId, AioConnection] = {}
        #: Every live connection, registered or not, so ``stop`` can
        #: close them all promptly.
        self._accepted: set[AioConnection] = set()
        self._connections_lock = threading.Lock()
        # The listener is bound synchronously so ``address`` is valid
        # immediately (and bind failures raise here, where the restart
        # retry loops expect them); asyncio adopts the socket at start.
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self._running = threading.Event()
        self._aio: LoopThread | None = None
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
                ready=self._running.is_set,
                peer_obs_urls=list((peer_obs_urls or {}).values()),
            )
            if obs_port is not None and telemetry is not None
            else None
        )

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()

    def _health_document(self) -> dict:
        with self._core_lock:
            document = self.core.health_snapshot()
        with self._connections_lock:
            connections = list(self._accepted)
        codecs: dict[str, int] = {}
        for connection in connections:
            codecs[connection.send_codec] = (
                codecs.get(connection.send_codec, 0) + 1
            )
        document["transport"] = {
            "loop": "asyncio",
            "connections": len(connections),
            "codecs": codecs,
        }
        return document

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "TcpBroker":
        self._running.set()
        if self.obs is not None:
            self.obs.start()
        self._aio = LoopThread("broker-aio").start()
        self._aio.submit(self._start_on_loop()).result(timeout=10.0)
        return self

    def stop(self) -> None:
        self._running.clear()
        if self.obs is not None:
            self.obs.stop()
        if self._aio is not None:
            try:
                self._aio.submit(self._shutdown_on_loop()).result(timeout=5.0)
            except Exception:
                pass  # loop already dead; the thread join below cleans up
            self._aio.stop()
            self._aio = None
        try:
            # Normally the asyncio server owns (and closed) this socket;
            # closing again is a no-op but covers the never-started case.
            self._listener.close()
        except OSError:
            pass
        if self.journal is not None:
            self.journal.close()

    # -- event-loop internals ------------------------------------------------

    async def _start_on_loop(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_client, sock=self._listener
        )
        loop = asyncio.get_running_loop()
        self._tasks = [loop.create_task(self._tick_task())]
        for peer_id, (peer_host, peer_port) in self._peer_addresses.items():
            self._tasks.append(
                loop.create_task(self._peer_task(peer_id, peer_host, peer_port))
            )

    async def _shutdown_on_loop(self) -> None:
        for task in self._tasks:
            task.cancel()
        self._tasks = []
        # Yield once so handler tasks for just-accepted connections get to
        # run their first statements and register in ``_accepted`` — an
        # unregistered transport would otherwise never be closed and its
        # peer never see EOF.  Stragglers after this cycle self-close on
        # the ``_running`` guard in ``_serve_client``.
        await asyncio.sleep(0)
        with self._connections_lock:
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

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if not self._running.is_set():
            # Accepted during shutdown (after the close sweep snapshotted
            # ``_accepted``): close here or the peer never sees EOF.
            writer.close()
            return
        await self._adopt(reader, writer)

    async def _adopt(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer_id: NodeId | None = None,
        greeting: Sequence[Envelope] = (),
    ) -> None:
        """Serve one stream — accepted, or dialed to ``peer_id`` — until
        it dies: track it, say ``greeting``, read it, forget it."""
        _nodelay(writer.get_extra_info("socket"))
        connection = AioConnection(
            self._aio, reader, writer, metrics=self._transport_metrics
        )
        connection.peer_id = peer_id
        with self._connections_lock:
            self._accepted.add(connection)
            if peer_id is not None:
                self._connections[peer_id] = connection
        if self._transport_metrics is not None:
            self._transport_metrics.connections.inc()
        try:
            for envelope in greeting:
                connection.send(envelope)
        except ConnectionClosed:
            pass  # the reader below observes the dead link and returns
        try:
            await connection.run_reader(self._on_envelope)
        except Exception as exc:
            # Nothing a peer sends raises out of ``_on_envelope`` (the core
            # reports an unreadable envelope), so this is a defect in a
            # handler.  The reader closed the link on its way out; say why,
            # once, rather than leave it to "Task exception was never
            # retrieved".
            reason = f"handler fault: {type(exc).__name__}: {exc}"
            asyncio.get_running_loop().call_exception_handler(
                {"message": f"link to {connection.peer_id}: {reason}", "exception": exc}
            )
            if self.telemetry is not None:
                self.telemetry.events.record(
                    ev.DISCONNECT, node=str(connection.peer_id), reason=reason
                )
        self._drop_connection(connection)

    async def _tick_task(self) -> None:
        interval = self.config.heartbeat_interval / 2.0
        while True:
            await asyncio.sleep(interval)
            with self._core_lock:
                outbound = self.core.tick()
            self._route(outbound)

    async def _peer_task(self, peer_id: str, host: str, port: int) -> None:
        """Maintain the outbound link to one federation peer.

        Dial with capped exponential backoff plus jitter, introduce
        ourselves with a transport ``hello`` (codec negotiation) and a
        ``PeerHello`` (reply expected, so the peer's epoch lands in our
        table immediately), then read the link like any other
        connection.  Both sides dialing each other is fine: forwards and
        gossip are idempotent, and ``_connections`` keeps whichever link
        registered last.
        """
        backoff = 0.2
        rng = random.Random(f"{self.core.node_id}->{peer_id}")
        me, peer = self.core.node_id, NodeId(peer_id)
        while self._running.is_set():
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port), timeout=5.0
                )
            except (OSError, asyncio.TimeoutError):
                await asyncio.sleep(_jittered(rng, backoff))
                backoff = min(backoff * 2.0, 5.0)
                continue
            backoff = 0.2
            hello = Hello(
                node_id=str(me), codecs=list(SUPPORTED_CODECS), role="broker"
            )
            peer_hello = PeerHello(
                broker_id=str(me),
                epoch=self.core.federation.epoch,
                reply_expected=True,
            )
            await self._adopt(
                reader,
                writer,
                peer,
                greeting=(hello.envelope(me, peer), peer_hello.envelope(me, peer)),
            )

    def _drop_connection(self, connection: AioConnection) -> None:
        with self._connections_lock:
            dropped = connection in self._accepted
            self._accepted.discard(connection)
            if (
                connection.peer_id is not None
                and self._connections.get(connection.peer_id) is connection
            ):
                del self._connections[connection.peer_id]
        if dropped and self._transport_metrics is not None:
            self._transport_metrics.connections.dec()
        # A provider that drops TCP is handled by the heartbeat failure
        # detector; nothing else to do here.

    def _on_envelope(
        self, connection: AioConnection, envelope: Envelope
    ) -> None:
        """Dispatch one inbound envelope (runs on the event loop)."""
        if envelope.type == Hello.TYPE:
            self._on_hello(connection, envelope)
            return
        if envelope.type == HelloAck.TYPE:
            # A peer broker we dialed answered our hello.
            accept_codec(connection, envelope, SUPPORTED_CODECS)
            return
        if connection.peer_id is None:
            connection.peer_id = envelope.src
            with self._connections_lock:
                self._connections[envelope.src] = connection
        with self._core_lock:
            outbound = self.core.handle(envelope)
        self._route(outbound)

    def _on_hello(
        self, connection: AioConnection, envelope: Envelope
    ) -> None:
        try:
            hello = body_of(envelope)
        except TransportError:
            return
        if connection.peer_id is None:
            connection.peer_id = envelope.src
            with self._connections_lock:
                self._connections[envelope.src] = connection
        chosen = choose_codec(hello.codecs)
        ack = HelloAck(codec=chosen, codecs=list(SUPPORTED_CODECS))
        try:
            connection.send(ack.envelope(self.core.node_id, envelope.src))
        except ConnectionClosed:
            return
        # The peer decodes every codec it advertised, so this side may
        # switch immediately — even the ack itself may go out binary.
        connection.send_codec = chosen

    def _route(self, envelopes: list[Envelope]) -> None:
        for envelope in envelopes:
            with self._connections_lock:
                connection = self._connections.get(envelope.dst)
            if connection is None:
                continue  # peer gone; failure detector will clean up
            try:
                connection.send(envelope)
            except ConnectionClosed:
                with self._connections_lock:
                    if self._connections.get(envelope.dst) is connection:
                        del self._connections[envelope.dst]


class _BrokerLink:
    """A client's one supervised link to its broker.

    Owns what a provider and a consumer both need: the socket and its
    reader thread, the broker list and the index of the last good broker,
    capped exponential backoff with jitter, the ``hello`` exchange, and
    one explicit ``state`` — ``CONNECTING`` (``start`` is dialing on its
    caller's thread) → ``UP`` → ``DOWN`` (the stream died; the link
    thread backs off and redials) → ``UP`` …, until ``EXHAUSTED`` (redial
    cap spent; the typed error is kept in ``exhausted``) or ``CLOSED``.

    ``max_attempts`` is the redial policy: ``None`` retries forever, ``0``
    never redials (the owner calls ``start`` again), ``n`` gives up with
    :class:`FederationExhausted` after ``n`` failed dials.  ``start``
    applies the same cap, but tries the list at least once and never
    waits unboundedly.

    ``on_connect(redial)`` returns the envelopes that must follow the
    ``hello`` (a provider's registration); it runs under the link lock,
    so it must not call back into the link.  ``on_envelope`` sees every
    inbound envelope but the ``hello_ack``; ``on_lost(reason)`` runs when
    an ``UP`` link dies other than by ``close``.
    """

    CLOSED, CONNECTING, UP, DOWN, EXHAUSTED = (
        "closed", "connecting", "up", "down", "exhausted"
    )

    def __init__(
        self,
        node_id: NodeId,
        role: str,
        brokers: list[tuple[str, int]] | None,
        broker_host: str | None,
        broker_port: int | None,
        backoff: float,
        backoff_max: float,
        max_attempts: int | None,
        telemetry: Telemetry | None,
        on_envelope: Callable[[Envelope], None],
        on_lost: Callable[[str], None],
        on_connect: Callable[[bool], Sequence[Envelope]] = lambda redial: (),
    ):
        if brokers:
            self._brokers = [tuple(address) for address in brokers]
        elif broker_host is not None and broker_port is not None:
            self._brokers = [(broker_host, broker_port)]
        else:
            raise ValueError("either broker_host/broker_port or brokers required")
        self._index = 0  # the last good broker; dial rounds start here
        self._node_id = node_id
        #: The codecs the ``hello`` offers — all a ``hello_ack`` may switch
        #: this link to.
        self._offered = SUPPORTED_CODECS
        self._hello = Hello(
            node_id=str(node_id), codecs=list(self._offered), role=role
        ).envelope(node_id, BROKER_ADDRESS)
        self._backoff = backoff
        self._backoff_max = backoff_max
        self._max_attempts = max_attempts
        self.metrics = TransportMetrics(telemetry.registry) if telemetry else None
        self._events = telemetry.events if telemetry else None
        self._on_envelope = on_envelope
        self._on_lost = on_lost
        self._on_connect = on_connect
        self._rng = random.Random(node_id)
        self._lock = threading.Condition()
        #: Bumped by ``start`` and ``close``: a dial or reader thread that
        #: carries an older number has been superseded and just leaves.
        self._generation = 0
        self._connection: _Connection | None = None  # set only while UP
        self.state = self.CLOSED
        self.exhausted: FederationExhausted | None = None

    @property
    def connected(self) -> bool:
        return self.state == self.UP

    @property
    def send_codec(self) -> str | None:
        connection = self._connection
        return connection.send_codec if connection else None

    def send_many(
        self, entries: Sequence[tuple[Envelope, Stamp | None]]
    ) -> None:
        connection = self._connection
        if connection is None:
            raise ConnectionClosed(f"broker link is {self.state}")
        connection.send_many(entries)

    def start(self) -> None:
        """(Re)open the link from scratch, dialing on the caller's thread.

        Raises when no broker answers: :class:`FederationExhausted` under
        a ``max_attempts`` cap, the dial's own ``OSError`` otherwise.
        """
        self.close()
        with self._lock:
            self._generation += 1
            generation = self._generation
            self.state = self.CONNECTING
            self.exhausted = None
        try:
            connection = self._dial(generation, redial=False)
        except BaseException:
            self._settle(generation, self.CLOSED)
            raise
        if connection is not None:
            threading.Thread(
                target=self._run,
                args=(generation, connection),
                name=f"{self._node_id}-link",
                daemon=True,
            ).start()

    def close(self) -> None:
        """Tear the link down; prompt in every state, idempotent."""
        with self._lock:
            self._generation += 1
            connection, self._connection = self._connection, None
            self.state = self.CLOSED
            self._lock.notify_all()  # cuts a backoff wait short
        if connection is not None:
            connection.close()

    def _settle(self, generation: int, state: str) -> bool:
        """Move to ``state`` — unless ``close`` or ``start`` took the link
        over meanwhile (then False: the caller just leaves)."""
        with self._lock:
            if self._generation != generation:
                return False
            self._connection = None
            self.state = state
            return True

    def _run(self, generation: int, connection: _Connection | None) -> None:
        """The link thread: read until the stream dies, redial, repeat."""
        while connection is not None:
            reason = "connection to broker lost"
            try:
                while (envelopes := connection.recv_envelopes()) is not None:
                    for envelope in envelopes:
                        if envelope.type == HelloAck.TYPE:
                            accept_codec(connection, envelope, self._offered)
                        else:
                            self._on_envelope(envelope)
            except Exception as exc:
                # Nothing a peer sends raises out of ``on_envelope`` (the
                # cores report an unreadable envelope), so this is a defect
                # in the handler — and the link's loss like any other: a
                # reader that unwound behind an ``UP`` state would leave the
                # node heartbeating, sending, and deaf.
                reason = f"handler fault: {type(exc).__name__}: {exc}"
            connection.close()
            if not self._settle(generation, self.DOWN):
                return
            self._on_lost(reason)
            if self._max_attempts == 0:
                return
            connection = self._dial(generation, redial=True)

    def _dial(self, generation: int, redial: bool) -> _Connection | None:
        """Bring the link ``UP`` on the first broker that answers.

        Rounds cycle the list from the last good broker; between rounds
        (and before a redial's first) the wait is the capped, doubling,
        jittered backoff, cut short by ``close``.  Returns ``None`` when
        superseded; raises once the attempt cap is spent.
        """
        cap = self._max_attempts if redial else (self._max_attempts or 1)
        attempts, delay = 0, self._backoff
        while True:
            if redial or attempts:
                with self._lock:
                    if self._lock.wait_for(
                        lambda: self._generation != generation,
                        _jittered(self._rng, delay),
                    ):
                        return None
                delay = min(delay * 2.0, self._backoff_max)
            for offset in range(len(self._brokers)):
                index = (self._index + offset) % len(self._brokers)
                attempts += 1
                try:
                    return self._open(index, generation, redial)
                except (OSError, ConnectionClosed) as exc:
                    error = exc
            if cap is not None and attempts >= cap:
                if not self._max_attempts:
                    raise error  # a plain one-shot start(): the OSError itself
                exhausted = FederationExhausted(
                    f"no broker reachable after {attempts} attempts",
                    brokers=[f"{host}:{port}" for host, port in self._brokers],
                    attempts=attempts,
                )
                if not redial:
                    raise exhausted from error
                if self._settle(generation, self.EXHAUSTED):
                    self.exhausted = exhausted
                    if self._events is not None:
                        self._events.record(
                            ev.FEDERATION_EXHAUSTED,
                            node=str(self._node_id),
                            brokers=exhausted.brokers,
                            attempts=attempts,
                        )
                return None

    def _open(
        self, index: int, generation: int, redial: bool
    ) -> _Connection | None:
        """Connect to broker ``index``, greet it, and publish the link."""
        host, port = self._brokers[index]
        sock = socket.create_connection((host, port), timeout=5.0)
        sock.settimeout(None)
        _nodelay(sock)
        connection = _Connection(sock, self.metrics)
        # Greet and publish in one step under the link lock: no other
        # sender reaches the new stream before the hello and the owner's
        # envelopes, and nothing is written once close() was called.
        with self._lock:
            if self._generation != generation:
                connection.close()
                return None
            greeting = [self._hello, *self._on_connect(redial)]
            try:
                connection.send_many([(envelope, None) for envelope in greeting])
            except ConnectionClosed:
                connection.close()
                raise
            switched = redial and index != self._index
            self._index = index
            self._connection = connection
            self.state = self.UP
        if switched and self._events is not None:
            self._events.record(
                ev.BROKER_FAILOVER, node=str(self._node_id), broker=f"{host}:{port}"
            )
        return connection


class TcpProvider(_Node):
    """A provider process/thread executing Tasklets over TCP.

    The protocol is ``core``, the :class:`ProviderCore` the simulator
    also drives; this driver adds the link, the worker pool, wall-clock
    stamps, the heartbeat thread and the one wait for a drain.

    The broker link is supervised (:class:`_BrokerLink`): if it drops
    while the provider is running, the link redials with exponential
    backoff (plus jitter, so a provider fleet does not reconnect in
    lockstep) and re-registers using the benchmark score measured at
    ``start`` — the self-benchmark is not repeated on reconnect.  Every
    (re)connection opens with a transport ``hello`` so the binary codec
    is renegotiated per link.
    """

    def __init__(
        self,
        broker_host: str | None = None,
        broker_port: int | None = None,
        capacity: int = 2,
        device_class: str = "host",
        node_id: str | None = None,
        benchmark_score: float | None = None,
        heartbeat_interval: float = 1.0,
        price: float = 0.0,
        reconnect: bool = True,
        reconnect_backoff: float = 0.2,
        reconnect_backoff_max: float = 5.0,
        telemetry: Telemetry | None = None,
        program_cache_size: int = PROGRAM_CACHE_SIZE,
        profile_executions: bool = False,
        obs_port: int | None = None,
        obs_host: str = "127.0.0.1",
        brokers: list[tuple[str, int]] | None = None,
    ):
        self.node_id = NodeId(node_id or random_id("prov"))
        self.reconnect = reconnect
        if obs_port is not None and telemetry is None:
            telemetry = Telemetry()
        self.telemetry = telemetry
        self._events = telemetry.events if telemetry else None
        self.core = ProviderCore(
            node_id=self.node_id,
            clock=WallClock(),
            config=ProviderConfig(
                device_class=device_class,
                capacity=capacity,
                # Measured once at ``start`` when not given, then cached
                # for every re-registration.
                benchmark_score=benchmark_score,
                price=price,
                heartbeat_interval=heartbeat_interval,
                program_cache_size=program_cache_size,
                profile_executions=profile_executions,
            ),
            telemetry=telemetry,
        )
        self._pool: ThreadPoolExecutor | None = None
        #: ``brokers`` are tried in order and redials cycle through them,
        #: so a provider survives the death of its home broker (federation).
        self._link = _BrokerLink(
            self.node_id,
            "provider",
            brokers,
            broker_host,
            broker_port,
            backoff=reconnect_backoff,
            backoff_max=reconnect_backoff_max,
            max_attempts=None if reconnect else 0,
            telemetry=telemetry,
            on_envelope=self._on_envelope,
            on_lost=self._on_lost,
            on_connect=self._on_connect,
        )
        self._transport_metrics = self._link.metrics
        self.obs: ObsServer | None = (
            ObsServer(
                telemetry,
                host=obs_host,
                port=obs_port,
                node=str(self.node_id),
                role="provider",
                health=self._health_document,
                ready=self._is_connected,
            )
            if obs_port is not None and telemetry is not None
            else None
        )

    def _is_connected(self) -> bool:
        return self.core.state != ProviderCore.STOPPED and self._link.connected

    def _health_document(self) -> dict:
        core = self.core
        with core.lock:
            state = core.state
            active = core.active
            inflight = len(core.inflight)
            epoch = core.epoch
        connected = self._is_connected()
        if state == core.STOPPED:
            status = "unhealthy"
        elif not connected or state == core.DRAINING:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "role": "provider",
            "node": str(self.node_id),
            "connected": connected,
            "draining": state == core.DRAINING,
            "capacity": core.config.capacity,
            "active_slots": active,
            "inflight": inflight,
            "epoch": epoch,
            "benchmark_score": core.config.benchmark_score,
            "codec": self._link.send_codec,
        }

    def start(self) -> "TcpProvider":
        config = self.core.config
        if config.benchmark_score is None:
            config.benchmark_score = run_benchmark().score
        # Pool and state first: an assignment can follow the registration
        # on the link thread before ``_link.start`` has even returned.
        self._pool = ThreadPoolExecutor(
            max_workers=config.capacity, thread_name_prefix=f"{self.node_id}-exec"
        )
        self.core.start()
        try:
            self._link.start()
        except BaseException:
            self.core.stop()
            self._pool.shutdown(wait=False)
            raise
        if self.obs is not None:
            self.obs.start()
        threading.Thread(
            target=self._heartbeat_loop, name=f"{self.node_id}-heart", daemon=True
        ).start()
        return self

    def stop(self, drain: bool = False, drain_timeout: float = 30.0) -> None:
        """Disconnect from the broker and shut down.

        With ``drain=True`` the provider first stops accepting work
        (rejecting new assignments so the broker re-issues them
        elsewhere), waits up to ``drain_timeout`` for in-flight
        executions to finish and write their results, and only then
        unregisters.  Without it, shutdown is immediate and the broker's
        flap/failure handling re-issues whatever was outstanding.
        """
        core = self.core
        with core.lock:
            if core.state == core.STOPPED:
                return
            if drain:
                core.drain()
                core.lock.wait_for(lambda: not core.inflight, drain_timeout)
            core.stop()  # also wakes the heartbeat wait promptly
        self._send(core.unregister())
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._link.close()
        if self.obs is not None:
            self.obs.stop()

    # -- internals ----------------------------------------------------------

    def _send(self, envelope: Envelope, stamp: Stamp | None = None) -> None:
        """Write one envelope if the link is up.  A failed send means the
        link is dying or gone; the redial's registration voids whatever
        this was about, and the next heartbeat is due anyway."""
        try:
            self._link.send_many(((envelope, stamp),))
        except TransportError:
            pass

    def _on_connect(self, redial: bool) -> list[Envelope]:
        registration = self.core.registration()
        if redial:
            if self._transport_metrics is not None:
                self._transport_metrics.reconnects.inc()
            if self._events is not None:
                self._events.record(
                    ev.RECONNECT, node=str(self.node_id), epoch=self.core.epoch
                )
        return [registration]

    def _on_lost(self, reason: str) -> None:
        if self._events is not None and self.core.state != ProviderCore.STOPPED:
            self._events.record(
                ev.DISCONNECT,
                node=str(self.node_id),
                reason=reason,
                will_reconnect=self.reconnect,
            )

    def _on_envelope(self, envelope: Envelope) -> None:
        """Hand one broker message to the core (link thread)."""
        if envelope.type == HeartbeatAck.TYPE:
            ack = self.core.read(envelope)
            if ack is not None:
                self._on_heartbeat_ack(ack)
            return
        replies, work = self.core.handle(envelope)
        if work is not None:
            try:
                self._pool.submit(self._execute, work)
            except RuntimeError:
                # stop() shut the pool between the core's admission check
                # and the submit (this thread outlives it).
                replies = [self.core.reject(work, "provider draining")]
        for reply in replies:
            self._send(reply)

    def _on_heartbeat_ack(self, ack: HeartbeatAck) -> None:
        if self._transport_metrics is None:
            return
        if ack.echo_sent_at:
            self._transport_metrics.heartbeat_rtt.observe(
                max(0.0, time.monotonic() - ack.echo_sent_at)
            )
        else:
            # An ack without the echo gives no RTT sample; count it so
            # silent RTT gaps are visible, not just absent.
            self._transport_metrics.heartbeats_unechoed.inc()

    def _heartbeat_loop(self) -> None:
        core = self.core
        while True:
            with core.lock:
                if core.lock.wait_for(
                    lambda: core.state == core.STOPPED,
                    core.config.heartbeat_interval,
                ):
                    return
                free_slots = core.config.capacity - core.active
            # With telemetry on, the send-time hook stamps ``sent_at``
            # immediately before the bytes leave, and a stamped heartbeat
            # asks the broker for an ack (RTT telemetry); without it the
            # flows stay ack-free.  A heartbeat can wait for the send lock
            # behind a large result, and a stamp taken here would bill
            # that wait as network RTT, poisoning the EWMA straggler
            # watchdog.
            want_rtt = self._transport_metrics is not None
            self._send(
                core.heartbeat(free_slots), _stamp_heartbeat if want_rtt else None
            )

    def _execute(self, work: Work) -> None:
        """Run one accepted execution on a pool thread, wall-clock stamped."""
        core = self.core
        started = core.clock.now()
        outcome = core.run(work)
        if outcome is None:
            return
        result = core.report(work, outcome, started, core.clock.now())
        # Send before the core purges its bookkeeping: a draining stop()
        # waits on ``inflight`` emptying, and its unregister must not be
        # able to overtake this result on the wire (``_send`` returns only
        # once the result is written).
        if result is not None:
            self._send(result)
        core.finish(work)


def _stamp_heartbeat(envelope: Envelope) -> None:
    """Send-time hook: the RTT clock starts when the bytes leave."""
    envelope.payload["sent_at"] = time.monotonic()


class TcpConsumer(CoreSession, _Node):
    """Consumer session over TCP; ``.library`` is its :class:`TaskletLibrary`.

    If the broker connection drops, every pending future is failed with
    :class:`~repro.common.errors.BrokerUnreachable` (typed, immediate — no
    caller is left hanging until its timeout) and the optional
    ``on_disconnect`` hook is invoked with a human-readable reason.

    Every connection opens with a transport ``hello`` negotiating the
    binary wire codec; a submission, one tasklet or a whole
    ``library.map``, is one socket write.

    Federation: pass ``brokers=[(host, port), ...]`` instead of a single
    address and the consumer fails over automatically — when the link
    dies it cycles the list with capped exponential backoff plus jitter,
    reconnects to the first broker that answers, and fires a
    ``broker_failover`` event when that is a different one.  Pending
    futures are still failed on the drop (resubmitting with the same
    tasklet ids is idempotent); once the attempt cap is exhausted a typed
    :class:`~repro.common.errors.FederationExhausted` (a
    ``BrokerUnreachable`` subclass) names every broker tried.
    """

    def __init__(
        self,
        broker_host: str | None = None,
        broker_port: int | None = None,
        node_id: str | None = None,
        base_seed: int = 0,
        on_disconnect=None,
        telemetry: Telemetry | None = None,
        brokers: list[tuple[str, int]] | None = None,
        failover_backoff: float = 0.2,
        failover_backoff_max: float = 2.0,
        max_failover_attempts: int = 12,
    ):
        self.node_id = NodeId(node_id or random_id("cons"))
        self.telemetry = telemetry
        core = ConsumerCore(
            node_id=self.node_id, clock=WallClock(), telemetry=telemetry
        )
        super().__init__(core, base_seed)
        self.on_disconnect = on_disconnect
        self._link = _BrokerLink(
            self.node_id,
            "consumer",
            brokers,
            broker_host,
            broker_port,
            backoff=failover_backoff,
            backoff_max=failover_backoff_max,
            # Auto-failover is enabled only by the ``brokers`` list; the
            # single-address form keeps the explicit-``reconnect()`` contract.
            max_attempts=max_failover_attempts if brokers is not None else 0,
            telemetry=telemetry,
            on_envelope=self.core.handle,
            on_lost=self._on_lost,
        )

    @property
    def connected(self) -> bool:
        """Whether the broker link is up right now (false while a lost
        link is failing over, once it is exhausted, and after ``stop``)."""
        return self._link.connected

    def start(self) -> "TcpConsumer":
        self._link.start()
        return self

    def reconnect(self) -> "TcpConsumer":
        """Re-establish a lost broker connection on the same node id.

        Pending futures were already failed with
        :class:`~repro.common.errors.BrokerUnreachable` when the link
        died; after reconnecting, resubmitting with the *same* tasklet
        ids is idempotent — the broker (re-)acks in-flight work, and a
        journal-backed broker re-delivers completed outcomes instead of
        re-executing them.
        """
        return self.start()

    def stop(self) -> None:
        was_running = self._link.state != _BrokerLink.CLOSED
        self._link.close()
        if was_running:
            # Nothing can resolve once the connection is gone; anyone
            # still waiting gets a typed error instead of a hang.
            self.core.fail_all_pending("consumer stopped")

    # -- what CoreSession asks of a driver ---------------------------------------

    def _check_ready(self) -> None:
        if self._link.exhausted is not None:
            raise self._link.exhausted
        if self._link.state == _BrokerLink.CLOSED:
            raise TransportError("consumer not started")

    def _send(self, envelopes: Sequence[Envelope]) -> None:
        """One socket write per submission, however many envelopes."""
        # A link the reader already saw die refuses the send outright —
        # TCP would let one write after a peer close "succeed" — and a
        # write that fails never left this host.  Either way the
        # connection is dead for every pending future, so they all
        # resolve with a typed error rather than hanging.
        try:
            self._link.send_many([(envelope, None) for envelope in envelopes])
        except ConnectionClosed as exc:
            self.core.fail_all_pending(str(exc))

    # -- internals ----------------------------------------------------------

    def _on_lost(self, reason: str) -> None:
        # The link went DOWN before this runs, so a submit racing the loss
        # either is refused (and fails itself) or registered its future in
        # time to be caught here.  No window where a future slips through.
        self.core.fail_all_pending(reason)
        hook = self.on_disconnect
        if hook is not None:
            hook(reason)


def _provider_process_main(stop_event, *args, **kwargs) -> None:
    provider = TcpProvider(*args, **kwargs).start()
    stop_event.wait()
    provider.stop()


class ProviderProcess(_Node):
    """A provider running in its own OS process (GIL-free parallelism)."""

    def __init__(
        self,
        broker_host: str,
        broker_port: int,
        capacity: int = 1,
        device_class: str = "host",
        node_id: str | None = None,
        benchmark_score: float | None = None,
    ):
        self.node_id = node_id or random_id("prov")
        self._stop_event = multiprocessing.Event()
        self._process = multiprocessing.Process(
            target=_provider_process_main,
            args=(self._stop_event, broker_host, broker_port),
            kwargs=dict(
                capacity=capacity,
                device_class=device_class,
                node_id=self.node_id,
                benchmark_score=benchmark_score,
            ),
            daemon=True,
        )

    def start(self) -> "ProviderProcess":
        self._process.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop_event.set()
        self._process.join(timeout)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout)

    def kill(self) -> None:
        """Crash the provider process: no unregister, no drain, no goodbye.

        Fault-injection helper — from the broker's point of view this is a
        provider dying mid-execution, recovered by the heartbeat failure
        detector (or by flap recovery if the same node id returns).
        """
        if self._process.is_alive():
            self._process.kill()
        self._process.join(5.0)


def spawn_provider_processes(
    broker_host: str,
    broker_port: int,
    count: int,
    capacity: int = 1,
    benchmark_score: float | None = None,
) -> list[ProviderProcess]:
    """Start ``count`` single-capacity provider processes; caller stops them."""
    processes = [
        ProviderProcess(
            broker_host,
            broker_port,
            capacity=capacity,
            device_class="host",
            node_id=f"prov-p{i}",
            benchmark_score=benchmark_score,
        )
        for i in range(count)
    ]
    for process in processes:
        process.start()
    return processes
