"""Real TCP deployment of the Tasklet middleware.

The same sans-IO cores used by the simulator run here behind real
sockets:

* :class:`TcpBroker` — a **single-threaded asyncio event loop** (see
  :mod:`repro.transport.aio`) serving every peer — providers, consumers,
  and federation peer brokers — with one reader/writer pair per
  connection instead of a thread per connection.  Outbound envelopes are
  write-coalesced: everything routed while a previous flush is draining
  goes out in one socket write.
* :class:`TcpProvider` — connects, self-benchmarks, registers, executes
  assignments on a pool of worker threads, heartbeats periodically;
* :class:`TcpConsumer` — a :class:`~repro.consumer.library.Session` over a
  broker connection, so ``TaskletLibrary`` works unchanged.

Framing is the dual-codec format of :mod:`repro.transport.codec`: every
connection starts on length-prefixed JSON; a ``hello`` handshake
negotiates the compact ``bin1`` binary codec per link (JSON remains the
debug fallback and the interop path for old peers).  Receivers decode
both codecs frame-by-frame, so negotiation never races decoding.

For *parallel* scaling on one machine (experiment F8) use
:func:`spawn_provider_processes`: each provider lives in its own OS
process, so TVM execution escapes the GIL.

Connection lifecycle (documented in detail in ``docs/PROTOCOL.md``):

* A consumer that loses its broker connection fails every pending future
  with a typed :class:`~repro.common.errors.BrokerUnreachable` error —
  nothing hangs — and fires its ``on_disconnect`` hook.
* A provider that loses its broker connection reconnects with
  exponential backoff plus jitter, re-registering with its *cached*
  benchmark score; the broker's flap-recovery path fails the previous
  incarnation's executions so re-issue happens immediately.
* ``TcpProvider.stop(drain=True)`` rejects new assignments, finishes
  in-flight executions, flushes their results, and only then
  unregisters; results and the unregister share one FIFO send queue, so
  the unregister can never overtake the final result on the wire.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import random
import socket
import threading
import time
import uuid
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dag.handle import WorkflowHandle
    from ..dag.spec import WorkflowSpec

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
from ..consumer.library import TaskletLibrary
from ..core.futures import TaskletFuture
from ..core.tasklet import Tasklet
from ..obs import events as ev
from ..obs.server import ObsServer
from ..obs.telemetry import ProviderMetrics, Telemetry, TransportMetrics
from ..obs.trace import TraceContext
from ..provider.benchmark import run_benchmark
from ..provider.executor import PROGRAM_CACHE_SIZE, TaskletExecutor
from ..transport.aio import AioConnection, LoopThread
from ..transport.codec import (
    CODEC_JSON,
    SUPPORTED_CODECS,
    EnvelopeDecoder,
    Stamp,
    choose_codec,
    encode_batch,
)
from ..transport.message import (
    AssignExecution,
    BROKER_ADDRESS,
    CancelExecution,
    Envelope,
    ExecutionRejected,
    ExecutionResult,
    Heartbeat,
    HeartbeatAck,
    Hello,
    HelloAck,
    PeerHello,
    REASON_UNKNOWN_PROVIDER,
    RegisterAck,
    RegisterProvider,
    Unregister,
    body_of,
)

_RECV_CHUNK = 65536

#: How long ``_Connection.close`` waits for a thread that is mid-flush to
#: put what ``send`` already accepted on the wire.
_CLOSE_FLUSH_TIMEOUT = 2.0


def _offered_codecs(codec: str) -> tuple[str, ...]:
    """Map the ``codec=`` tuning knob onto an advertised-codec list."""
    if codec == "json":
        return (CODEC_JSON,)
    if codec in ("binary", "auto"):
        return SUPPORTED_CODECS
    raise ValueError(f"codec must be 'binary' or 'json', got {codec!r}")


class _Connection:
    """One framed, thread-safe TCP connection (client side).

    Writes are *coalesced* through a combining lock: ``send`` enqueues
    and, if no other thread is currently flushing, becomes the flusher —
    draining everything queued (its own envelope plus whatever piled up
    behind a slow ``sendall``) into one socket write.  Contending threads
    just enqueue and return, so a heartbeat never blocks behind a large
    result payload; their envelopes ride the active flusher's next batch
    in FIFO order.

    Per-envelope ``stamp`` hooks run at flush time, immediately before
    encoding — that keeps ``Heartbeat.sent_at`` honest under coalescing.

    What ``send`` accepted is written before ``close`` tears the socket
    down (it waits, bounded, for the active flusher), so a final result
    riding another thread's flush survives a graceful stop.

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
        #: Signalled (under ``_send_lock``) whenever a flusher finishes.
        self._flush_done = threading.Condition(self._send_lock)
        self._queue: deque[tuple[Envelope, Stamp | None]] = deque()
        self._flushing = False
        self._closed = False
        self._metrics = metrics
        self.peer_id: NodeId | None = None  # learned from first envelope

    def send(self, envelope: Envelope, stamp: Stamp | None = None) -> None:
        self.send_many(((envelope, stamp),))

    def send_many(
        self, entries: Sequence[tuple[Envelope, Stamp | None]]
    ) -> None:
        """Enqueue envelopes and flush unless another thread already is."""
        with self._send_lock:
            if self._closed:
                raise ConnectionClosed("connection closed")
            self._queue.extend(entries)
            if self._flushing:
                return  # the active flusher drains our entries too
            self._flushing = True
        try:
            while True:
                with self._send_lock:
                    if not self._queue:
                        self._flushing = False
                        self._flush_done.notify_all()
                        return
                    batch = list(self._queue)
                    self._queue.clear()
                    codec = self.send_codec
                data = encode_batch(batch, codec)
                self.sock.sendall(data)
                if self._metrics is not None:
                    self._metrics.bytes.labels(
                        direction="out", codec=codec
                    ).inc(len(data))
                    self._metrics.messages.labels(
                        direction="out", codec=codec
                    ).inc(len(batch))
                    self._metrics.flushes.inc()
        except OSError as exc:
            with self._send_lock:
                self._flushing = False
                self._queue.clear()
                self._flush_done.notify_all()
            raise ConnectionClosed(f"send failed: {exc}") from exc

    def recv_envelopes(self) -> list[Envelope] | None:
        """Block for data; completed envelopes, or ``None`` on EOF/garbage.

        A peer that sends undecodable bytes is indistinguishable from a
        broken one: the connection is reported dead (``None``) and the
        caller drops it.  One bad peer must never take down the node.
        """
        try:
            chunk = self.sock.recv(_RECV_CHUNK)
        except OSError:
            return None
        if not chunk:
            return None
        try:
            frames = self.decoder.feed(chunk)
        except TransportError:
            return None
        if self._metrics is not None and frames:
            for _envelope, codec, size in frames:
                self._metrics.bytes.labels(direction="in", codec=codec).inc(
                    size
                )
                self._metrics.messages.labels(
                    direction="in", codec=codec
                ).inc()
        return [envelope for envelope, _codec, _size in frames]

    def close(self) -> None:
        with self._send_lock:
            self._closed = True  # no new sends; the flusher drains the rest
            self._flush_done.wait_for(
                lambda: not self._flushing, _CLOSE_FLUSH_TIMEOUT
            )
            self._queue.clear()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def _connect(
    host: str,
    port: int,
    timeout: float = 10.0,
    metrics: TransportMetrics | None = None,
) -> _Connection:
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return _Connection(sock, metrics=metrics)


class TcpBroker:
    """The broker as an asyncio TCP server (see module docstring).

    One event-loop thread owns every connection: acceptance, reads,
    coalesced writes, the periodic tick, and the federation peer dials.
    ``codec='binary'`` (the default) negotiates the compact binary wire
    codec with every peer that advertises it; ``codec='json'`` pins the
    debug fallback for the whole node.

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
        codec: str = "binary",
    ):
        self.config = config or BrokerConfig()
        self._offered = _offered_codecs(codec)
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

    def __enter__(self) -> "TcpBroker":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

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
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        connection = AioConnection(
            self._aio, reader, writer, metrics=self._transport_metrics
        )
        with self._connections_lock:
            self._accepted.add(connection)
        if self._transport_metrics is not None:
            self._transport_metrics.connections.inc()
        await connection.run_reader(self._on_envelope)
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
        while self._running.is_set():
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port), timeout=5.0
                )
            except (OSError, asyncio.TimeoutError):
                await asyncio.sleep(backoff * (1.0 + 0.5 * rng.random()))
                backoff = min(backoff * 2.0, 5.0)
                continue
            backoff = 0.2
            sock = writer.get_extra_info("socket")
            if sock is not None:
                try:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                except OSError:
                    pass
            connection = AioConnection(
                self._aio, reader, writer, metrics=self._transport_metrics
            )
            connection.peer_id = NodeId(peer_id)
            with self._connections_lock:
                self._accepted.add(connection)
                self._connections[NodeId(peer_id)] = connection
            if self._transport_metrics is not None:
                self._transport_metrics.connections.inc()
            hello = Hello(
                node_id=str(self.core.node_id),
                codecs=list(self._offered),
                role="broker",
            )
            peer_hello = PeerHello(
                broker_id=str(self.core.node_id),
                epoch=self.core.federation.epoch,
                reply_expected=True,
            )
            try:
                connection.send(
                    hello.envelope(self.core.node_id, NodeId(peer_id))
                )
                connection.send(
                    peer_hello.envelope(self.core.node_id, NodeId(peer_id))
                )
            except ConnectionClosed:
                pass  # the reader below observes the dead link and returns
            await connection.run_reader(self._on_envelope)
            self._drop_connection(connection)

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
            try:
                ack = body_of(envelope)
            except TransportError:
                return
            if ack.codec in self._offered and ack.codec in SUPPORTED_CODECS:
                connection.send_codec = ack.codec
            return
        if connection.peer_id is None:
            connection.peer_id = envelope.src
            with self._connections_lock:
                self._connections[envelope.src] = connection
        try:
            with self._core_lock:
                outbound = self.core.handle(envelope)
        except TransportError:
            return  # unknown message type: forward compatibility
        self._route(outbound)

    def _on_hello(
        self, connection: AioConnection, envelope: Envelope
    ) -> None:
        try:
            hello = body_of(envelope)
        except TransportError:
            return
        connection.peer_codecs = tuple(hello.codecs)
        if connection.peer_id is None:
            connection.peer_id = envelope.src
            with self._connections_lock:
                self._connections[envelope.src] = connection
        chosen = choose_codec(
            [codec for codec in hello.codecs if codec in self._offered]
        )
        ack = HelloAck(codec=chosen, codecs=list(self._offered))
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


class TcpProvider:
    """A provider process/thread executing Tasklets over TCP.

    The broker connection is supervised: if it drops while the provider
    is running, the connection loop reconnects with exponential backoff
    (plus jitter, so a provider fleet does not reconnect in lockstep) and
    re-registers using the benchmark score measured at ``start`` — the
    self-benchmark is not repeated on reconnect.  Every (re)connection
    opens with a transport ``hello`` so the binary codec is renegotiated
    per link; ``codec='json'`` pins the debug fallback.
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
        codec: str = "binary",
    ):
        self.node_id = NodeId(node_id or random_id("prov"))
        self.capacity = capacity
        self.device_class = device_class
        self.heartbeat_interval = heartbeat_interval
        self.price = price
        self.reconnect = reconnect
        self.reconnect_backoff = reconnect_backoff
        self.reconnect_backoff_max = reconnect_backoff_max
        self._offered = _offered_codecs(codec)
        if obs_port is not None and telemetry is None:
            telemetry = Telemetry()
        self.telemetry = telemetry
        self._metrics = ProviderMetrics(telemetry.registry) if telemetry else None
        self._transport_metrics = (
            TransportMetrics(telemetry.registry) if telemetry else None
        )
        self._tracer = telemetry.tracer if telemetry else None
        self._events = telemetry.events if telemetry else None
        self._score = benchmark_score  # measured once, cached for re-registration
        self._clock = WallClock()
        self._executor = TaskletExecutor(
            cache_size=program_cache_size,
            profile=profile_executions,
            metrics=self._metrics,
        )
        self._pool: ThreadPoolExecutor | None = None
        self._connection: _Connection | None = None
        self._running = threading.Event()
        self._stop_event = threading.Event()
        self._draining = threading.Event()
        self._active = 0
        self._active_lock = threading.Lock()
        #: Executions assigned but not yet terminal, and the subset the
        #: broker cancelled.  Both are touched from the reader thread and
        #: the executor threads, hence the shared lock; entries are purged
        #: when the matching execution finishes so neither set leaks.
        self._state_lock = threading.Lock()
        self._idle = threading.Condition(self._state_lock)
        self._inflight: set[str] = set()
        self._cancelled: set[str] = set()
        #: Bumped on every (re-)registration.  Any registration voids all
        #: executions assigned before it — the broker fails them on the
        #: flap-recovery path (or never knew them, after a restart) — so
        #: results computed under an older epoch are dropped, not sent:
        #: a restarted broker may have reused their execution ids.
        self._epoch = 0
        self._rng = random.Random(self.node_id)
        #: Brokers to try, in order; reconnects cycle through the list so
        #: a provider survives the death of its home broker (federation).
        if brokers:
            self._brokers = [tuple(address) for address in brokers]
        elif broker_host is not None and broker_port is not None:
            self._brokers = [(broker_host, broker_port)]
        else:
            raise ValueError("either broker_host/broker_port or brokers required")
        self._broker_index = 0
        self._broker = self._brokers[0]
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
        return self._running.is_set() and self._connection is not None

    def _health_document(self) -> dict:
        with self._active_lock:
            active = self._active
        with self._state_lock:
            inflight = len(self._inflight)
        connection = self._connection
        connected = self._is_connected()
        if not self._running.is_set():
            status = "unhealthy"
        elif not connected or self._draining.is_set():
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "role": "provider",
            "node": str(self.node_id),
            "connected": connected,
            "draining": self._draining.is_set(),
            "capacity": self.capacity,
            "active_slots": active,
            "inflight": inflight,
            "epoch": self._epoch,
            "benchmark_score": self._score,
            "codec": connection.send_codec if connection else None,
        }

    def start(self) -> "TcpProvider":
        if self._score is None:
            self._score = run_benchmark().score
        self._connection = _connect(
            *self._broker, metrics=self._transport_metrics
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.capacity, thread_name_prefix=f"{self.node_id}-exec"
        )
        self._running.set()
        self._stop_event.clear()
        self._draining.clear()
        self._handshake(self._connection)
        self._register()
        if self.obs is not None:
            self.obs.start()
        connection_thread = threading.Thread(
            target=self._connection_loop, name=f"{self.node_id}-conn", daemon=True
        )
        heart = threading.Thread(
            target=self._heartbeat_loop, name=f"{self.node_id}-heart", daemon=True
        )
        connection_thread.start()
        heart.start()
        return self

    def stop(self, drain: bool = False, drain_timeout: float = 30.0) -> None:
        """Disconnect from the broker and shut down.

        With ``drain=True`` the provider first stops accepting work
        (rejecting new assignments so the broker re-issues them
        elsewhere), waits up to ``drain_timeout`` for in-flight
        executions to finish and flush their results, and only then
        unregisters.  Without it, shutdown is immediate and the broker's
        flap/failure handling re-issues whatever was outstanding.
        """
        if not self._running.is_set():
            return
        if drain:
            self._draining.set()
            self._wait_drained(drain_timeout)
        self._running.clear()
        self._stop_event.set()  # wakes heartbeat + reconnect waits promptly
        try:
            self._send(
                Unregister(provider_id=self.node_id).envelope(
                    self.node_id, BROKER_ADDRESS
                )
            )
        except (ConnectionClosed, TransportError):
            pass
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        if self._connection is not None:
            self._connection.close()
        if self.obs is not None:
            self.obs.stop()

    def __enter__(self) -> "TcpProvider":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- internals ----------------------------------------------------------

    def _send(self, envelope: Envelope, stamp: Stamp | None = None) -> None:
        connection = self._connection
        if connection is None:
            raise TransportError("provider not connected")
        connection.send(envelope, stamp)

    def _handshake(self, connection: _Connection) -> None:
        """Open codec negotiation; the broker answers with a HelloAck."""
        hello = Hello(
            node_id=str(self.node_id),
            codecs=list(self._offered),
            role="provider",
        )
        connection.send(hello.envelope(self.node_id, BROKER_ADDRESS))

    def _register(self) -> None:
        self._epoch += 1
        register = RegisterProvider(
            provider_id=self.node_id,
            device_class=self.device_class,
            capacity=self.capacity,
            benchmark_score=self._score,
            price=self.price,
            heartbeat_interval=self.heartbeat_interval,
        )
        self._send(register.envelope(self.node_id, BROKER_ADDRESS))

    def _jittered(self, delay: float) -> float:
        return delay * (1.0 + 0.5 * self._rng.random())

    def _connection_loop(self) -> None:
        """Read from the broker; on EOF, reconnect with backoff."""
        connection = self._connection
        backoff = self.reconnect_backoff
        while self._running.is_set():
            if connection is not None:
                self._read_connection(connection)
                connection.close()
                if self._connection is connection:
                    self._connection = None
                connection = None
                if self._events is not None and self._running.is_set():
                    self._events.record(
                        ev.DISCONNECT,
                        node=str(self.node_id),
                        reason="broker link lost",
                        will_reconnect=self.reconnect,
                    )
            if not self._running.is_set() or not self.reconnect:
                return
            if self._stop_event.wait(self._jittered(backoff)):
                return
            backoff = min(backoff * 2.0, self.reconnect_backoff_max)
            candidate = None
            for offset in range(len(self._brokers)):
                index = (self._broker_index + offset) % len(self._brokers)
                try:
                    candidate = _connect(
                        *self._brokers[index],
                        timeout=5.0,
                        metrics=self._transport_metrics,
                    )
                except OSError:
                    continue
                if index != self._broker_index and self._events is not None:
                    host, port = self._brokers[index]
                    self._events.record(
                        ev.BROKER_FAILOVER,
                        node=str(self.node_id),
                        broker=f"{host}:{port}",
                    )
                self._broker_index = index
                self._broker = self._brokers[index]
                break
            if candidate is None:
                continue
            self._connection = candidate
            try:
                self._handshake(candidate)
                self._register()
            except (ConnectionClosed, TransportError):
                self._connection = None
                candidate.close()
                continue
            if self._transport_metrics is not None:
                self._transport_metrics.reconnects.inc()
            if self._events is not None:
                self._events.record(
                    ev.RECONNECT, node=str(self.node_id), epoch=self._epoch
                )
            connection = candidate
            backoff = self.reconnect_backoff

    def _read_connection(self, connection: _Connection) -> None:
        while self._running.is_set():
            envelopes = connection.recv_envelopes()
            if envelopes is None:
                return
            for envelope in envelopes:
                try:
                    body = body_of(envelope)
                except TransportError:
                    continue  # unknown message type: forward compatibility
                if not self._on_broker_message(body, envelope.trace, connection):
                    return

    def _on_broker_message(
        self,
        body,
        trace: dict[str, str] | None = None,
        connection: _Connection | None = None,
    ) -> bool:
        """Dispatch one decoded broker message; False = stop reading."""
        if isinstance(body, AssignExecution):
            self._on_assign(body, trace)
        elif isinstance(body, HeartbeatAck):
            if self._transport_metrics is not None:
                if body.echo_sent_at:
                    self._transport_metrics.heartbeat_rtt.observe(
                        max(0.0, time.monotonic() - body.echo_sent_at)
                    )
                else:
                    # An ack without the echo gives no RTT sample; count
                    # it so silent RTT gaps are visible, not just absent.
                    self._transport_metrics.heartbeats_unechoed.inc()
        elif isinstance(body, HelloAck):
            if (
                connection is not None
                and body.codec in self._offered
                and body.codec in SUPPORTED_CODECS
            ):
                connection.send_codec = body.codec
        elif isinstance(body, CancelExecution):
            with self._state_lock:
                # Only executions still in flight can be cancelled;
                # anything else (already finished, or assigned to a
                # previous incarnation) would leak in the set forever.
                if body.execution_id in self._inflight:
                    self._cancelled.add(body.execution_id)
        elif isinstance(body, RegisterAck):
            if not body.accepted and body.reason == REASON_UNKNOWN_PROVIDER:
                # The broker restarted and lost our registration: it
                # answers our heartbeat with this rejection to ask us
                # back.
                try:
                    self._register()
                except (ConnectionClosed, TransportError):
                    return False
        return True

    def _on_assign(
        self, request: AssignExecution, trace: dict[str, str] | None = None
    ) -> None:
        if self._running.is_set() and not self._draining.is_set():
            with self._state_lock:
                self._inflight.add(request.execution_id)
            try:
                self._pool.submit(self._execute, request, self._epoch, trace)
                return
            except RuntimeError:
                # stop() shut the pool between the check and the submit
                # (this runs on the reader thread, which outlives it).
                self._finish_execution(request.execution_id)
        if self._metrics is not None:
            self._metrics.rejected.inc()
        rejection = ExecutionRejected(
            execution_id=request.execution_id,
            tasklet_id=request.tasklet_id,
            provider_id=self.node_id,
            reason="provider draining",
        )
        try:
            self._send(rejection.envelope(self.node_id, BROKER_ADDRESS))
        except (ConnectionClosed, TransportError):
            pass

    def _heartbeat_loop(self) -> None:
        while not self._stop_event.wait(self.heartbeat_interval):
            with self._active_lock:
                active = self._active
                free = max(0, self.capacity - active)
            if self._metrics is not None:
                self._metrics.busy_slots.labels(provider=str(self.node_id)).set(
                    active
                )
            # A non-zero timestamp asks the broker for an ack (RTT
            # telemetry); without telemetry the flows stay ack-free.  The
            # placeholder is re-stamped *at flush time* by the hook below
            # — under write coalescing a heartbeat can sit behind a batch
            # for milliseconds, and enqueue-time stamps would bill that
            # wait as network RTT, poisoning the EWMA straggler watchdog.
            want_rtt = self._transport_metrics is not None
            heartbeat = Heartbeat(
                provider_id=self.node_id,
                free_slots=free,
                sent_at=time.monotonic() if want_rtt else 0.0,
            )
            try:
                self._send(
                    heartbeat.envelope(self.node_id, BROKER_ADDRESS),
                    stamp=_stamp_heartbeat if want_rtt else None,
                )
            except (ConnectionClosed, TransportError):
                continue  # disconnected; the connection loop is reconnecting

    def _finish_execution(self, execution_id: str) -> bool:
        """Purge bookkeeping for a terminal execution; True if cancelled."""
        with self._state_lock:
            cancelled = execution_id in self._cancelled
            self._cancelled.discard(execution_id)
            self._inflight.discard(execution_id)
            if not self._inflight:
                self._idle.notify_all()
        return cancelled

    def _wait_drained(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        with self._state_lock:
            while self._inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def _execute(
        self,
        request: AssignExecution,
        epoch: int,
        trace: dict[str, str] | None = None,
    ) -> None:
        with self._state_lock:
            if request.execution_id in self._cancelled:
                self._cancelled.discard(request.execution_id)
                self._inflight.discard(request.execution_id)
                if not self._inflight:
                    self._idle.notify_all()
                return
        with self._active_lock:
            self._active += 1
        started = self._clock.now()
        try:
            outcome = self._executor.execute(request)
        finally:
            with self._active_lock:
                self._active -= 1
        finished = self._clock.now()
        if self._metrics is not None:
            self._metrics.executions.labels(status=outcome.status.value).inc()
            self._metrics.execution_seconds.observe(finished - started)
        if self._tracer is not None:
            parent = TraceContext.from_dict(trace)
            if parent is not None:
                self._tracer.record(
                    name="provider.execute",
                    context=self._tracer.child(parent),
                    node=str(self.node_id),
                    start=started,
                    end=finished,
                    parent_id=parent.span_id,
                    status="ok" if outcome.ok else outcome.status.value,
                    attrs={
                        "execution_id": str(request.execution_id),
                        "instructions": outcome.instructions,
                    },
                )
        with self._state_lock:
            cancelled = request.execution_id in self._cancelled
        # Send before purging bookkeeping: a draining stop() waits on
        # ``_inflight`` emptying, and its unregister must not be able to
        # overtake this result on the wire (the shared FIFO send queue
        # preserves the order even when another thread is flushing).
        if not cancelled and epoch == self._epoch:
            result = ExecutionResult(
                execution_id=request.execution_id,
                tasklet_id=request.tasklet_id,
                provider_id=self.node_id,
                status=outcome.status.value,
                value=outcome.value,
                error=outcome.error,
                instructions=outcome.instructions,
                started_at=started,
                finished_at=finished,
            )
            try:
                self._send(result.envelope(self.node_id, BROKER_ADDRESS))
            except (ConnectionClosed, TransportError):
                pass  # broker gone; re-registration will fail this execution
        self._finish_execution(request.execution_id)


def _stamp_heartbeat(envelope: Envelope) -> None:
    """Flush-time hook: the RTT clock starts when the bytes leave."""
    envelope.payload["sent_at"] = time.monotonic()


class TcpConsumer:
    """Consumer session over TCP; plug into :class:`TaskletLibrary`.

    If the broker connection drops, every pending future is failed with
    :class:`~repro.common.errors.BrokerUnreachable` (typed, immediate — no
    caller is left hanging until its timeout) and the optional
    ``on_disconnect`` hook is invoked with a human-readable reason.

    Every connection opens with a transport ``hello`` negotiating the
    binary wire codec (``codec='json'`` pins the debug fallback); batch
    submissions are flushed as one coalesced socket write.

    Federation: pass ``brokers=[(host, port), ...]`` instead of a single
    address and the consumer fails over automatically — when the link
    dies it cycles the list with capped exponential backoff plus jitter,
    reconnects to the first broker that answers, and fires a
    ``broker_failover`` event.  Pending futures are still failed on the
    drop (resubmitting with the same tasklet ids is idempotent); once the
    attempt cap is exhausted a typed
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
        codec: str = "binary",
    ):
        self.node_id = NodeId(node_id or random_id("cons"))
        self._clock = WallClock()
        self.telemetry = telemetry
        self._transport_metrics = (
            TransportMetrics(telemetry.registry) if telemetry else None
        )
        self._events = telemetry.events if telemetry else None
        self._offered = _offered_codecs(codec)
        self.core = ConsumerCore(
            node_id=self.node_id, clock=self._clock, telemetry=telemetry
        )
        self.library = TaskletLibrary(session=self, base_seed=base_seed)
        self.on_disconnect = on_disconnect
        #: Auto-failover is enabled only by the ``brokers`` list; the
        #: single-address form keeps the explicit-``reconnect()`` contract.
        self._failover_enabled = brokers is not None
        if brokers:
            self._brokers = [tuple(address) for address in brokers]
        elif broker_host is not None and broker_port is not None:
            self._brokers = [(broker_host, broker_port)]
        else:
            raise ValueError("either broker_host/broker_port or brokers required")
        self._broker = self._brokers[0]
        self.failover_backoff = failover_backoff
        self.failover_backoff_max = failover_backoff_max
        self.max_failover_attempts = max_failover_attempts
        self._exhausted: FederationExhausted | None = None
        self._rng = random.Random(self.node_id)
        self._connection: _Connection | None = None
        self._reader: threading.Thread | None = None
        self._running = threading.Event()
        self._disconnected = threading.Event()

    def start(self) -> "TcpConsumer":
        # _running first: _connect_any uses it as its abort signal.
        self._running.set()
        if self._failover_enabled:
            self._connection = self._connect_any()
        else:
            self._connection = _connect(
                *self._broker, metrics=self._transport_metrics
            )
        self._handshake(self._connection)
        self._start_reader(self._connection)
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
        old_connection = self._connection
        old_reader = self._reader
        if old_connection is not None:
            old_connection.close()
        if old_reader is not None and old_reader is not threading.current_thread():
            old_reader.join(timeout=5.0)
        self._connection = _connect(
            *self._broker, metrics=self._transport_metrics
        )
        self._disconnected.clear()
        self._running.set()
        self._handshake(self._connection)
        self._start_reader(self._connection)
        return self

    def _handshake(self, connection: _Connection) -> None:
        hello = Hello(
            node_id=str(self.node_id),
            codecs=list(self._offered),
            role="consumer",
        )
        try:
            connection.send(hello.envelope(self.node_id, BROKER_ADDRESS))
        except ConnectionClosed:
            pass  # the reader loop observes the dead link and recovers

    def _start_reader(self, connection: _Connection) -> None:
        self._reader = threading.Thread(
            target=self._reader_loop,
            args=(connection,),
            name=f"{self.node_id}-reader",
            daemon=True,
        )
        self._reader.start()

    def stop(self) -> None:
        was_running = self._running.is_set()
        self._running.clear()
        if self._connection is not None:
            self._connection.close()
        if was_running:
            # Nothing can resolve once the connection is gone; anyone
            # still waiting gets a typed error instead of a hang.
            self.core.fail_all_pending("consumer stopped")

    def __enter__(self) -> "TcpConsumer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- Session protocol ----------------------------------------------------

    def submit_tasklet(self, tasklet: Tasklet) -> TaskletFuture:
        self._check_ready()
        future, envelopes = self.core.submit(tasklet)
        self._send_submission(envelopes)
        return future

    def submit_batch(self, tasklets: Sequence[Tasklet]) -> list[TaskletFuture]:
        """Submit many Tasklets under one core lock acquisition.

        The whole batch is encoded and flushed as one coalesced socket
        write — at high submission rates this is the difference between
        one syscall and hundreds.
        """
        self._check_ready()
        futures, envelopes = self.core.submit_many(tasklets)
        self._send_submission(envelopes)
        return futures

    def submit_workflow(self, spec: "WorkflowSpec") -> "WorkflowHandle":
        """Submit a whole DAG in one message; the broker owns the graph."""
        self._check_ready()
        handle, envelopes = self.core.submit_workflow(spec)
        self._send_submission(envelopes)
        return handle

    def _check_ready(self) -> None:
        if self._exhausted is not None:
            raise self._exhausted
        if self._connection is None:
            raise TransportError("consumer not started")

    def _send_submission(self, envelopes: Sequence[Envelope]) -> None:
        if self._disconnected.is_set():
            # The reader already saw EOF. A send() here could still
            # "succeed" (TCP buffers one write after a peer close), so
            # don't trust it — fail the futures typed right away.
            self.core.fail_all_pending("connection to broker lost")
            return
        try:
            self._connection.send_many(
                [(envelope, None) for envelope in envelopes]
            )
        except ConnectionClosed as exc:
            # The submission never left this host; the futures (and any
            # other pending ones — the connection is dead for all of
            # them) resolve with a typed error rather than hanging.
            self.core.fail_all_pending(f"send failed: {exc}")

    def now(self) -> float:
        return self._clock.now()

    # -- internals ----------------------------------------------------------

    def _reader_loop(self, connection: _Connection) -> None:
        while self._running.is_set():
            envelopes = connection.recv_envelopes()
            if envelopes is None:
                break
            for envelope in envelopes:
                if envelope.type == HelloAck.TYPE:
                    try:
                        ack = body_of(envelope)
                    except TransportError:
                        continue
                    if (
                        ack.codec in self._offered
                        and ack.codec in SUPPORTED_CODECS
                    ):
                        connection.send_codec = ack.codec
                    continue
                try:
                    self.core.handle(envelope)
                except TransportError:
                    continue  # unknown message type: forward compatibility
        if not self._running.is_set():
            return  # deliberate stop(); it fails pending futures itself
        if self._connection is not connection:
            # reconnect() superseded this link while we were blocked on
            # the dying socket; the new reader owns the futures now.
            return
        # Flag first, then snapshot-and-fail: a submit racing this either
        # sees the flag (fails itself) or registered in time to be caught
        # by the snapshot below. No window where a future can slip through.
        self._disconnected.set()
        connection.close()
        self.core.fail_all_pending("connection to broker lost")
        hook = self.on_disconnect
        if hook is not None:
            hook("connection to broker lost")
        if self._failover_enabled and self._running.is_set():
            self._try_failover()

    def _connect_any(self) -> _Connection:
        """Connect to the first answering broker in the list.

        Cycles the whole list per round with capped exponential backoff
        plus jitter between rounds; gives up with a typed
        :class:`FederationExhausted` once ``max_failover_attempts``
        connection attempts have failed.
        """
        attempts = 0
        backoff = self.failover_backoff
        while self._running.is_set():
            for host, port in self._brokers:
                attempts += 1
                try:
                    connection = _connect(
                        host, port, timeout=5.0,
                        metrics=self._transport_metrics,
                    )
                except OSError:
                    continue
                self._broker = (host, port)
                return connection
            if attempts >= self.max_failover_attempts:
                break
            time.sleep(backoff * (1.0 + 0.5 * self._rng.random()))
            backoff = min(backoff * 2.0, self.failover_backoff_max)
        raise FederationExhausted(
            f"no broker reachable after {attempts} attempts",
            brokers=[f"{host}:{port}" for host, port in self._brokers],
            attempts=attempts,
        )

    def _try_failover(self) -> None:
        """Runs in the dying reader thread: find a live broker or give up."""
        try:
            connection = self._connect_any()
        except FederationExhausted as exc:
            self._exhausted = exc
            if self._events is not None:
                self._events.record(
                    ev.FEDERATION_EXHAUSTED,
                    node=str(self.node_id),
                    brokers=exc.brokers,
                    attempts=exc.attempts,
                )
            return
        self._connection = connection
        self._disconnected.clear()
        self._handshake(connection)
        if self._events is not None:
            host, port = self._broker
            self._events.record(
                ev.BROKER_FAILOVER,
                node=str(self.node_id),
                broker=f"{host}:{port}",
            )
        self._start_reader(connection)


def _provider_process_main(
    broker_host: str,
    port: int,
    capacity: int,
    device_class: str,
    node_id: str,
    benchmark_score: float | None,
    stop_event,
) -> None:
    provider = TcpProvider(
        broker_host,
        port,
        capacity=capacity,
        device_class=device_class,
        node_id=node_id,
        benchmark_score=benchmark_score,
    )
    provider.start()
    stop_event.wait()
    provider.stop()


class ProviderProcess:
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
            args=(
                broker_host,
                broker_port,
                capacity,
                device_class,
                self.node_id,
                benchmark_score,
                self._stop_event,
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

    def __enter__(self) -> "ProviderProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


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
