"""Real TCP deployment of the Tasklet middleware: the client side.

The same sans-IO cores used by the simulator run here behind real
sockets:

* :class:`TcpProvider` — runs what its :class:`~repro.provider.core.ProviderCore`
  accepts (known-cheap work on its link thread, the rest on a pool), heartbeats;
* :class:`TcpConsumer` — a :class:`~repro.consumer.library.Session` over a
  broker connection, so ``TaskletLibrary`` works unchanged.

(:class:`TcpBroker`, importable from here, is the asyncio driver of
:mod:`repro.transport.aio`; a provider in its own OS process is
:mod:`repro.provider.process`.  DESIGN.md, "Who runs what", says which
thread runs which part of each node.)

Provider and consumer are thin clients of the broker with one link
each, so they share one client-side mechanism, :class:`_BrokerLink`: a
blocking socket written under a mutex (:class:`_Connection`), a reader
thread, the broker list, the redial backoff and one explicit state.
What differs by role — what to say on connect; redial forever, up to a
cap, or never — the role passes in.

Frames are :mod:`repro.transport.codec`'s; what a lost link means for
each role — a consumer's futures fail typed, a provider redials and
re-registers, a draining stop cannot lose a result — is
docs/PROTOCOL.md, "Connection lifecycle".
"""

from __future__ import annotations

import random
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from ..common.clock import WallClock
from ..common.errors import (
    CodecError,
    ConnectionClosed,
    FederationExhausted,
    TransportError,
)
from ..common.ids import NodeId, random_id
from ..consumer.core import ConsumerCore
from ..consumer.session import CoreSession
from ..obs import events as ev
from ..obs.server import ObsServer
from ..obs.telemetry import Telemetry, TransportMetrics
from ..provider.benchmark import run_benchmark
from ..provider.core import ProviderConfig, ProviderCore, Work
from ..provider.executor import PROGRAM_CACHE_SIZE
from .aio import TcpBroker, _jittered, _Node  # noqa: F401  (TcpBroker: re-exported)
from .codec import (
    CODEC_BINARY,
    EnvelopeDecoder,
    Stamp,
    count_sent,
    decode_chunk,
    encode_batch,
)
from .message import Envelope, HeartbeatAck

_RECV_CHUNK = 65536


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
    bytes and envelope counts are reported per direction.
    """

    def __init__(
        self, sock: socket.socket, metrics: TransportMetrics | None = None
    ):
        self.sock = sock
        self.decoder = EnvelopeDecoder()
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
            data = encode_batch(entries, CODEC_BINARY)
            try:
                self.sock.sendall(data)
            except OSError as exc:
                raise ConnectionClosed(f"send failed: {exc}") from exc
        count_sent(self._metrics, len(data), len(entries))

    def recv_envelopes(self) -> list[Envelope] | None:
        """Block for data; completed envelopes, or ``None`` once the
        stream is dead (EOF or socket error).  Undecodable bytes raise
        :class:`~repro.common.errors.CodecError`."""
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


class _BrokerLink:
    """A client's one supervised link to its broker.

    Owns what a provider and a consumer both need: the socket and its
    reader thread, the broker list and the index of the last good broker,
    capped exponential backoff with jitter, and one explicit ``state`` —
    ``CONNECTING`` (``start`` is dialing on its caller's thread) → ``UP``
    → ``DOWN`` (the stream died; the link thread backs off and redials) →
    ``UP`` …, until ``EXHAUSTED`` (redial cap spent; the typed error is
    kept in ``exhausted``) or ``CLOSED``.

    ``max_attempts`` is the redial policy: ``None`` retries forever, ``0``
    never redials (the owner calls ``start`` again), ``n`` gives up with
    :class:`FederationExhausted` after ``n`` failed dials.  ``start``
    applies the same cap, but tries the list at least once and never
    waits unboundedly.

    ``on_connect(redial)`` returns the envelopes that open a new stream
    (a provider's registration); it runs under the link lock, so it must
    not call back into the link.  ``on_envelope`` sees every inbound
    envelope; ``on_lost(reason)`` runs when an ``UP`` link dies other
    than by ``close``.
    """

    CLOSED, CONNECTING, UP, DOWN, EXHAUSTED = (
        "closed", "connecting", "up", "down", "exhausted"
    )

    def __init__(
        self,
        node_id: NodeId,
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
                        self._on_envelope(envelope)
            except CodecError as exc:
                reason = f"refused: {exc}"  # not bin2 frames: end the stream
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
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # frames are small: no Nagle
        connection = _Connection(sock, self.metrics)
        # Greet and publish in one step under the link lock: no other
        # sender reaches the new stream before the owner's envelopes, and
        # nothing is written once close() was called.
        with self._lock:
            if self._generation != generation:
                connection.close()
                return None
            greeting = self._on_connect(redial)
            try:
                if greeting:
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
    also drives; this driver adds the link, the thread pool, wall-clock
    stamps, the heartbeat thread and the one wait for a drain.

    The broker link is supervised (:class:`_BrokerLink`): a dropped link
    redials and re-registers with the benchmark score measured at
    ``start`` (docs/PROTOCOL.md, "Provider reconnect").
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
        if work is not None and self.core.executor.known_cheap(work.request.program_fingerprint):
            self._execute(work)  # cheaper here than handed off (DESIGN.md, "Provider internals")
        elif work is not None:
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
            # With telemetry on, ``sent_at`` is stamped just before the bytes
            # leave and asks the broker for an RTT ack; a stamp taken here
            # would bill a wait for the send lock as network RTT.
            want_rtt = self._transport_metrics is not None
            self._send(
                core.heartbeat(free_slots), _stamp_heartbeat if want_rtt else None
            )

    def _execute(self, work: Work) -> None:
        """Run one accepted execution, wall-clock stamped (link or pool thread)."""
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

    A submission, one tasklet or a whole ``library.map``, is one socket
    write.

    Federation: pass ``brokers=[(host, port), ...]`` instead of a single
    address and the consumer fails over automatically (the link cycles
    the list; docs/PROTOCOL.md, "Client failover").  Pending futures
    are still failed on the drop (resubmitting with the same tasklet ids
    is idempotent); once the attempt cap is exhausted a typed
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
        ids is idempotent — in-flight work completes to the resubmitter,
        and a journal-backed broker re-delivers completed outcomes instead
        of re-executing them.
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
