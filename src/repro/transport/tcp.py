"""Real TCP deployment of the Tasklet middleware: the client side.

The sans-IO cores the simulator drives run here behind real sockets:
:class:`TcpProvider` runs what its ``ProviderCore`` accepts (known-cheap
work on its loop, the rest on a pool) and heartbeats; :class:`TcpConsumer`
is a ``Session`` over a broker link, so ``TaskletLibrary`` works unchanged.
(:class:`TcpBroker`, importable from here, lives in :mod:`.aio`.)

Each speaks as the broker does: one loop on a thread it owns
(``<id>-link``), one ``AioConnection``, opened by ``aio.dial``.  They
share :class:`_Client` — the broker list, the redial policy and one
``state`` the loop owns — and differ in what they say on connect and how
they redial.  Other threads hop onto the loop (DESIGN.md, "Who runs
what"); what a lost link means for each is docs/PROTOCOL.md, "Connection
lifecycle".
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from ..common.clock import WallClock
from ..common.errors import CodecError, FederationExhausted, TransportError
from ..common.ids import NodeId, random_id
from ..consumer.core import ConsumerCore
from ..consumer.session import CoreSession
from ..obs import events as ev
from ..obs.server import ObsServer
from ..obs.telemetry import Telemetry, TransportMetrics
from ..provider.benchmark import run_benchmark
from ..provider.core import ProviderConfig, ProviderCore, Work
from . import aio
from .aio import AioConnection, TcpBroker, _Node  # noqa: F401  (TcpBroker: re-exported)
from .codec import CODEC_BINARY, encode_batch
from .message import Envelope, HeartbeatAck

#: A consumer given a broker list fails over with a lower backoff cap,
#: and gives up after this many failed dials.
FAILOVER_BACKOFF_MAX_S = 2.0
MAX_FAILOVER_ATTEMPTS = 12


class _Client(_Node):
    """A node with one link to a broker, driven from its own loop.

    ``state`` is the link's one fact, changed on the loop only: ``closed``
    → ``down`` (dialing) → ``up`` → ``down`` (lost: redialing) → ``up`` …,
    until ``exhausted`` (the redial cap is spent; the typed error is kept
    in ``exhausted``) or ``closed``.  ``max_attempts`` is the redial
    policy: ``None`` redials forever, ``0`` never (the owner calls
    ``start`` again), ``n`` gives up after ``n`` failed dials.  ``start``
    applies the same cap, but tries the list at least once.

    A role supplies ``_greeting(redial)`` (what opens a new stream),
    ``_on_envelope`` and ``_on_lost(reason)`` — all run on the loop.
    What a client sends is encoded on the thread that made it (with
    :func:`encode_batch`, looked up per call), so an envelope that does
    not encode fails its sender alone and the link stays up.
    """

    CLOSED, DOWN, UP, EXHAUSTED = "closed", "down", "up", "exhausted"

    def __init__(self, node_id, brokers, broker_host, broker_port, telemetry, max_attempts,
                 backoff_max):
        if brokers:
            self._brokers = [tuple(address) for address in brokers]
        elif broker_host is not None and broker_port is not None:
            self._brokers = [(broker_host, broker_port)]
        else:
            raise ValueError("either broker_host/broker_port or brokers required")
        self.node_id, self.telemetry = node_id, telemetry
        self._index = 0  # the last good broker; dial rounds start here
        self._rng = random.Random(node_id)
        self._max_attempts = max_attempts
        self._backoff_max = backoff_max
        self._metrics = TransportMetrics(telemetry.registry) if telemetry else None
        self._events = telemetry.events if telemetry else None
        self._connection: AioConnection | None = None  # set only while up
        self._redialing: asyncio.Task | None = None
        self._connecting: asyncio.Task | None = None  # a dial started on the loop itself
        self.state = self.CLOSED
        self.exhausted: FederationExhausted | None = None

    @property
    def connected(self) -> bool:
        """Whether the broker link is up right now."""
        return self.state == self.UP

    def _greeting(self, redial: bool) -> Sequence[Envelope]:
        return ()

    # -- the caller's thread --------------------------------------------------

    def _open_link(self) -> None:
        """(Re)open the link from scratch, starting the loop if needed.
        Raises as the dial does, and then leaves nothing running.

        On the node's own loop — ``reconnect()`` inside ``on_disconnect``
        or a future's callback — the dial cannot be waited for: it runs
        next, and what is submitted meanwhile waits for it."""
        if self._loop is None:
            self._start_loop(f"{self.node_id}-link")
        if threading.current_thread() is self._thread:
            self._connecting = self._loop.create_task(self._reconnect())
            return
        try:
            self._await(self._connect())
        except BaseException:
            self._close_link()
            raise

    def _close_link(self, *last: Envelope) -> None:
        """Say ``last``, close the link gracefully and stop the loop;
        prompt in every state, idempotent."""
        if self._loop is not None:
            self._halt_loop(lambda: self._close(last))
        self.state = self.CLOSED

    # -- the loop ---------------------------------------------------------------

    async def _connect(self) -> None:
        await self._close(())
        self.state, self.exhausted = self.DOWN, None
        await self._dial(redial=False)

    async def _reconnect(self) -> None:
        """``_connect`` with nobody waiting for it: a failed dial leaves
        the link down (exhausted, under a cap) and goes to the loop's
        exception handler."""
        try:
            await self._connect()
        except (OSError, FederationExhausted) as exc:
            if isinstance(exc, FederationExhausted):
                self.state, self.exhausted = self.EXHAUSTED, exc
            asyncio.get_running_loop().call_exception_handler(
                {"message": f"{self.node_id}: reconnect failed: {exc}", "exception": exc}
            )

    async def _dial(self, redial: bool) -> None:
        capped = self._max_attempts
        try:
            await aio.dial(
                self._brokers,
                lambda index: self._adopt(index, redial),
                self._rng,
                first=self._index,
                wait=redial,
                cap=capped if redial else (capped or 1),
                typed=bool(capped),
                backoff_max=self._backoff_max,
            )
        except FederationExhausted as exhausted:
            if not redial:
                raise
            self.state, self.exhausted = self.EXHAUSTED, exhausted
            if self._events is not None:
                self._events.record(
                    ev.FEDERATION_EXHAUSTED,
                    node=str(self.node_id),
                    brokers=exhausted.brokers,
                    attempts=exhausted.attempts,
                )

    def _adopt(self, index: int, redial: bool) -> AioConnection:
        """The dial's factory: the new stream's protocol, its greeting
        queued first, and the link up on it."""
        connection = AioConnection(self._on_envelope, self._lost, self._metrics)
        greeting = self._greeting(redial)
        connection.send_encoded(encode_batch(greeting, CODEC_BINARY), len(greeting))
        if redial and index != self._index and self._events is not None:
            host, port = self._brokers[index]
            self._events.record(
                ev.BROKER_FAILOVER, node=str(self.node_id), broker=f"{host}:{port}"
            )
        self._index, self._connection, self.state = index, connection, self.UP
        return connection

    def _write(self, envelopes: Sequence[Envelope]) -> bool:
        """Queue ``envelopes`` on the link, encoded here; False if it is not up."""
        return self._write_frames(encode_batch(envelopes, CODEC_BINARY), len(envelopes))

    def _write_frames(self, frames: bytes, count: int, now: bool = False) -> bool:
        """Queue ``count`` envelopes that the thread which made them encoded
        into ``frames`` (``now``: and write them); False if the link is not up."""
        connection = self._connection
        if connection is None or connection.closed:
            return False
        if count:
            connection.send_encoded(frames, count, now)
        return True

    def _lost(self, connection: AioConnection, cause: Exception | None) -> None:
        """The link's ``on_lost``: report why, and redial by the policy."""
        if connection is not self._connection:
            return  # closed on purpose
        self._connection, self.state = None, self.DOWN
        if isinstance(cause, CodecError):
            reason = f"refused: {cause}"  # not bin2 frames: the stream ended
        elif cause is not None:
            # Nothing a peer sends raises out of ``_on_envelope`` (the cores
            # report an unreadable envelope): a defect in the handler, and
            # the link's loss like any other — never a deaf link left up.
            reason = f"handler fault: {type(cause).__name__}: {cause}"
        else:
            reason = "connection to broker lost"
        self._on_lost(reason)
        if self._max_attempts != 0:
            self._redialing = asyncio.get_running_loop().create_task(self._dial(redial=True))

    async def _close(self, last: Sequence[Envelope]) -> None:
        """Stop dialing and close the link gracefully, ``last`` said first,
        and let the transport write what the close handed it."""
        self.state = self.CLOSED
        for dialing in (self._redialing, self._connecting):
            if dialing is not None and dialing is not asyncio.current_task():
                dialing.cancel()
        if self._write(last):  # (up, and ``last`` queued)
            connection, self._connection = self._connection, None
            connection.close()
            await asyncio.wait([connection.lost], timeout=2.0)
        self._connection = None


class TcpProvider(_Client):
    """A provider executing Tasklets over TCP.  The protocol is ``core``,
    the :class:`ProviderCore` the simulator also drives; this driver adds
    the link, the thread pool, wall-clock stamps, the heartbeat timer and
    the one wait for a drain.  The link redials forever (``reconnect=False``:
    never) and re-registers with the benchmark score measured at ``start``
    (docs/PROTOCOL.md, "Provider reconnect").
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
        telemetry: Telemetry | None = None,
        obs_port: int | None = None,
        obs_host: str = "127.0.0.1",
        brokers: list[tuple[str, int]] | None = None,
    ):
        if obs_port is not None and telemetry is None:
            telemetry = Telemetry()
        #: ``brokers`` are tried in order and redials cycle through them,
        #: so a provider survives the death of its home broker (federation).
        super().__init__(
            NodeId(node_id or random_id("prov")), brokers, broker_host, broker_port,
            telemetry, max_attempts=None if reconnect else 0,
            backoff_max=aio.RECONNECT_BACKOFF_MAX_S,
        )
        self.reconnect = reconnect
        # ``benchmark_score`` is measured once at ``start`` when not given,
        # then cached for every re-registration.
        config = ProviderConfig(
            device_class=device_class, capacity=capacity, benchmark_score=benchmark_score,
            price=price, heartbeat_interval=heartbeat_interval,
        )
        self.core = ProviderCore(self.node_id, WallClock(), config, telemetry=telemetry)
        self._pool: ThreadPoolExecutor | None = None
        self.obs = ObsServer(
            telemetry, host=obs_host, port=obs_port, node=str(self.node_id), role="provider",
            health=self._health_document, ready=self._is_connected,
        ) if obs_port is not None else None

    def _is_connected(self) -> bool:
        return self.core.state != ProviderCore.STOPPED and self.connected

    def _health_document(self) -> dict:
        core = self.core
        with core.lock:
            state, active, inflight, epoch = core.state, core.active, len(core.inflight), core.epoch
        connected = self._is_connected()
        if state == core.STOPPED:
            status = "unhealthy"
        elif not connected or state == core.DRAINING:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status, "role": "provider", "node": str(self.node_id),
            "connected": connected, "draining": state == core.DRAINING,
            "capacity": core.config.capacity, "active_slots": active, "inflight": inflight,
            "epoch": epoch, "benchmark_score": core.config.benchmark_score,
        }

    def start(self) -> "TcpProvider":
        config = self.core.config
        if config.benchmark_score is None:
            config.benchmark_score = run_benchmark().score
        # Pool and state first: an assignment can follow the registration
        # on the loop before ``_open_link`` has even returned.
        self._pool = ThreadPoolExecutor(
            max_workers=config.capacity, thread_name_prefix=f"{self.node_id}-exec"
        )
        self.core.start()
        try:
            self._open_link()
        except BaseException:
            self.core.stop()
            self._pool.shutdown(wait=False)
            raise
        if self.obs is not None:
            self.obs.start()
        self._hop(self._loop.call_later, config.heartbeat_interval, self._heartbeat)
        return self

    def stop(self, drain: bool = False, drain_timeout: float = 30.0) -> None:
        """Disconnect from the broker and shut down.  With ``drain=True``
        the provider first refuses new work (the broker re-issues it),
        waits up to ``drain_timeout`` for what is in flight to finish and
        queue its results, and only then unregisters — on the same loop, so
        after those results.  Without it, the broker's flap/failure
        handling re-issues whatever was outstanding."""
        core = self.core
        with core.lock:
            running = core.state != core.STOPPED
            if running and drain:
                core.drain()
                core.lock.wait_for(lambda: not core.inflight, drain_timeout)
            core.stop()
        if running:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._close_link(core.unregister())
            if self.obs is not None:
                self.obs.stop()
        else:
            self._close_link()  # a core stopped by hand may have left its link up

    # -- the loop ---------------------------------------------------------------

    def _greeting(self, redial: bool) -> list[Envelope]:
        registration = self.core.registration()
        if redial:
            if self._metrics is not None:
                self._metrics.reconnects.inc()
            if self._events is not None:
                self._events.record(ev.RECONNECT, node=str(self.node_id), epoch=self.core.epoch)
        return [registration]

    def _on_lost(self, reason: str) -> None:
        if self._events is not None and self.core.state != ProviderCore.STOPPED:
            self._events.record(
                ev.DISCONNECT, node=str(self.node_id), reason=reason, will_reconnect=self.reconnect
            )

    def _on_envelope(self, connection: AioConnection, envelope: Envelope) -> None:
        """Hand one broker message to the core."""
        if envelope.type == HeartbeatAck.TYPE:
            ack = self.core.read(envelope)
            if ack is not None:
                self._on_heartbeat_ack(ack)
            return
        replies, work = self.core.handle(envelope)
        if work is not None and self.core.executor.known_cheap(work.request.program_fingerprint):
            # Cheaper here than handed off (DESIGN.md, "Provider internals");
            # its result leaves now, not behind the next run in this read.
            self._report(work, self._execute(work), now=True)
        elif work is not None:
            try:
                self._pool.submit(self._execute_pooled, work)
            except RuntimeError:
                # stop() shut the pool between the core's admission check
                # and the submit (the loop outlives it).
                replies = [self.core.reject(work, "provider draining")]
        self._write(replies)

    def _on_heartbeat_ack(self, ack: HeartbeatAck) -> None:
        if self._metrics is None:
            return
        if ack.echo_sent_at:
            self._metrics.heartbeat_rtt.observe(max(0.0, time.monotonic() - ack.echo_sent_at))
        else:
            # An ack without the echo gives no RTT sample; count it so
            # silent RTT gaps are visible, not just absent.
            self._metrics.heartbeats_unechoed.inc()

    def _heartbeat(self) -> None:
        """The heartbeat timer: one now, the next an interval later."""
        core = self.core
        if core.state == core.STOPPED:
            return
        self._loop.call_later(core.config.heartbeat_interval, self._heartbeat)
        heartbeat = core.heartbeat(core.config.capacity - core.active)
        if self._metrics is not None:
            # Asks the broker for an RTT ack.  Stamped on the loop as it is
            # queued, just before its flush: no other sender to wait behind.
            heartbeat.body.sent_at = time.monotonic()
        self._write([heartbeat])

    def _report(self, work: Work, result: bytes | None, now: bool = False) -> None:
        """Send ``work``'s encoded result, then purge it.  In that order: a
        draining stop() waits on ``inflight`` emptying, and its unregister,
        queued on this loop after, cannot overtake the result."""
        if result is not None:
            self._write_frames(result, 1, now)
        self.core.finish(work)

    def _execute(self, work: Work) -> bytes | None:
        """Run one accepted execution, wall-clock stamped (loop or pool
        thread): its result, encoded — or None if the broker no longer
        wants one, or it does not encode (over the frame cap): then it is
        not sent, as a failed send never was; the link stays up, and the
        broker's execution timeout re-issues the work."""
        core = self.core
        started = core.clock.now()
        outcome = core.run(work)
        if outcome is None:
            return None
        result = core.report(work, outcome, started, core.clock.now())
        try:
            return encode_batch([result], CODEC_BINARY)
        except CodecError:
            return None

    def _execute_pooled(self, work: Work) -> None:
        """A pool thread's run: the result goes back in one hop."""
        result = self._execute(work)
        if not self._hop(self._report, work, result):
            self.core.finish(work)  # stopped: the result has nowhere to go


class TcpConsumer(CoreSession, _Client):
    """Consumer session over TCP; ``.library`` is its :class:`TaskletLibrary`.

    When the link drops, every pending future fails at once with
    :class:`~repro.common.errors.BrokerUnreachable` and ``on_disconnect``
    (if given) is called on the consumer's loop with the reason (it may
    ``stop()`` or ``reconnect()`` the consumer).  A submission, one tasklet
    or a whole ``library.map``, is encoded on the caller's thread, then one
    hop onto the loop and one socket write.  Given ``brokers=[(host,
    port), ...]`` the consumer fails over by itself (docs/PROTOCOL.md,
    "Client failover"); once the attempt cap is spent, a typed
    ``FederationExhausted`` (a ``BrokerUnreachable``) names every broker
    tried.
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
    ):
        _Client.__init__(
            self, NodeId(node_id or random_id("cons")), brokers, broker_host,
            broker_port, telemetry,
            # Auto-failover is enabled only by the ``brokers`` list; the
            # single-address form keeps the explicit-``reconnect()`` contract.
            max_attempts=MAX_FAILOVER_ATTEMPTS if brokers is not None else 0,
            backoff_max=FAILOVER_BACKOFF_MAX_S,
        )
        core = ConsumerCore(node_id=self.node_id, clock=WallClock(), telemetry=telemetry)
        CoreSession.__init__(self, core, base_seed)
        self.on_disconnect = on_disconnect

    def start(self) -> "TcpConsumer":
        self._open_link()
        return self

    def reconnect(self) -> "TcpConsumer":
        """Re-establish a lost broker link on the same node id.  Pending
        futures failed with the loss; resubmitting the *same* tasklet ids
        is idempotent — in-flight work completes to the resubmitter, and a
        journal-backed broker re-delivers completed outcomes."""
        return self.start()

    def stop(self) -> None:
        was_running = self._loop is not None
        self._close_link()
        if was_running:
            # Nothing can resolve once the connection is gone; anyone
            # still waiting gets a typed error instead of a hang.
            self.core.fail_all_pending("consumer stopped")

    # -- what CoreSession asks of a driver ---------------------------------------

    def _check_ready(self) -> None:
        if self.exhausted is not None:
            raise self.exhausted
        if self.state == self.CLOSED:
            raise TransportError("consumer not started")

    def _send(self, envelopes: Sequence[Envelope]) -> None:
        """One encode and one hop per submission, however many envelopes
        (the application's thread).  A submission that does not encode
        raises its ``CodecError`` here, its waiters failed with it; the
        link and everything else pending are untouched."""
        try:
            frames = encode_batch(envelopes, CODEC_BINARY)
        except CodecError as exc:
            self.core.fail_unsent(envelopes, exc)
            raise
        if not self._hop(self._submit, frames, len(envelopes)):
            self.core.fail_all_pending("consumer stopped")

    # -- the loop ---------------------------------------------------------------

    def _submit(self, frames: bytes, count: int) -> None:
        connecting = self._connecting
        if connecting is not None and not connecting.done():
            connecting.add_done_callback(lambda _: self._submit(frames, count))
        elif not self._write_frames(frames, count):
            # A link known dead refuses the write outright — TCP would let
            # one write after a peer close "succeed" — so every pending
            # future resolves with a typed error rather than hanging.
            self.core.fail_all_pending(f"broker link is {self.state}")

    def _on_envelope(self, connection: AioConnection, envelope: Envelope) -> None:
        self.core.handle(envelope)

    def _on_lost(self, reason: str) -> None:
        # The link is down before this runs, so a submission hopping onto
        # the loop after it is refused (and fails itself), and one queued
        # before it registered its future in time to be caught here.
        self.core.fail_all_pending(reason)
        hook = self.on_disconnect
        if hook is not None:
            hook(reason)
