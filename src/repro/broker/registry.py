"""The broker's provider registry.

Tracks every registered provider: static capabilities (device class,
capacity, self-benchmark score, price), liveness (heartbeat-based failure
detection), load (executions outstanding), and learned behaviour (EWMA of
observed execution speed, success/failure history).  Scheduling strategies
consume :class:`ProviderView` snapshots from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import RegistrationError
from ..common.ids import NodeId
from ..common.stats import EwmaTracker

#: A provider missing this many heartbeat intervals is declared dead.
DEFAULT_HEARTBEAT_INTERVAL = 1.0
DEFAULT_HEARTBEAT_TOLERANCE = 3.0  # intervals


@dataclass
class ProviderRecord:
    """Mutable broker-side state for one provider."""

    provider_id: NodeId
    device_class: str
    capacity: int
    benchmark_score: float  # instructions/second, self-reported
    price: float = 0.0
    heartbeat_interval: float = 1.0  # promised by the provider at registration
    registered_at: float = 0.0
    last_heartbeat: float = 0.0
    alive: bool = True
    #: Executions assigned, not yet terminal (written by the registry's
    #: ``acquire`` / ``release`` only).
    outstanding: int = 0
    completed: int = 0
    failed: int = 0
    observed_speed: EwmaTracker = field(default_factory=lambda: EwmaTracker(alpha=0.3))

    @property
    def effective_speed(self) -> float:
        """Best current estimate of instructions/second.

        The self-reported benchmark seeds the estimate; observed execution
        rates take over as evidence accumulates, so a provider that
        overstated its benchmark (or got slower) is re-ranked quickly.
        """
        observed = self.observed_speed.value
        return observed if observed is not None else self.benchmark_score

    @property
    def reliability(self) -> float:
        """Smoothed success ratio in [0, 1] (Laplace-smoothed)."""
        return (self.completed + 1) / (self.completed + self.failed + 2)

    def record_result(
        self, ok: bool, instructions: int, duration: float, learn_speed: bool = True
    ) -> None:
        """Fold one terminal execution into the learned statistics.

        This is the *single* grading path for terminal outcomes —
        results, rejections, timeouts, and provider losses all land here,
        so ``reliability`` sees every failure mode with the same weight.
        The slot itself is freed by :meth:`ProviderRegistry.release`.
        """
        if ok:
            self.completed += 1
            if learn_speed and duration > 0 and instructions > 0:
                self.observed_speed.add(instructions / duration)
        else:
            self.failed += 1


@dataclass(frozen=True)
class ProviderView:
    """Immutable snapshot handed to scheduling strategies."""

    provider_id: NodeId
    device_class: str
    capacity: int
    free_slots: int
    effective_speed: float
    reliability: float
    price: float
    outstanding: int


class ProviderRegistry:
    """All providers known to one broker."""

    def __init__(
        self,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_tolerance: float = DEFAULT_HEARTBEAT_TOLERANCE,
        learn_speed: bool = True,
        pipeline_depth: int = 0,
    ):
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_tolerance = heartbeat_tolerance
        self.learn_speed = learn_speed
        #: Extra executions the broker may keep in flight per provider
        #: beyond its slot count, hiding the network round trip between a
        #: result and the next assignment (see ablation A5).  The provider
        #: queues them locally.
        self.pipeline_depth = pipeline_depth
        self._providers: dict[NodeId, ProviderRecord] = {}
        #: Executions the pool can take right now: the sum of
        #: :meth:`_placeable` over every record, kept current wherever a
        #: record joins, leaves, dies or changes ``outstanding`` — so "is
        #: anything placeable?" never walks the providers.
        self.free_capacity = 0

    # -- membership ----------------------------------------------------------

    def register(
        self,
        provider_id: NodeId,
        device_class: str,
        capacity: int,
        benchmark_score: float,
        price: float,
        now: float,
        heartbeat_interval: float | None = None,
    ) -> ProviderRecord:
        """Add (or re-add after a crash) a provider."""
        if capacity < 1:
            raise RegistrationError(f"capacity must be >= 1, got {capacity}")
        if benchmark_score <= 0:
            raise RegistrationError(
                f"benchmark score must be positive, got {benchmark_score}"
            )
        record = ProviderRecord(
            provider_id=provider_id,
            device_class=device_class,
            capacity=capacity,
            benchmark_score=benchmark_score,
            price=price,
            heartbeat_interval=heartbeat_interval or self.heartbeat_interval,
            registered_at=now,
            last_heartbeat=now,
        )
        # Re-registration replaces the old record: a provider that crashed
        # and came back starts with a clean slate of outstanding work.
        replaced = self._providers.get(provider_id)
        if replaced is not None:
            self.free_capacity -= self._placeable(replaced)
        self._providers[provider_id] = record
        self.free_capacity += self._placeable(record)
        return record

    def unregister(self, provider_id: NodeId) -> ProviderRecord | None:
        """Remove a provider (graceful leave); returns its record."""
        record = self._providers.pop(provider_id, None)
        if record is not None:
            self.free_capacity -= self._placeable(record)
        return record

    def get(self, provider_id: NodeId) -> ProviderRecord | None:
        return self._providers.get(provider_id)

    def __len__(self) -> int:
        return len(self._providers)

    def __contains__(self, provider_id: NodeId) -> bool:
        return provider_id in self._providers

    # -- slot accounting -----------------------------------------------------

    def _placeable(self, record: ProviderRecord) -> int:
        """Executions ``record`` can take right now (0 when dead)."""
        if not record.alive:
            return 0
        return max(0, record.capacity + self.pipeline_depth - record.outstanding)

    def acquire(self, record: ProviderRecord) -> None:
        """Count one more execution assigned to ``record`` (one of this
        registry's current records).  With :meth:`release`, the only
        writer of ``outstanding``."""
        limit = record.capacity + self.pipeline_depth
        if record.alive and record.outstanding < limit:
            self.free_capacity -= 1
        record.outstanding += 1

    def release(self, record: ProviderRecord) -> None:
        """Free one of ``record``'s slots, whatever ended the execution;
        grading is :meth:`ProviderRecord.record_result`'s business.  A
        record with nothing outstanding (the provider re-registered
        while the execution ran) is left alone."""
        if record.outstanding == 0:
            return
        record.outstanding -= 1
        limit = record.capacity + self.pipeline_depth
        if record.alive and record.outstanding < limit:
            self.free_capacity += 1

    # -- liveness ------------------------------------------------------------

    def heartbeat(self, provider_id: NodeId, now: float) -> bool:
        """Record a heartbeat; returns False for unknown or dead providers.

        A provider declared dead must re-register rather than be revived
        by a bare heartbeat: its outstanding executions were already
        failed over when it was declared dead, so silently resurrecting
        the record would leave phantom ``outstanding`` load (and stale
        learned state) attached to a node the broker wrote off.  False
        makes the broker answer with ``REASON_UNKNOWN_PROVIDER``, which
        both transports treat as "register again".
        """
        record = self._providers.get(provider_id)
        if record is None or not record.alive:
            return False
        record.last_heartbeat = now
        return True

    def detect_failures(self, now: float) -> list[NodeId]:
        """Mark silent providers dead; returns the newly dead ones.

        Each provider's horizon honours the heartbeat interval it promised
        at registration, so slow-beating providers are not flapped dead by
        a broker configured for a faster cadence.
        """
        newly_dead: list[NodeId] = []
        for record in self._providers.values():
            horizon = (
                max(self.heartbeat_interval, record.heartbeat_interval)
                * self.heartbeat_tolerance
            )
            if record.alive and now - record.last_heartbeat > horizon:
                self.free_capacity -= self._placeable(record)
                record.alive = False
                newly_dead.append(record.provider_id)
        return newly_dead

    # -- snapshots for scheduling -------------------------------------------------

    def alive_providers(self) -> list[ProviderRecord]:
        return [record for record in self._providers.values() if record.alive]

    def records(self) -> list[ProviderRecord]:
        """All records (alive or not), in stable (id) order — the health
        model grades dead providers too."""
        return sorted(self._providers.values(), key=lambda r: r.provider_id)

    def views(self, require_free_slot: bool = False) -> list[ProviderView]:
        """Snapshot of all alive providers, in stable (id) order.

        Stable ordering keeps strategy decisions deterministic for a given
        registry state, which the simulator's reproducibility relies on.
        """
        depth = self.pipeline_depth
        entries = [
            (record, max(0, record.capacity + depth - record.outstanding))
            for record in self._providers.values()
            if record.alive
        ]
        if require_free_slot:
            entries = [entry for entry in entries if entry[1] > 0]
        entries.sort(key=lambda entry: entry[0].provider_id)
        return [
            ProviderView(
                provider_id=record.provider_id,
                device_class=record.device_class,
                capacity=record.capacity,
                free_slots=free_slots,
                effective_speed=record.effective_speed,
                reliability=record.reliability,
                price=record.price,
                outstanding=record.outstanding,
            )
            for record, free_slots in entries
        ]
