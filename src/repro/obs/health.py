"""Broker-side cluster health: per-provider scorecards and stragglers.

Raw telemetry (heartbeat gaps, execution outcomes, learned speeds) only
becomes operationally useful once it is reduced to *signals*: which
providers are healthy, which are degrading, and which executions are
stuck.  This module does that reduction on the broker, where all the
inputs already live in the :class:`~repro.broker.registry.ProviderRegistry`.

Two pieces:

* :class:`HealthModel` — folds registry records plus its own flap history
  into :class:`ProviderScorecard` grades (``healthy`` / ``degraded`` /
  ``unhealthy``), exactly what ``/healthz`` and ``repro top`` display;
* :class:`StragglerWatchdog` — learns the expected instruction count of
  each program (EWMA over completed executions, keyed by the program
  fingerprint), derives an expected runtime per issued execution from the
  executing provider's effective speed, and raises an alert when an
  outstanding execution exceeds :data:`STRAGGLER_MULTIPLE` times it.

The thresholds are this module's constants.  Liveness is the registry's:
a provider's silence horizon is :meth:`ProviderRegistry.horizon
<repro.broker.registry.ProviderRegistry.horizon>`, the one the failure
detector uses.

The watchdog is advisory: :class:`~repro.broker.core.BrokerCore` records
the alert (an event, read by the alert family) and exposes the straggler
set, but the re-issue policy is unchanged — reacting to the signal is the
operator's (or a future scheduler's) decision.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..common.stats import EwmaTracker
from . import events as ev

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..broker.registry import ProviderRecord, ProviderRegistry
    from .metrics import MetricsRegistry

GRADE_HEALTHY = "healthy"
GRADE_DEGRADED = "degraded"
GRADE_UNHEALTHY = "unhealthy"

#: Grade ordering used when aggregating ("worst wins") and for the
#: ``repro_health_provider_grade`` gauge value.
GRADE_RANK = {GRADE_HEALTHY: 0, GRADE_DEGRADED: 1, GRADE_UNHEALTHY: 2}

#: A flap burst: this many crash-and-returns within the window.
FLAP_WINDOW_S = 60.0
FLAP_THRESHOLD = 3
#: Smoothed success ratios below which a provider is degraded / unhealthy,
#: judged once it has this many results.
RELIABILITY_WARN = 0.75
RELIABILITY_FLOOR = 0.4
RELIABILITY_MIN_SAMPLES = 4
#: Delivering less than this share of its benchmark degrades a provider.
SPEED_WARN_RATIO = 0.5
#: An execution outstanding past this multiple of its expected runtime is
#: a straggler; the expectation never drops below the floor, which absorbs
#: scheduling and transport jitter for very short programs.
STRAGGLER_MULTIPLE = 4.0
STRAGGLER_MIN_EXPECTED_S = 0.05
#: EWMA weight of the newest instruction count in a program's profile.
PROFILE_ALPHA = 0.3


#: The alerts a broker raises: each is one event, which the alert family reads.
BROKER_ALERTS = (ev.FLAPPING_ALERT, ev.STRAGGLER_ALERT, ev.BACKLOG_OVERFLOW,
                 ev.TASKLET_FAILED, ev.SLO_BREACH, ev.WORKFLOW_FAILED, ev.PEER_DOWN)


class HealthMetrics:
    """Health/alert metric families (broker-side)."""

    def __init__(self, registry: "MetricsRegistry", events: "ev.FlightRecorder"):
        self.provider_grade = registry.gauge(
            "repro_health_provider_grade",
            "Provider health grade (0 healthy, 1 degraded, 2 unhealthy)",
            labelnames=("provider",),
        )
        self.providers_by_grade = registry.gauge(
            "repro_health_providers",
            "Registered providers currently at each health grade",
            labelnames=("grade",),
        )
        registry.stats_counter(
            "repro_health_alerts_total", "Operator-grade health alerts raised, by kind",
            "kind", {kind: kind for kind in BROKER_ALERTS},
        ).track(events.kinds)
        self.stragglers_active = registry.gauge(
            "repro_health_stragglers_active",
            "Outstanding executions currently past their straggler deadline",
        )


@dataclass(frozen=True)
class StragglerAlert:
    """One execution that exceeded its expected runtime."""

    execution_id: str
    provider_id: str
    tasklet_id: str
    expected_s: float
    elapsed_s: float
    multiple: float


@dataclass(frozen=True)
class ProviderScorecard:
    """One provider's aggregated health view (what ``/healthz`` serves)."""

    provider_id: str
    device_class: str
    grade: str
    alive: bool
    capacity: int
    outstanding: int
    reliability: float
    effective_speed: float
    benchmark_score: float
    heartbeat_age: float
    flaps: int
    straggling: int  # outstanding executions currently past deadline

    def to_dict(self) -> dict:
        return {
            "provider_id": self.provider_id,
            "device_class": self.device_class,
            "grade": self.grade,
            "alive": self.alive,
            "capacity": self.capacity,
            "outstanding": self.outstanding,
            "reliability": round(self.reliability, 4),
            "effective_speed": self.effective_speed,
            "benchmark_score": self.benchmark_score,
            "heartbeat_age": round(self.heartbeat_age, 4),
            "flaps": self.flaps,
            "straggling": self.straggling,
        }


@dataclass
class _Watch:
    """Watchdog bookkeeping for one outstanding execution."""

    execution_id: str
    provider_id: str
    tasklet_id: str
    fingerprint: str
    issued_at: float
    expected_s: float | None  # None until the program has a profile
    alerted: bool = False


class StragglerWatchdog:
    """Tracks expected vs actual runtime of outstanding executions.

    Expected runtime for an execution is::

        max(STRAGGLER_MIN_EXPECTED_S, instructions_estimate / provider_speed)

    where ``instructions_estimate`` is an EWMA over the instruction counts
    of *completed* executions of the same program fingerprint (the program
    profile), and ``provider_speed`` is the broker's effective-speed
    estimate for the executing provider at issue time — i.e. the promise
    the provider benchmark made.  An execution still outstanding after
    ``STRAGGLER_MULTIPLE ×`` that expectation is a straggler; each one
    alerts once.

    Executions of programs never seen before have no expectation and never
    alert (cold start is not an anomaly).
    """

    def __init__(self) -> None:
        self._profiles: dict[str, EwmaTracker] = {}
        self._watches: dict[str, _Watch] = {}

    # -- program profile -----------------------------------------------------

    def instructions_estimate(self, fingerprint: str) -> float | None:
        """Learned instruction count for a program, if any."""
        tracker = self._profiles.get(fingerprint)
        return tracker.value if tracker is not None else None

    def expected_runtime(self, fingerprint: str, speed_ips: float) -> float | None:
        """Expected service time on a provider of the given speed."""
        estimate = self.instructions_estimate(fingerprint)
        if estimate is None or speed_ips <= 0:
            return None
        return max(STRAGGLER_MIN_EXPECTED_S, estimate / speed_ips)

    # -- execution lifecycle hooks (called by the broker) ---------------------

    def on_issue(
        self,
        execution_id: str,
        provider_id: str,
        tasklet_id: str,
        fingerprint: str,
        speed_ips: float,
        now: float,
    ) -> None:
        self._watches[execution_id] = _Watch(
            execution_id=execution_id,
            provider_id=provider_id,
            tasklet_id=tasklet_id,
            fingerprint=fingerprint,
            issued_at=now,
            expected_s=self.expected_runtime(fingerprint, speed_ips),
        )

    def on_result(
        self, execution_id: str, ok: bool, instructions: int
    ) -> None:
        """Fold a terminal result: drop the watch, learn the profile."""
        watch = self._watches.pop(execution_id, None)
        if not ok or instructions <= 0:
            return
        fingerprint = watch.fingerprint if watch is not None else None
        if not fingerprint:
            return
        tracker = self._profiles.get(fingerprint)
        if tracker is None:
            tracker = self._profiles[fingerprint] = EwmaTracker(alpha=PROFILE_ALPHA)
        tracker.add(float(instructions))

    def on_lost(self, execution_id: str) -> None:
        """Drop a watch without learning (cancelled/lost/timed out)."""
        self._watches.pop(execution_id, None)

    # -- the watchdog itself -------------------------------------------------

    def check(self, now: float) -> list[StragglerAlert]:
        """Alerts for overdue executions not yet reported (once each)."""
        alerts: list[StragglerAlert] = []
        for watch in self._watches.values():
            if watch.alerted or watch.expected_s is None:
                continue
            elapsed = now - watch.issued_at
            if elapsed > watch.expected_s * STRAGGLER_MULTIPLE:
                watch.alerted = True
                alerts.append(
                    StragglerAlert(
                        execution_id=watch.execution_id,
                        provider_id=watch.provider_id,
                        tasklet_id=watch.tasklet_id,
                        expected_s=watch.expected_s,
                        elapsed_s=elapsed,
                        multiple=STRAGGLER_MULTIPLE,
                    )
                )
        return alerts

    def active_stragglers(self) -> list[_Watch]:
        """Watches that have already alerted and are still outstanding."""
        return [watch for watch in self._watches.values() if watch.alerted]

    def straggling_by_provider(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for watch in self.active_stragglers():
            out[watch.provider_id] = out.get(watch.provider_id, 0) + 1
        return out


class HealthModel:
    """Grades providers and hosts the straggler watchdog.

    Grading rules, worst grade wins:

    * dead (failure detector fired, or heartbeat silence past the
      registry's horizon) → ``unhealthy``;
    * success ratio below :data:`RELIABILITY_FLOOR` → ``unhealthy``; below
      :data:`RELIABILITY_WARN` → ``degraded``;
    * flapped :data:`FLAP_THRESHOLD` or more times within
      :data:`FLAP_WINDOW_S` → ``degraded`` (and a ``flapping_alert`` is
      raised once per burst);
    * delivering less than :data:`SPEED_WARN_RATIO` of its self-reported
      benchmark (throughput-normalised speed) → ``degraded``;
    * any outstanding execution past its straggler deadline → ``degraded``.
    """

    def __init__(self) -> None:
        self.watchdog = StragglerWatchdog()
        self._flap_times: dict[str, deque[float]] = {}
        self._flap_counts: dict[str, int] = {}
        #: Providers already alerted for the current flap burst; cleared
        #: when their window drains so a later burst alerts again.
        self._flap_alerted: set[str] = set()

    # -- flap history ---------------------------------------------------------

    def record_flap(self, provider_id: str, now: float) -> bool:
        """Record one crash-and-return; True when a flapping alert fires."""
        provider_id = str(provider_id)
        times = self._flap_times.setdefault(provider_id, deque())
        times.append(now)
        self._flap_counts[provider_id] = self._flap_counts.get(provider_id, 0) + 1
        self._prune_flaps(provider_id, now)
        if len(times) >= FLAP_THRESHOLD:
            if provider_id not in self._flap_alerted:
                self._flap_alerted.add(provider_id)
                return True
        return False

    def _prune_flaps(self, provider_id: str, now: float) -> None:
        times = self._flap_times.get(provider_id)
        if times is None:
            return
        while times and now - times[0] > FLAP_WINDOW_S:
            times.popleft()
        if len(times) < FLAP_THRESHOLD:
            self._flap_alerted.discard(provider_id)

    def is_flapping(self, provider_id: str, now: float) -> bool:
        self._prune_flaps(str(provider_id), now)
        return len(self._flap_times.get(str(provider_id), ())) >= FLAP_THRESHOLD

    def flap_count(self, provider_id: str) -> int:
        """Total flaps ever recorded for a provider."""
        return self._flap_counts.get(str(provider_id), 0)

    # -- scorecards -----------------------------------------------------------

    def grade(
        self, record: "ProviderRecord", horizon: float, now: float, straggling: int = 0
    ) -> str:
        """``record``'s grade; ``horizon`` is its registry's silence horizon."""
        heartbeat_age = max(0.0, now - record.last_heartbeat)
        if not record.alive or heartbeat_age > horizon:
            return GRADE_UNHEALTHY
        # Laplace smoothing pins a provider with no history at 0.5, so
        # reliability only judges providers with actual evidence.
        judged = record.completed + record.failed >= RELIABILITY_MIN_SAMPLES
        if judged and record.reliability < RELIABILITY_FLOOR:
            return GRADE_UNHEALTHY
        grade = GRADE_HEALTHY
        if judged and record.reliability < RELIABILITY_WARN:
            grade = GRADE_DEGRADED
        if self.is_flapping(record.provider_id, now):
            grade = GRADE_DEGRADED
        if (
            record.benchmark_score > 0
            and record.observed_speed.value is not None
            and record.effective_speed
            < record.benchmark_score * SPEED_WARN_RATIO
        ):
            grade = GRADE_DEGRADED
        if straggling > 0:
            grade = GRADE_DEGRADED
        return grade

    def scorecards(self, registry: "ProviderRegistry", now: float) -> list[ProviderScorecard]:
        """One card per provider ``registry`` knows, dead ones included."""
        straggling = self.watchdog.straggling_by_provider()
        cards: list[ProviderScorecard] = []
        for record in registry.records():
            stuck = straggling.get(str(record.provider_id), 0)
            cards.append(
                ProviderScorecard(
                    provider_id=str(record.provider_id),
                    device_class=record.device_class,
                    grade=self.grade(record, registry.horizon(record), now, stuck),
                    alive=record.alive,
                    capacity=record.capacity,
                    outstanding=record.outstanding,
                    reliability=record.reliability,
                    effective_speed=record.effective_speed,
                    benchmark_score=record.benchmark_score,
                    heartbeat_age=max(0.0, now - record.last_heartbeat),
                    flaps=self.flap_count(record.provider_id),
                    straggling=stuck,
                )
            )
        return cards


def overall_status(cards: Iterable[ProviderScorecard]) -> str:
    """Aggregate a pool's scorecards into one status string.

    No providers at all, or none alive, means the cluster cannot execute
    anything: ``unhealthy``.  Any degraded/unhealthy member degrades the
    pool; otherwise ``ok``.
    """
    cards = list(cards)
    if not cards or not any(card.alive for card in cards):
        return GRADE_UNHEALTHY
    worst = max(GRADE_RANK[card.grade] for card in cards)
    if worst >= GRADE_RANK[GRADE_UNHEALTHY]:
        return GRADE_DEGRADED  # pool still has healthy members
    if worst >= GRADE_RANK[GRADE_DEGRADED]:
        return GRADE_DEGRADED
    return "ok"
