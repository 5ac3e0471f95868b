"""Cluster health model: grading, flap bursts, and the straggler watchdog.

Unit coverage drives :class:`HealthModel`/:class:`StragglerWatchdog`
directly with hand-built records; the end-to-end class drives a real
:class:`BrokerCore` on a virtual clock and asserts that a provider which
over-promised its benchmark raises a straggler alert through the tick
path (event + metric), without changing the re-issue policy.
"""

import pytest

from repro.broker.core import BrokerConfig, BrokerCore
from repro.broker.registry import ProviderRecord, ProviderRegistry
from repro.broker.scheduling import LeastLoadedStrategy
from repro.common.clock import VirtualClock
from repro.common.ids import NodeId
from repro.common.serde import packed
from repro.core.qoc import QoC
from repro.core.tasklet import Tasklet
from repro.obs import Telemetry
from repro.obs import events as ev
from repro.obs.health import (
    GRADE_DEGRADED,
    GRADE_HEALTHY,
    GRADE_UNHEALTHY,
    STRAGGLER_MIN_EXPECTED_S,
    HealthModel,
    StragglerWatchdog,
    overall_status,
)
from repro.transport.message import (
    AssignExecution,
    ExecutionResult,
    RegisterProvider,
    SubmitTasklet,
    body_of,
)
from repro.tvm.compiler import compile_source


def record(**overrides) -> ProviderRecord:
    defaults = dict(
        provider_id=NodeId("p1"),
        device_class="desktop",
        capacity=2,
        benchmark_score=1e6,
        last_heartbeat=100.0,
    )
    defaults.update(overrides)
    return ProviderRecord(**defaults)


HORIZON = 3.0  # a 1 s heartbeat, 3 intervals of silence


def registry_of(*records) -> ProviderRegistry:
    """A registry (1 s heartbeats, tolerance 3) holding ``records`` as they are."""
    registry = ProviderRegistry()
    for shape in records:
        registered = registry.register(
            shape.provider_id, shape.device_class, shape.capacity,
            shape.benchmark_score, shape.price, now=shape.last_heartbeat,
        )
        registered.alive = shape.alive
    return registry


class TestWatchdog:
    def test_cold_start_never_alerts(self):
        dog = StragglerWatchdog()
        dog.on_issue("e1", "p1", "t1", "fp", speed_ips=1e6, now=0.0)
        assert dog.check(now=1e9) == []

    def test_profile_learned_from_completions_drives_expectations(self):
        dog = StragglerWatchdog()
        dog.on_issue("e1", "p1", "t1", "fp", speed_ips=1000.0, now=0.0)
        dog.on_result("e1", ok=True, instructions=500)
        # 500 instructions at 1000 ips -> 0.5s expected.
        assert dog.expected_runtime("fp", 1000.0) == pytest.approx(0.5)
        assert dog.instructions_estimate("fp") == pytest.approx(500.0)

    def test_overdue_execution_alerts_exactly_once(self):
        dog = StragglerWatchdog()
        dog.on_issue("e1", "p1", "t1", "fp", speed_ips=1000.0, now=0.0)
        dog.on_result("e1", ok=True, instructions=1000)  # teach: 1s expected
        dog.on_issue("e2", "p2", "t2", "fp", speed_ips=1000.0, now=10.0)
        assert dog.check(now=13.5) == []  # 3.5s elapsed < 4s deadline
        alerts = dog.check(now=14.5)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.execution_id == "e2"
        assert alert.provider_id == "p2"
        assert alert.expected_s == pytest.approx(1.0)
        assert alert.elapsed_s == pytest.approx(4.5)
        assert alert.multiple == 4.0
        assert dog.check(now=30.0) == []  # alerted once, not re-raised
        assert [w.execution_id for w in dog.active_stragglers()] == ["e2"]
        assert dog.straggling_by_provider() == {"p2": 1}

    def test_failed_results_do_not_teach_the_profile(self):
        dog = StragglerWatchdog()
        dog.on_issue("e1", "p1", "t1", "fp", speed_ips=1000.0, now=0.0)
        dog.on_result("e1", ok=False, instructions=999)
        assert dog.instructions_estimate("fp") is None

    def test_lost_executions_are_forgotten(self):
        dog = StragglerWatchdog()
        dog.on_issue("e1", "p1", "t1", "fp", speed_ips=1000.0, now=0.0)
        dog.on_result("e1", ok=True, instructions=1000)
        dog.on_issue("e2", "p1", "t2", "fp", speed_ips=1000.0, now=0.0)
        dog.on_lost("e2")
        assert dog.outstanding == 0
        assert dog.check(now=1e9) == []

    def test_min_expected_floor_absorbs_tiny_programs(self):
        dog = StragglerWatchdog()
        dog.on_issue("e1", "p1", "t1", "fp", speed_ips=1e9, now=0.0)
        dog.on_result("e1", ok=True, instructions=10)
        assert dog.expected_runtime("fp", 1e9) == STRAGGLER_MIN_EXPECTED_S == 0.05


class TestGrading:
    def test_fresh_alive_provider_is_healthy(self):
        model = HealthModel()
        assert model.grade(record(), HORIZON, now=100.0) == GRADE_HEALTHY

    def test_dead_or_silent_provider_is_unhealthy(self):
        model = HealthModel()
        assert model.grade(record(alive=False), HORIZON, now=100.0) == GRADE_UNHEALTHY
        silent = record(last_heartbeat=10.0)  # 90s of silence
        assert model.grade(silent, HORIZON, now=100.0) == GRADE_UNHEALTHY
        # The horizon is the registry's: the one its failure detector uses.
        registry = registry_of(silent)
        assert registry.horizon(registry.get(silent.provider_id)) == HORIZON
        assert registry.detect_failures(100.0) == [silent.provider_id]

    def test_reliability_thresholds(self):
        model = HealthModel()  # degraded below 0.75, unhealthy below 0.4
        flaky = record(completed=5, failed=3)  # ~0.6 smoothed
        assert model.grade(flaky, HORIZON, now=100.0) == GRADE_DEGRADED
        broken = record(completed=1, failed=9)  # ~0.17 smoothed
        assert model.grade(broken, HORIZON, now=100.0) == GRADE_UNHEALTHY

    def test_underdelivering_speed_degrades(self):
        model = HealthModel()  # degraded below half its benchmark
        slow = record(benchmark_score=1e6)
        # Claimed 1e6 ips; observed collapses to 1e5.
        for _ in range(8):
            slow.observed_speed.add(1e5)
        assert model.grade(slow, HORIZON, now=100.0) == GRADE_DEGRADED

    def test_straggling_degrades(self):
        model = HealthModel()
        assert model.grade(record(), HORIZON, now=100.0, straggling=1) == GRADE_DEGRADED

    def test_flap_burst_alerts_once_then_rearms_after_window(self):
        model = HealthModel()  # three flaps within 60 s
        assert model.record_flap("p1", now=0.0) is False
        assert model.record_flap("p1", now=1.0) is False
        assert model.record_flap("p1", now=2.0) is True  # burst detected
        assert model.record_flap("p1", now=3.0) is False  # same burst
        assert model.is_flapping("p1", now=10.0)
        assert not model.is_flapping("p1", now=200.0)  # window drained
        # A fresh burst later alerts again.
        assert model.record_flap("p1", now=300.0) is False
        assert model.record_flap("p1", now=301.0) is False
        assert model.record_flap("p1", now=302.0) is True
        assert model.flap_count("p1") == 7

    def test_flapping_provider_is_degraded(self):
        model = HealthModel()
        model.record_flap("p1", now=41.0)
        model.record_flap("p1", now=70.0)
        assert model.grade(record(), HORIZON, now=100.0) == GRADE_HEALTHY
        model.record_flap("p1", now=100.0)
        assert model.grade(record(), HORIZON, now=100.0) == GRADE_DEGRADED
        assert model.grade(record(), HORIZON, now=101.5) == GRADE_HEALTHY  # 41 s left the window

    def test_scorecards_cover_all_records(self):
        model = HealthModel()
        cards = model.scorecards(
            registry_of(record(), record(provider_id=NodeId("p2"), alive=False)), now=100.0
        )
        assert [card.provider_id for card in cards] == ["p1", "p2"]
        assert cards[0].grade == GRADE_HEALTHY
        assert cards[1].grade == GRADE_UNHEALTHY
        as_dict = cards[0].to_dict()
        assert as_dict["provider_id"] == "p1"
        assert as_dict["grade"] == GRADE_HEALTHY


class TestOverallStatus:
    def test_empty_pool_is_unhealthy(self):
        assert overall_status([]) == GRADE_UNHEALTHY

    def test_all_dead_is_unhealthy(self):
        model = HealthModel()
        cards = model.scorecards(registry_of(record(alive=False)), now=100.0)
        assert overall_status(cards) == GRADE_UNHEALTHY

    def test_mixed_pool_is_degraded(self):
        model = HealthModel()
        cards = model.scorecards(
            registry_of(record(), record(provider_id=NodeId("p2"), alive=False)), now=100.0
        )
        assert overall_status(cards) == GRADE_DEGRADED

    def test_healthy_pool_is_ok(self):
        model = HealthModel()
        assert overall_status(model.scorecards(registry_of(record()), now=100.0)) == "ok"


PROGRAM = compile_source(
    "func main(n: int) -> int {"
    " var s: int = 0;"
    " for (var i: int = 0; i < n; i = i + 1) { s = s + i; }"
    " return s; }"
)


class StragglerHarness:
    """BrokerCore on a virtual clock with scripted providers.

    ``honest`` completes promptly (teaching the program profile);
    ``liar`` claims an enormous benchmark but never answers, so its
    executions blow past the watchdog's expectation.
    """

    def __init__(self):
        self.telemetry = Telemetry()
        self.clock = VirtualClock()
        self.broker = BrokerCore(
            clock=self.clock,
            strategy=LeastLoadedStrategy(),
            config=BrokerConfig(execution_timeout=None),
            telemetry=self.telemetry,
        )
        self._counter = 0

    def send(self, body, src):
        out = self.broker.handle(body.envelope(NodeId(src), self.broker.node_id))
        return [(e.dst, body_of(e)) for e in out]

    def register(self, name, score):
        self.send(
            RegisterProvider(
                provider_id=name,
                device_class="desktop",
                capacity=1,
                benchmark_score=score,
            ),
            src=name,
        )

    def submit(self):
        self._counter += 1
        tasklet = Tasklet(
            tasklet_id=f"t{self._counter}",
            program=PROGRAM,
            entry="main",
            args=[10],
            qoc=QoC(),
            # Distinct seeds keep repeated submissions out of the result
            # cache (this test needs every round to actually execute).
            seed=self._counter,
        )
        replies = self.send(
            SubmitTasklet(tasklet=tasklet.to_dict()), src="c1"
        )
        return [
            (dst, body)
            for dst, body in replies
            if isinstance(body, AssignExecution)
        ]

    def complete(self, provider, assign, duration=0.001, instructions=1000):
        now = self.clock.now()
        self.send(
            ExecutionResult(
                execution_id=assign.execution_id,
                tasklet_id=assign.tasklet_id,
                provider_id=provider,
                status="success",
                value=packed(45),
                instructions=instructions,
                started_at=now - duration,
                finished_at=now,
            ),
            src=provider,
        )


class TestStragglerEndToEnd:
    def test_overpromising_provider_raises_straggler_alert(self):
        harness = StragglerHarness()
        harness.register("honest", score=1e6)
        harness.register("liar", score=1e12)

        # Round 1: the honest provider completes and teaches the profile
        # (the liar's replica is cancelled when the vote resolves).
        assigns = harness.submit()
        for dst, assign in assigns:
            if dst == "honest":
                harness.complete("honest", assign)
        watchdog = harness.broker.health.watchdog
        assert watchdog.instructions_estimate(PROGRAM.fingerprint()) is not None

        # Round 2: occupy honest's only slot, so the next tasklet can
        # only land on the liar — with a known profile — then let it sit.
        blocker = harness.submit()
        assert [dst for dst, _ in blocker] == ["honest"]
        assigns = harness.submit()
        liar_assigned = [a for dst, a in assigns if dst == "liar"]
        assert liar_assigned, "with honest saturated the liar must be chosen"
        for dst, assign in blocker:
            harness.complete("honest", assign)

        # At 1e12 claimed ips the expectation collapses to the floor
        # (0.05 s); two virtual seconds of silence is far past 4x that.
        issued_before = harness.broker.stats.executions_issued
        harness.clock.advance(2.0)
        harness.broker.tick()

        events = harness.telemetry.events.events(kind=ev.STRAGGLER_ALERT)
        assert events, "watchdog must flag the silent over-promiser"
        alert = events[-1]
        assert alert.node == "liar"
        assert alert.attrs["elapsed_s"] >= 2.0
        # Advisory only: the alert itself must not trigger a re-issue.
        assert harness.broker.stats.executions_issued == issued_before

        text = harness.telemetry.registry.render_prometheus()
        assert 'repro_health_alerts_total{kind="straggler_alert"} 1' in text
        assert "repro_health_stragglers_active 1" in text
        assert 'repro_health_provider_grade{provider="liar"} 1' in text

        # The health document reflects it too.
        doc = harness.broker.health_snapshot()
        assert doc["status"] == "degraded"
        assert doc["stragglers"][0]["provider_id"] == "liar"
        liar_card = next(
            card for card in doc["providers"] if card["provider_id"] == "liar"
        )
        assert liar_card["straggling"] == 1

    def test_lifecycle_events_are_recorded(self):
        harness = StragglerHarness()
        harness.register("honest", score=1e6)
        assigns = harness.submit()
        for dst, assign in assigns:
            harness.complete(dst, assign)
        kinds = harness.telemetry.events.counts()
        assert kinds[ev.NODE_JOIN] == 1
        assert kinds[ev.PLACEMENT] == 1
        assert ev.STRAGGLER_ALERT not in kinds

    def test_dead_provider_emits_node_dead_event(self):
        harness = StragglerHarness()
        harness.register("honest", score=1e6)
        harness.clock.advance(60.0)
        harness.broker.tick()
        assert harness.telemetry.events.events(kind=ev.NODE_DEAD)
        assert harness.broker.health_snapshot()["status"] == GRADE_UNHEALTHY

    def test_disabled_telemetry_keeps_broker_pure(self):
        broker = BrokerCore(clock=VirtualClock(), strategy=LeastLoadedStrategy())
        assert broker.health is None
        doc = broker.health_snapshot()  # still answers, basic liveness only
        assert doc["status"] == "unhealthy"  # no providers yet
        assert "providers" not in doc
