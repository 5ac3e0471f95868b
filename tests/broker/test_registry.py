"""Provider registry: membership, liveness, learned statistics."""

import pytest

from repro.common.errors import RegistrationError
from repro.common.ids import NodeId
from repro.broker.registry import ProviderRegistry


def register(registry, name="p1", now=0.0, capacity=2, score=1e6, **kwargs):
    return registry.register(
        provider_id=NodeId(name),
        device_class=kwargs.get("device_class", "desktop"),
        capacity=capacity,
        benchmark_score=score,
        price=kwargs.get("price", 0.0),
        now=now,
    )


def test_register_and_lookup():
    registry = ProviderRegistry()
    record = register(registry)
    assert registry.get(NodeId("p1")) is record
    assert NodeId("p1") in registry
    assert len(registry) == 1


def test_invalid_capacity_rejected():
    with pytest.raises(RegistrationError):
        register(ProviderRegistry(), capacity=0)


def test_invalid_score_rejected():
    with pytest.raises(RegistrationError):
        register(ProviderRegistry(), score=0.0)


def test_reregistration_replaces_record():
    registry = ProviderRegistry()
    old = register(registry)
    registry.acquire(old)
    new = register(registry, now=10.0)
    assert new.outstanding == 0
    assert registry.get(NodeId("p1")) is new


def test_unregister_returns_record():
    registry = ProviderRegistry()
    register(registry)
    removed = registry.unregister(NodeId("p1"))
    assert removed is not None
    assert NodeId("p1") not in registry
    assert registry.unregister(NodeId("p1")) is None


class TestLiveness:
    def test_heartbeat_unknown_provider(self):
        assert ProviderRegistry().heartbeat(NodeId("ghost"), 1.0) is False

    def test_silence_marks_dead(self):
        registry = ProviderRegistry(heartbeat_interval=1.0, heartbeat_tolerance=3.0)
        register(registry, now=0.0)
        assert registry.detect_failures(2.9) == []
        assert registry.detect_failures(3.1) == [NodeId("p1")]
        assert registry.get(NodeId("p1")).alive is False

    def test_detection_fires_once(self):
        registry = ProviderRegistry()
        register(registry, now=0.0)
        assert registry.detect_failures(100.0) == [NodeId("p1")]
        assert registry.detect_failures(200.0) == []

    def test_heartbeat_does_not_revive_dead_provider(self):
        # A dead provider's outstanding work was already failed over;
        # a bare heartbeat must not resurrect the stale record (phantom
        # ``outstanding`` load).  It has to re-register for a clean slate.
        registry = ProviderRegistry()
        register(registry, now=0.0)
        registry.detect_failures(100.0)
        assert registry.heartbeat(NodeId("p1"), 101.0) is False
        assert registry.get(NodeId("p1")).alive is False
        # Re-registration (what the broker's REASON_UNKNOWN_PROVIDER
        # rejection triggers) brings it back with fresh state.
        record = register(registry, now=102.0)
        assert record.alive is True and record.outstanding == 0

    def test_dead_providers_excluded_from_views(self):
        registry = ProviderRegistry()
        register(registry, "a", now=0.0)
        register(registry, "b", now=0.0)
        registry.heartbeat(NodeId("b"), 100.0)
        registry.detect_failures(100.0)
        assert [view.provider_id for view in registry.views()] == ["b"]


class TestLearnedStats:
    def test_effective_speed_starts_at_benchmark(self):
        registry = ProviderRegistry()
        record = register(registry, score=5e6)
        assert record.effective_speed == 5e6

    def test_observed_speed_takes_over(self):
        registry = ProviderRegistry()
        record = register(registry, score=5e6)
        record.record_result(ok=True, instructions=1_000_000, duration=1.0)
        assert record.effective_speed == pytest.approx(1e6)

    def test_learning_can_be_disabled(self):
        registry = ProviderRegistry(learn_speed=False)
        record = register(registry, score=5e6)
        record.record_result(
            ok=True, instructions=1_000_000, duration=1.0, learn_speed=False
        )
        assert record.effective_speed == 5e6

    def test_reliability_is_laplace_smoothed(self):
        registry = ProviderRegistry()
        record = register(registry)
        assert record.reliability == pytest.approx(0.5)
        record.record_result(True, 100, 1.0)
        record.record_result(False, 0, 0.0)
        assert record.reliability == pytest.approx(2 / 4)

    def test_free_slots_track_outstanding(self):
        registry = ProviderRegistry()
        record = register(registry, capacity=3)
        registry.acquire(record)
        registry.acquire(record)
        assert registry.views()[0].free_slots == registry.free_capacity == 1
        for _ in range(3):  # over-assignment guard
            registry.acquire(record)
        assert registry.views()[0].free_slots == registry.free_capacity == 0
        assert record.outstanding == 5


class TestViews:
    def test_views_are_sorted_and_immutable(self):
        registry = ProviderRegistry()
        register(registry, "z", now=0.0)
        register(registry, "a", now=0.0)
        views = registry.views()
        assert [view.provider_id for view in views] == ["a", "z"]
        with pytest.raises(AttributeError):
            views[0].capacity = 99

    def test_require_free_slot_filter(self):
        registry = ProviderRegistry()
        registry.acquire(register(registry, "busy", capacity=1))
        register(registry, "idle", capacity=1)
        views = registry.views(require_free_slot=True)
        assert [view.provider_id for view in views] == ["idle"]


def recount(registry):
    """What ``free_capacity`` must equal: the sum over alive providers."""
    return sum(
        max(0, record.capacity + registry.pipeline_depth - record.outstanding)
        for record in registry._providers.values()
        if record.alive
    )


class TestSlotAccounting:
    def test_free_capacity_follows_membership_and_load(self):
        registry = ProviderRegistry(pipeline_depth=1)
        assert registry.free_capacity == 0
        a = register(registry, "a", capacity=2)
        b = register(registry, "b", capacity=1)
        assert registry.free_capacity == recount(registry) == 5
        for _ in range(3):
            registry.acquire(a)
        registry.acquire(b)
        assert registry.free_capacity == recount(registry) == 1
        registry.release(a)
        assert registry.free_capacity == recount(registry) == 2
        registry.unregister(NodeId("b"))
        assert registry.free_capacity == recount(registry) == 1
        registry.unregister(NodeId("b"))  # unknown: nothing to subtract
        assert registry.free_capacity == 1

    def test_over_assignment_releases_do_not_add_capacity_early(self):
        # A stale strategy may over-assign; the slots beyond capacity
        # were never counted as free, so freeing them adds nothing.
        registry = ProviderRegistry()
        record = register(registry, capacity=1)
        registry.acquire(record)
        registry.acquire(record)
        assert registry.free_capacity == 0
        registry.release(record)
        assert registry.free_capacity == recount(registry) == 0
        registry.release(record)
        assert registry.free_capacity == recount(registry) == 1

    def test_release_with_nothing_outstanding_is_a_no_op(self):
        # Flap: the provider re-registered while work ran; the results of
        # its previous incarnation find a fresh record with nothing to free.
        registry = ProviderRegistry()
        old = register(registry, capacity=2)
        registry.acquire(old)
        registry.acquire(old)
        assert registry.free_capacity == 0
        new = register(registry, capacity=2, now=1.0)
        assert registry.free_capacity == recount(registry) == 2
        registry.release(new)
        registry.release(new)
        assert new.outstanding == 0
        assert registry.free_capacity == recount(registry) == 2

    def test_dead_provider_offers_nothing_until_it_re_registers(self):
        registry = ProviderRegistry()
        record = register(registry, capacity=3, now=0.0)
        registry.acquire(record)
        assert registry.detect_failures(100.0) == [NodeId("p1")]
        assert registry.free_capacity == recount(registry) == 0
        # Its executions are then lost one by one: the slots come back on
        # a record nobody may place on.
        registry.release(record)
        assert record.outstanding == 0
        assert registry.free_capacity == recount(registry) == 0
        assert registry.detect_failures(200.0) == []
        assert registry.free_capacity == 0
        register(registry, capacity=3, now=201.0)
        assert registry.free_capacity == recount(registry) == 3
