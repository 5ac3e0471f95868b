"""Discrete-event loop: ordering, recurring events, idle detection."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.eventloop import EventLoop


def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.schedule(3.0, lambda: fired.append("c"))
    loop.schedule(1.0, lambda: fired.append("a"))
    loop.schedule(2.0, lambda: fired.append("b"))
    loop.run_until(10.0)
    assert fired == ["a", "b", "c"]


def test_simultaneous_events_fire_in_schedule_order():
    loop = EventLoop()
    fired = []
    for name in "abc":
        loop.schedule(1.0, lambda n=name: fired.append(n))
    loop.run_until(2.0)
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_times():
    loop = EventLoop()
    seen = []
    loop.schedule(2.5, lambda: seen.append(loop.now()))
    loop.run_until(5.0)
    assert seen == [2.5]
    assert loop.now() == 5.0


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        EventLoop().schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    loop = EventLoop()
    loop.schedule(1.0, lambda: None)
    loop.run_until(2.0)
    with pytest.raises(ValueError):
        loop.schedule_at(1.5, lambda: None)


def test_events_scheduled_during_events_run():
    loop = EventLoop()
    fired = []

    def outer():
        fired.append("outer")
        loop.schedule(1.0, lambda: fired.append("inner"))

    loop.schedule(1.0, outer)
    loop.run_until(5.0)
    assert fired == ["outer", "inner"]


def test_run_until_respects_deadline():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, lambda: fired.append("early"))
    loop.schedule(5.0, lambda: fired.append("late"))
    loop.run_until(3.0)
    assert fired == ["early"]
    assert loop.now() == 3.0
    loop.run_until(6.0)
    assert fired == ["early", "late"]


def test_step_returns_false_when_empty():
    assert EventLoop().step() is False


class TestRecurring:
    def test_every_repeats_until_stopped(self):
        loop = EventLoop()
        count = [0]

        def bump():
            count[0] += 1

        stop = loop.every(1.0, bump, jitter0=0.5)
        loop.run_until(4.6)  # fires at 0.5, 1.5, 2.5, 3.5, 4.5
        assert count[0] == 5
        stop()
        loop.run_until(10.0)
        assert count[0] == 5

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().every(0.0, lambda: None)


class TestRunUntilIdle:
    def test_stops_when_only_background_left(self):
        loop = EventLoop()
        loop.every(1.0, lambda: None)
        loop.schedule(2.5, lambda: None)  # foreground
        stop_time = loop.run_until_idle()
        assert stop_time == 2.5

    def test_stops_on_done_predicate(self):
        loop = EventLoop()
        flag = []
        loop.schedule(1.0, lambda: flag.append(True))
        loop.schedule(100.0, lambda: None)
        stop_time = loop.run_until_idle(done=lambda: bool(flag))
        assert stop_time == 1.0

    def test_stops_at_max_time(self):
        loop = EventLoop()
        loop.every(1.0, lambda: None)
        stop_time = loop.run_until_idle(done=lambda: False, max_time=5.0)
        assert stop_time == 5.0

    def test_empty_loop_is_idle_immediately(self):
        assert EventLoop().run_until_idle() == 0.0


@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30))
def test_firing_order_matches_sorted_times(delays):
    loop = EventLoop()
    fired = []
    for index, delay in enumerate(delays):
        loop.schedule(delay, lambda i=index: fired.append(i))
    loop.run_until(101.0)
    times_in_fire_order = [delays[i] for i in fired]
    assert times_in_fire_order == sorted(times_in_fire_order)
    assert loop.events_processed == len(delays)
