"""Clock abstraction: protocol conformance, virtual-clock invariants."""

import time

import pytest

from repro.common.clock import Clock, VirtualClock, WallClock


def test_wall_clock_is_monotone_and_starts_near_zero():
    clock = WallClock()
    first = clock.now()
    second = clock.now()
    assert 0.0 <= first <= second
    assert second < 5.0  # sane origin


def test_wall_clock_sleep_advances_time():
    clock = WallClock()
    before = clock.now()
    time.sleep(0.01)
    assert clock.now() - before >= 0.009


def test_both_clocks_satisfy_protocol():
    assert isinstance(WallClock(), Clock)
    assert isinstance(VirtualClock(), Clock)


class TestVirtualClock:
    def test_starts_at_given_time(self):
        assert VirtualClock(12.5).now() == 12.5

    def test_advance_returns_new_time(self):
        clock = VirtualClock()
        assert clock.advance(3.0) == 3.0
        assert clock.now() == 3.0

    def test_advance_to_absolute(self):
        clock = VirtualClock(1.0)
        clock.advance_to(4.0)
        assert clock.now() == 4.0

    def test_advance_to_same_time_is_allowed(self):
        clock = VirtualClock(2.0)
        clock.advance_to(2.0)
        assert clock.now() == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)

    def test_backwards_advance_to_rejected(self):
        clock = VirtualClock(5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.999)
