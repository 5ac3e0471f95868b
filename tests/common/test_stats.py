"""The statistics the stdlib lacks, checked against Python's statistics / numpy."""

import statistics

import numpy
import pytest
from hypothesis import given, strategies as st

from repro.common.stats import EwmaTracker, percentile

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
samples = st.lists(finite_floats, min_size=1, max_size=200)


@given(samples, st.floats(min_value=0, max_value=100))
def test_percentile_matches_numpy_linear(values, q):
    expected = float(numpy.percentile(values, q))
    assert percentile(values, q) == pytest.approx(expected, rel=1e-9, abs=1e-9)


@given(samples)
def test_median_is_50th_percentile(values):
    assert percentile(values, 50.0) == pytest.approx(
        statistics.median(values), rel=1e-9, abs=1e-9
    )


def test_percentile_rejects_bad_q():
    with pytest.raises(ValueError):
        percentile([1.0], 101)
    with pytest.raises(ValueError):
        percentile([1.0], -1)


def test_percentile_of_empty_rejected():
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_percentile_single_sample_ignores_q():
    for q in (0.0, 37.5, 50.0, 100.0):
        assert percentile([7.25], q) == 7.25


def test_percentile_q0_is_min_and_q100_is_max():
    values = [9.0, -3.0, 4.5, 0.0]
    assert percentile(values, 0.0) == -3.0
    assert percentile(values, 100.0) == 9.0


def test_percentile_linear_interpolation_known_values():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 50.0) == pytest.approx(25.0)
    assert percentile(values, 25.0) == pytest.approx(17.5)
    assert percentile(values, 75.0) == pytest.approx(32.5)
    assert percentile([1.0, 2.0], 50.0) == pytest.approx(1.5)


def test_percentile_sorts_unsorted_input():
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0


@given(samples)
def test_percentiles_are_ordered_within_the_sample(values):
    p50, p95 = percentile(values, 50.0), percentile(values, 95.0)
    assert min(values) <= p50 <= p95 <= max(values)


class TestEwma:
    def test_first_observation_is_the_value(self):
        tracker = EwmaTracker(alpha=0.5)
        assert tracker.add(10.0) == 10.0

    def test_moves_toward_new_observations(self):
        tracker = EwmaTracker(alpha=0.5)
        tracker.add(0.0)
        assert tracker.add(10.0) == 5.0
        assert tracker.add(10.0) == 7.5

    def test_alpha_one_tracks_exactly(self):
        tracker = EwmaTracker(alpha=1.0)
        tracker.add(1.0)
        assert tracker.add(42.0) == 42.0

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            EwmaTracker(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaTracker(alpha=1.5)

    def test_value_none_before_first(self):
        assert EwmaTracker().value is None

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_ewma_stays_within_observed_range(self, values):
        tracker = EwmaTracker(alpha=0.3)
        for value in values:
            tracker.add(value)
        assert min(values) - 1e-6 <= tracker.value <= max(values) + 1e-6
