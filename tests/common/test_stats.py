"""Statistics toolkit, checked against Python's statistics / numpy."""

import statistics

import numpy
import pytest
from hypothesis import given, strategies as st

from repro.common.stats import (
    EwmaTracker,
    mean,
    median,
    percentile,
    stdev,
    summarize,
    variance,
)

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
samples = st.lists(finite_floats, min_size=1, max_size=200)


@given(samples)
def test_mean_matches_statistics(values):
    assert mean(values) == pytest.approx(statistics.fmean(values), abs=1e-6)


@given(st.lists(finite_floats, min_size=2, max_size=200))
def test_variance_matches_statistics(values):
    assert variance(values) == pytest.approx(
        statistics.variance(values), rel=1e-6, abs=1e-6
    )


def test_variance_of_single_sample_is_zero():
    assert variance([3.0]) == 0.0


@given(samples, st.floats(min_value=0, max_value=100))
def test_percentile_matches_numpy_linear(values, q):
    expected = float(numpy.percentile(values, q))
    assert percentile(values, q) == pytest.approx(expected, rel=1e-9, abs=1e-9)


@given(samples)
def test_median_is_50th_percentile(values):
    assert median(values) == percentile(values, 50.0)


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


def test_variance_of_constant_sequence_is_zero():
    assert variance([5.0, 5.0, 5.0, 5.0]) == 0.0


def test_empty_sequences_rejected():
    for function in (mean, variance, stdev, median, summarize):
        with pytest.raises(ValueError):
            function([])


@given(samples)
def test_summary_is_internally_consistent(values):
    summary = summarize(values)
    assert summary.count == len(values)
    assert summary.minimum <= summary.p50 <= summary.p95 <= summary.maximum
    # The mean may fall one ulp outside [min, max] due to summation
    # rounding; allow that single-ulp slack.
    slack = 4 * abs(summary.mean) * 2.3e-16
    assert summary.minimum - slack <= summary.mean <= summary.maximum + slack


def test_summary_format_mentions_unit():
    text = summarize([1.0, 2.0]).format(unit="ms")
    assert "ms" in text
    assert "n=2" in text


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
