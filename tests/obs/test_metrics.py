"""The metrics registry: counters, gauges, histograms, and exposition."""

import dataclasses
import threading
from types import SimpleNamespace

import pytest

from repro.broker.observer import BrokerStats
from repro.consumer.core import ConsumerStats
from repro.obs import telemetry
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    parse_prometheus,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        counter = registry.counter("jobs_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self, registry):
        counter = registry.counter("jobs_total")
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 0.0

    def test_labeled_children_are_independent(self, registry):
        family = registry.counter("results_total", labelnames=("status",))
        family.labels(status="ok").inc(3)
        family.labels("failed").inc()
        assert family.labels(status="ok").value == 3
        assert family.labels(status="failed").value == 1

    def test_unlabeled_access_on_labeled_family_rejected(self, registry):
        family = registry.counter("results_total", labelnames=("status",))
        with pytest.raises(ValueError):
            family.inc()

    def test_wrong_label_count_rejected(self, registry):
        family = registry.counter("results_total", labelnames=("status",))
        with pytest.raises(ValueError):
            family.labels("ok", "extra")
        with pytest.raises(ValueError):
            family.labels(other="ok")


class TestStatsCounter:
    """A counter family that reads fields of the stats objects it tracks."""

    @staticmethod
    def family(registry):
        return registry.stats_counter(
            "repro_memo_total", "lookups", "result", {"hit": "hits", "miss": "misses"}
        )

    def test_sums_every_tracked_object_when_read(self, registry):
        family = self.family(registry)
        first, second = SimpleNamespace(hits=2, misses=0), SimpleNamespace(hits=1, misses=0)
        family.track(first)
        self.family(registry).track(second)  # re-registration: same family
        assert family.labels(result="hit").value == 3
        first.hits += 4
        assert family.labels("hit").value == 7
        assert family.labels(result="miss").value == 0

    def test_an_object_tracked_twice_is_summed_once(self, registry):
        stats = SimpleNamespace(hits=2, misses=0)
        self.family(registry).track(stats)
        self.family(registry).track(stats)
        assert self.family(registry).labels(result="hit").value == 2

    def test_exposes_only_nonzero_children(self, registry):
        family = self.family(registry)
        family.track(SimpleNamespace(hits=0, misses=0))
        assert family.children() == []
        family.track(SimpleNamespace(hits=0, misses=5))
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed["repro_memo_total"] == {'result="miss"': 5}
        assert "# TYPE repro_memo_total counter" in registry.render_prometheus()
        (sample,) = registry.snapshot()["repro_memo_total"]["samples"]
        assert sample == {"labels": {"result": "miss"}, "value": 5}

    def test_unlabeled_family(self, registry):
        family = registry.stats_counter("repro_jobs_total", "jobs", "", {"": "jobs"})
        family.track(SimpleNamespace(jobs=3))
        assert family.labels().value == 3
        assert parse_prometheus(registry.render_prometheus())["repro_jobs_total"] == {"": 3}

    def test_cannot_be_incremented(self, registry):
        family = self.family(registry)
        with pytest.raises(AttributeError):
            family.labels(result="hit").inc()
        with pytest.raises(AttributeError):
            family.inc()

    def test_unknown_label_value_and_plain_counter_clash_rejected(self, registry):
        family = self.family(registry)
        with pytest.raises(ValueError):
            family.labels(result="other")
        with pytest.raises(ValueError):
            registry.counter("repro_memo_total", labelnames=("result",))


def test_the_telemetry_tables_name_stats_fields():
    broker = {field.name for field in dataclasses.fields(BrokerStats)}
    consumer = {field.name for field in dataclasses.fields(ConsumerStats)}
    for table, fields in (
        (telemetry.BROKER_COUNTS + telemetry.FEDERATION_COUNTS, broker),
        (telemetry.CONSUMER_COUNTS, consumer),
    ):
        for _name, _help, _label, read in table:
            assert set(read.values()) <= fields


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7.0

    def test_can_go_negative(self, registry):
        gauge = registry.gauge("delta")
        gauge.dec(3)
        assert gauge.value == -3.0


class TestHistogram:
    def test_count_and_sum(self, registry):
        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(5.55)

    def test_cumulative_buckets_end_at_inf(self, registry):
        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        buckets = histogram.labels().cumulative_buckets()
        assert buckets == [(0.1, 1), (1.0, 2), (float("inf"), 3)]

    def test_boundary_value_lands_in_its_bucket(self, registry):
        # Prometheus buckets are inclusive upper bounds.
        histogram = registry.histogram("lat", buckets=(1.0,))
        histogram.observe(1.0)
        assert histogram.labels().cumulative_buckets()[0] == (1.0, 1)

    def test_every_default_boundary_is_inclusive(self, registry):
        # Regression for the bisect-based bucket lookup: a value exactly
        # on any default boundary must land in that bucket, never the
        # next one up (Prometheus `le` is an inclusive upper bound).
        histogram = registry.histogram(
            "lat", buckets=DEFAULT_LATENCY_BUCKETS
        )
        for boundary in DEFAULT_LATENCY_BUCKETS:
            histogram.observe(boundary)
        cumulative = histogram.labels().cumulative_buckets()
        for index, (bound, count) in enumerate(cumulative[:-1]):
            assert bound == DEFAULT_LATENCY_BUCKETS[index]
            assert count == index + 1, f"boundary {bound} leaked upward"
        assert cumulative[-1] == (float("inf"), len(DEFAULT_LATENCY_BUCKETS))

    def test_just_past_boundary_lands_in_next_bucket(self, registry):
        histogram = registry.histogram("lat", buckets=(1.0, 2.0))
        histogram.observe(1.0000001)
        assert histogram.labels().cumulative_buckets() == [
            (1.0, 0), (2.0, 1), (float("inf"), 1)
        ]

    def test_boundary_on_labeled_family(self, registry):
        family = registry.histogram(
            "lat", buckets=(0.5, 1.0), labelnames=("op",)
        )
        family.labels(op="read").observe(0.5)
        family.labels(op="write").observe(1.0)
        assert family.labels(op="read").cumulative_buckets()[0] == (0.5, 1)
        assert family.labels(op="write").cumulative_buckets() == [
            (0.5, 0), (1.0, 1), (float("inf"), 1)
        ]

    def test_unsorted_buckets_are_sorted(self, registry):
        histogram = registry.histogram("lat", buckets=(5.0, 1.0))
        assert histogram.buckets == (1.0, 5.0)

    def test_empty_buckets_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("lat", buckets=())


class TestRegistry:
    def test_registration_is_idempotent(self, registry):
        first = registry.counter("jobs_total")
        second = registry.counter("jobs_total")
        assert first is second
        first.inc()
        assert second.value == 1

    def test_kind_mismatch_raises(self, registry):
        registry.counter("jobs_total")
        with pytest.raises(ValueError):
            registry.gauge("jobs_total")

    def test_label_mismatch_raises(self, registry):
        registry.counter("jobs_total", labelnames=("status",))
        with pytest.raises(ValueError):
            registry.counter("jobs_total", labelnames=("outcome",))

    def test_get_and_families(self, registry):
        registry.gauge("b_metric")
        registry.counter("a_metric")
        assert registry.get("a_metric") is not None
        assert registry.get("missing") is None
        assert [family.name for family in registry.families()] == [
            "a_metric",
            "b_metric",
        ]

    def test_concurrent_increments_are_not_lost(self, registry):
        counter = registry.counter("hits_total", labelnames=("worker",))

        def hammer(worker):
            child = counter.labels(worker=worker)
            for _ in range(1000):
                child.inc()

        threads = [
            threading.Thread(target=hammer, args=(str(i % 2),)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.labels(worker="0").value == 2000
        assert counter.labels(worker="1").value == 2000


class TestExposition:
    def test_render_parse_round_trip(self, registry):
        results = registry.counter(
            "repro_results_total", "terminal results", labelnames=("status",)
        )
        results.labels(status="ok").inc(4)
        results.labels(status="failed").inc()
        registry.gauge("repro_depth", "queue depth").set(2)
        text = registry.render_prometheus()
        parsed = parse_prometheus(text)
        assert parsed["repro_results_total"]['status="ok"'] == 4
        assert parsed["repro_results_total"]['status="failed"'] == 1
        assert parsed["repro_depth"][""] == 2

    def test_type_and_help_lines(self, registry):
        registry.counter("repro_jobs_total", "jobs seen")
        text = registry.render_prometheus()
        assert "# HELP repro_jobs_total jobs seen" in text
        assert "# TYPE repro_jobs_total counter" in text
        assert {line.split()[2] for line in text.splitlines() if line.startswith("# TYPE ")} == {"repro_jobs_total"}

    def test_histogram_exposition_shape(self, registry):
        histogram = registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(2.0)
        parsed = parse_prometheus(registry.render_prometheus())
        buckets = parsed["repro_lat_seconds_bucket"]
        assert buckets['le="0.1"'] == 1
        assert buckets['le="1"'] == 1
        assert buckets['le="+Inf"'] == 2
        assert parsed["repro_lat_seconds_count"][""] == 2
        assert parsed["repro_lat_seconds_sum"][""] == pytest.approx(2.05)

    def test_label_values_are_escaped(self, registry):
        family = registry.counter("repro_odd_total", labelnames=("name",))
        family.labels(name='with "quotes" and \\slash').inc()
        text = registry.render_prometheus()
        assert '\\"quotes\\"' in text
        assert "\\\\slash" in text

    def test_snapshot_is_json_shaped(self, registry):
        registry.counter("repro_jobs_total", "jobs").inc(2)
        histogram = registry.histogram("repro_lat_seconds", buckets=(1.0,))
        histogram.observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["repro_jobs_total"]["kind"] == "counter"
        assert snapshot["repro_jobs_total"]["samples"][0]["value"] == 2
        lat = snapshot["repro_lat_seconds"]["samples"][0]
        assert lat["count"] == 1
        assert lat["buckets"][-1]["count"] == 1

    def test_default_latency_buckets_are_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
