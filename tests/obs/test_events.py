"""Flight recorder: ring bounds, filtering, counters, JSONL rotation."""

import json
import os
import threading

import pytest

from repro.obs import events as ev
from repro.obs.events import Event, FlightRecorder
from repro.obs.health import HealthMetrics
from repro.obs.metrics import MetricsRegistry, parse_prometheus
from repro.obs.telemetry import Telemetry


class TestRing:
    def test_records_are_ordered_and_typed(self):
        recorder = FlightRecorder()
        first = recorder.record(ev.NODE_JOIN, node="p1", ts=1.0, capacity=2)
        second = recorder.record(ev.PLACEMENT, node="p1", ts=2.0)
        assert isinstance(first, Event)
        assert first.seq == 1 and second.seq == 2
        assert [e.kind for e in recorder.events()] == [ev.NODE_JOIN, ev.PLACEMENT]
        assert first.attrs == {"capacity": 2}

    def test_explicit_timestamp_is_kept_verbatim(self):
        recorder = FlightRecorder()
        assert recorder.record("x", ts=42.5).ts == 42.5

    def test_default_timestamp_is_wall_time(self):
        recorder = FlightRecorder()
        assert recorder.record("x").ts > 1e9  # time.time(), not 0

    def test_capacity_bounds_the_ring_and_counts_drops(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(5):
            recorder.record("k", ts=float(i))
        assert len(recorder) == 3
        assert recorder.dropped == 2
        # Oldest evicted: seq 1 and 2 gone, 3..5 remain.
        assert [e.seq for e in recorder.events()] == [3, 4, 5]

    def test_kind_filter_and_limit(self):
        recorder = FlightRecorder()
        for i in range(4):
            recorder.record(ev.PLACEMENT, ts=float(i), n=i)
        recorder.record(ev.NODE_DEAD, ts=9.0)
        placements = recorder.events(kind=ev.PLACEMENT, limit=2)
        assert [e.attrs["n"] for e in placements] == [2, 3]
        assert recorder.events(kind="nope") == []

    def test_alerts_selects_alert_kinds_only(self):
        # What ``repro top`` shows first: the recorded events of an alert kind.
        recorder = FlightRecorder()
        recorder.record(ev.PLACEMENT, ts=1.0)
        recorder.record(ev.STRAGGLER_ALERT, ts=2.0)
        recorder.record(ev.FLAPPING_ALERT, ts=3.0)
        alerts = [e.kind for e in recorder.events() if e.kind in ev.ALERT_KINDS]
        assert alerts == [ev.STRAGGLER_ALERT, ev.FLAPPING_ALERT]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_concurrent_recording_loses_nothing(self):
        recorder = FlightRecorder(capacity=10_000)

        def spam(tag):
            for i in range(500):
                recorder.record("k", node=tag, ts=float(i))

        threads = [
            threading.Thread(target=spam, args=(str(t),)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(recorder) == 2000
        seqs = [e.seq for e in recorder.events()]
        assert sorted(seqs) == list(range(1, 2001))


class TestCounterMirror:
    def test_attached_counter_tracks_kinds(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder()
        recorder.attach_counter(
            registry.counter("repro_events_total", "events", labelnames=("kind",))
        )
        recorder.record(ev.PLACEMENT, ts=1.0)
        recorder.record(ev.PLACEMENT, ts=2.0)
        recorder.record(ev.NODE_DEAD, ts=3.0)
        text = registry.render_prometheus()
        assert 'repro_events_total{kind="placement"} 2' in text
        assert 'repro_events_total{kind="node_dead"} 1' in text

    def test_telemetry_wires_the_counter_automatically(self):
        telemetry = Telemetry()
        telemetry.events.record(ev.REISSUE, ts=1.0)
        assert (
            'repro_events_total{kind="reissue"} 1'
            in telemetry.registry.render_prometheus()
        )

    def test_telemetry_keeps_a_caller_supplied_recorder(self, tmp_path):
        # Regression: an empty FlightRecorder is falsy (len 0), so a
        # truthiness-based default would silently drop the caller's
        # JSONL-backed recorder.
        path = tmp_path / "events.jsonl"
        recorder = FlightRecorder(jsonl_path=str(path))
        telemetry = Telemetry(events=recorder)
        assert telemetry.events is recorder
        telemetry.events.record(ev.NODE_JOIN, node="p1", ts=1.0)
        assert '"kind": "node_join"' in path.read_text()


    def test_an_alert_is_counted_once_and_read_by_the_alert_family(self):
        telemetry = Telemetry()
        for _broker in range(2):  # brokers sharing one telemetry register it once
            HealthMetrics(telemetry.registry, telemetry.events)
        family = telemetry.registry.get("repro_health_alerts_total")
        assert family.children() == []
        telemetry.events.record(ev.STRAGGLER_ALERT, node="p1", ts=1.0)
        telemetry.events.record(ev.PEER_DOWN, node="b2", ts=2.0)
        telemetry.events.record(ev.DISCONNECT, node="c1", ts=3.0)  # a client's, no alert here
        parsed = parse_prometheus(telemetry.registry.render_prometheus())
        assert parsed["repro_health_alerts_total"] == {
            'kind="peer_down"': 1, 'kind="straggler_alert"': 1,
        }
        assert parsed["repro_events_total"]['kind="straggler_alert"'] == 1
        with pytest.raises(AttributeError):
            family.labels(kind=ev.STRAGGLER_ALERT).inc()


class TestJsonlSink:
    def test_events_are_mirrored_as_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        recorder = FlightRecorder(jsonl_path=str(path))
        recorder.record(ev.NODE_JOIN, node="p1", ts=1.0, capacity=2)
        recorder.record(ev.NODE_DEAD, node="p1", ts=2.0)
        recorder.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["kind"] for line in lines] == [ev.NODE_JOIN, ev.NODE_DEAD]
        assert lines[0]["attrs"] == {"capacity": 2}
        assert lines[0]["node"] == "p1"

    def test_rotation_shifts_generations_and_caps_them(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "JSONL_MAX_BYTES", 200)
        monkeypatch.setattr(ev, "JSONL_MAX_FILES", 2)
        path = tmp_path / "events.jsonl"
        recorder = FlightRecorder(jsonl_path=str(path))
        for i in range(50):
            recorder.record("fill", ts=float(i), payload="x" * 40)
        recorder.close()
        assert path.exists()
        assert (tmp_path / "events.jsonl.1").exists()
        assert (tmp_path / "events.jsonl.2").exists()
        assert not (tmp_path / "events.jsonl.3").exists()
        # Every surviving line is valid JSON, and the newest file holds
        # the newest events.
        all_ts = []
        for name in ("events.jsonl.2", "events.jsonl.1", "events.jsonl"):
            for line in (tmp_path / name).read_text().splitlines():
                all_ts.append(json.loads(line)["ts"])
        assert all_ts == sorted(all_ts)
        assert all_ts[-1] == 49.0

    def test_rotated_files_respect_max_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "JSONL_MAX_BYTES", 300)
        path = tmp_path / "events.jsonl"
        recorder = FlightRecorder(jsonl_path=str(path))
        for i in range(60):
            recorder.record("fill", ts=float(i), payload="y" * 50)
        recorder.close()
        for name in os.listdir(tmp_path):
            if name.startswith("events.jsonl."):
                # One oversized record may overshoot, but rotation keeps
                # each closed generation near the configured bound.
                assert (tmp_path / name).stat().st_size <= 300 + 120

    def test_ring_still_readable_after_close(self, tmp_path):
        recorder = FlightRecorder(jsonl_path=str(tmp_path / "e.jsonl"))
        recorder.record("k", ts=1.0)
        recorder.close()
        assert len(recorder.events()) == 1
        # Recording after close keeps working (ring only).
        recorder.record("k", ts=2.0)
        assert len(recorder.events()) == 2
