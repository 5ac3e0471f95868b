#!/usr/bin/env python
"""End-to-end observability smoke (run in CI).

Boots a TCP broker and two providers, all with live ObsServer
endpoints, runs a small workload with one provider artificially slowed,
and asserts the operational plane sees it:

* ``/metrics`` carries the straggler alert counter and health gauges;
* ``/events`` holds the ``straggler_alert`` flight-recorder event;
* ``/healthz`` and ``/readyz`` answer on broker and providers;
* the broker's flight recorder mirrored every event to a JSONL file
  (uploaded as a CI artifact).

The slow provider over-claims its benchmark score, so the
``fastest_first`` strategy reliably routes work to it, and its injected
execution delay blows straight through the watchdog's expected runtime
— the same overpromising-device scenario the health model exists for.

Exit code 0 when every assertion holds; stack trace otherwise.
"""

import argparse
import json
import sys
import time

from repro.core import kernels
from repro.obs import FlightRecorder, Telemetry, parse_prometheus
from repro.obs import events as ev
from repro.transport.tcp import TcpBroker, TcpConsumer, TcpProvider

from _cluster import fetch, wait_for

WARMUP_TASKS = 2  # teach the watchdog the program's runtime profile
MAIN_TASKS = 4
LIMIT = 300  # prime_count argument; small, so honest runs are fast


def alive_providers(base: str) -> int:
    return json.loads(fetch(base + "/healthz")).get("providers_alive", 0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--events-log", default="obs_events.jsonl",
        help="JSONL flight-recorder mirror (CI artifact)",
    )
    parser.add_argument(
        "--delay", type=float, default=3.0,
        help="injected per-execution delay on the slow provider",
    )
    args = parser.parse_args()

    telemetry = Telemetry(events=FlightRecorder(jsonl_path=args.events_log))
    broker = TcpBroker(
        strategy="fastest_first", telemetry=telemetry, obs_port=0
    ).start()
    fast = slow = None
    try:
        host, port = broker.address
        base = broker.obs.url
        print(f"broker obs plane at {base}")

        fast = TcpProvider(
            host, port, node_id="fast", benchmark_score=1e5, capacity=2,
            obs_port=0,
        ).start()
        wait_for(lambda: alive_providers(base) >= 1, 10, "fast registration")

        # Warmup on the honest provider teaches the watchdog how long
        # this program actually takes.
        with TcpConsumer(host, port) as consumer:
            futures = consumer.library.map(
                kernels.PRIME_COUNT, [[LIMIT]] * WARMUP_TASKS
            )
            consumer.library.gather(futures, timeout=60)
        print(f"warmup: {WARMUP_TASKS} tasklets on the honest provider")

        # The straggler: claims a fantasy benchmark score (so
        # fastest_first prefers it) and sleeps before every execution.
        slow = TcpProvider(
            host, port, node_id="slow-liar", benchmark_score=1e12,
            capacity=2, obs_port=0,
        )
        real_execute = slow.core.executor.execute

        def delayed_execute(request):
            time.sleep(args.delay)
            return real_execute(request)

        slow.core.executor.execute = delayed_execute
        slow.start()
        wait_for(lambda: alive_providers(base) >= 2, 10, "slow registration")

        with TcpConsumer(host, port) as consumer:
            futures = consumer.library.map(
                kernels.PRIME_COUNT, [[LIMIT]] * MAIN_TASKS
            )
            # The watchdog alert fires on a broker tick mid-execution,
            # well before the delayed results land.
            wait_for(
                lambda: parse_prometheus(fetch(base + "/metrics"))
                .get("repro_health_alerts_total", {})
                .get('kind="straggler_alert"'),
                30,
                "straggler alert on /metrics",
            )
            values = consumer.library.gather(futures, timeout=120)
        expected = kernels.python_prime_count(LIMIT)
        assert values == [expected] * MAIN_TASKS, values
        print(f"workload: {MAIN_TASKS} tasklets completed correctly")

        parsed = parse_prometheus(fetch(base + "/metrics"))
        alerts = parsed["repro_health_alerts_total"]['kind="straggler_alert"']
        assert alerts >= 1, parsed.get("repro_health_alerts_total")
        print(f"/metrics: repro_health_alerts_total straggler_alert={alerts}")

        events = json.loads(fetch(f"{base}/events?kind={ev.STRAGGLER_ALERT}"))
        straggler_events = events["events"]
        assert straggler_events, "no straggler_alert events on /events"
        assert all(
            event["node"] == "slow-liar" for event in straggler_events
        ), straggler_events
        print(f"/events: {len(straggler_events)} straggler_alert event(s) "
              "on slow-liar")

        health = json.loads(fetch(base + "/healthz"))
        assert health["role"] == "broker"
        assert health["status"] in ("ok", "degraded"), health
        grades = {
            card["provider_id"]: card["grade"] for card in health["providers"]
        }
        assert set(grades) == {"fast", "slow-liar"}, grades
        print(f"/healthz: status={health['status']} grades={grades}")

        assert json.loads(fetch(base + "/readyz"))["ready"] is True
        for provider in (fast, slow):
            doc = json.loads(fetch(provider.obs.url + "/healthz"))
            assert doc["connected"] is True, doc
            assert fetch(provider.obs.url + "/metrics")
        print("/readyz + both provider obs planes answered")

        with open(args.events_log, encoding="utf-8") as handle:
            logged = [json.loads(line) for line in handle if line.strip()]
        kinds = {event["kind"] for event in logged}
        assert ev.STRAGGLER_ALERT in kinds, sorted(kinds)
        assert ev.NODE_JOIN in kinds, sorted(kinds)
        print(f"{args.events_log}: {len(logged)} events, kinds={sorted(kinds)}")
        print("obs smoke OK")
        return 0
    finally:
        for provider in (slow, fast):
            if provider is not None:
                provider.stop()
        broker.stop()


if __name__ == "__main__":
    sys.exit(main())
