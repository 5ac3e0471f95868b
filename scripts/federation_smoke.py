#!/usr/bin/env python
"""Broker federation smoke (run in CI).

Drives the broker-loss survival story over real TCP sockets:

1. three federated brokers come up, each journal-backed and each naming
   the other two as peers (and their journal paths for handoff);
2. providers attach to b2 and b3 only, so b1 — the consumer's first
   choice — forwards every admission it accepts;
3. a bag of tasklets is submitted through b1, which is then killed
   mid-workload (no drain, no goodbye);
4. the consumer fails over to a surviving broker on its own, in-flight
   futures fail typed, and idempotent resubmission recovers the rest;
5. the cross-journal audit proves exactly-once: every tasklet value is
   correct, and each tasklet's ``executed_by`` names exactly one broker
   — never the one that died.

Exit code 0 when every assertion holds; stack trace otherwise.  The
journals and the flight-recorder event log are CI artifacts on failure.
"""

import argparse
import sys

from repro.broker.core import BrokerConfig
from repro.broker.journal import replay_journal
from repro.common.errors import BrokerUnreachable
from repro.core import kernels
from repro.obs import FlightRecorder, Telemetry
from repro.transport.tcp import TcpBroker, TcpConsumer, TcpProvider

from _cluster import CONFIG, free_ports, peer_has_slots, wait_for

BROKER_IDS = ("b1", "b2", "b3")
BAG = [(f"fed-{i}", 200 + 10 * i) for i in range(8)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--journal-dir", default=".",
        help="directory for the three broker journals (CI artifacts)",
    )
    parser.add_argument(
        "--events-log", default="federation_events.jsonl",
        help="flight-recorder JSONL (CI artifact on failure)",
    )
    args = parser.parse_args()

    ports = free_ports(len(BROKER_IDS))
    addresses = {bid: ("127.0.0.1", p) for bid, p in zip(BROKER_IDS, ports)}
    journals = {
        bid: f"{args.journal_dir}/journal_{bid}.jsonl" for bid in BROKER_IDS
    }
    telemetry = Telemetry(events=FlightRecorder(jsonl_path=args.events_log))

    brokers = {}
    for bid in BROKER_IDS:
        brokers[bid] = TcpBroker(
            host="127.0.0.1",
            port=addresses[bid][1],
            config=BrokerConfig(**CONFIG),
            telemetry=telemetry if bid == "b1" else None,
            journal_path=journals[bid],
            broker_id=bid,
            peers={o: addresses[o] for o in BROKER_IDS if o != bid},
            peer_journals={o: journals[o] for o in BROKER_IDS if o != bid},
            gossip_interval=0.2,
        ).start()
    print(f"federation up: {', '.join(f'{b}@{addresses[b][1]}' for b in BROKER_IDS)}")

    providers = []
    consumer = None
    try:
        for bid, name in (("b2", "p2"), ("b3", "p3")):
            providers.append(
                TcpProvider(
                    *addresses[bid], node_id=name, capacity=2,
                    benchmark_score=1e7,
                ).start()
            )
        wait_for(
            lambda: peer_has_slots(brokers["b1"], "b2")
            and peer_has_slots(brokers["b1"], "b3"),
            15, "gossip to carry peer capacity to b1",
        )

        consumer = TcpConsumer(
            node_id="smoke-consumer",
            brokers=[addresses[b] for b in BROKER_IDS],
            telemetry=telemetry,
        ).start()
        arguments = dict(BAG)
        futures = {
            tid: consumer.library.submit(
                kernels.PRIME_COUNT, args=[limit], tasklet_id=tid
            )
            for tid, limit in BAG
        }
        wait_for(
            lambda: brokers["b1"].core.stats.tasklets_submitted >= len(BAG),
            15, "b1 to admit the bag",
        )
        print(f"killing b1 with {len(BAG)} tasklets in flight")
        brokers["b1"].stop()

        values = {}
        for tid, future in futures.items():
            try:
                values[tid] = future.result(timeout=30)
            except BrokerUnreachable:
                pass
        lost = [tid for tid, _ in BAG if tid not in values]
        print(f"{len(values)} results before the kill, {len(lost)} to recover")

        wait_for(
            lambda: consumer.connected,
            15, "consumer failover to a surviving broker",
        )
        for tid in lost:
            values[tid] = consumer.library.submit(
                kernels.PRIME_COUNT, args=[arguments[tid]], tasklet_id=tid
            ).result(timeout=60)

        for tid, limit in BAG:
            expected = kernels.python_prime_count(limit)
            assert values[tid] == expected, (tid, values[tid], expected)
        print(f"all {len(BAG)} tasklets completed with correct values")

        executed_by = {tid: set() for tid, _ in BAG}
        for path in journals.values():
            snapshot = replay_journal(path)
            for completion in snapshot.completions.values():
                tid = completion.tasklet_id
                if tid in executed_by and completion.executed_by:
                    executed_by[tid].add(completion.executed_by)
        for tid, _ in BAG:
            assert len(executed_by[tid]) == 1, (
                f"{tid} executed by {sorted(executed_by[tid]) or 'nobody'}"
            )
        winners = set().union(*executed_by.values())
        assert winners <= {"b2", "b3"}, winners
        print(f"cross-journal audit: exactly one executor per tasklet {sorted(winners)}")

        failovers = telemetry.events.events(kind="broker_failover")
        assert failovers, "no broker_failover event recorded"
        print(f"events: {len(failovers)} broker_failover recorded")
    finally:
        if consumer is not None:
            consumer.stop()
        for provider in providers:
            provider.stop()
        for broker in brokers.values():
            try:
                broker.stop()
            except Exception:
                pass

    print("federation smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
