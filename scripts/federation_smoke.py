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
5. b2, b1's successor, sees b1 go silent past its peer horizon and
   adopts b1's journal (a ``journal_handoff`` event naming b1);
6. the cross-journal audit, read after the handoff, proves exactly-once:
   every tasklet value is correct, and each tasklet's ``executed_by``
   names exactly one broker — never the one that died.

Exit code 0 when every assertion holds; stack trace otherwise.  The
journals and the flight-recorder event log are CI artifacts on failure.
"""

import argparse
import os
import sys

from repro.bench.cluster import LocalCluster, wait_until
from repro.bench.experiments.exp_f7_churn import broker_kill
from repro.core import kernels
from repro.obs import FlightRecorder, Telemetry

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

    telemetry = Telemetry(events=FlightRecorder(jsonl_path=args.events_log))
    successor = Telemetry()
    with LocalCluster(
        *BROKER_IDS,
        journal=os.path.join(args.journal_dir, "journal_{id}.jsonl"),
        telemetry={"b1": telemetry, "b2": successor},
    ) as cluster:
        ports = ", ".join(f"{b}@{cluster.addresses[b][1]}" for b in BROKER_IDS)
        print(f"federation up: {ports}")
        values, lost, _ = broker_kill(cluster, BAG)
        print(f"killed b1 with {len(BAG)} tasklets in flight; {len(lost)} resubmitted")
        wait_until(
            lambda: successor.events.events(kind="journal_handoff"), 15,
            "b2 to adopt b1's journal",
        )
        (handoff,) = successor.events.events(kind="journal_handoff")
        assert handoff.node == "b1", handoff
        print(
            f"b2 adopted b1's journal: {handoff.attrs['pending']} pending, "
            f"{handoff.attrs['completions']} completions"
        )
        audit = cluster.executors()
    executed_by = {tid: audit.get(tid, set()) for tid, _ in BAG}

    for tid, limit in BAG:
        expected = kernels.python_prime_count(limit)
        assert values[tid] == expected, (tid, values[tid], expected)
    print(f"all {len(BAG)} tasklets completed with correct values")

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
    print("federation smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
