#!/usr/bin/env python
"""Broker durability smoke (run in CI).

Drives the full crash-recovery story over real TCP sockets:

1. a journal-backed broker admits a bag of tasklets — two complete,
   three are still pending when the broker is killed;
2. a second broker incarnation replays the journal on the same port:
   the three pending tasklets are recovered and re-issued, and the
   reconnecting consumer's resubmission of the two completed ids is
   answered from the journal without re-executing anything;
3. identical submissions (same program/entry/args/seed/fuel) are served
   from the result cache — the hit shows up on ``/metrics``;
4. ``python -m repro journal`` summarises the journal file (kept as a
   CI artifact on failure).

Exit code 0 when every assertion holds; stack trace otherwise.
"""

import argparse
import json
import sys

from repro.cli import main as cli_main
from repro.common.errors import BrokerUnreachable
from repro.core import kernels
from repro.obs import parse_prometheus
from repro.transport.tcp import TcpConsumer, TcpProvider

from _cluster import fetch, start_broker, wait_for

DONE = [("done-0", 150), ("done-1", 151)]
LOST = [("lost-0", 152), ("lost-1", 153), ("lost-2", 154)]


def submit_bag(consumer, bag):
    return [
        consumer.library.submit(kernels.PRIME_COUNT, args=[limit], tasklet_id=tid)
        for tid, limit in bag
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--journal", default="work_journal.jsonl",
        help="journal path (CI artifact on failure)",
    )
    args = parser.parse_args()

    # -- incarnation 1: admit work, complete some, crash --------------------
    first = start_broker(args.journal, obs_port=0)
    host, port = first.address
    consumer = TcpConsumer(host, port, node_id="smoke-consumer").start()
    try:
        provider = TcpProvider(
            host, port, node_id="p1", benchmark_score=1e7, capacity=2
        ).start()
        wait_for(lambda: len(first.core.registry) >= 1, 10, "registration")
        done_values = [f.result(timeout=60) for f in submit_bag(consumer, DONE)]
        assert done_values == [kernels.python_prime_count(n) for _, n in DONE]
        provider.stop()  # nothing left to run the next bag
        wait_for(
            lambda: len(first.core.registry) == 0, 10, "provider unregistration"
        )
        pending = submit_bag(consumer, LOST)
        wait_for(
            lambda: first.core.pending_tasklets == len(LOST), 10, "admission"
        )
        print(f"incarnation 1: {len(DONE)} completed, {len(LOST)} pending — killing broker")
        first.stop()
        for future in pending:
            try:
                future.result(timeout=10)
                raise AssertionError("pending future survived the crash")
            except BrokerUnreachable:
                pass  # typed, immediate — the documented failure surface
    except BaseException:
        consumer.stop()
        first.stop()
        raise

    # -- incarnation 2: replay, recover, redeliver, memoize -----------------
    second = start_broker(args.journal, port=port, obs_port=0)
    provider = None
    try:
        stats = second.core.stats
        assert stats.tasklets_recovered == len(LOST), stats.tasklets_recovered
        print(f"incarnation 2: recovered {stats.tasklets_recovered} pending tasklet(s)")

        consumer.reconnect()
        futures = submit_bag(consumer, DONE + LOST)
        provider = TcpProvider(
            host, port, node_id="p1", benchmark_score=1e7, capacity=2
        ).start()
        values = consumer.library.gather(futures, timeout=120)
        assert values == [kernels.python_prime_count(n) for _, n in DONE + LOST]
        assert stats.completions_redelivered == len(DONE), stats.completions_redelivered
        assert stats.executions_issued == len(LOST), stats.executions_issued
        print(
            f"recovery: {len(DONE + LOST)} results, "
            f"{stats.completions_redelivered} redelivered from the journal, "
            f"{stats.executions_issued} executed (exactly once each)"
        )

        # Identical computations: once the first completes, the second
        # submission is answered from the result cache without executing.
        first_value = consumer.library.submit(
            kernels.PRIME_COUNT, args=[400], seed=7, tasklet_id="memo-a"
        ).result(timeout=60)
        second_value = consumer.library.submit(
            kernels.PRIME_COUNT, args=[400], seed=7, tasklet_id="memo-b"
        ).result(timeout=60)
        assert first_value == second_value
        assert stats.memo_hits == 1, stats.memo_hits
        assert stats.executions_issued == len(LOST) + 1, stats.executions_issued

        parsed = parse_prometheus(fetch(second.obs.url + "/metrics"))
        cache = parsed.get("repro_broker_memo_cache_total", {})
        assert cache.get('result="hit"') == 1, cache
        recovered = parsed.get("repro_broker_tasklets_recovered_total", {})
        assert recovered.get("") == len(LOST), recovered
        redelivered = parsed.get("repro_broker_completions_redelivered_total", {})
        assert redelivered.get("") == len(DONE), redelivered
        records = parsed.get("repro_broker_journal_records_total", {})
        assert records.get('kind="admitted"', 0) >= 1, records
        hits, misses = cache.get('result="hit"'), cache.get('result="miss"')
        print(f"/metrics: memo_cache hit={hits} miss={misses}, journal records {records}")
    finally:
        if provider is not None:
            provider.stop()
        consumer.stop()
        second.stop()

    assert cli_main(["journal", args.journal]) == 0
    document = json.loads(fetch_journal_json(args.journal))
    assert document["pending"] == [], document["pending"]
    print("durability smoke OK")
    return 0


def fetch_journal_json(path: str) -> str:
    from io import StringIO
    from contextlib import redirect_stdout

    buffer = StringIO()
    with redirect_stdout(buffer):
        assert cli_main(["journal", path, "--format", "json"]) == 0
    return buffer.getvalue()


if __name__ == "__main__":
    sys.exit(main())
