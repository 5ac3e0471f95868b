#!/usr/bin/env python
"""Federated workflow tracing smoke (run in CI).

Proves the cluster-wide trace plane over real TCP sockets:

1. three federated brokers come up, each with its own Telemetry (so
   spans land in three separate stores) and its own ObsServer, each
   naming the other two as ``peer_obs_urls``;
2. providers attach to b2 and b3 only, so b1 — where the workflow is
   submitted — must forward every node to a peer;
3. a chain workflow runs to completion through b1;
4. one HTTP query against b1 — ``/traces?workflow_id=`` — must return a
   SINGLE trace: the federated span pull merges b2/b3's spans, the tree
   reconstructs with one connected root, every node of the DAG appears,
   at least one ``broker.forward`` span proves the cross-broker hop, and
   the critical path is non-empty with phase totals within 10% of the
   makespan;
5. the Chrome trace-event export is written as a CI artifact and
   structurally validated.

Exit code 0 when every assertion holds; stack trace otherwise.
"""

import argparse
import json
import sys
import urllib.request

from repro.broker.core import BrokerConfig
from repro.dag.patterns import chain, reference_values
from repro.obs import Telemetry, analyze_workflow, build_trace_tree
from repro.obs.trace import Span
from repro.transport.tcp import TcpBroker, TcpConsumer, TcpProvider

from _cluster import CONFIG, free_ports, peer_has_slots, wait_for

BROKER_IDS = ("b1", "b2", "b3")


def get_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.load(response)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--chrome-out", default="trace_smoke_chrome.json",
        help="Chrome trace-event JSON artifact path",
    )
    args = parser.parse_args()

    ports = free_ports(2 * len(BROKER_IDS))
    addresses = {
        bid: ("127.0.0.1", port)
        for bid, port in zip(BROKER_IDS, ports[: len(BROKER_IDS)])
    }
    obs_urls = {
        bid: f"http://127.0.0.1:{port}"
        for bid, port in zip(BROKER_IDS, ports[len(BROKER_IDS):])
    }
    telemetries = {bid: Telemetry() for bid in BROKER_IDS}

    brokers = {}
    for bid in BROKER_IDS:
        obs_port = int(obs_urls[bid].rsplit(":", 1)[1])
        brokers[bid] = TcpBroker(
            host="127.0.0.1",
            port=addresses[bid][1],
            config=BrokerConfig(**CONFIG),
            telemetry=telemetries[bid],
            obs_port=obs_port,
            broker_id=bid,
            peers={o: addresses[o] for o in BROKER_IDS if o != bid},
            peer_obs_urls={o: obs_urls[o] for o in BROKER_IDS if o != bid},
            gossip_interval=0.2,
        ).start()
    print(
        "federation up: "
        + ", ".join(f"{b}@{addresses[b][1]} obs={obs_urls[b]}" for b in BROKER_IDS)
    )

    providers = []
    consumer = None
    try:
        # Each provider shares its broker's telemetry (the co-located
        # deployment shape): its ``provider.execute`` spans land in that
        # broker's store and travel with the federated span pull.
        for bid, name in (("b2", "p2"), ("b3", "p3")):
            providers.append(
                TcpProvider(
                    *addresses[bid], node_id=name, capacity=2,
                    benchmark_score=1e7, telemetry=telemetries[bid],
                ).start()
            )
        wait_for(
            lambda: peer_has_slots(brokers["b1"], "b2")
            and peer_has_slots(brokers["b1"], "b3"),
            15, "gossip to carry peer capacity to b1",
        )

        # The consumer shares b1's telemetry: its root ``workflow`` span
        # lands in b1's store, next to b1's broker-side spans.
        consumer = TcpConsumer(
            *addresses["b1"], node_id="trace-consumer",
            telemetry=telemetries["b1"],
        ).start()
        spec = chain(4, work=200, salt=11)
        reference = reference_values(spec)
        handle = consumer.submit_workflow(spec)
        outputs = handle.result(timeout=60)
        assert outputs == {
            node_id: reference[node_id]
            for node_id in outputs
        }, (outputs, reference)
        print(f"workflow {spec.workflow_id} completed: {outputs}")

        # b1 never had a provider: every node must have been forwarded.
        forwarded = brokers["b1"].core.stats.tasklets_forwarded
        assert forwarded >= 1, "b1 forwarded nothing despite having no providers"
        print(f"b1 forwarded {forwarded} node tasklet(s) to peers")

        # One HTTP query against b1 merges the whole federation's spans.
        doc = wait_for(
            lambda: (
                lambda d: d if any(
                    s["name"] == "provider.execute" for s in d["spans"]
                ) else None
            )(
                get_json(
                    f"{obs_urls['b1']}/traces?format=json"
                    f"&workflow_id={spec.workflow_id}"
                )
            ),
            15, "federated span pull to include peer executions",
        )
        spans = [Span.from_dict(item) for item in doc["spans"]]
        assert spans, "no spans for the workflow"
        trace_ids = {span.trace_id for span in spans}
        assert len(trace_ids) == 1, f"expected one trace id, got {trace_ids}"
        print(f"single trace id across the federation: {trace_ids.pop()}")

        nodes_seen = {
            span.attrs["node_id"] for span in spans if span.name == "wf.node"
        }
        want = {node.node_id for node in spec.nodes}
        assert nodes_seen == want, (nodes_seen, want)
        recording_nodes = {span.node for span in spans}
        assert len(recording_nodes & {"b2", "b3"}) >= 1, recording_nodes
        forwards = [span for span in spans if span.name == "broker.forward"]
        assert forwards, "no broker.forward span in the merged trace"

        roots = build_trace_tree(spans)
        assert len(roots) == 1, [root.span.name for root in roots]
        assert roots[0].span.name == "workflow", roots[0].span.name
        assert not roots[0].span.attrs.get("evicted"), "root was synthesized"
        print(
            f"connected tree: one root ({roots[0].span.name}), "
            f"{len(spans)} spans, {len(forwards)} forward hop(s), "
            f"recorded on {sorted(recording_nodes)}"
        )

        analysis = analyze_workflow(spans, spec.workflow_id)
        assert analysis is not None
        assert analysis.critical_path, "empty critical path"
        totals = analysis.phase_totals()
        total = sum(totals.values())
        assert analysis.makespan > 0
        drift = abs(total - analysis.makespan) / analysis.makespan
        assert drift < 0.10, f"phase totals drift {drift:.1%} from makespan"
        print(
            f"critical path {' -> '.join(analysis.critical_path)}; "
            f"phases sum {total * 1e3:.1f}ms vs makespan "
            f"{analysis.makespan * 1e3:.1f}ms (drift {drift:.1%})"
        )

        with urllib.request.urlopen(
            f"{obs_urls['b1']}/traces?format=chrome"
            f"&workflow_id={spec.workflow_id}",
            timeout=10,
        ) as response:
            chrome = json.load(response)
        events = chrome["traceEvents"]
        assert events, "empty chrome trace"
        for event in events:
            assert event["ph"] in ("X", "M"), event
            assert isinstance(event["pid"], int)
        with open(args.chrome_out, "w") as handle_out:
            json.dump(chrome, handle_out)
        print(f"chrome trace artifact: {args.chrome_out} ({len(events)} events)")
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

    print("trace smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
