"""Architecture guards: the sizes and absences that keep each collapse
collapsed.  One row per guard; each row is a list of checks over the
source tree, with the patterns and bounds the CI workflow used to grep.
A size bound is lowered when its files shrink, never raised silently."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def files(*paths: str) -> list[Path]:
    """The files a path or glob names; a directory is walked (like ``grep -r``)."""
    found: list[Path] = []
    for path in paths:
        for match in sorted(ROOT.glob(path)):
            if match.is_dir():
                found += sorted(
                    p for p in match.rglob("*") if p.is_file() and "__pycache__" not in p.parts
                )
            else:
                found.append(match)
    return found


def hits(pattern: str, *paths: str, word: bool = False) -> list[str]:
    """``path:line`` of every line matching ``pattern`` (``grep -rnE``, ``-w``)."""
    regex = re.compile(rf"(?<!\w)(?:{pattern})(?!\w)" if word else pattern)
    return [
        f"{path.relative_to(ROOT)}:{number}"
        for path in files(*paths)
        for number, line in enumerate(path.read_text(errors="replace").splitlines(), 1)
        if regex.search(line)
    ]


def at_most(limit: int, *paths: str, each: bool = False):
    def check():
        sizes = {str(p.relative_to(ROOT)): p.read_text().count("\n") for p in files(*paths)}
        if not each:
            sizes = {" + ".join(paths): sum(sizes.values())}
        return [f"{name}: {size} lines > {limit}" for name, size in sizes.items() if size > limit]
    return check


def absent(pattern: str, *paths: str, word: bool = False):
    return lambda: [f"{pattern!r} at {hit}" for hit in hits(pattern, *paths, word=word)]


def exactly(count: int, pattern: str, *paths: str):
    def check():
        found = hits(pattern, *paths)
        return [] if len(found) == count else [f"{pattern!r}: {len(found)} lines, expected {count}: {found}"]
    return check


def only_in(allowed: str, pattern: str, *paths: str):
    return lambda: [hit for hit in hits(pattern, *paths) if not hit.startswith(allowed + ":")]


def gone(path: str):
    return lambda: [f"{path} exists"] if (ROOT / path).exists() else []


def mentions(path: str, text: str):
    return lambda: [] if text in (ROOT / path).read_text() else [f"{path} lacks {text!r}"]


TRANSPORT = "src/repro/transport/*.py"
KNOBS = (
    "straggler_multiple|straggler_min_expected_s|max_queued_replicas|memoize_results|"
    "peer_tolerance|forward_when_saturated|forward_resend_interval|max_hops|max_queue|"
    "program_cache_size|profile_executions|reconnect_backoff|reconnect_backoff_max|"
    "failover_backoff|failover_backoff_max|max_failover_attempts|journal_compact_bytes|"
    "auto_compact_bytes|MIN_APPENDS_BETWEEN_COMPACTIONS|flap_window_s|flap_threshold|"
    "reliability_warn|reliability_floor|reliability_min_samples|speed_warn_ratio|min_expected_s"
)
#: Counter families whose one count is a stats-object field (obs/telemetry.py's tables).
COUNTED_IN_STATS = "|".join(
    f"repro_{name}_total"
    for name in (
        "broker_tasklets_submitted", "broker_executions_issued", "broker_replicas_queued",
        "broker_providers_failed", "broker_memo_cache", "broker_tasklets_recovered",
        "broker_completions_redelivered", "broker_replicas_overflowed",
        "broker_journal_compactions", "federation_forwards", "federation_handoff",
        "workflows_submitted", "workflows_completed", "consumer_tasklets_submitted",
        "consumer_tasklets_completed",
    )
)
LIFECYCLE = [f"src/repro/broker/{m}.py" for m in ("core", "workflows", "forwarding")]
NO_PROGRAM_DICT = [f"src/repro/{p}" for p in ("consumer", "broker", "provider", "dag", "transport", "core")]

GUARDS = {
    # One drain, no list-based backlog beside the Backlog class, no telemetry guards in the core.
    "broker-stays-split": [
        at_most(962, "src/repro/broker/*.py", each=True),
        exactly(1, "def _drain_backlog", "src/repro/broker/*.py"),
        absent(r"self\._backlog", "src/repro/broker/*.py"),
        absent(
            r"self\.(_tracer|_events|_metrics|_fed_metrics|_wf_metrics|_health_metrics|health) "
            r"is (not )?None",
            "src/repro/broker/core.py",
        ),
    ],
    # The translator replaced the quickened interpreter; it did not join it.
    "two-execution-tiers": [
        at_most(4156, "src/repro/tvm/*.py"),
        absent("quicken|QOp", "src"),
    ],
    # Every node is one loop thread that owns its links (no lock), one dial loop opens every
    # outbound link, and tcp.py is the two client drivers and what they share.
    "one-link-for-every-node": [
        at_most(1806, TRANSPORT),
        at_most(364, "src/repro/transport/message.py"),
        absent(r"threading\.(Lock|RLock|Condition)", TRANSPORT),
        exactly(1, r"delay \* 2|backoff \* 2|\* 2\.0, ", TRANSPORT),  # one dial loop's backoff
        exactly(1, "async def dial", TRANSPORT),
        at_most(900, "src/repro/transport/tcp.py"),
        absent("^import multiprocessing", "src/repro/transport/tcp.py"),
        absent(
            "^class (TcpBroker|ProviderProcess|AioConnection|_Connection|_BrokerLink)",
            "src/repro/transport/tcp.py",
        ),
        absent(r"sendall|recv_envelopes|Stamp\b|_generation", TRANSPORT),
        absent(
            "_flushing|_flush_done|_CLOSE_FLUSH_TIMEOUT|_failover_enabled|_disconnected",
            "src/repro/transport/tcp.py",
        ),
    ],
    "broker-link-is-a-protocol": [
        absent(r"StreamReader|StreamWriter|run_reader|_flush_task|drain\(", "src/repro/transport/aio.py"),
    ],
    "unguarded-large-files-stop-growing": [
        at_most(933, "src/repro/cli.py"),
        at_most(829, "src/repro/broker/observer.py"),
    ],
    # A fact a stats object counts is not counted again: each such family is one row of
    # the table the exposition reads, and nothing in src/ holds it to call .inc() on.
    "one-count-per-fact": [
        exactly(15, COUNTED_IN_STATS, "src"),
        only_in("src/repro/obs/telemetry.py", COUNTED_IN_STATS, "src"),
        absent(
            r"_metrics\.(tasklets_submitted|executions_issued|replicas_queued|providers_failed|"
            r"memo_cache|tasklets_recovered|completions_redelivered|replicas_overflowed|"
            r"journal_compactions|forwards|handoff|submitted|completed)\b",
            "src",
        ),
        gone("src/repro/obs/bridge.py"),
    ],
    # The broker's durable memory is one module: the journal, the retained outcomes (the
    # result cache among them) and the one replay, for its own journal and for an adopted one.
    "durability-in-one-module": [
        absent(
            r"journal\.record_|COMPLETED_RETENTION|ResultCache\(|OrderedDict|journal is not None",
            *LIFECYCLE,
        ),
        only_in("src/repro/broker/durability.py", r"journal\.record_", "src"),
        absent(r"_maybe_compact_journal|_absorb|_remember_completion|def _remember", "src"),
    ],
    # An outcome is kept once and read once: one store answers resubmits and memo hits, and
    # an execution record or a workflow outcome is held as the record it was read into.
    "one-outcome-store": [
        absent(
            "ResultCache|RESULT_CACHE_SIZE|_retain|records_of|reads_as|_kept|with_value",
            "src", word=True,
        ),
    ],
    # Each was a parameter only a test set; tests/test_public_api.py pins what is settable.
    "every-tunable-has-a-caller": [
        absent(KNOBS, "src", "scripts", "examples", word=True),
        absent("heartbeat_tolerance", "src/repro/obs/health.py"),
    ],
    "one-codec": [
        absent(
            "CODEC_JSON|SUPPORTED_CODECS|choose_codec|accept_codec|send_codec|pack_frame|HelloAck",
            "src",
        ),
    ],
    "one-binary-codec": [absent("bin1", "src")],
    # Other threads reach a loop in _Node._await (1), _Node._hop (1), _Node._halt_loop (2)
    # and the broker's /healthz hop (1), and nowhere else.
    "one-thread-owns-each-node": [
        absent(
            r"threading\.(Lock|RLock|Condition)|_core_lock|_connections_lock|_queue_lock|on_loop\(",
            TRANSPORT,
        ),
        absent("LoopThread", "src"),
        exactly(5, "call_soon_threadsafe|run_coroutine_threadsafe", TRANSPORT),
    ],
    "one-message-table": [
        absent(
            '"(heartbeat|assign_execution|submit_tasklet|forward_complete|peer_hello)"',
            "src/repro/transport/codec.py",
        ),
        absent("_PACKED_TYPE_NAMES", "src"),
        absent("forwarded_to|forward_acked|forward_last_sent", "src/repro/broker/core.py"),
        absent(r"core\._tasklets\.values|_tasklets\.values", "src/repro/broker/forwarding.py"),
    ],
    "one-record-grammar": [
        absent(
            r"(int|str|bool|float)\((data|entry|record|outcome)(\.get\(|\[)",
            "src/repro/core", "src/repro/dag", "src/repro/broker", "src/repro/tvm",
        ),
        exactly(1, "def _accepted_types", "src"),
        absent("def _accepted_types", "src/repro/transport"),
        absent("_wire_tasklet", "src"),
    ],
    "code-crosses-as-bytes": [
        absent(r"program(\.to_dict\(\)|_dict)", *NO_PROGRAM_DICT),
        exactly(1, "def from_packed", "src"),
        absent(
            "need_program|lru_cache",
            "src/repro/tvm", "src/repro/broker", "src/repro/provider", "src/repro/transport",
        ),
    ],
    "data-crosses-as-bytes": [
        absent(
            "is_tasklet_value|json.dumps|pack_value|unpack_value",
            "src/repro/broker/core.py", "src/repro/broker/workflows.py",
            "src/repro/broker/forwarding.py",
        ),
        absent("_vote_key", "src"),
        exactly(1, "json.dumps", "src/repro/broker/journal.py"),  # the journal line itself
    ],
    "one-provider-protocol": [
        absent(
            r"RegisterProvider\(|Unregister\(|Heartbeat\(|ExecutionResult\(|ExecutionRejected\(",
            "src/repro/transport/tcp.py",
        ),
        exactly(1, 'name="provider.execute"', "src/repro"),
    ],
    # One pending record per submission; the drivers say how envelopes leave.
    "one-consumer": [
        at_most(372, "src/repro/consumer/core.py"),
        absent("_submitted_at|_wf_trace|resolve_local|submit_many|submit_batch|FrameReader", "src"),
        absent("def submit_", "src/repro/sim/runner.py", "src/repro/transport/tcp.py"),
    ],
    "one-walk-per-workflow-graph": [
        absent(
            r"pop\(0\)",
            "src/repro/dag/spec.py", "src/repro/dag/scheduler.py", "src/repro/broker/workflows.py",
        ),
    ],
    # A workflow's one answer is its workflow_complete; tag 15 is retired.
    "one-answer-per-workflow": [
        absent("WorkflowUpdate|workflow_update|node_states", "src"),
        mentions("docs/PROTOCOL.md", "Tags 15, 22 and 23 are retired and never reused"),
        at_most(345, "src/repro/broker/workflows.py"),
    ],
    # repro.bench.cluster is where F7, the smoke scripts and the TCP tests start clusters;
    # LocalCluster.executors is the one cross-journal audit.
    "one-cluster-bring-up": [
        only_in(
            "src/repro/bench/cluster.py",
            r"def (free_ports|wait_until|wait_for|_wait|retry_bind|start_broker|start_federation"
            r"|wait_for_registration)\b",
            "src", "scripts", "tests",
        ),
        gone("scripts/_cluster.py"),
        gone("tests/integration/netutil.py"),
        exactly(1, re.escape(".add(completion." + "executed_by)"), "src", "scripts", "tests"),
    ],
}


@pytest.mark.parametrize("checks", GUARDS.values(), ids=GUARDS.keys())
def test_guard(checks):
    assert [problem for check in checks for problem in check()] == []
