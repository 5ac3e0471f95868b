"""The command-line toolchain."""

import json

import pytest

from repro.cli import main
from repro.common.serde import packed

SOURCE = """
func main(n: int) -> int {
    var total: int = 0;
    for (var i: int = 1; i <= n; i = i + 1) { total = total + i; }
    return total;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.tl"
    path.write_text(SOURCE)
    return str(path)


class TestRun:
    def test_run_source(self, source_file, capsys):
        assert main(["run", source_file, "10"]) == 0
        assert json.loads(capsys.readouterr().out) == 55

    def test_run_with_stats(self, source_file, capsys):
        assert main(["run", source_file, "5", "--stats"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == 15
        assert "instructions=" in captured.err

    def test_json_and_bare_word_arguments(self, tmp_path, capsys):
        path = tmp_path / "echo.tl"
        path.write_text(
            "func main(s: string, xs: array, f: float) -> array "
            "{ return [s, xs, f]; }"
        )
        assert main(["run", str(path), "hello", "[1,2]", "2.5"]) == 0
        assert json.loads(capsys.readouterr().out) == ["hello", [1, 2], 2.5]

    def test_custom_entry(self, tmp_path, capsys):
        path = tmp_path / "multi.tl"
        path.write_text(
            "func other() -> int { return 7; } func main() -> int { return 1; }"
        )
        assert main(["run", str(path), "--entry", "other"]) == 0
        assert json.loads(capsys.readouterr().out) == 7

    def test_fuel_limit_reported_as_error(self, tmp_path, capsys):
        path = tmp_path / "loop.tl"
        path.write_text("func main() -> int { while (true) {} return 0; }")
        assert main(["run", str(path), "--fuel", "1000"]) == 1
        assert "fuel" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent.tl"]) == 2

    def test_compile_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.tl"
        path.write_text("func main( {")
        assert main(["run", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestCompileDisasm:
    def test_compile_to_stdout_is_loadable_bytecode(self, source_file, capsys):
        assert main(["compile", source_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1

    def test_compile_to_file_then_run(self, source_file, tmp_path, capsys):
        out = str(tmp_path / "prog.tvm")
        assert main(["compile", source_file, "-o", out]) == 0
        capsys.readouterr()
        assert main(["run", out, "4"]) == 0
        assert json.loads(capsys.readouterr().out) == 10

    def test_disasm_source(self, source_file, capsys):
        assert main(["disasm", source_file]) == 0
        text = capsys.readouterr().out
        assert ".func main" in text
        assert "RET" in text

    def test_disasm_compiled_artifact(self, source_file, tmp_path, capsys):
        out = str(tmp_path / "prog.tvm")
        main(["compile", source_file, "-o", out])
        capsys.readouterr()
        assert main(["disasm", out]) == 0
        assert ".func main" in capsys.readouterr().out

    def test_compile_disasm_prints_listing_not_json(self, source_file, capsys):
        assert main(["compile", source_file, "--disasm"]) == 0
        text = capsys.readouterr().out
        assert ".func main" in text
        assert not text.lstrip().startswith("{")
        # Portable listing only: no generated Python.
        assert "def f0(" not in text

    def test_compile_translated_shows_generated_python(self, source_file, capsys):
        # --translated implies --disasm; the listing is followed by the
        # Python a provider runs in place of each function.
        assert main(["compile", source_file, "--translated"]) == 0
        listing, _, python = capsys.readouterr().out.partition("# main, translated:")
        assert "def f0(F, depth, v0):" in python
        assert "fuel -= " in python and "while True:" in python
        compile(python, "<listing>", "exec")  # it is Python, as printed
        # The portable instructions are still all there.
        assert "JUMP_IF_FALSE" in listing and "ADD" in listing

    def test_disasm_translated_flag(self, source_file, capsys):
        assert main(["disasm", source_file, "--translated"]) == 0
        assert "def f0(F, depth, v0):" in capsys.readouterr().out


class TestBenchAndSimulate:
    def test_bench(self, capsys):
        assert main(["bench", "--limit", "300", "--repetitions", "1"]) == 0
        assert "M instr/s" in capsys.readouterr().out

    def test_simulate_completes_all_tasks(self, capsys):
        code = main(
            [
                "simulate",
                "--providers", "desktop=2",
                "--tasks", "6",
                "--limit", "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "completed          : 6/6" in out
        assert "virtual makespan" in out

    def test_simulate_with_redundancy_and_strategy(self, capsys):
        code = main(
            [
                "simulate",
                "--providers", "desktop=3",
                "--tasks", "4",
                "--limit", "200",
                "--strategy", "fastest_first",
                "--redundancy", "2",
            ]
        )
        assert code == 0
        assert "4/4" in capsys.readouterr().out


class TestMetrics:
    ARGS = ["metrics", "--providers", "desktop=2", "--tasks", "3", "--limit", "200"]

    def test_prometheus_exposition(self, capsys):
        assert main([*self.ARGS, "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_broker_tasklets_submitted_total counter" in out
        assert "repro_consumer_latency_seconds_count" in out
        assert "repro_sim_" in out  # simulator summary bridged in

    def test_json_snapshot(self, capsys):
        assert main([*self.ARGS, "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        submitted = snapshot["repro_broker_tasklets_submitted_total"]
        assert submitted["kind"] == "counter"
        assert submitted["samples"][0]["value"] == 3

    def test_trace_dump(self, capsys):
        assert main([*self.ARGS, "--format", "traces"]) == 0
        out = capsys.readouterr().out
        assert out.count("trace tr-") == 3
        for name in ("tasklet", "broker.tasklet", "broker.assign",
                     "provider.execute"):
            assert name in out


@pytest.fixture
def obs_server():
    """A live ObsServer with a populated registry, recorder, and health doc."""
    from repro.obs import ObsServer, Telemetry
    from repro.obs import events as ev

    telemetry = Telemetry()
    telemetry.registry.counter("repro_demo_total", "demo counter").inc(4)
    telemetry.events.record(ev.NODE_JOIN, node="p1", ts=1.0)
    telemetry.events.record(
        ev.STRAGGLER_ALERT, node="p1", ts=2.0, execution_id="ex-1"
    )

    def health():
        return {
            "status": "degraded",
            "role": "broker",
            "providers_alive": 1,
            "providers_total": 1,
            "pending_tasklets": 0,
            "providers": [
                {
                    "provider_id": "p1",
                    "device_class": "desktop",
                    "grade": "degraded",
                    "alive": True,
                    "capacity": 2,
                    "outstanding": 1,
                    "reliability": 0.9,
                    "effective_speed": 1e6,
                    "heartbeat_age": 0.3,
                    "flaps": 0,
                    "straggling": 1,
                }
            ],
            "stragglers": [
                {
                    "execution_id": "ex-1",
                    "provider_id": "p1",
                    "tasklet_id": "t-1",
                    "elapsed_s": 4.2,
                    "expected_s": 1.0,
                }
            ],
        }

    with ObsServer(telemetry, node="b1", role="broker", health=health) as server:
        yield server


class TestObsCli:
    """`metrics --from-url` and `top` against a live ObsServer."""

    def test_metrics_from_url_prom(self, obs_server, capsys):
        assert main(["metrics", "--from-url", obs_server.url]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_demo_total counter" in out
        assert "repro_demo_total 4" in out

    def test_metrics_from_url_json(self, obs_server, capsys):
        code = main(
            ["metrics", "--from-url", obs_server.url, "--format", "json"]
        )
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["repro_demo_total"]["samples"][0]["value"] == 4

    def test_metrics_from_unreachable_url_errors(self, capsys):
        code = main(["metrics", "--from-url", "http://127.0.0.1:1"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_top_once_json(self, obs_server, capsys):
        code = main(["top", obs_server.url, "--once", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["health"]["status"] == "degraded"
        assert doc["health"]["providers"][0]["provider_id"] == "p1"
        # Only alert-kind events survive the client-side filter.
        assert [alert["kind"] for alert in doc["alerts"]] == ["straggler_alert"]

    def test_top_once_table(self, obs_server, capsys):
        assert main(["top", obs_server.url, "--once"]) == 0
        out = capsys.readouterr().out
        assert "cluster b1: status=degraded  providers=1/1 alive" in out
        assert "PROVIDER" in out and "GRADE" in out
        assert "p1" in out and "degraded" in out
        assert "stragglers:" in out
        assert "ex-1 on p1: 4.20s elapsed (expected 1.0s)" in out
        assert "recent alerts:" in out
        assert "straggler_alert" in out

    def test_top_unreachable_url_errors(self, capsys):
        code = main(["top", "http://127.0.0.1:1", "--once"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_top_once_json_carries_workflow_latency(self, obs_server, capsys):
        code = main(["top", obs_server.url, "--once", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # No workflow spans recorded on this fixture: an empty digest.
        assert doc["workflow_latency"] == {"workflows": 0, "nodes": 0}


def _workflow_spans(trace_id="t1", workflow_id="wf-1"):
    """A two-node chain (a -> b) with the full span hierarchy."""
    from repro.obs.trace import Span

    wf = {"workflow_id": workflow_id}

    def span(span_id, parent_id, name, start, end, node="b1", **attrs):
        return Span(
            trace_id=trace_id, span_id=span_id, parent_id=parent_id,
            name=name, node=node, start=start, end=end, attrs=attrs,
        )

    return [
        span("bw", None, "broker.workflow", 0.0, 9.8, **wf),
        span("na", "bw", "wf.node", 0.1, 4.0, node_id="a", deps=[], **wf),
        span("ta", "na", "broker.tasklet", 0.2, 3.9),
        span("aa", "ta", "broker.assign", 1.0, 3.8),
        span("ea", "aa", "provider.execute", 1.5, 3.5, node="p1"),
        span("nb", "bw", "wf.node", 4.0, 9.0, node_id="b", deps=["a"], **wf),
        span("tb", "nb", "broker.tasklet", 4.1, 8.9),
        span("ab", "tb", "broker.assign", 5.0, 8.8),
        span("eb", "ab", "provider.execute", 5.5, 8.5, node="p2"),
    ]


@pytest.fixture
def workflow_obs_server():
    """An ObsServer whose span store holds one finished workflow."""
    from repro.obs import ObsServer, Telemetry

    telemetry = Telemetry()
    for span in _workflow_spans():
        telemetry.spans.add(span)
    with ObsServer(telemetry, node="b1", role="broker") as server:
        yield server


class TestTraceCli:
    """`repro trace` against live ObsServers."""

    def test_table_renders_gantt_and_attribution(
        self, workflow_obs_server, capsys
    ):
        code = main(["trace", "wf-1", "--url", workflow_obs_server.url])
        assert code == 0
        out = capsys.readouterr().out
        assert "workflow wf-1" in out
        assert "critical path a -> b" in out
        assert "NODE" in out and "TIMELINE" in out
        assert "*a" in out and "*b" in out  # both nodes critical
        assert "critical-path attribution:" in out
        for phase in ("scheduling", "queue", "wire", "vm"):
            assert phase in out
        assert "PROVIDER" in out and "p1" in out and "p2" in out

    def test_json_analysis_document(self, workflow_obs_server, capsys):
        code = main(
            ["trace", "wf-1", "--url", workflow_obs_server.url,
             "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workflow_id"] == "wf-1"
        assert doc["critical_path"] == ["a", "b"]
        assert abs(doc["makespan"] - 9.8) < 1e-9
        # Acceptance criterion: critical phase sums within 10% of makespan.
        total = sum(doc["phase_totals"].values())
        assert abs(total - doc["makespan"]) / doc["makespan"] < 0.10

    def test_chrome_output_is_trace_event_json(
        self, workflow_obs_server, capsys
    ):
        code = main(
            ["trace", "wf-1", "--url", workflow_obs_server.url,
             "--format", "chrome"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["traceEvents"]
        assert all(e["ph"] in ("X", "M") for e in doc["traceEvents"])

    def test_multiple_urls_merge_client_side(self, capsys):
        from repro.obs import ObsServer, Telemetry

        spans = _workflow_spans()
        first, second = Telemetry(), Telemetry()
        for span in spans[:4]:
            first.spans.add(span)
        for span in spans[4:]:
            second.spans.add(span)
        with ObsServer(first, node="b1") as one:
            with ObsServer(second, node="b2") as two:
                code = main(
                    ["trace", "wf-1", "--url", one.url, "--url", two.url,
                     "--format", "json"]
                )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["critical_path"] == ["a", "b"]
        assert len(doc["nodes"]) == 2

    def test_unknown_workflow_errors(self, workflow_obs_server, capsys):
        code = main(["trace", "nope", "--url", workflow_obs_server.url])
        assert code == 1
        assert "no trace for workflow" in capsys.readouterr().err

    def test_unreachable_server_errors(self, capsys):
        code = main(["trace", "wf-1", "--url", "http://127.0.0.1:1"])
        assert code == 1
        assert "no ObsServer reachable" in capsys.readouterr().err

    def test_top_reports_latency_from_workflow_spans(
        self, workflow_obs_server, capsys
    ):
        code = main(
            ["top", workflow_obs_server.url, "--once", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        latency = doc["workflow_latency"]
        assert latency["workflows"] == 1
        assert latency["nodes"] == 2
        assert abs(latency["makespan_p50_s"] - 9.8) < 1e-9

    def test_top_table_shows_latency_line(self, workflow_obs_server, capsys):
        assert main(["top", workflow_obs_server.url, "--once"]) == 0
        out = capsys.readouterr().out
        assert "workflow latency:" in out
        assert "makespan p50=9800.0ms" in out


@pytest.fixture
def journal_file(tmp_path):
    """A journal with one pending and one completed tasklet."""
    from repro.broker.journal import CompletionRecord, WorkJournal

    path = tmp_path / "journal.jsonl"
    journal = WorkJournal(str(path))
    tasklet = {"tasklet_id": "tl-1", "program": b"\x00", "entry": "main", "args": packed([7])}
    journal.record_admitted("c1/tl-1", "c1", tasklet, ts=1.0)
    journal.record_admitted(
        "c1/tl-2", "c1", dict(tasklet, tasklet_id="tl-2"), ts=2.0
    )
    journal.record_complete(
        CompletionRecord(
            key="c1/tl-1", tasklet_id="tl-1", consumer_id="c1", ok=True, value=packed(8)
        )
    )
    journal.close()
    return str(path)


class TestJournalCli:
    def test_table_summary(self, journal_file, capsys):
        assert main(["journal", journal_file, "--pending"]) == 0
        out = capsys.readouterr().out
        assert "2 admitted, 1 complete" in out
        assert "pending    : 1 tasklet(s)" in out
        assert "c1/tl-2" in out and "args=[7] " in out  # (opened, not the bytes on disk)
        assert "1 retained (1 ok, 0 failed)" in out

    def test_json_summary(self, journal_file, capsys):
        assert main(["journal", journal_file, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["admitted"] == 2 and document["completed"] == 1
        assert [entry["key"] for entry in document["pending"]] == ["c1/tl-2"]
        assert document["pending"][0]["tasklet"]["program"] == {"__b__": "AA=="}  # (bytes, as journalled)
        # Values are packed on disk and shown opened: arguments, a result.
        assert document["pending"][0]["tasklet"]["args"] == [7]
        assert document["completions"][0]["value"] == 8
        assert '"value":{"__b__":' in open(journal_file).read()

    def test_compact_rewrites_file(self, journal_file, capsys):
        assert main(["journal", journal_file, "--compact"]) == 0
        assert "compacted to" in capsys.readouterr().out
        assert len(open(journal_file).read().strip().splitlines()) == 2

    def test_missing_journal_errors(self, tmp_path, capsys):
        assert main(["journal", str(tmp_path / "nope.jsonl")]) == 2
        assert "no journal" in capsys.readouterr().err


class TestTopWorkflows:
    def test_render_top_shows_workflow_section(self):
        from repro.cli import _render_top

        health = {
            "node": "b1",
            "status": "ok",
            "providers_alive": 1,
            "providers_total": 1,
            "pending_tasklets": 2,
            "workflows": [
                {
                    "workflow_id": "wf-1",
                    "consumer": "c1",
                    "nodes": 4,
                    "states": {
                        "blocked": 1,
                        "ready": 1,
                        "running": 1,
                        "done": 1,
                        "failed": 0,
                    },
                    "age_s": 3.5,
                }
            ],
        }
        screen = _render_top(health, alerts=[])
        assert "WORKFLOW" in screen and "CONSUMER" in screen
        line = next(row for row in screen.splitlines() if "wf-1" in row)
        assert "c1" in line
        assert "3.5s" in line

    def test_render_top_omits_section_without_workflows(self):
        from repro.cli import _render_top

        screen = _render_top({"node": "b1", "status": "ok"}, alerts=[])
        assert "WORKFLOW" not in screen

    def test_render_top_shows_transport_line(self):
        from repro.cli import _render_top

        health = {
            "node": "b1",
            "status": "ok",
            "transport": {
                "loop": "asyncio",
                "connections": 3,
            },
        }
        screen = _render_top(health, alerts=[])
        assert "transport: asyncio  connections=3" in screen.splitlines()

    def test_render_top_omits_transport_line_without_section(self):
        from repro.cli import _render_top

        screen = _render_top({"node": "b1", "status": "ok"}, alerts=[])
        assert "transport:" not in screen


@pytest.fixture
def workflow_journal_file(tmp_path):
    """A journal with one in-flight and one completed workflow."""
    from repro.broker.journal import CompletionRecord, WorkJournal

    path = tmp_path / "journal.jsonl"
    journal = WorkJournal(str(path))
    spec = {
        "workflow_id": "wf-live",
        "nodes": [{"node_id": "a"}, {"node_id": "b"}],
        "programs": {},
    }
    journal.record_workflow_admitted("c1/wf-live", "c1", spec, ts=1.0)
    journal.record_admitted(
        "c1/wf-live:a",
        "c1",
        {"tasklet_id": "wf-live:a", "entry": "main", "args": packed([])},
        ts=1.1,
        workflow="c1/wf-live",
    )
    journal.record_complete(
        CompletionRecord(
            key="c1/wf-live:a",
            tasklet_id="wf-live:a",
            consumer_id="c1",
            ok=True,
            value=packed(9),
        )
    )
    journal.record_workflow_complete(
        "c1/wf-done",
        {
            "ok": True,
            "workflow_id": "wf-done",
            "outputs": {"sink": packed(3)},
            "nodes_total": 2,
            "nodes_memoized": 1,
        },
        ts=2.0,
    )
    journal.close()
    return str(path)


class TestJournalCliWorkflows:
    def test_table_lists_workflows_and_node_states(
        self, workflow_journal_file, capsys
    ):
        assert main(["journal", workflow_journal_file, "--pending"]) == 0
        out = capsys.readouterr().out
        assert "workflows  : 1 pending, 1 completion(s) retained" in out
        assert "c1/wf-live" in out
        assert "nodes=2" in out
        # Node a completed, node b was never released.
        assert "state=done" in out
        assert "state=waiting" in out
        assert "c1/wf-done" in out
        assert "ok (2 nodes, 1 memoized)" in out

    def test_json_carries_workflow_records(self, workflow_journal_file, capsys):
        assert main(["journal", workflow_journal_file, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert [w["key"] for w in document["workflows"]] == ["c1/wf-live"]
        assert [n["key"] for n in document["workflow_nodes"]] == ["c1/wf-live:a"]
        outcome = document["workflow_completions"][0]["outcome"]
        assert outcome["outputs"] == {"sink": 3}  # (opened)
        assert document["workflow_nodes"][0]["tasklet"]["args"] == []
        # Workflow node admissions never show up as plain pending work.
        assert document["pending"] == []


class TestReport:
    def test_report_single_experiment(self, tmp_path, capsys):
        out = str(tmp_path / "EXP.md")
        assert main(["report", "F1", "--output", out]) == 0
        content = open(out).read()
        assert "F1" in content
        assert "PASS" in content

    def test_report_unknown_id(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "ZZ", "--output", str(tmp_path / "x.md")])
