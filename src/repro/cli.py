"""Command-line interface: the Tasklet toolchain.

    python -m repro compile  prog.tl -o prog.tvm   # source -> bytecode JSON
    python -m repro disasm   prog.tl               # human-readable listing
    python -m repro run      prog.tl 12 3.5        # execute locally
    python -m repro bench                          # TVM self-benchmark
    python -m repro simulate --providers desktop=2,sbc=4 --tasks 30
    python -m repro metrics  --format prom         # telemetered sim run
    python -m repro metrics  --from-url http://127.0.0.1:9150   # live scrape
    python -m repro top      http://127.0.0.1:9150 # live cluster view
    python -m repro trace    wf-1 --url http://127.0.0.1:9150  # workflow trace
    python -m repro journal  work_journal.jsonl    # inspect broker durability
    python -m repro broker   --port 7070 --broker-id b1 \
                             --peer b2=127.0.0.1:7071   # federated broker
    python -m repro report F3 F4                   # regenerate experiments

``compile``/``disasm``/``run`` accept either Tasklet source (``.tl``, or
anything that does not parse as JSON) or compiled-bytecode JSON, so the
subcommands compose: compile once, disassemble or run the artifact later.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .common.errors import TaskletError
from .tvm.bytecode import CompiledProgram
from .tvm.compiler import compile_source
from .tvm.disassembler import disassemble
from .tvm.translate import translate
from .tvm.vm import DEFAULT_FUEL, VMLimits, execute


def _load_program(path: str) -> CompiledProgram:
    """Load a program from source text or bytecode JSON."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return CompiledProgram.from_dict(json.loads(text))
    return compile_source(text)


def _parse_cli_value(text: str):
    """Parse one command-line Tasklet argument.

    JSON first (numbers, bools, arrays, quoted strings); bare words fall
    back to strings, so ``run prog.tl 3 4.5 true hello`` all work.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _cmd_compile(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    disasm = args.disasm or args.translated  # --translated implies --disasm
    payload = json.dumps(program.to_dict(), indent=None, separators=(",", ":"))
    if args.output:
        Path(args.output).write_text(payload)
        instructions = sum(len(f.code) for f in program.functions)
        print(
            f"wrote {args.output}: {len(program.functions)} functions, "
            f"{instructions} instructions, fingerprint {program.fingerprint()}"
        )
    elif not disasm:
        print(payload)
    if disasm:
        _print_listing(program, args.translated)
    return 0


def _print_listing(program: CompiledProgram, translated: bool) -> None:
    """The disassembly and, with ``--translated``, the Python a provider
    runs in place of each function."""
    print(disassemble(program))
    if not translated:
        return
    # The translator trusts verifier invariants, so verify first (a no-op
    # for freshly compiled source, load-bearing for JSON input).
    program.verify()
    translation = translate(program)
    if translation is None:
        print("\n# declined by the translator: runs on the portable VM")
        return
    for function, source in zip(program.functions, translation.sources):
        print(f"\n# {function.name}, translated:\n{source}")


def _cmd_disasm(args: argparse.Namespace) -> int:
    _print_listing(_load_program(args.file), args.translated)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    call_args = [_parse_cli_value(value) for value in args.args]
    result, stats = execute(
        program,
        entry=args.entry,
        args=call_args,
        limits=VMLimits(fuel=args.fuel),
        seed=args.seed,
    )
    print(json.dumps(result))
    if args.stats:
        print(
            f"instructions={stats.instructions} "
            f"calls={stats.function_calls} builtins={stats.builtin_calls} "
            f"max_stack={stats.max_stack_depth}",
            file=sys.stderr,
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .provider.benchmark import run_benchmark

    report = run_benchmark(limit=args.limit, repetitions=args.repetitions)
    print(f"TVM self-benchmark: {report.describe()}")
    return 0


def _parse_pool_spec(spec: str) -> dict[str, int]:
    pool: dict[str, int] = {}
    for part in spec.split(","):
        name, _, count = part.partition("=")
        pool[name.strip()] = int(count or 1)
    return pool


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .core.qoc import QoC
    from .sim.devices import make_pool
    from .sim.runner import Simulation
    from .sim.workloads import prime_count

    simulation = Simulation(seed=args.seed, strategy=args.strategy)
    pool = make_pool(_parse_pool_spec(args.providers), seed=args.seed)
    for config in pool:
        simulation.add_provider(config)
    consumer = simulation.add_consumer()
    workload = prime_count(tasks=args.tasks, limit=args.limit)
    qoc = QoC(redundancy=args.redundancy) if args.redundancy > 1 else QoC()
    futures = consumer.library.map(workload.program, workload.args_list, qoc=qoc)
    makespan = simulation.run(max_time=1e5)
    ok = sum(1 for future in futures if future.done and future.wait(0).ok)
    stats = simulation.broker.stats
    print(f"pool               : {args.providers} ({len(pool)} providers)")
    print(f"strategy           : {args.strategy}")
    print(f"tasks              : {args.tasks} x prime_count({args.limit})")
    print(f"completed          : {ok}/{args.tasks}")
    print(f"virtual makespan   : {makespan * 1e3:.1f} ms")
    print(f"executions issued  : {stats.executions_issued}")
    print(f"messages delivered : {simulation.messages_delivered}")
    print(f"total cost billed  : {simulation.broker.ledger.total_billed:.4f}")
    return 0 if ok == args.tasks else 1


def _fetch(url: str, timeout: float = 5.0) -> str:
    """GET one ObsServer endpoint; raises TaskletError on failure."""
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.read().decode("utf-8", "replace")
    except urllib.error.HTTPError as exc:
        # ObsServer error statuses (healthz 503, 404) still carry a
        # meaningful JSON document; surface it instead of failing.
        return exc.read().decode("utf-8", "replace")
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise TaskletError(f"cannot reach {url}: {exc}") from exc


def _fetch_json(url: str, timeout: float = 5.0) -> dict:
    try:
        return json.loads(_fetch(url, timeout))
    except json.JSONDecodeError as exc:
        raise TaskletError(f"malformed JSON from {url}: {exc}") from exc


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run a short telemetered simulation and dump what it observed."""
    from .bench.simlib import run_workload
    from .obs.telemetry import Telemetry
    from .obs.trace import format_trace
    from .sim.devices import make_pool

    from .sim.workloads import prime_count

    if args.from_url:
        base = args.from_url.rstrip("/")
        if args.format == "prom":
            print(_fetch(f"{base}/metrics"), end="")
        elif args.format == "json":
            print(
                json.dumps(
                    _fetch_json(f"{base}/metrics?format=json"),
                    indent=2,
                    sort_keys=True,
                )
            )
        else:  # traces
            print(_fetch(f"{base}/traces"), end="")
        return 0

    telemetry = Telemetry()
    pool = make_pool(_parse_pool_spec(args.providers), seed=args.seed)
    workload = prime_count(tasks=args.tasks, limit=args.limit)
    run_workload(
        workload,
        pool,
        strategy=args.strategy,
        seed=args.seed,
        collect_metrics=True,
        telemetry=telemetry,
    )
    if args.format == "prom":
        print(telemetry.registry.render_prometheus(), end="")
    elif args.format == "json":
        print(json.dumps(telemetry.registry.snapshot(), indent=2, sort_keys=True))
    else:  # traces
        print(format_trace(telemetry.spans.spans()))
    return 0


#: Width of the ``repro trace`` Gantt bar column, in characters.
_GANTT_WIDTH = 40


def _gantt_bar(start: float, end: float, lo: float, hi: float) -> str:
    """One timeline bar positioned inside the [lo, hi] window."""
    window = max(hi - lo, 1e-12)
    left = int(round((start - lo) / window * _GANTT_WIDTH))
    right = int(round((end - lo) / window * _GANTT_WIDTH))
    left = min(max(left, 0), _GANTT_WIDTH)
    right = min(max(right, left + 1), _GANTT_WIDTH)
    return "." * left + "#" * (right - left) + "." * (_GANTT_WIDTH - right)


def _render_trace(analysis) -> str:
    """The ``repro trace`` screen: Gantt timeline, critical path,
    per-provider attribution."""
    lines = [
        f"workflow {analysis.workflow_id}  trace {analysis.trace_id}",
        f"makespan {analysis.makespan * 1e3:.3f} ms  "
        f"nodes {len(analysis.nodes)}  "
        f"critical path {' -> '.join(analysis.critical_path) or '(none)'}",
    ]
    if analysis.nodes:
        lines.append("")
        lines.append(
            f"{'NODE':<14} {'TIMELINE':<{_GANTT_WIDTH}} {'DUR MS':>9} "
            f"{'STATUS':<9} {'PROVIDER':<14} {'BROKER':<10}"
        )
        critical = set(analysis.critical_path)
        for node in analysis.nodes:
            marker = "*" if node.node_id in critical else " "
            lines.append(
                f"{marker}{node.node_id:<13} "
                f"{_gantt_bar(node.start, node.end, analysis.start, analysis.end)} "
                f"{node.duration * 1e3:>9.3f} {node.status:<9} "
                f"{node.provider or '-':<14} {node.broker:<10}"
            )
        lines.append(f"{'':14} (* = on the critical path)")
    totals = analysis.phase_totals()
    critical_s = sum(totals.values())
    if critical_s > 0:
        lines.append("")
        lines.append("critical-path attribution:")
        for phase in ("scheduling", "queue", "wire", "vm"):
            value = totals.get(phase, 0.0)
            share = value / critical_s * 100.0 if critical_s else 0.0
            lines.append(
                f"  {phase:<11} {value * 1e3:>9.3f} ms  {share:>5.1f}%"
            )
    providers = analysis.provider_attribution()
    if providers:
        lines.append("")
        lines.append(
            f"{'PROVIDER':<16} {'NODES':>6} {'VM MS':>9} "
            f"{'CRIT NODES':>11} {'CRIT MS':>9}"
        )
        for row in providers:
            lines.append(
                f"{row['provider']:<16} {row['nodes']:>6} "
                f"{row['vm_s'] * 1e3:>9.3f} {row['critical_nodes']:>11} "
                f"{row['critical_s'] * 1e3:>9.3f}"
            )
    return "\n".join(lines)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Reassemble and render one workflow's trace from live ObsServers."""
    from .obs.analysis import analyze_workflow, chrome_trace_json
    from .obs.trace import Span

    urls = args.url or ["http://127.0.0.1:9150"]
    merged: dict[tuple[str, str], Span] = {}
    reached = 0
    errors: list[str] = []
    for url in urls:
        base = url.rstrip("/")
        query = f"workflow_id={args.workflow_id}"
        if len(urls) > 1:
            # Several explicit URLs: pull each server's local spans and
            # merge here, instead of letting every server re-scrape its
            # own peer list.
            query += "&scope=local"
        try:
            data = _fetch_json(f"{base}/traces?{query}&format=json")
        except TaskletError as exc:
            errors.append(str(exc))
            continue
        reached += 1
        for item in data.get("spans", []):
            try:
                span = Span.from_dict(item)
            except (KeyError, TypeError, ValueError):
                continue
            merged.setdefault((span.trace_id, span.span_id), span)
    if not reached:
        raise TaskletError(
            "no ObsServer reachable: " + "; ".join(errors)
        )
    spans = sorted(merged.values(), key=lambda s: (s.start, s.span_id))
    if args.format == "chrome":
        print(chrome_trace_json(spans))
        return 0
    analysis = analyze_workflow(spans, args.workflow_id)
    if analysis is None:
        print(
            f"error: no trace for workflow {args.workflow_id!r} "
            f"on {len(urls)} server(s)",
            file=sys.stderr,
        )
        return 1
    if args.format == "json":
        print(json.dumps(analysis.to_dict(), indent=2, sort_keys=True))
    else:
        print(_render_trace(analysis))
    return 0


def _render_top(health: dict, alerts: list[dict],
                latency: dict | None = None) -> str:
    """The ``repro top`` screen: pool summary, scorecards, alerts."""
    lines = [
        "cluster {node}: status={status}  providers={alive}/{total} alive  "
        "pending={pending}".format(
            node=health.get("node", "?"),
            status=health.get("status", "?"),
            alive=health.get("providers_alive", "?"),
            total=health.get("providers_total", "?"),
            pending=health.get("pending_tasklets", "?"),
        )
    ]
    transport = health.get("transport") or {}
    if transport:
        lines.append(
            f"transport: {transport.get('loop', '?')}  "
            f"connections={transport.get('connections', 0)}"
        )
    providers = health.get("providers") or []
    if providers:
        lines.append("")
        lines.append(
            f"{'PROVIDER':<18} {'CLASS':<12} {'GRADE':<10} {'BUSY':>7} "
            f"{'RELIAB':>7} {'SPEED':>10} {'HB AGE':>8} {'FLAPS':>6} {'STRAG':>6}"
        )
        for card in providers:
            busy = f"{card.get('outstanding', 0)}/{card.get('capacity', 0)}"
            grade = card.get("grade", "?")
            if not card.get("alive", True):
                grade = f"{grade}(dead)"
            lines.append(
                f"{card.get('provider_id', '?'):<18} "
                f"{card.get('device_class', '?'):<12} "
                f"{grade:<10} {busy:>7} "
                f"{card.get('reliability', 0):>7.2f} "
                f"{card.get('effective_speed', 0):>10.3g} "
                f"{card.get('heartbeat_age', 0):>7.1f}s "
                f"{card.get('flaps', 0):>6} {card.get('straggling', 0):>6}"
            )
    federation = health.get("federation") or {}
    peers = federation.get("peers") or []
    if peers:
        lines.append("")
        lines.append(
            f"{'PEER':<18} {'STATE':<8} {'EPOCH':<14} {'PROV':>7} "
            f"{'SLOTS':>6} {'PEND':>6} {'SEEN':>8}"
        )
        for peer in peers:
            age = peer.get("last_seen_age_s")
            seen = f"{age:.1f}s" if age is not None else "never"
            prov = (
                f"{peer.get('providers_alive', 0)}/"
                f"{peer.get('providers_total', 0)}"
            )
            lines.append(
                f"{peer.get('broker_id', '?'):<18} "
                f"{'alive' if peer.get('alive') else 'dead':<8} "
                f"{peer.get('epoch', '?') or '?':<14} {prov:>7} "
                f"{peer.get('free_slots', 0):>6} "
                f"{peer.get('pending_tasklets', 0):>6} {seen:>8}"
            )
    workflows = health.get("workflows") or []
    if workflows:
        lines.append("")
        lines.append(
            f"{'WORKFLOW':<22} {'CONSUMER':<14} {'NODES':>6} {'BLOCK':>6} "
            f"{'READY':>6} {'RUN':>5} {'DONE':>5} {'FAIL':>5} {'AGE':>8}"
        )
        for entry in workflows:
            states = entry.get("states", {})
            lines.append(
                f"{entry.get('workflow_id', '?'):<22} "
                f"{entry.get('consumer', '?'):<14} "
                f"{entry.get('nodes', 0):>6} "
                f"{states.get('blocked', 0):>6} "
                f"{states.get('ready', 0):>6} "
                f"{states.get('running', 0):>5} "
                f"{states.get('done', 0):>5} "
                f"{states.get('failed', 0):>5} "
                f"{entry.get('age_s', 0):>7.1f}s"
            )
    if latency and latency.get("nodes"):
        def fmt(key: str) -> str:
            value = latency.get(key)
            return f"{value * 1e3:.1f}ms" if value is not None else "-"

        lines.append("")
        lines.append(
            f"workflow latency: queue p50={fmt('queue_p50_s')} "
            f"p95={fmt('queue_p95_s')}  makespan p50={fmt('makespan_p50_s')} "
            f"p95={fmt('makespan_p95_s')}  "
            f"({latency.get('workflows', 0)} workflows, "
            f"{latency.get('nodes', 0)} nodes)"
        )
    stragglers = health.get("stragglers") or []
    if stragglers:
        lines.append("")
        lines.append("stragglers:")
        for watch in stragglers:
            lines.append(
                f"  {watch.get('execution_id', '?')} on "
                f"{watch.get('provider_id', '?')}: "
                f"{watch.get('elapsed_s', 0):.2f}s elapsed "
                f"(expected {watch.get('expected_s', 0)}s)"
            )
    if alerts:
        lines.append("")
        lines.append("recent alerts:")
        for event in alerts[-10:]:
            attrs = event.get("attrs", {})
            detail = " ".join(
                f"{key}={value}" for key, value in sorted(attrs.items())
            )
            lines.append(
                f"  [{event.get('ts', 0):.3f}] {event.get('kind', '?')} "
                f"node={event.get('node', '?')} {detail}"
            )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live cluster view polled from a running ObsServer."""
    import time

    from .obs.events import ALERT_KINDS

    base = args.url.rstrip("/")

    def poll() -> tuple[dict, list[dict], dict]:
        health = _fetch_json(f"{base}/healthz")
        events = _fetch_json(f"{base}/events?limit=200").get("events", [])
        alerts = [event for event in events if event.get("kind") in ALERT_KINDS]
        try:
            latency = _fetch_json(f"{base}/traces?format=summary")
        except TaskletError:
            latency = {}  # older server without the summary endpoint
        return health, alerts, latency

    if args.once:
        health, alerts, latency = poll()
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "health": health,
                        "alerts": alerts,
                        "workflow_latency": latency,
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(_render_top(health, alerts, latency))
        return 0

    try:
        while True:
            try:
                screen = _render_top(*poll())
            except TaskletError as exc:
                screen = f"(unreachable: {exc})"
            # Clear and repaint; plain ANSI keeps this dependency-free.
            sys.stdout.write("\x1b[2J\x1b[H" + screen + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_journal(args: argparse.Namespace) -> int:
    """Inspect (and optionally compact) a broker work journal."""
    from .broker.journal import WorkJournal, replay_journal
    from .common.errors import CodecError
    from .common.serde import encode_value, opened

    def shown(blob):
        """A packed value (arguments, a result) as a reader wants it: opened."""
        try:
            return None if blob is None else opened(blob)
        except CodecError as exc:
            return f"<unreadable: {exc}>"

    def admission(entry) -> dict:
        tasklet = {**entry.tasklet, "args": shown(entry.tasklet.get("args"))}
        return {**entry.to_dict(), "tasklet": tasklet}

    if not Path(args.file).exists():
        print(f"error: no journal at {args.file}", file=sys.stderr)
        return 2
    if args.compact:
        journal = WorkJournal(args.file)
        try:
            snapshot = journal.compact()
        finally:
            journal.close()
    else:
        snapshot = replay_journal(args.file)

    if args.format == "json":
        document = {
            "path": args.file,
            "admitted": snapshot.admitted,
            "completed": snapshot.completed,
            "malformed": snapshot.malformed,
            "pending": [admission(entry) for entry in snapshot.pending],
            "completions": [
                {**completion.to_dict(), "value": shown(completion.value)}
                for completion in snapshot.completions.values()
            ],
            "workflows": [entry.to_dict() for entry in snapshot.workflows],
            "workflow_nodes": [admission(entry) for entry in snapshot.workflow_nodes],
            "workflow_completions": [
                {
                    **entry.to_dict(),
                    "outcome": {
                        **entry.outcome,
                        "outputs": {
                            sink: shown(blob)
                            for sink, blob in entry.outcome.get("outputs", {}).items()
                        },
                    },
                }
                for entry in snapshot.workflow_completions.values()
            ],
        }
        # (A program is bytes: rendered as in the journal, ``{"__b__": base64}``.)
        print(json.dumps(document, indent=2, sort_keys=True, default=encode_value))
        return 0

    verb = "compacted to" if args.compact else "holds"
    print(f"journal    : {args.file}")
    print(
        f"records    : {verb} {snapshot.admitted} admitted, "
        f"{snapshot.completed} complete"
        + (f", {snapshot.malformed} malformed skipped" if snapshot.malformed else "")
    )
    print(f"pending    : {len(snapshot.pending)} tasklet(s)")
    if args.pending:
        for entry in snapshot.pending:
            tasklet = entry.tasklet
            print(
                f"  {entry.key:<28} entry={tasklet.get('entry', '?')} "
                f"args={shown(tasklet.get('args'))} ts={entry.ts:.3f}"
            )
    ok_count = sum(1 for c in snapshot.completions.values() if c.ok)
    print(
        f"completions: {len(snapshot.completions)} retained "
        f"({ok_count} ok, {len(snapshot.completions) - ok_count} failed)"
    )
    if snapshot.workflows_admitted or snapshot.workflows_completed:
        print(
            f"workflows  : {len(snapshot.workflows)} pending, "
            f"{len(snapshot.workflow_completions)} completion(s) retained"
        )
        for entry in snapshot.workflows:
            workflow = entry.workflow
            nodes = workflow.get("nodes") or []
            print(f"  {entry.key:<28} nodes={len(nodes)} ts={entry.ts:.3f}")
            if args.pending:
                for node in nodes:
                    node_id = str(node.get("node_id", "?"))
                    node_key = f"{entry.consumer_id}/{workflow['workflow_id']}:{node_id}"
                    state = snapshot.workflow_node_state(node_key)
                    print(f"    {node_id:<22} state={state}")
        for entry in snapshot.workflow_completions.values():
            outcome = entry.outcome
            verdict = "ok" if outcome["ok"] else (
                f"failed at {outcome.get('failed_node', '?')}"
            )
            print(
                f"  {entry.key:<28} "
                f"{verdict} "
                f"({outcome.get('nodes_total', 0)} nodes, "
                f"{outcome.get('nodes_memoized', 0)} memoized)"
            )
    return 0


def _parse_peer_spec(spec: str) -> tuple[str, str, int]:
    """Parse one ``--peer id=host:port`` argument."""
    peer_id, sep, address = spec.partition("=")
    host, sep2, port = address.rpartition(":")
    if not sep or not sep2 or not peer_id or not host:
        raise TaskletError(
            f"malformed --peer {spec!r}: expected id=host:port"
        )
    try:
        return peer_id, host, int(port)
    except ValueError as exc:
        raise TaskletError(f"malformed --peer port in {spec!r}") from exc


def _cmd_broker(args: argparse.Namespace) -> int:
    """Serve a (possibly federated) broker until interrupted."""
    import signal
    import threading

    from .obs.telemetry import Telemetry
    from .transport.tcp import TcpBroker

    peers = {}
    for spec in args.peer or []:
        peer_id, host, port = _parse_peer_spec(spec)
        peers[peer_id] = (host, port)
    peer_journals = {}
    for spec in args.peer_journal or []:
        peer_id, _, path = spec.partition("=")
        if not path:
            raise TaskletError(
                f"malformed --peer-journal {spec!r}: expected id=path"
            )
        peer_journals[peer_id] = path
    broker = TcpBroker(
        host=args.host,
        port=args.port,
        strategy=args.strategy,
        telemetry=Telemetry() if args.obs_port is not None else None,
        obs_port=args.obs_port,
        journal_path=args.journal,
        journal_sync=args.journal_sync,
        journal_compact_records=args.journal_compact_records,
        broker_id=args.broker_id,
        peers=peers or None,
        peer_journals=peer_journals or None,
        gossip_interval=args.gossip_interval,
    )
    broker.start()
    host, port = broker.address
    print(f"broker {broker.core.node_id} listening on {host}:{port}")
    if peers:
        print(f"federation peers: {', '.join(sorted(peers))}")
    if args.obs_port is not None:
        print(f"observability: http://{args.host}:{args.obs_port}")
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    broker.stop()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .bench.report import generate

    ok = generate(
        experiment_ids=args.ids or None,
        quick=not args.full,
        output_path=args.output,
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Tasklet middleware toolchain"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    compile_cmd = commands.add_parser("compile", help="compile source to bytecode JSON")
    compile_cmd.add_argument("file")
    compile_cmd.add_argument("-o", "--output", help="output path (default: stdout)")
    compile_cmd.add_argument(
        "--disasm",
        action="store_true",
        help="print a human-readable listing instead of bytecode JSON",
    )
    compile_cmd.add_argument(
        "--translated",
        action="store_true",
        help="with --disasm (implied): follow each function with the Python "
        "a provider runs in its place",
    )
    compile_cmd.set_defaults(handler=_cmd_compile)

    disasm_cmd = commands.add_parser("disasm", help="disassemble a program")
    disasm_cmd.add_argument("file")
    disasm_cmd.add_argument(
        "--translated",
        action="store_true",
        help="follow each function with the Python a provider runs in its place",
    )
    disasm_cmd.set_defaults(handler=_cmd_disasm)

    run_cmd = commands.add_parser("run", help="execute a program locally")
    run_cmd.add_argument("file")
    run_cmd.add_argument("args", nargs="*", help="entry arguments (JSON or bare words)")
    run_cmd.add_argument("--entry", default="main")
    run_cmd.add_argument("--seed", type=int, default=0)
    run_cmd.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    run_cmd.add_argument("--stats", action="store_true", help="print VM stats to stderr")
    run_cmd.set_defaults(handler=_cmd_run)

    bench_cmd = commands.add_parser("bench", help="run the TVM self-benchmark")
    bench_cmd.add_argument("--limit", type=int, default=4000)
    bench_cmd.add_argument("--repetitions", type=int, default=3)
    bench_cmd.set_defaults(handler=_cmd_bench)

    simulate_cmd = commands.add_parser(
        "simulate", help="run a quick simulated deployment"
    )
    simulate_cmd.add_argument(
        "--providers", default="desktop=2,smartphone=2",
        help="pool spec, e.g. desktop=2,sbc=4",
    )
    simulate_cmd.add_argument("--tasks", type=int, default=20)
    simulate_cmd.add_argument("--limit", type=int, default=1000)
    simulate_cmd.add_argument("--strategy", default="qoc")
    simulate_cmd.add_argument("--redundancy", type=int, default=1)
    simulate_cmd.add_argument("--seed", type=int, default=0)
    simulate_cmd.set_defaults(handler=_cmd_simulate)

    metrics_cmd = commands.add_parser(
        "metrics",
        help="run a telemetered simulation and print its metrics/traces",
        epilog=(
            "Two modes. Default: run a short simulated workload in-process "
            "and dump its telemetry. With --from-url URL: scrape a live "
            "ObsServer instead (prom -> GET /metrics, json -> GET "
            "/metrics?format=json, traces -> GET /traces); the simulation "
            "options are ignored."
        ),
    )
    metrics_cmd.add_argument(
        "--from-url",
        metavar="URL",
        help="scrape a running ObsServer (e.g. http://127.0.0.1:9150) "
        "instead of simulating",
    )
    metrics_cmd.add_argument(
        "--providers", default="desktop=2,smartphone=2",
        help="pool spec, e.g. desktop=2,sbc=4",
    )
    metrics_cmd.add_argument("--tasks", type=int, default=10)
    metrics_cmd.add_argument("--limit", type=int, default=500)
    metrics_cmd.add_argument("--strategy", default="qoc")
    metrics_cmd.add_argument("--seed", type=int, default=0)
    metrics_cmd.add_argument(
        "--format", choices=("prom", "json", "traces"), default="prom",
        help="prom = Prometheus text exposition, json = registry snapshot, "
        "traces = span-tree dump",
    )
    metrics_cmd.set_defaults(handler=_cmd_metrics)

    top_cmd = commands.add_parser(
        "top",
        help="live cluster view polled from a running ObsServer",
        epilog=(
            "Polls /healthz and /events of the given ObsServer (a TcpBroker "
            "started with obs_port=...) and repaints a cluster table every "
            "--interval seconds; ctrl-c exits. Use --once for a single "
            "snapshot, --once --format json for scripting."
        ),
    )
    top_cmd.add_argument(
        "url", help="ObsServer base URL, e.g. http://127.0.0.1:9150"
    )
    top_cmd.add_argument(
        "--interval", type=float, default=2.0, help="refresh period (seconds)"
    )
    top_cmd.add_argument(
        "--once", action="store_true", help="print one snapshot and exit"
    )
    top_cmd.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="with --once: table (human) or json (machine)",
    )
    top_cmd.set_defaults(handler=_cmd_top)

    trace_cmd = commands.add_parser(
        "trace",
        help="reassemble one workflow's trace from live ObsServers",
        epilog=(
            "Pulls /traces?workflow_id=... from the given ObsServer(s) and "
            "renders a Gantt timeline with critical-path and per-provider "
            "attribution. A single --url lets the server merge spans from "
            "its configured federation peers; several --url flags merge "
            "client-side instead (each queried with scope=local). "
            "--format chrome emits Chrome trace-event JSON for Perfetto."
        ),
    )
    trace_cmd.add_argument("workflow_id", help="workflow id to reassemble")
    trace_cmd.add_argument(
        "--url", action="append", metavar="URL",
        default=None,
        help="ObsServer base URL (repeatable; default http://127.0.0.1:9150)",
    )
    trace_cmd.add_argument(
        "--format", choices=("table", "json", "chrome"), default="table",
        help="table (Gantt + attribution), json (analysis document), "
        "chrome (trace-event JSON)",
    )
    trace_cmd.set_defaults(handler=_cmd_trace)

    journal_cmd = commands.add_parser(
        "journal",
        help="inspect a broker work journal",
        epilog=(
            "Replays the append-only JSONL journal a TcpBroker writes when "
            "started with journal_path=... and summarises its state: pending "
            "(admitted, not completed) tasklets and retained completions. "
            "--compact rewrites the file keeping only live records."
        ),
    )
    journal_cmd.add_argument("file", help="journal path (JSONL)")
    journal_cmd.add_argument(
        "--format", choices=("table", "json"), default="table"
    )
    journal_cmd.add_argument(
        "--pending", action="store_true", help="list pending tasklets"
    )
    journal_cmd.add_argument(
        "--compact",
        action="store_true",
        help="rewrite the journal, dropping admitted records that completed",
    )
    journal_cmd.set_defaults(handler=_cmd_journal)

    broker_cmd = commands.add_parser(
        "broker",
        help="serve a broker (optionally federated) until interrupted",
        epilog=(
            "Starts a TcpBroker on --port. Repeat --peer id=host:port to "
            "join a static federation peer set (gossip, forwarding, "
            "failover); --peer-journal id=path additionally enables journal "
            "handoff when that peer dies. --journal enables the durable "
            "work journal; --journal-sync fsyncs every record."
        ),
    )
    broker_cmd.add_argument("--host", default="127.0.0.1")
    broker_cmd.add_argument("--port", type=int, default=7070)
    broker_cmd.add_argument(
        "--broker-id", help="stable broker node id (required for federation)"
    )
    broker_cmd.add_argument(
        "--peer", action="append", metavar="ID=HOST:PORT",
        help="federation peer (repeatable)",
    )
    broker_cmd.add_argument(
        "--peer-journal", action="append", metavar="ID=PATH",
        help="peer journal path for handoff on peer death (repeatable)",
    )
    broker_cmd.add_argument("--journal", help="work journal path (JSONL)")
    broker_cmd.add_argument(
        "--journal-sync", action="store_true",
        help="fsync the journal after every record (durability over speed)",
    )
    broker_cmd.add_argument(
        "--journal-compact-records", type=int, default=None,
        help="auto-compact the journal past this many records",
    )
    broker_cmd.add_argument("--strategy", default="qoc")
    broker_cmd.add_argument("--gossip-interval", type=float, default=1.0)
    broker_cmd.add_argument(
        "--obs-port", type=int, default=None,
        help="serve /metrics /healthz /events on this port",
    )
    broker_cmd.set_defaults(handler=_cmd_broker)

    report_cmd = commands.add_parser(
        "report", help="run experiments and rewrite EXPERIMENTS.md"
    )
    report_cmd.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    report_cmd.add_argument("--full", action="store_true")
    report_cmd.add_argument("--output", default="EXPERIMENTS.md")
    report_cmd.set_defaults(handler=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TaskletError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
