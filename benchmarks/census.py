"""Call census: which functions of ``src/`` does a serving driver reach?  ``PYTHONPATH=src python
benchmarks/census.py [--check] [--out DIR]`` runs the examples, the smokes, every ``repro`` subcommand
(two peered live brokers read by ``top``, ``trace``, ``metrics --from-url``) and the e2e ``--smoke`` as
serving drivers, then ``repro report`` apart, under ``sys.setprofile`` / ``threading.setprofile`` in
every Python process.  ``DIR/census.txt`` lists each def in one of three sets: reached by a serving
driver, reached only by the report, and never reached (a body of ``...`` or ``raise
NotImplementedError`` declares an interface: not counted).  ``--check`` fails on a never-reached
def, or on a report-only def outside ``repro/bench/``, that ``census_allowlist.txt`` does not name;
on a stale or ill-reasoned entry; or on a failed serving driver.  ~1.5 min on 2 cores."""

import argparse, ast, glob, os, signal, socket, subprocess, sys, tempfile, time  # noqa: E401

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC, PY, E2E = os.path.join(ROOT, "src"), sys.executable, os.path.join(ROOT, "benchmarks", "e2e", "run.py")
REASONS = ("failure path", "asyncio protocol callback", "TVM builtin or translator handler", "test seam",
           "reference oracle", "ablation subject")
HOOK = '''import atexit, os, sys, threading
_src, _seen = os.environ["CENSUS_SRC"], set()
def _hook(frame, event, arg, _add=_seen.add):
    if event == "call" and frame.f_code.co_filename.startswith(_src): _add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
def _dump():  # a multiprocessing child leaves through os._exit, past atexit
    with open(os.path.join(os.environ["CENSUS_OUT"], "reached-%d.txt" % os.getpid()), "a") as f:
        f.writelines("%s:%d\\n" % seen for seen in _seen)
atexit.register(_dump); os._exit = lambda code, _real=os._exit: (_dump(), _real(code))
sys.setprofile(_hook); threading.setprofile(_hook)
'''
CLIENT = '''from repro.dag.patterns import chain
from repro.transport.tcp import TcpConsumer, TcpProvider
with TcpConsumer("127.0.0.1", {port}) as consumer:
    with TcpProvider("127.0.0.1", {port}):
        consumer.submit_workflow(chain(8, work=50)).result(timeout=60)
    consumer.submit_workflow(chain(2))  # no provider left: still in flight when top reads /healthz
'''
PROGRAM = "func main(n: int) -> int { var s: int = 0; for (var i: int = 0; i < n; i = i + 1) { s = s + i % 7; } return s; }"
SCRIPTS = (("obs", "--events-log", "obs.jsonl"), ("durability", "--journal", "wj.jsonl"),
           ("dag", "--journal", "dag.jsonl"), ("trace", "--chrome-out", "chrome.json"),
           ("federation", "--journal-dir", ".", "--events-log", "fed.jsonl"))
OFFLINE = (("compile", "census.tl", "-o", "census.json"), ("compile", "census.tl", "--disasm"),
           ("disasm", "--translated", "census.json"), ("run", "census.tl", "40", "--stats"),
           ("bench", "--limit", "300", "--repetitions", "1"),
           ("simulate", "--tasks", "4", "--limit", "200", "--strategy", "reliability_aware"),
           *(("metrics", "--tasks", "3", "--limit", "200", "--format", f) for f in ("prom", "json", "traces")))
LIVE = (("top", "{url}", "--once"), ("top", "{url}", "--once", "--format", "json"),
        *(("trace", "chain-d8", "--url", "{url}", "--format", f) for f in ("table", "json", "chrome")),
        *(("metrics", "--from-url", "{url}", "--format", f) for f in ("prom", "json", "traces")))
AFTER = (("journal", "b1.jsonl"), ("journal", "b1.jsonl", "--format", "json", "--pending"),
         ("journal", "wj.jsonl", "--compact"))


def functions():
    """``path:qualname`` -> (file, first line, last line) of every counted def in src/."""
    found = {}
    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body[1:] if ast.get_docstring(child) else child.body
                if not (len(body) == 1 and ast.unparse(body[0]) in ("...", "raise NotImplementedError")):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    key = f"{os.path.relpath(path, SRC)}:{prefix}{child.name}"
                    found[key if key not in found else f"{key}@{first}"] = (path, first, child.end_lineno)
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            walk(path, child, prefix + child.name + "." if named else prefix)
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True)):
        walk(path, ast.parse(open(path).read()), "")
    return found


def drive(tmp, env, report_out):
    """Run every driver in ``tmp``, ``repro report`` last into ``report_out``; returns the serving
    drivers that failed (``report``'s verdicts time the host)."""
    failed, ports = [], {}
    def run(*argv):
        if subprocess.run(argv, cwd=tmp, env=env, stdout=subprocess.DEVNULL).returncode:
            failed.append(" ".join(argv[1:4]))
    def broker(me, peer, *options):  # peered, journalled, gossiping every 0.2 s
        argv = ("--broker-id", me, "--port", str(ports[me]), "--journal", f"{me}.jsonl", "--gossip-interval", "0.2",
                "--peer", f"{peer}=127.0.0.1:{ports[peer]}", "--peer-journal", f"{peer}={peer}.jsonl", *options)
        return subprocess.Popen([PY, "-m", "repro", "broker", *argv], cwd=tmp, env=env, stdout=subprocess.DEVNULL)
    open(os.path.join(tmp, "census.tl"), "w").write(PROGRAM)
    for argv in (*([example] for example in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))),
                 *([os.path.join(ROOT, "scripts", f"{name}_smoke.py"), *rest] for name, *rest in SCRIPTS),
                 *(["-m", "repro", *argv] for argv in OFFLINE)):
        run(PY, *argv)
    ports.update((name, socket.create_server(("127.0.0.1", 0)).getsockname()[1]) for name in ("b1", "b2", "obs"))
    brokers = [broker("b1", "b2", "--obs-port", str(ports["obs"]), "--journal-compact-records", "8"), broker("b2", "b1")]
    while brokers[0].poll() is None and socket.socket().connect_ex(("127.0.0.1", ports["obs"])):
        time.sleep(0.2)  # until b1 serves its observability endpoints
    run(PY, "-c", CLIENT.format(port=ports["b1"]))
    for argv in LIVE:
        run(PY, "-m", "repro", *(arg.format(url=f"http://127.0.0.1:{ports['obs']}") for arg in argv))
    for node in reversed(brokers):  # b1 outlives b2's peer horizon and adopts b2's journal
        node.send_signal(signal.SIGTERM)
        failed += ["broker"] if node.wait(timeout=30) else []
        time.sleep(1.0)
    for argv in (*(["-m", "repro", *argv] for argv in AFTER), [E2E, "--smoke", "--seed", "1", "--out", "e2e"]):
        run(PY, *argv)
    subprocess.run([PY, "-m", "repro", "report", "--output", "EXPERIMENTS.md"], cwd=tmp,
                   env=dict(env, CENSUS_OUT=report_out), stdout=subprocess.DEVNULL)
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split(".")[0])
    parser.add_argument("--check", action="store_true"), parser.add_argument("--out")
    args, started, every = parser.parse_args(), time.monotonic(), functions()
    tmp = os.path.abspath(args.out or tempfile.mkdtemp(prefix="census-"))
    os.makedirs(report_out := os.path.join(hook := os.path.join(tmp, "hook"), "report"), exist_ok=True)
    open(os.path.join(hook, "sitecustomize.py"), "w").write(HOOK)
    env = dict(os.environ, PYTHONPATH=f"{hook}{os.pathsep}{SRC}", CENSUS_SRC=SRC + os.sep, CENSUS_OUT=hook)
    failed = drive(tmp, env, report_out)
    def reached(out):
        return {tuple(row.rsplit(":", 1)) for dump in glob.glob(f"{out}/reached-*") for row in open(dump).read().split()}
    serving, by_report = reached(hook), reached(report_out)
    where = {key: ("serving" if (path, str(first)) in serving else "report-only" if (path, str(first)) in by_report
                   else "unreached") for key, (path, first, last) in every.items()}
    unreached = {key: every[key] for key, kind in where.items() if kind == "unreached"}
    allowed = dict(row.split(None, 1) for row in open(os.path.join(ROOT, "benchmarks", "census_allowlist.txt"))
                   .read().splitlines() if row.strip() and not row.startswith("#"))
    bad = [key for key, reason in sorted(allowed.items()) if key not in every or reason.strip() not in REASONS]
    missing = {key for key, kind in where.items() if kind != "serving" and key not in allowed
               and (kind == "unreached" or not key.startswith("repro/bench/"))}
    lines = len({(path, n) for path, first, last in unreached.values() for n in range(first, last + 1)})
    only = sum(kind == "report-only" for kind in where.values())
    report = [f"{len(unreached)} of {len(every)} functions in src/ unreached ({lines} lines), {only} reached only by "
              f"the report; {len(allowed)} allowlisted; drivers failed: {failed or 'none'} "
              f"({time.monotonic() - started:.0f} s)",
              *(f"{kind} {key}  {allowed.get(key, 'NOT ALLOWLISTED' if key in missing else '')}".rstrip()
                for kind in ("serving", "report-only", "unreached") for key in sorted(every) if where[key] == kind),
              *(f"bad allowlist entry {key}" for key in bad)]
    open(os.path.join(tmp, "census.txt"), "w").write("\n".join(report) + "\n")
    print("\n".join([report[0], *(line for line in report[1:] if line.startswith("bad") or "NOT ALLOWLISTED" in line)]),
          tmp)
    return 1 if args.check and (missing or bad or failed) else 0


if __name__ == "__main__":
    sys.exit(main())
