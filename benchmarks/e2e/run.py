#!/usr/bin/env python3
"""End-to-end tasklet round-trip benchmark over real loopback TCP.

For each workload: bring up a cluster (broker and consumer in this
process, two provider processes), drive it in a closed loop from one
load-generator thread, check every reply against a Python oracle, and
report what a user feels (tasklets/s, latency, CPU, memory, set-up time)
with tracing off, then a per-layer budget from a separate traced window.

    python benchmarks/e2e/run.py --seed 1                  # all workloads
    python benchmarks/e2e/run.py --seed 1 --workload coarse_vm
    python benchmarks/e2e/run.py --smoke                   # wiring check

The benchmark driver's form runs one workload in one mode and prints one
JSON object as the last line (see BENCHMARK.json at the repo root):

    python benchmarks/e2e/run.py --workload fine_backlog --seed 3 \\
        --seconds 12 --trace 0

README.md next to this file defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import multiprocessing
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# Always this checkout's code, as the provider processes get it, whatever
# PYTHONPATH or site-packages may offer.
sys.path.insert(0, str(ROOT / "src"))
try:
    from repro.tvm.compiler import compile_source
except ImportError:
    sys.exit(f"{Path(__file__).name}: no repro package under {ROOT / 'src'}")

from cluster import SLOTS, Cluster, ClusterError, Mark
from hostspeed import HostSpeedSampler, ReferenceClock
from loadgen import REQUEST_TIMEOUT_S, Requests, drive, submit, window_numbers
from tracing import layer_metrics, ratio
from workloads import BY_NAME, WORKLOADS, Workload

#: The timed window is cut into this many equal slices; the spread of the
#: per-slice values is what ``compare.py`` weighs a difference against.
SLICES = 6

#: One workload, set-ups and drains included, may not run longer.
HARD_TIMEOUT_S = 170.0

#: Metrics printed by the full run that BENCHMARK.json does not list:
#: ``failed_frac`` is 0 on a healthy run (the driver's ``failed`` count
#: carries it), the makespans exist on ``dag_stencil`` only, and an 18 s
#: window of ``dag_stencil`` holds too few workflows (~420) for a 99th
#: percentile that repeats.
EXTRA_UNITS = {
    "failed_frac": "frac",
    "latency_p99_ms": "ms",
    "workflow_makespan_p50_ms": "ms",
    "workflow_makespan_p95_ms": "ms",
}


@dataclasses.dataclass(frozen=True)
class Plan:
    """How long each part of one workload's run lasts."""

    setups: int
    warmup_s: float
    untraced_s: float
    traced_warmup_s: float
    traced_s: float


FULL = Plan(setups=1, warmup_s=2.0, untraced_s=12.0, traced_warmup_s=1.0, traced_s=6.0)
SMOKE = Plan(setups=1, warmup_s=0.5, untraced_s=1.0, traced_warmup_s=0.5, traced_s=1.0)


def driver_plan(seconds: float, trace: bool) -> Plan:
    """The driver gives one time budget per run.  A traced run splits it:
    a quarter for an untraced reference window (``trace.overhead_frac``),
    half for the traced window; per-layer numbers carry no bound, so the
    rest is left to the extra warm-up and drain."""
    if trace:
        return Plan(1, 2.0, 0.25 * seconds, 1.0, 0.5 * seconds)
    # Set-up time is the median of five cluster starts: one start is at
    # the mercy of whatever else the machine does in that quarter second.
    return Plan(5, 2.0, seconds, 0.0, 0.0)


@dataclasses.dataclass
class Phase:
    """One closed-loop window: every request, and a mark per slice edge."""

    requests: Requests
    marks: list[Mark]
    trace: dict | None


def memo_hits(stats: dict) -> int:
    """Tasklets and workflow nodes the broker answered from its result memo."""
    return stats["memo_hits"] + stats["workflow_nodes_memoized"]


# -- running -------------------------------------------------------------------


@contextlib.contextmanager
def cluster_up(workload: Workload, seed: int, deadline: float):
    """Set-up as a user pays it: cluster up, providers registered, kernel
    compiled, first correct round trip.  ``setup`` is that interval, as
    two ``time.monotonic_ns`` instants."""
    started = time.monotonic_ns()
    with Cluster(seed, deadline) as cluster:
        compile_started = time.perf_counter()
        compile_source(workload.kernel)
        compile_ms = (time.perf_counter() - compile_started) * 1e3
        next_case = workload.cases(random.Random(seed))
        what, expected = next_case()
        reply = submit(cluster.consumer.library, workload, what)
        if reply.result(timeout=REQUEST_TIMEOUT_S) != expected:
            raise ClusterError(f"{workload.name}: first round trip came back wrong")
        yield cluster, next_case, (started, time.monotonic_ns()), compile_ms


def measure(
    cluster: Cluster, workload: Workload, next_case, warmup_s: float, seconds: float,
    traced: bool,
) -> Phase:
    """Warm up, then mark ``SLICES`` equal slices of ``seconds``; drain."""
    stop = threading.Event()
    if traced:
        cluster.trace_on()
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="loadgen") as pool:
        loop = pool.submit(drive, cluster.consumer.library, workload, next_case, stop)
        try:
            time.sleep(warmup_s)
            marks = [cluster.mark()]
            for index in range(1, SLICES + 1):
                due = marks[0].at_ns / 1e9 + index * seconds / SLICES
                time.sleep(max(0.0, due - time.monotonic()))
                marks.append(cluster.mark())
        finally:
            stop.set()
        # Every outstanding request is answered (or timed out) before
        # anything is stopped or the shims come off.
        requests = loop.result()
    return Phase(requests, marks, cluster.trace_off() if traced else None)


def run_workload(workload: Workload, seed: int, plan: Plan) -> dict:
    deadline = time.monotonic() + HARD_TIMEOUT_S
    # One reference clock for the whole run: set-ups, both windows, drains.
    sampler = HostSpeedSampler().start()
    try:
        setups = []
        for _ in range(plan.setups - 1):
            with cluster_up(workload, seed, deadline) as (_, _, setup, _):
                setups.append(setup)
        with cluster_up(workload, seed, deadline) as (cluster, next_case, setup, compile_ms):
            setups.append(setup)
            untraced = measure(
                cluster, workload, next_case, plan.warmup_s, plan.untraced_s, traced=False
            )
            traced = (
                measure(
                    cluster, workload, next_case, plan.traced_warmup_s, plan.traced_s,
                    traced=True,
                )
                if plan.traced_s
                else None
            )
    finally:
        clock = sampler.stop()
    requests = untraced.requests + (traced.requests if traced else [])
    stats = (traced or untraced).marks[-1].stats
    record = {
        "workload": workload.name,
        "window": workload.window,
        "counts": workload.unit_name,
        "submitted": len(requests) * workload.units,
        "failed": sum(not request.correct for request in requests) * workload.units,
        "memo_hits": memo_hits(stats),
        # Reference seconds per wall second of the timed window: multiply a
        # reported time by it (divide a rate) to get back what a clock read.
        "host_speed": clock.speed(untraced.marks[0].at_ns, untraced.marks[-1].at_ns),
        "end_to_end": end_to_end(workload, untraced, setups, clock),
    }
    if traced is not None:
        record["per_layer"] = per_layer(workload, untraced, traced, compile_ms, clock)
        record["trace"] = traced.trace
    return record


# -- numbers -------------------------------------------------------------------


def span_numbers(
    workload: Workload, phase: Phase, a: Mark, b: Mark, clock: ReferenceClock
) -> dict:
    """What happened between two marks of a phase, in reference time: a
    slow host stretches CPU seconds as it stretches wall seconds."""
    numbers = window_numbers(phase.requests, workload.units, a.at_ns, b.at_ns, clock)
    done = numbers["completed_units"]
    speed = clock.speed(a.at_ns, b.at_ns)
    bench_ms = (b.bench_cpu_s - a.bench_cpu_s) * 1e3 * speed
    provider_ms = (b.provider_cpu_s - a.provider_cpu_s) * 1e3 * speed
    numbers["bench_proc.cpu_ms_per_tasklet"] = ratio(bench_ms, done)
    numbers["provider_proc.cpu_ms_per_tasklet"] = ratio(provider_ms, done)
    numbers["cpu_ms_per_tasklet"] = ratio(bench_ms + provider_ms, done)
    return numbers


def end_to_end(
    workload: Workload, phase: Phase, setups: list[tuple[int, int]], clock: ReferenceClock
) -> dict:
    marks = phase.marks
    whole = span_numbers(workload, phase, marks[0], marks[-1], clock)
    slices = [span_numbers(workload, phase, a, b, clock) for a, b in zip(marks, marks[1:])]
    # Reported name -> key in the numbers of a span.
    names = {
        name: name
        for name in (
            "tasklets_per_s", "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
            "cpu_ms_per_tasklet",
        )
    }
    if workload.is_workflow:
        # One request is one workflow, so its latency is the makespan.
        names["workflow_makespan_p50_ms"] = "latency_p50_ms"
        names["workflow_makespan_p95_ms"] = "latency_p95_ms"
    rows = {}
    for name, source in names.items():
        if source not in whole:
            raise ClusterError(f"{workload.name}: no correct reply in the timed window")
        per_slice = [numbers[source] for numbers in slices if source in numbers]
        # One stall delays every request then in flight (256 of them on
        # ``fine_backlog``) and so sets the tail of the whole window; the
        # median over the slices reports the typical tail instead and
        # repeats better (10.7 % against 16.5 % run-to-run spread).
        tail = source in ("latency_p95_ms", "latency_p99_ms") and per_slice
        rows[name] = {
            "value": statistics.median(per_slice) if tail else whole[source],
            "slices": per_slice,
        }
        if "latency" in source:
            rows[name]["n"] = whole["latency_samples"]
    submitted = len(phase.requests)
    rows["failed_frac"] = {
        "value": ratio(sum(not r.correct for r in phase.requests), submitted),
        "n": submitted,
    }
    rows["peak_rss_mb"] = {
        "value": phase.requests.peak_rss_kb / 1024.0 + marks[-1].provider_peak_rss_mb
    }
    setups_s = [(clock.at(ended) - clock.at(started)) / 1e9 for started, ended in setups]
    rows["setup_s"] = {
        "value": statistics.median(setups_s), "slices": setups_s, "n": len(setups_s)
    }
    return rows


def per_layer(
    workload: Workload, untraced: Phase, traced: Phase, compile_ms: float,
    clock: ReferenceClock,
) -> dict:
    first, last = traced.marks[0], traced.marks[-1]
    numbers = span_numbers(workload, traced, first, last, clock)
    done = numbers["completed_units"]
    values = layer_metrics(traced.trace, first.at_ns, last.at_ns, done, SLOTS)
    delta = {key: last.stats[key] - first.stats[key] for key in last.stats}
    values["broker.executions_per_tasklet"] = ratio(delta["executions_issued"], done)
    values["broker.replicas_queued_per_tasklet"] = ratio(delta["replicas_queued"], done)
    # Since cluster start, not per window: both must read 0 on a valid run.
    values["broker.memo_hits"] = memo_hits(last.stats)
    values["broker.providers_failed"] = last.stats["providers_failed"]
    values["compile_ms"] = compile_ms
    for name in ("bench_proc.cpu_ms_per_tasklet", "provider_proc.cpu_ms_per_tasklet"):
        values[name] = numbers[name]
    reference = span_numbers(
        workload, untraced, untraced.marks[0], untraced.marks[-1], clock
    )
    values["trace.overhead_frac"] = 1.0 - ratio(
        numbers["tasklets_per_s"], reference["tasklets_per_s"]
    )
    return {name: {"value": value} for name, value in values.items()}


# -- reporting -----------------------------------------------------------------


def load_manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units_of(manifest: dict) -> dict[str, str]:
    listed = manifest["end_to_end"] + manifest["per_layer"]
    return {**EXTRA_UNITS, **{metric["name"]: metric["unit"] for metric in listed}}


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    nproc = os.cpu_count() or 1
    load_1m = os.getloadavg()[0]
    if load_1m > nproc:
        print(
            f"warning: 1-min load average {load_1m:.2f} exceeds nproc={nproc}; "
            "numbers will be noisy",
            file=sys.stderr,
        )
    return {
        "seed": seed,
        "commit": commit,
        "nproc": nproc,
        "python": platform.python_version(),
        "load_1m_at_start": load_1m,
    }


def print_record(record: dict, units: dict[str, str], plan: Plan) -> None:
    print(
        f"\n== {record['workload']}  (window {record['window']}, "
        f"counts {record['counts']}, host speed {record['host_speed']:.3f}) =="
    )
    sections = [("end_to_end", f"end to end, {plan.untraced_s:g} s, tracing off")]
    if "per_layer" in record:
        sections.append(("per_layer", f"per layer, {plan.traced_s:g} s, traced"))
    for key, title in sections:
        print(f"-- {title}")
        for name, row in record[key].items():
            samples = f"  n={row['n']}" if "n" in row else ""
            print(f"  {name:36s} {row['value']:14.4f} {units[name]}{samples}")


def write_spans(path: Path, trace: dict) -> None:
    keys = ("name", "start_ns", "end_ns", "tasklet_id", "parent", "proc")
    with path.open("w") as out:
        for span in trace["spans"]:
            out.write(json.dumps(dict(zip(keys, span))) + "\n")


def run_and_write_spans(name: str, seed: int, plan: Plan, out_dir: Path) -> dict:
    record = run_workload(BY_NAME[name], seed, plan)
    write_spans(out_dir / f"spans-{name}.jsonl", record.pop("trace"))
    return record


def full_run(args, manifest: dict) -> int:
    plan = SMOKE if args.smoke else FULL
    units = units_of(manifest)
    env = environment(args.seed)
    print("environment: " + ", ".join(f"{key}={value}" for key, value in env.items()))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    records = []
    for name in names:
        # A fresh process per workload, as in the driver's form: CPU time
        # and peak memory then belong to this workload alone, not to the
        # spans and interned state the earlier ones left behind.
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            record = pool.submit(run_and_write_spans, name, args.seed, plan, out_dir).result()
        for section in ("end_to_end", "per_layer"):
            for metric, row in record[section].items():
                row["unit"] = units[metric]
        print_record(record, units, plan)
        records.append(record)
    results = out_dir / f"results-seed{args.seed}.json"
    results.write_text(
        json.dumps(
            {"environment": env, "plan": dataclasses.asdict(plan), "workloads": records},
            indent=1,
        )
        + "\n"
    )
    print(f"\nresults: {results}")
    return check(records)


def driver_run(args, manifest: dict) -> int:
    """One workload, one mode, one JSON line (the BENCHMARK.json contract)."""
    if not args.workload:
        sys.exit("--trace needs --workload")
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    record = run_workload(
        BY_NAME[args.workload], args.seed, driver_plan(seconds, bool(args.trace))
    )
    status = check([record])
    if status:
        return status
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {
        metric["name"]: {
            "value": record[section][metric["name"]]["value"],
            "unit": metric["unit"],
        }
        for metric in manifest[section]
    }
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["submitted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def check(records: list[dict]) -> int:
    """A memo hit means the broker answered without running the tasklet:
    whatever was timed then was not the round trip."""
    status = 0
    for record in records:
        if record["memo_hits"]:
            print(
                f"{record['workload']}: broker.memo_hits = {record['memo_hits']}, "
                "expected 0",
                file=sys.stderr,
            )
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=1, help="workload input seed")
    parser.add_argument("--workload", choices=sorted(BY_NAME), help="run only this one")
    parser.add_argument(
        "--smoke", action="store_true", help="1 s windows: checks the wiring, not speed"
    )
    parser.add_argument(
        "--out", default=str(HERE / "out"), help="where results and spans are written"
    )
    parser.add_argument("--seconds", type=float, help="driver form: measured seconds")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="driver form: 0 = end-to-end metrics, 1 = per-layer metrics",
    )
    args = parser.parse_args(argv)
    manifest = load_manifest()
    if args.trace is not None:
        return driver_run(args, manifest)
    return full_run(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
