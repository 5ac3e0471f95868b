#!/usr/bin/env python3
"""Judge results file B against results file A, one row per (workload, metric).

    python benchmarks/e2e/compare.py out/results-seed1.json out/results-seed2.json

A is the parent (or the first of two runs of the same code, the A/A
check), B the change.  Each end-to-end metric may get worse by at most
its bound, a share of A's value: the bounds of BENCHMARK.json, plus the
ones below for the metrics only the full run prints.  Verdicts:

``ok``          B is no worse than A by more than the bound.
``regressed``   B is worse than A by more than the bound.
``unresolved``  the spread is wider than the bound, so this pair of runs
                cannot tell.  The spread is the interquartile range of
                the per-slice values of either run (run.py cuts its timed
                window into slices) as a share of their median.  A row
                where every slice of one run beats every slice of the
                other is decided anyway.

Exits 1 if any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: (better, bound) for the full run's metrics BENCHMARK.json cannot list.
EXTRA_BOUNDS = {
    "latency_p99_ms": ("lower", 0.25),
    "workflow_makespan_p50_ms": ("lower", 0.2),
    "workflow_makespan_p95_ms": ("lower", 0.2),
    "failed_frac": ("lower", 0.0),  # any increase is a regression
}


def load_bounds() -> dict[str, tuple[str, float]]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["better"], m["bound"]) for m in manifest["end_to_end"]}
    return {**listed, **EXTRA_BOUNDS}


def spread(row: dict) -> float:
    """Interquartile range of the row's slices as a share of their median."""
    slices = row.get("slices", [])
    if len(slices) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(slices, n=4)
    return (q3 - q1) / statistics.median(slices)


def judge(a: dict, b: dict, better: str, bound: float) -> tuple[float, float, str]:
    """(how much worse B is, as a share of A; spread; verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    difference = sign * (b["value"] - a["value"])
    worse = difference / a["value"] if a["value"] else difference
    width = max(spread(a), spread(b))
    if width > bound and a.get("slices") and b.get("slices"):
        a_slices = [sign * value for value in a["slices"]]
        b_slices = [sign * value for value in b["slices"]]
        if max(b_slices) < min(a_slices):
            return worse, width, "ok"
        if min(b_slices) > max(a_slices) and worse > bound:
            return worse, width, "regressed"
        return worse, width, "unresolved"
    return worse, width, "regressed" if worse > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    bounds = load_bounds()
    runs = [json.loads(Path(path).read_text()) for path in argv]
    by_name = [{record["workload"]: record for record in run["workloads"]} for run in runs]
    regressed = 0
    print(
        f"{'workload':16s} {'metric':26s} {'A':>12s} {'B':>12s} "
        f"{'worse':>8s} {'spread':>8s} {'bound':>7s}  verdict"
    )
    for workload, record_a in by_name[0].items():
        record_b = by_name[1].get(workload)
        if record_b is None:
            continue
        for metric, a in record_a["end_to_end"].items():
            b = record_b["end_to_end"].get(metric)
            if b is None:
                continue
            better, bound = bounds[metric]
            worse, width, verdict = judge(a, b, better, bound)
            regressed += verdict == "regressed"
            print(
                f"{workload:16s} {metric:26s} {a['value']:12.4f} {b['value']:12.4f} "
                f"{worse:+8.1%} {width:8.1%} {bound:7.0%}  {verdict}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
