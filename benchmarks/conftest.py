"""Shared helper for the per-table/figure benchmark cases.

Each case of ``bench_experiments.py`` wraps one reconstructed experiment
(see DESIGN.md §3 and ``repro.bench.experiments``).  The experiments are macro-benchmarks —
seconds each — so every benchmark runs exactly one round and additionally
asserts the experiment's shape checks, making ``pytest benchmarks/
--benchmark-only`` a full reproduction pass.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_experiment(benchmark):
    """Run one experiment module under pytest-benchmark, once."""

    def runner(module, quick=True):
        experiment = benchmark.pedantic(
            lambda: module.run(quick=quick), rounds=1, iterations=1
        )
        rendered = experiment.render()
        assert experiment.all_passed, f"shape checks failed:\n{rendered}"
        return experiment

    return runner
