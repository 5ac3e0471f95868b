"""T1…A5 — every reconstructed table, figure and ablation, one case each.

Regenerates each experiment of DESIGN.md §3 and asserts its reconstructed
shape claims.  See ``repro/bench/experiments/exp_*.py`` for the
experiment definitions and EXPERIMENTS.md for recorded results.  Run one
with ``pytest benchmarks/bench_experiments.py --benchmark-only -k F4``.
"""

import pytest

from repro.bench.experiments import ALL_EXPERIMENTS


@pytest.mark.parametrize("experiment_id", list(ALL_EXPERIMENTS))
def test_experiment(run_experiment, experiment_id):
    experiment = run_experiment(ALL_EXPERIMENTS[experiment_id])
    assert experiment.experiment_id == experiment_id
