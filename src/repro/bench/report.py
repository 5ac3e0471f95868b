"""Regenerate EXPERIMENTS.md: run every experiment and record the results.

Usage::

    python -m repro report            # quick parameters (~2-4 min)
    python -m repro report --full     # paper-scale parameters
    python -m repro report T1 F3      # subset: the report goes to stdout

Each experiment module documents, in its docstring, the *shape claims*
reconstructed from the paper's design (the paper text itself being
unavailable — see DESIGN.md); the report records the measured tables and
the PASS/FAIL verdict of every claim.
"""

from __future__ import annotations

import time
from pathlib import Path

from .experiments import ALL_EXPERIMENTS

_HEADER = """# EXPERIMENTS — paper vs. measured

> Generated by `python -m repro report`{mode_note}.
>
> **Context.** The target paper's evaluation section was unavailable (the
> text supplied with the reproduction task was a different document — see
> the mismatch note at the top of DESIGN.md).  Every experiment below is
> therefore a *reconstruction*: the tables/figures such a system paper
> reports, with shape claims derived from the system's design goals
> rather than quoted numbers.  "Paper" rows state the qualitative claim;
> "measured" is this repository's output on the simulated testbed
> (substitutions documented in DESIGN.md §2).

| Id | Experiment | Claims checked | Verdict |
|---|---|---|---|
{summary_rows}

"""


def _docstring_claims(module) -> str:
    """Extract the 'Shape claims' paragraph from an experiment docstring."""
    doc = module.__doc__ or ""
    marker = "Shape claims"
    if marker not in doc:
        return ""
    claims = doc[doc.index(marker) :].strip()
    return " ".join(line.strip() for line in claims.splitlines())


def generate(
    experiment_ids: list[str] | None = None,
    quick: bool = True,
    output_path: str | Path | None = "EXPERIMENTS.md",
) -> bool:
    """Run experiments and (re)write the report — or print it, with no
    ``output_path``; returns overall pass."""
    selected = experiment_ids or list(ALL_EXPERIMENTS)
    unknown = [eid for eid in selected if eid not in ALL_EXPERIMENTS]
    if unknown:
        raise SystemExit(f"unknown experiment ids: {', '.join(unknown)}")

    sections = []
    summary_rows = []
    all_passed = True
    for experiment_id in selected:
        module = ALL_EXPERIMENTS[experiment_id]
        started = time.perf_counter()
        experiment = module.run(quick=quick)
        elapsed = time.perf_counter() - started
        print(experiment.render())
        print(f"({elapsed:.1f}s)\n")
        all_passed = all_passed and experiment.all_passed
        passed = sum(1 for check in experiment.checks if check.passed)
        verdict = "PASS" if experiment.all_passed else "**FAIL**"
        summary_rows.append(
            f"| {experiment_id} | {experiment.table.title.split(':', 1)[-1].strip()} "
            f"| {passed}/{len(experiment.checks)} | {verdict} |"
        )
        section = [f"## {experiment_id} — {experiment.table.title.split(':', 1)[-1].strip()}"]
        claims = _docstring_claims(module)
        if claims:
            section.append(f"\n**Paper (reconstructed):** {claims}\n")
        section.append("**Measured:**\n")
        section.append(experiment.table.to_markdown())
        section.append("\n**Shape checks:**\n")
        for check in experiment.checks:
            section.append(f"- `{'PASS' if check.passed else 'FAIL'}` {check.description}"
                           + (f" — {check.detail}" if check.detail else ""))
        section.append(f"\n_Runtime: {elapsed:.1f}s ({'quick' if quick else 'full'} parameters)._")
        sections.append("\n".join(section))

    mode_note = " with `--full` parameters" if not quick else " with quick parameters"
    content = _HEADER.format(
        mode_note=mode_note, summary_rows="\n".join(summary_rows)
    ) + "\n\n".join(sections) + "\n"
    if output_path is None:
        print(content)
    else:
        Path(output_path).write_text(content)
        print(f"wrote {output_path}", end="; ")
    print(f"overall: {'PASS' if all_passed else 'FAIL'}")
    return all_passed
