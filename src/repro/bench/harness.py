"""Experiment harness: tables, series, and shape checks.

Every reconstructed table/figure (see DESIGN.md §3) is implemented as a
function returning a :class:`Table`; ``benchmarks/`` calls them with quick
parameters under pytest-benchmark, and ``python -m repro report``
runs the full set and regenerates EXPERIMENTS.md.

A :class:`Table` is intentionally dumb — ordered columns, homogeneous
rows, text rendering — because the deliverable is "prints the same rows/
series the paper reports", not a plotting stack.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Sequence


@dataclass
class Table:
    """One experiment's output: a titled, column-ordered grid."""

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    @staticmethod
    def _format_cell(value: Any) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000 or abs(value) < 0.01:
                return f"{value:.3g}"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    def render(self) -> str:
        """Fixed-width text rendering (the harness's terminal output)."""
        cells = [[self._format_cell(value) for value in row] for row in self.rows]
        widths = [
            max(len(column), *(len(row[i]) for row in cells)) if cells else len(column)
            for i, column in enumerate(self.columns)
        ]
        lines = [f"== {self.title} =="]
        header = "  ".join(
            column.ljust(widths[i]) for i, column in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("  ".join("-" * width for width in widths))
        for row in cells:
            lines.append(
                "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """GitHub-flavoured markdown rendering (for EXPERIMENTS.md)."""
        lines = [
            "| " + " | ".join(self.columns) + " |",
            "|" + "|".join("---" for _ in self.columns) + "|",
        ]
        for row in self.rows:
            lines.append(
                "| " + " | ".join(self._format_cell(value) for value in row) + " |"
            )
        for note in self.notes:
            lines.append(f"\n*{note}*")
        return "\n".join(lines)


@dataclass
class ShapeCheck:
    """One shape claim about an experiment's output.

    Shape claims are the reproduction's substitute for matching absolute
    numbers: "speedup grows with providers", "benchmark-aware beats
    random", "success rate falls with crash probability unless redundant".
    """

    description: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.description}{suffix}"


@dataclass
class Experiment:
    """A table plus its verified shape claims."""

    experiment_id: str  # "T1", "F3", ...
    table: Table
    checks: list[ShapeCheck] = field(default_factory=list)

    def check(self, description: str, passed: bool, detail: str = "") -> None:
        self.checks.append(ShapeCheck(description, passed, detail))

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def render(self) -> str:
        parts = [self.table.render()]
        parts.extend(check.render() for check in self.checks)
        return "\n".join(parts)


def best_times(callables, repetitions: int = 3) -> list[float]:
    """Fastest-of-N wall time of each of ``callables`` in seconds, timed in
    turn within each repetition: a burst of contention on a shared host
    slows every column of the repetition it falls in, not one column's
    every repetition, so it cannot move their ratio."""
    best = [float("inf")] * len(callables)
    for _ in range(repetitions):
        for index, callable_ in enumerate(callables):
            started = time.perf_counter()
            callable_()
            best[index] = min(best[index], time.perf_counter() - started)
    return best


def monotone_increasing(values: Sequence[float], tolerance: float = 0.0) -> bool:
    """True when each value is >= the previous (within ``tolerance``)."""
    return all(b >= a - tolerance for a, b in zip(values, values[1:]))


def monotone_decreasing(values: Sequence[float], tolerance: float = 0.0) -> bool:
    """True when each value is <= the previous (within ``tolerance``)."""
    return all(b <= a + tolerance for a, b in zip(values, values[1:]))


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (all values must be positive)."""
    if not values:
        raise ValueError("geometric mean of empty sequence")
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError(f"geometric mean requires positive values, got {value}")
        product *= value
    return product ** (1.0 / len(values))
