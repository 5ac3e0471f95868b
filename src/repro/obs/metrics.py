"""A minimal, dependency-free metrics registry.

Three metric kinds — :class:`Counter` (monotonic), :class:`Gauge`
(set/inc/dec), :class:`Histogram` (fixed bucket boundaries, cumulative
exposition) — organised into labeled *families*: one registered name maps
to many children, one per distinct label-value tuple, exactly like the
Prometheus data model.  A :class:`StatsCounterFamily` is a counter that
counts nothing itself: it reads fields of the stats objects that do.

All mutation is thread-safe: the registry locks family creation, each
family locks child creation, and each child locks its own updates.  The
hot path of an already-created child is one small lock acquisition plus
an add, cheap enough for per-message instrumentation; the *disabled*
path (no registry attached anywhere) never reaches this module at all.

Output formats:

* :meth:`MetricsRegistry.render_prometheus` — the text exposition format
  (``# HELP`` / ``# TYPE`` headers, ``name{label="v"} value`` samples,
  cumulative ``_bucket``/``_sum``/``_count`` for histograms);
* :meth:`MetricsRegistry.snapshot` — a JSON-safe dict for programmatic
  consumption (the ``repro metrics --format json`` path).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Sequence

#: Default histogram boundaries for latencies in seconds (upper bounds;
#: an implicit +Inf bucket is always appended).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_INF = float("inf")


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus text exposition expects."""
    if value == _INF:
        return "+Inf"
    if value == -_INF:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_suffix(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class Counter:
    """A monotonically increasing value (one child of a family)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (one child of a family)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-boundary histogram (one child of a family).

    ``boundaries`` are inclusive upper bounds; an implicit +Inf bucket
    catches everything beyond the last one.  Exposition is cumulative,
    matching the Prometheus ``le`` convention.
    """

    def __init__(self, boundaries: Sequence[float]):
        self.boundaries: tuple[float, ...] = tuple(boundaries)
        self._lock = threading.Lock()
        self._bucket_counts = [0] * (len(self.boundaries) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.boundaries, value)
        with self._lock:
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        with self._lock:
            counts = list(self._bucket_counts)
        total = 0
        out: list[tuple[float, int]] = []
        for boundary, count in zip((*self.boundaries, _INF), counts):
            total += count
            out.append((boundary, total))
        return out


class _Family:
    """One registered metric name and its per-label-tuple children."""

    kind = ""

    def __init__(self, name: str, help: str, labelnames: Sequence[str]):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Any] = {}

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, *labelvalues, **labelkwargs):
        """The child for one label-value combination (created on demand)."""
        if labelkwargs:
            if labelvalues:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                labelvalues = tuple(
                    str(labelkwargs[name]) for name in self.labelnames
                )
            except KeyError as exc:
                raise ValueError(f"missing label {exc} for {self.name}") from exc
            if len(labelkwargs) != len(self.labelnames):
                raise ValueError(
                    f"{self.name} expects labels {self.labelnames}, "
                    f"got {tuple(labelkwargs)}"
                )
        else:
            labelvalues = tuple(str(value) for value in labelvalues)
        if len(labelvalues) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects {len(self.labelnames)} label values, "
                f"got {len(labelvalues)}"
            )
        with self._lock:
            child = self._children.get(labelvalues)
            if child is None:
                child = self._make_child()
                self._children[labelvalues] = child
            return child

    def children(self) -> list[tuple[tuple[str, ...], Any]]:
        with self._lock:
            return sorted(self._children.items())

    # -- unlabeled convenience: the family acts as its single child ---------

    def _solo(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labeled {self.labelnames}; use .labels(...)"
            )
        return self.labels()


class CounterFamily(_Family):
    kind = "counter"

    def _make_child(self) -> Counter:
        return Counter()

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    @property
    def value(self) -> float:
        return self._solo().value


class GaugeFamily(_Family):
    kind = "gauge"

    def _make_child(self) -> Gauge:
        return Gauge()

    def set(self, value: float) -> None:
        self._solo().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    @property
    def value(self) -> float:
        return self._solo().value


class HistogramFamily(_Family):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float],
    ):
        super().__init__(name, help, labelnames)
        boundaries = tuple(sorted(buckets))
        if not boundaries:
            raise ValueError("histogram needs at least one bucket boundary")
        self.buckets = boundaries

    def _make_child(self) -> Histogram:
        return Histogram(self.buckets)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    @property
    def count(self) -> int:
        return self._solo().count

    @property
    def sum(self) -> float:
        return self._solo().sum


class _FieldSum:
    """One child of a :class:`StatsCounterFamily`: a stats field summed
    over the family's stats objects whenever it is read."""

    def __init__(self, sources: list, field: str):
        self._sources = sources
        self._field = field

    @property
    def value(self) -> float:
        return float(sum(getattr(stats, self._field) for stats in tuple(self._sources)))


class StatsCounterFamily(_Family):
    """A counter family with no ``inc``: each label value names a field
    (``fields``; label ``""`` and key ``""`` when unlabeled), whose child
    reads that field summed over every stats object :meth:`track` was given
    (once each), and is not exposed while zero.  Nothing is untracked (a
    restarted core's predecessor stays in the sum), so values never go down."""

    kind = "counter"

    def __init__(self, name: str, help: str, label: str, fields: dict[str, str]):
        super().__init__(name, help, (label,) if label else ())
        self._sources: list = []
        for value, field in fields.items():
            self._children[(value,) if label else ()] = _FieldSum(self._sources, field)

    def _make_child(self):
        raise ValueError(f"{self.name} counts no other {self.labelnames} value")

    def track(self, stats) -> None:
        with self._lock:
            if all(source is not stats for source in self._sources):
                self._sources.append(stats)

    def children(self) -> list[tuple[tuple[str, ...], _FieldSum]]:
        return [(key, child) for key, child in super().children() if child.value]


class MetricsRegistry:
    """All metric families of one process (or one test's worth of nodes).

    Registration is idempotent: asking for an existing name returns the
    existing family, so several cores sharing a registry (broker +
    providers + consumers in one process) share the same families.  A
    kind or label mismatch on re-registration is a programming error and
    raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _register(self, family: _Family) -> _Family:
        with self._lock:
            existing = self._families.get(family.name)
            if existing is not None:
                if (
                    type(existing) is not type(family)
                    or existing.labelnames != family.labelnames
                ):
                    raise ValueError(
                        f"metric {family.name!r} re-registered as "
                        f"{type(family).__name__}{family.labelnames}, already "
                        f"{type(existing).__name__}{existing.labelnames}"
                    )
                return existing
            self._families[family.name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> CounterFamily:
        return self._register(CounterFamily(name, help, labelnames))  # type: ignore[return-value]

    def stats_counter(
        self, name: str, help: str, label: str, fields: dict[str, str]
    ) -> StatsCounterFamily:
        return self._register(StatsCounterFamily(name, help, label, fields))  # type: ignore[return-value]

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> GaugeFamily:
        return self._register(GaugeFamily(name, help, labelnames))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> HistogramFamily:
        return self._register(HistogramFamily(name, help, labelnames, buckets))  # type: ignore[return-value]

    def get(self, name: str) -> _Family | None:
        with self._lock:
            return self._families.get(name)

    def families(self) -> list[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # -- output -------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The text exposition format, families in name order."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labelvalues, child in family.children():
                suffix = _label_suffix(family.labelnames, labelvalues)
                if isinstance(child, Histogram):
                    for boundary, cumulative in child.cumulative_buckets():
                        le = _label_suffix(
                            (*family.labelnames, "le"),
                            (*labelvalues, _format_value(boundary)),
                        )
                        lines.append(f"{family.name}_bucket{le} {cumulative}")
                    lines.append(
                        f"{family.name}_sum{suffix} {_format_value(child.sum)}"
                    )
                    lines.append(f"{family.name}_count{suffix} {child.count}")
                else:
                    lines.append(
                        f"{family.name}{suffix} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe dump: ``{name: {kind, help, samples: [...]}}``."""
        out: dict[str, Any] = {}
        for family in self.families():
            samples: list[dict[str, Any]] = []
            for labelvalues, child in family.children():
                labels = dict(zip(family.labelnames, labelvalues))
                if isinstance(child, Histogram):
                    samples.append(
                        {
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "buckets": [
                                {"le": boundary, "count": cumulative}
                                for boundary, cumulative in child.cumulative_buckets()
                            ],
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return out


def parse_prometheus(text: str) -> dict[str, dict[str, float]]:
    """Parse text exposition back into ``{metric: {labelset: value}}``.

    A deliberately small parser for tests and the CLI round trip — it
    handles exactly what :meth:`MetricsRegistry.render_prometheus` emits.
    """
    out: dict[str, dict[str, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_and_labels, _, value_text = line.rpartition(" ")
        name, _, labels = name_and_labels.partition("{")
        labels = labels.rstrip("}")
        value = float(value_text)
        out.setdefault(name, {})[labels] = value
    return out
