"""Small statistics toolkit used by the benchmark harness and the broker.

Pure-Python on purpose: the broker's reliability tracker runs inside the
middleware where a numpy dependency would be unwelcome, and the quantities
involved (hundreds of samples) never justify vectorisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises ``ValueError`` on an empty sequence."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def variance(values: Sequence[float]) -> float:
    """Unbiased sample variance (n-1 denominator); 0.0 for a single sample."""
    n = len(values)
    if n == 0:
        raise ValueError("variance of empty sequence")
    if n == 1:
        return 0.0
    m = mean(values)
    return sum((v - m) ** 2 for v in values) / (n - 1)


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation."""
    return math.sqrt(variance(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100].

    Matches numpy's default (``linear``) interpolation so harness output is
    comparable with numpy-based post-processing.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high or ordered[low] == ordered[high]:
        # Second condition avoids one-ulp interpolation error between
        # equal neighbours (a*(1-f) + a*f can round below a).
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def median(values: Sequence[float]) -> float:
    """50th percentile."""
    return percentile(values, 50.0)


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a sample, as printed by the harness."""

    count: int
    mean: float
    stdev: float
    minimum: float
    p50: float
    p95: float
    maximum: float



def summarize(values: Iterable[float]) -> Summary:
    """Build a :class:`Summary` from any iterable of floats."""
    data = list(values)
    if not data:
        raise ValueError("summarize of empty sequence")
    return Summary(
        count=len(data),
        mean=mean(data),
        stdev=stdev(data),
        minimum=min(data),
        p50=median(data),
        p95=percentile(data, 95.0),
        maximum=max(data),
    )


class EwmaTracker:
    """Exponentially weighted moving average, for drifting quantities.

    The broker prefers EWMA over plain means for provider execution speed:
    a provider that slows down (thermal throttling, background load on the
    device) should lose its "fast" label within a few observations.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._value: float | None = None

    def add(self, value: float) -> float:
        """Fold one observation and return the updated average."""
        if self._value is None:
            self._value = value
        else:
            self._value = self.alpha * value + (1.0 - self.alpha) * self._value
        return self._value

    @property
    def value(self) -> float | None:
        """Current average, or ``None`` before the first observation."""
        return self._value
