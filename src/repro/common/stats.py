"""The two statistics the stdlib's ``statistics`` module lacks.

Pure-Python on purpose: the broker's reliability tracker runs inside the
middleware where a numpy dependency would be unwelcome, and the quantities
involved (hundreds of samples) never justify vectorisation.
"""

from __future__ import annotations

import math
from typing import Sequence


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
