"""Random-number discipline for reproducible experiments.

Experiments must be exactly repeatable, so no middleware component ever
touches the global :mod:`random` state.  Instead, a single :class:`RngRegistry`
is seeded per run and hands out *named* child generators — one per concern
(scheduling noise, failure injection, workload generation, network jitter).
Two runs with the same seed and the same set of stream names observe
identical randomness regardless of the order in which unrelated components
draw numbers.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name.

    The derivation hashes both inputs so that adjacent master seeds do not
    produce correlated child streams (a common pitfall of ``seed + i``).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory of independent, named random streams.

    >>> reg = RngRegistry(seed=42)
    >>> a = reg.stream("failures")
    >>> b = reg.stream("workload")
    >>> a is reg.stream("failures")   # streams are memoised
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the memoised generator for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.seed, name))
        return self._streams[name]
