"""Failure-injection models for providers.

The paper's providers are volunteer/edge devices: they crash, lose
connectivity, or (in the byzantine case) return wrong results.  These
models let the simulator and the tests inject such behaviour
deterministically (all randomness flows from a seeded stream).

Two orthogonal axes:

* :class:`ExecutionFailureModel` — per-execution faults: silently dropping
  the result (crash mid-execution) or corrupting the value (byzantine /
  bit-flip), with independent probabilities;
* availability churn (a provider going entirely offline and back) lives in
  :mod:`repro.sim.churn`, because it is a property of the simulated node,
  not of a single execution.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass


class FaultKind(enum.Enum):
    """Outcome of the per-execution fault draw."""

    NONE = "none"
    DROP = "drop"  # execute but never report (crash before send)
    CORRUPT = "corrupt"  # report a wrong value (byzantine)


@dataclass
class ExecutionFailureModel:
    """Draws a fault (or none) for each execution.

    ``drop_probability`` and ``corrupt_probability`` are evaluated
    independently per execution; drop wins when both fire.
    """

    drop_probability: float = 0.0
    corrupt_probability: float = 0.0
    rng: random.Random | None = None

    def __post_init__(self) -> None:
        for name, value in (
            ("drop_probability", self.drop_probability),
            ("corrupt_probability", self.corrupt_probability),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.rng is None:
            self.rng = random.Random(0)

    def draw(self) -> FaultKind:
        """Sample the fault for one execution."""
        if self.drop_probability and self.rng.random() < self.drop_probability:
            return FaultKind.DROP
        if self.corrupt_probability and self.rng.random() < self.corrupt_probability:
            return FaultKind.CORRUPT
        return FaultKind.NONE


def corrupt_value(value, rng: random.Random):
    """Corrupt a result value for byzantine injection.

    The corruption must (a) remain a valid Tasklet value so it survives
    the wire format, (b) differ from the honest value so voting can catch
    it, and (c) be *randomised per draw* — two independently byzantine
    providers must not corrupt to the same value, or they would form a
    spurious majority (real corruption — bit flips, truncated buffers,
    stale caches — is likewise uncorrelated across devices).
    """
    nonce = rng.randrange(1, 1 << 30)
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + nonce
    if isinstance(value, float):
        return value + float(nonce)
    if isinstance(value, str):
        return value + f" corrupt{nonce}"
    if isinstance(value, list):
        return list(value) + [nonce]
    return nonce  # None (void result) corrupts to a spurious value
