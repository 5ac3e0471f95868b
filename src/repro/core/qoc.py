"""Quality of Computation (QoC) goals.

Tasklets are *best effort* by default: the middleware tries to execute
them once, and a lost provider simply loses the computation.  Applications
with stronger needs attach QoC goals to individual Tasklets; the broker
and the consumer library cooperate to honour them:

``reliability``
    Execute ``redundancy`` replicas on distinct providers and vote on the
    results; re-issue failed executions up to ``max_attempts`` times.
``speed``
    Prefer the fastest known providers (benchmark-aware scheduling)
    instead of balancing load.
``privacy`` (``local_only``)
    Never ship the Tasklet to a remote provider; the consumer's own TVM
    executes it.
``remote_only``
    Never execute locally (e.g. to save a phone's battery), even if no
    remote provider is currently available — the Tasklet waits.
``deadline_s``
    A soft per-Tasklet deadline; the broker re-issues executions that have
    not produced a result within it.
``cost_ceiling``
    Upper bound on provider price-per-gigacycle the broker may select
    (cost-aware extension).

The combination ``local_only + remote_only`` is contradictory and rejected
at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import QoCUnsatisfiable
from ..common.record import Record, record

#: Upper bound on replicas; beyond this the marginal reliability gain is
#: negligible while the provider-time cost keeps growing linearly.
MAX_REDUNDANCY = 7


@record("qoc")
@dataclass(frozen=True)
class QoC(Record):
    """Immutable QoC goal set attached to a Tasklet; on the wire, the
    ``qoc`` record inside one.

    The default instance (``QoC()``) expresses pure best-effort execution.
    """

    redundancy: int = 1
    max_attempts: int = 1
    speed: bool = False
    local_only: bool = False
    remote_only: bool = False
    deadline_s: float | None = None
    cost_ceiling: float | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.redundancy <= MAX_REDUNDANCY:
            raise QoCUnsatisfiable(
                f"redundancy must be in [1, {MAX_REDUNDANCY}], got {self.redundancy}"
            )
        if self.max_attempts < 1:
            raise QoCUnsatisfiable(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.local_only and self.remote_only:
            raise QoCUnsatisfiable("local_only and remote_only are contradictory")
        if self.local_only and self.redundancy > 1:
            raise QoCUnsatisfiable(
                "redundant execution is meaningless with local_only"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise QoCUnsatisfiable(f"deadline must be positive, got {self.deadline_s}")
        if self.cost_ceiling is not None and self.cost_ceiling < 0:
            raise QoCUnsatisfiable(
                f"cost ceiling must be non-negative, got {self.cost_ceiling}"
            )

    # -- classification used by broker and library --------------------------------

    @property
    def is_best_effort(self) -> bool:
        """True when no goal beyond single best-effort execution is set."""
        return self == QoC()

    @property
    def wants_voting(self) -> bool:
        """True when replica results must be compared before acceptance."""
        return self.redundancy >= 2

    # -- convenience constructors ---------------------------------------------------

    @classmethod
    def reliable(cls, redundancy: int = 3, max_attempts: int = 5) -> "QoC":
        """Redundant execution with voting and re-issue."""
        return cls(redundancy=redundancy, max_attempts=max_attempts)

    @classmethod
    def fast(cls) -> "QoC":
        """Benchmark-aware provider selection."""
        return cls(speed=True)

    @classmethod
    def private(cls) -> "QoC":
        """Local-only execution (data never leaves the device)."""
        return cls(local_only=True)
