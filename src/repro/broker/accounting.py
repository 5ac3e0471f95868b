"""Cost accounting: the market ledger behind the cost QoC goal.

Providers register with a *price* (cost units per 10⁹ TVM instructions).
The ledger charges each successful execution at the executing provider's
price and tracks, per consumer, what was spent and, per provider, what
was earned.  Together with the strategies' ``cost_ceiling`` filtering
this forms the middleware's simple compute market:

* consumers bound what they will pay via ``QoC(cost_ceiling=...)``;
* the broker never places work on providers above the ceiling;
* completed work is billed at the provider's registered price;
* replicas and retries are billed too — reliability costs real money,
  which experiment F6 quantifies in provider-seconds and this ledger
  turns into cost units.

The ledger is deliberately an in-memory value object: persistence and
settlement are deployment concerns outside the middleware's scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.ids import NodeId

#: Price unit: cost per this many TVM instructions.
PRICE_QUANTUM = 1e9


def execution_cost(instructions: int, price: float) -> float:
    """Cost of one execution at ``price`` units per 10⁹ instructions."""
    if instructions < 0:
        raise ValueError(f"negative instruction count {instructions}")
    if price < 0:
        raise ValueError(f"negative price {price}")
    return instructions / PRICE_QUANTUM * price


@dataclass
class ConsumerAccount:
    """What one consumer has spent."""

    consumer_id: NodeId
    spent: float = 0.0
    executions_billed: int = 0
    instructions_billed: int = 0


@dataclass
class ProviderAccount:
    """What one provider has earned."""

    provider_id: NodeId
    earned: float = 0.0
    executions_billed: int = 0
    instructions_billed: int = 0


@dataclass
class CostLedger:
    """All charges recorded by one broker."""

    consumers: dict[NodeId, ConsumerAccount] = field(default_factory=dict)
    providers: dict[NodeId, ProviderAccount] = field(default_factory=dict)
    total_billed: float = 0.0
    _per_tasklet: dict[str, float] = field(default_factory=dict)

    def charge(
        self,
        consumer_id: NodeId,
        provider_id: NodeId,
        tasklet_key: str,
        instructions: int,
        price: float,
    ) -> float:
        """Bill one successful execution; returns the charged amount."""
        amount = execution_cost(instructions, price)
        consumer = self.consumers.setdefault(
            consumer_id, ConsumerAccount(consumer_id=consumer_id)
        )
        consumer.spent += amount
        consumer.executions_billed += 1
        consumer.instructions_billed += instructions
        provider = self.providers.setdefault(
            provider_id, ProviderAccount(provider_id=provider_id)
        )
        provider.earned += amount
        provider.executions_billed += 1
        provider.instructions_billed += instructions
        self.total_billed += amount
        self._per_tasklet[tasklet_key] = (
            self._per_tasklet.get(tasklet_key, 0.0) + amount
        )
        return amount

    def pop_cost_of(self, tasklet_key: str) -> float:
        """Total billed for one Tasklet (all replicas and retries), and
        its entry released (called when the Tasklet completes, to bound
        memory)."""
        return self._per_tasklet.pop(tasklet_key, 0.0)

    @property
    def conservation_holds(self) -> bool:
        """Invariant: total spent == total earned == total billed."""
        spent = sum(account.spent for account in self.consumers.values())
        earned = sum(account.earned for account in self.providers.values())
        return (
            abs(spent - self.total_billed) < 1e-9
            and abs(earned - self.total_billed) < 1e-9
        )
