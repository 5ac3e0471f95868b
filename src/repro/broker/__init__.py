"""Broker: the sans-IO mediator between consumers and providers.

``core`` (membership + the tasklet lifecycle) with ``workflows`` (DAG
coordination), ``forwarding`` (federation peers) and ``observer`` (all
stats/metrics/events/spans) beside it; ``registry``, ``scheduling``,
``journal``, ``federation`` and ``accounting`` are the tables they use.
"""

from .core import BrokerConfig, BrokerCore
from .federation import FederationConfig, FederationCore, PeerState
from .journal import (
    CompletionRecord,
    JournalSnapshot,
    WorkJournal,
    memo_key_of,
    replay_journal,
)
from .observer import BrokerStats
from .registry import ProviderRecord, ProviderRegistry, ProviderView
from .scheduling import (
    FastestFirstStrategy,
    LeastLoadedStrategy,
    QoCStrategy,
    RandomStrategy,
    ReliabilityAwareStrategy,
    RoundRobinStrategy,
    STRATEGIES,
    Strategy,
    make_strategy,
)

__all__ = [
    "BrokerConfig",
    "BrokerCore",
    "BrokerStats",
    "CompletionRecord",
    "FederationConfig",
    "FederationCore",
    "PeerState",
    "JournalSnapshot",
    "ProviderRecord",
    "ProviderRegistry",
    "ProviderView",
    "WorkJournal",
    "memo_key_of",
    "replay_journal",
    "FastestFirstStrategy",
    "LeastLoadedStrategy",
    "QoCStrategy",
    "RandomStrategy",
    "ReliabilityAwareStrategy",
    "RoundRobinStrategy",
    "STRATEGIES",
    "Strategy",
    "make_strategy",
]
