"""Network models for the simulator.

The paper's testbed spans a campus LAN plus mobile devices; we model the
network as a per-message delivery delay.  Two models cover the
experiments:

* :class:`ConstantLatency` — fixed one-way delay, the default;
* :class:`BandwidthLatency` — base delay plus a size-proportional term,
  used in the overhead-decomposition experiment (F2) where code+data
  transfer matters.

Message size, when a model needs it, is the ``bin2`` frame the real
transport sends, so code-shipping costs are faithful to it.
"""

from __future__ import annotations

from typing import Protocol

from ..common.ids import NodeId
from ..transport.codec import encode_envelope
from ..transport.message import Envelope


def wire_size(envelope: Envelope) -> int:
    """Exact size of this envelope on the real TCP transport, in bytes."""
    return len(encode_envelope(envelope))


class NetworkModel(Protocol):
    """Maps one message to its delivery delay in seconds."""

    def delay(self, src: NodeId, dst: NodeId, envelope: Envelope) -> float:
        ...


class ConstantLatency:
    """Fixed one-way delay for every message."""

    def __init__(self, latency_s: float = 0.005):
        if latency_s < 0:
            raise ValueError(f"latency must be >= 0, got {latency_s}")
        self.latency_s = latency_s

    def delay(self, src: NodeId, dst: NodeId, envelope: Envelope) -> float:
        return self.latency_s


class BandwidthLatency:
    """Base propagation delay plus serialisation over a shared-class link.

    ``bandwidth_bps`` is applied to the message's actual encoded size, so
    shipping a large compiled program costs proportionally more than a
    heartbeat — the effect the F2 breakdown measures.
    """

    def __init__(self, base_s: float = 0.002, bandwidth_bps: float = 100e6):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        self.base_s = base_s
        self.bandwidth_bps = bandwidth_bps

    def delay(self, src: NodeId, dst: NodeId, envelope: Envelope) -> float:
        return self.base_s + wire_size(envelope) * 8.0 / self.bandwidth_bps
