"""Network models for the simulator.

The paper's testbed spans a campus LAN plus mobile devices; we model the
network as a per-message delivery delay.  :class:`ConstantLatency` — a
fixed one-way delay — is the default; any object with the
:class:`NetworkModel` ``delay`` method can stand in for it (the
overhead-decomposition experiment, F2, charges a frame's size).
"""

from __future__ import annotations

from typing import Protocol

from ..common.ids import NodeId
from ..transport.message import Envelope


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
