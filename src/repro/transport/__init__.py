"""Transport: typed messages plus the real TCP deployment (see tcp.py)."""

from .codec import CODEC_BINARY
from .message import (
    AssignExecution,
    BROKER_ADDRESS,
    CancelExecution,
    Envelope,
    ExecutionRejected,
    ExecutionResult,
    Heartbeat,
    MESSAGE_TYPES,
    MessageBody,
    REASON_UNKNOWN_PROVIDER,
    RegisterAck,
    RegisterProvider,
    SubmitAck,
    SubmitTasklet,
    TaskletComplete,
    Unregister,
    body_of,
)

__all__ = [
    "AssignExecution",
    "BROKER_ADDRESS",
    "CODEC_BINARY",
    "CancelExecution",
    "Envelope",
    "ExecutionRejected",
    "ExecutionResult",
    "Heartbeat",
    "MESSAGE_TYPES",
    "MessageBody",
    "REASON_UNKNOWN_PROVIDER",
    "RegisterAck",
    "RegisterProvider",
    "SubmitAck",
    "SubmitTasklet",
    "TaskletComplete",
    "Unregister",
    "body_of",
]
