"""Consumer: the Tasklet Library and the consumer-side middleware core."""

from .core import ConsumerCore, ConsumerStats
from .library import Session, TaskletLibrary
from .session import CoreSession

__all__ = ["ConsumerCore", "ConsumerStats", "CoreSession", "Session", "TaskletLibrary"]
