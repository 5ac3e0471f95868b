"""Exception hierarchy for the Tasklet middleware.

All exceptions raised by this library derive from :class:`TaskletError`, so
applications can install a single ``except TaskletError`` guard around any
middleware interaction.  Sub-hierarchies mirror the subsystems: language and
virtual-machine errors, transport errors, and scheduling/QoC errors.
"""

from __future__ import annotations


class TaskletError(Exception):
    """Base class for every error raised by the Tasklet middleware."""


# ---------------------------------------------------------------------------
# Language / compilation errors
# ---------------------------------------------------------------------------


class LanguageError(TaskletError):
    """Base class for errors in Tasklet source code.

    Carries an optional source position so tooling can point at the
    offending token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class LexerError(LanguageError):
    """An unrecognised character or malformed literal in the source."""


class ParserError(LanguageError):
    """The token stream does not form a valid Tasklet program."""


class SemanticError(LanguageError):
    """The program parses but violates static rules (types, scopes)."""


class CompileError(LanguageError):
    """The checked AST could not be lowered to bytecode."""


# ---------------------------------------------------------------------------
# Virtual machine errors
# ---------------------------------------------------------------------------


class VMError(TaskletError):
    """Base class for runtime failures inside the Tasklet Virtual Machine."""


class VMTypeError(VMError):
    """An operation was applied to operands of the wrong runtime type."""


class VMDivisionByZero(VMError):
    """Integer or float division/modulo by zero."""


class VMIndexError(VMError):
    """Array access outside the valid index range."""


class VMStackOverflow(VMError):
    """The operand stack or the call stack exceeded its configured limit."""


class VMFuelExhausted(VMError):
    """The instruction budget ("fuel") ran out before the program finished.

    Providers use fuel to bound the execution time of untrusted Tasklets;
    exhaustion is reported to the consumer as a failed execution.
    """


class VMInvalidProgram(VMError):
    """The bytecode is structurally invalid (bad opcode, bad operand...)."""


# ---------------------------------------------------------------------------
# Middleware errors
# ---------------------------------------------------------------------------


class RecordError(TaskletError):
    """A record does not read as declared: a required field is missing, a
    field holds a value of another type, or one outside its closed set
    (see :mod:`repro.common.record`)."""


class TransportError(TaskletError):
    """A message could not be encoded, decoded, sent, or delivered."""


class CodecError(TransportError):
    """Wire-format encoding or decoding failed."""


class ConnectionClosed(TransportError):
    """The peer closed the connection while a message was in flight."""


class BrokerUnreachable(TransportError):
    """The connection to the broker was lost with requests outstanding.

    Pending :class:`~repro.core.futures.TaskletFuture`\\ s are failed with
    this error instead of hanging: the consumer cannot know whether the
    broker will ever answer, so the submission is reported as undeliverable
    and the application may resubmit once connectivity returns.
    """


class FederationExhausted(BrokerUnreachable):
    """Every broker in the consumer's failover list was tried and failed.

    Raised (and used to fail pending futures) once the capped reconnect
    budget is spent cycling the broker list.  ``brokers`` lists the
    ``host:port`` endpoints tried; ``attempts`` is the total connection
    attempts made.
    """

    def __init__(self, message: str, brokers: list[str] | None = None,
                 attempts: int = 0):
        self.brokers = list(brokers or [])
        self.attempts = attempts
        super().__init__(message)


class SchedulingError(TaskletError):
    """The broker could not produce a valid provider assignment."""


class NoProviderAvailable(SchedulingError):
    """No registered provider satisfies the Tasklet's QoC requirements."""


class QoCUnsatisfiable(SchedulingError):
    """The requested QoC goal combination is contradictory.

    Example: ``local_only`` together with ``remote_only``.
    """


class ExecutionFailed(TaskletError):
    """A Tasklet exhausted its retries without producing a result."""

    def __init__(self, message: str, attempts: int = 0):
        self.attempts = attempts
        super().__init__(message)


class DuplicateSubmission(TaskletError):
    """A tasklet id was submitted while its earlier submission is pending.

    Raised at submit time, before anything is registered or sent: the
    pending future keeps its answer.  Resubmitting the id is accepted
    again once that future has resolved or been failed.
    """


class ResultMismatch(TaskletError):
    """Redundant executions disagreed and no majority could be formed."""


class WorkflowError(TaskletError):
    """Base class for DAG-workflow errors (see :mod:`repro.dag`)."""


class WorkflowSpecError(WorkflowError):
    """A workflow specification is structurally invalid.

    Raised at build/validation time: duplicate or dangling node ids,
    dependency cycles, unknown program fingerprints, malformed argument
    placeholders.  Also used when a broker rejects a ``submit_workflow``.
    """


class WorkflowFailed(WorkflowError):
    """A workflow node exhausted its retries, failing the whole workflow.

    ``node_id`` names the failed node; ``dependents`` lists every
    downstream node (transitively) that could no longer run because of
    it.  The broker never executes dependents of a failed node — their
    inputs do not exist.
    """

    def __init__(
        self,
        message: str,
        node_id: str = "",
        dependents: list[str] | None = None,
    ):
        self.node_id = node_id
        self.dependents = list(dependents or [])
        super().__init__(message)


class TimeoutExpired(TaskletError):
    """Waiting for a Tasklet result exceeded the caller's deadline."""


class RegistrationError(TaskletError):
    """A provider or consumer could not register with the broker."""
