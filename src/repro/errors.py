"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch library failures with a single ``except`` clause while
still being able to distinguish the failing subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ExpressionError(ReproError):
    """A problem while building or manipulating an expression tree."""


class TraceError(ExpressionError):
    """A user lambda could not be captured as an expression tree.

    Raised, for example, when a traced lambda uses ``and`` / ``or`` /
    ``not`` (which Python routes through ``__bool__`` and cannot be
    overloaded) instead of ``&`` / ``|`` / ``~``, or calls a method that is
    not on the supported whitelist.
    """


class UnsupportedExpressionError(ExpressionError):
    """An expression node is valid but not supported in this context."""


class QueryAnalysisError(ReproError):
    """The query is ill-typed: static analysis rejected it before codegen.

    Raised by :mod:`repro.expressions.typing` (expression-level inference
    and operator preconditions).  Carries the
    printed path of the offending sub-expression so the user sees *which*
    part of the query is wrong instead of a traceback out of generated
    code.
    """

    def __init__(self, message: str, path: str = "", expression=None):
        super().__init__(message)
        self.path = path
        self.expression = expression


class TranslationError(ReproError):
    """The expression tree could not be translated into a logical plan."""


class UnsupportedQueryError(ReproError):
    """A query is valid but cannot run on the selected engine.

    The native engine (paper §5) restricts queries to flat value types
    stored in arrays of structs; queries outside that fragment raise this.
    """


class CodegenError(ReproError):
    """Source generation or compilation of generated code failed."""


class GeneratedCodeViolation(CodegenError):
    """Generated source failed the verifier gate.

    Subclasses :class:`CodegenError` (itself under :class:`ReproError`) so
    existing handlers keep working.  ``violations`` is the list of
    human-readable findings; ``source`` is the offending generated module.
    """

    def __init__(self, message: str, violations=(), source: str = ""):
        super().__init__(message)
        self.violations = tuple(violations)
        self.source = source


class ExecutionError(ReproError):
    """A compiled or interpreted query failed while producing results."""


class DistributedError(ExecutionError):
    """Multi-process distributed execution failed as infrastructure.

    Raised by the coordinator/scheduler when the worker pool cannot
    complete a query — every worker died mid-query, a worker returned a
    malformed reply, or an artifact could not cross the process boundary
    when distribution was explicitly demanded.  Kernel-level failures
    (a divide-by-zero inside generated code, an empty-aggregate error)
    re-raise with their original sequential types instead: distribution
    must never change *what* error a query produces, only where it runs.
    """


class QueryCancelled(ExecutionError):
    """A query observed its cancellation token and stopped cooperatively.

    Subclasses :class:`ExecutionError`: to callers, a cancelled query is a
    query that failed to produce results, and existing handlers keep
    working.  ``reason`` distinguishes an explicit cancel from a deadline.
    """

    def __init__(self, message: str = "query cancelled", reason: str = "cancelled"):
        super().__init__(message)
        self.reason = reason


class QueryTimeoutError(QueryCancelled):
    """A query exceeded its per-request deadline.

    Raised by the serving executor when the deadline elapses, and from the
    query's own cancellation checkpoints once the shared token expires.
    """

    def __init__(self, message: str = "query deadline exceeded"):
        super().__init__(message, reason="deadline")


class ServiceError(ReproError):
    """A problem in the query serving layer (sessions, admission)."""


class AdmissionRejected(ServiceError):
    """The admission controller fast-failed a request: queue full.

    Backpressure, not an internal fault — the caller should retry later
    or shed the request.
    """


class SessionClosed(ServiceError):
    """An operation was attempted on a closed :class:`QuerySession`."""


class SchemaError(ReproError):
    """A schema definition or a value did not match its declared schema."""
