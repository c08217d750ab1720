"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries. Errors raised
*during evaluation* additionally derive from :class:`RecStepError`, which
carries structured context (stratum, iteration, offending table, modeled
bytes) so failure reports can say exactly where a run died instead of
re-parsing a message string.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CatalogError(ReproError):
    """A table/column was not found, or a name collides with an existing one."""


class SqlSyntaxError(ReproError):
    """The mini-SQL frontend could not tokenize or parse a statement."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class PlanError(ReproError):
    """A logical plan is malformed or cannot be bound against the catalog."""


class EngineError(ReproError):
    """A physical operator failed during execution."""


class RecStepError(EngineError):
    """An evaluation-time failure with structured context.

    ``context`` holds whatever the raise site knows: ``stratum``,
    ``iteration``, ``table``, ``modeled_bytes``, ``budget``, ``site`` —
    keys are optional and accumulate as the error unwinds (outer layers
    call :meth:`add_context` to attach the position the interpreter was
    at). ``to_dict`` renders the whole thing machine-readable for run
    reports.
    """

    def __init__(self, message: str, **context) -> None:
        super().__init__(message)
        self.message = message
        self.context: dict = {k: v for k, v in context.items() if v is not None}

    def add_context(self, **context) -> "RecStepError":
        """Attach additional context keys (existing keys win)."""
        for key, value in context.items():
            if value is not None and key not in self.context:
                self.context[key] = value
        return self

    def to_dict(self) -> dict:
        """Machine-readable form for run reports."""
        return {"error": type(self).__name__, "message": self.message, **self.context}

    def __str__(self) -> str:
        if not self.context:
            return self.message
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
        return f"{self.message} [{detail}]"


class KeyPackingError(EngineError):
    """A stable codec was asked for a code it cannot give.

    Raised when a value falls outside the explicit domain a
    :class:`~repro.engine.kernels.KeyCodec` was built with, or when its
    key needs more than the 63 bits of a compact concatenated key.
    """


class OutOfMemoryError(RecStepError):
    """The (modeled) memory budget was exceeded during execution.

    Mirrors the OOM failures the paper reports for baseline systems on the
    dense Gn-p workloads.
    """


class EvaluationTimeout(RecStepError):
    """The (modeled) evaluation exceeded its time budget (paper: >10h runs)."""


class EvaluationCancelled(RecStepError):
    """The runtime guard's deadline fired at a phase boundary.

    Unlike :class:`EvaluationTimeout` (the hard budget tripping mid-
    operation), this is raised only at stratum/iteration boundaries, so
    the interpreter state is consistent and a structured partial-result
    report can be assembled.
    """


class DivergenceGuardTripped(RecStepError):
    """A runtime divergence guard budget was exceeded mid-evaluation.

    Raised at iteration boundaries by :class:`~repro.resilience.guards.
    RuntimeGuard` when the loop exceeds ``max_iterations`` or
    ``max_total_rows`` without converging. Context carries ``kind``
    (which budget tripped), ``observed``, ``budget``, and the loop
    position, so the partial-result report mirrors a deadline trip but
    stays distinguishable via ``failure["kind"]``.
    """


class TransientFaultError(RecStepError):
    """An injected, retryable fault (fault-injection harness only).

    Never raised in production paths: only the deterministic fault
    injector produces these, and the retry layer is expected to absorb
    them. One escaping to a caller means retries were disabled or
    exhausted (see :class:`FaultRetriesExhausted`).
    """


class TransientStorageError(TransientFaultError):
    """A simulated transient storage/allocation error in a Database op."""


class FaultRetriesExhausted(RecStepError):
    """The retry policy gave up on a repeatedly faulting operation."""


class SpillError(RecStepError):
    """A spilled segment file is torn, corrupt, or unreadable.

    Raised only after the segment has been quarantined (renamed aside, so
    it can never be silently re-read) — the spill tier's contract is
    *slower, never wrong*: data that fails its checksum is surfaced as a
    structured storage failure, and recovery goes through checkpoint
    resume, not through trusting the bytes.
    """


class DatalogError(ReproError):
    """A Datalog program failed to parse or validate."""


class StratificationError(DatalogError):
    """Negation/aggregation through recursion: no valid stratification exists."""


class UnsupportedFeatureError(ReproError):
    """An engine was asked to evaluate a program outside its feature set.

    The baseline engines reproduce the feature envelopes of Table 1 (e.g.
    BigDatalog rejects mutual recursion, Souffle rejects recursive
    aggregation); they signal that by raising this error.
    """


# -- the failure taxonomy: what an exception means, said once ---------------------

#: exception class -> (result status, poisons a live view?), first match
#: wins. A poisoning failure struck mid-evaluation; a ``DatalogError`` is
#: raised by validation, before anything mutates.
_FAILURES: tuple[tuple[type[Exception], str, bool], ...] = (
    (OutOfMemoryError, "oom", True),
    (EvaluationTimeout, "timeout", True),
    (EvaluationCancelled, "cancelled", True),  # "deadline" for reason="deadline"
    (DivergenceGuardTripped, "guard", True),
    (FaultRetriesExhausted, "fault", True),
    (SpillError, "storage", True),
    (DatalogError, "fault", False),
)

#: What an evaluation reports as a result status instead of raising.
CONTROL_ERRORS = tuple(klass for klass, _, poisons in _FAILURES if poisons)

#: result status -> (terminal session state, CLI exit code: 0 ok, 1 hard
#: failure, 3 degraded-but-served; 2 is argparse's usage error).
STATUS_OUTCOMES: dict[str, tuple[str, int]] = {
    "ok": ("done", 0),
    "guard": ("failed", 3),
    "deadline": ("cancelled", 3),
    "cancelled": ("cancelled", 1),
    "oom": ("failed", 1),
    "timeout": ("failed", 1),
    "fault": ("failed", 1),
    "storage": ("failed", 1),
}

#: Statuses outside the table ("unsupported", anything unforeseen).
UNKNOWN_OUTCOME = ("failed", 1)


def classify_failure(error: Exception, **position) -> tuple[str, dict, bool]:
    """``(status, failure document, poisons-view?)`` for any exception.

    ``position`` (``stratum=``, ``iteration=``) joins the context of
    errors that carry one. The document always has a ``kind``: one set
    at the raise site (the guard's budget name, the deadline's ``reason``)
    wins over the status; the unforeseen is a ``fault``/``internal``.
    """
    if isinstance(error, RecStepError):
        doc = error.add_context(**position).to_dict()
    else:
        doc = {"error": type(error).__name__, "message": str(error)}
    for klass, status, poisons in _FAILURES:
        if isinstance(error, klass):
            if status == "cancelled" and doc.get("reason") == "deadline":
                status = "deadline"
            doc.setdefault("kind", doc.get("reason", status))
            return status, doc, poisons
    doc.setdefault("kind", "internal")
    return "fault", doc, False
