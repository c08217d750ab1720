"""Query sessions: ids, structured lifecycle, isolated failure domains.

Every query the service accepts becomes a :class:`Session` with a
monotonically assigned id and a state machine::

    QUEUED --> RUNNING --> DONE
       |          |------> FAILED
       |          '------> CANCELLED
       '-----------------> SHED

``DONE`` is a clean fixpoint; ``FAILED`` is a structured backend failure
(OOM, timeout, exhausted retries, divergence guard); ``CANCELLED`` is a
cooperative stop (client deadline, drain grace) that may leave
a resumable checkpoint behind; ``SHED`` is load shedding — the session
was accepted but dropped before its evaluation ran (drain without a
checkpoint directory, or a client's cancel while it queued). A circuit
breaker rejects at submission and never sheds a queued session.

Sessions are isolated failure domains: each runs on its own
:class:`~repro.engine.database.Database` with its own memory quota, and
whatever its evaluation raises is captured into ``session.failure`` as a
``RecStepError.to_dict()``-shaped document — one query's crash can never
corrupt a neighbor's fixpoint or take the service down.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import ReproError


class SessionError(ReproError):
    """An illegal session lookup or lifecycle transition."""


class SessionState(enum.Enum):
    """Lifecycle states of a query session."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    SHED = "shed"

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL = {
    SessionState.DONE,
    SessionState.FAILED,
    SessionState.CANCELLED,
    SessionState.SHED,
}

#: Allowed lifecycle transitions (anything else is a bug in the service).
_TRANSITIONS: dict[SessionState, set[SessionState]] = {
    SessionState.QUEUED: {SessionState.RUNNING, SessionState.SHED},
    SessionState.RUNNING: {
        SessionState.DONE,
        SessionState.FAILED,
        SessionState.CANCELLED,
    },
    SessionState.DONE: set(),
    SessionState.FAILED: set(),
    SessionState.CANCELLED: set(),
    SessionState.SHED: set(),
}


@dataclass
class Session:
    """One query's journey through the service."""

    id: str
    request: object  # QueryRequest (typed loosely to avoid an import cycle)
    state: SessionState = SessionState.QUEUED
    #: Simulated service-clock timestamps of the lifecycle edges.
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: Memory reserved against the service budget while active (bytes).
    reserved_bytes: int = 0
    #: Whether ``reserved_bytes`` is currently counted in the admission
    #: controller's *pending* pool (queued, priced quota). Cleared when
    #: the quota moves to the reserved pool at admit time or is returned
    #: on cancel/shed.
    pending_reservation: bool = False
    #: Peak modeled bytes this session's evaluation held on the spill
    #: tier (0 when the spill rung never engaged).
    spilled_bytes: int = 0
    #: The evaluation outcome (an EvaluationResult), set on completion.
    result: object | None = None
    #: Structured failure document for FAILED/CANCELLED/SHED sessions.
    failure: dict | None = None
    #: Where drain checkpointed this session's partial state, if it did.
    checkpoint_dir: str | None = None
    #: Durable-view bookkeeping: the WAL seqno assigned to this update
    #: batch (``kind="update"`` against a durable view), and whether the
    #: session was rebuilt by crash recovery rather than submitted.
    wal_seqno: int | None = None
    recovered: bool = False

    @property
    def klass(self) -> str:
        return getattr(self.request, "klass", "default")

    def to_dict(self) -> dict:
        """Machine-readable recap (shutdown reports, ``--serve-trace``)."""
        doc: dict = {
            "id": self.id,
            "class": self.klass,
            "state": self.state.value,
            "submitted_at": round(self.submitted_at, 6),
            "reserved_bytes": self.reserved_bytes,
        }
        for key in ("started_at", "finished_at"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = round(value, 6)
        if self.spilled_bytes:
            doc["spilled_bytes"] = self.spilled_bytes
        if self.result is not None:
            doc["status"] = self.result.status
            doc["iterations"] = self.result.iterations
            doc["sim_seconds"] = round(self.result.sim_seconds, 6)
            doc["sizes"] = self.result.sizes()
        if self.failure is not None:
            doc["failure"] = dict(self.failure)
        if self.checkpoint_dir is not None:
            doc["checkpoint_dir"] = self.checkpoint_dir
        if self.wal_seqno is not None:
            doc["wal_seqno"] = self.wal_seqno
        if self.recovered:
            doc["recovered"] = True
        return doc


class SessionManager:
    """Creates sessions, enforces the lifecycle, and answers lookups."""

    def __init__(self, last_id: int = 0) -> None:
        self._sessions: dict[str, Session] = {}
        self._next_id = last_id

    def create(self, request, now: float) -> Session:
        self._next_id += 1
        session = Session(
            id=f"q-{self._next_id:05d}", request=request, submitted_at=now
        )
        self._sessions[session.id] = session
        return session

    def get(self, session_id: str) -> Session:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise SessionError(f"unknown session {session_id!r}") from None

    def transition(self, session: Session, state: SessionState) -> None:
        """Move ``session`` to ``state``, enforcing the lifecycle graph."""
        if state not in _TRANSITIONS[session.state]:
            raise SessionError(
                f"illegal transition {session.state.value} -> {state.value} "
                f"for session {session.id}"
            )
        session.state = state

    def all(self) -> list[Session]:
        return list(self._sessions.values())

    def counts(self) -> dict[str, int]:
        """Sessions per state (for reports)."""
        counts: dict[str, int] = {}
        for session in self._sessions.values():
            counts[session.state.value] = counts.get(session.state.value, 0) + 1
        return counts
