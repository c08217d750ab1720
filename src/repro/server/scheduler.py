"""The session scheduler: a discrete-event simulation that knows no Datalog.

*When* a request runs, on the service's own
:class:`~repro.common.timing.SimClock`: an admitted session occupies an
executor slot for the interval its handler reports, queued sessions
wait for slot *and* memory-reservation availability, and the clock
advances from completion event to completion event. *What* a request
does is a handler the subclass (:class:`~repro.server.service.
QueryService`) registers per ``kind``; nothing here imports
``repro.core`` or ``repro.datalog``, and ``kind`` selects only the
handler, the pricing and the latency family.

The stability disciplines, in the order a submission meets them:

1. **drain gate** — a draining service admits nothing new.
2. **admission control** — bounded queue + memory reservations against
   the high watermark; violations get a structured
   :class:`~repro.server.admission.Overloaded` rejection with a
   retry-after hint instead of unbounded buffering.
3. **circuit breaker** — a class with repeated backend failures is
   rejected at the door until a cooldown passes and a half-open probe
   succeeds.
4. **isolated execution** — each handler runs inside its session's
   failure domain: whatever it raises becomes a structured document on
   the session (:func:`repro.common.errors.classify_failure`), never an
   exception to a neighbor.
5. **graceful drain** — stop admitting, finish or checkpoint in-flight
   work, emit a machine-readable shutdown report.
"""

from __future__ import annotations

import re
import shutil
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import STATUS_OUTCOMES, UNKNOWN_OUTCOME, classify_failure
from repro.common.timing import SimClock
from repro.engine.metrics import DEFAULT_MEMORY_BUDGET
from repro.obs.counters import CounterRegistry
from repro.obs.histogram import HistogramSet
from repro.obs.timeline import ResourceTimeline
from repro.server.admission import (
    DEFAULT_RETRY_AFTER,
    AdmissionController,
    Overloaded,
    QueryRequest,
)
from repro.server.breaker import BreakerBoard
from repro.server.session import (
    Session,
    SessionError,
    SessionManager,
    SessionState,
)


def terminal_state(status: str) -> SessionState:
    """The session state a result status settles in (the taxonomy's)."""
    return SessionState(STATUS_OUTCOMES.get(status, UNKNOWN_OUTCOME)[0])


@dataclass(frozen=True)
class ServerConfig:
    """Service-level knobs (the engine's live in :class:`RecStepConfig`)."""

    max_concurrent: int = 4          # executor slots
    queue_limit: int = 8             # bounded admission queue
    memory_budget: int = DEFAULT_MEMORY_BUDGET  # service memory (bytes)
    #: Root of the spill-to-disk tier; each session spills into its own
    #: ``<spill_root>/<session-id>`` directory (None: spilling off).
    spill_root: str | None = None
    #: Root of the durable-view tier; each materialized view persists a
    #: base checkpoint + write-ahead log under ``<wal_root>/<session-id>``
    #: and :meth:`QueryService.recover` rebuilds views from it after a
    #: crash (None: views are memory-only, the pre-durability behavior).
    wal_root: str | None = None
    #: Compaction bound: once this many applied records accumulate (or
    #: the log passes ``wal.COMPACT_BYTES``), the view rolls a fresh base
    #: checkpoint and truncates its log.
    wal_compact_records: int = 64


def _last_id_on_disk(config: ServerConfig) -> int:
    """The highest session number naming a directory under the roots.

    Session ids name ``<spill_root>/<id>`` and ``<wal_root>/<id>``. A
    service over roots an earlier process used numbers its sessions
    past those, so no session writes into another's durable view.
    """
    numbers = [0]
    for root in (config.spill_root, config.wal_root):
        if root is not None and Path(root).is_dir():
            for child in Path(root).iterdir():
                match = re.match(r"q-(\d+)", child.name)
                if match:
                    numbers.append(int(match.group(1)))
    return max(numbers)


class Scheduler:
    """Admits, schedules, isolates and settles sessions of any kind."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.clock = SimClock()
        self.counters = CounterRegistry()
        self.sessions = SessionManager(last_id=_last_id_on_disk(config))
        self.admission = AdmissionController(
            queue_limit=config.queue_limit,
            memory_budget=config.memory_budget,
            max_concurrent=config.max_concurrent,
        )
        self.breakers = BreakerBoard(counters=self.counters)
        #: request kind -> ``handler(session, **extra)``: sets
        #: ``session.result`` / ``session.failure`` and returns
        #: ``(effective_start, duration, status)``. The subclass fills it.
        self._handlers: dict = {}
        #: request kind -> submit-time ``planner(request)``: an
        #: :class:`Overloaded` to bounce the request, or None.
        self._planners: dict = {"update": self._price_update}
        self._queue: deque[Session] = deque()
        #: (finish_time, session, result_status) for sessions whose
        #: evaluation interval is still occupying a slot.
        self._active: list[tuple[float, Session, str]] = []
        #: session id -> the live view (opaque here: anything with a
        #: ``release()``) a session left resident. Its memory reservation
        #: outlives the session's interval, so ``kind="update"`` requests
        #: can maintain the warm state instead of recomputing.
        self._views: dict = {}
        #: session id -> simulated time its view is serving until; update
        #: requests against the same view queue head-of-line behind it.
        self._view_busy_until: dict[str, float] = {}
        #: session id -> the durable half (a ``ViewDurability``) of views
        #: persisted under ``wal_root``; only its ``wal`` counts are read here.
        self._durability: dict = {}
        self.draining = False
        self._drain_checkpoint_dir: str | None = None
        # Per-class latency/queue-wait/rows distributions and the
        # admission-queue timeline.
        self.histograms = HistogramSet()
        self.queue_timeline = ResourceTimeline()

    # -- submission --------------------------------------------------------------

    def submit(self, request: QueryRequest) -> dict:
        """Queue one request; returns an acceptance or a structured rejection.

        Acceptance: ``{"accepted": True, "session_id": ...}``. Rejection:
        ``{"accepted": False, "overloaded": True, "reason": ...,
        "retry_after_seconds": ...}`` — the backpressure contract.
        """
        self.counters.inc("server.submitted")
        now = self.clock.now()
        if self.draining:
            return self._reject(
                Overloaded(
                    reason="draining",
                    retry_after_seconds=self._retry_hint(now),
                )
            )
        planner = self._planners.get(request.kind)
        overload = planner(request) if planner is not None else None
        if overload is None:
            overload = self.admission.check_submit(
                request,
                queue_depth=len(self._queue),
                retry_hint=self._retry_hint(now),
            )
        if overload is not None:
            return self._reject(overload)
        breaker = self.breakers.for_class(request.klass)
        if not breaker.allow(now):
            return self._reject(
                Overloaded(
                    reason="breaker-open",
                    retry_after_seconds=max(
                        breaker.retry_after(now), DEFAULT_RETRY_AFTER
                    ),
                    detail={"class": request.klass, "breaker": breaker.to_dict()},
                )
            )
        session = self.sessions.create(request, now)
        session.reserved_bytes = self.admission.quota_for(request)
        if request.priced:
            # Priced quotas count against the watermark from submission
            # on, so a burst of queued sessions cannot over-commit it.
            self.admission.note_pending(session.reserved_bytes)
            session.pending_reservation = True
        self._queue.append(session)
        self._sample_queue()
        return {"accepted": True, "session_id": session.id, "state": "queued"}

    def _price_update(self, request: QueryRequest) -> Overloaded | None:
        """An update needs a live target whose reservation absorbs its delta."""
        try:
            target = self.sessions.get(request.target_session)
        except SessionError:
            target = None
        # A live view, or a materialize session still on its way to one.
        if target is None or not (
            target.id in self._views
            or (target.request.materialize and not target.state.terminal)
        ):
            return Overloaded(
                reason="no-such-view",
                retry_after_seconds=DEFAULT_RETRY_AFTER,
                detail={"target_session": request.target_session},
            )
        # Admission-price the delta: maintenance scratch lives inside
        # the target view's reservation, so a batch the view's budget
        # cannot absorb bounces with backpressure instead of queuing.
        quota = self.admission.quota_for(request)
        if quota <= target.reserved_bytes:
            return None
        return Overloaded(
            reason="memory-pressure",
            retry_after_seconds=self._retry_hint(self.clock.now()),
            detail={
                "requested_bytes": quota,
                "view_reserved_bytes": target.reserved_bytes,
                "target_session": request.target_session,
            },
        )

    _REJECT_COUNTERS = {
        "queue-full": "server.rejected_queue_full",
        "memory-pressure": "server.rejected_memory",
        "draining": "server.rejected_draining",
        "breaker-open": "server.rejected_breaker",
        "no-such-view": "server.rejected_no_view",
        "bad-goal": "server.rejected_bad_goal",
    }

    def _reject(self, overload: Overloaded) -> dict:
        self.counters.inc("server.rejected")
        self.counters.inc(self._REJECT_COUNTERS[overload.reason])
        return {"accepted": False, **overload.to_dict()}

    def _retry_hint(self, now: float) -> float:
        """When capacity plausibly frees up: the earliest active finish."""
        if self._active:
            earliest = min(finish for finish, _, _ in self._active)
            return max(earliest - now, DEFAULT_RETRY_AFTER / 10.0)
        return DEFAULT_RETRY_AFTER

    # -- the event loop ----------------------------------------------------------

    def pump(self) -> None:
        """Process queued work until the queue is empty.

        Advances the service clock across completion events whenever the
        queue is blocked on a slot or a memory reservation. Completed
        sessions whose finish time is still in the future keep holding
        their slot until the clock passes it (``drain``/``flush`` push
        the clock to the end).
        """
        self._run(until_idle=False)

    def flush(self) -> None:
        """Advance the clock past every active evaluation (idle barrier)."""
        self._run(until_idle=True)

    def _run(self, until_idle: bool) -> None:
        while True:
            self._release_due()
            self._admit_ready()
            # A blocked queue with nothing running cannot progress by
            # waiting (only a quota above the watermark ceiling outright,
            # which check_submit rejects) — bail rather than spin.
            if not self._active or not (self._queue or until_idle):
                return
            earliest = min(finish for finish, _, _ in self._active)
            self.clock.advance(max(0.0, earliest - self.clock.now()))

    def _admit_ready(self) -> None:
        while self._queue and len(self._active) < self.config.max_concurrent:
            session = self._queue[0]
            # An update rides its target view's standing reservation:
            # nothing to take from the global pool.
            if session.request.kind != "update" and not self.admission.try_reserve(
                session.reserved_bytes, was_pending=session.pending_reservation
            ):
                return
            session.pending_reservation = False
            self._queue.popleft()
            self.counters.inc("server.admitted")
            self._execute(session)
            self._sample_queue()

    def _release_due(self) -> None:
        now = self.clock.now()
        remaining = []
        released = False
        for finish, session, status in self._active:
            if finish <= now:
                # A live view keeps its Database until release_view; an
                # update runs inside its view's and holds none of its own.
                if session.id not in self._views and session.request.kind != "update":
                    self._release(session)
                self._finalize(session, status, finish)
                released = True
            else:
                remaining.append((finish, session, status))
        self._active = remaining
        if released:
            self._sample_queue()

    # -- isolated execution ------------------------------------------------------

    def _begin(self, session: Session) -> None:
        """QUEUED -> RUNNING at the current instant."""
        self.sessions.transition(session, SessionState.RUNNING)
        session.started_at = self.clock.now()

    def _execute(self, session: Session) -> None:
        """Run one admitted session; its slot stays taken until it finishes."""
        self._begin(session)
        start, duration, status = self._isolated(
            session, self._handlers[session.request.kind]
        )
        recap = getattr(session.result, "resilience", None) or {}
        session.spilled_bytes = int(
            (recap.get("spill") or {}).get("peak_spilled_bytes", 0)
        )
        self._active.append((start + duration, session, status))

    def _isolated(self, session: Session, handler, **extra) -> tuple[float, float, str]:
        """Run ``handler`` inside the session's failure domain.

        Nothing it raises propagates: an escaped exception gets the
        status the engine's own guarded loop would have reported (the
        unforeseen is ``fault``/``internal``) and is billed 0 s, since
        the engine reports its time only in a result it returns.
        """
        try:
            return handler(session, **extra)
        except Exception as error:  # the isolation boundary: never propagate
            status, session.failure, _ = classify_failure(error)
            return session.started_at, 0.0, status

    def _settle(self, session: Session, state: SessionState, finish: float) -> None:
        session.finished_at = finish
        self.sessions.transition(session, state)

    def _finalize(self, session: Session, status: str, finish: float) -> None:
        """Apply the terminal state and breaker observation at finish time."""
        self._settle(session, terminal_state(status), finish)
        self.breakers.observe(session.klass, status, finish)
        self._observe_session(session, finish)
        recap = getattr(session.result, "resilience", None) or {}
        if session.checkpoint_dir is not None and recap.get("checkpoints_written"):
            self.counters.inc("server.checkpointed_on_drain")

    def _release(self, session: Session) -> None:
        """Return what a session's Database held: its pool reservation
        and its ``<spill_root>/<session-id>`` directory, together.

        Runs once per Database, when it is released: at the finish
        instant of a query or point session (or a materialize that left
        no view), and at ``release_view`` or drain for a view. Until
        then the reservation bounds what the Database may hold, spilled
        segments included: bytes on disk can be faulted back in. The
        engine's own cleanup deletes live segments; what can survive it
        (quarantined torn files, the directory) goes here.
        """
        self.admission.release(session.reserved_bytes)
        if self.config.spill_root is None:
            return
        path = Path(self.config.spill_root) / session.id
        if path.exists():
            shutil.rmtree(path, ignore_errors=True)
            self.counters.inc("server.spill_dirs_cleaned")

    # -- telemetry ---------------------------------------------------------------

    def _sample_queue(self) -> None:
        """One admission-timeline sample at the current service time.

        Taken at every event that changes the admission picture (accepted
        submit, admit, slot release), which in a discrete-event service
        is exactly the set of instants where the series can change.
        """
        self.queue_timeline.sample(
            self.clock.now(),
            queue_depth=len(self._queue),
            active=len(self._active),
            reserved_bytes=self.admission.reserved_bytes,
            spilled_bytes=sum(s.spilled_bytes for _, s, _ in self._active),
        )

    def _observe_session(self, session: Session, finish: float) -> None:
        """Latency/queue-wait/rows distributions, per class and overall."""
        latency = max(0.0, finish - session.submitted_at)
        started = session.started_at
        queue_wait = max(0.0, started - session.submitted_at) if started is not None else 0.0
        rows = 0
        if session.result is not None:
            rows = sum(session.result.sizes().values())
        # Updates and point queries get their own latency families: their
        # distributions (delta maintenance against a warm fixpoint; a
        # demand-restricted cone, often a cache hit) are the headlines
        # their benchmarks gate on, and folding either into
        # full-evaluation latency would blur all three.
        prefix = {
            "update": "update.latency",
            "point": "point.latency",
        }.get(session.request.kind, "latency")
        for klass in (session.klass, "all"):
            self.histograms.observe(f"{prefix}.{klass}", latency)
            self.histograms.observe(f"queue_wait.{klass}", queue_wait)
            self.histograms.observe(f"rows_served.{klass}", float(rows))
            if session.spilled_bytes:
                self.histograms.observe(
                    f"spill_bytes.{klass}", float(session.spilled_bytes)
                )

    #: Version stamp of the ``metrics_snapshot`` document; the golden
    #: schema test pins the key set, bump on any shape change. Version 4
    #: added the ``wal`` durability section; version 5 dropped the
    #: ``telemetry`` switch (the service always records).
    METRICS_SCHEMA_VERSION = 5

    def metrics_snapshot(self) -> dict:
        """Machine-readable telemetry export (histograms + timeline).

        Deterministic on the service's simulated clock: two runs with the
        same submission history produce byte-identical snapshots.
        """
        logs = [durability.wal for durability in self._durability.values()]
        return {
            "schema_version": self.METRICS_SCHEMA_VERSION,
            "now": round(self.clock.now(), 6),
            "histograms": self.histograms.snapshot(),
            "queue_timeline": {
                "samples": len(self.queue_timeline),
                "max_queue_depth": self.queue_timeline.peak("queue_depth"),
                "max_active": self.queue_timeline.peak("active"),
                "max_reserved_bytes": self.queue_timeline.peak("reserved_bytes"),
                "max_spilled_bytes": self.queue_timeline.peak("spilled_bytes"),
                "series": self.queue_timeline.to_records(),
            },
            "counters": self.counters.snapshot(),
            "session_counts": self.sessions.counts(),
            "admission": self.admission.to_dict(),
            "wal": {
                "durable_views": len(logs),
                "records": sum(wal.record_count for wal in logs),
                "bytes": sum(wal.size_bytes for wal in logs),
                "last_seqno": max((wal.last_seqno for wal in logs), default=0),
            },
        }

    # -- drain and reporting -----------------------------------------------------

    def drain(self, checkpoint_dir: str | None = None) -> dict:
        """Stop admitting, settle in-flight work, return a shutdown report.

        With ``checkpoint_dir``, queued sessions still run — each under
        the drain grace deadline with per-session checkpointing into
        ``checkpoint_dir/<session-id>`` — so long-running work leaves a
        resumable snapshot (state CANCELLED) while short work finishes
        (DONE). Without it, queued sessions are shed immediately;
        running ones are always allowed to finish.
        """
        self.draining = True
        self._drain_checkpoint_dir = checkpoint_dir
        if checkpoint_dir is None:
            while self._queue:
                session = self._queue.popleft()
                self._shed(session, "drain")
        self.flush()
        # No view survives a drain: release every warm fixpoint (and its
        # standing memory reservation) once in-flight work has settled.
        for session_id in list(self._views):
            self.release_view(session_id)
        self._sweep_spill_root()
        report = self.report()
        report["drained"] = True
        report["drain_checkpoint_dir"] = checkpoint_dir
        return report

    def _sweep_spill_root(self) -> None:
        """Drain-time backstop: no spill state survives the shutdown."""
        root = self.config.spill_root
        if root is None or not Path(root).exists():
            return
        for child in Path(root).iterdir():
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)
                self.counters.inc("server.spill_dirs_cleaned")

    def _shed(self, session: Session, reason: str) -> None:
        if session.pending_reservation:
            # Still queued with a priced quota: give the promised bytes
            # back immediately so they stop pricing out real work.
            self.admission.release_pending(session.reserved_bytes)
            session.pending_reservation = False
        self._settle(session, SessionState.SHED, self.clock.now())
        session.failure = {
            "error": "SessionShed",
            "message": f"session shed: {reason}",
            "kind": "shed",
            "reason": reason,
        }
        self.counters.inc("server.shed")
        # A shed probe must give its half-open slot back.
        self.breakers.observe(session.klass, "shed", self.clock.now())

    def cancel(self, session_id: str) -> dict:
        """Cancel a queued session; any other is returned unchanged (a
        session runs to its result when it is admitted)."""
        session = self.sessions.get(session_id)
        if session.state is SessionState.QUEUED:
            self._queue.remove(session)
            self._shed(session, "cancelled-by-client")
            self._sample_queue()
        return session.to_dict()

    def release_view(self, session_id: str) -> dict:
        """Release a materialized fixpoint and its standing reservation.

        The view's *disk* state (base checkpoint + log under wal_root)
        deliberately survives: releasing frees memory, it does not forget
        acknowledged updates — a later ``recover`` can still rebuild
        the view. Only the in-memory durability handle is dropped.
        """
        view = self._views.pop(session_id, None)
        if view is None:
            raise SessionError(f"no materialized view for session {session_id!r}")
        self._view_busy_until.pop(session_id, None)
        self._durability.pop(session_id, None)
        session = self.sessions.get(session_id)
        view.release()
        if not any(s is session for _, s, _ in self._active):
            # Still-active view sessions keep their slot until the clock
            # passes their finish; _release_due no longer sees the view
            # and releases it then.
            self._release(session)
        self.counters.inc("server.views_released")
        self._sample_queue()
        return session.to_dict()

    def status(self, session_id: str) -> dict:
        return self.sessions.get(session_id).to_dict()

    def report(self) -> dict:
        """Machine-readable service snapshot (also the shutdown report)."""
        return {
            "now": round(self.clock.now(), 6),
            "draining": self.draining,
            "session_counts": self.sessions.counts(),
            "spilled_bytes_total": sum(
                s.spilled_bytes for s in self.sessions.all()
            ),
            "sessions": [s.to_dict() for s in self.sessions.all()],
            "queue_depth": len(self._queue),
            "active": len(self._active),
            "admission": self.admission.to_dict(),
            "breakers": self.breakers.to_dict(),
            "counters": self.counters.snapshot(),
            "metrics": self.metrics_snapshot(),
        }
