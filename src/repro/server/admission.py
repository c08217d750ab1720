"""Admission control: bounded queue, memory reservations, backpressure.

The admission controller is the service's front door. It answers one
question per submission — *can this query be queued right now?* — and
one per queued session — *can it start?* — using two resources:

* **queue slots**: the session queue is bounded (``queue_limit``); a
  full queue rejects new work immediately rather than buffering
  unbounded state, the classic load-shedding discipline.
* **memory reservations**: each query reserves a quota (its evaluation
  runs with that quota as its own hard ``memory_budget``, so the
  reservation is enforced, not advisory). The sum of live reservations
  is capped at the high watermark of the service budget; submissions
  that would push past it are rejected with backpressure.

Rejections are never exceptions: they are structured
:class:`Overloaded` responses carrying the reason and a retry-after
hint derived from the earliest expected slot release, so well-behaved
clients can back off instead of retry-storming.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.metrics import CRITICAL_WATERMARK

#: Fallback retry hint (simulated seconds) when nothing is running to
#: derive a better estimate from.
DEFAULT_RETRY_AFTER = 1.0

#: Smallest per-session default quota the controller will hand out.
#: Without the floor, ``watermarked_budget // max_concurrent`` reaches 0
#: on small budgets and sessions would be admitted with no reservation —
#: an unenforceable budget. With it, a service too small to give every
#: slot a real quota rejects default-quota submissions with a structured
#: ``memory-pressure`` Overloaded instead of admitting unbudgeted work.
#: Explicit ``memory_quota`` requests are never floored.
MIN_SESSION_QUOTA = 1 << 20

#: Floor of the delta-derived quota priced for an update request, and
#: the per-row footprint it assumes (row + join-index + count-table
#: bookkeeping for one churned tuple).
MIN_UPDATE_QUOTA = 1 << 16
UPDATE_ROW_BYTES = 64


@dataclass
class QueryRequest:
    """One Datalog query as submitted to the service.

    Args:
        program: a ProgramSpec or Datalog source text (anything
            :meth:`RecStep.evaluate` accepts).
        edb_data: relation name -> int64 row array.
        dataset: label recorded in the result.
        klass: session class for circuit breaking and reporting;
            defaults to the program's name when available.
        memory_quota: bytes reserved against the service budget and
            enforced as the query's own memory budget (None: the
            service's default per-slot quota).
        deadline: per-query cooperative deadline (simulated seconds on
            the query's own clock).
        max_iterations / max_total_rows: per-query divergence budgets
            (see :mod:`repro.resilience.guards`).

            All three are for ``"query"`` and ``"point"`` only: an
            update batch runs under its view's own guard, so
            ``kind="update"`` rejects them — a per-request bound that
            cut a batch short would poison a view other clients share.
        kind: ``"query"`` (evaluate to fixpoint), ``"update"`` (apply
            an EDB delta batch to a materialized session's warm
            fixpoint), or ``"point"`` (answer a single goal atom through
            the magic-set demand rewrite, evaluating only the goal's
            cone).
        goal: for ``kind="point"``, the goal atom — an
            :class:`repro.datalog.ast.Atom` or its source text, e.g.
            ``"tc(5, x)"``.
        materialize: keep the fixpoint (database + interpreter) alive
            after a ``"query"`` completes so later ``"update"`` requests
            can target it by session id.
        target_session: for ``kind="update"``, the session id of the
            materialized fixpoint to maintain.
        inserts / deletes: for ``kind="update"``, EDB relation name ->
            row array of tuples to insert / delete.
        batch_id: client-supplied idempotence key for ``kind="update"``
            against a durable view: a batch already acknowledged under
            this id is acked again without re-applying, so client
            retries after an unclear outcome are exactly-once.
    """

    program: object
    edb_data: dict[str, np.ndarray]
    dataset: str = "unnamed"
    klass: str = ""
    memory_quota: int | None = None
    deadline: float | None = None
    max_iterations: int | None = None
    max_total_rows: int | None = None
    kind: str = "query"
    materialize: bool = False
    target_session: str | None = None
    inserts: dict | None = None
    deletes: dict | None = None
    batch_id: str | None = None
    goal: object | None = None
    #: Service-internal: the submit-time point plan (parsed goal,
    #: canonical goal, magic rewrite, demand-cache key), stamped by
    #: ``QueryService._plan_point`` so execution never re-plans.
    point_plan: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.klass:
            self.klass = getattr(self.program, "name", "default") or "default"
        if self.kind not in ("query", "update", "point"):
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.kind == "point" and self.goal is None:
            raise ValueError('kind="point" requires a goal')
        if self.kind == "update" and (
            self.deadline is not None
            or self.max_iterations is not None
            or self.max_total_rows is not None
        ):
            raise ValueError(
                'kind="update" runs under its view\'s guard; deadline / '
                "max_iterations / max_total_rows apply to queries only"
            )

    def delta_rows(self) -> int:
        """Total churned tuples across both sides of an update batch."""
        total = 0
        for batch in (self.inserts, self.deletes):
            for rows in (batch or {}).values():
                total += len(rows)
        return total

    @property
    def priced(self) -> bool:
        """Whether this request carries its own explicit quota rather
        than the service's default per-slot split. Only priced quotas
        accrue ``pending_bytes`` while queued — the default split is a
        slot property, already bounded by ``max_concurrent``, and
        updates ride their target view's standing reservation instead of
        the global pool. Point queries are always priced: the service
        stamps their quota from the goal's cone estimate at submit
        time."""
        return self.kind in ("query", "point") and self.memory_quota is not None


@dataclass(frozen=True)
class Overloaded:
    """A structured rejection: the service cannot take this query now.

    ``reason`` is one of ``queue-full``, ``memory-pressure``,
    ``draining``, ``breaker-open``, ``no-such-view``, or ``bad-goal``;
    ``retry_after_seconds`` is the
    service's estimate of when capacity frees up (simulated seconds).
    """

    reason: str
    retry_after_seconds: float
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "overloaded": True,
            "reason": self.reason,
            "retry_after_seconds": round(self.retry_after_seconds, 6),
            **self.detail,
        }


class AdmissionController:
    """Tracks queue depth and memory reservations; decides admission.

    Args:
        queue_limit: maximum sessions waiting for a slot.
        memory_budget: the service's total modeled memory (bytes).
        max_concurrent: executor slots (used for the default quota).
        high_watermark: fraction of ``memory_budget`` the sum of live
            reservations may reach; beyond it, submissions bounce.
    """

    def __init__(
        self,
        queue_limit: int,
        memory_budget: int,
        max_concurrent: int,
        high_watermark: float = CRITICAL_WATERMARK,
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        self.queue_limit = queue_limit
        self.memory_budget = memory_budget
        self.max_concurrent = max_concurrent
        self.high_watermark = high_watermark
        self.reserved_bytes = 0
        #: Quota promised to *queued* priced sessions (explicit quota or
        #: delta-sized updates) that have not started yet. Counting it at
        #: submit time keeps a burst of accepted-but-waiting sessions
        #: from over-committing the watermark; releasing it on cancel or
        #: shed keeps cancelled phantoms from pricing out real work.
        self.pending_bytes = 0
        #: Default per-query quota: an even split of the watermarked
        #: budget across executor slots, floored at MIN_SESSION_QUOTA so
        #: a tiny budget can never admit a session with no reservation.
        self.default_quota = max(
            MIN_SESSION_QUOTA,
            int(memory_budget * high_watermark) // max_concurrent,
        )

    def quota_for(self, request: QueryRequest) -> int:
        quota = request.memory_quota
        if quota is None:
            if request.kind == "update":
                # Updates ride on the target view's already-reserved
                # database; their own footprint is the delta batch plus
                # per-tuple maintenance state, priced by batch size.
                quota = max(
                    MIN_UPDATE_QUOTA, request.delta_rows() * UPDATE_ROW_BYTES
                )
            else:
                quota = self.default_quota
        return int(quota)

    # -- submission-time checks ------------------------------------------------

    def check_submit(
        self, request: QueryRequest, queue_depth: int, retry_hint: float
    ) -> Overloaded | None:
        """None if the submission may queue, else a structured rejection."""
        if queue_depth >= self.queue_limit:
            return Overloaded(
                reason="queue-full",
                retry_after_seconds=retry_hint,
                detail={"queue_depth": queue_depth, "queue_limit": self.queue_limit},
            )
        quota = self.quota_for(request)
        if request.kind == "update":
            # Updates are priced against their target view's standing
            # reservation (the service checks that), not the global
            # pool: the view's memory is already committed.
            return None
        if self.reserved_bytes + self.pending_bytes + quota > self._watermark_bytes():
            return Overloaded(
                reason="memory-pressure",
                retry_after_seconds=retry_hint,
                detail={
                    "reserved_bytes": self.reserved_bytes,
                    "pending_bytes": self.pending_bytes,
                    "requested_bytes": quota,
                    "high_watermark_bytes": self._watermark_bytes(),
                },
            )
        return None

    # -- pending (queued, priced) reservations ---------------------------------

    def note_pending(self, quota: int) -> None:
        """Account a priced session's quota while it waits in the queue."""
        self.pending_bytes += quota

    def release_pending(self, quota: int) -> None:
        """A queued priced session left the queue without starting
        (cancel, shed): return its promised quota immediately so
        retry-after hints and rejections stop pricing phantom memory."""
        self.pending_bytes = max(0, self.pending_bytes - quota)

    # -- start-time reservation ------------------------------------------------

    def try_reserve(self, quota: int, was_pending: bool = False) -> bool:
        """Reserve ``quota`` bytes for a starting session, if they fit.

        With ``was_pending``, the quota moves from the pending pool to
        the reserved pool (it was already counted at submit time, so the
        fit check must not double-count it).
        """
        if not self._reservation_fits(quota):
            return False
        if was_pending:
            self.release_pending(quota)
        self.reserved_bytes += quota
        return True

    def release(self, quota: int) -> None:
        self.reserved_bytes = max(0, self.reserved_bytes - quota)

    def _watermark_bytes(self) -> int:
        return int(self.memory_budget * self.high_watermark)

    def _reservation_fits(self, quota: int) -> bool:
        return self.reserved_bytes + quota <= self._watermark_bytes()

    def to_dict(self) -> dict:
        return {
            "queue_limit": self.queue_limit,
            "memory_budget": self.memory_budget,
            "high_watermark": self.high_watermark,
            "reserved_bytes": self.reserved_bytes,
            "pending_bytes": self.pending_bytes,
            "default_quota": self.default_quota,
        }
