"""The concurrent query service: many Datalog programs, one stable engine.

*When* a request runs — queueing, slots, reservations, breakers,
drain — is the :class:`~repro.server.scheduler.Scheduler`
that :class:`QueryService` extends. This module is *what* a request
does: one handler per ``kind`` (``query`` opens a view, ``update``
maintains one, ``point`` answers a goal), each returning
``(effective_start, duration, status)``, plus crash recovery, which
opens its views through the same handler a ``materialize`` request uses.
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from pathlib import Path

from repro.common.errors import DatalogError, RecStepError, classify_failure
from repro.common.records import EvaluationResult
from repro.common.rng import derive_seed
from repro.core.config import RecStepConfig
from repro.core.ivm import check_batch
from repro.core.recstep import (
    MaintenanceResult,
    MaterializedFixpoint,
    RecStep,
    _resolve_program,
)
from repro.datalog import ast as dast
from repro.datalog.magic import filter_answers, magic_rewrite
from repro.datalog.parser import parse_goal
from repro.programs.library import ProgramSpec
from repro.resilience import FaultInjector
from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointManager,
    CheckpointState,
    edb_fingerprint,
)
from repro.resilience.wal import (
    BASE_DIR_NAME,
    MANIFEST_NAME,
    WAL_NAME,
    ViewDurability,
    WalError,
    WriteAheadLog,
)
from repro.server.admission import (
    DEFAULT_RETRY_AFTER,
    MIN_SESSION_QUOTA,
    Overloaded,
    QueryRequest,
)
from repro.server.scheduler import (
    Scheduler,
    ServerConfig,
    terminal_state,
)
from repro.server.session import Session, SessionState

#: Simulated-seconds deadline a drain gives each in-flight query before
#: it checkpoint-cancels.
DRAIN_GRACE_SECONDS = 5.0


class QueryService(Scheduler):
    """Admits, schedules, and survives many concurrent Datalog queries."""

    def __init__(
        self,
        config: ServerConfig | None = None,
        engine_config: RecStepConfig | None = None,
    ) -> None:
        super().__init__(config or ServerConfig())
        self.engine_config = engine_config or RecStepConfig()
        self._handlers.update(
            query=self._open_view,
            update=self._maintain_view,
            point=self._answer_point,
        )
        self._planners["point"] = self._plan_point
        #: Demand cache for point queries: (program, EDB fingerprint,
        #: goal predicate, adornment, bound constants) -> the
        #: demand-restricted answer relation (filtered by the bound
        #: constants only). Repeated and paginated lookups with the same
        #: bindings re-filter the warm answers instead of re-running the
        #: fixpoint; any EDB churn changes the fingerprint and misses.
        self._demand_cache: dict[tuple, dict] = {}
        # WAL appends share the engine's deterministic fault discipline:
        # a chaos seed arms the wal_* sites on an independent stream.
        self._wal_injector = (
            FaultInjector(
                derive_seed(self.engine_config.fault_seed, "wal"),
                rate=self.engine_config.fault_rate,
            )
            if self.engine_config.fault_seed is not None
            else None
        )

    # -- kind="query": open a view -----------------------------------------------

    def _open_view(
        self,
        session: Session,
        resume_state: CheckpointState | None = None,
    ) -> tuple[float, float, str]:
        """Evaluate the request's program; keep the view if it asks.

        A ``materialize`` request leaves the fixpoint resident (and
        persists it under ``wal_root``); crash recovery passes the base
        checkpoint it loaded as ``resume_state`` to reopen one from disk.
        """
        request: QueryRequest = session.request
        program, edb, dataset = request.program, request.edb_data, request.dataset
        engine = RecStep(self._session_config(session))
        if not request.materialize:
            return self._served(session, engine.evaluate(program, edb, dataset=dataset))
        view = engine.materialize(
            program, edb, dataset=dataset, resume_state=resume_state
        )
        served = self._served(session, view.result)
        if view.status != "ready":
            # A poisoned view still holds a kept-alive database; free
            # it — only healthy fixpoints stay resident.
            view.release()
            return served
        self._views[session.id] = view
        self._view_busy_until[session.id] = served[0] + served[1]
        if resume_state is None:
            self.counters.inc("server.views_materialized")
            self._persist_view(session, view)
        return served

    @staticmethod
    def _served(
        session: Session, result, start: float | None = None
    ) -> tuple[float, float, str]:
        """Record an engine result on its session; the handler's return."""
        session.result = result
        session.failure = result.failure
        return (
            session.started_at if start is None else start,
            result.sim_seconds,
            result.status,
        )

    def _persist_view(self, session: Session, view: MaterializedFixpoint) -> None:
        """Write a just-materialized view's durable state under wal_root.

        Base checkpoint + empty log + manifest (the manifest last — its
        presence is the commit point). Persistence failures degrade the
        view to memory-only rather than failing the session: the query
        result is already correct, only the crash story is weaker.
        """
        if self.config.wal_root is None:
            return
        source = getattr(session.request.program, "source", None)
        if source is None and isinstance(session.request.program, str):
            source = session.request.program
        if source is None:
            # An AnalyzedProgram carries no re-parseable source; there is
            # nothing recovery could rebuild the view from.
            self.counters.inc("wal.persist_failures")
            return
        schemas = getattr(session.request.program, "edb_schemas", {}) or {}
        manifest = {
            "session_id": session.id,
            "program": view.program,
            "source": source,
            "edb_schemas": {name: list(cols) for name, cols in schemas.items()},
            "dataset": view.dataset,
            "klass": session.klass,
            "reserved_bytes": session.reserved_bytes,
        }
        try:
            self._durability[session.id] = ViewDurability.create(
                Path(self.config.wal_root) / session.id,
                view,
                manifest,
                counters=self.counters,
                injector=self._wal_injector,
            )
        except (OSError, WalError, CheckpointError):
            self.counters.inc("wal.persist_failures")

    def _session_config(self, session: Session) -> RecStepConfig:
        request: QueryRequest = session.request
        overrides: dict = {"memory_budget": session.reserved_bytes}
        for knob in ("deadline", "max_iterations", "max_total_rows"):
            value = getattr(request, knob)
            if value is not None:
                overrides[knob] = value
        if self.config.spill_root is not None:
            # Per-session spill directory: spilled segments are part of
            # the session's failure domain, cleaned with the session.
            overrides["spill_dir"] = str(
                Path(self.config.spill_root) / session.id
            )
        if self.draining and self._drain_checkpoint_dir is not None:
            # Drain contract: bound the remaining work and leave a
            # resumable snapshot if the bound fires first.
            directory = str(Path(self._drain_checkpoint_dir) / session.id)
            overrides["checkpoint_dir"] = directory
            overrides["checkpoint_every"] = 1
            grace = DRAIN_GRACE_SECONDS
            current = overrides.get("deadline")
            overrides["deadline"] = grace if current is None else min(current, grace)
            session.checkpoint_dir = directory
        return replace(self.engine_config, **overrides)

    # -- kind="update": maintain a view ------------------------------------------

    def _maintain_view(self, session: Session) -> tuple[float, float, str]:
        """Maintain a materialized fixpoint from one EDB delta batch.

        The update serves head-of-line against its view: it cannot start
        before the view's materialization (or the previous update against
        it) has finished, so its effective interval is
        ``[max(now, view_busy_until), ... + maintain's sim_seconds)``.

        Against a durable view the batch is appended to the write-ahead
        log *before* the view mutates; a batch whose ``batch_id`` was
        already acknowledged is acked again without re-applying
        (exactly-once for client retries).
        """
        request: QueryRequest = session.request
        target = request.target_session
        view = self._views.get(target)
        if view is None or view.status != "ready":
            # Validated at submit time, but the view can fail to
            # materialize, be poisoned, or be released while the update
            # waited in the queue.
            session.failure = {
                "error": "NoSuchView",
                "message": f"no live materialized view for session {target!r}",
                "kind": "no-such-view",
            }
            return session.started_at, 0.0, "fault"
        start = max(session.started_at, self._view_busy_until[target])
        durability = self._durability.get(target)
        if durability is not None and durability.is_duplicate(request.batch_id):
            # Already acknowledged under this id (live or replayed):
            # re-ack at zero cost, mutate nothing, log nothing.
            self.counters.inc("wal.duplicate_batches")
            session.result = MaintenanceResult(
                engine=view.engine_name,
                program=view.program,
                dataset=request.dataset,
                idb_sizes=view.sizes(),
            )
            return start, 0.0, "ok"
        try:
            check_batch(view.analyzed, request.inserts, request.deletes)
        except DatalogError as error:
            session.failure = {
                "error": "BadBatch",
                "kind": "bad-batch",
                "message": str(error),
            }
            return start, 0.0, "fault"
        seqno = None
        if durability is not None:
            try:
                seqno = session.wal_seqno = durability.log_update(
                    request.inserts, request.deletes, request.batch_id
                )
            except (RecStepError, OSError) as error:
                # Write-ahead means exactly that: if the batch cannot be
                # made durable it must not be applied. The view itself is
                # untouched and keeps serving.
                _, session.failure, _ = classify_failure(error)
                session.failure["kind"] = "wal-append"
                return start, 0.0, "fault"
        result = view.maintain(request.inserts, request.deletes)
        self._view_busy_until[target] = start + result.sim_seconds
        if result.status == "ok":
            self.counters.inc("server.updates_applied")
            if seqno is not None:
                durability.note_applied(seqno)
                if durability.should_compact(self.config.wal_compact_records):
                    durability.compact(view)
        return self._served(session, result, start)

    # -- kind="point": answer a goal ---------------------------------------------

    def _plan_point(self, request: QueryRequest) -> Overloaded | None:
        """Plan a point goal at submit time: resolve, rewrite, price.

        A malformed goal (parse error, unknown predicate, arity or term
        violations) is a client error, bounced as a structured
        ``bad-goal`` rejection before a session exists. A well-formed
        goal is resolved and magic-rewritten once, here; the plan rides
        on the request for :meth:`_answer_point`, and — unless the client
        set an explicit quota — the request is priced by the rewrite's
        cone estimate instead of a full default slot, so cheap bound
        lookups admit under memory pressure that would bounce full
        evaluations.
        """
        try:
            analyzed, program_name, _ = _resolve_program(request.program)
            goal = (
                parse_goal(request.goal)
                if isinstance(request.goal, str)
                else request.goal
            )
            # Canonical goal: bound constants kept, every free position a
            # distinct fresh variable. The rewrite (and the cached answer
            # relation) depend only on the bindings, so goals differing
            # in wildcards or repeated variables share one cache entry
            # and re-filter it per lookup.
            canonical = dast.Atom(
                goal.predicate,
                tuple(
                    term
                    if isinstance(term, dast.Constant)
                    else dast.Variable(f"_pt{index}")
                    for index, term in enumerate(goal.terms)
                ),
            )
            rewrite = magic_rewrite(analyzed, canonical)
        except DatalogError as error:
            return Overloaded(
                reason="bad-goal",
                retry_after_seconds=DEFAULT_RETRY_AFTER,
                detail={"message": str(error), "goal": str(request.goal)},
            )
        if request.memory_quota is None:
            request.memory_quota = max(
                MIN_SESSION_QUOTA,
                int(
                    self.admission.default_quota
                    * rewrite.cone_fraction(analyzed)
                ),
            )
        bound = tuple(
            term.value
            for term in canonical.terms
            if isinstance(term, dast.Constant)
        )
        # The cache key is where this digest is read: requests ship their
        # own EDB arrays, so only content can say two of them agree.
        fingerprint = edb_fingerprint(
            request.edb_data, {name: analyzed.arities[name] for name in analyzed.edb}
        )
        request.point_plan = {
            "analyzed": analyzed,
            "goal": goal,
            "canonical": canonical,
            "rewrite": rewrite,
            "program_name": program_name,
            "cache_key": (
                # Program identity by content, not name: two programs
                # both named "program" must not share demand entries.
                zlib.crc32(str(analyzed.program).encode("utf-8")),
                fingerprint,
                goal.predicate,
                rewrite.adornment,
                bound,
            ),
        }
        return None

    def _answer_point(self, session: Session) -> tuple[float, float, str]:
        """Answer one point goal, serving repeats from the demand cache.

        The cache holds the demand-restricted answer relation filtered by
        the bound constants only, so repeated lookups with the same
        bindings but different free-term patterns (wildcards, repeated
        variables) re-filter the warm answers at zero evaluation cost —
        a hit settles at its start instant.
        """
        request: QueryRequest = session.request
        plan = request.point_plan
        goal: dast.Atom = plan["goal"]
        self.counters.inc("server.point_queries")
        cached = self._demand_cache.get(plan["cache_key"])
        if cached is not None:
            self.counters.inc("server.point_cache_hits")
            result = EvaluationResult(
                engine=RecStep.name,
                program=plan["program_name"],
                dataset=request.dataset,
            )
            answers = cached["answers"]
            result.detail.update(cached["detail"], point_cache_hit=1.0)
        else:
            self.counters.inc("server.point_cache_misses")
            engine = RecStep(self._session_config(session))
            result = engine.answer(
                plan["analyzed"],
                plan["canonical"],
                request.edb_data,
                dataset=request.dataset,
                rewrite=plan["rewrite"],
            )
            if result.status != "ok":
                return self._served(session, result)
            answers = result.tuples[goal.predicate]
            self._demand_cache[plan["cache_key"]] = {
                "answers": answers,
                "detail": {
                    key: value
                    for key, value in result.detail.items()
                    if key.startswith("magic_")
                },
            }
            result.detail["point_cache_hit"] = 0.0
        result.tuples = {goal.predicate: filter_answers(answers, goal)}
        result.detail["answer_rows"] = float(len(result.tuples[goal.predicate]))
        return self._served(session, result)

    # -- crash recovery ----------------------------------------------------------

    def recover(self, root: str | None = None) -> dict:
        """Rebuild durable views from ``root`` (default: the wal_root).

        For every committed view directory: load the latest valid base
        checkpoint, open the view from it (the checkpoint carries the
        EDB, so recovery is self-contained), and replay the write-ahead
        log's unfolded tail through ``maintain()``. Views whose state is
        unrecoverable — unreadable manifest, no valid base, a log with no
        header, replay poisoning the view — are *quarantined* (directory
        renamed aside, structured ``view-unrecoverable`` failure in the
        report) so one corrupt view never blocks its healthy siblings.
        Recovery that fails for capacity reasons (the reservation no
        longer fits) leaves the directory intact for a later attempt.

        Returns ``{"root", "recovered": {dir: ...}, "failed": {dir:
        ...}}``; recovered views serve updates under their *new* session
        ids exactly like freshly materialized ones.
        """
        root = root if root is not None else self.config.wal_root
        if root is None:
            raise ValueError("recover() needs a wal root (config or argument)")
        root_path = Path(root)
        report: dict = {"root": str(root_path), "recovered": {}, "failed": {}}
        if not root_path.is_dir():
            return report
        for child in sorted(root_path.iterdir()):
            if not child.is_dir() or ".quarantine" in child.name:
                continue
            outcome = self._recover_view(child)
            bucket = "recovered" if outcome.pop("ok") else "failed"
            report[bucket][child.name] = outcome
        return report

    def _recover_view(self, directory: Path) -> dict:
        """Recover one durable view directory; never raises."""
        if not (directory / MANIFEST_NAME).exists():
            # Crash mid-create: the manifest is written last, so this
            # directory was never durably committed — nothing was ever
            # acknowledged from it, and there is nothing to recover.
            return {"ok": False, "kind": "incomplete-creation"}
        base_dir = directory / BASE_DIR_NAME
        unread = "manifest"
        try:
            manifest = ViewDurability.read_manifest(directory)
            unread = "base"
            state = CheckpointManager.load(base_dir, counters=self.counters)
            unread = "wal"
            wal = WriteAheadLog.open(
                directory / WAL_NAME,
                counters=self.counters,
                injector=self._wal_injector,
            )
        except (WalError, CheckpointError) as error:
            return self._quarantine_view(directory, f"{unread}-unreadable", error)
        edb = {
            key.partition(":")[2]: rows
            for key, rows in state.tables.items()
            if key.startswith("edb:")
        }
        if not edb:
            return self._quarantine_view(
                directory,
                "base-missing-edb",
                WalError(
                    f"base checkpoint under {base_dir} carries no EDB tables",
                    path=str(base_dir),
                ),
            )
        spec = ProgramSpec(
            name=str(manifest["program"]),
            title=str(manifest["program"]),
            domain="recovered",
            source=str(manifest["source"]),
            edb_schemas={
                name: tuple(cols)
                for name, cols in (manifest.get("edb_schemas") or {}).items()
            },
        )
        quota = int(manifest.get("reserved_bytes") or 0) or self.admission.default_quota
        if not self.admission.try_reserve(quota):
            # Capacity, not corruption: the directory stays for a later
            # recover() on a roomier service.
            return {
                "ok": False,
                "kind": "memory-pressure",
                "requested_bytes": quota,
                "reserved_bytes": self.admission.reserved_bytes,
            }
        # The request the view was materialized under; it runs now.
        now = self.clock.now()
        session = self.sessions.create(
            QueryRequest(
                program=spec,
                edb_data=edb,
                dataset=str(manifest.get("dataset", "recovered")),
                klass=str(manifest.get("klass", "")) or spec.name,
                memory_quota=quota,
                materialize=True,
            ),
            now,
        )
        session.reserved_bytes = quota
        session.recovered = True
        self._begin(session)
        _, rebuilt, status = self._isolated(
            session, self._open_view, resume_state=state
        )
        view = self._views.get(session.id)
        if view is None:
            self._release(session)
            self._settle(session, terminal_state(status), now)
            if session.state is SessionState.CANCELLED:
                # A cancelled rebuild (a deadline fired) is
                # transient, not corruption: quarantining would discard
                # durable state a later, calmer recover() could rebuild —
                # leave the directory in place.
                return {
                    "ok": False,
                    "kind": (session.failure or {}).get("kind", "cancelled"),
                    "transient": True,
                }
            return self._quarantine_view(
                directory,
                "rebuild-failed",
                session.failure or {"error": "RebuildFailed"},
            )
        replayed = skipped = 0
        replay_sim = 0.0
        last_applied = state.wal_seqno
        for record in wal.records:
            if record.seqno <= state.wal_seqno:
                # Already folded into the base this view resumed from
                # (a compaction raced the crash).
                skipped += 1
                self.counters.inc("recovery.batches_skipped")
                continue
            result = view.maintain(record.inserts, record.deletes)
            if result.status == "ok":
                replayed += 1
                replay_sim += result.sim_seconds
                last_applied = record.seqno
                self.counters.inc("recovery.batches_replayed")
            elif view.status != "ready":
                del self._views[session.id], self._view_busy_until[session.id]
                view.release()
                self._release(session)
                session.failure = result.failure
                self._settle(session, SessionState.FAILED, now)
                return self._quarantine_view(
                    directory, "replay-poisoned", result.failure or {}
                )
            # else a validation-class failure: the view is still exact,
            # the record simply cannot apply (it shouldn't have been
            # logged; tolerate rather than lose the healthy view).
        # The restore fast-forwards the view's clock to the base's; only
        # what the rebuild added on top is this recovery's latency.
        latency = max(0.0, rebuilt - state.sim_seconds) + replay_sim
        finish = now + latency
        view.result.idb_sizes = view.sizes()  # post-replay, not the base's
        session.wal_seqno = last_applied
        self._settle(session, SessionState.DONE, finish)
        self._view_busy_until[session.id] = finish
        self._durability[session.id] = ViewDurability(
            directory,
            wal,
            CheckpointManager(base_dir),
            last_applied,
            counters=self.counters,
        )
        self.counters.inc("recovery.views_recovered")
        for klass in (session.klass, "all"):
            self.histograms.observe(f"recovery.latency.{klass}", latency)
        self._sample_queue()
        return {
            "ok": True,
            "session_id": session.id,
            "program": view.program,
            "records_replayed": replayed,
            "records_skipped": skipped,
            "latency_seconds": round(latency, 6),
        }

    def _quarantine_view(self, directory: Path, reason: str, error) -> dict:
        """Move an unrecoverable view directory aside, structured-ly."""
        target = directory.with_name(directory.name + ".quarantine")
        suffix = 0
        while target.exists():
            suffix += 1
            target = directory.with_name(
                f"{directory.name}.quarantine-{suffix}"
            )
        try:
            directory.rename(target)
        except OSError:
            target = directory  # rename failed; leave in place, still report
        self.counters.inc("recovery.views_quarantined")
        detail = (
            error
            if isinstance(error, dict)
            else {"error": type(error).__name__, "message": str(error)}
        )
        return {
            "ok": False,
            "error": "ViewUnrecoverable",
            "kind": "view-unrecoverable",
            "reason": reason,
            "quarantined_to": str(target),
            "detail": detail,
        }
