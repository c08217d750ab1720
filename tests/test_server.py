"""The concurrent query service: admission, isolation, breakers, drain.

The serving acceptance set:

* overload produces structured ``Overloaded`` rejections with positive
  retry-after hints — never unbounded buffering, never exceptions;
* a failing query cannot disturb a concurrent neighbor: completed
  fixpoints are byte-identical to solo runs of the same query;
* a class that keeps failing opens its circuit breaker, which half-opens
  after the cooldown and recovers on a successful probe;
* graceful drain checkpoints in-flight work so it resumes to the same
  fixpoint, and sheds queued work with structured failure documents;
* an update batch that trips its view's guard poisons the view, and
  an update request carrying its own deadline or budget is rejected.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.common.errors import EvaluationCancelled
from repro.core import PbmeMode, RecStep, RecStepConfig
from repro.datalog.magic import filter_answers
from repro.datalog.parser import parse_goal
from repro.programs import get_program
from repro.server import (
    AdmissionController,
    CircuitBreaker,
    QueryRequest,
    QueryService,
    ServerConfig,
    SessionError,
    SessionManager,
    SessionState,
)
import repro.server.breaker as breaker_module
import repro.server.service as service_module
from repro.server.admission import DEFAULT_RETRY_AFTER, MIN_SESSION_QUOTA

RELATIONAL = dict(pbme=PbmeMode.OFF)
QUOTA = int(128e6)


def _graph(seed: int, nodes: int, edges: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, nodes, size=(edges, 2)).astype(np.int64)


def _tc_request(seed: int = 42, **kwargs) -> QueryRequest:
    kwargs.setdefault("memory_quota", QUOTA)
    return QueryRequest(
        program=get_program("TC"),
        edb_data={"arc": _graph(seed, 120, 400)},
        dataset=f"tc-{seed}",
        **kwargs,
    )


def _cycle(nodes: int) -> np.ndarray:
    src = np.arange(nodes, dtype=np.int64)
    return np.stack([src, (src + 1) % nodes], axis=1)


def _service(**overrides) -> QueryService:
    # The relational path: iteration-structured evaluation, so memory
    # quotas, deadlines, and checkpoints all have boundaries to bite at.
    config = dict(max_concurrent=2, queue_limit=3)
    config.update(overrides)
    return QueryService(
        ServerConfig(**config), engine_config=RecStepConfig(**RELATIONAL)
    )


# ---------------------------------------------------------------------------
# Session lifecycle units
# ---------------------------------------------------------------------------


class TestSessionLifecycle:
    def test_ids_are_monotonic(self):
        manager = SessionManager()
        a = manager.create(_tc_request(), now=0.0)
        b = manager.create(_tc_request(), now=0.0)
        assert [a.id, b.id] == ["q-00001", "q-00002"]

    def test_legal_path_to_done(self):
        manager = SessionManager()
        session = manager.create(_tc_request(), now=0.0)
        for state in (SessionState.RUNNING, SessionState.DONE):
            manager.transition(session, state)
        assert session.state.terminal

    def test_illegal_transition_raises(self):
        manager = SessionManager()
        session = manager.create(_tc_request(), now=0.0)
        with pytest.raises(SessionError, match="illegal transition"):
            manager.transition(session, SessionState.DONE)  # queued -> done

    def test_terminal_states_are_final(self):
        manager = SessionManager()
        session = manager.create(_tc_request(), now=0.0)
        manager.transition(session, SessionState.SHED)
        with pytest.raises(SessionError):
            manager.transition(session, SessionState.RUNNING)

    def test_unknown_session_raises(self):
        with pytest.raises(SessionError, match="unknown session"):
            SessionManager().get("q-99999")


# ---------------------------------------------------------------------------
# Admission control units
# ---------------------------------------------------------------------------


class TestAdmissionController:
    def test_queue_full_is_structured(self):
        controller = AdmissionController(
            queue_limit=2, memory_budget=1000, max_concurrent=1
        )
        overload = controller.check_submit(_tc_request(), queue_depth=2, retry_hint=0.5)
        assert overload is not None
        doc = overload.to_dict()
        assert doc["overloaded"] is True
        assert doc["reason"] == "queue-full"
        assert doc["retry_after_seconds"] == 0.5

    def test_memory_pressure_is_structured(self):
        controller = AdmissionController(
            queue_limit=8, memory_budget=1000, max_concurrent=1, high_watermark=0.9
        )
        request = _tc_request(memory_quota=2000)  # above the watermark outright
        overload = controller.check_submit(request, queue_depth=0, retry_hint=1.0)
        assert overload.reason == "memory-pressure"
        assert overload.to_dict()["high_watermark_bytes"] == 900

    def test_reserve_and_release_accounting(self):
        controller = AdmissionController(
            queue_limit=8, memory_budget=1000, max_concurrent=2, high_watermark=0.9
        )
        assert controller.try_reserve(500)
        assert controller.try_reserve(400)
        assert not controller.try_reserve(100)  # 1000 > 900 watermark
        controller.release(400)
        assert controller.try_reserve(100)

    def test_default_quota_splits_watermarked_budget(self):
        budget = 400 << 20
        controller = AdmissionController(
            queue_limit=8, memory_budget=budget, max_concurrent=4, high_watermark=0.8
        )
        split = int(budget * 0.8) // 4
        assert controller.default_quota == split
        assert controller.quota_for(_tc_request(memory_quota=None)) == split
        assert controller.quota_for(_tc_request(memory_quota=123)) == 123

    def test_default_quota_floored_on_tiny_budget(self):
        """Regression: the watermarked-budget split must never reach 0.

        A 1000-byte budget over 4 slots used to hand out 200-byte (or,
        smaller still, zero-byte) default quotas — sessions admitted with
        no enforceable reservation. The floor turns that into a
        structured memory-pressure rejection at the front door.
        """
        controller = AdmissionController(
            queue_limit=8, memory_budget=1000, max_concurrent=4, high_watermark=0.8
        )
        assert controller.default_quota == MIN_SESSION_QUOTA
        # Explicit quotas are never floored.
        assert controller.quota_for(_tc_request(memory_quota=123)) == 123
        # The floored default cannot fit the tiny watermark: a structured
        # Overloaded, not an unbudgeted admission.
        overload = controller.check_submit(
            _tc_request(memory_quota=None), queue_depth=0, retry_hint=1.0
        )
        assert overload is not None
        doc = overload.to_dict()
        assert doc["reason"] == "memory-pressure"
        assert doc["requested_bytes"] == MIN_SESSION_QUOTA

    def test_tiny_budget_service_rejects_structurally(self):
        service = _service(memory_budget=1000, queue_limit=8)
        response = service.submit(_tc_request(memory_quota=None))
        assert not response["accepted"]
        assert response["overloaded"] is True
        assert response["reason"] == "memory-pressure"
        assert response["retry_after_seconds"] > 0


# ---------------------------------------------------------------------------
# Overload at the service front door
# ---------------------------------------------------------------------------


class TestServiceOverload:
    def test_burst_past_queue_limit_rejects_with_backpressure(self):
        service = _service(queue_limit=3)
        responses = [service.submit(_tc_request(seed=s)) for s in range(6)]
        accepted = [r for r in responses if r["accepted"]]
        rejected = [r for r in responses if not r["accepted"]]
        assert len(accepted) == 3 and len(rejected) == 3
        for response in rejected:
            assert response["overloaded"] is True
            assert response["reason"] == "queue-full"
            assert response["retry_after_seconds"] > 0
        counters = service.counters.snapshot()
        assert counters["server.rejected"] == 3
        assert counters["server.rejected_queue_full"] == 3
        # The queued work still completes (pump before the drain gate,
        # which would otherwise shed what is still queued).
        service.pump()
        service.drain()
        for response in accepted:
            assert service.status(response["session_id"])["state"] == "done"

    def test_memory_pressure_rejection_at_submit(self):
        service = _service(memory_budget=1000, queue_limit=8)
        response = service.submit(_tc_request(memory_quota=2000))
        assert not response["accepted"]
        assert response["reason"] == "memory-pressure"
        assert response["retry_after_seconds"] > 0

    def test_draining_service_rejects_submissions(self):
        service = _service()
        service.drain()
        response = service.submit(_tc_request())
        assert not response["accepted"]
        assert response["reason"] == "draining"
        assert service.counters.snapshot()["server.rejected_draining"] == 1

    def test_retry_hint_tracks_earliest_finish(self):
        service = _service(max_concurrent=1, queue_limit=1)
        service.submit(_tc_request(seed=1))
        service.pump()  # occupies the slot over its evaluation interval
        assert service._active
        hint = service._retry_hint(service.clock.now())
        earliest = min(f for f, _, _ in service._active)
        assert hint == pytest.approx(
            max(earliest - service.clock.now(), DEFAULT_RETRY_AFTER / 10.0)
        )


# ---------------------------------------------------------------------------
# Isolation: a failing query cannot disturb its neighbors
# ---------------------------------------------------------------------------


class TestIsolation:
    def test_failing_query_does_not_affect_neighbors(self):
        service = _service(max_concurrent=2, queue_limit=8)
        good = [service.submit(_tc_request(seed=s)) for s in (1, 2, 3)]
        # A starved quota OOMs this query inside its own failure domain.
        bad = service.submit(_tc_request(seed=4, memory_quota=200_000))
        assert bad["accepted"]
        service.pump()
        service.drain()

        bad_doc = service.status(bad["session_id"])
        assert bad_doc["state"] == "failed"
        assert bad_doc["failure"]["error"] == "OutOfMemoryError"
        assert bad_doc["failure"]["kind"] == "oom"

        for seed, response in zip((1, 2, 3), good):
            doc = service.status(response["session_id"])
            assert doc["state"] == "done"
            solo = RecStep(
                replace(service.engine_config, memory_budget=doc["reserved_bytes"])
            ).evaluate(
                get_program("TC"),
                {"arc": _graph(seed, 120, 400)},
                dataset=f"tc-{seed}",
            )
            session = service.sessions.get(response["session_id"])
            assert session.result.tuples == solo.tuples

    def test_internal_error_is_captured_not_raised(self):
        service = _service()
        request = _tc_request(seed=5)
        request.edb_data = {"arc": "not an array"}  # poison the evaluation
        response = service.submit(request)
        assert response["accepted"]
        service.pump()
        service.drain()  # must not raise
        doc = service.status(response["session_id"])
        assert doc["state"] == "failed"
        assert doc["failure"]["kind"] == "internal"


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreakerUnit:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker("tc", failure_threshold=3, cooldown_seconds=10.0)
        for _ in range(2):
            breaker.record_failure(now=0.0)
            assert breaker.allow(now=0.0)
        breaker.record_failure(now=0.0)
        assert breaker.state == "open"
        assert not breaker.allow(now=5.0)
        assert breaker.retry_after(5.0) == pytest.approx(5.0)

    def test_half_open_admits_single_probe(self):
        breaker = CircuitBreaker("tc", failure_threshold=1, cooldown_seconds=10.0)
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=11.0)  # cooldown passed: the probe
        assert breaker.state == "half-open"
        assert not breaker.allow(now=11.0)  # only one probe at a time

    def test_probe_success_closes(self):
        breaker = CircuitBreaker("tc", failure_threshold=1, cooldown_seconds=10.0)
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=11.0)
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow(now=11.0)

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker("tc", failure_threshold=3, cooldown_seconds=10.0)
        for _ in range(3):
            breaker.record_failure(now=0.0)
        assert breaker.allow(now=11.0)
        breaker.record_failure(now=11.0)  # half-open failure: instant re-open
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert not breaker.allow(now=12.0)


class TestCircuitBreakerService:
    @staticmethod
    def _failing_request(seed: int) -> QueryRequest:
        return _tc_request(seed=seed, memory_quota=200_000)  # guaranteed OOM

    def test_breaker_opens_and_recovers_via_probe(self, monkeypatch):
        monkeypatch.setattr(breaker_module, "COOLDOWN_SECONDS", 5.0)
        service = _service(max_concurrent=1, queue_limit=8)
        # Three sequential failures of the "tc" class open the breaker.
        for seed in (1, 2, 3):
            response = service.submit(self._failing_request(seed))
            assert response["accepted"]
            service.flush()
        board = service.breakers.for_class("TC")
        assert board.state == "open"
        assert service.counters.snapshot()["server.breaker_open"] == 1

        blocked = service.submit(_tc_request(seed=9))
        assert not blocked["accepted"]
        assert blocked["reason"] == "breaker-open"
        assert blocked["retry_after_seconds"] > 0
        assert service.counters.snapshot()["server.rejected_breaker"] == 1

        # After the cooldown, a healthy probe closes the breaker again.
        service.clock.advance(5.0)
        probe = service.submit(_tc_request(seed=10))
        assert probe["accepted"]
        assert board.state == "half-open"
        service.flush()
        assert board.state == "closed"
        counters = service.counters.snapshot()
        assert counters["server.breaker_half_open"] == 1
        assert counters["server.breaker_closed"] == 1
        assert service.status(probe["session_id"])["state"] == "done"

    def test_client_scoped_failures_do_not_open_breaker(self, monkeypatch):
        monkeypatch.setattr(breaker_module, "FAILURE_THRESHOLD", 2)
        service = _service(max_concurrent=1, queue_limit=8)
        for seed in (1, 2, 3):
            response = service.submit(_tc_request(seed=seed, max_iterations=1))
            assert response["accepted"]
            service.flush()
            doc = service.status(response["session_id"])
            assert doc["state"] == "failed"
            assert doc["failure"]["kind"] == "max_iterations"
        assert service.breakers.for_class("TC").state == "closed"


# ---------------------------------------------------------------------------
# Per-request deadlines and view guards
# ---------------------------------------------------------------------------


class TestProgressAndBounds:
    def _update(self, view_id, row, **kwargs) -> QueryRequest:
        return QueryRequest(
            program=get_program("TC"),
            edb_data={},
            kind="update",
            target_session=view_id,
            inserts={"arc": np.array([row])},
            **kwargs,
        )

    def test_guard_tripped_update_poisons_view(self):
        # A batch answers to its view's own divergence guard: one that
        # blows through the budget is stopped at an iteration boundary,
        # not left spinning while it holds the view's write lock.
        service = _service(max_concurrent=1, queue_limit=4)
        # TC over a 10-node path charges 9 iterations to materialize.
        path = np.array([[n, n + 1] for n in range(9)], dtype=np.int64)
        response = service.submit(
            QueryRequest(
                program=get_program("TC"),
                edb_data={"arc": path},
                dataset="path-10",
                memory_quota=QUOTA,
                max_iterations=10,
                materialize=True,
            )
        )
        assert response["accepted"]
        service.pump()
        service.flush()
        view_id = response["session_id"]
        view = service._views[view_id]
        assert view.status == "ready"
        # Twelve more path edges: the closure crawls one hop per iteration.
        tail = np.array([[n, n + 1] for n in range(9, 21)], dtype=np.int64)
        update = service.submit(
            QueryRequest(
                program=get_program("TC"),
                edb_data={},
                kind="update",
                target_session=view_id,
                inserts={"arc": tail},
            )
        )
        assert update["accepted"]
        service.pump()
        service.flush()
        doc = service.status(update["session_id"])
        assert doc["state"] == "failed"
        assert doc["failure"]["kind"] == "max_iterations"
        # The tripped batch poisoned the view; later updates fail fast
        # instead of mutating a half-maintained fixpoint.
        assert view.status == "poisoned"
        late = service.submit(self._update(view_id, [1, 61]))
        assert late["accepted"]
        service.pump()
        service.flush()
        assert service.status(late["session_id"])["failure"]["kind"] == "no-such-view"

    def test_update_rejects_guard_overrides(self):
        # An update batch runs under its view's own divergence guard, the
        # only bound on a batch: a per-request deadline that cut it short
        # would poison a view other clients share, and a per-batch budget
        # would be silently dropped. All three are rejected instead.
        for knob, value in (
            ("deadline", 1e-9),
            ("max_iterations", 1),
            ("max_total_rows", 1),
        ):
            with pytest.raises(ValueError, match=knob):
                self._update("s1", [0, 60], **{knob: value})


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------


class TestDrain:
    def test_drain_sheds_queued_with_structured_failure(self):
        service = _service(max_concurrent=1, queue_limit=4)
        responses = [service.submit(_tc_request(seed=s)) for s in range(4)]
        report = service.drain()  # no checkpoint dir: queued work is shed
        assert report["drained"] is True
        states = {
            r["session_id"]: service.status(r["session_id"])["state"]
            for r in responses
        }
        assert sorted(states.values()).count("shed") >= 1
        for session_id, state in states.items():
            if state == "shed":
                failure = service.status(session_id)["failure"]
                assert failure["kind"] == "shed"
                assert failure["error"] == "SessionShed"
        assert service.counters.snapshot()["server.shed"] >= 1

    def test_drain_checkpoints_in_flight_work(self, tmp_path, monkeypatch):
        # A tight drain grace forces the queued query to stop at its
        # deadline mid-fixpoint — but under per-iteration checkpointing,
        # so its partial state survives the shutdown.
        monkeypatch.setattr(service_module, "DRAIN_GRACE_SECONDS", 0.15)
        service = QueryService(
            ServerConfig(max_concurrent=1, queue_limit=4),
            engine_config=RecStepConfig(**RELATIONAL),
        )
        response = service.submit(_tc_request(seed=42))
        assert response["accepted"]
        report = service.drain(checkpoint_dir=str(tmp_path))
        assert report["drain_checkpoint_dir"] == str(tmp_path)

        doc = service.status(response["session_id"])
        assert doc["state"] == "cancelled"  # deadline at the drain grace
        assert doc["failure"]["kind"] == "deadline"
        checkpoint_dir = doc["checkpoint_dir"]
        assert checkpoint_dir.endswith(response["session_id"])
        assert service.counters.snapshot()["server.checkpointed_on_drain"] == 1

        # The checkpoint resumes to the exact solo fixpoint.
        resumed = RecStep(
            RecStepConfig(
                **RELATIONAL,
                memory_budget=doc["reserved_bytes"],
                resume_from=checkpoint_dir,
            )
        ).evaluate(
            get_program("TC"), {"arc": _graph(42, 120, 400)}, dataset="tc-42"
        )
        solo = RecStep(
            RecStepConfig(**RELATIONAL, memory_budget=doc["reserved_bytes"])
        ).evaluate(
            get_program("TC"), {"arc": _graph(42, 120, 400)}, dataset="tc-42"
        )
        assert resumed.status == solo.status == "ok"
        assert resumed.tuples == solo.tuples

    def test_drain_report_is_machine_readable(self):
        import json

        service = _service()
        service.submit(_tc_request(seed=1))
        report = service.drain()
        # Serializable end to end, and carries the shutdown essentials.
        encoded = json.loads(json.dumps(report, default=str))
        assert encoded["drained"] is True
        assert "session_counts" in encoded
        assert "breakers" in encoded
        assert "counters" in encoded
        assert encoded["queue_depth"] == 0
        assert encoded["active"] == 0

    def test_drain_races_inflight_updates_never_half_applied(self, tmp_path):
        # Drain racing queued view updates: every update either ran to
        # completion (applied AND durably logged) or was shed cleanly —
        # the write-ahead log never holds a batch the view half-applied,
        # and recovery reproduces exactly the acknowledged prefix.
        from repro.resilience.wal import WAL_NAME, WriteAheadLog

        root = tmp_path / "wal"
        service = _service(
            max_concurrent=1, queue_limit=8, wal_root=str(root)
        )
        response = service.submit(_tc_request(seed=11, materialize=True))
        assert response["accepted"]
        service.pump()
        service.flush()
        view_id = response["session_id"]
        updates = []
        for i in range(4):
            ack = service.submit(
                QueryRequest(
                    program=get_program("TC"),
                    edb_data={},
                    kind="update",
                    target_session=view_id,
                    inserts={"arc": np.array([[200 + i, 201 + i]])},
                    batch_id=f"race-{i}",
                )
            )
            assert ack["accepted"]
            updates.append(ack["session_id"])
        # No pump: the updates are still queued when the drain lands.
        service.drain()

        logged = {
            record.batch_id
            for record in WriteAheadLog.open(root / view_id / WAL_NAME).records
        }
        acknowledged = set()
        for index, session_id in enumerate(updates):
            doc = service.status(session_id)
            batch_id = f"race-{index}"
            if doc["state"] == "done":
                # Applied-and-logged: the ack implies durability.
                assert doc["failure"] is None
                assert batch_id in logged
                acknowledged.add(batch_id)
            else:
                # Cleanly rejected: shed with a structured failure and
                # never logged — a retry under the same id is safe.
                assert doc["state"] == "shed"
                assert doc["failure"]["kind"] == "shed"
                assert batch_id not in logged
        assert logged == acknowledged  # nothing half-applied either way

        # Recovery agrees: the rebuilt view equals a from-scratch
        # recompute of the EDB plus exactly the acknowledged batches.
        recovered = _service(wal_root=str(root))
        report = recovered.recover()
        new_id = report["recovered"][view_id]["session_id"]
        edb = _graph(11, 120, 400).tolist()
        for index in range(4):
            if f"race-{index}" in acknowledged:
                edb.append([200 + index, 201 + index])
        solo = RecStep(RecStepConfig(**RELATIONAL)).evaluate(
            get_program("TC"), {"arc": np.array(edb, dtype=np.int64)}
        )
        assert recovered._views[new_id].fixpoint() == dict(solo.tuples)

    def test_cancel_queued_session(self):
        service = _service(max_concurrent=1, queue_limit=4)
        first = service.submit(_tc_request(seed=1))
        second = service.submit(_tc_request(seed=2))
        doc = service.cancel(second["session_id"])
        assert doc["state"] == "shed"
        assert doc["failure"]["reason"] == "cancelled-by-client"
        service.pump()
        service.drain()
        assert service.status(first["session_id"])["state"] == "done"


# ---------------------------------------------------------------------------
# The spill tier at the service layer
# ---------------------------------------------------------------------------


class TestServiceSpill:
    #: Calibrated with tests/test_spill.py: the 300-cycle TC fixpoint
    #: (90000 rows) cannot stay resident at this quota, but completes
    #: by evicting cold prefixes — ~13.7 simulated seconds, with blocks
    #: on disk from ~5s in.
    BUDGET = 550_000

    @staticmethod
    def _cycle_request(nodes: int = 300, **kwargs) -> QueryRequest:
        kwargs.setdefault("memory_quota", TestServiceSpill.BUDGET)
        return QueryRequest(
            program=get_program("TC"),
            edb_data={"arc": _cycle(nodes)},
            dataset="tc-cycle",
            **kwargs,
        )

    def _service(self, tmp_path, **overrides) -> QueryService:
        config = dict(
            max_concurrent=1,
            queue_limit=2,
            spill_root=str(tmp_path / "spill"),
        )
        config.update(overrides)
        return QueryService(
            ServerConfig(**config), engine_config=RecStepConfig(**RELATIONAL)
        )

    def test_spilled_session_releases_headroom_and_cleans_up(self, tmp_path):
        service = self._service(tmp_path)
        response = service.submit(self._cycle_request())
        assert response["accepted"]
        service.flush()
        doc = service.status(response["session_id"])
        assert doc["state"] == "done"
        assert doc["spilled_bytes"] > 0
        # The whole reservation, spilled slice included, went back to the
        # pool at the finish instant, together with the spill directory.
        assert service.admission.reserved_bytes == 0
        assert not (tmp_path / "spill" / response["session_id"]).exists()
        # Telemetry: the spill shows up in histograms and the report.
        metrics = service.metrics_snapshot()
        assert metrics["histograms"]["spill_bytes.TC"]["count"] == 1
        assert service.report()["spilled_bytes_total"] == doc["spilled_bytes"]

    def test_spilling_sessions_never_overcommit(self, tmp_path):
        # Each quota is over half the watermark. A spilled byte can be
        # faulted back in, so a quota stays held until its session
        # finishes: the second and third submissions wait their turn.
        service = self._service(
            tmp_path, max_concurrent=3, queue_limit=3, memory_budget=2 * self.BUDGET
        )
        watermark = int(
            service.admission.memory_budget * service.admission.high_watermark
        )
        assert watermark < 2 * self.BUDGET
        ids = []
        for _ in range(3):
            response = service.submit(self._cycle_request())
            while not response["accepted"]:
                assert response["reason"] == "memory-pressure"
                service.flush()
                response = service.submit(self._cycle_request())
            ids.append(response["session_id"])
            service.pump()
        service.flush()
        sessions = [service.sessions.get(session_id) for session_id in ids]
        assert all(s.state is SessionState.DONE and s.spilled_bytes for s in sessions)
        for session in sessions:
            held = sum(
                other.reserved_bytes
                for other in sessions
                if other.started_at <= session.started_at < other.finished_at
            )
            assert held <= watermark, (session.id, held)

    def test_spilled_view_serves_updates(self, tmp_path):
        # A view's spilled segments are live state: its session's finish
        # leaves them on disk, and only release_view removes them. (A
        # one-arc *delete* faults the whole spilled relation back in and
        # runs out of this quota, so the update here is an insert.)
        service = self._service(tmp_path)
        view = service.submit(
            self._cycle_request(100, memory_quota=100_000, materialize=True)
        )
        service.flush()
        view_id = view["session_id"]
        directory = tmp_path / "spill" / view_id
        assert service.status(view_id)["spilled_bytes"] > 0
        assert list(directory.glob("*.spill"))
        arc = np.array([[0, 100]], dtype=np.int64)
        update = service.submit(
            QueryRequest(
                program=get_program("TC"),
                edb_data={},
                kind="update",
                target_session=view_id,
                inserts={"arc": arc},
            )
        )
        service.flush()
        assert service.status(update["session_id"])["state"] == "done"
        reference = RecStep(RecStepConfig(**RELATIONAL)).evaluate(
            get_program("TC"), {"arc": np.vstack([_cycle(100), arc])}
        )
        assert service._views[view_id].fixpoint() == reference.tuples
        service.release_view(view_id)
        assert not directory.exists()
        assert service.admission.reserved_bytes == 0

    def test_drain_cancels_spilled_session_resume_identical(self, tmp_path, monkeypatch):
        # Drain grace lands mid-fixpoint, *after* blocks went to disk:
        # the session checkpoint-cancels with spilled bytes on the books,
        # the spill root is swept, and the checkpoint resumes (with its
        # own spill tier) to the exact reference fixpoint.
        # 10s grace: past spill onset (~7.5s under per-iteration
        # checkpoint overhead), well before the ~14s completion.
        monkeypatch.setattr(service_module, "DRAIN_GRACE_SECONDS", 10.0)
        service = self._service(tmp_path)
        response = service.submit(self._cycle_request())
        assert response["accepted"]
        report = service.drain(checkpoint_dir=str(tmp_path / "ckpt"))

        doc = service.status(response["session_id"])
        assert doc["state"] == "cancelled"
        assert doc["failure"]["kind"] == "deadline"
        assert doc["spilled_bytes"] > 0
        assert service.counters.snapshot()["server.checkpointed_on_drain"] == 1
        # The shutdown report accounts the spilled bytes, and no spill
        # state survives the drain sweep.
        assert report["spilled_bytes_total"] == doc["spilled_bytes"]
        spill_root = tmp_path / "spill"
        assert not spill_root.exists() or not any(spill_root.iterdir())

        request = self._cycle_request()
        resumed = RecStep(
            RecStepConfig(
                **RELATIONAL,
                memory_budget=self.BUDGET,
                degradation=True,
                spill_dir=str(tmp_path / "resume-spill"),
                resume_from=doc["checkpoint_dir"],
            )
        ).evaluate(request.program, request.edb_data, dataset="tc-cycle")
        reference = RecStep(RecStepConfig(**RELATIONAL)).evaluate(
            request.program, request.edb_data, dataset="tc-cycle"
        )
        assert resumed.status == reference.status == "ok"
        assert resumed.tuples == reference.tuples


# ---------------------------------------------------------------------------
# The serve-chaos smoke, in miniature (CI runs the full module)
# ---------------------------------------------------------------------------


class TestSmoke:
    def test_smoke_run_is_clean(self):
        from repro.server.smoke import run_smoke

        report = run_smoke(queries=6, queue_limit=3, verbose=False)
        assert report["smoke"]["violations"] == []
        assert report["smoke"]["accepted"] >= 1


# ---------------------------------------------------------------------------
# Point queries: demand-driven serving with a per-service answer cache
# ---------------------------------------------------------------------------


def _point_request(goal: str, seed: int = 42, **kwargs) -> QueryRequest:
    return QueryRequest(
        program=get_program("TC"),
        edb_data={"arc": _graph(seed, 120, 400)},
        dataset=f"tc-{seed}",
        kind="point",
        goal=goal,
        **kwargs,
    )


class TestPointQueries:
    def test_point_answers_match_post_filtered_full(self):
        edb = {"arc": _graph(42, 120, 400)}
        source = int(edb["arc"][0, 0])
        goal = parse_goal(f"tc({source}, x)")
        service = _service()
        response = service.submit(_point_request(f"tc({source}, x)"))
        assert response["accepted"]
        service.pump()
        service.flush()
        session = service.sessions.get(response["session_id"])
        assert session.state is SessionState.DONE
        full = RecStep(RecStepConfig(**RELATIONAL)).evaluate(
            get_program("TC"), {k: v.copy() for k, v in edb.items()}
        )
        assert session.result.tuples["tc"] == filter_answers(
            full.tuples["tc"], goal
        )
        assert session.result.detail["point_cache_hit"] == 0.0
        assert session.result.detail["magic_rewritten"] == 1.0

    def test_cache_hit_serves_repeat_goal_without_evaluation(self):
        source = int(_graph(42, 120, 400)[0, 0])
        service = _service()
        first = service.submit(_point_request(f"tc({source}, x)"))
        service.pump()
        service.flush()
        # Same bindings, different free-term pattern: the cached answer
        # relation is re-filtered, the fixpoint is not re-run.
        second = service.submit(_point_request(f"tc({source}, _)"))
        service.pump()
        service.flush()
        counts = service.counters.snapshot()
        assert counts["server.point_queries"] == 2
        assert counts["server.point_cache_misses"] == 1
        assert counts["server.point_cache_hits"] == 1
        hit = service.sessions.get(second["session_id"])
        assert hit.state is SessionState.DONE
        assert hit.result.detail["point_cache_hit"] == 1.0
        miss = service.sessions.get(first["session_id"])
        assert hit.result.tuples == miss.result.tuples
        # A hit costs no simulated evaluation time.
        assert hit.finished_at == hit.started_at

    def test_edb_churn_changes_fingerprint_and_misses(self):
        source = int(_graph(42, 120, 400)[0, 0])
        service = _service()
        service.submit(_point_request(f"tc({source}, x)", seed=42))
        service.pump()
        service.flush()
        churned = _point_request(f"tc({source}, x)", seed=42)
        churned.edb_data["arc"] = np.vstack(
            [churned.edb_data["arc"], np.array([[118, 119]], dtype=np.int64)]
        )
        service.submit(churned)
        service.pump()
        service.flush()
        counts = service.counters.snapshot()
        assert counts["server.point_cache_misses"] == 2
        assert counts.get("server.point_cache_hits", 0) == 0

    def test_quota_priced_on_demanded_cone(self):
        # A bound goal demands a fraction of the program; its default
        # reservation shrinks accordingly (never below the floor).
        source = int(_graph(42, 120, 400)[0, 0])
        request = _point_request(f"tc({source}, x)", memory_quota=None)
        service = _service()
        response = service.submit(request)
        assert response["accepted"]
        assert request.memory_quota is not None
        assert MIN_SESSION_QUOTA <= request.memory_quota
        assert request.memory_quota < service.admission.default_quota

    def test_all_free_goal_prices_at_full_quota(self):
        request = _point_request("tc(x, y)", memory_quota=None)
        service = _service()
        service.submit(request)
        assert request.memory_quota == service.admission.default_quota

    def test_bad_goal_is_structured_rejection(self):
        service = _service()
        response = service.submit(_point_request("nosuch(1, 2)"))
        assert response["accepted"] is False
        assert response["reason"] == "bad-goal"
        assert response["retry_after_seconds"] == DEFAULT_RETRY_AFTER
        assert "nosuch" in response["message"]
        assert response["goal"] == "nosuch(1, 2)"
        assert service.counters.snapshot()["server.rejected_bad_goal"] == 1

    def test_point_latency_has_its_own_family(self):
        source = int(_graph(42, 120, 400)[0, 0])
        service = _service()
        service.submit(_point_request(f"tc({source}, x)"))
        service.pump()
        service.flush()
        snapshot = service.metrics_snapshot()
        families = set(snapshot["histograms"])
        assert "point.latency.all" in families
        assert not any(f.startswith("latency.") for f in families)


# ---------------------------------------------------------------------------
# Failure classification at the isolation boundary
# ---------------------------------------------------------------------------


class TestFailureClassification:
    """Escaped control exceptions keep their structured taxonomy.

    The ``except Exception`` isolation boundaries in the service must not
    collapse cancellation/deadline/guard exceptions into a
    generic FAILED/internal document — each maps to the same status the
    interpreter itself would have reported.
    """

    def _run_with_raising_evaluate(self, monkeypatch, error):
        def explode(self, *args, **kwargs):
            raise error

        monkeypatch.setattr(RecStep, "evaluate", explode)
        service = _service()
        response = service.submit(_tc_request(seed=3))
        assert response["accepted"]
        service.pump()
        service.flush()
        return service, service.sessions.get(response["session_id"])

    def test_deadline_cancel_maps_to_cancelled_deadline(self, monkeypatch):
        error = EvaluationCancelled("past deadline", reason="deadline")
        _, session = self._run_with_raising_evaluate(monkeypatch, error)
        assert session.state is SessionState.CANCELLED
        assert session.failure["kind"] == "deadline"
        assert session.failure["error"] == "EvaluationCancelled"

    def test_guard_trip_maps_to_guard_not_internal(self, monkeypatch):
        from repro.common.errors import DivergenceGuardTripped

        error = DivergenceGuardTripped(
            "row budget exceeded", reason="max_total_rows", total_rows=10**9
        )
        _, session = self._run_with_raising_evaluate(monkeypatch, error)
        assert session.state is SessionState.FAILED
        assert session.failure["error"] == "DivergenceGuardTripped"
        assert session.failure["kind"] == "max_total_rows"

    def test_unknown_exception_still_generic_fault(self, monkeypatch):
        _, session = self._run_with_raising_evaluate(
            monkeypatch, RuntimeError("surprise")
        )
        assert session.state is SessionState.FAILED
        assert session.failure["kind"] == "internal"

    def test_point_path_classifies_guard_trips(self, monkeypatch):
        from repro.common.errors import DivergenceGuardTripped

        def explode(self, *args, **kwargs):
            raise DivergenceGuardTripped("diverged", reason="max_iterations")

        monkeypatch.setattr(RecStep, "answer", explode)
        service = _service()
        source = int(_graph(42, 120, 400)[0, 0])
        response = service.submit(_point_request(f"tc({source}, x)"))
        assert response["accepted"]
        service.pump()
        service.flush()
        session = service.sessions.get(response["session_id"])
        assert session.state is SessionState.FAILED
        assert session.failure["error"] == "DivergenceGuardTripped"
        assert session.failure["kind"] == "max_iterations"
