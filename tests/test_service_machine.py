"""The query service as a state machine, and one witness per mechanism.

``ServiceMachine`` drives one :class:`QueryService`, which spills under
``spill_root`` and persists views under ``wal_root``, through random
interleavings of submit (query, point, materialize, update), pump,
flush, cancel, release_view, crash-and-recover and drain. After every
step it checks what must hold whatever the interleaving:

* the pool's reserved and pending bytes equal what live sessions and
  views hold;
* no simulated instant holds more quota than the watermark;
* no spill directory exists for a released database;
* every live view's spilled segments are on disk;
* every terminal session that is not DONE carries a ``failure["kind"]``
  from the taxonomy;
* no acknowledged batch is lost across a crash (or a drain) and
  ``recover()``: every healthy durable view comes back equal to a fresh
  evaluation of its base EDB plus every batch its log accepted.

The example budget is small in tier-1; the serve-chaos CI job loads the
``serve-chaos`` Hypothesis profile (``tests/conftest.py``) for a larger
one, with fault injection armed.

``TestServiceEvidence`` gives each service mechanism one witness: a
terminal status, a rejection or a gated metric that changes when the
mechanism is removed.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.common.errors import STATUS_OUTCOMES
from repro.core import PbmeMode, RecStep, RecStepConfig
from repro.programs import get_program
from repro.resilience.wal import MANIFEST_NAME, WAL_NAME
from repro.server import QueryRequest, QueryService, ServerConfig, SessionState
import repro.server.breaker as breaker_module
import repro.server.service as service_module

RELATIONAL = dict(pbme=PbmeMode.OFF)
PROGRAMS = {"TC": get_program("TC"), "SG": get_program("SG")}
NODES = 40
#: A TC cycle that spills under its own quota in well under a second.
SPILL_NODES, SPILL_QUOTA = 100, 100_000
#: Explicit quota of the machine's small views.
VIEW_QUOTA = 300_000

#: Every ``failure["kind"]`` a terminal session may carry: the engine's
#: statuses, the guard budgets, and the service's own kinds.
FAILURE_KINDS = (set(STATUS_OUTCOMES) - {"ok"}) | {
    "max_iterations",
    "max_total_rows",
    "internal",
    "shed",
    "no-such-view",
    "bad-batch",
    "wal-append",
    "view-poisoned",
    "view-released",
}

edges = st.lists(
    st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1)),
    min_size=1,
    max_size=NODES,
).map(lambda pairs: np.array(sorted(set(pairs)), dtype=np.int64).reshape(-1, 2))
programs = st.sampled_from(sorted(PROGRAMS))
quotas = st.sampled_from([None, VIEW_QUOTA, SPILL_QUOTA])


def _cycle(nodes: int) -> np.ndarray:
    src = np.arange(nodes, dtype=np.int64)
    return np.stack([src, (src + 1) % nodes], axis=1)


def _apply(base: set, inserts: dict | None, deletes: dict | None) -> set:
    rows = set(base)
    rows |= {tuple(map(int, r)) for r in (inserts or {}).get("arc", ())}
    rows -= {tuple(map(int, r)) for r in (deletes or {}).get("arc", ())}
    return rows


def _fresh(program: str, arcs: set) -> dict:
    """The oracle: a fault-free from-scratch evaluation."""
    edb = {"arc": np.array(sorted(arcs), dtype=np.int64).reshape(-1, 2)}
    result = RecStep(RecStepConfig(**RELATIONAL, fault_seed=None)).evaluate(
        PROGRAMS[program], edb
    )
    assert result.status == "ok", result.failure
    return dict(result.tuples)


def _machine_settings() -> settings:
    """Tier-1's budget, or the loaded ``serve-chaos`` profile's."""
    kwargs = dict(
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    if settings.get_current_profile_name() == "serve-chaos":
        return settings(settings.default, **kwargs)
    return settings(max_examples=15, stateful_step_count=20, **kwargs)


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="service-machine-"))
        self.config = ServerConfig(
            max_concurrent=2,
            queue_limit=4,
            memory_budget=4_000_000,
            spill_root=str(self.root / "spill"),
            wal_root=str(self.root / "wal"),
            wal_compact_records=3,
        )
        #: Durable view directory -> its program, base arcs, the batch
        #: ids its log holds, and the batches applied to it, in order:
        #: (inserts, deletes, whether the view took it cleanly).
        self.durable: dict[str, dict] = {}
        #: (incarnation, update session id) already recorded.
        self.seen: set[tuple[int, str]] = set()
        self.incarnation = 0
        #: Session id -> durable directory, for this incarnation's views.
        self.directory_of: dict[str, str] = {}
        #: View session id -> simulated instant its reservation returned.
        self.view_released_at: dict[str, float] = {}
        self.service = QueryService(self.config, RecStepConfig(**RELATIONAL))
        admission = self.service.admission
        self.watermark = int(admission.memory_budget * admission.high_watermark)

    def teardown(self) -> None:
        """Every run ends in a crash: what it acknowledged must recover."""
        try:
            self.crash()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)

    # -- rules -----------------------------------------------------------------

    def _submit(self, request: QueryRequest) -> None:
        response = self.service.submit(request)
        if not response["accepted"]:
            assert response["overloaded"] and response["retry_after_seconds"] > 0

    @rule(program=programs, arcs=edges, quota=quotas)
    def submit_query(self, program, arcs, quota):
        self._submit(QueryRequest(PROGRAMS[program], {"arc": arcs}, memory_quota=quota))

    @rule(program=programs, arcs=edges, node=st.integers(0, NODES - 1))
    def submit_point(self, program, arcs, node):
        self._submit(
            QueryRequest(
                PROGRAMS[program],
                {"arc": arcs},
                kind="point",
                goal=f"{program.lower()}({node}, x)",
            )
        )

    @initialize(program=programs, arcs=edges, spill=st.booleans())
    def open_view(self, program, arcs, spill):
        """Every run starts with one view that has opened."""
        self.materialize(program, arcs, spill)
        self.flush()

    @rule(program=programs, arcs=edges, spill=st.booleans())
    def materialize(self, program, arcs, spill):
        if spill:
            program, arcs, quota = "TC", _cycle(SPILL_NODES), SPILL_QUOTA
        else:
            quota = VIEW_QUOTA
        self._submit(
            QueryRequest(
                PROGRAMS[program],
                {"arc": arcs},
                dataset=program,
                memory_quota=quota,
                materialize=True,
            )
        )
        self._observe()

    def _targets(self) -> list[str]:
        """Live views, and materializations still on their way to one."""
        return [
            s.id
            for s in self.service.sessions.all()
            if s.request.materialize
            and (s.id in self.service._views or not s.state.terminal)
        ]

    @precondition(lambda self: self._targets())
    @rule(
        data=st.data(),
        delete=st.booleans(),
        batch=st.integers(0, 5),
        settle=st.booleans(),
    )
    def update(self, data, delete, batch, settle):
        target = self.service.sessions.get(data.draw(st.sampled_from(self._targets())))
        # Deletes mostly hit arcs the view was opened with.
        arc = st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1))
        if delete:
            arc = st.sampled_from(sorted(map(tuple, target.request.edb_data["arc"]))) | arc
        rows = {"arc": np.array(data.draw(st.lists(arc, min_size=1, max_size=3)))}
        self._submit(
            QueryRequest(
                target.request.program,
                {},
                kind="update",
                target_session=target.id,
                deletes=rows if delete else None,
                inserts=None if delete else rows,
                batch_id=f"b{batch}",
            )
        )
        if settle:
            self.service.pump()
        self._observe()

    @rule()
    def pump(self):
        self.service.pump()
        self._observe()

    @rule()
    def flush(self):
        self.service.flush()
        self._observe()

    @precondition(lambda self: self.service._queue)
    @rule(data=st.data())
    def cancel(self, data):
        session = data.draw(st.sampled_from(list(self.service._queue)))
        assert self.service.cancel(session.id)["state"] == "shed"

    @precondition(lambda self: self.service._views)
    @rule(data=st.data())
    def release_view(self, data):
        view_id = data.draw(st.sampled_from(sorted(self.service._views)))
        self._observe()
        self._note_release(view_id)
        self.service.release_view(view_id)

    def _note_release(self, view_id: str) -> None:
        """A view's reservation returns at release, or at its finish if
        its session still holds a slot."""
        now = self.service.clock.now()
        self.view_released_at[view_id] = max(
            [now] + [f for f, s, _ in self.service._active if s.id == view_id]
        )

    @precondition(lambda self: self.durable)
    @rule()
    def crash(self):
        """Drop the service without a drain; recover on a new one."""
        self._observe()
        self._restart()

    @precondition(lambda self: self.durable)
    @rule(checkpoint=st.booleans())
    def drain(self, checkpoint):
        self._observe()
        report = self.service.drain(
            checkpoint_dir=str(self.root / "drain") if checkpoint else None
        )
        for session in self.service.sessions.all():
            # Drain released every view still live after its flush.
            opened = session.request.materialize and session.state is SessionState.DONE
            if opened and session.id not in self.view_released_at:
                self.view_released_at[session.id] = self.service.clock.now()
        self._observe()
        self.check_pool()
        self.check_released_spill()
        assert report["admission"]["reserved_bytes"] == 0
        assert report["admission"]["pending_bytes"] == 0
        assert not list(Path(self.config.spill_root).glob("*"))
        self._restart()

    # -- the model ---------------------------------------------------------------

    def _observe(self) -> None:
        """Record new durable views, and each batch an update applied to
        one in execution order (a view runs its updates in submission
        order). A batch id the view's log already holds is re-acked
        without being applied again."""
        wal_root = Path(self.config.wal_root)
        for session in self.service.sessions.all():
            request = session.request
            if request.materialize and not session.recovered:
                if session.id not in self.directory_of and (
                    wal_root / session.id / MANIFEST_NAME
                ).exists():
                    self.directory_of[session.id] = session.id
                    self.durable[session.id] = {
                        "program": request.dataset,
                        "arcs": {tuple(map(int, r)) for r in request.edb_data["arc"]},
                        "batch_ids": set(),
                        "batches": [],
                    }
            if request.kind != "update" or session.result is None:
                continue
            name = self.directory_of.get(request.target_session)
            if name is None or (self.incarnation, session.id) in self.seen:
                continue  # a memory-only view, or already recorded
            self.seen.add((self.incarnation, session.id))
            model = self.durable[name]
            if request.batch_id in model["batch_ids"]:
                continue
            model["batch_ids"].add(request.batch_id)
            model["batches"].append(
                (request.inserts, request.deletes, session.result.status == "ok")
            )

    def _restart(self) -> None:
        """A new service over the same roots; recover() must rebuild
        every healthy durable view with every batch applied to it."""
        self.service = QueryService(self.config, RecStepConfig(**RELATIONAL))
        self.incarnation += 1
        self.directory_of, self.view_released_at = {}, {}
        report = self.service.recover()
        for name, model in self.durable.items():
            if not all(applied for *_, applied in model["batches"]):
                continue  # a batch poisoned the live view; it was not served
            if name in report["failed"]:
                # Capacity, not loss: the directory waits for a roomier
                # recover(). Anything else lost acknowledged batches.
                assert report["failed"][name]["kind"] == "memory-pressure", (
                    name,
                    report["failed"][name],
                )
                continue
            assert name in report["recovered"], (name, report)
            view_id = report["recovered"][name]["session_id"]
            self.directory_of[view_id] = name
            arcs = model["arcs"]
            for inserts, deletes, _ in model["batches"]:
                arcs = _apply(arcs, inserts, deletes)
            assert self.service._views[view_id].fixpoint() == _fresh(
                model["program"], arcs
            ), name
        self._observe()

    # -- invariants --------------------------------------------------------------

    def _holders(self):
        """Sessions whose Database the pool is paying for right now."""
        active = {id(s) for _, s, _ in self.service._active}
        for session in self.service.sessions.all():
            if session.request.kind == "update" or session.started_at is None:
                continue
            if session.id in self.service._views or id(session) in active:
                yield session

    @invariant()
    def check_pool(self):
        admission = self.service.admission
        assert admission.reserved_bytes == sum(
            s.reserved_bytes for s in self._holders()
        )
        assert admission.pending_bytes == sum(
            s.reserved_bytes for s in self.service._queue if s.pending_reservation
        )

    @invariant()
    def check_watermark(self):
        live = set(self.service._views)
        spans = []
        for session in self.service.sessions.all():
            if session.request.kind == "update" or session.started_at is None:
                continue
            end = float("inf")
            if session.id in self.view_released_at:
                end = self.view_released_at[session.id]
            elif session.id not in live and session.finished_at is not None:
                end = session.finished_at
            spans.append((session.started_at, end, session.reserved_bytes))
        for instant, _, _ in spans:
            held = sum(b for start, end, b in spans if start <= instant < end)
            assert held <= self.watermark, (instant, held)

    @invariant()
    def check_released_spill(self):
        root = Path(self.config.spill_root)
        for session in self.service.sessions.all():
            released = (
                session.state.terminal
                and session.started_at is not None
                and session.request.kind != "update"
                and session.id not in self.service._views
            )
            if released:
                assert not (root / session.id).exists(), session.id

    @invariant()
    def check_view_segments(self):
        for view in self.service._views.values():
            if view.status != "ready" or view.database.spill is None:
                continue
            for segments in view.database.spill._segments.values():
                for segment in segments:
                    assert segment.path.exists(), segment.path

    @invariant()
    def check_failure_kinds(self):
        for session in self.service.sessions.all():
            if session.state.terminal and session.state is not SessionState.DONE:
                assert session.failure is not None, session.id
                assert session.failure.get("kind") in FAILURE_KINDS, session.failure


TestServiceStateMachine = ServiceMachine.TestCase
TestServiceStateMachine.settings = _machine_settings()


# ---------------------------------------------------------------------------
# One witness per mechanism
# ---------------------------------------------------------------------------


def _service(**overrides) -> QueryService:
    config = dict(max_concurrent=1, queue_limit=4)
    config.update(overrides)
    return QueryService(ServerConfig(**config), RecStepConfig(**RELATIONAL))


def _tc(arcs=None, **kwargs) -> QueryRequest:
    arcs = _cycle(30) if arcs is None else arcs
    return QueryRequest(PROGRAMS["TC"], {"arc": arcs}, **kwargs)


class TestServiceEvidence:
    def test_admission_reservations(self):
        # A running session's reservation keeps a second one out.
        service = _service(max_concurrent=2, memory_budget=1_000_000)
        assert service.submit(_tc(memory_quota=600_000))["accepted"]
        service.pump()
        second = service.submit(_tc(memory_quota=600_000))
        assert second.get("reason") == "memory-pressure"

    def test_price_update(self):
        # A delta the view's reservation cannot absorb bounces at submit.
        service = _service()
        view_id = service.submit(_tc(memory_quota=VIEW_QUOTA, materialize=True))[
            "session_id"
        ]
        service.flush()
        rows = VIEW_QUOTA // 64 + 1
        big = np.stack([np.arange(rows), np.arange(rows) + 1], axis=1)
        response = service.submit(
            QueryRequest(
                PROGRAMS["TC"],
                {},
                kind="update",
                target_session=view_id,
                inserts={"arc": big.astype(np.int64)},
            )
        )
        assert response.get("reason") == "memory-pressure"
        assert response["view_reserved_bytes"] == VIEW_QUOTA

    def test_pending_pool(self):
        # A queued priced quota counts against the watermark.
        service = _service(memory_budget=1_000_000)
        first = service.submit(_tc(memory_quota=600_000))
        assert first["accepted"]
        second = service.submit(_tc(memory_quota=600_000))
        assert second.get("reason") == "memory-pressure"
        service.cancel(first["session_id"])
        assert service.submit(_tc(memory_quota=600_000))["accepted"]

    def test_breaker_failure_path(self, monkeypatch):
        # Repeated backend failures open the class's breaker.
        monkeypatch.setattr(breaker_module, "FAILURE_THRESHOLD", 2)
        service = _service()
        for _ in range(2):
            failing = service.submit(_tc(memory_quota=20_000))
            service.flush()
            assert service.status(failing["session_id"])["state"] == "failed"
        assert service.submit(_tc()).get("reason") == "breaker-open"

    def test_shedding(self):
        # Drain without a checkpoint directory sheds what still queues.
        service = _service()
        service.submit(_tc())
        queued = service.submit(_tc())["session_id"]
        service.drain()
        doc = service.status(queued)
        assert doc["state"] == "shed"
        assert doc["failure"]["kind"] == "shed"

    def test_drain_with_checkpoint_directory(self, tmp_path, monkeypatch):
        # Drain with a checkpoint directory runs queued work under the
        # grace deadline and leaves a resumable snapshot.
        monkeypatch.setattr(service_module, "DRAIN_GRACE_SECONDS", 0.05)
        service = _service()
        session_id = service.submit(_tc(_cycle(60)))["session_id"]
        service.drain(checkpoint_dir=str(tmp_path / "ckpt"))
        doc = service.status(session_id)
        assert doc["state"] == "cancelled"
        assert doc["failure"]["kind"] == "deadline"
        assert list(Path(doc["checkpoint_dir"]).glob("ckpt-*.npz"))

    def test_sweep_spill_root(self, tmp_path):
        # A crashed service's live view leaves its spill directory; the
        # next service's drain removes it.
        spill_root = tmp_path / "spill"
        crashed = _service(spill_root=str(spill_root))
        crashed.submit(
            _tc(_cycle(SPILL_NODES), memory_quota=SPILL_QUOTA, materialize=True)
        )
        crashed.flush()
        assert list(spill_root.iterdir())
        report = _service(spill_root=str(spill_root)).drain()
        assert report["counters"].get("server.spill_dirs_cleaned") == 1
        assert not list(spill_root.iterdir())

    def test_quarantine_view(self, tmp_path):
        # An unrecoverable view is moved aside: a later recover() does
        # not meet it again.
        wal_root = tmp_path / "wal"
        service = _service(wal_root=str(wal_root))
        view_id = service.submit(_tc(materialize=True))["session_id"]
        service.flush()
        service.drain()
        (wal_root / view_id / WAL_NAME).write_bytes(b"")
        first = _service(wal_root=str(wal_root)).recover()
        assert first["failed"][view_id]["kind"] == "view-unrecoverable"
        assert _service(wal_root=str(wal_root)).recover()["failed"] == {}
