"""Incremental view maintenance: EDB churn served from a warm fixpoint.

The acceptance bar is *fixpoint identity*: after any sequence of insert/
delete batches, a maintained view's IDB contents are bit-identical to
recomputing from scratch on the post-churn EDB — across programs that
exercise every maintenance class (DRed for monotone strata, recursive
or not, recompute for negation/aggregates), with the spill tier on,
under chaos, and after a checkpoint resume. An insert-only batch takes
no old-state snapshot. A batch answers to the divergence guard, with
budgets that start over at each batch, and not to the view's deadline.

The satellite staleness fixes ride along:

* the join-state cache detects same-size in-place rewrites that keep
  the epoch (the ``synced_version`` backstop);
* cancelling a still-queued priced session releases its pending
  admission reservation immediately;
* checkpoint resume refuses snapshots whose EDB fingerprint no longer
  matches the inputs (``checkpoint_stale_skipped``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PbmeMode, RecStep, RecStepConfig
from repro.core.ivm import MaintenanceRun
from repro.engine.database import Database
from repro.engine.metrics import CRITICAL_WATERMARK
from repro.obs.counters import CounterRegistry
from repro.programs import get_program
from repro.programs.library import ProgramSpec
from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointManager,
    CheckpointState,
    StaleCheckpointError,
    edb_fingerprint,
)
from repro.server.admission import QueryRequest
from repro.server.service import QueryService, ServerConfig

RELATIONAL = dict(pbme=PbmeMode.OFF)

#: TC plus a non-recursive stratum reading it.
TC2 = ProgramSpec(
    name="TC2",
    title="Transitive Closure and one more hop",
    domain="graph",
    source="""
        tc(x, y) :- arc(x, y).
        tc(x, y) :- tc(x, z), arc(z, y).
        two(x, y) :- tc(x, z), arc(z, y).
    """,
    edb_schemas={"arc": ("c0", "c1")},
    outputs=("tc", "two"),
)


def path_arcs(n: int) -> np.ndarray:
    """A directed path: the TC closure is sparse, so deltas stay small
    and a vacuously-complete fixpoint cannot mask a maintenance bug."""
    src = np.arange(n - 1, dtype=np.int64)
    return np.stack([src, src + 1], axis=1)


def random_graph(seed: int, nodes: int, edges: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.unique(
        rng.integers(0, nodes, size=(edges, 2)).astype(np.int64), axis=0
    )


def aa_edb(seed: int = 3) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)

    def rel(count):
        return np.unique(rng.integers(0, 25, size=(count, 2)), axis=0).astype(
            np.int64
        )

    return {
        "addressOf": rel(18),
        "assign": rel(16),
        "load": rel(12),
        "store": rel(12),
    }


def churn_batches(
    edb: dict[str, np.ndarray], seed: int, count: int, batch: int = 4
):
    """Random insert/delete batches over the live EDB state.

    Yields (inserts, deletes, edb_after): deletions sample existing
    rows, insertions draw fresh rows from the same value range, and the
    returned ``edb_after`` is the ground truth a recompute should see.
    """
    rng = np.random.default_rng(seed)
    state = {name: {tuple(map(int, r)) for r in rows} for name, rows in edb.items()}
    arities = {name: rows.shape[1] for name, rows in edb.items()}
    high = max(
        (int(rows.max()) + 1 for rows in edb.values() if rows.size), default=8
    )
    for _ in range(count):
        inserts: dict[str, np.ndarray] = {}
        deletes: dict[str, np.ndarray] = {}
        for name in sorted(state):
            arity = arities[name]
            dels = []
            existing = sorted(state[name])
            if existing and rng.random() < 0.8:
                k = int(rng.integers(1, min(batch, len(existing)) + 1))
                idx = rng.choice(len(existing), size=k, replace=False)
                dels = [existing[i] for i in idx]
            ins = [
                tuple(int(v) for v in rng.integers(0, high, size=arity))
                for _ in range(int(rng.integers(1, batch + 1)))
            ]
            if dels:
                deletes[name] = np.array(dels, dtype=np.int64)
                state[name] -= set(dels)
            if ins:
                inserts[name] = np.array(ins, dtype=np.int64)
                state[name] |= set(ins)
        edb_after = {
            name: np.array(sorted(rows), dtype=np.int64).reshape(
                -1, arities[name]
            )
            for name, rows in state.items()
        }
        yield inserts, deletes, edb_after


def recompute_fixpoint(spec, edb_data) -> dict[str, set]:
    result = RecStep(RecStepConfig(**RELATIONAL)).evaluate(
        spec, edb_data, dataset="ref"
    )
    assert result.status == "ok"
    return {
        name: {tuple(int(v) for v in row) for row in rows}
        for name, rows in result.tuples.items()
    }


PROGRAM_EDBS = [
    ("TC", lambda: {"arc": path_arcs(40)}),
    ("SG", lambda: {"arc": random_graph(5, 30, 70)}),
    ("AA", aa_edb),
]


class TestMaintainedIdentity:
    """maintain() == recompute-from-scratch, bit for bit."""

    @pytest.mark.parametrize("program,make_edb", PROGRAM_EDBS)
    def test_randomized_churn_matches_recompute(self, program, make_edb):
        spec = get_program(program)
        edb = make_edb()
        view = RecStep(RecStepConfig(**RELATIONAL)).materialize(
            spec, edb, dataset="churn"
        )
        try:
            for inserts, deletes, edb_after in churn_batches(
                edb, seed=1720, count=4
            ):
                result = view.maintain(inserts, deletes)
                assert result.status == "ok", result.failure
                assert view.fixpoint() == recompute_fixpoint(spec, edb_after)
        finally:
            view.release()

    def test_negation_and_aggregates_recompute_classes(self):
        """NTC (negation) and CC (MIN) force the recompute class; both
        also have a non-recursive monotone stratum that DRed maintains."""
        cases = [
            ("NTC", {"arc": random_graph(7, 12, 26)}),
            ("CC", {"arc": random_graph(9, 16, 30)}),
        ]
        for name, edb in cases:
            spec = get_program(name)
            view = RecStep(RecStepConfig(**RELATIONAL)).materialize(
                spec, edb, dataset="churn"
            )
            try:
                for inserts, deletes, edb_after in churn_batches(
                    edb, seed=42, count=3, batch=3
                ):
                    result = view.maintain(inserts, deletes)
                    assert result.status == "ok", result.failure
                    assert view.fixpoint() == recompute_fixpoint(spec, edb_after)
            finally:
                view.release()

    def test_insert_only_batch_reports_net_deltas(self):
        spec = get_program("TC")
        edb = {"arc": path_arcs(30)}
        view = RecStep(RecStepConfig(**RELATIONAL)).materialize(
            spec, edb, dataset="delta"
        )
        try:
            before = {name: len(rows) for name, rows in view.fixpoint().items()}
            result = view.maintain(
                {"arc": np.array([[29, 30]], dtype=np.int64)}, None
            )
            assert result.status == "ok"
            assert result.applied["arc"]["inserted"] == 1
            assert result.applied["arc"]["deleted"] == 0
            # Appending the next path edge derives exactly the new
            # suffix-reaching pairs: 30 (one per earlier node).
            assert result.idb_deltas["tc"]["inserted"] == 30
            assert result.idb_deltas["tc"]["deleted"] == 0
            after = view.fixpoint()
            assert len(after["tc"]) == before["tc"] + 30
        finally:
            view.release()

    def test_insert_only_batch_snapshots_nothing(self, monkeypatch):
        """Old state is read only by over-deletion: an insert-only batch
        copies no relation into an ``_ivm_old`` table, even for a
        non-recursive stratum reading a recursive one."""
        made = []
        make = MaintenanceRun._make_work_table

        def spy(run, table, rows):
            made.append(table)
            make(run, table, rows)

        monkeypatch.setattr(MaintenanceRun, "_make_work_table", spy)
        view = RecStep(RecStepConfig(**RELATIONAL, profile=True)).materialize(
            TC2, {"arc": path_arcs(20)}, dataset="snapshots"
        )
        try:
            result = view.maintain({"arc": np.array([[19, 20]])}, None)
            assert result.status == "ok", result.failure
            assert view.database.profiler.counters.get("ivm.strata_dred") == 2
            assert made and not [t for t in made if t.endswith("_ivm_old")]
            made.clear()
            result = view.maintain(None, {"arc": np.array([[5, 6]])})
            assert result.status == "ok", result.failure
            assert {"arc_ivm_old", "tc_ivm_old"} <= set(made)
            assert view.fixpoint() == recompute_fixpoint(
                TC2, {"arc": np.delete(path_arcs(21), 5, axis=0)}
            )
        finally:
            view.release()

    def test_duplicate_and_noop_batches(self):
        """Inserting present rows / deleting absent rows is a no-op, and
        insert+delete of the same absent tuple nets to an insert."""
        spec = get_program("TC")
        edb = {"arc": path_arcs(10)}
        view = RecStep(RecStepConfig(**RELATIONAL)).materialize(
            spec, edb, dataset="noop"
        )
        try:
            base = view.fixpoint()
            result = view.maintain(
                {"arc": np.array([[0, 1]], dtype=np.int64)},  # already present
                {"arc": np.array([[90, 91]], dtype=np.int64)},  # absent
            )
            assert result.status == "ok"
            assert result.delta_rows == 0
            assert view.fixpoint() == base
        finally:
            view.release()

    def test_bad_relation_faults_without_poisoning(self):
        spec = get_program("TC")
        view = RecStep(RecStepConfig(**RELATIONAL)).materialize(
            spec, {"arc": path_arcs(6)}, dataset="bad"
        )
        try:
            result = view.maintain(
                {"nonsense": np.array([[1, 2]], dtype=np.int64)}, None
            )
            assert result.status == "fault"
            assert view.status == "ready"  # validation precedes mutation
            ok = view.maintain({"arc": np.array([[5, 6]], dtype=np.int64)}, None)
            assert ok.status == "ok"
        finally:
            view.release()


class TestMaintainedIdentityUnderStress:
    def test_churn_identity_with_spill_tier(self, tmp_path):
        spec = get_program("TC")
        edb = {"arc": path_arcs(60)}
        config = RecStepConfig(
            **RELATIONAL,
            memory_budget=400_000,
            degradation=True,
            spill_dir=str(tmp_path / "spill"),
        )
        view = RecStep(config).materialize(spec, edb, dataset="spill-churn")
        assert view.status == "ready", view.result.failure
        try:
            for inserts, deletes, edb_after in churn_batches(
                edb, seed=77, count=3
            ):
                result = view.maintain(inserts, deletes)
                assert result.status == "ok", result.failure
                assert view.fixpoint() == recompute_fixpoint(spec, edb_after)
        finally:
            view.release()

    def test_churn_identity_under_chaos(self):
        spec = get_program("SG")
        edb = {"arc": random_graph(13, 24, 60)}
        config = RecStepConfig(**RELATIONAL, fault_seed=1234, fault_rate=0.1)
        view = RecStep(config).materialize(spec, edb, dataset="chaos-churn")
        assert view.status == "ready", view.result.failure
        try:
            for inserts, deletes, edb_after in churn_batches(
                edb, seed=99, count=3
            ):
                result = view.maintain(inserts, deletes)
                assert result.status == "ok", result.failure
                assert view.fixpoint() == recompute_fixpoint(spec, edb_after)
        finally:
            view.release()

    def test_churn_identity_after_checkpoint_resume(self, tmp_path):
        spec = get_program("TC")
        edb = {"arc": path_arcs(30)}
        RecStep(
            RecStepConfig(
                **RELATIONAL,
                checkpoint_dir=str(tmp_path),
                checkpoint_every=1,
            )
        ).evaluate(spec, edb, dataset="ckpt")
        view = RecStep(
            RecStepConfig(**RELATIONAL, resume_from=str(tmp_path))
        ).materialize(spec, edb, dataset="ckpt")
        assert view.status == "ready", view.result.failure
        try:
            for inserts, deletes, edb_after in churn_batches(
                edb, seed=5, count=2
            ):
                result = view.maintain(inserts, deletes)
                assert result.status == "ok", result.failure
                assert view.fixpoint() == recompute_fixpoint(spec, edb_after)
        finally:
            view.release()


class TestMaintenanceGuard:
    """A batch answers to the divergence guard; its budgets start over at
    each batch, so a long-lived view never trips on its own history."""

    @staticmethod
    def _path_view():
        # TC over a 10-node path charges 9 iterations (0..8) to materialize.
        view = RecStep(RecStepConfig(**RELATIONAL, max_iterations=10)).materialize(
            get_program("TC"), {"arc": path_arcs(10)}, dataset="guard"
        )
        assert view.status == "ready", view.result.failure
        return view

    def test_batch_over_budget_trips_and_poisons(self):
        view = self._path_view()
        try:
            # Twelve more path edges: the closure crawls one hop per iteration.
            tail = np.array([[n, n + 1] for n in range(9, 21)], dtype=np.int64)
            result = view.maintain({"arc": tail}, None)
            assert result.status == "guard", result.failure
            assert result.failure["kind"] == "max_iterations"
            assert view.status == "poisoned"
        finally:
            view.release()

    def test_budget_is_per_batch(self):
        view = self._path_view()
        guard = view.database.resilience.guard
        try:
            charged = []
            for n in range(9, 21):  # one edge per batch, twelve batches
                result = view.maintain({"arc": np.array([[n, n + 1]])}, None)
                assert result.status == "ok", result.failure
                charged.append(guard.iterations)
                assert "soft_warnings" not in guard.summary()
            # Each batch is its iteration 0; together they exceed the budget.
            assert charged == [1] * 12
            assert sum(charged) > guard.max_iterations
            assert view.fixpoint() == recompute_fixpoint(
                get_program("TC"), {"arc": path_arcs(22)}
            )
        finally:
            view.release()



class TestOpeningDeadline:
    """A view's deadline bounds its opening only: a batch that runs after
    the view's clock has passed it is not cut short, whoever calls."""

    BATCH = {"arc": np.array([[0, 60], [60, 61], [61, 1]], dtype=np.int64)}

    @staticmethod
    def _deadline(arc) -> float:
        opened = RecStep(RecStepConfig(**RELATIONAL)).evaluate(get_program("TC"), {"arc": arc})
        return 1.05 * opened.sim_seconds

    def test_direct_maintain_ignores_opening_deadline(self):
        arc = random_graph(5, 60, 90)
        deadline = self._deadline(arc)
        view = RecStep(RecStepConfig(**RELATIONAL, deadline=deadline)).materialize(
            get_program("TC"), {"arc": arc}, dataset="deadline"
        )
        try:
            assert view.status == "ready", view.result.failure
            result = view.maintain(self.BATCH, None)
            assert view.database.sim_seconds > deadline
            assert result.status == "ok", result.failure
            assert view.status == "ready"
            assert view.fixpoint() == recompute_fixpoint(
                get_program("TC"), {"arc": np.vstack([arc, self.BATCH["arc"]])}
            )
        finally:
            view.release()

    def test_service_update_ignores_opening_deadline(self):
        arc = random_graph(5, 60, 90)
        deadline = self._deadline(arc)
        service = QueryService(
            ServerConfig(max_concurrent=1, queue_limit=4),
            engine_config=RecStepConfig(**RELATIONAL),
        )
        opened = service.submit(
            QueryRequest(
                program=get_program("TC"),
                edb_data={"arc": arc},
                deadline=deadline,
                materialize=True,
            )
        )
        service.pump()
        service.flush()
        view_id = opened["session_id"]
        assert service.status(view_id)["state"] == "done"
        update = service.submit(
            QueryRequest(
                program=get_program("TC"),
                edb_data={},
                kind="update",
                target_session=view_id,
                inserts=self.BATCH,
            )
        )
        service.pump()
        service.flush()
        view = service._views[view_id]
        assert view.database.sim_seconds > deadline
        doc = service.status(update["session_id"])
        assert doc["state"] == "done", doc.get("failure")
        assert view.status == "ready"


class TestJoinCacheInPlaceRewrite:
    """Satellite: the cache must catch epoch-preserving rewrites."""

    def test_same_size_in_place_rewrite_is_stale(self):
        db = Database(enforce_budgets=False, profile=True)
        db.load_table(
            "r", ("x", "y"), np.arange(100, dtype=np.int64).reshape(-1, 2)
        )
        ctx = db._context()
        entry, first = db.join_cache.acquire(ctx, "r", ("x",))
        assert first == "miss"
        # Simulate a legacy in-place rewrite: same row count, contents
        # swapped under the cache's feet, epoch NOT bumped (the class of
        # bug the fix closes — every modern path bumps the epoch, the
        # synced_version backstop catches anything that slips through).
        table = db.catalog.get_table("r")
        buffer = table._rows[: table.num_rows]
        buffer[:] = buffer[::-1] + 1
        table.version += 1
        assert table.epoch == entry.epoch
        assert db.join_cache.extension_estimate(db.catalog, "r", ("x",)) == 50
        entry2, event = db.join_cache.acquire(ctx, "r", ("x",))
        assert event == "rebuild"
        assert entry2.synced_version == table.version
        _, third = db.join_cache.acquire(ctx, "r", ("x",))
        assert third == "hit"

    def test_delete_rows_bumps_epoch_and_evicts(self):
        db = Database(enforce_budgets=False, profile=True)
        db.load_table(
            "r", ("x", "y"), np.arange(40, dtype=np.int64).reshape(-1, 2)
        )
        ctx = db._context()
        db.join_cache.acquire(ctx, "r", ("x",))
        epoch_before = db.catalog.get_table("r").epoch
        removed = db.delete_rows("r", np.array([[0, 1], [2, 3]], dtype=np.int64))
        assert len(removed) == 2
        assert db.catalog.get_table("r").epoch == epoch_before + 1
        # The rewrite evicted the index eagerly; the next acquire
        # rebuilds from scratch.
        assert len(db.join_cache) == 0
        _, event = db.join_cache.acquire(ctx, "r", ("x",))
        assert event == "miss"


class TestQueuedCancelReleasesReservation:
    """Satellite: a cancelled queued session must stop pricing memory."""

    def _request(self, quota: int) -> QueryRequest:
        return QueryRequest(
            program=get_program("TC"),
            edb_data={"arc": path_arcs(6)},
            memory_quota=quota,
        )

    def test_submit_cancel_submit_at_watermark(self):
        service = QueryService(
            ServerConfig(
                max_concurrent=1,
                queue_limit=4,
                memory_budget=100_000_000,
            )
        )
        quota = int(100_000_000 * CRITICAL_WATERMARK)  # exactly the watermark
        first = service.submit(self._request(quota))
        assert first["accepted"]
        assert service.admission.pending_bytes == quota
        bounced = service.submit(self._request(quota))
        assert not bounced["accepted"]
        assert bounced["reason"] == "memory-pressure"
        cancelled = service.cancel(first["session_id"])
        assert cancelled["state"] == "shed"
        assert service.admission.pending_bytes == 0
        retry = service.submit(self._request(quota))
        assert retry["accepted"], retry
        service.pump()
        service.flush()
        assert service.status(retry["session_id"])["state"] == "done"
        assert service.admission.reserved_bytes == 0
        assert service.admission.pending_bytes == 0

    def test_pending_moves_to_reserved_on_admit(self):
        service = QueryService(
            ServerConfig(max_concurrent=1, queue_limit=4)
        )
        quota = 8_000_000
        ack = service.submit(self._request(quota))
        assert service.admission.pending_bytes == quota
        service.pump()
        service.flush()
        # Admitted: the quota moved pending -> reserved exactly once,
        # and was fully released at finish.
        assert service.admission.pending_bytes == 0
        assert service.admission.reserved_bytes == 0
        assert service.status(ack["session_id"])["state"] == "done"


class TestCheckpointStaleness:
    """Satellite: snapshots of a mutated EDB must not resume."""

    @staticmethod
    def _state(fingerprint: str, iteration: int) -> CheckpointState:
        return CheckpointState(
            program="TC",
            stratum=0,
            iteration=iteration,
            tables={"full:tc": np.arange(4, dtype=np.int64).reshape(-1, 2)},
            edb_fingerprint=fingerprint,
        )

    def test_fingerprint_is_order_insensitive_content_sensitive(self):
        rows = np.array([[1, 2], [3, 4]], dtype=np.int64)
        shuffled = rows[::-1].copy()
        assert edb_fingerprint({"arc": rows}) == edb_fingerprint(
            {"arc": shuffled}
        )
        changed = np.array([[1, 2], [3, 5]], dtype=np.int64)
        assert edb_fingerprint({"arc": rows}) != edb_fingerprint(
            {"arc": changed}
        )

    def test_load_skips_stale_snapshot(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=1, keep=10)
        manager.save(self._state("aaaa0000", iteration=5))
        manager.save(self._state("bbbb1111", iteration=3))
        counters = CounterRegistry()
        loaded = CheckpointManager.load(
            tmp_path, counters=counters, expected_edb="bbbb1111"
        )
        assert loaded.iteration == 3
        assert counters.get("checkpoint_stale_skipped") == 1

    def test_single_file_stale_raises(self, tmp_path):
        path = CheckpointManager(tmp_path, every=1).save(
            self._state("aaaa0000", iteration=2)
        )
        with pytest.raises(StaleCheckpointError):
            CheckpointManager.load(path, expected_edb="ffff9999")

    def test_resume_after_edb_mutation_refuses_stale_fixpoint(self, tmp_path):
        spec = get_program("TC")
        edb = {"arc": path_arcs(20)}
        RecStep(
            RecStepConfig(
                **RELATIONAL,
                checkpoint_dir=str(tmp_path),
                checkpoint_every=1,
            )
        ).evaluate(spec, edb, dataset="ckpt")
        # Same EDB resumes fine.
        resumed = RecStep(
            RecStepConfig(**RELATIONAL, resume_from=str(tmp_path))
        ).evaluate(spec, edb, dataset="ckpt")
        assert resumed.status == "ok"
        # Mutated EDB: every snapshot is stale; resuming must refuse
        # rather than silently serve the pre-mutation fixpoint.
        mutated = {"arc": np.vstack([edb["arc"], [[19, 20]]]).astype(np.int64)}
        with pytest.raises(CheckpointError, match="corrupt or stale"):
            RecStep(
                RecStepConfig(**RELATIONAL, resume_from=str(tmp_path))
            ).evaluate(spec, mutated, dataset="ckpt")


class TestServedUpdates:
    """kind="update" sessions against a materialized service session."""

    def _tc_view(self, service: QueryService, n: int = 40) -> str:
        ack = service.submit(
            QueryRequest(
                program=get_program("TC"),
                edb_data={"arc": path_arcs(n)},
                dataset="served",
                materialize=True,
            )
        )
        assert ack["accepted"], ack
        return ack["session_id"]

    def test_update_maintains_and_prices_by_delta(self):
        service = QueryService(ServerConfig(max_concurrent=2, queue_limit=6))
        view_id = self._tc_view(service)
        service.pump()
        service.flush()
        assert view_id in service._views
        ack = service.submit(
            QueryRequest(
                program=get_program("TC"),
                edb_data={},
                dataset="served",
                kind="update",
                target_session=view_id,
                inserts={"arc": np.array([[39, 40]], dtype=np.int64)},
            )
        )
        assert ack["accepted"], ack
        service.pump()
        service.flush()
        update = service.sessions.get(ack["session_id"])
        assert update.state.value == "done"
        assert update.result.status == "ok"
        assert update.result.idb_deltas["tc"]["inserted"] == 40
        spec = get_program("TC")
        expected = recompute_fixpoint(
            spec, {"arc": np.vstack([path_arcs(40), [[39, 40]]])}
        )
        assert service._views[view_id].fixpoint() == expected
        snapshot = service.metrics_snapshot()
        assert "update.latency.all" in snapshot["histograms"]
        assert snapshot["counters"]["server.updates_applied"] == 1
        assert snapshot["counters"]["server.views_materialized"] == 1

    def test_update_against_unknown_view_bounces(self):
        service = QueryService(ServerConfig())
        bounced = service.submit(
            QueryRequest(
                program=get_program("TC"),
                edb_data={},
                kind="update",
                target_session="q-99999",
                inserts={"arc": np.array([[1, 2]], dtype=np.int64)},
            )
        )
        assert not bounced["accepted"]
        assert bounced["reason"] == "no-such-view"
        assert service.counters.get("server.rejected_no_view") == 1

    def test_update_can_target_queued_materialize(self):
        """An update submitted right behind its materialize request runs
        head-of-line after the view is built."""
        service = QueryService(ServerConfig(max_concurrent=2, queue_limit=6))
        view_id = self._tc_view(service, n=20)
        ack = service.submit(
            QueryRequest(
                program=get_program("TC"),
                edb_data={},
                kind="update",
                target_session=view_id,
                inserts={"arc": np.array([[19, 20]], dtype=np.int64)},
            )
        )
        assert ack["accepted"], ack
        service.pump()
        service.flush()
        update = service.sessions.get(ack["session_id"])
        assert update.result.status == "ok"
        view_session = service.sessions.get(view_id)
        # Head-of-line: maintenance starts only once the view is ready.
        assert update.finished_at >= view_session.finished_at

    def test_release_view_frees_reservation_and_drain_releases_all(self):
        service = QueryService(ServerConfig(max_concurrent=2, queue_limit=6))
        view_id = self._tc_view(service)
        service.pump()
        service.flush()
        assert service.admission.reserved_bytes > 0
        service.release_view(view_id)
        assert service.admission.reserved_bytes == 0
        assert service.counters.get("server.views_released") == 1
        # A released view no longer accepts updates.
        bounced = service.submit(
            QueryRequest(
                program=get_program("TC"),
                edb_data={},
                kind="update",
                target_session=view_id,
                inserts={"arc": np.array([[1, 2]], dtype=np.int64)},
            )
        )
        assert not bounced["accepted"]
        assert bounced["reason"] == "no-such-view"
        # Drain releases whatever views remain.
        other = self._tc_view(service, n=10)
        service.pump()
        report = service.drain()
        assert report["drained"]
        assert not service._views
        assert service.admission.reserved_bytes == 0

    def test_oversized_delta_bounces_with_backpressure(self):
        service = QueryService(
            ServerConfig(max_concurrent=1, queue_limit=4)
        )
        ack = service.submit(
            QueryRequest(
                program=get_program("TC"),
                edb_data={"arc": path_arcs(10)},
                materialize=True,
                memory_quota=2_000_000,
            )
        )
        assert ack["accepted"]
        service.pump()
        service.flush()
        huge = np.zeros((100_000, 2), dtype=np.int64)
        bounced = service.submit(
            QueryRequest(
                program=get_program("TC"),
                edb_data={},
                kind="update",
                target_session=ack["session_id"],
                inserts={"arc": huge},
            )
        )
        assert not bounced["accepted"]
        assert bounced["reason"] == "memory-pressure"
        assert bounced["view_reserved_bytes"] == 2_000_000
