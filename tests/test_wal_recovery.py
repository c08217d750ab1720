"""Durable materialized views: write-ahead log + crash recovery.

The durability acceptance set:

* the WAL round-trips batches byte-exactly and assigns monotonic
  seqnos; a torn tail — at *any* byte offset — truncates back to the
  last whole record on open, never reads past it;
* for every crash point (each record boundary, mid-record, a crash
  between compaction's two steps, a crash during recovery itself),
  recovered views are tuple-identical to a from-scratch recompute of
  the acknowledged-prefix EDB — under chaos and without;
* an acknowledged ``batch_id`` is exactly-once: re-submission after
  recovery (or while live) re-acks without re-applying;
* unrecoverable views quarantine with structured errors while healthy
  siblings recover; capacity failures leave the directory for later;
* a WAL append failure fails the *update* with the view untouched —
  write-ahead in the literal sense.
"""

from __future__ import annotations

import shutil
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.common.errors import FaultRetriesExhausted
from repro.core import PbmeMode, RecStep, RecStepConfig
from repro.programs import get_program
from repro.resilience import wal as wal_module
from repro.resilience.faults import FaultInjector
from repro.resilience.wal import (
    WAL_NAME,
    ViewDurability,
    WalError,
    WriteAheadLog,
)
from repro.obs.counters import CounterRegistry
from repro.server import QueryRequest, QueryService, ServerConfig
from repro.server.session import SessionState

RELATIONAL = dict(pbme=PbmeMode.OFF)
CHAOS_SEED = 20260808

TC = get_program("TC")


def path_arcs(n: int) -> np.ndarray:
    return np.array([[i, i + 1] for i in range(n)], dtype=np.int64)


def _service(wal_root, *, chaos: int | None = None, **overrides) -> QueryService:
    config = dict(max_concurrent=2, queue_limit=16, wal_root=str(wal_root))
    config.update(overrides)
    engine = dict(RELATIONAL)
    if chaos is not None:
        engine["fault_seed"] = chaos
    return QueryService(
        ServerConfig(**config), engine_config=RecStepConfig(**engine)
    )


def _materialize(service: QueryService, edb: np.ndarray) -> str:
    response = service.submit(
        QueryRequest(program=TC, edb_data={"arc": edb}, materialize=True)
    )
    assert response["accepted"], response
    service.pump()
    service.flush()
    return response["session_id"]


def _update(service, view_id, inserts=None, deletes=None, batch_id=None):
    ack = service.submit(
        QueryRequest(
            program=TC,
            edb_data={},
            kind="update",
            target_session=view_id,
            inserts=inserts,
            deletes=deletes,
            batch_id=batch_id,
        )
    )
    assert ack["accepted"], ack
    service.pump()
    service.flush()
    return service.sessions.get(ack["session_id"])


def _boundaries(wal_path: Path) -> list[int]:
    """Byte offsets of every whole-record boundary (prologue included)."""
    data = wal_path.read_bytes()
    offset = 8  # 4-byte magic + 4-byte version
    offsets = [offset]
    while offset + 8 <= len(data):
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 8 + length
        offsets.append(offset)
    return offsets


def _edb_after(base: np.ndarray, batches, count: int) -> np.ndarray:
    """The EDB after applying the first ``count`` acknowledged batches."""
    rows = {tuple(int(v) for v in row) for row in base}
    for inserts, deletes in batches[:count]:
        for arr in (inserts or {}).values():
            rows |= {tuple(int(v) for v in r) for r in np.asarray(arr)}
        for arr in (deletes or {}).values():
            rows -= {tuple(int(v) for v in r) for r in np.asarray(arr)}
    return np.array(sorted(rows), dtype=np.int64).reshape(-1, 2)


def _reference_fixpoint(edb: np.ndarray) -> dict:
    result = RecStep(RecStepConfig(**RELATIONAL)).evaluate(TC, {"arc": edb})
    assert result.status == "ok"
    return dict(result.tuples)


# ---------------------------------------------------------------------------
# WAL unit behavior
# ---------------------------------------------------------------------------


class TestWriteAheadLog:
    def test_create_append_reopen_roundtrip(self, tmp_path):
        path = tmp_path / WAL_NAME
        wal = WriteAheadLog.create(path, program="TC")
        s1 = wal.append({"arc": np.array([[1, 2]])}, None, batch_id="a")
        s2 = wal.append(None, {"arc": np.array([[3, 4]])}, batch_id="b")
        assert (s1, s2) == (1, 2)
        reopened = WriteAheadLog.open(path)
        assert reopened.program == "TC"
        assert reopened.next_seqno == 3
        assert reopened.applied_batch_ids == {"a", "b"}
        assert [r.seqno for r in reopened.records] == [1, 2]
        np.testing.assert_array_equal(
            reopened.records[0].inserts["arc"], [[1, 2]]
        )
        np.testing.assert_array_equal(
            reopened.records[1].deletes["arc"], [[3, 4]]
        )

    def test_torn_tail_truncated_at_every_byte_offset(self, tmp_path):
        path = tmp_path / WAL_NAME
        wal = WriteAheadLog.create(path, program="TC")
        for i in range(3):
            wal.append({"arc": np.array([[i, i + 1]])}, None, batch_id=f"b{i}")
        boundaries = _boundaries(path)
        total = path.read_bytes()
        assert boundaries[-1] == len(total)
        for cut in range(boundaries[0], len(total) + 1):
            torn = tmp_path / "torn.log"
            torn.write_bytes(total[:cut])
            counters = CounterRegistry()
            if cut < boundaries[1]:
                # Not even the header survived: beyond repair by design.
                with pytest.raises(WalError):
                    WriteAheadLog.open(torn, counters=counters)
                continue
            reopened = WriteAheadLog.open(torn, counters=counters)
            # The longest whole-record prefix survives, nothing more.
            expect = sum(1 for b in boundaries[2:] if b <= cut)
            assert [r.seqno for r in reopened.records] == list(
                range(1, expect + 1)
            )
            if cut not in boundaries:
                assert counters.get("wal.torn_truncated") == 1
                # The truncation is durable: a second open is clean.
                clean = CounterRegistry()
                WriteAheadLog.open(torn, counters=clean)
                assert clean.get("wal.torn_truncated") == 0

    def test_unreadable_header_raises(self, tmp_path):
        empty = tmp_path / "empty.log"
        empty.write_bytes(b"")
        with pytest.raises(WalError):
            WriteAheadLog.open(empty)
        foreign = tmp_path / "foreign.log"
        foreign.write_bytes(b"NOPE\x01\x00\x00\x00" + b"\x00" * 32)
        with pytest.raises(WalError):
            WriteAheadLog.open(foreign)
        with pytest.raises(WalError):
            WriteAheadLog.open(tmp_path / "missing.log")

    def test_compact_truncates_and_survives_reopen(self, tmp_path):
        path = tmp_path / WAL_NAME
        wal = WriteAheadLog.create(path, program="TC")
        for i in range(4):
            wal.append({"arc": np.array([[i, i + 1]])}, None, batch_id=f"b{i}")
        wal.compact(4, wal.applied_batch_ids)
        assert wal.record_count == 0
        assert wal.base_seqno == 4
        reopened = WriteAheadLog.open(path)
        assert reopened.base_seqno == 4
        assert reopened.next_seqno == 5  # seqnos stay monotonic across compaction
        assert reopened.applied_batch_ids == {"b0", "b1", "b2", "b3"}

    def test_injected_torn_appends_repair_and_retry(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal_module, "MAX_ATTEMPTS", 50)
        path = tmp_path / WAL_NAME
        counters = CounterRegistry()
        injector = FaultInjector(7, rate=0.45)
        wal = WriteAheadLog.create(
            path,
            program="TC",
            counters=counters,
            injector=injector,
        )
        for i in range(30):
            wal.append({"arc": np.array([[i, i + 1]])}, None)
        assert injector.injected.get("wal_torn", 0) > 0
        assert counters.get("wal.torn_repaired") == injector.injected["wal_torn"]
        # Every repair left the file at a record boundary: reopen is clean.
        clean = CounterRegistry()
        reopened = WriteAheadLog.open(path, counters=clean)
        assert clean.get("wal.torn_truncated") == 0
        assert len(reopened.records) == 30


# ---------------------------------------------------------------------------
# Crash-recovery identity matrix
# ---------------------------------------------------------------------------


BATCHES = [
    ({"arc": np.array([[0, 5], [20, 21]])}, None),
    (None, {"arc": np.array([[2, 3]])}),
    ({"arc": np.array([[21, 22], [22, 0]])}, None),
    ({"arc": np.array([[2, 3]])}, {"arc": np.array([[20, 21]])}),
]


@pytest.mark.parametrize("chaos", [None, CHAOS_SEED], ids=["clean", "chaos"])
def test_crash_recovery_identity_matrix(tmp_path, chaos):
    """Kill-the-writer at every record boundary and mid-record: the
    recovered view must equal a from-scratch recompute of exactly the
    acknowledged-prefix EDB — no acknowledged batch lost, none doubled."""
    root = tmp_path / "wal"
    base_edb = path_arcs(6)
    service = _service(root, chaos=chaos, wal_compact_records=10_000)
    view_id = _materialize(service, base_edb)
    for index, (inserts, deletes) in enumerate(BATCHES):
        session = _update(
            service, view_id, inserts, deletes, batch_id=f"b{index}"
        )
        assert session.result is not None and session.result.status == "ok", (
            session.failure
        )
    service.drain()

    wal_path = root / view_id / WAL_NAME
    boundaries = _boundaries(wal_path)
    assert len(boundaries) == 2 + len(BATCHES)  # header + one per batch
    wal_bytes = wal_path.read_bytes()

    # Crash points: every record boundary, plus a torn write inside
    # every record (header included).
    crash_points = [(cut, True) for cut in boundaries]
    crash_points += [
        ((boundaries[i] + boundaries[i + 1]) // 2, False)
        for i in range(len(boundaries) - 1)
    ]
    for cut, at_boundary in crash_points:
        crash_root = tmp_path / f"crash-{cut}"
        shutil.copytree(root, crash_root)
        crashed_wal = crash_root / view_id / WAL_NAME
        crashed_wal.write_bytes(wal_bytes[:cut])
        # Acknowledged prefix: whole batch records below the cut. (A cut
        # below the header makes the log unrecoverable — covered below.)
        acknowledged = sum(1 for b in boundaries[2:] if b <= cut)

        recovered = _service(crash_root, chaos=chaos)
        report = recovered.recover()
        if cut < boundaries[1]:
            # Not even the header survived: quarantine, not a guess.
            assert report["recovered"] == {}
            assert any(
                doc["kind"] == "view-unrecoverable"
                for doc in report["failed"].values()
            )
            continue
        assert list(report["recovered"]) == [view_id], report
        doc = report["recovered"][view_id]
        assert doc["records_replayed"] == acknowledged
        new_id = doc["session_id"]
        expected = _reference_fixpoint(
            _edb_after(base_edb, BATCHES, acknowledged)
        )
        assert recovered._views[new_id].fixpoint() == expected
        recovered.drain()


@pytest.mark.parametrize("chaos", [None, CHAOS_SEED], ids=["clean", "chaos"])
def test_compaction_crash_window(tmp_path, chaos):
    """A crash between compaction's two steps — new base durably
    replaced, log not yet truncated — must replay-skip the folded
    records by seqno and still land on the identical fixpoint."""
    root = tmp_path / "wal"
    base_edb = path_arcs(6)
    service = _service(root, chaos=chaos, wal_compact_records=10_000)
    view_id = _materialize(service, base_edb)
    for index, (inserts, deletes) in enumerate(BATCHES):
        session = _update(service, view_id, inserts, deletes, batch_id=f"b{index}")
        assert session.result.status == "ok", session.failure
    # First compaction step only: roll the base, leave the log whole.
    durability = service._durability[view_id]
    view = service._views[view_id]
    durability.checkpoints.save(
        view.snapshot_state(wal_seqno=durability.last_applied_seqno)
    )
    live = view.fixpoint()
    service.drain()

    recovered = _service(root, chaos=chaos)
    report = recovered.recover()
    assert list(report["recovered"]) == [view_id]
    doc = report["recovered"][view_id]
    # Every logged record was already folded into the crashed base.
    assert doc["records_skipped"] == len(BATCHES)
    assert doc["records_replayed"] == 0
    assert recovered.counters.get("recovery.batches_skipped") == len(BATCHES)
    assert recovered._views[doc["session_id"]].fixpoint() == live
    assert live == _reference_fixpoint(
        _edb_after(base_edb, BATCHES, len(BATCHES))
    )


def test_crash_during_recovery_is_recoverable(tmp_path):
    """Recovery mutates nothing but torn tails: a process that dies
    mid-recovery leaves state a second recovery rebuilds identically."""
    root = tmp_path / "wal"
    service = _service(root)
    view_id = _materialize(service, path_arcs(6))
    for index, (inserts, deletes) in enumerate(BATCHES):
        _update(service, view_id, inserts, deletes, batch_id=f"b{index}")
    live = service._views[view_id].fixpoint()
    service.drain()

    # First recovery "crashes" after finishing (its process just dies —
    # nothing was drained, nothing persisted back).
    first = _service(root)
    assert list(first.recover()["recovered"]) == [view_id]
    # Second recovery over the same directory: same answer.
    second = _service(root)
    report = second.recover()
    assert list(report["recovered"]) == [view_id]
    assert (
        second._views[report["recovered"][view_id]["session_id"]].fixpoint()
        == live
    )


# ---------------------------------------------------------------------------
# Exactly-once: duplicate batch ids
# ---------------------------------------------------------------------------


def test_duplicate_batch_id_is_noop_live_and_after_recovery(tmp_path):
    root = tmp_path / "wal"
    service = _service(root)
    view_id = _materialize(service, path_arcs(5))
    first = _update(
        service, view_id, inserts={"arc": np.array([[0, 4]])}, batch_id="dup"
    )
    assert first.result.status == "ok"
    after_first = service._views[view_id].fixpoint()

    # Live re-submission: acked, nothing re-applied, nothing re-logged.
    again = _update(
        service, view_id, inserts={"arc": np.array([[0, 4]])}, batch_id="dup"
    )
    assert again.result.status == "ok"
    assert again.result.delta_rows == 0
    assert service._views[view_id].fixpoint() == after_first
    assert service.counters.get("wal.duplicate_batches") == 1
    assert service._durability[view_id].wal.record_count == 1
    service.drain()

    # Post-recovery re-submission: the applied set survived the crash.
    recovered = _service(root)
    report = recovered.recover()
    new_id = report["recovered"][view_id]["session_id"]
    replayed = _update(
        recovered, new_id, inserts={"arc": np.array([[0, 4]])}, batch_id="dup"
    )
    assert replayed.result.status == "ok"
    assert replayed.result.delta_rows == 0
    assert recovered.counters.get("wal.duplicate_batches") == 1
    assert recovered._views[new_id].fixpoint() == after_first


# ---------------------------------------------------------------------------
# Quarantine and degraded paths
# ---------------------------------------------------------------------------


def test_corrupt_sibling_quarantines_healthy_view_recovers(tmp_path):
    root = tmp_path / "wal"
    service = _service(root)
    healthy_id = _materialize(service, path_arcs(5))
    broken_id = _materialize(service, path_arcs(7))
    _update(service, healthy_id, inserts={"arc": np.array([[0, 3]])})
    healthy_fixpoint = service._views[healthy_id].fixpoint()
    service.drain()

    for checkpoint in (root / broken_id / "base").glob("*.npz"):
        checkpoint.write_bytes(b"\x00garbage\x00")

    recovered = _service(root)
    report = recovered.recover()
    assert list(report["recovered"]) == [healthy_id]
    failed = report["failed"][broken_id]
    assert failed["error"] == "ViewUnrecoverable"
    assert failed["kind"] == "view-unrecoverable"
    assert failed["reason"] == "base-unreadable"
    assert recovered.counters.get("recovery.views_quarantined") == 1
    # The corrupt directory moved aside; a re-run does not retry it.
    assert not (root / broken_id).exists()
    assert (root / f"{broken_id}.quarantine").exists()
    new_id = report["recovered"][healthy_id]["session_id"]
    assert recovered._views[new_id].fixpoint() == healthy_fixpoint


def test_capacity_failure_leaves_directory_for_later(tmp_path):
    root = tmp_path / "wal"
    service = _service(root)
    view_id = _materialize(service, path_arcs(5))
    service.drain()
    # A service too small for the view's manifest reservation: the
    # recovery fails softly — no rename, recoverable later.
    tiny = _service(root, memory_budget=1 << 20)
    report = tiny.recover()
    assert report["recovered"] == {}
    assert report["failed"][view_id]["kind"] == "memory-pressure"
    assert (root / view_id).exists()
    assert tiny.counters.get("recovery.views_quarantined") == 0
    # The same directory recovers on a roomier service.
    roomy = _service(root)
    assert list(roomy.recover()["recovered"]) == [view_id]


def test_wal_append_failure_fails_update_view_keeps_serving(tmp_path):
    root = tmp_path / "wal"
    service = _service(root)
    view_id = _materialize(service, path_arcs(5))
    before = service._views[view_id].fixpoint()

    durability = service._durability[view_id]

    def always_fails(inserts, deletes, batch_id=None):
        raise FaultRetriesExhausted(
            "disk says no", site="wal_append", attempts=4
        )

    original = durability.wal.append
    durability.wal.append = always_fails
    failed = _update(service, view_id, inserts={"arc": np.array([[0, 3]])})
    assert failed.state is SessionState.FAILED
    assert failed.failure["kind"] == "wal-append"
    # Write-ahead literally: nothing was applied, the view still serves.
    assert service._views[view_id].fixpoint() == before
    assert service._views[view_id].status == "ready"
    durability.wal.append = original
    retried = _update(service, view_id, inserts={"arc": np.array([[0, 3]])})
    assert retried.result.status == "ok"


def test_bad_batch_rejected_before_logging(tmp_path):
    root = tmp_path / "wal"
    service = _service(root)
    view_id = _materialize(service, path_arcs(5))
    bad = _update(service, view_id, inserts={"nope": np.array([[1, 2]])})
    assert bad.failure["kind"] == "bad-batch"
    ragged = _update(service, view_id, inserts={"arc": np.array([1, 2, 3])})
    assert ragged.failure["kind"] == "bad-batch"
    assert service._durability[view_id].wal.record_count == 0
    assert service._views[view_id].status == "ready"


def test_release_view_keeps_durable_state(tmp_path):
    root = tmp_path / "wal"
    service = _service(root)
    view_id = _materialize(service, path_arcs(5))
    _update(service, view_id, inserts={"arc": np.array([[0, 3]])}, batch_id="x")
    live = service._views[view_id].fixpoint()
    service.release_view(view_id)
    assert view_id not in service._durability
    # Releasing freed memory, not history: the disk state still recovers.
    recovered = _service(root)
    report = recovered.recover()
    new_id = report["recovered"][view_id]["session_id"]
    assert recovered._views[new_id].fixpoint() == live


def test_metrics_snapshot_wal_section(tmp_path):
    root = tmp_path / "wal"
    service = _service(root)
    view_id = _materialize(service, path_arcs(5))
    _update(service, view_id, inserts={"arc": np.array([[0, 3]])})
    snapshot = service.metrics_snapshot()
    assert snapshot["wal"]["durable_views"] == 1
    assert snapshot["wal"]["records"] == 1
    assert snapshot["wal"]["last_seqno"] == 1
    assert snapshot["wal"]["bytes"] > 0
    session = service.sessions.all()[-1]
    assert session.to_dict()["wal_seqno"] == 1


def test_recovered_session_marked_in_report(tmp_path):
    root = tmp_path / "wal"
    service = _service(root)
    view_id = _materialize(service, path_arcs(5))
    service.drain()
    recovered = _service(root)
    report = recovered.recover()
    new_id = report["recovered"][view_id]["session_id"]
    doc = recovered.sessions.get(new_id).to_dict()
    assert doc["recovered"] is True
    assert doc["state"] == "done"
    # Recovery latency landed in its histogram family.
    histogram = recovered.histograms.snapshot().get("recovery.latency.all")
    assert histogram is not None and histogram["count"] == 1


# ---------------------------------------------------------------------------
# CLI round-trip: --wal-root / --serve-recover
# ---------------------------------------------------------------------------


def test_cli_wal_roundtrip(tmp_path):
    from repro.cli import run_datalog_file
    from repro.datasets.io import save_relation

    save_relation(tmp_path / "arc.tsv", path_arcs(6))
    (tmp_path / "tc.datalog").write_text(
        ".input arc arc.tsv\n"
        ".output tc tc_out.tsv\n"
        "tc(x, y) :- arc(x, y).\n"
        "tc(x, y) :- tc(x, z), arc(z, y).\n"
    )
    (tmp_path / "updates.jsonl").write_text(
        '{"inserts": {"arc": [[0, 5]]}, "batch_id": "u1"}\n'
        '{"deletes": {"arc": [[2, 3]]}, "batch_id": "u2"}\n'
    )
    wal_root = tmp_path / "wal"
    churned = run_datalog_file(
        tmp_path / "tc.datalog",
        serve_updates=str(tmp_path / "updates.jsonl"),
        wal_root=str(wal_root),
    )
    assert churned.status == "ok"
    first_output = (tmp_path / "tc_out.tsv").read_text()

    recovered = run_datalog_file(
        tmp_path / "tc.datalog",
        wal_root=str(wal_root),
        serve_recover=True,
    )
    assert recovered.status == "ok"
    assert recovered.tuples == churned.tuples
    assert (tmp_path / "tc_out.tsv").read_text() == first_output

    # And both equal a plain evaluation of the churned EDB.
    reference = _reference_fixpoint(
        _edb_after(
            path_arcs(6),
            [
                ({"arc": np.array([[0, 5]])}, None),
                (None, {"arc": np.array([[2, 3]])}),
            ],
            2,
        )
    )
    assert recovered.tuples == reference
