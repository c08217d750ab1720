"""Write-ahead logging for durable materialized views.

A materialized fixpoint is warm state: rebuilding it from the EDB is
always *possible*, but the serving tier's whole point is that it never
has to. This module makes the warm state survive the process. Each
durable view owns a directory::

    <wal_root>/<session-id>/
        view.json        # manifest: program source + admission quota
        base/            # CheckpointManager base snapshots (fulls + EDB)
        wal.log          # append-only update log (this module)

``wal.log`` is an append-only, CRC-framed, length-prefixed log of
update batches. Layout: a fixed prologue (``RWAL`` magic + format
version), then framed records — ``<u32 payload length><u32 CRC32 over
the payload><JSON payload>``. Record zero is always a *header* carrying
the compaction watermark (``base_seqno``: every record at or below it
is already folded into the base checkpoint) and the set of applied
client ``batch_id``s; subsequent records are *batch* records with a
monotonic ``seqno``, the optional client ``batch_id``, and the raw
insert/delete rows.

Durability discipline matches the spill/checkpoint tiers exactly:

* the log is **created** and **compacted** via tmp + fsync +
  ``os.replace`` (no window with a torn file under the live name);
* every **append** is write + flush + fsync of one complete frame;
* on **open**, a torn tail — a partial frame, a CRC mismatch, an
  undecodable payload — is truncated back to the last whole-record
  boundary (``wal.torn_truncated``), never read past;
* a header that cannot be read at all is unrecoverable and raises
  :class:`WalError` — the caller quarantines the view rather than
  guessing.

Appends run under the deterministic fault harness: ``wal_append`` and
``wal_fsync`` are transient entry faults (raised before any byte is
written, so a retry re-runs cleanly); ``wal_torn`` actually writes a
partial frame and fsyncs it before failing — the simulated
crash-mid-append — after which the log repairs itself by truncating
back to the last durable boundary (``wal.torn_repaired``), exactly the
operation recovery would perform.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.common.atomic import publish
from repro.common.errors import (
    FaultRetriesExhausted,
    RecStepError,
    TransientFaultError,
    TransientStorageError,
)
from repro.obs.counters import NULL_COUNTERS
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.retry import MAX_ATTEMPTS

WAL_MAGIC = b"RWAL"
WAL_VERSION = 1

_PROLOGUE = struct.Struct("<4sI")  # magic, format version
_FRAME = struct.Struct("<II")  # payload length, CRC32 over the payload

#: Sanity cap on one record's payload: a corrupt length field must not
#: make the reader attempt a multi-gigabyte allocation.
MAX_RECORD_BYTES = 64 << 20

#: Log size past which a view with applied records rolls a fresh base
#: checkpoint, however few records the log holds.
COMPACT_BYTES = 1 << 20

#: File names inside one durable view's directory.
MANIFEST_NAME = "view.json"
BASE_DIR_NAME = "base"
WAL_NAME = "wal.log"


class WalError(RecStepError):
    """A write-ahead log is missing or unreadable beyond repair."""


@dataclass
class WalRecord:
    """One durably logged update batch."""

    seqno: int
    batch_id: str | None
    inserts: dict[str, np.ndarray] = field(default_factory=dict)
    deletes: dict[str, np.ndarray] = field(default_factory=dict)


def _rows_to_jsonable(batch: dict | None) -> dict:
    out: dict = {}
    for name, rows in (batch or {}).items():
        out[name] = np.asarray(rows, dtype=np.int64).tolist()
    return out


def _rows_from_jsonable(batch: dict) -> dict[str, np.ndarray]:
    return {
        name: np.asarray(rows, dtype=np.int64)
        for name, rows in (batch or {}).items()
    }


class WriteAheadLog:
    """One view's append-only update log.

    Construct via :meth:`create` (a fresh log, atomically published) or
    :meth:`open` (an existing log, torn tail truncated). Not a public
    entry point on its own — :class:`ViewDurability` owns the lifecycle.
    """

    def __init__(
        self,
        path: Path,
        *,
        program: str,
        base_seqno: int,
        applied_batch_ids: set[str],
        records: list[WalRecord],
        size_bytes: int,
        counters=NULL_COUNTERS,
        injector=None,
    ) -> None:
        self.path = Path(path)
        self.program = program
        #: Every record with ``seqno <= base_seqno`` is folded into the
        #: base checkpoint; replay starts strictly above it.
        self.base_seqno = base_seqno
        #: Client batch ids acknowledged by this log (header set plus
        #: every batch record still in the log) — the idempotence filter.
        self.applied_batch_ids = set(applied_batch_ids)
        self.records = list(records)
        self._size = size_bytes
        self._counters = counters
        self._injector = injector
        last = max([base_seqno] + [record.seqno for record in records])
        self.next_seqno = last + 1

    # -- lifecycle ---------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        *,
        program: str,
        base_seqno: int = 0,
        applied_batch_ids: set[str] | None = None,
        counters=NULL_COUNTERS,
        injector=None,
    ) -> "WriteAheadLog":
        """Atomically publish a fresh log holding only its header."""
        path = Path(path)
        cls._publish_header(
            path, cls._header_payload(program, base_seqno, applied_batch_ids or set())
        )
        return cls.open(path, counters=counters, injector=injector)

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        counters=NULL_COUNTERS,
        injector=None,
    ) -> "WriteAheadLog":
        """Open an existing log, truncating any torn tail.

        A log whose prologue or header record cannot be read is beyond
        repair — there is no boundary to truncate back to — and raises
        :class:`WalError`; everything after the last whole, checksummed
        record is truncated away with a ``wal.torn_truncated`` bump.
        """
        path = Path(path)
        try:
            data = path.read_bytes()
        except OSError as error:
            raise WalError(
                f"cannot read write-ahead log {path}: {error}", path=str(path)
            ) from error
        if len(data) < _PROLOGUE.size:
            raise WalError(
                f"write-ahead log {path} is shorter than its prologue",
                path=str(path),
            )
        magic, version = _PROLOGUE.unpack_from(data, 0)
        if magic != WAL_MAGIC or version != WAL_VERSION:
            raise WalError(
                f"write-ahead log {path} has foreign prologue "
                f"(magic {magic!r}, version {version})",
                path=str(path),
            )
        docs, good_end, torn = cls._scan(data)
        if torn:
            with open(path, "r+b") as handle:
                handle.truncate(good_end)
                handle.flush()
                os.fsync(handle.fileno())
            counters.inc("wal.torn_truncated")
        if not docs or docs[0].get("kind") != "header":
            raise WalError(
                f"write-ahead log {path} has no readable header record",
                path=str(path),
            )
        header = docs[0]
        records = [
            WalRecord(
                seqno=int(doc["seqno"]),
                batch_id=doc.get("batch_id"),
                inserts=_rows_from_jsonable(doc.get("inserts", {})),
                deletes=_rows_from_jsonable(doc.get("deletes", {})),
            )
            for doc in docs[1:]
            if doc.get("kind") == "batch"
        ]
        applied = set(header.get("applied", []))
        applied.update(r.batch_id for r in records if r.batch_id is not None)
        return cls(
            path,
            program=str(header.get("program", "")),
            base_seqno=int(header.get("base_seqno", 0)),
            applied_batch_ids=applied,
            records=records,
            size_bytes=good_end,
            counters=counters,
            injector=injector,
        )

    @staticmethod
    def _scan(data: bytes) -> tuple[list[dict], int, bool]:
        """Walk frames; return (docs, last good offset, torn tail seen)."""
        offset = _PROLOGUE.size
        docs: list[dict] = []
        good_end = offset
        while offset < len(data):
            if offset + _FRAME.size > len(data):
                return docs, good_end, True
            length, crc = _FRAME.unpack_from(data, offset)
            if length > MAX_RECORD_BYTES:
                return docs, good_end, True
            start = offset + _FRAME.size
            end = start + length
            if end > len(data):
                return docs, good_end, True
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                return docs, good_end, True
            try:
                doc = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                return docs, good_end, True
            docs.append(doc)
            offset = end
            good_end = end
        return docs, good_end, False

    # -- appends -----------------------------------------------------------------

    def append(
        self,
        inserts: dict | None,
        deletes: dict | None,
        batch_id: str | None = None,
    ) -> int:
        """Durably append one batch; returns its assigned seqno.

        The append must complete (fsync included) before the caller may
        mutate the view — write-ahead in the literal sense. Injected
        transient faults are retried up to the policy's attempt budget;
        exhaustion raises :class:`FaultRetriesExhausted` with the batch
        still *not* in the log (a torn partial frame is truncated back
        before the error surfaces, so the log stays at a record
        boundary).
        """
        seqno = self.next_seqno
        doc = {
            "kind": "batch",
            "seqno": seqno,
            "batch_id": batch_id,
            "inserts": _rows_to_jsonable(inserts),
            "deletes": _rows_to_jsonable(deletes),
        }
        frame = self._frame(json.dumps(doc, sort_keys=True).encode("utf-8"))
        retries = 0
        while True:
            try:
                self._append_frame(frame)
                break
            except TransientFaultError as error:
                self._counters.inc("wal.append_retries")
                retries += 1
                if retries >= MAX_ATTEMPTS:
                    raise FaultRetriesExhausted(
                        f"write-ahead append to {self.path.name} still "
                        f"failing after {retries} attempts",
                        site=getattr(error, "context", {}).get("site", "wal_append"),
                        attempts=retries,
                    ) from error
        self.records.append(
            WalRecord(
                seqno=seqno,
                batch_id=batch_id,
                inserts=_rows_from_jsonable(doc["inserts"]),
                deletes=_rows_from_jsonable(doc["deletes"]),
            )
        )
        if batch_id is not None:
            self.applied_batch_ids.add(batch_id)
        self.next_seqno = seqno + 1
        self._counters.inc("wal.appends")
        self._counters.inc("wal.bytes_appended", len(frame))
        return seqno

    def _append_frame(self, frame: bytes) -> None:
        if self._injector is not None:
            # Entry faults: raised before any byte lands, so the retry
            # loop re-runs the append cleanly.
            self._injector.check("wal_append")
            self._injector.check("wal_fsync")
            if self._injector.torn_write():
                # The simulated crash mid-append: a partial frame is
                # durably on disk when the "crash" hits. Repair exactly
                # like open() would — truncate to the last boundary —
                # then surface a retryable fault.
                with open(self.path, "ab") as handle:
                    handle.write(frame[: max(1, len(frame) // 2)])
                    handle.flush()
                    os.fsync(handle.fileno())
                self._repair()
                raise TransientStorageError(
                    "injected torn write-ahead append at 'wal_torn'",
                    site="wal_torn",
                )
        with open(self.path, "ab") as handle:
            handle.write(frame)
            handle.flush()
            os.fsync(handle.fileno())
        self._size += len(frame)

    def _repair(self) -> None:
        """Truncate back to the last durable record boundary."""
        with open(self.path, "r+b") as handle:
            handle.truncate(self._size)
            handle.flush()
            os.fsync(handle.fileno())
        self._counters.inc("wal.torn_repaired")

    # -- compaction --------------------------------------------------------------

    def compact(self, base_seqno: int, applied_batch_ids: set[str]) -> None:
        """Truncate the log to a fresh header via atomic replace.

        Called *after* a base checkpoint carrying ``wal_seqno ==
        base_seqno`` has been durably saved. A crash between the two
        steps is safe in either order of observation: the new base skips
        folded records by seqno, and the old base replays them.
        """
        payload = self._header_payload(
            self.program, base_seqno, applied_batch_ids
        )
        self._publish_header(self.path, payload)
        self.base_seqno = base_seqno
        self.applied_batch_ids = set(applied_batch_ids)
        self.records = []
        self._size = _PROLOGUE.size + _FRAME.size + len(payload)
        self._counters.inc("wal.compactions")

    # -- introspection -----------------------------------------------------------

    def batches(self) -> list[WalRecord]:
        """Records not yet folded into the base checkpoint, in order."""
        return [r for r in self.records if r.seqno > self.base_seqno]

    @property
    def record_count(self) -> int:
        return len(self.records)

    @property
    def size_bytes(self) -> int:
        return self._size

    @property
    def last_seqno(self) -> int:
        return self.next_seqno - 1

    # -- framing -----------------------------------------------------------------

    @classmethod
    def _publish_header(cls, path: Path, payload: bytes) -> None:
        """Atomically replace ``path`` with a log holding only this header."""
        prologue = _PROLOGUE.pack(WAL_MAGIC, WAL_VERSION)
        publish(path, lambda handle: handle.writelines((prologue, cls._frame(payload))))

    @staticmethod
    def _frame(payload: bytes) -> bytes:
        return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload

    @staticmethod
    def _header_payload(
        program: str, base_seqno: int, applied_batch_ids: set[str]
    ) -> bytes:
        doc = {
            "kind": "header",
            "program": program,
            "base_seqno": int(base_seqno),
            "applied": sorted(applied_batch_ids),
        }
        return json.dumps(doc, sort_keys=True).encode("utf-8")


class ViewDurability:
    """The durable half of one materialized view.

    Owns the view directory: the manifest, the base-checkpoint manager,
    and the write-ahead log. The manifest is written *last* at creation
    (tmp + fsync + replace), so its presence is the durability commit
    point — a crash mid-setup leaves a directory recovery ignores.

    The ``view`` arguments below are duck-typed
    :class:`~repro.core.recstep.MaterializedFixpoint` instances (this
    module must not import ``repro.core``); the only method used is
    ``snapshot_state(wal_seqno)``.
    """

    def __init__(
        self,
        directory: Path,
        wal: WriteAheadLog,
        checkpoints: CheckpointManager,
        last_applied_seqno: int,
        counters=NULL_COUNTERS,
    ) -> None:
        self.directory = Path(directory)
        self.wal = wal
        self.checkpoints = checkpoints
        #: Highest seqno whose batch the live view has actually applied
        #: (acknowledged); compaction folds the base up to exactly here.
        self.last_applied_seqno = last_applied_seqno
        self._counters = counters

    # -- creation ----------------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str | Path,
        view,
        manifest: dict,
        *,
        counters=NULL_COUNTERS,
        injector=None,
    ) -> "ViewDurability":
        """Persist a just-materialized view: base checkpoint, empty log,
        then the manifest as the atomic commit point."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        checkpoints = CheckpointManager(directory / BASE_DIR_NAME)
        checkpoints.save(view.snapshot_state(wal_seqno=0))
        wal = WriteAheadLog.create(
            directory / WAL_NAME,
            program=view.program,
            counters=counters,
            injector=injector,
        )
        cls._write_manifest(directory / MANIFEST_NAME, manifest)
        counters.inc("wal.views_persisted")
        return cls(directory, wal, checkpoints, 0, counters=counters)

    @staticmethod
    def _write_manifest(path: Path, manifest: dict) -> None:
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        publish(path, lambda handle: handle.write(text.encode("utf-8")))

    @staticmethod
    def read_manifest(directory: str | Path) -> dict:
        path = Path(directory) / MANIFEST_NAME
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise WalError(
                f"cannot read view manifest {path}: {error}", path=str(path)
            ) from error
        if not isinstance(manifest, dict) or "source" not in manifest:
            raise WalError(
                f"view manifest {path} is malformed", path=str(path)
            )
        return manifest

    # -- the serving protocol ----------------------------------------------------

    def is_duplicate(self, batch_id: str | None) -> bool:
        """Has this client batch already been acknowledged?"""
        return batch_id is not None and batch_id in self.wal.applied_batch_ids

    def log_update(
        self, inserts: dict | None, deletes: dict | None, batch_id: str | None
    ) -> int:
        """Durably log one batch *before* the view mutates; returns its seqno."""
        return self.wal.append(inserts, deletes, batch_id=batch_id)

    def note_applied(self, seqno: int) -> None:
        """The logged batch at ``seqno`` was applied and acknowledged."""
        self.last_applied_seqno = max(self.last_applied_seqno, seqno)

    def should_compact(self, max_records: int) -> bool:
        applied = [
            r for r in self.wal.batches() if r.seqno <= self.last_applied_seqno
        ]
        if not applied:
            return False
        return len(applied) >= max_records or self.wal.size_bytes >= COMPACT_BYTES

    def compact(self, view) -> None:
        """Roll a fresh base checkpoint, then truncate the log.

        Ordering is the crash-safety argument: the base (stamped with
        ``wal_seqno = last_applied_seqno``) is durably replaced first,
        the log truncated second. A crash before the checkpoint replays
        the old log onto the old base; a crash between the two replays
        the old log onto the *new* base, and every folded record is
        skipped by its seqno.
        """
        self.checkpoints.save(
            view.snapshot_state(wal_seqno=self.last_applied_seqno)
        )
        self.wal.compact(self.last_applied_seqno, self.wal.applied_batch_ids)
