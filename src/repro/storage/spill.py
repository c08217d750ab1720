"""The spill-to-disk storage tier: degrade to disk, not to shed work.

Under memory pressure the degradation ladder's *spill-cold-tables* rung
evicts cold full-relation prefixes to per-table **segment files** on
disk. The resident tail of a spilled table stays appendable (semi-naive
``R <- R U delta`` never rehydrates), kernel scans stream spilled
segments back one at a time through the existing set-difference kernels,
and any code path that genuinely needs the whole relation faults it back
in transparently via :meth:`Table.data`.

Durability discipline matches checkpoints exactly: every segment is
written to a tmp sibling, fsynced, and published with ``os.replace``; a
CRC32 over header+payload rides in a footer; a torn or corrupt segment
is quarantined (renamed, never silently read) and surfaces as a
structured :class:`~repro.common.errors.SpillError` — under pressure the
service gets *slower, never wrong*. Running out of disk is not an error:
the manager sets :attr:`SpillManager.capacity_exhausted`, the table stays
resident, and the degradation ladder proceeds to its next rung — work is
shed only when disk is also exhausted.

All I/O is metered on the simulated clock at the storage manager's
commit bandwidth, resident-vs-spilled bytes are tracked in
:class:`~repro.engine.metrics.MetricsRecorder`, and every outcome bumps
a ``spill.*`` counter.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.common.atomic import publish
from repro.common.errors import SpillError
from repro.obs.counters import NULL_COUNTERS
from repro.storage.block import BLOCK_ROWS, BlockResidency
from repro.storage.manager import COMMIT_WRITE_BANDWIDTH, SPILL_READ_BANDWIDTH
from repro.storage.table import Table

#: Rows per spill segment: a small multiple of the storage block so a
#: streamed scan's transient footprint stays bounded while the segment
#: count (and per-segment fsync overhead) stays low.
SPILL_SEGMENT_ROWS = 4 * BLOCK_ROWS

#: Fixed per-segment I/O overhead (seek + fsync + rename), simulated.
SPILL_IO_OVERHEAD_SECONDS = 2e-4

#: Tables smaller than this are never worth a segment file.
MIN_SPILL_BYTES = 32 << 10

_MAGIC = b"RSPL"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIQ")  # magic, version, arity, num_rows
_FOOTER = struct.Struct("<I")  # CRC32 over header + payload


@dataclass
class SpillSegment:
    """One durably written row range of a spilled table prefix."""

    path: Path
    start_row: int
    num_rows: int
    payload_bytes: int  # physical int64 bytes in the file
    logical_bytes: int  # modeled bytes (logical tuple width * rows)
    residency: BlockResidency = BlockResidency.SPILLED

    @property
    def file_bytes(self) -> int:
        return _HEADER.size + self.payload_bytes + _FOOTER.size


class SpillManager:
    """Per-table segment files with checkpoint-grade durability.

    The manager owns the spill directory, the segment ledger, and the
    modeled disk budget; tables route their residency transitions
    (:meth:`spill_table`, :meth:`fault_in`, :meth:`discard`) through it
    so the metrics ledger and the files on disk never disagree.
    """

    def __init__(self, directory: str | Path, disk_budget: int | None = None) -> None:
        self.directory = Path(directory)
        self.disk_budget = disk_budget
        self.disk_used = 0
        self.capacity_exhausted = False
        self._segments: dict[str, list[SpillSegment]] = {}
        self._metrics = None
        self._counters = NULL_COUNTERS
        self._resilience = None
        self._on_change = None

    def bind(self, metrics, counters, resilience=None, on_change=None) -> None:
        """Attach the live metrics/counter/resilience surfaces."""
        self._metrics = metrics
        self._counters = counters if counters is not None else NULL_COUNTERS
        self._resilience = resilience
        self._on_change = on_change

    # -- introspection -----------------------------------------------------

    def segments(self, table_name: str) -> tuple[SpillSegment, ...]:
        return tuple(self._segments.get(table_name, ()))

    def spilled_bytes(self) -> int:
        """Modeled (logical) bytes currently on disk across all tables."""
        return sum(
            segment.logical_bytes
            for segments in self._segments.values()
            for segment in segments
        )

    # -- spilling ----------------------------------------------------------

    def spill_table(self, table: Table, max_rows: int | None = None) -> int:
        """Evict (a prefix of) ``table``'s resident rows to disk.

        Returns the number of rows durably spilled, which may be short of
        the request when the disk budget (real or injected ENOSPC) runs
        out — in that case :attr:`capacity_exhausted` is set and the
        caller stops descending this rung. The table's prefix is only
        dropped after every covering segment hit disk, so a fault mid-way
        leaves the table fully consistent.
        """
        resident = table.resident_rows
        rows = resident if max_rows is None else min(max_rows, resident)
        if rows <= 0:
            return 0
        self.directory.mkdir(parents=True, exist_ok=True)
        data = table.resident_data()
        tuple_bytes = table.tuple_bytes()
        existing = self._segments.setdefault(table.name, [])
        base_row = table.spilled_rows
        written: list[SpillSegment] = []
        io_seconds = 0.0
        for start in range(0, rows, SPILL_SEGMENT_ROWS):
            chunk = data[start : min(start + SPILL_SEGMENT_ROWS, rows)]
            payload = np.ascontiguousarray(chunk, dtype=np.int64).tobytes()
            file_bytes = _HEADER.size + len(payload) + _FOOTER.size
            if self._out_of_disk(file_bytes):
                self.capacity_exhausted = True
                self._counters.inc("spill.enospc")
                break
            segment = SpillSegment(
                path=self.directory
                / f"{table.name}-e{table.epoch:04d}-s{base_row + start:010d}.spill",
                start_row=base_row + start,
                num_rows=chunk.shape[0],
                payload_bytes=len(payload),
                logical_bytes=tuple_bytes * chunk.shape[0],
            )
            self._run_guarded(
                "spill_write", lambda: self._write_segment(segment, table.arity, payload)
            )
            written.append(segment)
            self.disk_used += segment.file_bytes
            self._counters.inc("spill.segments_written")
            self._counters.inc("spill.bytes_written", segment.file_bytes)
            io_seconds += (
                segment.file_bytes / COMMIT_WRITE_BANDWIDTH + SPILL_IO_OVERHEAD_SECONDS
            )
        spilled_rows = sum(segment.num_rows for segment in written)
        if spilled_rows:
            existing.extend(written)
            table.drop_spilled_prefix(spilled_rows)
            self._counters.inc("spill.tables_spilled")
            self._note_spilled(sum(segment.logical_bytes for segment in written))
            self._changed()
        self._advance(io_seconds)
        return spilled_rows

    # -- reading back ------------------------------------------------------

    def read_segment(self, table: Table, segment: SpillSegment) -> np.ndarray:
        """Read and validate one segment (streamed scans).

        Charges the simulated read bandwidth; a corrupt segment is
        quarantined and raised as :class:`SpillError`.
        """
        rows = self._run_guarded(
            "spill_read", lambda: self._read_validated(table, segment)
        )
        self._counters.inc("spill.segment_reads")
        self._counters.inc("spill.bytes_read", segment.file_bytes)
        self._advance(
            segment.file_bytes / SPILL_READ_BANDWIDTH + SPILL_IO_OVERHEAD_SECONDS
        )
        return rows

    def fault_in(self, table: Table) -> int:
        """Rehydrate the whole spilled prefix back into the table.

        The correctness backstop: any consumer that needs the full
        relation (``Table.data()``) lands here. Segment files are removed
        once absorbed. Returns the number of rows rehydrated.
        """
        segments = self._segments.get(table.name)
        if not segments:
            return 0
        prefix = self.snapshot_prefix(table)
        table.absorb_spilled_prefix(prefix)
        self._note_spilled(-sum(segment.logical_bytes for segment in segments))
        self._remove_files(segments)
        self._segments[table.name] = []
        self._counters.inc("spill.fault_ins")
        self._changed()
        return prefix.shape[0]

    def snapshot_prefix(self, table: Table) -> np.ndarray:
        """The spilled prefix as an array *without* changing residency.

        Checkpoints use this so saving state never flips a cold table
        back to resident (checkpoint_every=1 would otherwise defeat the
        rung entirely).
        """
        segments = self._segments.get(table.name, [])
        prefix = np.empty((table.spilled_rows, table.arity), dtype=np.int64)
        for segment in segments:
            rows = self.read_segment(table, segment)
            prefix[segment.start_row : segment.start_row + segment.num_rows] = rows
        return prefix

    # -- lifecycle ---------------------------------------------------------

    def discard(self, table_name: str) -> int:
        """Drop a table's segments unread (rewrite/truncate/drop paths)."""
        segments = self._segments.pop(table_name, [])
        if not segments:
            return 0
        self._note_spilled(-sum(segment.logical_bytes for segment in segments))
        self._remove_files(segments)
        self._counters.inc("spill.discarded_segments", len(segments))
        self._changed()
        return len(segments)

    def cleanup(self) -> None:
        """Remove every segment file (end of evaluation).

        Quarantined torn files are swept too: they were evidence for the
        duration of the evaluation, but session release is the end of
        their forensic life — leaving them would accumulate unbounded
        ``.quarantine`` litter across sessions. Each sweep bumps
        ``spill.quarantine_swept``.
        """
        for name in list(self._segments):
            segments = self._segments.pop(name)
            self._note_spilled(-sum(segment.logical_bytes for segment in segments))
            self._remove_files(segments)
        swept = 0
        try:
            quarantined = list(self.directory.glob("*.quarantine"))
        except OSError:
            quarantined = []
        for path in quarantined:
            try:
                path.unlink()
                swept += 1
            except OSError:
                pass
        if swept:
            self._counters.inc("spill.quarantine_swept", swept)
        try:
            self.directory.rmdir()
        except OSError:
            pass

    # -- internals ---------------------------------------------------------

    def _out_of_disk(self, file_bytes: int) -> bool:
        if self.disk_budget is not None and self.disk_used + file_bytes > self.disk_budget:
            return True
        injector = getattr(self._resilience, "injector", None)
        return injector is not None and injector.disk_full()

    def _write_segment(self, segment: SpillSegment, arity: int, payload: bytes) -> None:
        header = _HEADER.pack(_MAGIC, _FORMAT_VERSION, arity, segment.num_rows)
        footer = _FOOTER.pack(zlib.crc32(header + payload))
        publish(segment.path, lambda handle: handle.writelines((header, payload, footer)))

    def _read_validated(self, table: Table, segment: SpillSegment) -> np.ndarray:
        try:
            raw = segment.path.read_bytes()
        except OSError as exc:
            raise self._torn(table, segment, f"unreadable: {exc}") from exc
        if len(raw) != segment.file_bytes:
            raise self._torn(table, segment, "truncated")
        header, payload = raw[: _HEADER.size], raw[_HEADER.size : -_FOOTER.size]
        magic, version, arity, num_rows = _HEADER.unpack(header)
        (crc,) = _FOOTER.unpack(raw[-_FOOTER.size :])
        if magic != _MAGIC or version != _FORMAT_VERSION:
            raise self._torn(table, segment, "bad magic/version")
        if arity != table.arity or num_rows != segment.num_rows:
            raise self._torn(table, segment, "header mismatch")
        if zlib.crc32(header + payload) != crc:
            raise self._torn(table, segment, "checksum mismatch")
        return np.frombuffer(payload, dtype=np.int64).reshape(num_rows, arity)

    def _torn(self, table: Table, segment: SpillSegment, reason: str) -> SpillError:
        quarantine = segment.path.with_suffix(".quarantine")
        try:
            os.replace(segment.path, quarantine)
        except OSError:
            pass
        self._counters.inc("spill.torn_quarantined")
        return SpillError(
            f"torn spill segment ({reason})",
            table=table.name,
            segment=str(segment.path.name),
            start_row=segment.start_row,
        )

    def _run_guarded(self, site: str, operation):
        if self._resilience is not None:
            return self._resilience.run(site, operation)
        return operation()

    def _remove_files(self, segments: list[SpillSegment]) -> None:
        for segment in segments:
            segment.path.unlink(missing_ok=True)
            self.disk_used = max(0, self.disk_used - segment.file_bytes)

    def _note_spilled(self, delta: int) -> None:
        if self._metrics is not None:
            self._metrics.note_spilled(delta)

    def _advance(self, seconds: float) -> None:
        if seconds > 0 and self._metrics is not None:
            self._metrics.advance(seconds, utilization=0.05)

    def _changed(self) -> None:
        if self._on_change is not None:
            self._on_change()
