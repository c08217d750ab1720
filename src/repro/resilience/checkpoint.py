"""Checkpoint/resume for semi-naive evaluation.

Semi-naive state is small and regular: per IDB relation a full table and
a Δ table, plus a handful of counters and the DSD policy's remembered
``mu``. Snapshotting all of it at a stratum/iteration boundary is enough
to resume an interrupted evaluation to the *identical* fixpoint — the
incremental-engine property (FlowLog: "restartable by construction")
retrofitted onto the relational path.

Checkpoint format: one ``.npz`` per checkpoint. Table contents live
under ``table:full:<name>`` / ``table:delta:<name>`` keys as int64
matrices; everything scalar lives in a JSON document stored as a uint8
array under ``__meta__`` (no pickling, so checkpoints are portable and
safe to load). ``iteration`` in the metadata is the last *completed*
iteration of the in-progress stratum; ``-1`` marks a stratum boundary
(the stratum finished, its working tables already dropped).

Crash safety: a save writes to a ``.tmp`` sibling, fsyncs, and
``os.replace``s it into place, so a crash mid-write can never leave a
half-written file under a checkpoint name. The metadata carries a CRC32
over the table payload; ``load``/``latest`` verify it and treat torn or
corrupt files like missing ones — skipped with a counter bump, falling
back to the previous checkpoint — so a crashed writer never takes down
a subsequent resume.
"""

from __future__ import annotations

import json
import re
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.common.atomic import publish
from repro.common.errors import RecStepError
from repro.engine.kernels import row_keys
from repro.obs.counters import NULL_COUNTERS
from repro.obs.profiler import NULL_PROFILER

#: Modeled checkpoint-write bandwidth cost (simulated seconds per byte);
#: roughly the storage manager's sequential commit bandwidth.
CHECKPOINT_SECONDS_PER_BYTE = 1.0 / 1.2e9

#: Metadata format version, bumped on incompatible layout changes.
#: Version 2 added the mandatory payload checksum; version 3 the EDB
#: content fingerprint (resume must not revive a fixpoint whose inputs
#: have since been mutated).
CHECKPOINT_VERSION = 3

_CHECKPOINT_NAME = re.compile(r"ckpt-s(\d+)-(?:i(\d+)|final)\.npz$")


class CheckpointError(RecStepError):
    """A checkpoint file is missing, corrupt, or from another program."""


class StaleCheckpointError(CheckpointError):
    """A readable checkpoint whose EDB fingerprint no longer matches."""


def edb_fingerprint(
    edb_data: dict[str, np.ndarray], arities: dict[str, int] | None = None
) -> str:
    """Content fingerprint of an EDB: order-insensitive, duplicate-sensitive.

    CRC32 over every relation's name, shape, and lexicographically
    sorted rows. Row order never matters — two loads of the same dataset
    fingerprint identically — but contents do, so any insert/delete
    churn changes the digest. Arrays must be ``(rows, arity)``-shaped,
    or ``arities`` given: only those relations, reshaped first.
    """
    names = edb_data if arities is None else arities.keys() & edb_data.keys()
    tables = {}
    for name in names:
        rows = np.asarray(edb_data[name], dtype=np.int64)
        if arities is not None:
            rows = rows.reshape(-1, arities[name])
        tables[name] = rows[np.argsort(row_keys(list(rows.T))[0])] if rows.shape[0] > 1 else rows
    return f"{_payload_checksum(tables):08x}"


@dataclass
class CheckpointState:
    """Everything needed to resume an evaluation at a boundary."""

    program: str
    stratum: int
    iteration: int  # last completed iteration; -1 = stratum finished
    tables: dict[str, np.ndarray] = field(default_factory=dict)
    dsd_mu: dict[str, float] = field(default_factory=dict)
    iterations_total: int = 0
    pbme_strata: list[int] = field(default_factory=list)
    sim_seconds: float = 0.0
    #: Content fingerprint of the EDB the snapshot was computed from
    #: (see :func:`edb_fingerprint`); "" when the writer didn't know it.
    edb_fingerprint: str = ""
    #: Highest write-ahead-log seqno folded into this snapshot; recovery
    #: replays only records strictly above it. 0 for snapshots written
    #: outside the durable-view path.
    wal_seqno: int = 0

    def nbytes(self) -> int:
        return sum(array.nbytes for array in self.tables.values())

    @property
    def stratum_complete(self) -> bool:
        return self.iteration < 0


class CheckpointManager:
    """Writes, prunes, and reloads evaluation checkpoints.

    Args:
        directory: where checkpoint files live (created on first save).
        every: keep one iteration checkpoint every N iterations (stratum
            boundaries are always checkpointed).
        keep: how many checkpoint files to retain (oldest pruned first).
        metrics: when given, each save charges modeled write time to the
            simulated clock, so checkpoint overhead shows up in runtimes.
        profiler: obs sink for checkpoint spans/counters.
    """

    def __init__(
        self,
        directory: str | Path,
        every: int = 1,
        keep: int = 2,
        metrics=None,
        profiler=NULL_PROFILER,
    ) -> None:
        if every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {every}")
        self.directory = Path(directory)
        self.every = every
        self.keep = max(1, keep)
        self.metrics = metrics
        self.profiler = profiler
        self.written = 0
        self.last_path: Path | None = None

    # -- saving ------------------------------------------------------------------

    def maybe_save(self, state: CheckpointState) -> Path | None:
        """Save if the boundary matches the interval (always for strata)."""
        if not state.stratum_complete and state.iteration % self.every != 0:
            return None
        return self.save(state)

    def save(self, state: CheckpointState) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        suffix = "final" if state.stratum_complete else f"i{state.iteration:05d}"
        path = self.directory / f"ckpt-s{state.stratum:03d}-{suffix}.npz"
        meta = {
            "version": CHECKPOINT_VERSION,
            "program": state.program,
            "stratum": state.stratum,
            "iteration": state.iteration,
            "dsd_mu": state.dsd_mu,
            "iterations_total": state.iterations_total,
            "pbme_strata": list(state.pbme_strata),
            "sim_seconds": state.sim_seconds,
            "edb_fingerprint": state.edb_fingerprint,
            "wal_seqno": state.wal_seqno,
            "checksum": _payload_checksum(state.tables),
        }
        arrays = {f"table:{key}": value for key, value in state.tables.items()}
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        with self.profiler.span(
            "CHECKPOINT",
            "statement",
            stratum=state.stratum,
            iteration=state.iteration,
            bytes=state.nbytes(),
        ):
            # The ``.tmp`` sibling is never matched by the checkpoint glob.
            publish(path, lambda handle: np.savez(handle, **arrays))
            if self.metrics is not None:
                self.metrics.advance(
                    state.nbytes() * CHECKPOINT_SECONDS_PER_BYTE, utilization=0.02
                )
            self.profiler.counters.inc("checkpoints_written")
            self.profiler.counters.inc("checkpoint_bytes_written", state.nbytes())
        self.written += 1
        self.last_path = path
        self._prune()
        return path

    def _prune(self) -> None:
        """Retain the newest ``keep`` *valid* checkpoints.

        Corrupt files must not count toward ``keep``: a torn file
        occupying a retention slot would let repeated crashes evict
        every good snapshot. The retained window is validated (newest
        first) and checksum-failing files are deleted outright, with a
        ``checkpoint_corrupt_pruned`` bump each, so the window always
        holds loadable state.
        """
        checkpoints = sorted(
            (p for p in self.directory.glob("ckpt-*.npz") if _CHECKPOINT_NAME.search(p.name)),
            key=_sort_key,
            reverse=True,
        )
        kept = 0
        for path in checkpoints:
            if kept >= self.keep:
                path.unlink(missing_ok=True)
                continue
            if path == self.last_path:
                # The file this save just wrote and fsynced; skip re-reading.
                kept += 1
                continue
            try:
                self._load_file(path)
            except CheckpointError:
                path.unlink(missing_ok=True)
                self.profiler.counters.inc("checkpoint_corrupt_pruned")
                continue
            kept += 1

    # -- loading -----------------------------------------------------------------

    @classmethod
    def load(
        cls,
        path: str | Path,
        counters=NULL_COUNTERS,
        expected_edb: str | None = None,
    ) -> CheckpointState:
        """Load a checkpoint file, or the newest *valid* one in a directory.

        A directory load walks checkpoints newest-first and skips any
        that are torn or corrupt (truncated write, bad checksum, foreign
        file) — each skip bumps ``checkpoint_corrupt_skipped`` on
        ``counters`` — so a crashed writer degrades resume to the
        previous boundary instead of aborting it. With ``expected_edb``
        (an :func:`edb_fingerprint` digest), snapshots computed from a
        *different* EDB are likewise skipped — bumping
        ``checkpoint_stale_skipped`` — so a resume after input churn
        recomputes instead of silently reviving a stale fixpoint.
        """
        path = Path(path)
        if not path.is_dir():
            state = cls._load_file(path)
            cls._check_fresh(state, expected_edb, path)
            return state
        candidates = cls._candidates(path)
        if not candidates:
            raise CheckpointError(
                f"no checkpoint files in directory {path}", path=str(path)
            )
        errors: list[CheckpointError] = []
        for _, state in cls._valid(candidates, counters, expected_edb, errors):
            return state
        raise CheckpointError(
            f"all {len(candidates)} checkpoints in {path} are corrupt or stale "
            f"(last error: {errors[-1]})",
            path=str(path),
        ) from errors[-1]

    @classmethod
    def latest(
        cls,
        directory: str | Path,
        counters=NULL_COUNTERS,
        expected_edb: str | None = None,
    ) -> Path | None:
        """The most advanced *readable, fresh* checkpoint in ``directory``.

        Skips (and counts) torn and stale files exactly like a directory
        :meth:`load`, so callers never resume from a file that cannot be
        loaded.
        """
        candidates = cls._candidates(directory)
        for path, _ in cls._valid(candidates, counters, expected_edb, []):
            return path
        return None

    @classmethod
    def _valid(cls, candidates, counters, expected_edb, errors: list):
        """Yield ``(path, state)`` per loadable, fresh candidate; count the rest."""
        for candidate in candidates:
            try:
                state = cls._load_file(candidate)
                cls._check_fresh(state, expected_edb, candidate)
            except CheckpointError as error:
                stale = isinstance(error, StaleCheckpointError)
                counters.inc(
                    "checkpoint_stale_skipped" if stale else "checkpoint_corrupt_skipped"
                )
                errors.append(error)
                continue
            yield candidate, state

    @staticmethod
    def _check_fresh(
        state: CheckpointState, expected_edb: str | None, path: Path
    ) -> None:
        if expected_edb is None or state.edb_fingerprint == expected_edb:
            return
        raise StaleCheckpointError(
            f"checkpoint {path} was computed from EDB "
            f"{state.edb_fingerprint or '<unknown>'}, but the current EDB "
            f"fingerprints as {expected_edb}: the inputs changed since the "
            "snapshot",
            path=str(path),
        )

    @staticmethod
    def _candidates(directory: str | Path) -> list[Path]:
        """Checkpoint files in ``directory``, most advanced boundary first."""
        return sorted(
            (
                p
                for p in Path(directory).glob("ckpt-*.npz")
                if _CHECKPOINT_NAME.search(p.name)
            ),
            key=_sort_key,
            reverse=True,
        )

    @staticmethod
    def _load_file(path: Path) -> CheckpointState:
        try:
            with np.load(path, allow_pickle=False) as bundle:
                if "__meta__" not in bundle:
                    raise CheckpointError(
                        f"{path} is not a checkpoint (missing metadata)",
                        path=str(path),
                    )
                meta = json.loads(bytes(bundle["__meta__"].tobytes()).decode("utf-8"))
                tables = {
                    key[len("table:"):]: np.asarray(bundle[key], dtype=np.int64)
                    for key in bundle.files
                    if key.startswith("table:")
                }
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile,
                json.JSONDecodeError) as error:
            raise CheckpointError(
                f"cannot read checkpoint {path}: {error}", path=str(path)
            ) from error
        if meta.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {path} has version {meta.get('version')!r}, "
                f"expected {CHECKPOINT_VERSION}",
                path=str(path),
            )
        expected = meta.get("checksum")
        actual = _payload_checksum(tables)
        if expected != actual:
            raise CheckpointError(
                f"checkpoint {path} failed checksum verification "
                f"(stored {expected!r}, computed {actual!r}): torn or "
                "corrupt payload",
                path=str(path),
            )
        return CheckpointState(
            program=meta["program"],
            stratum=int(meta["stratum"]),
            iteration=int(meta["iteration"]),
            tables=tables,
            dsd_mu={k: float(v) for k, v in meta.get("dsd_mu", {}).items()},
            iterations_total=int(meta.get("iterations_total", 0)),
            pbme_strata=[int(i) for i in meta.get("pbme_strata", [])],
            sim_seconds=float(meta.get("sim_seconds", 0.0)),
            edb_fingerprint=str(meta.get("edb_fingerprint", "")),
            wal_seqno=int(meta.get("wal_seqno", 0)),
        )


def _payload_checksum(tables: dict[str, np.ndarray]) -> int:
    """CRC32 over every table's name, shape, and contents (order-stable)."""
    crc = 0
    for name in sorted(tables):
        array = np.ascontiguousarray(tables[name], dtype=np.int64)
        crc = zlib.crc32(name.encode("utf-8"), crc)
        crc = zlib.crc32(repr(array.shape).encode("ascii"), crc)
        crc = zlib.crc32(array.tobytes(), crc)
    return crc


def _sort_key(path: Path) -> tuple[int, int]:
    match = _CHECKPOINT_NAME.search(path.name)
    assert match is not None
    stratum = int(match.group(1))
    iteration = int(match.group(2)) if match.group(2) is not None else 1 << 30
    return (stratum, iteration)
