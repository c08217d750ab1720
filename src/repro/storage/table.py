"""Growable in-memory tables.

A :class:`Table` owns a 2-D ``int64`` array of shape ``(capacity, arity)``
with amortized-doubling appends, plus the column schema. Rows are bag
semantics at this layer — deduplication is an explicit engine operation
(Algorithm 1's ``dedup``), exactly as in the paper where INSERT uses
UNION ALL and dedup is a separate call.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import accumulate

import numpy as np

from repro.common.errors import CatalogError
from repro.common.records import rows_to_set
from repro.storage.column import ColumnSchema, ColumnType

_INITIAL_CAPACITY = 64


class Table:
    """A named, typed, block-partitioned bag of integer tuples."""

    def __init__(self, name: str, columns: Sequence[ColumnSchema]) -> None:
        if not columns:
            raise CatalogError(f"table {name!r} must have at least one column")
        seen: set[str] = set()
        for column in columns:
            if column.name in seen:
                raise CatalogError(f"duplicate column {column.name!r} in table {name!r}")
            seen.add(column.name)
        self.name = name
        self.columns: tuple[ColumnSchema, ...] = tuple(columns)
        # The schema is immutable: its derived constants are computed once.
        self.column_names: tuple[str, ...] = tuple(column.name for column in columns)
        self._tuple_bytes = sum(column.ctype.logical_bytes for column in columns)
        self._rows = np.empty((_INITIAL_CAPACITY, len(columns)), dtype=np.int64)
        self._count = 0
        #: Rows [0, _spilled_rows) live in spill segment files; the
        #: in-memory array holds only the resident tail, so buffer index i
        #: is logical row ``i + _spilled_rows``. Residency transitions go
        #: through the bound SpillManager and never touch version/epoch —
        #: the logical contents are unchanged.
        self._spilled_rows = 0
        self._spill_manager = None
        #: Bumped on *every* mutation; lets caches detect any change.
        self.version = 0
        #: Bumped only on rewrites (replace/truncate) — appends keep the
        #: epoch, which is what makes append-only incremental indexing and
        #: the optimizer's rewrite-staleness guard possible.
        self.epoch = 0
        #: True while the live rows are exactly what ``dedup`` wrote: set
        #: by ``replace_contents(..., distinct=True)``, cleared by every
        #: other mutation. Lets set-difference skip its own sort-unique.
        self.distinct = False
        #: Append ranks as runs: rows ``[start_i, start_{i+1})`` rank
        #: ``rank_i``, rows before the first run 0; bulk writes reset them.
        self._rank_starts: list[int] = []
        self._rank_values: list[int] = []

    # -- schema ------------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.columns)

    def column_index(self, name: str) -> int:
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise CatalogError(f"table {self.name!r} has no column {name!r}")

    def tuple_bytes(self) -> int:
        """Logical bytes per tuple (used by cost and memory models)."""
        return self._tuple_bytes

    # -- contents ----------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def num_rows(self) -> int:
        return self._count

    @property
    def spilled_rows(self) -> int:
        return self._spilled_rows

    @property
    def resident_rows(self) -> int:
        return self._count - self._spilled_rows

    def data(self) -> np.ndarray:
        """A read-only view of the live rows (no copy).

        The correctness backstop for spilling: a spilled table is faulted
        back in (charging the modeled read I/O) before the view is
        handed out, so every consumer always sees the full relation.
        """
        if self._spilled_rows:
            self._spill_manager.fault_in(self)
        view = self._rows[: self._count]
        view.flags.writeable = False
        return view

    def resident_data(self) -> np.ndarray:
        """A read-only view of only the resident tail (no fault-in)."""
        view = self._rows[: self.resident_rows]
        view.flags.writeable = False
        return view

    def tail_data(self, start_row: int) -> np.ndarray:
        """Rows ``[start_row, num_rows)`` without fault-in when possible.

        Incremental consumers (the join-cache extension) only ever need
        the appended tail, which by construction lives in the resident
        region; asking for rows inside the spilled prefix falls back to
        the fault-in path.
        """
        if start_row < self._spilled_rows:
            return self.data()[start_row:]
        view = self._rows[start_row - self._spilled_rows : self.resident_rows]
        view.flags.writeable = False
        return view

    def to_array(self) -> np.ndarray:
        """A copy of the live rows, safe to mutate."""
        return self.data().copy()

    def ranks(self) -> np.ndarray:
        """Each live row's append rank (0 for bulk-written rows)."""
        lengths = np.diff([0, *self._rank_starts, self._count])
        return np.repeat(np.array([0, *self._rank_values], dtype=np.int64), lengths)

    def to_set(self) -> set[tuple[int, ...]]:
        """Rows as a Python set of tuples (tests and small results only)."""
        return rows_to_set(self.data())

    def memory_bytes(self) -> int:
        """Modeled resident size: logical tuple width times resident rows."""
        return self._tuple_bytes * self.resident_rows

    def spilled_bytes(self) -> int:
        """Modeled bytes of the spilled prefix (on disk, not in memory)."""
        return self._tuple_bytes * self._spilled_rows

    # -- mutation ----------------------------------------------------------

    def _reserve(self, extra: int) -> None:
        needed = self.resident_rows + extra
        if needed <= self._rows.shape[0]:
            return
        capacity = max(self._rows.shape[0], _INITIAL_CAPACITY)
        while capacity < needed:
            capacity *= 2
        grown = np.empty((capacity, self.arity), dtype=np.int64)
        grown[: self.resident_rows] = self._rows[: self.resident_rows]
        self._rows = grown

    def append_array(self, rows: np.ndarray, rank: int = 0) -> None:
        """Append a 2-D array of rows of append rank ``rank`` (bag semantics)."""
        if rows.ndim != 2 or rows.shape[1] != self.arity:
            raise CatalogError(
                f"cannot append shape {rows.shape} into table {self.name!r} "
                f"of arity {self.arity}"
            )
        if rows.shape[0] == 0:
            return
        if rank != (self._rank_values[-1] if self._rank_values else 0):
            self._rank_starts.append(self._count)
            self._rank_values.append(rank)
        self._reserve(rows.shape[0])
        resident = self.resident_rows
        self._rows[resident : resident + rows.shape[0]] = rows
        self._count += rows.shape[0]
        self.version += 1
        self.distinct = False

    def append_tuples(self, tuples: Iterable[Sequence[int]]) -> None:
        materialized = list(tuples)
        if not materialized:
            return
        self.append_array(np.asarray(materialized, dtype=np.int64).reshape(len(materialized), self.arity))

    def replace_contents(
        self,
        rows: np.ndarray,
        distinct: bool = False,
        kept: np.ndarray | None = None,
        runs: Sequence[int] = (),
        rank: int = 0,
    ) -> None:
        """Overwrite the table's rows (used by dedup and delta swaps).

        ``distinct`` is the caller's promise that ``rows`` holds no
        duplicate tuple (only dedup makes it). ``rows`` are rank 0 unless
        ``kept`` masks the old rows they are (a delete's survivors) or
        ``runs`` counts the rows of consecutive runs ranked ``rank``,
        ``rank + 1``, ...
        """
        if rows.ndim != 2 or rows.shape[1] != self.arity or (runs and sum(runs) != len(rows)):
            raise CatalogError(
                f"cannot load shape {rows.shape} in runs {list(runs)} into "
                f"table {self.name!r} of arity {self.arity}"
            )
        if kept is None:
            self._rank_starts = list(accumulate([0, *runs]))[:-1]
            self._rank_values = list(range(rank, rank + len(runs)))
        elif self._rank_starts:
            # A run now starts after as many rows as survived before it.
            survivors_before = np.concatenate([[0], np.cumsum(kept)])
            self._rank_starts = survivors_before[self._rank_starts].tolist()
        self._discard_spill()
        self._rows = np.ascontiguousarray(rows, dtype=np.int64)
        self._count = rows.shape[0]
        self.version += 1
        self.epoch += 1
        self.distinct = distinct

    def truncate(self) -> None:
        self._discard_spill()
        self._rank_starts, self._rank_values = [], []
        self._count = 0
        self.version += 1
        self.epoch += 1
        self.distinct = False

    # -- residency (driven by the SpillManager) ----------------------------

    def bind_spill(self, manager) -> None:
        self._spill_manager = manager

    def drop_spilled_prefix(self, rows: int) -> None:
        """Release the first ``rows`` resident rows; they are now on disk.

        Called by the SpillManager only after every covering segment has
        been durably written. The buffer is reallocated so the memory is
        genuinely freed, not just re-labelled.
        """
        resident = self.resident_rows
        if not 0 < rows <= resident:
            raise ValueError(
                f"cannot spill {rows} of {resident} resident rows in {self.name!r}"
            )
        remaining = resident - rows
        shrunk = np.empty((max(remaining, _INITIAL_CAPACITY), self.arity), dtype=np.int64)
        shrunk[:remaining] = self._rows[rows:resident]
        self._rows = shrunk
        self._spilled_rows += rows

    def absorb_spilled_prefix(self, prefix: np.ndarray) -> None:
        """Rehydrate the spilled prefix in front of the resident tail."""
        if prefix.shape != (self._spilled_rows, self.arity):
            raise ValueError(
                f"prefix shape {prefix.shape} does not match "
                f"{(self._spilled_rows, self.arity)} for {self.name!r}"
            )
        resident = self.resident_rows
        grown = np.empty((max(self._count, _INITIAL_CAPACITY), self.arity), dtype=np.int64)
        grown[: self._spilled_rows] = prefix
        grown[self._spilled_rows : self._count] = self._rows[:resident]
        self._rows = grown
        self._spilled_rows = 0

    def _discard_spill(self) -> None:
        if self._spilled_rows and self._spill_manager is not None:
            self._spill_manager.discard(self.name)
        self._spilled_rows = 0

    # -- misc ----------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{c.name} {c.ctype.value}" for c in self.columns)
        return f"Table({self.name!r}, [{cols}], rows={self._count})"


def make_table(name: str, column_names: Sequence[str], ctype: ColumnType = ColumnType.INT) -> Table:
    """Convenience constructor used heavily in tests and dataset loaders."""
    return Table(name, [ColumnSchema(column, ctype) for column in column_names])
