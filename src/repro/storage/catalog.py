"""The catalog: schemas plus optimizer statistics.

Statistics updates are explicit (the interpreter calls ``analyze``),
mirroring Algorithm 1's ``analyze(R)`` calls and making the OOF ablation
(stale vs. targeted vs. full statistics) observable.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.common.errors import CatalogError
from repro.storage.column import ColumnSchema
from repro.storage.stats import ColumnDomain, StatsMode, TableStats, collect_stats
from repro.storage.table import Table


class Catalog:
    """Name -> (table, stats) mapping with CREATE/DROP semantics."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._stats: dict[str, TableStats] = {}
        #: Per-table, per-column value domains (monotonically widening).
        #: Registered by FULL ANALYZE and by the join-state cache; these
        #: are what keep compact-key packing stable across iterations.
        self._domains: dict[str, dict[str, ColumnDomain]] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def create_table(self, name: str, columns: Sequence[ColumnSchema]) -> Table:
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        table = Table(name, columns)
        self._tables[name] = table
        self._stats[name] = TableStats(
            tuple_bytes=table.tuple_bytes(),
            table_version=table.version,
            table_epoch=table.epoch,
        )
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise CatalogError(f"cannot drop unknown table {name!r}")
        del self._tables[name]
        del self._stats[name]
        self._domains.pop(name, None)

    def get_table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def get_stats(self, name: str) -> TableStats:
        try:
            return self._stats[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def analyze(self, name: str, mode: StatsMode = StatsMode.SIZE_ONLY) -> float:
        """Refresh statistics for ``name``; returns the modeled cost."""
        table = self.get_table(name)
        stats, cost = collect_stats(table, mode, previous=self._stats.get(name))
        self._stats[name] = stats
        if table.num_rows:
            for column, column_stats in stats.columns.items():
                self.widen_domain(
                    name, column, column_stats.minimum, column_stats.maximum
                )
        return cost

    def estimated_rows(self, name: str) -> int:
        """Optimizer row estimate, guarded against rewritten tables.

        Statistics describing a *previous generation* of the table (the
        epoch changed since collection — the table was rewritten, not
        appended to) fall back to the live row count: such estimates are
        not merely stale, they are about different contents entirely.
        Append-only staleness keeps the stats value — that is the OOF
        trade-off the ablations measure.
        """
        stats = self.get_stats(name)
        if stats.table_epoch >= 0 and stats.table_epoch != self.get_table(name).epoch:
            return self.get_table(name).num_rows
        return stats.num_rows

    def widen_domain(self, name: str, column: str, low: int, high: int) -> ColumnDomain:
        """Widen (or register) the stable value domain of one column."""
        per_table = self._domains.setdefault(name, {})
        current = per_table.get(column)
        domain = (
            ColumnDomain(low, high) if current is None else current.widened(low, high)
        )
        per_table[column] = domain
        return domain

    def total_memory_bytes(self) -> int:
        """Modeled bytes resident across all tables (memory traces)."""
        return sum(table.memory_bytes() for table in self._tables.values())
