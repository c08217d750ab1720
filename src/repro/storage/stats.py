"""Table statistics and the ANALYZE machinery behind OOF.

The paper's Optimization-On-the-Fly collects *targeted* statistics at every
iteration instead of either never re-analyzing (OOF-NA) or re-collecting
everything (OOF-FA). We model three collection modes with different costs:

* ``SIZE_ONLY``  — row count + tuple width; O(1). What OOF uses for joins.
* ``FULL``       — adds min/max/sum/avg and a distinct estimate per column;
                   requires a full scan. What OOF-FA always pays.
* ``NONE``       — statistics frozen at their last value (OOF-NA).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.storage.table import Table


class StatsMode(enum.Enum):
    NONE = "none"
    SIZE_ONLY = "size_only"
    FULL = "full"


@dataclass(frozen=True)
class ColumnDomain:
    """A closed value range ``[low, high]`` a column is promised to stay in.

    Domains are what make compact-key packing *stable*: a codec built
    from explicit domains assigns the same code to the same tuple in
    every call, so packed keys are comparable across calls and
    iterations. Domains only ever widen (see ``Catalog.widen_domain``).
    """

    low: int
    high: int

    @property
    def bits(self) -> int:
        """Bits needed to encode any value in the domain (minimum 1)."""
        return max(1, int(self.high - self.low).bit_length())

    def contains(self, low: int, high: int) -> bool:
        return self.low <= low and high <= self.high

    def widened(self, low: int, high: int) -> "ColumnDomain":
        if self.contains(low, high):
            return self
        return ColumnDomain(min(self.low, low), max(self.high, high))


def observed_domain(values: np.ndarray) -> ColumnDomain:
    """The tightest domain covering ``values`` (``[0, 0]`` when empty)."""
    if values.size == 0:
        return ColumnDomain(0, 0)
    return ColumnDomain(int(values.min()), int(values.max()))


@dataclass
class ColumnStats:
    minimum: int = 0
    maximum: int = 0
    total: int = 0
    mean: float = 0.0
    distinct_estimate: int = 0


@dataclass
class TableStats:
    """Optimizer-visible statistics for one table.

    ``num_rows`` may be stale: it reflects the last ANALYZE, not the live
    table, which is precisely what makes OOF-NA pick bad plans.
    """

    num_rows: int = 0
    tuple_bytes: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)
    analyzed_full: bool = False
    #: Table version/epoch at collection time (-1: never stamped). The
    #: epoch lets consumers tell *append* staleness (the modeled OOF
    #: failure mode, epochs match) from *rewrite* staleness (the stats
    #: describe a previous generation of the table entirely).
    table_version: int = -1
    table_epoch: int = -1
    #: Version/epoch stamps of the last FULL collection that produced
    #: ``columns``. A SIZE_ONLY refresh carries the column stats forward
    #: (they are expensive and still useful to the optimizer) but leaves
    #: these stamps at the FULL collection's values, so consumers can
    #: tell how stale min/max/distinct are independently of ``num_rows``.
    columns_table_version: int = -1
    columns_table_epoch: int = -1


def collect_stats(table: Table, mode: StatsMode, previous: TableStats | None = None) -> tuple[TableStats, float]:
    """Collect statistics for ``table`` under ``mode``.

    Returns the stats plus the modeled collection cost in simulated seconds
    (charged by the interpreter's ``analyze`` calls).
    """
    if mode is StatsMode.NONE:
        stats = previous if previous is not None else TableStats(tuple_bytes=table.tuple_bytes())
        return stats, 0.0

    stats = TableStats(
        num_rows=table.num_rows,
        tuple_bytes=table.tuple_bytes(),
        table_version=table.version,
        table_epoch=table.epoch,
    )
    if mode is StatsMode.SIZE_ONLY:
        # Catalog lookup only: constant, tiny cost. Column statistics
        # from an earlier FULL collection are carried forward instead of
        # discarded (a size refresh says nothing about min/max/distinct);
        # their staleness stamps keep the FULL collection's values.
        if previous is not None and previous.analyzed_full:
            stats.columns = dict(previous.columns)
            stats.analyzed_full = True
            stats.columns_table_version = previous.columns_table_version
            stats.columns_table_epoch = previous.columns_table_epoch
        return stats, 2e-5

    data = table.data()
    if table.num_rows:
        for index, column in enumerate(table.columns):
            values = data[:, index]
            stats.columns[column.name] = ColumnStats(
                minimum=int(values.min()),
                maximum=int(values.max()),
                total=int(values.sum()),
                mean=float(values.mean()),
                distinct_estimate=_distinct_estimate(values),
            )
    else:
        for column in table.columns:
            stats.columns[column.name] = ColumnStats()
    stats.analyzed_full = True
    stats.columns_table_version = table.version
    stats.columns_table_epoch = table.epoch
    # Full scan of every column: cost linear in cell count.
    cost = 2e-9 * max(1, table.num_rows) * table.arity + 5e-5
    return stats, cost


#: Distinct-estimate sample budget: the bounded cost the OOF contract
#: promises for FULL ANALYZE regardless of table size.
DISTINCT_SAMPLE_TARGET = 4096


def _distinct_estimate(values: np.ndarray) -> int:
    """Sample-based distinct-count estimate (GEE-style scale-up).

    The stride is ``ceil(n / target)`` so the sample never exceeds the
    target: a floor stride (the old code) degenerated near the boundary —
    n = 8191 gave stride 1, i.e. a "sample" of the whole array.
    """
    n = values.shape[0]
    if n <= DISTINCT_SAMPLE_TARGET:
        return int(np.unique(values).size)
    stride = -(-n // DISTINCT_SAMPLE_TARGET)
    sample = values[::stride]
    d_sample = int(np.unique(sample).size)
    scale = n / sample.shape[0]
    return min(n, int(d_sample * np.sqrt(scale)))
