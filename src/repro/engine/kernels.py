"""Vectorized relational kernels.

These are the NumPy equivalents of QuickStep's operator implementations:
key packing (the compact concatenated key of Figure 5), hash-equivalent
equi-joins, anti-joins, row deduplication, and sorted group-by reduction.
All kernels are pure: they never mutate their inputs.

A multi-column row becomes one int64 CCK code when it fits 63 bits.
:class:`KeyCodec` fixes each column's offset and width: built from
explicit :class:`~repro.storage.stats.ColumnDomain` values it gives the
same tuple the same code in every call, which is what the
iteration-persistent join-state cache relies on; built from one call's
observed min/max (:meth:`KeyCodec.observed`) its codes only compare
within that call. :func:`row_keys` orders every multi-column row per
call (joins, semi-joins, set operations, distinct, group-by): by its
observed CCK code, or by its dense rank when the row is too wide to
pack. An index kept across calls keys a wide row by the row itself
(:func:`row_records`).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import KeyPackingError
from repro.storage.stats import ColumnDomain, observed_domain

#: CCK keys must fit a signed int64: 63 usable bits (Figure 5).
MAX_PACK_BITS = 63

# --------------------------------------------------------------------------
# Key packing (compact concatenated key, Figure 5)
# --------------------------------------------------------------------------


def pack_columns(columns: list[np.ndarray], domains: list[ColumnDomain]) -> np.ndarray | None:
    """Pack several int64 columns into one stable int64 key, if they fit.

    Mirrors the paper's CCK: the concatenation of fixed-width attribute
    encodings *is* the key (and its own hash). Returns ``None`` when the
    combined bit width exceeds 63 bits; values outside their domain raise
    :class:`KeyPackingError`.
    """
    if not columns:
        raise ValueError("pack_columns requires at least one column")
    if len(domains) != len(columns):
        raise ValueError("pack_columns got mismatched domain count")
    codec = KeyCodec(domains)
    return codec.pack(columns) if codec.packable else None


class KeyCodec:
    """Domain-stable CCK encoder: fixed offsets, comparable across calls.

    A codec built once (domains registered in the catalog) assigns the
    same int64 code to the same tuple forever, which is what lets a
    persistent sorted-code index be *extended* with each iteration's Δ
    instead of rebuilt.
    """

    def __init__(self, domains: list[ColumnDomain]) -> None:
        if not domains:
            raise ValueError("KeyCodec requires at least one domain")
        self.domains: tuple[ColumnDomain, ...] = tuple(domains)
        self._bits = [domain.bits for domain in self.domains]
        self.total_bits = sum(self._bits)
        #: Single-column keys are the identity encoding: always stable.
        self.packable = len(self.domains) == 1 or self.total_bits <= MAX_PACK_BITS

    def fits(self, columns: list[np.ndarray]) -> bool:
        """True when every column stays inside its declared domain."""
        if len(columns) != len(self.domains):
            return False
        for domain, column in zip(self.domains, columns):
            if column.size == 0:
                continue
            if not domain.contains(int(column.min()), int(column.max())):
                return False
        return True

    @classmethod
    def observed(cls, *column_sets: list[np.ndarray]) -> "KeyCodec":
        """Codec over the tightest domains covering every given column set.

        One min/max scan per column; ``column_sets`` of equal width share
        one coordinate system (both sides of a join). Columns it was
        built from fit by construction, so they go through :meth:`encode`.
        """
        domains = [observed_domain(column) for column in column_sets[0]]
        for columns in column_sets[1:]:
            for position, column in enumerate(columns):
                other = observed_domain(column)
                domains[position] = domains[position].widened(other.low, other.high)
        return cls(domains)

    def pack(self, columns: list[np.ndarray]) -> np.ndarray:
        """Encode columns to stable codes; out-of-domain values raise."""
        if len(columns) == 1:
            return columns[0]
        if not self.packable:
            raise KeyPackingError(
                f"key needs {self.total_bits} bits, over the {MAX_PACK_BITS}-bit CCK limit"
            )
        if not self.fits(columns):
            raise KeyPackingError(
                "value outside the codec's declared column domains",
            )
        return self.encode(columns)

    def encode(self, columns: list[np.ndarray]) -> np.ndarray:
        """:meth:`pack` without the domain check, for columns known to fit."""
        if len(columns) == 1:
            return columns[0]
        key = np.zeros(columns[0].shape[0], dtype=np.int64)
        for column, bits, domain in zip(columns, self._bits, self.domains):
            key <<= np.int64(bits)
            key |= column - np.int64(domain.low)
        return key

    def decode(self, key: np.ndarray) -> np.ndarray:
        """Rows back out of their codes by shift/mask: the CCK is also the value."""
        if len(self.domains) == 1:
            return key.reshape(-1, 1)
        rows = np.empty((key.shape[0], len(self.domains)), dtype=np.int64)
        shift = self.total_bits
        for position, (bits, domain) in enumerate(zip(self._bits, self.domains)):
            shift -= bits
            rows[:, position] = ((key >> np.int64(shift)) & np.int64((1 << bits) - 1)) + np.int64(
                domain.low
            )
        return rows

    def pack_probe(self, columns: list[np.ndarray]) -> np.ndarray:
        """Encode probe-side columns, mapping out-of-domain rows to -1.

        Stable codes are non-negative, so a -1 probe never matches an
        indexed key — exactly the semantics of probing a hash table with
        a value that was never inserted.
        """
        if len(columns) == 1:
            return columns[0]
        if not self.packable:
            raise KeyPackingError(
                f"key needs {self.total_bits} bits, over the {MAX_PACK_BITS}-bit CCK limit"
            )
        if self.fits(columns):
            # Probes mostly come from the indexed relation's own domains:
            # one min/max per column is half the cost of clipping them.
            return self.encode(columns)
        n = columns[0].shape[0]
        key = np.zeros(n, dtype=np.int64)
        valid = np.ones(n, dtype=bool)
        for column, bits, domain in zip(columns, self._bits, self.domains):
            valid &= (column >= domain.low) & (column <= domain.high)
            clipped = np.clip(column, domain.low, domain.high)
            key <<= np.int64(bits)
            key |= clipped - np.int64(domain.low)
        key[~valid] = -1
        return key


def row_records(rows: np.ndarray) -> np.ndarray:
    """The rows of an ``(n, w)`` int64 matrix as ``n`` records.

    A structured view (one int64 field per column, no copy when ``rows``
    is contiguous) that sorts, searches and compares equal row by row in
    lexicographic signed order: the key of a row too wide to pack in an
    index kept across calls. NumPy has no ordering or ``out=`` comparison
    loop for records, so only ``np.sort``/``argsort``, ``searchsorted``,
    ``np.insert`` and ``==`` may see them.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    fields = np.dtype([(f"f{i}", np.int64) for i in range(rows.shape[1])])
    return rows.view(fields).reshape(-1)


def row_keys(*column_sets: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """One int64 key per row of equal-width column sets, in one shared space.

    Keys are equal exactly when rows are and sort in lexicographic
    (signed) row order: a single column is its own key, rows whose
    observed CCK packs get their codes, and wider rows their dense rank
    in the union. The rank is folded column by column; a dense rank
    times a distinct count stays below n², so every step packs. The
    ranks are ``np.unique(rows, axis=0, return_inverse=True)``'s, which
    the model's radix counts read.
    """
    if len(column_sets[0]) == 1:
        return tuple(columns[0] for columns in column_sets)
    codec = KeyCodec.observed(*column_sets)
    if codec.packable:
        return tuple(codec.encode(columns) for columns in column_sets)
    union = [np.concatenate(position) for position in zip(*column_sets)]
    _, key = np.unique(union[0], return_inverse=True)
    for column in union[1:]:
        values, rank = np.unique(column, return_inverse=True)
        _, key = np.unique(key * values.size + rank, return_inverse=True)
    return tuple(np.split(key, np.cumsum([columns[0].size for columns in column_sets[:-1]])))


def make_join_keys(
    left_columns: list[np.ndarray], right_columns: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Produce comparable int64 key columns for both sides of an equi-join.

    One domain scan and one pack per side: both sides are encoded in the
    per-position union of their observed domains.
    """
    if len(left_columns) != len(right_columns):
        raise ValueError("join key column counts differ")
    return row_keys(left_columns, right_columns)


# --------------------------------------------------------------------------
# Joins
# --------------------------------------------------------------------------


def equi_join_count(left_keys: np.ndarray, right_keys: np.ndarray) -> int:
    """Exact output cardinality of the equi-join, without materializing it."""
    if left_keys.size == 0 or right_keys.size == 0:
        return 0
    starts, ends = sorted_probe_range(left_keys, np.sort(right_keys))
    return int((ends - starts).sum())


def sort_index(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted_keys, sorted_positions)`` of a build side, by one stable argsort.

    The pair is what :func:`sorted_probe_range` and
    :func:`sorted_join_indices` consume, so a caller that needs the match
    count before the matches (the operators' OOM guard) sorts once.
    """
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def equi_join_indices(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Return aligned (left_index, right_index) arrays of all key matches.

    Sort-probe implementation with the same asymptotics as a hash join;
    the cost model, not this kernel, decides which side is "built".
    """
    sorted_right, order = sort_index(right_keys)
    starts, ends = sorted_probe_range(left_keys, sorted_right)
    return sorted_join_indices(starts, ends, order)


def _expand_match_runs(
    starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-probe [start, end) runs into aligned index pairs."""
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    left_index = np.repeat(np.arange(starts.size, dtype=np.int64), counts)
    # Positions within each run of matches, then offset by the run start.
    boundaries = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(boundaries - counts, counts)
    sorted_positions = np.repeat(starts, counts) + within
    return left_index, sorted_positions


# --------------------------------------------------------------------------
# Sorted-index probes (the join-state cache's kernels)
# --------------------------------------------------------------------------


def sorted_probe_range(
    probe_keys: np.ndarray, sorted_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-probe [start, end) match runs against an already sorted index."""
    starts = np.searchsorted(sorted_keys, probe_keys, side="left")
    ends = np.searchsorted(sorted_keys, probe_keys, side="right")
    return starts, ends


def sorted_join_indices(
    starts: np.ndarray, ends: np.ndarray, sorted_positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize (probe_index, table_position) pairs from probe runs.

    ``sorted_positions[i]`` is the table row that sorted key ``i`` came
    from, so no per-call argsort is needed — that is the entire point of
    keeping the index alive between iterations.
    """
    probe_index, run_positions = _expand_match_runs(starts, ends)
    if probe_index.size == 0:
        return probe_index, run_positions
    return probe_index, sorted_positions[run_positions]


def isin_sorted(probe_keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Membership mask of ``probe_keys`` against a sorted key array: one
    binary search per probe, then "is the key at the insertion point it"."""
    if sorted_keys.size == 0:
        return np.zeros(probe_keys.size, dtype=bool)
    slots = np.searchsorted(sorted_keys, probe_keys)
    np.minimum(slots, sorted_keys.size - 1, out=slots)
    return sorted_keys[slots] == probe_keys


def merge_sorted_index(
    sorted_keys: np.ndarray,
    sorted_positions: np.ndarray,
    new_keys: np.ndarray,
    new_positions: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge Δ's (keys, positions) into a sorted index — O(|F| + |Δ|).

    Appended rows are inserted after existing equal keys, keeping the
    within-key position order stable (matches what a full stable argsort
    over the grown table would produce).
    """
    if new_keys.size == 0:
        return sorted_keys, sorted_positions
    order = np.argsort(new_keys, kind="stable")
    new_keys = new_keys[order]
    new_positions = new_positions[order]
    if sorted_keys.size == 0:
        return new_keys, new_positions
    insert_at = np.searchsorted(sorted_keys, new_keys, side="right")
    merged_keys = np.insert(sorted_keys, insert_at, new_keys)
    merged_positions = np.insert(sorted_positions, insert_at, new_positions)
    return merged_keys, merged_positions


# --------------------------------------------------------------------------
# Radix partitioning
# --------------------------------------------------------------------------

#: Fibonacci-hashing multiplier (2^64 / φ): scrambles the key bits so the
#: top ``log2(P)`` bits spread skewed key ranges evenly across buckets.
_RADIX_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def radix_partition_ids(keys: np.ndarray, num_partitions: int) -> np.ndarray:
    """Bucket id per key, from the top bits of a multiplicative hash.

    ``num_partitions`` must be a positive power of two. Equal keys always
    land in the same bucket, so per-bucket private tables are exact.
    """
    if num_partitions < 1 or num_partitions & (num_partitions - 1):
        raise ValueError("num_partitions must be a positive power of two")
    if num_partitions == 1:
        return np.zeros(keys.shape[0], dtype=np.int64)
    # Reinterpret, don't convert: int64 -> uint64 wraps to the same bits.
    scrambled = np.ascontiguousarray(keys, dtype=np.int64).view(np.uint64) * _RADIX_MULTIPLIER
    scrambled >>= np.uint64(65 - num_partitions.bit_length())
    return scrambled.view(np.int64)


def radix_partition(keys: np.ndarray, num_partitions: int) -> np.ndarray:
    """Per-bucket row counts of scattering ``keys`` into radix buckets.

    The scatter itself is *modeled*, not executed: the counts feed the
    sim clock's one-task-per-bucket phases (a skewed scatter still shows
    its straggler), while the host runs the one shared kernel — on a
    single thread a per-bucket loop only added an argsort.
    """
    return np.bincount(
        radix_partition_ids(keys, num_partitions), minlength=num_partitions
    )


# --------------------------------------------------------------------------
# Semi/anti joins
# --------------------------------------------------------------------------


def semi_join_mask(left_keys: np.ndarray, right_keys: np.ndarray) -> np.ndarray:
    """Boolean mask of left rows whose key appears in ``right_keys``.

    A dense right side (key range within 6x the input sizes, NumPy's own
    threshold) is answered from a lookup table; a sparser one is sorted
    and probed in ascending left order — never ``np.isin``'s default,
    which hash-uniques the larger side.
    """
    left, right = np.asarray(left_keys), np.asarray(right_keys)
    if left.size == 0 or right.size == 0:
        return np.zeros(left.size, dtype=bool)
    if int(right.max()) - int(right.min()) <= 6 * (left.size + right.size):
        return np.isin(left, right, kind="table")
    sorted_right = np.sort(right)
    if np.all(left[1:] >= left[:-1]):
        return isin_sorted(left, sorted_right)
    order = np.argsort(left)
    mask = np.empty(left.size, dtype=bool)
    mask[order] = isin_sorted(left[order], sorted_right)
    return mask


def anti_join_mask(left_keys: np.ndarray, right_keys: np.ndarray) -> np.ndarray:
    """Boolean mask of left rows whose key does NOT appear in ``right_keys``."""
    return ~semi_join_mask(left_keys, right_keys)


# --------------------------------------------------------------------------
# Deduplication
# --------------------------------------------------------------------------


def unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows, in lexicographic order.

    Packable rows never leave the compact key: one domain scan, one
    pack, sort, drop adjacent duplicates, decode. Wider rows land at
    their dense :func:`row_keys` rank. Never aliases ``rows``.
    """
    if rows.shape[0] == 0:
        return rows.copy()
    columns = [rows[:, i] for i in range(rows.shape[1])]
    codec = KeyCodec.observed(columns)
    if codec.packable:
        return codec.decode(sorted_distinct(codec.encode(columns)))
    (ranks,) = row_keys(columns)
    distinct = np.empty((int(ranks.max()) + 1, rows.shape[1]), dtype=rows.dtype)
    distinct[ranks] = rows
    return distinct


def sorted_distinct(key: np.ndarray) -> np.ndarray:
    """Distinct values of a key column, ascending."""
    key = np.sort(key)
    keep = np.empty(key.shape[0], dtype=bool)
    keep[:1] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    return key[keep]


def _distinct_left_keys(left: np.ndarray, right: np.ndarray):
    """``(distinct left keys, right keys, rows_of)`` in one shared code space.

    One domain scan and one encode per side; ``rows_of(mask)`` decodes
    the selected left keys back to rows, in row order. Rows too wide to
    pack are keyed by their :func:`row_keys` ranks.
    """
    left_cols = [left[:, i] for i in range(left.shape[1])]
    right_cols = [right[:, i] for i in range(right.shape[1])]
    codec = KeyCodec.observed(left_cols, right_cols)
    if codec.packable:
        left_keys = sorted_distinct(codec.encode(left_cols))
        return left_keys, codec.encode(right_cols), lambda mask: codec.decode(left_keys[mask])
    distinct = unique_rows(left)
    left_keys, right_keys = row_keys(list(distinct.T), right_cols)
    return left_keys, right_keys, lambda mask: distinct[mask]


def rows_difference(new_rows: np.ndarray, existing_rows: np.ndarray) -> np.ndarray:
    """Set difference ``new_rows - existing_rows``: distinct, in row order,
    never leaving the key domain between the domain scan and the decode."""
    new_keys, existing_keys, rows_of = _distinct_left_keys(new_rows, existing_rows)
    return rows_of(anti_join_mask(new_keys, existing_keys))


def rows_intersection(
    left: np.ndarray, right: np.ndarray, mark_right: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Distinct rows appearing in both matrices (TPSD's first phase).

    With ``mark_right`` also returns the mask of ``right`` rows that are
    in the intersection, from the keys already packed — the rows a delete
    must drop.
    """
    left_keys, right_keys, rows_of = _distinct_left_keys(left, right)
    hit = semi_join_mask(left_keys, right_keys)
    if mark_right:
        return rows_of(hit), semi_join_mask(right_keys, left_keys[hit])
    return rows_of(hit)


# --------------------------------------------------------------------------
# Grouped aggregation
# --------------------------------------------------------------------------

_REDUCERS = {
    "MIN": np.minimum,
    "MAX": np.maximum,
    "SUM": np.add,
}


def group_aggregate(
    group_columns: list[np.ndarray],
    agg_specs: list[tuple[str, np.ndarray]],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Grouped aggregation.

    Args:
        group_columns: key columns (may be empty for global aggregates).
        agg_specs: (func, value_column) pairs; func in MIN/MAX/SUM/COUNT/AVG.

    Returns:
        (group_key_matrix, [aggregate columns...]) with one row per group.
    """
    if group_columns:
        n = group_columns[0].shape[0]
    elif agg_specs:
        n = agg_specs[0][1].shape[0]
    else:
        raise ValueError("group_aggregate needs at least one column")

    if not group_columns:
        keys = np.empty((1, 0), dtype=np.int64)
        outputs: list[np.ndarray] = []
        for func, values in agg_specs:
            outputs.append(np.asarray([_global_aggregate(func, values)], dtype=np.int64))
        return keys, outputs

    if n == 0:
        return np.empty((0, len(group_columns)), dtype=np.int64), [
            np.empty(0, dtype=np.int64) for _ in agg_specs
        ]

    key_matrix = np.column_stack(group_columns)
    (keys,) = row_keys(group_columns)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    group_starts = np.flatnonzero(np.append(True, sorted_keys[1:] != sorted_keys[:-1]))
    group_keys = key_matrix[order][group_starts]
    counts = np.diff(np.append(group_starts, n))

    outputs = []
    for func, values in agg_specs:
        sorted_values = values[order]
        if func == "COUNT":
            outputs.append(counts.astype(np.int64))
        elif func == "AVG":
            sums = np.add.reduceat(sorted_values, group_starts)
            outputs.append((sums // counts).astype(np.int64))
        else:
            reducer = _REDUCERS[func]
            outputs.append(reducer.reduceat(sorted_values, group_starts).astype(np.int64))
    return group_keys, outputs


def _global_aggregate(func: str, values: np.ndarray) -> int:
    if func == "COUNT":
        return int(values.shape[0])
    if values.shape[0] == 0:
        raise ValueError(f"{func} over empty input has no value")
    if func == "MIN":
        return int(values.min())
    if func == "MAX":
        return int(values.max())
    if func == "SUM":
        return int(values.sum())
    if func == "AVG":
        return int(values.sum() // values.shape[0])
    raise ValueError(f"unknown aggregate {func!r}")
