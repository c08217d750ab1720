"""The iteration-persistent join-state cache.

Semi-naive evaluation re-joins Δ against the *full* relations every
iteration, and full tables only ever grow (append-only) between the
iterations of a stratum. This module exploits that: the packed-key index
over a full-side join input — stable CCK codes (or a
:class:`~repro.engine.kernels.RowDictionary` when the key is too wide to
pack) kept sorted alongside the originating row positions — is built
once, then *extended* with each iteration's Δ slice instead of rebuilt.
Per-iteration build cost becomes proportional to |Δ|, not |full|; the
whole-row index ``Δ = R_Δ - R`` anti-probes keeps each Δ as a sorted run,
or one bit per code once R fills enough of its codec's code space.

Validity is proven with the table's ``epoch`` counter (bumped on
rewrites, not appends): an entry whose epoch no longer matches describes
a previous generation of the table and is evicted. Stratum boundaries
invalidate everything (working tables are dropped); a checkpoint resume
rehydrates the full-table entries so the resumed run joins at cached
speed from its first iteration.

Everything is metered: index builds/extensions are reported to the cost
model on the rows indexed, the resident index bytes go into the memory
ledger as base (not transient) memory, and every acquire outcome bumps a
``join_cache.*`` counter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import kernels
from repro.engine.executor import index_bytes
from repro.storage.stats import ColumnDomain, observed_domain

#: acquire() outcome → counter name.
COUNTER_HIT = "join_cache.hit"
COUNTER_MISS = "join_cache.miss"
COUNTER_EXTEND = "join_cache.extend"
COUNTER_EVICT = "join_cache.evict"
COUNTER_EXTEND_ROWS = "join_cache.extend_rows"

#: A whole-row entry whose code space is at most this many codes per
#: indexed row keeps a bitmap: one bit per code then never holds more
#: host bytes than the int64 runs it replaces.
DENSE_CODES_PER_ROW = 64


@dataclass
class JoinIndexEntry:
    """A persistent sorted-code index over one table's key columns."""

    table: str
    key_columns: tuple[str, ...]
    #: Exactly one of codec/dictionary is set: packable keys use the
    #: domain-stable CCK codec, wide keys the incremental row dictionary.
    codec: kernels.KeyCodec | None
    dictionary: kernels.RowDictionary | None
    #: Ascending code arrays whose union is the indexed keys: one, aligned
    #: with ``sorted_positions``, for a join key; for a whole-row entry (the
    #: index cached OPSD anti-probes) one immutable run per size tier of
    #: appended Δs — at most log2(rows) + 1 — and no positions (no runs
    #: at all while ``bitmap`` answers membership).
    runs: list[np.ndarray]
    sorted_positions: np.ndarray | None
    rows_indexed: int
    epoch: int
    #: ``table.version`` at the last build/extend/hit. Backstop for the
    #: epoch check: a mutation that preserves the epoch and the row count
    #: (an in-place rewrite that slipped past ``replace_contents``) still
    #: bumps ``version``, and a same-size entry whose synced version no
    #: longer matches is describing different rows — evict, don't hit.
    synced_version: int = -1
    #: A whole-row entry over a dense packed code space (see
    #: :func:`_is_dense`) answers from one bit per code instead of runs:
    #: ``np.packbits(..., bitorder="little")`` of the indexed codes.
    bitmap: np.ndarray | None = None

    def contains(self, codes: np.ndarray) -> np.ndarray:
        """Membership mask of probe ``codes`` in the indexed keys."""
        if self.bitmap is not None:
            # A -1 probe gathers the last byte; the sign test discards it.
            bits = (self.bitmap[codes >> 3] >> (codes & 7)) & 1
            return (bits != 0) & (codes >= 0)
        mask = np.zeros(codes.shape[0], dtype=bool)
        for run in self.runs:
            mask |= kernels.isin_sorted(codes, run)
        return mask

    def flat_index(self, table) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted codes, table positions)`` for a join probe; a whole-row
        entry builds the pair on demand and the next extend drops it."""
        if self.sorted_positions is None:
            rows = table.data()[: self.rows_indexed]
            codes = self.probe_codes([rows[:, i] for i in range(rows.shape[1])])
            order = np.argsort(codes, kind="stable")
            self.runs, self.sorted_positions = [codes[order]], order
        return self.runs[0], self.sorted_positions

    def memory_bytes(self) -> int:
        total = index_bytes(self.rows_indexed)
        if self.dictionary is not None:
            total += self.dictionary.memory_bytes()
        return total

    def probe_codes(self, columns: list[np.ndarray]) -> np.ndarray:
        """Encode probe-side key columns into this index's code space.

        Probe values the index has never seen map to codes that match
        nothing (CCK: out-of-domain → -1; dictionary: transient codes
        beyond every stored one), so probing is always safe.
        """
        if self.dictionary is not None:
            matrix = (
                np.column_stack(columns)
                if columns[0].shape[0]
                else np.empty((0, len(columns)), dtype=np.int64)
            )
            return self.dictionary.encode(matrix, extend=False)
        return self.codec.pack_probe(columns)


class JoinStateCache:
    """(table, key columns) → :class:`JoinIndexEntry`, epoch-validated."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._entries: dict[tuple[str, tuple[str, ...]], JoinIndexEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def memory_bytes(self) -> int:
        return sum(entry.memory_bytes() for entry in self._entries.values())

    def extension_estimate(self, catalog, table_name: str, key_columns) -> int:
        """Rows an acquire would have to index right now (0 = pure hit).

        The optimizer's build-cost input for a cached join: a valid entry
        costs only the un-indexed tail, a missing/invalid one the whole
        table.
        """
        table = catalog.get_table(table_name)
        entry = self._entries.get((table_name, tuple(key_columns)))
        if entry is None or self._is_stale(entry, table):
            return table.num_rows
        return table.num_rows - entry.rows_indexed

    def acquire(self, ctx, table_name: str, key_columns) -> tuple[JoinIndexEntry, str]:
        """Return a valid index for (table, key columns), building/extending
        as needed; the second element is the outcome ("hit", "miss",
        "extend", "rebuild") for span attribution.
        """
        table = ctx.catalog.get_table(table_name)
        key = (table_name, tuple(key_columns))
        counters = ctx.profiler.counters
        entry = self._entries.get(key)
        rebuilt = False
        if entry is not None and self._is_stale(entry, table):
            counters.inc(COUNTER_EVICT)
            del self._entries[key]
            entry = None
            rebuilt = True
        if entry is None:
            entry = self._build(ctx, table, key[1])
            self._entries[key] = entry
            counters.inc(COUNTER_MISS)
            event = "rebuild" if rebuilt else "miss"
        elif entry.rows_indexed < table.num_rows:
            extended = self._extend(ctx, table, entry)
            if extended:
                counters.inc(COUNTER_EXTEND)
                event = "extend"
            else:
                # Δ escaped the codec's domains: rebuild with wider ones.
                counters.inc(COUNTER_EVICT)
                entry = self._build(ctx, table, key[1])
                self._entries[key] = entry
                counters.inc(COUNTER_MISS)
                event = "rebuild"
        else:
            counters.inc(COUNTER_HIT)
            event = "hit"
        self._refresh_base(ctx)
        return entry, event

    @staticmethod
    def _is_stale(entry: JoinIndexEntry, table) -> bool:
        """True when the entry describes a previous generation of the table.

        An epoch mismatch or a shrink is a rewrite; the version backstop
        catches in-place rewrites that preserved both the epoch and the
        row count (rows_indexed == num_rows but the table mutated since
        the entry last synced — growth is fine, that's the extend path).
        """
        return (
            entry.epoch != table.epoch
            or entry.rows_indexed > table.num_rows
            or (
                entry.rows_indexed == table.num_rows
                and entry.synced_version != table.version
            )
        )

    def invalidate_all(self) -> int:
        """Drop every entry (stratum boundary); returns the eviction count."""
        evicted = len(self._entries)
        self._entries.clear()
        return evicted

    def note_rewrite(self, table_name: str) -> int:
        """Evict entries of a rewritten/dropped table; returns the count.

        The epoch check in :meth:`acquire` would catch these lazily; the
        eager eviction releases the modeled index memory immediately.
        """
        stale = [key for key in self._entries if key[0] == table_name]
        for key in stale:
            del self._entries[key]
        return len(stale)

    # -- internals ---------------------------------------------------------

    def _refresh_base(self, ctx) -> None:
        # Index state is resident, not transient: it survives the call.
        ctx.model.metrics.set_base_bytes(
            ctx.catalog.total_memory_bytes() + self.memory_bytes()
        )

    def _key_matrix(self, data: np.ndarray, indices: list[int]) -> np.ndarray:
        if data.shape[0] == 0:
            return np.empty((0, len(indices)), dtype=np.int64)
        if indices == list(range(data.shape[1])):
            return data  # a whole-row key is the (read-only) rows themselves
        return np.ascontiguousarray(data[:, indices])

    def _codec_for(self, ctx, table, columns: list[np.ndarray], names) -> kernels.KeyCodec:
        domains: list[ColumnDomain] = []
        for name, column in zip(names, columns):
            observed = observed_domain(column)
            domains.append(
                ctx.catalog.widen_domain(table.name, name, observed.low, observed.high)
            )
        return kernels.KeyCodec(_with_headroom(domains))

    def _build(self, ctx, table, key_columns: tuple[str, ...]) -> JoinIndexEntry:
        indices = [table.column_index(name) for name in key_columns]
        columns_matrix = self._key_matrix(table.data(), indices)
        columns = [columns_matrix[:, i] for i in range(columns_matrix.shape[1])]
        n = table.num_rows
        ctx.model.index_build(n)
        codec = self._codec_for(ctx, table, columns, key_columns)
        dictionary = None
        if codec.packable:
            codes = codec.pack(columns)
        else:
            codec = None
            dictionary = kernels.RowDictionary(len(key_columns))
            codes = dictionary.encode(columns_matrix, extend=True)
        whole_row = key_columns == table.column_names
        bitmap = runs = order = None
        if whole_row and _is_dense(codec, n):
            bitmap, runs = _bitmap_of(codes, 1 << codec.total_bits), []
        elif whole_row:
            runs = [np.sort(codes)]
        else:
            order = np.argsort(codes, kind="stable")
            runs = [codes[order]]
        return JoinIndexEntry(
            table=table.name,
            key_columns=key_columns,
            codec=codec,
            dictionary=dictionary,
            runs=runs,
            sorted_positions=order,
            rows_indexed=n,
            epoch=table.epoch,
            synced_version=table.version,
            bitmap=bitmap,
        )

    def _extend(self, ctx, table, entry: JoinIndexEntry) -> bool:
        """Index the appended tail; False when the codec must be rebuilt."""
        indices = [table.column_index(name) for name in entry.key_columns]
        # tail_data never faults in a spilled prefix: appends land in the
        # resident region, so the un-indexed tail is in memory by
        # construction and a cold spilled table can stay on disk.
        tail = table.tail_data(entry.rows_indexed)
        tail_matrix = self._key_matrix(tail, indices)
        columns = [tail_matrix[:, i] for i in range(tail_matrix.shape[1])]
        new_rows = tail_matrix.shape[0]
        # One min/max scan per column answers both "does Δ fit the codec"
        # and "how far do the catalog's domains widen".
        observed = [observed_domain(column) for column in columns] if new_rows else []
        if entry.codec is not None and not all(
            domain.contains(seen.low, seen.high)
            for domain, seen in zip(entry.codec.domains, observed)
        ):
            return False
        for name, seen in zip(entry.key_columns, observed):
            ctx.catalog.widen_domain(table.name, name, seen.low, seen.high)
        ctx.model.index_build(new_rows)
        ctx.profiler.counters.inc(COUNTER_EXTEND_ROWS, new_rows)
        if entry.codec is not None:
            codes = entry.codec.encode(columns)
        else:
            codes = entry.dictionary.encode(tail_matrix, extend=True)
        bitmap = entry.bitmap
        if bitmap is not None:
            # Setting bits is idempotent, so doing it in place keeps a
            # retried statement's view consistent; the flat index a join
            # built on demand is dropped as for runs.
            _set_bits(bitmap, codes)
            runs, positions = [], None
        elif entry.key_columns == table.column_names and _is_dense(entry.codec, table.num_rows):
            bitmap = _bitmap_of(np.concatenate(entry.runs + [codes]), 1 << entry.codec.total_bits)
            runs, positions = [], None
        elif entry.key_columns == table.column_names:
            # The appended Δ is a run; merge the newest two while the older
            # is at most twice the newer: R is re-sorted O(log |R|) times
            # over a stratum, not rewritten once per iteration.
            runs, positions = entry.runs + [np.sort(codes)], None
            while len(runs) > 1 and runs[-2].size <= 2 * runs[-1].size:
                newer = runs.pop()
                runs[-1] = np.sort(np.concatenate([runs[-1], newer]), kind="stable")
        else:
            tail_positions = np.arange(entry.rows_indexed, table.num_rows, dtype=np.int64)
            merged, positions = kernels.merge_sorted_index(
                entry.runs[0], entry.sorted_positions, codes, tail_positions
            )
            runs = [merged]
        # Mutated last: a retried statement sees the old entry or the
        # extended one, never half an extend.
        entry.runs, entry.sorted_positions, entry.bitmap = runs, positions, bitmap
        entry.rows_indexed = table.num_rows
        entry.synced_version = table.version
        return True


def _is_dense(codec: kernels.KeyCodec | None, rows: int) -> bool:
    """True when a whole-row entry over ``rows`` rows should be a bitmap.

    Only multi-column packed codes are bounded by the codec's space (a
    single-column code is the raw value, a dictionary's codes are not
    positional).
    """
    return (
        codec is not None
        and len(codec.domains) > 1
        and 1 << codec.total_bits <= DENSE_CODES_PER_ROW * rows
    )


def _bitmap_of(codes: np.ndarray, space: int) -> np.ndarray:
    """Packed little-endian bitmap of ``codes`` over ``[0, space)``."""
    bitmap = np.zeros((space + 7) >> 3, dtype=np.uint8)
    _set_bits(bitmap, codes)
    return bitmap


def _set_bits(bitmap: np.ndarray, codes: np.ndarray) -> None:
    """Set ``codes``' bits in ``bitmap`` in place.

    ``bitwise_or.at`` works per code: O(|codes|) time and host bytes, never
    a transient the size of the code space.
    """
    np.bitwise_or.at(bitmap, codes >> 3, np.left_shift(1, codes & 7).astype(np.uint8))


def _with_headroom(domains: list[ColumnDomain]) -> list[ColumnDomain]:
    """Pad each domain by one bit of growth slack when the key still fits.

    Later iterations often derive values slightly outside the first
    iteration's observed range; the slack absorbs that growth without a
    codec rebuild. Padding is skipped when it would push the key over the
    63-bit CCK limit.
    """
    padded = [
        ColumnDomain(domain.low, domain.high + (domain.high - domain.low) + 1)
        for domain in domains
    ]
    if sum(domain.bits for domain in padded) <= kernels.MAX_PACK_BITS:
        return padded
    return domains
