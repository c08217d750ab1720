"""Set-difference strategies: OPSD and TPSD (paper Appendix A).

Semi-naive evaluation computes ``delta = R_delta - R`` at every iteration
of every IDB. The two SQL translations differ in what gets hashed:

* **OPSD** (one-phase): build a hash table on the full recursive relation
  ``R`` and anti-probe with ``R_delta``. Build cost grows with ``|R|``
  every iteration.
* **TPSD** (two-phase): hash the *smaller* of the two inputs to compute
  the intersection ``r``, then hash ``r`` and anti-probe ``R_delta``.
  More operators, but never builds on the (monotonically growing) ``R``.

Both return exactly ``set(R_delta) - set(R)``; the DSD policy in
``repro.core.setdiff_policy`` picks between them per iteration.

Cost accounting is *honest* about the standalone operator the clock
models: every phase charges for the rows it would touch. Both strategies
sort-unique ``R_delta`` up front (charged as a lean dedup even when the
host skips it because ``dedup_table`` just marked the input distinct),
and every probe phase is charged on the deduplicated row count it really
probes — the DSD policy and the appendix benchmark consume these
numbers. When the execution context enables radix partitioning, the
hash-heavy phases may be *charged* as scatter + per-bucket private
tables; the host runs the one shared kernel either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import kernels
from repro.engine.dedup import COST_DEDUP_LEAN, LEAN_INDEX_BYTES
from repro.engine.executor import (
    BUILD_PHASE,
    COST_BUILD,
    COST_PARTITION,
    COST_PROBE,
    DEDUP_PHASE,
    PARTITION_PHASE,
    PARTITIONED_BUILD_PHASE,
    PARTITIONED_PROBE_PHASE,
    PROBE_PHASE,
)
from repro.engine.operators import (
    HASH_ENTRY_OVERHEAD,
    PARTITION_SCRATCH_BYTES,
    ExecutionContext,
)
from repro.engine.optimizer import partitioned_join_decision


@dataclass(frozen=True)
class SetDifferenceOutcome:
    delta: np.ndarray
    strategy: str
    intersection_size: int | None  # TPSD only


def _keys_for(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    left_cols = [left[:, i] for i in range(left.shape[1])]
    right_cols = [right[:, i] for i in range(right.shape[1])]
    return kernels.make_join_keys(left_cols, right_cols)


def _unique_delta(new_rows: np.ndarray, ctx: ExecutionContext, distinct: bool) -> np.ndarray:
    """Distinct ``R_delta`` as a fresh array, charged as a sort-unique.

    The charge is the lean dedup's (a sort + adjacent-unique sweep with
    the sort's index array as its transient) and is paid regardless of
    ``distinct``: the clock models the standalone operator. The host
    skips the sort when the table generation is already distinct, but
    still copies — the delta outlives ``new_rows``' table buffer.
    """
    n_rows = new_rows.shape[0]
    if n_rows:
        sort_bytes = n_rows * LEAN_INDEX_BYTES
        ctx.metrics.allocate_transient(sort_bytes)
        ctx.charge_parallel(DEDUP_PHASE, n_rows * COST_DEDUP_LEAN, n_rows)
        ctx.metrics.release_transient(sort_bytes)
    return new_rows.copy() if distinct else kernels.unique_rows(new_rows)


def _semi_mask(
    left: np.ndarray,
    right: np.ndarray,
    build_rows: int,
    probe_rows: int,
    ctx: ExecutionContext,
    phase_label: str,
) -> np.ndarray:
    """Membership mask of ``left`` rows in ``right``, charged build+probe.

    The hash-heavy core both strategies share. ``build_rows``/
    ``probe_rows`` say which side the strategy hashes (OPSD builds on
    ``right`` = R; TPSD phase 1 builds on the smaller side) — the kernel
    work is symmetric, only the charge differs. With partitioning
    enabled and worth it, the charge is a radix scatter of both sides
    plus one private build/probe task per bucket.
    """
    transient = build_rows * (8 + HASH_ENTRY_OVERHEAD)
    left_keys, right_keys = _keys_for(left, right)
    scatter_rows = left.shape[0] + right.shape[0]
    scratch_bytes = scatter_rows * PARTITION_SCRATCH_BYTES
    partitioned = False
    if ctx.partitions and left_keys.size and right_keys.size:
        choice = partitioned_join_decision(
            ctx.cost_model, ctx.partitions, build_rows, probe_rows
        )
        partitioned = choice.partitioned and ctx.partition_scratch_ok(
            transient + scratch_bytes
        )
    if partitioned:
        left_counts = kernels.radix_partition(left_keys, ctx.partitions)
        right_counts = kernels.radix_partition(right_keys, ctx.partitions)
        # The build side's per-bucket counts scale the build tasks; the
        # probe side's scale the probes (mirrors the shared charges).
        if build_rows == left.shape[0]:
            build_counts, probe_counts = left_counts, right_counts
        else:
            build_counts, probe_counts = right_counts, left_counts
        transient += scratch_bytes
        ctx.metrics.allocate_transient(transient)
        ctx.charge_parallel(PARTITION_PHASE, scatter_rows * COST_PARTITION, scatter_rows)
        ctx.charge_partitioned_tasks(PARTITIONED_BUILD_PHASE, build_counts * COST_BUILD)
        ctx.charge_partitioned_tasks(PARTITIONED_PROBE_PHASE, probe_counts * COST_PROBE)
        ctx.profiler.counters.inc("partition.setdiff_runs")
        ctx.profiler.counters.inc("partition.scatter_rows", scatter_rows)
        ctx.profiler.counters.inc(f"partition.setdiff_{phase_label}")
    else:
        ctx.metrics.allocate_transient(transient)
        ctx.charge_parallel(BUILD_PHASE, build_rows * COST_BUILD, build_rows)
        ctx.charge_parallel(PROBE_PHASE, probe_rows * COST_PROBE, probe_rows)
    mask = kernels.semi_join_mask(left_keys, right_keys)
    ctx.metrics.release_transient(transient)
    return mask


def one_phase_set_difference(
    new_rows: np.ndarray,
    existing_rows: np.ndarray,
    ctx: ExecutionContext,
    cache_entry=None,
    build_rows: int | None = None,
    new_distinct: bool = False,
) -> SetDifferenceOutcome:
    """OPSD: hash ``existing_rows`` (R), anti-probe with ``new_rows``.

    With a ``cache_entry`` (a whole-row ``JoinIndexEntry`` over R from
    the join-state cache) the per-iteration hash build over all of R
    disappears: the index build/extension was charged by the cache (on
    the appended rows only), so this call pays the sort-unique of
    ``R_delta`` plus the anti-probe alone — the cost that made OPSD lose
    to TPSD on late iterations.

    ``build_rows`` overrides R's row count. The cached path never reads
    R's row *content* — only its size — so a caller holding a spilled
    table can pass the resident tail plus the true logical count and the
    on-disk prefix stays on disk.
    """
    if build_rows is None:
        build_rows = existing_rows.shape[0]
    new_unique = _unique_delta(new_rows, ctx, new_distinct)
    probe_rows = new_unique.shape[0]
    if cache_entry is not None:
        probe_bytes = probe_rows * 8
        ctx.metrics.allocate_transient(probe_bytes)
        # Anti-probing the read-only sorted index is position-chunkable
        # (independent binary searches) — no shared table to contend on.
        ctx.charge_index_pass(
            PROBE_PHASE, PARTITIONED_PROBE_PHASE, probe_rows * COST_PROBE, probe_rows
        )
        if build_rows == 0 or probe_rows == 0:
            delta = new_unique
        else:
            columns = [new_unique[:, i] for i in range(new_unique.shape[1])]
            probe_codes = cache_entry.probe_codes(columns)
            delta = new_unique[
                ~kernels.isin_sorted(probe_codes, cache_entry.sorted_codes)
            ]
        ctx.metrics.release_transient(probe_bytes)
        return SetDifferenceOutcome(delta=delta, strategy="OPSD", intersection_size=None)
    if build_rows == 0:
        delta = new_unique
    else:
        mask = _semi_mask(
            new_unique, existing_rows, build_rows, probe_rows, ctx, "opsd"
        )
        delta = new_unique[~mask]
    return SetDifferenceOutcome(delta=delta, strategy="OPSD", intersection_size=None)


def streaming_two_phase_set_difference(
    new_rows: np.ndarray,
    base_chunks,
    ctx: ExecutionContext,
    new_distinct: bool = False,
) -> SetDifferenceOutcome:
    """TPSD over a base relation streamed in chunks (spilled tables).

    ``base_chunks`` yields row arrays whose concatenation is R — spilled
    segments read back one at a time (the producer charges the read I/O
    and a bounded per-chunk transient) followed by the resident tail.
    Phase 1 ORs the per-chunk membership masks: a row of ``R_delta`` is
    in R iff it is in some chunk, and every mask indexes the same
    ``new_unique`` array, so the intersection — and therefore the final
    delta — is bit-identical to the non-streamed TPSD. R itself is never
    materialized in memory at once.
    """
    new_unique = _unique_delta(new_rows, ctx, new_distinct)
    n_unique = new_unique.shape[0]

    if n_unique == 0:
        return SetDifferenceOutcome(
            delta=new_unique, strategy="TPSD", intersection_size=0
        )

    # Phase 1: r = R_delta ∩ R, one bounded chunk of R at a time.
    mask = np.zeros(n_unique, dtype=bool)
    for chunk in base_chunks:
        rows = chunk.shape[0]
        if rows == 0:
            continue
        mask |= _semi_mask(
            new_unique,
            chunk,
            min(n_unique, rows),
            max(n_unique, rows),
            ctx,
            "tpsd_intersect",
        )
    intersection = new_unique[mask]

    # Phase 2: delta = R_delta - r, building on (the usually tiny) r.
    r_rows = intersection.shape[0]
    if r_rows == 0:
        delta = new_unique
    else:
        subtract_mask = _semi_mask(
            new_unique, intersection, r_rows, n_unique, ctx, "tpsd_subtract"
        )
        delta = new_unique[~subtract_mask]
    return SetDifferenceOutcome(delta=delta, strategy="TPSD", intersection_size=r_rows)


def two_phase_set_difference(
    new_rows: np.ndarray,
    existing_rows: np.ndarray,
    ctx: ExecutionContext,
    new_distinct: bool = False,
) -> SetDifferenceOutcome:
    """TPSD: intersect hashing the smaller side, then subtract the intersection."""
    n_old = existing_rows.shape[0]
    new_unique = _unique_delta(new_rows, ctx, new_distinct)
    n_unique = new_unique.shape[0]

    # Phase 1: r = R_delta ∩ R, building on the smaller input.
    if n_old == 0 or n_unique == 0:
        intersection = new_unique[:0]
    else:
        mask = _semi_mask(
            new_unique,
            existing_rows,
            min(n_unique, n_old),
            max(n_unique, n_old),
            ctx,
            "tpsd_intersect",
        )
        intersection = new_unique[mask]

    # Phase 2: delta = R_delta - r, building on (the usually tiny) r.
    r_rows = intersection.shape[0]
    if r_rows == 0:
        delta = new_unique
    else:
        mask = _semi_mask(
            new_unique, intersection, r_rows, n_unique, ctx, "tpsd_subtract"
        )
        delta = new_unique[~mask]
    return SetDifferenceOutcome(delta=delta, strategy="TPSD", intersection_size=r_rows)
