"""Deduplication: the FAST-DEDUP (CCK-GSCHT) path and the generic path.

Section 5.2 / Figure 5: RecStep deduplicates with a global separate-
chaining hash table over a Compact Concatenated Key — the fixed-width
concatenation of the tuple's attributes is simultaneously the key, the
value, and the hash. That removes the per-entry <key,value> pair and the
hash computation of a generic table.

Both paths produce identical sets; they differ in modeled cost and
transient memory, which is what the Figure 2/3 ablation measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import kernels
from repro.engine.executor import (
    COST_DEDUP_FAST,
    COST_DEDUP_SLOW,
    COST_PARTITION,
    DEDUP_PHASE,
    PARTITION_PHASE,
    PARTITIONED_DEDUP_PHASE,
)
from repro.engine.operators import PARTITION_SCRATCH_BYTES, ExecutionContext
from repro.engine.optimizer import partitioned_dedup_decision

#: Generic hash table per-entry overhead: 8-byte hash + 16-byte kv pointer.
GENERIC_ENTRY_OVERHEAD = 24
#: CCK bucket array entry: one pointer per pre-allocated bucket.
CCK_BUCKET_BYTES = 8
#: Per-tuple cost of the memory-lean sort path: an in-place sort plus an
#: adjacent-unique sweep. Slower than either hash path, but its only
#: transient is the permutation index array (``n * 8`` bytes) — no bucket
#: array, no entry overhead. This is the degradation ladder's first rung.
COST_DEDUP_LEAN = 2.2e-6
LEAN_INDEX_BYTES = 8


@dataclass(frozen=True)
class DedupOutcome:
    rows: np.ndarray
    input_rows: int
    output_rows: int
    used_compact_key: bool
    partitioned: bool = False


def plan_transient(
    n: int,
    width: int,
    fast: bool = True,
    estimated_rows: int | None = None,
    packable: bool = True,
    lean: bool = False,
    partitioned: bool = False,
) -> int:
    """The single sizing rule for dedup transients (pre-flight == actual).

    ``deduplicate`` and the degradation pre-flight both call this, so the
    controller's headroom check sees exactly the bytes the ledger will be
    charged. ``packable`` matters: a wide tuple silently degrades the
    CCK path to the generic one, whose per-entry overhead is far larger —
    a pre-flight assuming the compact layout would under-report it.
    ``partitioned`` adds the radix scatter buffers on top of the bucket
    tables (same total entries, just spread over private per-bucket
    structures).
    """
    if lean:
        return n * LEAN_INDEX_BYTES
    buckets = max(16, n if estimated_rows is None else estimated_rows)
    if fast and packable:
        base = max(n, buckets) * CCK_BUCKET_BYTES + n * 8
    else:
        tuple_bytes = width * 8 if n else 8
        base = max(n, buckets) * 8 + n * (GENERIC_ENTRY_OVERHEAD + tuple_bytes)
    if partitioned:
        base += n * PARTITION_SCRATCH_BYTES
    return base


def row_codec(rows: np.ndarray) -> kernels.KeyCodec:
    """The CCK codec for ``rows`` — the one domain scan a dedup pays.

    ``codec.packable`` says whether the fast path applies; the pre-flight,
    the plan and the kernel all share this one codec.
    """
    return kernels.KeyCodec.observed([rows[:, i] for i in range(rows.shape[1])])


def planned_transient_bytes(
    n: int,
    width: int,
    fast: bool = True,
    estimated_rows: int | None = None,
    packable: bool = True,
) -> int:
    """Transient bytes the hash dedup paths would allocate for ``n`` rows.

    The degradation controller uses this pre-flight: if the planned
    allocation would itself breach the soft watermark, dedup switches to
    the lean sort path before touching the clock or the memory ledger.
    """
    return plan_transient(n, width, fast=fast, estimated_rows=estimated_rows, packable=packable)


def deduplicate(
    rows: np.ndarray,
    ctx: ExecutionContext,
    fast: bool = True,
    estimated_rows: int | None = None,
    lean: bool = False,
    partitions: int = 0,
    codec: kernels.KeyCodec | None = None,
) -> DedupOutcome:
    """Deduplicate ``rows`` charging the configured strategy's costs.

    ``fast=True`` models CCK-GSCHT; it applies when the tuple packs into 63
    bits (the paper's "small number of attributes" condition), otherwise it
    degrades to the generic path — mirroring the appendix's caveat that
    FAST-DEDUP can lose its edge on wide tuples.

    ``estimated_rows`` is the optimizer's table-size estimate used to
    pre-allocate buckets (Section 5.1: "the size of the hash table needs
    to be estimated in order to pre-allocate memory"). Underestimation
    (stale statistics) lengthens collision chains; overestimation wastes
    bucket memory.

    ``lean=True`` (degradation ladder, rung 1) bypasses both hash paths
    for an in-place sort + adjacent-unique sweep: the slowest per tuple,
    but its only transient is the sort's index array (``n * 8`` bytes).

    ``partitions > 0`` enables radix-partitioned execution on the sim
    clock: a scatter pass buckets rows by key hash, then each bucket
    dedups into a private table — no shared GSCHT, so almost none of its
    contention penalty. The call itself decides shared-vs-partitioned
    from the modeled makespans (``optimizer.partitioned_dedup_decision``),
    so tiny inputs and low thread counts stay shared. Only the
    compact-key path partitions (the radix hash needs the packed key).

    Every strategy is a *modeled* cost; the host always runs the same
    kernel — pack with ``codec`` (observed from ``rows`` when not given),
    sort the key, drop adjacent duplicates, decode.
    """
    n = rows.shape[0]
    columns = [rows[:, i] for i in range(rows.shape[1])]
    if codec is None:
        codec = kernels.KeyCodec.observed(columns)
    packable = codec.packable
    use_compact = fast and packable and not lean
    use_partitioned = partitions > 0 and use_compact and n > 0

    if estimated_rows is None:
        estimated_rows = n
    buckets = max(16, estimated_rows)
    # Underestimated bucket counts put several tuples in each chain; the
    # probe cost scales with the average chain length (capped: resizes
    # eventually kick in).
    chain_factor = min(4.0, max(1.0, n / buckets))

    if use_partitioned:
        choice = partitioned_dedup_decision(
            ctx.cost_model, partitions, n, COST_DEDUP_FAST * chain_factor
        )
        # The pre-flight prices the *whole* partitioned allocation (bucket
        # tables + scatter scratch), not the scratch alone: two halves that
        # each clear the soft watermark can still jointly blow the budget.
        planned = plan_transient(
            n, rows.shape[1], fast=fast, estimated_rows=estimated_rows,
            packable=packable, lean=lean, partitioned=True,
        )
        use_partitioned = choice.partitioned and ctx.partition_scratch_ok(planned)

    key = codec.encode(columns) if packable and n else None
    counts = kernels.radix_partition(key, partitions) if use_partitioned else None

    # Sizing comes from the shared rule so the degradation pre-flight and
    # the ledger always agree byte-for-byte.
    transient = plan_transient(
        n, rows.shape[1], fast=fast, estimated_rows=estimated_rows,
        packable=packable, lean=lean, partitioned=use_partitioned,
    )
    if lean:
        cost = n * COST_DEDUP_LEAN
    elif use_compact:
        cost = n * COST_DEDUP_FAST * chain_factor
    else:
        cost = n * COST_DEDUP_SLOW * chain_factor

    ctx.metrics.allocate_transient(transient)
    if use_partitioned:
        ctx.charge_parallel(PARTITION_PHASE, n * COST_PARTITION, n)
        # Same per-tuple work as the shared table (each bucket builds its
        # private GSCHT), scheduled as one straggler-bound task per bucket.
        ctx.charge_partitioned_tasks(
            PARTITIONED_DEDUP_PHASE, counts * (COST_DEDUP_FAST * chain_factor)
        )
    else:
        ctx.charge_parallel(DEDUP_PHASE, cost, n)
    if key is not None:
        unique = codec.decode(kernels.sorted_distinct(key))
    else:
        # Empty, or too wide for a compact key (rescans domains; rare).
        unique = kernels.unique_rows(rows)
    ctx.metrics.release_transient(transient)
    counters = ctx.profiler.counters
    counters.inc("dedup_calls")
    counters.inc("dedup_input_rows", n)
    counters.inc("dedup_output_rows", unique.shape[0])
    counters.inc("tuples_deduped", n - unique.shape[0])
    if lean:
        counters.inc("dedup_lean_path")
    else:
        counters.inc("dedup_fast_path" if use_compact else "dedup_generic_path")
    if use_partitioned:
        counters.inc("partition.dedup_runs")
        counters.inc("partition.scatter_rows", n)
    ctx.profiler.annotate(
        transient_bytes=transient,
        chain_factor=round(chain_factor, 3),
        partitioned=use_partitioned,
    )
    return DedupOutcome(
        rows=unique,
        input_rows=n,
        output_rows=unique.shape[0],
        used_compact_key=use_compact,
        partitioned=use_partitioned,
    )
