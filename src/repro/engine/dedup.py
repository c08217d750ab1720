"""Deduplication: pack a compact key, sort it, drop adjacent duplicates.

Section 5.2 / Figure 5: RecStep deduplicates with a global separate-
chaining hash table over a Compact Concatenated Key — the fixed-width
concatenation of the tuple's attributes is simultaneously the key, the
value, and the hash. The host runs one kernel — sort the packed key —
whatever the strategy; FAST-DEDUP (CCK-GSCHT), the generic table, the
lean sort and the radix-partitioned variant are *charges* the cost model
picks between (``ParallelCostModel.dedup``), which is what the Figure 2/3
ablation measures. No hash-bucket array is ever allocated on the host.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import kernels
from repro.engine.operators import ExecutionContext


@dataclass(frozen=True)
class DedupOutcome:
    rows: np.ndarray
    input_rows: int
    output_rows: int
    #: What the model charged the dedup as.
    used_compact_key: bool
    partitioned: bool = False
    lean: bool = False


def deduplicate(rows: np.ndarray, ctx: ExecutionContext, estimated_rows: int) -> DedupOutcome:
    """Deduplicate ``rows``; ``estimated_rows`` is the catalog's size estimate."""
    n = rows.shape[0]
    columns = [rows[:, i] for i in range(rows.shape[1])]
    # The one domain scan a dedup pays.
    codec = kernels.KeyCodec.observed(columns)
    key = codec.encode(columns) if codec.packable and n else None
    with ctx.model.dedup(n, rows.shape[1], codec.packable, key, estimated_rows) as work:
        if key is not None:
            unique = codec.decode(kernels.sorted_distinct(key))
        else:
            # Empty, or too wide for a compact key (rescans domains; rare).
            unique = kernels.unique_rows(rows)
    counters = ctx.profiler.counters
    counters.inc("dedup_calls")
    counters.inc("dedup_input_rows", n)
    counters.inc("dedup_output_rows", unique.shape[0])
    counters.inc("tuples_deduped", n - unique.shape[0])
    return DedupOutcome(
        rows=unique,
        input_rows=n,
        output_rows=unique.shape[0],
        used_compact_key=work.compact_key,
        partitioned=work.partitioned,
        lean=work.lean,
    )
