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

What is reported to the cost model is *honest* about the standalone
operator the clock models: both strategies report the up-front
sort-unique of ``R_delta`` (even when the host skips it because
``dedup_table`` just marked the input distinct), and every membership
pass reports the deduplicated key arrays it really hashes and probes —
the DSD policy and the appendix benchmark consume these numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import kernels
from repro.engine.operators import ExecutionContext


@dataclass(frozen=True)
class SetDifferenceOutcome:
    delta: np.ndarray
    strategy: str
    intersection_size: int | None  # TPSD only


def _unique_delta(new_rows: np.ndarray, ctx: ExecutionContext, distinct: bool) -> np.ndarray:
    """Distinct ``R_delta`` as a fresh array.

    The host skips the sort when the table generation is already
    distinct, but still copies — the delta outlives ``new_rows``' table
    buffer.
    """
    ctx.model.sort_unique(new_rows.shape[0])
    return new_rows.copy() if distinct else kernels.unique_rows(new_rows)


def _semi_mask(
    left: np.ndarray,
    right: np.ndarray,
    build_rows: int,
    ctx: ExecutionContext,
    phase_label: str,
) -> np.ndarray:
    """Membership mask of ``left`` rows in ``right``.

    The hash-heavy core both strategies share. ``build_rows`` says which
    side the strategy hashes (OPSD builds on ``right`` = R; TPSD phase 1
    builds on the smaller side) — the kernel work is symmetric, only what
    is reported differs.
    """
    left_cols = [left[:, i] for i in range(left.shape[1])]
    right_cols = [right[:, i] for i in range(right.shape[1])]
    left_keys, right_keys = kernels.make_join_keys(left_cols, right_cols)
    build_keys, probe_keys = (
        (left_keys, right_keys) if build_rows == left.shape[0] else (right_keys, left_keys)
    )
    with ctx.model.semi_join(build_keys, probe_keys, phase_label):
        return kernels.semi_join_mask(left_keys, right_keys)


def one_phase_set_difference(
    new_rows: np.ndarray,
    existing_rows: np.ndarray,
    ctx: ExecutionContext,
    cache_entry,
    build_rows: int,
    new_distinct: bool = False,
) -> SetDifferenceOutcome:
    """OPSD: hash ``existing_rows`` (R), anti-probe with ``new_rows``.

    With a ``cache_entry`` (a whole-row ``JoinIndexEntry`` over R from
    the join-state cache) the per-iteration hash build over all of R
    disappears: the index build/extension was reported by the cache (on
    the appended rows only), so this call pays the sort-unique of
    ``R_delta`` plus the anti-probe alone — the cost that made OPSD lose
    to TPSD on late iterations.

    ``build_rows`` is R's row count. The cached path never reads R's row
    *content* — only its size — so a caller holding a spilled table
    passes the resident tail plus the true logical count and the on-disk
    prefix stays on disk.
    """
    new_unique = _unique_delta(new_rows, ctx, new_distinct)
    probe_rows = new_unique.shape[0]
    if cache_entry is not None:
        # Anti-probing the read-only sorted index is position-chunkable
        # (independent binary searches) — no shared table to contend on.
        with ctx.model.index_anti_probe(probe_rows):
            if build_rows == 0 or probe_rows == 0:
                delta = new_unique
            else:
                columns = [new_unique[:, i] for i in range(new_unique.shape[1])]
                probe_codes = cache_entry.probe_codes(columns)
                delta = new_unique[~cache_entry.contains(probe_codes)]
    elif build_rows == 0:
        delta = new_unique
    else:
        delta = new_unique[~_semi_mask(new_unique, existing_rows, build_rows, ctx, "opsd")]
    return SetDifferenceOutcome(delta=delta, strategy="OPSD", intersection_size=None)


def two_phase_set_difference(
    new_rows: np.ndarray,
    base_chunks,
    ctx: ExecutionContext,
    new_distinct: bool = False,
) -> SetDifferenceOutcome:
    """TPSD: intersect hashing the smaller side, then subtract the intersection.

    ``base_chunks`` yields row arrays whose concatenation is R — one
    array for a resident relation; for a spilled one its segments read
    back one at a time (the producer charges the read I/O and a bounded
    per-chunk transient) followed by the resident tail, so R is never
    materialized in memory at once. Phase 1 ORs the per-chunk membership
    masks: a row of ``R_delta`` is in R iff it is in some chunk, and every
    mask indexes the same ``new_unique`` array, so the intersection — and
    therefore the final delta — does not depend on the chunking.
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
        if rows:
            mask |= _semi_mask(
                new_unique, chunk, min(n_unique, rows), ctx, "tpsd_intersect"
            )
    intersection = new_unique[mask]

    # Phase 2: delta = R_delta - r, building on (the usually tiny) r.
    r_rows = intersection.shape[0]
    if r_rows == 0:
        delta = new_unique
    else:
        subtract_mask = _semi_mask(
            new_unique, intersection, r_rows, ctx, "tpsd_subtract"
        )
        delta = new_unique[~subtract_mask]
    return SetDifferenceOutcome(delta=delta, strategy="TPSD", intersection_size=r_rows)
