"""Cost-based planning decisions.

The decisions that change what the host executes: build side, join
order, cached index vs classic hash join. (What the chosen plan *costs*,
and whether it is charged shared or radix-partitioned, is the cost
model's business — ``repro.engine.executor``.)

The optimizer sees *catalog statistics*, not live tables. Statistics are
refreshed only by explicit ANALYZE calls, so when the interpreter runs
with OOF disabled (OOF-NA) the estimates here go stale and the planner
keeps picking first-iteration join orders and build sides — the exact
failure mode Figure 2 quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.executor import join_cost_estimate


@dataclass(frozen=True)
class BuildSideDecision:
    """Which join input the hash table is built on."""

    build_left: bool
    estimated_build_rows: int


def choose_build_side(left_estimate: int, right_estimate: int) -> BuildSideDecision:
    """Build on the side the statistics claim is smaller (ties: left)."""
    if left_estimate <= right_estimate:
        return BuildSideDecision(build_left=True, estimated_build_rows=left_estimate)
    return BuildSideDecision(build_left=False, estimated_build_rows=right_estimate)


def prefer_cached_index(
    extension_rows: int, frame_estimate: int, table_estimate: int
) -> bool:
    """Probe the persistent join index instead of hashing a side?

    Build-once/probe-many: the index's build covers only the rows it does
    not hold yet (the appended Δ since the last iteration, or the whole
    table on a cold miss), so a warm index costs probes alone and the
    cache wins whenever its extension is cheaper than the classic
    per-iteration hash build. Ties prefer the cache — its build is an
    investment later probes amortize.
    """
    classic = choose_build_side(frame_estimate, table_estimate)
    classic_probe = table_estimate if classic.build_left else frame_estimate
    return join_cost_estimate(extension_rows, frame_estimate) <= join_cost_estimate(
        classic.estimated_build_rows, classic_probe
    )


def order_tables_by_estimate(estimates: dict[str, int]) -> list[str]:
    """Aliases ordered by estimated cardinality (ascending, name-stable)."""
    return sorted(estimates, key=lambda alias: (estimates[alias], alias))
