"""Physical execution of SELECT queries.

One module implements the whole pipeline the RecStep query generator
needs: scan → (filter) → multi-way equi-join with cost-based build-side
selection → anti-join (NOT EXISTS) → projection or grouped aggregation.
Every operator charges its work to the execution context's parallel cost
model and declares its transient allocations to the metrics recorder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import OutOfMemoryError, PlanError
from repro.engine import kernels
from repro.engine.executor import (
    AGGREGATE_PHASE,
    BUILD_PHASE,
    COST_AGGREGATE,
    COST_BUILD,
    COST_MATERIALIZE,
    COST_PARTITION,
    COST_PROBE,
    COST_SCAN,
    PARTITION_PHASE,
    PARTITIONED_BUILD_PHASE,
    PARTITIONED_PROBE_PHASE,
    PROBE_PHASE,
    SCAN_PHASE,
    ParallelCostModel,
    PhaseKind,
    split_tasks,
)
from repro.engine.expressions import (
    Frame,
    evaluate,
    evaluate_comparison,
    expr_aliases,
    resolve_column,
)
from repro.engine.metrics import MetricsRecorder
from repro.engine.optimizer import (
    cached_join_cost_estimate,
    choose_build_side,
    join_cost_estimate,
    order_tables_by_estimate,
    partitioned_join_decision,
)
from repro.obs.profiler import NULL_PROFILER
from repro.obs.tracer import CATEGORY_OPERATOR
from repro.sql import ast
from repro.storage.block import block_count
from repro.storage.catalog import Catalog

#: Modeled per-entry overhead of a join hash table (bucket pointer + next).
HASH_ENTRY_OVERHEAD = 24

#: Radix scatter scratch per row: the copied-out key plus a row index.
PARTITION_SCRATCH_BYTES = 16

#: Hard cap on a single join's output cardinality. QuickStep would spill
#: such an intermediate to disk and (on the paper's dense workloads)
#: subsequently die; we surface it as the same OOM failure. This also
#: bounds host-side allocations independent of the modeled budget.
HARD_JOIN_ROWS = 30_000_000


@dataclass
class ExecutionContext:
    """Everything operators need: catalog, metrics, and the cost model."""

    catalog: Catalog
    metrics: MetricsRecorder
    cost_model: ParallelCostModel
    #: Observability sink; the inert default keeps hot paths branch-free.
    profiler: object = field(default=NULL_PROFILER, repr=False)
    #: Iteration-persistent join indexes (repro.engine.joincache); None
    #: disables the cached join path entirely.
    join_cache: object | None = field(default=None, repr=False)
    #: Radix-partitioned execution: bucket count, 0 = disabled. When set,
    #: the contention-heavy operators compare shared vs partitioned
    #: makespans per call and may take the scatter + per-bucket path.
    partitions: int = 0
    #: Degradation ladder hook (repro.resilience.degradation); partition
    #: scratch is a speed-for-memory trade, shed under pressure.
    degradation: object | None = field(default=None, repr=False)

    def charge_parallel(self, kind: PhaseKind, total_cost: float, rows_hint: int) -> None:
        """Run a data-parallel phase through the scheduler and the clock."""
        tasks = split_tasks(total_cost, block_count(rows_hint))
        outcome = self.cost_model.run_phase(kind, tasks)
        # The CPU trace wants whole-machine utilization, not the per-worker
        # scheduling efficiency a narrow phase reports.
        self.metrics.advance(
            outcome.makespan, outcome.machine_utilization(self.cost_model.threads)
        )

    def charge_partitioned_tasks(self, kind: PhaseKind, task_costs) -> None:
        """Run a phase whose tasks are one-per-bucket (possibly skewed).

        Unlike :meth:`charge_parallel` the task split is not uniform: a
        skewed radix scatter yields unequal buckets, and the straggler
        bucket bounds the makespan — partitioning does not hide skew.
        """
        tasks = [float(cost) for cost in task_costs if cost > 0]
        outcome = self.cost_model.run_phase(kind, tasks)
        self.metrics.advance(
            outcome.makespan, outcome.machine_utilization(self.cost_model.threads)
        )

    def charge_index_pass(
        self,
        shared_kind: PhaseKind,
        partitioned_kind: PhaseKind,
        total_cost: float,
        rows: int,
    ) -> None:
        """Charge position-chunkable index work (cache extends/probes).

        Packing, sorting, and binary-searching a persistent sorted-code
        index are independent per input chunk — there is no shared hash
        table to contend on. With partitioned execution on, the work is
        charged as P even position chunks at the partitioned contention
        rate; otherwise it pays the classic shared phase.
        """
        if self.partitions and rows > 0:
            chunks = min(self.partitions, rows)
            self.charge_partitioned_tasks(
                partitioned_kind, [total_cost / chunks] * chunks
            )
        else:
            self.charge_parallel(shared_kind, total_cost, rows)

    def partition_scratch_ok(self, planned_bytes: int) -> bool:
        """Pre-flight a partitioned operator against the degradation ladder.

        ``planned_bytes`` is the full transient the partitioned path would
        allocate (bucket tables *and* scatter scratch). False shunts the
        operator back to the shared path: the scatter buffers are pure
        speed-for-memory, so under pressure they are shed like the join
        cache.
        """
        if self.degradation is None or not getattr(self.degradation, "enabled", False):
            return True
        if self.degradation.shed_partitioning(planned_bytes):
            self.degradation.note("shed-partitioning")
            self.profiler.counters.inc("partition.shed")
            return False
        return True

    def op_span(self, name: str, key: str, **attrs):
        """Open an operator-category span carrying a plan-matching key.

        The ``key`` (``scan:{alias}``, ``join:{alias}``, ``filter:{i}``,
        ``anti:{i}``, ``aggregate``, ``project``, ``arm:{i}``) is what
        EXPLAIN ANALYZE uses to pair executed spans with plan lines —
        alias-based so it survives join-order differences.
        """
        return self.profiler.span(name, CATEGORY_OPERATOR, key=key, **attrs)

    def estimated_rows(self, table_name: str) -> int:
        # Rewrite-aware: stats describing a previous table generation
        # fall back to the live count (append staleness stays, for OOF).
        return self.catalog.estimated_rows(table_name)


# --------------------------------------------------------------------------
# Predicate classification
# --------------------------------------------------------------------------


@dataclass
class _JoinEdge:
    """Equality predicate linking exactly two aliases."""

    alias_a: str
    expr_a: ast.Expr
    alias_b: str
    expr_b: ast.Expr

    def key_for(self, alias: str) -> ast.Expr:
        if alias == self.alias_a:
            return self.expr_a
        if alias == self.alias_b:
            return self.expr_b
        raise PlanError(f"alias {alias!r} not part of join edge")

    def other(self, alias: str) -> str:
        return self.alias_b if alias == self.alias_a else self.alias_a


@dataclass
class _ClassifiedPredicates:
    join_edges: list[_JoinEdge]
    filters: list[tuple[set[str], ast.Comparison]]
    anti_joins: list[ast.NotExists]


def _classify_predicates(
    select: ast.Select, schemas: dict[str, tuple[str, ...]]
) -> _ClassifiedPredicates:
    join_edges: list[_JoinEdge] = []
    filters: list[tuple[set[str], ast.Comparison]] = []
    anti_joins: list[ast.NotExists] = []
    for predicate in select.where:
        if isinstance(predicate, ast.NotExists):
            anti_joins.append(predicate)
            continue
        left_aliases = expr_aliases(predicate.left, schemas)
        right_aliases = expr_aliases(predicate.right, schemas)
        if (
            predicate.op == "="
            and len(left_aliases) == 1
            and len(right_aliases) == 1
            and left_aliases != right_aliases
        ):
            (alias_a,) = left_aliases
            (alias_b,) = right_aliases
            join_edges.append(_JoinEdge(alias_a, predicate.left, alias_b, predicate.right))
        else:
            filters.append((left_aliases | right_aliases, predicate))
    return _ClassifiedPredicates(join_edges, filters, anti_joins)


# --------------------------------------------------------------------------
# Join pipeline
# --------------------------------------------------------------------------


def _scan_table(alias: str, table_name: str, ctx: ExecutionContext) -> Frame:
    table = ctx.catalog.get_table(table_name)
    with ctx.op_span(f"scan {table_name}", key=f"scan:{alias}", table=table_name) as span:
        data = table.data()
        ctx.charge_parallel(SCAN_PHASE, table.num_rows * COST_SCAN, table.num_rows)
        span.set(rows_out=table.num_rows)
    return Frame.from_table(alias, data, table.column_names)


def _apply_ready_filters(
    frame: Frame,
    bound: set[str],
    classified: _ClassifiedPredicates,
    applied: set[int],
    ctx: ExecutionContext,
) -> Frame:
    for index, (aliases, predicate) in enumerate(classified.filters):
        if index in applied or not aliases <= bound:
            continue
        with ctx.op_span(
            f"filter {predicate}", key=f"filter:{index}", rows_in=len(frame)
        ) as span:
            mask = evaluate_comparison(predicate, frame)
            ctx.charge_parallel(SCAN_PHASE, len(frame) * COST_SCAN, len(frame))
            frame = frame.select(mask)
            span.set(rows_out=len(frame))
        applied.add(index)
    return frame


def _join_frame_with_alias(
    frame: Frame,
    frame_estimate: int,
    alias: str,
    table_name: str,
    edges: list[_JoinEdge],
    ctx: ExecutionContext,
) -> Frame:
    """Hash-join the running frame with a new base table."""
    kind = "hash join" if edges else "cross join"
    with ctx.op_span(
        f"{kind} {table_name} AS {alias}",
        key=f"join:{alias}",
        table=table_name,
        rows_in=len(frame),
    ) as span:
        result = _join_frame_with_alias_inner(
            frame, frame_estimate, alias, table_name, edges, ctx, span
        )
        span.set(rows_out=len(result))
    return result


def _join_frame_with_alias_inner(
    frame: Frame,
    frame_estimate: int,
    alias: str,
    table_name: str,
    edges: list[_JoinEdge],
    ctx: ExecutionContext,
    span,
) -> Frame:
    new_frame = _scan_table(alias, table_name, ctx)
    right_estimate = ctx.estimated_rows(table_name)

    if not edges:
        # Cross product (e.g. node(x), node(y) in the NTC program).
        n, m = len(frame), len(new_frame)
        width = len(frame.indices) + 1
        # Reserve the output *before* materializing so oversized products
        # die as modeled OOMs, not host allocations.
        ctx.metrics.allocate_transient(n * m * 8 * width)
        left_positions = np.repeat(np.arange(n, dtype=np.int64), m)
        right_positions = np.tile(np.arange(m, dtype=np.int64), n)
        ctx.charge_parallel(PROBE_PHASE, (n * m) * COST_MATERIALIZE, n)
        result = frame.joined_with(
            alias, new_frame.bases[alias], new_frame.schemas[alias],
            left_positions, new_frame.indices[alias][right_positions],
        )
        ctx.metrics.release_transient(n * m * 8 * width)
        _charge_frame_materialization(result, ctx)
        return result

    cache = ctx.join_cache
    if cache is not None and cache.enabled:
        cache_columns = _cacheable_key_columns(edges, alias, new_frame)
        if cache_columns is not None:
            extension = cache.extension_estimate(ctx.catalog, table_name, cache_columns)
            classic = choose_build_side(frame_estimate, right_estimate)
            classic_probe = right_estimate if classic.build_left else frame_estimate
            # Build-once/probe-many: a warm index costs probes alone,
            # so the cache wins whenever its extension (Δ) is cheaper
            # than the classic per-iteration hash build. Ties prefer the
            # cache — its build is an investment later probes amortize.
            if cached_join_cost_estimate(extension, frame_estimate) <= join_cost_estimate(
                classic.estimated_build_rows, classic_probe
            ):
                return _cached_index_join(
                    frame, alias, table_name, new_frame, edges, cache_columns, ctx, span
                )

    left_keys = [evaluate(edge.key_for(edge.other(alias)), frame) for edge in edges]
    right_keys = [evaluate(edge.key_for(alias), new_frame) for edge in edges]
    left_key, right_key = kernels.make_join_keys(left_keys, right_keys)

    # The *decision* uses optimizer estimates (possibly stale); the *cost*
    # uses true sizes. A stale decision builds the hash table on the truly
    # larger side — slower and bigger, exactly the OOF-NA penalty.
    decision = choose_build_side(frame_estimate, right_estimate)
    true_left, true_right = len(frame), len(new_frame)
    if decision.build_left:
        build_rows, probe_rows = true_left, true_right
    else:
        build_rows, probe_rows = true_right, true_left
    hash_bytes = build_rows * (8 + HASH_ENTRY_OVERHEAD)
    scatter_rows = true_left + true_right
    scratch_bytes = scatter_rows * PARTITION_SCRATCH_BYTES
    partitioned = False
    if ctx.partitions and left_key.size and right_key.size:
        partition_choice = partitioned_join_decision(
            ctx.cost_model, ctx.partitions, build_rows, probe_rows
        )
        partitioned = partition_choice.partitioned and ctx.partition_scratch_ok(
            hash_bytes + scratch_bytes
        )
    if partitioned:
        # The scatter is modeled: its per-bucket counts size the private
        # build/probe tasks; the host runs the shared kernel below.
        left_counts = kernels.radix_partition(left_key, ctx.partitions)
        right_counts = kernels.radix_partition(right_key, ctx.partitions)
        if decision.build_left:
            build_counts, probe_counts = left_counts, right_counts
        else:
            build_counts, probe_counts = right_counts, left_counts
        ctx.metrics.allocate_transient(hash_bytes + scratch_bytes)
        ctx.charge_parallel(
            PARTITION_PHASE, scatter_rows * COST_PARTITION, scatter_rows
        )
        ctx.charge_partitioned_tasks(PARTITIONED_BUILD_PHASE, build_counts * COST_BUILD)
        ctx.charge_partitioned_tasks(PARTITIONED_PROBE_PHASE, probe_counts * COST_PROBE)
        ctx.profiler.counters.inc("partition.join_runs")
        ctx.profiler.counters.inc("partition.scatter_rows", scatter_rows)
    else:
        scratch_bytes = 0
        ctx.metrics.allocate_transient(hash_bytes)
        ctx.charge_parallel(BUILD_PHASE, build_rows * COST_BUILD, build_rows)
        ctx.charge_parallel(PROBE_PHASE, probe_rows * COST_PROBE, probe_rows)
    ctx.profiler.counters.inc("hash_tables_built")
    ctx.profiler.counters.inc("hash_build_rows", build_rows)
    ctx.profiler.counters.inc("hash_probe_rows", probe_rows)
    span.set(
        build_rows=build_rows,
        probe_rows=probe_rows,
        build_side="left(frame)" if decision.build_left else f"right({alias})",
        transient_bytes=hash_bytes + scratch_bytes,
        partitioned=partitioned,
    )

    # One sort of the table side serves both the guard's count and the
    # expansion.
    sorted_right, right_order = kernels.sort_index(right_key)
    result = _probe_sorted_index(
        frame, alias, new_frame, left_key, sorted_right, right_order, ctx
    )
    ctx.metrics.release_transient(hash_bytes + scratch_bytes)
    return result


def _cacheable_key_columns(
    edges: list[_JoinEdge], alias: str, new_frame: Frame
) -> tuple[str, ...] | None:
    """The table-side key columns, if every edge keys on a plain column.

    Computed expressions on the table side (e.g. ``b.x + 1``) are not
    cacheable: the index must be a pure function of stored columns to
    stay valid across appends.
    """
    names: list[str] = []
    for edge in edges:
        expr = edge.key_for(alias)
        if not isinstance(expr, ast.ColumnRef):
            return None
        try:
            owner, column = resolve_column(expr, new_frame)
        except PlanError:
            return None
        if owner != alias:
            return None
        names.append(column)
    return tuple(names)


def _cached_index_join(
    frame: Frame,
    alias: str,
    table_name: str,
    new_frame: Frame,
    edges: list[_JoinEdge],
    key_columns: tuple[str, ...],
    ctx: ExecutionContext,
    span,
) -> Frame:
    """Probe the persistent sorted-code index instead of hashing a side.

    The index build/extension is charged inside ``acquire`` (on the rows
    actually indexed); this path then pays probes only — no per-call hash
    transient, the index is resident memory.
    """
    entry, event = ctx.join_cache.acquire(ctx, table_name, key_columns)
    probe_columns = [evaluate(edge.key_for(edge.other(alias)), frame) for edge in edges]
    probe_rows = len(frame)
    probe_codes = entry.probe_codes(probe_columns)
    ctx.charge_index_pass(
        PROBE_PHASE, PARTITIONED_PROBE_PHASE, probe_rows * COST_PROBE, probe_rows
    )
    ctx.profiler.counters.inc("hash_probe_rows", probe_rows)
    span.set(
        probe_rows=probe_rows,
        build_side=f"cache({alias})",
        join_cache=event,
        cached_rows=entry.rows_indexed,
    )

    return _probe_sorted_index(
        frame, alias, new_frame, probe_codes, entry.sorted_codes, entry.sorted_positions, ctx
    )


def _probe_sorted_index(
    frame: Frame,
    alias: str,
    new_frame: Frame,
    probe_keys: np.ndarray,
    sorted_keys: np.ndarray,
    sorted_positions: np.ndarray,
    ctx: ExecutionContext,
) -> Frame:
    """Probe a sorted (keys, table positions) index and join the matches.

    The one physical join both the classic and the cached path end in.
    The output is counted and reserved *before* it exists: an
    intermediate too big for the modeled budget must OOM here, not in
    the host allocator.
    """
    starts, ends = kernels.sorted_probe_range(probe_keys, sorted_keys)
    out_rows = int((ends - starts).sum())
    ctx.profiler.counters.inc("join_output_rows", out_rows)
    out_bytes = out_rows * 8 * (len(frame.indices) + 1)
    if out_rows > HARD_JOIN_ROWS:
        raise OutOfMemoryError(
            f"join intermediate of {out_rows} rows exceeds the spill limit",
            rows=out_rows,
            limit_rows=HARD_JOIN_ROWS,
            modeled_bytes=out_bytes,
        )
    ctx.metrics.allocate_transient(out_bytes)
    left_positions, table_positions = kernels.sorted_join_indices(
        starts, ends, sorted_positions
    )
    result = frame.joined_with(
        alias,
        new_frame.bases[alias],
        new_frame.schemas[alias],
        left_positions,
        new_frame.indices[alias][table_positions],
    )
    ctx.metrics.release_transient(out_bytes)
    _charge_frame_materialization(result, ctx)
    return result


def _charge_frame_materialization(frame: Frame, ctx: ExecutionContext) -> None:
    rows = len(frame)
    width = len(frame.indices)
    ctx.metrics.allocate_transient(rows * 8 * width)
    ctx.charge_parallel(PROBE_PHASE, rows * COST_MATERIALIZE, rows)
    ctx.metrics.release_transient(rows * 8 * width)


def _build_join_frame(select: ast.Select, ctx: ExecutionContext) -> Frame:
    schemas: dict[str, tuple[str, ...]] = {}
    table_of: dict[str, str] = {}
    for ref in select.tables:
        if ref.alias in schemas:
            raise PlanError(f"duplicate alias {ref.alias!r}")
        schemas[ref.alias] = ctx.catalog.get_table(ref.table).column_names
        table_of[ref.alias] = ref.table

    classified = _classify_predicates(select, schemas)
    estimates = {alias: ctx.estimated_rows(table_of[alias]) for alias in schemas}
    ordered = order_tables_by_estimate(estimates)

    applied_filters: set[int] = set()
    start = ordered[0]
    frame = _scan_table(start, table_of[start], ctx)
    frame = _apply_ready_filters(frame, {start}, classified, applied_filters, ctx)
    bound = {start}
    remaining = [alias for alias in ordered if alias != start]
    frame_estimate = estimates[start]

    while remaining:
        connected = [
            alias
            for alias in remaining
            if any(
                {edge.alias_a, edge.alias_b} == {alias, other}
                for edge in classified.join_edges
                for other in bound
            )
        ]
        next_alias = connected[0] if connected else remaining[0]
        edges = [
            edge
            for edge in classified.join_edges
            if next_alias in (edge.alias_a, edge.alias_b)
            and edge.other(next_alias) in bound
        ]
        frame = _join_frame_with_alias(
            frame, frame_estimate, next_alias, table_of[next_alias], edges, ctx
        )
        bound.add(next_alias)
        remaining.remove(next_alias)
        frame = _apply_ready_filters(frame, bound, classified, applied_filters, ctx)
        # After materializing, the pipeline knows the true cardinality.
        frame_estimate = len(frame)

    if len(applied_filters) != len(classified.filters):
        raise PlanError("some WHERE predicates reference unknown aliases")

    for index, anti in enumerate(classified.anti_joins):
        frame = _apply_anti_join(frame, anti, ctx, index)
    return frame


# --------------------------------------------------------------------------
# NOT EXISTS anti-join
# --------------------------------------------------------------------------


def _apply_anti_join(
    frame: Frame, anti: ast.NotExists, ctx: ExecutionContext, index: int = 0
) -> Frame:
    inner_tables = ", ".join(ref.table for ref in anti.subquery.tables)
    with ctx.op_span(
        f"anti join (NOT EXISTS over {inner_tables})",
        key=f"anti:{index}",
        rows_in=len(frame),
    ) as span:
        result = _apply_anti_join_inner(frame, anti, ctx)
        span.set(rows_out=len(result))
    return result


def _apply_anti_join_inner(
    frame: Frame, anti: ast.NotExists, ctx: ExecutionContext
) -> Frame:
    sub = anti.subquery
    inner_schemas: dict[str, tuple[str, ...]] = {}
    for ref in sub.tables:
        inner_schemas[ref.alias] = ctx.catalog.get_table(ref.table).column_names

    inner_predicates: list[ast.Predicate] = []
    correlated: list[tuple[ast.Expr, ast.Expr]] = []  # (outer expr, inner expr)
    for predicate in sub.where:
        if isinstance(predicate, ast.NotExists):
            raise PlanError("nested NOT EXISTS is not supported")
        left_inner = _is_inner(predicate.left, inner_schemas, frame)
        right_inner = _is_inner(predicate.right, inner_schemas, frame)
        if left_inner and right_inner:
            inner_predicates.append(predicate)
        elif predicate.op == "=" and left_inner != right_inner:
            outer_expr, inner_expr = (
                (predicate.right, predicate.left)
                if left_inner
                else (predicate.left, predicate.right)
            )
            correlated.append((outer_expr, inner_expr))
        else:
            raise PlanError(f"unsupported correlated predicate {predicate}")
    if not correlated:
        raise PlanError("NOT EXISTS subquery must correlate with the outer query")

    inner_select = ast.Select(
        items=tuple(
            ast.SelectItem(ast.Literal(1), None) for _ in correlated
        ),  # items unused; we join on raw expressions below
        tables=sub.tables,
        where=tuple(inner_predicates),
    )
    inner_frame = _build_join_frame(inner_select, ctx)

    outer_keys = [evaluate(outer_expr, frame) for outer_expr, _ in correlated]
    inner_keys = [evaluate(inner_expr, inner_frame) for _, inner_expr in correlated]
    left_key, right_key = kernels.make_join_keys(outer_keys, inner_keys)

    hash_bytes = len(inner_frame) * (8 + HASH_ENTRY_OVERHEAD)
    ctx.metrics.allocate_transient(hash_bytes)
    ctx.charge_parallel(BUILD_PHASE, len(inner_frame) * COST_BUILD, len(inner_frame))
    ctx.charge_parallel(PROBE_PHASE, len(frame) * COST_PROBE, len(frame))
    ctx.profiler.counters.inc("hash_tables_built")
    ctx.profiler.counters.inc("hash_build_rows", len(inner_frame))
    ctx.profiler.counters.inc("hash_probe_rows", len(frame))
    mask = kernels.anti_join_mask(left_key, right_key)
    ctx.metrics.release_transient(hash_bytes)
    return frame.select(mask)


def _is_inner(
    expr: ast.Expr, inner_schemas: dict[str, tuple[str, ...]], outer_frame: Frame
) -> bool:
    """True if the expression refers to the subquery's own tables."""
    if isinstance(expr, ast.Literal):
        return True
    if isinstance(expr, ast.ColumnRef):
        if expr.table is not None:
            if expr.table in inner_schemas:
                return True
            if expr.table in outer_frame.schemas:
                return False
            raise PlanError(f"unknown alias {expr.table!r} in NOT EXISTS")
        inner_owner = any(expr.column in schema for schema in inner_schemas.values())
        outer_owner = any(expr.column in schema for schema in outer_frame.schemas.values())
        if inner_owner and not outer_owner:
            return True
        if outer_owner and not inner_owner:
            return False
        raise PlanError(f"ambiguous column {expr.column!r} in NOT EXISTS")
    if isinstance(expr, ast.BinaryOp):
        sides = {
            _is_inner(expr.left, inner_schemas, outer_frame),
            _is_inner(expr.right, inner_schemas, outer_frame),
        }
        if len(sides) == 1:
            return sides.pop()
        raise PlanError("expression mixes inner and outer columns")
    raise PlanError(f"unsupported expression in NOT EXISTS: {expr!r}")


# --------------------------------------------------------------------------
# Projection and aggregation
# --------------------------------------------------------------------------


def _has_aggregates(select: ast.Select) -> bool:
    return any(isinstance(item.expr, ast.AggregateCall) for item in select.items)


def _project(select: ast.Select, frame: Frame, ctx: ExecutionContext) -> np.ndarray:
    with ctx.op_span("project", key="project", rows_in=len(frame)) as span:
        columns = [evaluate(item.expr, frame) for item in select.items]
        rows = len(frame)
        ctx.charge_parallel(SCAN_PHASE, rows * COST_MATERIALIZE * len(columns), rows)
        if not columns:
            raise PlanError("SELECT list is empty")
        result = np.column_stack(columns) if rows else np.empty((0, len(columns)), np.int64)
        if select.distinct:
            ctx.charge_parallel(AGGREGATE_PHASE, rows * COST_AGGREGATE, rows)
            result = kernels.unique_rows(result)
        span.set(rows_out=int(result.shape[0]))
    return result


def _aggregate(select: ast.Select, frame: Frame, ctx: ExecutionContext) -> np.ndarray:
    with ctx.op_span("aggregate", key="aggregate", rows_in=len(frame)) as span:
        result = _aggregate_inner(select, frame, ctx)
        span.set(rows_out=int(result.shape[0]))
    return result


def _aggregate_inner(select: ast.Select, frame: Frame, ctx: ExecutionContext) -> np.ndarray:
    group_exprs = list(select.group_by)
    item_plan: list[tuple[str, int]] = []  # ("group", idx) or ("agg", idx)
    agg_specs: list[tuple[str, np.ndarray]] = []
    group_columns = [evaluate(expr, frame) for expr in group_exprs]
    group_repr = [str(expr) for expr in group_exprs]

    for item in select.items:
        if isinstance(item.expr, ast.AggregateCall):
            values = evaluate(item.expr.argument, frame)
            item_plan.append(("agg", len(agg_specs)))
            agg_specs.append((item.expr.func, values))
        else:
            text = str(item.expr)
            if text not in group_repr:
                raise PlanError(
                    f"non-aggregate item {text} must appear in GROUP BY"
                )
            item_plan.append(("group", group_repr.index(text)))

    rows = len(frame)
    ctx.metrics.allocate_transient(rows * 16)
    ctx.charge_parallel(AGGREGATE_PHASE, rows * COST_AGGREGATE, rows)
    group_keys, agg_outputs = kernels.group_aggregate(group_columns, agg_specs)
    ctx.metrics.release_transient(rows * 16)

    if group_columns and group_keys.shape[0] == 0:
        return np.empty((0, len(select.items)), dtype=np.int64)
    out_columns: list[np.ndarray] = []
    for kind, index in item_plan:
        if kind == "group":
            out_columns.append(group_keys[:, index])
        else:
            out_columns.append(agg_outputs[index])
    return np.column_stack(out_columns)


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


def run_select(select: ast.Select, ctx: ExecutionContext) -> np.ndarray:
    """Execute one SELECT block, returning an (n, items) int64 matrix."""
    frame = _build_join_frame(select, ctx)
    if _has_aggregates(select) or select.group_by:
        return _aggregate(select, frame, ctx)
    return _project(select, frame, ctx)


def run_query(query: ast.Query, ctx: ExecutionContext) -> np.ndarray:
    """Execute a SELECT or UNION ALL of SELECTs (bag semantics)."""
    if isinstance(query, ast.Select):
        return run_select(query, ctx)
    parts = []
    for index, select in enumerate(query.selects):
        with ctx.op_span(f"union arm {index}", key=f"arm:{index}") as span:
            part = run_select(select, ctx)
            span.set(rows_out=int(part.shape[0]))
        parts.append(part)
    widths = {part.shape[1] for part in parts}
    if len(widths) != 1:
        raise PlanError(f"UNION ALL arms have differing widths {sorted(widths)}")
    return np.vstack(parts)
