"""Physical execution of SELECT queries.

One module implements the whole pipeline the RecStep query generator
needs: scan → (filter) → multi-way equi-join with cost-based build-side
selection → anti-join (NOT EXISTS) → projection or grouped aggregation.
Operators run kernels and report the work they did — cardinalities and
key arrays — to the execution context's cost model, which prices it
(``repro.engine.executor``); no cost or byte size is named here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import PlanError
from repro.engine import kernels
from repro.engine.executor import ParallelCostModel
from repro.engine.expressions import (
    Frame,
    evaluate,
    evaluate_comparison,
    expr_aliases,
    resolve_column,
)
from repro.engine.optimizer import (
    choose_build_side,
    order_tables_by_estimate,
    prefer_cached_index,
)
from repro.obs.profiler import NULL_PROFILER
from repro.obs.tracer import CATEGORY_OPERATOR
from repro.sql import ast
from repro.storage.catalog import Catalog


@dataclass
class ExecutionContext:
    """Everything operators need: the catalog, and the model to report to."""

    catalog: Catalog
    model: ParallelCostModel
    #: Observability sink; the inert default keeps hot paths branch-free.
    profiler: object = field(default=NULL_PROFILER, repr=False)
    #: Iteration-persistent join indexes (repro.engine.joincache); None
    #: disables the cached join path entirely.
    join_cache: object | None = field(default=None, repr=False)

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
        ctx.model.scan(table.num_rows)
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
            ctx.model.filter(len(frame))
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
        # Reported *before* materializing so oversized products die as
        # modeled OOMs, not host allocations.
        with ctx.model.cross_product(n, m, len(frame.indices) + 1):
            left_positions = np.repeat(np.arange(n, dtype=np.int64), m)
            right_positions = np.tile(np.arange(m, dtype=np.int64), n)
            result = frame.joined_with(
                alias, new_frame.bases[alias], new_frame.schemas[alias],
                left_positions, new_frame.indices[alias][right_positions],
            )
        ctx.model.materialize(len(result), len(result.indices))
        return result

    cache = ctx.join_cache
    if cache is not None and cache.enabled:
        cache_columns = _cacheable_key_columns(edges, alias, new_frame)
        if cache_columns is not None:
            extension = cache.extension_estimate(ctx.catalog, table_name, cache_columns)
            if prefer_cached_index(extension, frame_estimate, right_estimate):
                return _cached_index_join(
                    frame, alias, table_name, new_frame, edges, cache_columns, ctx, span
                )

    left_keys = [evaluate(edge.key_for(edge.other(alias)), frame) for edge in edges]
    right_keys = [evaluate(edge.key_for(alias), new_frame) for edge in edges]
    left_key, right_key = kernels.make_join_keys(left_keys, right_keys)

    # The *decision* uses optimizer estimates (possibly stale); what is
    # reported are the true sides. A stale decision builds the hash table
    # on the truly larger side — slower and bigger, exactly the OOF-NA
    # penalty.
    decision = choose_build_side(frame_estimate, right_estimate)
    build_key, probe_key = (
        (left_key, right_key) if decision.build_left else (right_key, left_key)
    )
    with ctx.model.hash_join(build_key, probe_key) as work:
        ctx.profiler.counters.inc("hash_tables_built")
        ctx.profiler.counters.inc("hash_build_rows", build_key.size)
        ctx.profiler.counters.inc("hash_probe_rows", probe_key.size)
        span.set(
            build_rows=build_key.size,
            probe_rows=probe_key.size,
            build_side="left(frame)" if decision.build_left else f"right({alias})",
            transient_bytes=work.transient_bytes,
            partitioned=work.partitioned,
        )
        # One sort serves both the guard's count and the expansion; it
        # covers only the table rows whose key hash a frame key shares.
        sorted_right, right_order = kernels.sort_index(right_key, left_key)
        return _probe_sorted_index(
            frame, alias, new_frame, left_key, sorted_right, right_order, ctx
        )


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

    The index build/extension is reported inside ``acquire`` (on the rows
    actually indexed); this path then pays probes only — no per-call hash
    transient, the index is resident memory.
    """
    entry, event = ctx.join_cache.acquire(ctx, table_name, key_columns)
    probe_columns = [evaluate(edge.key_for(edge.other(alias)), frame) for edge in edges]
    probe_rows = len(frame)
    probe_codes = entry.probe_codes(probe_columns)
    ctx.model.index_probe(probe_rows)
    ctx.profiler.counters.inc("hash_probe_rows", probe_rows)
    span.set(
        probe_rows=probe_rows,
        build_side=f"cache({alias})",
        join_cache=event,
        cached_rows=entry.rows_indexed,
    )

    sorted_codes, sorted_positions = entry.flat_index(ctx.catalog.get_table(table_name))
    return _probe_sorted_index(
        frame, alias, new_frame, probe_codes, sorted_codes, sorted_positions, ctx
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
    The output is counted and reported *before* it exists: an
    intermediate too big for the modeled machine must OOM here, not in
    the host allocator.
    """
    starts, ends = kernels.sorted_probe_range(probe_keys, sorted_keys)
    out_rows = int((ends - starts).sum())
    ctx.profiler.counters.inc("join_output_rows", out_rows)
    with ctx.model.join_output(out_rows, len(frame.indices) + 1):
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
    ctx.model.materialize(len(result), len(result.indices))
    return result


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

    inner_select = ast.Select(
        items=tuple(
            ast.SelectItem(ast.Literal(1), None) for _ in correlated
        ),  # items unused; we join on raw expressions below
        tables=sub.tables,
        where=tuple(inner_predicates),
    )
    inner_frame = _build_join_frame(inner_select, ctx)

    if correlated:
        outer_keys = [evaluate(outer_expr, frame) for outer_expr, _ in correlated]
        inner_keys = [evaluate(inner_expr, inner_frame) for _, inner_expr in correlated]
        left_key, right_key = kernels.make_join_keys(outer_keys, inner_keys)
    else:
        # Uncorrelated (a ground negated atom): every row has the same
        # empty key, so one inner row removes the whole frame.
        left_key = np.zeros(len(frame), dtype=np.int64)
        right_key = np.zeros(len(inner_frame), dtype=np.int64)

    with ctx.model.anti_join(right_key, left_key):
        ctx.profiler.counters.inc("hash_tables_built")
        ctx.profiler.counters.inc("hash_build_rows", len(inner_frame))
        ctx.profiler.counters.inc("hash_probe_rows", len(frame))
        mask = kernels.anti_join_mask(left_key, right_key)
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
        ctx.model.project(rows, len(columns))
        if not columns:
            raise PlanError("SELECT list is empty")
        result = np.column_stack(columns) if rows else np.empty((0, len(columns)), np.int64)
        if select.distinct:
            ctx.model.distinct(rows)
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

    with ctx.model.aggregate(len(frame)):
        group_keys, agg_outputs = kernels.group_aggregate(group_columns, agg_specs)

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
