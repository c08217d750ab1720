"""The Database facade: SQL in, arrays out, everything metered.

This is the engine's public API, playing the role QuickStep plays for
RecStep: the interpreter connects to a :class:`Database`, issues SQL
(``execute``), refreshes statistics (``analyze``), and calls the two
system-level specialized operations (``dedup_table``,
``set_difference``). All work — including per-query dispatch overhead and
EOST-vs-per-query I/O — lands on one simulated clock.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.common.errors import PlanError
from repro.engine import kernels
from repro.engine.dedup import DedupOutcome, deduplicate
from repro.engine.executor import ParallelCostModel, index_bytes
from repro.engine.joincache import COUNTER_EVICT, JoinStateCache
from repro.engine.metrics import DEFAULT_MEMORY_BUDGET, DEFAULT_TIME_BUDGET, MetricsRecorder
from repro.engine.operators import ExecutionContext, run_query
from repro.engine.setops import (
    SetDifferenceOutcome,
    one_phase_set_difference,
    two_phase_set_difference,
)
from repro.obs import CATEGORY_STATEMENT, Profiler
from repro.resilience.runtime import ResilienceContext
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.storage.catalog import Catalog
from repro.storage.column import ColumnSchema, ColumnType
from repro.storage.manager import StorageManager
from repro.storage.spill import MIN_SPILL_BYTES, SpillManager
from repro.storage.stats import StatsMode
from repro.storage.table import Table

#: Dispatches since a table was last *scanned* before it counts as cold
#: for the spill rung. Delta/EDB tables are touched every iteration (a
#: semi-naive iteration is a handful of dispatches) and never qualify;
#: full relations — appended to but rarely scanned — go cold fast.
SPILL_COLD_AFTER_DISPATCHES = 8

#: Once the spill rung engages (sticky pressure level >= soft), cold
#: tables are evicted until the resident footprint is back under this
#: fraction of the budget — deliberately well below the soft watermark,
#: so the freed headroom absorbs the transient spikes (hash builds,
#: dedup scratch) that triggered the pressure in the first place.
SPILL_TARGET_FRACTION = 0.5


class Database:
    """An in-memory parallel relational database with a mini-SQL surface.

    Args:
        threads: simulated worker count (the experiments' thread knob).
        memory_budget: modeled memory in bytes; exceeding it raises
            ``OutOfMemoryError``, reproducing the paper's OOM envelope.
        eost: evaluate-as-one-single-transaction; when off, every
            state-changing query pays a write-back (Section 5.2).
        fast_dedup: charge dedup as CCK-GSCHT (Section 5.2); the host's
            dedup kernel is the same either way.
        enforce_budgets: disable to let tests run without OOM/timeout.
        join_cache: keep packed-key join indexes alive across queries and
            extend them incrementally as tables are appended to (the
            iteration-persistent join state; ``--no-join-cache`` escape
            hatch). Disabled, every join rebuilds its hash state.
        partitioned_exec: let the cost model charge operators as
            radix-partitioned (scatter by key-hash bits, then per-bucket
            private hash tables) when that modeled makespan beats the
            shared-table plan; ``--no-partitioned-exec`` escape hatch.
            The host runs the same kernels either way.
        partitions: radix bucket count (rounded up to a power of two).
            The default's many-more-buckets-than-workers keeps LPT
            scheduling quantization below the contention-width bound at
            every thread count up to 40.
        profile: enable the span tracer + counter registry (repro.obs);
            off by default, at zero instrumentation cost.
        resilience: the evaluation's resilience context (fault injector,
            retry policy, degradation ladder, runtime guard). The
            default context is inert: every hook is one ``is None`` test.
        spill_dir: directory for the spill-to-disk tier. ``None`` (the
            default) disables spilling entirely; with a directory and the
            degradation ladder enabled, cold full-relation prefixes are
            evicted to checksummed segment files under memory pressure
            and streamed back through the kernels.
    """

    def __init__(
        self,
        threads: int = 20,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
        time_budget: float = DEFAULT_TIME_BUDGET,
        eost: bool = True,
        fast_dedup: bool = True,
        enforce_budgets: bool = True,
        join_cache: bool = True,
        partitioned_exec: bool = True,
        partitions: int = 256,
        profile: bool = False,
        resilience: ResilienceContext | None = None,
        spill_dir: str | None = None,
    ) -> None:
        self.catalog = Catalog()
        self.storage = StorageManager(eost=eost)
        self.metrics = MetricsRecorder(
            memory_budget=memory_budget,
            time_budget=time_budget,
            enforce_budgets=enforce_budgets,
        )
        self.join_cache = JoinStateCache(enabled=join_cache)
        if partitions < 1:
            raise PlanError(f"partitions must be positive, got {partitions}")
        # The radix scatter derives bucket ids from the key hash's top
        # bits, so the count must be a power of two; round up quietly.
        self.partitions = 1 << (partitions - 1).bit_length() if partitions > 1 else 1
        self.queries_executed = 0
        #: Bumped once per ``append_rows`` and per ranked ``replace_rows``
        #: run: the rank of the rows it writes.
        self._appends = 0
        self.resilience = resilience if resilience is not None else ResilienceContext()
        #: The modeled machine: everything below reports its work here.
        self.cost_model = ParallelCostModel(
            threads=threads,
            metrics=self.metrics,
            fast_dedup=fast_dedup,
            partitions=self.partitions if partitioned_exec else 0,
            degradation=self.resilience.degradation,
            injector=self.resilience.injector,
        )
        self.resilience.bind(self.metrics, self.profiler.counters)
        self.spill: SpillManager | None = (
            SpillManager(spill_dir) if spill_dir is not None else None
        )
        #: Coldness ledger for the spill rung: dispatch sequence number
        #: and, per table, the sequence at which it was last scanned.
        self._touch_seq = 0
        self._last_touch: dict[str, int] = {}
        self._bind_spill()
        if profile:
            self.enable_profiling()

    # -- internals -----------------------------------------------------------

    @property
    def profiler(self):
        """The observability sink — the one the cost model is bound to."""
        return self.cost_model.profiler

    def enable_profiling(self) -> Profiler:
        """Attach a live profiler to the clock, cost model, and metrics."""
        if not self.profiler.enabled:
            self.cost_model.bind_profiler(Profiler(self.metrics.clock))
            self.resilience.bind(self.metrics, self.profiler.counters)
            self._bind_spill()
        return self.profiler

    def _bind_spill(self) -> None:
        if self.spill is not None:
            self.spill.bind(
                self.metrics,
                self.profiler.counters,
                resilience=self.resilience,
                on_change=self._refresh_base_bytes,
            )

    def _context(self) -> ExecutionContext:
        self._maybe_shed_join_cache()
        self._maybe_spill_cold_tables()
        return ExecutionContext(
            catalog=self.catalog,
            model=self.cost_model,
            profiler=self.profiler,
            join_cache=self.join_cache if self.join_cache.enabled else None,
        )

    def _maybe_shed_join_cache(self, planned_bytes: int = 0) -> None:
        """Degradation ladder, rung 1: under memory pressure the
        persistent join indexes are evicted and the cache disabled for
        the rest of the run — they trade memory for speed, so they are
        the first thing given back. ``planned_bytes`` lets a caller
        about to *build* an index pre-flight that allocation."""
        degradation = self.resilience.degradation
        if self.join_cache.enabled and degradation.engaged(
            "shed-join-cache", planned_bytes
        ):
            degradation.note("shed-join-cache")
            evicted = self.join_cache.invalidate_all()
            if evicted:
                self.profiler.counters.inc(COUNTER_EVICT, evicted)
            self.join_cache.enabled = False
            self._refresh_base_bytes()

    @staticmethod
    def _query_source_tables(query: ast.Query) -> list[str]:
        """Every table a query scans (UNION ALL arms included)."""
        selects = query.selects if isinstance(query, ast.UnionAll) else (query,)
        return [ref.table for select in selects for ref in select.tables]

    def _touch(self, *names: str) -> None:
        """Mark tables as scanned *now* (spill-rung coldness ledger).

        Touch points are reads of row content — query sources, dedup and
        aggregate targets, replace/restore. Appends deliberately do not
        touch: ``R <- R U delta`` lands in the resident tail of a spilled
        table, so a full relation can stay cold (and on disk) while it
        grows. The set-difference base is also not touched — TPSD streams
        it chunk-wise without rehydrating.
        """
        for name in names:
            self._last_touch[name] = self._touch_seq

    def _maybe_spill_cold_tables(self) -> None:
        """Degradation ladder: evict cold table prefixes to disk.

        Engaged at the soft watermark like the shedding rungs, but
        instead of giving up speed-for-memory state it moves *relation
        bytes themselves* out of RAM: candidates are tables whose rows
        have not been scanned for :data:`SPILL_COLD_AFTER_DISPATCHES`
        dispatches, coldest first (ties broken by name, so the eviction
        order is deterministic). Eviction continues until the footprint
        is under :data:`SPILL_TARGET_FRACTION` of the budget (hysteresis
        below the watermark), or until the disk budget — real or
        injected ENOSPC — is exhausted, in which case the ladder simply
        proceeds to its next rung.
        """
        spill = self.spill
        if spill is None or spill.capacity_exhausted:
            return
        degradation = self.resilience.degradation
        if not degradation.engaged("spill-cold-tables"):
            return
        metrics = self.metrics
        if metrics.memory_budget <= 0:
            return
        if metrics.budget_fraction() < SPILL_TARGET_FRACTION:
            return
        candidates = []
        for name in self.catalog.table_names():
            table = self.catalog.get_table(name)
            if table.memory_bytes() < MIN_SPILL_BYTES:
                continue
            age = self._touch_seq - self._last_touch.get(name, 0)
            if age < SPILL_COLD_AFTER_DISPATCHES:
                continue
            candidates.append((-age, name, table))
        candidates.sort(key=lambda item: (item[0], item[1]))
        for _neg_age, _name, table in candidates:
            if metrics.budget_fraction() < SPILL_TARGET_FRACTION:
                break
            table.bind_spill(spill)
            if spill.spill_table(table):
                degradation.note("spill-cold-tables")
            if spill.capacity_exhausted:
                break

    def _maybe_spill_restored(self, table: Table) -> None:
        """Pre-flight spill during checkpoint restore.

        The restore path materializes whole relations before any query
        runs, so the watermark machinery would fire *after* the OOM. This
        is the ladder's planned-bytes pre-flight applied to the restore:
        if the refreshed footprint would breach the soft watermark, the
        just-restored (by definition cold) table spills immediately.
        """
        spill = self.spill
        if spill is None or spill.capacity_exhausted:
            return
        metrics = self.metrics
        if metrics.memory_budget <= 0 or table.memory_bytes() < MIN_SPILL_BYTES:
            return
        projected = self.catalog.total_memory_bytes() + self.join_cache.memory_bytes()
        planned = max(0, projected - metrics.base_bytes)
        if not self.resilience.degradation.engaged("spill-cold-tables", planned):
            return
        table.bind_spill(spill)
        if spill.spill_table(table):
            self.resilience.degradation.note("spill-cold-tables")

    def _statement_span(self, name: str, table: str | None = None, **attrs):
        if table is not None:
            attrs["table"] = table
        return self.profiler.span(name, CATEGORY_STATEMENT, **attrs)

    def _dispatch(self) -> None:
        self.queries_executed += 1
        self._touch_seq += 1
        self.resilience.maybe_spike()
        self.cost_model.dispatch()

    def _ddl(self) -> None:
        self.queries_executed += 1
        self.cost_model.ddl()

    def _after_mutation(self, table: Table, new_bytes: int) -> None:
        self.cost_model.write_back(self.storage.mark_dirty(table.name, new_bytes))
        self._refresh_base_bytes()

    def _refresh_base_bytes(self) -> None:
        """Resident memory = tables + live join indexes (cache state is
        real memory, not transient: it survives between queries)."""
        self.metrics.set_base_bytes(
            self.catalog.total_memory_bytes() + self.join_cache.memory_bytes()
        )

    def _note_table_rewrite(self, name: str) -> None:
        """Evict join-index entries invalidated by a rewrite/truncate/drop."""
        evicted = self.join_cache.note_rewrite(name)
        if evicted:
            self.profiler.counters.inc(COUNTER_EVICT, evicted)

    def invalidate_join_cache(self) -> None:
        """Drop every persistent join index (stratum boundaries).

        A new stratum evaluates different rules over different tables;
        carrying indexes across the boundary would hold memory for tables
        that may never be joined again.
        """
        evicted = self.join_cache.invalidate_all()
        if evicted:
            self.profiler.counters.inc(COUNTER_EVICT, evicted)
        self._refresh_base_bytes()

    def rehydrate_join_cache(self, names: list[str]) -> None:
        """Rebuild whole-row indexes after a checkpoint restore.

        Restored tables arrive with fresh epochs, so any surviving entry
        is stale; eagerly rebuilding here puts the post-resume run in the
        same cache state an uninterrupted run would be in.
        """
        if not self.join_cache.enabled:
            return
        with self._statement_span("REHYDRATE_JOIN_CACHE", tables=len(names)):
            ctx = self._context()
            for name in names:
                table = self.catalog.get_table(name)
                if table.spilled_rows:
                    # A table the restore spilled stays cold: building an
                    # index would fault the prefix back in and recreate
                    # exactly the pressure the spill relieved.
                    continue
                # Pre-flight the index build's sort scratch — a restore
                # into a tight budget must shed the cache, not OOM.
                self._maybe_shed_join_cache(index_bytes(table.num_rows))
                if not self.join_cache.enabled:
                    break
                self._touch(name)
                self.join_cache.acquire(ctx, name, table.column_names)

    def join_cache_extension(self, name: str) -> int | None:
        """Rows a whole-row index over ``name`` still needs to ingest.

        ``None`` when the cache is disabled. The DSD policy uses this to
        price OPSD's build at the extension size instead of ``|R|``.
        """
        if not self.join_cache.enabled:
            return None
        columns = self.catalog.get_table(name).column_names
        return self.join_cache.extension_estimate(self.catalog, name, columns)

    # -- SQL surface ------------------------------------------------------------

    def execute(self, sql_text: str) -> np.ndarray | None:
        """Parse and execute one SQL statement.

        SELECT returns an ``(n, width)`` int64 matrix; other statements
        return ``None``.
        """
        return self.execute_ast(parse_statement(sql_text))

    #: Span names for statement kinds (EXPLAIN ANALYZE groups by these).
    _STATEMENT_NAMES = {
        ast.CreateTable: "CREATE TABLE",
        ast.DropTable: "DROP TABLE",
        ast.InsertValues: "INSERT VALUES",
        ast.InsertSelect: "INSERT..SELECT",
        ast.DeleteAll: "DELETE",
        ast.Analyze: "ANALYZE",
        ast.SelectStatement: "SELECT",
    }

    def execute_ast(self, statement: ast.Statement) -> np.ndarray | None:
        """Execute an already parsed statement (used by the compiler)."""
        name = self._STATEMENT_NAMES.get(type(statement), type(statement).__name__)
        target = getattr(statement, "table", None)
        with self._statement_span(name, table=target) as span:
            result = self._execute_ast_inner(statement)
            if result is not None:
                span.set(rows_out=int(result.shape[0]))
            self.profiler.counters.inc("statements_executed")
        if self.profiler.enabled:
            self.profiler.histograms.observe(f"statement.latency.{name}", span.duration)
            if result is not None:
                self.profiler.histograms.observe(
                    f"statement.rows.{name}", float(result.shape[0])
                )
        return result

    # -- telemetry ---------------------------------------------------------------

    def sample_timeline(self, **marks) -> None:
        """One resource-timeline sample at the current simulated time.

        Captures the full "what did the run look like right now" vector:
        resident/transient memory, degradation-ladder level, join-cache
        and partitioning state. No-op (one attribute test) when profiling
        is off.
        """
        profiler = self.profiler
        if not profiler.enabled:
            return
        counters = profiler.counters
        profiler.timeline.sample(
            self.metrics.clock.now(),
            resident_bytes=self.metrics.base_bytes,
            transient_bytes=self.metrics.transient_bytes,
            peak_bytes=self.metrics.peak_bytes,
            spilled_bytes=self.metrics.spilled_bytes,
            degradation_level=self.resilience.degradation.level,
            join_cache_entries=len(self.join_cache),
            join_cache_bytes=self.join_cache.memory_bytes(),
            join_cache_hits=counters.get("join_cache.hit"),
            join_cache_extends=counters.get("join_cache.extend"),
            partition_join_runs=counters.get("partition.join_runs"),
            partition_scatter_rows=counters.get("partition.scatter_rows"),
            **marks,
        )

    def note_iteration(
        self, stratum: int, iteration: int, delta_rows: int, seconds: float
    ) -> None:
        """Iteration-boundary hook: distribution + timeline bookkeeping.

        The interpreter calls this after every semi-naive iteration so
        per-iteration latency and delta-size distributions accumulate and
        the resource timeline gains a sample exactly at the boundary —
        the sampling cadence the paper's memory-trajectory figures use.
        """
        if not self.profiler.enabled:
            return
        self.profiler.histograms.observe("iteration.seconds", seconds)
        self.profiler.histograms.observe("iteration.delta_rows", float(delta_rows))
        self.sample_timeline(stratum=stratum, iteration=iteration, delta_rows=delta_rows)

    def _execute_ast_inner(self, statement: ast.Statement) -> np.ndarray | None:
        if isinstance(statement, (ast.CreateTable, ast.DropTable)):
            self._ddl()
        else:
            self._dispatch()
        if isinstance(statement, ast.CreateTable):
            self.catalog.create_table(
                statement.table,
                [ColumnSchema(name, ctype) for name, ctype in statement.columns],
            )
            self._refresh_base_bytes()
            return None
        if isinstance(statement, ast.DropTable):
            self._note_table_rewrite(statement.table)
            self.catalog.drop_table(statement.table)
            self._refresh_base_bytes()
            return None
        if isinstance(statement, ast.InsertValues):
            table = self.catalog.get_table(statement.table)
            table.append_tuples(statement.rows)
            self._after_mutation(table, len(statement.rows) * table.tuple_bytes())
            return None
        if isinstance(statement, ast.InsertSelect):
            self._touch(*self._query_source_tables(statement.query))
            rows = self.resilience.run(
                "insert_select", lambda: run_query(statement.query, self._context())
            )
            table = self.catalog.get_table(statement.table)
            table.append_array(rows)
            self._after_mutation(table, rows.shape[0] * table.tuple_bytes())
            self.profiler.annotate(rows_out=int(rows.shape[0]))
            return None
        if isinstance(statement, ast.DeleteAll):
            table = self.catalog.get_table(statement.table)
            table.truncate()
            self._note_table_rewrite(statement.table)
            self._after_mutation(table, 0)
            return None
        if isinstance(statement, ast.Analyze):
            mode = StatsMode.FULL if statement.full else StatsMode.SIZE_ONLY
            self.cost_model.analyze(self.catalog.analyze(statement.table, mode))
            return None
        if isinstance(statement, ast.SelectStatement):
            self._touch(*self._query_source_tables(statement.query))
            return run_query(statement.query, self._context())
        raise PlanError(f"unsupported statement {statement!r}")

    def execute_script(self, sql_text: str) -> None:
        """Execute a ``;``-separated script, discarding SELECT results."""
        from repro.sql.parser import parse_script

        for statement in parse_script(sql_text).statements:
            self.execute_ast(statement)

    # -- programmatic surface ------------------------------------------------------

    def create_table(self, name: str, columns: Sequence[str]) -> Table:
        with self._statement_span("CREATE TABLE", table=name):
            self._ddl()
            table = self.catalog.create_table(
                name, [ColumnSchema(column, ColumnType.INT) for column in columns]
            )
            self._refresh_base_bytes()
        return table

    def load_table(self, name: str, columns: Sequence[str], rows: np.ndarray) -> Table:
        """Create a table and bulk-load rows (dataset ingest path)."""
        with self._statement_span("LOAD", table=name) as span:
            self._touch(name)
            table = self.create_table(name, columns)
            table.append_array(np.asarray(rows, dtype=np.int64).reshape(-1, len(columns)))
            self._after_mutation(table, table.memory_bytes())
            self.catalog.analyze(name, StatsMode.SIZE_ONLY)
            span.set(rows_out=table.num_rows)
        return table

    def table_array(self, name: str) -> np.ndarray:
        return self.catalog.get_table(name).to_array()

    def ranked_rows(self, names: Sequence[str]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Each table's live rows (read-only) and append ranks, for the
        caller's row → rank index: reported as one ``index_build``."""
        with self._statement_span("RANK_INDEX", tables=len(names)) as span:
            self._touch(*names)
            tables = [self.catalog.get_table(name) for name in names]
            ranked = {table.name: (table.data(), table.ranks()) for table in tables}
            rows = sum(table.num_rows for table in tables)
            self.cost_model.index_build(rows)
            span.set(rows_out=rows)
        return ranked

    def table_size(self, name: str) -> int:
        return self.catalog.get_table(name).num_rows

    def table_spilled_bytes(self, name: str) -> int:
        """Modeled bytes of ``name``'s on-disk prefix (0 when resident).

        The DSD policy consumes this to price rehydration I/O into the
        OPSD-vs-TPSD decision.
        """
        return self.catalog.get_table(name).spilled_bytes()

    def table_snapshot(self, name: str) -> np.ndarray:
        """Full logical contents *without* changing residency.

        Checkpoints use this instead of :meth:`table_array`: saving
        state must not fault a cold table back in — the checkpoint is
        supposed to relieve pressure, not recreate it.
        """
        table = self.catalog.get_table(name)
        if table.spilled_rows and self.spill is not None:
            prefix = self.spill.snapshot_prefix(table)
            resident = table.resident_data()
            if resident.shape[0] == 0:
                return prefix
            return np.vstack([prefix, resident])
        return table.to_array()

    def release_spill(self) -> None:
        """Delete every live spill segment (end of evaluation).

        Called after results are extracted; quarantined files are left
        behind as evidence of torn reads.
        """
        if self.spill is not None:
            self.spill.cleanup()

    def analyze(self, name: str, full: bool = False) -> None:
        """Refresh optimizer statistics (Algorithm 1's ``analyze``)."""
        with self._statement_span("ANALYZE", table=name, full=full):
            mode = StatsMode.FULL if full else StatsMode.SIZE_ONLY
            self.cost_model.analyze(self.catalog.analyze(name, mode))

    def dedup_table(self, name: str) -> DedupOutcome:
        """Deduplicate a table in place (Algorithm 1's ``dedup``).

        Bucket pre-allocation is sized from the *catalog statistics* (the
        paper's "conservative approximation ... size of the table"): if
        the statistics are stale — OOF disabled — the hash table is
        mis-sized and dedup pays collision chains or wasted memory.
        """
        with self._statement_span("DEDUP", table=name) as span:
            self._dispatch()
            self._touch(name)
            table = self.catalog.get_table(name)
            estimated_rows = self.catalog.get_stats(name).num_rows
            # Kernels are pure, so the live view suffices.
            rows = table.data()
            outcome = self.resilience.run(
                "dedup", lambda: deduplicate(rows, self._context(), estimated_rows)
            )
            table.replace_contents(outcome.rows, distinct=True)
            self._note_table_rewrite(name)
            self._after_mutation(table, 0)
            span.set(
                rows_in=outcome.input_rows,
                rows_out=outcome.output_rows,
                duplicates=outcome.input_rows - outcome.output_rows,
                compact_key=outcome.used_compact_key,
                partitioned=outcome.partitioned,
            )
            if outcome.lean:
                span.set(lean=True)
        return outcome

    def set_difference(
        self, new_table: str, base_table: str, strategy: str = "OPSD"
    ) -> SetDifferenceOutcome:
        """Compute ``new_table - base_table`` with the given strategy.

        A spilled base relation is handled without rehydration wherever
        the strategy allows: TPSD streams the on-disk prefix chunk by
        chunk, and an OPSD backed by a whole-row cache index never reads
        base rows at all. Only the uncached OPSD genuinely needs R
        materialized and faults it back in (``Table.data``) — the DSD
        policy prices that rehydration, so it rarely picks this path for
        a spilled base.
        """
        new = self.catalog.get_table(new_table)
        new_rows = new.data()
        # A generation dedup_table wrote and nothing has touched since.
        distinct = new.distinct
        self._touch(new_table)
        base = self.catalog.get_table(base_table)
        ctx = self._context()
        if strategy not in ("OPSD", "TPSD"):
            raise PlanError(f"unknown set-difference strategy {strategy!r}")
        # OPSD's hash table covers all of R; under memory pressure the
        # model refuses it and TPSD runs instead.
        forced = strategy == "OPSD" and self.cost_model.force_tpsd(base.num_rows)
        if forced:
            strategy = "TPSD"
        with self._statement_span(
            "SET_DIFFERENCE", table=new_table, strategy=strategy, base=base_table
        ) as span:
            self._dispatch()
            self.profiler.counters.inc(f"dsd_{strategy.lower()}_choices")
            if strategy == "OPSD":
                cache_entry = None
                if self.join_cache.enabled:
                    # Whole-row index over R: the anti-probe for ``Δ = R_Δ - R``
                    # is a semi-join on every column, so the same persistent
                    # index the join operators maintain serves OPSD too.
                    cache_entry, _ = self.join_cache.acquire(
                        ctx, base_table, base.column_names
                    )
                # The cached anti-probe runs entirely against the sorted
                # index: R's rows are never read, only its size, so a
                # spilled prefix stays on disk.
                base_rows = (
                    base.resident_data()
                    if cache_entry is not None and base.spilled_rows
                    else base.data()
                )
                outcome = self.resilience.run(
                    "set_difference",
                    lambda: one_phase_set_difference(
                        new_rows, base_rows, ctx, cache_entry, base.num_rows, distinct
                    ),
                )
            else:
                if base.spilled_rows:
                    self.profiler.counters.inc("spill.streamed_setdiffs")
                outcome = self.resilience.run(
                    "set_difference",
                    lambda: two_phase_set_difference(
                        new_rows, self._base_chunks(base), ctx, distinct
                    ),
                )
            span.set(rows_in=int(new_rows.shape[0]), rows_out=int(outcome.delta.shape[0]))
            if forced:
                span.set(forced_tpsd=True)
        return outcome

    def _base_chunks(self, table: Table):
        """Yield R as bounded chunks: spilled segments one at a time
        (the SpillManager charges each read's I/O; this generator ledgers
        the chunk as a transient while a kernel holds it), then the
        resident tail. Residency is unchanged throughout — R is never
        materialized in memory at once.
        """
        if table.spilled_rows:
            spill = self.spill
            tuple_bytes = table.tuple_bytes()
            for segment in spill.segments(table.name):
                rows = spill.read_segment(table, segment)
                chunk_bytes = int(rows.shape[0]) * tuple_bytes
                self.metrics.allocate_transient(chunk_bytes)
                try:
                    yield rows
                finally:
                    self.metrics.release_transient(chunk_bytes)
        resident = table.resident_data()
        if resident.shape[0]:
            yield resident

    def aggregate_merge(
        self, name: str, candidates: np.ndarray, func: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Merge candidate (group..., value) rows into an aggregated table.

        Implements the recursive-aggregation step (Section 3.3 / the CC
        and SSSP programs): the table keeps one row per group holding the
        current best value; candidates with strictly better values update
        it. Returns ``(merged_rows, improved_rows)`` — the improved rows
        are the iteration's ∆.
        """
        if func not in ("MIN", "MAX"):
            raise PlanError(f"aggregate_merge supports MIN/MAX, not {func!r}")
        with self._statement_span("AGGREGATE_MERGE", table=name, func=func) as span:
            merged, improved = self.resilience.run(
                "aggregate", lambda: self._aggregate_merge_inner(name, candidates, func)
            )
            span.set(rows_in=int(np.asarray(candidates).shape[0]), rows_out=int(improved.shape[0]))
        return merged, improved

    def _aggregate_merge_inner(
        self, name: str, candidates: np.ndarray, func: str
    ) -> tuple[np.ndarray, np.ndarray]:
        self._dispatch()
        self._touch(name)
        table = self.catalog.get_table(name)
        existing = table.data()
        candidates = np.asarray(candidates, dtype=np.int64).reshape(-1, table.arity)
        combined = np.vstack([existing, candidates]) if existing.shape[0] else candidates
        n = combined.shape[0]
        with self._context().model.aggregate(n):
            if n == 0:
                return existing.copy(), np.empty((0, table.arity), dtype=np.int64)
            group_columns = [combined[:, i] for i in range(table.arity - 1)]
            keys, (values,) = kernels.group_aggregate(group_columns, [(func, combined[:, -1])])
            merged = np.column_stack([keys, values]) if keys.size else values.reshape(-1, 1)
            improved = kernels.rows_difference(merged, existing)
        table.replace_contents(merged)
        self._note_table_rewrite(name)
        self._after_mutation(table, merged.shape[0] * table.tuple_bytes())
        return merged, improved

    def append_rows(self, name: str, rows: np.ndarray) -> None:
        """Append rows to a table (the ``R <- R ⊎ ΔR`` step), one rank per call."""
        with self._statement_span("APPEND", table=name, rows_out=int(rows.shape[0])):
            self._dispatch()
            self._appends += 1

            def _append() -> None:
                table = self.catalog.get_table(name)
                table.append_array(rows, self._appends)
                self._after_mutation(table, rows.shape[0] * table.tuple_bytes())

            self.resilience.run("append", _append)

    def delete_rows(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Delete the given tuples from a table (the IVM mutation path).

        Returns the distinct tuples actually removed; tuples not present
        are ignored. Survivors go through ``replace_contents``, so every
        deletion path shares the one rewrite primitive — the epoch bump
        is unconditional and a stale join index can never outlive a
        delete, whatever the surviving row count is. Survivors keep their
        append ranks.
        """
        table = self.catalog.get_table(name)
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, table.arity)
        with self._statement_span(
            "DELETE_ROWS", table=name, rows_in=int(rows.shape[0])
        ) as span:
            self._dispatch()
            self._touch(name)

            def _delete() -> np.ndarray:
                existing = table.data()
                model = self._context().model
                with model.membership_probe(existing.shape[0] + rows.shape[0]):
                    removed, deleted = kernels.rows_intersection(
                        rows, existing, mark_right=True
                    )
                    if removed.shape[0] == 0:
                        return removed
                    kept = ~deleted
                table.replace_contents(existing[kept], kept=kept)
                self._note_table_rewrite(name)
                self._after_mutation(table, table.memory_bytes())
                return removed

            removed = self.resilience.run("delete", _delete)
            span.set(rows_out=int(removed.shape[0]))
        return removed

    def replace_rows(self, name: str, rows: np.ndarray, runs: Sequence[int] = ()) -> None:
        """Swap a table's contents (the ∆-table update each iteration).

        ``runs`` counts the rows of consecutive runs, each of a fresh rank
        above the last; without it the rows are rank 0.
        """
        rows = np.asarray(rows, dtype=np.int64)
        with self._statement_span("REPLACE", table=name, rows_out=int(rows.shape[0])):
            self._dispatch()
            self._touch(name)
            table = self.catalog.get_table(name)
            table.replace_contents(rows, runs=runs, rank=self._appends + 1)
            self._appends += len(runs)
            self._note_table_rewrite(name)
            self._after_mutation(table, table.memory_bytes())

    def commit(self) -> None:
        """Flush pending writes (end of the EOST transaction)."""
        with self._statement_span("COMMIT"):

            self.resilience.run(
                "commit", lambda: self.cost_model.write_back(self.storage.commit())
            )

    def restore_rows(self, name: str, rows: np.ndarray) -> None:
        """Overwrite a table's contents from a checkpoint snapshot.

        Unlike :meth:`replace_rows` this charges no query dispatch — the
        checkpoint manager accounts the restore I/O itself — but the
        memory ledger is refreshed so the restored footprint is real.
        """
        rows = np.asarray(rows, dtype=np.int64)
        with self._statement_span("RESTORE", table=name, rows_out=int(rows.shape[0])):
            table = self.catalog.get_table(name)
            table.replace_contents(rows)
            self._note_table_rewrite(name)
            # Deliberately NOT touched: a restored table has not been
            # scanned, so it is immediately spillable — which matters,
            # because restoring a checkpoint whose run was only viable
            # *because* it spilled must re-spill rather than OOM.
            self._maybe_spill_restored(table)
            self._after_mutation(table, table.memory_bytes())

    def explain(self, sql_text: str) -> str:
        """EXPLAIN a SELECT / INSERT..SELECT against current statistics."""
        from repro.engine.explain import explain_sql

        return explain_sql(sql_text, self.catalog)

    def explain_analyze(self, sql_text: str) -> str:
        """EXPLAIN ANALYZE: execute the statement, render the plan with
        actual per-operator row counts and simulated times.

        Runs under a temporary profiler (restored afterwards), so it works
        whether or not the database was opened with ``profile=True``.
        """
        from repro.engine.explain import explain_analyze_sql

        saved = self.profiler
        self.cost_model.bind_profiler(Profiler(self.metrics.clock))
        try:
            return explain_analyze_sql(sql_text, self)
        finally:
            self.cost_model.bind_profiler(saved)

    # -- reporting ----------------------------------------------------------------

    @property
    def sim_seconds(self) -> float:
        return self.metrics.now()

    @property
    def peak_memory_bytes(self) -> int:
        return self.metrics.peak_bytes
