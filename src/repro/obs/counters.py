"""Monotonic event counters for engine internals.

Counters complement spans: where a span answers "where did the time
go", a counter answers "how often did X happen" — queries dispatched,
tuples deduplicated, hash tables built, DSD strategy choices, PBME bit
operations, transient-accounting underflows. Counter names are plain
strings; the well-known ones are listed in :data:`KNOWN_COUNTERS` so
docs and tests have a single source of truth.
"""

from __future__ import annotations

#: name -> description of every counter the engine increments. New sites
#: should register here; the registry itself accepts any name.
KNOWN_COUNTERS = {
    "queries_dispatched": "SQL statements paying full dispatch overhead",
    "ddl_statements": "CREATE/DROP statements (catalog-only cost)",
    "statements_executed": "all statements routed through Database.execute_ast",
    "hash_tables_built": "join/anti-join/set-difference hash-table builds",
    "hash_build_rows": "tuples inserted into join hash tables",
    "hash_probe_rows": "tuples probed against join hash tables",
    "join_output_rows": "tuples produced by equi-join operators",
    "dedup_calls": "dedup_table invocations",
    "dedup_input_rows": "tuples fed to deduplication",
    "dedup_output_rows": "distinct tuples surviving deduplication",
    "tuples_deduped": "duplicates removed (input - output)",
    "dedup_fast_path": "dedups taking the CCK-GSCHT compact-key path",
    "dedup_generic_path": "dedups taking the generic hash-table path",
    "dedup_lean_path": "dedups taking the memory-lean sort path (degraded)",
    "dsd_opsd_choices": "set-differences executed with OPSD",
    "dsd_tpsd_choices": "set-differences executed with TPSD",
    "join_cache.hit": "joins served by a warm persistent index (no build)",
    "join_cache.miss": "persistent-index cold builds (first use of a key)",
    "join_cache.extend": "persistent-index incremental extensions (Δ only)",
    "join_cache.evict": "index entries dropped (rewrite/stratum/overflow)",
    "join_cache.extend_rows": "appended rows ingested by index extensions",
    "pbme_strata": "strata evaluated by the bit-matrix engine",
    "pbme_bit_ops": "bit-pair visits during PBME expansion",
    "transient_underflows": "release_transient calls driving the balance negative",
    # -- simulated-executor phases (repro.engine.executor) -------------------
    "phase_scan_runs": "parallel scan phases executed",
    "phase_probe_runs": "parallel probe phases executed",
    "phase_build_runs": "parallel hash-build phases executed",
    "phase_dedup_runs": "parallel dedup phases executed",
    "phase_aggregate_runs": "parallel aggregate phases executed",
    "phase_bitmatrix_runs": "parallel bit-matrix phases executed",
    "phase_partition_runs": "radix scatter phases executed",
    "phase_p_build_runs": "per-partition build phases executed",
    "phase_p_probe_runs": "per-partition probe phases executed",
    "phase_p_dedup_runs": "per-partition dedup phases executed",
    # -- radix partitioning (repro.engine.operators/dedup/setops) ------------
    "partition.join_runs": "equi-joins executed on the radix-partitioned path",
    "partition.dedup_runs": "dedups executed on the radix-partitioned path",
    "partition.setdiff_runs": "set-differences executed on the radix-partitioned path",
    "partition.setdiff_opsd": "partitioned set-difference OPSD probe phases",
    "partition.setdiff_tpsd_intersect": "partitioned TPSD intersect phases",
    "partition.setdiff_tpsd_subtract": "partitioned TPSD subtract phases",
    "partition.scatter_rows": "tuples scattered into radix partitions",
    "partition.shed": "partitioned plans shed to single-shot under degradation",
    # -- resilience (repro.resilience) -------------------------------------
    "faults_injected": "transient faults raised by the injection harness",
    "fault_retries": "operations re-run after an injected transient fault",
    "faults_worker_failures": "parallel-phase tasks re-executed after worker failure",
    "faults_memory_spikes": "injected transient memory-pressure spikes",
    "memory_pressure_soft": "soft (80%) memory watermark crossings",
    "memory_pressure_critical": "critical (95%) memory watermark crossings",
    "degradations_taken": "degradation-ladder steps that changed behaviour",
    "degradation_shed_join_cache": "join-state caches evicted under memory pressure",
    "degradation_shed_partitioning": "radix partitioning disabled under memory pressure",
    "degradation_lean_dedup": "dedups rerouted to the memory-lean sort path",
    "degradation_force_tpsd": "OPSD set-differences overridden to TPSD",
    "degradation_spill_cold_tables": "cold table prefixes evicted to the disk tier",
    # -- spill-to-disk tier (repro.storage.spill) ----------------------------
    "spill.tables_spilled": "spill_table calls that moved at least one segment",
    "spill.segments_written": "spill segment files durably published",
    "spill.bytes_written": "file bytes written to spill segments",
    "spill.segment_reads": "spill segments read back (streamed or faulted)",
    "spill.bytes_read": "file bytes read back from spill segments",
    "spill.fault_ins": "whole-prefix rehydrations via Table.data()",
    "spill.streamed_setdiffs": "TPSD set-differences streaming a spilled base",
    "spill.discarded_segments": "segments dropped unread (rewrite/truncate)",
    "spill.torn_quarantined": "corrupt spill segments quarantined on read",
    "spill.quarantine_swept": "quarantined torn segments removed at cleanup",
    "spill.enospc": "spill writes refused by a full disk (real or injected)",
    "checkpoints_written": "evaluation checkpoints saved to disk",
    "checkpoint_bytes_written": "bytes of table state written to checkpoints",
    "checkpoint_corrupt_skipped": "torn/corrupt checkpoint files skipped on load",
    "checkpoint_corrupt_pruned": "checksum-failing checkpoint files deleted during prune",
    "checkpoint_stale_skipped": "checkpoints skipped on load because their EDB fingerprint no longer matched",
    # -- runtime divergence guard (repro.resilience.guards) -----------------
    "guard.soft_warnings": "divergence budgets crossing their soft fraction",
    "guard.max_iterations_tripped": "evaluations killed by the iteration budget",
    "guard.max_total_rows_tripped": "evaluations killed by the row budget",
    # -- incremental view maintenance (repro.core.ivm) -----------------------
    "ivm.maintain_runs": "EDB update batches applied via incremental maintenance",
    "ivm.strata_skipped": "strata skipped because no body predicate changed",
    "ivm.strata_dred": "strata maintained with DRed over-delete/rederive",
    "ivm.strata_recomputed": "strata recomputed from scratch during maintenance",
    "ivm.overdeleted_rows": "rows DRed over-deleted before rederivation",
    "ivm.rederived_rows": "over-deleted rows DRed rederived back",
    # -- magic sets / demand-driven evaluation (repro.datalog.magic) ---------
    "magic.rewrites": "point goals answered through a magic-set rewritten program",
    "magic.degenerate": "point goals that degenerated to the unrewritten program",
    "magic.pinned_predicates": "cone predicates pinned to unrestricted evaluation (aggregation/negation)",
    # -- query service (repro.server) ---------------------------------------
    "server.submitted": "query submissions received by the service",
    "server.admitted": "queries admitted past admission control",
    "server.rejected": "submissions rejected with an Overloaded response",
    "server.rejected_queue_full": "rejections because the session queue was full",
    "server.rejected_memory": "rejections because reserved memory was above the high watermark",
    "server.rejected_draining": "rejections because the service was draining",
    "server.rejected_breaker": "rejections because the class circuit breaker was open",
    "server.shed": "accepted sessions dropped before they ran (drain/cancel)",
    "server.breaker_open": "circuit-breaker trips to the open state",
    "server.breaker_half_open": "circuit-breaker transitions to half-open probing",
    "server.breaker_closed": "circuit-breaker recoveries to the closed state",
    "server.checkpointed_on_drain": "in-flight sessions checkpointed during drain",
    "server.spill_dirs_cleaned": "per-session spill directories removed at release/drain",
    "server.rejected_no_view": "update submissions rejected for a missing/dead target view",
    "server.rejected_bad_goal": "point submissions rejected for an unparseable or ill-typed goal",
    "server.point_queries": "point-query sessions executed (cache hits included)",
    "server.point_cache_hits": "point queries served from the demand cache without evaluation",
    "server.point_cache_misses": "point queries that ran their demanded cone to fixpoint",
    "server.views_materialized": "fixpoints kept live for incremental updates",
    "server.views_released": "materialized views released (explicitly or at drain)",
    "server.updates_applied": "update sessions that maintained a view successfully",
    # -- durable views: write-ahead log + crash recovery ---------------------
    "wal.appends": "update batches durably appended to a write-ahead log",
    "wal.bytes_appended": "framed bytes appended to write-ahead logs",
    "wal.append_retries": "WAL appends re-run after an injected transient fault",
    "wal.torn_truncated": "torn WAL tails truncated back to a record boundary on open",
    "wal.torn_repaired": "torn WAL appends repaired in place (truncate + retry)",
    "wal.compactions": "WAL truncations after rolling a fresh base checkpoint",
    "wal.duplicate_batches": "update batches re-acked by batch_id without re-applying",
    "wal.views_persisted": "materialized views that committed durable state",
    "wal.persist_failures": "views degraded to memory-only (persistence failed)",
    "recovery.views_recovered": "durable views rebuilt from base + log replay",
    "recovery.views_quarantined": "unrecoverable view directories moved aside",
    "recovery.batches_replayed": "logged batches re-applied during recovery",
    "recovery.batches_skipped": "logged batches skipped as already folded into the base",
}


class CounterRegistry:
    """A named bag of integer counters."""

    enabled = True

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def inc(self, name: str, value: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + value

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        """A sorted copy of every non-zero counter."""
        return dict(sorted(self._counts.items()))

    def clear(self) -> None:
        self._counts.clear()


class NullCounterRegistry(CounterRegistry):
    """Disabled path: increments vanish, reads return zero."""

    enabled = False

    def inc(self, name: str, value: int = 1) -> None:
        pass


NULL_COUNTERS = NullCounterRegistry()
