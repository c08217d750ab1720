"""The interpreter: Algorithm 1, semi-naive evaluation with stratification.

The interpreter drives the relational backend exactly the way the paper's
interpreter drives QuickStep: it creates the IDB/∆/m∆ tables, issues the
generated SQL per stratum and iteration, calls ``analyze`` according to
the OOF mode, deduplicates with a separate ``dedup`` call (INSERTs use
UNION ALL), computes ∆ with the DSD-chosen strategy, and commits once at
the end under EOST.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import DatalogError
from repro.core import compiler
from repro.core.compiler import CompiledPredicate, CompiledStratum, QueryGenerator
from repro.core.config import OofMode, RecStepConfig
from repro.core.setdiff_policy import DsdPolicy
from repro.datalog.analyzer import AnalyzedProgram
from repro.engine.database import Database
from repro.obs import CATEGORY_ITERATION, CATEGORY_STRATUM
from repro.resilience.checkpoint import (
    CheckpointManager,
    CheckpointState,
    edb_fingerprint,
)
from repro.sql import ast as sast


@dataclass
class IterationRecord:
    """Telemetry for one semi-naive iteration of one stratum."""

    stratum: int
    iteration: int
    delta_sizes: dict[str, int] = field(default_factory=dict)
    set_diff_strategies: dict[str, str] = field(default_factory=dict)


@dataclass
class InterpreterReport:
    iterations: int = 0
    records: list[IterationRecord] = field(default_factory=list)
    pbme_strata: list[int] = field(default_factory=list)


class SemiNaiveInterpreter:
    """Evaluates one analyzed program on a Database backend."""

    def __init__(
        self,
        database: Database,
        analyzed: AnalyzedProgram,
        config: RecStepConfig,
        edb_schemas: dict[str, tuple[str, ...]] | None = None,
        checkpoints: CheckpointManager | None = None,
        resume_from: CheckpointState | None = None,
    ) -> None:
        self._db = database
        self._analyzed = analyzed
        self._config = config
        self._edb_schemas = edb_schemas or {}
        self._generator = QueryGenerator(analyzed)
        self._policies: dict[str, DsdPolicy] = {}
        self.report = InterpreterReport()
        self._checkpoints = checkpoints
        self._resume = resume_from
        #: Where the evaluation currently is, for failure-report context.
        self.current_stratum = -1
        self.current_iteration = -1
        #: Content fingerprint of the loaded EDB, stamped into this run's
        #: checkpoints so a resume can reject snapshots of a different
        #: input; computed only when there is a manager to write them.
        self._edb_fingerprint = ""

    def position(self) -> dict:
        """The loop position, as failure-report context (None: not there yet)."""
        return {
            "stratum": self.current_stratum if self.current_stratum >= 0 else None,
            "iteration": self.current_iteration
            if self.current_iteration >= 0
            else None,
        }

    # -- setup -----------------------------------------------------------------

    def load_edb(self, edb_data: dict[str, np.ndarray]) -> None:
        """Create and bulk-load the EDB tables."""
        missing = self._analyzed.edb - set(edb_data)
        if missing:
            raise DatalogError(f"missing EDB relations: {sorted(missing)}")
        arities = {name: self._analyzed.arities[name] for name in self._analyzed.edb}
        for name, arity in sorted(arities.items()):
            schema = self._edb_schemas.get(name)
            if schema is not None and len(schema) != arity:
                raise DatalogError(
                    f"EDB relation {name!r} has a {len(schema)}-column schema "
                    f"but arity {arity} in the program"
                )
            # The compiler reads every table by position (c0, c1, ...):
            # the schema's names document the relation, they do not name columns.
            rows = np.asarray(edb_data[name], dtype=np.int64).reshape(-1, arity)
            self._db.load_table(name, compiler.columns_for(arity), rows)
        if self._checkpoints is not None:
            self._edb_fingerprint = edb_fingerprint(edb_data, arities)

    def create_idb_tables(self) -> None:
        for name in sorted(self._analyzed.idb):
            columns = compiler.columns_for(self._analyzed.arities[name])
            self._db.create_table(compiler.full_table(name), columns)
            self._db.create_table(compiler.delta_table(name), columns)
            self._db.create_table(compiler.mdelta_table(name), columns)

    # -- evaluation ---------------------------------------------------------------

    def run(self) -> InterpreterReport:
        """Evaluate all strata to fixpoint (Algorithm 1)."""
        resume = self._resume
        if resume is not None:
            self._restore(resume)
        for compiled_stratum in self._generator.compile():
            stratum = compiled_stratum.stratum
            if resume is not None and (
                stratum.index < resume.stratum
                or (stratum.index == resume.stratum and resume.stratum_complete)
            ):
                # Evaluated before the snapshot: the restored full tables
                # already hold this stratum's fixpoint.
                self._drop_working_tables(compiled_stratum.predicates)
                self._db.invalidate_join_cache()
                continue
            self.current_stratum = stratum.index
            self.current_iteration = -1
            self._db.resilience.check_deadline(stratum=stratum.index)
            with self._db.profiler.span(
                f"stratum {stratum.index}",
                CATEGORY_STRATUM,
                predicates=sorted(stratum.predicates),
                recursive=stratum.recursive,
            ) as span:
                resuming_here = resume is not None and stratum.index == resume.stratum
                # A mid-stratum snapshot was taken on the relational path,
                # so the resumed stratum must stay relational too.
                if not resuming_here and self._maybe_run_pbme(compiled_stratum):
                    span.set(engine="pbme")
                    self._maybe_checkpoint(stratum.index, -1, [])
                    continue
                span.set(engine="relational")
                if resuming_here:
                    records = self.run_fixpoint(compiled_stratum, None, start=resume.iteration)
                else:
                    records = self.run_fixpoint(
                        compiled_stratum,
                        [(p.facts, p.init_query()) for p in compiled_stratum.predicates],
                    )
                self.report.iterations += len(records)
                self.report.records.extend(records)
                # Stratum boundary: the next stratum joins different
                # tables, so the join indexes built for this one are dead
                # weight. (Maintenance keeps them warm across batches.)
                self._db.invalidate_join_cache()
            self._maybe_checkpoint(stratum.index, -1, [])
        self._db.commit()
        return self.report

    def _maybe_run_pbme(self, compiled_stratum: CompiledStratum) -> bool:
        """Delegate a TC/SG-shaped stratum to the bit-matrix evaluator."""
        from repro.core import bitmatrix

        decision = bitmatrix.pbme_applicability(
            self._analyzed, compiled_stratum.stratum, self._db, self._config
        )
        if not decision.applicable:
            return False
        bitmatrix.run_pbme_stratum(decision, self._db, self._config, self.report)
        self.report.pbme_strata.append(compiled_stratum.stratum.index)
        return True

    def run_fixpoint(
        self,
        compiled_stratum: CompiledStratum,
        seeds: list[tuple] | None,
        start: int = 0,
    ) -> list[IterationRecord]:
        """Algorithm 1's loop over one stratum, for every caller: evaluation,
        DRed rederivation and maintenance's per-stratum recompute.

        ``seeds`` is iteration 0, per member in member order: the rows to
        append to m∆ and the query to evaluate (None: no query). Facts and
        rederivation seeds both go through m∆, so the dedup/set-difference
        path lands them in full and ∆ and semi-naive rules see them.
        ``seeds=None`` resumes a checkpoint: the ∆ tables were restored, and
        the loop goes on after iteration ``start`` while they are non-empty.
        Returns one record per iteration run; the working tables are
        dropped.
        """
        stratum = compiled_stratum.stratum
        predicates = compiled_stratum.predicates
        for predicate in predicates:
            name = predicate.predicate
            policy = self._policies[name] = DsdPolicy(enabled=self._config.dsd)
            if seeds is None:
                policy.prev_mu = self._resume.dsd_mu.get(name, policy.prev_mu)
        records: list[IterationRecord] = []
        iteration = start
        more = seeds is not None or (
            stratum.recursive
            and any(self._db.table_size(compiler.delta_table(p.predicate)) for p in predicates)
        )
        while more:
            if seeds is None:
                iteration += 1
            self.current_iteration = iteration
            record = IterationRecord(stratum=stratum.index, iteration=iteration)
            with self._db.profiler.span(
                f"iteration {iteration}", CATEGORY_ITERATION
            ) as span:
                for position, predicate in enumerate(predicates):
                    if seeds is None:
                        query = predicate.delta_query()
                    else:
                        rows, query = seeds[position]
                        if len(rows):
                            self._db.append_rows(
                                compiler.mdelta_table(predicate.predicate),
                                np.asarray(rows, dtype=np.int64),
                            )
                    self._evaluate_predicate(predicate, query, record, init=seeds is not None)
                span.set(delta_sizes=dict(record.delta_sizes))
            records.append(record)
            delta_rows = sum(record.delta_sizes.values())
            self._db.note_iteration(stratum.index, iteration, delta_rows, span.duration)
            if seeds is None and not delta_rows:
                break  # the converging iteration is not charged to the guard
            self._db.resilience.check_guard(stratum.index, iteration, delta_rows)
            self._maybe_checkpoint(stratum.index, iteration, predicates, len(records))
            more = stratum.recursive and delta_rows > 0
            seeds = None
        self._drop_working_tables(predicates)
        return records

    def _drop_working_tables(self, predicates: list[CompiledPredicate]) -> None:
        for predicate in predicates:
            self._db.execute_ast(sast.DropTable(compiler.delta_table(predicate.predicate)))
            self._db.execute_ast(sast.DropTable(compiler.mdelta_table(predicate.predicate)))

    # -- checkpoint/resume --------------------------------------------------------

    def _maybe_checkpoint(
        self,
        stratum_index: int,
        iteration: int,
        predicates: list[CompiledPredicate],
        pending: int = 0,
    ) -> None:
        """Checkpoint at an iteration/stratum boundary, if a manager is set."""
        if self._checkpoints is not None:
            self._checkpoints.maybe_save(
                self.snapshot(stratum_index, iteration, predicates, pending)
            )

    def snapshot(
        self,
        stratum_index: int,
        iteration: int,
        predicates: list[CompiledPredicate],
        pending: int = 0,
    ) -> CheckpointState:
        """Semi-naive state at an iteration/stratum boundary.

        Taken when m∆ tables are empty and ∆ tables hold the just-
        completed iteration's delta, so the snapshot is exactly the
        Algorithm 1 loop state. ``iteration=-1`` marks a stratum
        boundary (working tables already dropped; only fulls survive).
        ``pending`` counts the current stratum's iterations not yet in
        the report.
        """
        # table_snapshot, not table_array: snapshotting a spilled full
        # relation streams its on-disk prefix instead of faulting it back
        # in — checkpointing must relieve memory pressure, not recreate it.
        tables: dict[str, np.ndarray] = {
            f"full:{name}": self._db.table_snapshot(compiler.full_table(name))
            for name in sorted(self._analyzed.idb)
        }
        dsd_mu: dict[str, float] = {}
        if iteration >= 0:
            for predicate in predicates:
                name = predicate.predicate
                tables[f"delta:{name}"] = self._db.table_snapshot(
                    compiler.delta_table(name)
                )
                dsd_mu[name] = self._policies[name].prev_mu
        return CheckpointState(
            program=self._analyzed.program.name,
            stratum=stratum_index,
            iteration=iteration,
            tables=tables,
            dsd_mu=dsd_mu,
            iterations_total=self.report.iterations + pending,
            pbme_strata=list(self.report.pbme_strata),
            sim_seconds=self._db.sim_seconds,
            edb_fingerprint=self._edb_fingerprint,
        )

    def _restore(self, state: CheckpointState) -> None:
        """Load a checkpoint into freshly created IDB tables."""
        for key, rows in sorted(state.tables.items()):
            kind, _, name = key.partition(":")
            if kind == "full":
                table = compiler.full_table(name)
            elif kind == "edb":
                # Durable-view base checkpoints carry the EDB alongside
                # the fulls so recovery is self-contained; the rows are
                # identical to what load_edb already installed (the
                # fingerprint match guarantees it), so overwriting the
                # base table is a no-op by content.
                table = name
            else:
                table = compiler.delta_table(name)
            self._db.restore_rows(table, rows)
            self._db.analyze(table)
        self.report.iterations = state.iterations_total
        self.report.pbme_strata = list(state.pbme_strata)
        # Continue the interrupted run's clock: the resumed evaluation
        # reports total simulated time, not just the tail.
        behind = state.sim_seconds - self._db.sim_seconds
        if behind > 0:
            self._db.metrics.clock.advance(behind)
        # Restored fulls carry fresh epochs; rebuild their whole-row
        # indexes so the resumed run sees the same cache state an
        # uninterrupted run would.
        self._db.rehydrate_join_cache(
            [compiler.full_table(name) for name in sorted(self._analyzed.idb)]
        )

    # -- one predicate, one iteration ------------------------------------------------

    def _evaluate_predicate(
        self,
        predicate: CompiledPredicate,
        query: sast.Query | None,
        record: IterationRecord,
        init: bool,
    ) -> None:
        name = predicate.predicate
        full = compiler.full_table(name)
        delta = compiler.delta_table(name)
        mdelta = compiler.mdelta_table(name)

        if query is not None:
            self._uieval(predicate, query)
        self._analyze_after_eval(predicate, init)

        if predicate.aggregate in ("MIN", "MAX"):
            candidates = self._db.table_array(mdelta)
            _, improved = self._db.aggregate_merge(full, candidates, predicate.aggregate)
            delta_rows = improved
            strategy = "AGG-MERGE"
        else:
            dedup_outcome = self._db.dedup_table(mdelta)
            self._analyze_after_dedup(predicate, init)
            policy = self._policies[name]
            strategy = policy.choose(
                self._db.table_size(full),
                dedup_outcome.output_rows,
                cached_extension=self._db.join_cache_extension(full),
                spilled_bytes=self._db.table_spilled_bytes(full),
            )
            outcome = self._db.set_difference(mdelta, full, strategy)
            if outcome.intersection_size is not None:
                policy.observe_intersection(
                    dedup_outcome.output_rows, outcome.intersection_size
                )
            delta_rows = outcome.delta
            self._db.append_rows(full, delta_rows)

        self._db.replace_rows(delta, delta_rows)
        self._db.execute_ast(sast.DeleteAll(mdelta))
        self._analyze_after_delta(predicate, init)

        record.delta_sizes[name] = int(delta_rows.shape[0])
        record.set_diff_strategies[name] = strategy

    def _uieval(self, predicate: CompiledPredicate, query: sast.Query) -> None:
        """Issue the evaluation SQL: one query under UIE, many without."""
        mdelta = compiler.mdelta_table(predicate.predicate)
        if self._config.uie or isinstance(query, sast.Select):
            self._db.execute_ast(sast.InsertSelect(mdelta, query))
            return
        # Individual IDB evaluation (Figure 4, left): one INSERT per
        # subquery into its own temp table, then a merge query.
        assert isinstance(query, sast.UnionAll)
        columns = compiler.columns_for(predicate.arity)
        tmp_names: list[str] = []
        for index, select in enumerate(query.selects):
            tmp = compiler.tmp_table(predicate.predicate, index)
            tmp_names.append(tmp)
            self._db.create_table(tmp, columns)
            self._db.execute_ast(sast.InsertSelect(tmp, select))
        merge_arms = []
        for index, tmp in enumerate(tmp_names):
            alias = f"t{index}"
            merge_arms.append(
                sast.Select(
                    items=tuple(
                        sast.SelectItem(sast.ColumnRef(alias, c), c) for c in columns
                    ),
                    tables=(sast.TableRef(tmp, alias),),
                )
            )
        merged: sast.Query = (
            merge_arms[0] if len(merge_arms) == 1 else sast.UnionAll(tuple(merge_arms))
        )
        self._db.execute_ast(sast.InsertSelect(mdelta, merged))
        for tmp in tmp_names:
            self._db.execute_ast(sast.DropTable(tmp))

    # -- OOF: the analyze schedule --------------------------------------------------

    def _analyze_after_eval(self, predicate: CompiledPredicate, init: bool) -> None:
        """``analyze(Rt)`` — line 9 of Algorithm 1."""
        mdelta = compiler.mdelta_table(predicate.predicate)
        mode = self._config.oof
        if init or mode is OofMode.ON:
            # Targeted: sizes for joins; fuller stats only for aggregation.
            self._db.analyze(mdelta, full=bool(predicate.aggregate))
        elif mode is OofMode.FA:
            self._db.analyze(mdelta, full=True)
        # OofMode.NA after init: statistics stay frozen.
        if mode is OofMode.FA and not init:
            for table in (
                compiler.full_table(predicate.predicate),
                compiler.delta_table(predicate.predicate),
            ):
                self._db.analyze(table, full=True)

    def _analyze_after_dedup(self, predicate: CompiledPredicate, init: bool) -> None:
        """``analyze(R_delta, R)`` — line 11 of Algorithm 1."""
        mode = self._config.oof
        if init or mode is OofMode.ON:
            self._db.analyze(compiler.mdelta_table(predicate.predicate))
            self._db.analyze(compiler.full_table(predicate.predicate))
        elif mode is OofMode.FA:
            self._db.analyze(compiler.mdelta_table(predicate.predicate), full=True)
            self._db.analyze(compiler.full_table(predicate.predicate), full=True)

    def _analyze_after_delta(self, predicate: CompiledPredicate, init: bool) -> None:
        mode = self._config.oof
        if init or mode is OofMode.ON:
            self._db.analyze(compiler.delta_table(predicate.predicate))
            self._db.analyze(compiler.full_table(predicate.predicate))
        elif mode is OofMode.FA:
            self._db.analyze(compiler.delta_table(predicate.predicate), full=True)
