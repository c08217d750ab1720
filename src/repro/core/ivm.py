"""Incremental view maintenance: serve EDB churn from the warm fixpoint.

``MaintenanceRun`` applies one batch of EDB insertions/deletions to a
database that already holds a program's fixpoint and re-establishes that
fixpoint without recomputing from scratch. Strata are revisited in
topological order and each is maintained by one of three classes:

* **skip** — none of the stratum's body relations changed; its fulls are
  still exact.
* **DRed** — monotone strata, recursive or not, over-delete, apply the
  deletions, then warm-start the interpreter's fixpoint loop
  (``SemiNaiveInterpreter.run_fixpoint``) with the rederivable deleted
  tuples plus insertion-derived ones as iteration 0's seeds. A candidate
  (the head of a derivation through a just-deleted tuple) survives if it
  is a fact or derives from lower strata and same-stratum tuples not
  deleted and of strictly lower *append rank* (``Database.append_rows``
  numbers its calls). Ranks decrease along any chain of support, so
  circular support keeps nothing; bulk-written rows rank 0 and get plain
  DRed. A non-recursive stratum names no same-stratum relation in a
  body: one support query against lower rows settles each candidate,
  over-deletion ends after one round and the loop after iteration 0.
  Insert-only batches pay only the delta propagation.
* **recompute** — strata with negation or aggregation fall back to a
  from-scratch re-evaluation of just that stratum (inputs are already
  maintained): its fulls are emptied and the same fixpoint loop runs,
  seeded exactly as evaluation seeds it.

Everything runs through the ``Database`` primitives and the one fixpoint
loop, so maintenance is metered, spill-aware, fault-injectable and
held to the divergence guard's budgets (per batch; the opening's
deadline does not carry over) exactly like a cold evaluation; the
join-state cache is kept warm across maintenance (appends extend
indexes incrementally, deletions evict via the unconditional epoch
bump).

Batch semantics: insertions and deletions are sets; a tuple listed in
both is a no-op if already present and an insertion if absent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import DatalogError
from repro.core import compiler
from repro.core.compiler import CompiledPredicate, CompiledStratum
from repro.engine import kernels
from repro.obs import CATEGORY_STRATUM
from repro.sql import ast as sast

#: How a stratum was (or would be) maintained.
CLASS_SKIP = "skip"
CLASS_DRED = "dred"
CLASS_RECOMPUTE = "recompute"


@dataclass
class MaintenanceReport:
    """What one maintenance batch did."""

    #: Semi-naive iterations spent across all maintained strata.
    iterations: int = 0
    #: Stratum index → maintenance class applied this batch.
    strata: dict[int, str] = field(default_factory=dict)
    #: EDB relation → effective tuples applied ({"inserted", "deleted"}).
    applied: dict[str, dict[str, int]] = field(default_factory=dict)
    #: IDB relation → net fixpoint change ({"inserted", "deleted"}).
    idb_deltas: dict[str, dict[str, int]] = field(default_factory=dict)

    def delta_rows(self) -> int:
        """Total net rows the batch moved (EDB and IDB, both directions)."""
        total = 0
        for sizes in (*self.applied.values(), *self.idb_deltas.values()):
            total += sizes["inserted"] + sizes["deleted"]
        return total


def classify_stratum(compiled: CompiledStratum) -> str:
    """The maintenance class a stratum's *shape* admits (batch-independent)."""
    if any(rule.negative_atoms() for rule in compiled.stratum.rules) or any(
        predicate.aggregate for predicate in compiled.predicates
    ):
        return CLASS_RECOMPUTE
    return CLASS_DRED


class _RankIndex:
    """Row → (append rank, deleted?) over one relation's pre-batch rows, by
    packed key (the row's record if it is too wide to pack)."""

    def __init__(self, rows: np.ndarray, ranks: np.ndarray) -> None:
        self.rows, self.rank = rows.copy(), ranks
        columns = [self.rows[:, i] for i in range(rows.shape[1])]
        codec = kernels.KeyCodec.observed(columns)
        if codec.packable:
            self._keys_of = lambda probe: codec.pack_probe(
                [probe[:, i] for i in range(probe.shape[1])]
            )
            keys = codec.encode(columns)
        else:
            self._keys_of = kernels.row_records
            keys = kernels.row_records(self.rows)
        self.deleted = np.zeros(rows.shape[0], dtype=bool)
        # A dense key space is one lookup per probe (TC/G500: 2^18 codes for
        # 246 k rows); a sparse one is sorted once and binary-searched.
        span = 1 << codec.total_bits if codec.packable and len(columns) > 1 else 0
        self._slot_of = None
        if 0 < span <= 4 * keys.size:
            self._slot_of = np.full(span, -1, dtype=np.int64)
            self._slot_of[keys] = np.arange(keys.size)
        else:
            self._order = np.argsort(keys, kind="stable")
            self._keys = keys[self._order]

    def _find(self, keys: np.ndarray) -> np.ndarray:
        if self._slot_of is not None:
            return np.where(keys >= 0, self._slot_of[keys], -1)
        if self._keys.size == 0:
            return np.full(keys.size, -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(self._keys, keys), self._keys.size - 1)
        return np.where(self._keys[at] == keys, self._order[at], -1)

    def slots(self, rows: np.ndarray) -> np.ndarray:
        """Each row's slot in the index, -1 where the relation lacks it."""
        return self._find(self._keys_of(rows))

    def live(self, rows: np.ndarray) -> np.ndarray:
        """The distinct slots of ``rows`` present and not deleted."""
        keys = self._keys_of(rows)
        if keys.dtype.names is None:
            slots = self._find(kernels.sorted_distinct(keys))
        else:  # records have no ordering ufunc: deduplicate their slots
            slots = kernels.sorted_distinct(self._find(keys))
        slots = slots[slots >= 0]
        return slots[~self.deleted[slots]]

    def supports(self, rows: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Which rows are present, not deleted and ranked below ``ranks``."""
        slots = self.slots(rows)
        ok = slots >= 0
        ok[ok] = ~self.deleted[slots[ok]] & (self.rank[slots[ok]] < ranks[ok])
        return ok


def _as_rows(rows, arity: int) -> np.ndarray:
    if rows is None:
        return np.empty((0, arity), dtype=np.int64)
    return np.asarray(rows, dtype=np.int64).reshape(-1, arity)


def check_batch(analyzed, inserts: dict | None, deletes: dict | None) -> None:
    """Raise :class:`DatalogError` unless the batch can apply to ``analyzed``.

    Runs before anything mutates — and, for a durable view, before
    anything is logged: the WAL must only hold batches a replay can apply.
    """
    for side, batch in (("inserts", inserts), ("deletes", deletes)):
        for name, rows in (batch or {}).items():
            if name not in analyzed.edb:
                raise DatalogError(
                    f"{side} target {name!r} is not an EDB relation of "
                    f"program {analyzed.program.name!r}"
                )
            try:
                _as_rows(rows, analyzed.arities[name])
            except (TypeError, ValueError) as error:
                raise DatalogError(
                    f"{side} rows for {name!r} do not fit arity "
                    f"{analyzed.arities[name]}: {error}"
                ) from error


class MaintenanceRun:
    """One maintenance batch against a warm interpreter.

    The run drives the interpreter's fixpoint loop (``run_fixpoint``) for
    DRed and recompute strata, and shares its query generator — this
    module is the interpreter's maintenance half, split out for size.
    """

    def __init__(
        self,
        interpreter,
        inserts: dict[str, np.ndarray],
        deletes: dict[str, np.ndarray],
    ) -> None:
        self._interp = interpreter
        self._db = interpreter._db
        self._analyzed = interpreter._analyzed
        self._generator = interpreter._generator
        self._inserts = inserts
        self._deletes = deletes
        #: relation → (net inserted rows, net deleted rows), EDB and IDB.
        self._net: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        #: Work tables to drop when the batch is done.
        self._work_tables: list[str] = []
        self.report = MaintenanceReport()

    # -- top level ---------------------------------------------------------

    def run(self) -> MaintenanceReport:
        """Apply the batch. Meanwhile the interpreter has no checkpoint
        manager: a snapshot would mix old and new state."""
        checkpoints, self._interp._checkpoints = self._interp._checkpoints, None
        # Per-batch traces and divergence budgets: nothing reads a finished
        # batch's samples, and a view serving batches forever must neither
        # accumulate them nor trip on its own history or opening deadline.
        self._db.metrics.take_traces()
        if self._db.resilience.guard is not None:
            self._db.resilience.guard.reset()
        try:
            return self._run()
        finally:
            self._interp._checkpoints = checkpoints

    def _run(self) -> MaintenanceReport:
        counters = self._db.profiler.counters
        counters.inc("ivm.maintain_runs")
        compiled = self._generator.compile()
        self._classes = {cs.stratum.index: classify_stratum(cs) for cs in compiled}
        effective = self._effective_edb_batch()
        #: Deletions anywhere in the batch, or a dirty recompute stratum
        #: (negation can delete downstream even from pure insertions):
        #: only then do DRed readers need old-state snapshots.
        dirty = self._dirty_closure(compiled, effective)
        self._deletes_possible = any(
            dels.shape[0] for _, dels in effective.values()
        ) or any(
            self._classes[cs.stratum.index] == CLASS_RECOMPUTE
            and (cs.stratum.predicates & dirty)
            for cs in compiled
        )
        self._apply_edb_batch(compiled, effective)
        try:
            for cs in compiled:
                index = cs.stratum.index
                if not self._inputs_changed(cs):
                    self.report.strata[index] = CLASS_SKIP
                    counters.inc("ivm.strata_skipped")
                    continue
                cls = self._classes[index]
                self.report.strata[index] = cls
                self._snapshot_before(cs, compiled)
                with self._db.profiler.span(
                    f"maintain stratum {index}",
                    CATEGORY_STRATUM,
                    predicates=sorted(cs.stratum.predicates),
                    maintenance=cls,
                ):
                    if cls == CLASS_DRED:
                        counters.inc("ivm.strata_dred")
                        self._maintain_dred(cs)
                    else:
                        counters.inc("ivm.strata_recomputed")
                        self._recompute(cs)
                self._publish_deltas(cs)
        finally:
            self._cleanup()
        self._db.commit()
        return self.report

    # -- batch normalization and EDB mutation ------------------------------

    def _effective_edb_batch(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Normalize the request against the current EDB contents."""
        check_batch(self._analyzed, self._inserts, self._deletes)
        effective: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name in sorted(set(self._inserts) | set(self._deletes)):
            arity = self._analyzed.arities[name]
            ins = _as_rows(self._inserts.get(name), arity)
            dels = _as_rows(self._deletes.get(name), arity)
            # Nothing is mutated yet: the live view, not a copy per batch.
            existing = self._db.catalog.get_table(name).data()
            if dels.shape[0]:
                if ins.shape[0]:
                    dels = kernels.rows_difference(dels, ins)
                if dels.shape[0]:
                    dels = kernels.rows_intersection(dels, existing)
            if ins.shape[0]:
                ins = kernels.rows_difference(ins, existing)
            if ins.shape[0] or dels.shape[0]:
                effective[name] = (ins, dels)
        return effective

    def _apply_edb_batch(
        self,
        compiled: list[CompiledStratum],
        effective: dict[str, tuple[np.ndarray, np.ndarray]],
    ) -> None:
        for name, (ins, dels) in effective.items():
            self._net[name] = (ins, dels)
            if self._need_old(name, compiled, from_stratum=0):
                self._make_work_table(
                    compiler.ivm_old_table(name), self._db.table_array(name)
                )
            if dels.shape[0]:
                self._db.delete_rows(name, dels)
                self._make_work_table(compiler.ivm_del_table(name), dels)
            if ins.shape[0]:
                self._db.append_rows(name, ins)
                self._make_work_table(compiler.ivm_ins_table(name), ins)
            self.report.applied[name] = {
                "inserted": int(ins.shape[0]),
                "deleted": int(dels.shape[0]),
            }

    def _publish_deltas(self, cs: CompiledStratum) -> None:
        """Expose a maintained stratum's net deltas to downstream strata."""
        for predicate in cs.predicates:
            name = predicate.predicate
            ins, dels = self._net.get(name, (None, None))
            if ins is None:
                continue
            if ins.shape[0]:
                self._make_work_table(compiler.ivm_ins_table(name), ins)
            if dels.shape[0]:
                self._make_work_table(compiler.ivm_del_table(name), dels)
            self.report.idb_deltas[name] = {
                "inserted": int(ins.shape[0]),
                "deleted": int(dels.shape[0]),
            }

    # -- change tracking and old-state snapshots ---------------------------

    def _changed(self, name: str) -> bool:
        entry = self._net.get(name)
        return entry is not None and bool(entry[0].shape[0] or entry[1].shape[0])

    def _body_predicates(self, cs: CompiledStratum, positive_only: bool = False):
        for rule in cs.stratum.rules:
            for atom in rule.positive_atoms():
                yield atom.predicate
            if not positive_only:
                for atom in rule.negative_atoms():
                    yield atom.predicate

    def _inputs_changed(self, cs: CompiledStratum) -> bool:
        return any(self._changed(name) for name in self._body_predicates(cs))

    def _dirty_closure(self, compiled, effective) -> set[str]:
        """Relations that *may* change this batch (reachability, not data)."""
        dirty = {name for name in effective}
        for cs in compiled:
            if any(name in dirty for name in self._body_predicates(cs)):
                dirty |= cs.stratum.predicates
        return dirty

    def _need_old(
        self, name: str, compiled: list[CompiledStratum], from_stratum: int
    ) -> bool:
        """Does a downstream stratum read ``name``'s pre-batch state?

        Only DRed's over-deletion reads old state, through positive atoms,
        and a batch that can delete nothing never over-deletes.
        """
        return self._deletes_possible and any(
            cs.stratum.index >= from_stratum
            and self._classes[cs.stratum.index] == CLASS_DRED
            and name in self._body_predicates(cs, positive_only=True)
            for cs in compiled
        )

    def _snapshot_before(self, cs: CompiledStratum, compiled) -> None:
        """Snapshot this stratum's relations before mutating them."""
        for predicate in cs.predicates:
            name = predicate.predicate
            if self._need_old(name, compiled, from_stratum=cs.stratum.index + 1):
                self._make_work_table(
                    compiler.ivm_old_table(name), self._db.table_array(name)
                )

    # -- shared helpers ----------------------------------------------------

    def _make_work_table(self, table: str, rows: np.ndarray) -> None:
        self._db.load_table(table, compiler.columns_for(rows.shape[1]), rows)
        self._work_tables.append(table)

    def _fresh_working_tables(self, cs: CompiledStratum) -> None:
        """Empty Δ/mΔ tables for a run of the interpreter's fixpoint loop."""
        for predicate in cs.predicates:
            columns = compiler.columns_for(predicate.arity)
            for name in (
                compiler.delta_table(predicate.predicate),
                compiler.mdelta_table(predicate.predicate),
            ):
                if name in self._db.catalog:
                    self._db.execute_ast(sast.DropTable(name))
                self._db.create_table(name, columns)

    def _eval_rows(self, select: sast.Select, arity: int) -> np.ndarray:
        """Evaluate one subquery to raw (bag) rows."""
        rows = self._db.execute_ast(sast.SelectStatement(select))
        if rows is None or rows.size == 0:
            return np.empty((0, arity), dtype=np.int64)
        return np.asarray(rows, dtype=np.int64).reshape(-1, arity)

    def _cleanup(self) -> None:
        for table in self._work_tables:
            if table in self._db.catalog:
                self._db.execute_ast(sast.DropTable(table))
        self._work_tables.clear()

    # -- DRed maintenance --------------------------------------------------

    def _maintain_dred(self, cs: CompiledStratum) -> None:
        index = self._overdelete(cs)
        overdel = {name: own.rows[own.deleted] for name, own in index.items()}
        counters = self._db.profiler.counters
        for name, rows in overdel.items():
            if rows.shape[0]:
                self._db.delete_rows(name, rows)
                counters.inc("ivm.overdeleted_rows", int(rows.shape[0]))
        # The rewrite evicted the fulls' whole-row indexes; the set
        # differences of this batch and the next ones probe them.
        self._db.rehydrate_join_cache([name for name, rows in overdel.items() if rows.shape[0]])

        # Warm-start semi-naive: the seeds go into fresh mΔ tables, and
        # members after the first run their delta rules already in
        # iteration 0 (Gauss-Seidel: they read the Δ of the ones before).
        self._fresh_working_tables(cs)
        seeds = [
            (
                self._dred_seeds(cs, p, overdel.get(p.predicate)),
                p.delta_query() if position else None,
            )
            for position, p in enumerate(cs.predicates)
        ]
        before = {p.predicate: self._db.table_size(p.predicate) for p in cs.predicates}
        self.report.iterations += len(self._interp.run_fixpoint(cs, seeds))

        for predicate in cs.predicates:
            name = predicate.predicate
            # The loop only appends to the full, and every Δ missed the full
            # it joined: the tail is distinct, and what it shares with the
            # pre-batch rows was deleted, then rederived.
            added = self._db.catalog.get_table(name).tail_data(before[name])
            if not index:
                self._net[name] = (added, added[:0])
                continue
            own = index[name]
            slots = own.slots(added)
            back = np.zeros(own.deleted.shape[0], dtype=bool)
            back[slots[slots >= 0]] = True
            if back.any():
                counters.inc("ivm.rederived_rows", int(back.sum()))
            self._net[name] = (added[slots < 0], own.rows[own.deleted & ~back])

    def _old_source_overrides(
        self, positive, skip: int, members: set[str]
    ) -> dict[int, str]:
        """Point non-Δ positions of an over-deletion subquery at old state.

        Same-stratum relations still *are* old state (deletions are
        applied only after the fixpoint); changed lower relations read
        their snapshots.
        """
        overrides: dict[int, str] = {}
        for q, atom in enumerate(positive):
            if q == skip or atom.predicate in members:
                continue
            if self._changed(atom.predicate):
                overrides[q] = compiler.ivm_old_table(atom.predicate)
        return overrides

    def _overdelete(self, cs: CompiledStratum) -> dict[str, _RankIndex]:
        """DRed phase one on old state: mark deleted in per-relation rank
        indexes (none if nothing is) every tuple without lower-ranked support."""
        stratum = cs.stratum
        read = set(self._body_predicates(cs, positive_only=True))
        lower = [name for name in read - stratum.predicates if self._changed(name)]
        # Round 0 reads the deleted lower-stratum tuples, every later round
        # the tuples the previous one deleted.
        frontier = {n: compiler.ivm_del_table(n) for n in lower if self._net[n][1].shape[0]}
        if not frontier:
            return {}
        names = sorted(p.predicate for p in cs.predicates)
        index = {name: _RankIndex(*ranked) for name, ranked in self._db.ranked_rows(names).items()}
        for name, own in index.items():
            self._make_work_table(compiler.ivm_odelta_table(name), own.rows[:0])
            self._make_work_table(compiler.ivm_cand_table(name), own.rows[:0])
        # Support may not rest on a lower row this batch inserted: the
        # candidate rounds read old state, so they would never revisit a
        # tuple whose same-stratum supporter dies later in the loop.
        kept = {n: compiler.ivm_kept_table(n) for n in lower if self._net[n][0].shape[0]}
        for name, table in kept.items():
            if table not in self._db.catalog:  # one per batch, shared by strata
                existing = self._db.catalog.get_table(name).data()
                self._make_work_table(table, kernels.rows_difference(existing, self._net[name][0]))
        while frontier:
            # Candidates: the heads of every old-state derivation through a
            # tuple of a frontier table.
            candidates = {name: [own.rows[:0]] for name, own in index.items()}
            for rule in stratum.rules:
                positive = rule.positive_atoms()
                for p, atom in enumerate(positive):
                    if atom.predicate in frontier:
                        overrides = self._old_source_overrides(positive, p, stratum.predicates)
                        overrides[p] = frontier[atom.predicate]
                        candidates[rule.head.predicate].append(
                            self._eval_rows(
                                self._generator.compile_rule_with_sources(rule, overrides),
                                len(rule.head.terms),
                            )
                        )
            frontier = {}
            for predicate in cs.predicates:
                name = predicate.predicate
                gone = self._unsupported(cs, predicate, candidates[name], index, kept)
                if gone.shape[0]:
                    frontier[name] = compiler.ivm_odelta_table(name)
                    self._db.replace_rows(frontier[name], gone)
        return index

    def _unsupported(
        self,
        cs: CompiledStratum,
        predicate: CompiledPredicate,
        candidates: list[np.ndarray],
        index: dict[str, _RankIndex],
        kept: dict[str, str],
    ) -> np.ndarray:
        """Mark deleted (and return) the candidates no fact or lower-ranked
        derivation keeps; ``kept`` names lower relations' pre-batch rows."""
        own = index[predicate.predicate]
        slots = own.live(np.concatenate(candidates))
        rows = own.rows[slots]
        facts = np.asarray(predicate.facts, dtype=np.int64).reshape(-1, predicate.arity)
        keep = kernels.semi_join_mask(slots, own.slots(facts))
        # Rank-0 tuples get plain DRed: deleted, then rederived if they can be.
        ranked = own.rank[slots] > 0
        members = cs.stratum.predicates
        candidate_table = compiler.ivm_cand_table(predicate.predicate)
        for rule in self._analyzed.rules_for(predicate.predicate, cs.stratum):
            supporters = [a.predicate for a in rule.positive_atoms() if a.predicate in members]
            pending = ranked & ~keep
            if rule.is_fact or not pending.any():
                continue
            self._db.replace_rows(candidate_table, rows[pending])
            select = self._generator.compile_support(rule, candidate_table, members, kept)
            support = self._eval_rows(select, len(select.items))
            heads = own.slots(support[:, : predicate.arity])
            ok = np.ones(support.shape[0], dtype=bool)
            offset = predicate.arity
            for supporter in supporters:
                end = offset + self._analyzed.arities[supporter]
                ok &= index[supporter].supports(support[:, offset:end], own.rank[heads])
                offset = end
            supported = np.zeros(own.rank.shape[0], dtype=bool)
            supported[heads[ok]] = True
            keep |= supported[slots]
        own.deleted[slots[~keep]] = True
        return rows[~keep]

    def _dred_seeds(
        self, cs: CompiledStratum, predicate: CompiledPredicate, removed: np.ndarray | None
    ) -> np.ndarray:
        """The warm-start Δ seed: rederivation candidates + insertion joins."""
        parts: list[np.ndarray] = [np.empty((0, predicate.arity), dtype=np.int64)]
        if removed is not None and removed.shape[0]:
            # Deleted tuples one-step derivable from the *new* state seed
            # their rederivation. Every atom is joined, so the planner
            # starts from whichever side is small.
            candidate_table = compiler.ivm_cand_table(predicate.predicate)
            self._db.replace_rows(candidate_table, removed)
            for rule in self._analyzed.rules_for(predicate.predicate, cs.stratum):
                if not rule.is_fact:
                    select = self._generator.compile_support(rule, candidate_table, set(), {})
                    parts.append(self._eval_rows(select, predicate.arity))
        for rule in self._analyzed.rules_for(predicate.predicate, cs.stratum):
            if rule.is_fact:
                continue
            positive = rule.positive_atoms()
            for p, atom in enumerate(positive):
                source = atom.predicate
                if source in cs.stratum.predicates or not self._changed(source):
                    continue
                if self._net[source][0].shape[0] == 0:
                    continue
                # Other positions read the new fulls: anything appended
                # later re-enters through Δ, so one pass per insertion
                # position is complete.
                rows = self._eval_rows(
                    self._generator.compile_rule_with_sources(
                        rule, {p: compiler.ivm_ins_table(source)}
                    ),
                    predicate.arity,
                )
                parts.append(rows)
        return np.concatenate(parts)

    # -- fallback: per-stratum recompute -----------------------------------

    def _recompute(self, cs: CompiledStratum) -> None:
        """Re-evaluate one stratum from scratch against maintained inputs."""
        old: dict[str, np.ndarray] = {}
        for predicate in cs.predicates:
            old[predicate.predicate] = self._db.table_array(predicate.predicate)
            self._db.replace_rows(
                predicate.predicate, np.empty((0, predicate.arity), dtype=np.int64)
            )
        self._fresh_working_tables(cs)
        self.report.iterations += len(
            self._interp.run_fixpoint(cs, [(p.facts, p.init_query()) for p in cs.predicates])
        )
        for predicate in cs.predicates:
            name = predicate.predicate
            new = self._db.table_array(name)
            self._net[name] = (
                kernels.rows_difference(new, old[name]),
                kernels.rows_difference(old[name], new),
            )
