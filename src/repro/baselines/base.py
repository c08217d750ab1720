"""Shared machinery for the baseline engines.

``BaselineEngine`` runs stratified semi-naive evaluation with the
array-based rule evaluator, while each concrete engine supplies:

* a **feature gate** (`check_supported`) reproducing Table 1's envelope;
* a **cost profile** converting measured work (tuples built/probed/
  materialized) into simulated seconds under that system's parallelism;
* a **memory model** (overhead factor over raw tuple bytes) that decides
  when the engine OOMs, reproducing the paper's failure envelope.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.common.errors import (
    CONTROL_ERRORS,
    UnsupportedFeatureError,
    classify_failure,
)
from repro.common.records import EvaluationResult, rows_to_set
from repro.datalog.analyzer import AnalyzedProgram, Stratum
from repro.engine import kernels
from repro.engine.metrics import DEFAULT_MEMORY_BUDGET, DEFAULT_TIME_BUDGET, MetricsRecorder
from repro.baselines.ruleeval import WorkCounters, evaluate_rule
from repro.programs.library import ProgramSpec


@dataclass(frozen=True)
class CostProfile:
    """Converts rule-evaluation work into simulated time for one engine."""

    name: str
    threads: int = 20
    parallel_efficiency: float = 0.6     # usable fraction of the thread pool
    per_tuple_build: float = 8.0e-7
    per_tuple_probe: float = 4.0e-7
    per_tuple_scan: float = 1.0e-7
    per_tuple_materialize: float = 1.5e-7
    per_tuple_dedup: float = 6.0e-7
    per_iteration_overhead: float = 1.0e-3
    startup_overhead: float = 0.05
    memory_overhead_factor: float = 2.0  # resident bytes per raw tuple byte
    transient_overhead_factor: float = 2.5
    #: When set, parallel width is additionally capped at this many
    #: workers per IDB relation in the stratum — models engines whose
    #: parallel sections contend on one shared index per target relation
    #: (the paper's Souffle underutilization on REACH/AA, Figure 16).
    width_cap_per_idb: float | None = None

    def effective_width(self, num_predicates: int = 1) -> float:
        width = max(1.0, self.threads * self.parallel_efficiency)
        if self.width_cap_per_idb is not None:
            width = min(width, self.width_cap_per_idb * max(1, num_predicates))
        return max(1.0, width)

    def iteration_seconds(
        self, work: WorkCounters, dedup_tuples: int, num_predicates: int = 1
    ) -> float:
        serial = (
            work.tuples_built * self.per_tuple_build
            + work.tuples_probed * self.per_tuple_probe
            + work.tuples_scanned * self.per_tuple_scan
            + work.tuples_materialized * self.per_tuple_materialize
            + dedup_tuples * self.per_tuple_dedup
        )
        return serial / self.effective_width(num_predicates) + self.per_iteration_overhead


def evaluate_in_envelope(
    engine, program: ProgramSpec, edb_data, dataset: str
) -> EvaluationResult:
    """The envelope every baseline evaluation runs in: budgets, feature
    check, ``engine._fixpoint(analyzed, edb_data, metrics) -> (iterations,
    {idb: rows})``, failures as result statuses, the modeled-cost recap."""
    analyzed = program.parse()
    result = EvaluationResult(engine=engine.name, program=program.name, dataset=dataset)
    metrics = MetricsRecorder(
        memory_budget=engine.memory_budget,
        time_budget=engine.time_budget,
        enforce_budgets=engine.enforce_budgets,
    )
    wall_start = time.perf_counter()
    try:
        engine.check_supported(analyzed)
        result.iterations, relations = engine._fixpoint(analyzed, edb_data, metrics)
        for name in sorted(analyzed.idb):
            result.tuples[name] = rows_to_set(relations[name])
    except UnsupportedFeatureError as error:
        result.status = "unsupported"
        result.unsupported_reason = str(error)
    except CONTROL_ERRORS as error:
        result.status, result.failure, _ = classify_failure(error)
    result.wall_seconds = time.perf_counter() - wall_start
    result.sim_seconds = metrics.now()
    result.peak_memory_bytes = metrics.peak_bytes
    result.memory_trace = metrics.memory_trace
    result.cpu_trace = metrics.cpu_trace
    return result


class BaselineEngine:
    """Base class: stratified semi-naive evaluation with pluggable costs."""

    name = "Baseline"

    def __init__(
        self,
        threads: int = 20,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
        time_budget: float = DEFAULT_TIME_BUDGET,
        enforce_budgets: bool = True,
    ) -> None:
        self.memory_budget = memory_budget
        self.time_budget = time_budget
        self.enforce_budgets = enforce_budgets
        self.profile = self.make_profile(threads)

    # -- per-engine hooks ------------------------------------------------------

    def make_profile(self, threads: int) -> CostProfile:
        raise NotImplementedError

    def check_supported(self, analyzed: AnalyzedProgram) -> None:
        """Raise UnsupportedFeatureError outside this engine's envelope."""

    # -- evaluation --------------------------------------------------------------

    def evaluate(
        self,
        program: ProgramSpec,
        edb_data: dict[str, np.ndarray],
        dataset: str = "unnamed",
    ) -> EvaluationResult:
        return evaluate_in_envelope(self, program, edb_data, dataset)

    def _fixpoint(
        self,
        analyzed: AnalyzedProgram,
        edb_data: dict[str, np.ndarray],
        metrics: MetricsRecorder,
    ) -> tuple[int, dict[str, np.ndarray]]:
        relations = self._init_relations(analyzed, edb_data)
        metrics.advance(self.profile.startup_overhead, utilization=0.05)
        iterations = 0
        for stratum in analyzed.strata:
            iterations += self._run_stratum(analyzed, stratum, relations, metrics)
        return iterations, relations

    # -- internals ------------------------------------------------------------------

    def _init_relations(
        self, analyzed: AnalyzedProgram, edb_data: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        relations: dict[str, np.ndarray] = {}
        for name in sorted(analyzed.edb):
            arity = analyzed.arities[name]
            relations[name] = np.asarray(edb_data[name], dtype=np.int64).reshape(-1, arity)
        for name in sorted(analyzed.idb):
            relations[name] = np.empty((0, analyzed.arities[name]), dtype=np.int64)
        return relations

    #: Hard cap on any single join intermediate, independent of the modeled
    #: budget: keeps host-side allocations bounded even when the modeled
    #: budget would allow a few hundred million rows.
    HARD_ROW_CAP = 25_000_000

    def _make_counters(self) -> WorkCounters:
        counters = WorkCounters()
        if self.enforce_budgets:
            modeled = int(
                self.memory_budget / (8 * self.profile.transient_overhead_factor)
            )
            counters.row_limit = min(modeled, self.HARD_ROW_CAP)
        return counters

    def _resident_bytes(self, relations: dict[str, np.ndarray]) -> int:
        raw = sum(rows.shape[0] * rows.shape[1] * 8 for rows in relations.values())
        return int(raw * self.profile.memory_overhead_factor)

    def _account(
        self,
        metrics: MetricsRecorder,
        relations: dict[str, np.ndarray],
        work: WorkCounters,
        dedup_tuples: int,
        num_predicates: int = 1,
    ) -> None:
        seconds = self.profile.iteration_seconds(work, dedup_tuples, num_predicates)
        busy = min(1.0, self.profile.effective_width(num_predicates) / self.profile.threads)
        transient = int(
            work.peak_intermediate_rows * 8 * self.profile.transient_overhead_factor
        )
        metrics.allocate_transient(transient)
        metrics.advance(seconds, utilization=busy)
        metrics.release_transient(transient)
        metrics.set_base_bytes(self._resident_bytes(relations))

    def _run_stratum(
        self,
        analyzed: AnalyzedProgram,
        stratum: Stratum,
        relations: dict[str, np.ndarray],
        metrics: MetricsRecorder,
    ) -> int:
        predicates = sorted(stratum.idb_predicates())
        agg_funcs = {name: analyzed.aggregate_func(name) for name in predicates}
        deltas: dict[str, np.ndarray] = {}

        # Iteration 0: all rules over full relations.
        work = self._make_counters()
        dedup_tuples = 0
        for name in predicates:
            produced = [
                evaluate_rule(rule, relations, counters=work)
                for rule in analyzed.rules_for(name, stratum)
                if not rule.is_fact
            ]
            facts = [
                np.asarray([_fact_values(rule)], dtype=np.int64)
                for rule in analyzed.rules_for(name, stratum)
                if rule.is_fact
            ]
            candidate = _vstack(produced + facts, analyzed.arities[name])
            dedup_tuples += candidate.shape[0]
            merged, delta = _merge(relations[name], candidate, agg_funcs[name])
            relations[name] = merged
            deltas[name] = delta
        self._account(metrics, relations, work, dedup_tuples, len(predicates))
        iterations = 1

        if not stratum.recursive:
            return iterations

        while any(delta.shape[0] for delta in deltas.values()):
            work = self._make_counters()
            dedup_tuples = 0
            new_deltas: dict[str, np.ndarray] = {}
            for name in predicates:
                produced = []
                for rule in analyzed.rules_for(name, stratum):
                    if rule.is_fact:
                        continue
                    recursive_positions = [
                        index
                        for index, atom in enumerate(rule.positive_atoms())
                        if atom.predicate in stratum.predicates
                    ]
                    for position in recursive_positions:
                        produced.append(
                            evaluate_rule(
                                rule,
                                relations,
                                delta_atom=position,
                                delta_relations=deltas,
                                counters=work,
                            )
                        )
                candidate = _vstack(produced, analyzed.arities[name])
                dedup_tuples += candidate.shape[0]
                merged, delta = _merge(relations[name], candidate, agg_funcs[name])
                relations[name] = merged
                new_deltas[name] = delta
                deltas[name] = delta  # Algorithm-1 style in-stratum visibility
            self._account(metrics, relations, work, dedup_tuples, len(predicates))
            iterations += 1
            deltas = new_deltas
        return iterations


def _fact_values(rule) -> list[int]:
    return [term.value for term in rule.head.terms]


def _vstack(parts: list[np.ndarray], arity: int) -> np.ndarray:
    parts = [part for part in parts if part.shape[0]]
    if not parts:
        return np.empty((0, arity), dtype=np.int64)
    return np.vstack(parts)


def _merge(
    existing: np.ndarray, candidate: np.ndarray, agg_func: str | None
) -> tuple[np.ndarray, np.ndarray]:
    """Merge candidate rows into a relation; return (merged, delta)."""
    if agg_func in ("MIN", "MAX"):
        combined = np.vstack([existing, candidate]) if existing.shape[0] else candidate
        if combined.shape[0] == 0:
            return existing, candidate
        group_columns = [combined[:, i] for i in range(combined.shape[1] - 1)]
        keys, (values,) = kernels.group_aggregate(
            group_columns, [(agg_func, combined[:, -1])]
        )
        merged = (
            np.column_stack([keys, values]) if group_columns else values.reshape(-1, 1)
        )
        delta = kernels.rows_difference(merged, existing)
        return merged, delta
    delta = kernels.rows_difference(candidate, existing)
    merged = np.vstack([existing, delta]) if existing.shape[0] else delta
    return merged, delta
