"""The RecStep engine facade.

``RecStep`` is the top-level public API of this reproduction: give it a
Datalog program (source text or a :class:`~repro.programs.ProgramSpec`)
and EDB data, and it evaluates to fixpoint on the parallel relational
backend, returning an :class:`~repro.common.records.EvaluationResult`
with the fixpoint, simulated runtime, and memory/CPU traces.

Example::

    from repro import RecStep
    from repro.programs import get_program

    engine = RecStep()
    result = engine.evaluate(get_program("TC"), {"arc": edges}, dataset="G1K")
    print(result.sizes(), result.sim_seconds)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import CONTROL_ERRORS, DatalogError, classify_failure
from repro.common.records import EvaluationResult, Relation
from repro.core.config import RecStepConfig
from repro.core.interpreter import SemiNaiveInterpreter
from repro.core.ivm import MaintenanceRun
from repro.datalog import ast as dast
from repro.datalog.analyzer import AnalyzedProgram, analyze_program
from repro.datalog.magic import MagicRewrite, filter_answers, magic_rewrite
from repro.datalog.parser import parse_goal, parse_program
from repro.engine.database import Database
from repro.engine.kernels import unique_rows
from repro.obs import CATEGORY_PROGRAM, ProfileReport
from repro.programs.library import ProgramSpec
from repro.common.rng import derive_seed
from repro.obs.counters import CounterRegistry
from repro.resilience.checkpoint import CheckpointState, edb_fingerprint
from repro.resilience import (
    CheckpointError,
    CheckpointManager,
    DegradationController,
    FaultInjector,
    ResilienceContext,
    RetryPolicy,
    RuntimeGuard,
)


class RecStep:
    """General-purpose parallel in-memory Datalog engine (the paper's system).

    Args:
        config: evaluation knobs (see :class:`RecStepConfig`). Its
            ``deadline`` and divergence budgets are one
            :class:`RuntimeGuard`, polled at loop boundaries.
    """

    name = "RecStep"

    def __init__(self, config: RecStepConfig | None = None) -> None:
        self.config = config or RecStepConfig()
        self.last_database: Database | None = None
        self.last_report = None

    def evaluate(
        self,
        program: ProgramSpec | AnalyzedProgram | str,
        edb_data: dict[str, np.ndarray],
        dataset: str = "unnamed",
    ) -> EvaluationResult:
        """Evaluate ``program`` over ``edb_data`` to fixpoint.

        Args:
            program: a ProgramSpec, an analyzed program, or Datalog source.
            edb_data: relation name -> (rows, arity) int array.
            dataset: label recorded in the result (for the harness).

        Returns:
            EvaluationResult with status "ok", "oom", "timeout",
            "deadline"/"cancelled", "guard", "fault" or "storage" — the
            paper's outcome classes plus the resilience layer's, as
            :func:`repro.common.errors.classify_failure` maps them (a
            failed run reports its partial simulated time, peak memory,
            and structured ``failure`` context with a ``kind``
            discriminator).
        """
        view = self._open(program, edb_data, dataset)
        view.release()
        return view.result

    def materialize(
        self,
        program: ProgramSpec | AnalyzedProgram | str,
        edb_data: dict[str, np.ndarray],
        dataset: str = "unnamed",
        resume_state: CheckpointState | None = None,
    ) -> "MaterializedFixpoint":
        """Evaluate to fixpoint and keep it live for incremental updates.

        Unlike :meth:`evaluate`, the backing database (tables, join
        cache, spill segments) survives the call; the returned
        :class:`MaterializedFixpoint` serves ``maintain()`` batches from
        the warm state until ``release()``. A failed evaluation still
        returns a view — poisoned, so batch submissions fail fast — with
        the failure recorded in ``view.result``.

        ``resume_state`` opens the view from an already-loaded checkpoint
        (crash recovery's base). Log replay is about to move that
        fixpoint, so its tuple sets are not read out: ``view.result``
        carries ``idb_sizes`` instead of ``tuples``.
        """
        return self._open(
            program, edb_data, dataset, resume_state, readout=resume_state is None
        )

    def _open(
        self,
        program: ProgramSpec | AnalyzedProgram | str,
        edb_data: dict[str, np.ndarray],
        dataset: str,
        resume_state: CheckpointState | None = None,
        readout: bool = True,
    ) -> "MaterializedFixpoint":
        """Run ``program`` to fixpoint; return the live view over it.

        The one place an evaluation is assembled, run under the program
        span, guarded, classified, and summarized into ``view.result``;
        ``evaluate`` releases the view, ``materialize`` keeps it.
        """
        analyzed, program_name, edb_schemas = _resolve_program(program)
        resilience = self._build_resilience()
        database = self.last_database = Database(
            threads=self.config.threads,
            memory_budget=self.config.memory_budget,
            time_budget=self.config.time_budget,
            eost=self.config.eost,
            fast_dedup=self.config.fast_dedup,
            enforce_budgets=self.config.enforce_budgets,
            profile=self.config.profile,
            resilience=resilience,
            join_cache=self.config.join_cache,
            partitioned_exec=self.config.partitioned_exec,
            spill_dir=self.config.spill_dir,
        )
        checkpoints = None
        if self.config.checkpoint_dir is not None:
            checkpoints = CheckpointManager(
                self.config.checkpoint_dir,
                every=self.config.checkpoint_every,
                metrics=database.metrics,
                profiler=database.profiler,
            )
        resume_skips = CounterRegistry()
        if resume_state is None and self.config.resume_from is not None:
            # A snapshot only resumes the run that is actually being
            # re-evaluated: checkpoints stamped with a different EDB
            # fingerprint (the inputs were mutated since) are skipped
            # exactly like torn files.
            resume_state = CheckpointManager.load(
                self.config.resume_from,
                counters=resume_skips,
                expected_edb=edb_fingerprint(
                    edb_data, {name: analyzed.arities[name] for name in analyzed.edb}
                ),
            )
        if resume_state is not None and resume_state.program != program_name:
            raise CheckpointError(
                f"checkpoint is for program {resume_state.program!r}, "
                f"not {program_name!r}",
                checkpoint_program=resume_state.program,
                program=program_name,
            )
        interpreter = SemiNaiveInterpreter(
            database,
            analyzed,
            self.config,
            edb_schemas=edb_schemas,
            checkpoints=checkpoints,
            resume_from=resume_state,
        )
        result = EvaluationResult(
            engine=self.name, program=program_name, dataset=dataset
        )
        view = MaterializedFixpoint(
            engine_name=self.name,
            analyzed=analyzed,
            program=program_name,
            dataset=dataset,
            database=database,
            interpreter=interpreter,
            result=result,
        )
        wall_start = time.perf_counter()
        try:
            # The program span wraps *everything* — EDB load, table setup,
            # the fixpoint, and result extraction — so the span forest
            # accounts for all simulated time (attributed_fraction ≈ 1).
            with database.profiler.span(
                f"program {program_name}",
                CATEGORY_PROGRAM,
                program=program_name,
                dataset=dataset,
            ):
                interpreter.load_edb(edb_data)
                interpreter.create_idb_tables()
                report = interpreter.run()
                # Extraction streams spilled prefixes (table_snapshot)
                # instead of faulting them in: a fixpoint that only fits
                # under budget *because* it spilled must not OOM while
                # being read out.
                fixpoint = view.fixpoint() if readout else None
        except CONTROL_ERRORS as error:
            result.status, result.failure, _ = classify_failure(
                error, **interpreter.position()
            )
            view.status = "poisoned"
        except BaseException:
            database.release_spill()
            raise
        else:
            result.iterations = report.iterations
            result.detail["pbme_strata"] = float(len(report.pbme_strata))
            if fixpoint is None:
                result.idb_sizes = view.sizes()
            else:
                result.tuples.update(fixpoint)
            self.last_report = report
        result.wall_seconds = time.perf_counter() - wall_start
        result.sim_seconds = database.sim_seconds
        result.peak_memory_bytes = database.peak_memory_bytes
        result.peak_transient_bytes = database.metrics.peak_transient_bytes
        # The result takes the traces: a kept view's recorder lives on and
        # must not keep appending to (or pinning) this run's samples.
        result.memory_trace, result.cpu_trace = database.metrics.take_traces()
        if (
            resilience.active
            or checkpoints is not None
            or resume_state is not None
            or database.spill is not None
        ):
            recap = resilience.summary()
            if database.spill is not None:
                recap["spill"] = {
                    "peak_spilled_bytes": database.metrics.peak_spilled_bytes,
                    "capacity_exhausted": database.spill.capacity_exhausted,
                }
                if database.profiler.enabled:
                    counters = database.profiler.counters
                    recap["spill"].update(
                        tables_spilled=counters.get("spill.tables_spilled"),
                        segments_written=counters.get("spill.segments_written"),
                        segment_reads=counters.get("spill.segment_reads"),
                        fault_ins=counters.get("spill.fault_ins"),
                        torn_quarantined=counters.get("spill.torn_quarantined"),
                    )
            if checkpoints is not None:
                recap["checkpoints_written"] = checkpoints.written
                if checkpoints.last_path is not None:
                    recap["last_checkpoint"] = str(checkpoints.last_path)
            if resume_state is not None:
                recap["resumed_from"] = {
                    "stratum": resume_state.stratum,
                    "iteration": resume_state.iteration,
                }
                for skip_counter in (
                    "checkpoint_corrupt_skipped",
                    "checkpoint_stale_skipped",
                ):
                    skipped = resume_skips.get(skip_counter)
                    if skipped:
                        recap[skip_counter] = skipped
                        database.profiler.counters.inc(skip_counter, skipped)
            result.resilience = recap
        if database.profiler.enabled:
            result.profile = ProfileReport.from_profiler(
                database.profiler, database.sim_seconds
            )
        return view

    def answer(
        self,
        program: ProgramSpec | AnalyzedProgram | str,
        goal: dast.Atom | str,
        edb_data: dict[str, np.ndarray],
        dataset: str = "unnamed",
        rewrite: MagicRewrite | None = None,
    ) -> EvaluationResult:
        """Answer a point query, evaluating only the demanded cone.

        ``goal`` is a goal atom (or its source text, e.g. ``"tc(5, x)"``)
        whose bound constants drive a magic-set rewrite of ``program``;
        the rewritten program runs through the ordinary semi-naive
        pipeline and the result's ``tuples`` holds exactly the goal
        predicate's answer set — tuple-identical to post-filtering a full
        materialization by the same pattern. Goals with no bound
        constants (and goals on predicates the rewrite must not restrict)
        degenerate to evaluating the unrewritten program; goals on EDB
        relations are answered by filtering the input directly.

        ``rewrite`` lets callers that already planned the goal (the query
        service prices admission on the cone estimate) skip re-planning.
        """
        analyzed, program_name, _ = _resolve_program(program)
        goal_atom = parse_goal(goal) if isinstance(goal, str) else goal
        if rewrite is None:
            rewrite = magic_rewrite(analyzed, goal_atom)
        if goal_atom.predicate in analyzed.edb:
            arity = analyzed.arities[goal_atom.predicate]
            rows = np.asarray(
                edb_data[goal_atom.predicate], dtype=np.int64
            ).reshape(-1, arity)
            result = EvaluationResult(
                engine=self.name, program=program_name, dataset=dataset
            )
            result.tuples[goal_atom.predicate] = filter_answers(
                Relation(unique_rows(rows)), goal_atom
            )
            result.detail["magic_rewritten"] = 0.0
            result.detail["answer_rows"] = float(
                len(result.tuples[goal_atom.predicate])
            )
            return result
        target = (
            analyze_program(rewrite.program) if rewrite.rewritten else analyzed
        )
        result = self.evaluate(target, edb_data, dataset=dataset)
        result.program = program_name
        counters = self.last_database.profiler.counters
        if rewrite.rewritten:
            counters.inc("magic.rewrites")
            if rewrite.pinned:
                counters.inc("magic.pinned_predicates", len(rewrite.pinned))
        else:
            counters.inc("magic.degenerate")
        result.detail["magic_rewritten"] = 1.0 if rewrite.rewritten else 0.0
        result.detail["magic_cone_predicates"] = float(len(rewrite.cone))
        if result.status == "ok":
            answers = filter_answers(
                result.tuples[rewrite.answer_predicate], goal_atom
            )
            result.tuples = {goal_atom.predicate: answers}
            result.detail["answer_rows"] = float(len(answers))
        return result

    def _build_resilience(self) -> ResilienceContext:
        """Assemble the resilience context this config asks for."""
        injector = None
        if self.config.fault_seed is not None:
            injector = FaultInjector(self.config.fault_seed, rate=self.config.fault_rate)
        guard = None
        if (
            self.config.max_iterations is not None
            or self.config.max_total_rows is not None
            or self.config.deadline is not None
        ):
            guard = RuntimeGuard(
                max_iterations=self.config.max_iterations,
                max_total_rows=self.config.max_total_rows,
                deadline=self.config.deadline,
            )
        # Jitter only engages under fault injection (where concurrent
        # retriers exist to desynchronize); it shares the fault seed so
        # chaos runs stay bit-reproducible.
        jitter_seed = (
            derive_seed(self.config.fault_seed, "retry-jitter")
            if self.config.fault_seed is not None
            else None
        )
        return ResilienceContext(
            injector=injector,
            retry=RetryPolicy(jitter_seed=jitter_seed),
            # The spill tier's rung lives on the ladder: a spill directory
            # arms it.
            degradation=DegradationController(
                enabled=self.config.degradation or self.config.spill_dir is not None
            ),
            guard=guard,
        )


@dataclass
class MaintenanceResult:
    """Outcome of one maintenance batch against a materialized fixpoint.

    Shape-compatible with :class:`~repro.common.records.EvaluationResult`
    where the query service touches results (``status``, ``iterations``,
    ``sim_seconds``, ``sizes()``, ``resilience``, ``failure``), so update
    sessions flow through the same finalize/telemetry paths as queries.
    """

    engine: str
    program: str
    dataset: str
    status: str = "ok"
    iterations: int = 0
    sim_seconds: float = 0.0
    wall_seconds: float = 0.0
    failure: dict | None = None
    resilience: dict = field(default_factory=dict)
    #: EDB relation → effective rows applied ({"inserted", "deleted"}).
    applied: dict = field(default_factory=dict)
    #: IDB relation → net fixpoint change ({"inserted", "deleted"}).
    idb_deltas: dict = field(default_factory=dict)
    #: Total net rows moved by the batch (EDB + IDB, both directions).
    delta_rows: int = 0
    idb_sizes: dict = field(default_factory=dict)

    def sizes(self) -> dict[str, int]:
        return dict(self.idb_sizes)


@dataclass(eq=False)
class MaterializedFixpoint:
    """A live fixpoint: database + warm interpreter, accepting updates.

    Produced by :meth:`RecStep.materialize`. ``maintain()`` applies one
    EDB batch and re-establishes the fixpoint incrementally; any
    evaluation-class failure mid-maintenance poisons the view (its
    tables may hold mixed state), after which further batches fail fast
    until the view is released.
    """

    engine_name: str
    analyzed: AnalyzedProgram
    program: str
    dataset: str
    database: Database
    interpreter: SemiNaiveInterpreter
    #: The opening evaluation's result (the cold-start cost), filled in
    #: by :meth:`RecStep._open`.
    result: EvaluationResult
    #: "ready" | "poisoned" | "released".
    status: str = "ready"

    def sizes(self) -> dict[str, int]:
        return {
            name: self.database.table_size(name)
            for name in sorted(self.analyzed.idb)
        }

    def fixpoint(self) -> dict[str, Relation]:
        """The current maintained fixpoint, one copied :class:`Relation` each."""
        return {
            name: Relation(self.database.table_snapshot(name))
            for name in sorted(self.analyzed.idb)
        }

    def maintain(
        self,
        inserts: dict[str, np.ndarray] | None = None,
        deletes: dict[str, np.ndarray] | None = None,
    ) -> MaintenanceResult:
        """Apply one EDB update batch and re-establish the fixpoint.

        Bit-identical to a recompute from the mutated EDB, via DRed for
        monotone strata and per-stratum recompute (see ``core.ivm``).

        The batch answers to the view's divergence budgets, started over
        for it; the view's deadline bounded its opening only, so a batch
        has the same bounds whoever calls this.
        """
        result = MaintenanceResult(
            engine=self.engine_name, program=self.program, dataset=self.dataset
        )
        if self.status != "ready":
            result.status = "fault"
            result.failure = {
                "error": "ViewUnavailable",
                "kind": f"view-{self.status}",
                "view_status": self.status,
            }
            return result
        database = self.database
        sim_start = database.sim_seconds
        wall_start = time.perf_counter()
        poison = False
        try:
            report = MaintenanceRun(
                self.interpreter, inserts or {}, deletes or {}
            ).run()
        except (DatalogError, *CONTROL_ERRORS) as error:
            # A validation error fails before any mutation — the view is
            # still exact, only this request is bad; anything else struck
            # mid-batch and the tables may hold mixed state.
            result.status, result.failure, poison = classify_failure(
                error, **self.interpreter.position()
            )
        else:
            result.iterations = report.iterations
            result.applied = report.applied
            result.idb_deltas = report.idb_deltas
            result.delta_rows = report.delta_rows()
        if poison:
            self.status = "poisoned"
        result.sim_seconds = database.sim_seconds - sim_start
        result.wall_seconds = time.perf_counter() - wall_start
        result.idb_sizes = self.sizes()
        return result

    def snapshot_state(self, wal_seqno: int = 0) -> CheckpointState:
        """Snapshot the maintained fixpoint as a durable base checkpoint.

        Unlike in-evaluation checkpoints the snapshot carries the EDB
        tables too (under ``edb:`` keys), so recovery is self-contained:
        the base file alone rebuilds the view without the original input
        arrays. ``stratum_complete`` is set (iteration ``-1``), which
        keeps the file name constant across compactions — ``os.replace``
        is the atomic commit.
        """
        state = self.interpreter.snapshot(len(self.analyzed.strata) - 1, -1, [])
        edb = {
            name: self.database.table_snapshot(name)
            for name in sorted(self.analyzed.edb)
        }
        state.tables.update((f"edb:{name}", rows) for name, rows in edb.items())
        state.edb_fingerprint = edb_fingerprint(edb)
        state.wal_seqno = wal_seqno
        return state

    def release(self) -> None:
        """Free the view's off-memory footprint; the view stops serving."""
        if self.status == "released":
            return
        self.status = "released"
        self.database.release_spill()


def _resolve_program(
    program: ProgramSpec | AnalyzedProgram | str,
) -> tuple[AnalyzedProgram, str, dict[str, tuple[str, ...]]]:
    if isinstance(program, ProgramSpec):
        return program.parse(), program.name, dict(program.edb_schemas)
    if isinstance(program, AnalyzedProgram):
        return program, program.program.name, {}
    analyzed = analyze_program(parse_program(program))
    return analyzed, analyzed.program.name, {}
