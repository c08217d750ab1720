"""One way to run a program: the shared path under evaluate / answer /
materialize / recover, its one failure taxonomy, and the module seam
between the scheduler and the Datalog-aware handlers.

* the taxonomy table is the contract: every control exception maps to
  one (status, ``kind``, poisons?, session state, exit code), and the
  three places an exception becomes an outcome — inside ``evaluate``,
  inside ``maintain``, at the service's isolation boundary — agree;
* ``repro.server.scheduler`` imports nothing from ``repro.core`` or
  ``repro.datalog``;
* ``repro.engine.executor`` is the only module of the relational engine
  that knows what work costs;
* config surfaces have a budget, so knobs cannot creep back unreviewed;
* a delete goes through one rank-restricted over-deletion loop, and only
  maintenance, the table and the database touch append ranks;
* every monotone stratum, recursive or not, is maintained by that loop
  and only negation or aggregation recomputes: no count tables;
* evaluation, DRed rederivation and recompute share one semi-naive loop,
  which alone charges the divergence guard;
* a kept view's traces are per run, not per recorder lifetime;
* recovery opens its view without reading its fixpoint out and reports
  the post-replay sizes;
* evaluation and magic answers reach the caller as column relations,
  never boxed into sets of tuples;
* a point request resolves its program once, and the EDB is only
  fingerprinted where the digest is stamped.
"""

from __future__ import annotations

import ast
import inspect
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.cli import exit_code_for
from repro.common import errors
from repro.common.errors import (
    CONTROL_ERRORS,
    STATUS_OUTCOMES,
    DatalogError,
    DivergenceGuardTripped,
    EvaluationCancelled,
    EvaluationTimeout,
    FaultRetriesExhausted,
    OutOfMemoryError,
    SpillError,
    classify_failure,
)
from repro.core import PbmeMode, RecStep, RecStepConfig
from repro.core.interpreter import SemiNaiveInterpreter
from repro.core.ivm import MaintenanceRun
from repro.datasets import load_dataset
from repro.programs import get_program
from repro.programs.library import ProgramSpec
from repro.resilience import LADDER, RetryPolicy
from repro.server import QueryRequest, QueryService, ServerConfig, SessionState
from repro.server.scheduler import terminal_state
from tests.conftest import reference_closure

RELATIONAL = dict(pbme=PbmeMode.OFF)
TC = get_program("TC")


def path_arcs(n: int) -> np.ndarray:
    return np.array([[i, i + 1] for i in range(n)], dtype=np.int64)


#: (make error, status, kind, poisons a view?, session state, exit code)
TAXONOMY = [
    (lambda: OutOfMemoryError("m"), "oom", "oom", True, "failed", 1),
    (lambda: EvaluationTimeout("t"), "timeout", "timeout", True, "failed", 1),
    (
        lambda: EvaluationCancelled("d", reason="deadline"),
        "deadline", "deadline", True, "cancelled", 3,
    ),
    (
        lambda: EvaluationCancelled("w", reason="watchdog", kind="watchdog"),
        "cancelled", "watchdog", True, "cancelled", 1,
    ),
    (lambda: EvaluationCancelled("c"), "cancelled", "cancelled", True, "cancelled", 1),
    (
        lambda: DivergenceGuardTripped("g", kind="max_iterations"),
        "guard", "max_iterations", True, "failed", 3,
    ),
    (lambda: FaultRetriesExhausted("f"), "fault", "fault", True, "failed", 1),
    (lambda: SpillError("s"), "storage", "storage", True, "failed", 1),
    (lambda: DatalogError("v"), "fault", "fault", False, "failed", 1),
    (lambda: RuntimeError("?"), "fault", "internal", False, "failed", 1),
]  # fmt: skip
IDS = [f"{make().__class__.__name__}-{kind}" for make, _, kind, *_ in TAXONOMY]


class TestTaxonomy:
    @pytest.mark.parametrize("make,status,kind,poisons,state,code", TAXONOMY, ids=IDS)
    def test_table(self, make, status, kind, poisons, state, code):
        got_status, doc, got_poisons = classify_failure(make(), stratum=2)
        assert (got_status, doc["kind"], got_poisons) == (status, kind, poisons)
        assert doc["error"] == type(make()).__name__
        assert STATUS_OUTCOMES[status] == (state, code)
        assert terminal_state(status) is SessionState(state)
        assert exit_code_for(status) == code
        # Only structured errors carry the loop position.
        assert ("stratum" in doc) == isinstance(make(), errors.RecStepError)

    def test_control_errors_are_the_poisoning_classes(self):
        poisoning = {type(make()) for make, *_, poisons, _, _ in TAXONOMY if poisons}
        assert set(CONTROL_ERRORS) == poisoning

    def test_statuses_outside_the_table_are_hard_failures(self):
        assert terminal_state("unsupported") is SessionState.FAILED
        assert exit_code_for("unsupported") == 1

    @pytest.mark.parametrize(
        "make,status,kind,state",
        [(make, status, kind, state) for make, status, kind, poisons, state, _ in TAXONOMY if poisons],
        ids=[label for label, row in zip(IDS, TAXONOMY) if row[3]],
    )  # fmt: skip
    def test_evaluate_maintain_and_service_agree(
        self, monkeypatch, make, status, kind, state
    ):
        def explode(*args, **kwargs):
            raise make()

        edb = {"arc": path_arcs(6)}
        engine = RecStep(RecStepConfig(**RELATIONAL))
        view = engine.materialize(TC, edb)
        assert view.status == "ready"
        with monkeypatch.context() as patch:
            patch.setattr(SemiNaiveInterpreter, "run", explode)
            evaluated = engine.evaluate(TC, edb)
        with monkeypatch.context() as patch:
            patch.setattr(MaintenanceRun, "run", explode)
            maintained = view.maintain({"arc": np.array([[9, 10]])})
        assert view.status == "poisoned"
        with monkeypatch.context() as patch:
            patch.setattr(RecStep, "evaluate", explode)
            service = QueryService(
                ServerConfig(), engine_config=RecStepConfig(**RELATIONAL)
            )
            ack = service.submit(QueryRequest(program=TC, edb_data=edb))
            service.flush()
        session = service.sessions.get(ack["session_id"])
        for result in (evaluated, maintained):
            assert (result.status, result.failure["kind"]) == (status, kind)
        assert (session.state, session.failure["kind"]) == (SessionState(state), kind)


class TestModuleSeam:
    def test_scheduler_imports_no_datalog(self):
        import repro.server.scheduler as scheduler

        tree = ast.parse(Path(scheduler.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        leaks = {
            name
            for name in imported
            if name.startswith(("repro.core", "repro.datalog"))
        }
        assert not leaks, f"scheduler must not know Datalog: {sorted(leaks)}"

    def test_only_the_cost_model_knows_what_work_costs(self):
        from repro.engine import dedup, executor, operators, setops

        engine = Path(executor.__file__).parent
        priced = re.compile(
            r"^COST_|_PHASE$|^PhaseKind$|^(HASH_ENTRY_OVERHEAD|PARTITION_SCRATCH_BYTES"
            r"|GENERIC_ENTRY_OVERHEAD|CCK_BUCKET_BYTES|LEAN_INDEX_BYTES|INDEX_ROW_BYTES)$"
        )
        leaks, scatters = [], []
        for path in sorted(engine.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.Call):
                    called = getattr(node.func, "attr", getattr(node.func, "id", ""))
                    if called == "radix_partition":
                        scatters.append(path.name)
                if path.name != "executor.py":
                    leaks += [(path.name, name) for name in names if priced.search(name)]
                    if isinstance(node, ast.keyword) and node.arg == "utilization":
                        leaks.append((path.name, "utilization="))
        assert not leaks, f"priced outside the model: {sorted(set(leaks))}"
        # One modeled scatter per side, counted where it is priced.
        assert set(scatters) == {"executor.py"}
        # The model is configured once; nothing threads its switches through.
        for function in (
            dedup.deduplicate,
            setops.one_phase_set_difference,
            setops.two_phase_set_difference,
        ):
            parameters = set(inspect.signature(function).parameters)
            assert not parameters & {"fast", "lean", "partitions", "partitioned"}
        context = {field.name for field in fields(operators.ExecutionContext)}
        assert context == {"catalog", "model", "profiler", "join_cache"}
        assert not [
            name
            for name in vars(operators.ExecutionContext)
            if name.startswith("charge_") or name == "partition_scratch_ok"
        ]

    def test_membership_goes_through_the_sorted_kernels(self):
        # np.isin's default hash-uniques the larger side, np.insert rewrites
        # a whole sorted index per append, np.unique re-sorts what a packed
        # key already orders: each is allowed only where it is the point.
        from repro.engine import executor

        allowed = {
            "isin": {"semi_join_mask"},  # the kind="table" pass
            "insert": {"merge_sorted_index"},
            "unique": {"row_keys"},  # per-column ranks of rows too wide to pack
        }
        found = {name: [] for name in allowed}

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = scope + [node.name]
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in allowed
                and getattr(node.func.value, "id", None) == "np"
            ):
                found[node.func.attr].append((".".join(scope[-2:]), node))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        source = Path(executor.__file__).parent.parent
        for path in sorted([*source.glob("engine/*.py"), *source.glob("core/*.py")]):
            visit(ast.parse(path.read_text()), [])
        for name, sites in found.items():
            assert {scope for scope, _ in sites} <= allowed[name], (name, sites)
        ((_, isin),) = found["isin"]
        assert [(kw.arg, kw.value.value) for kw in isin.keywords] == [("kind", "table")]

    def test_rows_are_ordered_by_one_kernel(self):
        # A multi-column row is ordered by its row_keys code, never sorted
        # as a whole-row record per call (np.lexsort, np.unique(axis=)).
        from repro.engine import kernels

        sites = []
        source = Path(kernels.__file__).parent.parent
        for path in sorted(source.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                if node.func.attr == "lexsort" or (
                    node.func.attr == "unique" and any(kw.arg == "axis" for kw in node.keywords)
                ):
                    sites.append((path.relative_to(source).as_posix(), node.lineno))
        assert not sites
        assert not hasattr(kernels, "factorize_rows")

    def test_deletes_go_through_one_rank_restricted_loop(self):
        from repro.core import ivm

        functions = {
            node.name: node
            for node in ast.walk(ast.parse(Path(ivm.__file__).read_text()))
            if isinstance(node, ast.FunctionDef)
        }
        # Rederivation is seeded from the deleted rows, not a full scan.
        assert "init_subqueries" not in ast.unparse(functions["_dred_seeds"])
        # Ranks are kept by the table, handed out by the database and read
        # by maintenance; nothing else looks at them.
        source = Path(ivm.__file__).parent.parent
        readers = {
            path.relative_to(source).as_posix()
            for path in source.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and node.attr in {"ranks", "ranked_rows", "_rank_starts", "_rank_values"}
        }
        assert readers == {"core/ivm.py", "engine/database.py", "storage/table.py"}

    def test_one_maintenance_algorithm_for_monotone_strata(self):
        from repro.core import ivm
        from repro.core.compiler import QueryGenerator
        from repro.datalog import ast as dast
        from repro.programs import program_names

        # DRed for every monotone stratum, recursive or not; recompute only
        # where a rule is negated or a head aggregates.
        for name in program_names():
            for cs in QueryGenerator(get_program(name).parse()).compile():
                monotone = not any(
                    rule.negative_atoms()
                    or any(isinstance(term, dast.AggTerm) for term in rule.head.terms)
                    for rule in cs.stratum.rules
                )
                expected = ivm.CLASS_DRED if monotone else ivm.CLASS_RECOMPUTE
                assert ivm.classify_stratum(cs) == expected, (name, cs.stratum.index)
        # No maintenance table outlives its batch.
        edb = {"arc": np.array([[0, 1], [1, 2], [2, 0], [3, 4]], dtype=np.int64)}
        for name in ("CC", "NTC"):
            view = RecStep(RecStepConfig(**RELATIONAL)).materialize(get_program(name), edb)
            try:
                result = view.maintain(
                    inserts={"arc": np.array([[4, 5]])}, deletes={"arc": np.array([[1, 2]])}
                )
                assert result.status == "ok", result.failure
                tables = view.database.catalog.table_names()
                assert not [table for table in tables if "_ivm_" in table], (name, tables)
            finally:
                view.release()
        # Derivation counting is gone, not just unreachable.
        source = Path(ivm.__file__).parent.parent
        for path in source.rglob("*.py"):
            text = path.read_text()
            for name in ("_ivm_cnt", "CLASS_COUNTING", "_group_sum"):
                assert name not in text, (path, name)

    def test_one_semi_naive_loop_for_evaluation_and_maintenance(self):
        from repro.core import interpreter, ivm

        functions = {
            f"{Path(module.__file__).stem}.{node.name}": node
            for module in (interpreter, ivm)
            for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
            if isinstance(node, ast.FunctionDef)
        }
        loops = {
            name: sum(isinstance(node, ast.While) for node in ast.walk(function))
            for name, function in functions.items()
        }
        # The fixpoint driver, beside the over-deletion loop.
        assert {name: count for name, count in loops.items() if count} == {
            "interpreter.run_fixpoint": 1,
            "ivm._overdelete": 1,
        }
        source = Path(ivm.__file__).read_text()
        for name in ("_evaluate_predicate", "_run_stratum", "IterationRecord"):
            assert name not in source, name
        calls = {
            name: [
                node
                for node in ast.walk(function)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            ]
            for name, function in functions.items()
        }

        def callers(attr):
            return {name for name, sites in calls.items() if any(c.func.attr == attr for c in sites)}

        # Guard, telemetry and per-iteration checkpoints happen in the driver
        # for every caller; ``run`` only adds stratum-boundary snapshots.
        driver = {"interpreter.run_fixpoint"}
        assert callers("check_guard") == callers("note_iteration") == driver
        assert callers("_maybe_checkpoint") == driver | {"interpreter.run"}
        assert all(
            ast.literal_eval(call.args[1]) == -1
            for call in calls["interpreter.run"]
            if call.func.attr == "_maybe_checkpoint"
        )

    def test_config_surface_budget(self):
        # Raising a bound is a reviewed decision: a new knob needs two
        # callers that set it differently (see the knob audit in CHANGES.md).
        assert len(fields(RecStepConfig)) <= 24
        assert len(fields(ServerConfig)) <= 6
        assert len(fields(RetryPolicy)) <= 1
        # Every rung has a witness (tests/test_resilience.py::TestLadderEvidence).
        assert len(LADDER) == 5


class TestRecoveryOpensWithoutReadout:
    def test_sizes_are_post_replay_and_no_tuple_sets_are_built(
        self, tmp_path, monkeypatch
    ):
        def service():
            return QueryService(
                ServerConfig(wal_root=str(tmp_path)),
                engine_config=RecStepConfig(**RELATIONAL),
            )

        live = service()
        ack = live.submit(
            QueryRequest(program=TC, edb_data={"arc": path_arcs(5)}, materialize=True)
        )
        live.flush()
        base_sizes = live.sessions.get(ack["session_id"]).to_dict()["sizes"]
        live.submit(
            QueryRequest(
                program=TC, edb_data={}, kind="update",
                target_session=ack["session_id"],
                inserts={"arc": np.array([[5, 6], [6, 7]])},
            )
        )  # fmt: skip
        live.flush()
        live.drain()

        def no_readout(view):
            raise AssertionError("recovery read the fixpoint out")

        recovered = service()
        with monkeypatch.context() as patch:
            patch.setattr(
                "repro.core.recstep.MaterializedFixpoint.fixpoint", no_readout
            )
            report = recovered.recover()
        (doc,) = report["recovered"].values()
        assert doc["records_replayed"] == 1
        session = recovered.sessions.get(doc["session_id"])
        view = recovered._views[doc["session_id"]]
        expected = RecStep(RecStepConfig(**RELATIONAL)).evaluate(
            TC, {"arc": path_arcs(7)}
        )
        assert session.to_dict()["sizes"] == view.sizes() == expected.sizes()
        assert session.to_dict()["sizes"] != base_sizes
        assert session.result.tuples == {}
        assert view.fixpoint() == expected.tuples


class TestAnswersStayColumnar:
    @pytest.fixture(autouse=True)
    def no_boxing(self, monkeypatch):
        def boxed(rows):
            raise AssertionError("an answer was boxed into a set of tuples")

        monkeypatch.setattr("repro.common.records.rows_to_set", boxed)

    @staticmethod
    def arcs() -> np.ndarray:
        rng = np.random.default_rng(7)
        edges = np.unique(rng.integers(0, 30, size=(60, 2)), axis=0)
        return edges[edges[:, 0] != edges[:, 1]]

    @pytest.mark.parametrize("pbme", [PbmeMode.ON, PbmeMode.OFF])
    def test_evaluate_matches_reference(self, pbme):
        arc = self.arcs()
        result = RecStep(RecStepConfig(enforce_budgets=False, pbme=pbme)).evaluate(
            get_program("TC"), {"arc": arc}
        )
        assert result.tuples["tc"] == reference_closure(arc)

    def test_g500_pbme_on_and_off_agree(self):
        # The brute-force reference is quadratic in the closure (248,003
        # tuples here), so the bit-matrix and relational fixpoints check
        # each other: (row, col) order against append order, unboxed.
        arc = load_dataset("G500")["arc"]
        on, off = (
            RecStep(RecStepConfig(enforce_budgets=False, pbme=mode))
            .evaluate(get_program("TC"), {"arc": arc})
            .tuples["tc"]
            for mode in (PbmeMode.ON, PbmeMode.OFF)
        )
        assert len(on) == 248003
        assert on == off

    def test_magic_answer_matches_reference(self):
        arc = self.arcs()
        engine = RecStep(RecStepConfig(enforce_budgets=False, pbme=PbmeMode.OFF))
        source = int(arc[0, 0])
        answered = engine.answer(get_program("TC"), f"tc({source}, x)", {"arc": arc})
        expected = {row for row in reference_closure(arc) if row[0] == source}
        assert answered.tuples["tc"] == expected
        edb = engine.answer(get_program("TC"), f"arc({source}, x)", {"arc": arc})
        assert edb.tuples["arc"] == {
            (a, b) for a, b in arc.tolist() if a == source
        }

    def test_no_answer_path_module_holds_rows_to_set(self):
        # A module that imported the name itself would slip past the patch.
        from repro.core import recstep
        from repro.datalog import magic
        from repro.server import service

        for module in (recstep, magic, service):
            assert not hasattr(module, "rows_to_set"), module.__name__


class TestKeptViewTraces:
    def test_traces_are_per_run_not_per_recorder_lifetime(self):
        def serve(batches):
            # fault_seed=None: injected retries would add their own samples.
            view = RecStep(RecStepConfig(**RELATIONAL, fault_seed=None)).materialize(
                TC, {"arc": path_arcs(12)}
            )
            opened = (
                view.result.memory_trace.as_tuples(),
                view.result.cpu_trace.as_tuples(),
            )
            assert all(opened)
            for batch in range(batches):
                isolated = np.array([[100 + 10 * batch, 101 + 10 * batch]])
                assert view.maintain({"arc": isolated}).status == "ok"
            metrics = view.database.metrics
            # The opening result kept its traces, and only those.
            assert opened == (
                view.result.memory_trace.as_tuples(),
                view.result.cpu_trace.as_tuples(),
            )
            view.release()
            return len(metrics.memory_trace.samples), len(metrics.cpu_trace.samples)

        assert serve(2) == serve(7)


class TestWorkDoneOnce:
    def test_point_request_parses_its_program_once(self, monkeypatch):
        parses = []
        parse = ProgramSpec.parse
        monkeypatch.setattr(
            ProgramSpec, "parse", lambda self: parses.append(self.name) or parse(self)
        )
        service = QueryService(ServerConfig(), engine_config=RecStepConfig(**RELATIONAL))
        ack = service.submit(
            QueryRequest(
                program=TC, edb_data={"arc": path_arcs(6)}, kind="point", goal="tc(0, x)"
            )
        )
        service.flush()
        session = service.sessions.get(ack["session_id"])
        assert session.result.tuples["tc"] == {(0, i) for i in range(1, 7)}
        assert parses == ["TC"]

    def test_edb_is_fingerprinted_only_where_the_digest_is_stamped(
        self, tmp_path, monkeypatch
    ):
        from repro.resilience import checkpoint

        calls = []
        real = checkpoint.edb_fingerprint

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for module in ("repro.core.interpreter", "repro.core.recstep"):
            monkeypatch.setattr(f"{module}.edb_fingerprint", counting)
        edb = {"arc": path_arcs(6)}
        view = RecStep(RecStepConfig(**RELATIONAL)).materialize(TC, edb)
        assert view.maintain({"arc": np.array([[6, 7]])}).status == "ok"
        assert calls == []  # no checkpoint, no base, no resume: no digest
        state = view.snapshot_state()
        assert calls == [1]
        assert state.edb_fingerprint == real({"arc": path_arcs(7)})
        view.release()
        checkpointed = RecStep(
            RecStepConfig(**RELATIONAL, checkpoint_dir=str(tmp_path))
        ).evaluate(TC, edb)
        assert checkpointed.status == "ok"
        assert calls == [1, 1]  # once per run, however many checkpoints
        loaded = checkpoint.CheckpointManager.load(tmp_path)
        assert loaded.edb_fingerprint == real(edb)
