"""Tests for the .datalog CLI frontend and the EXPLAIN facility."""

import numpy as np
import pytest

from repro.cli import main, parse_datalog_file, run_datalog_file
from repro.common.errors import DatalogError
from repro.datasets.io import load_relation, save_relation
from repro.engine.database import Database
from repro.engine.explain import explain_sql


@pytest.fixture
def datalog_project(tmp_path):
    """A .datalog file with its input relation on disk."""
    edges = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64)
    save_relation(tmp_path / "arc.tsv", edges)
    program = tmp_path / "tc.datalog"
    program.write_text(
        """
.input arc arc.tsv
.output tc tc_out.tsv

tc(x, y) :- arc(x, y).
tc(x, y) :- tc(x, z), arc(z, y).
"""
    )
    return program


class TestDatalogFile:
    def test_parse_directives(self, datalog_project):
        parsed = parse_datalog_file(datalog_project)
        assert set(parsed.inputs) == {"arc"}
        assert set(parsed.outputs) == {"tc"}
        assert "tc(x, y)" in parsed.source

    def test_malformed_directive(self, tmp_path):
        bad = tmp_path / "bad.datalog"
        bad.write_text(".input arc\np(x) :- arc(x, y).\n")
        with pytest.raises(DatalogError):
            parse_datalog_file(bad)

    def test_run_writes_outputs(self, datalog_project):
        result = run_datalog_file(datalog_project)
        assert result.status == "ok"
        rows = load_relation(datalog_project.parent / "tc_out.tsv", arity=2)
        assert {tuple(r) for r in rows.tolist()} == {
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        }

    def test_missing_input_rejected(self, tmp_path):
        program = tmp_path / "p.datalog"
        program.write_text("p(x) :- q(x).\n")
        with pytest.raises(DatalogError):
            run_datalog_file(program)

    def test_unknown_output_rejected(self, tmp_path):
        save_relation(tmp_path / "q.tsv", np.array([[1]]))
        program = tmp_path / "p.datalog"
        program.write_text(".input q q.tsv\n.output nope out.tsv\np(x) :- q(x).\n")
        with pytest.raises(DatalogError):
            run_datalog_file(program)

    def test_alternate_engine(self, datalog_project):
        result = run_datalog_file(datalog_project, engine_name="Souffle")
        assert result.status == "ok"
        assert result.engine == "Souffle"

    def test_main_entry_point(self, datalog_project, capsys):
        code = main([str(datalog_project)])
        assert code == 0
        output = capsys.readouterr().out
        assert "status:       ok" in output
        assert "|tc| = 6" in output

    def test_ground_negation_runs_to_its_outputs(self, tmp_path, capsys):
        save_relation(tmp_path / "a.tsv", np.array([[1], [2]]))
        save_relation(tmp_path / "b.tsv", np.array([[5]]))
        program = tmp_path / "p.datalog"
        program.write_text(
            ".input a a.tsv\n.input b b.tsv\n.output p p.tsv\n.output q q.tsv\n"
            "p(x) :- a(x), !b(5).\nq(x) :- a(x), !b(7).\n"
        )
        assert main([str(program)]) == 0
        assert "|p| = 0" in capsys.readouterr().out
        assert (tmp_path / "p.tsv").read_text() == ""
        assert load_relation(tmp_path / "q.tsv", arity=1).tolist() == [[1], [2]]


class TestExplain:
    @pytest.fixture
    def db(self):
        database = Database(enforce_budgets=False)
        database.execute("CREATE TABLE arc (x INT, y INT)")
        database.execute("INSERT INTO arc VALUES (1,2),(2,3)")
        database.execute("CREATE TABLE tc_delta (x INT, y INT)")
        database.execute("INSERT INTO tc_delta VALUES (1,2)")
        database.analyze("arc")
        database.analyze("tc_delta")
        return database

    def test_explain_scan_and_join(self, db):
        plan = explain_sql(
            "SELECT d.x AS x, a.y AS y FROM tc_delta d, arc a WHERE d.y = a.x",
            db.catalog,
        )
        assert "scan tc_delta AS d (est. 1 rows)" in plan
        assert "hash join arc AS a" in plan
        assert "[build:" in plan
        assert "project" in plan

    def test_explain_reflects_statistics(self, db):
        # The smaller table (by stats) is scanned first and built on.
        plan = explain_sql(
            "SELECT d.x AS x FROM tc_delta d, arc a WHERE d.y = a.x", db.catalog
        )
        assert plan.splitlines()[0].startswith("scan tc_delta")
        db.execute("DELETE FROM arc")
        db.analyze("arc")
        plan = explain_sql(
            "SELECT d.x AS x FROM tc_delta d, arc a WHERE d.y = a.x", db.catalog
        )
        assert plan.splitlines()[0].startswith("scan arc")

    def test_explain_aggregation_and_filter(self, db):
        plan = explain_sql(
            "SELECT a.x AS x, COUNT(a.y) AS c FROM arc a WHERE a.y > 1 GROUP BY a.x",
            db.catalog,
        )
        assert "filter" in plan
        assert "aggregate GROUP BY a.x" in plan

    def test_explain_not_exists(self, db):
        plan = explain_sql(
            "SELECT a.x AS x FROM arc a WHERE NOT EXISTS "
            "(SELECT 1 FROM tc_delta WHERE tc_delta.x = a.x)",
            db.catalog,
        )
        assert "anti join (NOT EXISTS over tc_delta)" in plan

    def test_explain_union_all(self, db):
        plan = explain_sql(
            "SELECT a.x AS v FROM arc a UNION ALL SELECT a.y AS v FROM arc a",
            db.catalog,
        )
        assert "UNION ALL arm 0:" in plan
        assert "UNION ALL arm 1:" in plan

    def test_explain_insert_select(self, db):
        plan = explain_sql(
            "INSERT INTO tc_delta SELECT a.x AS x, a.y AS y FROM arc a", db.catalog
        )
        assert plan.startswith("INSERT INTO tc_delta")

    def test_explain_non_query_rejected(self, db):
        with pytest.raises(ValueError):
            explain_sql("DROP TABLE arc", db.catalog)


class TestExplainAnalyze:
    @pytest.fixture
    def db(self):
        database = Database(enforce_budgets=False)
        database.execute("CREATE TABLE arc (x INT, y INT)")
        database.execute("INSERT INTO arc VALUES (1,2),(2,3),(3,4)")
        database.execute("CREATE TABLE tc_delta (x INT, y INT)")
        database.execute("INSERT INTO tc_delta VALUES (1,2),(2,3)")
        database.execute("CREATE TABLE tc_mdelta (x INT, y INT)")
        database.analyze("arc")
        database.analyze("tc_delta")
        return database

    def test_select_reports_actual_rows(self, db):
        text = db.explain_analyze(
            "SELECT d.x AS x, a.y AS y FROM tc_delta d, arc a WHERE d.y = a.x"
        )
        # Scan and join lines carry the executed row counts.
        assert "scan tc_delta AS d (est. 2 rows)  (actual: 2 rows" in text
        assert "hash join arc AS a" in text and "(actual: 2 rows" in text
        assert text.splitlines()[-1].startswith("actual: 2 rows in ")
        assert "simulated seconds" in text

    def test_union_all_uie_golden(self, db):
        """Golden test: the UIE-shaped INSERT .. UNION ALL statement."""
        text = db.explain_analyze(
            "INSERT INTO tc_mdelta "
            "SELECT d.x AS x, a.y AS y FROM tc_delta d, arc a WHERE d.y = a.x "
            "UNION ALL SELECT a.x AS x, a.y AS y FROM arc a"
        )
        lines = [line.strip() for line in text.splitlines()]
        assert lines[0] == "INSERT INTO tc_mdelta"
        arm_headers = [line for line in lines if line.startswith("UNION ALL arm")]
        assert len(arm_headers) == 2
        # Arm 0: the delta join produces 2 rows; arm 1: the full scan, 3.
        assert arm_headers[0].startswith("UNION ALL arm 0:  (actual: 2 rows")
        assert arm_headers[1].startswith("UNION ALL arm 1:  (actual: 3 rows")
        assert any(
            line.startswith("scan tc_delta AS d") and "(actual: 2 rows" in line
            for line in lines
        )
        assert any(
            line.startswith("scan arc AS a") and "(actual: 3 rows" in line
            for line in lines
        )
        # Footer reports the 5 rows actually inserted...
        assert lines[-1].startswith("actual: 5 rows in ")
        # ...matching the executed result in the table.
        assert db.table_size("tc_mdelta") == 5

    def test_profiler_restored_after_analyze(self, db):
        assert not db.profiler.enabled
        db.explain_analyze("SELECT a.x AS x FROM arc a")
        assert not db.profiler.enabled
        # A second call starts from a clean trace (no stale spans).
        text = db.explain_analyze("SELECT a.x AS x FROM arc a")
        assert text.splitlines()[-1].startswith("actual: 3 rows")

    def test_unmatched_lines_marked_not_executed(self, db):
        # An impossible filter empties the frame before the join runs:
        # whichever operators still execute report actuals; the plan
        # renders regardless.
        text = db.explain_analyze(
            "SELECT a.x AS x FROM arc a WHERE a.x > 100"
        )
        assert "filter" in text
        assert text.splitlines()[-1].startswith("actual: 0 rows")


class TestCliProfiling:
    def test_profile_flag_prints_hotspots(self, datalog_project, capsys):
        code = main([str(datalog_project), "--profile"])
        assert code == 0
        output = capsys.readouterr().out
        assert "% attributed to spans" in output
        assert "counters:" in output

    def test_trace_out_writes_valid_chrome_trace(self, datalog_project, capsys):
        import json

        trace_path = datalog_project.parent / "trace.json"
        code = main([str(datalog_project), "--trace-out", str(trace_path)])
        assert code == 0
        assert "trace written to" in capsys.readouterr().out
        payload = json.loads(trace_path.read_text())
        assert set(payload) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert any(e.get("cat") == "program" for e in payload["traceEvents"])

    def test_profile_rejected_for_baselines(self, datalog_project):
        with pytest.raises(DatalogError):
            run_datalog_file(datalog_project, engine_name="Souffle", profile=True)


class TestExplainProgram:
    def test_database_explain_method(self):
        import numpy as np
        from repro.engine.database import Database

        db = Database(enforce_budgets=False)
        db.load_table("e", ["a", "b"], np.array([[1, 2]]))
        db.analyze("e")
        plan = db.explain("SELECT e.a AS a FROM e")
        assert "scan e" in plan


class TestPointQueryCli:
    def test_query_flag_prints_answers_and_writes_outputs(
        self, datalog_project, capsys
    ):
        code = main([str(datalog_project), "--query", "tc(0, x)"])
        assert code == 0
        output = capsys.readouterr().out
        assert "|tc| = 3" in output
        assert "  tc(0, 1)" in output
        rows = load_relation(datalog_project.parent / "tc_out.tsv", arity=2)
        assert {tuple(r) for r in rows.tolist()} == {(0, 1), (0, 2), (0, 3)}

    def test_file_level_query_directive(self, tmp_path, capsys):
        save_relation(tmp_path / "arc.tsv", np.array([[0, 1], [1, 2]]))
        program = tmp_path / "q.datalog"
        program.write_text(
            ".input arc arc.tsv\n"
            "tc(x, y) :- arc(x, y).\n"
            "tc(x, y) :- tc(x, z), arc(z, y).\n"
            "?- tc(1, x).\n"
        )
        code = main([str(program)])
        assert code == 0
        assert "tc(1, 2)" in capsys.readouterr().out

    def test_query_requires_recstep(self, datalog_project):
        with pytest.raises(DatalogError, match="RecStep"):
            run_datalog_file(datalog_project, engine_name="Souffle", query="tc(0, x)")

    def test_query_incompatible_with_serving(self, datalog_project, tmp_path):
        with pytest.raises(DatalogError, match="serve"):
            run_datalog_file(
                datalog_project,
                query="tc(0, x)",
                serve_trace=str(tmp_path / "trace.json"),
            )


class TestExitCodes:
    """The documented contract: 0 ok, 1 hard failure, 2 usage, 3 degraded.

    Degraded-but-served runs (divergence guard, cooperative deadline)
    produced a usable partial report, so scripts can distinguish them
    from hard failures (OOM, timeout, fault) without parsing output.
    """

    def test_ok_exits_zero(self, datalog_project):
        assert main([str(datalog_project)]) == 0

    def test_hard_failure_exits_one(self, datalog_project, capsys):
        code = main([str(datalog_project), "--memory-budget", "50"])
        assert code == 1
        assert "status:       oom" in capsys.readouterr().out

    def test_usage_error_exits_two(self, datalog_project, capsys):
        with pytest.raises(SystemExit) as info:
            main([str(datalog_project), "--no-such-flag"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_guard_trip_exits_three(self, datalog_project, capsys):
        code = main([str(datalog_project), "--max-iterations", "1"])
        assert code == 3
        assert "status:       guard" in capsys.readouterr().out

    def test_deadline_exits_three(self, datalog_project, capsys):
        code = main([str(datalog_project), "--deadline", "1e-9"])
        assert code == 3
        assert "status:       deadline" in capsys.readouterr().out

    def test_exit_code_for_mapping(self):
        from repro.cli import exit_code_for

        assert exit_code_for("ok") == 0
        assert exit_code_for("guard") == 3
        assert exit_code_for("deadline") == 3
        for hard in ("oom", "timeout", "fault", "storage", "cancelled"):
            assert exit_code_for(hard) == 1
