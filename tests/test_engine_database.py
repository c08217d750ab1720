"""Integration tests for the Database facade (SQL end to end)."""

import numpy as np
import pytest

from repro.common.errors import CatalogError, OutOfMemoryError, PlanError
from repro.engine import Database


@pytest.fixture
def db() -> Database:
    database = Database(enforce_budgets=False)
    database.execute("CREATE TABLE arc (x INT, y INT)")
    database.execute("INSERT INTO arc VALUES (1,2),(2,3),(3,4),(1,3)")
    return database


class TestDdlAndDml:
    def test_create_insert_select(self, db):
        rows = db.execute("SELECT a.x AS x, a.y AS y FROM arc a")
        assert sorted(map(tuple, rows)) == [(1, 2), (1, 3), (2, 3), (3, 4)]

    def test_insert_select_appends(self, db):
        db.execute("CREATE TABLE copy (x INT, y INT)")
        db.execute("INSERT INTO copy SELECT a.x AS x, a.y AS y FROM arc a")
        db.execute("INSERT INTO copy SELECT a.x AS x, a.y AS y FROM arc a")
        assert db.table_size("copy") == 8  # bag semantics

    def test_delete_from_truncates(self, db):
        db.execute("DELETE FROM arc")
        assert db.table_size("arc") == 0

    def test_drop_table(self, db):
        db.execute("DROP TABLE arc")
        with pytest.raises(CatalogError):
            db.table_array("arc")

    def test_load_table_bulk(self, db):
        rows = np.array([[9, 9], [8, 8]])
        db.load_table("bulk", ["x", "y"], rows)
        assert db.table_size("bulk") == 2


class TestQueries:
    def test_self_join(self, db):
        out = db.execute(
            "SELECT a1.x AS x, a2.y AS y FROM arc a1, arc a2 WHERE a1.y = a2.x"
        )
        assert sorted(map(tuple, out)) == [(1, 3), (1, 4), (2, 4)]

    def test_filter_constants(self, db):
        out = db.execute("SELECT a.y AS y FROM arc a WHERE a.x = 1")
        assert sorted(map(tuple, out)) == [(2,), (3,)]

    def test_inequality_filter(self, db):
        out = db.execute("SELECT a.x AS x, a.y AS y FROM arc a WHERE a.y - a.x > 1")
        assert sorted(map(tuple, out)) == [(1, 3)]

    def test_cross_join(self, db):
        db.execute("CREATE TABLE n (v INT)")
        db.execute("INSERT INTO n VALUES (1),(2)")
        out = db.execute("SELECT a.v AS a, b.v AS b FROM n a, n b")
        assert out.shape[0] == 4

    def test_union_all_keeps_duplicates(self, db):
        out = db.execute(
            "SELECT a.x AS v FROM arc a UNION ALL SELECT a.x AS v FROM arc a"
        )
        assert out.shape[0] == 8

    def test_union_width_mismatch_rejected(self, db):
        with pytest.raises(PlanError):
            db.execute(
                "SELECT a.x AS v FROM arc a UNION ALL "
                "SELECT a.x AS v, a.y AS w FROM arc a"
            )

    def test_group_by_count(self, db):
        out = db.execute("SELECT a.x AS x, COUNT(a.y) AS c FROM arc a GROUP BY a.x")
        assert dict(map(tuple, out)) == {1: 2, 2: 1, 3: 1}

    def test_group_by_min_with_expression(self, db):
        out = db.execute(
            "SELECT a.x AS x, MIN(a.y + 10) AS m FROM arc a GROUP BY a.x"
        )
        assert dict(map(tuple, out)) == {1: 12, 2: 13, 3: 14}

    def test_not_exists_anti_join(self, db):
        db.execute("CREATE TABLE node (v INT)")
        db.execute("INSERT INTO node VALUES (1),(2),(3),(4)")
        out = db.execute(
            "SELECT n.v AS v FROM node n WHERE NOT EXISTS "
            "(SELECT 1 FROM arc WHERE arc.x = n.v)"
        )
        assert sorted(map(tuple, out)) == [(4,)]

    def test_distinct(self, db):
        out = db.execute("SELECT DISTINCT a.x AS x FROM arc a")
        assert sorted(map(tuple, out)) == [(1,), (2,), (3,)]

    def test_unqualified_column_resolution(self, db):
        out = db.execute("SELECT x AS x FROM arc WHERE y = 4")
        assert sorted(map(tuple, out)) == [(3,)]

    def test_ambiguous_column_rejected(self, db):
        db.execute("CREATE TABLE arc2 (x INT, y INT)")
        db.execute("INSERT INTO arc2 VALUES (5, 6)")
        with pytest.raises(PlanError):
            db.execute("SELECT x AS x FROM arc a, arc2 b WHERE a.y = b.x")

    def test_empty_result_shape(self, db):
        out = db.execute("SELECT a.x AS x FROM arc a WHERE a.x = 99")
        assert out.shape == (0, 1)


class TestSpecializedOps:
    def test_dedup_table(self, db):
        db.execute("INSERT INTO arc VALUES (1,2),(1,2)")
        outcome = db.dedup_table("arc")
        assert outcome.input_rows == 6
        assert outcome.output_rows == 4

    def test_set_difference_strategies_agree(self, db):
        db.execute("CREATE TABLE new (x INT, y INT)")
        db.execute("INSERT INTO new VALUES (1,2),(7,7),(8,8),(7,7)")
        opsd = db.set_difference("new", "arc", "OPSD")
        tpsd = db.set_difference("new", "arc", "TPSD")
        expected = {(7, 7), (8, 8)}
        assert {tuple(r) for r in opsd.delta.tolist()} == expected
        assert {tuple(r) for r in tpsd.delta.tolist()} == expected
        assert tpsd.intersection_size == 1

    def test_dedup_marks_the_generation_distinct_until_any_mutation(self, db):
        arc = db.catalog.get_table("arc")
        duplicate = np.array([[1, 2]], dtype=np.int64)
        mutations = {
            "append": lambda: db.append_rows("arc", duplicate),
            "insert": lambda: db.execute("INSERT INTO arc VALUES (1,2)"),
            "replace": lambda: db.replace_rows("arc", np.vstack([duplicate, duplicate])),
            "restore": lambda: db.restore_rows("arc", np.vstack([duplicate, duplicate])),
            "delete": lambda: db.delete_rows("arc", duplicate),
            "truncate": lambda: db.execute("DELETE FROM arc"),
        }
        assert not arc.distinct
        for name, mutate in mutations.items():
            db.dedup_table("arc")
            assert arc.distinct, name
            mutate()
            assert not arc.distinct, name

    @pytest.mark.parametrize("strategy", ["OPSD", "TPSD"])
    @pytest.mark.parametrize("join_cache", [True, False])
    def test_set_difference_dedups_unless_marked_distinct(self, strategy, join_cache):
        db = Database(enforce_budgets=False, join_cache=join_cache)
        db.load_table("base", ["x", "y"], np.array([[1, 2]], dtype=np.int64))
        new = np.array([[7, 7], [1, 2], [7, 7], [8, 8]], dtype=np.int64)
        db.load_table("new", ["x", "y"], new)
        # Not distinct: the operator's own sort-unique removes the (7, 7) pair.
        outcome = db.set_difference("new", "base", strategy)
        assert sorted(map(tuple, outcome.delta.tolist())) == [(7, 7), (8, 8)]

        # Same duplicate-free rows, unmarked and then marked by dedup_table:
        # same answer and same modeled seconds (the sort-unique charge
        # stays), and the delta is never a view of the table's buffer.
        table = db.catalog.get_table("new")
        costs = []
        for marked in (False, True):
            db.replace_rows("new", np.array([[7, 7], [1, 2], [8, 8]], dtype=np.int64))
            if marked:
                db.dedup_table("new")
            assert table.distinct == marked
            before = db.sim_seconds
            outcome = db.set_difference("new", "base", strategy)
            costs.append(db.sim_seconds - before)
            assert sorted(map(tuple, outcome.delta.tolist())) == [(7, 7), (8, 8)]
            assert not np.shares_memory(outcome.delta, table.data())
        assert costs[0] == pytest.approx(costs[1], rel=1e-12)

    def test_unknown_strategy_rejected(self, db):
        db.execute("CREATE TABLE new (x INT, y INT)")
        with pytest.raises(PlanError):
            db.set_difference("new", "arc", "MAGIC")

    def test_aggregate_merge_min(self, db):
        db.execute("CREATE TABLE best (k INT, v INT)")
        db.execute("INSERT INTO best VALUES (1, 10), (2, 20)")
        merged, improved = db.aggregate_merge(
            "best", np.array([[1, 5], [2, 25], [3, 7]]), "MIN"
        )
        assert {tuple(r) for r in merged.tolist()} == {(1, 5), (2, 20), (3, 7)}
        assert {tuple(r) for r in improved.tolist()} == {(1, 5), (3, 7)}

    def test_aggregate_merge_max(self, db):
        db.execute("CREATE TABLE best (k INT, v INT)")
        db.execute("INSERT INTO best VALUES (1, 10)")
        _, improved = db.aggregate_merge("best", np.array([[1, 99]]), "MAX")
        assert improved.tolist() == [[1, 99]]

    def test_aggregate_merge_rejects_count(self, db):
        db.execute("CREATE TABLE best (k INT, v INT)")
        with pytest.raises(PlanError):
            db.aggregate_merge("best", np.empty((0, 2)), "COUNT")


class TestMetering:
    def test_clock_advances_with_queries(self, db):
        before = db.sim_seconds
        db.execute("SELECT a.x AS x FROM arc a")
        assert db.sim_seconds > before

    def test_query_counter(self, db):
        count = db.queries_executed
        db.execute("SELECT a.x AS x FROM arc a")
        assert db.queries_executed == count + 1

    def test_memory_budget_enforced(self):
        small = Database(memory_budget=1_000, enforce_budgets=True)
        small.create_table("t", ["a", "b"])
        with pytest.raises(OutOfMemoryError):
            small.load_table("big", ["a", "b"], np.ones((1_000, 2), dtype=np.int64))

    def test_peak_memory_tracked(self, db):
        db.execute("SELECT a.x AS x, b.y AS y FROM arc a, arc b WHERE a.y = b.x")
        assert db.peak_memory_bytes > 0

    def test_eost_commit_flushes(self):
        database = Database(eost=True, enforce_budgets=False)
        database.execute("CREATE TABLE t (a INT)")
        database.execute("INSERT INTO t VALUES (1)")
        assert database.storage.pending_bytes > 0
        database.commit()
        assert database.storage.pending_bytes == 0

    def test_non_eost_flushes_eagerly(self):
        database = Database(eost=False, enforce_budgets=False)
        database.execute("CREATE TABLE t (a INT)")
        database.execute("INSERT INTO t VALUES (1)")
        assert database.storage.pending_bytes == 0
        assert database.storage.flushed_bytes > 0
