"""Tests for PBME: the packed bit matrix and TC/SG evaluation."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PbmeMode, RecStep, RecStepConfig
from repro.common.errors import DatalogError
from repro.core import bitmatrix
from repro.core.bitmatrix import PackedBitMatrix, pbme_applicability
from repro.core.config import RecStepConfig as Config
from repro.datalog.parser import parse_program
from repro.datalog.analyzer import analyze_program
from repro.engine.database import Database
from repro.programs import get_program
from tests.conftest import reference_same_generation

pairs_strategy = st.lists(
    st.tuples(st.integers(0, 70), st.integers(0, 70)), min_size=0, max_size=120
)

#: Vertex ids with gaps, so the matrix domain holds isolated vertices.
sg_vertex = st.sampled_from([0, 1, 2, 3, 5, 8, 13, 21, 34, 40])
#: Arc rows (duplicates and self-loops allowed) plus the width of a hub.
sg_graph_strategy = st.tuples(
    st.lists(st.tuples(sg_vertex, sg_vertex), min_size=1, max_size=40),
    st.integers(0, 10),
)


def _sg_arcs(pairs, hub_width: int) -> np.ndarray:
    """The drawn rows plus hub 50 -> 51.., every hub child a parent of 0 and 1."""
    hub_children = range(51, 51 + hub_width)
    hub = [(50, c) for c in hub_children] + [
        (c, grandchild) for c in hub_children for grandchild in (0, 1)
    ]
    return np.asarray(list(pairs) + hub, dtype=np.int64)


def _evaluate_sg(arcs: np.ndarray, **config):
    return RecStep(RecStepConfig(enforce_budgets=False, **config)).evaluate(
        get_program("SG"), {"arc": arcs}, "t"
    )


class TestPackedBitMatrix:
    def test_set_and_test(self):
        matrix = PackedBitMatrix(100)
        matrix.set_pairs(np.array([1, 2]), np.array([64, 65]))
        assert matrix.test_pairs(np.array([1, 2, 1]), np.array([64, 65, 65])).tolist() == [
            True,
            True,
            False,
        ]

    def test_count(self):
        matrix = PackedBitMatrix(10)
        matrix.set_pairs(np.array([0, 0, 9]), np.array([0, 0, 9]))
        assert matrix.count() == 2  # duplicate set is idempotent

    def test_memory_bytes(self):
        matrix = PackedBitMatrix(128)
        assert matrix.memory_bytes() == 128 * 2 * 8  # 2 words per row

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            PackedBitMatrix(0)

    @given(pairs_strategy)
    @settings(max_examples=40, deadline=None)
    def test_matches_python_set(self, pairs):
        matrix = PackedBitMatrix(71)
        if pairs:
            rows = np.array([p[0] for p in pairs])
            cols = np.array([p[1] for p in pairs])
            matrix.set_pairs(rows, cols)
        rows, cols = (grid.ravel() for grid in np.indices((71, 71)))
        hits = matrix.test_pairs(rows, cols)
        assert set(zip(rows[hits].tolist(), cols[hits].tolist())) == set(pairs)
        assert matrix.count() == len(set(pairs))


class TestApplicability:
    def _decision(self, source, edb, config=None, budget=None):
        analyzed = analyze_program(parse_program(source))
        database = Database(enforce_budgets=False)
        if budget is not None:
            database.metrics.memory_budget = budget
        for name, rows in edb.items():
            database.load_table(name, ("c0", "c1"), np.asarray(rows))
        config = config or Config(enforce_budgets=False)
        return pbme_applicability(analyzed, analyzed.strata[0], database, config)

    def test_tc_shape_detected(self):
        dense = [[i, j] for i in range(20) for j in range(20) if i != j][:150]
        decision = self._decision(
            "tc(x,y) :- arc(x,y). tc(x,y) :- tc(x,z), arc(z,y).",
            {"arc": dense},
        )
        assert decision.applicable and decision.shape == "TC"

    def test_sg_shape_detected(self):
        dense = [[i, j] for i in range(20) for j in range(20) if i != j][:150]
        decision = self._decision(
            "sg(x,y) :- arc(p,x), arc(p,y), x != y. "
            "sg(x,y) :- arc(a,x), sg(a,b), arc(b,y).",
            {"arc": dense},
        )
        assert decision.applicable and decision.shape == "SG"

    def test_csda_shape_matches_tc_but_sparse_rejected(self):
        chain = [[i, i + 1] for i in range(5000)]
        decision = self._decision(
            "null(x,y) :- nullEdge(x,y). null(x,y) :- null(x,w), arc(w,y).",
            {"arc": chain, "nullEdge": chain[:3]},
        )
        assert not decision.applicable
        assert "sparse" in decision.reason

    def test_memory_fit_rejected(self):
        dense = [[i, j] for i in range(100) for j in range(100) if i != j]
        decision = self._decision(
            "tc(x,y) :- arc(x,y). tc(x,y) :- tc(x,z), arc(z,y).",
            {"arc": dense},
            budget=100,  # matrix cannot fit
        )
        assert not decision.applicable
        assert "memory" in decision.reason

    def test_non_tc_program_rejected(self):
        decision = self._decision(
            "r(x,y) :- e(x,y). r(x,y) :- r(x,z), r(z,y).",  # nonlinear
            {"e": [[0, 1]]},
        )
        assert not decision.applicable

    def test_pbme_off_always_rejected(self):
        dense = [[i, j] for i in range(20) for j in range(20) if i != j][:150]
        decision = self._decision(
            "tc(x,y) :- arc(x,y). tc(x,y) :- tc(x,z), arc(z,y).",
            {"arc": dense},
            config=Config(enforce_budgets=False, pbme=PbmeMode.OFF),
        )
        assert not decision.applicable

    def test_pbme_on_wrong_shape_raises(self):
        analyzed = analyze_program(
            parse_program("r(x,y) :- e(x,y). r(x,y) :- r(x,z), r(z,y).")
        )
        database = Database(enforce_budgets=False)
        database.load_table("e", ("c0", "c1"), np.array([[0, 1]]))
        with pytest.raises(DatalogError):
            pbme_applicability(
                analyzed,
                analyzed.strata[0],
                database,
                Config(enforce_budgets=False, pbme=PbmeMode.ON),
            )

    def test_negative_domain_rejected(self):
        decision = self._decision(
            "tc(x,y) :- arc(x,y). tc(x,y) :- tc(x,z), arc(z,y).",
            {"arc": [[-1, 2]]},
        )
        assert not decision.applicable


class TestPbmeEvaluation:
    @given(pairs_strategy)
    @settings(max_examples=20, deadline=None)
    def test_tc_pbme_matches_relational(self, pairs):
        edges = np.asarray([p for p in set(pairs) if p[0] != p[1]], dtype=np.int64)
        if edges.size == 0:
            return
        program = get_program("TC")
        on = RecStep(RecStepConfig(enforce_budgets=False, pbme=PbmeMode.ON)).evaluate(
            program, {"arc": edges}, "t"
        )
        off = RecStep(RecStepConfig(enforce_budgets=False, pbme=PbmeMode.OFF)).evaluate(
            program, {"arc": edges}, "t"
        )
        assert on.tuples["tc"] == off.tuples["tc"]

    @given(sg_graph_strategy)
    @settings(max_examples=25, deadline=None)
    def test_sg_pbme_matches_relational_and_closure(self, graph):
        arcs = _sg_arcs(*graph)
        expected = reference_same_generation(arcs)
        assert _evaluate_sg(arcs, pbme=PbmeMode.OFF).tuples["sg"] == expected
        on = _evaluate_sg(arcs, pbme=PbmeMode.ON)
        assert on.detail["pbme_strata"] == 1.0
        assert on.tuples["sg"] == expected
        coord = _evaluate_sg(arcs, pbme=PbmeMode.ON, sg_coordination=True)
        assert coord.tuples["sg"] == expected
        # Batches a few rows wide: the hub's sibling pairs alone overflow
        # one, so pairs are reached from several batches and iterations.
        with mock.patch.object(bitmatrix, "_CHUNK_OUTPUT_ROWS", 16):
            split = _evaluate_sg(arcs, pbme=PbmeMode.ON)
            split_coord = _evaluate_sg(arcs, pbme=PbmeMode.ON, sg_coordination=True)
        assert split.tuples["sg"] == expected
        assert split_coord.tuples["sg"] == expected

    def test_coordination_reports_shorter_makespan_under_skew(self):
        # A skewed star graph: one hub generates almost all SG work.
        rng = np.random.default_rng(0)
        hub_children = np.column_stack(
            [np.zeros(60, dtype=np.int64), rng.permutation(np.arange(1, 61))]
        )
        tail = np.array([[70 + i, 70 + i + 1] for i in range(8)])
        edges = np.vstack([hub_children, tail])
        program = get_program("SG")
        plain = RecStep(
            RecStepConfig(enforce_budgets=False, pbme=PbmeMode.ON, threads=8)
        ).evaluate(program, {"arc": edges}, "t")
        coord = RecStep(
            RecStepConfig(
                enforce_budgets=False, pbme=PbmeMode.ON, threads=8, sg_coordination=True
            )
        ).evaluate(program, {"arc": edges}, "t")
        assert coord.tuples["sg"] == plain.tuples["sg"]
        assert coord.sim_seconds <= plain.sim_seconds
