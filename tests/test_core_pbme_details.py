"""Deeper PBME tests: cost attribution, chunking, and shape matching."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PbmeMode, RecStep, RecStepConfig
from repro.core import bitmatrix
from repro.core.bitmatrix import (
    PackedBitMatrix,
    _chunk_boundaries,
    _FirstProducerTable,
    _match_sg_shape,
    _match_tc_shape,
    _zero_coordination_schedule,
)
from repro.datalog.analyzer import analyze_program
from repro.datalog.parser import parse_program
from repro.engine.database import Database
from repro.programs import get_program
from tests.conftest import reference_same_generation


def analyzed_stratum(source: str):
    analyzed = analyze_program(parse_program(source))
    return analyzed, analyzed.strata[-1]


class TestShapeMatching:
    def test_csda_is_tc_shaped_with_distinct_base(self):
        analyzed, stratum = analyzed_stratum(
            "null(x,y) :- nullEdge(x,y). null(x,y) :- null(x,w), arc(w,y)."
        )
        decision = _match_tc_shape(analyzed, stratum)
        assert decision is not None
        assert decision.base_relation == "nullEdge"
        assert decision.edge_relation == "arc"

    def test_swapped_rule_order_still_matches(self):
        analyzed, stratum = analyzed_stratum(
            "tc(x,y) :- tc(x,z), arc(z,y). tc(x,y) :- arc(x,y)."
        )
        assert _match_tc_shape(analyzed, stratum) is not None

    def test_reversed_head_not_tc(self):
        analyzed, stratum = analyzed_stratum(
            "r(x,y) :- e(x,y). r(y,x) :- r(x,z), e(z,y)."
        )
        assert _match_tc_shape(analyzed, stratum) is None

    def test_left_recursion_variant_not_matched(self):
        # arc on the left, tc on the right: valid Datalog, different shape.
        analyzed, stratum = analyzed_stratum(
            "r(x,y) :- e(x,y). r(x,y) :- e(x,z), r(z,y)."
        )
        assert _match_tc_shape(analyzed, stratum) is None

    def test_sg_requires_inequality(self):
        analyzed, stratum = analyzed_stratum(
            "sg(x,y) :- arc(p,x), arc(p,y). "
            "sg(x,y) :- arc(a,x), sg(a,b), arc(b,y)."
        )
        assert _match_sg_shape(analyzed, stratum) is None

    def test_sg_canonical_matches(self):
        analyzed, stratum = analyzed_stratum(get_program("SG").source)
        decision = _match_sg_shape(analyzed, stratum)
        assert decision is not None and decision.shape == "SG"

    def test_constants_break_shape(self):
        analyzed, stratum = analyzed_stratum(
            "r(x,y) :- e(x,y). r(x,y) :- r(x,z), e(z, 5), e(z, y)."
        )
        assert _match_tc_shape(analyzed, stratum) is None


class TestZeroCoordinationSchedule:
    def test_makespan_is_max_thread_cost(self):
        makespan, _ = _zero_coordination_schedule(np.array([1.0, 4.0, 2.0]))
        assert makespan == 4.0

    def test_utilization_reflects_skew(self):
        _, balanced = _zero_coordination_schedule(np.array([2.0, 2.0, 2.0]))
        _, skewed = _zero_coordination_schedule(np.array([6.0, 0.0, 0.0]))
        assert balanced == pytest.approx(1.0)
        assert skewed == pytest.approx(1.0 / 3.0)

    def test_empty_costs(self):
        makespan, utilization = _zero_coordination_schedule(np.zeros(0))
        assert makespan == 0.0 and utilization == 1.0


def _reference_chunk_boundaries(weights, limit):
    """The row-at-a-time greedy walk ``_chunk_boundaries`` replaced."""
    if weights.size == 0:
        return []
    cumulative = np.cumsum(weights)
    boundaries = []
    start = 0
    base = 0
    for index in range(weights.size):
        if cumulative[index] - base > limit and index > start:
            boundaries.append((start, index))
            start = index
            base = cumulative[index - 1]
    boundaries.append((start, weights.size))
    return boundaries


class TestChunkBoundaries:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_walk_on_random_weights(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 400))
        weights = rng.integers(0, 60, size).astype(np.int64)
        weights[rng.random(size) < 0.2] = 0  # childless endpoints
        weights[rng.random(size) < 0.05] = 500  # rows heavier than a batch
        for limit in (1, 7, 100, 499, 500, 10**9):
            assert _chunk_boundaries(weights, limit) == _reference_chunk_boundaries(
                weights, limit
            )

    def test_overweight_row_gets_its_own_batch(self):
        weights = np.array([3, 50, 50, 2, 2], dtype=np.int64)
        assert _chunk_boundaries(weights, 10) == [(0, 1), (1, 2), (2, 3), (3, 5)]

    def test_empty_delta_has_no_batches(self):
        assert _chunk_boundaries(np.empty(0, dtype=np.int64), 10) == []


class TestFirstProducerTable:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_np_unique_first_index(self, seed):
        """Lowest position per key == ``np.unique``'s first index once the
        rows are put in position order, whatever order they arrive in."""
        rng = np.random.default_rng(seed)
        n = 23
        table = _FirstProducerTable(n)
        for size in (1, 50, 4000):  # the table is reused between calls
            key = rng.integers(0, n * n, size).astype(np.int64)
            position = rng.permutation(size).astype(np.int64) // 3  # ties, non-monotone
            by_position = np.argsort(position, kind="stable")
            expected_keys, first = np.unique(key[by_position], return_index=True)
            keys, lowest = table.reduce(key, position)
            assert np.array_equal(keys, expected_keys)
            assert np.array_equal(lowest, position[by_position][first])

    def test_empty_input(self):
        keys, lowest = _FirstProducerTable(4).reduce(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert keys.size == 0 and lowest.size == 0


class TestSgChunking:
    def test_high_degree_graph_correct_through_chunks(self):
        """A star of 400 children forces the output-bounded chunker while
        staying brute-force checkable (one generation only)."""
        children = np.arange(1, 401, dtype=np.int64)
        arc = np.column_stack([np.zeros(400, dtype=np.int64), children])
        result = RecStep(RecStepConfig(enforce_budgets=False, pbme=PbmeMode.ON)).evaluate(
            get_program("SG"), {"arc": arc}, "star"
        )
        expected = {(int(a), int(b)) for a in children for b in children if a != b}
        assert result.tuples["sg"] == expected

    def test_hub_overflows_one_batch_at_the_real_limit(self):
        """50 siblings with 45 shared children each: the sibling pairs
        expand to 2450 * 45 * 45 > 4M rows, so the delta needs two batches."""
        hub_children = np.arange(1, 51, dtype=np.int64)
        pool = np.arange(51, 96, dtype=np.int64)
        arc = np.vstack(
            [
                np.column_stack([np.zeros(50, dtype=np.int64), hub_children]),
                np.column_stack([np.repeat(hub_children, 45), np.tile(pool, 50)]),
            ]
        )
        batches = []

        def spy(weights, limit):
            boundaries = _chunk_boundaries(weights, limit)
            batches.append(len(boundaries))
            return boundaries

        with mock.patch.object(bitmatrix, "_chunk_boundaries", spy):
            result = RecStep(
                RecStepConfig(enforce_budgets=False, pbme=PbmeMode.ON)
            ).evaluate(get_program("SG"), {"arc": arc}, "hub")
        assert max(batches) == 2
        assert result.tuples["sg"] == reference_same_generation(arc)

    def test_two_generation_cascade(self):
        # Root -> two children -> each has two children: the grandchildren
        # of different parents are same-generation via the recursive rule.
        arc = np.array(
            [[0, 1], [0, 2], [1, 3], [1, 4], [2, 5], [2, 6]], dtype=np.int64
        )
        result = RecStep(RecStepConfig(enforce_budgets=False, pbme=PbmeMode.ON)).evaluate(
            get_program("SG"), {"arc": arc}, "tree"
        )
        generation_two = {3, 4, 5, 6}
        expected = {(1, 2), (2, 1)} | {
            (a, b) for a in generation_two for b in generation_two if a != b
        }
        assert result.tuples["sg"] == expected


def _reference_run_tc(base_rows, edge_rows, n, threads):
    """Algorithm 2 one row and one level at a time, as ``_run_tc`` ran it
    before the rows went lockstep: (pair -> BFS depth, per-thread cost)."""
    edge_matrix = PackedBitMatrix(n)
    edge_matrix.set_pairs(edge_rows[:, 0], edge_rows[:, 1])
    result = PackedBitMatrix(n)
    result.set_pairs(base_rows[:, 0], base_rows[:, 1])

    def row_bits(vector):
        return np.flatnonzero(np.unpackbits(vector.view(np.uint8), bitorder="little")[:n])

    per_thread_cost = np.zeros(max(1, threads), dtype=np.float64)
    depths = {}
    for row in range(n):
        current = result.bits[row].copy()
        frontier = row_bits(current)
        cost = 0.0
        depth = 0
        while frontier.size:
            depths.update(((row, int(y)), depth) for y in frontier)
            depth += 1
            reached = np.bitwise_or.reduce(edge_matrix.bits[frontier], axis=0)
            cost += frontier.size * result.words * 64 * bitmatrix.COST_PER_BIT_VISIT
            added = reached & ~current
            current |= reached
            frontier = row_bits(added)
        per_thread_cost[row % max(1, threads)] += cost
    return depths, per_thread_cost


@st.composite
def tc_inputs(draw, n):
    """(base, arcs, threads): distinct base and edge relations. Bulk arcs
    enter only even vertices, so odd ones may have no in-arc, and can
    outnumber 8n, so a level gathers them in more than one chunk."""
    vertex = st.integers(0, n - 1)
    base = draw(st.lists(st.tuples(vertex, vertex), max_size=20))
    arcs = draw(st.lists(st.tuples(vertex, vertex), max_size=20))
    loops = draw(st.lists(vertex, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    bulk = draw(st.sampled_from([0, 3 * n, 20 * n]))
    sources = rng.integers(0, n, bulk)
    targets = rng.integers(0, (n + 1) // 2, bulk) * 2
    edge_rows = np.vstack(
        [
            np.array(arcs, dtype=np.int64).reshape(-1, 2),
            np.column_stack([loops, loops]).astype(np.int64).reshape(-1, 2),
            np.column_stack([sources, targets]).astype(np.int64).reshape(-1, 2),
        ]
    )
    base_rows = np.array(base, dtype=np.int64).reshape(-1, 2)
    return base_rows, edge_rows, draw(st.sampled_from([1, 7, 20, 200]))


class TestLockstepTc:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_per_row_bfs(self, n, data):
        base_rows, edge_rows, threads = data.draw(tc_inputs(n))
        database = Database(enforce_budgets=False)
        rows, runs, per_thread_cost = bitmatrix._run_tc(
            base_rows, edge_rows, n, threads, database
        )
        depths, expected_cost = _reference_run_tc(base_rows, edge_rows, n, threads)
        assert sorted(map(tuple, rows.tolist())) == sorted(depths)
        assert np.array_equal(per_thread_cost, expected_cost)
        assert len(runs) == max(depths.values(), default=-1) + 1
        assert runs == [
            sum(1 for depth in depths.values() if depth == level)
            for level in range(len(runs))
        ]
        assert {
            tuple(pair): level
            for level, run in enumerate(np.split(rows, np.cumsum(runs)[:-1]))
            for pair in run.tolist()
        } == depths
        words = (n + 63) // 64
        assert database.metrics.peak_transient_bytes == 2 * n * words * 8
        assert database.metrics.transient_bytes == 0


class TestPbmeComposesWithSqlStrata:
    def test_gtc_aggregates_over_pbme_materialized_tc(self):
        """A PBME stratum's result must be readable by later SQL strata."""
        from collections import Counter

        dense = np.array(
            [[i, j] for i in range(25) for j in range(25) if i != j],
            dtype=np.int64,
        )
        result = RecStep(
            RecStepConfig(enforce_budgets=False, pbme=PbmeMode.AUTO)
        ).evaluate(get_program("GTC"), {"arc": dense}, "t")
        assert result.detail["pbme_strata"] == 1.0
        from tests.conftest import reference_closure

        counts = Counter(a for a, _ in reference_closure(dense))
        assert result.tuples["gtc"] == set(counts.items())

    def test_ntc_negates_pbme_materialized_tc(self):
        dense = np.array(
            [[i, j] for i in range(20) for j in range(20) if (i + j) % 3], dtype=np.int64
        )
        result = RecStep(
            RecStepConfig(enforce_budgets=False, pbme=PbmeMode.AUTO)
        ).evaluate(get_program("NTC"), {"arc": dense}, "t")
        from tests.conftest import reference_closure

        closure = reference_closure(dense)
        nodes = {int(v) for edge in dense for v in edge}
        expected = {(a, b) for a in nodes for b in nodes if (a, b) not in closure}
        assert result.tuples["ntc"] == expected
