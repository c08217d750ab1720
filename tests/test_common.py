"""Tests for the common infrastructure: clocks, traces, records, RNG."""

import numpy as np
import pytest

from repro.common import records
from repro.common.records import (
    EvaluationResult,
    Relation,
    Trace,
    TraceSample,
    rows_to_set,
)
from repro.common.rng import derive_seed, make_rng
from repro.common.timing import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_reset(self):
        clock = SimClock()
        clock.advance(3.0)
        clock.reset()
        assert clock.now() == 0.0


class TestTrace:
    def test_statistics(self):
        trace = Trace("t")
        trace.record(0.0, 10.0)
        trace.record(1.0, 30.0)
        trace.record(2.0, 20.0)
        assert trace.peak() == 30.0
        assert trace.mean() == pytest.approx(20.0)
        assert trace.final() == 20.0
        assert trace.as_tuples() == [(0.0, 10.0), (1.0, 30.0), (2.0, 20.0)]

    def test_empty_trace(self):
        trace = Trace("t")
        assert trace.peak() == 0.0
        assert trace.mean() == 0.0
        assert trace.final() == 0.0

    def test_samples_are_frozen(self):
        sample = TraceSample(1.0, 2.0)
        with pytest.raises(Exception):
            sample.value = 3.0


class TestEvaluationResult:
    def test_ok_property(self):
        assert EvaluationResult("E", "P", "D").ok
        assert not EvaluationResult("E", "P", "D", status="oom").ok

    def test_sizes(self):
        result = EvaluationResult("E", "P", "D", tuples={"r": {(1,), (2,)}})
        assert result.sizes() == {"r": 2}


class TestRelation:
    ROWS = np.array([[3, 1], [1, 2], [2, 2]], dtype=np.int64)
    BOXED = {(1, 2), (2, 2), (3, 1)}

    def test_equals_a_set_in_both_operand_orders(self):
        relation = Relation(self.ROWS)
        assert relation == self.BOXED and self.BOXED == relation
        assert not (relation != self.BOXED) and not (self.BOXED != relation)
        assert relation != {(1, 2)} and {(1, 2)} != relation

    def test_relations_compare_their_sorted_rows(self):
        assert Relation(self.ROWS) == Relation(self.ROWS[::-1].copy())
        assert Relation(self.ROWS) != Relation(self.ROWS[:2])
        assert Relation(self.ROWS[:2]) != Relation(self.ROWS[1:])

    def test_len_membership_and_order(self):
        relation = Relation(self.ROWS)
        assert len(relation) == 3
        assert (2, 2) in relation and (2, 3) not in relation
        assert relation <= self.BOXED | {(9, 9)} and relation >= {(3, 1)}
        assert relation.isdisjoint({(9, 9)}) and not relation.isdisjoint({(1, 2)})

    def test_set_operators_build_builtin_sets(self):
        # ``_from_iterable`` makes the abc.Set operators return a set.
        union = Relation(self.ROWS) | {(9, 9)}
        assert type(union) is set and union == self.BOXED | {(9, 9)}
        assert type({(9, 9)} | Relation(self.ROWS)) is set
        assert Relation(self.ROWS) - {(1, 2)} == {(2, 2), (3, 1)}

    def test_empty_and_nullary(self):
        empty = Relation(np.empty((0, 2), dtype=np.int64))
        assert empty == set() and len(empty) == 0 and list(empty) == []
        assert empty == Relation(np.empty((0, 3), dtype=np.int64))
        nullary = Relation(np.empty((1, 0), dtype=np.int64))
        assert nullary == {()} and () in nullary and list(nullary) == [()]
        assert nullary != empty


class TestRowsToSet:
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_matches_per_element_conversion(self, width, monkeypatch):
        # A small chunk so the loop runs several times with a ragged tail.
        monkeypatch.setattr(records, "_READOUT_CHUNK_ROWS", 7)
        rows = np.random.default_rng(width).integers(-5, 5, size=(50, width))
        got = rows_to_set(rows)
        assert got == {tuple(int(value) for value in row) for row in rows}
        assert all(type(value) is int for row in got for value in row)

    def test_empty_and_nullary(self):
        assert rows_to_set(np.empty((0, 2), dtype=np.int64)) == set()
        assert rows_to_set(np.empty((0, 0), dtype=np.int64)) == set()
        assert rows_to_set(np.empty((3, 0), dtype=np.int64)) == {()}


class TestRng:
    def test_default_seed_deterministic(self):
        assert make_rng().integers(0, 1000) == make_rng().integers(0, 1000)

    def test_distinct_seeds_distinct_streams(self):
        a = make_rng(1).integers(0, 1 << 30, size=8)
        b = make_rng(2).integers(0, 1 << 30, size=8)
        assert not (a == b).all()

    def test_derive_seed_deterministic_for_strings(self):
        # Critical: string salts must not depend on PYTHONHASHSEED.
        assert derive_seed(7, "andersen", 3) == derive_seed(7, "andersen", 3)
        assert derive_seed(7, "andersen") != derive_seed(7, "cspa")

    def test_derive_seed_order_sensitive(self):
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)

    def test_derive_seed_nonnegative(self):
        for salt in range(50):
            assert derive_seed(123, salt) >= 0
