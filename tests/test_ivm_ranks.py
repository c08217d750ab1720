"""Rank-restricted over-deletion: append ranks and the DRed loop that reads them.

Every ``Database.append_rows`` call appends rows of a fresh, higher rank;
bulk writes rank 0. A maintained view keeps the invariant the over-deletion
loop relies on — a row of rank r > 0 has a one-step derivation from
same-stratum rows ranked below r — and a delete keeps a candidate only on
such a derivation, so circular support can never keep a tuple alive.

Covered here: the table's rank runs (append, bulk write, delete remap,
spill), the cycle trap, churn identity plus the invariant over TC on
cyclic graphs (also with ids too wide to pack), non-linear TC, SG, AA and CSPA, churn identity through
non-recursive strata (below, above and beside a closure, one holding a
fact; NTC's, beside a recomputed negation), the over-deletion bound on
a dense graph (relational and PBME-built), the rank runs PBME writes,
and views written in bulk and then maintained (PBME-built,
checkpoint-resumed with rank 0 rows, spilled).
"""

from __future__ import annotations

import operator
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CatalogError
from repro.core import PbmeMode, RecStep, RecStepConfig
from repro.datalog import ast as dast
from repro.datasets.gnp import gnp_graph
from repro.engine.database import Database
from repro.programs import get_program
from repro.programs.library import ProgramSpec

RELATIONAL = dict(pbme=PbmeMode.OFF)

#: Two recursive strata over the same EDB relation, plus a recursive rule
#: with a fact in it.
TWO_CLOSURES = ProgramSpec(
    name="TWO",
    title="Forward and backward closure",
    domain="graph",
    source="""
        fw(x, y) :- arc(x, y).
        fw(x, y) :- fw(x, z), arc(z, y).
        bw(x, y) :- arc(y, x).
        bw(x, y) :- bw(x, z), arc(y, z).
        bw(0, 0).
    """,
    edb_schemas={"arc": ("c0", "c1")},
    outputs=("fw", "bw"),
)

NONLINEAR_TC = ProgramSpec(
    name="NLTC",
    title="Transitive Closure, non-linear",
    domain="graph",
    source="""
        tc(x, y) :- arc(x, y).
        tc(x, y) :- tc(x, z), tc(z, y).
    """,
    edb_schemas={"arc": ("c0", "c1")},
    outputs=("tc",),
)

#: Non-recursive strata below (with a fact), above and beside a closure.
LAYERED = ProgramSpec(
    name="LAYERED",
    title="Closure between non-recursive strata",
    domain="graph",
    source="""
        hop(x, y) :- arc(x, y).
        hop(x, y) :- arc(y, x), x < y.
        hop(1, 1).
        reach(x, y) :- hop(x, y).
        reach(x, y) :- reach(x, z), hop(z, y).
        two(x, y) :- reach(x, z), reach(z, y).
        back(x, y) :- two(y, x), hop(x, y).
    """,
    edb_schemas={"arc": ("c0", "c1")},
    outputs=("reach", "two", "back"),
)


def _rows(view, name: str) -> list[tuple[int, ...]]:
    return [tuple(map(int, row)) for row in view.database.catalog.get_table(name).data()]


def _ranks(view, name: str) -> dict[tuple[int, ...], int]:
    table = view.database.catalog.get_table(name)
    return dict(zip(_rows(view, name), table.ranks().tolist()))


def _as_edb(state: dict[str, set]) -> dict[str, np.ndarray]:
    return {
        name: np.array(sorted(rows), dtype=np.int64).reshape(-1, 2)
        for name, rows in state.items()
    }


def _recompute(spec, edb) -> dict[str, set]:
    result = RecStep(RecStepConfig(**RELATIONAL)).evaluate(spec, edb, dataset="ref")
    assert result.status == "ok"
    return {
        name: {tuple(int(v) for v in row) for row in rows}
        for name, rows in result.tuples.items()
    }


def _cycle(n: int) -> np.ndarray:
    src = np.arange(n, dtype=np.int64)
    return np.stack([src, (src + 1) % n], axis=1)


# --------------------------------------------------------------------------
# The test-side invariant checker
# --------------------------------------------------------------------------

_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _scalar(expr, binding):
    if isinstance(expr, dast.Constant):
        return expr.value
    if isinstance(expr, dast.Variable):
        return binding[expr.name]
    return _ARITHMETIC[expr.op](_scalar(expr.left, binding), _scalar(expr.right, binding))


def _match(terms, row, binding) -> dict | None:
    binding = dict(binding)
    for term, value in zip(terms, row):
        if isinstance(term, dast.Constant) and term.value != value:
            return None
        if isinstance(term, dast.Variable):
            if binding.setdefault(term.name, value) != value:
                return None
    return binding


class _Relation:
    """Rows grouped by the values at a set of positions, built on demand."""

    def __init__(self, rows) -> None:
        self.rows = list(rows)
        self._groups: dict[tuple[int, ...], dict] = {}

    def matching(self, terms, binding):
        positions = tuple(
            p
            for p, term in enumerate(terms)
            if isinstance(term, dast.Constant)
            or (isinstance(term, dast.Variable) and term.name in binding)
        )
        if positions not in self._groups:
            groups = defaultdict(list)
            for row in self.rows:
                groups[tuple(row[p] for p in positions)].append(row)
            self._groups[positions] = groups
        key = tuple(
            terms[p].value if isinstance(terms[p], dast.Constant) else binding[terms[p].name]
            for p in positions
        )
        return self._groups[positions].get(key, ())


def assert_ranks_well_founded(view, spec) -> None:
    """Every rank-r > 0 row of a recursive stratum is a fact or has a
    one-step derivation from lower strata and same-stratum rows ranked
    below r."""
    analyzed = spec.parse()
    lower = {name: _Relation(_rows(view, name)) for name in analyzed.edb}
    for stratum in analyzed.strata:
        members = stratum.idb_predicates()
        if stratum.recursive:
            ranks = {name: _ranks(view, name) for name in members}
            relations = {name: _Relation(rows) for name, rows in ranks.items()}
            for name, ranked in ranks.items():
                rules = analyzed.rules_for(name, stratum)
                for row, rank in ranked.items():
                    if rank == 0:
                        continue
                    assert any(
                        _derives(rule, row, rank, ranks, relations, lower)
                        for rule in rules
                    ), f"{name}{row} (rank {rank}) has no lower-ranked derivation"
        for name in members:
            lower[name] = _Relation(_rows(view, name))


def _derives(rule, row, rank, ranks, relations, lower) -> bool:
    binding = _match(rule.head.terms, row, {})
    if binding is None:
        return False
    if rule.is_fact:
        return True

    def search(atoms, binding) -> bool:
        if not atoms:
            return all(
                _COMPARE[c.op](_scalar(c.left, binding), _scalar(c.right, binding))
                for c in rule.comparisons()
            )
        atom, rest = atoms[0], atoms[1:]
        member = atom.predicate in ranks
        relation = relations[atom.predicate] if member else lower[atom.predicate]
        for candidate in relation.matching(atom.terms, binding):
            if member and ranks[atom.predicate][candidate] >= rank:
                continue
            extended = _match(atom.terms, candidate, binding)
            if extended is not None and search(rest, extended):
                return True
        return False

    return search(rule.positive_atoms(), binding)


# --------------------------------------------------------------------------
# Rank runs on the table
# --------------------------------------------------------------------------


class TestAppendRanks:
    def test_appends_rank_bulk_writes_reset(self):
        db = Database(enforce_budgets=False)
        db.load_table("r", ("c0",), np.array([[1], [2]], dtype=np.int64))
        db.append_rows("r", np.array([[3], [4]], dtype=np.int64))
        db.append_rows("r", np.array([[5]], dtype=np.int64))
        table = db.catalog.get_table("r")
        first, second = table.ranks()[2], table.ranks()[4]
        assert table.ranks().tolist() == [0, 0, first, first, second]
        assert 0 < first < second
        db.replace_rows("r", np.array([[9], [8]], dtype=np.int64))
        assert table.ranks().tolist() == [0, 0]
        # Runs get fresh ranks, rising run by run, above every append.
        db.replace_rows("r", np.array([[1], [2], [3]], dtype=np.int64), runs=[1, 2])
        third, fourth = table.ranks()[0], table.ranks()[1]
        assert table.ranks().tolist() == [third, fourth, fourth]
        assert second < third < fourth
        with pytest.raises(CatalogError):
            db.replace_rows("r", np.array([[1], [2]], dtype=np.int64), runs=[1])

    def test_delete_keeps_survivor_ranks(self):
        db = Database(enforce_budgets=False)
        db.load_table("r", ("c0",), np.array([[1]], dtype=np.int64))
        for value in (2, 3, 4):
            db.append_rows("r", np.array([[value], [value + 10]], dtype=np.int64))
        table = db.catalog.get_table("r")
        before = dict(zip(table.data()[:, 0].tolist(), table.ranks().tolist()))
        db.delete_rows("r", np.array([[1], [3], [13], [14]], dtype=np.int64))
        after = dict(zip(table.data()[:, 0].tolist(), table.ranks().tolist()))
        assert after == {value: before[value] for value in (2, 12, 4)}
        # A later append still ranks above every survivor.
        db.append_rows("r", np.array([[7]], dtype=np.int64))
        assert table.ranks()[-1] > max(after.values())

    def test_spilled_view_keeps_ranks(self, tmp_path):
        view = RecStep(
            RecStepConfig(
                **RELATIONAL,
                memory_budget=90_000,
                degradation=True,
                spill_dir=str(tmp_path / "spill"),
            )
        ).materialize(get_program("TC"), {"arc": _cycle(80)}, dataset="spill-ranks")
        try:
            table = view.database.catalog.get_table("tc")
            assert table.spilled_rows > 0
            ranks = table.ranks()
            assert ranks.shape == (table.num_rows,) and ranks.min() > 0
            assert_ranks_well_founded(view, get_program("TC"))
            # Faulting the prefix back in does not move a row or its rank.
            assert table.ranks().tolist() == ranks.tolist()
        finally:
            view.release()


# --------------------------------------------------------------------------
# Circular support is the trap
# --------------------------------------------------------------------------


class TestCircularSupport:
    CYCLE = np.array([[0, 1], [1, 2], [2, 3], [3, 1]], dtype=np.int64)

    def _reached_from_zero(self, view) -> set[int]:
        return {y for x, y in view.fixpoint()["tc"] if x == 0}

    def test_cycle_fed_by_one_arc_dies_with_it(self):
        for config in (RELATIONAL, {}):  # semi-naive ranks, PBME's depth runs
            view = RecStep(RecStepConfig(**config)).materialize(
                get_program("TC"), {"arc": self.CYCLE}, dataset="cycle"
            )
            try:
                assert self._reached_from_zero(view) == {1, 2, 3}
                result = view.maintain(deletes={"arc": self.CYCLE[:1]})
                assert result.status == "ok", result.failure
                assert self._reached_from_zero(view) == set()
                assert view.fixpoint() == _recompute(
                    get_program("TC"), {"arc": self.CYCLE[1:]}
                )
            finally:
                view.release()

    def test_rederived_cycle_still_dies_with_its_last_feeder(self):
        view = RecStep(RecStepConfig(**RELATIONAL)).materialize(
            get_program("TC"), {"arc": self.CYCLE}, dataset="cycle"
        )
        try:
            # A second feeder: deleting the first re-ranks tc(0, ·) through
            # 0 -> 2, then deleting that must still empty it.
            assert view.maintain(inserts={"arc": np.array([[0, 2]])}).status == "ok"
            assert view.maintain(deletes={"arc": self.CYCLE[:1]}).status == "ok"
            assert self._reached_from_zero(view) == {1, 2, 3}
            assert_ranks_well_founded(view, get_program("TC"))
            assert view.maintain(deletes={"arc": np.array([[0, 2]])}).status == "ok"
            assert self._reached_from_zero(view) == set()
        finally:
            view.release()


# --------------------------------------------------------------------------
# Churn: identity with recompute and the rank invariant after every batch
# --------------------------------------------------------------------------


def _pairs(nodes: int, size: int):
    return st.lists(
        st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1)), max_size=size
    )


def _churn(relations: tuple[str, ...], nodes: int, size: int):
    """(base EDB, batches); a batch maps relation -> (inserts, delete picks)."""
    batch = st.fixed_dictionaries(
        {
            name: st.tuples(_pairs(nodes, 3), st.lists(st.integers(0, 999), max_size=3))
            for name in relations
        }
    )
    base = st.fixed_dictionaries({name: _pairs(nodes, size) for name in relations})
    return st.tuples(base, st.lists(batch, min_size=1, max_size=3))


def _apply_churn(view, spec, base, batches, before_batch=lambda: None) -> None:
    """Apply each batch, then check identity with recompute and the ranks."""
    state = {name: set(rows) for name, rows in base.items()}
    assert_ranks_well_founded(view, spec)
    for batch in batches:
        inserts, deletes = {}, {}
        for name, (ins, picks) in batch.items():
            live = sorted(state[name])
            dels = {live[pick % len(live)] for pick in picks} if live else set()
            state[name] = (state[name] - dels) | set(ins)
            inserts[name] = np.array(ins, dtype=np.int64).reshape(-1, 2)
            deletes[name] = np.array(sorted(dels), dtype=np.int64).reshape(-1, 2)
        before_batch()
        result = view.maintain(inserts, deletes)
        assert result.status == "ok", result.failure
        assert view.fixpoint() == _recompute(spec, _as_edb(state))
        assert_ranks_well_founded(view, spec)


def _run_churn(spec, base, batches, **config) -> None:
    view = RecStep(RecStepConfig(**config)).materialize(
        spec, _as_edb({name: set(rows) for name, rows in base.items()}), dataset="churn"
    )
    assert view.status == "ready", view.result.failure
    try:
        _apply_churn(view, spec, base, batches)
    finally:
        view.release()


def _wide(case):
    """The churn case with every vertex id ``v`` as ``v << 40``: rows too
    wide to pack, so the rank index keys them by their records."""
    base, batches = case

    def shift(rows):
        return [(a << 40, b << 40) for a, b in rows]

    return (
        {name: shift(rows) for name, rows in base.items()},
        [{name: (shift(ins), picks) for name, (ins, picks) in b.items()} for b in batches],
    )


class TestChurnKeepsRanksWellFounded:
    @given(_churn(("arc",), nodes=10, size=30), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_tc_on_cyclic_graphs(self, case, wide):
        _run_churn(get_program("TC"), *(_wide(case) if wide else case), **RELATIONAL)

    @given(_churn(("arc",), nodes=8, size=16))
    @settings(max_examples=25, deadline=None)
    def test_nonlinear_tc(self, case):
        _run_churn(NONLINEAR_TC, *case, **RELATIONAL)

    @given(_churn(("arc",), nodes=8, size=16))
    @settings(max_examples=15, deadline=None)
    def test_strata_sharing_a_relation(self, case):
        _run_churn(TWO_CLOSURES, *case, **RELATIONAL)

    @given(_churn(("arc",), nodes=10, size=20))
    @settings(max_examples=25, deadline=None)
    def test_sg(self, case):
        _run_churn(get_program("SG"), *case, **RELATIONAL)

    @given(_churn(("addressOf", "assign", "load", "store"), nodes=8, size=8))
    @settings(max_examples=20, deadline=None)
    def test_aa(self, case):
        _run_churn(get_program("AA"), *case, **RELATIONAL)

    @given(_churn(("assign", "dereference"), nodes=7, size=8))
    @settings(max_examples=20, deadline=None)
    def test_cspa_mutual_recursion(self, case):
        _run_churn(get_program("CSPA"), *case, **RELATIONAL)

    @given(_churn(("arc",), nodes=8, size=16))
    @settings(max_examples=60, deadline=None)
    def test_non_recursive_strata_around_a_closure(self, case):
        _run_churn(LAYERED, *case, **RELATIONAL)

    @given(_churn(("arc",), nodes=8, size=16))
    @settings(max_examples=30, deadline=None)
    def test_ntc(self, case):
        _run_churn(get_program("NTC"), *case, **RELATIONAL)


class TestOverDeletionIsLocal:
    def test_one_arc_of_a_dense_graph(self):
        arcs = gnp_graph(150, 0.05, seed=3)
        view = RecStep(
            RecStepConfig(**RELATIONAL, profile=True, fault_seed=None)
        ).materialize(get_program("TC"), {"arc": arcs}, dataset="dense")
        try:
            size = len(view.fixpoint()["tc"])
            counters = view.database.profiler.counters
            for arc in arcs[:3]:
                before = counters.get("ivm.overdeleted_rows")
                result = view.maintain(deletes={"arc": arc.reshape(1, 2)})
                assert result.status == "ok", result.failure
                assert counters.get("ivm.overdeleted_rows") - before <= size // 100
        finally:
            view.release()

    def test_first_delete_on_a_pbme_built_view(self):
        """PBME writes one rank run per BFS depth, so a delete is rank
        restricted: it used to over-delete the whole closure."""
        arcs = gnp_graph(500, 0.01, seed=7)
        view = RecStep(RecStepConfig(profile=True, fault_seed=None)).materialize(
            get_program("TC"), {"arc": arcs}, dataset="G500"
        )
        try:
            assert view.result.detail["pbme_strata"] == 1
            size = len(view.fixpoint()["tc"])
            result = view.maintain(deletes={"arc": arcs[:1]})
            assert result.status == "ok", result.failure
            overdeleted = view.database.profiler.counters.get("ivm.overdeleted_rows")
            assert overdeleted <= size // 100
            expected = RecStep(RecStepConfig()).evaluate(
                get_program("TC"), {"arc": arcs[1:]}, dataset="G500"
            )
            assert view.fixpoint()["tc"] == expected.tuples["tc"]
        finally:
            view.release()


class TestPbmeWritesRankRuns:
    @pytest.mark.parametrize("program", ["TC", "SG"])
    def test_ranks_are_well_founded_after_materialize(self, program):
        spec = get_program(program)
        view = RecStep(RecStepConfig(pbme=PbmeMode.ON)).materialize(
            spec, {"arc": gnp_graph(40, 0.06, seed=11)}, dataset="pbme-ranks"
        )
        try:
            assert view.result.detail["pbme_strata"] == 1
            ranks = set(_ranks(view, program.lower()).values())
            assert 0 not in ranks and len(ranks) > 2
            assert_ranks_well_founded(view, spec)
        finally:
            view.release()


# --------------------------------------------------------------------------
# Views written in bulk, then maintained
# --------------------------------------------------------------------------


class TestMixedRankViews:
    GRAPH = {"arc": [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (6, 0)]}
    BATCHES = [
        {"arc": ([(5, 6)], [])},
        {"arc": ([(0, 6)], [0])},
        {"arc": ([(1, 7), (7, 2)], [1, 4])},
        {"arc": ([], [0, 2, 3])},
    ]

    def test_pbme_materialized_view(self):
        spec = get_program("TC")
        view = RecStep(RecStepConfig()).materialize(
            spec, _as_edb(self.GRAPH), dataset="pbme"
        )
        try:
            assert view.result.detail["pbme_strata"] == 1
            seen = []
            _apply_churn(
                view, spec, self.GRAPH, self.BATCHES,
                before_batch=lambda: seen.append(set(_ranks(view, "tc").values())),
            )  # fmt: skip
            # One rank per BFS depth, none 0; the insert adds ranks beside them.
            assert 0 not in seen[0] and seen[0] < seen[1]
        finally:
            view.release()

    def test_checkpoint_resumed_view(self, tmp_path):
        spec = get_program("TC")
        edb = _as_edb(self.GRAPH)
        full = RecStep(RecStepConfig(**RELATIONAL)).evaluate(spec, edb, dataset="ckpt")
        partial = RecStep(
            RecStepConfig(
                **RELATIONAL,
                checkpoint_dir=str(tmp_path),
                checkpoint_every=1,
                deadline=full.sim_seconds / 2,
            )
        ).evaluate(spec, edb, dataset="ckpt")
        assert partial.status == "deadline"
        view = RecStep(
            RecStepConfig(**RELATIONAL, resume_from=str(tmp_path))
        ).materialize(spec, edb, dataset="ckpt")
        try:
            assert view.status == "ready", view.result.failure
            ranks = set(_ranks(view, "tc").values())
            assert 0 in ranks and len(ranks) > 1
            _apply_churn(view, spec, self.GRAPH, self.BATCHES)
        finally:
            view.release()

    def test_spilled_view(self, tmp_path):
        """A PBME-built view whose ``tc`` prefix is on disk at every batch."""
        spec = get_program("TC")
        view = RecStep(RecStepConfig(spill_dir=str(tmp_path / "spill"))).materialize(
            spec, _as_edb(self.GRAPH), dataset="spill-mixed"
        )
        database = view.database
        table = database.catalog.get_table("tc")
        seen = []

        def spill_half():
            ranks = table.ranks()
            seen.append(set(ranks.tolist()))
            table.bind_spill(database.spill)
            assert database.spill.spill_table(table, max_rows=table.num_rows // 2) > 0
            assert table.spilled_rows and table.ranks().tolist() == ranks.tolist()

        try:
            _apply_churn(view, spec, self.GRAPH, self.BATCHES, before_batch=spill_half)
            assert 0 not in seen[0] and seen[0] < seen[1]
        finally:
            view.release()
