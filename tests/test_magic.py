"""Magic sets / demand-driven point queries.

The correctness bar, everywhere: the answers of a magic-rewritten
evaluation are **tuple-identical** to post-filtering a full
materialization of the original program by the same goal pattern — under
every execution variant (join cache and partitioned execution on/off,
chaos fault injection armed), for every edge-case goal shape (repeated
variables, wildcards, all-free), and with negation or aggregation in the
demanded cone (where restriction must be refused, never silently wrong).
"""

import numpy as np
import pytest

from repro.common.errors import DatalogError
from repro.common.records import Relation
from repro.core import PbmeMode, RecStep, RecStepConfig
from repro.datalog import ast
from repro.datalog.analyzer import (
    adorn_program,
    analyze_program,
    goal_adornment,
)
from repro.datalog.magic import (
    adorned_name,
    filter_answers,
    magic_name,
    magic_rewrite,
)
from repro.datalog.parser import parse_goal, parse_program
from repro.programs import get_program

RELATIONAL = dict(pbme=PbmeMode.OFF)


def _edges(seed: int, nodes: int, rows: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    out = np.unique(rng.integers(0, nodes, size=(rows, 2)), axis=0)
    return out[out[:, 0] != out[:, 1]].astype(np.int64)


def _answer(program, goal_text: str, edb, **config):
    engine = RecStep(RecStepConfig(**{**RELATIONAL, **config}))
    result = engine.answer(
        program, goal_text, {name: rows.copy() for name, rows in edb.items()}
    )
    assert result.status == "ok", result.failure
    return result


def _full(program, edb, **config):
    engine = RecStep(RecStepConfig(**{**RELATIONAL, **config}))
    result = engine.evaluate(
        program, {name: rows.copy() for name, rows in edb.items()}
    )
    assert result.status == "ok", result.failure
    return result


def _assert_identity(program, goal_text: str, edb, **config) -> dict:
    """The bar itself; returns the answer result's detail for extra checks."""
    goal = parse_goal(goal_text)
    answered = _answer(program, goal_text, edb, **config)
    full = _full(program, edb, **config)
    expected = filter_answers(full.tuples[goal.predicate], goal)
    assert answered.tuples[goal.predicate] == expected
    return answered.detail


# ---------------------------------------------------------------------------
# Goal parsing
# ---------------------------------------------------------------------------


class TestParseGoal:
    def test_bare_and_query_forms(self):
        for text in ("tc(5, x)", "?- tc(5, x).", "tc(5, x).", "?- tc(5, x)"):
            goal = parse_goal(text)
            assert goal.predicate == "tc"
            assert goal.terms[0] == ast.Constant(5)
            assert isinstance(goal.terms[1], ast.Variable)

    def test_wildcard_goal(self):
        goal = parse_goal("tc(5, _)")
        assert isinstance(goal.terms[1], ast.Wildcard)

    def test_negated_goal_rejected(self):
        with pytest.raises(DatalogError):
            parse_goal("!tc(5, x)")
        with pytest.raises(DatalogError):
            parse_goal("not tc(5, x)")

    def test_trailing_junk_rejected(self):
        with pytest.raises(DatalogError):
            parse_goal("tc(5, x). tc(6, y)")

    def test_program_level_queries(self):
        program = parse_program(
            "tc(x, y) :- arc(x, y).\n"
            "tc(x, y) :- tc(x, z), arc(z, y).\n"
            "?- tc(5, x).\n"
            "?- tc(_, 3).\n"
        )
        assert [q.predicate for q in program.queries] == ["tc", "tc"]
        # Round-trips through the pretty-printer.
        assert "?- tc(5, x)." in str(program)
        analyze_program(program)  # goals validated, no error

    def test_unknown_goal_predicate_rejected_by_analyzer(self):
        program = parse_program("tc(x, y) :- arc(x, y).\n?- nosuch(5).\n")
        with pytest.raises(DatalogError, match="nosuch"):
            analyze_program(program)

    def test_goal_arity_mismatch_rejected(self):
        program = parse_program("tc(x, y) :- arc(x, y).\n?- tc(5).\n")
        with pytest.raises(DatalogError, match="arity"):
            analyze_program(program)


# ---------------------------------------------------------------------------
# Adornment analysis
# ---------------------------------------------------------------------------


TC_SOURCE = """
tc(x, y) :- arc(x, y).
tc(x, y) :- tc(x, z), arc(z, y).
"""


class TestAdornment:
    def test_goal_adornment(self):
        assert goal_adornment(parse_goal("p(5, x, _, 3)")) == "bffb"

    def test_tc_bound_source(self):
        analyzed = analyze_program(parse_program(TC_SOURCE))
        analysis = adorn_program(analyzed, parse_goal("tc(5, x)"))
        assert analysis.degenerate is None
        assert set(analysis.adorned) == {("tc", "bf")}
        assert analysis.full == set()

    def test_all_free_goal_degenerates(self):
        analyzed = analyze_program(parse_program(TC_SOURCE))
        analysis = adorn_program(analyzed, parse_goal("tc(x, y)"))
        assert analysis.degenerate == "all-free"

    def test_edb_goal_degenerates(self):
        analyzed = analyze_program(parse_program(TC_SOURCE))
        analysis = adorn_program(analyzed, parse_goal("arc(5, x)"))
        assert analysis.degenerate == "edb-goal"

    def test_repeated_free_variables_are_free(self):
        # tc(x, x) binds nothing: the repetition is a filter, not a binding.
        analyzed = analyze_program(parse_program(TC_SOURCE))
        analysis = adorn_program(analyzed, parse_goal("tc(x, x)"))
        assert analysis.degenerate == "all-free"

    def test_sips_propagates_left_to_right(self):
        # After arc(a, x) both a and x are bound, so sg is demanded 'bf'
        # through its own recursion.
        analyzed = analyze_program(parse_program(get_program("SG").source))
        analysis = adorn_program(analyzed, parse_goal("sg(5, y)"))
        assert analysis.degenerate is None
        assert ("sg", "bf") in analysis.adorned

    def test_negated_cone_predicate_pinned(self):
        analyzed = analyze_program(parse_program(get_program("NTC").source))
        analysis = adorn_program(analyzed, parse_goal("ntc(5, y)"))
        assert analysis.degenerate is None
        assert analysis.pinned.get("tc") == "negation"
        assert "tc" in analysis.full

    def test_aggregation_head_pinned(self):
        analyzed = analyze_program(
            parse_program("d(x, MIN(y)) :- arc(x, y).")
        )
        analysis = adorn_program(analyzed, parse_goal("d(5, m)"))
        assert analysis.degenerate == "pinned-aggregation"


# ---------------------------------------------------------------------------
# The rewrite itself
# ---------------------------------------------------------------------------


class TestRewrite:
    def test_tc_shape(self):
        rewrite = magic_rewrite(
            analyze_program(parse_program(TC_SOURCE)), parse_goal("tc(5, x)")
        )
        assert rewrite.rewritten
        assert rewrite.answer_predicate == adorned_name("tc", "bf")
        assert rewrite.magic_predicates == (magic_name("tc", "bf"),)
        text = str(rewrite.program)
        assert "m_tc_bf(5)." in text
        assert "tc_bf(x, y) :- m_tc_bf(x), arc(x, y)." in text
        assert "tc_bf(x, y) :- m_tc_bf(x), tc_bf(x, z), arc(z, y)." in text
        # The left-linear recursion's self-feeding guard is a tautology
        # and must not be emitted.
        assert "m_tc_bf(x) :- m_tc_bf(x)." not in text

    def test_degenerate_returns_original_program(self):
        analyzed = analyze_program(parse_program(TC_SOURCE))
        rewrite = magic_rewrite(analyzed, parse_goal("tc(x, y)"))
        assert not rewrite.rewritten
        assert rewrite.program is analyzed.program
        assert rewrite.answer_predicate == "tc"
        assert rewrite.cone_fraction(analyzed) == 1.0

    def test_cone_fraction_prices_bound_goals_cheaper(self):
        analyzed = analyze_program(parse_program(TC_SOURCE))
        bound = magic_rewrite(analyzed, parse_goal("tc(5, x)"))
        assert 0.0 < bound.cone_fraction(analyzed) < 1.0

    def test_name_collision_rejected(self):
        source = TC_SOURCE + "m_tc_bf(x) :- arc(x, x).\n"
        analyzed = analyze_program(parse_program(source))
        with pytest.raises(DatalogError, match="collision"):
            magic_rewrite(analyzed, parse_goal("tc(5, x)"))

    def test_pinned_predicates_keep_original_rules(self):
        analyzed = analyze_program(parse_program(get_program("NTC").source))
        rewrite = magic_rewrite(analyzed, parse_goal("ntc(5, y)"))
        assert rewrite.rewritten
        text = str(rewrite.program)
        # tc is read under negation: original name, original rules, and
        # no magic predicate may restrict it.
        assert "tc(x, y) :- arc(x, y)." in text
        assert magic_name("tc", "bf") not in text
        assert rewrite.pinned == {"tc": "negation"}


class TestFilterAnswers:
    def test_constants_and_repeats(self):
        rows = Relation(np.array([(5, 2, 2), (5, 2, 3), (4, 2, 2)]))
        answers = filter_answers(rows, parse_goal("p(5, x, x)"))
        assert isinstance(answers, Relation)
        assert answers == {(5, 2, 2)}

    def test_wildcards_are_independent(self):
        rows = Relation(np.array([(1, 2), (2, 2)]))
        assert filter_answers(rows, parse_goal("p(_, _)")) == {(1, 2), (2, 2)}


# ---------------------------------------------------------------------------
# End-to-end identity: rewritten answers == post-filtered full fixpoint
# ---------------------------------------------------------------------------


def _aa_edb(seed: int, nodes: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)

    def rel(rows):
        out = np.unique(rng.integers(0, nodes, size=(rows, 2)), axis=0)
        return out.astype(np.int64)

    return {
        "addressOf": rel(18),
        "assign": rel(14),
        "load": rel(10),
        "store": rel(10),
    }


def _cspa_edb(seed: int, nodes: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)

    def rel(rows):
        out = np.unique(rng.integers(0, nodes, size=(rows, 2)), axis=0)
        return out.astype(np.int64)

    return {"assign": rel(20), "dereference": rel(14)}


class TestIdentityMatrix:
    def test_tc_bound_source(self):
        edb = {"arc": _edges(7, 40, 140)}
        constant = int(edb["arc"][0, 0])
        detail = _assert_identity(get_program("TC"), f"tc({constant}, x)", edb)
        assert detail["magic_rewritten"] == 1.0

    def test_tc_bound_target(self):
        # 'fb' adornment: the recursion tc(x,y) :- tc(x,z), arc(z,y) is
        # left-linear, so binding y demands an all-free tc and the cone
        # closes over the full relation — still answer-identical.
        edb = {"arc": _edges(7, 40, 140)}
        constant = int(edb["arc"][0, 1])
        _assert_identity(get_program("TC"), f"tc(x, {constant})", edb)

    def test_tc_fully_bound(self):
        edb = {"arc": _edges(9, 30, 90)}
        a, b = int(edb["arc"][0, 0]), int(edb["arc"][0, 1])
        answered = _answer(get_program("TC"), f"tc({a}, {b})", edb)
        assert answered.tuples["tc"] == {(a, b)}

    def test_sg_bound_left(self):
        edb = {"arc": _edges(11, 24, 80)}
        full = _full(get_program("SG"), edb)
        if not full.tuples["sg"]:
            pytest.skip("seeded graph produced an empty sg relation")
        constant = sorted(full.tuples["sg"])[0][0]
        _assert_identity(get_program("SG"), f"sg({constant}, y)", edb)

    def test_andersen_bound_variable(self):
        edb = _aa_edb(13, 16)
        constant = int(edb["addressOf"][0, 0])
        _assert_identity(get_program("AA"), f"pointsTo({constant}, x)", edb)

    def test_cspa_bound_value_flow(self):
        edb = _cspa_edb(17, 14)
        constant = int(edb["assign"][0, 0])
        _assert_identity(get_program("CSPA"), f"valueFlow({constant}, y)", edb)

    def test_ntc_negation_in_cone(self):
        # tc is read under NOT EXISTS inside the demanded cone: it must
        # be evaluated complete (pinned), and the answers still match.
        edb = {"arc": _edges(19, 12, 30)}
        constant = int(edb["arc"][0, 0])
        _assert_identity(get_program("NTC"), f"ntc({constant}, y)", edb)

    @pytest.mark.parametrize(
        "variant",
        [
            dict(join_cache=False),
            dict(partitioned_exec=False),
            dict(join_cache=False, partitioned_exec=False),
            dict(fault_seed=20260808),  # chaos: injected transient faults
        ],
        ids=["no-join-cache", "no-partitioned", "neither", "chaos"],
    )
    def test_tc_identity_under_execution_variants(self, variant):
        edb = {"arc": _edges(23, 36, 120)}
        constant = int(edb["arc"][0, 0])
        _assert_identity(get_program("TC"), f"tc({constant}, x)", edb, **variant)


class TestEdgeCaseGoals:
    def test_all_free_goal_degenerates_to_full(self):
        edb = {"arc": _edges(3, 20, 50)}
        answered = _answer(get_program("TC"), "tc(x, y)", edb)
        full = _full(get_program("TC"), edb)
        assert answered.tuples["tc"] == set(map(tuple, full.tuples["tc"]))
        assert answered.detail["magic_rewritten"] == 0.0

    def test_repeated_free_variable_filters_diagonal(self):
        edb = {"arc": _edges(3, 20, 60)}
        answered = _answer(get_program("TC"), "tc(x, x)", edb)
        full = _full(get_program("TC"), edb)
        assert answered.tuples["tc"] == {
            (a, b) for a, b in full.tuples["tc"] if a == b
        }

    def test_repeated_variable_with_bound_position(self):
        source = "t3(x, y, z) :- arc(x, y), arc(y, z).\n"
        edb = {"arc": _edges(5, 15, 60)}
        constant = int(edb["arc"][0, 0])
        _assert_identity(source, f"t3({constant}, w, w)", edb)

    def test_wildcard_equals_fresh_variable(self):
        edb = {"arc": _edges(7, 25, 80)}
        constant = int(edb["arc"][0, 0])
        by_wildcard = _answer(get_program("TC"), f"tc({constant}, _)", edb)
        by_variable = _answer(get_program("TC"), f"tc({constant}, x)", edb)
        assert by_wildcard.tuples["tc"] == by_variable.tuples["tc"]

    def test_edb_goal_answers_without_evaluation(self):
        edb = {"arc": np.array([[1, 2], [1, 3], [2, 4]], dtype=np.int64)}
        answered = _answer(get_program("TC"), "arc(1, x)", edb)
        assert answered.tuples["arc"] == {(1, 2), (1, 3)}
        assert answered.iterations == 0

    def test_constants_already_in_rule_bodies(self):
        source = (
            "p(x, y) :- arc(x, y), arc(y, 3).\n"
            "p(x, y) :- p(x, z), arc(z, y).\n"
        )
        edb = {"arc": _edges(29, 8, 40)}
        constant = int(edb["arc"][0, 0])
        _assert_identity(source, f"p({constant}, y)", edb)

    def test_goal_on_aggregation_head_refuses_restriction(self):
        source = "d(x, MIN(y)) :- arc(x, y).\n"
        edb = {"arc": _edges(31, 10, 30)}
        constant = int(edb["arc"][0, 0])
        detail = _assert_identity(source, f"d({constant}, m)", edb)
        # Never silently wrong: the rewrite refused (degenerate), the
        # full program ran, the filter did the rest.
        assert detail["magic_rewritten"] == 0.0

    def test_aggregation_below_demanded_cone_pinned(self):
        source = (
            "d(x, MIN(y)) :- arc(x, y).\n"
            "q(x, y) :- arc(x, y).\n"
            "q(x, y) :- q(x, z), d(z, y).\n"
        )
        edb = {"arc": _edges(37, 10, 30)}
        constant = int(edb["arc"][0, 0])
        analyzed = analyze_program(parse_program(source))
        rewrite = magic_rewrite(analyzed, parse_goal(f"q({constant}, y)"))
        assert rewrite.rewritten
        assert rewrite.pinned == {"d": "aggregation"}
        _assert_identity(source, f"q({constant}, y)", edb)

    def test_magic_counters_increment(self):
        edb = {"arc": _edges(3, 20, 50)}
        constant = int(edb["arc"][0, 0])
        engine = RecStep(RecStepConfig(profile=True, **RELATIONAL))
        engine.answer(get_program("TC"), f"tc({constant}, x)", dict(edb))
        counters = engine.last_database.profiler.counters
        assert counters.get("magic.rewrites") == 1
        engine.answer(get_program("TC"), "tc(x, y)", dict(edb))
        assert engine.last_database.profiler.counters.get("magic.degenerate") == 1
