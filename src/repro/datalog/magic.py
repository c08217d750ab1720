"""Magic-set rewrite: evaluate only the demanded cone of a point query.

Given an analyzed program and a goal like ``?- tc(5, x).``, the rewrite
emits a new pure-Datalog program in which:

* each demanded (predicate, adornment) pair becomes an adorned copy
  ``<pred>_<adornment>`` of its rules, guarded by a magic atom;
* each adorned copy is fed by magic predicates ``m_<pred>_<adornment>``
  holding exactly the bindings demanded for it — seeded by a single
  ground fact carrying the goal's bound constants, and propagated by
  guard rules derived from each rule's left-to-right SIPS prefix;
* predicates the restriction must not touch (aggregation heads,
  predicates read under negation, and anything reached with an all-free
  pattern) keep their original names and original rules, so their
  relations are complete wherever they are read.

The rewritten program goes through the ordinary analyzer → compiler →
semi-naive pipeline unchanged; its answer set — the adorned goal
relation filtered by the goal pattern — is tuple-identical to filtering
a full materialization of the original program by the same pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import DatalogError
from repro.common.records import Relation
from repro.datalog import ast
from repro.datalog.analyzer import (
    AdornedRule,
    AnalyzedProgram,
    adorn_program,
    analyze_program,
    goal_adornment,
)


def adorned_name(predicate: str, adornment: str) -> str:
    """The adorned copy of ``predicate`` under ``adornment``."""
    return f"{predicate}_{adornment}"


def magic_name(predicate: str, adornment: str) -> str:
    """The magic (demand) predicate feeding an adorned copy."""
    return f"m_{predicate}_{adornment}"


@dataclass
class MagicRewrite:
    """The output of :func:`magic_rewrite`.

    ``program`` is the program to evaluate: the demand-rewritten one, or
    the original unrewritten program when ``rewritten`` is False (all-free
    goal, EDB goal, or a pinned goal predicate — ``reason`` says which).
    ``answer_predicate`` is the relation whose tuples, filtered through
    :func:`filter_answers`, form the goal's answer set.
    """

    goal: ast.Atom
    adornment: str
    program: ast.Program
    answer_predicate: str
    rewritten: bool
    reason: str | None = None
    magic_predicates: tuple[str, ...] = ()
    #: Original-program predicates inside the demanded cone (pricing).
    cone: tuple[str, ...] = ()
    #: Cone predicates pinned to unrestricted evaluation, with reasons.
    pinned: dict[str, str] | None = None

    def cone_fraction(self, analyzed: AnalyzedProgram) -> float:
        """Fraction of the program's IDB the rewrite actually demands.

        A crude but deterministic cone-size estimate for admission
        pricing: the share of IDB predicates demanded at all, shrunk by
        the bound positions of the goal (each bound column of the goal
        cuts the demanded seed set to a single binding). Clamped to
        (0, 1]; degenerate rewrites always price at 1.0.
        """
        if not self.rewritten:
            return 1.0
        idb_total = max(1, len(analyzed.idb))
        demanded = len([name for name in self.cone if name in analyzed.idb])
        bound = self.adornment.count("b")
        fraction = (demanded / idb_total) / (1 + bound)
        return max(0.01, min(1.0, fraction))


def magic_rewrite(
    program: AnalyzedProgram | ast.Program, goal: ast.Atom
) -> MagicRewrite:
    """Rewrite ``program`` so evaluation covers only what ``goal`` demands."""
    analyzed = (
        program
        if isinstance(program, AnalyzedProgram)
        else analyze_program(program)
    )
    analysis = adorn_program(analyzed, goal)
    if analysis.degenerate is not None:
        return MagicRewrite(
            goal=goal,
            adornment=analysis.adornment,
            program=analyzed.program,
            answer_predicate=goal.predicate,
            rewritten=False,
            reason=analysis.degenerate,
            cone=tuple(sorted(analyzed.idb)),
            pinned=dict(analysis.pinned),
        )

    taken = analyzed.program.predicates()
    magic_predicates: list[str] = []
    for predicate, adornment in sorted(analysis.adorned):
        for name in (
            adorned_name(predicate, adornment),
            magic_name(predicate, adornment),
        ):
            if name in taken:
                raise DatalogError(
                    f"magic rewrite name collision: {name!r} already exists "
                    f"in program {analyzed.program.name!r}"
                )
        magic_predicates.append(magic_name(predicate, adornment))

    rules: list[ast.Rule] = []
    seen: set[str] = set()

    def emit(rule: ast.Rule) -> None:
        text = str(rule)
        if text not in seen:
            seen.add(text)
            rules.append(rule)

    # Seed: the goal's bound constants, as one ground magic fact.
    seed_terms = tuple(
        term
        for term, flag in zip(goal.terms, analysis.adornment)
        if flag == "b"
    )
    emit(
        ast.Rule(
            head=ast.Atom(
                magic_name(goal.predicate, analysis.adornment), seed_terms
            )
        )
    )

    for key in sorted(analysis.adorned):
        for adorned_rule in analysis.adorned[key]:
            for rewritten in _rewrite_rule(adorned_rule, analysis.pinned):
                emit(rewritten)

    # Unrestricted closure: original rules for every predicate that must
    # stay complete (pinned, or reached with no bindings).
    for rule in analyzed.program.rules:
        if rule.head.predicate in analysis.full:
            emit(rule)

    rewritten_program = ast.Program(
        rules=rules,
        name=f"{analyzed.program.name}@{goal.predicate}^{analysis.adornment}",
    )
    cone = {goal.predicate} | analysis.full
    cone.update(predicate for predicate, _ in analysis.adorned)
    return MagicRewrite(
        goal=goal,
        adornment=analysis.adornment,
        program=rewritten_program,
        answer_predicate=adorned_name(goal.predicate, analysis.adornment),
        rewritten=True,
        magic_predicates=tuple(magic_predicates),
        cone=tuple(sorted(cone)),
        pinned=dict(analysis.pinned),
    )


def _rewrite_rule(
    adorned: AdornedRule, pinned: dict[str, str]
) -> list[ast.Rule]:
    """One adorned rule → its guarded copy plus magic guard rules."""
    rule = adorned.rule
    pattern = adorned.adornment
    magic_atom = ast.Atom(
        magic_name(rule.head.predicate, pattern),
        tuple(
            term for term, flag in zip(rule.head.terms, pattern) if flag == "b"
        ),
    )
    out: list[ast.Rule] = []
    new_body: list[ast.BodyLiteral] = [magic_atom]
    # SIPS prefix usable in magic-rule bodies: positive atoms (rewritten
    # names) and comparisons already fully bound at their position.
    prefix: list[ast.BodyLiteral] = [magic_atom]
    bound = {
        term.name
        for term, flag in zip(rule.head.terms, pattern)
        if flag == "b" and isinstance(term, ast.Variable)
    }
    for literal, literal_adornment in zip(rule.body, adorned.body_adornments):
        if isinstance(literal, ast.Atom) and not literal.negated:
            if literal_adornment is not None:
                demanded = tuple(
                    term
                    for term, flag in zip(literal.terms, literal_adornment)
                    if flag == "b"
                )
                guard = ast.Rule(
                    head=ast.Atom(
                        magic_name(literal.predicate, literal_adornment),
                        demanded,
                    ),
                    body=tuple(prefix),
                )
                # Skip tautologies (m_p_a :- m_p_a, the self-feeding guard
                # a left-linear first subgoal produces).
                if not (
                    len(guard.body) == 1 and guard.body[0] == guard.head
                ):
                    out.append(guard)
                rewritten_atom = ast.Atom(
                    adorned_name(literal.predicate, literal_adornment),
                    literal.terms,
                )
            else:
                rewritten_atom = literal
            new_body.append(rewritten_atom)
            prefix.append(rewritten_atom)
            bound |= literal.variables()
        elif isinstance(literal, ast.Atom):
            new_body.append(literal)
        else:
            new_body.append(literal)
            if literal.variables() <= bound:
                prefix.append(literal)
    out.append(
        ast.Rule(
            head=ast.Atom(
                adorned_name(rule.head.predicate, pattern), rule.head.terms
            ),
            body=tuple(new_body),
        )
    )
    return out


# --------------------------------------------------------------------------
# Answer extraction
# --------------------------------------------------------------------------


def filter_answers(answers: Relation, goal: ast.Atom) -> Relation:
    """The goal's answers: the rows of its relation matching the pattern.

    One column mask per constant and per repeated variable; wildcards
    and first-occurrence variables match anything. Applied to the
    adorned goal relation of a rewritten evaluation and to the goal
    relation of a full materialization alike — the two must be
    tuple-identical (the rewrite's correctness bar).
    """
    rows = answers.rows
    keep = np.ones(len(rows), dtype=bool)
    first: dict[str, int] = {}
    for column, term in enumerate(goal.terms):
        if isinstance(term, ast.Constant):
            keep &= rows[:, column] == term.value
        elif isinstance(term, ast.Variable):
            seen = first.setdefault(term.name, column)
            if seen != column:
                keep &= rows[:, column] == rows[:, seen]
    return Relation(rows[keep])


__all__ = [
    "MagicRewrite",
    "adorned_name",
    "filter_answers",
    "goal_adornment",
    "magic_name",
    "magic_rewrite",
]
