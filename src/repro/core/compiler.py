"""The query generator: Datalog rules to mini-SQL (Section 4, Figure 1).

For every IDB relation the generator produces:

* an *init* query — the union of all its rules over full relations,
  evaluated once per stratum (iteration 0);
* per recursive rule and per same-stratum body atom, one *delta
  subquery* in which exactly that atom reads the relation's ∆-table —
  the semi-naive expansion of Section 3.2.

Under UIE the delta subqueries are emitted as one ``INSERT INTO ...
UNION ALL`` statement; with UIE off each subquery becomes its own
INSERT into a temporary table plus a final merge query, reproducing the
"Individual IDB Evaluation" alternative of Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import DatalogError
from repro.datalog import ast as dast
from repro.datalog.analyzer import AnalyzedProgram, Stratum
from repro.sql import ast as sast


def full_table(predicate: str) -> str:
    return predicate


def delta_table(predicate: str) -> str:
    return f"{predicate}_delta"


def mdelta_table(predicate: str) -> str:
    return f"{predicate}_mdelta"


def tmp_table(predicate: str, index: int) -> str:
    return f"{predicate}_tmp_mdelta{index}"


# IVM working tables (core/ivm.py). The ``_ivm_`` infix keeps them out of
# the way of the semi-naive ``_delta``/``_mdelta`` namespace.


def ivm_ins_table(predicate: str) -> str:
    """Effective insertions of one maintenance batch."""
    return f"{predicate}_ivm_ins"


def ivm_del_table(predicate: str) -> str:
    """Effective deletions of one maintenance batch."""
    return f"{predicate}_ivm_del"


def ivm_old_table(predicate: str) -> str:
    """Pre-batch snapshot of a mutated relation (old-state reads)."""
    return f"{predicate}_ivm_old"


def ivm_cand_table(predicate: str) -> str:
    """Tuples of a DRed stratum whose support is being checked."""
    return f"{predicate}_ivm_cand"


def ivm_kept_table(predicate: str) -> str:
    """Rows of a relation present both before and after a batch."""
    return f"{predicate}_ivm_kept"


def ivm_odelta_table(predicate: str) -> str:
    """The Δ of the over-deletion fixpoint (DRed's deletion frontier)."""
    return f"{predicate}_ivm_odelta"


def columns_for(arity: int) -> tuple[str, ...]:
    return tuple(f"c{i}" for i in range(arity))


@dataclass
class CompiledPredicate:
    """All queries evaluating one IDB relation."""

    predicate: str
    arity: int
    aggregate: str | None                       # MIN/MAX/... or None
    init_subqueries: list[sast.Select] = field(default_factory=list)
    delta_subqueries: list[sast.Select] = field(default_factory=list)
    facts: list[tuple[int, ...]] = field(default_factory=list)

    def init_query(self) -> sast.Query | None:
        return _as_query(self.init_subqueries)

    def delta_query(self) -> sast.Query | None:
        return _as_query(self.delta_subqueries)


@dataclass
class CompiledStratum:
    stratum: Stratum
    predicates: list[CompiledPredicate]


def _as_query(selects: list[sast.Select]) -> sast.Query | None:
    if not selects:
        return None
    if len(selects) == 1:
        return selects[0]
    return sast.UnionAll(tuple(selects))


class QueryGenerator:
    """Compiles an analyzed program stratum by stratum."""

    def __init__(self, analyzed: AnalyzedProgram) -> None:
        self._analyzed = analyzed

    def compile(self) -> list[CompiledStratum]:
        compiled: list[CompiledStratum] = []
        for stratum in self._analyzed.strata:
            predicates: list[CompiledPredicate] = []
            for predicate in sorted(stratum.idb_predicates()):
                predicates.append(self._compile_predicate(predicate, stratum))
            compiled.append(CompiledStratum(stratum=stratum, predicates=predicates))
        return compiled

    # -- per-predicate compilation ----------------------------------------------

    def _compile_predicate(self, predicate: str, stratum: Stratum) -> CompiledPredicate:
        arity = self._analyzed.arities[predicate]
        aggregate = self._analyzed.aggregate_func(predicate)
        compiled = CompiledPredicate(predicate=predicate, arity=arity, aggregate=aggregate)
        for rule in self._analyzed.rules_for(predicate, stratum):
            if rule.is_fact:
                compiled.facts.append(_fact_row(rule))
                continue
            compiled.init_subqueries.append(self._compile_rule(rule, delta_atom=None))
            if stratum.recursive:
                recursive_positions = [
                    index
                    for index, atom in enumerate(rule.positive_atoms())
                    if atom.predicate in stratum.predicates
                ]
                for position in recursive_positions:
                    compiled.delta_subqueries.append(
                        self._compile_rule(rule, delta_atom=position)
                    )
        return compiled

    # -- per-rule compilation --------------------------------------------------------

    def compile_rule_with_sources(
        self, rule: dast.Rule, source_overrides: dict[int, str]
    ) -> sast.Select:
        """Compile ``rule`` with selected positive atoms redirected.

        ``source_overrides`` maps positive-atom index → table name; atoms
        not listed read their full relation. This is the maintenance
        (core/ivm.py) entry point: delta-propagation subqueries point one
        atom at a batch's ``_ivm_ins``/``_ivm_del`` table and the others
        at old snapshots or current fulls. Negation always reads the full
        relation — negated predicates live in strictly lower strata, so
        by the time a stratum is maintained they are already current.
        """
        return self._compile_rule(rule, delta_atom=None, source_overrides=source_overrides)

    def compile_support(
        self,
        rule: dast.Rule,
        candidates: str,
        members: set[str],
        sources: dict[str, str],
    ) -> sast.Select:
        """``rule`` restricted to the heads in table ``candidates``: per
        derivation the head, then each ``members`` atom's columns (joined only
        if a term is otherwise unbound). ``sources`` redirects relations."""
        supports = [
            _named_wildcards(atom, index)
            for index, atom in enumerate(rule.positive_atoms())
            if atom.predicate in members
        ]
        body = [rule.head, *(a for a in rule.positive_atoms() if a.predicate not in members)]
        bound = set().union(*(atom.variables() for atom in body))
        for atom in supports:
            if not atom.variables() <= bound:
                body.append(atom)
                bound |= atom.variables()
        head = dast.Atom(rule.head.predicate, sum((a.terms for a in supports), rule.head.terms))
        overrides = {i: sources[a.predicate] for i, a in enumerate(body) if a.predicate in sources}
        overrides[0] = candidates
        support_rule = dast.Rule(head, (*body, *rule.negative_atoms(), *rule.comparisons()))
        return self._compile_rule(support_rule, delta_atom=None, source_overrides=overrides)

    def _compile_rule(
        self,
        rule: dast.Rule,
        delta_atom: int | None,
        source_overrides: dict[int, str] | None = None,
    ) -> sast.Select:
        """Translate one rule to a SELECT.

        ``delta_atom`` is the index (among positive atoms) reading the
        ∆-table in this semi-naive subquery, or ``None`` for the init
        form where all atoms read full relations. ``source_overrides``
        (mutually exclusive with ``delta_atom``) redirects individual
        positive atoms to arbitrary tables.
        """
        positive = rule.positive_atoms()
        if not positive:
            raise DatalogError(f"rule {rule} has no positive body atom")

        bindings: dict[str, sast.ColumnRef] = {}
        where: list[sast.Predicate] = []
        tables: list[sast.TableRef] = []

        overrides = source_overrides or {}
        for index, atom in enumerate(positive):
            alias = f"b{index}"
            if index in overrides:
                source = overrides[index]
            elif index == delta_atom:
                source = delta_table(atom.predicate)
            else:
                source = full_table(atom.predicate)
            tables.append(sast.TableRef(source, alias))
            for position, term in enumerate(atom.terms):
                column_ref = sast.ColumnRef(alias, f"c{position}")
                if isinstance(term, dast.Constant):
                    where.append(sast.Comparison("=", column_ref, sast.Literal(term.value)))
                elif isinstance(term, dast.Variable):
                    if term.name in bindings:
                        where.append(sast.Comparison("=", column_ref, bindings[term.name]))
                    else:
                        bindings[term.name] = column_ref
                # Wildcards bind nothing.

        for comparison in rule.comparisons():
            where.append(
                sast.Comparison(
                    "<>" if comparison.op == "!=" else comparison.op,
                    _scalar_to_sql(comparison.left, bindings),
                    _scalar_to_sql(comparison.right, bindings),
                )
            )

        for negative_index, atom in enumerate(rule.negative_atoms()):
            where.append(self._compile_negation(atom, negative_index, bindings))

        items, group_by = self._compile_head(rule.head, bindings)
        return sast.Select(
            items=tuple(items),
            tables=tuple(tables),
            where=tuple(where),
            group_by=tuple(group_by),
        )

    def _compile_negation(
        self,
        atom: dast.Atom,
        negative_index: int,
        bindings: dict[str, sast.ColumnRef],
    ) -> sast.NotExists:
        alias = f"n{negative_index}"
        conditions: list[sast.Predicate] = []
        for position, term in enumerate(atom.terms):
            column_ref = sast.ColumnRef(alias, f"c{position}")
            if isinstance(term, dast.Constant):
                conditions.append(sast.Comparison("=", column_ref, sast.Literal(term.value)))
            elif isinstance(term, dast.Variable):
                conditions.append(sast.Comparison("=", column_ref, bindings[term.name]))
            elif isinstance(term, dast.Wildcard):
                continue
        subquery = sast.Select(
            items=(sast.SelectItem(sast.Literal(1), None),),
            tables=(sast.TableRef(full_table(atom.predicate), alias),),
            where=tuple(conditions),
        )
        return sast.NotExists(subquery)

    def _compile_head(
        self, head: dast.Atom, bindings: dict[str, sast.ColumnRef]
    ) -> tuple[list[sast.SelectItem], list[sast.Expr]]:
        items: list[sast.SelectItem] = []
        group_by: list[sast.Expr] = []
        has_aggregate = any(isinstance(term, dast.AggTerm) for term in head.terms)
        for position, term in enumerate(head.terms):
            column = f"c{position}"
            if isinstance(term, dast.AggTerm):
                argument = _scalar_to_sql(term.expr, bindings)
                items.append(sast.SelectItem(sast.AggregateCall(term.func, argument), column))
            elif isinstance(term, dast.Variable):
                expr = bindings[term.name]
                items.append(sast.SelectItem(expr, column))
                if has_aggregate:
                    group_by.append(expr)
            elif isinstance(term, dast.Constant):
                expr = sast.Literal(term.value)
                items.append(sast.SelectItem(expr, column))
                # Literals need not be grouped; they are constant per row.
            else:
                raise DatalogError(f"unsupported head term {term!r}")
        return items, group_by


def _named_wildcards(atom: dast.Atom, index: int) -> dast.Atom:
    """``atom`` with every wildcard a fresh variable, so its column can be emitted."""
    terms = (
        dast.Variable(f"?{index}.{p}") if isinstance(term, dast.Wildcard) else term
        for p, term in enumerate(atom.terms)
    )
    return dast.Atom(atom.predicate, tuple(terms))


def _scalar_to_sql(expr: dast.ScalarExpr, bindings: dict[str, sast.ColumnRef]) -> sast.Expr:
    if isinstance(expr, dast.Constant):
        return sast.Literal(expr.value)
    if isinstance(expr, dast.Variable):
        try:
            return bindings[expr.name]
        except KeyError:
            raise DatalogError(f"variable {expr.name!r} is unbound") from None
    if isinstance(expr, dast.Arithmetic):
        return sast.BinaryOp(
            expr.op, _scalar_to_sql(expr.left, bindings), _scalar_to_sql(expr.right, bindings)
        )
    raise DatalogError(f"unsupported scalar expression {expr!r}")


def _fact_row(rule: dast.Rule) -> tuple[int, ...]:
    row: list[int] = []
    for term in rule.head.terms:
        if not isinstance(term, dast.Constant):
            raise DatalogError(f"fact {rule} must be ground")
        row.append(term.value)
    return tuple(row)


# --------------------------------------------------------------------------
# SQL text rendering (Figure 4)
# --------------------------------------------------------------------------


def render_uie_sql(compiled: CompiledPredicate) -> str:
    """The single UNION ALL INSERT statement UIE issues."""
    query = compiled.delta_query() or compiled.init_query()
    if query is None:
        return ""
    return f"INSERT INTO {mdelta_table(compiled.predicate)} {query};"


def render_iie_sql(compiled: CompiledPredicate) -> str:
    """The per-subquery INSERTs plus merge that IIE issues (Figure 4)."""
    subqueries = compiled.delta_subqueries or compiled.init_subqueries
    statements: list[str] = []
    for index, select in enumerate(subqueries):
        statements.append(f"INSERT INTO {tmp_table(compiled.predicate, index)} {select};")
    columns = columns_for(compiled.arity)
    arms = []
    for index in range(len(subqueries)):
        item_list = ", ".join(f"t{index}.{c} AS {c}" for c in columns)
        arms.append(f"SELECT {item_list} FROM {tmp_table(compiled.predicate, index)} t{index}")
    if arms:
        merged = " UNION ALL ".join(arms)
        statements.append(f"INSERT INTO {mdelta_table(compiled.predicate)} {merged};")
    return "\n".join(statements)
