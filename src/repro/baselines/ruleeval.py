"""Array-based Datalog rule evaluation.

A second, independent implementation of rule evaluation (the first being
the Datalog→SQL→operators path of RecStep): it binds rule variables to
NumPy columns directly and joins with the shared kernels. The baseline
engines evaluate with this module under their own cost models, and the
test suite uses it for differential testing against the SQL path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import DatalogError
from repro.datalog import ast as dast
from repro.engine import kernels


@dataclass
class WorkCounters:
    """Work performed while evaluating rules (inputs to engine cost models).

    ``row_limit`` caps intermediate join cardinality: the engine's memory
    model sets it from its budget, and a join that would exceed it raises
    ``OutOfMemoryError`` *before* the intermediate materializes — the
    operator-level equivalent of the paper's baseline OOM failures.
    """

    tuples_scanned: int = 0
    tuples_built: int = 0
    tuples_probed: int = 0
    tuples_materialized: int = 0
    peak_intermediate_rows: int = 0
    joins: int = 0
    row_limit: int | None = None

    def merge(self, other: "WorkCounters") -> None:
        self.tuples_scanned += other.tuples_scanned
        self.tuples_built += other.tuples_built
        self.tuples_probed += other.tuples_probed
        self.tuples_materialized += other.tuples_materialized
        self.peak_intermediate_rows = max(
            self.peak_intermediate_rows, other.peak_intermediate_rows
        )
        self.joins += other.joins


@dataclass
class _VarFrame:
    """Current rows as one column per bound rule variable."""

    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        for column in self.columns.values():
            return int(column.shape[0])
        return 0


def _atom_local_select(
    atom: dast.Atom, rows: np.ndarray, counters: WorkCounters
) -> tuple[np.ndarray, dict[str, int]]:
    """Apply constant and repeated-variable constraints local to one atom.

    Returns the filtered rows and a var -> column-position map.
    """
    counters.tuples_scanned += rows.shape[0]
    mask = np.ones(rows.shape[0], dtype=bool)
    positions: dict[str, int] = {}
    for position, term in enumerate(atom.terms):
        if isinstance(term, dast.Constant):
            mask &= rows[:, position] == term.value
        elif isinstance(term, dast.Variable):
            if term.name in positions:
                mask &= rows[:, position] == rows[:, positions[term.name]]
            else:
                positions[term.name] = position
    if not mask.all():
        rows = rows[mask]
    return rows, positions


def _scalar_column(
    expr: dast.ScalarExpr, frame: _VarFrame, length: int
) -> np.ndarray:
    if isinstance(expr, dast.Constant):
        return np.full(length, expr.value, dtype=np.int64)
    if isinstance(expr, dast.Variable):
        try:
            return frame.columns[expr.name]
        except KeyError:
            raise DatalogError(f"variable {expr.name!r} is unbound") from None
    if isinstance(expr, dast.Arithmetic):
        left = _scalar_column(expr.left, frame, length)
        right = _scalar_column(expr.right, frame, length)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
    raise DatalogError(f"unsupported scalar expression {expr!r}")


def _apply_comparison(
    comparison: dast.Comparison, frame: _VarFrame, counters: WorkCounters
) -> _VarFrame:
    length = len(frame)
    left = _scalar_column(comparison.left, frame, length)
    right = _scalar_column(comparison.right, frame, length)
    op = comparison.op
    if op == "=":
        mask = left == right
    elif op == "!=":
        mask = left != right
    elif op == "<":
        mask = left < right
    elif op == "<=":
        mask = left <= right
    elif op == ">":
        mask = left > right
    else:
        mask = left >= right
    counters.tuples_scanned += length
    return _VarFrame({name: col[mask] for name, col in frame.columns.items()})


def _apply_negation(
    atom: dast.Atom,
    relation: np.ndarray,
    frame: _VarFrame,
    counters: WorkCounters,
) -> _VarFrame:
    """Anti-join the frame against a negated atom."""
    rows, positions = _atom_local_select(atom, relation, counters)
    frame_keys = []
    rel_keys = []
    for name, position in positions.items():
        frame_keys.append(frame.columns[name])
        rel_keys.append(rows[:, position])
    # Constant-only negated atoms: non-empty relation match kills all rows.
    if not frame_keys:
        if rows.shape[0] > 0:
            return _VarFrame({n: c[:0] for n, c in frame.columns.items()})
        return frame
    left, right = kernels.make_join_keys(frame_keys, rel_keys)
    counters.tuples_built += rows.shape[0]
    counters.tuples_probed += len(frame)
    mask = kernels.anti_join_mask(left, right)
    return _VarFrame({name: col[mask] for name, col in frame.columns.items()})


def _check_row_limit(expected_rows: int, counters: WorkCounters) -> None:
    if counters.row_limit is not None and expected_rows > counters.row_limit:
        from repro.common.errors import OutOfMemoryError

        raise OutOfMemoryError(
            f"join intermediate of {expected_rows} rows exceeds the engine's "
            f"modeled memory budget ({counters.row_limit} rows)",
            rows=expected_rows,
            limit_rows=counters.row_limit,
        )


def _join_atom(
    frame: _VarFrame | None,
    atom: dast.Atom,
    relation: np.ndarray,
    counters: WorkCounters,
) -> _VarFrame:
    rows, positions = _atom_local_select(atom, relation, counters)
    if frame is None:
        return _VarFrame(
            {name: rows[:, position].copy() for name, position in positions.items()}
        )
    shared = [name for name in positions if name in frame.columns]
    if shared:
        left_keys = [frame.columns[name] for name in shared]
        right_keys = [rows[:, positions[name]] for name in shared]
        left, right = kernels.make_join_keys(left_keys, right_keys)
        build = min(len(frame), rows.shape[0])
        probe = max(len(frame), rows.shape[0])
        counters.tuples_built += build
        counters.tuples_probed += probe
        sorted_right, order = kernels.sort_index(right, left)
        starts, ends = kernels.sorted_probe_range(left, sorted_right)
        _check_row_limit(int((ends - starts).sum()), counters)
        li, ri = kernels.sorted_join_indices(starts, ends, order)
    else:
        n, m = len(frame), rows.shape[0]
        _check_row_limit(n * m, counters)
        li = np.repeat(np.arange(n, dtype=np.int64), m)
        ri = np.tile(np.arange(m, dtype=np.int64), n)
        counters.tuples_probed += n * m
    counters.joins += 1
    out = _VarFrame({name: col[li] for name, col in frame.columns.items()})
    for name, position in positions.items():
        if name not in out.columns:
            out.columns[name] = rows[ri, position]
    counters.tuples_materialized += len(out) * max(1, len(out.columns))
    counters.peak_intermediate_rows = max(counters.peak_intermediate_rows, len(out))
    return out


def evaluate_rule(
    rule: dast.Rule,
    relations: dict[str, np.ndarray],
    delta_atom: int | None = None,
    delta_relations: dict[str, np.ndarray] | None = None,
    counters: WorkCounters | None = None,
) -> np.ndarray:
    """Evaluate one rule body, returning (bag) head rows.

    ``delta_atom`` selects which positive atom (by index) reads from
    ``delta_relations`` instead of ``relations`` — the semi-naive
    substitution. Aggregated heads are pre-grouped here; callers merge.
    """
    counters = counters if counters is not None else WorkCounters()
    positive = rule.positive_atoms()
    if not positive:
        raise DatalogError(f"rule {rule} has no positive body atom")

    frame: _VarFrame | None = None
    for index, atom in enumerate(positive):
        if index == delta_atom:
            source = (delta_relations or {})[atom.predicate]
        else:
            source = relations[atom.predicate]
        frame = _join_atom(frame, atom, source, counters)
        if len(frame) == 0:
            break
    assert frame is not None

    if len(frame):
        for comparison in rule.comparisons():
            frame = _apply_comparison(comparison, frame, counters)
            if not len(frame):
                break
    if len(frame):
        for atom in rule.negative_atoms():
            frame = _apply_negation(atom, relations[atom.predicate], frame, counters)
            if not len(frame):
                break

    return _project_head(rule, frame, counters)


def _project_head(
    rule: dast.Rule, frame: _VarFrame, counters: WorkCounters
) -> np.ndarray:
    length = len(frame)
    arity = rule.head.arity
    if length == 0:
        return np.empty((0, arity), dtype=np.int64)
    columns: list[np.ndarray] = []
    agg_spec: tuple[str, np.ndarray] | None = None
    group_columns: list[np.ndarray] = []
    for term in rule.head.terms:
        if isinstance(term, dast.AggTerm):
            agg_spec = (term.func, _scalar_column(term.expr, frame, length))
            columns.append(None)  # placeholder, filled after grouping
        elif isinstance(term, dast.Variable):
            column = frame.columns[term.name]
            columns.append(column)
            group_columns.append(column)
        elif isinstance(term, dast.Constant):
            column = np.full(length, term.value, dtype=np.int64)
            columns.append(column)
        else:
            raise DatalogError(f"unsupported head term {term!r}")
    counters.tuples_materialized += length * arity
    if agg_spec is None:
        return np.column_stack(columns)
    keys, (values,) = kernels.group_aggregate(group_columns, [agg_spec])
    if group_columns:
        return np.column_stack([keys, values])
    return values.reshape(-1, 1)
