"""Vectorized scalar-expression evaluation over join frames.

A :class:`Frame` is the intermediate result of a join pipeline: per table
alias, an index array selecting rows of the alias's base data. Columns are
gathered lazily, so wide intermediate results never materialize until
projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import PlanError
from repro.sql import ast


@dataclass
class Frame:
    """Aligned row selections over one or more base tables.

    Attributes:
        bases: alias -> base data matrix (rows of the underlying table).
        schemas: alias -> column-name tuple of that base.
        indices: alias -> int64 row-index array; all the same length.
    """

    bases: dict[str, np.ndarray] = field(default_factory=dict)
    schemas: dict[str, tuple[str, ...]] = field(default_factory=dict)
    indices: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def from_table(cls, alias: str, data: np.ndarray, columns: tuple[str, ...]) -> "Frame":
        frame = cls()
        frame.bases[alias] = data
        frame.schemas[alias] = columns
        frame.indices[alias] = np.arange(data.shape[0], dtype=np.int64)
        return frame

    def __len__(self) -> int:
        for index in self.indices.values():
            return int(index.shape[0])
        return 0

    def column(self, alias: str, column_name: str) -> np.ndarray:
        """Gather one column of the frame as a flat int64 array."""
        if alias not in self.indices:
            raise PlanError(f"alias {alias!r} is not part of this frame")
        try:
            position = self.schemas[alias].index(column_name)
        except ValueError:
            raise PlanError(f"alias {alias!r} has no column {column_name!r}") from None
        return self.bases[alias][self.indices[alias], position]

    def select(self, mask_or_index: np.ndarray) -> "Frame":
        """New frame keeping only the rows selected by a mask/index array."""
        out = Frame(bases=dict(self.bases), schemas=dict(self.schemas))
        out.indices = {alias: index[mask_or_index] for alias, index in self.indices.items()}
        return out

    def joined_with(
        self,
        alias: str,
        data: np.ndarray,
        columns: tuple[str, ...],
        left_positions: np.ndarray,
        right_positions: np.ndarray,
    ) -> "Frame":
        """Frame after matching this frame's rows with rows of a new base."""
        out = Frame(bases=dict(self.bases), schemas=dict(self.schemas))
        out.bases[alias] = data
        out.schemas[alias] = columns
        out.indices = {a: index[left_positions] for a, index in self.indices.items()}
        out.indices[alias] = right_positions
        return out


def resolve_column(ref: ast.ColumnRef, frame: Frame) -> tuple[str, str]:
    """Resolve a (possibly unqualified) column reference to (alias, column)."""
    if ref.table is not None:
        if ref.table not in frame.schemas:
            raise PlanError(f"unknown table alias {ref.table!r} in {ref}")
        if ref.column not in frame.schemas[ref.table]:
            raise PlanError(f"alias {ref.table!r} has no column {ref.column!r}")
        return ref.table, ref.column
    owners = [alias for alias, schema in frame.schemas.items() if ref.column in schema]
    if not owners:
        raise PlanError(f"column {ref.column!r} not found in any FROM table")
    if len(owners) > 1:
        raise PlanError(f"column {ref.column!r} is ambiguous across {sorted(owners)}")
    return owners[0], ref.column


def evaluate(expr: ast.Expr, frame: Frame) -> np.ndarray:
    """Evaluate a scalar expression to a flat int64 array over the frame."""
    if isinstance(expr, ast.Literal):
        return np.full(len(frame), expr.value, dtype=np.int64)
    if isinstance(expr, ast.ColumnRef):
        alias, column = resolve_column(expr, frame)
        return frame.column(alias, column)
    if isinstance(expr, ast.BinaryOp):
        left = evaluate(expr.left, frame)
        right = evaluate(expr.right, frame)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        raise PlanError(f"unknown arithmetic operator {expr.op!r}")
    if isinstance(expr, ast.AggregateCall):
        raise PlanError("aggregate call outside aggregation context")
    raise PlanError(f"cannot evaluate expression {expr!r}")


def evaluate_comparison(comparison: ast.Comparison, frame: Frame) -> np.ndarray:
    """Evaluate a comparison predicate to a boolean mask over the frame."""
    left = evaluate(comparison.left, frame)
    right = evaluate(comparison.right, frame)
    op = comparison.op
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise PlanError(f"unknown comparison operator {op!r}")


def expr_aliases(expr: ast.Expr, frame_schemas: dict[str, tuple[str, ...]]) -> set[str]:
    """All table aliases an expression touches (given candidate schemas)."""
    if isinstance(expr, ast.Literal):
        return set()
    if isinstance(expr, ast.ColumnRef):
        if expr.table is not None:
            return {expr.table}
        owners = {
            alias for alias, schema in frame_schemas.items() if expr.column in schema
        }
        if len(owners) != 1:
            raise PlanError(
                f"column {expr.column!r} is {'ambiguous' if owners else 'unknown'}"
            )
        return owners
    if isinstance(expr, ast.BinaryOp):
        return expr_aliases(expr.left, frame_schemas) | expr_aliases(expr.right, frame_schemas)
    if isinstance(expr, ast.AggregateCall):
        return expr_aliases(expr.argument, frame_schemas)
    raise PlanError(f"cannot analyze expression {expr!r}")
