"""bddbddb behavioural model (Whaley & Lam, APLAS 2005 / PLDI 2004).

A single-threaded Datalog solver whose relations live in BDDs. The
redundancy of program-analysis relations compresses exponentially, so it
shines on small-active-domain analyses (AA datasets 1-2) and collapses on
graphs with many vertices — the paper's Figure 10/15 behaviour.

Real BDDs, real semi-naive evaluation; simulated time is proportional to
the manager's operation count, and a hard operation cap converts the
paper's ">10h" runs into "timeout" results quickly.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.bdd.bdd import ONE, ZERO, BddManager
from repro.baselines.bdd.encoding import BlockSpace
from repro.baselines.base import evaluate_in_envelope
from repro.common.errors import UnsupportedFeatureError
from repro.common.records import EvaluationResult
from repro.datalog import ast as dast
from repro.datalog.analyzer import AnalyzedProgram, Stratum
from repro.engine.metrics import DEFAULT_MEMORY_BUDGET, DEFAULT_TIME_BUDGET, MetricsRecorder
from repro.programs.library import ProgramSpec

#: Simulated seconds per BDD operation step (single-threaded solver).
PER_OP_SECONDS = 2.0e-6
#: Modeled bytes per live BDD node (node record + unique-table entry).
BYTES_PER_NODE = 40
#: Hard cap on real work, so modeled timeouts stay cheap on the host.
HARD_OP_CAP = 30_000_000


class BddbddbLike:
    """Datalog over BDDs; interface-compatible with the other baselines."""

    name = "bddbddb"

    def __init__(
        self,
        threads: int = 1,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
        time_budget: float = DEFAULT_TIME_BUDGET,
        enforce_budgets: bool = True,
        ordering: str = "interleaved",
    ) -> None:
        # ``threads`` accepted for interface parity; bddbddb is single-threaded.
        self.memory_budget = memory_budget
        self.time_budget = time_budget
        self.enforce_budgets = enforce_budgets
        self.ordering = ordering

    # -- envelope -------------------------------------------------------------

    def check_supported(self, analyzed: AnalyzedProgram) -> None:
        features = analyzed.features
        if features and features.has_aggregation:
            raise UnsupportedFeatureError(
                "bddbddb has no aggregation support (Table 1)"
            )
        for rule in analyzed.program.rules:
            for comparison in rule.comparisons():
                if comparison.op not in ("=", "!="):
                    raise UnsupportedFeatureError(
                        f"bddbddb model supports =/!= comparisons only, got {comparison}"
                    )
                if not (
                    isinstance(comparison.left, (dast.Variable, dast.Constant))
                    and isinstance(comparison.right, (dast.Variable, dast.Constant))
                ):
                    raise UnsupportedFeatureError(
                        "bddbddb model does not bit-blast arithmetic"
                    )

    # -- evaluation --------------------------------------------------------------

    def evaluate(
        self,
        program: ProgramSpec,
        edb_data: dict[str, np.ndarray],
        dataset: str = "unnamed",
    ) -> EvaluationResult:
        return evaluate_in_envelope(self, program, edb_data, dataset)

    def _fixpoint(
        self,
        analyzed: AnalyzedProgram,
        edb_data: dict[str, np.ndarray],
        metrics: MetricsRecorder,
    ) -> tuple[int, dict[str, np.ndarray]]:
        relations, space, manager = self._encode_edb(analyzed, edb_data, metrics)
        iterations = 0
        for stratum in analyzed.strata:
            iterations += self._run_stratum(
                analyzed, stratum, relations, space, manager, metrics
            )
        return iterations, {
            name: space.decode(
                relations[name], list(range(analyzed.arities[name]))
            )
            for name in sorted(analyzed.idb)
        }

    # -- internals ------------------------------------------------------------------

    def _encode_edb(
        self,
        analyzed: AnalyzedProgram,
        edb_data: dict[str, np.ndarray],
        metrics: MetricsRecorder,
    ) -> tuple[dict[str, int], BlockSpace, BddManager]:
        high = 0
        for name in sorted(analyzed.edb):
            rows = np.asarray(edb_data[name], dtype=np.int64)
            if rows.size:
                if int(rows.min()) < 0:
                    raise UnsupportedFeatureError("bddbddb model needs a non-negative domain")
                high = max(high, int(rows.max()))
        bits = max(1, int(high).bit_length())
        max_arity = max(analyzed.arities.values())
        max_vars = max(
            (
                len(rule.head.variables() | set().union(*(a.variables() for a in rule.body_atoms())))
                for rule in analyzed.program.rules
                if rule.body_atoms()
            ),
            default=1,
        )
        num_blocks = max_arity + max_vars
        op_cap = min(HARD_OP_CAP, int(self.time_budget / PER_OP_SECONDS)) if self.enforce_budgets else HARD_OP_CAP
        manager = BddManager(max_ops=op_cap)
        space = BlockSpace(manager, bits, num_blocks, ordering=self.ordering)
        relations: dict[str, int] = {}
        for name in sorted(analyzed.edb):
            arity = analyzed.arities[name]
            rows = np.asarray(edb_data[name], dtype=np.int64).reshape(-1, arity)
            relations[name] = space.encode_rows(rows, list(range(arity)))
        for name in sorted(analyzed.idb):
            relations[name] = ZERO
        self._account(manager, metrics)
        return relations, space, manager

    def _account(self, manager: BddManager, metrics: MetricsRecorder) -> None:
        elapsed = manager.ops * PER_OP_SECONDS - metrics.now()
        if elapsed > 0:
            metrics.advance(elapsed, utilization=0.05)  # one thread of 20
        metrics.set_base_bytes(manager.peak_nodes * BYTES_PER_NODE)

    def _run_stratum(
        self,
        analyzed: AnalyzedProgram,
        stratum: Stratum,
        relations: dict[str, int],
        space: BlockSpace,
        manager: BddManager,
        metrics: MetricsRecorder,
    ) -> int:
        predicates = sorted(stratum.idb_predicates())
        deltas: dict[str, int] = {}
        try:
            for name in predicates:
                produced = ZERO
                for rule in analyzed.rules_for(name, stratum):
                    produced = manager.apply_or(
                        produced, self._eval_rule(rule, relations, space, None, None)
                    )
                deltas[name] = manager.apply_diff(produced, relations[name])
                relations[name] = manager.apply_or(relations[name], deltas[name])
            iterations = 1
            if not stratum.recursive:
                return iterations
            while any(delta != ZERO for delta in deltas.values()):
                new_deltas: dict[str, int] = {}
                for name in predicates:
                    produced = ZERO
                    for rule in analyzed.rules_for(name, stratum):
                        positions = [
                            index
                            for index, atom in enumerate(rule.positive_atoms())
                            if atom.predicate in stratum.predicates
                        ]
                        for position in positions:
                            produced = manager.apply_or(
                                produced,
                                self._eval_rule(rule, relations, space, position, deltas),
                            )
                    fresh = manager.apply_diff(produced, relations[name])
                    relations[name] = manager.apply_or(relations[name], fresh)
                    new_deltas[name] = fresh
                    deltas[name] = fresh
                iterations += 1
                deltas = new_deltas
            return iterations
        finally:
            self._account(manager, metrics)

    def _eval_rule(
        self,
        rule: dast.Rule,
        relations: dict[str, int],
        space: BlockSpace,
        delta_atom: int | None,
        deltas: dict[str, int] | None,
    ) -> int:
        manager = space.manager
        max_arity_blocks = space.num_blocks
        variables = sorted(
            set().union(*(atom.variables() for atom in rule.body_atoms()))
            | rule.head.variables()
        )
        storage_blocks = max_arity_blocks - len(variables)
        var_block = {name: storage_blocks + index for index, name in enumerate(variables)}

        result = None
        for index, atom in enumerate(rule.positive_atoms()):
            if index == delta_atom and deltas is not None:
                node = deltas[atom.predicate]
            else:
                node = relations[atom.predicate]
            node = self._bind_atom(node, atom, var_block, space)
            result = node if result is None else manager.apply_and(result, node)
            if result == ZERO:
                return ZERO
        assert result is not None

        for comparison in rule.comparisons():
            constraint = self._comparison_bdd(comparison, var_block, space)
            result = manager.apply_and(result, constraint)
            if result == ZERO:
                return ZERO

        for atom in rule.negative_atoms():
            negated = self._bind_atom(relations[atom.predicate], atom, var_block, space)
            result = manager.apply_diff(result, negated)
            if result == ZERO:
                return ZERO

        head_vars = {
            term.name for term in rule.head.terms if isinstance(term, dast.Variable)
        }
        drop = [var_block[name] for name in variables if name not in head_vars]
        result = space.project_away(result, drop)
        mapping: dict[int, int] = {}
        first_position: dict[str, int] = {}
        duplicate_positions: list[tuple[int, int]] = []
        for position, term in enumerate(rule.head.terms):
            if isinstance(term, dast.Variable):
                if term.name in first_position:
                    # Repeated head variable, e.g. valueFlow(x, x): copy
                    # the first occurrence's block into this position.
                    duplicate_positions.append((first_position[term.name], position))
                else:
                    mapping[var_block[term.name]] = position
                    first_position[term.name] = position
            elif isinstance(term, dast.Constant):
                result = manager.apply_and(
                    result, space.constant_cube(position, term.value)
                )
            else:
                raise UnsupportedFeatureError(f"unsupported head term {term!r}")
        result = space.rename(result, mapping)
        for first, extra in duplicate_positions:
            result = manager.apply_and(result, space.eq(first, extra))
        return result

    def _bind_atom(
        self,
        node: int,
        atom: dast.Atom,
        var_block: dict[str, int],
        space: BlockSpace,
    ) -> int:
        manager = space.manager
        mapping: dict[int, int] = {}
        wildcards: list[int] = []
        seen_blocks: dict[int, int] = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, dast.Variable):
                target = var_block[term.name]
                if target in seen_blocks:
                    # Repeated variable: constrain equality then drop.
                    node = manager.apply_and(node, space.eq(position, seen_blocks[target]))
                    wildcards.append(position)
                else:
                    mapping[position] = target
                    seen_blocks[target] = position
            elif isinstance(term, dast.Constant):
                node = manager.apply_and(node, space.constant_cube(position, term.value))
                wildcards.append(position)
            else:  # wildcard
                wildcards.append(position)
        node = space.project_away(node, wildcards)
        return space.rename(node, mapping)

    def _comparison_bdd(
        self,
        comparison: dast.Comparison,
        var_block: dict[str, int],
        space: BlockSpace,
    ) -> int:
        manager = space.manager

        def side_block(expr: dast.ScalarExpr) -> tuple[str, int]:
            if isinstance(expr, dast.Variable):
                return "var", var_block[expr.name]
            if isinstance(expr, dast.Constant):
                return "const", expr.value
            raise UnsupportedFeatureError("bddbddb model does not bit-blast arithmetic")

        left_kind, left = side_block(comparison.left)
        right_kind, right = side_block(comparison.right)
        if left_kind == "var" and right_kind == "var":
            equal = space.eq(left, right)
        elif left_kind == "var":
            equal = space.constant_cube(left, right)
        elif right_kind == "var":
            equal = space.constant_cube(right, left)
        else:
            equal = ONE if left == right else ZERO
        if comparison.op == "=":
            return equal
        return manager.apply_diff(ONE, equal)
