"""Parallel Bit-Matrix Evaluation (Section 5.3, Algorithms 2 and 3).

For dense-graph programs whose IDB has a small active domain, RecStep
replaces hash-based join+dedup with an n x n bit matrix: joins become
row ORs, dedup becomes bit tests, and the two stages fuse (no
intermediate materialization). We implement the matrix as packed
``uint64`` words and reproduce both schedules the paper studies:

* **zero-coordination** (the default): each thread owns a round-robin
  partition of matrix rows and runs to completion independently; skew in
  generated work shows up as idle threads (Figure 7, SG);
* **coordination** (SG-PBME-COORD): oversized deltas are repacked into a
  global work pool, trading communication overhead for load balance.

TC's rows advance in lockstep, one BFS level over the transposed matrix
at a time. Each TC level and each SG Δ is written as one rank run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import DatalogError
from repro.core import compiler
from repro.core.config import PbmeMode, RecStepConfig
from repro.datalog import ast as dast
from repro.datalog.analyzer import AnalyzedProgram, Stratum
from repro.engine import kernels
from repro.engine.database import Database

#: Simulated seconds per visited bit-pair during matrix expansion.
COST_PER_BIT_VISIT = 2.5e-8
#: Simulated seconds of communication per rebalanced work order (COORD).
COORD_ORDER_OVERHEAD = 2.0e-4
#: Work-order size threshold for the COORD variant (pairs per order).
COORD_THRESHOLD = 4096
#: Rows a delta batch of SG may expand to. Batch boundaries fix the order
#: of the next delta, and with it which producer owns a pair — changing
#: this value moves the simulated clock.
_CHUNK_OUTPUT_ROWS = 4_000_000


# --------------------------------------------------------------------------
# Packed bit matrix
# --------------------------------------------------------------------------


class PackedBitMatrix:
    """An n x n boolean matrix packed into uint64 words."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"matrix dimension must be positive, got {n}")
        self.n = n
        self.words = (n + 63) // 64
        self.bits = np.zeros((n, self.words), dtype=np.uint64)

    def memory_bytes(self) -> int:
        return self.bits.nbytes

    def set_pairs(self, rows: np.ndarray, cols: np.ndarray) -> None:
        masks = np.uint64(1) << (cols.astype(np.uint64) & np.uint64(63))
        flat = rows.astype(np.int64) * self.words + (cols >> 6)
        np.bitwise_or.at(self.bits.reshape(-1), flat, masks)

    def test_pairs(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Boolean array: bit (row, col) already set?"""
        words = self.bits[rows, cols >> 6]
        return (words >> (cols.astype(np.uint64) & np.uint64(63))) & np.uint64(1) != 0

    def count(self) -> int:
        return int(np.sum(np.bitwise_count(self.bits)))


# --------------------------------------------------------------------------
# Shape detection
# --------------------------------------------------------------------------


@dataclass
class PbmeDecision:
    applicable: bool
    reason: str
    shape: str = ""           # "TC" or "SG"
    idb: str = ""
    base_relation: str = ""   # TC: base-rule EDB; SG: the arc relation
    edge_relation: str = ""   # TC: recursive-rule EDB
    domain_size: int = 0
    stratum: Stratum | None = None


def _match_tc_shape(analyzed: AnalyzedProgram, stratum: Stratum) -> PbmeDecision | None:
    """P(x,y) :- B(x,y).  P(x,y) :- P(x,z), A(z,y)."""
    if len(stratum.predicates) != 1 or not stratum.recursive:
        return None
    (predicate,) = stratum.predicates
    if analyzed.arities[predicate] != 2:
        return None
    rules = [rule for rule in stratum.rules if rule.head.predicate == predicate]
    if len(rules) != 2:
        return None
    base = rec = None
    for rule in rules:
        if any(atom.predicate == predicate for atom in rule.body_atoms()):
            rec = rule
        else:
            base = rule
    if base is None or rec is None:
        return None
    # Base: single positive binary atom, head vars in order, nothing else.
    if (
        len(base.body) != 1
        or base.negative_atoms()
        or not _plain_binary(base.head)
        or not _plain_binary(base.positive_atoms()[0])
        or base.head.terms != base.positive_atoms()[0].terms
    ):
        return None
    # Recursive: P(x,z), A(z,y) with head (x, y); no comparisons/negation.
    if len(rec.body) != 2 or rec.negative_atoms() or rec.comparisons():
        return None
    atoms = rec.positive_atoms()
    p_atom = next((a for a in atoms if a.predicate == predicate), None)
    a_atom = next((a for a in atoms if a.predicate != predicate), None)
    if p_atom is None or a_atom is None:
        return None
    if a_atom.predicate in stratum.predicates or not _plain_binary(p_atom) or not _plain_binary(a_atom):
        return None
    hx, hy = rec.head.terms
    px, pz = p_atom.terms
    az, ay = a_atom.terms
    if (hx, hy, px) != (px, ay, hx) or pz != az:
        return None
    return PbmeDecision(
        applicable=True,
        reason="TC-shaped stratum",
        shape="TC",
        idb=predicate,
        base_relation=base.positive_atoms()[0].predicate,
        edge_relation=a_atom.predicate,
        stratum=stratum,
    )


def _match_sg_shape(analyzed: AnalyzedProgram, stratum: Stratum) -> PbmeDecision | None:
    """P(x,y) :- A(p,x), A(p,y), x != y.  P(x,y) :- A(a,x), P(a,b), A(b,y)."""
    if len(stratum.predicates) != 1 or not stratum.recursive:
        return None
    (predicate,) = stratum.predicates
    if analyzed.arities[predicate] != 2:
        return None
    rules = [rule for rule in stratum.rules if rule.head.predicate == predicate]
    if len(rules) != 2:
        return None
    base = rec = None
    for rule in rules:
        if any(atom.predicate == predicate for atom in rule.body_atoms()):
            rec = rule
        else:
            base = rule
    if base is None or rec is None:
        return None
    base_atoms = base.positive_atoms()
    if (
        len(base_atoms) != 2
        or base.negative_atoms()
        or len(base.comparisons()) != 1
        or base_atoms[0].predicate != base_atoms[1].predicate
        or not all(_plain_binary(a) for a in base_atoms)
    ):
        return None
    arc = base_atoms[0].predicate
    p0, x0 = base_atoms[0].terms
    p1, y1 = base_atoms[1].terms
    comparison = base.comparisons()[0]
    if p0 != p1 or base.head.terms != (x0, y1) or comparison.op != "!=":
        return None
    rec_atoms = rec.positive_atoms()
    if len(rec_atoms) != 3 or rec.negative_atoms() or rec.comparisons():
        return None
    p_atoms = [a for a in rec_atoms if a.predicate == predicate]
    a_atoms = [a for a in rec_atoms if a.predicate == arc]
    if len(p_atoms) != 1 or len(a_atoms) != 2:
        return None
    if not all(_plain_binary(a) for a in rec_atoms):
        return None
    (pa, pb) = p_atoms[0].terms
    hx, hy = rec.head.terms
    first = next((a for a in a_atoms if a.terms == (pa, hx)), None)
    second = next((a for a in a_atoms if a.terms == (pb, hy)), None)
    if first is None or second is None:
        return None
    return PbmeDecision(
        applicable=True,
        reason="SG-shaped stratum",
        shape="SG",
        idb=predicate,
        base_relation=arc,
        edge_relation=arc,
        stratum=stratum,
    )


def _plain_binary(atom: dast.Atom) -> bool:
    return atom.arity == 2 and all(isinstance(t, dast.Variable) for t in atom.terms)


def pbme_applicability(
    analyzed: AnalyzedProgram,
    stratum: Stratum,
    database: Database,
    config: RecStepConfig,
) -> PbmeDecision:
    """Decide whether PBME evaluates this stratum (Section 5.3).

    Conditions: PBME enabled, the stratum matches the TC or SG pattern,
    the active domain is non-negative, and (in AUTO mode) the bit matrix
    plus index structures fit in the memory budget.
    """
    if config.pbme is PbmeMode.OFF:
        return PbmeDecision(applicable=False, reason="pbme disabled")
    decision = _match_tc_shape(analyzed, stratum) or _match_sg_shape(analyzed, stratum)
    if decision is None:
        if config.pbme is PbmeMode.ON:
            raise DatalogError(
                f"pbme=ON but stratum {stratum.index} does not match TC/SG"
            )
        return PbmeDecision(applicable=False, reason="no TC/SG shape")

    relations = {decision.base_relation, decision.edge_relation}
    high = 0
    for relation in relations:
        rows = database.catalog.get_table(relation).data()
        if rows.shape[0] == 0:
            continue
        if int(rows.min()) < 0:
            return PbmeDecision(applicable=False, reason="negative domain values")
        high = max(high, int(rows.max()))
    n = high + 1
    decision.domain_size = n

    matrix_bytes = n * ((n + 63) // 64) * 8
    index_bytes = matrix_bytes if decision.shape == "SG" else 0
    budget = database.metrics.memory_budget
    if config.pbme is PbmeMode.AUTO:
        if matrix_bytes + index_bytes > 0.8 * budget:
            return PbmeDecision(
                applicable=False,
                reason=f"bit matrix ({(matrix_bytes + index_bytes) / 1e6:.0f} MB) "
                "does not fit the memory budget",
            )
        # A spill tier changes the calculus: the packed matrix is small,
        # but the materialized closure it hands back must be fully
        # resident — the relational path can evict cold prefixes to disk
        # while PBME cannot. When the worst-case output alone overflows
        # the budget, degrade to disk rather than to a path that is
        # guaranteed to OOM on extraction.
        if database.spill is not None:
            tuple_bytes = database.catalog.get_table(decision.idb).tuple_bytes()
            if n * n * tuple_bytes > 0.8 * budget:
                return PbmeDecision(
                    applicable=False,
                    reason="projected closure cannot stay resident; the "
                    "spill tier keeps the relational path safe",
                )
        # PBME pays off on *dense* graphs (Section 5.3); sparse inputs such
        # as the CSDA program graphs stay on the relational path.
        edge_count = database.table_size(decision.edge_relation)
        if n > 0 and edge_count / (n * n) < 5e-4:
            return PbmeDecision(
                applicable=False,
                reason=f"graph too sparse for PBME (density {edge_count / (n * n):.2e})",
            )
    return decision


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


def run_pbme_stratum(
    decision: PbmeDecision,
    database: Database,
    config: RecStepConfig,
    report,
) -> None:
    """Evaluate a TC/SG stratum with the bit matrix and record metrics."""
    from repro.obs import CATEGORY_ITERATION

    n = decision.domain_size
    profiler = database.profiler
    with profiler.span(
        f"pbme {decision.shape}",
        CATEGORY_ITERATION,
        shape=decision.shape,
        idb=decision.idb,
        domain_size=n,
    ) as span:
        edge_rows = database.table_array(decision.edge_relation)

        if decision.shape == "TC":
            base_rows = database.table_array(decision.base_relation)
            pairs, runs, per_thread_cost = _run_tc(base_rows, edge_rows, n, config.threads, database)
            makespan, utilization = _zero_coordination_schedule(per_thread_cost)
            iterations = len(runs)
        else:
            pairs, runs, per_thread_cost, iterations, rebalances = _run_sg(
                edge_rows, n, config.threads, config.sg_coordination, database
            )
            if config.sg_coordination:
                total = float(per_thread_cost.sum())
                width = max(1.0, config.threads * 0.95)
                makespan = total / width + rebalances * COORD_ORDER_OVERHEAD
                utilization = min(1.0, total / (config.threads * makespan)) if makespan else 1.0
            else:
                makespan, utilization = _zero_coordination_schedule(per_thread_cost)

        database.metrics.advance(makespan, utilization)
        bit_ops = int(round(float(per_thread_cost.sum()) / COST_PER_BIT_VISIT))
        profiler.counters.inc("pbme_strata")
        profiler.counters.inc("pbme_bit_ops", bit_ops)
        database.replace_rows(compiler.full_table(decision.idb), pairs, runs)
        database.analyze(compiler.full_table(decision.idb))
        span.set(
            rows_out=int(pairs.shape[0]),
            depth=iterations,
            bit_ops=bit_ops,
            utilization=round(utilization, 4),
        )
        report.iterations += iterations
    if profiler.enabled:
        # PBME saturates the stratum in one batch pass, so its telemetry
        # lands at the stratum boundary: one latency/size observation and
        # one resource-timeline sample (the per-iteration cadence does
        # not exist on this path).
        profiler.histograms.observe("pbme.seconds", span.duration)
        profiler.histograms.observe("pbme.rows", float(pairs.shape[0]))
        database.sample_timeline(
            stratum=decision.stratum.index if decision.stratum is not None else 0,
            pbme_depth=iterations,
        )
    # The bit matrix saturates the stratum in one batch pass (it cannot
    # diverge), so its budget accounting lands at the stratum boundary —
    # after the partial fixpoint is committed, mirroring where a deadline
    # would interpose for this path.
    database.resilience.check_guard_stratum(
        decision.stratum.index if decision.stratum is not None else 0,
        iterations,
        int(pairs.shape[0]),
    )


def _zero_coordination_schedule(per_thread_cost: np.ndarray) -> tuple[float, float]:
    """Makespan/utilization when each thread runs its partition alone."""
    makespan = float(per_thread_cost.max()) if per_thread_cost.size else 0.0
    if makespan <= 0:
        return 0.0, 1.0
    utilization = float(per_thread_cost.sum()) / (per_thread_cost.size * makespan)
    return makespan, utilization


def _stack_levels(levels: list[np.ndarray], width: int) -> tuple[np.ndarray, list[int]]:
    """``(x, y)`` rows of all levels' pair keys ``y * width + x``, and each
    non-empty level's size: one rank run per level."""
    keys = np.concatenate([np.empty(0, dtype=np.int64), *levels])
    rows = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, width, out=(rows[:, 1], rows[:, 0]))
    return rows, [level.size for level in levels if level.size]


def _run_tc(
    base_rows: np.ndarray,
    edge_rows: np.ndarray,
    n: int,
    threads: int,
    database: Database,
) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Algorithm 2: per-row frontier expansion, rows partitioned round-robin.

    The host runs the rows' BFS in lockstep over the transposed closure,
    bit ``(y, x)`` being ``tc(x, y)``. Returns the pairs, one rank run per
    depth, and the per-thread cost of the rows' own frontiers.
    """
    closure = PackedBitMatrix(n)
    closure.set_pairs(base_rows[:, 1], base_rows[:, 0])
    database.metrics.allocate_transient(2 * closure.memory_bytes())  # edges + result
    # Arcs by target, gathered 8n rows at a time: no more than a level unpacks.
    order = np.argsort(edge_rows[:, 1], kind="stable")
    sources, targets = edge_rows[order, 0], edge_rows[order, 1]
    width = closure.words * 64
    row_costs = np.zeros(n, dtype=np.float64)
    levels = []
    frontier = closure.bits.copy()
    while frontier.any():
        bits = np.unpackbits(frontier.view(np.uint8), axis=1, bitorder="little").view(bool)
        levels.append(np.flatnonzero(bits))
        row_costs += np.count_nonzero(bits, axis=0)[:n] * width * COST_PER_BIT_VISIT
        reached = np.zeros_like(frontier)
        for start in range(0, sources.size, 8 * n):
            chunk = slice(start, start + 8 * n)
            heads = np.flatnonzero(np.diff(targets[chunk], prepend=-1))
            reached[targets[chunk][heads]] |= np.bitwise_or.reduceat(
                frontier[sources[chunk]], heads, axis=0
            )
        frontier = reached & ~closure.bits
        closure.bits |= frontier
    database.metrics.release_transient(closure.memory_bytes())
    database.metrics.release_transient(closure.memory_bytes())
    k = max(1, threads)
    per_thread_cost = np.bincount(np.arange(n) % k, weights=row_costs, minlength=k)
    return *_stack_levels(levels, width), per_thread_cost


def _chunk_boundaries(weights: np.ndarray, limit: int) -> list[tuple[int, int]]:
    """Greedy split of a delta so each batch expands to about ``limit`` rows.

    ``weights[i]`` is the number of rows delta row ``i`` expands to. A
    batch closes before the first row that takes it over ``limit``; a
    single row heavier than the limit still gets a batch of its own.
    """
    cumulative = np.cumsum(weights)
    boundaries = []
    start = 0
    base = 0
    while start < weights.size:
        over = int(np.searchsorted(cumulative, base + limit, side="right"))
        stop = min(max(over, start + 1), weights.size)
        boundaries.append((start, stop))
        start = stop
        base = cumulative[stop - 1]
    return boundaries


class _FirstProducerTable:
    """Reusable n*n scratch: the lowest producer position seen per pair key."""

    _EMPTY = np.iinfo(np.int64).max

    def __init__(self, n: int) -> None:
        self._slots = np.full(n * n, self._EMPTY, dtype=np.int64)

    def reduce(self, key: np.ndarray, position: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct keys, ascending, each with the minimum of its positions."""
        np.minimum.at(self._slots, key, position)
        keys = np.flatnonzero(self._slots != self._EMPTY)
        first = self._slots[keys]
        self._slots[keys] = self._EMPTY
        return keys, first


def _run_sg(
    arc_rows: np.ndarray,
    n: int,
    threads: int,
    coordination: bool,
    database: Database,
) -> tuple[np.ndarray, list[int], np.ndarray, int, int]:
    """Algorithm 3: pair worklist over the bit matrix with a child index.

    Work is attributed to the thread owning the originating matrix row;
    generated pairs inherit their producer's thread (the thread-local
    delta of Algorithm 3), which is what makes skew possible. A pair
    reached by several delta rows of one batch belongs to the producer
    at the lowest delta position. The seeds and each Δ are one rank run.
    """
    k = max(1, threads)
    matrix = PackedBitMatrix(n)
    index_bytes = matrix.memory_bytes()  # Varc vector index (line 4)
    transient = matrix.memory_bytes() + index_bytes
    database.metrics.allocate_transient(transient)

    parents = arc_rows[:, 0] if arc_rows.shape[0] else np.empty(0, np.int64)
    children = arc_rows[:, 1] if arc_rows.shape[0] else np.empty(0, np.int64)

    # Varc index: children grouped by parent, CSR offsets from the degrees.
    out_degree = np.bincount(parents, minlength=n)
    offsets = np.concatenate(([0], np.cumsum(out_degree)))
    grouped_children = children[np.argsort(parents, kind="stable")]
    producers = _FirstProducerTable(n)

    def expand(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, child) for every child of ``vertices[row]``, rows ascending."""
        return kernels.sorted_join_indices(
            offsets[vertices], offsets[vertices + 1], grouped_children
        )

    def admit(
        key: np.ndarray, position: np.ndarray, owner_at: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Set the pairs not yet in the matrix; return them in key order,
        each owned by its lowest-position producer."""
        keys, first = producers.reduce(key, position)
        xs, ys = np.divmod(keys, n)
        fresh = ~matrix.test_pairs(xs, ys)
        xs, ys = xs[fresh], ys[fresh]
        matrix.set_pairs(xs, ys)
        return xs, ys, owner_at[first[fresh]]

    per_thread_cost = np.zeros(k, dtype=np.float64)
    rebalances = 0

    # Seeds: sg(x, y) for siblings x != y (join arc with itself on parent).
    row, seed_y = expand(parents)
    seed_x = children[row]
    keep = seed_x != seed_y
    seed_x, seed_y = seed_x[keep], seed_y[keep]
    seed_owner = seed_x % k
    per_thread_cost += np.bincount(seed_owner, minlength=k) * COST_PER_BIT_VISIT
    delta_x, delta_y, delta_owner = admit(
        seed_x * n + seed_y, np.arange(seed_x.size), seed_owner
    )
    levels = [delta_y * n + delta_x]

    iterations = 0
    while delta_x.size:
        iterations += 1
        # Bit pairs each delta row visits. The visits are charged from
        # this product; the (a, b) -> (q, p) rows are never all built.
        weights = out_degree[delta_x] * out_degree[delta_y]
        fresh = []
        for start, stop in _chunk_boundaries(weights, _CHUNK_OUTPUT_ROWS):
            chunk_y = delta_y[start:stop]
            chunk_owner = delta_owner[start:stop]
            visit_counts = np.bincount(
                chunk_owner, weights=weights[start:stop], minlength=k
            )
            per_thread_cost += visit_counts * COST_PER_BIT_VISIT
            if coordination:
                rebalances += int(np.sum(visit_counts > COORD_THRESHOLD))

            # (a, b) -> (q, b) for q in children(a), then only the distinct
            # (q, b) -> (q, p) for p in children(b); each stage keeps the
            # lowest delta position per pair, so the minimum carries through.
            row, q = expand(delta_x[start:stop])
            mid_key, mid_first = producers.reduce(q * n + chunk_y[row], row)
            mid_b = mid_key % n
            row, p = expand(mid_b)
            fresh.append(admit((mid_key - mid_b)[row] + p, mid_first[row], chunk_owner))
        delta_x, delta_y, delta_owner = (
            np.concatenate(columns) for columns in zip(*fresh)
        )
        levels.append(delta_y * n + delta_x)

    database.metrics.release_transient(transient)
    return *_stack_levels(levels, n), per_thread_cost, iterations, rebalances
