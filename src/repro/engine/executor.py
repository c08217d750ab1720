"""The modeled machine: what relational work costs on the paper's server.

The paper's server has 20 physical Haswell cores (40 hyperthreads) and
160 GB. One :class:`ParallelCostModel` per ``Database`` stands in for it:
it owns the simulated clock and memory ledger (a
:class:`~repro.engine.metrics.MetricsRecorder`), the per-tuple cost
table, the phase kinds and every modeled per-entry byte size. Operators
run kernels and *report the work they did* — the model's methods are
events named for what happened (``scan``, ``hash_join``, ``dedup``,
``dispatch``, ...), not for what it costs — and the model prices it:

* a phase splits into per-block tasks and takes the makespan of greedily
  scheduling them onto ``threads`` virtual workers; hyperthreads beyond
  the physical cores yield only a fraction of a core (Figure 8 gains
  little past 20 threads), and phases that hammer one shared structure
  (the global dedup hash table) pay a contention penalty growing with
  the worker count — the plateau the paper attributes to
  "synchronization/scheduling primitive around the common shared hash
  table";
* hash-heavy work may be priced as a radix scatter plus per-bucket
  private tables, dedup as CCK-GSCHT, a generic table or a lean sort:
  choices of a *charge*, never of a kernel;
* an event that holds a transient reserves it *before* the kernel runs —
  modeled OOM pre-empts the host allocation — and releases it when the
  ``with`` block around the kernel exits.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

from repro.common.errors import OutOfMemoryError
from repro.engine import kernels
from repro.engine.metrics import MetricsRecorder
from repro.obs.profiler import NULL_PROFILER
from repro.storage.block import block_count

#: Per-tuple cost constants (simulated seconds). Tuned so the scaled-down
#: datasets land in the paper's runtime ballpark; only ratios matter for
#: the reproduced shapes. The build/probe ratio is the DSD alpha.
COST_PROBE = 4.0e-7
COST_BUILD = 8.0e-7
COST_SCAN = 1.0e-7
COST_MATERIALIZE = 1.5e-7
COST_DEDUP_FAST = 5.0e-7
COST_DEDUP_SLOW = 1.25e-6
#: The memory-lean sort path: an in-place sort plus an adjacent-unique
#: sweep. Slower than either hash path, but its only transient is the
#: permutation index array — the degradation ladder's ``lean-dedup``.
COST_DEDUP_LEAN = 2.2e-6
COST_AGGREGATE = 7.0e-7
#: Per-tuple cost of the radix scatter pass (hash, histogram, copy out).
#: A sequential streaming write — cheaper than a probe, but a real pass
#: that tiny inputs cannot amortize; the partition decision weighs it.
COST_PARTITION = 1.5e-7

#: Fixed cost of dispatching one SQL query (parse, plan, catalog work).
#: This is the overhead that UIE amortizes and that dominates CSDA's ~1000
#: tiny iterations.
QUERY_DISPATCH_OVERHEAD = 6.0e-3
#: Catalog-only DDL (CREATE/DROP) costs far less than a full query
#: compile+dispatch cycle.
DDL_OVERHEAD = 5.0e-4
#: Barrier/fork-join overhead per parallel phase.
PHASE_BARRIER_OVERHEAD = 1.2e-4

#: Hard cap on a single join's output cardinality. QuickStep would spill
#: such an intermediate to disk and (on the paper's dense workloads)
#: subsequently die; we surface it as the same OOM failure. This also
#: bounds host-side allocations independent of the modeled budget.
HARD_JOIN_ROWS = 30_000_000

#: Modeled per-entry overhead of a join hash table (bucket pointer + next).
HASH_ENTRY_OVERHEAD = 24
#: Radix scatter scratch per row: the copied-out key plus a row index.
PARTITION_SCRATCH_BYTES = 16
#: Generic hash table per-entry overhead: 8-byte hash + 16-byte kv pointer.
GENERIC_ENTRY_OVERHEAD = 24
#: CCK bucket array entry: one pointer per pre-allocated bucket.
CCK_BUCKET_BYTES = 8
#: The lean sort's permutation index, per row.
LEAN_INDEX_BYTES = 8
#: A persistent join index, per indexed row: the sorted code plus its row
#: position (resident once built; the same again as sort scratch).
INDEX_ROW_BYTES = 16


@dataclass(frozen=True)
class PhaseKind:
    """Contention class of a parallel phase."""

    name: str
    contention: float  # fraction of parallel efficiency lost at full width


SCAN_PHASE = PhaseKind("scan", 0.05)
PROBE_PHASE = PhaseKind("probe", 0.10)
BUILD_PHASE = PhaseKind("build", 0.20)
DEDUP_PHASE = PhaseKind("dedup", 0.38)
AGGREGATE_PHASE = PhaseKind("aggregate", 0.25)

#: Radix-partitioned execution (Section 6 outlook / the partitioned-layout
#: escape from the Figure 8 plateau). The scatter pass writes disjoint
#: per-worker output runs, and each bucket's build/probe/dedup touches a
#: private structure — no shared hash table, so almost none of the
#: contention penalty the shared phases pay.
PARTITION_PHASE = PhaseKind("partition", 0.04)
PARTITIONED_BUILD_PHASE = PhaseKind("p_build", 0.03)
PARTITIONED_PROBE_PHASE = PhaseKind("p_probe", 0.03)
PARTITIONED_DEDUP_PHASE = PhaseKind("p_dedup", 0.05)


def join_cost_estimate(build_rows: int, probe_rows: int) -> float:
    """Estimated cost of a hash join given the chosen build side.

    Also prices probing a persistent index: there the build covers only
    the rows the index does not hold yet.
    """
    return build_rows * COST_BUILD + probe_rows * COST_PROBE


def index_bytes(rows: int) -> int:
    """Modeled bytes of a persistent join index over ``rows`` rows."""
    return rows * INDEX_ROW_BYTES


def plan_transient(
    n: int,
    width: int,
    fast: bool = True,
    estimated_rows: int | None = None,
    packable: bool = True,
    lean: bool = False,
) -> int:
    """The single sizing rule for dedup transients (pre-flight == actual).

    The ``lean-dedup`` pre-flight and the charge both call this, so the
    degradation controller's headroom check sees exactly the bytes the
    ledger will hold. ``packable`` matters: a wide tuple silently degrades
    the CCK path to the generic one, whose per-entry overhead is far
    larger — a pre-flight assuming the compact layout would under-report
    it. The partitioned plan adds its scatter scratch on top.
    """
    if lean:
        return n * LEAN_INDEX_BYTES
    buckets = max(16, n if estimated_rows is None else estimated_rows)
    if fast and packable:
        return max(n, buckets) * CCK_BUCKET_BYTES + n * 8
    tuple_bytes = width * 8 if n else 8
    return max(n, buckets) * 8 + n * (GENERIC_ENTRY_OVERHEAD + tuple_bytes)


@dataclass
class PhaseOutcome:
    """Scheduling result for one parallel phase."""

    makespan: float
    total_work: float
    efficiency: float  # total_work / (workers * makespan), in [0, 1]
    #: Workers the phase actually occupied (min(threads, tasks)); lets
    #: callers convert per-worker efficiency into machine utilization.
    workers: int = 1
    #: Injected worker failures whose tasks were re-executed (fault
    #: harness only; the rerun time is already inside ``makespan``).
    task_reruns: int = 0

    def machine_utilization(self, threads: int) -> float:
        """Fraction of the whole machine kept busy during the phase."""
        if threads <= 0:
            return self.efficiency
        return min(1.0, self.efficiency * self.workers / threads)


@dataclass(frozen=True)
class PartitionDecision:
    """Whether an operator should run radix-partitioned.

    Carries both modeled makespans so tests can see the margin the
    decision was made on.
    """

    partitioned: bool
    shared_estimate: float
    partitioned_estimate: float


class _HashStage(NamedTuple):
    """One barrier-separated hash phase of an operator, on either plan."""

    shared: PhaseKind
    partitioned: PhaseKind
    rows: int
    unit: float  # per-tuple cost
    #: The shared plan's charge, when its float is not ``rows * unit``
    #: (dedup multiplies in another order).
    cost: float | None = None
    #: Packed keys, for the modeled scatter's per-bucket counts.
    keys: object = None


class Work:
    """What the model decided about a piece of reported work.

    A context manager around the kernel: the transient the event reserved
    is released when the block exits. A failed kernel leaves the ledger as
    the failure found it (the OOM report quotes it).
    """

    __slots__ = ("_metrics", "transient_bytes", "partitioned", "compact_key", "lean")

    def __init__(self, metrics: MetricsRecorder, transient_bytes: int, partitioned: bool = False):
        self._metrics = metrics
        self.transient_bytes = transient_bytes
        self.partitioned = partitioned
        self.compact_key = False
        self.lean = False

    def __enter__(self) -> "Work":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None:
            self._metrics.release_transient(self.transient_bytes)


@dataclass
class ParallelCostModel:
    """Prices reported work: phase times, transients, degradation pre-flights.

    Attributes:
        threads: virtual worker count (the experiment's thread knob).
        physical_cores: cores before hyperthreading kicks in.
        ht_yield: fraction of a core an extra hyperthread contributes.
    """

    threads: int = 20
    physical_cores: int = 20
    ht_yield: float = 0.20
    #: The simulated clock and memory ledger every charge lands on.
    metrics: MetricsRecorder = field(default_factory=MetricsRecorder, repr=False)
    #: Switches that select a charge, never a kernel: FAST-DEDUP, and the
    #: radix bucket count (0 = partitioned execution off).
    fast_dedup: bool = True
    partitions: int = 0
    #: Degradation ladder (repro.resilience.degradation) the pre-flights
    #: consult; None = never degrade.
    degradation: object | None = field(default=None, repr=False)
    #: Observability sink: phase runs/busy-time land in its counters and
    #: on the innermost open span. The default is the inert profiler.
    profiler: object = field(default=NULL_PROFILER, repr=False)
    #: Fault-injection harness: when set, phases consult it for
    #: deterministic per-task worker failures (the failed task's work is
    #: re-executed and lands in the makespan). None = no injection.
    injector: object = field(default=None, repr=False)

    def bind_profiler(self, profiler) -> None:
        """Point the model and its ledger at ``profiler``."""
        self.profiler = profiler
        self.metrics.counters = profiler.counters

    # -- scheduling ----------------------------------------------------------

    def effective_width(self, kind: PhaseKind) -> float:
        """Usable parallelism for a phase of the given contention class."""
        k = max(1, self.threads)
        raw = min(k, self.physical_cores) + self.ht_yield * max(0, k - self.physical_cores)
        saturation = min(k, self.physical_cores) / self.physical_cores
        return max(1.0, raw * (1.0 - kind.contention * saturation))

    def run_phase(self, kind: PhaseKind, task_costs) -> PhaseOutcome:
        """Schedule ``task_costs`` onto the workers; return the makespan."""
        self.profiler.counters.inc(f"phase_{kind.name}_runs")
        tasks = len(task_costs)
        if not tasks:
            return PhaseOutcome(0.0, 0.0, 1.0)
        total = float(sum(task_costs))
        worker_count = max(1, min(self.threads, tasks))
        if worker_count == 1:
            makespan = total
        else:
            if isinstance(task_costs, EqualTasks):
                makespan = task_costs.makespan(worker_count)
            else:
                makespan = _lpt_makespan(task_costs, worker_count)
            # Contention/hyperthreading stretch: scheduled time cannot beat
            # the work/width bound.
            makespan = max(makespan, total / self.effective_width(kind))
        reruns = 0
        if self.injector is not None:
            # Injected worker failure: the task's work is lost and redone
            # at the end of the phase (a straggler everyone waits for).
            reruns = self.injector.task_reruns(kind.name, tasks)
            if reruns:
                rerun_cost = reruns * (total / tasks)
                total += rerun_cost
                makespan += rerun_cost
                self.profiler.counters.inc("faults_worker_failures", reruns)
        makespan += PHASE_BARRIER_OVERHEAD
        # Efficiency of the workers this phase actually occupied — small
        # phases that fill only a few workers are no longer penalized for
        # the idle rest of the machine (that conversion lives in
        # ``machine_utilization``).
        busy = total / (worker_count * makespan) if makespan > 0 else 1.0
        outcome = PhaseOutcome(makespan, total, min(1.0, busy), worker_count, reruns)
        self.profiler.add_phase_time(kind.name, outcome.makespan)
        return outcome

    def estimate_phase_time(
        self, kind: PhaseKind, total_cost: float, num_tasks: int
    ) -> float:
        """Predicted makespan of a phase, without running it.

        The deciding half of :meth:`run_phase`: same width/worker bounds
        and barrier overhead, assuming evenly sized tasks — including the
        LPT quantization a real schedule pays when the task count does not
        divide the workers (64 equal tasks on 20 workers finish in 4
        rounds, not 3.2). The partitioned-vs-shared decision compares
        phase sequences with this.
        """
        if total_cost <= 0:
            return 0.0
        tasks = max(1, num_tasks)
        workers = max(1, min(self.threads, tasks))
        rounds = -(-tasks // workers)
        quantized = rounds * (total_cost / tasks)
        width = self.effective_width(kind)
        return max(quantized, total_cost / width) + PHASE_BARRIER_OVERHEAD

    def _charge(self, kind: PhaseKind, task_costs) -> None:
        outcome = self.run_phase(kind, task_costs)
        # The CPU trace wants whole-machine utilization, not the per-worker
        # scheduling efficiency a narrow phase reports.
        self.metrics.advance(outcome.makespan, outcome.machine_utilization(self.threads))

    def _parallel(self, kind: PhaseKind, total_cost: float, rows: int) -> None:
        """A data-parallel phase: one equal task per storage block."""
        self._charge(kind, split_tasks(total_cost, block_count(rows)))

    def _index_pass(
        self, shared_kind: PhaseKind, partitioned_kind: PhaseKind, total_cost: float, rows: int
    ) -> None:
        """Position-chunkable work on a persistent sorted-code index.

        Packing, sorting, and binary-searching are independent per input
        chunk — there is no shared hash table to contend on. With
        partitioned execution on, the work is P even position chunks at
        the partitioned contention rate; otherwise the classic shared phase.
        """
        if self.partitions and rows > 0:
            self._charge(partitioned_kind, split_tasks(total_cost, min(self.partitions, rows)))
        else:
            self._parallel(shared_kind, total_cost, rows)

    def _hold(self, transient_bytes: int, partitioned: bool = False) -> Work:
        self.metrics.allocate_transient(transient_bytes)
        return Work(self.metrics, transient_bytes, partitioned)

    # -- the shared-vs-partitioned plan ------------------------------------------

    def _hash_work(
        self, stages: list[_HashStage], shared_bytes: int, partitionable: bool = True
    ) -> Work:
        """Price hash-table work on the shared or the radix-partitioned plan.

        The one home of that decision, its degradation pre-flight and both
        charges; ``shared_bytes`` is the shared plan's transient. The
        partitioned plan scatters every stage's keys (one modeled pass,
        ``kernels.radix_partition`` counts only), then runs each stage as
        one private task per bucket — a skewed scatter's straggler bucket
        bounds the makespan, partitioning does not hide skew. It is taken
        when its estimated makespan beats the shared plan's *and* its
        whole allocation (tables plus scatter scratch, not the scratch
        alone: two halves that each clear the soft watermark can still
        jointly blow the budget) passes the ``shed-partitioning``
        pre-flight.
        """
        counters = self.profiler.counters
        scatter_rows = sum(stage.rows for stage in stages)
        partitioned_bytes = shared_bytes + scatter_rows * PARTITION_SCRATCH_BYTES
        partitioned = (
            partitionable
            and self.partitions > 0
            and all(stage.rows for stage in stages)
            and _partition_decision(self, self.partitions, stages).partitioned
        )
        degradation = self.degradation
        # Scatter buffers are pure speed-for-memory: under pressure they
        # are shed like the join cache.
        if (
            partitioned
            and degradation is not None
            and degradation.engaged("shed-partitioning", partitioned_bytes)
        ):
            degradation.note("shed-partitioning")
            counters.inc("partition.shed")
            partitioned = False
        if not partitioned:
            work = self._hold(shared_bytes)
            for stage in stages:
                cost = stage.rows * stage.unit if stage.cost is None else stage.cost
                self._parallel(stage.shared, cost, stage.rows)
            return work
        bucket_counts = [kernels.radix_partition(stage.keys, self.partitions) for stage in stages]
        work = self._hold(partitioned_bytes, partitioned=True)
        self._parallel(PARTITION_PHASE, scatter_rows * COST_PARTITION, scatter_rows)
        for stage, counts in zip(stages, bucket_counts):
            # One task per non-empty bucket, priced in one array expression.
            self._charge(stage.partitioned, (counts[counts > 0] * stage.unit).tolist())
        counters.inc("partition.scatter_rows", scatter_rows)
        return work

    def _build_probe(self, build_keys, probe_keys, partitionable: bool = True) -> Work:
        return self._hash_work(
            _build_probe_stages(build_keys.size, probe_keys.size, build_keys, probe_keys),
            build_keys.size * (8 + HASH_ENTRY_OVERHEAD),
            partitionable,
        )

    # -- work events: the query pipeline -------------------------------------

    def scan(self, rows: int) -> None:
        """A table of ``rows`` rows was scanned."""
        self._parallel(SCAN_PHASE, rows * COST_SCAN, rows)

    def filter(self, rows: int) -> None:
        """A predicate was evaluated over ``rows`` rows: one more pass."""
        self.scan(rows)

    def hash_join(self, build_keys, probe_keys) -> Work:
        """A hash table is built on one packed key array, probed with the other."""
        work = self._build_probe(build_keys, probe_keys)
        if work.partitioned:
            self.profiler.counters.inc("partition.join_runs")
        return work

    def anti_join(self, build_keys, probe_keys) -> Work:
        """NOT EXISTS: build on the subquery's keys, probe with the outer rows."""
        return self._build_probe(build_keys, probe_keys, partitionable=False)

    def semi_join(self, build_keys, probe_keys, phase_label: str) -> Work:
        """One membership pass of a set difference (``phase_label`` names it)."""
        work = self._build_probe(build_keys, probe_keys)
        if work.partitioned:
            self.profiler.counters.inc("partition.setdiff_runs")
            self.profiler.counters.inc(f"partition.setdiff_{phase_label}")
        return work

    def index_build(self, rows: int) -> None:
        """``rows`` rows are packed and sorted into a persistent join index.

        Chunk-local work with no shared hash table: under partitioned
        execution it pays the partitioned-build contention like every
        other build. The sort scratch is held for the pass only — the
        index itself is resident memory.
        """
        with self._hold(index_bytes(rows)):
            self._index_pass(BUILD_PHASE, PARTITIONED_BUILD_PHASE, rows * COST_BUILD, rows)

    def index_probe(self, rows: int) -> None:
        """``rows`` keys are binary-searched in a persistent join index."""
        self._index_pass(PROBE_PHASE, PARTITIONED_PROBE_PHASE, rows * COST_PROBE, rows)

    def index_anti_probe(self, rows: int) -> Work:
        """OPSD against a whole-row index: the probe plus its code array."""
        work = self._hold(rows * 8)
        self.index_probe(rows)
        return work

    def cross_product(self, left_rows: int, right_rows: int, width: int) -> Work:
        """A cross product of ``width`` position columns is about to materialize."""
        work = self._hold(left_rows * right_rows * 8 * width)
        self._parallel(PROBE_PHASE, (left_rows * right_rows) * COST_MATERIALIZE, left_rows)
        return work

    def join_output(self, rows: int, width: int) -> Work:
        """A join's ``rows`` matches are about to be gathered."""
        if rows > HARD_JOIN_ROWS:
            raise OutOfMemoryError(
                f"join intermediate of {rows} rows exceeds the spill limit",
                rows=rows,
                limit_rows=HARD_JOIN_ROWS,
                modeled_bytes=rows * 8 * width,
            )
        return self._hold(rows * 8 * width)

    def materialize(self, rows: int, width: int) -> None:
        """A joined frame of ``width`` position columns was materialized."""
        with self._hold(rows * 8 * width):
            self._parallel(PROBE_PHASE, rows * COST_MATERIALIZE, rows)

    def project(self, rows: int, width: int) -> None:
        """``width`` output columns were evaluated over ``rows`` rows."""
        self._parallel(SCAN_PHASE, rows * COST_MATERIALIZE * width, rows)

    def distinct(self, rows: int) -> None:
        """SELECT DISTINCT over ``rows`` projected rows."""
        self._parallel(AGGREGATE_PHASE, rows * COST_AGGREGATE, rows)

    def aggregate(self, rows: int) -> Work:
        """``rows`` rows are about to be grouped and aggregated."""
        work = self._hold(rows * 16)
        self._parallel(AGGREGATE_PHASE, rows * COST_AGGREGATE, rows)
        return work

    def membership_probe(self, rows: int) -> Work:
        """``rows`` tuples (table plus candidates) are matched for deletion."""
        work = self._hold(rows * 16)
        self._parallel(PROBE_PHASE, rows * COST_PROBE, rows)
        return work

    # -- work events: dedup and set difference ------------------------------------

    def sort_unique(self, rows: int) -> None:
        """A set difference's up-front sort + adjacent-unique of ``R_delta``.

        Priced as the lean dedup's (the sort's index array is its
        transient) whether or not the host could skip the sort: the clock
        models the standalone operator.
        """
        if rows:
            with self._hold(rows * LEAN_INDEX_BYTES):
                self._parallel(DEDUP_PHASE, rows * COST_DEDUP_LEAN, rows)

    def dedup(self, rows: int, width: int, packable: bool, key, estimated_rows: int) -> Work:
        """``rows`` tuples of ``width`` columns are about to be deduplicated.

        Chooses what the dedup is charged as — the host sorts the packed
        ``key`` (None when the tuple does not pack, or is empty) either way:

        * **CCK-GSCHT** (``fast_dedup``, Section 5.2) when the tuple packs
          into 63 bits, the paper's "small number of attributes"
          condition; otherwise the **generic** table — the appendix's
          caveat that FAST-DEDUP loses its edge on wide tuples. Only the
          compact path may partition (the radix hash needs the packed key).
        * ``estimated_rows`` is the optimizer's size estimate used to
          pre-allocate buckets (Section 5.1). Underestimation (stale
          statistics) lengthens collision chains — the probe cost scales
          with the average chain length, capped because resizes eventually
          kick in; overestimation wastes bucket memory.
        * the **lean** sort (degradation rung ``lean-dedup``) when the
          ladder is engaged or the hash plan's transient would itself
          breach the soft watermark: slowest per tuple, but its only
          transient is the sort's index array.
        """
        transient = plan_transient(rows, width, self.fast_dedup, estimated_rows, packable)
        degradation = self.degradation
        lean = degradation is not None and degradation.engaged("lean-dedup", transient)
        if lean:
            degradation.note("lean-dedup")
            transient = plan_transient(rows, width, lean=True)
        compact = self.fast_dedup and packable and not lean
        chain_factor = min(4.0, max(1.0, rows / max(16, estimated_rows)))
        if compact:
            # Same per-tuple work on either plan: each bucket builds its
            # private GSCHT.
            stage = _HashStage(
                DEDUP_PHASE, PARTITIONED_DEDUP_PHASE, rows, COST_DEDUP_FAST * chain_factor,
                cost=rows * COST_DEDUP_FAST * chain_factor, keys=key,
            )  # fmt: skip
            work = self._hash_work([stage], transient)
        else:
            cost = rows * COST_DEDUP_LEAN if lean else rows * COST_DEDUP_SLOW * chain_factor
            work = self._hold(transient)
            self._parallel(DEDUP_PHASE, cost, rows)
        work.compact_key, work.lean = compact, lean
        counters = self.profiler.counters
        if lean:
            counters.inc("dedup_lean_path")
        else:
            counters.inc("dedup_fast_path" if compact else "dedup_generic_path")
        if work.partitioned:
            counters.inc("partition.dedup_runs")
        self.profiler.annotate(
            transient_bytes=work.transient_bytes,
            chain_factor=round(chain_factor, 3),
            partitioned=work.partitioned,
        )
        return work

    def force_tpsd(self, base_rows: int) -> bool:
        """Degradation pre-flight for OPSD's hash table over all of R.

        Under pressure (or when that build alone would breach the soft
        watermark) the set difference falls back to TPSD, which only ever
        builds on the smaller side.
        """
        degradation = self.degradation
        if degradation is None:
            return False
        forced = degradation.engaged("force-tpsd", base_rows * (8 + HASH_ENTRY_OVERHEAD))
        if forced:
            degradation.note("force-tpsd")
        return forced

    # -- work events: statements ----------------------------------------------

    def dispatch(self) -> None:
        """One statement paid the full parse/plan/dispatch cycle (serial)."""
        self.profiler.counters.inc("queries_dispatched")
        self.metrics.advance(QUERY_DISPATCH_OVERHEAD, utilization=1.0 / max(1, self.threads))

    def ddl(self) -> None:
        """One catalog-only statement (CREATE/DROP)."""
        self.profiler.counters.inc("ddl_statements")
        self.metrics.advance(DDL_OVERHEAD, utilization=1.0 / max(1, self.threads))

    def analyze(self, seconds: float) -> None:
        """ANALYZE spent ``seconds`` collecting statistics."""
        self.metrics.advance(seconds, utilization=0.5)

    def write_back(self, seconds: float) -> None:
        """The storage manager flushed dirty blocks for ``seconds`` (I/O bound)."""
        self.metrics.advance(seconds, utilization=0.02)


class EqualTasks:
    """``count`` tasks of one ``cost``, never materialized as a list."""

    __slots__ = ("cost", "count")

    def __init__(self, cost: float, count: int) -> None:
        self.cost = cost
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return repeat(self.cost, self.count)

    def makespan(self, workers: int) -> float:
        """The LPT makespan in closed form.

        Greedy LPT over equal tasks hands the fullest worker ⌈count /
        workers⌉ of them one by one; accumulating the cost that many times
        performs the heap's additions in the heap's order, so the float is
        the one :func:`_lpt_makespan` returns.
        """
        makespan = 0.0
        for _ in range(-(-self.count // workers)):  # not sum(): it may compensate
            makespan += self.cost
        return makespan


def split_tasks(total_cost: float, num_blocks: int) -> EqualTasks:
    """Divide an operator's total cost into per-block task costs."""
    blocks = max(1, num_blocks)
    return EqualTasks(total_cost / blocks, blocks)


def _lpt_makespan(task_costs: list[float], workers: int) -> float:
    """Longest-processing-time-first greedy makespan (unequal tasks).

    ``heapreplace`` leaves the same multiset of loads as a pop plus a push
    of ``lightest + cost``, so the maximum is the same float.
    """
    loads = [0.0] * workers
    for cost in sorted(task_costs, reverse=True):
        heapq.heapreplace(loads, loads[0] + cost)
    return max(loads)


# --------------------------------------------------------------------------
# Partitioned-vs-shared execution (the radix escape from Figure 8's plateau)
# --------------------------------------------------------------------------


def _build_probe_stages(build_rows: int, probe_rows: int, build_keys=None, probe_keys=None):
    return [
        _HashStage(BUILD_PHASE, PARTITIONED_BUILD_PHASE, build_rows, COST_BUILD, keys=build_keys),
        _HashStage(PROBE_PHASE, PARTITIONED_PROBE_PHASE, probe_rows, COST_PROBE, keys=probe_keys),
    ]


def _partition_decision(
    model: ParallelCostModel, partitions: int, stages: list[_HashStage]
) -> PartitionDecision:
    """Compare the two plans' predicted makespans.

    Shared: each stage over its blocks. Partitioned: one scatter pass over
    every stage's rows, then each stage as ``partitions`` bucket tasks —
    an extra barrier and the scatter itself, so tiny inputs stay shared,
    and at low thread counts (no contention to remove) the scatter never
    wins.
    """
    shared = sum(
        model.estimate_phase_time(stage.shared, stage.rows * stage.unit, block_count(stage.rows))
        for stage in stages
    )
    scatter_rows = sum(stage.rows for stage in stages)
    scatter = model.estimate_phase_time(
        PARTITION_PHASE, scatter_rows * COST_PARTITION, block_count(scatter_rows)
    )
    partitioned = sum(
        [scatter]
        + [
            model.estimate_phase_time(stage.partitioned, stage.rows * stage.unit, partitions)
            for stage in stages
        ]
    )
    return PartitionDecision(partitioned < shared, shared, partitioned)


def partitioned_dedup_decision(
    model: ParallelCostModel, partitions: int, rows: int, per_tuple_cost: float
) -> PartitionDecision:
    """Shared GSCHT dedup vs radix scatter + per-bucket private tables."""
    return _partition_decision(
        model,
        partitions,
        [_HashStage(DEDUP_PHASE, PARTITIONED_DEDUP_PHASE, rows, per_tuple_cost)],
    )


def partitioned_join_decision(
    model: ParallelCostModel, partitions: int, build_rows: int, probe_rows: int
) -> PartitionDecision:
    """Shared hash build/probe vs radix scatter of both sides.

    Per-bucket builds escape the shared build phase's contention:
    build-heavy operators (OPSD's hash over R, balanced joins) win;
    probe-dominated joins don't, and correctly stay shared.
    """
    return _partition_decision(
        model, partitions, _build_probe_stages(build_rows, probe_rows)
    )
