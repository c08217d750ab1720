"""Tests for the simulated multicore cost model and metrics recorder."""

import heapq

import numpy as np
import pytest

from repro.common.errors import EvaluationTimeout, OutOfMemoryError
from repro.common.timing import SimClock
from repro.engine import executor, kernels
from repro.engine.executor import (
    BUILD_PHASE,
    COST_BUILD,
    COST_DEDUP_FAST,
    COST_PROBE,
    DEDUP_PHASE,
    PARTITIONED_DEDUP_PHASE,
    SCAN_PHASE,
    ParallelCostModel,
    split_tasks,
)
from repro.engine.metrics import MetricsRecorder
from repro.obs import Profiler


class TestParallelCostModel:
    def test_single_thread_runs_serially(self):
        model = ParallelCostModel(threads=1)
        outcome = model.run_phase(SCAN_PHASE, [1.0, 1.0, 1.0])
        assert outcome.makespan == pytest.approx(3.0, rel=0.01)

    def test_more_threads_reduce_makespan(self):
        tasks = [0.1] * 64
        t1 = ParallelCostModel(threads=1).run_phase(SCAN_PHASE, tasks).makespan
        t8 = ParallelCostModel(threads=8).run_phase(SCAN_PHASE, tasks).makespan
        t16 = ParallelCostModel(threads=16).run_phase(SCAN_PHASE, tasks).makespan
        assert t1 > t8 > t16

    def test_speedup_plateaus_past_physical_cores(self):
        """Figure 8's shape: near-linear to 16, marginal gains past 20."""
        tasks = [0.01] * 400
        times = {
            k: ParallelCostModel(threads=k).run_phase(DEDUP_PHASE, tasks).makespan
            for k in (1, 16, 20, 40)
        }
        speedup_16 = times[1] / times[16]
        speedup_40 = times[1] / times[40]
        assert speedup_16 > 8  # scales well up to 16
        assert speedup_40 < speedup_16 * 1.4  # small marginal gain after

    def test_contention_penalizes_dedup_more_than_scan(self):
        tasks = [0.01] * 200
        scan = ParallelCostModel(threads=20).run_phase(SCAN_PHASE, tasks).makespan
        dedup = ParallelCostModel(threads=20).run_phase(DEDUP_PHASE, tasks).makespan
        assert dedup > scan

    def test_makespan_bounded_by_largest_task(self):
        model = ParallelCostModel(threads=40)
        outcome = model.run_phase(SCAN_PHASE, [5.0] + [0.001] * 10)
        assert outcome.makespan >= 5.0

    def test_empty_phase_is_free(self):
        outcome = ParallelCostModel(threads=4).run_phase(BUILD_PHASE, [])
        assert outcome.makespan == 0.0

    def test_efficiency_in_unit_interval(self):
        outcome = ParallelCostModel(threads=20).run_phase(SCAN_PHASE, [0.5] * 10)
        assert 0.0 <= outcome.efficiency <= 1.0

    def test_efficiency_counts_occupied_workers_only(self):
        """A 2-task phase on a 20-thread machine occupies 2 workers; its
        scheduling efficiency must be ~1, not ~2/20 (the old bug divided
        busy time by all threads, punishing narrow phases)."""
        outcome = ParallelCostModel(threads=20).run_phase(SCAN_PHASE, [0.5, 0.5])
        assert outcome.workers == 2
        assert outcome.efficiency > 0.9
        # Machine utilization converts back to the whole-machine view.
        assert outcome.machine_utilization(20) == pytest.approx(
            outcome.efficiency * 2 / 20
        )

    def test_injector_reruns_stretch_makespan(self):
        class AlwaysFail:
            def task_reruns(self, phase_name, num_tasks):
                return 1

        clean = ParallelCostModel(threads=4).run_phase(SCAN_PHASE, [0.5] * 8)
        faulty_model = ParallelCostModel(threads=4)
        faulty_model.injector = AlwaysFail()
        faulty = faulty_model.run_phase(SCAN_PHASE, [0.5] * 8)
        assert faulty.task_reruns == 1
        assert faulty.makespan > clean.makespan
        assert faulty.total_work > clean.total_work

    def test_history_recorded(self):
        model = ParallelCostModel(threads=2, profiler=Profiler(SimClock()))
        model.run_phase(SCAN_PHASE, [0.1])
        model.run_phase(BUILD_PHASE, [0.1])
        counters = model.profiler.counters
        assert counters.get("phase_scan_runs") == counters.get("phase_build_runs") == 1

    def test_split_tasks_even(self):
        tasks = split_tasks(1.0, 4)
        assert len(tasks) == 4
        assert sum(tasks) == pytest.approx(1.0)

    def test_hyperthread_yield_partial(self):
        model = ParallelCostModel(threads=40, physical_cores=20, ht_yield=0.2)
        width = model.effective_width(SCAN_PHASE)
        assert 20 < width < 40


def _reference_lpt_makespan(task_costs, workers):
    """The heap the model ran over every phase before the closed form."""
    loads = [0.0] * workers
    heapq.heapify(loads)
    for cost in sorted(task_costs, reverse=True):
        lightest = heapq.heappop(loads)
        heapq.heappush(loads, lightest + cost)
    return max(loads)


class TestEqualTaskClosedForm:
    """``n`` equal tasks are priced without a task list or a heap, to the
    same float: the sim clock is pinned digit for digit."""

    @pytest.mark.parametrize(
        "tasks,threads",
        [(256, 20), (256, 32), (64, 20), (7, 20), (1, 20), (4150, 20), (13, 7),
         (40, 40), (41, 40), (300, 1)],
    )  # fmt: skip
    @pytest.mark.parametrize(
        "total_cost", [0.0, 1.0e-7, 0.1, 1.0 / 3.0, 4096 * 2.2e-6, 1234567 * 7.0e-7 / 3]
    )
    def test_same_float_as_the_reference_heap(self, tasks, threads, total_cost):
        split = split_tasks(total_cost, tasks)
        listed = [total_cost / tasks] * tasks
        workers = min(threads, tasks)
        assert split.makespan(workers) == _reference_lpt_makespan(listed, workers)
        for kind in (SCAN_PHASE, DEDUP_PHASE):
            model = ParallelCostModel(threads=threads)
            assert model.run_phase(kind, split) == model.run_phase(kind, listed)


def _bucket_shaped_costs(rng, unit):
    """One partitioned stage's task list: 256 radix-bucket counts of a
    small Δ (many ties, many empty buckets) times a per-tuple cost."""
    counts = rng.poisson(rng.choice([0.3, 1.5, 6.0, 40.0]), size=256)
    return [float(cost) for cost in counts * unit if cost > 0]


class TestBucketTaskPricing:
    """Pricing radix-bucket tasks with fewer Python operations must land on
    the same floats the per-task loop and the pop-then-push heap produced."""

    UNITS = [COST_BUILD, COST_PROBE, COST_DEDUP_FAST, COST_DEDUP_FAST * 1.7]

    @pytest.mark.parametrize("seed", range(8))
    def test_lpt_makespan_matches_the_reference_heap(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(250):
            costs = _bucket_shaped_costs(rng, self.UNITS[int(rng.integers(len(self.UNITS)))])
            workers = int(rng.integers(2, 41))
            if costs:
                assert executor._lpt_makespan(costs, workers) == _reference_lpt_makespan(
                    costs, workers
                )

    @pytest.mark.parametrize("threads", [2, 7, 20, 40])
    def test_run_phase_outcome_matches_the_reference_heap(self, threads, monkeypatch):
        rng = np.random.default_rng(threads)
        lists = [_bucket_shaped_costs(rng, unit) for unit in self.UNITS * 10]
        model = ParallelCostModel(threads=threads)
        current = [model.run_phase(PARTITIONED_DEDUP_PHASE, costs) for costs in lists]
        monkeypatch.setattr(executor, "_lpt_makespan", _reference_lpt_makespan)
        assert current == [model.run_phase(PARTITIONED_DEDUP_PHASE, costs) for costs in lists]

    @pytest.mark.parametrize("rows", [400, 5000, 60000])
    def test_charged_bucket_costs_match_the_per_task_loop(self, rows, monkeypatch):
        charged = []
        monkeypatch.setattr(
            ParallelCostModel, "_charge", lambda self, kind, costs: charged.append((kind, costs))
        )
        model = ParallelCostModel(threads=20, partitions=256)
        keys = np.random.default_rng(rows).integers(0, 1 << 20, size=rows)
        with model.dedup(rows, 2, True, keys, rows):
            pass
        assert [kind for kind, _ in charged] == [executor.PARTITION_PHASE, PARTITIONED_DEDUP_PHASE]
        counts = kernels.radix_partition(keys, 256)
        expected = [float(cost) for cost in counts * COST_DEDUP_FAST if cost > 0]
        costs = charged[1][1]
        assert costs == expected
        assert [cost.hex() for cost in costs] == [cost.hex() for cost in expected]
        assert all(type(cost) is float for cost in costs)


class TestMetricsRecorder:
    def test_clock_advances(self):
        metrics = MetricsRecorder(enforce_budgets=False)
        metrics.advance(1.5)
        assert metrics.now() == pytest.approx(1.5)

    def test_negative_advance_ignored(self):
        metrics = MetricsRecorder(enforce_budgets=False)
        metrics.advance(0.0)
        assert metrics.now() == 0.0

    def test_memory_peak_tracks_transients(self):
        metrics = MetricsRecorder(enforce_budgets=False)
        metrics.set_base_bytes(100)
        metrics.allocate_transient(1000)
        metrics.release_transient(1000)
        assert metrics.peak_bytes == 1100
        assert metrics.base_bytes + metrics.transient_bytes == 100

    def test_oom_on_budget_breach(self):
        metrics = MetricsRecorder(memory_budget=500)
        with pytest.raises(OutOfMemoryError):
            metrics.allocate_transient(501)

    def test_timeout_on_budget_breach(self):
        metrics = MetricsRecorder(time_budget=1.0)
        with pytest.raises(EvaluationTimeout):
            metrics.advance(2.0)

    def test_budgets_not_enforced_when_disabled(self):
        metrics = MetricsRecorder(memory_budget=10, time_budget=0.1, enforce_budgets=False)
        metrics.allocate_transient(1_000_000)
        metrics.advance(100.0)  # no raise

    def test_memory_trace_records_samples(self):
        metrics = MetricsRecorder(enforce_budgets=False)
        metrics.set_base_bytes(10)
        metrics.advance(1.0)
        metrics.set_base_bytes(20)
        trace = metrics.memory_trace.as_tuples()
        assert trace[0][1] == 10.0
        assert trace[-1] == (1.0, 20.0)

    def test_cpu_trace_spans_advance(self):
        metrics = MetricsRecorder(enforce_budgets=False)
        metrics.advance(2.0, utilization=0.75)
        samples = metrics.cpu_trace.samples
        assert samples[0].value == 0.75
        assert samples[-1].time == pytest.approx(2.0)
