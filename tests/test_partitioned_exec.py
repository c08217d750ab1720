"""Radix-partitioned join/dedup/set-difference execution.

Acceptance criteria covered here:

* partition on/off × cache on/off reach byte-identical fixpoints on
  TC, SG, and Andersen, including a checkpoint-resume run;
* the scatter is count-only (the host runs one shared kernel); the sim
  clock it feeds is pinned by the model ledger (``tests/ledger.py``),
  and three relational rows here rerun their configs against it;
* partitioned dedup beats the shared GSCHT at high thread counts on a
  large delta, and is never chosen at one thread or on tiny inputs;
* partition scratch is charged to the transient ledger and released
  (no ``transient_underflows``), and the degradation ladder's
  shed-partitioning rung shunts operators back to the shared path.
"""

import tempfile

import numpy as np
import pytest

from repro.analysis.harness import prepare_edb
from repro.core import PbmeMode, RecStep, RecStepConfig
from repro.engine import kernels
from repro.engine.database import Database
from repro.engine.executor import (
    COST_DEDUP_FAST,
    ParallelCostModel,
    partitioned_dedup_decision,
    partitioned_join_decision,
)
from repro.programs import get_program
from repro.resilience import DegradationController, ResilienceContext
from tests.ledger import load_ledger, trace_digest

RELATIONAL = dict(pbme=PbmeMode.OFF)


def _graph(seed: int, nodes: int, edges: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, nodes, size=(edges, 2)).astype(np.int64)


@pytest.fixture
def tc_edb():
    return {"arc": _graph(11, 100, 320)}


@pytest.fixture
def sg_edb():
    return {"arc": _graph(5, 40, 90)}


@pytest.fixture
def aa_edb():
    rng = np.random.default_rng(3)

    def rel(count):
        return np.unique(rng.integers(0, 25, size=(count, 2)), axis=0)

    return {
        "addressOf": rel(18),
        "assign": rel(16),
        "load": rel(12),
        "store": rel(12),
    }


# --------------------------------------------------------------------------
# Kernel exactness
# --------------------------------------------------------------------------


class TestRadixKernels:
    def test_partition_count_must_be_power_of_two(self):
        keys = np.arange(10, dtype=np.int64)
        for bad in (0, -4, 3, 24):
            with pytest.raises(ValueError):
                kernels.radix_partition_ids(keys, bad)

    def test_ids_cover_range_and_are_deterministic(self):
        keys = np.random.default_rng(0).integers(-(2**40), 2**40, 5000)
        ids = kernels.radix_partition_ids(keys, 64)
        assert ids.min() >= 0 and ids.max() < 64
        assert np.array_equal(ids, kernels.radix_partition_ids(keys, 64))

    def test_counts_are_bincount_of_ids(self):
        keys = np.random.default_rng(1).integers(0, 500, 20_000).astype(np.int64)
        for partitions in (1, 16, 64):
            counts = kernels.radix_partition(keys, partitions)
            ids = kernels.radix_partition_ids(keys, partitions)
            assert np.array_equal(counts, np.bincount(ids, minlength=partitions))
            assert counts.shape == (partitions,)
            assert counts.sum() == keys.size
            assert np.array_equal(counts, kernels.radix_partition(keys, partitions))

    def test_negative_keys_partition_safely(self):
        keys = np.array([-5, -1, 0, 1, 5, -5], dtype=np.int64)
        ids = kernels.radix_partition_ids(keys, 8)
        assert ids[0] == ids[5]  # equal keys land in the same bucket
        counts = kernels.radix_partition(keys, 8)
        assert counts.sum() == keys.size and counts.min() >= 0


# --------------------------------------------------------------------------
# Sim clock: configs rerun against their model-ledger records
# --------------------------------------------------------------------------

LEDGER = load_ledger()
TIGHT_SPILL = dict(memory_budget=550_000, degradation=True, spill_dir=True)

#: ``(program, dataset, config, ledger entry)``; the entry and its
#: ``/unpartitioned`` twin hold the numbers.
SIM_CLOCK_ROWS = [
    ("AA", "andersen-3", dict(threads=20), "AA/andersen-3/threads=20"),
    ("TC", "cycle-300", dict(pbme=PbmeMode.OFF), "TC/cycle-300/relational"),
    ("TC", "cycle-300", TIGHT_SPILL, "TC/cycle-300/tight+spill"),
]  # fmt: skip
#: The AA row runs the default config, whose 20 threads the entry names.
TRACE_ROWS = [
    ("TC", "cycle-300", dict(pbme=PbmeMode.OFF), "TC/cycle-300/relational"),
    ("TC", "cycle-300", TIGHT_SPILL, "TC/cycle-300/tight+spill"),
    ("AA", "andersen-3", dict(), "AA/andersen-3/threads=20"),
]  # fmt: skip


def _pin_id(program, dataset, config):
    values = (f"{k}={v}" if isinstance(v, bool) else str(v) for k, v in config.items())
    return "-".join((program, dataset, "-".join(values)))


def _evaluate(program, dataset, config, spill_root):
    if config.get("spill_dir"):
        config = dict(config, spill_dir=tempfile.mkdtemp(dir=spill_root))
    spec = get_program(program)
    # fault_seed=None: a chaos run (REPRO_CHAOS_SEED) pays retries on the
    # sim clock; the ledger is of the undisturbed model.
    result = RecStep(RecStepConfig(profile=True, fault_seed=None, **config)).evaluate(
        spec, prepare_edb(spec, dataset), dataset=dataset
    )
    assert result.status == "ok"
    return result


class TestSimClockPin:
    @pytest.mark.parametrize(
        "program,dataset,config,name",
        SIM_CLOCK_ROWS,
        ids=[_pin_id(p, d, c) for p, d, c, _ in SIM_CLOCK_ROWS],
    )
    def test_modeled_numbers_match_recorded(self, program, dataset, config, name, tmp_path):
        sizes = []
        for partitioned, entry in ((True, name), (False, f"{name}/unpartitioned")):
            result = _evaluate(
                program, dataset, dict(config, partitioned_exec=partitioned), tmp_path
            )
            recorded = LEDGER[entry]
            assert result.sim_seconds == recorded["sim_seconds"]
            assert result.peak_memory_bytes == recorded["peak_memory_bytes"]
            assert result.iterations == recorded["iterations"]
            assert dict(result.profile.counters) == recorded["counters"]
            taken = (result.resilience or {}).get("degradations_taken", [])
            assert list(taken) == recorded["degradations_taken"]
            sizes.append(result.sizes())
        # Partitioning is modeled: on and off reach the same fixpoint.
        assert sizes[0] == sizes[1]

    @pytest.mark.parametrize(
        "program,dataset,config,name",
        TRACE_ROWS,
        ids=[_pin_id(p, d, c) for p, d, c, _ in TRACE_ROWS],
    )
    def test_traces_match_recorded_digest(self, program, dataset, config, name, tmp_path):
        """Not one CPU or memory sample moved, nor any profile counter."""
        result = _evaluate(program, dataset, config, tmp_path)
        digest = trace_digest(
            result.sim_seconds, result.peak_memory_bytes,
            result.cpu_trace, result.memory_trace, dict(result.profile.counters),
        )  # fmt: skip
        assert digest == LEDGER[name]["trace_digest"]


# --------------------------------------------------------------------------
# Fixpoint identity
# --------------------------------------------------------------------------


class TestIdenticalFixpoints:
    @pytest.mark.parametrize(
        "program,edb", [("TC", "tc_edb"), ("SG", "sg_edb"), ("AA", "aa_edb")]
    )
    @pytest.mark.parametrize("cache", [True, False])
    def test_partition_on_off_byte_identical(self, program, edb, cache, request):
        edb_data = request.getfixturevalue(edb)
        spec = get_program(program)
        on = RecStep(
            RecStepConfig(**RELATIONAL, join_cache=cache, partitioned_exec=True)
        ).evaluate(spec, edb_data, dataset="px")
        off = RecStep(
            RecStepConfig(**RELATIONAL, join_cache=cache, partitioned_exec=False)
        ).evaluate(spec, edb_data, dataset="px")
        assert on.status == off.status == "ok"
        assert on.tuples == off.tuples
        assert on.iterations == off.iterations

    def test_partitioned_run_uses_partitioned_operators(self, tc_edb):
        result = RecStep(
            RecStepConfig(**RELATIONAL, partitioned_exec=True, profile=True)
        ).evaluate(get_program("TC"), tc_edb, dataset="px")
        counters = result.profile.counters
        assert counters.get("partition.dedup_runs", 0) > 0
        assert counters.get("partition.scatter_rows", 0) > 0

    def test_unpartitioned_run_has_no_partition_counters(self, tc_edb):
        result = RecStep(
            RecStepConfig(**RELATIONAL, partitioned_exec=False, profile=True)
        ).evaluate(get_program("TC"), tc_edb, dataset="px")
        counters = result.profile.counters
        assert not any(name.startswith("partition.") for name in counters)

    def test_resume_with_partitioning_matches_uninterrupted(self, tmp_path, tc_edb):
        spec = get_program("TC")
        partial = RecStep(
            RecStepConfig(
                **RELATIONAL,
                partitioned_exec=True,
                checkpoint_dir=str(tmp_path),
                checkpoint_every=1,
                deadline=0.1,
            )
        ).evaluate(spec, tc_edb, dataset="px-ckpt")
        assert partial.status == "deadline"
        resumed = RecStep(
            RecStepConfig(**RELATIONAL, partitioned_exec=True, resume_from=str(tmp_path))
        ).evaluate(spec, tc_edb, dataset="px-ckpt")
        unpartitioned = RecStep(
            RecStepConfig(**RELATIONAL, partitioned_exec=False)
        ).evaluate(spec, tc_edb, dataset="px-ckpt")
        assert resumed.status == unpartitioned.status == "ok"
        assert resumed.tuples == unpartitioned.tuples


# --------------------------------------------------------------------------
# The decision: when partitioning pays
# --------------------------------------------------------------------------


class TestPartitionDecision:
    def test_never_partitions_at_one_thread(self):
        model = ParallelCostModel(threads=1)
        choice = partitioned_dedup_decision(model, 64, 1_000_000, COST_DEDUP_FAST)
        assert not choice.partitioned

    def test_tiny_deltas_stay_shared(self):
        model = ParallelCostModel(threads=40)
        choice = partitioned_dedup_decision(model, 64, 50, COST_DEDUP_FAST)
        assert not choice.partitioned

    def test_large_dedup_partitions_at_high_threads(self):
        model = ParallelCostModel(threads=40)
        choice = partitioned_dedup_decision(model, 64, 500_000, COST_DEDUP_FAST)
        assert choice.partitioned
        assert choice.partitioned_estimate < choice.shared_estimate

    def test_build_heavy_join_partitions(self):
        model = ParallelCostModel(threads=40)
        choice = partitioned_join_decision(model, 64, 400_000, 50_000)
        assert choice.partitioned

    def test_probe_dominated_join_stays_shared(self):
        model = ParallelCostModel(threads=40)
        choice = partitioned_join_decision(model, 64, 2_000, 400_000)
        assert not choice.partitioned

    def test_partitions_rounded_to_power_of_two(self):
        db = Database(enforce_budgets=False, partitions=48)
        assert db.partitions == 64
        db = Database(enforce_budgets=False, partitions=1)
        assert db.partitions == 1


# --------------------------------------------------------------------------
# Scaling: the Figure 8 plateau mechanism
# --------------------------------------------------------------------------


def _dedup_sim_seconds(threads: int, partitioned: bool, rows: np.ndarray) -> float:
    db = Database(
        threads=threads, enforce_budgets=False, partitioned_exec=partitioned
    )
    db.load_table("d", ["a", "b"], rows)
    before = db.sim_seconds
    outcome = db.dedup_table("d")
    assert outcome.partitioned == (partitioned and threads > 1)
    return db.sim_seconds - before


class TestScaling:
    @pytest.fixture(scope="class")
    def big_delta(self):
        rng = np.random.default_rng(9)
        return rng.integers(0, 4000, size=(200_000, 2)).astype(np.int64)

    @pytest.mark.parametrize("threads", [20, 32, 40])
    def test_partitioned_dedup_beats_shared(self, threads, big_delta):
        shared = _dedup_sim_seconds(threads, False, big_delta)
        partitioned = _dedup_sim_seconds(threads, True, big_delta)
        assert partitioned < shared

    def test_partitioned_advantage_grows_past_twenty_threads(self, big_delta):
        """The shared dedup's contention penalty is what flattens Figure 8;
        partitioning must recover more of it at 40 threads than at 20."""
        saved_20 = _dedup_sim_seconds(20, False, big_delta) - _dedup_sim_seconds(
            20, True, big_delta
        )
        saved_40 = _dedup_sim_seconds(40, False, big_delta) - _dedup_sim_seconds(
            40, True, big_delta
        )
        assert saved_40 > saved_20 > 0

    def test_dedup_output_identical(self, big_delta):
        def run(partitioned):
            db = Database(enforce_budgets=False, partitioned_exec=partitioned)
            db.load_table("d", ["a", "b"], big_delta)
            return db.dedup_table("d").rows

        assert np.array_equal(run(True), run(False))


# --------------------------------------------------------------------------
# Memory: scratch charged, released, and sheddable
# --------------------------------------------------------------------------


class TestPartitionMemory:
    def test_scratch_charged_and_released(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 2000, size=(100_000, 2)).astype(np.int64)
        db = Database(enforce_budgets=False, partitioned_exec=True, profile=True)
        db.load_table("d", ["a", "b"], rows)
        outcome = db.dedup_table("d")
        assert outcome.partitioned
        from repro.engine.executor import PARTITION_SCRATCH_BYTES

        assert db.metrics.peak_transient_bytes >= rows.shape[0] * PARTITION_SCRATCH_BYTES
        assert db.metrics.transient_bytes == 0
        assert db.metrics.transient_underflows == 0

    def test_shed_partitioning_under_pressure(self):
        """Pre-flight shed: a budget the *partitioned* dedup plan (hash
        plus scatter scratch, ~4.8 MB with the 1.6 MB table) would push
        past the soft watermark, while the shared plan (~3.2 MB) stays
        under — the operator must fall back instead of partitioning."""
        controller = DegradationController(enabled=True)
        rng = np.random.default_rng(6)
        rows = rng.integers(0, 2000, size=(100_000, 2)).astype(np.int64)
        db = Database(
            memory_budget=5_000_000,
            enforce_budgets=False,
            partitioned_exec=True,
            profile=True,
            resilience=ResilienceContext(degradation=controller),
        )
        db.load_table("d", ["a", "b"], rows)
        outcome = db.dedup_table("d")
        assert not outcome.partitioned  # shed: stayed on the shared path
        assert db.profiler.counters.get("partition.shed") > 0
        assert "shed-partitioning" in controller.taken

    def test_sticky_level_disables_partitioning(self):
        """At sticky level 1 the whole speed-for-memory tier is off:
        dedup goes lean (never partitions) and joins stay shared."""
        controller = DegradationController(enabled=True)
        controller.on_pressure(1, 0.85)
        rng = np.random.default_rng(6)
        rows = rng.integers(0, 2000, size=(100_000, 2)).astype(np.int64)
        db = Database(
            enforce_budgets=False,
            partitioned_exec=True,
            profile=True,
            resilience=ResilienceContext(degradation=controller),
        )
        db.load_table("d", ["a", "b"], rows)
        outcome = db.dedup_table("d")
        assert not outcome.partitioned
        assert db.profiler.counters.get("partition.dedup_runs") == 0

    def test_shed_partitioning_is_on_the_ladder(self):
        from repro.resilience.degradation import LADDER

        assert "shed-partitioning" in LADDER
