"""Radix-partitioned join/dedup/set-difference execution.

Acceptance criteria covered here:

* partition on/off × cache on/off reach byte-identical fixpoints on
  TC, SG, and Andersen, including a checkpoint-resume run;
* the scatter is count-only (the host runs one shared kernel), and the
  sim clock it feeds is pinned to the values recorded before the
  per-bucket kernels were removed;
* partitioned dedup beats the shared GSCHT at high thread counts on a
  large delta, and is never chosen at one thread or on tiny inputs;
* partition scratch is charged to the transient ledger and released
  (no ``transient_underflows``), and the degradation ladder's
  shed-partitioning rung shunts operators back to the shared path.
"""

import numpy as np
import pytest

from repro.analysis.harness import prepare_edb
from repro.core import PbmeMode, RecStep, RecStepConfig
from repro.core.config import OofMode
from repro.datasets.gnp import gnp_graph
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
# Sim-clock pin: the model did not move when the per-bucket kernels went
# --------------------------------------------------------------------------

#: (program, dataset, config) -> {partitioned_exec: (sim_seconds,
#: peak_memory_bytes, iterations, partition.* counters)}, recorded at the
#: last commit that *executed* the scatter (3f70073).
_CSPA_PARTITION_COUNTERS = {
    "partition.dedup_runs": 28,
    "partition.join_runs": 57,
    "partition.scatter_rows": 17868134,
}
_AA_PARTITION_COUNTERS = {
    "partition.dedup_runs": 3,
    "partition.join_runs": 105,
    "partition.scatter_rows": 163842,
}
SIM_CLOCK_PINS = [
    ("CSPA", "cspa-httpd", dict(threads=20), {
        True: (3.1871112504028303, 196863720, 14, _CSPA_PARTITION_COUNTERS),
        False: (3.4988781193716054, 119509448, 14, {}),
    }),
    ("CSPA", "cspa-httpd", dict(threads=32), {
        True: (3.0587742486976803, 196863720, 14, _CSPA_PARTITION_COUNTERS),
        False: (3.36489903971895, 119509448, 14, {}),
    }),
    ("AA", "andersen-3", dict(threads=20), {
        True: (1.278895082881159, 143440, 28, _AA_PARTITION_COUNTERS),
        False: (1.3119375499999855, 102464, 28, {}),
    }),
    ("AA", "andersen-3", dict(threads=32), {
        True: (1.278486971630093, 143440, 28, _AA_PARTITION_COUNTERS),
        False: (1.3119375499999855, 102464, 28, {}),
    }),
    ("TC", "cycle-300", dict(pbme=PbmeMode.OFF), {
        True: (11.506485237113354, 2174400, 301, {}),
        False: (11.643403999999862, 2174400, 301, {}),
    }),
]

#: Rows recorded at 64e1f91, before the cost model moved into one module:
#: one per switch that refactor moves code for. They carry a fifth field —
#: every ``dedup_*`` / ``dsd_*`` / ``hash_*`` / ``degradation*`` counter
#: and, under ``"taken"``, the run's ``degradations_taken`` list.
_AA5 = {"dedup_calls": 24, "dedup_input_rows": 817794, "dedup_output_rows": 155168}
_AA5_HASH = {"hash_build_rows": 89092, "hash_probe_rows": 3207245, "hash_tables_built": 198}
_AA5_NO_CACHE_HASH = {"hash_build_rows": 97404, "hash_probe_rows": 3218109, "hash_tables_built": 212}
_AA5_TIGHT_HASH = {"hash_build_rows": 97404, "hash_probe_rows": 3218109, "hash_tables_built": 210}
_AA5_DEFAULT = {**_AA5, **_AA5_HASH, "dedup_fast_path": 24, "dsd_opsd_choices": 24}
_AA5_GENERIC = {**_AA5, **_AA5_HASH, "dedup_generic_path": 24, "dsd_opsd_choices": 24}
_AA5_DSD = {**_AA5, **_AA5_NO_CACHE_HASH, "dedup_fast_path": 24, "dsd_opsd_choices": 9, "dsd_tpsd_choices": 15}
_AA5_OPSD = {**_AA5, **_AA5_NO_CACHE_HASH, "dedup_fast_path": 24, "dsd_opsd_choices": 24}
_AA5_STALE = {**_AA5, "dedup_fast_path": 24, "dsd_opsd_choices": 24, "hash_build_rows": 125642, "hash_probe_rows": 3223114, "hash_tables_built": 198}
_AA5_TIGHT = {**_AA5, **_AA5_TIGHT_HASH, "dedup_fast_path": 14, "dedup_lean_path": 10, "degradation_lean_dedup": 10, "degradation_shed_join_cache": 1}
_SPILL = {
    "dedup_calls": 301, "dedup_fast_path": 126, "dedup_input_rows": 90300, "dedup_lean_path": 175,
    "dedup_output_rows": 90300, "degradation_force_tpsd": 28, "degradation_lean_dedup": 175,
    "degradation_shed_join_cache": 1, "degradation_spill_cold_tables": 2, "dsd_opsd_choices": 26,
    "dsd_tpsd_choices": 275, "hash_build_rows": 52500, "hash_probe_rows": 90300, "hash_tables_built": 176,
}
_CC = {"dedup_calls": 1, "dedup_fast_path": 1, "dedup_input_rows": 500, "dedup_output_rows": 4, "dsd_opsd_choices": 1, "hash_build_rows": 2119, "hash_probe_rows": 20456, "hash_tables_built": 8}
_SSSP = {"hash_build_rows": 1144, "hash_probe_rows": 33241, "hash_tables_built": 13}
_NTC = {"dedup_calls": 2, "dedup_fast_path": 2, "dedup_input_rows": 7111, "dedup_output_rows": 2497, "dsd_opsd_choices": 2, "hash_build_rows": 248003, "hash_probe_rows": 250000, "hash_tables_built": 1}
SIM_CLOCK_PINS += [
    ("AA", "andersen-5", dict(fast_dedup=False), {
        True: (1.5750424938961753, 10450848, 24, {"partition.join_runs": 160, "partition.scatter_rows": 1296988}, _AA5_GENERIC),
        False: (1.7467841119171605, 10450848, 24, {}, _AA5_GENERIC),
    }),
    ("AA", "andersen-5", dict(eost=False), {
        True: (1.5625415217074239, 7773712, 24, {"partition.dedup_runs": 24, "partition.join_runs": 160, "partition.scatter_rows": 2114782}, _AA5_DEFAULT),
        False: (1.7439378653200335, 5096576, 24, {}, _AA5_DEFAULT),
    }),
    # DSD picks TPSD 15 times here; with the cache on it never does.
    ("AA", "andersen-5", dict(join_cache=False), {
        True: (1.5445487789918273, 7184512, 24, {
            "partition.dedup_runs": 24, "partition.join_runs": 172, "partition.scatter_rows": 2908859,
            "partition.setdiff_opsd": 8, "partition.setdiff_runs": 34,
            "partition.setdiff_tpsd_intersect": 12, "partition.setdiff_tpsd_subtract": 14,
        }, _AA5_DSD),
        False: (1.7260169664404854, 4507376, 24, {}, _AA5_DSD),
    }),
    ("AA", "andersen-5", dict(dsd=False, join_cache=False), {
        True: (1.542389658944324, 7184512, 24, {
            "partition.dedup_runs": 24, "partition.join_runs": 172, "partition.scatter_rows": 2889778,
            "partition.setdiff_opsd": 21, "partition.setdiff_runs": 21,
        }, _AA5_OPSD),
        False: (1.710463990558132, 4507376, 24, {}, _AA5_OPSD),
    }),
    # Stale statistics: dedup chain factors other than 1.
    ("AA", "andersen-5", dict(oof=OofMode.NA), {
        True: (1.5635772089873234, 7773712, 24, {"partition.dedup_runs": 24, "partition.join_runs": 159, "partition.scatter_rows": 2096170}, _AA5_STALE),
        False: (1.8369375776809562, 5096576, 24, {}, _AA5_STALE),
    }),
    # One thread never partitions, yet on/off differ in the last digit:
    # index passes split into min(256, rows) chunks, not into blocks.
    ("AA", "andersen-5", dict(threads=1), {
        True: (3.945235746666656, 5096576, 24, {}, _AA5_DEFAULT),
        False: (3.9452357466666563, 5096576, 24, {}, _AA5_DEFAULT),
    }),
    ("AA", "andersen-5", dict(threads=7), {
        True: (1.741730182958528, 5096576, 24, {"partition.dedup_runs": 15, "partition.join_runs": 149, "partition.scatter_rows": 1020625}, _AA5_DEFAULT),
        False: (1.8728541882314937, 5096576, 24, {}, _AA5_DEFAULT),
    }),
    ("AA", "andersen-5", dict(threads=40), {
        True: (1.4798761179823863, 7773712, 24, {"partition.dedup_runs": 24, "partition.join_runs": 167, "partition.scatter_rows": 2520408}, _AA5_DEFAULT),
        False: (1.669189783122611, 5096576, 24, {}, _AA5_DEFAULT),
    }),
    # Tight budget: lean-dedup, shed-partitioning and force-tpsd all fire.
    ("AA", "andersen-5", dict(memory_budget=4_200_000, degradation=True), {
        True: (1.6870868143923772, 4183248, 24, {
            "partition.dedup_runs": 13, "partition.join_runs": 131, "partition.scatter_rows": 1162677, "partition.shed": 56,
        }, {
            **_AA5_TIGHT, "degradation_force_tpsd": 3, "degradation_shed_partitioning": 56, "degradations_taken": 70,
            "dsd_opsd_choices": 15, "dsd_tpsd_choices": 9,
            "taken": ["lean-dedup", "shed-partitioning", "shed-join-cache", "force-tpsd"],
        }),
        False: (1.801226871571387, 3956960, 24, {}, {
            **_AA5_TIGHT, "degradations_taken": 11, "dsd_opsd_choices": 18, "dsd_tpsd_choices": 6,
            "taken": ["lean-dedup", "shed-join-cache"],
        }),
    }),
    # The perf benchmark's tc-cycle300-spill cell.
    ("TC", "cycle-300", dict(memory_budget=550_000, degradation=True, spill_dir=True), {
        True: (13.687660496116958, 441600, 301, {
            "partition.scatter_rows": 153000, "partition.setdiff_runs": 15,
            "partition.setdiff_tpsd_intersect": 15, "partition.shed": 1148,
        }, {
            **_SPILL, "degradation_shed_partitioning": 1148, "degradations_taken": 1354,
            "taken": ["force-tpsd", "shed-partitioning", "shed-join-cache", "spill-cold-tables", "lean-dedup"],
        }),
        False: (13.722478653333429, 441600, 301, {}, {
            **_SPILL, "degradations_taken": 206,
            "taken": ["force-tpsd", "shed-join-cache", "spill-cold-tables", "lean-dedup"],
        }),
    }),
    # Recursive aggregation (aggregate_merge) and negation (cross product, anti-join).
    ("CC", "G500", dict(), {
        True: (0.29403861000000037, 134216, 10, {"partition.dedup_runs": 1, "partition.join_runs": 7, "partition.scatter_rows": 20518}, _CC),
        False: (0.29840121000000025, 85320, 10, {}, _CC),
    }),
    ("SSSP", "G500", dict(), {
        True: (0.37677433674226835, 112712, 14, {"partition.join_runs": 12, "partition.scatter_rows": 31828}, _SSSP),
        False: (0.3830649120000005, 67512, 14, {}, _SSSP),
    }),
    ("NTC", "G500", dict(), {
        True: (0.31803064647991613, 9942576, 10, {"partition.dedup_runs": 2, "partition.scatter_rows": 7111}, _NTC),
        False: (0.32014473036488633, 9942576, 10, {}, _NTC),
    }),
]  # fmt: skip
_MODEL_COUNTER_PREFIXES = ("dedup_", "dsd_", "hash_", "degradation")


def _pin_id(program, dataset, config):
    values = (f"{k}={v}" if isinstance(v, bool) else str(v) for k, v in config.items())
    return "-".join((program, dataset, "-".join(values)))


class TestSimClockPin:
    @pytest.mark.parametrize(
        "program,dataset,config,expected",
        SIM_CLOCK_PINS,
        ids=[_pin_id(p, d, c) for p, d, c, _ in SIM_CLOCK_PINS],
    )
    def test_modeled_numbers_match_recorded(
        self, program, dataset, config, expected, tmp_path
    ):
        spec = get_program(program)
        edb = prepare_edb(spec, dataset)
        sizes = []
        for partitioned, (sim, peak, iterations, counters, *pinned) in expected.items():
            if config.get("spill_dir"):
                config = dict(config, spill_dir=str(tmp_path / f"spill-{partitioned}"))
            # fault_seed=None: a chaos run (REPRO_CHAOS_SEED) pays retries
            # on the sim clock; the pin is of the undisturbed model.
            result = RecStep(
                RecStepConfig(
                    partitioned_exec=partitioned, profile=True, fault_seed=None, **config
                )
            ).evaluate(spec, edb, dataset=dataset)
            assert result.status == "ok"
            assert result.sim_seconds == sim
            assert result.peak_memory_bytes == peak
            assert result.iterations == iterations
            assert {
                name: value
                for name, value in result.profile.counters.items()
                if name.startswith("partition.")
            } == counters
            for model_counters in pinned:
                recorded = {
                    name: value
                    for name, value in result.profile.counters.items()
                    if name.startswith(_MODEL_COUNTER_PREFIXES)
                }
                if (result.resilience or {}).get("degradations_taken"):
                    recorded["taken"] = result.resilience["degradations_taken"]
                assert recorded == model_counters
            sizes.append(result.sizes())
        # Partitioning is modeled: on and off reach the same fixpoint.
        assert sizes[0] == sizes[-1]

    def test_maintenance_batches_match_recorded(self):
        """One insert and one delete batch on a relational TC view.

        The materialize + insert half is pinned on its own (sim, peak and
        counters taken before the delete), so a change to how deletes are
        maintained re-records only the delete half.
        """
        arcs = gnp_graph(150, 0.02, seed=7)
        view = RecStep(
            RecStepConfig(**RELATIONAL, profile=True, fault_seed=None)
        ).materialize(get_program("TC"), {"arc": arcs}, dataset="ivm-pin")
        database = view.database
        pinned = ("partition.", "dsd_", "hash_", "dedup_", "ivm.")

        def model_counters():
            return {
                name: value
                for name, value in database.profiler.counters.snapshot().items()
                if name.startswith(pinned)
            }

        inserted = view.maintain(
            inserts={"arc": np.array([[0, 149], [149, 3], [77, 5], [5, 140]])}
        )
        after_insert = (database.sim_seconds, database.peak_memory_bytes)
        counters_after_insert = model_counters()
        deleted = view.maintain(deletes={"arc": arcs[:1]})
        after_delete = (database.sim_seconds, database.peak_memory_bytes)
        counters = model_counters()
        view.release()
        assert (inserted.status, deleted.status) == ("ok", "ok")
        assert (view.result.sim_seconds, view.result.peak_memory_bytes) == (
            0.5662510194845374, 981688,
        )  # fmt: skip
        assert after_insert == (0.9442519673792755, 981688)
        assert inserted.iterations == 9
        assert counters_after_insert == {
            "dedup_calls": 22, "dedup_fast_path": 22, "dedup_input_rows": 62471,
            "dedup_output_rows": 47007, "dsd_opsd_choices": 13, "dsd_tpsd_choices": 9,
            "hash_build_rows": 2974, "hash_probe_rows": 44361, "hash_tables_built": 16,
            "ivm.maintain_runs": 1, "ivm.strata_dred": 1, "partition.dedup_runs": 10,
            "partition.join_runs": 11, "partition.scatter_rows": 290114,
            "partition.setdiff_runs": 10, "partition.setdiff_tpsd_intersect": 9,
            "partition.setdiff_tpsd_subtract": 1,
        }  # fmt: skip
        # Re-recorded when over-deletion became rank-restricted: 31 rows
        # over-deleted instead of 140, and no 1.5 MB snapshot peak.
        assert after_delete == (1.1149575219497192, 981688)
        assert deleted.iterations == 2
        assert counters == {
            "dedup_calls": 24, "dedup_fast_path": 24, "dedup_input_rows": 62502,
            "dedup_output_rows": 47038, "dsd_opsd_choices": 15, "dsd_tpsd_choices": 9,
            "hash_build_rows": 3378, "hash_probe_rows": 67534, "hash_tables_built": 23,
            "ivm.maintain_runs": 2, "ivm.overdeleted_rows": 31, "ivm.rederived_rows": 31,
            "ivm.strata_dred": 2, "partition.dedup_runs": 10, "partition.join_runs": 18,
            "partition.scatter_rows": 313660, "partition.setdiff_runs": 10,
            "partition.setdiff_tpsd_intersect": 9, "partition.setdiff_tpsd_subtract": 1,
        }  # fmt: skip


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
