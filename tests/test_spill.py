"""The spill-to-disk storage tier: degrade to disk, not to shed work.

The acceptance triangle of the out-of-core tier:

* segment files have checkpoint-grade durability — tmp + fsync +
  ``os.replace`` publishes, CRC32 validation, torn files quarantined and
  surfaced as structured :class:`SpillError`, never silently read;
* running out of disk (real budget or injected ENOSPC) is not an error:
  the table stays resident, ``capacity_exhausted`` is set, and the
  ladder moves on — work is shed only when disk is *also* exhausted;
* fixpoints are bit-identical spill on/off — for TC, SG and Andersen,
  under chaos, and across a checkpoint interrupt/resume — and a
  workload that OOMs at a memory budget completes under the same budget
  with the spill tier, strictly slower.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import SpillError
from repro.core import PbmeMode, RecStep, RecStepConfig
from repro.programs import get_program
from repro.resilience import DegradationController, FaultInjector, ResilienceContext
from repro.storage.spill import SPILL_SEGMENT_ROWS, SpillManager
from repro.storage.table import make_table
from tests.conftest import aa_chain

RELATIONAL = dict(pbme=PbmeMode.OFF)

#: Calibrated so the cycle-TC fixpoint (90000 rows, 720 KB modeled)
#: cannot stay resident but completes by evicting cold prefixes.
TC_BUDGET = 550_000
SG_BUDGET = 500_000


def cycle(n: int) -> np.ndarray:
    """A directed n-cycle: TC fixpoint is all n^2 pairs, reached in ~n
    iterations of small deltas — base-dominated, the spill tier's home
    turf."""
    src = np.arange(n, dtype=np.int64)
    return np.stack([src, (src + 1) % n], axis=1)


def sg_caterpillar(m: int, n: int) -> dict[str, np.ndarray]:
    """m parallel chains of length n under a common root: the SG
    fixpoint accumulates one generation of m^2 pairs per iteration."""
    edges = [(0, i + 1) for i in range(m)]
    node = m + 1
    heads = list(range(1, m + 1))
    for _ in range(n - 1):
        grown = []
        for head in heads:
            edges.append((head, node))
            grown.append(node)
            node += 1
        heads = grown
    return {"arc": np.array(edges, dtype=np.int64)}


def _run(program, data, **overrides):
    config = dict(RELATIONAL)
    config.update(overrides)
    return RecStep(RecStepConfig(**config)).evaluate(
        get_program(program), data, dataset=f"{program.lower()}-spill"
    )


# ---------------------------------------------------------------------------
# Segment files: durability, torn reads, disk exhaustion
# ---------------------------------------------------------------------------


def _spilled_table(tmp_path, rows: int = 1000):
    table = make_table("t", ("a", "b"))
    data = np.arange(2 * rows, dtype=np.int64).reshape(rows, 2)
    table.append_array(data)
    manager = SpillManager(tmp_path / "spill")
    table.bind_spill(manager)
    return table, manager, data


class TestSegmentFiles:
    def test_spill_and_fault_in_roundtrip(self, tmp_path):
        table, manager, data = _spilled_table(tmp_path, rows=1000)
        spilled = manager.spill_table(table)
        assert spilled == 1000
        assert table.resident_rows == 0
        assert table.spilled_rows == 1000
        files = list((tmp_path / "spill").glob("*.spill"))
        assert len(files) == 1
        # The universal backstop: data() rehydrates transparently...
        assert np.array_equal(table.data(), data)
        # ...and the files are gone once absorbed.
        assert table.spilled_rows == 0
        assert not list((tmp_path / "spill").glob("*.spill"))
        assert manager.spilled_bytes() == 0

    def test_large_prefix_splits_into_segments(self, tmp_path):
        rows = 2 * SPILL_SEGMENT_ROWS + 7
        table, manager, data = _spilled_table(tmp_path, rows=rows)
        assert manager.spill_table(table) == rows
        segments = manager.segments("t")
        assert len(segments) == 3
        assert [s.start_row for s in segments] == [
            0,
            SPILL_SEGMENT_ROWS,
            2 * SPILL_SEGMENT_ROWS,
        ]
        assert sum(s.num_rows for s in segments) == rows
        assert np.array_equal(table.data(), data)

    def test_resident_tail_stays_appendable(self, tmp_path):
        table, manager, data = _spilled_table(tmp_path, rows=1000)
        manager.spill_table(table, max_rows=600)
        assert table.spilled_rows == 600
        assert table.resident_rows == 400
        tail = np.array([[9999, 9998]], dtype=np.int64)
        table.append_array(tail)
        expected = np.concatenate([data, tail])
        assert np.array_equal(table.data(), expected)

    def test_snapshot_prefix_preserves_residency(self, tmp_path):
        table, manager, data = _spilled_table(tmp_path, rows=1000)
        manager.spill_table(table)
        prefix = manager.snapshot_prefix(table)
        assert np.array_equal(prefix, data)
        # Still spilled: checkpointing must not rehydrate cold tables.
        assert table.spilled_rows == 1000
        assert list((tmp_path / "spill").glob("*.spill"))

    @pytest.mark.parametrize("corruption", ["truncate", "bitflip"])
    def test_torn_segment_quarantined(self, tmp_path, corruption):
        table, manager, _ = _spilled_table(tmp_path, rows=1000)
        manager.spill_table(table)
        (segment,) = manager.segments("t")
        raw = segment.path.read_bytes()
        if corruption == "truncate":
            segment.path.write_bytes(raw[:64])
        else:
            middle = len(raw) // 2
            segment.path.write_bytes(
                raw[:middle] + bytes([raw[middle] ^ 0xFF]) + raw[middle + 1 :]
            )
        with pytest.raises(SpillError) as excinfo:
            manager.read_segment(table, segment)
        context = excinfo.value.context
        assert context["table"] == "t"
        assert context["segment"] == segment.path.name
        assert context["start_row"] == 0
        # Quarantined, never silently read: the evidence survives.
        assert not segment.path.exists()
        assert segment.path.with_suffix(".quarantine").exists()

    def test_cleanup_sweeps_quarantined_segments(self, tmp_path):
        from repro.obs.counters import CounterRegistry

        table, manager, _ = _spilled_table(tmp_path, rows=1000)
        counters = CounterRegistry()
        manager._counters = counters
        manager.spill_table(table)
        (segment,) = manager.segments("t")
        segment.path.write_bytes(segment.path.read_bytes()[:64])
        with pytest.raises(SpillError):
            manager.read_segment(table, segment)
        quarantined = segment.path.with_suffix(".quarantine")
        assert quarantined.exists()
        # Session release ends the quarantine file's forensic life: the
        # sweep removes it so sessions don't accumulate litter.
        manager.cleanup()
        assert not quarantined.exists()
        assert not manager.directory.exists()
        assert counters.get("spill.quarantine_swept") == 1

    def test_disk_budget_exhaustion_keeps_table_resident(self, tmp_path):
        table, manager, data = _spilled_table(tmp_path, rows=1000)
        manager.disk_budget = 1  # nothing fits
        assert manager.spill_table(table) == 0
        assert manager.capacity_exhausted
        assert table.resident_rows == 1000
        assert table.spilled_rows == 0
        assert not list((tmp_path / "spill").glob("*.spill"))
        assert np.array_equal(table.data(), data)

    def test_injected_enospc_keeps_table_resident(self, tmp_path):
        table, manager, data = _spilled_table(tmp_path, rows=1000)
        # Near-certain rate: seed 7's first disk-full draw fires.
        manager.bind(
            metrics=None,
            counters=None,
            resilience=ResilienceContext(
                injector=FaultInjector(7, rate=0.999),
                degradation=DegradationController(enabled=False),
            ),
        )
        assert manager.spill_table(table) == 0
        assert manager.capacity_exhausted
        assert table.resident_rows == 1000
        assert np.array_equal(table.data(), data)

    def test_discard_removes_files_unread(self, tmp_path):
        table, manager, _ = _spilled_table(tmp_path, rows=1000)
        manager.spill_table(table)
        assert manager.discard("t") == 1
        assert not list((tmp_path / "spill").glob("*.spill"))
        assert manager.spilled_bytes() == 0


# ---------------------------------------------------------------------------
# Engine: OOM without the tier, done with it, bit-identical fixpoints
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tc_data():
    return {"arc": cycle(300)}


@pytest.fixture(scope="module")
def tc_reference(tc_data):
    """The uncontended fixpoint every spill variant must reproduce."""
    result = _run("TC", tc_data)
    assert result.status == "ok"
    return result


@pytest.fixture(scope="module")
def tc_spilled(tc_data, tmp_path_factory):
    spill_dir = tmp_path_factory.mktemp("tc") / "spill"
    result = _run(
        "TC",
        tc_data,
        memory_budget=TC_BUDGET,
        degradation=True,
        spill_dir=str(spill_dir),
    )
    return result, spill_dir


class TestSpillRung:
    def test_previously_oom_workload_completes(self, tc_data, tc_reference, tc_spilled):
        # The whole point of the tier: same budget, the full ladder
        # without spill sheds the work; with spill it completes.
        plain = _run("TC", tc_data, memory_budget=TC_BUDGET, degradation=True)
        assert plain.status == "oom"
        assert plain.failure["kind"] == "oom"

        spilled, _ = tc_spilled
        assert spilled.status == "ok"
        assert spilled.tuples == tc_reference.tuples

    def test_spill_is_slower_never_wrong(self, tc_reference, tc_spilled):
        spilled, _ = tc_spilled
        recap = spilled.resilience["spill"]
        assert recap["peak_spilled_bytes"] > 0
        assert not recap["capacity_exhausted"]
        # The I/O is on the books: strictly slower than uncontended.
        assert spilled.sim_seconds > tc_reference.sim_seconds

    def test_spill_rung_visible_in_counters(self, tc_data, tmp_path):
        result = _run(
            "TC",
            tc_data,
            memory_budget=TC_BUDGET,
            degradation=True,
            spill_dir=str(tmp_path / "spill"),
            profile=True,
        )
        assert result.status == "ok"
        counters = result.profile.counters
        assert counters["degradation_spill_cold_tables"] > 0
        assert counters["spill.segments_written"] > 0
        assert counters["spill.segment_reads"] > 0
        recap = result.resilience["spill"]
        assert recap["tables_spilled"] > 0
        assert recap["segments_written"] == counters["spill.segments_written"]

    def test_spill_dir_alone_arms_the_ladder(self, tc_data, tc_reference, tmp_path):
        # The spill rung lives on the degradation ladder, so binding a
        # spill tier without asking for degradation must still reach it.
        result = _run(
            "TC", tc_data, memory_budget=TC_BUDGET, spill_dir=str(tmp_path / "spill")
        )
        assert result.status == "ok"
        assert result.tuples == tc_reference.tuples
        assert result.resilience["spill"]["peak_spilled_bytes"] > 0

    def test_spill_directory_cleaned_after_run(self, tc_spilled):
        _, spill_dir = tc_spilled
        assert not spill_dir.exists() or not list(spill_dir.iterdir())

    def test_pbme_auto_defers_to_spill_tier(self, tc_data, tc_reference, tmp_path):
        # In AUTO mode the dense cycle graph is PBME-eligible, but the
        # materialized closure cannot stay resident at this budget: with
        # a spill tier bound in, the stratum stays relational and
        # completes instead of OOMing on extraction.
        result = RecStep(
            RecStepConfig(
                memory_budget=TC_BUDGET,
                degradation=True,
                spill_dir=str(tmp_path / "spill"),
            )
        ).evaluate(get_program("TC"), tc_data, dataset="tc-auto")
        assert result.status == "ok"
        assert result.tuples == tc_reference.tuples
        assert result.resilience["spill"]["peak_spilled_bytes"] > 0


class TestFixpointIdentityMatrix:
    def test_sg_oom_without_done_with(self, tmp_path):
        data = sg_caterpillar(40, 60)
        reference = _run("SG", data)
        assert reference.status == "ok"
        plain = _run("SG", data, memory_budget=SG_BUDGET, degradation=True)
        assert plain.status == "oom"
        spilled = _run(
            "SG",
            data,
            memory_budget=SG_BUDGET,
            degradation=True,
            spill_dir=str(tmp_path / "spill"),
        )
        assert spilled.status == "ok"
        assert spilled.tuples == reference.tuples
        assert spilled.resilience["spill"]["peak_spilled_bytes"] > 0

    def test_aa_identity_with_spill_tier_bound(self, tmp_path):
        # Andersen keeps its pts relation hot in its own rules (it is a
        # join source every iteration), so the rung rightly never evicts
        # it — the identity contract still holds with the tier bound in
        # under a tight-but-survivable budget.
        data = aa_chain(400, 60)
        reference = _run("AA", data)
        assert reference.status == "ok"
        spilled = _run(
            "AA",
            data,
            memory_budget=220_000,
            degradation=True,
            spill_dir=str(tmp_path / "spill"),
        )
        assert spilled.status == "ok"
        assert spilled.tuples == reference.tuples

    def test_chaos_identity(self, tc_data, tc_reference, tmp_path):
        # Deterministic faults at the spill I/O sites (write, read,
        # ENOSPC draws) retry or fall back — same fixpoint, never wrong.
        result = _run(
            "TC",
            tc_data,
            memory_budget=TC_BUDGET,
            degradation=True,
            spill_dir=str(tmp_path / "spill"),
            fault_seed=42,
        )
        assert result.status == "ok"
        assert result.tuples == tc_reference.tuples
        assert result.resilience["faults_injected"] > 0


class TestCheckpointResumeWithSpill:
    def test_interrupt_mid_spill_resume_identical(
        self, tc_data, tc_reference, tmp_path
    ):
        checkpoint_dir = str(tmp_path / "ckpt")
        interrupted = _run(
            "TC",
            tc_data,
            memory_budget=TC_BUDGET,
            degradation=True,
            spill_dir=str(tmp_path / "spill-a"),
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=8,
            deadline=6.0,
        )
        assert interrupted.status == "deadline"
        # The interrupt landed while blocks were on disk.
        assert interrupted.resilience["spill"]["peak_spilled_bytes"] > 0

        resumed = _run(
            "TC",
            tc_data,
            memory_budget=TC_BUDGET,
            degradation=True,
            spill_dir=str(tmp_path / "spill-b"),
            resume_from=checkpoint_dir,
        )
        assert resumed.status == "ok"
        assert resumed.tuples == tc_reference.tuples
        assert resumed.resilience["resumed_from"]["iteration"] > 0
