"""Resilient evaluation: fault injection, checkpoints, degradation, deadlines.

The acceptance triangle of the resilience layer:

* a fixed-seed fault-injected run, after retries, reaches a fixpoint
  byte-identical to the fault-free run (TC, SG, AA);
* a run killed between iterations and resumed from its checkpoint
  matches the uninterrupted run exactly;
* a workload that OOMs under the default configuration completes under
  the degradation ladder, with the degradations visible in counters.
"""

import numpy as np
import pytest

from repro.common.errors import (
    FaultRetriesExhausted,
    OutOfMemoryError,
    RecStepError,
    TransientStorageError,
)
from repro.analysis.harness import prepare_edb
from repro.core import PbmeMode, RecStep, RecStepConfig
from repro.engine.metrics import MetricsRecorder
from repro.programs import get_program
from repro.resilience import (
    LADDER,
    CheckpointError,
    CheckpointManager,
    CheckpointState,
    DegradationController,
    FaultInjector,
    ResilienceContext,
    RetryPolicy,
)
from repro.resilience import retry, runtime
from tests.conftest import aa_chain

RELATIONAL = dict(pbme=PbmeMode.OFF)


def _graph(seed: int, nodes: int, edges: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, nodes, size=(edges, 2)).astype(np.int64)


@pytest.fixture
def tc_edb():
    return {"arc": _graph(42, 120, 400)}


@pytest.fixture
def aa_edb():
    rng = np.random.default_rng(2)

    def rel(count):
        return np.unique(rng.integers(0, 30, size=(count, 2)), axis=0)

    return {
        "addressOf": rel(20),
        "assign": rel(18),
        "load": rel(8),
        "store": rel(8),
    }


# ---------------------------------------------------------------------------
# Fault injector / retry units
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_same_seed_same_draws(self):
        a = FaultInjector(11, rate=0.3)
        b = FaultInjector(11, rate=0.3)
        draws_a = [self._fires(a, "dedup") for _ in range(50)]
        draws_b = [self._fires(b, "dedup") for _ in range(50)]
        assert draws_a == draws_b
        assert any(draws_a)  # rate 0.3 over 50 visits fires sometimes

    @staticmethod
    def _fires(injector: FaultInjector, site: str) -> bool:
        try:
            injector.check(site)
            return False
        except TransientStorageError:
            return True

    def test_sites_draw_independent_streams(self):
        injector = FaultInjector(11, rate=0.5)
        a = [self._fires(injector, "dedup") for _ in range(30)]
        b = [self._fires(injector, "append") for _ in range(30)]
        assert a != b

    def test_zero_rate_never_fires(self):
        injector = FaultInjector(11, rate=0.0)
        for _ in range(100):
            injector.check("dedup")
        assert injector.total_injected() == 0

    def test_ledger_counts_by_site(self):
        injector = FaultInjector(3, rate=0.5)
        for _ in range(40):
            self._fires(injector, "commit")
        assert injector.injected.get("commit") == injector.total_injected() > 0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(1, rate=1.5)


class TestRetry:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy()
        assert policy.backoff_seconds(1) == pytest.approx(0.05)
        assert policy.backoff_seconds(2) == pytest.approx(0.1)
        assert policy.backoff_seconds(3) == pytest.approx(0.2)

    def test_jitter_desynchronizes_colliding_retriers(self):
        # Pure exponential backoff keeps a thundering herd in lockstep:
        # everyone who faulted together retries together, forever. Seeded
        # jitter breaks the collision while staying bounded below the
        # undithered schedule.
        policy = RetryPolicy(jitter_seed=77)
        a = [policy.backoff_seconds(i, salt="dedup") for i in (1, 2, 3)]
        b = [policy.backoff_seconds(i, salt="spill_write") for i in (1, 2, 3)]
        assert a != b
        for index, (x, y) in enumerate(zip(a, b), start=1):
            base = retry.BACKOFF_BASE * retry.BACKOFF_MULTIPLIER ** (index - 1)
            for value in (x, y):
                assert base * (1.0 - retry.JITTER) <= value <= base

    def test_jitter_is_deterministic_per_seed(self):
        schedule = [
            RetryPolicy(jitter_seed=5).backoff_seconds(i, salt="s")
            for i in range(1, 5)
        ]
        replay = [
            RetryPolicy(jitter_seed=5).backoff_seconds(i, salt="s")
            for i in range(1, 5)
        ]
        reseeded = [
            RetryPolicy(jitter_seed=6).backoff_seconds(i, salt="s")
            for i in range(1, 5)
        ]
        assert schedule == replay
        assert schedule != reseeded

    def test_no_jitter_seed_keeps_legacy_schedule(self):
        # jitter_seed defaults to None: existing chaos pins (and every
        # config that never arms a fault seed) see the exact old numbers.
        policy = RetryPolicy()
        assert policy.backoff_seconds(3, salt="anything") == pytest.approx(0.2)
        assert policy.backoff_seconds(3) == pytest.approx(0.2)

    def test_context_retries_then_succeeds(self):
        context = ResilienceContext(injector=FaultInjector(5, rate=0.9))
        metrics = MetricsRecorder(enforce_budgets=False)
        context.bind(metrics, metrics.counters)
        # With rate 0.9 and 4 attempts, most calls retry but eventually
        # either succeed or exhaust; run many and observe both behaviours.
        succeeded = failed = 0
        for _ in range(30):
            try:
                assert context.run("dedup", lambda: "ok") == "ok"
                succeeded += 1
            except FaultRetriesExhausted as error:
                assert error.context["site"] == "dedup"
                failed += 1
        assert succeeded and failed
        assert metrics.now() > 0  # backoff charged to the simulated clock

    def test_inert_context_is_passthrough(self):
        context = ResilienceContext()
        assert context.run("dedup", lambda: 7) == 7
        assert not context.active
        assert context.summary() == {}


# ---------------------------------------------------------------------------
# Determinism under chaos (acceptance 1)
# ---------------------------------------------------------------------------


class TestDeterminismUnderChaos:
    @pytest.mark.parametrize(
        "program,edb_seed",
        [("TC", None), ("SG", None), ("AA", None)],
    )
    def test_chaos_run_matches_fault_free(self, program, edb_seed, tc_edb, aa_edb):
        if program == "AA":
            edb = aa_edb
        elif program == "SG":
            edb = {"arc": _graph(7, 60, 150)}
        else:
            edb = tc_edb
        spec = get_program(program)
        clean = RecStep(RecStepConfig(**RELATIONAL, fault_seed=None)).evaluate(
            spec, edb, dataset="chaos"
        )
        chaos = RecStep(
            RecStepConfig(**RELATIONAL, fault_seed=1234, fault_rate=0.15)
        ).evaluate(spec, edb, dataset="chaos")
        assert clean.status == chaos.status == "ok"
        assert chaos.tuples == clean.tuples
        assert chaos.iterations == clean.iterations

    def test_chaos_is_reproducible(self, tc_edb):
        spec = get_program("TC")
        cfg = RecStepConfig(**RELATIONAL, fault_seed=99, fault_rate=0.2)
        a = RecStep(cfg).evaluate(spec, tc_edb, dataset="chaos")
        b = RecStep(cfg).evaluate(spec, tc_edb, dataset="chaos")
        assert a.tuples == b.tuples
        assert a.sim_seconds == b.sim_seconds
        assert a.resilience["fault_sites"] == b.resilience["fault_sites"]

    def test_faults_actually_injected_and_slower(self, tc_edb):
        spec = get_program("TC")
        clean = RecStep(RecStepConfig(**RELATIONAL, fault_seed=None)).evaluate(
            spec, tc_edb, dataset="chaos"
        )
        chaos = RecStep(
            RecStepConfig(**RELATIONAL, fault_seed=1234, fault_rate=0.15)
        ).evaluate(spec, tc_edb, dataset="chaos")
        assert chaos.resilience["faults_injected"] > 0
        assert chaos.sim_seconds > clean.sim_seconds

    def test_exhausted_retries_reported_not_raised(self, tc_edb, monkeypatch):
        monkeypatch.setattr(runtime, "MAX_ATTEMPTS", 2)
        result = RecStep(
            RecStepConfig(**RELATIONAL, fault_seed=8, fault_rate=0.97)
        ).evaluate(get_program("TC"), tc_edb, dataset="chaos")
        assert result.status == "fault"
        assert result.failure["error"] == "FaultRetriesExhausted"
        assert result.failure["attempts"] == 2
        assert "site" in result.failure


# ---------------------------------------------------------------------------
# Checkpoint / resume (acceptance 2)
# ---------------------------------------------------------------------------


class TestCheckpointResume:
    def test_state_roundtrip(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=1)
        state = CheckpointState(
            program="TC",
            stratum=0,
            iteration=3,
            tables={"full:tc": np.array([[1, 2], [3, 4]], dtype=np.int64)},
            dsd_mu={"tc": 2.5},
            iterations_total=4,
            sim_seconds=1.25,
        )
        path = manager.save(state)
        loaded = CheckpointManager.load(path)
        assert loaded.program == "TC"
        assert loaded.iteration == 3
        assert loaded.dsd_mu == {"tc": 2.5}
        np.testing.assert_array_equal(loaded.tables["full:tc"], state.tables["full:tc"])

    def test_prune_keeps_latest(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=1, keep=2)
        for iteration in range(5):
            manager.save(
                CheckpointState(program="TC", stratum=0, iteration=iteration)
            )
        names = sorted(p.name for p in tmp_path.glob("ckpt-*.npz"))
        assert names == ["ckpt-s000-i00003.npz", "ckpt-s000-i00004.npz"]

    def test_latest_prefers_stratum_boundary(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=1, keep=10)
        manager.save(CheckpointState(program="TC", stratum=0, iteration=7))
        manager.save(CheckpointState(program="TC", stratum=0, iteration=-1))
        latest = CheckpointManager.latest(tmp_path)
        assert latest.name == "ckpt-s000-final.npz"

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "ckpt-s000-i00001.npz"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            CheckpointManager.load(path)

    def test_load_empty_dir_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager.load(tmp_path)

    def test_resume_matches_uninterrupted(self, tmp_path, tc_edb):
        spec = get_program("TC")
        # Kill the run mid-stratum with a deadline, checkpointing each
        # iteration.
        partial = RecStep(
            RecStepConfig(
                **RELATIONAL,
                checkpoint_dir=str(tmp_path),
                checkpoint_every=1,
                deadline=0.15,
            )
        ).evaluate(spec, tc_edb, dataset="ckpt")
        assert partial.status == "deadline"
        assert partial.resilience["checkpoints_written"] > 0
        assert list(tmp_path.glob("ckpt-*.npz"))

        resumed = RecStep(
            RecStepConfig(**RELATIONAL, resume_from=str(tmp_path))
        ).evaluate(spec, tc_edb, dataset="ckpt")
        full = RecStep(RecStepConfig(**RELATIONAL)).evaluate(
            spec, tc_edb, dataset="ckpt"
        )
        assert resumed.status == full.status == "ok"
        assert resumed.tuples == full.tuples
        assert resumed.iterations == full.iterations
        assert resumed.resilience["resumed_from"]["stratum"] == 0

    def test_resume_multi_stratum_program(self, tmp_path, aa_edb):
        spec = get_program("AA")
        partial = RecStep(
            RecStepConfig(
                **RELATIONAL,
                checkpoint_dir=str(tmp_path),
                checkpoint_every=1,
                deadline=0.05,
            )
        ).evaluate(spec, aa_edb, dataset="ckpt")
        assert partial.status == "deadline"
        resumed = RecStep(
            RecStepConfig(**RELATIONAL, resume_from=str(tmp_path))
        ).evaluate(spec, aa_edb, dataset="ckpt")
        full = RecStep(RecStepConfig(**RELATIONAL)).evaluate(
            spec, aa_edb, dataset="ckpt"
        )
        assert resumed.tuples == full.tuples
        assert resumed.iterations == full.iterations

    def test_resume_rejects_wrong_program(self, tmp_path, tc_edb, aa_edb):
        RecStep(
            RecStepConfig(**RELATIONAL, checkpoint_dir=str(tmp_path))
        ).evaluate(get_program("TC"), tc_edb, dataset="ckpt")
        with pytest.raises(CheckpointError):
            RecStep(
                RecStepConfig(**RELATIONAL, resume_from=str(tmp_path))
            ).evaluate(get_program("AA"), aa_edb, dataset="ckpt")

    def test_checkpoints_charge_simulated_time(self, tmp_path, tc_edb):
        spec = get_program("TC")
        plain = RecStep(RecStepConfig(**RELATIONAL)).evaluate(
            spec, tc_edb, dataset="ckpt"
        )
        ckpt = RecStep(
            RecStepConfig(**RELATIONAL, checkpoint_dir=str(tmp_path))
        ).evaluate(spec, tc_edb, dataset="ckpt")
        assert ckpt.sim_seconds > plain.sim_seconds
        assert ckpt.tuples == plain.tuples


# ---------------------------------------------------------------------------
# Crash-safe checkpoints (atomic save, checksum, torn-file fallback)
# ---------------------------------------------------------------------------


class TestCrashSafeCheckpoints:
    @staticmethod
    def _state(iteration: int) -> CheckpointState:
        return CheckpointState(
            program="TC",
            stratum=0,
            iteration=iteration,
            tables={"full:tc": np.arange(iteration * 4, dtype=np.int64).reshape(-1, 2)},
            iterations_total=iteration + 1,
        )

    def test_save_leaves_no_temp_files(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=1)
        manager.save(self._state(1))
        assert not list(tmp_path.glob("*.tmp"))
        assert list(tmp_path.glob("ckpt-*.npz"))

    def test_meta_carries_payload_checksum(self, tmp_path):
        import json
        import zipfile

        path = CheckpointManager(tmp_path, every=1).save(self._state(2))
        with zipfile.ZipFile(path) as archive:
            names = archive.namelist()
        assert any("__meta__" in name for name in names)
        # Round-trips through load, which verifies the checksum.
        loaded = CheckpointManager.load(path)
        np.testing.assert_array_equal(loaded.tables["full:tc"], self._state(2).tables["full:tc"])

    def test_truncated_file_fails_direct_load(self, tmp_path):
        path = CheckpointManager(tmp_path, every=1).save(self._state(3))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            CheckpointManager.load(path)

    def test_checksum_detects_payload_corruption(self, tmp_path):
        # Rewrite the archive with one payload array bit-flipped but the
        # original (now stale) checksum: only the checksum can catch it.
        import zipfile

        path = CheckpointManager(tmp_path, every=1).save(self._state(3))
        with zipfile.ZipFile(path) as archive:
            entries = {name: archive.read(name) for name in archive.namelist()}
        victim = next(n for n in entries if n.startswith("table:"))
        blob = bytearray(entries[victim])
        blob[-1] ^= 0xFF  # flip bits in the row payload at the tail
        entries[victim] = bytes(blob)
        with zipfile.ZipFile(path, "w") as archive:
            for name, payload in entries.items():
                archive.writestr(name, payload)
        with pytest.raises(CheckpointError, match="checksum"):
            CheckpointManager.load(path)

    def test_directory_load_skips_torn_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=1, keep=5)
        manager.save(self._state(1))
        newest = manager.save(self._state(2))
        newest.write_bytes(newest.read_bytes()[:64])
        loaded = CheckpointManager.load(tmp_path)
        assert loaded.iteration == 1  # fell back to the predecessor

    def test_latest_skips_torn_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=1, keep=5)
        older = manager.save(self._state(1))
        newest = manager.save(self._state(2))
        newest.write_bytes(b"")
        assert CheckpointManager.latest(tmp_path) == older

    def test_all_torn_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=1, keep=5)
        for iteration in (1, 2):
            path = manager.save(self._state(iteration))
            path.write_bytes(b"torn")
        with pytest.raises(CheckpointError):
            CheckpointManager.load(tmp_path)

    def test_prune_deletes_corrupt_instead_of_counting_toward_keep(self, tmp_path):
        """Regression: a torn file must not occupy a retention slot.

        Before the fix, ``_prune`` counted checksum-failing files toward
        ``keep``, so repeated crashes could evict every good snapshot.
        """
        from repro.obs.profiler import Profiler

        profiler = Profiler()
        manager = CheckpointManager(tmp_path, every=1, keep=2, profiler=profiler)
        manager.save(self._state(1))
        torn = manager.save(self._state(2))
        torn.write_bytes(torn.read_bytes()[:64])  # crashed writer
        manager.save(self._state(3))

        survivors = sorted(p.name for p in tmp_path.glob("ckpt-*.npz"))
        # The torn i2 was deleted; the *valid* predecessor i1 kept its slot.
        assert survivors == ["ckpt-s000-i00001.npz", "ckpt-s000-i00003.npz"]
        assert profiler.counters.get("checkpoint_corrupt_pruned") == 1
        # And the retained window resumes cleanly.
        assert CheckpointManager.load(tmp_path).iteration == 3

    def test_crashed_writer_resume_matches_uninterrupted(self, tmp_path, tc_edb):
        """The satellite acceptance: truncate the newest checkpoint as a
        crashed writer would leave it; resume must fall back to the
        previous one and still reach the identical fixpoint."""
        spec = get_program("TC")
        partial = RecStep(
            RecStepConfig(
                **RELATIONAL,
                checkpoint_dir=str(tmp_path),
                checkpoint_every=1,
                deadline=0.15,
            )
        ).evaluate(spec, tc_edb, dataset="ckpt")
        assert partial.status == "deadline"
        checkpoints = sorted(tmp_path.glob("ckpt-*.npz"))
        assert len(checkpoints) >= 2  # keep=2 default: newest two survive

        newest = CheckpointManager.latest(tmp_path)
        data = newest.read_bytes()
        newest.write_bytes(data[: len(data) // 2])  # torn mid-write

        resumed = RecStep(
            RecStepConfig(**RELATIONAL, resume_from=str(tmp_path))
        ).evaluate(spec, tc_edb, dataset="ckpt")
        full = RecStep(RecStepConfig(**RELATIONAL)).evaluate(
            spec, tc_edb, dataset="ckpt"
        )
        assert resumed.status == full.status == "ok"
        assert resumed.tuples == full.tuples
        assert resumed.iterations == full.iterations
        assert resumed.resilience["checkpoint_corrupt_skipped"] >= 1


# ---------------------------------------------------------------------------
# Runtime divergence guards (max_iterations / max_total_rows)
# ---------------------------------------------------------------------------


class TestDivergenceGuard:
    def test_max_iterations_trips_structurally(self, tc_edb):
        result = RecStep(
            RecStepConfig(**RELATIONAL, max_iterations=3)
        ).evaluate(get_program("TC"), tc_edb, dataset="guard")
        assert result.status == "guard"
        assert result.failure["error"] == "DivergenceGuardTripped"
        assert result.failure["kind"] == "max_iterations"
        assert result.failure["observed"] > result.failure["budget"] == 3
        assert result.resilience["guard"]["iterations"] == result.failure["observed"]

    def test_max_total_rows_trips_structurally(self, tc_edb):
        result = RecStep(
            RecStepConfig(**RELATIONAL, max_total_rows=100)
        ).evaluate(get_program("TC"), tc_edb, dataset="guard")
        assert result.status == "guard"
        assert result.failure["kind"] == "max_total_rows"
        assert result.failure["observed"] > 100

    def test_exact_budget_completes(self, tc_edb):
        free = RecStep(RecStepConfig(**RELATIONAL)).evaluate(
            get_program("TC"), tc_edb, dataset="guard"
        )
        exact = RecStep(
            RecStepConfig(**RELATIONAL, max_iterations=free.iterations)
        ).evaluate(get_program("TC"), tc_edb, dataset="guard")
        assert exact.status == "ok"
        assert exact.tuples == free.tuples

    def test_guard_covers_pbme_path(self, tc_edb):
        # The default config routes TC through the bit-matrix evaluator,
        # which accounts its batch of iterations at the stratum boundary.
        result = RecStep(RecStepConfig(max_iterations=2)).evaluate(
            get_program("TC"), tc_edb, dataset="guard"
        )
        assert result.status == "guard"
        assert result.failure["kind"] == "max_iterations"

    def test_generous_budgets_do_not_fire(self, tc_edb):
        result = RecStep(
            RecStepConfig(**RELATIONAL, max_iterations=10_000, max_total_rows=10**9)
        ).evaluate(get_program("TC"), tc_edb, dataset="guard")
        assert result.status == "ok"
        recap = result.resilience["guard"]
        # Productive iterations only: TC is one recursive stratum, so
        # exactly the converging (empty-delta) iteration is excluded.
        assert recap["iterations"] == result.iterations - 1
        assert "soft_warnings" not in recap

    def test_soft_warning_escalates_degradation_ladder(self, tc_edb):
        free = RecStep(RecStepConfig(**RELATIONAL)).evaluate(
            get_program("TC"), tc_edb, dataset="guard"
        )
        # Budget sized so the run finishes inside it but crosses the 80%
        # soft fraction: the warning fires and escalates the ladder.
        result = RecStep(
            RecStepConfig(
                **RELATIONAL,
                max_iterations=free.iterations,
                degradation=True,
                profile=True,
            )
        ).evaluate(get_program("TC"), tc_edb, dataset="guard")
        assert result.status == "ok"
        assert result.resilience["guard"]["soft_warnings"] == ["max_iterations"]
        assert result.profile.counters.get("guard.soft_warnings", 0) >= 1
        assert result.resilience.get("pressure_level", 0) >= 1

    def test_failure_kind_discriminators(self, tc_edb):
        spec = get_program("TC")
        cases = {
            "deadline": RecStepConfig(**RELATIONAL, deadline=0.1),
            "max_iterations": RecStepConfig(**RELATIONAL, max_iterations=2),
            "oom": RecStepConfig(**RELATIONAL, memory_budget=200_000),
        }
        kinds = {
            name: RecStep(cfg).evaluate(spec, tc_edb, dataset="kinds").failure["kind"]
            for name, cfg in cases.items()
        }
        assert kinds == {
            "deadline": "deadline",
            "max_iterations": "max_iterations",
            "oom": "oom",
        }

    def test_invalid_budgets_rejected(self):
        from repro.resilience import RuntimeGuard

        with pytest.raises(ValueError):
            RuntimeGuard(max_iterations=0)
        with pytest.raises(ValueError):
            RuntimeGuard(max_total_rows=-5)
        with pytest.raises(ValueError):
            RuntimeGuard(deadline=-1.0)


# ---------------------------------------------------------------------------
# Degradation ladder (acceptance 3)
# ---------------------------------------------------------------------------


class TestDegradationLadder:
    def test_ladder_rescues_oom_workload(self, tc_edb):
        spec = get_program("TC")
        free = RecStep(
            RecStepConfig(**RELATIONAL, enforce_budgets=False)
        ).evaluate(spec, tc_edb, dataset="oom")
        budget = int(free.peak_memory_bytes * 0.9)

        plain = RecStep(
            RecStepConfig(**RELATIONAL, memory_budget=budget)
        ).evaluate(spec, tc_edb, dataset="oom")
        assert plain.status == "oom"
        assert plain.failure["error"] == "OutOfMemoryError"
        assert plain.failure["modeled_bytes"] > budget

        rescued = RecStep(
            RecStepConfig(
                **RELATIONAL, memory_budget=budget, degradation=True, profile=True
            )
        ).evaluate(spec, tc_edb, dataset="oom")
        assert rescued.status == "ok"
        assert rescued.tuples == free.tuples
        assert rescued.resilience["degradations_taken"]
        counters = rescued.profile.counters
        assert counters.get("degradations_taken", 0) > 0
        assert counters.get("dedup_lean_path", 0) > 0
        assert counters.get("memory_pressure_soft", 0) > 0

    def test_degradation_off_by_default(self):
        controller = DegradationController()
        controller.on_pressure(2, 0.99)
        assert not any(controller.engaged(step) for step in LADDER)

    def test_unknown_step_raises_even_when_off(self):
        for controller in (DegradationController(), DegradationController(enabled=True)):
            with pytest.raises(KeyError):
                controller.engaged("lean-dedupe")

    def test_ladder_escalates_sticky(self):
        controller = DegradationController(enabled=True)
        controller.on_pressure(1, 0.85)
        assert controller.engaged("lean-dedup")
        assert not controller.engaged("force-tpsd")
        controller.on_pressure(2, 0.96)
        assert controller.engaged("force-tpsd")
        controller.on_pressure(1, 0.85)  # never de-escalates
        assert controller.engaged("force-tpsd")

    def test_preflight_headroom_check(self):
        metrics = MetricsRecorder(memory_budget=1000, enforce_budgets=False)
        metrics.set_base_bytes(500)
        controller = DegradationController(enabled=True)
        controller.bind(metrics, metrics.counters)
        # 500 + 400 = 90% >= the 80% soft watermark: degrade pre-flight.
        assert controller.engaged("lean-dedup", planned_bytes=400)
        # 500 + 100 = 60%: no reason to degrade.
        assert not controller.engaged("lean-dedup", planned_bytes=100)

    def test_watermark_events_recorded(self):
        metrics = MetricsRecorder(memory_budget=1000, enforce_budgets=False)
        metrics.set_base_bytes(810)
        assert metrics.pressure_level == 1
        metrics.set_base_bytes(960)
        assert metrics.pressure_level == 2
        assert metrics.pressure_events == 2
        metrics.set_base_bytes(100)  # sticky: level stays
        assert metrics.pressure_level == 2


def _ladder_config(name: str, tmp_path):
    """One of the three evidence configurations: (program, edb, config)."""
    spill = str(tmp_path / "spill")
    if name == "A":
        # tests/test_spill.py's AA assignment chain under a tight budget.
        config = dict(**RELATIONAL, memory_budget=220_000, spill_dir=spill)
        return get_program("AA"), aa_chain(400, 60), config
    if name == "B":
        # The ledger's AA/andersen-5/tight entry (tests/ledger.py).
        spec = get_program("AA")
        return spec, prepare_edb(spec, "andersen-5"), dict(memory_budget=4_200_000)
    # The long-chain benchmark's spill cell.
    spec = get_program("TC")
    return spec, prepare_edb(spec, "cycle-300"), dict(memory_budget=550_000, spill_dir=spill)


class TestLadderEvidence:
    """Every rung earns its place: refusing it alone turns a run that the
    full ladder completes into an OOM."""

    #: Ladder step -> the configuration that needs it.
    WITNESS = {
        "shed-join-cache": "A",
        "shed-partitioning": "B",
        "lean-dedup": "B",
        "spill-cold-tables": "C",
        "force-tpsd": "A",
    }

    @staticmethod
    def _evaluate(name: str, tmp_path):
        spec, edb, config = _ladder_config(name, tmp_path)
        # fault_seed=None: like the sim-clock pins, the undisturbed model.
        engine = RecStep(RecStepConfig(degradation=True, fault_seed=None, **config))
        return engine.evaluate(spec, edb, dataset=f"ladder-{name}")

    def test_every_step_has_a_witness(self):
        assert set(self.WITNESS) == set(LADDER)

    @pytest.mark.parametrize("name", sorted(set(WITNESS.values())))
    def test_full_ladder_completes(self, name, tmp_path):
        assert self._evaluate(name, tmp_path).status == "ok"

    @pytest.mark.parametrize("step", sorted(WITNESS))
    def test_refusing_the_step_runs_out_of_memory(self, step, tmp_path, monkeypatch):
        engaged = DegradationController.engaged

        def refuse(controller, name, planned_bytes=0):
            return name != step and engaged(controller, name, planned_bytes)

        monkeypatch.setattr(DegradationController, "engaged", refuse)
        assert self._evaluate(self.WITNESS[step], tmp_path).status == "oom"


# ---------------------------------------------------------------------------
# Cancellation / deadline (partial results)
# ---------------------------------------------------------------------------


class TestCancellation:
    def test_deadline_produces_partial_report(self, tc_edb):
        result = RecStep(
            RecStepConfig(**RELATIONAL, deadline=0.1)
        ).evaluate(get_program("TC"), tc_edb, dataset="dl")
        assert result.status == "deadline"
        assert result.failure["reason"] == "deadline"
        assert result.failure["stratum"] == 0
        assert result.failure["iteration"] >= 0
        assert result.sim_seconds >= 0.1
        assert result.resilience["cancelled"] is True

    def test_generous_deadline_does_not_fire(self, tc_edb):
        result = RecStep(
            RecStepConfig(**RELATIONAL, deadline=1e6)
        ).evaluate(get_program("TC"), tc_edb, dataset="dl")
        assert result.status == "ok"


# ---------------------------------------------------------------------------
# Error hierarchy (satellite: structured context)
# ---------------------------------------------------------------------------


class TestErrorHierarchy:
    def test_oom_and_timeout_are_recstep_errors(self):
        from repro.common.errors import EvaluationTimeout

        assert issubclass(OutOfMemoryError, RecStepError)
        assert issubclass(EvaluationTimeout, RecStepError)

    def test_context_accumulates_outermost_loses(self):
        error = OutOfMemoryError("boom", modeled_bytes=100)
        error.add_context(stratum=2, modeled_bytes=999)
        assert error.context == {"modeled_bytes": 100, "stratum": 2}
        assert error.to_dict()["error"] == "OutOfMemoryError"
        assert "stratum=2" in str(error)

    def test_failure_context_from_oom_run(self, tc_edb):
        result = RecStep(
            RecStepConfig(**RELATIONAL, memory_budget=200_000)
        ).evaluate(get_program("TC"), tc_edb, dataset="oom")
        assert result.status == "oom"
        assert result.failure["memory_budget"] == 200_000
        assert "stratum" in result.failure
