"""The iteration-persistent join-state cache and its satellite fixes.

Acceptance criteria covered here:

* cache on/off reach byte-identical fixpoints (TC, SG, Andersen);
* checkpoint resume with the cache matches the uninterrupted run;
* per-iteration cost stays flat late in a long chain (cost ~ |Δ|, not
  |full|) and the ``join_cache.*`` counters land in the ProfileReport;
* stale-estimate fallback: rewrites (epoch bumps) force live row counts,
  appends legitimately keep statistics stale;
* dedup's transient pre-flight and actual allocation share one sizing
  rule, including the wide-tuple (unpackable) degradation.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PbmeMode, RecStep, RecStepConfig
from repro.core.setdiff_policy import DsdPolicy
from repro.datasets import load_dataset
from repro.engine import kernels
from repro.engine.database import Database
from repro.engine.executor import INDEX_ROW_BYTES, plan_transient
from repro.engine.executor import plan_transient as planned_transient_bytes
from repro.engine.joincache import JoinStateCache, _bitmap_of, _set_bits
from repro.obs.tracer import CATEGORY_ITERATION
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


class TestIdenticalFixpoints:
    @pytest.mark.parametrize("program,edb", [("TC", "tc_edb"), ("SG", "sg_edb"), ("AA", "aa_edb")])
    def test_cache_on_off_byte_identical(self, program, edb, request):
        edb_data = request.getfixturevalue(edb)
        spec = get_program(program)
        cached = RecStep(RecStepConfig(**RELATIONAL, join_cache=True)).evaluate(
            spec, edb_data, dataset="jc"
        )
        plain = RecStep(RecStepConfig(**RELATIONAL, join_cache=False)).evaluate(
            spec, edb_data, dataset="jc"
        )
        assert cached.status == plain.status == "ok"
        assert cached.tuples == plain.tuples
        assert cached.iterations == plain.iterations

    def test_cache_saves_modeled_time(self, tc_edb):
        spec = get_program("TC")
        cached = RecStep(RecStepConfig(**RELATIONAL, join_cache=True)).evaluate(
            spec, tc_edb, dataset="jc"
        )
        plain = RecStep(RecStepConfig(**RELATIONAL, join_cache=False)).evaluate(
            spec, tc_edb, dataset="jc"
        )
        assert cached.sim_seconds < plain.sim_seconds

    def test_counters_reported(self, tc_edb):
        result = RecStep(RecStepConfig(**RELATIONAL, profile=True)).evaluate(
            get_program("TC"), tc_edb, dataset="jc"
        )
        counters = result.profile.counters
        assert counters.get("join_cache.miss", 0) > 0
        assert counters.get("join_cache.extend", 0) > 0
        assert counters.get("join_cache.extend_rows", 0) > 0
        disabled = RecStep(
            RecStepConfig(**RELATIONAL, profile=True, join_cache=False)
        ).evaluate(get_program("TC"), tc_edb, dataset="jc")
        assert not any(
            name.startswith("join_cache.") for name in disabled.profile.counters
        )


class TestCheckpointResume:
    def test_resume_with_cache_matches_uninterrupted(self, tmp_path, tc_edb):
        spec = get_program("TC")
        partial = RecStep(
            RecStepConfig(
                **RELATIONAL,
                checkpoint_dir=str(tmp_path),
                checkpoint_every=1,
                deadline=0.1,
            )
        ).evaluate(spec, tc_edb, dataset="jc-ckpt")
        assert partial.status == "deadline"
        resumed = RecStep(
            RecStepConfig(**RELATIONAL, resume_from=str(tmp_path), profile=True)
        ).evaluate(spec, tc_edb, dataset="jc-ckpt")
        full = RecStep(RecStepConfig(**RELATIONAL)).evaluate(
            spec, tc_edb, dataset="jc-ckpt"
        )
        assert resumed.status == full.status == "ok"
        assert resumed.tuples == full.tuples
        assert resumed.iterations == full.iterations
        # Rehydration rebuilt the full-table indexes before iterating.
        assert resumed.profile.counters.get("join_cache.miss", 0) > 0


class TestFlatLateIterations:
    @staticmethod
    def _iteration_durations(result) -> list[float]:
        durations = []
        for root in result.profile.roots:
            for span in root.walk():
                if span.category == CATEGORY_ITERATION:
                    durations.append(span.duration)
        return durations

    def test_late_iteration_cost_tracks_delta_not_full(self):
        """A pure chain: every iteration's Δ is one tuple while |full|
        grows linearly. With the cache, the per-iteration cost must stop
        growing with |full| — the tentpole's acceptance curve."""
        chain = np.array([[i, i + 1] for i in range(120)], dtype=np.int64)
        spec = get_program("TC")
        cached = RecStep(
            RecStepConfig(**RELATIONAL, profile=True, join_cache=True)
        ).evaluate(spec, {"arc": chain}, dataset="chain")
        plain = RecStep(
            RecStepConfig(**RELATIONAL, profile=True, join_cache=False)
        ).evaluate(spec, {"arc": chain}, dataset="chain")
        cached_durations = self._iteration_durations(cached)
        plain_durations = self._iteration_durations(plain)
        assert len(cached_durations) == len(plain_durations) > 40

        def late_growth(durations: list[float]) -> float:
            early = np.mean(durations[10:20])
            late = np.mean(durations[-10:])
            return late / early

        # |full| grows ~6x between the windows; the uncached run's
        # iterations get measurably slower while the cached run's do not.
        assert late_growth(cached_durations) < late_growth(plain_durations)
        assert late_growth(cached_durations) < 1.5
        # And the cached tail is absolutely cheaper.
        assert np.mean(cached_durations[-10:]) < np.mean(plain_durations[-10:])


class TestStaleEstimates:
    def test_rewrite_epoch_falls_back_to_live_count(self):
        db = Database(enforce_budgets=False)
        db.load_table("t", ("x", "y"), np.arange(200, dtype=np.int64).reshape(-1, 2))
        db.analyze("t")
        assert db.catalog.estimated_rows("t") == 100
        db.replace_rows("t", np.array([[1, 2]], dtype=np.int64))
        # Stats still describe the old contents, but the epoch mismatch
        # makes the estimate fall back to the live row count.
        assert db.catalog.get_stats("t").num_rows == 100
        assert db.catalog.estimated_rows("t") == 1

    def test_append_keeps_statistics_stale(self):
        db = Database(enforce_budgets=False)
        db.load_table("t", ("x", "y"), np.array([[1, 2]], dtype=np.int64))
        db.analyze("t")
        db.append_rows("t", np.arange(200, dtype=np.int64).reshape(-1, 2))
        # Appends bump the version but not the epoch: the OOF failure
        # mode (stale-but-valid statistics) is preserved by design.
        table = db.catalog.get_table("t")
        assert table.version > 0 and table.epoch == 0
        assert db.catalog.estimated_rows("t") == 1


class TestDedupSizing:
    def test_preflight_equals_actual_for_wide_tuples(self):
        # The satellite bug: the pre-flight assumed the compact CCK
        # sizing even when wide tuples degrade dedup to the generic
        # hash table. One rule now serves both sides.
        n, width = 1000, 2
        assert planned_transient_bytes(n, width, fast=True, packable=False) == (
            plan_transient(n, width, fast=False)
        )
        assert planned_transient_bytes(n, width, fast=True, packable=True) < (
            planned_transient_bytes(n, width, fast=True, packable=False)
        )

    def test_wide_tuples_trigger_lean_dedup_preflight(self):
        """Watermark regression: with unpackable 40-bit values the
        planned generic allocation breaches the soft watermark and dedup
        must take the lean path up front instead of blowing the budget
        mid-operation."""
        n = 2000
        rng = np.random.default_rng(9)
        # Two ~33-bit columns: 66 key bits, over the 63-bit CCK limit.
        wide = rng.integers(0, 1 << 33, size=(n, 2), dtype=np.int64)
        db = Database(
            enforce_budgets=False,
            memory_budget=120_000,
            resilience=ResilienceContext(
                degradation=DegradationController(enabled=True)
            ),
            profile=True,
            join_cache=False,
        )
        db.load_table("t", ("x", "y"), wide)
        db.analyze("t")
        cck_plan = plan_transient(n, 2, fast=True, packable=True)
        generic_plan = plan_transient(n, 2, fast=True, packable=False)
        # The regression window: the buggy CCK-sized pre-flight stays
        # under the soft watermark, the correct generic-sized one crosses it.
        assert db.metrics.budget_fraction(cck_plan) < db.metrics.soft_watermark
        assert db.metrics.budget_fraction(generic_plan) >= db.metrics.soft_watermark
        db.dedup_table("t")
        assert db.profiler.counters.get("dedup_lean_path") == 1


class TestDsdPolicyWithCache:
    def test_warm_cache_keeps_opsd_in_tpsd_territory(self):
        policy = DsdPolicy()
        # Deep TPSD territory classically: |R| huge, Δ tiny.
        assert policy.choose(100_000, 1) == "TPSD"
        # With a warm index the OPSD build is the 1-row extension.
        assert policy.choose(100_000, 1, cached_extension=1) == "OPSD"

    def test_cold_cache_changes_nothing(self):
        policy = DsdPolicy()
        # Extension == |R| (cold index): same decision as no cache.
        assert policy.choose(100_000, 1, cached_extension=100_000) == "TPSD"


class TestCacheMechanics:
    def test_memory_counted_as_resident(self):
        db = Database(enforce_budgets=False)
        rows = np.arange(400, dtype=np.int64).reshape(-1, 2)
        db.load_table("r", ("x", "y"), rows)
        db.load_table("s", ("x", "y"), rows)
        before = db.metrics.base_bytes
        entry, event = db.join_cache.acquire(db._context(), "r", ("x",))
        assert event == "miss"
        assert db.metrics.base_bytes == before + entry.memory_bytes()
        assert entry.memory_bytes() == 200 * INDEX_ROW_BYTES

    def test_extend_then_hit_then_rewrite_evicts(self):
        db = Database(enforce_budgets=False, profile=True)
        db.load_table("r", ("x", "y"), np.arange(100, dtype=np.int64).reshape(-1, 2))
        ctx = db._context()
        _, first = db.join_cache.acquire(ctx, "r", ("x",))
        db.append_rows("r", np.array([[5, 7]], dtype=np.int64))
        _, second = db.join_cache.acquire(ctx, "r", ("x",))
        _, third = db.join_cache.acquire(ctx, "r", ("x",))
        assert (first, second, third) == ("miss", "extend", "hit")
        db.replace_rows("r", np.array([[1, 2]], dtype=np.int64))
        assert len(db.join_cache) == 0  # rewrite evicted eagerly
        assert db.profiler.counters.get("join_cache.evict") == 1

    def test_domain_escape_rebuilds_not_corrupts(self):
        db = Database(enforce_budgets=False, profile=True)
        db.load_table("r", ("x", "y"), np.arange(100, dtype=np.int64).reshape(-1, 2))
        ctx = db._context()
        entry, _ = db.join_cache.acquire(ctx, "r", ("x", "y"))
        assert entry.codec is not None
        # Append a value far outside the padded domains.
        db.append_rows("r", np.array([[1 << 45, 7]], dtype=np.int64))
        entry, event = db.join_cache.acquire(ctx, "r", ("x", "y"))
        assert event == "rebuild"
        assert entry.rows_indexed == 51

    def test_wide_key_uses_dictionary(self):
        # Too wide to pack: the entry is keyed by the rows' records.
        db = Database(enforce_budgets=False)
        wide = np.arange(60, dtype=np.int64).reshape(-1, 2) * (1 << 40)
        db.load_table("r", ("x", "y"), wide)
        ctx = db._context()
        entry, _ = db.join_cache.acquire(ctx, "r", ("x", "y"))
        assert entry.codec is None and entry.runs[0].dtype.names == ("f0", "f1")
        db.append_rows("r", np.array([[7, 7]], dtype=np.int64))
        entry, event = db.join_cache.acquire(ctx, "r", ("x", "y"))
        assert event == "extend"  # records never overflow
        probe = entry.probe_codes(
            [np.array([7], dtype=np.int64), np.array([7], dtype=np.int64)]
        )
        assert entry.contains(probe).tolist() == [True]

    def test_empty_table_then_growth(self):
        db = Database(enforce_budgets=False)
        db.load_table("r", ("x", "y"), np.empty((0, 2), dtype=np.int64))
        ctx = db._context()
        entry, event = db.join_cache.acquire(ctx, "r", ("x",))
        assert event == "miss" and entry.rows_indexed == 0
        probe = entry.probe_codes([np.array([5], dtype=np.int64)])
        assert not bool(entry.contains(probe).any())

    def test_disabled_cache_is_inert(self):
        cache = JoinStateCache(enabled=False)
        db = Database(enforce_budgets=False, join_cache=False)
        db.load_table("r", ("x", "y"), np.arange(10, dtype=np.int64).reshape(-1, 2))
        assert db.join_cache_extension("r") is None
        db.execute("SELECT r.x AS x FROM r r")
        assert len(db.join_cache) == 0
        assert len(cache) == 0


#: Append batches: mostly small non-negative rows (packable codec), and
#: one shape whose first batch is wide enough to key the index by records.
_append_batches = st.lists(
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=30),
    min_size=1,
    max_size=14,
)


class TestWholeRowRuns:
    """A whole-row entry keeps sorted runs; a flat sorted array is the spec."""

    @given(_append_batches, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_runs_answer_like_one_sorted_array(self, batches, wide):
        scale = (1 << 40) if wide else 1
        db = Database(enforce_budgets=False)
        # The first rows pin the codec's domains, so every append extends.
        corners = np.array([[0, 0], [40, 40]], dtype=np.int64) * scale
        db.load_table("r", ("x", "y"), corners)
        db.load_table("s", ("x", "y"), np.empty((0, 2), dtype=np.int64))
        ctx = db._context()
        table = db.catalog.get_table("r")
        probes = np.array([(x, y) for x in range(0, 41, 3) for y in range(0, 41, 5)])
        probes = probes.astype(np.int64) * scale
        entry, _ = db.join_cache.acquire(ctx, "r", ("x", "y"))
        #: The pre-runs index: one stable argsort, then merge_sorted_index.
        flat_codes, flat_positions = kernels.sort_index(entry.probe_codes([corners[:, 0], corners[:, 1]]))
        for batch in batches:
            rows = np.asarray(batch, dtype=np.int64) * scale
            before = table.num_rows
            db.append_rows("r", rows)
            entry, event = db.join_cache.acquire(ctx, "r", ("x", "y"))
            assert event == "extend" and (entry.codec is None) == wide
            assert entry.sorted_positions is None
            assert entry.rows_indexed == table.num_rows
            if entry.bitmap is None:  # runs' shape; a dense entry has none
                assert sum(run.size for run in entry.runs) == table.num_rows
                assert len(entry.runs) <= int(np.log2(table.num_rows)) + 1
                # ``>=`` has no loop for a wide entry's records.
                assert all(np.array_equal(run, np.sort(run)) for run in entry.runs)
            flat_codes, flat_positions = kernels.merge_sorted_index(
                flat_codes,
                flat_positions,
                entry.probe_codes([rows[:, 0], rows[:, 1]]),
                np.arange(before, table.num_rows, dtype=np.int64),
            )
            # Every anti-probe: as one flat sorted array would answer it.
            codes = entry.probe_codes([probes[:, 0], probes[:, 1]])
            present = {tuple(row) for row in table.data().tolist()}
            expected = [tuple(row) in present for row in probes.tolist()]
            assert entry.contains(codes).tolist() == expected
            assert kernels.isin_sorted(codes, flat_codes).tolist() == expected
            # Δ − R through the statement that owns the entry.
            db.replace_rows("s", probes)
            delta = db.set_difference("s", "r", "OPSD").delta
            assert {tuple(row) for row in delta.tolist()} == {
                tuple(row) for row, hit in zip(probes.tolist(), expected) if not hit
            }
        # A join on every column gets the flat (codes, positions) pair the
        # merged index used to hold, built on demand ...
        codes, positions = entry.flat_index(table)
        assert np.array_equal(codes, flat_codes)
        assert np.array_equal(positions, flat_positions)
        assert entry.flat_index(table)[1] is positions
        # ... and the next extend drops it again.
        db.append_rows("r", np.array([[41, 41]], dtype=np.int64) * scale)
        entry, event = db.join_cache.acquire(ctx, "r", ("x", "y"))
        assert event == "extend" and entry.sorted_positions is None
        assert entry.contains(entry.probe_codes([probes[:1, 0] * 0 + 41 * scale] * 2)).all()

    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=12),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_dense_bitmap_answers_like_one_sorted_array(self, batches):
        """Corners 0..7 pad to 4-bit domains: 256 codes, a bitmap from 4
        rows. Two rows start on runs; the appends switch the entry."""
        db = Database(enforce_budgets=False)
        db.load_table("r", ("x", "y"), np.array([[0, 0], [7, 7]], dtype=np.int64))
        ctx = db._context()
        table = db.catalog.get_table("r")
        values = np.arange(-3, 20, dtype=np.int64)  # 16..19 are out of domain
        probes = np.array([(x, y) for x in values for y in values], dtype=np.int64)
        outside = (probes < 0).any(axis=1) | (probes > 15).any(axis=1)
        entry, _ = db.join_cache.acquire(ctx, "r", ("x", "y"))
        assert entry.bitmap is None and entry.codec.total_bits == 8
        # The top code is set, so a -1 probe gathers a byte with its bit on.
        for batch in batches + [[(15, 15)]]:
            db.append_rows("r", np.asarray(batch, dtype=np.int64))
            entry, event = db.join_cache.acquire(ctx, "r", ("x", "y"))
            assert event == "extend" and entry.sorted_positions is None
            assert (entry.bitmap is not None) == (table.num_rows >= 4)
            codes = entry.probe_codes([probes[:, 0], probes[:, 1]])
            rows = table.data()
            flat = np.sort(entry.probe_codes([rows[:, 0], rows[:, 1]]))
            assert entry.contains(codes).tolist() == kernels.isin_sorted(codes, flat).tolist()
            assert (codes[outside] == -1).all() and not entry.contains(codes)[outside].any()
        # A join on every column still gets the flat pair, built on demand.
        expected = kernels.sort_index(entry.probe_codes([rows[:, 0], rows[:, 1]]))
        codes, positions = entry.flat_index(table)
        assert np.array_equal(codes, expected[0]) and np.array_equal(positions, expected[1])
        # A Δ that escapes the codec's domains rebuilds with wider ones.
        db.append_rows("r", np.array([[5, 500]], dtype=np.int64))
        entry, event = db.join_cache.acquire(ctx, "r", ("x", "y"))
        assert event == "rebuild" and entry.rows_indexed == table.num_rows
        codes = entry.probe_codes([np.array([5, 6]), np.array([500, 500])])
        assert entry.contains(codes).tolist() == [True, False]

    def test_bitmap_bits_cost_per_code_not_per_code_space(self):
        """Build and extend match ``packbits`` of a bool array, and neither
        allocates an array the size of the code space (2**20 codes)."""
        space = 1 << 20
        codes = np.random.default_rng(3).choice(space, 14_000, replace=False)
        first, delta = codes[:4_000], codes[4_000:]
        tracemalloc.start()
        bitmap = _bitmap_of(first, space)
        resident, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _set_bits(bitmap, delta)
        extend_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert build_peak < space // 8 + 64 * first.size
        assert extend_peak - resident < 64 * delta.size
        present = np.zeros(space, dtype=bool)
        present[codes] = True
        assert np.array_equal(bitmap, np.packbits(present, bitorder="little"))

    def test_wide_and_single_column_entries_stay_on_runs(self):
        db = Database(enforce_budgets=False)
        dense = np.array([(x, y) for x in range(20) for y in range(20)], dtype=np.int64)
        db.load_table("wide", ("x", "y"), dense << 40)
        db.load_table("unary", ("x",), np.arange(400, dtype=np.int64).reshape(-1, 1))
        db.load_table("pair", ("x", "y"), dense)
        ctx = db._context()
        for name, columns in (("wide", ("x", "y")), ("unary", ("x",)), ("pair", ("x", "y"))):
            entry, _ = db.join_cache.acquire(ctx, name, columns)
            on_runs = name != "pair"
            assert (entry.bitmap is None) == on_runs
            assert len(entry.runs) == (1 if on_runs else 0)
            assert (entry.codec is None) == (name == "wide")

    def test_all_column_join_after_extend_matches_uncached(self):
        rng = np.random.default_rng(5)
        r_rows = rng.integers(0, 12, size=(150, 2)).astype(np.int64)
        s_rows = rng.integers(0, 12, size=(60, 2)).astype(np.int64)
        sql = "SELECT a.x AS x, b.y AS y FROM s a, r b WHERE a.x = b.x AND a.y = b.y"
        results = {}
        for cached in (True, False):
            db = Database(enforce_budgets=False, profile=True, join_cache=cached)
            db.load_table("r", ("x", "y"), r_rows[:100])
            db.load_table("s", ("x", "y"), s_rows)
            db.set_difference("s", "r", "OPSD")  # builds the whole-row entry
            db.append_rows("r", r_rows[100:])
            db.set_difference("s", "r", "OPSD")  # extends it: two runs, no positions
            results[cached] = db.execute(sql)
            if cached:
                counters = db.profiler.counters
                assert counters.get("join_cache.miss") == 1  # one entry serves both
                assert counters.get("join_cache.extend") == 1
                assert counters.get("join_cache.hit") == 1  # the join
        assert results[True].shape[0] > 0
        assert np.array_equal(results[True], results[False])

    def test_key_column_entries_stay_flat(self):
        db = Database(enforce_budgets=False)
        db.load_table("r", ("x", "y"), np.arange(100, dtype=np.int64).reshape(-1, 2))
        ctx = db._context()
        for columns in (("x",), ("y", "x")):  # a permutation is a join key, not a row
            db.join_cache.acquire(ctx, "r", columns)
        db.append_rows("r", np.array([[5, 7], [3, 3]], dtype=np.int64))
        for columns in (("x",), ("y", "x")):
            entry, event = db.join_cache.acquire(ctx, "r", columns)
            assert event == "extend" and len(entry.runs) == 1
            assert entry.sorted_positions.shape == entry.runs[0].shape == (52,)


class TestWritersNeverIndex:
    def test_pbme_evaluation_builds_no_index_and_probes_nothing(self, monkeypatch):
        calls = []

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)

            return wrapper

        for name in ("semi_join_mask", "isin_sorted"):
            monkeypatch.setattr(kernels, name, counting(name, getattr(kernels, name)))
        monkeypatch.setattr(
            JoinStateCache, "_build", counting("_build", JoinStateCache._build)
        )
        result = RecStep(RecStepConfig(profile=True)).evaluate(
            get_program("TC"), load_dataset("G500", 7), "G500"
        )
        assert result.status == "ok" and result.detail.get("pbme_strata")
        assert calls == []
        assert not [
            name for name in result.profile.counters if name.startswith("join_cache.")
        ]


class TestDegradationShedsCache:
    def test_pressure_evicts_and_disables(self):
        controller = DegradationController(enabled=True)
        db = Database(
            enforce_budgets=False,
            resilience=ResilienceContext(degradation=controller),
            profile=True,
        )
        db.load_table("r", ("x", "y"), np.arange(100, dtype=np.int64).reshape(-1, 2))
        db.join_cache.acquire(db._context(), "r", ("x",))
        assert len(db.join_cache) == 1
        controller.on_pressure(1, 0.85)  # soft watermark crossing
        db._context()
        assert len(db.join_cache) == 0
        assert not db.join_cache.enabled
        assert "shed-join-cache" in controller.taken
