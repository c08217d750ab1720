"""Cost-side behaviour of OPSD vs TPSD (the regimes DSD exploits)."""

import numpy as np
import pytest

from repro.engine.database import Database


def set_diff_cost(r_rows: int, delta_rows: int, overlap: int, strategy: str) -> float:
    """Charged simulated seconds of one set-difference call."""
    db = Database(enforce_budgets=False)
    existing = np.column_stack(
        [np.arange(r_rows, dtype=np.int64), np.arange(r_rows, dtype=np.int64)]
    )
    fresh = delta_rows - overlap
    delta = np.vstack(
        [
            existing[:overlap],
            np.column_stack(
                [
                    np.arange(r_rows, r_rows + fresh, dtype=np.int64),
                    np.arange(r_rows, r_rows + fresh, dtype=np.int64),
                ]
            ),
        ]
    )
    db.load_table("r", ["a", "b"], existing)
    db.load_table("d", ["a", "b"], delta)
    before = db.sim_seconds
    outcome = db.set_difference("d", "r", strategy)
    assert outcome.delta.shape[0] == fresh
    return db.sim_seconds - before


class TestRegimes:
    def test_tpsd_wins_when_r_dominates(self):
        """Late iterations: |R| >> |delta| — OPSD rebuilds the huge hash."""
        opsd = set_diff_cost(200_000, 2_000, 1_000, "OPSD")
        tpsd = set_diff_cost(200_000, 2_000, 1_000, "TPSD")
        assert tpsd < opsd

    def test_opsd_wins_when_delta_dominates(self):
        """Early iterations: |delta| >= |R| — one pass suffices."""
        opsd = set_diff_cost(2_000, 100_000, 1_000, "OPSD")
        tpsd = set_diff_cost(2_000, 100_000, 1_000, "TPSD")
        assert opsd < tpsd

    def test_opsd_cost_grows_with_r(self):
        small = set_diff_cost(10_000, 5_000, 100, "OPSD")
        large = set_diff_cost(200_000, 5_000, 100, "OPSD")
        assert large > small

    def test_tpsd_cost_insensitive_to_r_build(self):
        """TPSD never builds on R; growing R only adds probe cost."""
        small = set_diff_cost(50_000, 2_000, 100, "TPSD")
        large = set_diff_cost(400_000, 2_000, 100, "TPSD")
        # Grows (probe side), but far slower than OPSD's build-side growth.
        opsd_small = set_diff_cost(50_000, 2_000, 100, "OPSD")
        opsd_large = set_diff_cost(400_000, 2_000, 100, "OPSD")
        assert (large - small) < (opsd_large - opsd_small)

    def test_intersection_size_reported_for_tpsd_only(self):
        db = Database(enforce_budgets=False)
        db.load_table("r", ["a"], np.array([[1], [2]]))
        db.load_table("d", ["a"], np.array([[2], [3]]))
        assert db.set_difference("d", "r", "OPSD").intersection_size is None
        assert db.set_difference("d", "r", "TPSD").intersection_size == 1


def dup_diff_cost(n_unique: int, repeat: int, strategy: str) -> float:
    """Charged cost of a set difference whose delta has internal duplicates.

    The raw delta always holds ``n_unique * repeat`` rows; only the
    duplicate ratio varies. R is small and disjoint from the delta.
    """
    db = Database(enforce_budgets=False, join_cache=False)
    base = np.column_stack(
        [
            np.arange(10_000_000, 10_001_000, dtype=np.int64),
            np.arange(10_000_000, 10_001_000, dtype=np.int64),
        ]
    )
    distinct = np.column_stack(
        [np.arange(n_unique, dtype=np.int64), np.arange(n_unique, dtype=np.int64)]
    )
    db.load_table("r", ["a", "b"], base)
    db.load_table("d", ["a", "b"], np.repeat(distinct, repeat, axis=0))
    before = db.sim_seconds
    outcome = db.set_difference("d", "r", strategy)
    assert outcome.delta.shape[0] == n_unique
    return db.sim_seconds - before


class TestHonestAccounting:
    """Regressions: charges must track the rows the strategies touch.

    Before the fix, neither strategy charged the up-front sort-unique of
    ``R_delta``, and the probe phases were charged on the *raw* delta row
    count even though they probe the deduplicated rows — so two deltas
    with the same raw size but wildly different duplicate ratios charged
    identical costs.
    """

    def test_tpsd_probe_charged_on_unique_rows(self):
        heavy_dup = dup_diff_cost(6_000, 10, "TPSD")
        no_dup = dup_diff_cost(60_000, 1, "TPSD")
        assert heavy_dup < no_dup

    def test_opsd_probe_charged_on_unique_rows(self):
        heavy_dup = dup_diff_cost(6_000, 10, "OPSD")
        no_dup = dup_diff_cost(60_000, 1, "OPSD")
        assert heavy_dup < no_dup

    @pytest.mark.parametrize("strategy", ["OPSD", "TPSD"])
    def test_unique_sort_appears_as_dedup_phase(self, strategy):
        db = Database(enforce_budgets=False, join_cache=False, profile=True)
        rows = np.arange(20_000, dtype=np.int64).reshape(-1, 2)
        db.load_table("r", ["a", "b"], rows)
        db.load_table("d", ["a", "b"], rows + 1_000_000)
        assert db.profiler.counters.get("phase_dedup_runs") == 0
        db.set_difference("d", "r", strategy)
        assert db.profiler.counters.get("phase_dedup_runs") == 1
