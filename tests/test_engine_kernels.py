"""Unit and property-based tests for the relational kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import KeyPackingError
from repro.engine import kernels
from repro.storage.stats import ColumnDomain, observed_domain

rows_strategy = st.lists(
    st.tuples(st.integers(0, 50), st.integers(0, 50)), min_size=0, max_size=60
)
keys_strategy = st.lists(st.integers(-100, 100), min_size=0, max_size=80)


def as_matrix(pairs) -> np.ndarray:
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)


def observed(columns: list[np.ndarray]) -> list[ColumnDomain]:
    return [observed_domain(column) for column in columns]


class TestPackColumns:
    def test_single_column_identity(self):
        col = np.array([3, 1, 2], dtype=np.int64)
        assert kernels.pack_columns([col], observed([col])) is col

    def test_pack_two_columns_injective(self):
        a = np.array([0, 1, 0, 1], dtype=np.int64)
        b = np.array([0, 0, 1, 1], dtype=np.int64)
        packed = kernels.pack_columns([a, b], observed([a, b]))
        assert len(np.unique(packed)) == 4

    def test_pack_handles_negative_offsets(self):
        a = np.array([-5, -4], dtype=np.int64)
        b = np.array([7, 8], dtype=np.int64)
        packed = kernels.pack_columns([a, b], observed([a, b]))
        assert packed is not None
        assert len(np.unique(packed)) == 2

    def test_pack_too_wide_returns_none(self):
        wide = np.array([0, 1 << 40], dtype=np.int64)
        assert kernels.pack_columns([wide, wide], observed([wide, wide])) is None

    def test_pack_empty_columns(self):
        empty = np.empty(0, dtype=np.int64)
        packed = kernels.pack_columns([empty, empty], observed([empty, empty]))
        assert packed is not None and packed.shape == (0,)

    @given(rows_strategy)
    @settings(max_examples=50, deadline=None)
    def test_pack_preserves_row_equality(self, pairs):
        matrix = as_matrix(pairs)
        if matrix.shape[0] == 0:
            return
        columns = [matrix[:, 0], matrix[:, 1]]
        packed = kernels.pack_columns(columns, observed(columns))
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[0]):
                same_row = bool((matrix[i] == matrix[j]).all())
                assert (packed[i] == packed[j]) == same_row


class TestCrossCallPacking:
    """An observed codec derives offsets from one call's min/max, so its
    codes compare only within that call; an index kept across calls
    needs the domain-stable codec of the next class."""

    def test_same_tuple_packs_differently_across_calls(self):
        # (5, 5) gets a different code depending on which other values
        # shared the call.
        first = [np.array([5, 9], dtype=np.int64)] * 2
        second = [np.array([5, 0], dtype=np.int64)] * 2
        first_key = kernels.KeyCodec.observed(first).encode(first)
        second_key = kernels.KeyCodec.observed(second).encode(second)
        assert first_key[0] != second_key[0]  # same tuple (5, 5), different codes

    def test_same_call_keys_stay_comparable(self):
        columns = [np.array([1, 2, 1], dtype=np.int64), np.array([3, 4, 3], dtype=np.int64)]
        key = kernels.KeyCodec.observed(columns).encode(columns)
        assert kernels.equi_join_count(key[:1], key[1:]) == 1

    def test_make_join_keys_is_the_sanctioned_path(self):
        left = [np.array([1, 2], dtype=np.int64), np.array([3, 4], dtype=np.int64)]
        right = [np.array([1, 8], dtype=np.int64), np.array([3, 9], dtype=np.int64)]
        lk, rk = kernels.make_join_keys(left, right)
        assert kernels.semi_join_mask(lk, rk).tolist() == [True, False]


class TestDomainStablePacking:
    def test_codes_comparable_across_calls(self):
        domains = [ColumnDomain(0, 100), ColumnDomain(0, 100)]
        first = kernels.pack_columns(
            [np.array([5, 9], dtype=np.int64), np.array([5, 9], dtype=np.int64)],
            domains=domains,
        )
        second = kernels.pack_columns(
            [np.array([5, 0], dtype=np.int64), np.array([5, 0], dtype=np.int64)],
            domains=domains,
        )
        assert first[0] == second[0]  # same tuple, same code, any call
        assert kernels.semi_join_mask(first, second).tolist() == [True, False]

    def test_out_of_domain_pack_raises(self):
        codec = kernels.KeyCodec([ColumnDomain(0, 10), ColumnDomain(0, 10)])
        with pytest.raises(KeyPackingError):
            codec.pack([np.array([11], dtype=np.int64), np.array([0], dtype=np.int64)])

    def test_pack_probe_maps_out_of_domain_to_minus_one(self):
        codec = kernels.KeyCodec([ColumnDomain(0, 10), ColumnDomain(0, 10)])
        probes = codec.pack_probe(
            [np.array([5, 11], dtype=np.int64), np.array([5, 5], dtype=np.int64)]
        )
        assert probes[1] == -1
        assert probes[0] >= 0

    def test_exact_63_bit_boundary_packs(self):
        domains = [ColumnDomain(0, (1 << 31) - 1), ColumnDomain(0, (1 << 32) - 1)]
        codec = kernels.KeyCodec(domains)
        assert codec.total_bits == 63
        assert codec.packable
        packed = codec.pack(
            [
                np.array([(1 << 31) - 1], dtype=np.int64),
                np.array([(1 << 32) - 1], dtype=np.int64),
            ]
        )
        assert packed[0] == np.iinfo(np.int64).max

    def test_64_bits_is_unpackable(self):
        domains = [ColumnDomain(0, (1 << 32) - 1), ColumnDomain(0, (1 << 32) - 1)]
        codec = kernels.KeyCodec(domains)
        assert codec.total_bits == 64
        assert not codec.packable
        with pytest.raises(KeyPackingError):
            codec.pack(
                [np.array([1], dtype=np.int64), np.array([1], dtype=np.int64)]
            )
        assert (
            kernels.pack_columns(
                [np.array([0], dtype=np.int64), np.array([0], dtype=np.int64)],
                domains=domains,
            )
            is None
        )

    def test_single_column_codec_is_identity(self):
        codec = kernels.KeyCodec([ColumnDomain(0, 3)])
        col = np.array([7, 1], dtype=np.int64)  # identity: domain not enforced
        assert codec.pack([col]) is col


class TestSortedIndexKernels:
    @staticmethod
    def _classic(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(keys, kind="stable")
        return keys[order], order.astype(np.int64)

    def test_empty_delta_extension_is_identity(self):
        keys = np.array([3, 1, 2], dtype=np.int64)
        sorted_keys, positions = self._classic(keys)
        merged_keys, merged_positions = kernels.merge_sorted_index(
            sorted_keys, positions, np.empty(0, np.int64), np.empty(0, np.int64)
        )
        assert merged_keys is sorted_keys and merged_positions is positions

    def test_single_row_full_table(self):
        sorted_keys = np.array([7], dtype=np.int64)
        positions = np.array([0], dtype=np.int64)
        starts, ends = kernels.sorted_probe_range(
            np.array([7, 8], dtype=np.int64), sorted_keys
        )
        probe_idx, table_pos = kernels.sorted_join_indices(starts, ends, positions)
        assert probe_idx.tolist() == [0] and table_pos.tolist() == [0]
        assert kernels.isin_sorted(
            np.array([7, 8], dtype=np.int64), sorted_keys
        ).tolist() == [True, False]

    @given(keys_strategy, keys_strategy)
    @settings(max_examples=60, deadline=None)
    def test_incremental_merge_equals_full_sort(self, base_list, delta_list):
        base = np.asarray(base_list, dtype=np.int64)
        delta = np.asarray(delta_list, dtype=np.int64)
        sorted_keys, positions = self._classic(base)
        merged_keys, merged_positions = kernels.merge_sorted_index(
            sorted_keys,
            positions,
            delta,
            np.arange(base.size, base.size + delta.size, dtype=np.int64),
        )
        whole = np.concatenate([base, delta])
        expect_keys, expect_positions = self._classic(whole)
        assert merged_keys.tolist() == expect_keys.tolist()
        # Stable within equal keys: extended index == full stable argsort,
        # which is what makes cached join output byte-identical.
        assert merged_positions.tolist() == expect_positions.tolist()

    @given(keys_strategy, keys_strategy)
    @settings(max_examples=60, deadline=None)
    def test_sorted_probe_matches_equi_join(self, probe_list, table_list):
        probe = np.asarray(probe_list, dtype=np.int64)
        table = np.asarray(table_list, dtype=np.int64)
        sorted_keys, positions = self._classic(table)
        starts, ends = kernels.sorted_probe_range(probe, sorted_keys)
        got_probe, got_table = kernels.sorted_join_indices(starts, ends, positions)
        li, ri = kernels.equi_join_indices(probe, table)
        assert sorted(zip(got_probe.tolist(), got_table.tolist())) == sorted(
            zip(li.tolist(), ri.tolist())
        )


class TestRowRecords:
    """Rows too wide to pack are keyed by their records in persistent
    indexes; the sorted-index kernels must treat them as rows."""

    @given(st.integers(2, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_records_sort_merge_and_probe_as_rows(self, width, data):
        values = st.sampled_from([-(1 << 42), -1, 0, 5, 1 << 42])
        base, delta, probe = (
            data.draw(st.lists(st.tuples(*[values] * width), max_size=30)) for _ in range(3)
        )

        def matrix(rows):
            return np.asarray(rows, dtype=np.int64).reshape(-1, width)

        base_rows, delta_rows, probe_rows = matrix(base), matrix(delta), matrix(probe)
        base_keys = kernels.row_records(base_rows)
        sorted_keys, positions = kernels.sort_index(base_keys)
        assert sorted_keys.tolist() == sorted(map(tuple, base))
        merged, merged_positions = kernels.merge_sorted_index(
            sorted_keys,
            positions,
            kernels.row_records(delta_rows),
            np.arange(len(base), len(base) + len(delta), dtype=np.int64),
        )
        # The incremental index equals one stable argsort of all rows.
        whole = np.vstack([base_rows, delta_rows])
        expected = np.lexsort(tuple(whole[:, i] for i in reversed(range(width))))
        assert merged_positions.tolist() == expected.tolist()
        assert np.array_equal(merged, kernels.row_records(whole[expected]))
        present = set(map(tuple, base + delta))
        hits = kernels.isin_sorted(kernels.row_records(probe_rows), merged)
        assert hits.tolist() == [row in present for row in probe]


class TestEquiJoin:
    def test_empty_sides(self):
        empty = np.empty(0, dtype=np.int64)
        li, ri = kernels.equi_join_indices(empty, np.array([1, 2]))
        assert li.size == ri.size == 0

    def test_all_pairs_on_duplicate_keys(self):
        left = np.array([7, 7], dtype=np.int64)
        right = np.array([7, 7, 7], dtype=np.int64)
        li, ri = kernels.equi_join_indices(left, right)
        assert li.size == 6  # 2 x 3 matches

    @given(keys_strategy, keys_strategy)
    @settings(max_examples=60, deadline=None)
    def test_matches_nested_loop_join(self, left_list, right_list):
        left = np.asarray(left_list, dtype=np.int64)
        right = np.asarray(right_list, dtype=np.int64)
        li, ri = kernels.equi_join_indices(left, right)
        got = sorted(zip(li.tolist(), ri.tolist()))
        expected = sorted(
            (i, j)
            for i, lv in enumerate(left_list)
            for j, rv in enumerate(right_list)
            if lv == rv
        )
        assert got == expected


class TestSemiAntiJoin:
    @given(keys_strategy, keys_strategy)
    @settings(max_examples=60, deadline=None)
    def test_masks_partition_rows(self, left_list, right_list):
        left = np.asarray(left_list, dtype=np.int64)
        right = np.asarray(right_list, dtype=np.int64)
        semi = kernels.semi_join_mask(left, right)
        anti = kernels.anti_join_mask(left, right)
        assert not np.any(semi & anti)
        if left.size:
            assert np.all(semi | anti)
        right_set = set(right_list)
        for index, value in enumerate(left_list):
            assert bool(semi[index]) == (value in right_set)

    @given(
        st.data(),
        st.sampled_from([(0, 40), (-1, 300), (-(1 << 40), 1 << 40), (1 << 61, (1 << 62) + 50)]),
        st.sampled_from([(0, 40), (-1, 300), (-(1 << 40), 1 << 40), (1 << 61, (1 << 62) + 50)]),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_mask_equals_isin(self, data, left_range, right_range, sort_left):
        # Dense and sparse key ranges on either side, duplicates, -1
        # (pack_probe's "never inserted"), empty sides, both probe orders.
        def side(bounds):
            values = data.draw(st.lists(st.integers(*bounds), max_size=60))
            if values and data.draw(st.booleans()):
                values += [values[0], -1]
            return np.asarray(values, dtype=np.int64)

        left, right = side(left_range), side(right_range)
        if sort_left:
            left = np.sort(left)
        mask = kernels.semi_join_mask(left, right)
        assert mask.dtype == bool and type(mask) is np.ndarray
        assert np.array_equal(mask, np.isin(left, right))
        assert np.array_equal(kernels.anti_join_mask(left, right), ~np.isin(left, right))
        assert np.array_equal(
            kernels.isin_sorted(left, np.sort(right)), np.isin(left, right)
        )

    @given(rows_strategy, st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_local_packed_keys_of_one_call(self, pairs, split):
        # Both sides sliced from one observed codec's key: comparable, and
        # the mask is what np.isin says about the codes.
        rows = as_matrix(pairs + [(0, 0), (50, 50)])
        columns = [rows[:, 0], rows[:, 1]]
        key = kernels.KeyCodec.observed(columns).encode(columns)
        left, right = key[:split], key[split:]
        mask = kernels.semi_join_mask(left, right)
        assert type(mask) is np.ndarray
        assert np.array_equal(mask, np.isin(left, right))


class TestUniqueRows:
    def test_empty(self):
        assert kernels.unique_rows(np.empty((0, 2), dtype=np.int64)).shape == (0, 2)

    def test_single_column(self):
        rows = np.array([[3], [1], [3]], dtype=np.int64)
        assert kernels.unique_rows(rows).shape == (2, 1)

    @given(rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_matches_python_set(self, pairs):
        matrix = as_matrix(pairs)
        unique = kernels.unique_rows(matrix)
        assert {tuple(r) for r in unique.tolist()} == set(pairs)
        assert unique.shape[0] == len(set(pairs))

    def test_wide_rows_fall_back_to_lexsort(self):
        rows = np.array([[1 << 40, 1 << 41], [1 << 40, 1 << 41], [0, 1]], dtype=np.int64)
        unique = kernels.unique_rows(rows)
        assert unique.shape[0] == 2

    @given(
        st.integers(1, 4).flatmap(
            lambda width: st.lists(
                st.tuples(
                    *[
                        st.one_of(
                            st.integers(-40, 40),
                            # near ±2^62: the packed key no longer fits
                            # 63 bits, forcing the unpackable fallback
                            st.integers(-(2**62), -(2**62) + 3),
                            st.integers(2**62 - 3, 2**62),
                        )
                    ]
                    * width
                ),
                max_size=40,
            ).map(lambda rows: (width, rows))
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_numpy_unique_as_a_set(self, case):
        width, tuples = case
        rows = np.asarray(tuples, dtype=np.int64).reshape(-1, width)
        unique = kernels.unique_rows(rows)
        assert unique.dtype == np.int64 and unique.shape[1] == width
        expected = np.unique(rows, axis=0)
        assert unique.shape == expected.shape  # no duplicate survives
        assert {tuple(r) for r in unique.tolist()} == {tuple(r) for r in expected.tolist()}
        # The result never aliases its input (callers store it in tables).
        assert not np.shares_memory(unique, rows)

    def test_codec_decode_inverts_encode(self):
        rng = np.random.default_rng(3)
        columns = [
            rng.integers(-1000, 1000, 500),
            rng.integers(5, 9, 500),
            rng.integers(-(2**30), 2**30, 500),
        ]
        codec = kernels.KeyCodec.observed(columns)
        assert codec.packable
        assert np.array_equal(
            codec.decode(codec.encode(columns)), np.column_stack(columns)
        )


class TestSetOperations:
    @given(rows_strategy, rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_difference_matches_python_sets(self, new_pairs, old_pairs):
        delta = kernels.rows_difference(as_matrix(new_pairs), as_matrix(old_pairs))
        assert {tuple(r) for r in delta.tolist()} == set(new_pairs) - set(old_pairs)

    @given(rows_strategy, rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_intersection_matches_python_sets(self, left_pairs, right_pairs):
        got = kernels.rows_intersection(as_matrix(left_pairs), as_matrix(right_pairs))
        assert {tuple(r) for r in got.tolist()} == set(left_pairs) & set(right_pairs)


def _parent_rows_difference(new_rows, existing_rows):
    """``rows_difference`` as it stood before the key-domain rewrite."""
    new_unique = kernels.unique_rows(new_rows)
    if existing_rows.shape[0] == 0 or new_unique.shape[0] == 0:
        return new_unique
    left_keys, right_keys = kernels.make_join_keys(
        [new_unique[:, i] for i in range(new_unique.shape[1])],
        [existing_rows[:, i] for i in range(existing_rows.shape[1])],
    )
    return new_unique[~np.isin(left_keys, right_keys)]


def _parent_rows_intersection(left, right):
    left_unique = kernels.unique_rows(left)
    if left_unique.shape[0] == 0 or right.shape[0] == 0:
        return left_unique[:0]
    left_keys, right_keys = kernels.make_join_keys(
        [left_unique[:, i] for i in range(left_unique.shape[1])],
        [right[:, i] for i in range(right.shape[1])],
    )
    return left_unique[np.isin(left_keys, right_keys)]


@st.composite
def _row_matrix_pairs(draw):
    """Two row matrices of one width: narrow rows pack into one int64, the
    (2, 2**40) shape takes the whole-row fallback."""
    width, high = draw(st.sampled_from([(1, 50), (2, 50), (3, 1 << 20), (2, 1 << 40)]))
    row = st.tuples(*[st.integers(-3, high)] * width)
    return tuple(
        np.asarray(draw(st.lists(row, max_size=40)), dtype=np.int64).reshape(-1, width)
        for _ in range(2)
    )


class TestSetOperationsMatchParent:
    @given(_row_matrix_pairs(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_same_rows_in_the_same_order(self, sides, overlap):
        left, right = sides
        if overlap and left.shape[0]:
            right = np.vstack([right, left[::2]])
        assert np.array_equal(
            kernels.rows_difference(left, right), _parent_rows_difference(left, right)
        )
        common = kernels.rows_intersection(left, right)
        assert np.array_equal(common, _parent_rows_intersection(left, right))
        assert common.shape[1] == left.shape[1]
        again, in_common = kernels.rows_intersection(left, right, mark_right=True)
        assert np.array_equal(again, common)
        members = {tuple(row) for row in common.tolist()}
        assert in_common.tolist() == [tuple(row) in members for row in right.tolist()]

    def test_empty_sides_wide_and_narrow(self):
        empty = np.empty((0, 2), dtype=np.int64)
        wide = np.array([[1 << 40, 5], [7, 1 << 41], [0, 0]], dtype=np.int64)
        for rows in (wide, wide % 9, empty):
            assert kernels.rows_difference(empty, rows).shape == (0, 2)
            assert np.array_equal(
                kernels.rows_difference(rows, empty), np.unique(rows, axis=0)
            )
            for left, right in ((empty, rows), (rows, empty)):
                common, marked = kernels.rows_intersection(left, right, mark_right=True)
                assert common.shape == (0, 2) and not marked.any()
                assert marked.shape == (right.shape[0],)

    def test_results_never_alias_their_inputs(self):
        rows = np.array([[1], [2], [3]], dtype=np.int64)
        for other in (np.empty((0, 1), dtype=np.int64), np.array([[2]], dtype=np.int64)):
            assert not np.shares_memory(kernels.rows_difference(rows, other), rows)
            assert not np.shares_memory(kernels.rows_intersection(rows, other), rows)


class TestGroupAggregate:
    def test_min_per_group(self):
        keys = np.array([1, 2, 1, 2], dtype=np.int64)
        values = np.array([10, 20, 5, 30], dtype=np.int64)
        group_keys, (mins,) = kernels.group_aggregate([keys], [("MIN", values)])
        result = dict(zip(group_keys[:, 0].tolist(), mins.tolist()))
        assert result == {1: 5, 2: 20}

    def test_count_and_sum(self):
        keys = np.array([1, 1, 2], dtype=np.int64)
        values = np.array([4, 6, 9], dtype=np.int64)
        _, (counts, sums) = kernels.group_aggregate(
            [keys], [("COUNT", values), ("SUM", values)]
        )
        assert counts.tolist() == [2, 1]
        assert sums.tolist() == [10, 9]

    def test_avg_integer_division(self):
        keys = np.array([1, 1], dtype=np.int64)
        values = np.array([3, 4], dtype=np.int64)
        _, (avgs,) = kernels.group_aggregate([keys], [("AVG", values)])
        assert avgs.tolist() == [3]  # floor(7/2)

    def test_global_aggregate_no_groups(self):
        values = np.array([5, 2, 9], dtype=np.int64)
        keys, (minimum,) = kernels.group_aggregate([], [("MIN", values)])
        assert keys.shape == (1, 0)
        assert minimum.tolist() == [2]

    def test_empty_grouped_input(self):
        empty = np.empty(0, dtype=np.int64)
        keys, (mins,) = kernels.group_aggregate([empty], [("MIN", empty)])
        assert keys.shape[0] == 0
        assert mins.shape[0] == 0

    def test_multi_column_group_keys(self):
        a = np.array([1, 1, 2], dtype=np.int64)
        b = np.array([1, 1, 1], dtype=np.int64)
        values = np.array([7, 3, 5], dtype=np.int64)
        keys, (mins,) = kernels.group_aggregate([a, b], [("MIN", values)])
        assert keys.shape == (2, 2)
        assert sorted(mins.tolist()) == [3, 5]

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(-50, 50)), min_size=1, max_size=50
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_min_matches_python(self, pairs):
        keys = np.asarray([p[0] for p in pairs], dtype=np.int64)
        values = np.asarray([p[1] for p in pairs], dtype=np.int64)
        group_keys, (mins,) = kernels.group_aggregate([keys], [("MIN", values)])
        got = dict(zip(group_keys[:, 0].tolist(), mins.tolist()))
        expected: dict[int, int] = {}
        for key, value in pairs:
            expected[key] = min(expected.get(key, value), value)
        assert got == expected

    def test_global_min_of_empty_raises(self):
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError):
            kernels.group_aggregate([], [("MIN", empty)])


# --------------------------------------------------------------------------
# One row order: row_keys against the whole-row sorts it replaced
# --------------------------------------------------------------------------

#: Near 0 (packs), near ±2^62 and ids << 40 (two columns no longer pack).
_ROW_VALUES = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**62), -(2**62) + 3),
    st.integers(2**62 - 3, 2**62),
    st.integers(0, 5).map(lambda v: v << 40),
)


@st.composite
def _row_matrices(draw):
    """1–3 matrices of one width (1–4), possibly empty, whose rows come
    from one small pool: duplicates within and across matrices."""
    width = draw(st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*[_ROW_VALUES] * width), min_size=1, max_size=10))
    return [
        np.asarray(draw(st.lists(st.sampled_from(pool), max_size=20)), dtype=np.int64).reshape(
            -1, width
        )
        for _ in range(draw(st.integers(1, 3)))
    ]


def _columns(matrix):
    return [matrix[:, i] for i in range(matrix.shape[1])]


def _whole_row_ranks(*matrices):
    """Dense lexicographic rank of every row in the union, per matrix."""
    _, inverse = np.unique(np.vstack(matrices), axis=0, return_inverse=True)
    return np.split(inverse.reshape(-1), np.cumsum([m.shape[0] for m in matrices[:-1]]))


def _lexsorted(rows):
    return rows[np.lexsort(rows.T[::-1])] if rows.shape[0] > 1 else rows


# The functions below are the whole-row-sorting versions row_keys replaced.


def _whole_row_unique(rows):
    if rows.shape[0] == 0:
        return rows.copy()
    codec = kernels.KeyCodec.observed(_columns(rows))
    if not codec.packable:
        return np.unique(rows, axis=0)
    return codec.decode(kernels.sorted_distinct(codec.encode(_columns(rows))))


def _whole_row_distinct_left_keys(left, right):
    codec = kernels.KeyCodec.observed(_columns(left), _columns(right))
    if codec.packable:
        left_keys = kernels.sorted_distinct(codec.encode(_columns(left)))
        return left_keys, codec.encode(_columns(right)), lambda m: codec.decode(left_keys[m])
    distinct = np.unique(left, axis=0)
    left_keys, right_keys = _whole_row_ranks(distinct, right)
    return left_keys, right_keys, lambda mask: distinct[mask]


def _whole_row_difference(new_rows, existing_rows):
    new_keys, existing_keys, rows_of = _whole_row_distinct_left_keys(new_rows, existing_rows)
    return rows_of(kernels.anti_join_mask(new_keys, existing_keys))


def _whole_row_intersection(left, right):
    left_keys, right_keys, rows_of = _whole_row_distinct_left_keys(left, right)
    hit = kernels.semi_join_mask(left_keys, right_keys)
    return rows_of(hit), kernels.semi_join_mask(right_keys, left_keys[hit])


def _whole_row_group_order(key_matrix):
    codec = kernels.KeyCodec.observed(_columns(key_matrix))
    if codec.packable:
        packed = codec.encode(_columns(key_matrix))
        order = np.argsort(packed, kind="stable")
        boundary = packed[order][1:] != packed[order][:-1]
    else:
        order = np.lexsort(key_matrix.T[::-1])
        boundary = (key_matrix[order][1:] != key_matrix[order][:-1]).any(axis=1)
    return order, np.flatnonzero(np.concatenate([[True], boundary]))


def _whole_row_fingerprint(edb):
    from repro.resilience.checkpoint import _payload_checksum

    return f"{_payload_checksum({name: _lexsorted(rows) for name, rows in edb.items()}):08x}"


def _whole_row_clean_edges(edges, allow_self_loops):
    edges = np.unique(edges, axis=0)
    return edges if allow_self_loops else edges[edges[:, 0] != edges[:, 1]]


class TestRowKeys:
    @given(_row_matrices())
    @settings(max_examples=200, deadline=None)
    def test_codes_are_the_cck_or_the_whole_row_rank(self, matrices):
        keys = kernels.row_keys(*map(_columns, matrices))
        codec = kernels.KeyCodec.observed(*map(_columns, matrices))
        if codec.packable:
            expected = [codec.encode(_columns(m)) for m in matrices]
        else:
            expected = _whole_row_ranks(*matrices)
        assert len(keys) == len(matrices)
        for got, want in zip(keys, expected):
            assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_wide_rows_get_dense_lexicographic_ranks(self):
        wide = np.array([[1 << 40, 3, 1], [0, 1 << 41, 0], [1 << 40, 3, 0]], dtype=np.int64)
        left, right = kernels.row_keys(_columns(wide), _columns(wide[:1]))
        assert left.tolist() == [2, 0, 1] and right.tolist() == [2]

    @given(_row_matrices())
    @settings(max_examples=200, deadline=None)
    def test_consumers_match_their_whole_row_versions(self, matrices):
        from repro.common.records import Relation
        from repro.datasets.graphs import clean_edges
        from repro.resilience.checkpoint import edb_fingerprint

        left, right = matrices[0], matrices[-1]
        assert np.array_equal(kernels.unique_rows(left), _whole_row_unique(left))
        assert np.array_equal(
            kernels.rows_difference(left, right), _whole_row_difference(left, right)
        )
        got = kernels.rows_intersection(left, right, mark_right=True)
        for array, expected in zip(got, _whole_row_intersection(left, right)):
            assert np.array_equal(array, expected)

        values = np.arange(left.shape[0], dtype=np.int64)
        specs = [("MIN", values), ("MAX", values), ("SUM", values), ("COUNT", values)]
        group_keys, outputs = kernels.group_aggregate(_columns(left), specs)
        if left.shape[0]:
            order, starts = _whole_row_group_order(left)
            assert np.array_equal(group_keys, left[order][starts])
            for (func, column), output in zip(specs, outputs):
                if func == "COUNT":
                    expected = np.diff(np.append(starts, left.shape[0]))
                else:
                    expected = kernels._REDUCERS[func].reduceat(column[order], starts)
                assert np.array_equal(output, expected)

        distinct = np.unique(left, axis=0)
        shuffled = distinct[np.random.default_rng(len(distinct)).permutation(len(distinct))]
        assert np.array_equal(Relation(shuffled).sorted_rows(), _lexsorted(shuffled))

        edb = {f"r{i}": matrix for i, matrix in enumerate(matrices)}
        assert edb_fingerprint(edb) == _whole_row_fingerprint(edb)

        for loops in (True, False) if left.shape[1] >= 2 else (True,):
            if left.shape[0]:
                assert np.array_equal(
                    clean_edges(left, allow_self_loops=loops),
                    _whole_row_clean_edges(left, loops),
                )
