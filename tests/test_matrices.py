import numpy as np
import pytest

from pistr.engine import (_CATALOG, PATTERN_DIFF, PATTERN_SAME,
                          catalog_matrix)
from pistr.matrices import (direct_sum, fixed_matrix, fixed_matrix_names,
                            m_matrix, named_family, row_profile, tilde_matrix)
from pistr.verifier import check_matrix

M7_LAYOUT = np.array([
    [0, 5, 5, 5, 5, 5, 5],
    [5, 0, 5, 5, 5, 5, 7],
    [5, 5, 0, 5, 5, 7, 7],
    [5, 5, 5, 0, 7, 7, 7],
    [5, 5, 5, 7, 0, 7, 11],
    [5, 5, 7, 7, 7, 0, 7],
    [5, 7, 7, 7, 11, 7, 0],
])


class TestMMatrix:
    def test_order_seven_layout(self):
        assert np.array_equal(m_matrix(7, 5, 7, 11), M7_LAYOUT)

    def test_equal_labels_collapse(self):
        m = m_matrix(6, 4, 4, 4)
        off = ~np.eye(6, dtype=bool)
        assert np.all(m[off] == 4) and np.all(np.diag(m) == 0)

    def test_order_four_is_irregular(self):
        assert check_matrix(m_matrix(4, 1, 2, 3)).ok

    def test_small_orders_rejected(self):
        with pytest.raises(ValueError):
            m_matrix(3, 1, 2, 3)
        with pytest.raises(ValueError):
            m_matrix(5, 1, 0, 2)

    def test_symmetry_range(self):
        for n in range(4, 20):
            m = m_matrix(n, 5, 7, 11)
            assert np.array_equal(m, m.T) and np.all(np.diag(m) == 0)


class TestFamilies:
    def test_named_triples(self):
        assert np.array_equal(named_family(7, "A"), m_matrix(7, 1, 2, 3))
        assert np.array_equal(named_family(4, "B"), m_matrix(4, 2, 3, 1))
        assert np.array_equal(named_family(5, "C"), m_matrix(5, 3, 1, 2))

    def test_tilde_pairs(self):
        assert np.array_equal(tilde_matrix(4, "A"), m_matrix(4, 1, 2, 2))
        assert np.array_equal(tilde_matrix(5, "B"), m_matrix(5, 2, 3, 3))
        assert np.array_equal(tilde_matrix(5, "C"), m_matrix(5, 3, 1, 1))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            named_family(5, "D")
        with pytest.raises(ValueError, match="^unknown family 'D', expected A, B or C$"):
            tilde_matrix(5, "D")

    @pytest.mark.parametrize("triple", [(1, 2, 3), (2, 3, 5), (3, 4, 5), (5, 6, 7)])
    def test_coprime_triples_are_irregular(self, triple):
        for n in (4, 5, 9, 14):
            assert check_matrix(m_matrix(n, *triple)).ok


class TestRowProfile:
    @pytest.mark.parametrize("n,i,expected", [
        (7, 5, (3, 2, 1)),   # the pivot row
        (7, 7, (1, 4, 1)),   # last row
        (7, 2, (5, 1, 0)),   # plain row above the pivot
        (7, 6, (2, 4, 0)),   # plain row below the pivot
        (4, 3, (2, 0, 1)),
    ])
    def test_examples(self, n, i, expected):
        assert row_profile(n, i).counts == expected

    def test_census_matches_matrix(self):
        for n in range(4, 16):
            m = m_matrix(n, 5, 7, 11)
            for i in range(1, n + 1):
                row = m[i - 1]
                census = (int((row == 5).sum()), int((row == 7).sum()),
                          int((row == 11).sum()))
                assert row_profile(n, i).counts == census

    def test_counts_sum_to_n_minus_one(self):
        for n in range(4, 30):
            for i in range(1, n + 1):
                assert sum(row_profile(n, i).counts) == n - 1

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="^row_profile needs n >= 4$"):
            row_profile(3, 1)
        with pytest.raises(ValueError):
            row_profile(7, 0)
        with pytest.raises(ValueError):
            row_profile(7, 8)


class TestFixedMatrices:
    def test_t_matrix(self):
        assert np.array_equal(fixed_matrix("T"),
                              np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]]))

    def test_t_degrees(self):
        degrees = check_matrix(fixed_matrix("T")).degrees
        assert [d.value for d in degrees] == [2, 3, 6]

    def test_p6_first_row(self):
        assert fixed_matrix("P6")[0].tolist() == [0, 2, 2, 2, 2, 1]

    def test_all_fixed_matrices_well_formed(self):
        for name in fixed_matrix_names():
            m = fixed_matrix(name)
            assert np.array_equal(m, m.T)
            assert np.all(np.diag(m) == 0)
            assert m.min() >= 0 and m.max() <= 3

    def test_copies_are_independent(self):
        m = fixed_matrix("T")
        m[0, 1] = 9
        assert fixed_matrix("T")[0, 1] == 1

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            fixed_matrix("T7")


class TestLMatrix:
    def test_order_and_cross_entry(self):
        m = catalog_matrix((2, 4))
        assert m.shape == (6, 6)
        upper_cross = [(i, j) for i in range(6) for j in range(i + 1, 6)
                       if m[i, j] == 3 and not (i >= 2 and j >= 2)]
        assert upper_cross == [(0, 2)]
        assert m[0, 1] == 1 and np.array_equal(m[2:, 2:], named_family(4, "B"))

    def test_k1_variant_is_irregular(self):
        m = catalog_matrix((1, 4))
        assert m.shape == (5, 5)
        assert np.array_equal(m, np.delete(np.delete(catalog_matrix((2, 4)), 1, 0), 1, 1))
        assert check_matrix(m).ok

    def test_small_orders_rejected(self):
        with pytest.raises(ValueError):
            catalog_matrix((2, 3))


def sample_sizes(row):
    """Sorted sizes the row applies to: each range at its smallest size."""
    return tuple(sorted(k if type(k) is int else k.start for k in row.sizes))


class TestDirectSumAndInjections:
    def test_singleton_identity(self):
        t = fixed_matrix("T")
        assert np.array_equal(direct_sum([t]), t)
        with pytest.raises(ValueError, match="^direct_sum needs at least one matrix$"):
            direct_sum([])

    def test_block_layout(self):
        m = direct_sum([named_family(4, "A"), named_family(5, "B")])
        assert m.shape == (9, 9) and m.dtype == np.int64
        assert np.all(m[:4, 4:] == 0) and np.all(m[4:, :4] == 0)
        narrow = direct_sum([named_family(4, "A"), named_family(5, "B")], np.int8)
        assert narrow.dtype == np.int8 and np.array_equal(narrow, m)

    def test_catalog_entries_fit_one_byte(self):
        # catalog_matrix renders into int8: every entry must be a label of
        # the row's strength 3, or 0
        for row in _CATALOG:
            m = catalog_matrix(sample_sizes(row), row.middle, row.pattern)
            assert m.dtype == np.int8 and m.min() == 0 and m.max() <= 3, row

    def test_triple_sum_order(self):
        m = direct_sum([fixed_matrix("T5"), fixed_matrix("T5_TILDE"),
                        fixed_matrix("P6")])
        assert m.shape == (16, 16)

    def test_injection_coordinates(self):
        # roles (middle, outer, outer): tB_5, tA_5, tC_5
        m = catalog_matrix((5, 5, 5), 5, PATTERN_SAME)
        assert m[7, 2] == 3 and m[2, 7] == 3      # 1-based (8, 3)
        assert m[2, 12] == 2 and m[12, 2] == 2    # 1-based (3, 13)
        m = catalog_matrix((5, 5, 5), 5, PATTERN_DIFF)
        assert m[0, 12] == 2 and m[12, 0] == 2    # 1-based (1, 13)

    def test_empty_specs_is_identity(self):
        base = direct_sum([named_family(4, "A"), named_family(9, "B")])
        assert np.array_equal(catalog_matrix((4, 9)), base)

    def test_nonzero_target_rejected(self):
        # every cross entry of every row lands on a zero of its block sum
        for row in (row for row in _CATALOG if row.cross):
            sizes = sample_sizes(row)
            orders = list(sizes)
            if row.middle is not None:  # roles (middle, outer, outer)
                orders.remove(row.middle)
                orders.insert(0, row.middle)
            blocks = direct_sum([make(n) for make, n in zip(row.blocks, orders)])
            changed = catalog_matrix(sizes, row.middle, row.pattern) != blocks
            assert np.count_nonzero(changed) == 2 * len(row.cross), row
            assert np.all(blocks[changed] == 0), row

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            catalog_matrix((4, 4, 6))
        with pytest.raises(ValueError):
            catalog_matrix((5, 5, 5), 5, "no_such_pattern")
        with pytest.raises(ValueError):
            catalog_matrix((4, 5, 5), 6, PATTERN_SAME)

    def test_injections_scale_touched_rows_only(self):
        base = direct_sum([np.array([[0, 1], [1, 0]]), named_family(6, "B")])
        before = check_matrix(base).degrees
        m = catalog_matrix((2, 6))
        after = check_matrix(m).degrees
        for v in range(8):
            if v == 0 or v == 2:
                assert after[v].value == 3 * before[v].value
            else:
                assert after[v] == before[v]
