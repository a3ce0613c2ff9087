"""SD and DL comparison of allocation vectors."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mudra.order import (
    DlVerdict,
    SdVerdict,
    dl_compare,
    prefix_sums,
    sd_compare,
    sd_weakly_dominates,
)
from oracles import dl_oracle, sd_oracle

ORDER = ("o1", "o2", "o3", "o4")
F = Fraction


def vec(*values):
    return dict(zip(ORDER, (F(v) for v in values)))


A = vec(1, 0, F(1, 2), F(1, 2))
B = vec(0, 1, F(1, 2), F(1, 2))


class TestUpperContourSum:
    """The sum over an object's upper contour set is its entry of `prefix_sums`."""

    def test_prefix_at_second_object(self):
        assert prefix_sums(A, ORDER)[1] == 1

    def test_prefix_at_third_object(self):
        assert prefix_sums(A, ORDER)[2] == F(3, 2)

    def test_least_preferred_gives_row_sum(self):
        assert prefix_sums(A, ORDER)[3] == 2
        assert prefix_sums(B, ORDER)[3] == 2

    def test_missing_amount_rejected(self):
        with pytest.raises(KeyError, match="o4"):
            prefix_sums({"o1": F(1)}, ("o1", "o4"))


class TestSdCompare:
    def test_strict_dominance(self):
        assert sd_compare(A, B, ORDER) is SdVerdict.FIRST_STRICTLY_DOMINATES
        assert sd_compare(B, A, ORDER) is SdVerdict.SECOND_STRICTLY_DOMINATES

    def test_equal(self):
        assert sd_compare(A, dict(A), ORDER) is SdVerdict.EQUAL

    def test_incomparable(self):
        # prefix sums 1,1,1,2 vs 0,1,2,2 cross
        assert sd_compare(vec(1, 0, 0, 1), vec(0, 1, 1, 0), ORDER) is SdVerdict.INCOMPARABLE

    def test_weak_dominance_includes_equality(self):
        assert sd_weakly_dominates(A, B, ORDER)
        assert sd_weakly_dominates(A, dict(A), ORDER)
        assert not sd_weakly_dominates(B, A, ORDER)


class TestDlCompare:
    def test_first_wins_on_top_object(self):
        assert dl_compare(A, B, ORDER) is DlVerdict.FIRST
        assert dl_compare(B, A, ORDER) is DlVerdict.SECOND

    def test_equal(self):
        assert dl_compare(A, dict(A), ORDER) is DlVerdict.EQUAL

    def test_decides_at_first_difference(self):
        assert dl_compare(vec(1, 0, 0, 1), vec(0, 1, 1, 0), ORDER) is DlVerdict.FIRST
        # identical top amounts: decision falls to o3
        assert (
            dl_compare(vec(F(1, 2), 1, F(1, 4), F(1, 4)), vec(F(1, 2), 1, 0, F(1, 2)), ORDER)
            is DlVerdict.FIRST
        )


amounts = st.fractions(
    min_value=0, max_value=1, max_denominator=8
)
vectors = st.builds(vec, amounts, amounts, amounts, amounts)


@given(vectors, vectors)
def test_sd_matches_prefix_sum_oracle(a, b):
    assert sd_compare(a, b, ORDER).name == sd_oracle(a, b, ORDER)


@given(vectors, vectors)
def test_dl_matches_lexicographic_oracle(a, b):
    assert dl_compare(a, b, ORDER).name == dl_oracle(a, b, ORDER)


MIRROR = {
    SdVerdict.EQUAL: SdVerdict.EQUAL,
    SdVerdict.INCOMPARABLE: SdVerdict.INCOMPARABLE,
    SdVerdict.FIRST_STRICTLY_DOMINATES: SdVerdict.SECOND_STRICTLY_DOMINATES,
    SdVerdict.SECOND_STRICTLY_DOMINATES: SdVerdict.FIRST_STRICTLY_DOMINATES,
}


@given(vectors, vectors)
def test_sd_compare_is_antisymmetric(a, b):
    assert sd_compare(b, a, ORDER) is MIRROR[sd_compare(a, b, ORDER)]


@given(vectors, vectors)
def test_sd_strict_dominance_implies_dl(a, b):
    if sd_compare(a, b, ORDER) is SdVerdict.FIRST_STRICTLY_DOMINATES:
        assert dl_compare(a, b, ORDER) is DlVerdict.FIRST


@given(vectors)
def test_last_prefix_sum_is_row_sum(a):
    assert prefix_sums(a, ORDER)[-1] == sum(a.values())


@given(st.lists(vectors, min_size=2, max_size=5))
def test_dl_totally_orders_any_set(vs):
    ranked = sorted(vs, key=lambda v: tuple(v[o] for o in ORDER), reverse=True)
    for earlier, later in zip(ranked, ranked[1:]):
        assert dl_compare(earlier, later, ORDER) in (DlVerdict.FIRST, DlVerdict.EQUAL)


#: Column order of the matrix rows below, unlike ORDER.
COLUMNS = ("o3", "o1", "o4", "o2")


@given(vectors, vectors, st.permutations(ORDER))
def test_matrix_rows_read_at_column_indices_agree_with_names(a, b, order):
    """A row under an order of column indices runs the same comparisons."""
    row_a = tuple(a[o] for o in COLUMNS)
    row_b = tuple(b[o] for o in COLUMNS)
    ranked = tuple(COLUMNS.index(o) for o in order)
    assert prefix_sums(row_a, ranked) == prefix_sums(a, order)
    assert sd_compare(row_a, row_b, ranked) is sd_compare(a, b, order)
    assert sd_weakly_dominates(row_a, row_b, ranked) == sd_weakly_dominates(a, b, order)
    assert dl_compare(row_a, row_b, ranked) is dl_compare(a, b, order)
