"""Stochastic dominance and downward lexicographic comparison of allocations.

An allocation vector gives each object an amount, a `Fraction` or an int (a
numerator over a denominator that both compared vectors share), and every
function here reads it as `amounts[key]` at the keys a strict preference
order lists, most preferred first: object names for a name-keyed mapping, or
column indices (`PreferenceProfile.ranked`) for a matrix row.  The prefix
sums (cumulative amounts over ever-larger upper contour sets) fully
determine both comparisons: stochastic dominance compares prefix sums
pointwise, the downward lexicographic order compares amounts key by key
from the most preferred down.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from typing import Mapping, Sequence, Union

#: Amounts read at the keys of an order: an object -> amount mapping under an
#: order of object names, or a matrix row under an order of column indices;
#: amounts are Fractions, or numerators over one shared denominator.
AllocationVector = Union[Mapping[str, Fraction | int], Sequence[Fraction | int]]
#: A strict order of the keys of an allocation vector, most preferred first.
Order = Union[Sequence[str], Sequence[int]]


class SdVerdict(enum.Enum):
    EQUAL = "equal"
    FIRST_STRICTLY_DOMINATES = "first-strictly-dominates"
    SECOND_STRICTLY_DOMINATES = "second-strictly-dominates"
    INCOMPARABLE = "incomparable"


class DlVerdict(enum.Enum):
    FIRST = "first"
    SECOND = "second"
    EQUAL = "equal"


def prefix_sums(amounts: AllocationVector, order: Order) -> tuple[Fraction | int, ...]:
    """Cumulative amounts along `order`, one entry per prefix."""
    return tuple(itertools.accumulate(amounts[key] for key in order))


def sd_compare(a: AllocationVector, b: AllocationVector, order: Order) -> SdVerdict:
    """Compare two allocation vectors by stochastic dominance under `order`.

    First strictly dominates when every prefix sum of `a` is at least the
    matching prefix sum of `b`, at least one strictly so; symmetrically for
    the second; equal prefix sums everywhere means equal vectors.
    """
    a_ge_b = True
    b_ge_a = True
    for pa, pb in zip(prefix_sums(a, order), prefix_sums(b, order)):
        if pa < pb:
            a_ge_b = False
        elif pa > pb:
            b_ge_a = False
    if a_ge_b and b_ge_a:
        return SdVerdict.EQUAL
    if a_ge_b:
        return SdVerdict.FIRST_STRICTLY_DOMINATES
    if b_ge_a:
        return SdVerdict.SECOND_STRICTLY_DOMINATES
    return SdVerdict.INCOMPARABLE


def sd_weakly_dominates(a: AllocationVector, b: AllocationVector, order: Order) -> bool:
    """True when `a` is at least as good as `b` at every prefix of `order`."""
    return sd_compare(a, b, order) in (SdVerdict.EQUAL, SdVerdict.FIRST_STRICTLY_DOMINATES)


def dl_compare(a: AllocationVector, b: AllocationVector, order: Order) -> DlVerdict:
    """Downward lexicographic comparison: the first differing amount decides."""
    for key in order:
        va, vb = a[key], b[key]
        if va != vb:
            return DlVerdict.FIRST if va > vb else DlVerdict.SECOND
    return DlVerdict.EQUAL
