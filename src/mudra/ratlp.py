"""Exact feasibility of A x = b, x >= 0 for integer A and b.

A phase-one primal simplex with Bland's anti-cycling rule on a
fraction-free (Bareiss) tableau: every entry stays an integer and every
pivot divides exactly, with no floats and no tolerances, so the verdict is
exact and deterministic.  It comes with a certificate either way:

    feasible:    a point x with A x == b and x >= 0;
    infeasible:  a Farkas vector y, one multiplier per row, with
                 sum_k y_k * a_kj <= 0 for every column j and
                 sum_k y_k * b_k > 0.

By Farkas's lemma exactly one of the two exists, so substituting the
certificate settles the question.  The one problem mudra solves here is the
hull test of ex-post efficiency (`convex_membership`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class Feasibility:
    """The answer of `solve`, with the point or the Farkas vector."""

    status: str  # "feasible" | "infeasible"
    point: tuple[Fraction, ...] | None = None
    farkas: tuple[Fraction, ...] | None = None


def solve(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> Feasibility:
    """Decide whether some x >= 0 has `rows` . x == `rhs`, with a certificate.

    Every entry must be an int: a float, a Fraction or a bool raises TypeError.
    """
    if len(rows) != len(rhs):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    nvars = len(rows[0]) if rows else 0
    nrows = len(rows)
    # A row is its entries, its artificial's unit column and its right-hand
    # side; one with a negative right-hand side is negated, so that its
    # artificial starts basic at |b_k|.
    signs: list[int] = []
    tableau: list[list[int]] = []
    for k, (row, b_k) in enumerate(zip(rows, rhs)):
        if len(row) != nvars:
            raise ValueError(f"row {k} has {len(row)} entries, expected {nvars}")
        for v in (*row, b_k):
            if type(v) is not int:  # a bool is an int to Python, but no coefficient
                raise TypeError(f"row {k}: expected an int, got {type(v).__name__} {v!r}")
        sign = -1 if b_k < 0 else 1
        entries = [sign * a for a in row] + [int(i == k) for i in range(nrows)]
        tableau.append(entries + [sign * b_k])
        signs.append(sign)
    basis = list(range(nvars, nvars + nrows))

    # Maximise minus the sum of the artificials.  Adding every row to that
    # objective's row prices the artificial basis out: `cost` is the reduced
    # costs and then minus the objective.  The rows and `cost` are over `d`.
    cost = [sum(column) for column in zip(*tableau, [0] * nvars + [-1] * nrows + [0])]
    d = 1
    while True:
        # Bland: the first improving column enters (artificials may), and a
        # tie in the ratio test leaves by the lower basic column.
        e = next((j for j in range(nvars + nrows) if cost[j] > 0), None)
        if e is None:
            break
        r = None
        for i, row in enumerate(tableau):
            # The least (row[-1] / row[e], basis[i]), the ratio cross-multiplied.
            if row[e] > 0 and (r is None or (row[-1] * tableau[r][e], basis[i])
                               < (tableau[r][-1] * row[e], basis[r])):
                r = i
        # The objective is bounded above by zero, so some row always leaves.
        # The pivot row stays; each other row divides exactly by the old d.
        prow, p = tableau[r], tableau[r][e]
        for i, row in enumerate(tableau):
            if i != r:
                f = row[e]
                tableau[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
        f = cost[e]
        cost = [(p * x - f * y) // d for x, y in zip(cost, prow)]
        basis[r], d = e, p

    if cost[-1]:
        # The simplex multipliers sit in the artificial columns, each of
        # which started as a unit column; undo the row negations.
        farkas = tuple(Fraction((d + cost[nvars + k]) * signs[k], d) for k in range(nrows))
        return Feasibility("infeasible", farkas=farkas)
    point = [Fraction(0)] * nvars
    for row, col in zip(tableau, basis):
        if col < nvars:
            point[col] = Fraction(row[-1], d)
    return Feasibility("feasible", point=tuple(point))


def convex_membership(
    target: Sequence[int], denominator: int, generators: Sequence[Sequence[int]]
) -> Feasibility:
    """Decide whether `target` / `denominator` is a convex combination of
    the integer `generators`.

    This is `solve` on the coordinate rows plus the weight-sum row, in that
    order, with right-hand side `target` and `denominator`.  Scaling the
    right-hand side changes no pivot, so the point over `denominator` is the
    weights, one per generator, and the Farkas vector is unchanged.
    """
    dim = len(target)
    for g, gen in enumerate(generators):
        if len(gen) != dim:
            raise ValueError(f"generator {g} has dimension {len(gen)}, expected {dim}")
    rows = [[gen[d] for gen in generators] for d in range(dim)]
    rows.append([1] * len(generators))
    hull = solve(rows, [*target, denominator])
    if hull.status == "infeasible":
        return hull
    return Feasibility("feasible", point=tuple(w / denominator for w in hull.point))
