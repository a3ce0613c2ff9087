"""Exact feasibility of A x = b, x >= 0 over the rationals.

A phase-one primal simplex with Bland's anti-cycling rule.  Everything is
`fractions.Fraction`: no floats, no tolerances, so the verdict is exact and
deterministic, and it comes with a certificate either way:

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

from .model import _check_rational

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Feasibility:
    """The answer of `solve`, with the point or the Farkas vector."""

    status: str  # "feasible" | "infeasible"
    point: tuple[Fraction, ...] | None = None
    farkas: tuple[Fraction, ...] | None = None


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Feasibility:
    """Decide whether some x >= 0 has `rows` . x == `rhs`, with a certificate.

    Every entry must be an int or a Fraction; floats raise TypeError.
    """
    if len(rows) != len(rhs):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    nvars = len(rows[0]) if rows else 0
    nrows = len(rows)
    # A row with a negative right-hand side is negated, so that each row's
    # artificial column starts basic at |b_k|.
    signs: list[int] = []
    tableau: list[list[Fraction]] = []
    b: list[Fraction] = []
    for k, (row, b_k) in enumerate(zip(rows, rhs)):
        if len(row) != nvars:
            raise ValueError(f"row {k} has {len(row)} entries, expected {nvars}")
        b_k = _check_rational(b_k, f"right-hand side {k}")
        sign = -1 if b_k < 0 else 1
        entries = [sign * _check_rational(a, f"entry ({k}, {j})") for j, a in enumerate(row)]
        entries += [ONE if i == k else ZERO for i in range(nrows)]
        signs.append(sign)
        tableau.append(entries)
        b.append(sign * b_k)
    basis = list(range(nvars, nvars + nrows))

    # Maximise minus the sum of the artificials.  `cost` is the reduced-cost
    # row with the artificial basis priced out, and `value` the objective.
    cost = [sum((row[j] for row in tableau), ZERO) for j in range(nvars)]
    cost += [ZERO] * nrows
    value = -sum(b, ZERO)
    while True:
        # Bland: the first improving column enters (artificials may), and a
        # tie in the ratio test leaves by the lower basic column.
        e = next((j for j, c in enumerate(cost) if c > 0), None)
        if e is None:
            break
        r, best = None, None
        for i, row in enumerate(tableau):
            if row[e] > 0:
                ratio = b[i] / row[e]
                if r is None or ratio < best or (ratio == best and basis[i] < basis[r]):
                    r, best = i, ratio
        # The objective is bounded above by zero, so some row always leaves.
        prow = tableau[r]
        factor = prow[e]
        if factor != 1:
            tableau[r] = prow = [x / factor for x in prow]
            b[r] /= factor
        for i, row in enumerate(tableau):
            f = row[e]
            if i != r and f:
                tableau[i] = [x - f * y if y else x for x, y in zip(row, prow)]
                b[i] -= f * b[r]
        f = cost[e]
        cost = [x - f * y if y else x for x, y in zip(cost, prow)]
        value += f * b[r]
        basis[r] = e

    if value != 0:
        # The simplex multipliers sit in the artificial columns, each of
        # which started as a unit column; undo the row negations.
        farkas = tuple((1 + cost[nvars + k]) * signs[k] for k in range(nrows))
        return Feasibility("infeasible", farkas=farkas)
    point = [ZERO] * nvars
    for r, col in enumerate(basis):
        if col < nvars:
            point[col] = b[r]
    return Feasibility("feasible", point=tuple(point))


def convex_membership(
    target: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]
) -> Feasibility:
    """Decide whether `target` is a convex combination of `generators`.

    This is `solve` on the coordinate rows plus the weight-sum row, in that
    order: when feasible its point is the weights, one per generator;
    otherwise its Farkas vector has one multiplier per row.
    """
    dim = len(target)
    for g, gen in enumerate(generators):
        if len(gen) != dim:
            raise ValueError(f"generator {g} has dimension {len(gen)}, expected {dim}")
    rows = [[gen[d] for gen in generators] for d in range(dim)]
    rows.append([1] * len(generators))
    return solve(rows, [*target, 1])
