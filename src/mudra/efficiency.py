"""Efficiency notions: perfection, SD-dominance, SD-efficiency, ex-post
efficiency, and decomposition of random assignments into lotteries over
discrete assignments.

SD-efficiency is decided by a trade-cycle test over the objects: the input
is SD-efficient exactly when no cycle of objects exists along which every
agent could swap some of a worse object for a better one.  A cycle found
becomes the certificate: trading the largest feasible epsilon along it gives
an assignment that SD-dominates the input.  The test holds for any fixed row
sums, so it also screens unbalanced discrete candidates.  Ex-post efficiency
enumerates discrete assignments, keeps the SD-efficient ones and asks, by an
exact feasibility simplex, whether the input is a convex combination of the
survivors.  The trade-cycle test, SD-dominance, the trade and the lottery
decomposition compute on integer `numerators` over each assignment's
`denominator` (SD-dominance scales each matrix's by the other's);
`Fraction`s are built only for the dominator's entries and the lottery
weights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .model import (
    DISCRETE_LIMIT,
    HULL_LIMIT,
    DiscreteAssignment,
    Instance,
    PreferenceProfile,
    RandomAssignment,
    capped_product,
    refuse_over,
    require_balanced,
    require_feasible,
    require_shared_instance,
)
from .order import sd_weakly_dominates
from .ratlp import convex_membership


@dataclass(frozen=True)
class EfficiencyVerdict:
    holds: bool
    dominator: RandomAssignment | None = None
    decomposition: tuple[tuple[Fraction, DiscreteAssignment], ...] | None = None
    survivors: tuple[DiscreteAssignment, ...] | None = None
    farkas: tuple[Fraction, ...] | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.holds


def perfect_assignment(profile: PreferenceProfile) -> DiscreteAssignment | None:
    """The assignment giving everyone their top quota objects, if one exists."""
    inst = profile.instance
    require_balanced(inst, "perfection")
    owners: list[str | None] = [None] * inst.num_objects
    for agent, ranked in zip(inst.agents, profile.ranked):
        for j in ranked[: inst.quota]:
            if owners[j] is not None:
                return None
            owners[j] = agent
    return DiscreteAssignment(inst, owners)


def sd_dominates(q: RandomAssignment, p: RandomAssignment, profile: PreferenceProfile) -> bool:
    """True when every agent weakly prefers q to p and someone strictly does."""
    require_shared_instance(q, profile)
    require_shared_instance(p, profile)
    q_scale, p_scale = q.denominator, p.denominator
    q_rows = [[v * p_scale for v in row] for row in q.numerators]
    p_rows = [[v * q_scale for v in row] for row in p.numerators]
    return all(map(sd_weakly_dominates, q_rows, p_rows, profile.ranked)) and q_rows != p_rows


def _trade_cycle(
    rows: Sequence[Sequence[int]], full: int, profile: PreferenceProfile
) -> list[tuple[int, int, int]] | None:
    """A cycle of the trade graph of `rows`, or None when it has none.

    `rows` are integer amounts of which `full` is all of an object: the
    `numerators` over `denominator`, or a 0/1 grid with `full` 1.  The
    graph's nodes are the objects.  It has an edge a -> b, labelled with
    agent i, when i prefers a to b, holds some of b and less than all of a,
    so i would give up some b for more a.  Whatever the row sums, balanced
    or not, some assignment with the same row sums SD-dominates `rows`
    exactly when this graph has a cycle (Bogomolnaia and Moulin 2001,
    Lemma 3, with the bound on a that quotas add).  The cycle is returned as
    its edges (i, a, b): agent index, then object indices.
    """
    m = profile.instance.num_objects
    edges: list[dict[int, int]] = [{} for _ in range(m)]  # a -> {b: agent}
    for i, (row, ranked) in enumerate(zip(rows, profile.ranked)):
        for t, a in enumerate(ranked):
            if row[a] < full:
                for b in ranked[t + 1:]:
                    if row[b] > 0:
                        edges[a].setdefault(b, i)

    state = [0] * m  # 0 unvisited, 1 on the current path, 2 finished
    path: list[int] = []

    def visit(a: int) -> list[int] | None:
        state[a] = 1
        path.append(a)
        for b in edges[a]:
            if state[b] == 1:
                return path[path.index(b):]
            if state[b] == 0:
                cycle = visit(b)
                if cycle is not None:
                    return cycle
        state[a] = 2
        path.pop()
        return None

    for start in range(m):
        if state[start] == 0:
            cycle = visit(start)
            if cycle is not None:
                return [
                    (edges[a][b], a, b)
                    for a, b in zip(cycle, cycle[1:] + cycle[:1])
                ]
    return None


def _trade_along(p: RandomAssignment, cycle: list[tuple[int, int, int]]) -> RandomAssignment:
    """The assignment after every edge (i, a, b) of `cycle` trades epsilon.

    Agent i gets epsilon more of a and epsilon less of b.  Every object is
    given once and taken once, so column and row sums stay put; epsilon is
    the largest step that keeps every entry in [0, 1], and each trader
    moves mass up its own order, so the result SD-dominates `p`.
    """
    d = p.denominator
    work = [list(row) for row in p.numerators]
    eps = min(min(work[i][b], d - work[i][a]) for i, a, b in cycle)
    for i, a, b in cycle:
        work[i][a] += eps
        work[i][b] -= eps
    return RandomAssignment.from_numerators(p.instance, work, d)


def is_sd_efficient(p: RandomAssignment, profile: PreferenceProfile) -> EfficiencyVerdict:
    """Exact SD-efficiency test; failures carry a dominating assignment."""
    require_balanced(profile.instance, "SD-efficiency")
    require_shared_instance(p, profile)
    require_feasible(p)
    cycle = _trade_cycle(p.numerators, p.denominator, profile)
    if cycle is None:
        return EfficiencyVerdict(True)
    return EfficiencyVerdict(False, dominator=_trade_along(p, cycle))


def enumerate_discrete(
    instance: Instance, balanced: bool = True
) -> Iterator[DiscreteAssignment]:
    """All discrete assignments in a fixed canonical order.

    Balanced: every agent owns exactly `quota` objects.  Unbalanced: every
    owner map, bundle sizes unconstrained.  Refuses to start when the count
    exceeds DISCRETE_LIMIT.
    """
    n, m = instance.num_agents, instance.num_objects
    if not balanced:
        count = capped_product(itertools.repeat(n, m), DISCRETE_LIMIT)
        refuse_over(count, DISCRETE_LIMIT, f"{n}^{m} owner maps")
        return (
            DiscreteAssignment(instance, owners)
            for owners in itertools.product(instance.agents, repeat=m)
        )
    require_balanced(instance, "balanced enumeration")
    c = instance.quota
    # m!/(c!)^n is the product over agents k >= 1 of C((k+1)c, c), each
    # C((k+1)c, c) the product of (kc+i)/i for i = 1..c: factors of at least 2.
    factors = (Fraction(k * c + i, i) for k in range(1, n) for i in range(1, c + 1))
    count = capped_product(factors, DISCRETE_LIMIT)
    refuse_over(count, DISCRETE_LIMIT, f"{m}!/({c}!)^{n} balanced assignments")

    def gen_balanced() -> Iterator[DiscreteAssignment]:
        objects = instance.objects

        def fill(remaining: tuple[str, ...], agents: tuple[str, ...], acc: dict):
            if not agents:
                yield DiscreteAssignment(
                    instance, tuple(acc[o] for o in objects)
                )
                return
            head, rest = agents[0], agents[1:]
            for bundle in itertools.combinations(remaining, c):
                for o in bundle:
                    acc[o] = head
                left = tuple(o for o in remaining if o not in bundle)
                yield from fill(left, rest, acc)

        yield from fill(objects, instance.agents, {})

    return gen_balanced()


def is_ex_post_efficient(
    p: RandomAssignment,
    profile: PreferenceProfile,
    allow_unbalanced: bool = False,
) -> EfficiencyVerdict:
    """Is `p` a convex combination of SD-efficient discrete assignments?

    With `allow_unbalanced` the candidate pool is every owner map and each
    candidate is screened with row sums pinned to its own bundle sizes;
    otherwise only balanced assignments compete.  Refuses more than
    HULL_LIMIT survivors before the hull LP is built.
    """
    inst = profile.instance
    require_balanced(inst, "ex-post efficiency")
    require_shared_instance(p, profile)
    require_feasible(p)
    screened = (
        d for d in enumerate_discrete(inst, balanced=not allow_unbalanced)
        if _trade_cycle(d.grid(), 1, profile) is None
    )
    survivors = tuple(itertools.islice(screened, HULL_LIMIT + 1))
    refuse_over(len(survivors), HULL_LIMIT, "SD-efficient discrete assignments")
    target = [v for row in p.matrix for v in row]
    generators = [[v for row in d.grid() for v in row] for d in survivors]
    hull = convex_membership(target, generators)
    if hull.status == "feasible":
        decomposition = tuple(
            (w, d) for w, d in zip(hull.point, survivors) if w != 0
        )
        return EfficiencyVerdict(True, decomposition=decomposition, survivors=survivors)
    return EfficiencyVerdict(
        False, survivors=survivors, farkas=hull.farkas,
        detail=f"not in the convex hull of the {len(survivors)} SD-efficient "
               f"discrete assignments",
    )


def decompose_lottery(
    p: RandomAssignment,
) -> tuple[tuple[Fraction, DiscreteAssignment], ...]:
    """Write `p` as an exact lottery over balanced discrete assignments.

    Iteratively finds a balanced discrete assignment supported on the
    positive entries, subtracts it with the largest feasible weight, and
    repeats; every round zeroes at least one entry, so there are at most
    n * m terms and the weights sum to exactly one.
    """
    inst = p.instance
    require_balanced(inst, "lottery decomposition")
    require_feasible(p)
    n, m, quota = inst.num_agents, inst.num_objects, inst.quota
    d = p.denominator
    work = [list(row) for row in p.numerators]
    terms: list[tuple[Fraction, DiscreteAssignment]] = []
    total = 0
    while total < d:
        owner = _balanced_support_assignment(work, n, m, quota)
        weight = min(work[owner[j]][j] for j in range(m))
        assert weight > 0
        for j in range(m):
            work[owner[j]][j] -= weight
        total += weight
        owners = tuple(inst.agents[owner[j]] for j in range(m))
        terms.append((Fraction(weight, d), DiscreteAssignment(inst, owners)))
    assert all(v == 0 for row in work for v in row)
    return tuple(terms)


def _balanced_support_assignment(
    work: Sequence[Sequence[int]], n: int, m: int, quota: int
) -> list[int]:
    """Match every object to an agent with positive entry, quota per agent.

    Augmenting-path matching over agent slots; existence follows from the
    integrality of transportation polytopes, so failure means the input was
    not a valid partial lottery.
    """
    slot_obj: dict[tuple[int, int], int] = {}
    owner = [-1] * m

    def try_assign(j: int, seen: set[tuple[int, int]]) -> bool:
        for i in range(n):
            if work[i][j] > 0:
                for k in range(quota):
                    slot = (i, k)
                    if slot in seen:
                        continue
                    seen.add(slot)
                    if slot not in slot_obj or try_assign(slot_obj[slot], seen):
                        slot_obj[slot] = j
                        owner[j] = i
                        return True
        return False

    for j in range(m):
        if not try_assign(j, set()):
            raise RuntimeError(
                "no balanced assignment on the support; input is not a valid lottery"
            )
    return owner

