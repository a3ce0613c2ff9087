"""Efficiency notions: perfection, SD-dominance, SD-efficiency, ex-post
efficiency, and decomposition of random assignments into lotteries over
discrete assignments.

SD-efficiency is decided by a trade-cycle test over the objects: the input
is SD-efficient exactly when no cycle of objects exists along which every
agent could swap some of a worse object for a better one.  A cycle found
becomes the certificate: trading the largest feasible epsilon along it gives
an assignment that SD-dominates the input.  The test holds for any fixed row
sums, so it also screens unbalanced discrete candidates.

Ex-post efficiency starts from the same test.  An SD-efficient input is
ex-post efficient (Bogomolnaia and Moulin 2001), and its own lottery
decomposition is the witness: a trade edge a -> b of a term d, labelled i,
has d giving i object b and someone else object a, so the input holds some
of b and less than all of a for i, and the edge is in the input's graph
too.  No cycle there means no cycle in any term, so every term is
SD-efficient, and the checker screens each one to confirm it.  Only an
input with a cycle goes on to the enumeration: it enumerates discrete
assignments, keeps the SD-efficient ones and asks, by an exact feasibility
simplex, whether the input is a convex combination of the survivors.  The
trade-cycle test, SD-dominance, the trade, the hull LP and the lottery
decomposition compute on integer `numerators` over each assignment's
`denominator` (SD-dominance scales each matrix's by the other's);
`Fraction`s are built only for the dominator's entries, the hull LP's
answer and the lottery weights.
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

    # Depth-first: `untried` holds the starts, in column order, and then the
    # untried edges, in insertion order, of each node on the walk `path`.
    state = [0] * m  # 0 unvisited, 1 on the current path, 2 finished
    path: list[int] = []
    untried = [iter(range(m))]
    while untried:
        for b in untried[-1]:
            if state[b] == 1:
                cycle = path[path.index(b):]
                return [(edges[a][b], a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
            if state[b] == 0:
                state[b] = 1
                path.append(b)
                untried.append(iter(edges[b]))
                break
        else:
            untried.pop()
            if path:
                state[path.pop()] = 2
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

    objects = instance.objects

    def fill(remaining: tuple[str, ...], agents: tuple[str, ...], acc: dict):
        if not agents:
            yield DiscreteAssignment(instance, tuple(acc[o] for o in objects))
            return
        head, rest = agents[0], agents[1:]
        for bundle in itertools.combinations(remaining, c):
            for o in bundle:
                acc[o] = head
            left = tuple(o for o in remaining if o not in bundle)
            yield from fill(left, rest, acc)

    return fill(objects, instance.agents, {})


def sd_efficient_discrete(
    profile: PreferenceProfile, balanced: bool = True
) -> Iterator[DiscreteAssignment]:
    """The discrete assignments with no trade cycle, in enumeration order.

    Balanced candidates are screened with row sums `quota`, and the
    unbalanced pool's with row sums pinned to each candidate's bundle sizes.
    """
    return (
        d for d in enumerate_discrete(profile.instance, balanced)
        if _trade_cycle(d.grid(), 1, profile) is None
    )


def is_ex_post_efficient(
    p: RandomAssignment,
    profile: PreferenceProfile,
    allow_unbalanced: bool = False,
) -> EfficiencyVerdict:
    """Is `p` a convex combination of SD-efficient discrete assignments?

    When `p` has no trade cycle the answer is yes, and the witness is
    `decompose_lottery(p)`: every edge of a term's trade graph is an edge of
    `p`'s (see the module docstring), so every term passes the screen, which
    is still run on each.  Its terms are balanced, so they serve
    `allow_unbalanced` as well.  Such inputs build no survivors, reach no
    guard and solve no LP.

    Otherwise the candidates are enumerated and screened: with
    `allow_unbalanced` every owner map, each with row sums pinned to its own
    bundle sizes, and else only balanced assignments.  More than HULL_LIMIT
    survivors are refused before the hull LP is built.
    """
    require_balanced(profile.instance, "ex-post efficiency")
    require_shared_instance(p, profile)
    require_feasible(p)
    if _trade_cycle(p.numerators, p.denominator, profile) is None:
        decomposition = decompose_lottery(p)
        if any(_trade_cycle(d.grid(), 1, profile) is not None for _, d in decomposition):
            raise RuntimeError(
                "a term of an SD-efficient lottery has a trade cycle; "
                "the decomposition argument does not hold"
            )
        return EfficiencyVerdict(True, decomposition=decomposition)
    screened = sd_efficient_discrete(profile, balanced=not allow_unbalanced)
    survivors = tuple(itertools.islice(screened, HULL_LIMIT + 1))
    refuse_over(len(survivors), HULL_LIMIT, "SD-efficient discrete assignments")
    target = [v for row in p.numerators for v in row]
    generators = [[v for row in d.grid() for v in row] for d in survivors]
    hull = convex_membership(target, p.denominator, generators)
    if hull.status == "feasible":
        decomposition = tuple(
            (w, d) for w, d in zip(hull.point, survivors) if w != 0
        )
        return EfficiencyVerdict(True, decomposition=decomposition, survivors=survivors)
    return EfficiencyVerdict(False, survivors=survivors, farkas=hull.farkas)


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
    not a valid partial lottery.  Each object's search is depth-first and
    tries agents in order, each agent's slots by index, and no slot twice.
    So the slots one search has tried are a prefix of each agent's, and
    `tried[i]` counts agent i's.
    """
    slot_obj: dict[tuple[int, int], int] = {}
    owner = [-1] * m

    def slots(j: int) -> Iterator[tuple[int, int]]:
        for i in range(n):
            while work[i][j] > 0 and tried[i] < quota:
                tried[i] += 1
                yield i, tried[i] - 1

    for j in range(m):
        # `path` is the slots taken so far, one per object moved, and
        # `untried` the slots left for j and for each object displaced.
        tried = [0] * n
        path: list[tuple[int, int]] = []
        untried = [slots(j)]
        while untried:
            slot = next(untried[-1], None)
            if slot is None:
                untried.pop()
                if path:
                    path.pop()
            elif slot in slot_obj:
                path.append(slot)
                untried.append(slots(slot_obj[slot]))
            else:
                moved = [j, *(slot_obj[s] for s in path)]
                for obj, (i, k) in zip(moved, [*path, slot]):
                    slot_obj[i, k] = obj
                    owner[obj] = i
                break
        else:
            raise RuntimeError(
                "no balanced assignment on the support; input is not a valid lottery"
            )
    return owner
