"""Assignment rules: simultaneous eating, serial dictatorship and friends.

The eating engine advances through phases.  Within a phase every agent eats
each object of its current demand set at speed 1, so an object consumed by k
agents depletes at rate k.  The phase ends at the earliest exhaustion time,
computed exactly; objects hitting zero leave the market and demand sets are
recomputed.  Each phase exhausts at least one object, so there are at most m
phases and all breakpoints are exact rationals.  The engine computes them on
integers, as numerators over one running denominator.  The trace's phase
bounds and the output matrix are `Fraction`s, each built the first time a
caller reads it; a caller that reads only the integer view builds none.

The two eating rules differ only in the demand size: each agent eats its
min(size, #remaining) most preferred available objects at once, with size 1
for the one-at-a-time rule and the quota for the multi-unit rule.

Rules read a profile only through `instance` and `ranked`, whose rows they
only iterate, from the top.  Eating, serial dictatorship and `rp` read each
row only as far as their next pick needs, and not at all where the pick is
forced: eating reads no row once one object is left, and serial
dictatorship and `rp` none for the agent that picks last, who takes the
`quota` objects still free.  The misreport scan relies on this: it learns
which entries of a report a rule read by handing it the reported rows
through a view that logs them, and skips the reports that differ only
elsewhere.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Container, Sequence

from .model import (
    STATE_LIMIT,
    DiscreteAssignment,
    Instance,
    PreferenceProfile,
    RandomAssignment,
    discrete_to_random,
    refuse_over,
    require_balanced,
)


@dataclass(frozen=True)
class Phase:
    """Half-open eating interval [start, end).  `eating` has one demand per
    agent: the column indices of the objects it eats, best first."""

    start: Fraction
    end: Fraction
    eating: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EatingTrace:
    """An eating run: per phase its end, as (numerator, denominator), and its
    demands.  The `Fraction` phases are built on first read."""

    profile: PreferenceProfile
    ends: tuple[tuple[int, int], ...]
    demands: tuple[tuple[tuple[int, ...], ...], ...]
    assignment: RandomAssignment

    @functools.cached_property
    def phases(self) -> tuple[Phase, ...]:
        bounds = [Fraction(0)] + [Fraction(end, denominator) for end, denominator in self.ends]
        return tuple(map(Phase, bounds, bounds[1:], self.demands))

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(phase.end for phase in self.phases)


def simulate_eating(profile: PreferenceProfile, size: int) -> EatingTrace:
    """Run the simultaneous eating procedure to exhaustion of all objects.

    Each agent eats its min(`size`, #remaining) most preferred available
    objects at once.  The loop runs on integers: every amount left and the
    clock are numerators over one running denominator, which each phase
    first multiplies by the lcm of its eater counts, so that the phase's
    length min(left / eaters) is an exact integer quotient.  The
    assignment is built from the final numerators, and the trace keeps each
    phase's end and demand; their `Fraction`s are built on first read.
    Once one object is left, every agent eats it whatever its order, so
    that phase reads no row.
    """
    if size < 1:
        raise ValueError("demand size must be at least 1")
    inst = profile.instance
    scale = 1  # the running denominator of `remaining` and `now`
    remaining = dict.fromkeys(range(inst.num_objects), 1)  # column -> numerator left
    now = 0
    ends: list[tuple[int, int]] = []  # per phase: end time as (numerator, denominator)
    demands: list[tuple[tuple[int, ...], ...]] = []
    while remaining:
        if len(remaining) == 1:
            demand = (tuple(remaining),) * inst.num_agents
        else:
            take = min(size, len(remaining))
            demand = tuple(tuple(_top(ranked, remaining, take)) for ranked in profile.ranked)
        eaters: dict[int, int] = {}  # column -> agents eating it
        for columns in demand:
            for j in columns:
                eaters[j] = eaters.get(j, 0) + 1
        step = math.lcm(*eaters.values())
        if step > 1:
            scale *= step
            now *= step
            for j in remaining:
                remaining[j] *= step
        # Earliest exhaustion among objects currently being eaten; exact, so
        # simultaneous exhaustions land on the same breakpoint and merge here.
        dt = min(remaining[j] // k for j, k in eaters.items())
        for j, k in eaters.items():
            left = remaining[j] - dt * k
            if left:
                remaining[j] = left
            else:
                del remaining[j]
        now += dt
        ends.append((now, scale))
        demands.append(demand)
    # Each agent gets the length of every phase in which it eats a column,
    # all over the final denominator.
    eaten = [[0] * inst.num_objects for _ in inst.agents]
    before = 0
    for (end, denominator), demand in zip(ends, demands):
        end *= scale // denominator
        for row, columns in zip(eaten, demand):
            for j in columns:
                row[j] += end - before
        before = end
    assignment = RandomAssignment.from_numerators(inst, eaten, scale)
    return EatingTrace(profile, tuple(ends), tuple(demands), assignment)


def _top(ranked: Sequence[int], available: Container[int], take: int) -> list[int]:
    """The first `take` columns of `ranked` that are `available`, read no further."""
    if take == 1:
        for j in ranked:
            if j in available:
                return [j]
    chosen = []
    for j in ranked:
        if j in available:
            chosen.append(j)
            if len(chosen) == take:
                break
    return chosen


def mps_trace(profile: PreferenceProfile) -> EatingTrace:
    """Multi-unit eating: each agent eats its top min(quota, #remaining) objects."""
    return simulate_eating(profile, profile.instance.quota)


def mps(profile: PreferenceProfile) -> RandomAssignment:
    return mps_trace(profile).assignment


def ops_trace(profile: PreferenceProfile) -> EatingTrace:
    """One-at-a-time eating: each agent eats its single most preferred available object."""
    return simulate_eating(profile, 1)


def ops(profile: PreferenceProfile) -> RandomAssignment:
    return ops_trace(profile).assignment


def uniform(instance: Instance) -> RandomAssignment:
    """Every agent gets every object with probability 1/n."""
    require_balanced(instance, "the uniform rule")
    n = instance.num_agents
    return RandomAssignment.from_numerators(instance, ((1,) * instance.num_objects,) * n, n)


def serial_dictator(profile: PreferenceProfile, priority: Sequence[str]) -> DiscreteAssignment:
    """Agents pick their best `quota` remaining objects in priority order.

    The last agent takes the `quota` objects still free, so its row is not read.
    """
    inst = profile.instance
    require_balanced(inst, "serial dictatorship")
    if list(sorted(priority)) != sorted(inst.agents):
        raise ValueError("priority order must list every agent exactly once")
    owners: list[str | None] = [None] * inst.num_objects
    free = set(range(inst.num_objects))
    *pickers, last = priority
    for agent in pickers:
        for j in _top(profile.ranked[inst.agent_index(agent)], free, inst.quota):
            owners[j] = agent
            free.discard(j)
    for j in free:
        owners[j] = last
    return DiscreteAssignment(inst, owners)


def priority_rule(profile: PreferenceProfile) -> RandomAssignment:
    """Serial dictatorship under the fixed priority order of the instance's agents."""
    return discrete_to_random(serial_dictator(profile, profile.instance.agents))


def random_priority(profile: PreferenceProfile) -> RandomAssignment:
    """Exact average of serial dictatorship over all n! priority orders.

    Once k agents have picked, the rest of serial dictatorship depends only
    on the state (who has picked, which objects are taken).  One forward
    pass over the states, layer by layer, carries the number w of priority
    prefixes that reach each; agent i picking next from a state of layer k
    does so in w * (n-k-1)! of the n! orders.  The counts are integers,
    divided by n! once at the end, so the average is exact.  The one agent
    left in a state of layer n-1 picks last and takes the `quota` objects
    still free whatever its order, so its row is not read there.

    Computing RP probabilities is #P-complete, so the number of states is
    exponential in the worst case.  An upper bound on it is compared with
    STATE_LIMIT before any state is built: every instance of up to 9
    agents is admitted, and up to 11 at quota 1.
    """
    inst = profile.instance
    require_balanced(inst, "random priority")
    n, m, quota = inst.num_agents, inst.num_objects, inst.quota
    refuse_over(_state_bound(n, m, quota), STATE_LIMIT, f"rp states of {n} agents")
    totals = [[0] * m for _ in inst.agents]
    layer = Counter({(0, 0): 1})  # (who picked, what is taken) bitmasks -> prefixes
    for k in range(n - 1):
        orders_per_prefix = math.factorial(n - k - 1)
        successors: Counter[tuple[int, int]] = Counter()
        for (picked, taken), ways in layer.items():
            share = ways * orders_per_prefix
            for i, order in enumerate(profile.ranked):
                if picked >> i & 1:
                    continue
                row, grabbed, left = totals[i], taken, quota
                for j in order:
                    if not grabbed >> j & 1:
                        grabbed |= 1 << j
                        row[j] += share
                        left -= 1
                        if not left:
                            break
                successors[picked | 1 << i, grabbed] += ways
        layer = successors
    everyone = (1 << n) - 1
    for (picked, taken), ways in layer.items():
        row = totals[(everyone ^ picked).bit_length() - 1]  # the last picker
        for j in range(m):
            if not taken >> j & 1:
                row[j] += ways
    return RandomAssignment.from_numerators(inst, totals, math.factorial(n))


@functools.cache
def _state_bound(n: int, m: int, quota: int) -> int:
    """Upper bound on the pick states of `random_priority`, computed once per shape.

    Layer k has at most C(n, k) * C(m, k * quota) states (who picked, what is
    taken) and at most n!/(n-k)! (one per priority prefix of length k).  The
    sum stops once it passes STATE_LIMIT, so a refused bound is any number
    past the limit.
    """
    total, prefixes = 0, 1
    for k in range(n + 1):
        total += min(math.comb(n, k) * math.comb(m, k * quota), prefixes)
        if total > STATE_LIMIT:
            break
        prefixes *= n - k
    return total
