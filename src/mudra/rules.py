"""Assignment rules: simultaneous eating, serial dictatorship and friends.

Each bundled rule has an integer kernel, `(instance, ranked) ->
(numerators, denominator)`, which returns the matrix unreduced; the public
rule is `RandomAssignment.from_numerators` of it on `profile.ranked`, its
one route to the matrix, and `KERNELS` maps each public rule to its
kernel.  `kernel_of` is the one place that decides how any rule runs on
rows: it gives the rule's kernel and says whether a misreport scan may
prune its runs.  A bundled rule runs its own kernel, with pruning; an
output memo's rule carries its kernel, and any other rule is adapted to
run on the profile of the rows, both without.

The eating engine advances through phases.  Within a phase every agent eats
each object of its current demand set at speed 1, so an object consumed by k
agents depletes at rate k.  The phase ends at the earliest exhaustion time,
computed exactly; objects hitting zero leave the market and demand sets are
recomputed.  Each phase exhausts at least one object, so there are at most m
phases and all breakpoints are exact rationals.  The engine computes them on
integers, as numerators over one fixed denominator, lcm(1..n)^m (`_eat`),
and adds up each agent's shares as it eats.  Only `simulate_eating` builds
a trace, whose phase bounds are `Fraction`s; the rules `ops` and `mps` run
the engine's kernel and build none.

The two eating rules differ only in the demand size: each agent eats its
min(size, #remaining) most preferred available objects at once, with size 1
for the one-at-a-time rule and the quota for the multi-unit rule.

Kernels only iterate the rows of `ranked`, from the top, each only as far
as the next pick needs, and not at all where the pick is forced: eating
reads no row once one object is left, and serial dictatorship and `rp` none
for the agent that picks last, who takes the `quota` objects still free.
The misreport scan calls the kernels on reports held as `ranked` rows, each
coalition member's behind a view that logs the positions read
(`strategy._ReportedRow`), and skips the reports that differ only elsewhere.

Every kernel that `kernel_of` returns takes an optional `stop`, which only
the scan makes.  The eating kernels ask it after each phase but the last,
and `_rp` after each layer of pick states it builds but the last; no other
kernel asks.  A kernel that asks hands the stop a ceiling on every prefix
sum of every row, a number that the prefix sum of the finished run cannot
exceed, over the one denominator of all its runs on the instance (n!, or
lcm(1..n)^m).  It returns None, no outcome, when the stop says to stop,
which it does only once the ceilings rule out every kind of gain the scan
asks for (`strategy._ruled_out`).  A kernel without a `stop` pays one
`is None` test per phase or layer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Container, Iterator, Sequence

from .model import (
    STATE_LIMIT,
    DiscreteAssignment,
    Instance,
    PreferenceProfile,
    RandomAssignment,
    refuse_over,
    require_balanced,
)

#: A rule: profile -> random assignment.
Rule = Callable[[PreferenceProfile], RandomAssignment]
#: (row, its order of columns) -> numerators over the run's denominator,
#: one per prefix of the order, that the row's final prefix sums do not exceed.
Ceiling = Callable[[int, Sequence[int]], Iterator[int]]
#: ceiling -> whether to end the run: see `Kernel`.
Stop = Callable[[Ceiling], bool]
#: (instance, ranked, stop=None) -> (numerators, denominator): a rule on
#: integers.  Every kernel accepts a `stop`; one that asks it (the eating
#: kernels and `_rp`) hands it a ceiling on the final prefix sums over the
#: one denominator of all its runs on the instance, and returns None, no
#: outcome, when it says yes.  Only `adapted`'s outcomes are reduced.
Kernel = Callable[..., tuple[Sequence[Sequence[int]], int] | None]


@dataclass(frozen=True)
class Phase:
    """Half-open eating interval [start, end).  `eating` has one demand per
    agent: the column indices of the objects it eats, best first."""

    start: Fraction
    end: Fraction
    eating: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EatingTrace:
    """An eating run: its phases, in time order, and the assignment they give."""

    profile: PreferenceProfile
    phases: tuple[Phase, ...]
    assignment: RandomAssignment

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(phase.end for phase in self.phases)


def simulate_eating(profile: PreferenceProfile, size: int) -> EatingTrace:
    """Run the simultaneous eating procedure to exhaustion of all objects.

    Each agent eats its min(`size`, #remaining) most preferred available
    objects at once (`_eat`); the phase bounds, sums of the phase lengths
    that it logs, become `Fraction`s here.
    """
    if size < 1:
        raise ValueError("demand size must be at least 1")
    inst = profile.instance
    log: list[tuple[int, list]] = []
    eaten, whole = _eat(inst, profile.ranked, size, log=log)
    lengths, demands = zip(*log)
    bounds = [Fraction(0)] + [Fraction(end, whole) for end in itertools.accumulate(lengths)]
    phases = tuple(map(Phase, bounds, bounds[1:], (tuple(map(tuple, d)) for d in demands)))
    return EatingTrace(profile, phases, RandomAssignment.from_numerators(inst, eaten, whole))


def _eat(
    instance: Instance,
    ranked: Sequence[Sequence[int]],
    size: int,
    stop: Stop | None = None,
    log: list | None = None,
) -> tuple[list[list[int]], int] | None:
    """The eating loop: (what each agent ate, its denominator), or None if
    `stop` said so.

    Every amount is a numerator over one fixed denominator, `whole` =
    lcm(1..n)^m.  A phase lasts the least quotient left / eaters; every
    eater count divides lcm(1..n), so after p phases every amount left is
    a multiple of lcm(1..n)^(m-p), and over at most m phases every
    quotient is exact.  Once one object is left, every agent eats an
    equal share of it, reading no row.  After each phase but the last,
    `stop` (if any) gets the ceilings of `_eating_ceiling` over `whole`;
    `log` (if any) gets every phase's (length, demands).
    """
    n, m = instance.num_agents, instance.num_objects
    whole = math.lcm(*range(1, n + 1)) ** m
    remaining = dict.fromkeys(range(m), whole)  # column -> numerator left
    eaten = [[0] * m for _ in range(n)]
    while remaining:
        if len(remaining) == 1:
            ((j, left),) = remaining.items()
            for row in eaten:
                row[j] += left // n
            if log is not None:
                log.append((left // n, [(j,)] * n))
            break
        take = min(size, len(remaining))
        demand = [_top(order, remaining, take) for order in ranked]
        eaters: dict[int, int] = {}  # column -> agents eating it
        for picks in demand:
            for j in picks:
                eaters[j] = eaters.get(j, 0) + 1
        # Earliest exhaustion among objects currently being eaten; exact, so
        # simultaneous exhaustions land on the same breakpoint and merge here.
        dt = min(remaining[j] // k for j, k in eaters.items())
        for j, k in eaters.items():
            left = remaining[j] - dt * k
            if left:
                remaining[j] = left
            else:
                del remaining[j]
        for row, picks in zip(eaten, demand):
            for j in picks:
                row[j] += dt
        if log is not None:
            log.append((dt, demand))
        if stop is not None and remaining:
            if stop(_eating_ceiling(eaten, instance.quota * whole, remaining)):
                return None
    return eaten, whole


def _eating_ceiling(eaten: Sequence[Sequence[int]], cap: int, remaining: dict) -> Ceiling:
    """The ceilings of an eating run that has eaten `eaten` so far, with
    `remaining` of each column left in the market, all numerators over the
    run's fixed denominator, over which `cap` is the quota.

    Every agent eats as many objects as every other at each instant, so
    each row ends at m/n, at most the quota: a row gets at most `cap`
    minus what it has eaten, and a prefix of its order at most what is
    left of the prefix's columns.  The ceiling of a prefix is what the row
    has eaten of it plus the smaller of the two, which on a prefix whose
    columns have all left the market is the prefix sum itself, final."""

    def ceiling(row: int, order: Sequence[int]) -> Iterator[int]:
        shares = eaten[row]
        room = cap - sum(shares)
        got = left = 0
        for j in order:
            got += shares[j]
            left += remaining.get(j, 0)
            yield got + min(room, left)

    return ceiling


def _top(ranked: Sequence[int], available: Container[int], take: int) -> list[int]:
    """The first `take` columns of `ranked` that are `available`, read no
    further: one for `ops`, up to `quota` for `mps` and serial dictatorship."""
    chosen = []
    for j in ranked:
        if j in available:
            chosen.append(j)
            if len(chosen) == take:
                break
    return chosen


def _mps(
    instance: Instance, ranked: Sequence[Sequence[int]], stop: Stop | None = None
) -> tuple | None:
    return _eat(instance, ranked, instance.quota, stop)


def mps(profile: PreferenceProfile) -> RandomAssignment:
    """Multi-unit eating: each agent eats its top min(quota, #remaining) objects."""
    inst = profile.instance
    return RandomAssignment.from_numerators(inst, *_mps(inst, profile.ranked))


def mps_trace(profile: PreferenceProfile) -> EatingTrace:
    """`mps` with its phases."""
    return simulate_eating(profile, profile.instance.quota)


def _ops(
    instance: Instance, ranked: Sequence[Sequence[int]], stop: Stop | None = None
) -> tuple | None:
    return _eat(instance, ranked, 1, stop)


def ops(profile: PreferenceProfile) -> RandomAssignment:
    """One-at-a-time eating: each agent eats its single most preferred available object."""
    inst = profile.instance
    return RandomAssignment.from_numerators(inst, *_ops(inst, profile.ranked))


def ops_trace(profile: PreferenceProfile) -> EatingTrace:
    """`ops` with its phases."""
    return simulate_eating(profile, 1)


def _uniform(
    instance: Instance, ranked: Sequence[Sequence[int]], stop: Stop | None = None
) -> tuple:
    n = instance.num_agents
    return ((1,) * instance.num_objects,) * n, n


def uniform(instance: Instance) -> RandomAssignment:
    """Every agent gets every object with probability 1/n."""
    require_balanced(instance, "the uniform rule")
    return RandomAssignment.from_numerators(instance, *_uniform(instance, ()))


def uniform_rule(profile: PreferenceProfile) -> RandomAssignment:
    """The uniform rule of `profile`'s instance; it reads no order."""
    return uniform(profile.instance)


def _dictate(instance: Instance, ranked: Sequence[Sequence[int]], priority: Sequence[int]) -> list:
    """The owner row of each column when the rows of `priority` pick their
    best `quota` free objects in turn; the last takes those left, unread."""
    owners: list[int | None] = [None] * instance.num_objects
    free = set(range(instance.num_objects))
    *pickers, last = priority
    for i in pickers:
        for j in _top(ranked[i], free, instance.quota):
            owners[j] = i
            free.discard(j)
    for j in free:
        owners[j] = last
    return owners


def serial_dictator(profile: PreferenceProfile, priority: Sequence[str]) -> DiscreteAssignment:
    """Agents pick their best `quota` remaining objects in priority order."""
    inst = profile.instance
    require_balanced(inst, "serial dictatorship")
    if list(sorted(priority)) != sorted(inst.agents):
        raise ValueError("priority order must list every agent exactly once")
    owners = _dictate(inst, profile.ranked, list(map(inst.agent_index, priority)))
    return DiscreteAssignment(inst, [inst.agents[i] for i in owners])


def _priority(
    instance: Instance, ranked: Sequence[Sequence[int]], stop: Stop | None = None
) -> tuple:
    rows = [[0] * instance.num_objects for _ in instance.agents]
    for j, i in enumerate(_dictate(instance, ranked, range(instance.num_agents))):
        rows[i][j] = 1
    return rows, 1


def priority_rule(profile: PreferenceProfile) -> RandomAssignment:
    """Serial dictatorship under the fixed priority order of the instance's agents."""
    inst = profile.instance
    require_balanced(inst, "serial dictatorship")
    return RandomAssignment.from_numerators(inst, *_priority(inst, profile.ranked))


def random_priority(profile: PreferenceProfile) -> RandomAssignment:
    """Exact average of serial dictatorship over all n! priority orders.

    Once k agents have picked, the rest of serial dictatorship depends only
    on the state (who has picked, which objects are taken).  One forward
    pass over the states, layer by layer (`_rp`), carries the number w of
    priority prefixes that reach each; agent i picking next from a state
    of layer k does so in w * (n-k-1)! of the n! orders.  The counts are
    integers, divided by n! once at the end, so the average is exact.  The
    one agent left in a state of layer n-1 picks last and takes the
    `quota` objects still free whatever its order, so its row is not read
    there.

    Once layer k+1 is built, for k <= n-3, `_rp` asks a `stop` (if any),
    handing it ceilings over n! (`_rp_ceiling`).  Every order passes
    through one state of layer k+1.  An agent that has picked there has
    all its shares from that order in the counts so far; one that has not
    takes at most `quota` of the objects of a prefix still free there.  So
    the ceiling of a prefix P of an agent's row is its count so far plus
    (n-k-1)! times the sum, over the states where it has not picked, of
    w * min(quota, |P free there|).  The stop is not asked after the last
    full layer, nor before the last picker: little of the run is left.

    Computing RP probabilities is #P-complete, so the number of states is
    exponential in the worst case.  An upper bound on it is compared with
    STATE_LIMIT before any state is built: every instance of up to 9
    agents is admitted, and up to 11 at quota 1.
    """
    inst = profile.instance
    require_balanced(inst, "random priority")
    n, m, quota = inst.num_agents, inst.num_objects, inst.quota
    refuse_over(_state_bound(n, m, quota), STATE_LIMIT, f"rp states of {n} agents")
    return RandomAssignment.from_numerators(inst, *_rp(inst, profile.ranked))


def _rp(
    instance: Instance, ranked: Sequence[Sequence[int]], stop: Stop | None = None
) -> tuple | None:
    n, m, quota = instance.num_agents, instance.num_objects, instance.quota
    totals = [[0] * m for _ in instance.agents]
    layer = {(0, 0): 1}  # (who picked, what is taken) bitmasks -> prefixes
    for k in range(n - 1):
        orders_per_prefix = math.factorial(n - k - 1)
        successors: dict[tuple[int, int], int] = {}
        for (picked, taken), ways in layer.items():
            share = ways * orders_per_prefix
            for i, order in enumerate(ranked):
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
                state = picked | 1 << i, grabbed
                successors[state] = successors.get(state, 0) + ways
        layer = successors
        if stop is not None and k < n - 2:
            if stop(_rp_ceiling(totals, layer, orders_per_prefix, quota)):
                return None
    everyone = (1 << n) - 1
    for (picked, taken), ways in layer.items():
        row = totals[(everyone ^ picked).bit_length() - 1]  # the last picker
        for j in range(m):
            if not taken >> j & 1:
                row[j] += ways
    return totals, math.factorial(n)


def _rp_ceiling(totals: list[list[int]], layer: dict, orders: int, quota: int) -> Ceiling:
    """The ceilings of an `_rp` run whose counts so far are `totals` and
    whose last layer built is `layer`, each state of which `orders`
    priority orders complete (see `random_priority`)."""

    def ceiling(row: int, order: Sequence[int]) -> Iterator[int]:
        waiting: dict[int, int] = {}  # taken -> prefixes of states where `row` has not picked
        for (picked, taken), ways in layer.items():
            if not picked >> row & 1:
                waiting[taken] = waiting.get(taken, 0) + ways
        # per free set: [taken, prefixes, objects of the prefix it may still take]
        pending = [[taken, ways, quota] for taken, ways in waiting.items()]
        counts, got, later = totals[row], 0, 0
        for j in order:
            got += counts[j]
            bit = 1 << j
            for entry in pending:
                taken, ways, room = entry
                if room and not taken & bit:
                    later += ways
                    entry[2] = room - 1
            yield got + orders * later

    return ceiling


def _state_bound(n: int, m: int, quota: int) -> int:
    """Upper bound on the pick states of `random_priority`.

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


#: Each bundled rule -> its kernel, looked up by identity, so a wrapped
#: rule (an output memo, a call counter) has none.  Only `kernel_of` reads it.
KERNELS: dict[Rule, Kernel] = {
    uniform_rule: _uniform,
    priority_rule: _priority,
    random_priority: _rp,
    ops: _ops,
    mps: _mps,
}


def adapted(rule: Rule) -> Kernel:
    """`rule` as a kernel: it runs on the profile, built and checked by its
    constructor, whose orders name the columns of `ranked`.  It reads every
    row of `ranked` in full, whatever `rule` reads of the profile, never
    asks its `stop`, and returns the reduced outcome."""

    def kernel(instance, ranked, stop=None):
        objects = instance.objects
        outcome = rule(PreferenceProfile(instance, [[objects[j] for j in row] for row in ranked]))
        return outcome.numerators, outcome.denominator

    return kernel


def kernel_of(rule: Rule) -> tuple[Kernel, bool]:
    """The kernel that runs `rule`, and whether a misreport scan may prune
    its runs (`strategy._scan`).

    A rule of `KERNELS` runs its own kernel, which reads rows only through
    what it is given, from the top, so a scan may prune.  A rule that
    carries a `kernel` method or attribute (a `harness.MemoRule`, which
    reads nothing on a hit) runs it, and it must accept a `stop`; any other
    rule runs `adapted`, which reads every row in full, so a trie of its
    reads could grow to every joint report.  Neither prunes, and neither
    asks the `stop` it is handed.
    """
    if rule in KERNELS:
        return KERNELS[rule], True
    if hasattr(rule, "kernel"):
        return rule.kernel, False
    return adapted(rule), False
