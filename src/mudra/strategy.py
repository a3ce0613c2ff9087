"""Deterministic searches for profitable misreports.

Every search is one scan over a coalition's joint misreports: each member
reports a strict order of the object set, enumerated in a canonical
lexicographic sequence (permutations of the instance's object tuple, first
member varying slowest), so the first witness found is reproducible.  One
agent is a coalition of one, and three individual kinds are covered:

* weak SD violation (`STRICT_SD`): some misreport's outcome strictly
  SD-dominates truth;
* DL violation (`DL_IMPROVEMENT`): some misreport's outcome beats truth
  downward lexicographically;
* SD violation (`NOT_SD_DOMINATED`): the truthful outcome fails to weakly
  SD-dominate some misreport's outcome (incomparability already suffices).

The kinds are nested: strict-SD ⊆ DL ⊆ not-SD-dominated.  A strict SD
improvement has the larger prefix sum at the first object where the rows
differ, so it wins downward lexicographically; a DL improvement has the
larger prefix sum there, so the truthful row does not weakly SD-dominate
it.  A scan takes a set of kinds and records the first witness of each
(`_scan`).  Each finder asks for one kind; `individual_scan` asks for all
three, and so ends at the first strict SD witness, or at the last report.

Group manipulations require every coalition member to strictly SD-improve
under one joint misreport; a weak SD violation is one by a coalition of one.

A rule handed to a search must be deterministic.  Every rule is scanned
through the integer kernel on `ranked` rows that `rules.kernel_of` gives
it, which also says whether the scan may prune.  A bundled rule, as every
rule of `harness.RULES` is, may: it runs its own kernel once per distinct
set of entries it reads, not once per report, and once in all if it reads
none (see `_scan`).  Every scan hands the kernel a `stop`, which the eating
kernels and `rp` ask during a run with a ceiling on each member's final
prefix sums; the run ends once the ceilings rule out every kind the scan
asks for (`_ruled_out`), as they do for every kind once no ceiling of some
member is above truth.  A rule that carries its own `kernel` (the sweep's
memo rules do: a dictionary lookup once the memo holds the report) runs it
on every report; any other rule (a call counter, a traced rule) runs on
every report, on a profile of the report.

`FINDERS` maps each individual kind to its finder, and `first_manipulation`
is the first-agent search behind `mudra manipulate`.  The property
registry's strategyproofness checks read `individual_scan`s instead, which
the sweep's memo rules keep (`harness.MemoRule.scan`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Collection, Iterator, Sequence

from .model import (
    JOINT_LIMIT,
    MISREPORT_LIMIT,
    PreferenceProfile,
    RandomAssignment,
    order_count,
    orderings,
    refuse_over,
    require_balanced,
)
from .rules import Ceiling, Rule, kernel_of


class ManipulationKind(enum.Enum):
    STRICT_SD = "strict-sd"
    DL_IMPROVEMENT = "dl-improvement"
    NOT_SD_DOMINATED = "not-sd-dominated"


#: Each kind's bit in the answer of `_gains`.
_BITS = {
    ManipulationKind.STRICT_SD: 1,
    ManipulationKind.DL_IMPROVEMENT: 2,
    ManipulationKind.NOT_SD_DOMINATED: 4,
}
_STRICT, _DL, _NOT_DOMINATED = _BITS.values()


@dataclass(frozen=True)
class Manipulation:
    kind: ManipulationKind
    coalition: tuple[str, ...]
    misreports: tuple[tuple[str, tuple[str, ...]], ...]
    truthful: RandomAssignment
    manipulated: RandomAssignment

    def misreport_of(self, agent: str) -> tuple[str, ...]:
        for a, order in self.misreports:
            if a == agent:
                return order
        raise KeyError(f"agent {agent!r} is not part of this manipulation")


@dataclass(frozen=True)
class Scan:
    """What one scan found, free of labels: the coalition's rows, the
    kernel's truthful (numerators, denominator), and for each kind found its
    first witness, as (the joint report's `ranked` rows, numerators,
    denominator).  A bundled kernel reads only `ranked` rows and the
    instance's shape, so a scan of it serves every instance of that shape."""

    rows: tuple[int, ...]
    truth: tuple[Sequence[Sequence[int]], int]
    first: dict[ManipulationKind, tuple[tuple, Sequence[Sequence[int]], int]]

    def manipulation(
        self, kind: ManipulationKind, profile: PreferenceProfile
    ) -> Manipulation | None:
        """The first `kind` witness, named on `profile`'s instance, or None."""
        found = self.first.get(kind)
        if found is None:
            return None
        joint, numerators, scale = found
        inst = profile.instance
        members = tuple(map(inst.agents.__getitem__, self.rows))
        misreports = [tuple(map(inst.objects.__getitem__, row)) for row in joint]
        return Manipulation(
            kind, members, tuple(zip(members, misreports)),
            RandomAssignment.from_numerators(inst, *self.truth),
            RandomAssignment.from_numerators(inst, numerators, scale),
        )


class _ReportedRow:
    """A coalition member's reported `ranked` row, as a kernel reads it.

    It supports iteration only: every iteration logs (member, position)
    the first time a position is read.  Reads start at the top, so `read`,
    the number of positions read so far, is also the next one to log, and
    a row read to its end logs nothing more."""

    __slots__ = ("row", "member", "log", "read")

    def __init__(self, row: tuple[int, ...], member: int, log: list) -> None:
        self.row, self.member, self.log, self.read = row, member, log, 0

    def __iter__(self) -> Iterator[int]:
        for position, column in enumerate(self.row):
            if position == self.read:
                self.read += 1
                self.log.append((self.member, position))
            yield column


def _placed(ranked: list, rows: tuple[int, ...], joint: tuple, viewed: bool) -> list:
    """Put `joint` into `ranked` at `rows`, behind `_ReportedRow` views when
    `viewed`; returns the (member, position) log the views share."""
    log: list[tuple[int, int]] = []
    for member, (i, row) in enumerate(zip(rows, joint)):
        ranked[i] = _ReportedRow(row, member, log) if viewed else row
    return log


def _grown(trie: tuple | None, log: list[tuple[int, int]], joint: tuple) -> tuple:
    """`trie` with one more judged run: the report `joint`, of which the run
    read the (member, position) entries of `log`, in order.  A node is
    (read, branches): the (member, position) read next, and per column
    reported there the next node, or None for the end of a run."""
    node = trie = trie or (log[0], {})
    for (member, position), following in zip(log, log[1:]):
        branches, reported = node[1], joint[member][position]
        node = branches.get(reported)
        if node is None:
            node = branches[reported] = (following, {})
    member, position = log[-1]
    node[1][joint[member][position]] = None
    return trie


def _judged(trie: tuple, joint: tuple) -> bool:
    """Does the report `joint` walk `trie` to the end of a run already judged?

    Then the kernel would read the same positions, find the same columns
    there and return that run's outcome again."""
    node = trie
    while node is not None:
        (member, position), branches = node
        reported = joint[member][position]
        if reported not in branches:
            return False
        node = branches[reported]
    return True


def _gains(
    alt: Sequence[int],
    scale: int,
    truth_sums: Sequence[int],
    truth_scale: int,
    order: Sequence[int],
    wanted: int,
) -> int:
    """The kinds, as `_BITS`, in which the row `alt` of numerators over
    `scale` improves on the truthful row, whose prefix sums along the
    member's `ranked` order are `truth_sums` over `truth_scale`; exact on
    the kinds of `wanted`.

    Prefix sums are compared cross-multiplied by the other denominator.
    The first that differs decides DL, and the kind it leaves open (strict
    SD after a gain, not-SD-dominated after a loss) is decided by one that
    differs the other way later, which makes the rows SD-incomparable.  So
    the judge stops at the first difference unless `wanted` asks for the
    open kind.  Rows whose prefix sums are all equal are equal: no gain."""
    total = first = 0
    for column, truth_sum in zip(order, truth_sums):
        total += alt[column]
        gap = total * truth_scale - truth_sum * scale
        if first:
            if gap * first < 0:
                return _DL | _NOT_DOMINATED if first > 0 else _NOT_DOMINATED
        elif gap:
            first = gap
            if not wanted & (_STRICT if gap > 0 else _NOT_DOMINATED):
                return _DL | _NOT_DOMINATED if gap > 0 else 0
    return _STRICT | _DL | _NOT_DOMINATED if first > 0 else 0


def _ruled_out(
    truths: Sequence[tuple[int, Sequence[int], Sequence[int]]], wanted: int, ceiling: Ceiling
) -> bool:
    """Do a partial run's ceilings already rule out every kind of `wanted`
    for `truths`, the members' (row, truthful prefix sums, true `ranked`
    order)?  The kernel's `stop`, as `_scan` passes it.

    `ceiling(row, order)` gives, over the truthful run's denominator, a
    number that each prefix sum of the finished run's `row` along `order`
    does not exceed.  A ceiling below truth puts that final prefix sum
    below truth, which rules out strict SD.  If no earlier ceiling is
    above truth, no earlier final sum is either, so the first difference
    is a loss there or before: that rules out DL too.  If no ceiling at all
    is above truth, every final sum is at or below truth, so truth weakly
    SD-dominates the row: that rules out every kind, not-SD-domination
    too.  The walk along a member's order ends once it has found a ceiling
    above truth and one below; past one below truth with none above before
    it, it goes on only while `NOT_SD_DOMINATED` is still wanted, to find
    one above.  A kind one member rules out is no kind the coalition gains
    in."""
    for row, sums, order in truths:
        above = below = False
        for cap, truth_sum in zip(ceiling(row, order), sums):
            if cap > truth_sum:
                above = True
            elif cap < truth_sum and not below:
                below = True
                wanted &= ~_STRICT if above else ~(_STRICT | _DL)
                if not wanted:
                    return True
            if above and below:
                break
        if not above:
            return True
    return False


def _scan(
    rule: Rule,
    profile: PreferenceProfile,
    coalition: Sequence[str],
    kinds: Collection[ManipulationKind],
) -> Scan:
    """For each of `kinds`, the first joint misreport of `coalition` under
    which every member improves in that kind.

    Refuses unbalanced instances, an empty coalition, one that lists an
    agent twice or an unknown agent, more than 6 objects and more than 10^6
    joint misreports before anything is built.  A report is one `ranked`
    row per member, in the order of the object tuple's permutations.  The
    rule's kernel (`rules.kernel_of`) runs on it with the other rows of
    `profile`, and `_gains` judges each member's row of numerators in every
    kind at once, against the truthful prefix sums that the scan computes
    once per member.  The scan records each asked kind's first witness and
    ends once every asked kind has one, or after the last report.  The
    kinds are nested, so a scan asked for all three ends at the first
    strict SD witness.  Names and assignments are built only for a witness
    that a caller names (`Scan.manipulation`).

    The members' rows reach the kernel behind `_ReportedRow` views, and the
    trie of `_grown` keeps the positions each run read and the columns
    there.  A kernel reads a report only through the views, so a report
    that agrees with a judged run there gives that run's outcome, and is
    skipped: for each kind, that run was no witness or an earlier witness,
    so the visiting order, and so each kind's first witness, is the same.
    A truthful run that reads no entry reads none on any report, and ends
    the scan.  Only a kernel that `rules.kernel_of` calls prunable gets the
    views and the trie: any other (an output memo's, which reads nothing on
    a hit, or an adapted rule's) runs on every report, on plain rows.

    Every kernel gets the one `stop` on every run but the truthful one,
    whatever the kinds asked for.  The eating kernels and `_rp` ask the
    stop (`_ruled_out`) during a run, with a ceiling on each final prefix
    sum of each member's row, and it says whether those ceilings rule out
    every kind still wanted: a loss alone does not rule out
    `NOT_SD_DOMINATED`, since a later gain gives it, but a member none of
    whose ceilings is above truth gains in no kind.  No final prefix sum
    is above its ceiling, so a stopped run is no witness, and counts as a
    judged run.  Its reads go into the trie as they are: a report that
    agrees with them makes the kernel reach the same partial run, which the
    stop rules out again.  A witness run has a ceiling above truth for
    every member and never stops, so every first witness stays the same.
    """
    inst = profile.instance
    require_balanced(inst, "manipulation search")
    members = tuple(coalition)
    if not members:
        raise ValueError("coalition must not be empty")
    if len(set(members)) != len(members):
        raise ValueError("coalition lists an agent twice")
    rows = tuple(map(inst.agent_index, members))  # raises on unknown agents
    m, k = inst.num_objects, len(members)
    refuse_over(order_count(m, 1, MISREPORT_LIMIT), MISREPORT_LIMIT, f"{m}! strict orders")
    joints = orderings(range(m), JOINT_LIMIT, f"({m}!)^{k} joint misreports", repeat=k)
    wanted = 0
    for kind in kinds:
        wanted |= _BITS[kind]
    kernel, pruned = kernel_of(rule)
    ranked = list(profile.ranked)
    true_rows = tuple(ranked[i] for i in rows)
    log = _placed(ranked, rows, true_rows, pruned)
    truth, truth_scale = kernel(inst, ranked)
    witnesses: dict[ManipulationKind, tuple] = {}
    if pruned and not log:
        # the kernel read no report, so every report gives `truth`
        return Scan(rows, (truth, truth_scale), witnesses)
    trie = _grown(None, log, true_rows) if pruned else None
    truths = tuple(
        (i, tuple(accumulate(map(truth[i].__getitem__, order))), order)
        for i, order in zip(rows, true_rows)
    )

    def stop(ceiling):
        return _ruled_out(truths, wanted, ceiling)

    for joint in joints:
        if joint == true_rows or pruned and _judged(trie, joint):
            continue
        log = _placed(ranked, rows, joint, pruned)
        # a stopped run gains in no kind still wanted: judged as truth, which gains in none
        numerators, scale = kernel(inst, ranked, stop) or (truth, truth_scale)
        gained = wanted
        for i, truth_sums, order in truths:
            gained &= _gains(numerators[i], scale, truth_sums, truth_scale, order, gained)
            if not gained:
                break
        else:
            for kind, bit in _BITS.items():
                if gained & bit:
                    witnesses[kind] = joint, numerators, scale
            wanted &= ~gained
            if not wanted:
                break
        if pruned:
            trie = _grown(trie, log, joint)
    return Scan(rows, (truth, truth_scale), witnesses)


def _first(
    rule: Rule, profile: PreferenceProfile, coalition: Sequence[str], kind: ManipulationKind
) -> Manipulation | None:
    """The first `kind` manipulation by `coalition`, from a scan for `kind` alone."""
    return _scan(rule, profile, coalition, (kind,)).manipulation(kind, profile)


def find_weak_sd_manipulation(
    rule: Rule, profile: PreferenceProfile, agent: str
) -> Manipulation | None:
    """First misreport whose outcome strictly SD-dominates the truthful one."""
    return _first(rule, profile, (agent,), ManipulationKind.STRICT_SD)


def find_dl_manipulation(
    rule: Rule, profile: PreferenceProfile, agent: str
) -> Manipulation | None:
    """First misreport whose outcome wins downward lexicographically."""
    return _first(rule, profile, (agent,), ManipulationKind.DL_IMPROVEMENT)


def find_sd_manipulation(
    rule: Rule, profile: PreferenceProfile, agent: str
) -> Manipulation | None:
    """First misreport whose outcome the truthful one fails to weakly dominate."""
    return _first(rule, profile, (agent,), ManipulationKind.NOT_SD_DOMINATED)


def find_group_manipulation(
    rule: Rule,
    profile: PreferenceProfile,
    coalition: Sequence[str],
) -> Manipulation | None:
    """First joint misreport making every coalition member strictly better.

    Joint misreports are enumerated as the canonical product of per-member
    misreport sequences; every member's outcome must strictly SD-dominate
    their truthful outcome under their true order.  Refuses an empty or
    repeating coalition, unknown agents, more than 6 objects, and more than
    10^6 joint misreports.
    """
    return _first(rule, profile, coalition, ManipulationKind.STRICT_SD)


#: Individual misreport kind -> its finder.  Callers look a finder up here
#: at call time, so that rebinding a value (as a call tracer does) reaches
#: every caller.
FINDERS: dict[str, Callable[[Rule, PreferenceProfile, str], Manipulation | None]] = {
    "sd": find_sd_manipulation,
    "weak-sd": find_weak_sd_manipulation,
    "dl": find_dl_manipulation,
}

#: Individual misreport kind -> the `ManipulationKind` its witnesses carry.
KINDS: dict[str, ManipulationKind] = {
    "sd": ManipulationKind.NOT_SD_DOMINATED,
    "weak-sd": ManipulationKind.STRICT_SD,
    "dl": ManipulationKind.DL_IMPROVEMENT,
}


def individual_scan(rule: Rule, profile: PreferenceProfile, agent: str) -> Scan:
    """One scan of `agent`'s misreports for all three individual kinds: the
    witness it holds for a kind is the one that kind's finder returns."""
    return _scan(rule, profile, (agent,), KINDS.values())


def first_manipulation(
    rule: Rule, profile: PreferenceProfile, kind: str, agents: Sequence[str]
) -> Manipulation | None:
    """The `kind` manipulation of the first of `agents` that has one, found
    by the kind's finder: `mudra manipulate`'s search for one kind."""
    for agent in agents:
        found = FINDERS[kind](rule, profile, agent)
        if found is not None:
            return found
    return None
