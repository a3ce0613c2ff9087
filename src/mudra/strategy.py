"""Deterministic searches for profitable misreports.

Every search is one scan over a coalition's joint misreports: each member
reports a strict order of the object set, enumerated in a canonical
lexicographic sequence (permutations of the instance's object tuple, first
member varying slowest), so the first witness found is reproducible.  One
agent is a coalition of one, and three individual notions are covered:

* weak SD violation: some misreport's outcome strictly SD-dominates truth;
* DL violation: some misreport's outcome beats truth downward
  lexicographically;
* SD violation: the truthful outcome fails to weakly SD-dominate some
  misreport's outcome (incomparability already suffices).

Group manipulations require every coalition member to strictly SD-improve
under one joint misreport; a weak SD violation is one by a coalition of one.

A rule handed to a search must be deterministic.  One that reads the
reported orders only through `PreferenceProfile.ranked`, as every rule of
`harness.RULES` does, runs once per distinct set of entries it reads, not
once per report, and once in all if it reads none (see `_scan`).  One that
reads them another way, through `orders` or an output memo's key lookup,
runs on every report.

`FINDERS` maps each individual kind to its finder, and `first_manipulation`
is the one first-agent search behind `mudra manipulate` and the property
registry's strategyproofness checks.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

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
from .order import AllocationVector, DlVerdict, Order, SdVerdict, dl_compare, sd_compare

Rule = Callable[[PreferenceProfile], RandomAssignment]


class ManipulationKind(enum.Enum):
    STRICT_SD = "strict-sd"
    DL_IMPROVEMENT = "dl-improvement"
    NOT_SD_DOMINATED = "not-sd-dominated"


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


class _Run:
    """What one rule run read of the coalition's report: `reads`, the
    (member, position) of each entry read through a `_ReportedRow`, in
    order, and `flagged`, set once a member's reported order was read
    another way (see `_ReportedOrder`)."""

    __slots__ = ("reads", "flagged")

    def __init__(self) -> None:
        self.reads: list[tuple[int, int]] = []
        self.flagged = False


class _ReportedRow:
    """A coalition member's reported `ranked` row, as a rule reads it.

    It supports iteration only.  The first time the rule reads a
    position, the view appends (member, position) to the reads of the
    run; reads always start at the top, so `read`, the number of
    positions read so far, is also the next one to log.
    """

    __slots__ = ("row", "member", "log", "read")

    def __init__(self, row: tuple[int, ...], member: int, log: list) -> None:
        self.row, self.member, self.log, self.read = row, member, log, 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.row) if self.read == len(self.row) else self._reading()

    def _reading(self) -> Iterator[int]:
        for position, column in enumerate(self.row):
            if position == self.read:
                self.read += 1
                self.log.append((self.member, position))
            yield column


def _flagging(method: Callable) -> Callable:
    """The tuple method `method`, flagging the marked order's run first."""

    def read(self, *args):
        self.run.flagged = True
        return method(self, *args)

    return read


class _ReportedOrder(tuple):
    """A coalition member's reported `orders` entry: a tuple that flags its
    run when it is hashed, compared, iterated, indexed or searched.

    A rule reads an order so when it looks the profile up in an output
    memo or rebuilds the profile; what it reads then is in no view's log.
    Flagging is idempotent, since a memo keeps the profile of a miss as its
    key and compares later lookups against it.
    """

    def __new__(cls, order: tuple[str, ...], run: _Run) -> "_ReportedOrder":
        marked = super().__new__(cls, order)
        marked.run = run
        return marked

    __hash__ = _flagging(tuple.__hash__)
    __eq__ = _flagging(tuple.__eq__)
    __ne__ = _flagging(tuple.__ne__)
    __lt__ = _flagging(tuple.__lt__)
    __le__ = _flagging(tuple.__le__)
    __gt__ = _flagging(tuple.__gt__)
    __ge__ = _flagging(tuple.__ge__)
    __iter__ = _flagging(tuple.__iter__)
    __getitem__ = _flagging(tuple.__getitem__)
    __contains__ = _flagging(tuple.__contains__)
    index = _flagging(tuple.index)
    count = _flagging(tuple.count)


def _record(reported: PreferenceProfile, rows: tuple[int, ...]) -> _Run:
    """Put the `ranked` rows `rows` of `reported`, a profile made for one
    run, behind views, and its `orders` entries there behind markers;
    returns the run they report to.  `ranked` is a cached property and the
    profile is frozen, so both values are replaced in the instance dict."""
    run = _Run()
    ranked, orders = list(reported.ranked), list(reported.orders)
    for member, i in enumerate(rows):
        ranked[i] = _ReportedRow(ranked[i], member, run.reads)
        orders[i] = _ReportedOrder(orders[i], run)
    reported.__dict__.update(ranked=tuple(ranked), orders=tuple(orders))
    return run


def _grown(trie: tuple | None, run: _Run, joint: tuple) -> tuple | None:
    """`trie` with one more judged run: the report `joint`, read as `run` records.

    A node is (read, branches): the (member, position) the rule reads next,
    and per object reported there the next node, or None for the end of a
    run.  Returns None, which switches pruning off, when the run is
    flagged: the rule then read the report other than through the views
    alone (a memo lookup, say), so its reads do not decide its output.
    """
    if run.flagged:
        return None
    log = run.reads
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

    Then the rule would read the same positions, find the same objects there
    and return that run's outcome again."""
    node = trie
    while node is not None:
        (member, position), branches = node
        reported = joint[member][position]
        if reported not in branches:
            return False
        node = branches[reported]
    return True


#: What "improves" means for each kind of manipulation, on a member's row
#: under a misreport, their truthful row and their `ranked` order.
_IMPROVES: dict[ManipulationKind, Callable[[AllocationVector, AllocationVector, Order], bool]] = {
    ManipulationKind.STRICT_SD: lambda alt, truth, order: (
        sd_compare(alt, truth, order) is SdVerdict.FIRST_STRICTLY_DOMINATES
    ),
    ManipulationKind.DL_IMPROVEMENT: lambda alt, truth, order: (
        dl_compare(alt, truth, order) is DlVerdict.FIRST
    ),
    ManipulationKind.NOT_SD_DOMINATED: lambda alt, truth, order: (
        sd_compare(truth, alt, order) not in (SdVerdict.EQUAL, SdVerdict.FIRST_STRICTLY_DOMINATES)
    ),
}


def _scan(
    rule: Rule, profile: PreferenceProfile, coalition: Sequence[str], kind: ManipulationKind
) -> Manipulation | None:
    """First joint misreport of `coalition` under which every member improves,
    as `_IMPROVES[kind]` defines it.

    Each member is judged on their matrix row, the outcome's against the
    truthful one, along their `ranked` order.  The rows are compared as
    integers: the outcome's numerators times the truthful denominator
    against the truthful numerators times the outcome's denominator, which
    orders them exactly as the `Fraction` rows; no `Fraction` matrix is
    built.  Refuses unbalanced instances, an empty coalition, one that lists
    an agent twice or an unknown agent, more than 6 objects and more than
    10^6 joint misreports before the rule runs.

    Each run reads the members' rows through `_ReportedRow` views, and the
    trie of `_grown` keeps the positions it read and the objects the report
    lists there.  A deterministic rule that reads reports only through
    `ranked` makes the same reads and returns the same outcome for every
    report that agrees on them, so a report that walks the trie to a judged
    run is skipped: that outcome was no improvement.  Reports are visited in
    the same order either way, so the first witness is the same.  A
    truthful run that reads no entry reads none on any report, so the scan
    ends there with no witness.  The members' `orders` entries are behind
    `_ReportedOrder` markers: the first run that reads one (a memo lookup,
    a rule that rebuilds the profile) ends the recording, and every later
    report of the scan runs.
    """
    require_balanced(profile.instance, "manipulation search")
    members = tuple(coalition)
    if not members:
        raise ValueError("coalition must not be empty")
    if len(set(members)) != len(members):
        raise ValueError("coalition lists an agent twice")
    rows = tuple(map(profile.instance.agent_index, members))  # raises on unknown agents
    objects = profile.instance.objects
    m, k = len(objects), len(members)
    refuse_over(order_count(m, 1, MISREPORT_LIMIT), MISREPORT_LIMIT, f"{m}! strict orders")
    joints = orderings(objects, JOINT_LIMIT, f"({m}!)^{k} joint misreports", repeat=k)
    improves = _IMPROVES[kind]
    true_orders = tuple(profile.orders[i] for i in rows)
    reported = copy.copy(profile)
    run = _record(reported, rows)
    truthful = rule(reported)
    if not run.reads and not run.flagged:
        return None  # the rule read no report, so every report gives `truthful`
    trie = _grown(None, run, true_orders)
    truth_scale = truthful.denominator
    truths = tuple((i, truthful.numerators[i], profile.ranked[i]) for i in rows)
    for joint in joints:
        if joint == true_orders or trie is not None and _judged(trie, joint):
            continue
        reported = profile.with_orders(dict(zip(members, joint)))
        if trie is not None:
            run = _record(reported, rows)
        outcome = rule(reported)
        scale, numerators = outcome.denominator, outcome.numerators
        for i, truth, ranked in truths:
            alt = numerators[i]
            if scale != truth_scale:
                alt = [v * truth_scale for v in alt]
                truth = [v * scale for v in truth]
            if not improves(alt, truth, ranked):
                break
        else:
            return Manipulation(
                kind=kind,
                coalition=members,
                misreports=tuple(zip(members, joint)),
                truthful=truthful,
                manipulated=outcome,
            )
        if trie is not None:
            trie = _grown(trie, run, joint)
    return None


def find_weak_sd_manipulation(
    rule: Rule, profile: PreferenceProfile, agent: str
) -> Manipulation | None:
    """First misreport whose outcome strictly SD-dominates the truthful one."""
    return _scan(rule, profile, (agent,), ManipulationKind.STRICT_SD)


def find_dl_manipulation(
    rule: Rule, profile: PreferenceProfile, agent: str
) -> Manipulation | None:
    """First misreport whose outcome wins downward lexicographically."""
    return _scan(rule, profile, (agent,), ManipulationKind.DL_IMPROVEMENT)


def find_sd_manipulation(
    rule: Rule, profile: PreferenceProfile, agent: str
) -> Manipulation | None:
    """First misreport whose outcome the truthful one fails to weakly dominate."""
    return _scan(rule, profile, (agent,), ManipulationKind.NOT_SD_DOMINATED)


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
    return _scan(rule, profile, coalition, ManipulationKind.STRICT_SD)


#: Individual misreport kind -> its finder.  Callers look a finder up here
#: at call time, so that rebinding a value (as a call tracer does) reaches
#: every caller.
FINDERS: dict[str, Callable[[Rule, PreferenceProfile, str], Manipulation | None]] = {
    "sd": find_sd_manipulation,
    "weak-sd": find_weak_sd_manipulation,
    "dl": find_dl_manipulation,
}


def first_manipulation(
    rule: Rule, profile: PreferenceProfile, kind: str, agents: Sequence[str]
) -> Manipulation | None:
    """The `kind` manipulation of the first of `agents` that has one."""
    finder = FINDERS[kind]
    for agent in agents:
        found = finder(rule, profile, agent)
        if found is not None:
            return found
    return None
