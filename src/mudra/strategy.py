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

A rule handed to a search must be deterministic.  Every rule is scanned
through an integer kernel on `ranked` rows (`rules.kernel_of`).  A rule of
`rules.KERNELS`, as every rule of `harness.RULES` is, runs its own kernel
once per distinct set of entries it reads, not once per report, and once
in all if it reads none (see `_scan`).  An output memo's rule runs the
memo's kernel on every report, a dictionary lookup once the memo holds
the report; any other rule (a call counter, a traced rule) runs on every
report, on a profile of the report.

`FINDERS` maps each individual kind to its finder, and `first_manipulation`
is the one first-agent search behind `mudra manipulate` and the property
registry's strategyproofness checks.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .model import (
    JOINT_LIMIT,
    MISREPORT_LIMIT,
    PreferenceProfile,
    RandomAssignment,
    order_count,
    refuse_over,
    require_balanced,
)
from .order import AllocationVector, DlVerdict, Order, SdVerdict, dl_compare, sd_compare
from .rules import KERNELS, kernel_of

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


class _ReportedRow:
    """A coalition member's reported `ranked` row, as a kernel reads it.

    It supports iteration only, and logs (member, position) the first time
    a position is read; reads start at the top, so `read`, the number of
    positions read so far, is also the next one to log."""

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

    Refuses unbalanced instances, an empty coalition, one that lists an
    agent twice or an unknown agent, more than 6 objects and more than 10^6
    joint misreports before anything is built.  A report is one `ranked`
    row per member, in the order of the object tuple's permutations.  The
    rule's kernel (`rules.kernel_of`) runs on it with the other rows of
    `profile`, and each member's row of numerators is judged against the
    truthful one, along their `ranked` order, cross-multiplied by the other
    denominator.  Names and assignments are built only for the witness.

    The members' rows reach the kernel behind `_ReportedRow` views, and the
    trie of `_grown` keeps the positions each run read and the columns
    there.  A kernel reads a report only through the views, so a report
    that agrees with a judged run there gives its outcome, no improvement,
    and is skipped; the visiting order, and so the first witness, is the
    same.  A truthful run that reads no entry reads none on any report, and
    ends the scan.  Only a rule of `rules.KERNELS` gets the views and the
    trie: any other kernel (an output memo's, which reads nothing on a hit,
    or an adapted rule's) runs on every report, on plain rows.
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
    refuse_over(order_count(m, k, JOINT_LIMIT), JOINT_LIMIT, f"({m}!)^{k} joint misreports")
    pruned = rule in KERNELS
    kernel = kernel_of(rule)
    ranked = list(profile.ranked)
    true_rows = tuple(ranked[i] for i in rows)
    log = _placed(ranked, rows, true_rows, pruned)
    truth, truth_scale = kernel(inst, ranked)
    if pruned and not log:
        return None  # the kernel read no report, so every report gives `truth`
    trie = _grown(None, log, true_rows) if pruned else None
    truths = tuple((i, truth[i], order) for i, order in zip(rows, true_rows))
    improves = _IMPROVES[kind]
    for joint in itertools.product(itertools.permutations(range(m)), repeat=k):
        if joint == true_rows or pruned and _judged(trie, joint):
            continue
        log = _placed(ranked, rows, joint, pruned)
        numerators, scale = kernel(inst, ranked)
        for i, truth_row, order in truths:
            alt = numerators[i]
            if scale != truth_scale:
                alt = [v * truth_scale for v in alt]
                truth_row = [v * scale for v in truth_row]
            if not improves(alt, truth_row, order):
                break
        else:
            misreports = [tuple(map(inst.objects.__getitem__, row)) for row in joint]
            return Manipulation(
                kind, members, tuple(zip(members, misreports)),
                RandomAssignment.from_numerators(inst, truth, truth_scale),
                RandomAssignment.from_numerators(inst, numerators, scale),
            )
        if pruned:
            trie = _grown(trie, log, joint)
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
