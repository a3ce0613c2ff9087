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

`FINDERS` maps each individual kind to its finder, and `first_manipulation`
is the one first-agent search behind `mudra manipulate` and the property
registry's strategyproofness checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

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


def _scan(
    rule: Rule,
    profile: PreferenceProfile,
    members: tuple[str, ...],
    improves: Callable[[AllocationVector, AllocationVector, Order], bool],
    kind: ManipulationKind,
) -> Manipulation | None:
    """First joint misreport of `members` under which every member improves.

    Each member is judged on their matrix row, the outcome's against the
    truthful one, along their `ranked` order.  The rows are compared as
    integers: the outcome's numerators times the truthful denominator
    against the truthful numerators times the outcome's denominator, which
    orders them exactly as the `Fraction` rows.  Refuses unbalanced
    instances, more than 6 objects and more than 10^6 joint misreports
    before the rule runs.
    """
    require_balanced(profile.instance, "manipulation search")
    objects = profile.instance.objects
    m, k = len(objects), len(members)
    refuse_over(order_count(m, 1, MISREPORT_LIMIT), MISREPORT_LIMIT, f"{m}! strict orders")
    joints = orderings(objects, JOINT_LIMIT, f"({m}!)^{k} joint misreports", repeat=k)
    rows = tuple(map(profile.instance.agent_index, members))
    true_orders = tuple(profile.orders[i] for i in rows)
    truthful = rule(profile)
    truth_scale = truthful.denominator
    truths = tuple((i, truthful.numerators[i], profile.ranked[i]) for i in rows)
    for joint in joints:
        if joint == true_orders:
            continue
        outcome = rule(profile.with_orders(dict(zip(members, joint))))
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
    return None


def _strictly_sd_better(alt: AllocationVector, truth: AllocationVector, order: Order) -> bool:
    return sd_compare(alt, truth, order) is SdVerdict.FIRST_STRICTLY_DOMINATES


def find_weak_sd_manipulation(
    rule: Rule, profile: PreferenceProfile, agent: str
) -> Manipulation | None:
    """First misreport whose outcome strictly SD-dominates the truthful one."""
    return _scan(rule, profile, (agent,), _strictly_sd_better, ManipulationKind.STRICT_SD)


def find_dl_manipulation(
    rule: Rule, profile: PreferenceProfile, agent: str
) -> Manipulation | None:
    """First misreport whose outcome wins downward lexicographically."""
    return _scan(
        rule, profile, (agent,),
        lambda alt, truth, order: dl_compare(alt, truth, order) is DlVerdict.FIRST,
        ManipulationKind.DL_IMPROVEMENT,
    )


def find_sd_manipulation(
    rule: Rule, profile: PreferenceProfile, agent: str
) -> Manipulation | None:
    """First misreport whose outcome the truthful one fails to weakly dominate."""
    return _scan(
        rule, profile, (agent,),
        lambda alt, truth, order: sd_compare(truth, alt, order)
        not in (SdVerdict.EQUAL, SdVerdict.FIRST_STRICTLY_DOMINATES),
        ManipulationKind.NOT_SD_DOMINATED,
    )


def find_group_manipulation(
    rule: Rule,
    profile: PreferenceProfile,
    coalition: Sequence[str],
) -> Manipulation | None:
    """First joint misreport making every coalition member strictly better.

    Joint misreports are enumerated as the canonical product of per-member
    misreport sequences; every member's outcome must strictly SD-dominate
    their truthful outcome under their true order.  Refuses more than 6
    objects, and more than 10^6 joint misreports.
    """
    require_balanced(profile.instance, "manipulation search")
    members = tuple(coalition)
    if not members:
        raise ValueError("coalition must not be empty")
    if len(set(members)) != len(members):
        raise ValueError("coalition lists an agent twice")
    for a in members:
        profile.instance.agent_index(a)  # raises on unknown agents
    return _scan(rule, profile, members, _strictly_sd_better, ManipulationKind.STRICT_SD)


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
