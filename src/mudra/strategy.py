"""Deterministic searches for profitable misreports.

Misreports range over all strict orders of the object set, enumerated in a
canonical lexicographic sequence (permutations of the instance's object
tuple), so the first witness found is reproducible.  Three individual
notions are covered:

* weak SD violation: some misreport's outcome strictly SD-dominates truth;
* DL violation: some misreport's outcome beats truth downward
  lexicographically;
* SD violation: the truthful outcome fails to weakly SD-dominate some
  misreport's outcome (incomparability already suffices).

Group manipulations require every coalition member to strictly SD-improve
under one joint misreport.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .model import (
    JOINT_LIMIT,
    MISREPORT_LIMIT,
    PreferenceProfile,
    RandomAssignment,
    orderings,
    refuse_over,
    require_balanced,
)
from .order import DlVerdict, SdVerdict, dl_compare, sd_compare

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


def all_strict_orders(objects: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """All strict orders over `objects` in canonical lexicographic sequence.

    Refuses more than 6 objects (MISREPORT_LIMIT orders).
    """
    return orderings(objects, MISREPORT_LIMIT, f"{len(objects)}! strict orders")


def _scan_individual(
    rule: Rule,
    profile: PreferenceProfile,
    agent: str,
    qualifies: Callable[[dict, dict, tuple[str, ...]], bool],
    kind: ManipulationKind,
) -> Manipulation | None:
    require_balanced(profile.instance, "manipulation search")
    misreports = all_strict_orders(profile.instance.objects)
    true_order = profile.order_of(agent)
    truthful = rule(profile)
    truth_alloc = truthful.allocation(agent)
    for mis in misreports:
        if mis == true_order:
            continue
        outcome = rule(profile.with_order(agent, mis))
        if qualifies(outcome.allocation(agent), truth_alloc, true_order):
            return Manipulation(
                kind=kind,
                coalition=(agent,),
                misreports=((agent, mis),),
                truthful=truthful,
                manipulated=outcome,
            )
    return None


def find_weak_sd_manipulation(
    rule: Rule, profile: PreferenceProfile, agent: str
) -> Manipulation | None:
    """First misreport whose outcome strictly SD-dominates the truthful one."""
    return _scan_individual(
        rule, profile, agent,
        lambda alt, truth, order: sd_compare(alt, truth, order)
        is SdVerdict.FIRST_STRICTLY_DOMINATES,
        ManipulationKind.STRICT_SD,
    )


def find_dl_manipulation(
    rule: Rule, profile: PreferenceProfile, agent: str
) -> Manipulation | None:
    """First misreport whose outcome wins downward lexicographically."""
    return _scan_individual(
        rule, profile, agent,
        lambda alt, truth, order: dl_compare(alt, truth, order) is DlVerdict.FIRST,
        ManipulationKind.DL_IMPROVEMENT,
    )


def find_sd_manipulation(
    rule: Rule, profile: PreferenceProfile, agent: str
) -> Manipulation | None:
    """First misreport whose outcome the truthful one fails to weakly dominate."""
    return _scan_individual(
        rule, profile, agent,
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
    objects, and joint spaces past JOINT_LIMIT.
    """
    require_balanced(profile.instance, "manipulation search")
    inst = profile.instance
    members = tuple(coalition)
    if not members:
        raise ValueError("coalition must not be empty")
    if len(set(members)) != len(members):
        raise ValueError("coalition lists an agent twice")
    for a in members:
        inst.agent_index(a)  # raises on unknown agents
    m, k = inst.num_objects, len(members)
    refuse_over(math.factorial(m), MISREPORT_LIMIT, f"{m}! strict orders")
    joints = orderings(
        inst.objects, JOINT_LIMIT, f"({m}!)^{k} joint misreports", repeat=k
    )
    true_orders = {a: profile.order_of(a) for a in members}
    truthful = rule(profile)
    truth_allocs = {a: truthful.allocation(a) for a in members}
    for joint in joints:
        reports = dict(zip(members, joint))
        if all(reports[a] == true_orders[a] for a in members):
            continue
        outcome = rule(profile.with_orders(reports))
        if all(
            sd_compare(outcome.allocation(a), truth_allocs[a], true_orders[a])
            is SdVerdict.FIRST_STRICTLY_DOMINATES
            for a in members
        ):
            return Manipulation(
                kind=ManipulationKind.STRICT_SD,
                coalition=members,
                misreports=tuple((a, reports[a]) for a in members),
                truthful=truthful,
                manipulated=outcome,
            )
    return None
