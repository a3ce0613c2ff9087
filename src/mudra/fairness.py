"""Fairness and symmetry checks: envy-freeness in the stochastic dominance
sense, anonymity and neutrality as equivariance of a rule under relabelings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .model import (
    PreferenceProfile,
    RandomAssignment,
    permute_agents,
    permute_objects,
    require_balanced,
)
from .order import SdVerdict, prefix_sums, sd_compare


@dataclass(frozen=True)
class EnvyCertificate:
    envious: str
    envied: str
    #: First object (walking down the envious agent's order) whose prefix sum
    #: is strictly larger in the envied agent's allocation.
    prefix_object: str


@dataclass(frozen=True)
class FairnessVerdict:
    holds: bool
    certificate: EnvyCertificate | None = None

    def __bool__(self) -> bool:
        return self.holds


def is_sd_envy_free(p: RandomAssignment, profile: PreferenceProfile) -> FairnessVerdict:
    """Every agent must weakly SD-prefer its own row to every other row."""
    inst = profile.instance
    require_balanced(inst, "SD envy-freeness")
    for i, agent in enumerate(inst.agents):
        order = profile.orders[i]
        own = prefix_sums(p.allocation(agent), order)
        for other in inst.agents:
            if other == agent:
                continue
            theirs = prefix_sums(p.allocation(other), order)
            for obj, mine, its in zip(order, own, theirs):
                if mine < its:
                    return FairnessVerdict(False, EnvyCertificate(agent, other, obj))
    return FairnessVerdict(True)


def is_weak_sd_envy_free(p: RandomAssignment, profile: PreferenceProfile) -> FairnessVerdict:
    """No other agent's row may strictly SD-dominate an agent's own row."""
    inst = profile.instance
    require_balanced(inst, "weak SD envy-freeness")
    for agent in inst.agents:
        order = profile.order_of(agent)
        own = p.allocation(agent)
        for other in inst.agents:
            if other == agent:
                continue
            theirs = p.allocation(other)
            if sd_compare(theirs, own, order) is SdVerdict.FIRST_STRICTLY_DOMINATES:
                first = next(
                    obj for obj, a, b in zip(
                        order, prefix_sums(own, order), prefix_sums(theirs, order)
                    ) if a < b
                )
                return FairnessVerdict(False, EnvyCertificate(agent, other, first))
    return FairnessVerdict(True)


@dataclass(frozen=True)
class EquivarianceVerdict:
    holds: bool
    permutation: tuple[tuple[str, str], ...]
    #: First (agent, object) cell where the two sides disagree.
    mismatch: tuple[str, str] | None = None

    def __bool__(self) -> bool:
        return self.holds


def _first_mismatch(a: RandomAssignment, b: RandomAssignment) -> tuple[str, str] | None:
    inst = a.instance
    for agent, row_a, row_b in zip(inst.agents, a.matrix, b.matrix):
        for obj, va, vb in zip(inst.objects, row_a, row_b):
            if va != vb:
                return (agent, obj)
    return None


def check_anonymity(
    rule: Callable[[PreferenceProfile], RandomAssignment],
    profile: PreferenceProfile,
    pi: Mapping[str, str],
) -> EquivarianceVerdict:
    """Relabeling agents first or applying the rule first must agree."""
    require_balanced(profile.instance, "anonymity")
    left = rule(permute_agents(profile, pi))
    right = permute_agents(rule(profile), pi)
    mismatch = _first_mismatch(left, right)
    return EquivarianceVerdict(mismatch is None, tuple(sorted(pi.items())), mismatch)


def check_neutrality(
    rule: Callable[[PreferenceProfile], RandomAssignment],
    profile: PreferenceProfile,
    sigma: Mapping[str, str],
) -> EquivarianceVerdict:
    """Relabeling objects first or applying the rule first must agree."""
    require_balanced(profile.instance, "neutrality")
    left = rule(permute_objects(profile, sigma))
    right = permute_objects(rule(profile), sigma)
    mismatch = _first_mismatch(left, right)
    return EquivarianceVerdict(mismatch is None, tuple(sorted(sigma.items())), mismatch)
