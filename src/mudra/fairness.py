"""Fairness and symmetry checks: envy-freeness in the stochastic dominance
sense, anonymity and neutrality as equivariance of a rule under relabelings.
Each pair of notions is decided by one routine: `_first_envy`, `equivariance`.
The envy scan sums integer `numerators` rows: every row of one matrix shares
its `denominator`, so their prefix sums order exactly as the `Fraction` ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping

from .model import (
    PreferenceProfile,
    RandomAssignment,
    permute_agents,
    permute_objects,
    require_balanced,
    require_shared_instance,
)


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


def _first_envy(p: RandomAssignment, profile: PreferenceProfile, weak: bool) -> FairnessVerdict:
    """The first envious pair, agents in instance order, or a pass.

    Each agent's prefix sums are taken once, and every other row is summed
    down the same order until the pair is decided: envy is at the first
    prefix where the other row holds more.  With `weak` envy must also be
    strict SD-dominance, so a prefix where it holds less clears the pair.
    """
    inst = profile.instance
    require_shared_instance(p, profile)
    for agent, ranked, own in zip(inst.agents, profile.ranked, p.numerators):
        own_sums = tuple(itertools.accumulate(own[j] for j in ranked))
        for other, theirs in zip(inst.agents, p.numerators):
            if other == agent:
                continue
            its = 0
            envied_at = None
            for j, mine in zip(ranked, own_sums):
                its += theirs[j]
                if mine < its and envied_at is None:
                    envied_at = j
                    if not weak:
                        break
                elif weak and mine > its:
                    envied_at = None
                    break
            if envied_at is not None:
                certificate = EnvyCertificate(agent, other, inst.objects[envied_at])
                return FairnessVerdict(False, certificate)
    return FairnessVerdict(True)


def is_sd_envy_free(p: RandomAssignment, profile: PreferenceProfile) -> FairnessVerdict:
    """Every agent must weakly SD-prefer its own row to every other row."""
    require_balanced(profile.instance, "SD envy-freeness")
    return _first_envy(p, profile, weak=False)


def is_weak_sd_envy_free(p: RandomAssignment, profile: PreferenceProfile) -> FairnessVerdict:
    """No other agent's row may strictly SD-dominate an agent's own row."""
    require_balanced(profile.instance, "weak SD envy-freeness")
    return _first_envy(p, profile, weak=True)


@dataclass(frozen=True)
class EquivarianceVerdict:
    holds: bool
    permutation: tuple[tuple[str, str], ...]
    #: First (agent, object) cell where the two sides disagree.
    mismatch: tuple[str, str] | None = None

    def __bool__(self) -> bool:
        return self.holds


Rule = Callable[[PreferenceProfile], RandomAssignment]


def equivariance(
    rule: Rule, profile: PreferenceProfile, relabel: Callable, mapping: Mapping[str, str],
    truthful: RandomAssignment | None = None,
) -> EquivarianceVerdict:
    """Relabelling by `mapping` first or applying the rule first must agree.

    `relabel` is `permute_agents` or `permute_objects`; `truthful`, when
    given, is rule(profile), so a scan of many relabellings runs it once.
    The two sides are compared on their reduced integer views, which are
    equal exactly when the matrices are; a `Fraction` matrix is read only
    to name the first mismatching cell.
    """
    left = rule(relabel(profile, mapping))
    right = relabel(truthful or rule(profile), mapping)
    permutation = tuple(sorted(mapping.items()))
    if left.denominator == right.denominator and left.numerators == right.numerators:
        return EquivarianceVerdict(True, permutation)
    cells = itertools.product(profile.instance.agents, profile.instance.objects)
    values = zip(cells, itertools.chain(*left.matrix), itertools.chain(*right.matrix))
    mismatch = next(cell for cell, a, b in values if a != b)
    return EquivarianceVerdict(False, permutation, mismatch)


def check_anonymity(
    rule: Rule, profile: PreferenceProfile, pi: Mapping[str, str]
) -> EquivarianceVerdict:
    """Relabeling agents first or applying the rule first must agree."""
    require_balanced(profile.instance, "anonymity")
    return equivariance(rule, profile, permute_agents, pi)


def check_neutrality(
    rule: Rule, profile: PreferenceProfile, sigma: Mapping[str, str]
) -> EquivarianceVerdict:
    """Relabeling objects first or applying the rule first must agree."""
    require_balanced(profile.instance, "neutrality")
    return equivariance(rule, profile, permute_objects, sigma)
