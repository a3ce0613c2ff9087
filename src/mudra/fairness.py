"""Fairness and symmetry checks: envy-freeness in the stochastic dominance
sense, anonymity and neutrality as equivariance of a rule under every
relabelling of its agents or objects.  Each pair of notions is decided by
one routine: `_first_envy`, `_first_asymmetry`.
The envy scan sums integer `numerators` rows: every row of one matrix shares
its `denominator`, so their prefix sums order exactly as the `Fraction` ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .model import (
    ORDER_LIMIT,
    PreferenceProfile,
    RandomAssignment,
    orderings,
    permute_agents,
    permute_objects,
    require_balanced,
    require_shared_instance,
)


@dataclass(frozen=True)
class FairnessVerdict:
    holds: bool
    #: The first envious agent, the agent it envies, and the first object
    #: (walking down the envious agent's order) whose prefix sum is strictly
    #: larger in the envied agent's allocation; all None when the verdict holds.
    envious: str | None = None
    envied: str | None = None
    prefix_object: str | None = None

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
                return FairnessVerdict(False, agent, other, inst.objects[envied_at])
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
    #: The first failing relabelling as sorted (label, image) pairs, and the
    #: first (agent, object) cell where its two sides disagree; both are
    #: None when the verdict holds.
    permutation: tuple[tuple[str, str], ...] | None = None
    mismatch: tuple[str, str] | None = None

    def __bool__(self) -> bool:
        return self.holds


Rule = Callable[[PreferenceProfile], RandomAssignment]


def _first_asymmetry(rule, profile, relabel, labels, what, truthful) -> EquivarianceVerdict:
    """The first relabelling of `labels`, in lexicographic order past the
    identity, under which relabelling first and applying the rule first
    disagree, with the first cell where they do (by cross-multiplied
    numerators); or a pass.  More than 8 labels are refused before the rule
    runs, and the rule runs on `profile` once unless `truthful` is its output.
    """
    images = orderings(labels, ORDER_LIMIT, f"{len(labels)}! {what} relabellings")
    if truthful is None:
        truthful = rule(profile)
    for image in images:
        if image == labels:
            continue
        mapping = dict(zip(labels, image))
        left = rule(relabel(profile, mapping))
        right = relabel(truthful, mapping)
        if left != right:
            cells = itertools.product(profile.instance.agents, profile.instance.objects)
            sides = zip(cells, *(itertools.chain(*side.numerators) for side in (left, right)))
            mismatch = next(
                cell for cell, a, b in sides if a * right.denominator != b * left.denominator
            )
            return EquivarianceVerdict(False, tuple(sorted(mapping.items())), mismatch)
    return EquivarianceVerdict(True)


def check_anonymity(
    rule: Rule, profile: PreferenceProfile, truthful: RandomAssignment | None = None
) -> EquivarianceVerdict:
    """Under every relabelling of the agents, relabelling first or applying
    the rule first must agree.  `truthful`, when given, is rule(profile)."""
    require_balanced(profile.instance, "anonymity")
    return _first_asymmetry(
        rule, profile, permute_agents, profile.instance.agents, "agent", truthful
    )


def check_neutrality(
    rule: Rule, profile: PreferenceProfile, truthful: RandomAssignment | None = None
) -> EquivarianceVerdict:
    """Under every relabelling of the objects, relabelling first or applying
    the rule first must agree.  `truthful`, when given, is rule(profile)."""
    require_balanced(profile.instance, "neutrality")
    return _first_asymmetry(
        rule, profile, permute_objects, profile.instance.objects, "object", truthful
    )
