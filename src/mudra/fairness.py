"""Fairness and symmetry checks: envy-freeness in the stochastic dominance
sense, anonymity and neutrality as equivariance of a rule under every
relabelling of its agents or objects.  Each pair of notions is decided by
one routine: `_first_envy`, `_first_asymmetry`.
The envy scan sums integer `numerators` rows: every row of one matrix shares
its `denominator`, so their prefix sums order exactly as the `Fraction` ones.
The symmetry scan runs the rule's integer kernel, the one `rules.kernel_of`
gives it, on `ranked` for the truthful numerators (for an output memo's
rule, a lookup once the memo holds them), relabels the rows and those
numerators, runs the kernel on each relabelled profile and compares the
two sides by cross-multiplying; it builds no profile and no assignment.
The pruning flag that `kernel_of` returns with the kernel concerns the
misreport scan alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import (
    ORDER_LIMIT,
    PreferenceProfile,
    RandomAssignment,
    orderings,
    require_balanced,
    require_shared_instance,
)
from .rules import Rule, kernel_of


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


def _first_asymmetry(rule, profile, agents) -> EquivarianceVerdict:
    """The first relabelling of the agents (`agents`) or else the objects,
    in lexicographic order past the identity, under which relabelling first
    and applying the rule first disagree, with the first cell where they do
    (row-major, by cross-multiplied numerators); or a pass.

    Both sides are integer rows: the rule's kernel (`rules.kernel_of`) runs
    once on `profile`'s `ranked` rows and once on each relabelling of them,
    and the truthful numerators are relabelled in place of the output.
    More than 8 labels are refused before the rule runs.
    """
    inst = profile.instance
    labels, what = (inst.agents, "agent") if agents else (inst.objects, "object")
    positions = range(len(labels))
    images = orderings(positions, ORDER_LIMIT, f"{len(labels)}! {what} relabellings")
    kernel, ranked = kernel_of(rule)[0], profile.ranked
    truth, scale = kernel(inst, ranked)
    identity = tuple(positions)
    for image in images:
        if image == identity:
            continue
        # Label k becomes label image[k]; source[t] is the label mapped onto t.
        source = sorted(positions, key=image.__getitem__)
        if agents:
            relabelled = tuple(ranked[k] for k in source)
            right = [truth[k] for k in source]
        else:
            relabelled = tuple(tuple(image[j] for j in row) for row in ranked)
            right = [[row[k] for k in source] for row in truth]
        left, left_scale = kernel(inst, relabelled)
        for agent, mine, theirs in zip(inst.agents, left, right):
            for obj, a, b in zip(inst.objects, mine, theirs):
                if a * scale != b * left_scale:
                    mapping = sorted(zip(labels, map(labels.__getitem__, image)))
                    return EquivarianceVerdict(False, tuple(mapping), (agent, obj))
    return EquivarianceVerdict(True)


def check_anonymity(rule: Rule, profile: PreferenceProfile) -> EquivarianceVerdict:
    """Under every relabelling of the agents, relabelling first or applying
    the rule first must agree."""
    require_balanced(profile.instance, "anonymity")
    return _first_asymmetry(rule, profile, True)


def check_neutrality(rule: Rule, profile: PreferenceProfile) -> EquivarianceVerdict:
    """Under every relabelling of the objects, relabelling first or applying
    the rule first must agree."""
    require_balanced(profile.instance, "neutrality")
    return _first_asymmetry(rule, profile, False)
