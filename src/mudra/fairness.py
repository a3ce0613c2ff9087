"""Fairness and symmetry checks: envy-freeness in the stochastic dominance
sense, anonymity and neutrality as equivariance of a rule under every
relabelling of its agents or objects.  Each pair of notions is decided by
one routine: `_first_envy`, `first_asymmetries`.
The envy scan sums integer `numerators` rows: every row of one matrix shares
its `denominator`, so their prefix sums order exactly as the `Fraction` ones.
The symmetry scan (`first_asymmetries`) judges any number of rules in one
pass: it runs each rule's integer kernel, the one `rules.kernel_of` gives
it, on `ranked` for the truthful numerators (for an output memo's rule, a
lookup once the memo holds them), then makes each relabelling of the rows
once, runs every rule not yet failed on it and compares the two sides,
whole rows first; it builds no profile and no assignment.  The pruning flag
that `kernel_of` returns with the kernel concerns the misreport scan alone.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
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


def _first_mismatch(inst, left, left_scale, right, scale) -> tuple[str, str] | None:
    """The first (agent, object) cell, row-major, where `left` over
    `left_scale` and `right` over `scale` differ, by cross-multiplying."""
    for agent, mine, theirs in zip(inst.agents, left, right):
        for obj, a, b in zip(inst.objects, mine, theirs):
            if a * scale != b * left_scale:
                return agent, obj
    return None


def first_asymmetries(
    rules: Sequence[Rule], profile: PreferenceProfile, agents: bool
) -> list[EquivarianceVerdict]:
    """Each rule's anonymity verdict at `profile` (`agents`), or else its
    neutrality verdict, all judged in one pass over the relabellings.

    A rule's verdict names the first relabelling of the agents or the
    objects, in lexicographic order past the identity, under which
    relabelling first and applying the rule first disagree, with the first
    cell where they do; or it holds.  Both sides are integer rows: each
    rule's kernel (`rules.kernel_of`) runs once on `profile`'s `ranked`
    rows and once on each relabelling of them, and the truthful numerators
    are relabelled in place of the output.  Each relabelling and its
    relabelled rows are made once and serve every rule not yet failed; a
    rule that fails is judged no further, and the pass ends when none is
    left.  Two sides over one scale are compared row by row; the
    cross-multiplied cell walk runs only when that finds them unequal or
    the scales differ.  More than 8 labels are refused before any rule runs.
    """
    inst = profile.instance
    require_balanced(inst, "anonymity" if agents else "neutrality")
    labels, what = (inst.agents, "agent") if agents else (inst.objects, "object")
    positions = range(len(labels))
    images = orderings(positions, ORDER_LIMIT, f"{len(labels)}! {what} relabellings")
    ranked = profile.ranked
    verdicts = [EquivarianceVerdict(True)] * len(rules)
    # (position in `rules`, kernel, truthful rows as tuples, their scale) of
    # each rule not yet failed
    pending = []
    for index, rule in enumerate(rules):
        kernel = kernel_of(rule)[0]
        truth, scale = kernel(inst, ranked)
        pending.append((index, kernel, tuple(map(tuple, truth)), scale))
    identity = tuple(positions)
    for image in images:
        if not pending:
            break
        if image == identity:
            continue
        # Label k becomes label image[k]; source[t] is the label mapped onto t.
        # Past the identity there are two labels or more, so `pick` gives a tuple.
        source = sorted(positions, key=image.__getitem__)
        pick = operator.itemgetter(*source)
        if agents:
            relabelled = pick(ranked)
        else:
            relabelled = tuple(tuple(map(image.__getitem__, row)) for row in ranked)
        still_pending = []
        for entry in pending:
            index, kernel, truth, scale = entry
            right = pick(truth) if agents else tuple(map(pick, truth))
            left, left_scale = kernel(inst, relabelled)
            if left_scale == scale and tuple(map(tuple, left)) == right:
                cell = None
            else:
                cell = _first_mismatch(inst, left, left_scale, right, scale)
            if cell is None:
                still_pending.append(entry)
            else:
                mapping = sorted(zip(labels, map(labels.__getitem__, image)))
                verdicts[index] = EquivarianceVerdict(False, tuple(mapping), cell)
        pending = still_pending
    return verdicts


def check_anonymity(rule: Rule, profile: PreferenceProfile) -> EquivarianceVerdict:
    """Under every relabelling of the agents, relabelling first or applying
    the rule first must agree: `first_asymmetries` of the one rule."""
    return first_asymmetries((rule,), profile, True)[0]


def check_neutrality(rule: Rule, profile: PreferenceProfile) -> EquivarianceVerdict:
    """Under every relabelling of the objects, relabelling first or applying
    the rule first must agree: `first_asymmetries` of the one rule."""
    return first_asymmetries((rule,), profile, False)[0]
