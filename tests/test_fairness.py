"""Envy-freeness and the symmetry properties (anonymity, neutrality)."""

import functools
import random
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudra.efficiency import enumerate_discrete, is_ex_post_efficient, is_sd_efficient
from mudra.fairness import (
    check_anonymity,
    check_neutrality,
    is_sd_envy_free,
    is_weak_sd_envy_free,
)
from mudra.model import (
    DiscreteAssignment,
    Instance,
    PreferenceProfile,
    RandomAssignment,
    discrete_to_random,
)
from mudra.harness import RULES, OutputCache, canonical_instance, enumerate_profiles
from mudra.order import prefix_sums
from mudra.rules import mps, ops, priority_rule, random_priority, uniform
from oracles import oracle_first_asymmetry, oracle_sd_envy, oracle_weak_sd_envy

F = Fraction

INST = Instance(agents=("1", "2"), objects=("o1", "o2", "o3", "o4"), quota=2)


def profile(*orders):
    return PreferenceProfile(INST, tuple(tuple(o) for o in orders))


IDENTICAL = profile(("o1", "o2", "o3", "o4"), ("o1", "o2", "o3", "o4"))


class TestSdEnvyFreeness:
    def test_uniform_is_envy_free(self):
        assert is_sd_envy_free(uniform(INST), IDENTICAL).holds

    def test_dictatorship_creates_envy_under_identical_preferences(self):
        verdict = is_sd_envy_free(priority_rule(IDENTICAL), IDENTICAL)
        assert not verdict.holds
        assert (verdict.envious, verdict.envied) == ("2", "1")
        # re-verify: at the certificate's prefix object, the envied bundle
        # carries strictly more of the envious agent's upper contour set
        p = priority_rule(IDENTICAL)
        order = IDENTICAL.order_of(verdict.envious)
        at = order.index(verdict.prefix_object)
        own = prefix_sums(p.allocation(verdict.envious), order)[at]
        other = prefix_sums(p.allocation(verdict.envied), order)[at]
        assert own < other

    def test_eating_rules_are_envy_free_here(self):
        staggered = profile(("o1", "o2", "o3", "o4"), ("o3", "o2", "o4", "o1"))
        for rule in (mps, ops):
            assert is_sd_envy_free(rule(staggered), staggered).holds

    def test_relaxed_rejected(self):
        inst = Instance(agents=("1", "2"), objects=("o1", "o2", "o3"), quota=2)
        prof = PreferenceProfile(inst, (("o1", "o2", "o3"), ("o3", "o2", "o1")))
        p = RandomAssignment(inst, ((F(1, 2),) * 3, (F(1, 2),) * 3))
        with pytest.raises(ValueError, match="balanced"):
            is_sd_envy_free(p, prof)


class TestWeakSdEnvyFreeness:
    def test_dictatorship_fails_even_the_weak_notion(self):
        verdict = is_weak_sd_envy_free(priority_rule(IDENTICAL), IDENTICAL)
        assert not verdict.holds
        assert verdict.envious == "2"

    def test_weaker_than_sd_envy_freeness(self):
        # four dictators with partial overlap: agent 1 envies agent 4's
        # allocation at one prefix, yet 4's row does not strictly dominate
        inst = Instance(
            agents=("1", "2", "3", "4"),
            objects=("o1", "o2", "o3", "o4"),
            quota=1,
        )
        orders = (
            ("o1", "o2", "o3", "o4"),
            ("o1", "o2", "o3", "o4"),
            ("o1", "o2", "o4", "o3"),
            ("o1", "o3", "o2", "o4"),
        )
        prof = PreferenceProfile(inst, orders)
        p = random_priority(prof)
        sd = is_sd_envy_free(p, prof)
        assert not sd.holds
        assert (sd.envious, sd.envied) == ("1", "4")
        assert is_weak_sd_envy_free(p, prof).holds


@pytest.mark.parametrize(
    "check", [is_sd_envy_free, is_weak_sd_envy_free, is_sd_efficient, is_ex_post_efficient]
)
def test_an_assignment_from_another_instance_is_refused(check):
    four = canonical_instance(4, 4)
    output = mps(PreferenceProfile(four, (four.objects,) * 4))
    with pytest.raises(ValueError, match="assignment and profile must share one instance"):
        check(output, IDENTICAL)


class TestAnonymity:
    SWAP = (("1", "2"), ("2", "1"))

    def test_symmetric_rule_commutes_with_agent_relabeling(self):
        staggered = profile(("o1", "o2", "o3", "o4"), ("o3", "o2", "o4", "o1"))
        for rule in (mps, ops, lambda p: uniform(p.instance), random_priority):
            verdict = check_anonymity(rule, staggered)
            assert verdict.holds and verdict.permutation is verdict.mismatch is None

    def test_fixed_priority_is_not_anonymous(self):
        staggered = profile(("o1", "o2", "o3", "o4"), ("o3", "o2", "o4", "o1"))
        verdict = check_anonymity(priority_rule, staggered)
        assert not verdict.holds
        assert verdict.permutation == self.SWAP
        assert verdict.mismatch is not None

    def test_mismatch_is_the_first_cell_of_unequal_value(self):
        # The two sides have denominators 4 and 2; cell (1, o1) is 1/2 on
        # both, though its numerators 2 and 1 differ.
        staggered = profile(("o1", "o2", "o3", "o4"), ("o3", "o2", "o4", "o1"))
        halves = RandomAssignment(INST, ((F(1, 2),) * 4,) * 2)
        skewed = RandomAssignment(
            INST, ((F(1, 2), F(1, 4), F(3, 4), F(1, 2)), (F(1, 2), F(3, 4), F(1, 4), F(1, 2)))
        )
        verdict = check_anonymity(lambda q: halves if q == staggered else skewed, staggered)
        assert not verdict.holds and verdict.mismatch == ("1", "o2")

    def test_identity_permutation_is_trivial(self):
        # One agent has only the identity relabelling, which is skipped: the
        # rule runs once, on the profile itself, and anything is anonymous.
        alone = Instance(agents=("1",), objects=("o1", "o2"), quota=2)
        runs = []

        def rule(p):
            runs.append(p)
            return priority_rule(p)

        solo = PreferenceProfile(alone, (("o2", "o1"),))
        assert check_anonymity(rule, solo).holds
        assert runs == [solo]


class TestNeutrality:
    def test_all_bundled_rules_commute_with_object_relabeling(self):
        # Every one of the 23 non-identity relabellings of four objects.
        staggered = profile(("o1", "o2", "o3", "o4"), ("o3", "o2", "o4", "o1"))
        rules = (
            lambda p: uniform(p.instance),
            priority_rule,
            random_priority,
            ops,
            mps,
        )
        for rule in rules:
            assert check_neutrality(rule, staggered).holds

    def test_constant_rule_is_not_neutral(self):
        # The first image, swapping o3 and o4, commutes with the constant
        # output; the second, swapping o2 and o3, does not.
        constant = discrete_to_random(DiscreteAssignment(INST, ("1", "1", "2", "2")))
        verdict = check_neutrality(lambda p: constant, IDENTICAL)
        assert not verdict.holds
        assert verdict.permutation == (("o1", "o1"), ("o2", "o3"), ("o3", "o2"), ("o4", "o4"))
        assert verdict.mismatch == ("1", "o2")


# --------------------------------------------------------------------------
# The symmetry scan against the plain object loop
# --------------------------------------------------------------------------


def constant_rule(profile):
    """Object j to agent j mod n, whatever the orders: neither anonymous nor neutral."""
    inst = profile.instance
    owners = [inst.agents[j % inst.num_agents] for j in range(inst.num_objects)]
    return discrete_to_random(DiscreteAssignment(inst, owners))


def mps_if_o1_first(profile):
    """`mps` when the first agent ranks the first object first, else uniform."""
    if profile.orders[0][0] == profile.instance.objects[0]:
        return mps(profile)
    return uniform(profile.instance)


def seeded_profiles(instance, seeds):
    for seed in seeds:
        rng = random.Random(seed)
        m = instance.num_objects
        yield PreferenceProfile(
            instance, tuple(tuple(rng.sample(instance.objects, m)) for _ in instance.agents)
        )


SYMMETRY_DOMAINS = {
    "2x4c2": lambda: enumerate_profiles(canonical_instance(2, 4)),
    "3x3c1": lambda: enumerate_profiles(canonical_instance(3, 3)),
    "4x4c1-seeded": lambda: seeded_profiles(canonical_instance(4, 4), range(8)),
}


@pytest.mark.parametrize("domain", SYMMETRY_DOMAINS)
def test_symmetry_checks_match_the_object_loop(domain, monkeypatch):
    """Anonymity and neutrality give the oracle's (holds, permutation,
    mismatch) for every bundled rule and two rules without a kernel, each
    as the raw rule, through a cold output memo and through a warm one."""
    monkeypatch.setitem(RULES, "constant", constant_rule)
    monkeypatch.setitem(RULES, "mps-if-o1-first", mps_if_o1_first)
    profiles = list(SYMMETRY_DOMAINS[domain]())
    failures = 0
    for name, rule in RULES.items():
        plain, warm = functools.cache(rule), OutputCache()
        for profile in profiles:
            truthful = warm.output(name, profile)
            for agents, check in ((True, check_anonymity), (False, check_neutrality)):
                expected = oracle_first_asymmetry(plain, profile, agents)
                assert astuple(check(rule, profile)) == expected, (name, profile.orders)
                assert astuple(check(OutputCache().callable(name), profile)) == expected
                assert astuple(check(warm.callable(name), profile, truthful)) == expected
                failures += not expected[0]
    assert failures


# --------------------------------------------------------------------------
# The envy scan against the plain envy definitions
# --------------------------------------------------------------------------


def assert_envy_matches_oracles(p, prof):
    assert astuple(is_sd_envy_free(p, prof)) == oracle_sd_envy(p, prof)
    assert astuple(is_weak_sd_envy_free(p, prof)) == oracle_weak_sd_envy(p, prof)


@pytest.mark.parametrize("shape", [(2, 4, 2), (3, 3, 1)])
def test_envy_scan_matches_oracles_exhaustively(shape):
    """Every balanced discrete assignment and rule output at every profile."""
    inst = canonical_instance(*shape[:2])
    discrete = [discrete_to_random(d) for d in enumerate_discrete(inst)]
    for prof in enumerate_profiles(inst):
        for p in discrete + [rule(prof) for rule in RULES.values()]:
            assert_envy_matches_oracles(p, prof)


SINGLE_UNIT_4 = canonical_instance(4, 4)
QUARTERS = st.sampled_from([F(k, 4) for k in range(5)])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.permutations(SINGLE_UNIT_4.objects), min_size=4, max_size=4),
    st.lists(st.lists(QUARTERS, min_size=4, max_size=4), min_size=4, max_size=4),
)
def test_envy_scan_matches_oracles_on_single_unit_four(orders, rows):
    """Rule outputs and arbitrary quarter-valued matrices, ties included."""
    prof = PreferenceProfile(SINGLE_UNIT_4, tuple(tuple(o) for o in orders))
    drawn = RandomAssignment(SINGLE_UNIT_4, tuple(tuple(row) for row in rows))
    for p in [drawn] + [rule(prof) for rule in RULES.values()]:
        assert_envy_matches_oracles(p, prof)
