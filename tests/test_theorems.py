"""Known theorems as oracles, on shapes the exhaustive sweep never visits.

The sweep covers 2x4 c=2 (and 4x4 c=1 for '-' cells); these tests draw
profiles on larger shapes and assert what is proved for every profile:

- the source paper, for every quota: multi-unit eating (`mps`) is
  SD-envy-free and unanimous;
- Bogomolnaia and Moulin, "A new solution to the random assignment problem"
  (JET 100, 2001), at quota 1: probabilistic serial (`ops`) is SD-efficient
  and SD-envy-free, and random priority (`rp`) is weak-SD-envy-free;
- every bundled rule is neutral, and every one but fixed-priority serial
  dictatorship is anonymous;
- strategyproofness, where the 6! misreport guard admits a scan: `mps` has
  no weak-SD manipulation (the source paper, for every quota); at quota 1
  `ops` has none either, and `rp` has no SD manipulation and is ex-post
  efficient (Bogomolnaia and Moulin).  `mps` is not asserted
  DL-strategyproof: the table1 sweep refutes that.

Each test has a bounded example count; the strategyproofness scans run on
fixed seeded profiles, because one scan of a 3x6 profile reruns the rule on
3 x 720 misreports.  The verdicts go through the property registry, so they
exercise the same checkers as `mudra check` and `table1`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudra.harness import RULE_NAMES, canonical_instance, check_rule_property, enumerate_profiles
from mudra.model import PreferenceProfile


@st.composite
def profiles(draw, n, m, quota):
    """A profile on the canonical n x m instance.  Half the draws rank a
    bundle of `quota` objects per agent, disjoint across agents, on top, so
    a perfect assignment exists and unanimity is not vacuous."""
    inst = canonical_instance(n, m)
    if draw(st.booleans()):
        return PreferenceProfile(
            inst, tuple(tuple(draw(st.permutations(inst.objects))) for _ in inst.agents)
        )
    dealt = draw(st.permutations(inst.objects))
    orders = []
    for i in range(n):
        bundle = dealt[i * quota:(i + 1) * quota]
        rest = [o for o in inst.objects if o not in bundle]
        orders.append(tuple(draw(st.permutations(bundle))) + tuple(draw(st.permutations(rest))))
    return PreferenceProfile(inst, tuple(orders))


def seeded_profiles(n, m, quota, count, seed=2014):
    """`count` profiles on the canonical n x m instance, orders drawn from `seed`."""
    rng = random.Random(seed)
    inst = canonical_instance(n, m)
    return [
        PreferenceProfile(inst, tuple(tuple(rng.sample(inst.objects, m)) for _ in inst.agents))
        for _ in range(count)
    ]


def orders_id(profile):
    """A profile's orders as digit strings, as in "315462|634251|123465"."""
    return "|".join("".join(o.removeprefix("o") for o in order) for order in profile.orders)


def holds(rule, prop, profile):
    verdict, certificate = check_rule_property(rule, prop, profile)
    assert verdict, (rule, prop, profile.orders, certificate)


@settings(max_examples=40, deadline=None)
@given(st.one_of(profiles(3, 6, 2), profiles(4, 8, 2)))
def test_mps_is_sd_envy_free_and_unanimous(profile):
    holds("mps", "sd-envy-freeness", profile)
    holds("mps", "unanimity", profile)


@settings(max_examples=40, deadline=None)
@given(st.one_of(profiles(4, 4, 1), profiles(5, 5, 1)))
def test_ps_is_sd_envy_free_and_sd_efficient(profile):
    holds("ops", "sd-envy-freeness", profile)
    holds("ops", "sd-efficiency", profile)


@settings(max_examples=60, deadline=None)
@given(profiles(4, 4, 1))
def test_rp_is_weak_sd_envy_free(profile):
    holds("rp", "weak-sd-envy-freeness", profile)


@settings(max_examples=20, deadline=None)
@given(st.one_of(profiles(3, 3, 1), profiles(4, 4, 1)))
def test_rules_are_neutral_and_all_but_priority_anonymous(profile):
    for rule in RULE_NAMES:
        holds(rule, "neutrality", profile)
        if rule != "priority":
            holds(rule, "anonymity", profile)


@pytest.mark.parametrize(
    "profile", seeded_profiles(3, 6, 2, 2) + seeded_profiles(4, 4, 1, 10), ids=orders_id
)
def test_mps_has_no_weak_sd_manipulation(profile):
    holds("mps", "weak-sd-strategyproofness", profile)


@pytest.mark.parametrize(
    "profile", seeded_profiles(4, 4, 1, 10) + seeded_profiles(5, 5, 1, 2), ids=orders_id
)
def test_ps_has_no_weak_sd_manipulation_at_quota_one(profile):
    holds("ops", "weak-sd-strategyproofness", profile)


@pytest.mark.parametrize(
    "profiles",
    [list(enumerate_profiles(canonical_instance(3, 3))), seeded_profiles(4, 4, 1, 10)],
    ids=["3x3-all", "4x4-seeded"],
)
def test_rp_is_sd_strategyproof_and_ex_post_efficient_at_quota_one(profiles):
    for profile in profiles:
        holds("rp", "sd-strategyproofness", profile)
        holds("rp", "ex-post-efficiency", profile)
