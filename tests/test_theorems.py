"""Known theorems as oracles, on shapes the exhaustive sweep never visits.

The sweep covers 2x4 c=2 (and 4x4 c=1 for '-' cells); these tests draw
profiles on larger shapes and assert what is proved for every profile:

- the source paper, for every quota: multi-unit eating (`mps`) is
  SD-envy-free and unanimous;
- Bogomolnaia and Moulin, "A new solution to the random assignment problem"
  (JET 100, 2001), at quota 1: probabilistic serial (`ops`) is SD-efficient
  and SD-envy-free, and random priority (`rp`) is weak-SD-envy-free;
- every bundled rule is neutral, and every one but fixed-priority serial
  dictatorship is anonymous.

Each test has a bounded example count.  The verdicts go through the
property registry, so they exercise the same checkers as `mudra check` and
`table1`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from mudra.harness import RULE_NAMES, canonical_instance, check_rule_property
from mudra.model import PreferenceProfile


@st.composite
def profiles(draw, n, m, quota):
    """A profile on the canonical n x m instance.  Half the draws rank a
    bundle of `quota` objects per agent, disjoint across agents, on top, so
    a perfect assignment exists and unanimity is not vacuous."""
    inst = canonical_instance(n, m, quota)
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
