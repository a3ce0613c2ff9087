"""Misreport searches: individual (three improvement notions) and group."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mudra.efficiency import sd_dominates
from mudra.harness import RULE_NAMES, RULES, OutputCache, check_rule_property
from mudra.model import GuardExceeded, Instance, PreferenceProfile, RandomAssignment
from mudra.order import DlVerdict, SdVerdict, dl_compare, sd_compare
from mudra.rules import KERNELS, mps, ops, priority_rule, random_priority, uniform
from mudra.strategy import (
    ManipulationKind,
    _grown,
    _judged,
    find_dl_manipulation,
    find_group_manipulation,
    find_sd_manipulation,
    find_weak_sd_manipulation,
    first_manipulation,
)
from oracles import dl_oracle, make_profile, name_keyed_sd_dominates, sd_oracle

F = Fraction


# two agents fighting over a, with b freeing up a bargaining wedge
STAGGERED = make_profile([("a", "b", "c", "d"), ("b", "c", "a", "d")], quota=2)

# the largest object set a misreport scan answers for
SIX_OBJECTS = make_profile([tuple("abcdef"), tuple("fedcba"), tuple("cdabef")], quota=2)


# The trie walk's bound comes first: a walk that spins would hang every
# pruned scan of the tests after it.


class SearchedOnce(dict):
    """Trie branches that fail when one walk searches them a second time."""

    searched = False

    def __contains__(self, column):
        assert not self.searched, "the walk came back to a node it had left"
        self.searched = True
        return super().__contains__(column)


def searched_once(node):
    """`node`'s trie, each branch dict a fresh `SearchedOnce`."""
    if node is None:
        return None
    read, branches = node
    return read, SearchedOnce({column: searched_once(n) for column, n in branches.items()})


def test_a_trie_walk_searches_each_node_once():
    """A walk moves one node down per read, so it ends after at most as
    many searches as the longest run read entries, and it never spins."""
    judged = ((2, 0, 1), (1, 0, 2))
    trie = _grown(None, [(0, 0), (1, 0), (0, 1)], judged)
    trie = _grown(trie, [(0, 0), (1, 0), (0, 1)], ((2, 1, 0), (1, 2, 0)))
    trie = _grown(trie, [(0, 0), (1, 0)], ((2, 0, 1), (0, 1, 2)))
    assert _judged(searched_once(trie), judged)
    assert _judged(searched_once(trie), ((2, 0, 1), (1, 2, 0)))
    assert _judged(searched_once(trie), ((2, 1, 0), (0, 2, 1)))
    assert not _judged(searched_once(trie), ((2, 1, 0), (2, 1, 0)))
    assert not _judged(searched_once(trie), ((0, 1, 2), (1, 0, 2)))


def never_called(profile):
    raise AssertionError("the rule ran although the guard should refuse first")


def assert_replayable(rule, profile, manipulation):
    """The stored outcome must equal a fresh run of the misreported profile."""
    misreported = profile.with_orders(dict(manipulation.misreports))
    assert rule(misreported).matrix == manipulation.manipulated.matrix
    assert rule(profile).matrix == manipulation.truthful.matrix


class TestMisreportGuard:
    SEVEN = make_profile([tuple("abcdefg")], quota=7)
    FINDERS = (find_sd_manipulation, find_dl_manipulation, find_weak_sd_manipulation)

    def test_six_objects_answer(self):
        for finder in self.FINDERS:
            assert finder(lambda p: uniform(p.instance), SIX_OBJECTS, "1") is None

    def test_seven_objects_refused_before_the_rule_runs(self):
        for finder in self.FINDERS:
            with pytest.raises(GuardExceeded, match="7!"):
                finder(never_called, self.SEVEN, "1")
        with pytest.raises(GuardExceeded, match="7!"):
            find_group_manipulation(never_called, self.SEVEN, ("1",))


class TestWeakSdManipulation:
    def test_one_at_a_time_eating_is_manipulable(self):
        found = find_weak_sd_manipulation(ops, STAGGERED, "1")
        assert found is not None
        assert found.kind is ManipulationKind.STRICT_SD
        assert found.misreport_of("1") == ("b", "a", "c", "d")
        assert found.manipulated.matrix == (
            (F(1), F(1, 2), F(0), F(1, 2)),
            (F(0), F(1, 2), F(1), F(1, 2)),
        )
        assert_replayable(ops, STAGGERED, found)
        # the claimed improvement re-verifies
        assert (
            sd_compare(
                found.manipulated.allocation("1"),
                found.truthful.allocation("1"),
                STAGGERED.order_of("1"),
            )
            is SdVerdict.FIRST_STRICTLY_DOMINATES
        )

    def test_multi_unit_eating_resists_here(self):
        for agent in ("1", "2"):
            assert find_weak_sd_manipulation(mps, STAGGERED, agent) is None

    def test_dictatorship_resists(self):
        for agent in ("1", "2"):
            assert find_weak_sd_manipulation(priority_rule, STAGGERED, agent) is None


class TestDlManipulation:
    def test_multi_unit_eating_is_dl_manipulable(self):
        found = find_dl_manipulation(mps, STAGGERED, "1")
        assert found is not None
        assert found.kind is ManipulationKind.DL_IMPROVEMENT
        assert found.misreport_of("1") == ("a", "d", "b", "c")
        assert found.truthful.matrix == (
            (F(3, 4), F(1, 2), F(1, 4), F(1, 2)),
            (F(1, 4), F(1, 2), F(3, 4), F(1, 2)),
        )
        # dropping b and c entirely wins all of a, the top object
        assert found.manipulated.allocation("1") == {
            "a": F(1), "b": F(0), "c": F(0), "d": F(1),
        }
        assert_replayable(mps, STAGGERED, found)
        assert (
            dl_compare(
                found.manipulated.allocation("1"),
                found.truthful.allocation("1"),
                STAGGERED.order_of("1"),
            )
            is DlVerdict.FIRST
        )

    def test_random_priority_resists(self):
        for agent in ("1", "2"):
            assert find_dl_manipulation(random_priority, STAGGERED, agent) is None


class TestSdManipulation:
    def test_multi_unit_eating_outcome_becomes_incomparable(self):
        found = find_sd_manipulation(mps, STAGGERED, "1")
        assert found is not None
        assert found.kind is ManipulationKind.NOT_SD_DOMINATED
        verdict = sd_compare(
            found.truthful.allocation("1"),
            found.manipulated.allocation("1"),
            STAGGERED.order_of("1"),
        )
        assert verdict not in (
            SdVerdict.EQUAL,
            SdVerdict.FIRST_STRICTLY_DOMINATES,
        )
        assert_replayable(mps, STAGGERED, found)

    def test_misreport_of_a_non_member_is_refused(self):
        found = find_sd_manipulation(mps, STAGGERED, "1")
        with pytest.raises(KeyError, match="agent '2' is not part of this manipulation"):
            found.misreport_of("2")

    def test_uniform_is_immune_by_construction(self):
        rule = lambda p: uniform(p.instance)
        for agent in ("1", "2"):
            assert find_sd_manipulation(rule, STAGGERED, agent) is None


class TestGroupManipulation:
    PROFILE = make_profile(
        [
            ("a", "b", "c", "d"),
            ("a", "b", "c", "d"),
            ("b", "c", "a", "d"),
            ("b", "c", "a", "d"),
        ],
        quota=1,
    )

    def test_single_unit_eating_joint_misreport(self):
        found = find_group_manipulation(mps, self.PROFILE, ("1", "2"))
        assert found is not None
        assert found.coalition == ("1", "2")
        assert found.misreports == (
            ("1", ("b", "a", "c", "d")),
            ("2", ("b", "a", "c", "d")),
        )
        q = F(1, 4)
        h = F(1, 2)
        assert found.manipulated.matrix == (
            (h, q, F(0), q),
            (h, q, F(0), q),
            (F(0), q, h, q),
            (F(0), q, h, q),
        )
        assert_replayable(mps, self.PROFILE, found)
        for agent in ("1", "2"):
            assert (
                sd_compare(
                    found.manipulated.allocation(agent),
                    found.truthful.allocation(agent),
                    self.PROFILE.order_of(agent),
                )
                is SdVerdict.FIRST_STRICTLY_DOMINATES
            )

    def test_no_individual_gain_at_the_same_profile(self):
        # the joint move is essential: alone, neither agent can improve
        for agent in ("1", "2"):
            assert find_weak_sd_manipulation(mps, self.PROFILE, agent) is None

    def test_empty_coalition_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            find_group_manipulation(mps, self.PROFILE, ())

    def test_duplicate_member_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            find_group_manipulation(mps, self.PROFILE, ("1", "1"))

    def test_unknown_member_rejected(self):
        with pytest.raises(KeyError):
            find_group_manipulation(mps, self.PROFILE, ("1", "9"))

    def test_joint_cap_refusal(self):
        # (6!)^3 joint misreports exceed the guard of 10^6.
        with pytest.raises(GuardExceeded, match="joint"):
            find_group_manipulation(never_called, SIX_OBJECTS, ("1", "2", "3"))


class TestRelaxedRejected:
    def test_individual(self):
        inst = Instance(agents=("1", "2"), objects=("o1", "o2", "o3"), quota=2)
        prof = PreferenceProfile(inst, (("o1", "o2", "o3"), ("o3", "o2", "o1")))
        with pytest.raises(ValueError, match="balanced"):
            find_weak_sd_manipulation(mps, prof, "1")


# --------------------------------------------------------------------------
# An independent oracle: brute-force first witness on every 3x3 c=1 profile
# --------------------------------------------------------------------------

THREE_BY_THREE = Instance(agents=("1", "2", "3"), objects=("o1", "o2", "o3"), quota=1)
TWO_BY_FOUR = Instance(agents=("1", "2"), objects=("o1", "o2", "o3", "o4"), quota=2)
#: 3x3 c=1 with agents and objects listed out of label order, so that a row
#: or column index mistaken for a label shows against the name-keyed oracle.
#: Its rows and columns play the roles of THREE_BY_THREE's, position by
#: position, so its witness counts are those of THREE_BY_THREE.
SHUFFLED = Instance(agents=("3", "1", "2"), objects=("o3", "o1", "o2"), quota=1)

#: kind -> (finder, the kind it reports, improvement test on (alt, truth, order)).
INDIVIDUAL = {
    "weak-sd": (
        find_weak_sd_manipulation,
        ManipulationKind.STRICT_SD,
        lambda alt, truth, order: sd_oracle(alt, truth, order) == "FIRST_STRICTLY_DOMINATES",
    ),
    "sd": (
        find_sd_manipulation,
        ManipulationKind.NOT_SD_DOMINATED,
        lambda alt, truth, order: sd_oracle(truth, alt, order)
        not in ("EQUAL", "FIRST_STRICTLY_DOMINATES"),
    ),
    "dl": (
        find_dl_manipulation,
        ManipulationKind.DL_IMPROVEMENT,
        lambda alt, truth, order: dl_oracle(alt, truth, order) == "FIRST",
    ),
}


#: Witnesses the oracle finds per rule and kind, over 3x3 c=1 and the 2x4 slice:
#: pinned so that agreement on "no witness" alone cannot pass the tests.
EXPECTED_INDIVIDUAL_WITNESSES = {
    "uniform": {"weak-sd": 0, "sd": 0, "dl": 0},
    "priority": {"weak-sd": 0, "sd": 0, "dl": 0},
    "rp": {"weak-sd": 0, "sd": 0, "dl": 0},
    "ops": {"weak-sd": 14, "sd": 86, "dl": 14},
    "mps": {"weak-sd": 0, "sd": 96, "dl": 16},
}
#: Profiles of 3x3 c=1 where agents 1 and 2 gain together (of SHUFFLED too:
#: there they are rows 2 and 3, and the rules that gain are anonymous).
EXPECTED_PAIR_WITNESSES = {"uniform": 0, "priority": 0, "rp": 6, "ops": 6, "mps": 6}
#: Ordered pairs (q, p) of the rules' outputs on one SHUFFLED profile where q
#: SD-dominates p, summed over all 216 profiles.
EXPECTED_SD_DOMINATED_PAIRS = 678


def brute_force_witness(rule, profile, coalition, improves):
    """First joint report, in canonical order, under which every member improves.

    Reports run over the product of the members' permutations of the object
    tuple, first member slowest; the all-truthful report is skipped.  Returns
    (joint report, truthful outcome, manipulated outcome), or None.
    """
    inst = profile.instance
    rows = [inst.agents.index(a) for a in coalition]
    truthful = rule(profile)
    for joint in itertools.product(itertools.permutations(inst.objects), repeat=len(rows)):
        orders = list(profile.orders)
        for i, order in zip(rows, joint):
            orders[i] = order
        if tuple(orders) == profile.orders:
            continue
        outcome = rule(PreferenceProfile(inst, tuple(orders)))
        if all(
            improves(
                dict(zip(inst.objects, outcome.matrix[i])),
                dict(zip(inst.objects, truthful.matrix[i])),
                profile.orders[i],
            )
            for i in rows
        ):
            return joint, truthful, outcome
    return None


def assert_same_witness(found, expected, kind, coalition):
    if expected is None:
        assert found is None
        return
    joint, truthful, outcome = expected
    assert found is not None
    assert found.kind is kind
    assert found.coalition == coalition
    assert found.misreports == tuple(zip(coalition, joint))
    assert found.truthful.matrix == truthful.matrix
    assert found.manipulated.matrix == outcome.matrix


@pytest.fixture(scope="module")
def cache():
    """One memo of rule outputs for every instance here: each misreported
    profile is a profile of a swept domain."""
    return OutputCache()


def all_profiles(instance):
    orders = list(itertools.permutations(instance.objects))
    for combo in itertools.product(orders, repeat=instance.num_agents):
        yield PreferenceProfile(instance, combo)


def two_by_four_profiles():
    """The 24 profiles of 2x4 c=2 where agent 1 reports the object tuple.

    On 3x3 c=1 no rule has a weak-SD or a DL witness; here ops and mps do.
    """
    for order in itertools.permutations(TWO_BY_FOUR.objects):
        yield PreferenceProfile(TWO_BY_FOUR, (TWO_BY_FOUR.objects, order))


def individual_witnesses(rule_name, profiles, cache):
    """Check every finder against the oracle; count the oracle's witnesses.

    The finders get the rule itself, so that their scans prune by the
    rule's reads; the oracle and the registry get the memo, which the scan
    cannot prune by (the registry's scans run every misreport)."""
    rule, memo = RULES[rule_name], cache.callable(rule_name)
    witnesses = dict.fromkeys(INDIVIDUAL, 0)
    for profile in profiles:
        first = {}  # kind -> (first agent with a witness, their misreport)
        for agent in profile.instance.agents:
            found = {}
            for name, (finder, kind, improves) in INDIVIDUAL.items():
                expected = brute_force_witness(memo, profile, (agent,), improves)
                found[name] = finder(rule, profile, agent)
                assert_same_witness(found[name], expected, kind, (agent,))
                witnesses[name] += expected is not None
                if expected is not None:
                    first.setdefault(name, (agent, expected[0][0]))
            # one agent is a coalition of one
            assert find_group_manipulation(rule, profile, (agent,)) == found["weak-sd"]
        # The first-agent search and the registry's certificate name that agent.
        for name in INDIVIDUAL:
            found = first_manipulation(memo, profile, name, profile.instance.agents)
            assert (found and found.misreports[0]) == first.get(name)
            holds, certificate = check_rule_property(
                rule_name, f"{name}-strategyproofness", profile, cache
            )
            assert holds == (name not in first)
            if not holds:
                assert (certificate["agent"], tuple(certificate["misreport"])) == first[name]
    return witnesses


@pytest.mark.parametrize("rule_name", RULE_NAMES)
def test_individual_searches_match_brute_force(rule_name, cache):
    square = individual_witnesses(rule_name, all_profiles(THREE_BY_THREE), cache)
    sliced = individual_witnesses(rule_name, two_by_four_profiles(), cache)
    total = {name: square[name] + sliced[name] for name in INDIVIDUAL}
    assert total == EXPECTED_INDIVIDUAL_WITNESSES[rule_name]
    assert individual_witnesses(rule_name, all_profiles(SHUFFLED), cache) == square


@pytest.mark.parametrize("rule_name", RULE_NAMES)
def test_pair_search_matches_brute_force(rule_name, cache):
    improves = INDIVIDUAL["weak-sd"][2]
    rule, memo = RULES[rule_name], cache.callable(rule_name)
    for instance in (THREE_BY_THREE, SHUFFLED):
        witnesses = 0
        for profile in all_profiles(instance):
            expected = brute_force_witness(memo, profile, ("1", "2"), improves)
            found = find_group_manipulation(rule, profile, ("1", "2"))
            assert_same_witness(found, expected, ManipulationKind.STRICT_SD, ("1", "2"))
            witnesses += expected is not None
        assert witnesses == EXPECTED_PAIR_WITNESSES[rule_name]


def seeded_profile(instance, seed):
    rng = random.Random(seed)
    m = instance.num_objects
    return PreferenceProfile(
        instance, tuple(tuple(rng.sample(instance.objects, m)) for _ in instance.agents)
    )


six_object_orders = st.permutations(SIX_OBJECTS.instance.objects).map(tuple)


@pytest.mark.parametrize("rule_name", RULE_NAMES)
@settings(max_examples=2, deadline=None)
@given(
    orders=st.tuples(six_object_orders, six_object_orders, six_object_orders),
    agent=st.sampled_from(SIX_OBJECTS.instance.agents),
)
# A rule that reads more than its views show (an `mps` that runs `ops` when
# the first order ends in the first object) gives a different first witness
# here: the scan's skips then rest on reads that do not decide the output.
@example(orders=seeded_profile(SIX_OBJECTS.instance, 1).orders, agent="1")
def test_searches_match_brute_force_on_six_objects(rule_name, orders, agent):
    """The widest scan: 720 reports of one agent on 3x6 c=2."""
    profile = PreferenceProfile(SIX_OBJECTS.instance, orders)
    memo = OutputCache().callable(rule_name)
    for finder, kind, improves in INDIVIDUAL.values():
        expected = brute_force_witness(memo, profile, (agent,), improves)
        assert_same_witness(finder(RULES[rule_name], profile, agent), expected, kind, (agent,))


class CountedRule:
    """A rule that counts its runs and hands each profile through as given."""

    def __init__(self, rule):
        self.rule, self.runs = rule, 0

    def __call__(self, profile):
        self.runs += 1
        return self.rule(profile)


FOUR_BY_FOUR = Instance(agents=("1", "2", "3", "4"), objects=("a", "b", "c", "d"), quota=1)


@pytest.mark.parametrize("rule_name", RULE_NAMES)
def test_searches_match_brute_force_on_seeded_four_objects(rule_name):
    """On four objects a rule can stop two or more positions short of the
    end of a report, so the scan skips reports that differ only there."""
    rule, memo = RULES[rule_name], OutputCache().callable(rule_name)
    for seed in range(12):
        profile = seeded_profile(FOUR_BY_FOUR, seed)
        for agent in FOUR_BY_FOUR.agents:
            for finder, kind, improves in INDIVIDUAL.values():
                expected = brute_force_witness(memo, profile, (agent,), improves)
                assert_same_witness(finder(rule, profile, agent), expected, kind, (agent,))


#: Seeds of 4x4 c=1 profiles for pair scans: 1 has no witness for {1, 2},
#: 13 one for `rp` only, 20 one for `ops` and `mps` only, 50 one for all three.
PAIR_SEEDS = (1, 13, 20, 50)
#: Witnesses for the pair {1, 2} over PAIR_SEEDS.
EXPECTED_SEEDED_PAIR_WITNESSES = {"uniform": 0, "priority": 0, "rp": 2, "ops": 2, "mps": 2}


@pytest.mark.parametrize("rule_name", RULE_NAMES)
def test_pair_search_matches_brute_force_on_seeded_four_objects(rule_name):
    """On 4x4 c=1 the rules stop reading a report where their picks are
    forced (the last object eaten, the last agent to pick in `rp`), so a
    pair scan skips every report that differs from a judged one only there."""
    improves = INDIVIDUAL["weak-sd"][2]
    rule, memo = RULES[rule_name], OutputCache().callable(rule_name)
    witnesses = 0
    for seed in PAIR_SEEDS:
        profile = seeded_profile(FOUR_BY_FOUR, seed)
        expected = brute_force_witness(memo, profile, ("1", "2"), improves)
        found = find_group_manipulation(rule, profile, ("1", "2"))
        assert_same_witness(found, expected, ManipulationKind.STRICT_SD, ("1", "2"))
        witnesses += expected is not None
    assert witnesses == EXPECTED_SEEDED_PAIR_WITNESSES[rule_name]


#: A seeded 4x4 c=1 profile where no rule has a witness for the pair {1, 2}.
PAIR_PROFILE = seeded_profile(FOUR_BY_FOUR, 1)
#: Rule runs of the {1, 2} scan on PAIR_PROFILE: the truthful run and one
#: per joint report whose reads no earlier run shared, of 575.  `uniform`
#: reads no order, so its truthful run reads nothing and ends the scan.  The
#: eating rules read no row once one object is left, and `rp` no row of the
#: agent that picks last, so more reports share their reads with a judged
#: run.  Reading those rows too would take `rp` to 380 runs, and `ops` and
#: `mps` to 356.
EXPECTED_PAIR_RUNS = {"uniform": 1, "priority": 24, "rp": 240, "ops": 176, "mps": 176}


@pytest.mark.parametrize("rule_name", RULE_NAMES)
def test_pair_scan_runs_the_rule_once_per_distinct_read(rule_name, monkeypatch):
    # The scan runs the kernel that `rules.KERNELS` holds for the rule, so
    # a counting kernel put there counts the runs.
    rule, runs = RULES[rule_name], []
    kernel = KERNELS[rule]
    monkeypatch.setitem(KERNELS, rule, lambda inst, ranked: runs.append(1) or kernel(inst, ranked))
    assert find_group_manipulation(rule, PAIR_PROFILE, ("1", "2")) is None
    assert len(runs) == EXPECTED_PAIR_RUNS[rule_name]
    # A memo hit reads nothing, so a scan through a warm memo, here behind a
    # wrapper that hides the memo's kernel, prunes nothing.
    cache = OutputCache()
    cache.output(rule_name, PAIR_PROFILE)
    memo = CountedRule(cache.callable(rule_name))
    assert find_group_manipulation(memo, PAIR_PROFILE, ("1", "2")) is None
    assert memo.runs == 576


@pytest.mark.parametrize("rule_name", RULE_NAMES)
def test_a_memo_rule_is_scanned_through_the_memo_on_plain_rows(rule_name, monkeypatch):
    """An output memo's rule is scanned through the memo's kernel, with no
    views: every joint report becomes one entry keyed by its `ranked` rows,
    and a second scan finds them all and runs no kernel."""
    cache = OutputCache()
    memo = cache.callable(rule_name)
    assert find_group_manipulation(memo, PAIR_PROFILE, ("1", "2")) is None
    orders = itertools.permutations(range(4))
    reports = {joint + PAIR_PROFILE.ranked[2:] for joint in itertools.product(orders, repeat=2)}
    assert set(cache._outputs) == {(rule_name, report) for report in reports}
    runs, kernel = [], KERNELS[RULES[rule_name]]
    monkeypatch.setitem(
        KERNELS, RULES[rule_name], lambda inst, ranked: runs.append(1) or kernel(inst, ranked)
    )
    assert find_group_manipulation(memo, PAIR_PROFILE, ("1", "2")) is None
    assert runs == []


def test_a_row_read_outside_the_views_switches_pruning_off():
    """A rule that is not a key of `rules.KERNELS` is scanned with pruning
    off from the start: here agent 1's top object is read through `ranked`,
    and `mps` then runs on a profile rebuilt from `orders`, so that one
    read, which does not decide the output, prunes nothing."""

    def rebuilt(profile):
        next(iter(profile.ranked[0]))
        return mps(PreferenceProfile(profile.instance, profile.orders))

    rule = CountedRule(rebuilt)
    assert find_group_manipulation(rule, PAIR_PROFILE, ("1", "2")) is None
    assert rule.runs == 576


def read_another_way(rule_name, profile):
    """`rule_name` three ways that read a report other than through its
    `ranked` view: on a profile rebuilt from `orders`, through a cold
    output memo and through a memo that already holds the truthful outcome.
    The first and the last read no entry through the views at all."""
    rule, warm = RULES[rule_name], OutputCache()
    warm.output(rule_name, profile)
    return {
        "rebuilt": lambda p: rule(PreferenceProfile(p.instance, p.orders)),
        "cold memo": OutputCache().callable(rule_name),
        "warm memo": warm.callable(rule_name),
    }


#: Profiles where `ops` has a witness of agent 1 for every individual
#: notion (3x6 c=2), and one for sd and one for the pair {1, 2} (4x4 c=1).
OTHER_WAY_PROFILES = (seeded_profile(SIX_OBJECTS.instance, 1), seeded_profile(FOUR_BY_FOUR, 20))


@pytest.mark.parametrize("way", ("rebuilt", "cold memo", "warm memo"))
def test_reads_outside_the_views_find_the_oracle_witness(way):
    """A rule that reads the report other than through the views may read
    no entry there and still depend on it: the scan must run every report,
    not end after the truthful run, and find the oracle's first witness."""
    memo = OutputCache().callable("ops")
    witnesses = 0
    for profile in OTHER_WAY_PROFILES:
        rule = read_another_way("ops", profile)[way]
        for finder, kind, improves in INDIVIDUAL.values():
            expected = brute_force_witness(memo, profile, ("1",), improves)
            assert_same_witness(finder(rule, profile, "1"), expected, kind, ("1",))
            witnesses += expected is not None
    profile, improves = OTHER_WAY_PROFILES[1], INDIVIDUAL["weak-sd"][2]
    expected = brute_force_witness(memo, profile, ("1", "2"), improves)
    found = find_group_manipulation(read_another_way("ops", profile)[way], profile, ("1", "2"))
    assert_same_witness(found, expected, ManipulationKind.STRICT_SD, ("1", "2"))
    assert witnesses + (expected is not None) == 5


def test_scan_reads_no_fraction_of_an_outcome():
    """Outcomes are judged on their integer view: the scan builds no matrix."""
    outcomes = []

    def kept(profile):
        outcomes.append(mps(profile))
        return outcomes[-1]

    assert find_weak_sd_manipulation(kept, SIX_OBJECTS, "1") is None
    assert len(outcomes) > 1
    assert not any("matrix" in vars(outcome) for outcome in outcomes)
    found = find_dl_manipulation(kept, STAGGERED, "1")
    assert "matrix" not in vars(found.manipulated) and "matrix" not in vars(found.truthful)


def test_sd_dominates_matches_name_keyed_oracle(cache):
    """Every ordered pair of the five rules' outputs on every SHUFFLED profile."""
    dominated = 0
    for profile in all_profiles(SHUFFLED):
        outputs = [cache.output(rule_name, profile) for rule_name in RULE_NAMES]
        for q, p in itertools.product(outputs, repeat=2):
            expected = name_keyed_sd_dominates(q, p, profile)
            assert sd_dominates(q, p, profile) == expected
            dominated += expected
    assert dominated == EXPECTED_SD_DOMINATED_PAIRS


# --------------------------------------------------------------------------
# Integer row comparisons against Fraction ones
# --------------------------------------------------------------------------

ONE_AGENT = make_profile([("a", "b", "c")], quota=3)
amounts = st.fractions(min_value=0, max_value=1, max_denominator=12)


@st.composite
def row_pairs(draw):
    """A truthful row and an outcome row, often one small transfer apart so
    that dominance and equality are drawn as well as incomparability."""
    truth = [draw(amounts) for _ in range(3)]
    if draw(st.booleans()):
        return truth, [draw(amounts) for _ in range(3)]
    alt = list(truth)
    giver, taker = draw(st.permutations(range(3)))[:2]
    moved = draw(amounts) * draw(st.sampled_from([0, 1, F(1, 7), F(5, 11)]))
    alt[giver] -= moved
    alt[taker] += moved
    return truth, alt


@settings(max_examples=120, deadline=None)
@given(row_pairs())
def test_scan_verdicts_equal_fraction_comparisons(rows):
    """The scan compares numerators cross-multiplied by the other row's
    common denominator; its verdicts equal the brute-force oracle's
    improvement tests on the Fraction rows, whatever the two denominators."""
    truth, alt = (RandomAssignment(ONE_AGENT.instance, (tuple(row),)) for row in rows)
    rule = lambda p: truth if p == ONE_AGENT else alt  # noqa: E731
    order = ONE_AGENT.orders[0]
    a, t = alt.allocation("1"), truth.allocation("1")
    for finder, _, improves in INDIVIDUAL.values():
        found = finder(rule, ONE_AGENT, "1") is not None
        assert found == improves(a, t, order), finder.__name__


# --------------------------------------------------------------------------
# The trie against brute force on random kernels
# --------------------------------------------------------------------------


class DecisionKernel:
    """A kernel whose reads follow a random decision tree over what it has
    read so far: at each node it stops, or reads the next entry of a row of
    `ranked` that it has not read to the end, mostly one of the rows
    `focus`.  Where it stops, it returns an outcome drawn from what it
    read, mostly the one drawn from `seed` alone, so that a witness is rare
    and the scan judges many runs first.  Every choice is seeded by `seed`
    and the (row, column) pairs read, so the kernel is deterministic and
    reads the report only as the views see it."""

    def __init__(self, seed, stop, focus):
        self.seed, self.stop, self.focus, self.nodes = seed, stop, focus, {}
        self.runs = 0

    def node(self, seen, instance):
        """(row to read next, None) or (None, outcome) at the node `seen`."""
        if seen not in self.nodes:
            rng = random.Random(f"{self.seed}:{seen}")
            n, m = instance.num_agents, instance.num_objects
            unread = [i for i in range(n) if sum(r == i for r, _ in seen) < m]
            if unread and rng.random() >= self.stop:
                focused = [i for i in unread if i in self.focus]
                if not focused or rng.random() < 0.2:
                    focused = unread
                self.nodes[seen] = rng.choice(focused), None
            else:
                base = random.Random(self.seed)
                if rng.random() < 0.15:
                    base = rng
                rows = [[base.randrange(3) for _ in range(m)] for _ in range(n)]
                self.nodes[seen] = None, (rows, base.randrange(1, 4))
        return self.nodes[seen]

    def __call__(self, instance, ranked):
        self.runs += 1
        rows, seen = [iter(row) for row in ranked], ()
        while True:
            i, outcome = self.node(seen, instance)
            if outcome is not None:
                return outcome
            seen += ((i, next(rows[i])),)


#: (instance, coalition) of each random kernel scan.
KERNEL_SCANS = (
    (THREE_BY_THREE, ("1",)),
    (THREE_BY_THREE, ("3",)),
    (TWO_BY_FOUR, ("2",)),
    (FOUR_BY_FOUR, ("2",)),
    (THREE_BY_THREE, ("1", "2")),
    (TWO_BY_FOUR, ("1", "2")),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    stop=st.sampled_from([0.02, 0.1, 0.3]),
    scan=st.sampled_from(KERNEL_SCANS),
    data=st.data(),
)
def test_pruned_scans_of_random_kernels_match_brute_force(seed, stop, scan, data):
    """The trie's soundness beyond the five rules: a kernel may read any
    row to any depth, in any interleaving, as its reads so far decide."""
    instance, coalition = scan
    order = st.permutations(instance.objects).map(tuple)
    profile = PreferenceProfile(instance, tuple(data.draw(order) for _ in instance.agents))
    kernel = DecisionKernel(seed, stop, {instance.agent_index(a) for a in coalition})

    def rule(p):
        return RandomAssignment.from_numerators(p.instance, *kernel(p.instance, p.ranked))

    kinds = INDIVIDUAL.values() if len(coalition) == 1 else [
        (find_group_manipulation, ManipulationKind.STRICT_SD, INDIVIDUAL["weak-sd"][2])
    ]
    who = coalition[0] if len(coalition) == 1 else coalition
    KERNELS[rule] = kernel
    try:
        for finder, kind, improves in kinds:
            expected = brute_force_witness(rule, profile, coalition, improves)
            kernel.runs = 0
            assert_same_witness(finder(rule, profile, who), expected, kind, coalition)
            assert kernel.runs <= math.factorial(instance.num_objects) ** len(coalition)
    finally:
        del KERNELS[rule]
