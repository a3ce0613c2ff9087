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
from mudra.rules import (
    KERNELS,
    _eating_ceiling,
    mps,
    ops,
    priority_rule,
    random_priority,
    simulate_eating,
    uniform,
)
from mudra.strategy import (
    _BITS,
    ManipulationKind,
    _grown,
    _judged,
    _ruled_out,
    find_dl_manipulation,
    find_group_manipulation,
    find_sd_manipulation,
    find_weak_sd_manipulation,
    first_manipulation,
    individual_scan,
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


def fused_witnesses(rule, profiles):
    """Check that each agent's `individual_scan` holds, for every kind,
    exactly what that kind's finder returns (kind, misreport and both
    outcomes, or None); count each kind's witnesses."""
    witnesses = dict.fromkeys(INDIVIDUAL, 0)
    for profile in profiles:
        for agent in profile.instance.agents:
            scan = individual_scan(rule, profile, agent)
            for name, (finder, kind, _) in INDIVIDUAL.items():
                found = finder(rule, profile, agent)
                assert scan.manipulation(kind, profile) == found, (name, profile.orders, agent)
                witnesses[name] += found is not None
    return witnesses


#: Witnesses per kind of every agent over 2x4 c=2, 3x3 c=1 and 12 seeded
#: 4x4 c=1 profiles, pinned so that agreement on None alone cannot pass.
EXPECTED_FUSED_WITNESSES = {
    "uniform": {"weak-sd": 0, "sd": 0, "dl": 0},
    "priority": {"weak-sd": 0, "sd": 0, "dl": 0},
    "rp": {"weak-sd": 0, "sd": 0, "dl": 0},
    "ops": {"weak-sd": 336, "sd": 426, "dl": 336},
    "mps": {"weak-sd": 0, "sd": 666, "dl": 384},
}


@pytest.mark.parametrize("rule_name", RULE_NAMES)
def test_one_scan_finds_what_the_three_finders_find(rule_name):
    """One scan asked for all three kinds records each kind's first witness
    in canonical order and ends only once all three have one: through the
    rule's own kernel, with the trie, and through an output memo."""
    profiles = (
        *all_profiles(TWO_BY_FOUR),
        *all_profiles(THREE_BY_THREE),
        *(seeded_profile(FOUR_BY_FOUR, seed) for seed in range(12)),
    )
    for rule in (RULES[rule_name], OutputCache().callable(rule_name)):
        assert fused_witnesses(rule, profiles) == EXPECTED_FUSED_WITNESSES[rule_name], rule


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
#: `mps` to 356.  `rp` and the eating rules also stop a run once a member's
#: ceilings rule out strict SD, or none of them is above truth, so it reads
#: less and more reports share its reads: without the `stop`, `rp` makes
#: 240 runs and the eating rules 176 each.
EXPECTED_PAIR_RUNS = {"uniform": 1, "priority": 24, "rp": 46, "ops": 19, "mps": 19}
#: `ops` and `mps` runs of the same scan with the `stop` dropped.
UNSTOPPED_PAIR_RUNS = 176
#: `rp` runs of the same scan with the `stop` dropped.
UNSTOPPED_RP_PAIR_RUNS = 240
#: A seeded 3x6 c=2 profile whose agent 1 has an sd witness under `mps` only.
SD_PROFILE = seeded_profile(SIX_OBJECTS.instance, 5)
#: Rule runs of agent 1's sd scan on SD_PROFILE, of 720 reports, as
#: (with the `stop`, without it): an sd scan stops a run once no ceiling of
#: the member is above truth.  `mps` finds the same witness either way.
EXPECTED_SD_RUNS = {
    "uniform": (1, 1),
    "priority": (30, 30),
    "rp": (30, 186),
    "ops": (20, 267),
    "mps": (144, 323),
}


@pytest.mark.parametrize("rule_name", RULE_NAMES)
def test_pair_scan_runs_the_rule_once_per_distinct_read(rule_name, monkeypatch):
    # The scan runs the kernel that `rules.KERNELS` holds for the rule, so
    # a counting kernel put there counts the runs.
    rule, runs = RULES[rule_name], []
    kernel = KERNELS[rule]
    monkeypatch.setitem(
        KERNELS, rule, lambda inst, ranked, stop=None: runs.append(1) or kernel(inst, ranked, stop)
    )
    assert find_group_manipulation(rule, PAIR_PROFILE, ("1", "2")) is None
    assert len(runs) == EXPECTED_PAIR_RUNS[rule_name]
    if rule in (random_priority, ops, mps):
        # the same kernel, never stopped, runs once per distinct full read
        runs.clear()
        monkeypatch.setitem(
            KERNELS, rule, lambda inst, ranked, stop=None: runs.append(1) or kernel(inst, ranked)
        )
        assert find_group_manipulation(rule, PAIR_PROFILE, ("1", "2")) is None
        unstopped = UNSTOPPED_RP_PAIR_RUNS if rule is random_priority else UNSTOPPED_PAIR_RUNS
        assert len(runs) == unstopped
    # one individual sd scan, with the `stop` and without it
    sd_runs, witnesses = [], []
    for dropped in (False, True):
        runs.clear()
        monkeypatch.setitem(
            KERNELS,
            rule,
            lambda inst, ranked, stop=None, dropped=dropped: runs.append(1)
            or kernel(inst, ranked, None if dropped else stop),
        )
        witnesses.append(find_sd_manipulation(rule, SD_PROFILE, "1"))
        sd_runs.append(len(runs))
    assert tuple(sd_runs) == EXPECTED_SD_RUNS[rule_name]
    assert witnesses[0] == witnesses[1]
    assert (witnesses[0] is not None) == (rule is mps)
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
    run once, and a second scan finds them all and runs no kernel.  The
    memo never hands the scan's `stop` on, so no entry is a stopped run
    that a later lookup must run again."""
    runs, kernel = [], KERNELS[RULES[rule_name]]
    monkeypatch.setitem(
        KERNELS,
        RULES[rule_name],
        lambda inst, ranked, stop=None: runs.append(stop) or kernel(inst, ranked, stop),
    )
    cache = OutputCache()
    memo = cache.callable(rule_name)
    assert find_group_manipulation(memo, PAIR_PROFILE, ("1", "2")) is None
    orders = itertools.permutations(range(4))
    reports = {joint + PAIR_PROFILE.ranked[2:] for joint in itertools.product(orders, repeat=2)}
    assert list(cache._outputs) == [rule_name] and set(cache._outputs[rule_name]) == reports
    assert runs == [None] * len(reports)
    assert find_group_manipulation(memo, PAIR_PROFILE, ("1", "2")) is None
    assert len(runs) == len(reports)


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
@example(([F(1, 3)] * 3, [F(1, 2), F(1, 2), 0]))  # a strict SD gain over 2 on truth over 3
@example(([F(1, 2), 0, F(1, 2)], [F(1, 3), F(2, 3), 0]))  # incomparable, over 3 and 2
def test_scan_verdicts_equal_fraction_comparisons(rows):
    """The rule here runs through `rules.adapted`, whose outcomes are
    reduced, so the truthful row and a misreport's are over unequal
    denominators wherever their reduced forms differ, and the scan compares
    them over the product of the two.  Its verdicts equal the brute-force
    oracle's improvement tests on the Fraction rows, whatever the two
    denominators."""
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
    read so far: at each node it ends, with probability `end`, or reads the
    next entry of a row of `ranked` that it has not read to the end, mostly
    one of the rows `focus`.  Where it ends, it returns an outcome drawn
    from what it read, mostly the one drawn from `seed` alone, so that a
    witness is rare and the scan judges many runs first; or no outcome, if
    the scan's `stop` rules out every kind on that outcome, handed to it as
    exact ceilings: the outcome's own prefix sums.  Every outcome is over
    one denominator, drawn from `seed`, as a kernel's runs on one instance
    are.  Every choice is seeded by `seed` and the (row, column) pairs
    read, so the kernel is deterministic and reads the report only as the
    views see it."""

    def __init__(self, seed, end, focus):
        self.seed, self.end, self.focus, self.nodes = seed, end, focus, {}
        self.runs = 0
        self.scale = random.Random(f"{seed}:scale").randrange(1, 4)

    def node(self, seen, instance):
        """(row to read next, None) or (None, outcome) at the node `seen`."""
        if seen not in self.nodes:
            rng = random.Random(f"{self.seed}:{seen}")
            n, m = instance.num_agents, instance.num_objects
            unread = [i for i in range(n) if sum(r == i for r, _ in seen) < m]
            if unread and rng.random() >= self.end:
                focused = [i for i in unread if i in self.focus]
                if not focused or rng.random() < 0.2:
                    focused = unread
                self.nodes[seen] = rng.choice(focused), None
            else:
                base = random.Random(self.seed)
                if rng.random() < 0.15:
                    base = rng
                rows = [[base.randrange(3) for _ in range(m)] for _ in range(n)]
                self.nodes[seen] = None, (rows, self.scale)
        return self.nodes[seen]

    def __call__(self, instance, ranked, stop=None):
        self.runs += 1
        rows, seen = [iter(row) for row in ranked], ()
        while True:
            i, outcome = self.node(seen, instance)
            if outcome is not None:
                numerators = outcome[0]

                def exact(row, order):
                    return itertools.accumulate(numerators[row][j] for j in order)

                if stop is not None and stop(exact):
                    return None
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
    end=st.sampled_from([0.02, 0.1, 0.3]),
    scan=st.sampled_from(KERNEL_SCANS),
    data=st.data(),
)
def test_pruned_scans_of_random_kernels_match_brute_force(seed, end, scan, data):
    """The trie's soundness beyond the five rules: a kernel may read any
    row to any depth, in any interleaving, as its reads so far decide."""
    instance, coalition = scan
    order = st.permutations(instance.objects).map(tuple)
    profile = PreferenceProfile(instance, tuple(data.draw(order) for _ in instance.agents))
    kernel = DecisionKernel(seed, end, {instance.agent_index(a) for a in coalition})

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


# --------------------------------------------------------------------------
# Runs stopped on ceilings of the members' prefix sums
# --------------------------------------------------------------------------


def ceiling_profiles():
    """Every 3x3 c=1 profile, the 24 of 2x4 c=2 where agent 1 reports the
    object tuple, and seeded 3x6 c=2 and 4x4 c=1 profiles."""
    yield from all_profiles(THREE_BY_THREE)
    yield from two_by_four_profiles()
    yield from (seeded_profile(SIX_OBJECTS.instance, seed) for seed in range(8))
    yield from (seeded_profile(FOUR_BY_FOUR, seed) for seed in range(12))


def settled_after_each_phase(profile, size):
    """The columns out of the market at the end of each phase of the
    eating run, read from its trace."""
    eaten = [F(0)] * profile.instance.num_objects
    settled = []
    for phase in simulate_eating(profile, size).phases:
        for columns in phase.eating:
            for j in columns:
                eaten[j] += phase.end - phase.start
        settled.append({j for j, amount in enumerate(eaten) if amount == 1})
    return settled


@pytest.mark.parametrize("rule_name", ("rp", "ops", "mps"))
def test_ceilings_bound_the_final_prefix_sums(rule_name):
    """Each kernel that asks a stop, handed one that never stops, runs to
    the end; at every point it asks, the ceiling of every row along every
    agent's true order is at least the finished run's prefix sum, both
    numerators over the run's denominator, the one of its unstopped run.
    The ceiling of a whole order is the row's total, the quota over that
    denominator, and on an eating prefix whose objects have all left the
    market it is that sum, final.  `rp` asks after each layer k <= n-3,
    eating after each phase but the last."""
    kernel = KERNELS[RULES[rule_name]]
    asks = 0
    for profile in ceiling_profiles():
        inst, ranked = profile.instance, profile.ranked
        asked = []

        def recording(ceiling):
            asked.append([
                [list(ceiling(i, order)) for order in ranked] for i in range(inst.num_agents)
            ])
            return False

        numerators, scale = kernel(inst, ranked, recording)
        assert scale == kernel(inst, ranked)[1]
        final = [
            [list(itertools.accumulate(numerators[i][j] for j in order)) for order in ranked]
            for i in range(inst.num_agents)
        ]
        if rule_name == "rp":
            assert len(asked) == max(inst.num_agents - 2, 0)
            settled = [set()] * len(asked)
        else:
            size = 1 if rule_name == "ops" else inst.quota
            settled = settled_after_each_phase(profile, size)
            assert len(asked) == len(settled) - 1
        for ceilings, gone in zip(asked, settled):
            for i in range(inst.num_agents):
                for order, caps, sums in zip(ranked, ceilings[i], final[i]):
                    assert all(cap >= total for cap, total in zip(caps, sums)), (profile, i)
                    assert caps[-1] == sums[-1] == inst.quota * scale, (profile, i)
                    length = next((k for k, j in enumerate(order) if j not in gone), len(order))
                    assert caps[:length] == sums[:length], (profile, i)
        asks += len(asked)
    assert asks


#: Witnesses of the stopped scans below, per rule: weak-sd, sd and dl over
#: every agent of the 3x6 c=2 profiles of seeds 2-7, and the pair {1, 2}
#: over the 4x4 c=1 profiles of seeds 100-111, which have none, and 13, 20
#: and 50 (of PAIR_SEEDS), which have one for `rp`, the eating rules and all
#: three; pinned so that agreement on None alone cannot pass.
EXPECTED_STOPPED_WITNESSES = {
    "rp": {"weak-sd": 0, "sd": 0, "dl": 0, "group": 2},
    "ops": {"weak-sd": 5, "sd": 13, "dl": 6, "group": 2},
    "mps": {"weak-sd": 0, "sd": 15, "dl": 8, "group": 2},
}


@pytest.mark.parametrize("rule_name", ("rp", "ops", "mps"))
def test_stopped_scans_match_brute_force(rule_name):
    """The scans of `rp` and the eating rules stop a run once its ceilings
    rule out the kind asked for.  On 3x6 c=2, where `mps` eats two objects
    at once and `rp` picks two, and on 4x4 c=1 pair scans, every first
    witness is still the oracle's."""
    rule, memo = RULES[rule_name], OutputCache().callable(rule_name)
    witnesses = dict.fromkeys(("weak-sd", "sd", "dl", "group"), 0)
    for seed in range(2, 8):
        profile = seeded_profile(SIX_OBJECTS.instance, seed)
        for agent in profile.instance.agents:
            for name in INDIVIDUAL:
                finder, kind, improves = INDIVIDUAL[name]
                expected = brute_force_witness(memo, profile, (agent,), improves)
                assert_same_witness(finder(rule, profile, agent), expected, kind, (agent,))
                witnesses[name] += expected is not None
    improves = INDIVIDUAL["weak-sd"][2]
    for seed in (*range(100, 112), 13, 20, 50):
        profile = seeded_profile(FOUR_BY_FOUR, seed)
        expected = brute_force_witness(memo, profile, ("1", "2"), improves)
        found = find_group_manipulation(rule, profile, ("1", "2"))
        assert_same_witness(found, expected, ManipulationKind.STRICT_SD, ("1", "2"))
        witnesses["group"] += expected is not None
    assert witnesses == EXPECTED_STOPPED_WITNESSES[rule_name]


#: Agents' sd witnesses over every 3x3 c=1 profile, per rule.
EXPECTED_SQUARE_SD_WITNESSES = {"rp": 0, "ops": 72, "mps": 72}


@pytest.mark.parametrize("rule_name", ("rp", "ops", "mps"))
def test_stopped_and_unstopped_scans_find_the_same_witnesses(rule_name, monkeypatch):
    """On every 3x3 c=1 profile, the weak-sd, sd and dl scans of each agent
    and the scan of the pair {1, 2} find the same witnesses whether the
    kernel asks the scan's `stop` or drops it."""
    rule, kernel = RULES[rule_name], KERNELS[RULES[rule_name]]
    profiles = list(all_profiles(THREE_BY_THREE))

    def witnesses():
        found = {"sd": [], "other": []}
        for profile in profiles:
            for agent in THREE_BY_THREE.agents:
                found["other"].append(find_weak_sd_manipulation(rule, profile, agent))
                found["sd"].append(find_sd_manipulation(rule, profile, agent))
                found["other"].append(find_dl_manipulation(rule, profile, agent))
            found["other"].append(find_group_manipulation(rule, profile, ("1", "2")))
        return found

    stopped = witnesses()
    monkeypatch.setitem(KERNELS, rule, lambda inst, ranked, stop=None: kernel(inst, ranked))
    assert witnesses() == stopped
    # no rule has a weak-sd or dl witness on 3x3 c=1: these are pair witnesses
    other, sd = stopped["other"], stopped["sd"]
    assert len(other) - other.count(None) == EXPECTED_PAIR_WITNESSES[rule_name]
    assert len(sd) - sd.count(None) == EXPECTED_SQUARE_SD_WITNESSES[rule_name]


STRICT, DL, NOT_DOMINATED = _BITS.values()
#: One member, row 0, with the true order o0 > o1 > o2 and the truthful row
#: (1/2, 1/2, 0): truthful prefix sums (2, 4, 4) over 4.
ONE_MEMBER = ((0, (2, 4, 4), (0, 1, 2)),)
#: The same member with the truthful row (1/4, 1/4, 1/2): prefix sums
#: (1, 2, 4) over 4, so a final sum can rise above truth on o0 and o1.
LOW_TOP = ((0, (1, 2, 4), (0, 1, 2)),)


def over(scale, truths):
    """`truths`, whose prefix sums are over 4, with each sum over `scale`, a
    multiple of 4: the truthful run's denominator, shared by the ceilings."""
    return tuple((i, tuple(t * scale // 4 for t in sums), order) for i, sums, order in truths)


def eating(*rows, scale, left):
    """A stop's ceiling of an eating run at quota 1 whose rows have eaten
    `rows` so far, over `scale`, with `left` (column -> numerator over
    `scale`) still in the market."""
    return _eating_ceiling([list(row) for row in rows], scale, left)


def test_a_prefix_with_an_object_in_the_market_is_judged_on_its_ceiling():
    """A prefix sum can still grow by what is left of its objects in the
    market, and by no more than the row's room under the quota.  While
    enough of o0 is left, nothing is ruled out, however little of it the
    member has so far; once too little is left, or the member has too
    little room, a prefix with o0 still in the market rules both kinds
    out.  A settled prefix is judged on its final sum, and a later prefix
    with an object in the market on its ceiling."""
    for left in ({0: 4, 1: 4, 2: 4}, {0: 4}, {0: 4, 2: 4}):
        assert not _ruled_out(ONE_MEMBER, STRICT | DL, eating((0, 0, 0), scale=4, left=left))
    # 1/8 of o0 eaten and 1/8 left: at most 1/4 of it, below truth's 1/2
    stop = eating((1, 0, 0), scale=8, left={0: 1, 1: 8})
    assert _ruled_out(over(8, ONE_MEMBER), STRICT | DL, stop)
    # 3/4 of o2 eaten: room for 1/4 more, of o0 or anything else
    assert _ruled_out(ONE_MEMBER, STRICT | DL, eating((0, 0, 3), scale=4, left={0: 4, 1: 4}))
    # o0 gone, o1 in the market: 1/4 of o0 is final and below truth's 1/2
    assert _ruled_out(ONE_MEMBER, STRICT | DL, eating((1, 0, 0), scale=4, left={1: 4, 2: 4}))
    # o0 settled at truth's 1/4, 3/8 of o1 left and room for 5/8: the
    # ceiling 3/4 on o0 and o1 is above truth's 1/2, so every kind is open
    stop = eating((2, 1, 0), scale=8, left={1: 3, 2: 8})
    assert not _ruled_out(over(8, LOW_TOP), STRICT | DL, stop)


def ceilings(*rows):
    """A stop's ceiling that gives each row's ceilings as listed, whatever
    the order."""
    return lambda i, order: iter(rows[i])


def test_an_earlier_final_gain_keeps_dl_open():
    """o0 and o1 are gone: 3/4 of o0 is a gain on truth's 1/2, and the sum
    3/4 over o0 and o1 a loss on truth's 1.  The first settled difference
    is a gain, so DL stays open; the later loss rules out strict SD.  A
    ceiling above truth keeps DL open in the same way, though the final sum
    there may still fall below truth."""
    for scale in (4, 12):
        truths = over(scale, ONE_MEMBER)
        stop = eating((3 * scale // 4, 0, 0), scale=scale, left={2: scale})
        assert _ruled_out(truths, STRICT, stop)
        assert not _ruled_out(truths, DL, stop)
        assert not _ruled_out(truths, STRICT | DL, stop)
    assert not _ruled_out(ONE_MEMBER, DL, ceilings((3, 3, 4)))
    # a first settled loss rules out both
    assert _ruled_out(ONE_MEMBER, DL, eating((1, 3, 0), scale=4, left={2: 4}))
    # a ceiling equal to truth, then one below: no first gain is left for DL
    assert _ruled_out(ONE_MEMBER, DL, ceilings((2, 3, 4)))


def test_one_member_ruling_a_kind_out_rules_it_out_for_the_coalition():
    """Member 2 (row 1) has lost on their settled top object; member 1 has
    o0 wholly in the market, so no kind is ruled out for them: the pair
    gains in no kind.  Had o2 still been in the market, neither would rule
    anything out."""
    pair = (*ONE_MEMBER, (1, (2, 4, 4), (2, 1, 0)))
    rows = (0, 0, 0), (0, 0, 1)
    assert _ruled_out(pair, STRICT | DL, eating(*rows, scale=4, left={0: 4, 1: 4}))
    assert not _ruled_out(pair, STRICT | DL, eating(*rows, scale=4, left={0: 4, 1: 4, 2: 4}))


def test_a_member_with_no_ceiling_above_truth_rules_out_every_kind():
    """A member whose ceilings are all at or below truth ends with every
    final prefix sum at or below truth: truth weakly SD-dominates the row,
    which gains in no kind.  One ceiling above truth keeps
    not-SD-domination open, before or after one below it."""
    every = STRICT | DL | NOT_DOMINATED
    # o0 settled at truth's 1/2, 3/8 of o1 left and room for 3/8: the
    # ceilings equal truth at every prefix
    stop = eating((4, 1, 0), scale=8, left={1: 3, 2: 8})
    for wanted in (NOT_DOMINATED, every):
        assert _ruled_out(over(8, ONE_MEMBER), wanted, stop)
    assert _ruled_out(ONE_MEMBER, NOT_DOMINATED, ceilings((1, 4, 4)))
    # below truth on o0, above it on o0 and o1: only a first gain is out
    assert not _ruled_out(LOW_TOP, NOT_DOMINATED, ceilings((0, 3, 4)))
    assert _ruled_out(LOW_TOP, STRICT | DL, ceilings((0, 3, 4)))
    # above truth on o0, below it on o0 and o1: strict SD is out
    assert not _ruled_out(LOW_TOP, DL | NOT_DOMINATED, ceilings((2, 1, 4)))
    assert _ruled_out(LOW_TOP, STRICT, ceilings((2, 1, 4)))


def compositions(total, parts):
    """Every row of `parts` nonnegative integers that sum to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def oracle_gains(row, scale, truth):
    """The kinds, as `_BITS`, in which `row` over `scale` improves on
    `truth` over 1, both listed along the member's order: read off the
    signs of the prefix sums' differences."""
    gaps = [a - t * scale for a, t in zip(itertools.accumulate(row), itertools.accumulate(truth))]
    first = next((gap for gap in gaps if gap), 0)
    kinds = NOT_DOMINATED if max(gaps) > 0 else 0
    if first > 0:
        kinds |= DL | (STRICT if min(gaps) >= 0 else 0)
    return kinds


@pytest.mark.parametrize("members, m, total, scale", [(1, 3, 3, 1), (1, 3, 2, 2), (2, 2, 2, 1)])
def test_ruled_out_is_sound_and_stops_without_a_ceiling_above_truth(members, m, total, scale):
    """Every coalition of `members` members on `m` objects whose truthful
    rows are integers summing to `total`, under every integer ceiling on
    each prefix sum up to `total` over `scale`, asked for every set of
    kinds, with the truthful prefix sums scaled up to `scale`: when
    `_ruled_out` says stop, no final rows over `scale` under the ceilings,
    each with the truthful total, make every member gain in a kind asked
    for; and it says stop whenever some member has no ceiling above
    truth."""
    order = tuple(range(m))
    cases = []  # (truthful row, ceilings, the final rows under them)
    for truth in compositions(total, m):
        for caps in itertools.product(range(total * scale + 1), repeat=m):
            rows = [
                row
                for row in compositions(total * scale, m)
                if all(sum_ <= cap for sum_, cap in zip(itertools.accumulate(row), caps))
            ]
            cases.append((truth, caps, rows))
    stops = 0
    for coalition in itertools.product(cases, repeat=members):
        truths = tuple(
            (i, tuple(total * scale for total in itertools.accumulate(truth)), order)
            for i, (truth, _, _) in enumerate(coalition)
        )
        stop = ceilings(*(caps for _, caps, _ in coalition))
        none_above = any(
            all(cap <= sum_ * scale for cap, sum_ in zip(caps, itertools.accumulate(truth)))
            for truth, caps, _ in coalition
        )
        for wanted in range(1, 8):
            if not _ruled_out(truths, wanted, stop):
                assert not none_above, (coalition, wanted)
                continue
            stops += 1
            for final in itertools.product(*(rows for _, _, rows in coalition)):
                gained = wanted
                for (truth, _, _), row in zip(coalition, final):
                    gained &= oracle_gains(row, scale, truth)
                assert not gained, (coalition, wanted, final)
    assert stops


@pytest.mark.parametrize("rule_name", RULE_NAMES)
def test_every_pruned_scan_passes_a_stop(rule_name, monkeypatch):
    """Every scan of a bundled rule, the sd scan and the scan for all three
    kinds included, passes a `stop` on every run but the truthful one."""
    rule, kernel = RULES[rule_name], KERNELS[RULES[rule_name]]
    stops = []
    monkeypatch.setitem(
        KERNELS,
        rule,
        lambda inst, ranked, stop=None: stops.append(stop) or kernel(inst, ranked, stop),
    )
    profile = seeded_profile(FOUR_BY_FOUR, 1)
    for scan in (
        lambda: find_sd_manipulation(rule, profile, "1"),
        lambda: individual_scan(rule, profile, "1"),
        lambda: find_weak_sd_manipulation(rule, profile, "1"),
        lambda: find_dl_manipulation(rule, profile, "1"),
        lambda: find_group_manipulation(rule, profile, ("1", "2")),
    ):
        stops.clear()
        scan()
        assert stops[0] is None and None not in stops[1:]


@pytest.mark.parametrize("rule_name", ("rp", "ops", "mps"))
def test_an_sd_scan_stops_a_run_only_when_no_ceiling_is_above_truth(rule_name, monkeypatch):
    """A loss does not rule out not-SD-domination, which a later gain
    gives: at every point a kernel asks, an sd scan's `stop` says yes
    exactly when none of the member's ceilings is above its truthful
    prefix sum, on 3x6 c=2 and 4x4 c=1."""
    rule, kernel = RULES[rule_name], KERNELS[RULES[rule_name]]
    profiles = (
        *(seeded_profile(SIX_OBJECTS.instance, seed) for seed in range(1, 4)),
        *(seeded_profile(FOUR_BY_FOUR, seed) for seed in range(4)),
    )
    answers = []
    for profile in profiles:
        truth = kernel(profile.instance, profile.ranked)[0]
        for agent in ("1", "2"):
            i = profile.instance.agent_index(agent)
            order = profile.ranked[i]
            sums = list(itertools.accumulate(truth[i][j] for j in order))

            def checked(inst, ranked, stop=None):
                if stop is None:
                    return kernel(inst, ranked)

                def asked(ceiling):
                    said = stop(ceiling)
                    none_above = all(cap <= sum_ for cap, sum_ in zip(ceiling(i, order), sums))
                    assert said == none_above, (profile, agent)
                    answers.append(said)
                    return said

                return kernel(inst, ranked, asked)

            monkeypatch.setitem(KERNELS, rule, checked)
            find_sd_manipulation(rule, profile, agent)
    assert True in answers and False in answers
