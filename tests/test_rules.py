"""Assignment rules: golden outcomes, eating-trace invariants, cross-checks.

The micro-step oracle re-enacts the eating process on a fixed time grid,
1/n^m unless told otherwise, and fails if a step would overstep an
exhaustion, so wherever it finishes, the fixed-step replay has hit every
breakpoint exactly and must reproduce the engine's outcome with zero error.
The 1/n^m grid holds every breakpoint of two agents; three or more may need
the grid 1/lcm(1..n)^m (each of the at-most-m phases divides by an eater
count of at most n), which the exactness tests use.
"""

import ast
import contextlib
import hashlib
import inspect
import itertools
import math
import random
import signal
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mudra import rules
from mudra.efficiency import perfect_assignment
from mudra.harness import RULES, OutputCache, canonical_instance, enumerate_profiles
from mudra.model import (
    DiscreteAssignment,
    GuardExceeded,
    Instance,
    PreferenceProfile,
    RandomAssignment,
    validate_assignment,
)
from mudra.order import sd_weakly_dominates
from mudra.rules import (
    KERNELS,
    _top,
    mps,
    mps_trace,
    ops,
    ops_trace,
    priority_rule,
    random_priority,
    serial_dictator,
    simulate_eating,
    uniform,
)
from mudra.serialize import format_rational
from oracles import make_profile

F = Fraction


FIG_PROFILE = make_profile([("o1", "o2", "o3", "o4"), ("o3", "o2", "o4", "o1")])


class TestGoldenOutcomes:
    def test_mps_two_agent_interleaved(self):
        trace = mps_trace(FIG_PROFILE)
        assert trace.assignment.matrix == (
            (F(7, 8), F(1, 2), F(1, 4), F(3, 8)),
            (F(1, 8), F(1, 2), F(3, 4), F(5, 8)),
        )
        assert trace.breakpoints == (F(1, 2), F(3, 4), F(7, 8), F(9, 8))
        # Columns, best first: agent 1 eats o1 and o2, agent 2 eats o3 and o2.
        assert trace.phases[0].eating == ((0, 1), (2, 1))

    def test_trace_and_assignment_build_fractions_on_first_read(self, monkeypatch):
        """A plain `ops` or `mps` call runs its kernel, builds no trace and
        leaves the assignment's `Fraction` matrix unbuilt; only a trace
        holds `Fraction` phase bounds."""
        traces = []
        with monkeypatch.context() as patch:
            patch.setattr(rules, "simulate_eating", lambda *args: traces.append(args))
            outcomes = [ops(FIG_PROFILE), mps(FIG_PROFILE)]
        assert traces == [] and all("matrix" not in vars(p) for p in outcomes)
        assert outcomes[1].numerators == ((7, 4, 2, 3), (1, 4, 6, 5))
        trace = mps_trace(FIG_PROFILE)
        assert len(trace.phases) == 4
        assert all(type(t) is F for ph in trace.phases for t in (ph.start, ph.end))
        assert outcomes[1] == trace.assignment
        assert "matrix" not in vars(outcomes[1])  # `==` builds no matrix

    def test_mps_opposed_tails_gives_all_halves(self):
        profile = make_profile([("o1", "o2", "o3", "o4"), ("o2", "o1", "o4", "o3")])
        assert mps(profile).matrix == ((F(1, 2),) * 4, (F(1, 2),) * 4)

    def test_ops_disjoint_tops_then_shared_tail(self):
        profile = make_profile([("a", "b", "c", "d"), ("b", "c", "a", "d")])
        trace = ops_trace(profile)
        assert trace.assignment.matrix == (
            (F(1), F(0), F(1, 2), F(1, 2)),
            (F(0), F(1), F(1, 2), F(1, 2)),
        )
        # a and b exhaust together at 1, then c and d are shared
        assert trace.breakpoints == (F(1), F(3, 2), F(2))

    def test_identical_preferences_collapse_to_uniform(self):
        order = ("o1", "o2", "o3", "o4")
        profile = make_profile([order, order])
        expected = ((F(1, 2),) * 4, (F(1, 2),) * 4)
        assert mps(profile).matrix == expected
        assert ops(profile).matrix == expected

    def test_single_agent_eats_everything(self):
        profile = make_profile([("o1", "o2")])
        assert mps(profile).matrix == ((F(1), F(1)),)
        assert ops(profile).matrix == ((F(1), F(1)),)


class TestSerialDictatorship:
    def test_first_dictator_takes_top_quota(self):
        picked = serial_dictator(FIG_PROFILE, ("1", "2"))
        assert picked.owners == ("1", "1", "2", "2")

    def test_reversed_priority(self):
        picked = serial_dictator(FIG_PROFILE, ("2", "1"))
        assert picked.owners == ("1", "2", "2", "1")

    def test_priority_rule_uses_instance_agent_order(self):
        assert priority_rule(FIG_PROFILE).matrix == (
            (F(1), F(1), F(0), F(0)),
            (F(0), F(0), F(1), F(1)),
        )

    def test_priority_must_cover_all_agents(self):
        with pytest.raises(ValueError, match="every agent"):
            serial_dictator(FIG_PROFILE, ("1", "1"))

    def test_random_priority_averages_all_orders(self):
        assert random_priority(FIG_PROFILE).matrix == (
            (F(1), F(1, 2), F(0), F(1, 2)),
            (F(0), F(1, 2), F(1), F(1, 2)),
        )

    def test_random_priority_answers_at_eight_agents(self):
        order = tuple(f"o{j}" for j in range(1, 9))
        profile = make_profile([order] * 8, quota=1)
        assert random_priority(profile).matrix == ((F(1, 8),) * 8,) * 8

    def test_random_priority_refuses_large_instances(self):
        # The state bound admits 11 agents at quota 1 and refuses 12; 10 at
        # quota 2 is refused too.  At 200 agents the refusal comes before any
        # state is built, or the call would not return.
        def same_orders(n, quota):
            order = tuple(f"o{j:03d}" for j in range(1, n * quota + 1))
            return make_profile([order] * n, quota=quota)

        assert random_priority(same_orders(11, 1)).matrix == ((F(1, 11),) * 11,) * 11
        for n, quota in ((12, 1), (10, 2), (200, 1)):
            with pytest.raises(GuardExceeded, match=f"rp states of {n} agents"):
                random_priority(same_orders(n, quota))


class TestUniform:
    def test_two_agents(self):
        assert uniform(FIG_PROFILE.instance).matrix == (
            (F(1, 2),) * 4,
            (F(1, 2),) * 4,
        )

    def test_four_agents(self):
        inst = Instance(
            agents=("1", "2", "3", "4"),
            objects=("a", "b", "c", "d"),
            quota=1,
        )
        assert uniform(inst).matrix == ((F(1, 4),) * 4,) * 4


class TestRelaxedInstances:
    RELAXED = make_profile([("o1", "o2", "o3"), ("o2", "o1", "o3")], quota=2)

    def test_eating_rules_accept_leftover_objects(self):
        for rule in (mps, ops):
            out = rule(self.RELAXED)
            assert all(sum(row) == F(3, 2) for row in out.matrix)
            assert all(
                sum(row[j] for row in out.matrix) == 1 for j in range(3)
            )

    def test_mps_relaxed_golden(self):
        # tops {o1,o2} and {o3,o1} overlap only on o1; after o1 exhausts at
        # 1/2 both agents share the leftovers equally
        staggered = make_profile([("o1", "o2", "o3"), ("o3", "o1", "o2")], quota=2)
        assert mps(staggered).matrix == (
            (F(1, 2), F(3, 4), F(1, 4)),
            (F(1, 2), F(1, 4), F(3, 4)),
        )

    def test_other_rules_reject_relaxed(self):
        inst = self.RELAXED.instance
        with pytest.raises(ValueError, match="balanced"):
            uniform(inst)
        with pytest.raises(ValueError, match="balanced"):
            priority_rule(self.RELAXED)
        with pytest.raises(ValueError, match="balanced"):
            random_priority(self.RELAXED)


def test_simulate_eating_rejects_nonpositive_size():
    profile = make_profile([("a", "b"), ("b", "a")])
    for size in (0, -1):
        with pytest.raises(ValueError, match="demand size"):
            simulate_eating(profile, size)


# --------------------------------------------------------------------------
# Trace invariants and the micro-step oracle
# --------------------------------------------------------------------------


def check_trace_invariants(trace, k):
    inst = trace.profile.instance
    assert trace.phases[0].start == 0
    for phase, nxt in zip(trace.phases, trace.phases[1:]):
        assert phase.end == nxt.start
        assert phase.end > phase.start
    eaten_total = dict.fromkeys(inst.objects, F(0))
    acc = [dict.fromkeys(inst.objects, F(0)) for _ in inst.agents]
    for phase in trace.phases:
        available = {o for o in inst.objects if eaten_total[o] < 1}
        take = min(k, len(available))
        eating = [[inst.objects[j] for j in columns] for columns in phase.eating]
        for i, order in enumerate(trace.profile.orders):
            assert eating[i] == [o for o in order if o in available][:take]
        duration = phase.end - phase.start
        counts = Counter(o for s in eating for o in s)
        for o, eaters in counts.items():
            eaten_total[o] += duration * eaters
            assert eaten_total[o] <= 1
        for i in range(inst.num_agents):
            for o in eating[i]:
                acc[i][o] += duration
    assert all(v == 1 for v in eaten_total.values())
    for i, agent in enumerate(inst.agents):
        assert trace.assignment.allocation(agent) == acc[i]


def micro_step_outcome(profile, k, steps=None):
    """Fixed-step replay of the eating process on the time grid 1/`steps`,
    by default 1/n^m."""
    inst = profile.instance
    dt = F(1, steps or inst.num_agents ** inst.num_objects)
    remaining = {o: F(1) for o in inst.objects}
    eaten = [dict.fromkeys(inst.objects, F(0)) for _ in inst.agents]
    while remaining:
        take = min(k, len(remaining))
        demands = [
            [o for o in order if o in remaining][:take] for order in profile.orders
        ]
        counts = Counter(o for picks in demands for o in picks)
        for o, eaters in counts.items():
            assert remaining[o] >= dt * eaters, "fixed step oversteps a breakpoint"
            remaining[o] -= dt * eaters
        for acc, picks in zip(eaten, demands):
            for o in picks:
                acc[o] += dt
        for o in [o for o, left in remaining.items() if left == 0]:
            del remaining[o]
    return tuple(tuple(acc[o] for o in inst.objects) for acc in eaten)


@pytest.mark.parametrize("stride", [37])
def test_eating_engine_matches_micro_step_oracle_on_main_domain(
    main_profiles, stride
):
    for profile in main_profiles[::stride]:
        assert mps(profile).matrix == micro_step_outcome(profile, 2)
        assert ops(profile).matrix == micro_step_outcome(profile, 1)


def test_eating_engine_matches_micro_step_oracle_single_unit():
    profile = make_profile(
        [
            ("a", "b", "c", "d"),
            ("a", "b", "c", "d"),
            ("b", "c", "a", "d"),
            ("b", "c", "a", "d"),
        ],
        quota=1,
    )
    assert mps(profile).matrix == micro_step_outcome(profile, 1)


def test_eating_engine_matches_micro_step_oracle_relaxed():
    profile = make_profile([("o1", "o2", "o3"), ("o3", "o1", "o2")], quota=2)
    assert mps(profile).matrix == micro_step_outcome(profile, 2)
    assert ops(profile).matrix == micro_step_outcome(profile, 1)


@st.composite
def eating_profiles(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    quota = draw(st.integers(min_value=1, max_value=2))
    objects = tuple(f"o{j}" for j in range(1, n * quota + 1))
    inst = Instance(
        agents=tuple(str(i) for i in range(1, n + 1)),
        objects=objects,
        quota=quota,
    )
    orders = tuple(tuple(draw(st.permutations(objects))) for _ in inst.agents)
    return PreferenceProfile(inst, orders)


@settings(max_examples=60, deadline=None)
@given(eating_profiles())
def test_traces_satisfy_eating_invariants(profile):
    check_trace_invariants(mps_trace(profile), profile.instance.quota)
    check_trace_invariants(ops_trace(profile), 1)


@settings(max_examples=60, deadline=None)
@given(eating_profiles())
def test_eating_outputs_are_feasible(profile):
    for rule in (mps, ops):
        assert validate_assignment(rule(profile)).ok


@settings(max_examples=40, deadline=None)
@given(eating_profiles())
def test_ops_equals_mps_at_quota_one(profile):
    if profile.instance.quota == 1:
        assert ops(profile).matrix == mps(profile).matrix


@settings(max_examples=40, deadline=None)
@given(eating_profiles())
def test_mps_weakly_dominates_uniform_share_for_every_agent(profile):
    outcome = mps(profile)
    share = uniform(profile.instance)
    for agent in profile.instance.agents:
        assert sd_weakly_dominates(
            outcome.allocation(agent),
            share.allocation(agent),
            profile.order_of(agent),
        )


@settings(max_examples=40, deadline=None)
@given(eating_profiles())
def test_random_priority_is_feasible_and_anonymous_in_expectation(profile):
    out = random_priority(profile)
    assert validate_assignment(out).ok


# --------------------------------------------------------------------------
# Random priority against the average over all n! priority orders
# --------------------------------------------------------------------------


def average_over_priority_orders(profile):
    """The n! oracle: serial dictatorship averaged over every priority order."""
    inst = profile.instance
    counts = [[0] * inst.num_objects for _ in inst.agents]
    for priority in itertools.permutations(inst.agents):
        for j, owner in enumerate(serial_dictator(profile, priority).owners):
            counts[inst.agent_index(owner)][j] += 1
    orders = math.factorial(inst.num_agents)
    return tuple(tuple(F(v, orders) for v in row) for row in counts)


@pytest.mark.parametrize("n, m, quota, size", [(2, 4, 2, 576), (3, 3, 1, 216)])
def test_random_priority_equals_the_order_average_exhaustively(n, m, quota, size):
    profiles = list(enumerate_profiles(canonical_instance(n, m)))
    assert len(profiles) == size
    for profile in profiles:
        assert random_priority(profile).matrix == average_over_priority_orders(profile)


@pytest.mark.parametrize("rule", RULES.values(), ids=list(RULES))
def test_each_public_rule_equals_its_kernel(rule):
    """The misreport scan runs a rule's `KERNELS` entry on `ranked` rows, and
    every other caller runs the rule: both must give one assignment.  The
    eating rules are also run on unbalanced instances, every 2x3 profile
    and seeded 3x7 ones, and their traces, which reach the eating engine
    through `simulate_eating`, must carry the same assignment."""
    shapes = [(2, 4), (3, 3)] + ([(2, 3)] if rule in (ops, mps) else [])
    profiles = [p for shape in shapes for p in enumerate_profiles(canonical_instance(*shape))]
    if rule in (ops, mps):
        inst, rng = canonical_instance(3, 7), random.Random(37)
        profiles += [
            PreferenceProfile(inst, [rng.sample(inst.objects, 7) for _ in inst.agents])
            for _ in range(30)
        ]
    traced = {ops: ops_trace, mps: mps_trace}.get(rule)
    for profile in profiles:
        inst = profile.instance
        kernel = RandomAssignment.from_numerators(inst, *KERNELS[rule](inst, profile.ranked))
        assert rule(profile) == kernel, profile.orders
        if traced:
            assert traced(profile).assignment == kernel, profile.orders


@st.composite
def priority_profiles(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    quota = draw(st.integers(min_value=1, max_value=2 if n <= 4 else 1))
    objects = tuple(f"o{j}" for j in range(1, n * quota + 1))
    inst = Instance(
        agents=tuple(str(i) for i in range(1, n + 1)),
        objects=objects,
        quota=quota,
    )
    orders = tuple(tuple(draw(st.permutations(objects))) for _ in inst.agents)
    return PreferenceProfile(inst, orders)


@settings(max_examples=40, deadline=None)
@given(priority_profiles())
def test_random_priority_equals_the_order_average(profile):
    assert random_priority(profile).matrix == average_over_priority_orders(profile)


# The n! average of five seeded profiles of each shape below, in sequence,
# one line of row-major entries per profile.  Up to 8! orders per profile
# is too slow to recompute here, so the answers are pinned by digest.
PINNED_SHAPES = ((4, 8, 2), (6, 6, 1), (7, 7, 1), (8, 8, 1))
PINNED_RP_DIGEST = "435b5fc6b419e0e62cfea176c88df90760d6749b1afd4a1dcddd624df473484e"


def test_random_priority_answers_are_pinned_up_to_eight_agents():
    rng = random.Random(2014)
    digest = hashlib.sha256()
    answers = 0
    for n, m, quota in PINNED_SHAPES:
        objects = [f"o{j}" for j in range(1, m + 1)]
        for _ in range(5):
            profile = make_profile([rng.sample(objects, m) for _ in range(n)], quota=quota)
            entries = (v for row in random_priority(profile).matrix for v in row)
            digest.update(f"{' '.join(map(format_rational, entries))}\n".encode())
            answers += 1
    assert answers == 20
    assert digest.hexdigest() == PINNED_RP_DIGEST


# --------------------------------------------------------------------------
# The integer engine on column indices against the name-keyed rules
# --------------------------------------------------------------------------


def named_simulate_eating(profile, size):
    """Oracle: the eating engine keyed by object names, reading `orders`."""
    inst = profile.instance
    remaining = {o: F(1) for o in inst.objects}
    eaten = [dict.fromkeys(inst.objects, F(0)) for _ in inst.agents]
    phases = []
    now = F(0)
    while remaining:
        take = min(size, len(remaining))
        demand = tuple(
            tuple([o for o in order if o in remaining][:take]) for order in profile.orders
        )
        eaters = Counter(o for s in demand for o in s)
        dt = min(remaining[o] / k for o, k in eaters.items())
        for o, k in eaters.items():
            remaining[o] -= dt * k
        for acc, s in zip(eaten, demand):
            for o in s:
                acc[o] += dt
        phases.append((now, now + dt, demand))
        now += dt
        for o in [o for o, left in remaining.items() if left == 0]:
            del remaining[o]
    return tuple(tuple(acc[o] for o in inst.objects) for acc in eaten), tuple(phases)


def named_serial_dictator(profile, priority):
    """Oracle: serial dictatorship over name-keyed `owners` and `taken`."""
    inst = profile.instance
    owners, taken = {}, set()
    for agent in priority:
        picked = 0
        for o in profile.order_of(agent):
            if o not in taken:
                owners[o] = agent
                taken.add(o)
                picked += 1
                if picked == inst.quota:
                    break
    return tuple(owners[o] for o in inst.objects)


def named_perfect_assignment(profile):
    """Oracle: everyone's top quota objects, by slicing name orders."""
    inst = profile.instance
    owners = {}
    for agent, order in zip(inst.agents, profile.orders):
        for obj in order[: inst.quota]:
            if obj in owners:
                return None
            owners[obj] = agent
    return tuple(owners[o] for o in inst.objects)


@contextlib.contextmanager
def deadline(seconds):
    """Fail instead of hanging: an engine whose phases stop exhausting
    objects (a zero-length phase) would loop forever."""

    def expire(signum, frame):
        raise AssertionError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_rules_match_named_oracles(profile):
    inst = profile.instance
    for size in sorted({1, inst.quota}):
        with deadline(5):
            trace = simulate_eating(profile, size)
        matrix, phases = named_simulate_eating(profile, size)
        assert trace.assignment.matrix == matrix
        named = tuple(
            (ph.start, ph.end, tuple(tuple(inst.objects[j] for j in cols) for cols in ph.eating))
            for ph in trace.phases
        )
        assert named == phases
        assert all(type(t) is F for ph in trace.phases for t in (ph.start, ph.end))
    if inst.num_objects != inst.num_agents * inst.quota:
        return
    # Every priority order up to 4 agents; 8 agents have 40,320.
    if inst.num_agents <= 4:
        priorities = itertools.permutations(inst.agents)
    else:
        priorities = (inst.agents, inst.agents[::-1])
    for priority in priorities:
        assert serial_dictator(profile, priority).owners == named_serial_dictator(
            profile, priority
        )
    perfect = perfect_assignment(profile)
    assert (perfect and perfect.owners) == named_perfect_assignment(profile)


@pytest.mark.parametrize("n, m, quota", [(2, 4, 2), (3, 3, 1)])
def test_index_view_rules_match_named_oracles_exhaustively(n, m, quota):
    for profile in enumerate_profiles(canonical_instance(n, m)):
        assert_rules_match_named_oracles(profile)


#: (agents, objects): the balanced shapes, then two unbalanced instances, of
#: 3 objects for 2 agents and of 7 objects for 3 agents.
ENGINE_SHAPES = [(3, 6), (4, 8)] + [(n, n) for n in range(4, 9)] + [(2, 3), (3, 7)]


@st.composite
def engine_profiles(draw):
    inst = canonical_instance(*draw(st.sampled_from(ENGINE_SHAPES)))
    orders = tuple(tuple(draw(st.permutations(inst.objects))) for _ in inst.agents)
    return PreferenceProfile(inst, orders)


# No shrinking: an engine that hangs would spend the whole deadline on every
# shrink step.  The exhaustive test above gives small failing profiles.
@settings(max_examples=80, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(engine_profiles())
def test_index_view_rules_match_named_oracles(profile):
    assert_rules_match_named_oracles(profile)


def widest_phase_length(trace):
    """The most significant bits of any phase length over the least common
    denominator of the trace's breakpoints, without the trailing zero bits
    that a float's exponent would hold.  An engine that holds the lengths
    as integers over one denominator holds them at least this wide, however
    it picks the denominator."""
    scale = math.lcm(*(ph.end.denominator for ph in trace.phases))
    widest = 0
    for ph in trace.phases:
        length = (ph.end - ph.start) * scale
        assert length.denominator == 1
        odd = length.numerator >> (length.numerator & -length.numerator).bit_length() - 1
        widest = max(widest, odd.bit_length())
    return widest


def near_common_order(inst, rng):
    """A profile whose orders each swap a few adjacent objects of one common
    order, so that the eaters crowd the same objects in shifting numbers."""
    orders = []
    for _ in inst.agents:
        order = list(inst.objects)
        for _ in range(rng.randint(1, 8)):
            i = rng.randrange(inst.num_objects - 1)
            order[i], order[i + 1] = order[i + 1], order[i]
        orders.append(tuple(order))
    return PreferenceProfile(inst, tuple(orders))


def test_integer_engine_stays_exact_past_float_precision():
    """On 30x30 profiles near a common order the phase lengths outgrow a
    float's 53-bit mantissa, where a quotient taken through float division
    would be rounded.  (On random 30x30 profiles they stay below 40 bits,
    and on one common order every phase lasts 1/30.)"""
    inst = canonical_instance(30, 30)
    rng = random.Random(2014)
    for _ in range(3):
        orders = tuple(tuple(rng.sample(inst.objects, 30)) for _ in inst.agents)
        assert_rules_match_named_oracles(PreferenceProfile(inst, orders))
    rng = random.Random(2014)
    for _ in range(3):
        profile = near_common_order(inst, rng)
        assert_rules_match_named_oracles(profile)
        assert widest_phase_length(ops_trace(profile)) > 53
    assert widest_phase_length(ops_trace(PreferenceProfile(inst, (inst.objects,) * 30))) == 1


def assert_eating_kernels_exact(profile, micro_step):
    """Each eating kernel's numerators over its denominator are the Fraction
    oracle's matrix (and the micro-step oracle's, if `micro_step`), and the
    denominator takes every breakpoint of the oracle's trace to an integer.
    The engine's quotients are floor divisions, so a denominator too small
    for some breakpoint would round a phase length without a sign."""
    inst = profile.instance
    grid = math.lcm(*range(1, inst.num_agents + 1)) ** inst.num_objects
    oracles = {size: named_simulate_eating(profile, size) for size in {1, inst.quota}}
    if micro_step:
        for size, (matrix, _) in oracles.items():
            assert micro_step_outcome(profile, size, grid) == matrix
    for size, kernel in ((1, rules._ops), (inst.quota, rules._mps)):
        numerators, whole = kernel(inst, profile.ranked)
        matrix, phases = oracles[size]
        assert tuple(tuple(F(v, whole) for v in row) for row in numerators) == matrix
        for _, end, _ in phases:
            assert (whole * end).denominator == 1, (size, end)


#: The exhaustive domains of the exactness test.  On one object among two or
#: three agents a denominator one power of lcm(1..n) short is 1, too small.
#: Elsewhere lcm(1..n)^(m-1) happens to suffice: only an m-th phase could
#: need the last factor, and it shares out the last object, of which every
#: agent gets m/n less what it has eaten, the same amount for all, since all
#: eat at one rate.
EXACT_SHAPES = {"3x3": (3, 3), "2x4": (2, 4), "2x1": (2, 1), "3x1": (3, 1)}


@pytest.mark.parametrize("shape", EXACT_SHAPES)
def test_eating_kernels_are_exact_over_their_denominator(shape):
    for profile in enumerate_profiles(canonical_instance(*EXACT_SHAPES[shape])):
        assert_eating_kernels_exact(profile, micro_step=True)


def test_eating_kernels_are_exact_on_seeded_engine_shapes():
    rng = random.Random(46)
    for n, m in ENGINE_SHAPES:
        inst = canonical_instance(n, m)
        for _ in range(4):
            orders = tuple(tuple(rng.sample(inst.objects, m)) for _ in inst.agents)
            assert_eating_kernels_exact(PreferenceProfile(inst, orders), micro_step=False)


def test_perfect_assignment_with_an_empty_agent_id():
    # "" is a valid agent id, so the owner list marks a free column with None.
    inst = Instance(("", "b"), ("x", "y", "z", "w"), 2)
    for orders, owners in [
        ((("x", "y", "z", "w"), ("z", "w", "x", "y")), ("", "", "b", "b")),
        ((("z", "x", "y", "w"), ("y", "w", "x", "z")), ("", "b", "", "b")),
        ((("x", "y", "z", "w"), ("y", "z", "x", "w")), None),
    ]:
        profile = PreferenceProfile(inst, orders)
        assert named_perfect_assignment(profile) == owners
        perfect = perfect_assignment(profile)
        assert (perfect and perfect.owners) == owners
    assert serial_dictator(profile, ("b", "")).owners == ("", "b", "b", "")


class RecordingOrder(Sequence):
    """A ranked order that records the deepest position read."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        self.deepest = -1

    def __len__(self):
        return len(self.columns)

    def __getitem__(self, k):
        item = self.columns[k]  # raises IndexError past the end, ending iteration
        self.deepest = max(self.deepest, k)
        return item


@pytest.mark.parametrize(
    "available, take, chosen, deepest",
    [
        ({0, 1, 2, 3, 4, 5}, 2, [3, 1], 1),
        ({0, 2, 4}, 2, [4, 0], 3),
        ({5}, 1, [5], 4),
        ({1, 2}, 3, [1, 2], 5),
    ],
)
def test_top_reads_no_further_than_its_last_pick(available, take, chosen, deepest):
    order = RecordingOrder([3, 1, 4, 0, 5, 2])
    assert _top(order, available, take) == chosen
    assert order.deepest == deepest


HALVES = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))


@pytest.mark.parametrize(
    "rule, matrix, deepest",
    [
        pytest.param(ops, HALVES, [0, 0], id="ops"),
        pytest.param(mps, HALVES, [0, 0], id="mps"),
        pytest.param(random_priority, HALVES, [0, 0], id="random_priority"),
        pytest.param(priority_rule, ((1, 0), (0, 1)), [0, -1], id="priority_rule"),
    ],
)
def test_forced_picks_read_no_row(rule, matrix, deepest):
    """Both agents rank a first on 2x2 c=1.  Once a is gone, b is forced:
    the eating rules read no row for the last object, and `rp` none for
    the agent that picks last, so no row is read past its top.  Under
    `priority` agent 2 picks last and its row is not read at all."""
    profile = make_profile([("a", "b"), ("a", "b")], quota=1)
    rows = (RecordingOrder((0, 1)), RecordingOrder((0, 1)))
    profile.__dict__["ranked"] = rows  # `ranked` is a cached property
    assert rule(profile).matrix == matrix
    assert [row.deepest for row in rows] == deepest


SOURCES = Path(__file__).resolve().parents[1] / "src" / "mudra"
RULES_SOURCE = SOURCES / "rules.py"
#: The name-keyed views of a row and of an order.
NAME_KEYED = ("allocation", "order_of")


def order_reads(source, attrs=("orders", "order_of")):
    """Lines where `source` reads one of the attributes `attrs` of anything."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in attrs
    ]


def test_rules_read_orders_only_through_the_ranked_view():
    assert order_reads(RULES_SOURCE.read_text()) == []


HARNESS_SOURCE = SOURCES / "harness.py"
#: All a rule may read of a profile.
PROFILE_READS = ("ranked", "instance")


def profile_misuses(function, param, definitions, checked):
    """(function, line) of every use of the profile `param` in `function`,
    and in each function of `definitions` it passes the profile to, other
    than reading `ranked` or `instance`.  Passing the profile to a class of
    `definitions` stores it (an `EatingTrace` keeps its profile)."""
    name = getattr(function, "name", "<lambda>")
    parents = {
        child: parent for parent in ast.walk(function) for child in ast.iter_child_nodes(parent)
    }
    found = []
    for use in ast.walk(function):
        if not (isinstance(use, ast.Name) and use.id == param):
            continue
        parent = parents[use]
        if isinstance(parent, ast.Attribute) and parent.attr in PROFILE_READS:
            continue
        callee = isinstance(parent, ast.Call) and use in parent.args and definitions.get(
            getattr(parent.func, "id", None)
        )
        if isinstance(callee, ast.ClassDef):
            continue
        if isinstance(callee, ast.FunctionDef):
            position = parent.args.index(use)
            if (callee.name, position) not in checked:
                checked.add((callee.name, position))
                callee_param = callee.args.args[position].arg
                found += profile_misuses(callee, callee_param, definitions, checked)
            continue
        found.append((name, use.lineno))
    return found


def rule_misuses(rules_source, harness_source):
    """`profile_misuses` of each rule behind the `RULES` dict of `harness_source`:
    a lambda there, or a function of `rules_source` that it names."""
    definitions = {
        node.name: node
        for node in ast.parse(rules_source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    (registry,) = [
        node.value
        for node in ast.walk(ast.parse(harness_source))
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "RULES"
    ]
    misuses = {}
    for key, value in zip(registry.keys, registry.values):
        function = value if isinstance(value, ast.Lambda) else definitions[value.id]
        misuses[key.value] = profile_misuses(
            function, function.args.args[0].arg, definitions, set()
        )
    return misuses


def test_every_rule_reads_profiles_only_through_ranked_and_instance():
    """The misreport scan's contract: a rule reads reported orders only
    through `ranked`, or not at all, here and in every function it hands
    the profile to."""
    misuses = rule_misuses(RULES_SOURCE.read_text(), HARNESS_SOURCE.read_text())
    assert misuses == {name: [] for name in ("uniform", "priority", "rp", "ops", "mps")}


def test_the_rule_read_check_sees_an_orders_read():
    rules_source = (
        "class Trace:\n"
        "    pass\n"
        "def good(profile):\n"
        "    return Trace(profile), helper(profile.instance, profile)\n"
        "def helper(inst, p):\n"
        "    return p.ranked, p.orders[0][-1]\n"
        "def leaky(profile):\n"
        "    q = profile\n"
        "    return outside(profile), q\n"
    )
    harness_source = (
        "RULES: dict = {'good': good, 'leaky': leaky, 'lambda': lambda p: p.orders}\n"
    )
    assert rule_misuses(rules_source, harness_source) == {
        "good": [("helper", 6)],
        "leaky": [("leaky", 8), ("leaky", 9)],
        "lambda": [("<lambda>", 1)],
    }


def test_the_order_check_sees_a_read():
    source = "a = p.ranked[0]\nb = p.orders\nc = p.order_of('1')\n"
    assert order_reads(source) == [2, 3]


@pytest.mark.parametrize("module", ["rules", "fairness", "efficiency", "strategy"])
def test_rules_and_checkers_read_rows_and_ranked_orders(module):
    """No name-keyed row or order: matrix rows are read along `ranked`."""
    assert order_reads((SOURCES / f"{module}.py").read_text(), NAME_KEYED) == []


def test_the_name_keyed_check_sees_a_call():
    source = "a = p.matrix[0]\nb = p.allocation('1')\nc = q.order_of('1')\nd = q.orders\n"
    assert order_reads(source, NAME_KEYED) == [2, 3]


def test_ranked_view_is_built_on_first_use_and_cached():
    profile = make_profile([("o2", "o1", "o3", "o4"), ("o4", "o3", "o2", "o1")])
    assert "ranked" not in vars(profile)
    assert profile.ranked == ((1, 0, 2, 3), (3, 2, 1, 0))
    assert profile.ranked is profile.ranked
    assert profile == make_profile([("o2", "o1", "o3", "o4"), ("o4", "o3", "o2", "o1")])


def function_node(source, function):
    """The one definition of `function` in `source`."""
    tree = ast.parse(source)
    (body,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == function]
    return body


def fraction_names_in_loops(source, function):
    """Lines of `function`'s `while` loops that name `Fraction`."""
    body = function_node(source, function)
    return [
        node.lineno
        for loop in ast.walk(body)
        if isinstance(loop, ast.While)
        for node in ast.walk(loop)
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
    ]


def test_eating_loop_names_no_fraction():
    """The engine loop runs on integers; Fractions are built after it."""
    assert fraction_names_in_loops(RULES_SOURCE.read_text(), "_eat") == []


def test_the_fraction_check_sees_a_name():
    source = (
        "def simulate_eating(p):\n"
        "    x = Fraction(0)\n"
        "    while p:\n"
        "        p = Fraction(p)\n"
        "        q = fractions.Fraction(1, 2)\n"
    )
    assert fraction_names_in_loops(source, "simulate_eating") == [4, 5]


#: Every function of the package that may read a `Fraction` matrix: the
#: entry and row accessors, at the edge.  The checkers, the hull LP and the
#: JSON reader and writer, which compute on `numerators` over
#: `denominator`, are not here.
MATRIX_READERS = {("model", "entry"), ("model", "allocation")}


def matrix_readers(module, source):
    """(module, name) of each function of `source` that reads `matrix`; a
    nested function's read counts for it and for each function around it."""
    return {
        (module, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == "matrix" for n in ast.walk(node))
    }


def test_only_the_listed_functions_read_the_fraction_matrix():
    readers = set().union(
        *(matrix_readers(path.stem, path.read_text()) for path in SOURCES.glob("*.py"))
    )
    assert readers == MATRIX_READERS


def test_the_reader_list_sees_methods_and_nested_functions():
    source = (
        "def f(p):\n"
        "    def g():\n"
        "        return p.matrix\n"
        "    return g\n"
        "class A:\n"
        "    def h(self):\n"
        "        return self.matrix[0]\n"
        "    def k(self):\n"
        "        return self.numerators, self.__dict__['matrix']\n"
    )
    assert matrix_readers("m", source) == {("m", "f"), ("m", "g"), ("m", "h")}


#: The names that decide how a rule runs on rows.  Only `rules` reads them,
#: so that `rules.kernel_of` alone picks a rule's kernel and says whether a
#: misreport scan may prune it.
KERNEL_REGISTRY = {"KERNELS", "adapted"}


def kernel_registry_reads(source):
    """The `KERNEL_REGISTRY` names that `source` reads, as a name, an
    attribute or an import, once per read, sorted."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            reads.append(node.id)
        elif isinstance(node, ast.Attribute):
            reads.append(node.attr)
        elif isinstance(node, ast.alias):
            reads.append(node.name)
    return sorted(name for name in reads if name in KERNEL_REGISTRY)


def test_only_rules_reads_the_kernel_registry():
    readers = {path.stem for path in SOURCES.glob("*.py") if kernel_registry_reads(path.read_text())}
    assert readers == {"rules"}


def stop_makers(source):
    """The functions of `source` that pass a `stop` they were not handed: a
    call passes one when an argument is the name `stop` or a keyword `stop`
    other than None, and a function that has a parameter `stop` only passes
    its own on.  Sorted names, once per call."""
    makers = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            function = node
        elif isinstance(node, ast.Call) and function is not None:
            passed = any(isinstance(arg, ast.Name) and arg.id == "stop" for arg in node.args)
            passed |= any(
                keyword.arg == "stop"
                and not (isinstance(keyword.value, ast.Constant) and keyword.value.value is None)
                for keyword in node.keywords
            )
            handed = function.args.args + function.args.kwonlyargs
            if passed and "stop" not in {arg.arg for arg in handed}:
                makers.append(getattr(function, "name", "<lambda>"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(makers)


def never_stop(ceiling):
    raise AssertionError("a kernel that never asks its stop asked it")


def test_every_kernel_takes_a_stop_and_only_the_scan_makes_one():
    """The misreport scan hands every kernel that `rules.kernel_of` returns
    a `stop`, so each must accept one: every value of `KERNELS`, an adapted
    rule's kernel and an output memo's.  The last two never ask it, and the
    memo does not hand it on to the rule's kernel on a miss, since a
    stopped run has no outcome to store.  A kernel that asks it must be
    judged by the scan that made it: `strategy._scan` is the only maker in
    `src/mudra`, and the kernels pass theirs on to the eating loop."""
    memo = OutputCache().callable("ops")
    for rule in (*KERNELS, lambda profile: ops(profile), memo):
        kernel, pruned = rules.kernel_of(rule)
        assert "stop" in inspect.signature(kernel).parameters, rule.__name__
        assert pruned == (rule in KERNELS)
    profile = make_profile([("o1", "o2", "o3"), ("o2", "o1", "o3"), ("o1", "o3", "o2")])
    inst, ranked = profile.instance, profile.ranked
    for rule in (lambda profile: ops(profile), memo):
        numerators, scale = rules.kernel_of(rule)[0](inst, ranked, never_stop)
        assert RandomAssignment.from_numerators(inst, numerators, scale) == ops(profile)
    makers = {
        (path.stem, name) for path in SOURCES.glob("*.py") for name in stop_makers(path.read_text())
    }
    assert makers == {("strategy", "_scan")}


#: Each bundled rule's one denominator on an instance of n agents and m
#: objects: every run of its kernel there returns it, unreduced.
KERNEL_DENOMINATORS = {
    "uniform": lambda n, m: n,
    "priority": lambda n, m: 1,
    "rp": lambda n, m: math.factorial(n),
    "ops": lambda n, m: math.lcm(*range(1, n + 1)) ** m,
    "mps": lambda n, m: math.lcm(*range(1, n + 1)) ** m,
}


def test_every_bundled_kernel_returns_one_denominator_per_instance():
    """The misreport scan compares numerators of the truthful run with
    those of every other run and with the ceilings they hand its stop, so
    every run of a bundled kernel on one instance must return the same
    denominator: on every row of 2x4 c=2 and 3x3 c=1, and on seeded 4x4
    c=1 and 3x6 c=2 profiles."""
    domains = [list(enumerate_profiles(canonical_instance(2, 4)))]
    domains.append(list(enumerate_profiles(canonical_instance(3, 3))))
    rng = random.Random(49)
    for n, m in ((4, 4), (3, 6)):
        inst = canonical_instance(n, m)
        domains.append([
            PreferenceProfile(inst, [rng.sample(inst.objects, m) for _ in inst.agents])
            for _ in range(40)
        ])
    for name, denominator in KERNEL_DENOMINATORS.items():
        kernel = KERNELS[RULES[name]]
        for profiles in domains:
            inst = profiles[0].instance
            scales = {kernel(inst, profile.ranked)[1] for profile in profiles}
            assert scales == {denominator(inst.num_agents, inst.num_objects)}, (name, inst)


def test_the_stop_check_sees_calls_that_make_a_stop():
    source = (
        "def kernel(inst, ranked, stop=None):\n"
        "    return _eat(inst, ranked, 1, stop)\n"
        "def scan(kernel, stop=None):\n"
        "    def inner():\n"
        "        return kernel(0, (), stop=stop)\n"
        "    return kernel(0, (), stop=None), kernel(0, (), stop), inner()\n"
        "f = lambda kernel: kernel(0, (), stop=print)\n"
    )
    assert stop_makers(source) == ["<lambda>", "inner"]


def test_the_registry_check_sees_names_attributes_and_imports():
    source = (
        "from .rules import KERNELS as table\n"
        "from . import rules\n"
        "def f(rule):\n"
        "    return rules.adapted(rule)\n"
        "def g(rule):\n"
        "    return adapted(rule), 'KERNELS', kernel_of(rule)\n"
    )
    assert kernel_registry_reads(source) == ["KERNELS", "adapted", "adapted"]
