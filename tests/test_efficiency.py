"""SD-efficiency, ex-post efficiency, unanimity and lottery decomposition."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mudra.efficiency import (
    _trade_along,
    _trade_cycle,
    decompose_lottery,
    enumerate_discrete,
    is_ex_post_efficient,
    is_sd_efficient,
    perfect_assignment,
    sd_dominates,
    sd_efficient_discrete,
)
from mudra.harness import RULES, canonical_instance, check_rule_property, enumerate_profiles
from mudra.model import (
    DiscreteAssignment,
    GuardExceeded,
    Instance,
    PreferenceProfile,
    RandomAssignment,
    discrete_to_random,
    validate_assignment,
)
from mudra.ratlp import convex_membership, solve
from mudra.rules import mps, ops, random_priority, uniform
from oracles import make_profile

F = Fraction


FIG_PROFILE = make_profile([("o1", "o2", "o3", "o4"), ("o3", "o2", "o4", "o1")])
FIG_MPS = RandomAssignment(
    FIG_PROFILE.instance,
    (
        (F(7, 8), F(1, 2), F(1, 4), F(3, 8)),
        (F(1, 8), F(1, 2), F(3, 4), F(5, 8)),
    ),
)


class TestPerfectAssignment:
    def test_disjoint_tops(self):
        profile = make_profile([("o1", "o2", "o3", "o4"), ("o3", "o4", "o1", "o2")])
        perfect = perfect_assignment(profile)
        assert perfect.owners == ("1", "1", "2", "2")

    def test_intersecting_tops(self):
        profile = make_profile([("o1", "o2", "o3", "o4"), ("o2", "o1", "o3", "o4")])
        assert perfect_assignment(profile) is None

    def test_single_agent(self):
        profile = make_profile([("o1", "o2")], quota=2)
        assert perfect_assignment(profile).owners == ("1", "1")


class TestSdDominates:
    def test_strictly_better_for_both_agents(self):
        q = RandomAssignment(
            FIG_PROFILE.instance,
            ((F(1), F(1), F(0), F(0)), (F(0), F(0), F(1), F(1))),
        )
        worse = RandomAssignment(
            FIG_PROFILE.instance,
            ((F(0), F(1), F(1), F(0)), (F(1), F(0), F(0), F(1))),
        )
        assert sd_dominates(q, worse, FIG_PROFILE)
        assert not sd_dominates(worse, q, FIG_PROFILE)

    def test_crossing_bundles_do_not_dominate(self):
        # {o1,o2}/{o3,o4} vs {o1,o4}/{o2,o3}: agent 2 trades o4 for the
        # better o2, so neither assignment dominates the other
        q = RandomAssignment(
            FIG_PROFILE.instance,
            ((F(1), F(1), F(0), F(0)), (F(0), F(0), F(1), F(1))),
        )
        p = RandomAssignment(
            FIG_PROFILE.instance,
            ((F(1), F(0), F(0), F(1)), (F(0), F(1), F(1), F(0))),
        )
        assert not sd_dominates(q, p, FIG_PROFILE)
        assert not sd_dominates(p, q, FIG_PROFILE)

    def test_no_self_domination(self):
        p = uniform(FIG_PROFILE.instance)
        assert not sd_dominates(p, p, FIG_PROFILE)


class TestIsSdEfficient:
    def test_ops_outcome_on_staggered_profile(self):
        profile = make_profile([("a", "b", "c", "d"), ("b", "c", "a", "d")])
        p = RandomAssignment(
            profile.instance,
            ((F(1), F(0), F(1, 2), F(1, 2)), (F(0), F(1), F(1, 2), F(1, 2))),
        )
        assert is_sd_efficient(p, profile).holds

    def test_all_halves_is_dominated_when_tails_oppose(self):
        profile = make_profile([("o1", "o2", "o3", "o4"), ("o2", "o1", "o4", "o3")])
        verdict = is_sd_efficient(uniform(profile.instance), profile)
        assert not verdict.holds
        # the certificate must itself be feasible and re-verify
        assert validate_assignment(verdict.dominator).ok
        assert sd_dominates(verdict.dominator, uniform(profile.instance), profile)

    def test_perfect_is_efficient(self):
        profile = make_profile([("o1", "o2", "o3", "o4"), ("o3", "o4", "o1", "o2")])
        p = discrete_to_random(perfect_assignment(profile))
        assert is_sd_efficient(p, profile).holds

    def test_relaxed_rejected(self):
        inst = Instance(agents=("1", "2"), objects=("o1", "o2", "o3"), quota=2)
        profile = PreferenceProfile(
            inst, (("o1", "o2", "o3"), ("o3", "o2", "o1"))
        )
        p = RandomAssignment(
            inst,
            ((F(1, 2),) * 3, (F(1, 2),) * 3),
        )
        with pytest.raises(ValueError, match="balanced"):
            is_sd_efficient(p, profile)


class TestEnumerateDiscrete:
    def test_balanced_count(self):
        assert len(list(enumerate_discrete(FIG_PROFILE.instance, balanced=True))) == 6

    def test_unbalanced_count(self):
        assert len(list(enumerate_discrete(FIG_PROFILE.instance, balanced=False))) == 16

    def test_single_agent(self):
        inst = Instance(agents=("1",), objects=("o1", "o2"), quota=2)
        assert len(list(enumerate_discrete(inst, balanced=True))) == 1

    def test_cap_refusal(self):
        # 2^20 owner maps exceed the guard of 10^6: refused at the call,
        # before one candidate is built or screened.
        inst = canonical_instance(2, 20)
        with pytest.raises(GuardExceeded, match=r"2\^20"):
            enumerate_discrete(inst, balanced=False)
        # Agent 2 swaps o1 and o2, so the uniform matrix has a trade cycle
        # and goes on to the enumeration.
        swapped = ("o2", "o1", *inst.objects[2:])
        profile = PreferenceProfile(inst, (inst.objects, swapped))
        assert not is_sd_efficient(uniform(inst), profile)
        with pytest.raises(GuardExceeded, match=r"2\^20"):
            is_ex_post_efficient(uniform(inst), profile, allow_unbalanced=True)

    @pytest.mark.parametrize("n, c", [(2, 10), (2, 12), (3, 4), (4, 4), (9, 1), (10, 1)])
    def test_balanced_refusal_is_the_exact_count(self, n, c):
        # m!/(c!)^n balanced assignments, against the guard of 10^6.
        inst = canonical_instance(n, n * c)
        if math.factorial(n * c) // math.factorial(c) ** n > 10**6:
            with pytest.raises(GuardExceeded, match=rf"{n * c}!/\({c}!\)\^{n} balanced"):
                enumerate_discrete(inst)
        else:
            assert len(next(enumerate_discrete(inst)).owners) == n * c

    def test_guard_boundary_answers(self):
        # 2^19 owner maps are within the guard, so the stream starts.
        inst = Instance(tuple("12"), tuple(f"o{j}" for j in range(19)), 10)
        assert next(enumerate_discrete(inst, balanced=False)).owners == ("1",) * 19


class TestIsExPostEfficient:
    def test_interleaved_eating_outcome_fails_balanced(self):
        verdict = is_ex_post_efficient(FIG_MPS, FIG_PROFILE)
        assert not verdict.holds
        assert {d.owners for d in verdict.survivors} == {
            ("1", "1", "2", "2"),
            ("1", "2", "2", "1"),
        }

    def test_interleaved_eating_outcome_enters_hull_with_unbalanced(self):
        verdict = is_ex_post_efficient(FIG_MPS, FIG_PROFILE, allow_unbalanced=True)
        assert verdict.holds
        total = [[F(0)] * 4 for _ in range(2)]
        for weight, d in verdict.decomposition:
            assert weight > 0
            grid = d.grid()
            for i in range(2):
                for j in range(4):
                    total[i][j] += weight * grid[i][j]
        assert sum(w for w, _ in verdict.decomposition) == 1
        assert tuple(tuple(row) for row in total) == FIG_MPS.matrix

    def test_priority_average_is_ex_post_efficient(self):
        verdict = is_ex_post_efficient(random_priority(FIG_PROFILE), FIG_PROFILE)
        assert verdict.holds
        assert sum(w for w, _ in verdict.decomposition) == 1

    def test_perfect_has_unit_weight(self):
        profile = make_profile([("o1", "o2", "o3", "o4"), ("o3", "o4", "o1", "o2")])
        p = discrete_to_random(perfect_assignment(profile))
        verdict = is_ex_post_efficient(p, profile)
        assert verdict.holds
        assert len(verdict.decomposition) == 1
        assert verdict.decomposition[0][0] == 1

    def test_infeasible_input_rejected(self):
        bad = RandomAssignment(
            FIG_PROFILE.instance,
            ((F(1), F(1), F(1), F(1)), (F(1), F(0), F(0), F(0))),
        )
        with pytest.raises(ValueError, match="feasible"):
            is_ex_post_efficient(bad, FIG_PROFILE)


class TestDecomposeLottery:
    def test_all_halves_splits_into_two(self):
        terms = decompose_lottery(uniform(FIG_PROFILE.instance))
        assert len(terms) == 2
        assert all(w == F(1, 2) for w, _ in terms)

    def test_discrete_input_is_its_own_decomposition(self):
        d = DiscreteAssignment(FIG_PROFILE.instance, ("1", "2", "1", "2"))
        terms = decompose_lottery(discrete_to_random(d))
        assert terms == ((F(1), d),)

    def test_support_is_respected(self):
        p = RandomAssignment(
            FIG_PROFILE.instance,
            ((F(1), F(0), F(1, 2), F(1, 2)), (F(0), F(1), F(1, 2), F(1, 2))),
        )
        for _, d in decompose_lottery(p):
            grid = d.grid()
            for i in range(2):
                for j in range(4):
                    if grid[i][j] == 1:
                        assert p.matrix[i][j] > 0


class TestCheckUnanimity:
    """The registry's unanimity checker, reached as the sweep reaches it."""

    def test_eating_rule_returns_the_perfect_assignment(self):
        profile = make_profile([("o1", "o2", "o3", "o4"), ("o3", "o4", "o1", "o2")])
        assert check_rule_property("mps", "unanimity", profile) == (True, None)

    def test_uniform_fails_when_perfect_exists(self):
        profile = make_profile([("o1", "o2", "o3", "o4"), ("o3", "o4", "o1", "o2")])
        holds, certificate = check_rule_property("uniform", "unanimity", profile)
        assert not holds
        assert certificate["perfect"] == ["1", "1", "2", "2"]

    def test_vacuous_without_perfect_assignment(self):
        profile = make_profile([("o1", "o2", "o3", "o4"), ("o2", "o1", "o3", "o4")])
        holds, certificate = check_rule_property("uniform", "unanimity", profile)
        assert holds
        assert "vacuous" in certificate["detail"]


@st.composite
def profiles(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    quota = draw(st.integers(min_value=1, max_value=2))
    objects = tuple(f"o{j}" for j in range(1, n * quota + 1))
    inst = Instance(
        agents=tuple(str(i) for i in range(1, n + 1)),
        objects=objects,
        quota=quota,
    )
    orders = tuple(tuple(draw(st.permutations(objects))) for _ in inst.agents)
    return PreferenceProfile(inst, orders)


@settings(max_examples=50, deadline=None)
@given(profiles())
def test_eating_outcomes_decompose_exactly(profile):
    p = mps(profile)
    terms = decompose_lottery(p)
    assert sum(w for w, _ in terms) == 1
    n, m = profile.instance.num_agents, profile.instance.num_objects
    for i in range(n):
        for j in range(m):
            assert sum(w * d.grid()[i][j] for w, d in terms) == p.matrix[i][j]
    for _, d in terms:
        assert d.is_balanced


def test_every_failing_sweep_output_has_a_replayable_dominator(sweep_data):
    failures = 0
    for record in sweep_data:
        profile = record["profile"]
        for rule_name, entry in record["rules"].items():
            if entry["sd_efficient"]:
                continue
            failures += 1
            output = entry["output"]
            dominator = is_sd_efficient(output, profile).dominator
            assert validate_assignment(dominator).ok, rule_name
            assert sd_dominates(dominator, output, profile), rule_name
    assert failures > 0


# --------------------------------------------------------------------------
# The trade-cycle test against an exact improving-direction program
# --------------------------------------------------------------------------


def lp_sd_efficient(grid, profile):
    """Oracle: no feasible direction from `grid` improves some agent's
    prefix sums without worsening any.

    Asks whether a direction d = u - v (u, v >= 0) exists with zero row and
    column sums, d_ij >= 0 where grid_ij = 0 and d_ij <= 0 where it is 1,
    every proper prefix sum along each agent's order >= 0 (one slack column
    per prefix row), and those prefix sums totalling 1.  `grid` is
    SD-efficient exactly when that system is infeasible.
    """
    inst = profile.instance
    n, m = inst.num_agents, inst.num_objects
    # Column (i, j, 1) is u_ij, absent where grid_ij = 1; (i, j, -1) is v_ij,
    # absent where grid_ij = 0.  One slack column per proper prefix follows.
    parts = [
        (i, j, s)
        for i in range(n) for j in range(m) for s in (1, -1)
        if grid[i][j] != (1 if s == 1 else 0)
    ]
    prefixes = [(i, t) for i in range(n) for t in range(m - 1)]

    def d_sum(cells):
        """The row of sum(d_ij for (i, j) in cells), slacks zero."""
        return [s if (i, j) in cells else 0 for i, j, s in parts] + [0] * len(prefixes)

    rows = [d_sum({(i, j) for i in range(n)}) for j in range(m)]
    rows += [d_sum({(i, j) for j in range(m)}) for i in range(n)]
    for k, (i, t) in enumerate(prefixes):
        row = d_sum({(i, inst.object_index(o)) for o in profile.orders[i][: t + 1]})
        row[len(parts) + k] = -1
        rows.append(row)
    rows.append([0] * len(parts) + [1] * len(prefixes))
    rhs = [0] * (len(rows) - 1) + [1]
    return solve(rows, rhs).status == "infeasible"


def assert_cycle_test_matches_oracle(grid, profile):
    p = RandomAssignment(profile.instance, grid)
    cycle = _trade_cycle(p.numerators, p.denominator, profile)
    assert (cycle is None) == lp_sd_efficient(grid, profile), (
        profile.orders, grid,
    )
    if cycle is None:
        return
    # The epsilon-trade keeps every row and column sum, so it is a
    # certificate for unbalanced row sums too.
    q = _trade_along(p, cycle)
    assert all(0 <= v <= 1 for row in q.matrix for v in row)
    assert [sum(row) for row in q.matrix] == [sum(row) for row in p.matrix]
    assert [sum(col) for col in zip(*q.matrix)] == [1] * profile.instance.num_objects
    assert sd_dominates(q, p, profile)


def assert_domain_matches_oracle(instance, candidates):
    orders = list(itertools.permutations(instance.objects))
    for tail in itertools.product(orders, repeat=instance.num_agents - 1):
        profile = PreferenceProfile(instance, (instance.objects,) + tail)
        for d in candidates:
            assert_cycle_test_matches_oracle(d.grid(), profile)
        for rule in RULES.values():
            assert_cycle_test_matches_oracle(rule(profile).matrix, profile)


def test_cycle_test_matches_oracle_on_two_agent_owner_maps():
    inst = canonical_instance(2, 4)
    assert_domain_matches_oracle(inst, list(enumerate_discrete(inst, balanced=False)))


def test_cycle_test_matches_oracle_on_three_agent_single_unit():
    inst = canonical_instance(3, 3)
    assert_domain_matches_oracle(inst, list(enumerate_discrete(inst, balanced=True)))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.permutations(("o1", "o2", "o3", "o4")), min_size=4, max_size=4))
def test_cycle_test_matches_oracle_on_four_agent_single_unit(orders):
    inst = canonical_instance(4, 4)
    profile = PreferenceProfile(inst, tuple(tuple(o) for o in orders))
    for rule in RULES.values():
        assert_cycle_test_matches_oracle(rule(profile).matrix, profile)


# --------------------------------------------------------------------------
# Ex-post efficiency: SD-efficient inputs by their own decomposition
# --------------------------------------------------------------------------


def assert_decomposition_replays(verdict, p, profile):
    """Positive weights summing to 1 that re-sum to `p` exactly, over terms
    that each pass the trade-cycle screen with their own row sums."""
    assert verdict.holds
    weights = [w for w, _ in verdict.decomposition]
    assert all(w > 0 for w in weights)
    assert sum(weights) == 1
    n, m = profile.instance.num_agents, profile.instance.num_objects
    total = [[F(0)] * m for _ in range(n)]
    for w, d in verdict.decomposition:
        assert _trade_cycle(d.grid(), 1, profile) is None, d.owners
        for i, row in enumerate(d.grid()):
            for j, v in enumerate(row):
                total[i][j] += w * v
    assert tuple(map(tuple, total)) == p.matrix


@pytest.mark.parametrize("n, m", [(2, 4), (3, 3)])
def test_ex_post_agrees_with_the_hull_lp_on_every_profile(n, m):
    inst = canonical_instance(n, m)
    decomposed = 0
    for profile in enumerate_profiles(inst):
        outputs = {rule_name: rule(profile) for rule_name, rule in RULES.items()}
        for balanced in (True, False):
            survivors = list(sd_efficient_discrete(profile, balanced))
            efficient = {d.owners for d in survivors}
            generators = [[v for row in d.grid() for v in row] for d in survivors]
            for rule_name, p in outputs.items():
                verdict = is_ex_post_efficient(p, profile, allow_unbalanced=not balanced)
                # The oracle asks the hull LP whatever `p` is.
                target = [v for row in p.numerators for v in row]
                holds = convex_membership(target, p.denominator, generators).status == "feasible"
                where = (profile.orders, rule_name, balanced)
                assert verdict.holds == holds, where
                if verdict.survivors is None:
                    decomposed += 1
                    assert is_sd_efficient(p, profile), where
                    assert all(d.is_balanced for _, d in verdict.decomposition), where
                else:
                    assert {d.owners for d in verdict.survivors} == efficient, where
                if holds:
                    assert_decomposition_replays(verdict, p, profile)
                    assert {d.owners for _, d in verdict.decomposition} <= efficient, where
    assert decomposed > 0


@st.composite
def sd_efficient_outputs(draw):
    n, m = draw(st.sampled_from([(4, 4), (3, 6), (2, 6)]))
    inst = canonical_instance(n, m)
    orders = tuple(tuple(draw(st.permutations(inst.objects))) for _ in inst.agents)
    profile = PreferenceProfile(inst, orders)
    p = RULES[draw(st.sampled_from(("priority", "rp", "ops", "mps")))](profile)
    assume(is_sd_efficient(p, profile))
    return p, profile


@settings(max_examples=30, deadline=None)
@given(sd_efficient_outputs(), st.booleans())
def test_sd_efficient_outputs_hold_by_their_own_decomposition(drawn, allow_unbalanced):
    p, profile = drawn
    verdict = is_ex_post_efficient(p, profile, allow_unbalanced=allow_unbalanced)
    assert verdict.survivors is None
    assert verdict.decomposition == decompose_lottery(p)
    assert_decomposition_replays(verdict, p, profile)


def near_identical_profiles(inst, count, seed=3, swaps=4):
    """`count` profiles whose orders are each the object tuple after `swaps`
    random adjacent swaps, drawn in turn from `random.Random(seed)`."""
    rng = random.Random(seed)
    profiles = []
    for _ in range(count):
        orders = []
        for _ in inst.agents:
            order = list(inst.objects)
            for _ in range(swaps):
                k = rng.randrange(len(order) - 1)
                order[k], order[k + 1] = order[k + 1], order[k]
            orders.append(tuple(order))
        profiles.append(PreferenceProfile(inst, tuple(orders)))
    return profiles


def sd_efficient_past_the_guards():
    """SD-efficient inputs that the enumeration refuses: past the 400
    survivors of HULL_LIMIT, or, for 2x20, past the 10^6 owner maps of
    DISCRETE_LIMIT."""
    for k, profile in enumerate(near_identical_profiles(canonical_instance(8, 8), 4)):
        yield pytest.param(ops(profile), profile, False, id=f"8x8c1-ops-near-identical-{k}")
    for n, m, allow_unbalanced in ((4, 8, False), (2, 20, True)):
        inst = canonical_instance(n, m)
        profile = PreferenceProfile(inst, (inst.objects,) * n)
        yield pytest.param(
            uniform(inst), profile, allow_unbalanced, id=f"{n}x{m}-uniform-one-order"
        )


@pytest.mark.parametrize("p, profile, allow_unbalanced", sd_efficient_past_the_guards())
def test_sd_efficient_inputs_past_every_guard_hold(p, profile, allow_unbalanced):
    start = time.perf_counter()
    verdict = is_ex_post_efficient(p, profile, allow_unbalanced=allow_unbalanced)
    assert time.perf_counter() - start < 1
    assert verdict.survivors is None
    assert_decomposition_replays(verdict, p, profile)
