"""Core data model: instances, profiles, assignment matrices, permutations."""

import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudra.model import (
    DiscreteAssignment,
    Instance,
    PreferenceProfile,
    RandomAssignment,
    capped_product,
    discrete_to_random,
    order_count,
    permute_agents,
    permute_objects,
    require_balanced,
    validate_assignment,
)
from mudra.efficiency import enumerate_discrete
from mudra.harness import (
    RULES,
    canonical_instance,
    check_rule_property,
    enumerate_profiles,
)
from oracles import oracle_permute_agents, oracle_permute_objects

INST = Instance(agents=("1", "2"), objects=("o1", "o2", "o3", "o4"), quota=2)


def profile(*orders):
    return PreferenceProfile(INST, tuple(tuple(o) for o in orders))


class TestCappedCount:
    def test_exact_up_to_the_limit(self):
        assert capped_product([2, 3, 4], 24) == 24
        assert capped_product([], 5) == 1
        assert capped_product([Fraction(3, 2), Fraction(4, 3)], 5) == 2
        for m, repeat in [(3, 2), (4, 1), (1, 10**6), (0, 3), (5, 0)]:
            assert order_count(m, repeat, 10**6) == math.factorial(m) ** repeat

    def test_stops_at_the_first_product_past_the_limit(self):
        assert capped_product(itertools.count(2), 100) == 120  # 2*3*4*5, never 6
        # (10^6)! and (2!)^(10^6) are never computed: a few factors decide.
        assert 10**6 < order_count(10**6, 1, 10**6) <= math.factorial(10)
        assert order_count(2, 10**6, 10**6) == 2**20


class TestInstance:
    def test_quota_times_agents_must_cover_objects(self):
        # The one admission test: quota = ceil(m/n), whether n divides m or not.
        for m, quota in [(3, 1), (3, 3), (4, 1), (4, 3)]:
            objects = tuple(f"o{j}" for j in range(1, m + 1))
            with pytest.raises(ValueError, match=r"cannot be split .* ceil\(m/n\) = 2"):
                Instance(agents=("1", "2"), objects=objects, quota=quota)

    def test_relaxed_requires_ceiling_quota(self):
        inst = Instance(agents=("1", "2"), objects=("o1", "o2", "o3"), quota=2)
        half = Fraction(1, 2)
        assert validate_assignment(RandomAssignment(inst, ((1, half, 0), (0, half, 1))))
        skewed = validate_assignment(RandomAssignment(inst, ((1, 1, 0), (0, 0, 1))))
        assert skewed.reason == "row 1 sums to 2, expected 3/2"
        with pytest.raises(ValueError, match="ceil"):
            Instance(agents=("1", "2"), objects=("o1", "o2", "o3"), quota=1)

    def test_require_balanced_reads_the_shape(self):
        inst = Instance(agents=("1", "2"), objects=("o1", "o2", "o3", "o4"), quota=2)
        require_balanced(inst, "the uniform rule")
        unbalanced = Instance(agents=("1", "2"), objects=("o1", "o2", "o3"), quota=2)
        with pytest.raises(ValueError, match="balanced instances"):
            require_balanced(unbalanced, "the uniform rule")

    def test_bool_quota_rejected(self):
        # bool is an int; a True quota would be written as `"quota": true`,
        # which the profile loader refuses.
        for quota in (True, False):
            with pytest.raises(ValueError, match="quota must be a positive integer"):
                Instance(agents=("1",), objects=("o1",), quota=quota)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate agent"):
            Instance(agents=("1", "1"), objects=("o1", "o2"), quota=1)
        with pytest.raises(ValueError, match="duplicate object"):
            Instance(agents=("1", "2"), objects=("o1", "o1"), quota=1)

    def test_agent_object_namespaces_disjoint(self):
        with pytest.raises(ValueError, match="disjoint"):
            Instance(agents=("x", "y"), objects=("x", "z"), quota=1)

    def test_indices(self):
        assert INST.agent_index("2") == 1
        assert INST.object_index("o3") == 2
        with pytest.raises(KeyError):
            INST.agent_index("9")

    def test_unknown_object_index_rejected(self):
        with pytest.raises(KeyError, match="unknown object 'o9'"):
            INST.object_index("o9")

    def test_no_agents_rejected(self):
        # Without this check the quota check still refuses, with another message.
        with pytest.raises(ValueError, match="at least one agent"):
            Instance(agents=(), objects=("o1",), quota=1)

    def test_no_objects_rejected(self):
        with pytest.raises(ValueError, match="at least one object"):
            Instance(agents=("1",), objects=(), quota=1)


class TestPreferenceProfile:
    def test_orders_must_be_permutations(self):
        with pytest.raises(ValueError, match="strict order"):
            profile(("o1", "o2", "o3"), ("o1", "o2", "o3", "o4"))
        with pytest.raises(ValueError, match="strict order"):
            profile(("o1", "o1", "o3", "o4"), ("o1", "o2", "o3", "o4"))

    def test_one_order_per_agent(self):
        with pytest.raises(ValueError, match=r"^expected 2 preference orders, got 1$"):
            profile(("o1", "o2", "o3", "o4"))

    def test_with_order_replaces_one_agent(self):
        base = profile(("o1", "o2", "o3", "o4"), ("o4", "o3", "o2", "o1"))
        changed = base.with_order("2", ("o2", "o1", "o3", "o4"))
        assert changed.order_of("1") == base.order_of("1")
        assert changed.order_of("2") == ("o2", "o1", "o3", "o4")
        # the original is untouched
        assert base.order_of("2") == ("o4", "o3", "o2", "o1")

    def test_with_orders_batch(self):
        base = profile(("o1", "o2", "o3", "o4"), ("o4", "o3", "o2", "o1"))
        swapped = base.with_orders(
            {"1": base.order_of("2"), "2": base.order_of("1")}
        )
        assert swapped.orders == (base.orders[1], base.orders[0])

    @pytest.mark.parametrize("reports", [
        {"2": ["o2", "o1", "o3", "o4"]},
        {"2": ("o1", "o2", "o3", "o4"), "1": ("o4", "o3", "o2", "o1")},
        {},
    ])
    def test_with_orders_equals_the_constructed_profile(self, reports):
        base = profile(("o1", "o2", "o3", "o4"), ("o4", "o3", "o2", "o1"))
        changed = base.with_orders(reports)
        orders = tuple(
            tuple(reports.get(agent, order)) for agent, order in zip(INST.agents, base.orders)
        )
        built = PreferenceProfile(INST, orders)
        assert changed == built and hash(changed) == hash(built)
        assert changed.orders == built.orders
        assert changed.ranked == built.ranked

    @pytest.mark.parametrize("bad", [
        ("o1", "o2", "o3"),
        ("o1", "o1", "o3", "o4"),
        ("o1", "o2", "o3", "o4", "o5"),
        ("o1", "o2", "o3", "x"),
    ])
    def test_with_orders_refuses_a_bad_report_as_the_constructor_does(self, bad):
        base = profile(("o1", "o2", "o3", "o4"), ("o4", "o3", "o2", "o1"))
        with pytest.raises(ValueError) as built:
            PreferenceProfile(INST, (base.orders[0], bad))
        with pytest.raises(ValueError) as reported:
            base.with_orders({"2": bad})
        assert str(reported.value) == str(built.value)
        assert str(built.value) == (
            "preferences of agent '2' are not a strict order over the object set"
        )
        # with two bad reports, the first agent's is named, as by the constructor
        with pytest.raises(ValueError, match="agent '1'"):
            base.with_orders({"2": bad, "1": bad})


class TestRandomAssignment:
    def test_shape_checked_at_construction(self):
        with pytest.raises(ValueError, match="rows"):
            RandomAssignment(INST, ((Fraction(1, 2),) * 4,))
        with pytest.raises(ValueError, match="entries"):
            RandomAssignment(
                INST, ((Fraction(1, 2),) * 3, (Fraction(1, 2),) * 4)
            )

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            RandomAssignment(INST, ((0.5, 0.5, 0.5, 0.5), (0.5, 0.5, 0.5, 0.5)))
        half = Fraction(1, 2)
        with pytest.raises(TypeError, match="floating point"):
            RandomAssignment(INST, ((half, half, half, 0.5), (half,) * 4))

    def test_non_rational_entries_rejected(self):
        half = Fraction(1, 2)
        with pytest.raises(TypeError, match="expected a rational, got str"):
            RandomAssignment(INST, ((half, half, half, "1/2"), (half,) * 4))

    def test_ints_converted_and_fractions_kept(self):
        half = Fraction(1, 2)
        out = RandomAssignment(INST, ((1, 1, 0, 0), (0, 0, half, 1)))
        assert all(type(v) is Fraction for row in out.matrix for v in row)
        assert out.matrix[0] == (1, 1, 0, 0)
        assert out.matrix[1][2] == half

    def test_list_rows_become_tuples(self):
        half = Fraction(1, 2)
        out = RandomAssignment(INST, [[half, half, half, 1], [half, half, half, 0]])
        assert type(out.matrix) is tuple
        assert all(type(row) is tuple for row in out.matrix)
        assert out.matrix == ((half, half, half, 1), (half, half, half, 0))

    def test_a_fraction_matrix_reads_back_as_given(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        matrix = ((half,) * 4, (third, 2 * third, Fraction(1), Fraction(0)))
        out = RandomAssignment(INST, matrix)
        # the stored state is the integer view; `matrix` is built from it when read
        assert vars(out).keys() == {"instance", "denominator", "numerators"}
        assert out.matrix == matrix
        assert (out.denominator, out.numerators) == (6, ((3, 3, 3, 3), (2, 4, 6, 0)))

    def test_integer_view_resums_to_the_matrix(self):
        out = RandomAssignment(INST, (
            (Fraction(1, 6), Fraction(3, 4), Fraction(1, 2), 1),
            (Fraction(5, 6), Fraction(1, 4), Fraction(1, 2), 0),
        ))
        assert out.denominator == 12 == math.lcm(6, 4, 2)
        assert out.numerators == ((2, 9, 6, 12), (10, 3, 6, 0))
        assert tuple(
            tuple(Fraction(v, out.denominator) for v in row) for row in out.numerators
        ) == out.matrix
        assert out.numerators is out.numerators

    def test_from_numerators_reduces_to_the_lcm_of_the_denominators(self):
        out = RandomAssignment.from_numerators(INST, [[2, 4, 6, 12], [10, 8, 6, 0]], 12)
        assert out.matrix == (
            (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), 1),
            (Fraction(5, 6), Fraction(2, 3), Fraction(1, 2), 0),
        )
        assert all(type(v) is Fraction for row in out.matrix for v in row)
        assert (out.denominator, out.numerators) == (6, ((1, 2, 3, 6), (5, 4, 3, 0)))
        # the same view as one computed from the Fractions
        fresh = RandomAssignment(INST, out.matrix)
        assert (fresh.denominator, fresh.numerators) == (out.denominator, out.numerators)
        assert out == fresh
        zeros = RandomAssignment.from_numerators(INST, [[0] * 4] * 2, 7)
        assert (zeros.denominator, zeros.numerators) == (1, ((0,) * 4,) * 2)

    LAZY_ROWS = [[2, 4, 6, 12], [10, 8, 6, 0]]
    BUILT = (
        (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), 1),
        (Fraction(5, 6), Fraction(2, 3), Fraction(1, 2), 0),
    )

    def lazy(self):
        out = RandomAssignment.from_numerators(INST, self.LAZY_ROWS, 12)
        assert "matrix" not in vars(out)
        return out

    @pytest.mark.parametrize("same", [
        lambda a, b: a == b and b == a,
        lambda a, b: hash(a) == hash(b),
        lambda a, b: repr(a) == repr(b),
    ], ids=["eq", "hash", "repr"])
    def test_from_numerators_agrees_with_the_constructor_before_any_read(self, same):
        built = RandomAssignment(INST, self.BUILT)
        assert same(self.lazy(), built)
        other = RandomAssignment(INST, ((Fraction(1, 2),) * 4,) * 2)
        assert not same(self.lazy(), other)

    def test_from_numerators_builds_the_matrix_once_on_first_read(self):
        out = self.lazy()
        matrix = out.matrix
        assert matrix == self.BUILT
        assert all(type(v) is Fraction for row in matrix for v in row)
        assert type(matrix) is tuple and all(type(row) is tuple for row in matrix)
        assert out.matrix is matrix and vars(out)["matrix"] is matrix
        assert not hasattr(out, "no_such_attribute")

    def test_from_numerators_refuses_the_wrong_shape(self):
        with pytest.raises(ValueError, match="matrix has 1 rows, expected 2"):
            RandomAssignment.from_numerators(INST, [[1, 1, 1, 1]], 2)
        with pytest.raises(ValueError, match="row of agent '2' has 3 entries, expected 4"):
            RandomAssignment.from_numerators(INST, [[1, 1, 1, 1], [1, 1, 1]], 2)

    def test_pickle_round_trip_before_and_after_the_matrix_is_read(self):
        built = RandomAssignment(INST, self.BUILT)
        for out in (self.lazy(), built):
            copy = pickle.loads(pickle.dumps(out))
            assert copy == built and hash(copy) == hash(built)
            assert (copy.denominator, copy.numerators) == (6, ((1, 2, 3, 6), (5, 4, 3, 0)))
        read = self.lazy()
        read.matrix
        assert pickle.loads(pickle.dumps(read)).matrix == self.BUILT

    def test_validate_flags_bad_column_then_row(self):
        half = Fraction(1, 2)
        ok = RandomAssignment(INST, ((half,) * 4, (half,) * 4))
        assert validate_assignment(ok).ok
        bad_col = RandomAssignment(
            INST,
            ((Fraction(1), half, half, Fraction(0)), (half, half, half, half)),
        )
        res = validate_assignment(bad_col)
        assert not res.ok and "column" in res.reason

    def test_allocation_round_trip(self):
        half = Fraction(1, 2)
        p = RandomAssignment(INST, ((Fraction(1), Fraction(0), half, half),
                                    (Fraction(0), Fraction(1), half, half)))
        assert p.allocation("1") == {
            "o1": 1, "o2": 0, "o3": half, "o4": half,
        }
        assert p.entry("2", "o2") == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.fractions(min_value=0, max_value=1, max_denominator=30) | st.integers(0, 1),
    min_size=8, max_size=8,
), st.integers(min_value=1, max_value=12))
def test_integer_view_is_the_matrix_over_the_lcm_of_its_denominators(entries, k):
    out = RandomAssignment(INST, (entries[:4], entries[4:]))
    assert out.denominator == math.lcm(*(Fraction(v).denominator for v in entries))
    for row, numerators in zip(out.matrix, out.numerators):
        for value, numerator in zip(row, numerators):
            assert type(numerator) is int
            assert Fraction(numerator, out.denominator) == value
    # the form is canonical: the same rows at k times the denominator reduce to it
    scaled = RandomAssignment.from_numerators(
        INST, [[v * k for v in row] for row in out.numerators], out.denominator * k
    )
    assert scaled == out and hash(scaled) == hash(out) and repr(scaled) == repr(out)
    assert "matrix" not in vars(scaled)


class TestDiscreteAssignment:
    def test_owner_bookkeeping(self):
        d = DiscreteAssignment(INST, ("1", "1", "2", "2"))
        assert d.owners[INST.object_index("o2")] == "1"
        assert d.bundle_sizes() == {"1": 2, "2": 2}
        assert d.is_balanced

    def test_one_owner_per_object(self):
        with pytest.raises(ValueError, match=r"^expected one owner per object \(4\), got 3$"):
            DiscreteAssignment(INST, ("1", "1", "2"))

    def test_unknown_owner_rejected(self):
        with pytest.raises(ValueError, match="unknown agent"):
            DiscreteAssignment(INST, ("1", "1", "2", "7"))

    def test_unbalanced_does_not_embed(self):
        d = DiscreteAssignment(INST, ("1", "1", "1", "2"))
        assert not d.is_balanced
        with pytest.raises(ValueError, match="unbalanced"):
            discrete_to_random(d)

    def test_embedding_is_zero_one_and_feasible(self):
        d = DiscreteAssignment(INST, ("2", "1", "2", "1"))
        p = discrete_to_random(d)
        assert validate_assignment(p).ok
        assert p.matrix == d.grid()
        assert {v for row in p.matrix for v in row} == {0, 1}


def test_values_built_from_lists_equal_those_built_from_tuples():
    inst = Instance(["1", "2"], ["o1", "o2", "o3", "o4"], 2)
    orders = [["o1", "o2", "o3", "o4"], ["o2", "o1", "o3", "o4"]]
    listed = PreferenceProfile(inst, orders)
    tupled = PreferenceProfile(INST, tuple(map(tuple, orders)))
    owners = DiscreteAssignment(inst, ["1", "2", "1", "2"])
    expected_owners = DiscreteAssignment(INST, ("1", "2", "1", "2"))
    for built, expected in [(inst, INST), (listed, tupled), (owners, expected_owners)]:
        assert built == expected and hash(built) == hash(expected)
    # The rule-output memo keys on the profile, so it must hash.
    verdict = check_rule_property("mps", "sd-efficiency", listed)
    assert verdict == check_rule_property("mps", "sd-efficiency", tupled)


AGENT_PERM = {"1": "2", "2": "1"}
OBJECT_PERM = {"o1": "o2", "o2": "o3", "o3": "o1", "o4": "o4"}


class TestPermutations:
    def test_agent_permutation_on_profile(self):
        base = profile(("o1", "o2", "o3", "o4"), ("o4", "o3", "o2", "o1"))
        moved = permute_agents(base, AGENT_PERM)
        # agent 2's order in the image is the order reported by pi^{-1}(2) = 1
        assert moved.order_of("2") == base.order_of("1")
        assert permute_agents(moved, AGENT_PERM).orders == base.orders

    def test_object_permutation_on_profile(self):
        base = profile(("o1", "o2", "o3", "o4"), ("o4", "o3", "o2", "o1"))
        moved = permute_objects(base, OBJECT_PERM)
        assert moved.order_of("1") == ("o2", "o3", "o1", "o4")

    def test_object_permutation_on_assignment_moves_columns(self):
        half = Fraction(1, 2)
        p = RandomAssignment(INST, ((Fraction(1), Fraction(0), half, half),
                                    (Fraction(0), Fraction(1), half, half)))
        moved = permute_objects(p, OBJECT_PERM)
        # amount of sigma(o) in the image equals amount of o originally
        for agent in INST.agents:
            for obj in INST.objects:
                assert moved.entry(agent, OBJECT_PERM[obj]) == p.entry(agent, obj)

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            permute_agents(profile(("o1", "o2", "o3", "o4"), ("o1", "o2", "o3", "o4")),
                           {"1": "1", "2": "1"})


@st.composite
def random_profiles(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    quota = draw(st.integers(min_value=1, max_value=2))
    inst = Instance(
        agents=tuple(str(i) for i in range(1, n + 1)),
        objects=tuple(f"o{j}" for j in range(1, n * quota + 1)),
        quota=quota,
    )
    orders = tuple(
        tuple(draw(st.permutations(inst.objects))) for _ in inst.agents
    )
    return PreferenceProfile(inst, orders)


@given(random_profiles())
def test_agent_permutation_round_trips(prof):
    agents = prof.instance.agents
    pi = dict(zip(agents, agents[1:] + agents[:1]))
    inverse = {v: k for k, v in pi.items()}
    assert permute_agents(permute_agents(prof, pi), inverse).orders == prof.orders


@given(random_profiles())
def test_object_permutation_round_trips(prof):
    objects = prof.instance.objects
    sigma = dict(zip(objects, objects[1:] + objects[:1]))
    inverse = {v: k for k, v in sigma.items()}
    assert permute_objects(permute_objects(prof, sigma), inverse).orders == prof.orders


# --------------------------------------------------------------------------
# The one relabelling routine against the plain relabellings
# --------------------------------------------------------------------------


def outcome(fn, *args):
    """The value `fn` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def all_maps(labels):
    """Every map of `labels` into itself, bijection or not, then a map with a
    missing key, one with a foreign key and one with a foreign image."""
    for images in itertools.product(labels, repeat=len(labels)):
        yield dict(zip(labels, images))
    yield dict(zip(labels[1:], labels[1:]))
    yield {**dict(zip(labels, labels)), "x": labels[0]}
    yield {**dict(zip(labels, labels)), labels[0]: "x"}


def assert_relabelling_matches_oracles(x, agent_maps, object_maps):
    for new, old, maps in (
        (permute_agents, oracle_permute_agents, agent_maps),
        (permute_objects, oracle_permute_objects, object_maps),
    ):
        for mapping in maps:
            assert outcome(new, x, mapping) == outcome(old, x, mapping), mapping


@pytest.mark.parametrize("shape", [(2, 4, 2), (3, 3, 1)])
def test_relabelling_matches_oracles_exhaustively(shape):
    """Every profile and one rule output per profile (the rules taken in
    turn) under every relabelling; the first profile and every balanced
    discrete assignment also under every non-bijection, which must raise
    the same error."""
    inst = canonical_instance(*shape[:2])
    agent_maps = list(all_maps(inst.agents))
    object_maps = list(all_maps(inst.objects))
    agent_perms = [dict(zip(inst.agents, p)) for p in itertools.permutations(inst.agents)]
    object_perms = [dict(zip(inst.objects, p)) for p in itertools.permutations(inst.objects)]
    rules = list(RULES.values())
    profiles = list(enumerate_profiles(inst))
    for x in [profiles[0]] + [discrete_to_random(d) for d in enumerate_discrete(inst)]:
        assert_relabelling_matches_oracles(x, agent_maps, object_maps)
    for index, prof in enumerate(profiles):
        output = rules[index % len(rules)](prof)
        for x in (prof, output):
            assert_relabelling_matches_oracles(x, agent_perms, object_perms)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.permutations(("o1", "o2", "o3", "o4")), min_size=4, max_size=4),
       st.permutations(("1", "2", "3", "4")), st.permutations(("o1", "o2", "o3", "o4")))
def test_relabelling_matches_oracles_on_single_unit_four(orders, agent_images, object_images):
    inst = canonical_instance(4, 4)
    prof = PreferenceProfile(inst, tuple(tuple(o) for o in orders))
    pi = dict(zip(inst.agents, agent_images))
    sigma = dict(zip(inst.objects, object_images))
    for x in [prof] + [rule(prof) for rule in RULES.values()]:
        assert_relabelling_matches_oracles(x, [pi], [sigma])


def test_relabelling_refuses_other_types():
    for permute in (permute_agents, permute_objects):
        with pytest.raises(TypeError, match="cannot permute"):
            permute(DiscreteAssignment(INST, ("1", "1", "2", "2")), {})
