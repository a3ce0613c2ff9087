"""The checkers on the integer view against plain `Fraction` replays.

Feasibility, both envy notions, SD-dominance, the trade-cycle test, its
dominator and the lottery decomposition compute on each assignment's
integer `numerators` over its `denominator`.  On matrices with mixed
denominators, feasible or not, they must give the verdicts, refusal texts
and certificates of the plain oracles in `tests/oracles.py`.  The one
oracle kept here, `fraction_decompose_lottery`, runs `efficiency`'s
support matching on purpose: it checks the subtraction loop around it.
"""

from dataclasses import astuple
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mudra.efficiency import (
    _balanced_support_assignment,
    _trade_along,
    _trade_cycle,
    decompose_lottery,
    enumerate_discrete,
    is_sd_efficient,
    sd_dominates,
)
from mudra.fairness import is_sd_envy_free, is_weak_sd_envy_free
from mudra.harness import canonical_instance
from mudra.model import (
    DiscreteAssignment,
    PreferenceProfile,
    RandomAssignment,
    validate_assignment,
)
from oracles import (
    fraction_trade_along,
    fraction_validate_assignment,
    name_keyed_sd_dominates,
    oracle_sd_envy,
    oracle_weak_sd_envy,
)

F = Fraction


def fraction_decompose_lottery(p):
    inst = p.instance
    n, m, quota = inst.num_agents, inst.num_objects, inst.quota
    work = [list(row) for row in p.matrix]
    terms = []
    total = Fraction(0)
    while total < 1:
        owner = _balanced_support_assignment(work, n, m, quota)
        weight = min(work[owner[j]][j] for j in range(m))
        for j in range(m):
            work[owner[j]][j] -= weight
        total += weight
        terms.append(
            (weight, DiscreteAssignment(inst, tuple(inst.agents[owner[j]] for j in range(m))))
        )
    return tuple(terms)


# --------------------------------------------------------------------------
# Matrices with mixed denominators, feasible and not
# --------------------------------------------------------------------------

#: Balanced shapes; the unbalanced 2x3 instance comes last.
SHAPES = [(2, 4, 2), (3, 3, 1), (2, 6, 3), (3, 6, 2), (2, 3, 2)]
INSTANCES = {shape: canonical_instance(*shape[:2]) for shape in SHAPES}
DISCRETE = {
    shape: list(enumerate_discrete(inst))
    for shape, inst in INSTANCES.items()
    if inst.num_objects == inst.num_agents * inst.quota
}

amounts = st.fractions(min_value=-1, max_value=2, max_denominator=12)
weights = st.fractions(min_value=F(1, 12), max_value=3, max_denominator=12)


@st.composite
def feasible_matrices(draw, shape):
    """A lottery over balanced discrete assignments with drawn weights; on
    the unbalanced 2x3 instance, rows summing to 3/2 and columns to 1."""
    if shape not in DISCRETE:
        a = draw(st.fractions(min_value=0, max_value=1, max_denominator=6))
        low, high = max(F(0), F(1, 2) - a), min(F(1), F(3, 2) - a)
        b = draw(st.fractions(min_value=low, max_value=high, max_denominator=12))
        row = [a, b, F(3, 2) - a - b]
        return [row, [1 - v for v in row]]
    terms = draw(st.lists(st.sampled_from(DISCRETE[shape]), min_size=1, max_size=4))
    raw = [draw(weights) for _ in terms]
    total = sum(raw)
    n, m = shape[0], shape[1]
    rows = [[F(0)] * m for _ in range(n)]
    for w, d in zip(raw, terms):
        for i, row in enumerate(d.grid()):
            for j, v in enumerate(row):
                rows[i][j] += w / total * v
    return rows


@st.composite
def matrices(draw, shape):
    """A feasible matrix, often broken: a negative entry, an entry above 1,
    a bad column sum, a bad row sum with every column intact, or noise."""
    rows = draw(feasible_matrices(shape))
    n, m = len(rows), len(rows[0])
    i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    j = draw(st.integers(0, m - 1))
    x = draw(st.fractions(min_value=F(1, 12), max_value=1, max_denominator=12))
    fault = draw(st.sampled_from(["none", "none", "negative", "above", "column", "row", "noise"]))
    if fault == "negative":
        rows[i][j] = -x
    elif fault == "above":
        rows[i][j] = 1 + x
    elif fault == "column":
        rows[i][j] += x
    elif fault == "row" and i != k:
        rows[i][j] += x
        rows[k][j] -= x
    elif fault == "noise":
        for row in rows:
            for t in range(m):
                if draw(st.booleans()):
                    row[t] = draw(amounts)
    return RandomAssignment(INSTANCES[shape], tuple(map(tuple, rows)))


@st.composite
def cases(draw):
    """A shape, a profile on it and two matrices drawn independently."""
    shape = draw(st.sampled_from(SHAPES))
    inst = INSTANCES[shape]
    orders = tuple(tuple(draw(st.permutations(inst.objects))) for _ in inst.agents)
    return PreferenceProfile(inst, orders), draw(matrices(shape)), draw(matrices(shape))


def dominance_pairs(p, q, dominators):
    """The drawn pair both ways, a matrix against itself, and each matrix
    against its dominator both ways."""
    pairs = [(p, q), (q, p), (p, p)]
    for x, dominator in dominators.items():
        pairs += [(dominator, x), (x, dominator)]
    return pairs


@settings(max_examples=250, deadline=None)
@given(cases())
def test_checkers_match_the_fraction_oracles(case):
    profile, p, q = case
    inst = profile.instance
    balanced = inst.num_objects == inst.num_agents * inst.quota
    dominators = {}
    for x in (p, q):
        feasible = validate_assignment(x)
        assert feasible == fraction_validate_assignment(x)
        if not balanced:
            continue
        assert astuple(is_sd_envy_free(x, profile)) == oracle_sd_envy(x, profile)
        assert astuple(is_weak_sd_envy_free(x, profile)) == oracle_weak_sd_envy(x, profile)
        if not feasible:
            continue
        terms = decompose_lottery(x)
        assert terms == fraction_decompose_lottery(x)
        assert all(type(w) is F for w, _ in terms)
        # the Fraction matrix with 1 as all of an object is the oracle
        cycle = _trade_cycle(x.numerators, x.denominator, profile)
        assert cycle == _trade_cycle(x.matrix, 1, profile)
        verdict = is_sd_efficient(x, profile)
        assert verdict.holds == (cycle is None)
        if cycle is not None:
            expected = fraction_trade_along(x, cycle).matrix
            assert verdict.dominator.matrix == _trade_along(x, cycle).matrix == expected
            assert all(type(v) is F for row in verdict.dominator.matrix for v in row)
            dominators[x] = verdict.dominator
    for a, b in dominance_pairs(p, q, dominators):
        assert sd_dominates(a, b, profile) == name_keyed_sd_dominates(a, b, profile)
