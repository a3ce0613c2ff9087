"""Exact feasibility of A x = b, x >= 0, and convex hull membership."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudra.harness import RULE_NAMES
from mudra.ratlp import Feasibility, convex_membership, solve
from mudra.serialize import format_rational

F = Fraction


def assert_certificate(rows, rhs, result) -> None:
    """Check whichever certificate `solve` returned; by Farkas's lemma that
    settles the answer without a reference solver."""
    if result.status == "feasible":
        point = result.point
        assert len(point) == len(rows[0]) and all(x >= 0 for x in point)
        for row, b in zip(rows, rhs):
            assert sum(a * x for a, x in zip(row, point)) == b
    else:
        assert result.status == "infeasible"
        y = result.farkas
        assert len(y) == len(rows)
        for column in zip(*rows):
            assert sum(f * a for f, a in zip(y, column)) <= 0
        assert sum(f * b for f, b in zip(y, rhs)) > 0


def fraction_solve(rows, rhs) -> Feasibility:
    """The `Fraction` simplex that `solve` replaced, kept as its oracle: the
    same phase one, row negation and Bland pivots, with each pivot row
    divided through."""
    nvars = len(rows[0]) if rows else 0
    nrows = len(rows)
    signs, tableau, b = [], [], []
    for k, (row, b_k) in enumerate(zip(rows, rhs)):
        sign = -1 if b_k < 0 else 1
        entries = [sign * F(a) for a in row]
        entries += [F(int(i == k)) for i in range(nrows)]
        signs.append(sign)
        tableau.append(entries)
        b.append(sign * F(b_k))
    basis = list(range(nvars, nvars + nrows))
    cost = [sum((row[j] for row in tableau), F(0)) for j in range(nvars)]
    cost += [F(0)] * nrows
    value = -sum(b, F(0))
    while True:
        e = next((j for j, c in enumerate(cost) if c > 0), None)
        if e is None:
            break
        r, best = None, None
        for i, row in enumerate(tableau):
            if row[e] > 0:
                ratio = b[i] / row[e]
                if r is None or ratio < best or (ratio == best and basis[i] < basis[r]):
                    r, best = i, ratio
        prow = tableau[r]
        factor = prow[e]
        if factor != 1:
            tableau[r] = prow = [x / factor for x in prow]
            b[r] /= factor
        for i, row in enumerate(tableau):
            f = row[e]
            if i != r and f:
                tableau[i] = [x - f * y if y else x for x, y in zip(row, prow)]
                b[i] -= f * b[r]
        f = cost[e]
        cost = [x - f * y if y else x for x, y in zip(cost, prow)]
        value += f * b[r]
        basis[r] = e
    if value != 0:
        farkas = tuple((1 + cost[nvars + k]) * signs[k] for k in range(nrows))
        return Feasibility("infeasible", farkas=farkas)
    point = [F(0)] * nvars
    for r, col in enumerate(basis):
        if col < nvars:
            point[col] = b[r]
    return Feasibility("feasible", point=tuple(point))


class TestSolve:
    def test_exact_thirds(self):
        result = solve([[3]], [1])
        assert result.status == "feasible" and result.point == (F(1, 3),)

    def test_infeasible_with_certificate(self):
        rows, rhs = [[1, 1], [1, -1]], [1, 2]  # x = 3/2 forces y = -1/2
        result = solve(rows, rhs)
        assert result.status == "infeasible"
        assert_certificate(rows, rhs, result)

    def test_negative_rhs_feasibility(self):
        # a negative right-hand side is negated before its artificial starts basic
        rows, rhs = [[-1, -1, 0], [1, 0, 1]], [-3, 2]
        result = solve(rows, rhs)
        assert result.status == "feasible"
        assert_certificate(rows, rhs, result)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="right-hand sides"):
            solve([[1, 0]], [1, 1])
        with pytest.raises(ValueError, match="row 1"):
            solve([[1, 0], [1]], [1, 1])

    @pytest.mark.parametrize(
        "rows, rhs, kind",
        [
            ([[1, 0], [1, 0.5]], [1, 1], "float"),
            ([[1, 0], [1, F(1, 2)]], [1, 1], "Fraction"),
            ([[1, 0], [True, 0]], [1, 1], "bool"),
            ([[1, 0], [1, 0]], [1, 1.0], "float"),
            ([[1, 0], [1, 0]], [1, F(1)], "Fraction"),
            ([[1, 0], [1, 0]], [1, False], "bool"),
        ],
        ids=["float", "fraction", "bool", "float-rhs", "fraction-rhs", "bool-rhs"],
    )
    def test_non_integers_rejected(self, rows, rhs, kind):
        with pytest.raises(TypeError, match=f"row 1: expected an int, got {kind}"):
            solve(rows, rhs)

    def test_determinism(self):
        rows, rhs = [[1, 1, 1, 0], [1, -1, 0, 1]], [1, 0]
        assert solve(rows, rhs) == solve(rows, rhs)


small = st.integers(min_value=-3, max_value=3)


@st.composite
def systems(draw):
    """A small integer system A x = b: b = A x0 for some x0 >= 0, b = 0 (a
    degenerate system), or any b."""
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=0, max_value=5))
    rows = draw(st.lists(st.lists(small, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    kind = draw(st.sampled_from(["feasible", "zero", "any"]))
    if kind == "feasible":
        x0 = draw(st.lists(st.integers(min_value=0, max_value=3),
                           min_size=ncols, max_size=ncols))
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    elif kind == "zero":
        rhs = [0] * nrows
    else:
        rhs = draw(st.lists(small, min_size=nrows, max_size=nrows))
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solve_returns_a_valid_certificate(system):
    rows, rhs = system
    assert_certificate(rows, rhs, solve(rows, rhs))


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solve_matches_the_fraction_simplex(system):
    # The same pivots, so the same vertex or Farkas vector, not just a valid one.
    rows, rhs = system
    assert solve(rows, rhs) == fraction_solve(rows, rhs)


@pytest.mark.parametrize(
    "target, generators",
    [([0.1, 0.9], [[1, 0], [0, 1]]), ([1, 1], [[1.0, 0], [0, 1]])],
    ids=["target", "generator"],
)
def test_convex_membership_rejects_floats(target, generators):
    with pytest.raises(TypeError, match="expected an int, got float"):
        convex_membership(target, 2, generators)


class TestConvexMembership:
    TRIANGLE = [[0, 0], [1, 0], [0, 1]]

    def test_interior_point_with_exact_weights(self):
        target, denominator = [1, 1], 4  # (1/4, 1/4)
        res = convex_membership(target, denominator, self.TRIANGLE)
        assert res.status == "feasible"
        assert res.point == (F(1, 2), F(1, 4), F(1, 4))
        for d in range(2):
            assert (
                sum(w * g[d] for w, g in zip(res.point, self.TRIANGLE))
                == F(target[d], denominator)
            )

    def test_outside_point_gets_separating_certificate(self):
        target = [3, 3]  # (3/2, 3/2)
        res = convex_membership(target, 2, self.TRIANGLE)
        assert res.status == "infeasible"
        *coords, offset = res.farkas
        # the functional f.x + offset separates the target from every generator
        for g in self.TRIANGLE:
            assert sum(f * x for f, x in zip(coords, g)) + offset <= 0
        assert sum(f * F(x, 2) for f, x in zip(coords, target)) + offset > 0

    def test_certificates_do_not_depend_on_the_denominator(self):
        # target / denominator is the same point, so the answer is too
        for target in ([1, 1], [1, 0], [3, 3]):
            answers = {convex_membership([k * t for t in target], 2 * k, self.TRIANGLE)
                       for k in (1, 3, 10)}
            assert len(answers) == 1

    def test_vertex_is_in_hull_with_unit_weight(self):
        res = convex_membership([3, 0], 3, self.TRIANGLE)
        assert res.status == "feasible"
        assert res.point == (0, 1, 0)

    def test_single_generator(self):
        assert convex_membership([2], 1, [[2]]).status == "feasible"
        assert convex_membership([4], 2, [[2]]).status == "feasible"
        assert convex_membership([3], 1, [[2]]).status == "infeasible"

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            convex_membership([0], 1, [[0, 1]])


#: SHA-256 of every ex-post answer in `sweep_data`: one line per (profile,
#: rule), its kind and then its entries.  An SD-efficient output builds no
#: survivors, and its line is "terms" and then each term of its lottery
#: decomposition, in order, as weight@owners.  The other outputs reach the
#: hull LP, and their lines are "weights" or "farkas" and then the entries
#: as p/q strings.  The weights are rebuilt from the ex-post verdict: each
#: survivor's weight in the decomposition, or 0 for a survivor it leaves out.
SWEEP_HULL_DIGEST = "3932fda205c699582133f475400b59d7ee80a09a54437fabf4e5eed98f804232"


def test_sweep_hull_answers_are_pinned(sweep_data):
    # A valid certificate is not unique: a change of pivoting or of the
    # decomposition's matching that returns another vertex, Farkas vector
    # or lottery keeps every verdict but fails here.
    digest = hashlib.sha256()
    terms = dict.fromkeys(RULE_NAMES, 0)
    answers = 0
    for record in sweep_data:
        for rule_name in RULE_NAMES:
            verdict = record["rules"][rule_name]["ex_post"]
            if verdict.survivors is None:
                kind = "terms"
                entries = [f"{format_rational(w)}@{'.'.join(d.owners)}"
                           for w, d in verdict.decomposition]
                terms[rule_name] += 1
            elif verdict.holds:
                weights = {d: w for w, d in verdict.decomposition}
                kind = "weights"
                entries = [format_rational(weights.get(d, 0)) for d in verdict.survivors]
            else:
                kind, entries = "farkas", map(format_rational, verdict.farkas)
            digest.update(f"{kind} {' '.join(entries)}\n".encode())
            answers += 1
    assert answers == 2880
    assert terms == {"uniform": 24, "priority": 576, "rp": 504, "ops": 576, "mps": 216}
    assert answers - sum(terms.values()) == 984
    assert digest.hexdigest() == SWEEP_HULL_DIGEST
