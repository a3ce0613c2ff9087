"""The searches in `efficiency` are loops, and they find what the recursive
bodies they replaced found.

The trade-cycle walk and the matching's augmenting paths used to recurse
once per object on the walk, so Python's stack cut them off at about 1,000
objects: a `RecursionError` whose exit code 1 read as "property fails".
The recursive bodies are kept below as oracles; on seeded profiles of
several shapes the loops must return the same cycle and the same matching.
An AST test keeps new recursion out of `src/mudra`.
"""

import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from mudra.cli import main
from mudra.efficiency import (
    _balanced_support_assignment,
    _trade_cycle,
    decompose_lottery,
    sd_dominates,
)
from mudra.harness import RULES, canonical_instance
from mudra.model import DiscreteAssignment, Instance, PreferenceProfile, RandomAssignment
from mudra.serialize import assignment_from_data, profile_from_data

F = Fraction
SOURCES = Path(__file__).resolve().parents[1] / "src" / "mudra"


# --------------------------------------------------------------------------
# Oracles: the recursive bodies
# --------------------------------------------------------------------------


def recursive_trade_cycle(rows, full, profile):
    m = profile.instance.num_objects
    edges = [{} for _ in range(m)]
    for i, (row, ranked) in enumerate(zip(rows, profile.ranked)):
        for t, a in enumerate(ranked):
            if row[a] < full:
                for b in ranked[t + 1:]:
                    if row[b] > 0:
                        edges[a].setdefault(b, i)

    state = [0] * m
    path = []

    def visit(a):
        state[a] = 1
        path.append(a)
        for b in edges[a]:
            if state[b] == 1:
                return path[path.index(b):]
            if state[b] == 0:
                cycle = visit(b)
                if cycle is not None:
                    return cycle
        state[a] = 2
        path.pop()
        return None

    for start in range(m):
        if state[start] == 0:
            cycle = visit(start)
            if cycle is not None:
                return [
                    (edges[a][b], a, b)
                    for a, b in zip(cycle, cycle[1:] + cycle[:1])
                ]
    return None


def recursive_balanced_support_assignment(work, n, m, quota):
    slot_obj = {}
    owner = [-1] * m

    def try_assign(j, seen):
        for i in range(n):
            if work[i][j] > 0:
                for k in range(quota):
                    slot = (i, k)
                    if slot in seen:
                        continue
                    seen.add(slot)
                    if slot not in slot_obj or try_assign(slot_obj[slot], seen):
                        slot_obj[slot] = j
                        owner[j] = i
                        return True
        return False

    for j in range(m):
        if not try_assign(j, set()):
            raise RuntimeError(
                "no balanced assignment on the support; input is not a valid lottery"
            )
    return owner


def matchings(p, match):
    """Every matching `match` picks while `p` is decomposed: the same
    subtraction loop as `decompose_lottery`."""
    inst = p.instance
    work = [list(row) for row in p.numerators]
    found = []
    for _ in range(inst.num_agents * inst.num_objects + 1):
        if not any(map(any, work)):
            return found
        owner = match(work, inst.num_agents, inst.num_objects, inst.quota)
        weight = min(work[owner[j]][j] for j in range(inst.num_objects))
        for j in range(inst.num_objects):
            work[owner[j]][j] -= weight
        found.append(owner)
    raise AssertionError("the decomposition did not end")


# --------------------------------------------------------------------------
# The loops against the oracles
# --------------------------------------------------------------------------

#: (agents, objects, quota), from the table1 domain to 5 x 10.
SHAPES = [(2, 4, 2), (3, 3, 1), (4, 4, 1), (2, 6, 3), (3, 6, 2), (4, 8, 2), (5, 10, 2), (3, 9, 3)]


def random_balanced(inst, rng):
    objects = rng.sample(inst.objects, inst.num_objects)
    owners = {o: inst.agents[t // inst.quota] for t, o in enumerate(objects)}
    return DiscreteAssignment(inst, tuple(owners[o] for o in inst.objects))


def random_lottery(inst, rng):
    """A lottery over one to four balanced discrete assignments."""
    terms = [random_balanced(inst, rng) for _ in range(rng.randint(1, 4))]
    weights = [rng.randint(1, 6) for _ in terms]
    total = sum(weights)
    rows = [[F(0)] * inst.num_objects for _ in inst.agents]
    for w, d in zip(weights, terms):
        for i, row in enumerate(d.grid()):
            for j, v in enumerate(row):
                rows[i][j] += F(w, total) * v
    return RandomAssignment(inst, tuple(map(tuple, rows)))


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_loops_match_the_recursive_oracles(shape):
    inst = canonical_instance(*shape[:2])
    rng = random.Random(sum(shape))
    cycles = 0
    for _ in range(30):
        profile = PreferenceProfile(
            inst, tuple(tuple(rng.sample(inst.objects, len(inst.objects))) for _ in inst.agents)
        )
        outputs = [rule(profile) for rule in RULES.values()] + [random_lottery(inst, rng)]
        for p in outputs:
            cycle = _trade_cycle(p.numerators, p.denominator, profile)
            assert cycle == recursive_trade_cycle(p.numerators, p.denominator, profile)
            cycles += cycle is not None
            assert matchings(p, _balanced_support_assignment) == matchings(
                p, recursive_balanced_support_assignment
            )
        owners = tuple(rng.choice(inst.agents) for _ in inst.objects)
        grid = DiscreteAssignment(inst, owners).grid()
        assert _trade_cycle(grid, 1, profile) == recursive_trade_cycle(grid, 1, profile)
    assert cycles > 0


# --------------------------------------------------------------------------
# No depth limit: 2 agents and 1,000 or more objects
# --------------------------------------------------------------------------


def halves_files(tmp_path, m, swap):
    """Two agents with identical orders of `m` objects (agent 2's first and
    last swapped with `swap`), quota m/2, and the assignment of 1/2 each."""
    objects = [f"o{j}" for j in range(1, m + 1)]
    second = [objects[-1], *objects[1:-1], objects[0]] if swap else objects
    profile = {"objects": objects, "quota": m // 2, "preferences": {"1": objects, "2": second}}
    assignment = {"matrix": {agent: dict.fromkeys(objects, "1/2") for agent in "12"}}
    paths = []
    for name, data in (("p.json", profile), ("a.json", assignment)):
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
        paths.append(str(tmp_path / name))
    return profile, assignment, paths


def check_sd_efficient(paths, *flags):
    profile_path, assignment_path = paths
    return CliRunner().invoke(main, [
        "check", "--property", "sd-efficient",
        "--profile", profile_path, "--assignment", assignment_path, *flags,
    ])


def test_sd_efficiency_holds_at_a_thousand_objects(tmp_path):
    _, _, paths = halves_files(tmp_path, 1000, swap=False)
    result = check_sd_efficient(paths)
    assert result.exit_code == 0, result.output
    assert "verdict: holds" in result.output


def test_sd_efficiency_fails_with_a_dominator_at_a_thousand_objects(tmp_path):
    profile_data, assignment_data, paths = halves_files(tmp_path, 1000, swap=True)
    result = check_sd_efficient(paths, "--json")
    assert result.exit_code == 1, result.output
    report = json.loads(result.output)
    assert report["verdict"] is False
    profile = profile_from_data(profile_data)
    p = assignment_from_data(assignment_data, profile.instance)
    q = assignment_from_data({"matrix": report["certificate"]["dominator"]}, profile.instance)
    assert sd_dominates(q, p, profile)


def test_decompose_lottery_at_twelve_hundred_objects():
    m = 1200
    inst = Instance(("1", "2"), tuple(f"o{j}" for j in range(1, m + 1)), m // 2)
    p = RandomAssignment(inst, ((F(1, 2),) * m,) * 2)
    terms = decompose_lottery(p)
    assert [w for w, _ in terms] == [F(1, 2), F(1, 2)]
    grids = [(w, d.grid()) for w, d in terms]
    total = [[sum(w * g[i][j] for w, g in grids) for j in range(m)] for i in range(2)]
    assert total == [list(row) for row in p.matrix]


# --------------------------------------------------------------------------
# No new recursion
# --------------------------------------------------------------------------

#: The one function of `src/mudra` that calls itself: the balanced
#: enumeration, whose depth is the number of agents, which DISCRETE_LIMIT
#: keeps at 9 or fewer.
SELF_CALLERS = {("efficiency", "fill")}


def self_callers(module, source):
    """(module, name) of each function of `source` that calls itself by
    name, or as a method through `self` or `cls`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name) and func.id == node.name or (
                isinstance(func, ast.Attribute) and func.attr == node.name
                and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls")
            ):
                found.add((module, node.name))
    return found


def test_only_the_listed_functions_call_themselves():
    callers = set().union(
        *(self_callers(path.stem, path.read_text()) for path in SOURCES.glob("*.py"))
    )
    assert callers == SELF_CALLERS


def test_the_self_caller_list_sees_methods_and_nested_functions():
    source = (
        "def f(n):\n"
        "    def g(k):\n"
        "        return g(k - 1) if k else 0\n"
        "    return g(n)\n"
        "class A:\n"
        "    def h(self):\n"
        "        return self.h()\n"
        "    def k(self, other):\n"
        "        return other.k()\n"
        "def walk(x):\n"
        "    return [walk(y) for y in x]\n"
    )
    assert self_callers("m", source) == {("m", "g"), ("m", "h"), ("m", "walk")}
