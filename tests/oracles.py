"""Plain replays of what `mudra` decides: one definition per fact.

Each oracle reads only the data classes of `mudra.model` (an instance, a
profile's `orders` of object names, an assignment's `Fraction` `matrix`)
and takes its own prefix sums with `itertools.accumulate`; none calls the
code it checks.  `tests/test_imports.py` holds this module to importing
nothing else from `mudra`.

`make_profile` is the tests' one profile builder.  The oracles of search
algorithms (the eating loops, serial dictatorship, the trade cycle, the
brute-force misreport scan) stay next to the tests that run them.
"""

import itertools
from fractions import Fraction

from mudra.model import Instance, PreferenceProfile, RandomAssignment, ValidationResult


def make_profile(orders, quota=None):
    """The profile of `orders` with agents "1" to "n", the first order's
    objects sorted, and quota ceil(m / n) unless one is given."""
    orders = tuple(tuple(o) for o in orders)
    n = len(orders)
    objects = tuple(sorted(orders[0]))
    if quota is None:
        quota = -(-len(objects) // n)
    agents = tuple(str(i) for i in range(1, n + 1))
    return PreferenceProfile(Instance(agents, objects, quota), orders)


def fraction_validate_assignment(assignment):
    """Feasibility: entries in [0, 1], columns summing to 1, rows to m/n;
    the first fault found, with the refusal text `validate_assignment` gives."""
    inst = assignment.instance
    for agent, row in zip(inst.agents, assignment.matrix):
        for obj, v in zip(inst.objects, row):
            if v < 0 or v > 1:
                return ValidationResult(False, f"entry ({agent}, {obj}) = {v} outside [0, 1]")
    for j, obj in enumerate(inst.objects):
        total = sum(row[j] for row in assignment.matrix)
        if total != 1:
            return ValidationResult(False, f"column {obj} sums to {total}, expected 1")
    target = Fraction(inst.num_objects, inst.num_agents)
    for agent, row in zip(inst.agents, assignment.matrix):
        total = sum(row)
        if total != target:
            return ValidationResult(False, f"row {agent} sums to {total}, expected {target}")
    return ValidationResult(True)


def _prefix_sums(amounts, order):
    return tuple(itertools.accumulate(amounts[key] for key in order))


def sd_oracle(a, b, order):
    """Stochastic dominance of allocation `a` against `b` under `order`, as
    the name of the `SdVerdict` member it must give."""
    pa, pb = _prefix_sums(a, order), _prefix_sums(b, order)
    if pa == pb:
        return "EQUAL"
    if all(x >= y for x, y in zip(pa, pb)):
        return "FIRST_STRICTLY_DOMINATES"
    if all(x <= y for x, y in zip(pa, pb)):
        return "SECOND_STRICTLY_DOMINATES"
    return "INCOMPARABLE"


def dl_oracle(a, b, order):
    """The downward lexicographic comparison of `a` and `b` under `order`, as
    the name of the `DlVerdict` member it must give."""
    ta = tuple(a[o] for o in order)
    tb = tuple(b[o] for o in order)
    if ta == tb:
        return "EQUAL"
    return "FIRST" if ta > tb else "SECOND"


def _envy(p, profile, weak):
    """(holds, envious, envied, object), the fields of a `FairnessVerdict`:
    the first pair, agents in instance order, where the envied row has the
    larger sum over some upper contour set of the envious agent's order,
    and the first such set's last object.  With `weak` the envied row must
    also be at least as large over every upper contour set."""
    inst = profile.instance
    rows = [dict(zip(inst.objects, row)) for row in p.matrix]
    for agent, order, own in zip(inst.agents, profile.orders, rows):
        mine = _prefix_sums(own, order)
        for other, theirs in zip(inst.agents, rows):
            if other == agent:
                continue
            its = _prefix_sums(theirs, order)
            if weak and any(a > b for a, b in zip(mine, its)):
                continue
            for obj, a, b in zip(order, mine, its):
                if a < b:
                    return False, agent, other, obj
    return True, None, None, None


def oracle_sd_envy(p, profile):
    """SD envy: some other row is larger over some upper contour set."""
    return _envy(p, profile, weak=False)


def oracle_weak_sd_envy(p, profile):
    """Weak-SD envy: some other row strictly SD-dominates the agent's own."""
    return _envy(p, profile, weak=True)


def name_keyed_sd_dominates(q, p, profile):
    """`q` SD-dominates `p`: every agent's row of `q` is at least as large
    over every upper contour set of its order, and the rows differ."""
    strict = False
    for agent, order in zip(profile.instance.agents, profile.orders):
        mine, theirs = q.allocation(agent), p.allocation(agent)
        if any(a < b for a, b in zip(_prefix_sums(mine, order), _prefix_sums(theirs, order))):
            return False
        strict = strict or mine != theirs
    return strict


def oracle_permute_agents(x, pi):
    """The profile or assignment whose row of agent pi(a) is a's row of `x`."""
    inst = x.instance
    if set(pi.keys()) != set(inst.agents) or set(pi.values()) != set(inst.agents):
        raise ValueError("not a permutation of the agent set")
    rows = x.orders if isinstance(x, PreferenceProfile) else x.matrix
    new_rows = [()] * inst.num_agents
    for agent, row in zip(inst.agents, rows):
        new_rows[inst.agent_index(pi[agent])] = row
    return type(x)(inst, tuple(new_rows))


def oracle_permute_objects(x, sigma):
    """The profile or assignment with each object o renamed sigma(o)."""
    inst = x.instance
    if set(sigma.keys()) != set(inst.objects) or set(sigma.values()) != set(inst.objects):
        raise ValueError("not a permutation of the object set")
    if isinstance(x, PreferenceProfile):
        return PreferenceProfile(inst, tuple(tuple(sigma[o] for o in order) for order in x.orders))
    new_rows = []
    for row in x.matrix:
        new_row = [Fraction(0)] * inst.num_objects
        for obj, v in zip(inst.objects, row):
            new_row[inst.object_index(sigma[obj])] = v
        new_rows.append(tuple(new_row))
    return RandomAssignment(inst, tuple(new_rows))


def fraction_trade_along(p, cycle):
    """`p` after the largest trade along `cycle`'s edges (agent i, more of
    column a, less of column b) that keeps every entry in [0, 1]."""
    work = [list(row) for row in p.matrix]
    eps = min(min(work[i][b], 1 - work[i][a]) for i, a, b in cycle)
    for i, a, b in cycle:
        work[i][a] += eps
        work[i][b] -= eps
    return RandomAssignment(p.instance, tuple(tuple(row) for row in work))
