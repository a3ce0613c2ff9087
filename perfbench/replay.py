"""Independent replay of the certificates mudra attaches to its verdicts.

Each checker here uses only the ``model`` and ``order`` primitives (plus a
rerun of the rule itself where the certificate is about a rule's output);
none of the search code that produced the certificate is called.  Every
function returns None when the certificate replays and a short reason
otherwise.
"""

from __future__ import annotations

from fractions import Fraction

from mudra import rules
from mudra.model import (
    DiscreteAssignment,
    Instance,
    PreferenceProfile,
    RandomAssignment,
    permute_agents,
    permute_objects,
    validate_assignment,
)
from mudra.order import (
    DlVerdict,
    SdVerdict,
    dl_compare,
    prefix_sums,
    sd_compare,
    sd_weakly_dominates,
)

RULES = {
    "uniform": lambda profile: rules.uniform(profile.instance),
    "priority": lambda profile: rules.priority_rule(profile),
    "rp": lambda profile: rules.random_priority(profile),
    "ops": lambda profile: rules.ops(profile),
    "mps": lambda profile: rules.mps(profile),
}


def profile_of(orders) -> PreferenceProfile:
    """Profile on agents "1".."n" and objects "o1".."om", quota m/n."""
    n, m = len(orders), len(orders[0])
    instance = Instance(
        agents=tuple(str(i) for i in range(1, n + 1)),
        objects=tuple(f"o{j}" for j in range(1, m + 1)),
        quota=m // n,
    )
    return PreferenceProfile(instance, tuple(tuple(o) for o in orders))


def matrix_of(data: dict, instance: Instance) -> RandomAssignment:
    """Parse an ``{agent: {object: "p/q"}}`` matrix."""
    return RandomAssignment(
        instance,
        tuple(
            tuple(Fraction(data[a][o]) for o in instance.objects)
            for a in instance.agents
        ),
    )


def _rows_equal(rows: dict, assignment: RandomAssignment, agent: str) -> bool:
    return {o: Fraction(v) for o, v in rows.items()} == assignment.allocation(agent)


def dominator(output: RandomAssignment, data: dict, profile: PreferenceProfile) -> str | None:
    """The certificate matrix is feasible and SD-dominates `output`."""
    q = matrix_of(data, profile.instance)
    feasible = validate_assignment(q)
    if not feasible:
        return f"dominator is infeasible: {feasible.reason}"
    strict = False
    for agent, order in zip(profile.instance.agents, profile.orders):
        mine, theirs = q.allocation(agent), output.allocation(agent)
        if not sd_weakly_dominates(mine, theirs, order):
            return f"dominator is worse for agent {agent}"
        strict = strict or mine != theirs
    return None if strict else "dominator equals the assignment"


def envy(output: RandomAssignment, cert: dict, profile: PreferenceProfile, weak: bool) -> str | None:
    """Prefix sums show the envied row beats the envious agent's own row."""
    order = profile.order_of(cert["envious"])
    own = prefix_sums(output.allocation(cert["envious"]), order)
    other = prefix_sums(output.allocation(cert["envied"]), order)
    if weak:
        if all(b >= a for a, b in zip(own, other)) and own != other:
            return None
        return "envied row does not strictly SD-dominate the envious row"
    at = order.index(cert["prefix-object"])
    return None if own[at] < other[at] else "no envy at the named prefix"


def farkas(output: RandomAssignment, cert: dict, profile: PreferenceProfile) -> str | None:
    """The multipliers separate `output` from the hull of the listed survivors.

    Rows are the flattened coordinates followed by the weight-sum row; with
    nonnegative weights the system is infeasible when f.g + f_last <= 0 for
    every generator g while f.target + f_last > 0.  That the listed survivors
    are all the SD-efficient discrete assignments is taken from the
    certificate, not re-derived.
    """
    inst = profile.instance
    f = [Fraction(v) for v in cert["farkas"]]
    target = [v for row in output.matrix for v in row]
    if len(f) != len(target) + 1:
        return "Farkas vector has the wrong length"
    if sum(a * b for a, b in zip(f, target)) + f[-1] <= 0:
        return "Farkas vector does not separate the target"
    for owners in cert["sd-efficient-discrete"]:
        d = DiscreteAssignment(inst, tuple(owners))
        if not d.is_balanced:
            return "survivor is not balanced"
        grid = [v for row in d.grid() for v in row]
        if sum(a * b for a, b in zip(f, grid)) + f[-1] > 0:
            return f"Farkas vector does not bound survivor {owners}"
    return None


def unanimity(output: RandomAssignment, profile: PreferenceProfile) -> str | None:
    """A perfect assignment exists and the rule's output differs from it."""
    inst = profile.instance
    owners = {}
    for agent, order in zip(inst.agents, profile.orders):
        for obj in order[: inst.quota]:
            if obj in owners:
                return "no perfect assignment exists"
            owners[obj] = agent
    perfect = DiscreteAssignment(inst, tuple(owners[o] for o in inst.objects))
    return "output is the perfect assignment" if perfect.grid() == output.matrix else None


def equivariance(rule: str, cert: dict, profile: PreferenceProfile, agents: bool) -> str | None:
    """Recompute both sides of the relabelling and compare the named cell."""
    mapping = dict(cert["permutation"])
    permute = permute_agents if agents else permute_objects
    left = RULES[rule](permute(profile, mapping))
    right = permute(RULES[rule](profile), mapping)
    agent, obj = cert["mismatch"]
    if left.entry(agent, obj) != right.entry(agent, obj):
        return None
    return "both sides agree at the named cell"


def improves(kind: str, better, truth, order) -> bool:
    """Does the manipulated row `better` beat `truth` in the sense of `kind`?"""
    if kind == "strict-sd":
        return sd_compare(better, truth, order) is SdVerdict.FIRST_STRICTLY_DOMINATES
    if kind == "dl-improvement":
        return dl_compare(better, truth, order) is DlVerdict.FIRST
    if kind == "not-sd-dominated":
        return not sd_weakly_dominates(truth, better, order)
    raise ValueError(f"unknown manipulation kind {kind!r}")


def misreport(
    rule: str,
    profile: PreferenceProfile,
    reports: dict,
    kind: str,
    truthful: RandomAssignment | dict,
    manipulated: RandomAssignment | dict,
) -> str | None:
    """Rerun the rule on the truthful and the misreported profile.

    `truthful` and `manipulated` are either full assignments or, as in the
    sweep certificates, one row per reporting agent.
    """
    truth = RULES[rule](profile)
    lied = RULES[rule](profile.with_orders(reports))
    for agent in reports:
        if isinstance(truthful, RandomAssignment):
            same = truthful.matrix == truth.matrix and manipulated.matrix == lied.matrix
        else:
            same = _rows_equal(truthful, truth, agent) and _rows_equal(manipulated, lied, agent)
        if not same:
            return "rerunning the rule does not give the certified outcomes"
        order = profile.order_of(agent)
        if not improves(kind, lied.allocation(agent), truth.allocation(agent), order):
            return f"agent {agent} does not gain from the misreport"
    return None


def table1_cell(cell) -> str | None:
    """Replay the certificate of one '-' cell of the table1 report."""
    profile = profile_of(cell.witness_orders)
    cert, rule, prop = cell.certificate, cell.rule, cell.property_name
    if prop.endswith("-strategyproofness"):
        return misreport(
            rule, profile, {cert["agent"]: tuple(cert["misreport"])}, cert["kind"],
            cert["truthful-row"], cert["manipulated-row"],
        )
    if prop in ("anonymity", "neutrality"):
        return equivariance(rule, cert, profile, agents=prop == "anonymity")
    output = RULES[rule](profile)
    if prop == "sd-efficiency":
        return dominator(output, cert["dominator"], profile)
    if prop == "ex-post-efficiency":
        return farkas(output, cert, profile)
    if prop == "unanimity":
        if matrix_of(cert["output"], profile.instance).matrix != output.matrix:
            return "certified output is not the rule's output"
        return unanimity(output, profile)
    if prop in ("sd-envy-freeness", "weak-sd-envy-freeness"):
        return envy(output, cert, profile, weak=prop.startswith("weak"))
    return f"no replay for property {prop!r}"
