"""Core domain types for multi-unit random assignment.

An instance has n agents and m objects with a per-agent quota
c = ceil(m / n); it is balanced when m = n * c, as in the paper, and only
the eating rules accept an unbalanced one.  Agents hold strict preference
orders over objects.  A random assignment is an n-by-m matrix of exact
rational probabilities; a discrete assignment maps each object to one owner.
`PreferenceProfile.ranked` holds each order as column indices: the rules and
checkers read orders only through it, and compare matrix rows along it
rather than name-keyed allocations.

All arithmetic is exact, and floats are rejected at construction time.  A
`RandomAssignment` is stored in one form only: integer `numerators` over
one common `denominator`, the lcm of its entries' denominators.  The form
is canonical, so equality, hashing and `repr`, which read it, are those of
the matrix.  Its constructor takes a matrix of ints and `Fraction`s;
`from_numerators` takes integers.  Both end in one reduction, and
whichever built the assignment, `matrix` is derived from the integer view
when it is first read.  The rules, the checkers and the JSON reader behind
the CLI build with `from_numerators`; the constructor is for callers that
hold `Fraction`s.  Every profile, a reported one included, passes its
constructor's checks.
`validate_assignment` and the checkers compute on the integer view.  A
discrete assignment's `grid` is a 0/1 integer matrix.  `require_feasible`
is the one refusal of an infeasible matrix, validating each assignment
once; relabelling agents and relabelling objects share one routine and one
bijection check, and relabel an assignment's integer view.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence


class GuardExceeded(Exception):
    """An enumeration was refused because it would exceed its guard."""


# Guards of the exhaustive enumerations, each compared with the exact size of
# what an enumeration would visit (for rp, an upper bound on it) before it
# visits any of it.
PROFILE_LIMIT = 10**6  # profiles listed, swept or counted by profile_count
DISCRETE_LIMIT = 10**6  # discrete assignments screened for ex-post efficiency
MISREPORT_LIMIT = math.factorial(6)  # one agent's misreports
JOINT_LIMIT = 10**6  # a coalition's joint misreports
ORDER_LIMIT = math.factorial(8)  # agent or object relabellings
STATE_LIMIT = 10**6  # rp pick states, bounded from above before any is built
# Columns of the ex-post hull LP, one per SD-efficient discrete assignment;
# screening stops at the first survivor past it.  On a 2-core shared VM the LP
# took 0.5 s at 448 columns, 0.8 s at 538, 1.9 s at 720 and 7.3 s at 2,520.
HULL_LIMIT = 400


def refuse_over(count: int, limit: int, what: str) -> None:
    """Refuse an enumeration of `count` items when that exceeds `limit`.

    This is the only place that raises GuardExceeded: every exhaustive
    enumeration calls it with the exact size of what it is about to visit,
    or an upper bound on it (or any number past `limit` once that size is
    known to be past it), before it visits or allocates any of it.  `what`
    names the size, as in "9! agent relabellings"; the count is not
    printed, because a refused count can have more digits than `str`
    converts.
    """
    if count > limit:
        raise GuardExceeded(f"{what} exceed the guard of {limit}")


def capped_product(factors: Iterable[int | Fraction], limit: int) -> int | Fraction:
    """The product of `factors`, each at least 1, computed only up to `limit`.

    Multiplying stops at the first partial product past `limit`, which is
    returned: the factors left cannot bring it back, so it is a count that
    `refuse_over` refuses without the exact size ever being computed.
    """
    total: int | Fraction = 1
    for factor in factors:
        total *= factor
        if total > limit:
            break
    return total


def order_count(m: int, repeat: int, limit: int) -> int | Fraction:
    """(m!)^repeat, the `repeat`-tuples of strict orders of m labels, capped at `limit`."""
    factors = itertools.chain.from_iterable(itertools.repeat(range(2, m + 1), repeat))
    return capped_product(factors, limit)


def orderings(
    labels: Sequence[str], limit: int, what: str, repeat: int | None = None
) -> Iterator[tuple]:
    """The strict orders of `labels`, guarded, as a lazy stream.

    Orders are permutations of `labels` in lexicographic order; with
    `repeat`, the stream is every `repeat`-tuple of orders in product order,
    first position varying slowest.  Refuses when the len(labels)! orders
    (their `repeat`-th power with `repeat`) exceed `limit`.
    """
    refuse_over(order_count(len(labels), 1 if repeat is None else repeat, limit), limit, what)
    orders = itertools.permutations(labels)
    return orders if repeat is None else itertools.product(orders, repeat=repeat)


def _check_rational(value: object, where: str) -> Fraction:
    # ints are fine, floats never are: exactness is the whole point.
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"{where}: floating point value {value!r} rejected")
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"{where}: expected a rational, got {type(value).__name__}")


@dataclass(frozen=True)
class Instance:
    """Agents, objects and the per-agent quota.

    `quota` is the number of objects each agent receives, and it must be
    ceil(m / n).  The shape alone says whether the instance is balanced
    (m = n * quota) or unbalanced (n does not divide m); only the eating
    rules accept an unbalanced one (`require_balanced`).
    """

    agents: tuple[str, ...]
    objects: tuple[str, ...]
    quota: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "objects", tuple(self.objects))
        if not self.agents:
            raise ValueError("instance needs at least one agent")
        if not self.objects:
            raise ValueError("instance needs at least one object")
        if len(set(self.agents)) != len(self.agents):
            raise ValueError("duplicate agent ids")
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object ids")
        if set(self.agents) & set(self.objects):
            raise ValueError("agent and object ids must be disjoint")
        if not isinstance(self.quota, int) or isinstance(self.quota, bool) or self.quota < 1:
            raise ValueError(f"quota must be a positive integer, got {self.quota!r}")
        n, m = len(self.agents), len(self.objects)
        if self.quota != -(-m // n):
            raise ValueError(
                f"{m} objects cannot be split among {n} agents with quota "
                f"{self.quota}; the quota must be ceil(m/n) = {-(-m // n)}"
            )

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    @property
    def num_objects(self) -> int:
        return len(self.objects)

    @functools.cached_property
    def columns(self) -> dict[str, int]:
        """Each object's column index in `objects`."""
        return {o: j for j, o in enumerate(self.objects)}

    def agent_index(self, agent: str) -> int:
        try:
            return self.agents.index(agent)
        except ValueError:
            raise KeyError(f"unknown agent {agent!r}") from None

    def object_index(self, obj: str) -> int:
        try:
            return self.objects.index(obj)
        except ValueError:
            raise KeyError(f"unknown object {obj!r}") from None


def require_balanced(instance: Instance, what: str) -> None:
    """Refuse an unbalanced instance for `what`, which needs m = n * quota.

    Every rule and check but the eating rules calls it, so an unbalanced
    instance is refused where it is judged, not where it is built.
    """
    if instance.num_objects != instance.num_agents * instance.quota:
        raise ValueError(f"{what} is only defined for balanced instances (m = n * quota)")


@dataclass(frozen=True)
class PreferenceProfile:
    """One strict preference order per agent, most preferred first."""

    instance: Instance
    orders: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", tuple(map(tuple, self.orders)))
        inst = self.instance
        if len(self.orders) != inst.num_agents:
            raise ValueError(
                f"expected {inst.num_agents} preference orders, got {len(self.orders)}"
            )
        for agent, order in zip(inst.agents, self.orders):
            _require_strict_order(inst, agent, order)

    @functools.cached_property
    def ranked(self) -> tuple[tuple[int, ...], ...]:
        """Each order as column indices into `instance.objects`, best first."""
        column = self.instance.columns.__getitem__
        return tuple(tuple(map(column, order)) for order in self.orders)

    def order_of(self, agent: str) -> tuple[str, ...]:
        return self.orders[self.instance.agent_index(agent)]

    def with_order(self, agent: str, order: Sequence[str]) -> "PreferenceProfile":
        """Profile where `agent` reports `order` and everyone else is unchanged."""
        return self.with_orders({agent: order})

    def with_orders(self, reports: Mapping[str, Sequence[str]]) -> "PreferenceProfile":
        """Profile where each agent of `reports` reports its order and everyone
        else is unchanged; the constructor checks it, in agent order."""
        orders = list(self.orders)
        for agent, order in reports.items():
            orders[self.instance.agent_index(agent)] = order
        return PreferenceProfile(self.instance, orders)


def _require_strict_order(instance: Instance, agent: str, order: Sequence[str]) -> None:
    """Refuse an order of `agent` that is not a strict order of the object set."""
    if len(order) != instance.num_objects or instance.columns.keys() != set(order):
        raise ValueError(
            f"preferences of agent {agent!r} are not a strict order over the object set"
        )


@dataclass(frozen=True, init=False)
class RandomAssignment:
    """Row-per-agent, column-per-object matrix of exact probabilities.

    Stored as `numerators` over `denominator`, the lcm of the entries'
    denominators: a canonical form, read by equality, hashing and `repr`.
    `matrix`, the entries as `Fraction`s, is derived from it on first read.
    """

    instance: Instance
    denominator: int
    numerators: tuple[tuple[int, ...], ...]

    def __init__(self, instance: Instance, matrix: Sequence[Sequence[int | Fraction]]) -> None:
        """Check the shape and entries of `matrix`, ints and `Fraction`s but
        never floats, and store their integer view; the entries given are
        not kept."""
        _require_shape(instance, matrix)
        checked = [
            [_check_rational(v, f"entry ({a}, {o})") for o, v in zip(instance.objects, row)]
            for a, row in zip(instance.agents, matrix)
        ]
        d = math.lcm(*(v.denominator for row in checked for v in row))
        rows = [[v.numerator * (d // v.denominator) for v in row] for row in checked]
        self._reduce(instance, rows, d)

    @classmethod
    def from_numerators(
        cls, instance: Instance, numerators: Sequence[Sequence[int]], denominator: int
    ) -> "RandomAssignment":
        """The assignment whose entries are `numerators` over `denominator`.

        It refuses rows of the wrong shape as the constructor does, and
        builds no `Fraction` until `matrix` is read.
        """
        _require_shape(instance, numerators)
        assignment = object.__new__(cls)
        assignment._reduce(instance, numerators, denominator)
        return assignment

    def _reduce(self, instance: Instance, numerators: Sequence[Sequence[int]], d: int) -> None:
        """Store `numerators` over `d`, divided by their gcd: both constructors end here."""
        common = math.gcd(d, *itertools.chain.from_iterable(numerators))
        self.__dict__.update(
            instance=instance,
            denominator=d // common,
            numerators=tuple(tuple(v // common for v in row) for row in numerators),
        )

    @functools.cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as `Fraction`s, built from the integer view on first read."""
        d = self.denominator
        return tuple(tuple(Fraction(v, d) for v in row) for row in self.numerators)

    def entry(self, agent: str, obj: str) -> Fraction:
        inst = self.instance
        return self.matrix[inst.agent_index(agent)][inst.object_index(obj)]

    def allocation(self, agent: str) -> dict[str, Fraction]:
        """Row of `agent` as an object -> probability mapping."""
        row = self.matrix[self.instance.agent_index(agent)]
        return dict(zip(self.instance.objects, row))

    @functools.cached_property
    def _feasibility(self) -> ValidationResult:
        return validate_assignment(self)


def _require_shape(instance: Instance, rows: Sequence[Sequence]) -> None:
    """Refuse a matrix without one row per agent and one entry per object."""
    n, m = instance.num_agents, instance.num_objects
    if len(rows) != n:
        raise ValueError(f"matrix has {len(rows)} rows, expected {n}")
    for agent, row in zip(instance.agents, rows):
        if len(row) != m:
            raise ValueError(f"row of agent {agent!r} has {len(row)} entries, expected {m}")


@dataclass(frozen=True)
class DiscreteAssignment:
    """Each object owned by exactly one agent; bundles need not be balanced."""

    instance: Instance
    owners: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "owners", tuple(self.owners))
        inst = self.instance
        if len(self.owners) != inst.num_objects:
            raise ValueError(
                f"expected one owner per object ({inst.num_objects}), "
                f"got {len(self.owners)}"
            )
        known = set(inst.agents)
        for obj, owner in zip(inst.objects, self.owners):
            if owner not in known:
                raise ValueError(f"object {obj!r} owned by unknown agent {owner!r}")

    def bundle_sizes(self) -> dict[str, int]:
        sizes = {a: 0 for a in self.instance.agents}
        for a in self.owners:
            sizes[a] += 1
        return sizes

    @property
    def is_balanced(self) -> bool:
        return all(s == self.instance.quota for s in self.bundle_sizes().values())

    def grid(self) -> tuple[tuple[int, ...], ...]:
        """0/1 integer matrix of this assignment (rows may be unbalanced)."""
        return tuple(
            tuple(int(owner == agent) for owner in self.owners)
            for agent in self.instance.agents
        )


@dataclass(frozen=True)
class ValidationResult:
    """Feasibility verdict; `reason` names the first violated constraint."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_assignment(assignment: RandomAssignment) -> ValidationResult:
    """Check entry bounds, unit column sums and per-agent row sums.

    On the integer view over D = `denominator`: numerators in [0, D], column
    sums D, and row sums t with t * n == D * m (D * m / n need not be whole).
    Constraint violations are reported in scan order: entries row-major
    first, then columns, then rows.
    """
    inst = assignment.instance
    d, rows = assignment.denominator, assignment.numerators
    for agent, row in zip(inst.agents, rows):
        for obj, v in zip(inst.objects, row):
            if v < 0 or v > d:
                return ValidationResult(
                    False, f"entry ({agent}, {obj}) = {Fraction(v, d)} outside [0, 1]"
                )
    for obj, column in zip(inst.objects, zip(*rows)):
        total = sum(column)
        if total != d:
            return ValidationResult(
                False, f"column {obj} sums to {Fraction(total, d)}, expected 1"
            )
    n, m = inst.num_agents, inst.num_objects
    for agent, row in zip(inst.agents, rows):
        total = sum(row)
        if total * n != d * m:
            return ValidationResult(
                False, f"row {agent} sums to {Fraction(total, d)}, expected {Fraction(m, n)}"
            )
    return ValidationResult(True)


def discrete_to_random(assignment: DiscreteAssignment) -> RandomAssignment:
    """Embed a balanced discrete assignment as a 0/1 random assignment."""
    if not assignment.is_balanced:
        sizes = assignment.bundle_sizes()
        raise ValueError(
            f"assignment is unbalanced (bundle sizes {sizes}); only balanced "
            f"assignments embed as random assignments"
        )
    return RandomAssignment.from_numerators(assignment.instance, assignment.grid(), 1)


def require_shared_instance(assignment: RandomAssignment, profile: PreferenceProfile) -> None:
    """Refuse to judge `assignment` against a profile of another instance."""
    if assignment.instance != profile.instance:
        raise ValueError("assignment and profile must share one instance")


def require_feasible(assignment: RandomAssignment) -> None:
    """Refuse an infeasible assignment; each assignment is validated once."""
    check = assignment._feasibility
    if not check.ok:
        raise ValueError(f"input is not a feasible random assignment: {check.reason}")


def _relabel(x, mapping: Mapping[str, str], agents: bool):
    """The one body of `permute_agents` (`agents`) and `permute_objects`."""
    what = "agent" if agents else "object"
    if not isinstance(x, (PreferenceProfile, RandomAssignment)):
        raise TypeError(f"cannot permute {what}s of {type(x).__name__}")
    labels = x.instance.agents if agents else x.instance.objects
    position = {label: k for k, label in enumerate(labels)}
    if mapping.keys() != position.keys() or set(mapping.values()) != position.keys():
        raise ValueError(f"not a permutation of the {what} set")
    # A label's row (agents) or column (objects) is that of the label mapped onto it.
    inverse = {image: label for label, image in mapping.items()}
    source = [position[inverse[label]] for label in labels]
    profile = isinstance(x, PreferenceProfile)
    rows = x.orders if profile else x.numerators
    if agents:
        rows = tuple(rows[k] for k in source)
    elif profile:
        rows = tuple(tuple(mapping[o] for o in order) for order in rows)
    else:
        rows = tuple(tuple(row[k] for k in source) for row in rows)
    if profile:
        return PreferenceProfile(x.instance, rows)
    return RandomAssignment.from_numerators(x.instance, rows, x.denominator)


def permute_agents(x, pi: Mapping[str, str]):
    """Relabel agents by the bijection `pi`: agent pi(a) takes over a's role.

    For a profile, agent pi(a) receives a's preference order; for a random
    assignment, a's row moves to pi(a).  Composing with the inverse is the
    identity.
    """
    return _relabel(x, pi, agents=True)


def permute_objects(x, sigma: Mapping[str, str]):
    """Relabel objects by the bijection `sigma`.

    For a profile, every occurrence of object o becomes sigma(o); for a
    random assignment, the column of o moves to sigma(o).
    """
    return _relabel(x, sigma, agents=False)
