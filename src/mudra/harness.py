"""Sweep harness: profile enumeration, reference-table sweeps, scenario replay.

This module drives the per-rule checkers over exhaustively enumerated
preference-profile domains.  The main entry points are

* :func:`enumerate_profiles` -- canonical, guarded profile streams;
* :func:`classify` -- each (rule, property) cell's first counterexample
  over a whole canonical domain, walking one profile per object-relabelling
  orbit once the rule is verified neutral, one per agents-and-objects orbit
  once it is verified anonymous too;
* :func:`table1_sweep` -- confirms the expected +/- classification of the
  five bundled rules against ten axioms, one `classify` call on two agents
  and four objects, storing a concrete counterexample for every '-' cell
  and covering the full domain for every '+' cell;
* :func:`reproduce` -- replays the named reference scenarios shipped with
  the library and diffs the computed values against the recorded ones.

Everything is deterministic: profiles are enumerated in a fixed canonical
order and all searches return the first witness in that order.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from mudra.efficiency import (
    decompose_lottery,
    is_ex_post_efficient,
    is_sd_efficient,
    perfect_assignment,
    sd_dominates,
)
from mudra.fairness import (
    EquivarianceVerdict,
    check_anonymity,
    check_neutrality,
    first_asymmetries,
    is_sd_envy_free,
    is_weak_sd_envy_free,
)
from mudra.model import (
    PROFILE_LIMIT,
    DiscreteAssignment,
    Instance,
    PreferenceProfile,
    RandomAssignment,
    discrete_to_random,
    order_count,
    orderings,
    refuse_over,
    require_balanced,
)
from mudra.order import DlVerdict, SdVerdict, dl_compare, sd_compare
from mudra.rules import (
    Kernel,
    Rule,
    kernel_of,
    mps,
    mps_trace,
    ops,
    priority_rule,
    random_priority,
    uniform_rule,
)
from mudra.serialize import assignment_to_data, format_rational
from mudra.strategy import (
    Manipulation,
    Scan,
    find_group_manipulation,
    find_weak_sd_manipulation,
    first_manipulation,
    individual_scan,
)


def canonical_instance(n: int, m: int) -> Instance:
    """Instance with agents "1".."n", objects "o1".."om" and the one quota
    `Instance` admits, ceil(m/n); it is unbalanced when `n` does not divide `m`.
    """
    if n < 1 or m < 1:
        raise ValueError("need at least one agent and one object")
    agents = tuple(str(i) for i in range(1, n + 1))
    objects = tuple(f"o{j}" for j in range(1, m + 1))
    return Instance(agents=agents, objects=objects, quota=-(-m // n))


def profile_count(n: int, m: int) -> int:
    """The (m!)^n profiles of n agents on m objects, refused past PROFILE_LIMIT.

    Needs no instance, so a refusal comes before any label is built.
    """
    count = order_count(m, n, PROFILE_LIMIT)
    refuse_over(count, PROFILE_LIMIT, f"({m}!)^{n} profiles")
    return count


def enumerate_profiles(instance: Instance) -> Iterator[PreferenceProfile]:
    """All strict-preference profiles on `instance`, canonically ordered.

    The order is the lexicographic product of per-agent permutations of the
    instance's object tuple, first agent varying slowest.  Refuses domains
    with more than PROFILE_LIMIT profiles when called, before building any.
    """
    n, m = instance.num_agents, instance.num_objects
    combos = orderings(instance.objects, PROFILE_LIMIT, f"({m}!)^{n} profiles", repeat=n)
    return (PreferenceProfile(instance=instance, orders=combo) for combo in combos)


# --------------------------------------------------------------------------
# Rule registry
# --------------------------------------------------------------------------

#: Rule name -> rule.  The output memo keys a rule's outputs by its name and
#: `ranked` rows alone, so a registered rule's output may depend only on the
#: rows and the instance's shape, not on its labels.  The five bundled rules
#: read nothing else, nor does a wrapper that calls one (a call tracer's).
#: A stand-in that a test registers may read labels, but the sweep runs on
#: one canonical instance per shape, where the rows fix the labels.
RULES: dict[str, Rule] = {
    "uniform": uniform_rule,
    "priority": priority_rule,
    "rp": random_priority,
    "ops": ops,
    "mps": mps,
}

RULE_NAMES: tuple[str, ...] = tuple(RULES)


class OutputCache:
    """The sweep's memo of rule outputs, one integer kernel per rule.

    Each rule name has a table, keyed by `ranked` rows alone, of the
    unreduced (numerators, denominator) of the kernel that `rules.kernel_of`
    gives `RULES[rule name]`, resolved once per cache and run on a miss
    only, never with the `stop` the memo's kernel accepts: a stopped run
    has no outcome to store.  A registered rule reads only the rows and the
    instance's shape, which the rows fix (see `RULES`), so profiles of two
    instances with the same rows share an entry.

    `output` builds a profile's `RandomAssignment`, on its own instance,
    once.  `scan` runs one `strategy.individual_scan` per (rule, rows,
    agent) and keeps it, so that the three strategyproofness checks share
    it.  `callable` returns one rule per name, which carries its table as
    its `kernel` for the checks that run on integer rows, and `scan` for
    the strategyproofness checks (`strategy.first_manipulation`).
    """

    def __init__(self) -> None:
        self._outputs: dict[str, dict[tuple, tuple]] = {}
        self._assignments: dict[tuple[str, PreferenceProfile], RandomAssignment] = {}
        self._scans: dict[tuple, Scan] = {}
        self._rules: dict[str, Rule] = {}

    def _lookup(self, kernel: Kernel, table: dict, instance: Instance, ranked: Sequence, stop=None):
        key = tuple(ranked)
        hit = table.get(key)
        if hit is None:
            hit = table[key] = kernel(instance, ranked)
        return hit

    def output(self, rule_name: str, profile: PreferenceProfile) -> RandomAssignment:
        key = (rule_name, profile)
        hit = self._assignments.get(key)
        if hit is None:
            inst = profile.instance
            unreduced = self.callable(rule_name).kernel(inst, profile.ranked)
            hit = self._assignments[key] = RandomAssignment.from_numerators(inst, *unreduced)
        return hit

    def scan(self, rule_name: str, profile: PreferenceProfile, agent: str) -> Scan:
        """`agent`'s misreports of `profile` judged in all three individual
        kinds, scanned through the memo once.  Keyed by rule name, `ranked`
        rows and the agent's row: a `Scan` holds no labels."""
        key = rule_name, profile.ranked, profile.instance.agent_index(agent)
        hit = self._scans.get(key)
        if hit is None:
            hit = self._scans[key] = individual_scan(self.callable(rule_name), profile, agent)
        return hit

    def callable(self, rule_name: str) -> Rule:
        rule = self._rules.get(rule_name)
        if rule is None:
            rule = self._rules[rule_name] = lambda profile: self.output(rule_name, profile)
            kernel = kernel_of(RULES[rule_name])[0]
            rule.kernel = partial(self._lookup, kernel, self._outputs.setdefault(rule_name, {}))
            rule.scan = partial(self.scan, rule_name)
        return rule


# --------------------------------------------------------------------------
# Property registry
# --------------------------------------------------------------------------

#: (profile, output, rule) -> (holds, certificate).  `output` is the
#: assignment judged at `profile` and `rule` the rule that produced it; either
#: may be None when the caller judges only the other.  The ex-post checker
#: alone also takes `allow_unbalanced`.
Checker = Callable[..., tuple[bool, dict | None]]


@dataclass(frozen=True)
class Property:
    """One registry entry: the checker, how `mudra check` reaches it and its
    table1 row."""

    check: Checker
    #: What the checker can judge: "assignment" (it reads `output`), "rule"
    #: (it reruns `rule`) or "profile" (it answers from the profile alone).
    #: `mudra check` needs one of them and refuses a flag for anything else.
    judges: tuple[str, ...]
    #: The `mudra check --property` token, or None when only the sweep checks it.
    token: str | None = None
    #: The recorded table1 sign of each rule, in `RULE_NAMES` order, or None
    #: for a property table1 does not classify.
    signs: str | None = None


def _matrix_data(p: RandomAssignment) -> dict:
    return assignment_to_data(p)["matrix"]


def _sd_efficiency(profile, output, rule):
    verdict = is_sd_efficient(output, profile)
    if verdict:
        return True, None
    return False, {"dominator": _matrix_data(verdict.dominator)}


def _ex_post_efficiency(profile, output, rule, *, allow_unbalanced=False):
    verdict = is_ex_post_efficient(output, profile, allow_unbalanced=allow_unbalanced)
    if verdict:
        return True, {
            "decomposition": [
                {"weight": format_rational(w), "owners": list(d.owners)}
                for w, d in verdict.decomposition
            ]
        }
    return False, {
        "sd-efficient-discrete": [list(d.owners) for d in verdict.survivors],
        "farkas": [format_rational(v) for v in verdict.farkas],
        "detail": f"not in the convex hull of the {len(verdict.survivors)} SD-efficient "
                  f"discrete assignments",
    }


def _unanimity(profile, output, rule):
    """When a perfect assignment exists the output must be exactly it; the
    rule runs only then, and once."""
    require_balanced(profile.instance, "unanimity")
    perfect = perfect_assignment(profile)
    if perfect is None:
        return True, {"detail": "vacuous: no perfect assignment exists"}
    if output is None:
        output = rule(profile)
    if output == discrete_to_random(perfect):
        return True, None
    return False, {"output": _matrix_data(output), "perfect": list(perfect.owners)}


def _perfect(profile, output, rule):
    perfect = perfect_assignment(profile)
    if perfect is None:
        return False, {"detail": "no perfect assignment exists for this profile"}
    holds = output is None or output == discrete_to_random(perfect)
    return holds, {"owners": list(perfect.owners)}


def _envy_freeness(weak, profile, output, rule):
    """SD envy-freeness, or with `weak` its weak form, whose certificate
    names no prefix object."""
    verdict = (is_weak_sd_envy_free if weak else is_sd_envy_free)(output, profile)
    if verdict:
        return True, None
    data = {"envious": verdict.envious, "envied": verdict.envied}
    if not weak:
        data["prefix-object"] = verdict.prefix_object
    return False, data


def _symmetry_result(verdict: EquivarianceVerdict) -> tuple[bool, dict | None]:
    if verdict:
        return True, None
    return False, {"permutation": dict(verdict.permutation), "mismatch": list(verdict.mismatch)}


def _symmetry(agents, profile, output, rule):
    """Anonymity, or without `agents` neutrality.  The checkers are read as
    module globals at call time, so a rebinding of either name reaches here."""
    return _symmetry_result((check_anonymity if agents else check_neutrality)(rule, profile))


def _no_manipulation(kind, profile, output, rule) -> tuple[bool, dict | None]:
    found = first_manipulation(rule, profile, kind, profile.instance.agents)
    if found is None:
        return True, None
    (agent,) = found.coalition
    return False, {
        "agent": agent,
        "misreport": list(found.misreport_of(agent)),
        "kind": found.kind.value,
        "truthful-row": _matrix_data(found.truthful)[agent],
        "manipulated-row": _matrix_data(found.manipulated)[agent],
    }


#: The property registry behind both the table1 sweep and `mudra check`.
PROPERTIES: dict[str, Property] = {
    # signs: one per rule, in the order uniform, priority, rp, ops, mps
    "sd-efficiency": Property(_sd_efficiency, ("assignment",), "sd-efficient",       signs="-+-+-"),
    "ex-post-efficiency": Property(_ex_post_efficiency, ("assignment",), "ex-post",  signs="-+++-"),
    "unanimity": Property(_unanimity, ("assignment", "rule"), "unanimity",           signs="-++++"),
    "perfect": Property(_perfect, ("assignment", "profile"), "perfect"),
    "sd-envy-freeness": Property(
        partial(_envy_freeness, False), ("assignment",), "sd-ef",                    signs="+--++"),
    "weak-sd-envy-freeness": Property(
        partial(_envy_freeness, True), ("assignment",), "weak-sd-ef",                signs="+-+++"),
    "anonymity": Property(partial(_symmetry, True), ("rule",), "anonymity",          signs="+-+++"),
    "neutrality": Property(partial(_symmetry, False), ("rule",), "neutrality",       signs="+++++"),
    "sd-strategyproofness": Property(partial(_no_manipulation, "sd"), ("rule",),     signs="+++--"),
    "dl-strategyproofness": Property(partial(_no_manipulation, "dl"), ("rule",),     signs="+++-+"),
    "weak-sd-strategyproofness": Property(
        partial(_no_manipulation, "weak-sd"), ("rule",),                             signs="+++-+"),
}

#: The properties the table1 sweep classifies, in table order.
PROPERTY_NAMES: tuple[str, ...] = tuple(name for name, prop in PROPERTIES.items() if prop.signs)


def check_rule_property(
    rule_name: str,
    property_name: str,
    profile: PreferenceProfile,
    cache: OutputCache | None = None,
) -> tuple[bool, dict | None]:
    """Does `rule_name` satisfy `property_name` at this profile?

    Returns (holds, certificate) from the property's registry checker,
    with the rule and its output taken from `cache`.  The certificate is a
    JSON-ready dict; it describes the violation when the property fails,
    and is None or a witness (a lottery decomposition, say) when it holds.
    """
    prop = PROPERTIES.get(property_name)
    if prop is None:
        raise ValueError(f"unknown property {property_name!r}")
    if rule_name not in RULES:
        raise ValueError(f"unknown rule {rule_name!r}")
    cache = cache or OutputCache()
    return prop.check(profile, cache.output(rule_name, profile), cache.callable(rule_name))


# --------------------------------------------------------------------------
# Reference-table sweep
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TableCell:
    rule: str
    property_name: str
    expected: str
    domain: str
    #: Profiles covered, in canonical order up to the witness: each checked
    #: directly or, for a verified-neutral rule, through its orbit's
    #: representative (see `classify`).
    profiles_checked: int
    witness_orders: tuple[tuple[str, ...], ...] | None = None
    certificate: dict | None = None

    @property
    def observed(self) -> str:
        """Either "counterexample-found" or "supported-by-sweep"."""
        return "supported-by-sweep" if self.witness_orders is None else "counterexample-found"

    @property
    def matched(self) -> bool:
        """Does the observation agree with the expected sign?"""
        return (self.expected == "-") == (self.witness_orders is not None)

    def to_data(self) -> dict:
        return {
            "rule": self.rule,
            "property": self.property_name,
            "expected": self.expected,
            "observed": self.observed,
            "matched": self.matched,
            "domain": self.domain,
            "profiles_checked": self.profiles_checked,
            "witness": None
            if self.witness_orders is None
            else [list(order) for order in self.witness_orders],
            "certificate": self.certificate,
        }


def witness_text(witness: Sequence[Sequence[str]] | None) -> str:
    """A table1 cell's witness profile as one line of text: its orders,
    each comma-joined, separated by " | "."""
    if witness is None:
        return "no counterexample found"
    return " | ".join(",".join(order) for order in witness)


@dataclass(frozen=True)
class Table1Report:
    cells: tuple[TableCell, ...]
    rule_seconds: tuple[tuple[str, float], ...]

    @property
    def ok(self) -> bool:
        return all(cell.matched for cell in self.cells)

    @property
    def discrepancies(self) -> tuple[TableCell, ...]:
        return tuple(cell for cell in self.cells if not cell.matched)

    def to_data(self) -> dict:
        return {
            "ok": self.ok,
            "cells": [cell.to_data() for cell in self.cells],
            "rule_seconds": {rule: secs for rule, secs in self.rule_seconds},
        }


#: Each (rule name, property name) cell's first witness, as (domain index,
#: profile, certificate), or None where no profile violates it.
Witnesses = dict[tuple[str, str], tuple[int, PreferenceProfile, dict] | None]


def _first_witnesses(
    cells: Sequence[tuple[str, str]],
    profiles: Iterable[tuple[int, PreferenceProfile]],
    cache: OutputCache,
) -> Witnesses:
    """Each (rule name, property name) cell's first (index, profile,
    certificate) in `profiles`, a stream of (domain index, profile) pairs,
    or None where none violates it.

    Every cell is judged at each profile in turn up to its first witness:
    the anonymity cells of all their rules together, in one
    `fairness.first_asymmetries` pass per profile, likewise the neutrality
    cells, and every other cell alone by `check_rule_property`.  The groups
    walk one after another, each replaying what an earlier one pulled
    (`itertools.tee`; `profiles` itself never advances), so the stream is
    pulled only as far as some cell needs.  That runs the same checks as
    judging every cell at one profile before the next, and faster: one
    checker runs over consecutive profiles.
    """
    found = dict.fromkeys(cells)
    symmetries = {"anonymity": True, "neutrality": False}
    groups = [[cell for cell in cells if cell[1] == name] for name in symmetries]
    groups += [[cell] for cell in cells if cell[1] not in symmetries]
    for pending in groups:
        profiles, walk = itertools.tee(profiles)
        while pending and (pulled := next(walk, None)):
            index, profile = pulled
            name = pending[0][1]
            if name in symmetries:
                rules = [cache.callable(rule_name) for rule_name, _ in pending]
                verdicts = first_asymmetries(rules, profile, symmetries[name])
                for cell, verdict in zip(pending, verdicts):
                    if not verdict:
                        found[cell] = index, profile, _symmetry_result(verdict)[1]
            else:
                holds, certificate = check_rule_property(*pending[0], profile, cache)
                if not holds:
                    found[pending[0]] = index, profile, certificate
            pending = [cell for cell in pending if found[cell] is None]
    return found


def orbit_form(ranked: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The first member, as `ranked` rows, of the orbit of the profile with
    rows `ranked` under relabelling its agents and objects together.

    For each agent in turn the objects are relabelled so that its order is
    the object tuple and the orders are sorted; the least result is the
    form.  Column indices are compared, not labels ("o10" < "o2"), so the
    order is that of `enumerate_profiles`; a profile is the first of its
    orbit when its `ranked` rows are their own form.
    """
    forms = []
    for pivot in ranked:
        rank = [0] * len(pivot)
        for place, j in enumerate(pivot):
            rank[j] = place
        forms.append(tuple(sorted(tuple(map(rank.__getitem__, row)) for row in ranked)))
    return min(forms)


def classify(instance: Instance, cells: Sequence[tuple[str, str]], cache: OutputCache) -> Witnesses:
    """Each (rule name, property name) cell's first (index, profile,
    certificate) over every profile of `instance`, or None where none
    violates it: what `_first_witnesses` gives on the unreduced stream
    `enumerate(enumerate_profiles(instance))`, found over fewer profiles.

    The object representatives are one profile R per object-relabelling
    orbit: f(τR) = τf(R) and f(στR) = στf(R) give f(στR) = σf(τR), so a
    neutrality violation anywhere in the orbit shows at R.  Relabelling
    acts freely on strict profiles, so the profiles whose first order is
    the object tuple are one per orbit; they are the first (m!)^(n-1) in
    canonical order, each the first of its orbit.  Agent and object
    relabellings commute, so for a neutral rule f anonymity at τR reads
    f(πτR) = τf(πR) against πf(τR) = τπf(R): it holds at τR exactly when
    it holds at R, and a neutral rule anonymous at the representatives is
    anonymous on the whole domain.

    So the neutrality of every rule of `cells` is judged at the object
    representatives, then the anonymity of the rules found neutral.  A rule
    found neutral has every other property invariant under object
    relabelling, so the representatives stand for the domain.  A rule found
    anonymous too has them invariant under relabelling agents and objects
    together, so the profiles that are the first of their joint orbit
    (`orbit_form`) stand for it.  The other cells are walked by class: a
    rule found not neutral over the whole domain, one found neutral but not
    anonymous over the object representatives, and one found both over the
    joint ones.  The first violating profile of the unreduced walk is the
    first of its orbit, whose every member violates, so it is among those
    walked and is found first: witnesses, certificates and indices are
    those of the unreduced walk.

    The domain is refused past the profile guard before any profile is
    built or any rule runs.  Profiles are built for the object
    representatives and, as far as walked, past them for a rule found not
    neutral.  Every check reads the rules through `cache`.
    """
    n, m = instance.num_agents, instance.num_objects
    profiles = enumerate(enumerate_profiles(instance))
    object_firsts = list(itertools.islice(profiles, order_count(m, n - 1, PROFILE_LIMIT)))
    joint_firsts = [(i, p) for i, p in object_firsts if p.ranked == orbit_form(p.ranked)]
    rule_names = list(dict.fromkeys(name for name, _ in cells))
    found = _first_witnesses([(name, "neutrality") for name in rule_names], object_firsts, cache)
    neutral = [name for name in rule_names if found[name, "neutrality"] is None]
    found |= _first_witnesses([(name, "anonymity") for name in neutral], object_firsts, cache)
    anonymous = [name for name in neutral if found[name, "anonymity"] is None]
    for swept, walked in (
        (itertools.chain(object_firsts, profiles), set(rule_names) - set(neutral)),
        (object_firsts, set(neutral) - set(anonymous)),
        (joint_firsts, set(anonymous)),
    ):
        rest = [cell for cell in cells if cell[0] in walked and cell not in found]
        found |= _first_witnesses(rest, swept, cache)
    return {cell: found[cell] for cell in cells}


#: The report of the first sweep run with `use_cache`, returned by later ones.
_table1_memo: Table1Report | None = None


def table1_sweep(use_cache: bool = True) -> Table1Report:
    """Confirm the expected rule-by-axiom classification by exhaustive sweep.

    Every '-' cell must produce a concrete counterexample; every '+' cell
    must hold on all 576 two-agent four-object profiles.  Observed results
    that contradict the expected sign are reported as discrepancies, never
    reconciled.

    Every cell's first counterexample among the 576 comes from one
    `classify` call.  A '-' cell still without a witness is walked on over
    the single-unit domain (four agents, four objects, quota one), whose
    symmetry is not used, counting on from the 576.

    Every check reads the rules through one `OutputCache`.  Its table for
    each rule is filled first, by the rule's kernel on the `ranked` rows of
    the 576 in canonical order, and `rule_seconds` times each fill.  The
    checks look every relabelled or misreported profile up by its rows, so
    profiles are built only where `classify` and the single-unit walk go,
    and assignments only where a check judges one or a certificate names
    one.  The three strategyproofness rows share one misreport scan per
    (rule, profile, agent), kept in the same memo (`OutputCache.scan`): the
    row judged first runs it, and the other two read its witnesses.

    Both domains are within the profile guard.  With `use_cache` the first
    report is kept and returned by every later call with `use_cache`.
    """
    global _table1_memo
    if use_cache and _table1_memo is not None:
        return _table1_memo

    main_instance = canonical_instance(2, 4)
    main_rows = list(orderings(range(4), PROFILE_LIMIT, "(4!)^2 profiles", repeat=2))
    cache = OutputCache()

    rule_seconds = []
    for rule_name in RULE_NAMES:
        kernel = cache.callable(rule_name).kernel
        started = time.perf_counter()
        for ranked in main_rows:
            kernel(main_instance, ranked)
        rule_seconds.append((rule_name, time.perf_counter() - started))

    signs = {
        (name, prop): sign
        for prop in PROPERTY_NAMES
        for name, sign in zip(RULE_NAMES, PROPERTIES[prop].signs, strict=True)
    }
    found = classify(main_instance, list(signs), cache)
    # A '-' cell with no two-agent counterexample concerns single-unit
    # behaviour, so its search goes on there, counting on from the 576.
    main_count = profile_count(2, 4)
    unfound = [cell for cell, sign in signs.items() if sign == "-" and found[cell] is None]
    aux_profiles = enumerate(enumerate_profiles(canonical_instance(4, 4)), main_count)
    found |= _first_witnesses(unfound, aux_profiles, cache)

    cells = []
    for (rule_name, property_name), expected in signs.items():
        witness = found[rule_name, property_name]
        on_main = witness is None or witness[1].instance == main_instance
        cells.append(
            TableCell(
                rule=rule_name,
                property_name=property_name,
                expected=expected,
                domain="n=2, m=4, c=2" if on_main else "n=4, m=4, c=1 (single-unit)",
                profiles_checked=main_count if witness is None else witness[0] + 1,
                witness_orders=None if witness is None else witness[1].orders,
                certificate=None if witness is None else witness[2],
            )
        )

    report = Table1Report(cells=tuple(cells), rule_seconds=tuple(rule_seconds))
    if use_cache:
        _table1_memo = report
    return report


# --------------------------------------------------------------------------
# Scenario replay
# --------------------------------------------------------------------------


def _line(label: str, ok: bool, detail: str | None) -> dict:
    """One checked line of a reproduce report."""
    return {"label": label, "ok": ok, "detail": detail}


def _report(case: str, lines: list[dict], notes: Sequence[str] = ()) -> dict:
    """A reproduce report: it passes when every line does."""
    return {
        "case": case,
        "ok": all(line["ok"] for line in lines),
        "lines": lines,
        "notes": list(notes),
    }


def _fmt_assignment(p: RandomAssignment) -> str:
    """`p` as one line, rows in agent order: "[7/8 1/2 1/4 3/8; 1/8 1/2 3/4 5/8]"."""
    return "[" + "; ".join(" ".join(row.values()) for row in _matrix_data(p).values()) + "]"


def _terms_text(terms: Iterable[tuple[Fraction, DiscreteAssignment]]) -> str:
    """A lottery's (weight, discrete assignment) terms as "1/4 * 1.1.1.2, ..."."""
    return ", ".join(f"{format_rational(w)} * {'.'.join(d.owners)}" for w, d in terms)


def _lottery(terms: Sequence[tuple[Fraction, DiscreteAssignment]]) -> RandomAssignment:
    """The weighted sum of a lottery's terms, discrete assignments of one instance."""
    instance = terms[0][1].instance
    rows = [[0] * instance.num_objects for _ in instance.agents]
    for weight, d in terms:
        for j, owner in enumerate(d.owners):
            rows[instance.agent_index(owner)][j] += weight
    return RandomAssignment(instance, rows)


def _eq_line(label: str, got, want, fmt=str) -> dict:
    ok = got == want
    detail = f"computed {fmt(got)}" if ok else f"computed {fmt(got)}, expected {fmt(want)}"
    return _line(label, ok, detail)


def _matrix_line(label: str, got: RandomAssignment, rows: Sequence[Sequence]) -> dict:
    """Does `got` equal the recorded matrix `rows` (ints or Fractions)?"""
    return _eq_line(label, got, RandomAssignment(got.instance, rows), fmt=_fmt_assignment)


def _manipulation_lines(
    label: str, found: Manipulation | None, witness, want, rows: Sequence[Sequence]
) -> list[dict]:
    """Is `witness(found)` the recorded misreport `want`?  And, when a
    manipulation was found, is its outcome the recorded matrix `rows`?"""
    lines = [_eq_line(label, None if found is None else witness(found), want)]
    if found is not None:
        label = "manipulated outcome matches the recorded matrix"
        lines.append(_matrix_line(label, found.manipulated, rows))
    return lines


#: The two-agent profile of `figure1` and `expost`, whose top objects
#: interleave, and its recorded multi-unit eating outcome.
_INTERLEAVED = PreferenceProfile(
    instance=canonical_instance(2, 4),
    orders=(("o1", "o2", "o3", "o4"), ("o3", "o2", "o4", "o1")),
)
_INTERLEAVED_MPS = (
    (Fraction(7, 8), Fraction(1, 2), Fraction(1, 4), Fraction(3, 8)),
    (Fraction(1, 8), Fraction(1, 2), Fraction(3, 4), Fraction(5, 8)),
)
_MPS_LABEL = "multi-unit eating outcome matches the recorded matrix"


def _reproduce_figure1() -> dict:
    trace = mps_trace(_INTERLEAVED)
    lines = [
        _matrix_line(_MPS_LABEL, trace.assignment, _INTERLEAVED_MPS),
        _eq_line(
            "eating breakpoints are 1/2, 3/4, 7/8, 9/8",
            trace.breakpoints,
            (Fraction(1, 2), Fraction(3, 4), Fraction(7, 8), Fraction(9, 8)),
            fmt=lambda bs: "(" + ", ".join(format_rational(b) for b in bs) + ")",
        ),
    ]
    # The illustration this scenario is drawn from also prints a closing
    # matrix [[3/4,1/2,1/4,1/4],[1/4,1/2,3/4,3/4]]; its rows sum to 7/4 and
    # 9/4 instead of the quota 2, so it cannot be the eating outcome.  The
    # check below pins that transcription slip so it is flagged, not
    # silently absorbed.
    caption = (
        (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(3, 4)),
    )
    caption_bad = all(
        sum(row) != _INTERLEAVED.instance.quota for row in caption
    ) and RandomAssignment(_INTERLEAVED.instance, caption) != trace.assignment
    lines.append(
        _line(
            "closing matrix printed with the illustration is a transcription slip",
            caption_bad,
            "its rows sum to 7/4 and 9/4 (quota is 2); the computed matrix above "
            "is the consistent value",
        )
    )
    return _report("figure1", lines)


def _reproduce_expost() -> dict:
    profile = _INTERLEAVED
    p = mps(profile)
    lines = [_matrix_line(_MPS_LABEL, p, _INTERLEAVED_MPS)]
    balanced = is_ex_post_efficient(p, profile)
    lines.append(
        _line(
            "not ex-post efficient over balanced discrete assignments",
            not balanced.holds,
            f"SD-efficient balanced assignments: "
            f"{[ '.'.join(d.owners) for d in balanced.survivors ]}",
        )
    )
    unbalanced = is_ex_post_efficient(p, profile, allow_unbalanced=True)
    notes = []
    if unbalanced.holds:
        terms = _terms_text(unbalanced.decomposition)
        notes.append(
            "The recorded claim says the outcome stays outside the convex hull "
            "even when unbalanced assignments are allowed, but an exact "
            f"decomposition exists: {terms}.  Every assignment used is itself "
            "SD-efficient (screened with row sums pinned to its bundle sizes), "
            "so the recorded claim does not hold; see the README section "
            "'Known discrepancies' for the analysis."
        )
    lines.append(
        _line(
            "recorded claim: still not ex-post efficient when unbalanced "
            "assignments are allowed",
            not unbalanced.holds,
            "observed: a decomposition over SD-efficient unbalanced assignments "
            "exists" if unbalanced.holds else None,
        )
    )
    return _report("expost", lines, notes)


def _reproduce_pareto_decomp() -> dict:
    instance = canonical_instance(2, 4)
    profile = PreferenceProfile(
        instance=instance,
        orders=(("o1", "o2", "o3", "o4"), ("o2", "o1", "o4", "o3")),
    )
    p = mps(profile)
    half = Fraction(1, 2)
    label = "multi-unit eating outcome is the all-1/2 matrix"
    lines = [_matrix_line(label, p, [[half] * 4, [half] * 4])]
    terms = decompose_lottery(p)
    lines.append(
        _line(
            "lottery decomposition has two 1/2-weight terms and re-sums exactly",
            len(terms) == 2 and all(w == half for w, _ in terms) and _lottery(terms) == p,
            "terms: " + _terms_text(terms),
        )
    )
    # Recorded pair of discrete assignments witnessing that SOME
    # decomposition of this outcome uses only SD-dominated assignments; each
    # dominator `is_sd_efficient` returns is replayed.
    recorded = [
        (half, DiscreteAssignment(instance, ("1", "2", "2", "1"))),
        (half, DiscreteAssignment(instance, ("2", "1", "1", "2"))),
    ]
    pair = [discrete_to_random(d) for _, d in recorded]
    verdicts = [(q, is_sd_efficient(q, profile)) for q in pair]
    both_dominated = all(not v and sd_dominates(v.dominator, q, profile) for q, v in verdicts)
    lines.append(
        _line(
            "the recorded half/half pair re-sums to the outcome and both of its "
            "assignments are SD-dominated",
            _lottery(recorded) == p and both_dominated,
            "pair: 1.2.2.1 and 2.1.1.2",
        )
    )
    return _report("pareto-decomp", lines)


def _reproduce_theorem1() -> dict:
    instance = Instance(agents=("1", "2"), objects=("a", "b", "c", "d"), quota=2)
    profile = PreferenceProfile(
        instance=instance, orders=(("a", "b", "c", "d"), ("b", "c", "a", "d"))
    )
    half = Fraction(1, 2)
    lines = [
        _matrix_line(
            "one-at-a-time eating outcome matches the recorded matrix",
            ops(profile),
            [[1, 0, half, half], [0, 1, half, half]],
        ),
        *_manipulation_lines(
            "agent 1 has the recorded strict-SD misreport b,a,c,d",
            find_weak_sd_manipulation(ops, profile, "1"),
            lambda found: found.misreport_of("1"),
            ("b", "a", "c", "d"),
            [[1, half, 0, half], [0, half, 1, half]],
        ),
    ]
    return _report("theorem1", lines)


def _reproduce_theorem2() -> dict:
    instance = Instance(
        agents=("1", "2", "3", "4"), objects=("a", "b", "c", "d"), quota=1
    )
    r1 = ("a", "b", "c", "d")
    r2 = ("b", "c", "a", "d")
    profile = PreferenceProfile(instance=instance, orders=(r1, r1, r2, r2))
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    lines = [
        _matrix_line(
            "single-unit eating outcome matches the recorded matrix",
            mps(profile),
            [
                [half, 0, quarter, quarter],
                [half, 0, quarter, quarter],
                [0, half, quarter, quarter],
                [0, half, quarter, quarter],
            ],
        ),
        *_manipulation_lines(
            "coalition {1,2} has the recorded joint misreport b,a,c,d",
            find_group_manipulation(mps, profile, ("1", "2")),
            lambda found: found.misreports,
            (("1", ("b", "a", "c", "d")), ("2", ("b", "a", "c", "d"))),
            [
                [half, quarter, 0, quarter],
                [half, quarter, 0, quarter],
                [0, quarter, half, quarter],
                [0, quarter, half, quarter],
            ],
        ),
    ]
    return _report("theorem2", lines)


def _reproduce_example1() -> dict:
    instance = canonical_instance(2, 4)
    profile = PreferenceProfile(
        instance=instance,
        orders=(("o1", "o2", "o3", "o4"), ("o2", "o1", "o3", "o4")),
    )
    half = Fraction(1, 2)
    p = RandomAssignment(instance, ((1, 0, half, half), (0, 1, half, half)))
    own = p.allocation("1")
    other = p.allocation("2")
    order = profile.order_of("1")
    lines = [
        _eq_line(
            "agent 1 SD-prefers their allocation to agent 2's",
            sd_compare(own, other, order),
            SdVerdict.FIRST_STRICTLY_DOMINATES,
            fmt=lambda v: v.value,
        ),
        _eq_line(
            "agent 1 lexicographically prefers their allocation to agent 2's",
            dl_compare(own, other, order),
            DlVerdict.FIRST,
            fmt=lambda v: v.value,
        ),
    ]
    return _report("example1", lines)


def _reproduce_table1() -> dict:
    report = table1_sweep()
    matched = sum(cell.matched for cell in report.cells)
    total = len(report.cells)
    lines = [_line(f"{matched}/{total} classification cells confirmed", matched == total, None)]
    notes = []
    for cell in report.discrepancies:
        lines.append(
            _line(
                f"{cell.rule} x {cell.property_name}: expected '{cell.expected}', "
                f"observed {cell.observed}",
                False,
                f"domain {cell.domain}; witness {witness_text(cell.witness_orders)}",
            )
        )
        if cell.rule == "mps" and cell.property_name == "dl-strategyproofness":
            notes.append(
                "The recorded classification marks multi-unit eating as "
                "lexicographically strategyproof, but the sweep finds "
                "counterexamples (misreporting can reroute a rival's eating "
                "path and raise the manipulator's share of their top object); "
                "see the README section 'Known discrepancies' for the "
                "analysis."
            )
    return _report("table1", lines, notes)


_REPRODUCE_CASES: dict[str, Callable[[], dict]] = {
    "figure1": _reproduce_figure1,
    "expost": _reproduce_expost,
    "pareto-decomp": _reproduce_pareto_decomp,
    "theorem1": _reproduce_theorem1,
    "theorem2": _reproduce_theorem2,
    "example1": _reproduce_example1,
    "table1": _reproduce_table1,
}

REPRODUCE_CASE_IDS: tuple[str, ...] = tuple(_REPRODUCE_CASES)


def reproduce(case_id: str) -> dict:
    """Replay a named reference scenario and diff against recorded values.

    The report is the dict `mudra reproduce --json` prints: `case`, `ok`,
    `lines` (each with `label`, `ok`, `detail`) and `notes`.
    """
    runner = _REPRODUCE_CASES.get(case_id)
    if runner is None:
        known = ", ".join(REPRODUCE_CASE_IDS)
        raise ValueError(f"unknown case {case_id!r}; available cases: {known}")
    return runner()
