"""Command-line front-end.

Verbs: compute, check, manipulate, reproduce, table1, enumerate.  Outputs
are JSON when --json is passed, aligned human tables otherwise.

Exit codes: 0 all expectations met, 1 discrepancy found (a failing check,
a reproduction diff, a sweep mismatch), 2 guard refusal (domain too large
for exact enumeration), 3 input error (bad flags, malformed files).
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Iterable
from contextlib import contextmanager

import click

from mudra.harness import (
    PROPERTIES,
    RULE_NAMES,
    RULES,
    canonical_instance,
    enumerate_profiles,
    reproduce as run_reproduce,
    table1_sweep,
)
from mudra.model import GuardExceeded, RandomAssignment, discrete_to_random, require_feasible
from mudra.rules import mps_trace, ops_trace, serial_dictator
from mudra.serialize import (
    SchemaError,
    assignment_to_data,
    canonical_dumps,
    format_rational,
    load_assignment,
    load_profile,
    profile_to_data,
)
from mudra.strategy import (
    Manipulation,
    find_dl_manipulation,
    find_group_manipulation,
    find_sd_manipulation,
    find_weak_sd_manipulation,
)

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_GUARD = 2
EXIT_INPUT = 3

# Bad flags and malformed inputs are the same failure class for callers.
click.UsageError.exit_code = EXIT_INPUT


@contextmanager
def _exit_codes():
    """Map library refusals and input errors onto the CLI exit contract."""
    try:
        yield
    except GuardExceeded as exc:
        click.echo(f"refused: {exc}", err=True)
        raise SystemExit(EXIT_GUARD) from exc
    except (SchemaError, ValueError) as exc:
        click.echo(f"input error: {exc}", err=True)
        raise SystemExit(EXIT_INPUT) from exc


def _emit(data: dict, as_json: bool, human: str) -> None:
    click.echo(canonical_dumps(data) if as_json else human)


def _matrix_table(p: RandomAssignment) -> str:
    inst = p.instance
    header = [""] + list(inst.objects)
    body = [
        [agent] + [format_rational(v) for v in p.matrix[i]]
        for i, agent in enumerate(inst.agents)
    ]
    widths = [
        max(len(row[j]) for row in [header] + body) for j in range(len(header))
    ]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        for row in [header] + body
    )


def _trace_lines(trace) -> list[str]:
    inst = trace.profile.instance
    lines = []
    for phase in trace.phases:
        eats = " | ".join(
            f"{agent} eats {','.join(o for o in inst.objects if o in phase.eating[i])}"
            for i, agent in enumerate(inst.agents)
        )
        lines.append(
            f"phase [{format_rational(phase.start)}, {format_rational(phase.end)}): {eats}"
        )
    return lines


def _trace_data(trace) -> list[dict]:
    inst = trace.profile.instance
    return [
        {
            "start": format_rational(phase.start),
            "end": format_rational(phase.end),
            "eating": {
                agent: [o for o in inst.objects if o in phase.eating[i]]
                for i, agent in enumerate(inst.agents)
            },
        }
        for phase in trace.phases
    ]


def _manipulation_data(m: Manipulation) -> dict:
    return {
        "kind": m.kind.value,
        "coalition": list(m.coalition),
        "misreports": {agent: list(order) for agent, order in m.misreports},
        "truthful": assignment_to_data(m.truthful),
        "manipulated": assignment_to_data(m.manipulated),
    }


def _echo_batched(chunks: Iterable[str], size: int = 2048) -> None:
    """Write `chunks` in batches of `size`, without newlines of its own."""
    chunks = iter(chunks)
    while batch := "".join(itertools.islice(chunks, size)):
        click.echo(batch, nl=False)


def _parse_csv(value: str, what: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in value.split(",") if part.strip())
    if not items:
        raise click.UsageError(f"{what} must be a comma-separated list")
    return items


@click.group()
def main() -> None:
    """Exact-arithmetic toolkit for multi-unit random assignment."""


@main.command()
@click.option("--rule", type=click.Choice(RULE_NAMES), required=True)
@click.option(
    "--profile", "profile_path", required=True,
    type=click.Path(exists=True, dir_okay=False),
)
@click.option(
    "--permutation", default=None,
    help="Priority order over agents for the priority rule, e.g. 2,1.",
)
@click.option("--trace", "with_trace", is_flag=True, help="Also emit the eating phases.")
@click.option(
    "--relaxed", is_flag=True,
    help="Accept m != n*quota (eating rules only; quota = ceil(m/n)).",
)
@click.option("--json", "as_json", is_flag=True)
def compute(rule, profile_path, permutation, with_trace, relaxed, as_json):
    """Run an assignment rule on a profile and print the random assignment."""
    with _exit_codes():
        profile = load_profile(profile_path, relaxed=relaxed)
        if permutation is not None and rule != "priority":
            raise click.UsageError("--permutation only applies to --rule priority")
        if with_trace and rule not in ("ops", "mps"):
            raise click.UsageError("--trace only applies to the eating rules (ops, mps)")
        # The trace carries the assignment, so the rule runs once either way.
        trace = (ops_trace if rule == "ops" else mps_trace)(profile) if with_trace else None
        if permutation is not None:
            priority = _parse_csv(permutation, "--permutation")
            output = discrete_to_random(serial_dictator(profile, priority))
        else:
            output = RULES[rule](profile) if trace is None else trace.assignment
        data = {"command": "compute", "rule": rule, **assignment_to_data(output)}
        human = [f"rule: {rule}", _matrix_table(output)]
        if trace is not None:
            data["trace"] = _trace_data(trace)
            human.extend(_trace_lines(trace))
        _emit(data, as_json, "\n".join(human))


#: `--property` token -> registry entry, for the properties `check` offers.
_BY_TOKEN = {prop.token: prop for prop in PROPERTIES.values() if prop.token}
PROPERTY_TOKENS = tuple(_BY_TOKEN)


@main.command()
@click.option("--property", "token", type=click.Choice(PROPERTY_TOKENS), required=True)
@click.option(
    "--profile", "profile_path", required=True,
    type=click.Path(exists=True, dir_okay=False),
)
@click.option(
    "--assignment", "assignment_path", default=None,
    type=click.Path(exists=True, dir_okay=False),
)
@click.option("--rule", "rule_name", type=click.Choice(RULE_NAMES), default=None)
@click.option(
    "--allow-unbalanced", is_flag=True,
    help="For ex-post: compete against unbalanced discrete assignments too.",
)
@click.option("--json", "as_json", is_flag=True)
def check(token, profile_path, assignment_path, rule_name, allow_unbalanced, as_json):
    """Check a property of an assignment (or rule) at a profile.

    Exit code 0 when the property holds, 1 when it fails.
    """
    with _exit_codes():
        profile = load_profile(profile_path)
        assignment = None
        if assignment_path is not None:
            assignment = load_assignment(assignment_path, profile.instance)
        prop = _BY_TOKEN[token]
        if allow_unbalanced and token != "ex-post":
            raise click.UsageError("--allow-unbalanced only applies to --property ex-post")
        given = [
            what for what, value in (("assignment", assignment_path), ("rule", rule_name))
            if value is not None
        ]
        if len(given) > 1:
            raise click.UsageError("--assignment and --rule cannot be given together")
        for what in given:
            if what not in prop.judges:
                raise click.UsageError(f"--{what} does not apply to --property {token}")
        if not given and "profile" not in prop.judges:
            wanted = " or ".join(f"--{what}" for what in prop.judges)
            raise click.UsageError(f"--property {token} requires {wanted}")

        started = time.perf_counter()
        if assignment is not None:
            require_feasible(assignment)
        rule = None if rule_name is None else RULES[rule_name]
        extra = {"allow_unbalanced": True} if allow_unbalanced else {}
        holds, certificate = prop.check(profile, assignment, rule, **extra)
        seconds = time.perf_counter() - started
        data = {
            "command": "check",
            "property": token,
            "verdict": holds,
            "certificate": certificate,
            "seconds": seconds,
        }
        human = [f"property: {token}", f"verdict: {'holds' if holds else 'FAILS'}"]
        if certificate:
            human.append(f"certificate: {canonical_dumps(certificate)}")
        _emit(data, as_json, "\n".join(human))
        raise SystemExit(EXIT_OK if holds else EXIT_DISCREPANCY)


_KIND_FINDERS = {
    "sd": find_sd_manipulation,
    "weak-sd": find_weak_sd_manipulation,
    "dl": find_dl_manipulation,
}


@main.command()
@click.option("--rule", "rule_name", type=click.Choice(RULE_NAMES), required=True)
@click.option(
    "--profile", "profile_path", required=True,
    type=click.Path(exists=True, dir_okay=False),
)
@click.option("--agent", default=None, help="Restrict the search to this agent.")
@click.option("--coalition", default=None, help="Agents of the coalition, e.g. 1,2.")
@click.option(
    "--kind", type=click.Choice(("sd", "weak-sd", "dl", "group")), required=True,
)
@click.option("--json", "as_json", is_flag=True)
def manipulate(rule_name, profile_path, agent, coalition, kind, as_json):
    """Search for a profitable misreport against a rule.

    Exits 0 whether or not a manipulation exists; the report says which.
    """
    with _exit_codes():
        profile = load_profile(profile_path)
        rule = RULES[rule_name]
        if kind == "group":
            if coalition is None:
                raise click.UsageError("--kind group requires --coalition")
            if agent is not None:
                raise click.UsageError("--agent does not apply to --kind group")
            members = _parse_csv(coalition, "--coalition")
            unknown = [a for a in members if a not in profile.instance.agents]
            if unknown:
                raise click.UsageError(f"unknown coalition member(s): {','.join(unknown)}")
            found = find_group_manipulation(rule, profile, members)
        else:
            if coalition is not None:
                raise click.UsageError("--coalition requires --kind group")
            finder = _KIND_FINDERS[kind]
            if agent is not None:
                if agent not in profile.instance.agents:
                    raise click.UsageError(f"unknown agent {agent!r}")
                found = finder(rule, profile, agent)
            else:
                found = None
                for candidate in profile.instance.agents:
                    found = finder(rule, profile, candidate)
                    if found is not None:
                        break
        data = {
            "command": "manipulate",
            "rule": rule_name,
            "kind": kind,
            "found": found is not None,
            "manipulation": None if found is None else _manipulation_data(found),
        }
        if found is None:
            human = "none"
        else:
            reports = "; ".join(
                f"{a}: {','.join(order)}" for a, order in found.misreports
            )
            human = "\n".join(
                [
                    f"manipulation found ({found.kind.value}) for "
                    f"{'coalition' if len(found.coalition) > 1 else 'agent'} "
                    f"{','.join(found.coalition)}",
                    f"misreport {reports}",
                    "truthful:",
                    _matrix_table(found.truthful),
                    "manipulated:",
                    _matrix_table(found.manipulated),
                ]
            )
        _emit(data, as_json, human)


@main.command(name="reproduce")
@click.argument("case_id")
@click.option("--json", "as_json", is_flag=True)
def reproduce_cmd(case_id, as_json):
    """Replay a named reference scenario (figure1, expost, pareto-decomp,
    theorem1, theorem2, example1, table1) and diff against recorded values.

    Exit code 0 when every line matches, 1 when any diff is found.
    """
    with _exit_codes():
        report = run_reproduce(case_id)
        human = [f"case {report.case}: {'OK' if report.ok else 'DIFFS FOUND'}"]
        for line in report.lines:
            human.append(f"  {'PASS' if line.ok else 'FAIL'}  {line.label}")
            if line.detail:
                human.append(f"        {line.detail}")
        for note in report.notes:
            human.append(f"note: {note}")
        _emit(report.to_data(), as_json, "\n".join(human))
        raise SystemExit(EXIT_OK if report.ok else EXIT_DISCREPANCY)


@main.command(name="table1")
@click.option("--json", "as_json", is_flag=True)
def table1_cmd(as_json):
    """Confirm the expected rule-by-axiom classification by exhaustive sweep.

    Exit code 0 when every cell matches its expected sign, 1 otherwise.
    """
    with _exit_codes():
        report = table1_sweep()
        properties = []
        for cell in report.cells:
            if cell.property_name not in properties:
                properties.append(cell.property_name)
        header = ["property"] + list(RULE_NAMES)
        rows = []
        for prop in properties:
            row = [prop]
            for rule in RULE_NAMES:
                cell = report.cell(rule, prop)
                shown = "-" if cell.observed == "counterexample-found" else "+"
                row.append(shown if cell.matched else f"{shown}!")
            rows.append(row)
        widths = [
            max(len(r[j]) for r in [header] + rows) for j in range(len(header))
        ]
        human = [
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            for row in [header] + rows
        ]
        for cell in report.discrepancies:
            witness = (
                "no counterexample on full sweep"
                if cell.witness_orders is None
                else " | ".join(",".join(o) for o in cell.witness_orders)
            )
            human.append(
                f"DISCREPANCY {cell.rule} x {cell.property_name}: expected "
                f"'{cell.expected}', observed {cell.observed} ({witness}; "
                f"domain {cell.domain})"
            )
        human.append(
            "wall-clock per rule over the main domain: "
            + ", ".join(f"{rule} {secs:.2f}s" for rule, secs in report.rule_seconds)
        )
        _emit(report.to_data(), as_json, "\n".join(human))
        raise SystemExit(EXIT_OK if report.ok else EXIT_DISCREPANCY)


@main.command(name="enumerate")
@click.option("--n", "n", type=int, required=True, help="Number of agents.")
@click.option("--m", "m", type=int, required=True, help="Number of objects.")
@click.option("--c", "quota", type=int, default=None, help="Quota (default ceil(m/n)).")
@click.option("--json", "as_json", is_flag=True)
def enumerate_cmd(n, m, quota, as_json):
    """Enumerate all strict preference profiles on the canonical instance.

    Profiles are written as they are generated, never held all at once.
    """
    with _exit_codes():
        instance = canonical_instance(n, m, quota)
        profiles = enumerate_profiles(instance)
        count = math.factorial(m) ** n
        if as_json:
            # The text of canonical_dumps on the whole listing (then echo's
            # newline), one profile at a time; head and tail are those of a
            # one-item listing.
            head, tail = canonical_dumps(
                {"command": "enumerate", "count": count, "profiles": [0]}
            ).split("    0")
            items = (
                ("    " if index == 0 else ",\n    ")
                + canonical_dumps(profile_to_data(p)).rstrip("\n").replace("\n", "\n    ")
                for index, p in enumerate(profiles)
            )
            _echo_batched(itertools.chain([head], items, [tail, "\n"]))
        else:
            lines = (
                f"{index}: "
                + " | ".join(f"{a}: {'>'.join(o)}" for a, o in zip(instance.agents, p.orders))
                + "\n"
                for index, p in enumerate(profiles)
            )
            _echo_batched(itertools.chain(lines, [f"total: {count}\n"]))


if __name__ == "__main__":
    main()
