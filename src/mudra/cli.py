"""Command-line front-end: flags, input checks and rendering.

Verbs: compute, check, manipulate, reproduce, table1, enumerate.  Each verb
but enumerate builds one result dict from the library's answer and prints it
as JSON when --json is passed; otherwise a renderer draws the human text,
aligned tables included, from that same dict.

Exit codes: 0 all expectations met, 1 discrepancy found (a failing check,
a reproduction diff, a sweep mismatch), 2 guard refusal (domain too large
for exact enumeration), 3 input error (bad flags, malformed files).
"""

from __future__ import annotations

import functools
import itertools
import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager

import click

from mudra.harness import (
    PROPERTIES,
    RULE_NAMES,
    RULES,
    canonical_instance,
    enumerate_profiles,
    profile_count,
    reproduce as run_reproduce,
    table1_sweep,
    witness_text,
)
from mudra.model import (
    GuardExceeded,
    PreferenceProfile,
    discrete_to_random,
    require_feasible,
)
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
# Imported under this name, which the bench's tracer test reads.
from mudra.strategy import FINDERS as _KIND_FINDERS
from mudra.strategy import Manipulation, find_group_manipulation, first_manipulation

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


def _emit(data: dict, as_json: bool, render: Callable[[dict], Iterable[str]]) -> None:
    """Print `data` as JSON, or the human lines `render` draws from it."""
    click.echo(canonical_dumps(data) if as_json else "\n".join(render(data)))


def _aligned(rows: list[list[str]], justify=str.rjust) -> list[str]:
    """`rows` as text lines, each column padded to its widest cell."""
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    return ["  ".join(justify(cell, w) for cell, w in zip(row, widths)) for row in rows]


def _matrix_lines(matrix: dict) -> list[str]:
    """The table of an `assignment_to_data` matrix: agents down, objects across."""
    objects = list(next(iter(matrix.values())))
    return _aligned([["", *objects]] + [[agent, *row.values()] for agent, row in matrix.items()])


def _trace_data(trace) -> list[dict]:
    inst = trace.profile.instance
    return [
        {
            "start": format_rational(phase.start),
            "end": format_rational(phase.end),
            "eating": {
                agent: [inst.objects[j] for j in sorted(columns)]
                for agent, columns in zip(inst.agents, phase.eating)
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


def _nested(data, depth: int) -> str:
    """The text of `data` in canonical_dumps, as it reads nested `depth`
    levels deep: its lines after the first indented by 4 * `depth`."""
    return canonical_dumps(data).rstrip("\n").replace("\n", "\n" + "    " * depth)


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
@click.option("--json", "as_json", is_flag=True)
def compute(rule, profile_path, permutation, with_trace, as_json):
    """Run an assignment rule on a profile and print the random assignment."""
    with _exit_codes():
        profile = load_profile(profile_path)
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
        if trace is not None:
            data["trace"] = _trace_data(trace)
        _emit(data, as_json, _render_compute)


def _render_compute(data: dict) -> Iterator[str]:
    yield f"rule: {data['rule']}"
    yield from _matrix_lines(data["matrix"])
    for phase in data.get("trace", ()):
        eats = " | ".join(
            f"{agent} eats {','.join(objects)}" for agent, objects in phase["eating"].items()
        )
        yield f"phase [{phase['start']}, {phase['end']}): {eats}"


#: `--property` token -> registry entry, for the properties `check` offers.
_BY_TOKEN = {prop.token: prop for prop in PROPERTIES.values() if prop.token}


@main.command()
@click.option("--property", "token", type=click.Choice(tuple(_BY_TOKEN)), required=True)
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
        _emit(data, as_json, _render_check)
        raise SystemExit(EXIT_OK if holds else EXIT_DISCREPANCY)


def _render_check(data: dict) -> Iterator[str]:
    yield f"property: {data['property']}"
    yield f"verdict: {'holds' if data['verdict'] else 'FAILS'}"
    if data["certificate"]:
        yield f"certificate: {canonical_dumps(data['certificate'])}"


@main.command()
@click.option("--rule", "rule_name", type=click.Choice(RULE_NAMES), required=True)
@click.option(
    "--profile", "profile_path", required=True,
    type=click.Path(exists=True, dir_okay=False),
)
@click.option("--agent", default=None, help="Restrict the search to this agent.")
@click.option("--coalition", default=None, help="Agents of the coalition, e.g. 1,2.")
@click.option("--kind", type=click.Choice((*_KIND_FINDERS, "group")), required=True)
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
            if agent is not None and agent not in profile.instance.agents:
                raise click.UsageError(f"unknown agent {agent!r}")
            agents = profile.instance.agents if agent is None else (agent,)
            found = first_manipulation(rule, profile, kind, agents)
        data = {
            "command": "manipulate",
            "rule": rule_name,
            "kind": kind,
            "found": found is not None,
            "manipulation": None if found is None else _manipulation_data(found),
        }
        _emit(data, as_json, _render_manipulate)


def _render_manipulate(data: dict) -> Iterator[str]:
    found = data["manipulation"]
    if found is None:
        yield "none"
        return
    coalition = found["coalition"]
    yield (
        f"manipulation found ({found['kind']}) for "
        f"{'coalition' if len(coalition) > 1 else 'agent'} {','.join(coalition)}"
    )
    yield "misreport " + "; ".join(
        f"{agent}: {','.join(order)}" for agent, order in found["misreports"].items()
    )
    yield "truthful:"
    yield from _matrix_lines(found["truthful"]["matrix"])
    yield "manipulated:"
    yield from _matrix_lines(found["manipulated"]["matrix"])


@main.command(name="reproduce")
@click.argument("case_id")
@click.option("--json", "as_json", is_flag=True)
def reproduce_cmd(case_id, as_json):
    """Replay a named reference scenario (figure1, expost, pareto-decomp,
    theorem1, theorem2, example1, table1) and diff against recorded values.

    Exit code 0 when every line matches, 1 when any diff is found.
    """
    with _exit_codes():
        data = run_reproduce(case_id)
        _emit(data, as_json, _render_reproduce)
        raise SystemExit(EXIT_OK if data["ok"] else EXIT_DISCREPANCY)


def _render_reproduce(data: dict) -> Iterator[str]:
    yield f"case {data['case']}: {'OK' if data['ok'] else 'DIFFS FOUND'}"
    for line in data["lines"]:
        yield f"  {'PASS' if line['ok'] else 'FAIL'}  {line['label']}"
        if line["detail"]:
            yield f"        {line['detail']}"
    for note in data["notes"]:
        yield f"note: {note}"


@main.command(name="table1")
@click.option("--json", "as_json", is_flag=True)
def table1_cmd(as_json):
    """Confirm the expected rule-by-axiom classification by exhaustive sweep.

    Exit code 0 when every cell matches its expected sign, 1 otherwise.
    """
    with _exit_codes():
        data = table1_sweep().to_data()
        _emit(data, as_json, _render_table1)
        raise SystemExit(EXIT_OK if data["ok"] else EXIT_DISCREPANCY)


def _render_table1(data: dict) -> Iterator[str]:
    signs: dict[str, dict[str, str]] = {}  # property -> rule -> shown sign
    for cell in data["cells"]:
        shown = "-" if cell["observed"] == "counterexample-found" else "+"
        signs.setdefault(cell["property"], {})[cell["rule"]] = (
            shown if cell["matched"] else f"{shown}!"
        )
    yield from _aligned(
        [["property", *RULE_NAMES]]
        + [[prop, *(row[rule] for rule in RULE_NAMES)] for prop, row in signs.items()],
        str.ljust,
    )
    for cell in data["cells"]:
        if cell["matched"]:
            continue
        yield (
            f"DISCREPANCY {cell['rule']} x {cell['property']}: expected "
            f"'{cell['expected']}', observed {cell['observed']} "
            f"({witness_text(cell['witness'])}; "
            f"domain {cell['domain']})"
        )
    yield "wall-clock per rule over the main domain: " + ", ".join(
        f"{rule} {secs:.2f}s" for rule, secs in data["rule_seconds"].items()
    )


@main.command(name="enumerate")
@click.option("--n", "n", type=int, required=True, help="Number of agents.")
@click.option("--m", "m", type=int, required=True, help="Number of objects.")
@click.option("--json", "as_json", is_flag=True)
def enumerate_cmd(n, m, as_json):
    """Enumerate all strict preference profiles on the canonical instance.

    Profiles are written as they are generated, never held all at once.
    """
    with _exit_codes():
        count = profile_count(n, m)
        instance = canonical_instance(n, m)
        profiles = enumerate_profiles(instance)
        if as_json:
            # The text of canonical_dumps on the whole listing (then echo's
            # newline), one profile at a time; head and tail are those of a
            # one-item listing.  A profile's text is that of its instance
            # with each order's text, dumped once per order, in the place
            # of its agent's null.
            head, tail = canonical_dumps(
                {"command": "enumerate", "count": count, "profiles": [0]}
            ).split("    0")
            truthful = PreferenceProfile(instance, [instance.objects] * n)
            template = {**profile_to_data(truthful), "preferences": dict.fromkeys(instance.agents)}
            pieces = _nested(template, 1).split("null")

            @functools.cache
            def order_text(order):
                return _nested(list(order), 2)

            items = (
                ("    " if index == 0 else ",\n    ")
                + "".join(itertools.chain(*zip(pieces, map(order_text, p.orders)), pieces[-1:]))
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
