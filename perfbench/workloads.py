"""The three workloads: inputs made from a seed, ops run in a closed loop, checks.

An op is one call into mudra, issued only after the previous one returned,
the way one user runs one command after another.  ``verdicts`` and
``misreport`` ops are ``mudra`` command lines run in-process through
``mudra.cli.main``; the ``table1`` op is one full ``harness.table1_sweep``.
Every op's output is checked after the loop (never inside the timed
region): an op fails when it raises, exits outside the documented 0/1 codes,
or returns a certificate that :mod:`replay` cannot replay.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import replay

RULE_NAMES = ("uniform", "priority", "rp", "ops", "mps")

#: (n, m, quota) of the instances each workload draws profiles on.
VERDICT_SHAPES = ((4, 8, 2), (6, 6, 1), (7, 7, 1), (8, 8, 1))
MISREPORT_SHAPES = ((3, 6, 2),) + ((4, 4, 1),) * 12

VERDICT_PROPERTIES = ("sd-efficient", "sd-ef", "weak-sd-ef")
MANIPULATION_KINDS = ("sd", "weak-sd", "dl")

#: Seconds one round of each workload takes on the reference machine (2-core
#: 2.1 GHz VM, Python 3.11, quiet host), used to turn --seconds into a fixed
#: number of rounds.
ROUND_SECONDS = {"verdicts": 3.3, "misreport": 7.0}

#: The only table1 cell whose observed sign contradicts the expected one.
KNOWN_DISCREPANCY = ("mps", "dl-strategyproofness")


@dataclass
class Op:
    """One command line, or the table1 sweep when `argv` is None."""

    argv: list[str] | None
    #: "table1", "compute", "check" or "manipulate".
    kind: str
    #: Key of the profile in :attr:`Inputs.profiles`.
    profile: str | None = None
    rule: str | None = None
    #: The checked property or the manipulation kind.
    detail: str | None = None
    #: For compute ops: where the printed assignment is saved for later checks.
    save_to: str | None = None


@dataclass
class Result:
    seconds: float
    code: int | None = None
    stdout: str = ""
    error: str | None = None
    report: object = None


@dataclass
class Inputs:
    workload: str
    ops: list[Op] = field(default_factory=list)
    profiles: dict[str, list[list[str]]] = field(default_factory=dict)


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _random_orders(rng: random.Random, n: int, m: int) -> list[list[str]]:
    objects = [f"o{j}" for j in range(1, m + 1)]
    return [rng.sample(objects, m) for _ in range(n)]


def make_inputs(workload: str, seed: int, seconds: float, workdir: Path) -> Inputs:
    """Draw the profiles, write them as mudra profile files, list the ops."""
    inputs = Inputs(workload)
    if workload == "table1":
        inputs.ops.append(Op(argv=None, kind="table1"))
        return inputs
    rng = random.Random(f"{workload}:{seed}")
    shapes = VERDICT_SHAPES if workload == "verdicts" else MISREPORT_SHAPES
    for r in range(rounds_for(workload, seconds)):
        for i, (n, m, quota) in enumerate(shapes):
            key = f"{r}.{i}-{n}x{m}c{quota}"
            orders = _random_orders(rng, n, m)
            inputs.profiles[key] = orders
            path = workdir / f"{key}.json"
            path.write_text(json.dumps({
                "objects": [f"o{j}" for j in range(1, m + 1)],
                "quota": quota,
                "preferences": {str(a + 1): o for a, o in enumerate(orders)},
            }))
            if workload == "verdicts":
                inputs.ops.extend(_verdict_ops(key, str(path), workdir))
            else:
                agent = str(rng.randint(1, n))
                inputs.ops.extend(_misreport_ops(key, str(path), agent, n == 4))
    return inputs


def _verdict_ops(key: str, path: str, workdir: Path) -> list[Op]:
    ops = []
    for rule in RULE_NAMES:
        saved = str(workdir / f"{key}-{rule}.out.json")
        ops.append(Op(["compute", "--rule", rule, "--profile", path, "--json"],
                      "compute", key, rule, save_to=saved))
    for rule in RULE_NAMES:
        saved = str(workdir / f"{key}-{rule}.out.json")
        for prop in VERDICT_PROPERTIES:
            ops.append(Op(
                ["check", "--property", prop, "--profile", path, "--assignment", saved, "--json"],
                "check", key, rule, prop,
            ))
    return ops


def _misreport_ops(key: str, path: str, agent: str, with_group: bool) -> list[Op]:
    """One agent's scans (a scan over all agents stops at the first agent with
    a manipulation, so its length would swing with the profile)."""
    ops = []
    for rule in RULE_NAMES:
        for kind in MANIPULATION_KINDS:
            ops.append(Op(["manipulate", "--rule", rule, "--profile", path, "--kind",
                           kind, "--agent", agent, "--json"],
                          "manipulate", key, rule, kind))
        if with_group:
            ops.append(Op(["manipulate", "--rule", rule, "--profile", path, "--kind",
                           "group", "--coalition", "1,2", "--json"],
                          "manipulate", key, rule, "group"))
    return ops


# -- running ----------------------------------------------------------------


def _run_cli(argv: list[str]) -> tuple[int | None, str]:
    from mudra.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main.main(args=argv, prog_name="mudra")
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return code, out.getvalue()


def run_op(op: Op, clock: Callable[[], float] = time.perf_counter) -> Result:
    """Run one op and time it by `clock`; the saving of compute output is not timed."""
    if op.argv is None:
        from mudra.harness import table1_sweep

        start = clock()
        try:
            report = table1_sweep(use_cache=False)
        except Exception as exc:  # an op that raises counts as failed
            return Result(clock() - start, error=repr(exc))
        return Result(clock() - start, code=0, report=report)
    start = clock()
    try:
        code, stdout = _run_cli(op.argv)
    except Exception as exc:
        return Result(clock() - start, error=repr(exc))
    took = clock() - start
    if op.save_to is not None and code == 0:
        Path(op.save_to).write_text(stdout)
    return Result(took, code=code, stdout=stdout)


def run_ops(ops: list[Op]) -> list[Result]:
    return [run_op(op) for op in ops]


# -- checking ---------------------------------------------------------------


def verdict_bits(op: Op, result: Result) -> str:
    """The verdict an op reached, without any certificate values."""
    if result.error is not None or result.code not in (0, 1):
        return "E"
    if op.kind == "table1":
        return "".join(
            "-" if cell.observed == "counterexample-found" else "+"
            for cell in result.report.cells
        )
    if op.kind == "compute":
        return "c"
    data = json.loads(result.stdout)
    if op.kind == "check":
        return "1" if data["verdict"] else "0"
    return "1" if data["found"] else "0"


def digest(ops: list[Op], results: list[Result]) -> str:
    text = "|".join(verdict_bits(op, res) for op, res in zip(ops, results))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_op(op: Op, result: Result, inputs: Inputs) -> str | None:
    """None when the op's output is correct, otherwise why it is not."""
    if result.error is not None:
        return f"raised {result.error}"
    if op.kind == "table1":
        return _check_table1(result.report)
    if result.code not in (0, 1):
        return f"exit code {result.code}"
    profile = replay.profile_of(inputs.profiles[op.profile])
    data = json.loads(result.stdout)
    if op.kind == "compute":
        if result.code != 0:
            return "compute exited 1"
        feasible = replay.validate_assignment(
            replay.matrix_of(data["matrix"], profile.instance)
        )
        return None if feasible else f"infeasible output: {feasible.reason}"
    if op.kind == "check":
        if data["verdict"] != (result.code == 0):
            return "exit code disagrees with the printed verdict"
        if data["verdict"]:
            return None
        saved = json.loads(Path(op.argv[op.argv.index("--assignment") + 1]).read_text())
        output = replay.matrix_of(saved["matrix"], profile.instance)
        cert = data["certificate"]
        if op.detail == "sd-efficient":
            return replay.dominator(output, cert["dominator"], profile)
        return replay.envy(output, cert, profile, weak=op.detail == "weak-sd-ef")
    # manipulate
    if result.code != 0:
        return "manipulate exited 1"
    if not data["found"]:
        return None
    m = data["manipulation"]
    if "--agent" in op.argv and list(m["misreports"]) != [op.argv[op.argv.index("--agent") + 1]]:
        return "manipulation is not for the requested agent"
    inst = profile.instance
    return replay.misreport(
        op.rule, profile, {a: tuple(o) for a, o in m["misreports"].items()}, m["kind"],
        replay.matrix_of(m["truthful"]["matrix"], inst),
        replay.matrix_of(m["manipulated"]["matrix"], inst),
    )


def _check_table1(report) -> str | None:
    cells = report.cells
    if len(cells) != 50:
        return f"{len(cells)} cells instead of 50"
    wrong = [(c.rule, c.property_name) for c in cells if not c.matched]
    if wrong != [KNOWN_DISCREPANCY]:
        return f"discrepancies {wrong}, expected only {KNOWN_DISCREPANCY}"
    for cell in cells:
        if cell.observed == "counterexample-found":
            reason = replay.table1_cell(cell)
            if reason is not None:
                return f"{cell.rule} x {cell.property_name}: {reason}"
    return None
