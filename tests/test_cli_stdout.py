"""Every verb's stdout and exit code, pinned by digest.

A fixed corpus of invocations runs through `CliRunner` on seeded profiles.
Each invocation's exit code and the SHA-256 of its stdout must equal the
digest recorded in `cli_stdout_digests.json`.  Only timings are masked: the
`table1` wall-clock line, `rule_seconds` and `check`'s `seconds`.

Run this file as a script to print the digests of the current code:
``PYTHONPATH=src python tests/test_cli_stdout.py > tests/cli_stdout_digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from mudra.cli import main
from mudra.harness import REPRODUCE_CASE_IDS, RULE_NAMES, RULES
from mudra.serialize import assignment_to_data, profile_from_data

DIGESTS = Path(__file__).with_name("cli_stdout_digests.json")

#: (agents, objects, quota) of the seeded profiles.
SHAPES = ((2, 4, 2), (3, 3, 1), (3, 6, 2), (4, 4, 1), (2, 6, 3), (4, 8, 2), (6, 6, 1))
#: Shapes small enough for every relabelling and misreport scan.
SMALL = ("2x4c2", "3x3c1")
KINDS = ("sd", "weak-sd", "dl")
ASSIGNMENT_RULES = ("mps", "uniform")
ASSIGNMENT_TOKENS = ("sd-efficient", "ex-post", "unanimity", "perfect", "sd-ef", "weak-sd-ef")


def _name(n: int, m: int, c: int) -> str:
    return f"{n}x{m}c{c}"


def _profile(n: int, m: int, c: int) -> dict:
    rng = random.Random(100 * n + 10 * m + c)
    objects = [f"o{j}" for j in range(1, m + 1)]
    return {
        "objects": objects,
        "quota": c,
        "preferences": {str(i): rng.sample(objects, m) for i in range(1, n + 1)},
    }


def _files() -> dict[str, dict]:
    """Input file name -> JSON content: every profile, and the `mps` and
    `uniform` outputs at each as assignments."""
    files = {}
    for shape in SHAPES:
        name = _name(*shape)
        files[name] = data = _profile(*shape)
        for rule in ASSIGNMENT_RULES:
            files[f"{name}.{rule}"] = assignment_to_data(RULES[rule](profile_from_data(data)))
    files["2x3"] = {
        "objects": ["o1", "o2", "o3"],
        "quota": 2,
        "preferences": {"1": ["o2", "o1", "o3"], "2": ["o2", "o3", "o1"]},
    }
    return files


def _corpus() -> dict[str, list[list[str]]]:
    """Verb -> invocations; `@name` stands for the path of input file `name`."""
    shapes = [_name(*shape) for shape in SHAPES]
    compute = [["compute", "--rule", r, "--profile", f"@{s}"] for s in shapes for r in RULE_NAMES]
    compute += [
        ["compute", "--rule", r, "--profile", f"@{s}", "--trace"]
        for s in shapes for r in ("ops", "mps")
    ]
    compute += [
        ["compute", "--rule", "priority", "--profile", "@3x3c1", "--permutation", "3,1,2"],
        ["compute", "--rule", "ops", "--profile", "@2x3", "--trace"],
    ]
    check = [
        ["check", "--property", t, "--profile", f"@{s}", "--assignment", f"@{s}.{r}"]
        for s in shapes for r in ASSIGNMENT_RULES for t in ASSIGNMENT_TOKENS
        # Ex-post screens thousands of candidates at 4x8 and 6x6.
        if t != "ex-post" or s not in ("4x8c2", "6x6c1")
    ]
    check += [
        ["check", "--property", t, "--profile", f"@{s}", "--rule", r]
        for s in SMALL for r in RULE_NAMES for t in ("unanimity", "anonymity", "neutrality")
    ]
    check += [
        ["check", "--property", "perfect", "--profile", "@2x4c2"],
        ["check", "--property", "ex-post", "--profile", "@2x4c2",
         "--assignment", "@2x4c2.mps", "--allow-unbalanced"],
    ]
    manipulate = [
        ["manipulate", "--rule", r, "--kind", k, "--profile", f"@{s}", *agent]
        for s in SMALL for r in RULE_NAMES for k in KINDS for agent in ([], ["--agent", "2"])
    ]
    manipulate += [
        ["manipulate", "--rule", r, "--kind", k, "--profile", f"@{s}"]
        for s in ("3x6c2", "4x4c1") for r in ("ops", "mps") for k in KINDS
        # At 3x6 a scan that finds nothing visits 3 x 720 reports.
        if s == "4x4c1" or k == "sd"
    ]
    manipulate += [
        ["manipulate", "--rule", "mps", "--kind", "group", "--coalition", "1,2",
         "--profile", "@4x4c1"],
        ["manipulate", "--rule", "ops", "--kind", "group", "--coalition", "2,1",
         "--profile", "@3x3c1"],
        # Refusals (exit 3).
        ["manipulate", "--rule", "mps", "--kind", "sd", "--agent", "9", "--profile", "@2x4c2"],
        ["manipulate", "--rule", "mps", "--kind", "group", "--coalition", "1,9",
         "--profile", "@4x4c1"],
        ["manipulate", "--rule", "mps", "--kind", "group", "--profile", "@4x4c1"],
    ]
    reproduce = [["reproduce", case] for case in REPRODUCE_CASE_IDS] + [["table1"]]
    enumerate_ = [
        ["enumerate", "--n", "2", "--m", "3"],
        ["enumerate", "--n", "3", "--m", "3"],
        ["enumerate", "--n", "2", "--m", "4"],
    ]
    corpus = {
        "compute": compute, "check": check, "manipulate": manipulate,
        "reproduce": reproduce, "enumerate": enumerate_,
    }
    return {verb: [*args, *(a + ["--json"] for a in args)] for verb, args in corpus.items()}


#: Lines carrying wall-clock time: `check`'s `seconds`, `table1`'s
#: `rule_seconds` entries and its human wall-clock line.
_TIMING = re.compile(
    r'^(\s*"(?:seconds|' + "|".join(RULE_NAMES) + r')": )[-+.e\d]+(,?)$'
    r"|^(wall-clock per rule).*$",
    re.MULTILINE,
)


def _digest(result) -> str:
    masked = _TIMING.sub(lambda m: f"{m[1]}#{m[2]}" if m[1] else m[3], result.stdout)
    return f"{result.exit_code}:{hashlib.sha256(masked.encode()).hexdigest()[:16]}"


def _run(verb: str, directory: Path) -> dict[str, str]:
    paths = {}
    for name, data in _files().items():
        paths[f"@{name}"] = path = directory / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
    runner = CliRunner()
    digests = {}
    for args in _corpus()[verb]:
        result = runner.invoke(main, [str(paths.get(a, a)) for a in args])
        digests[" ".join(args)] = _digest(result)
    return digests


@pytest.mark.parametrize("verb", ["compute", "check", "manipulate", "reproduce", "enumerate"])
def test_stdout_and_exit_code_are_pinned(verb, tmp_path, table1_report):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[verb]
    got = _run(verb, tmp_path)
    assert list(got) == list(recorded)
    changed = [args for args, digest in got.items() if digest != recorded[args]]
    assert not changed, changed


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        out = {verb: _run(verb, Path(scratch)) for verb in _corpus()}
    print(json.dumps(out, indent=1))
