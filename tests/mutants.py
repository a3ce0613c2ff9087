"""Mutation check: each mutant of `src/mudra` must fail the tests named for it.

Run from anywhere, with pytest and Hypothesis installed::

    python3 tests/mutants.py

A mutant is a module of `src/mudra`, a source snippet that occurs exactly
once in it, the snippet's replacement and the test files expected to kill
it.  For each mutant the runner copies `src`, `tests`, `pyproject.toml` and
`README.md` into a temporary directory, applies the mutant there and runs
its test files with `-x -q -p no:cacheprovider --hypothesis-seed=0`.  It
prints "killed" or "survived" with the seconds taken, and exits 1 if any
mutant survives.  pytest does not collect this file (its name does not
start with `test_`); `tests/test_mutants.py` checks in Tier-1 that every
snippet still occurs exactly once, so a refactor cannot silently empty a
mutant.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")
PYTEST_ARGS = ("-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name in src/mudra
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # paths from the repository root

    def source(self, root: Path = ROOT) -> Path:
        return root / "src" / "mudra" / self.module


STRATEGY_TESTS = ("tests/test_strategy.py",)
MODEL_TESTS = ("tests/test_model.py",)
FAIRNESS_TESTS = ("tests/test_fairness.py",)

MUTANTS = (
    # A rule that peeks past its reads: it looks at the last object of the
    # first order without going through `ranked`, so the scan cannot see it.
    Mutant(
        "mps-peeks-at-a-last-object",
        "rules.py",
        "def mps(profile: PreferenceProfile) -> RandomAssignment:\n"
        "    return mps_trace(profile).assignment\n",
        "def mps(profile: PreferenceProfile) -> RandomAssignment:\n"
        "    if profile.orders[0][-1] == profile.instance.objects[0]:\n"
        "        return ops_trace(profile).assignment\n"
        "    return mps_trace(profile).assignment\n",
        STRATEGY_TESTS,
    ),
    Mutant(
        "trie-leaf-one-read-early",
        "strategy.py",
        "    node = trie = trie or (log[0], {})\n",
        "    log = log[:-1] or log\n    node = trie = trie or (log[0], {})\n",
        STRATEGY_TESTS,
    ),
    Mutant(
        "missing-branch-judged",
        "strategy.py",
        "        if reported not in branches:\n            return False\n",
        "        if reported not in branches:\n            return True\n",
        STRATEGY_TESTS,
    ),
    Mutant(
        "raw-numerators-compared",
        "strategy.py",
        "            if scale != truth_scale:\n",
        "            if False:\n",
        STRATEGY_TESTS,
    ),
    Mutant(
        "pruning-kept-after-an-unread-row",
        "strategy.py",
        "    if len({member for member, _ in log}) < len(joint):\n",
        "    if not log:\n",
        STRATEGY_TESTS,
    ),
    Mutant(
        "duplicate-member-accepted",
        "strategy.py",
        '    if len(set(members)) != len(members):\n'
        '        raise ValueError("coalition lists an agent twice")\n',
        "",
        STRATEGY_TESTS,
    ),
    # Input refusals: without each, a malformed value passes or is refused
    # for another reason.
    Mutant(
        "instance-without-agents-accepted",
        "model.py",
        '        if not self.agents:\n'
        '            raise ValueError("instance needs at least one agent")\n',
        "",
        MODEL_TESTS,
    ),
    Mutant(
        "instance-without-objects-accepted",
        "model.py",
        '        if not self.objects:\n'
        '            raise ValueError("instance needs at least one object")\n',
        "",
        MODEL_TESTS,
    ),
    Mutant(
        "non-rational-entry-accepted",
        "model.py",
        '    raise TypeError(f"{where}: expected a rational, got {type(value).__name__}")\n',
        "    return value\n",
        MODEL_TESTS,
    ),
    Mutant(
        "unknown-object-indexed",
        "model.py",
        '            raise KeyError(f"unknown object {obj!r}") from None\n',
        "            return -1\n",
        MODEL_TESTS,
    ),
    Mutant(
        "non-string-rational-accepted",
        "serialize.py",
        "    if not isinstance(value, str):\n"
        '        raise SchemaError(path, f"expected a rational string, '
        'got {type(value).__name__}")\n',
        "",
        ("tests/test_serialize.py",),
    ),
    # The relabelling scan: it compares reduced views of unequal
    # denominators, and it must walk every image, not only the first.
    Mutant(
        "raw-numerators-mismatch",
        "fairness.py",
        "if a * right.denominator != b * left.denominator",
        "if a != b",
        FAIRNESS_TESTS,
    ),
    Mutant(
        "first-image-only",
        "fairness.py",
        '    images = orderings(labels, ORDER_LIMIT, f"{len(labels)}! {what} relabellings")\n',
        '    images = itertools.islice(\n'
        '        orderings(labels, ORDER_LIMIT, f"{len(labels)}! {what} relabellings"), 2\n'
        '    )\n',
        FAIRNESS_TESTS,
    ),
)


def killed(mutant: Mutant) -> bool:
    """Apply `mutant` to a temporary copy of the tree; do its tests fail?"""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(
                    ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__")
                )
            else:
                shutil.copy(ROOT / name, tree / name)
        path = mutant.source(tree)
        source = path.read_text(encoding="utf-8")
        if source.count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.name}: the snippet does not occur exactly once")
        path.write_text(source.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        result = subprocess.run(
            [sys.executable, "-m", "pytest", *mutant.tests, *PYTEST_ARGS],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    # 1: a test failed; 2: collection failed.  Anything else is no verdict.
    if result.returncode not in (0, 1, 2):
        raise SystemExit(f"{mutant.name}: pytest exited {result.returncode}\n{result.stdout}")
    return result.returncode != 0


def main() -> int:
    survivors = []
    total = time.perf_counter()
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = "killed" if killed(mutant) else "survived"
        print(f"{verdict:8}  {time.perf_counter() - start:6.1f} s  {mutant.name}", flush=True)
        if verdict == "survived":
            survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed "
          f"in {time.perf_counter() - total:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
