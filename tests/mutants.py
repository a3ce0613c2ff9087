"""Mutation check: each mutant of `src/mudra` must fail the tests named for it.

Run from anywhere, with pytest and Hypothesis installed::

    python3 tests/mutants.py

A mutant is a module of `src/mudra`, a source snippet that occurs exactly
once in it, the snippet's replacement and the test files expected to kill
it.  For each mutant the runner copies `src`, `tests`, `pyproject.toml` and
`README.md` into a temporary directory, applies the mutant there and runs
its test files with `-x -q -p no:cacheprovider --hypothesis-seed=0
--tb=no`.  Each run is stopped after TIMEOUT seconds, which counts as a
kill ("timed out"), and may use MEMORY_LIMIT bytes of address space, so a
mutant that loops or allocates without end cannot hang the runner or
exhaust the machine (without tracebacks, a test that hits the limit fails
cleanly).  It prints "killed", "timed out" or "survived" with the seconds
taken, and exits 1 if any mutant survives.  pytest does not collect this
file (its name does not start with `test_`); `tests/test_mutants.py` checks
in Tier-1 that every snippet still occurs exactly once, so a refactor
cannot silently empty a mutant.  Standard library only (POSIX: `resource`).
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")
PYTEST_ARGS = ("-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "--tb=no")
TIMEOUT = 120  # seconds per run; the slowest clean file, test_strategy.py, takes about 25 s
MEMORY_LIMIT = 2 * 1024**3  # bytes of address space per run; the whole clean suite fits


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
ORDER_TESTS = ("tests/test_order.py",)
EFFICIENCY_TESTS = ("tests/test_efficiency.py",)
RULES_TESTS = ("tests/test_rules.py",)
SERIALIZE_TESTS = ("tests/test_serialize.py",)

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
    # The trie walk stops advancing: every answer it still gives is right,
    # and a walk two reads deep spins for ever, so only TIMEOUT kills it.
    Mutant(
        "trie-walk-stalls",
        "strategy.py",
        "        node = branches[reported]\n    return True\n",
        "        node = branches[reported] and node\n    return True\n",
        STRATEGY_TESTS,
    ),
    Mutant(
        "first-member-judged-only",
        "strategy.py",
        "        for i, truth, ranked in truths:\n",
        "        for i, truth, ranked in truths[:1]:\n",
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
        "duplicate-agent-accepted",
        "model.py",
        '        if len(set(self.agents)) != len(self.agents):\n'
        '            raise ValueError("duplicate agent ids")\n',
        "",
        MODEL_TESTS,
    ),
    Mutant(
        "relaxed-quota-unchecked",
        "model.py",
        "            if self.quota != math.ceil(Fraction(m, n)):\n",
        "            if False:\n",
        MODEL_TESTS,
    ),
    Mutant(
        "short-row-accepted",
        "model.py",
        "        if len(row) != m:\n",
        "        if False:\n",
        MODEL_TESTS,
    ),
    Mutant(
        "unknown-owner-accepted",
        "model.py",
        "            if owner not in known:\n",
        "            if False:\n",
        MODEL_TESTS,
    ),
    Mutant(
        "unreduced-numerators-stored",
        "model.py",
        "        common = math.gcd(d, *itertools.chain.from_iterable(numerators))\n",
        "        common = 1\n",
        MODEL_TESTS,
    ),
    Mutant(
        "listed-orders-kept",
        "model.py",
        '        object.__setattr__(self, "orders", tuple(map(tuple, self.orders)))\n',
        "",
        MODEL_TESTS,
    ),
    Mutant(
        "foreign-instance-judged",
        "model.py",
        "    if assignment.instance != profile.instance:\n"
        '        raise ValueError("assignment and profile must share one instance")\n',
        "",
        (*MODEL_TESTS, *EFFICIENCY_TESTS, *FAIRNESS_TESTS),
    ),
    Mutant(
        "non-string-rational-accepted",
        "serialize.py",
        "    if not isinstance(value, str):\n"
        '        raise SchemaError(path, f"expected a rational string, '
        'got {type(value).__name__}")\n',
        "",
        SERIALIZE_TESTS,
    ),
    Mutant(
        "overlapping-ids-accepted",
        "serialize.py",
        "    if set(agents) & set(objects):\n"
        '        raise SchemaError("preferences", "agent and object ids must be disjoint")\n',
        "",
        SERIALIZE_TESTS,
    ),
    Mutant(
        "duplicate-objects-accepted",
        "serialize.py",
        "    if len(set(objects)) != len(objects):\n"
        '        raise SchemaError("objects", "duplicate object ids")\n',
        "",
        SERIALIZE_TESTS,
    ),
    Mutant(
        "non-strict-order-accepted",
        "serialize.py",
        "        if sorted(order) != sorted(objects):\n",
        "        if False:\n",
        SERIALIZE_TESTS,
    ),
    Mutant(
        "empty-objects-accepted",
        "serialize.py",
        "    if not objects:\n"
        '        raise SchemaError("objects", "at least one object is required")\n',
        "",
        SERIALIZE_TESTS,
    ),
    Mutant(
        "empty-preferences-accepted",
        "serialize.py",
        "    if not prefs:\n"
        '        raise SchemaError("preferences", "at least one agent is required")\n',
        "",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "matrix-agent-keys-unchecked",
        "serialize.py",
        "    if set(matrix.keys()) != set(instance.agents):\n",
        "    if False:\n",
        SERIALIZE_TESTS,
    ),
    Mutant(
        "matrix-object-keys-unchecked",
        "serialize.py",
        "        if set(row_data.keys()) != set(instance.objects):\n",
        "        if False:\n",
        SERIALIZE_TESTS,
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
    Mutant(
        "weak-envy-never-cleared",
        "fairness.py",
        "                elif weak and mine > its:\n",
        "                elif False:\n",
        FAIRNESS_TESTS,
    ),
    Mutant(
        "identity-relabelling-checked",
        "fairness.py",
        "        if image == labels:\n            continue\n",
        "",
        FAIRNESS_TESTS,
    ),
    # Comparisons and the exact LP.
    Mutant(
        "sd-tie-breaks-dominance",
        "order.py",
        "        if pa < pb:\n",
        "        if pa <= pb:\n",
        ORDER_TESTS,
    ),
    Mutant(
        "dl-verdict-reversed",
        "order.py",
        "return DlVerdict.FIRST if va > vb else DlVerdict.SECOND",
        "return DlVerdict.FIRST if va < vb else DlVerdict.SECOND",
        ORDER_TESTS,
    ),
    Mutant(
        "trade-edge-from-a-full-object",
        "efficiency.py",
        "            if row[a] < full:\n",
        "            if row[a] <= full:\n",
        EFFICIENCY_TESTS,
    ),
    Mutant(
        "trade-edge-to-an-empty-object",
        "efficiency.py",
        "                    if row[b] > 0:\n",
        "                    if row[b] >= 0:\n",
        EFFICIENCY_TESTS,
    ),
    Mutant(
        "hull-guard-one-short",
        "efficiency.py",
        "islice(screened, HULL_LIMIT + 1)",
        "islice(screened, HULL_LIMIT)",
        (*EFFICIENCY_TESTS, "tests/test_cli.py"),
    ),
    Mutant(
        "ratio-tie-leaves-higher-column",
        "ratlp.py",
        "basis[i] < basis[r]",
        "basis[i] > basis[r]",
        ("tests/test_ratlp.py",),
    ),
    # Rules and the registry.
    Mutant(
        "rp-share-ignores-later-orders",
        "rules.py",
        "            share = ways * orders_per_prefix\n",
        "            share = ways\n",
        RULES_TESTS,
    ),
    Mutant(
        "partial-priority-accepted",
        "rules.py",
        "    if list(sorted(priority)) != sorted(inst.agents):\n"
        '        raise ValueError("priority order must list every agent exactly once")\n',
        "",
        RULES_TESTS,
    ),
    # Exhausted objects stay on the menu: the eating loop makes no progress
    # and grows its trace until MEMORY_LIMIT stops it.
    Mutant(
        "eaten-objects-kept",
        "rules.py",
        "for j, left in remaining.items() if left}",
        "for j, left in remaining.items() if left >= 0}",
        RULES_TESTS,
    ),
    Mutant(
        "vacuous-unanimity-fails",
        "harness.py",
        '        return True, {"detail": "vacuous: no perfect assignment exists"}\n',
        '        return False, {"detail": "vacuous: no perfect assignment exists"}\n',
        ("tests/test_harness.py",),
    ),
)


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def verdict(mutant: Mutant) -> str:
    """Apply `mutant` to a temporary copy of the tree and run its tests:
    "killed" when they fail, "timed out" when they outrun TIMEOUT, else
    "survived"."""
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
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", *mutant.tests, *PYTEST_ARGS],
                cwd=tree, env=env, capture_output=True, text=True,
                timeout=TIMEOUT, preexec_fn=_cap_memory,
            )
        except subprocess.TimeoutExpired:
            return "timed out"
    # 1: a test failed; 2: collection failed.  Anything else is no verdict.
    if result.returncode not in (0, 1, 2):
        raise SystemExit(f"{mutant.name}: pytest exited {result.returncode}\n{result.stdout}")
    return "killed" if result.returncode else "survived"


def main() -> int:
    survivors = []
    total = time.perf_counter()
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome = verdict(mutant)
        print(f"{outcome:9}  {time.perf_counter() - start:6.1f} s  {mutant.name}", flush=True)
        if outcome == "survived":
            survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed "
          f"in {time.perf_counter() - total:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
