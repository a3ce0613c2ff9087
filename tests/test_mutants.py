"""The mutation corpus of `tests/mutants.py` stays applicable.

Running the mutants takes about six minutes (`python3
tests/mutants.py`: 61 mutants, all killed in 322 s on a shared 2-core VM
with Python 3.11.7); this only checks that every mutant still names one
place in its module, that the mutated module compiles, and that its test
files exist.
"""

from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_exactly_once(mutant):
    source = mutant.source().read_text(encoding="utf-8")
    assert source.count(mutant.snippet) == 1
    assert mutant.snippet != mutant.replacement
    compile(source.replace(mutant.snippet, mutant.replacement), mutant.module, "exec")
    assert all((ROOT / Path(tests)).is_file() for tests in mutant.tests)


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
