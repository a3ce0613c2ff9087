"""The mutation corpus of `tests/mutants.py` stays applicable.

Running the mutants takes about six minutes (`python3 tests/mutants.py`);
this only checks that every mutant still names one place in its module
and test files that exist.
"""

from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_exactly_once(mutant):
    assert mutant.source().read_text(encoding="utf-8").count(mutant.snippet) == 1
    assert mutant.snippet != mutant.replacement
    assert all((ROOT / Path(tests)).is_file() for tests in mutant.tests)


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
