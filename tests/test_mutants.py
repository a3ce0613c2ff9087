"""The mutation corpus of `tests/mutants.py` stays applicable.

Running the mutants takes a little over three minutes (`python3
tests/mutants.py`: 102 mutants, all killed by their killers in 202 s on a
shared 2-core VM with Python 3.11.7); this only checks that every mutant
still names one place in its module, that the mutated module compiles,
that its test files exist and that its killer names a test function in
one of them.
"""

import ast
from pathlib import Path

import pytest

import mutants
from mutants import MUTANTS, ROOT, classify, main


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_exactly_once(mutant):
    source = mutant.source().read_text(encoding="utf-8")
    assert source.count(mutant.snippet) == 1
    assert mutant.snippet != mutant.replacement
    compile(source.replace(mutant.snippet, mutant.replacement), mutant.module, "exec")
    assert all((ROOT / Path(tests)).is_file() for tests in mutant.tests)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_killer_names_a_test_function_in_one_of_the_mutants_files(mutant):
    # a node id: path::[Class::]function[parameters]
    path, *classes, function = mutant.killer.split("::")
    assert path in mutant.tests
    function = function.split("[")[0]
    assert function.startswith("test")
    scope = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    for name in classes:
        (scope,) = (
            node.body for node in scope if isinstance(node, ast.ClassDef) and node.name == name
        )
    assert any(isinstance(node, ast.FunctionDef) and node.name == function for node in scope)


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


def test_exit_one_is_a_kill_even_when_no_test_is_named():
    # The memory cap can strike while pytest writes its summary.
    assert classify("m", 1, "") == ("killed", "")
    stdout = "F\nFAILED tests/test_x.py::test_y - assert 1 == 2\n1 failed in 0.1s\n"
    assert classify("m", 1, stdout) == ("killed", "tests/test_x.py::test_y")
    assert classify("m", 0, "1 passed in 0.1s\n") == ("survived", "")


def test_any_other_exit_stops_the_runner():
    with pytest.raises(SystemExit, match="m: pytest exited 2"):
        classify("m", 2, "ERROR tests/test_x.py - ImportError\n")


def test_an_unknown_name_exits_2_before_any_run(monkeypatch, capsys):
    def no_run(mutant):
        raise AssertionError(f"{mutant.name} ran")

    monkeypatch.setattr(mutants, "verdict", no_run)
    assert main([MUTANTS[0].name, "no-such-mutant"]) == 2
    assert "no-such-mutant" in capsys.readouterr().err
