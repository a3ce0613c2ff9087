"""Exit-code contract and output shapes of every CLI verb."""

import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mudra import rules
from mudra.cli import main
from mudra.efficiency import sd_dominates
from mudra.harness import PROPERTIES, RULE_NAMES, canonical_instance, enumerate_profiles
from mudra.model import validate_assignment
from mudra.rules import simulate_eating
from mudra.serialize import (
    SchemaError,
    assignment_from_data,
    assignment_to_data,
    canonical_dumps,
    profile_from_data,
    profile_to_data,
)
from mudra.strategy import FINDERS

FIG1 = {
    "objects": ["o1", "o2", "o3", "o4"],
    "quota": 2,
    "preferences": {
        "1": ["o1", "o2", "o3", "o4"],
        "2": ["o3", "o2", "o4", "o1"],
    },
}

STAGGERED = {
    "objects": ["a", "b", "c", "d"],
    "quota": 2,
    "preferences": {
        "1": ["a", "b", "c", "d"],
        "2": ["b", "c", "a", "d"],
    },
}

DISJOINT_TOPS = {
    "objects": ["o1", "o2", "o3", "o4"],
    "quota": 2,
    "preferences": {
        "1": ["o1", "o2", "o3", "o4"],
        "2": ["o3", "o4", "o1", "o2"],
    },
}

DISJOINT_TOPS_PERFECT = {
    "matrix": {
        "1": {"o1": "1", "o2": "1", "o3": "0", "o4": "0"},
        "2": {"o1": "0", "o2": "0", "o3": "1", "o4": "1"},
    }
}

TWO_PAIRS_SINGLE_UNIT = {
    "objects": ["a", "b", "c", "d"],
    "quota": 1,
    "preferences": {
        "1": ["a", "b", "c", "d"],
        "2": ["a", "b", "c", "d"],
        "3": ["b", "c", "a", "d"],
        "4": ["b", "c", "a", "d"],
    },
}

FIG1_MPS_MATRIX = {
    "matrix": {
        "1": {"o1": "7/8", "o2": "1/2", "o3": "1/4", "o4": "3/8"},
        "2": {"o1": "1/8", "o2": "1/2", "o3": "3/4", "o4": "5/8"},
    }
}

ALL_HALVES = {
    "matrix": {
        "1": {"o1": "1/2", "o2": "1/2", "o3": "1/2", "o4": "1/2"},
        "2": {"o1": "1/2", "o2": "1/2", "o3": "1/2", "o4": "1/2"},
    }
}


#: `compute --trace` at FIG1, byte for byte.
TRACED = {
    "ops": """rule: ops
   o1   o2  o3   o4
1   1  1/2   0  1/2
2   0  1/2   1  1/2
phase [0, 1): 1 eats o1 | 2 eats o3
phase [1, 3/2): 1 eats o2 | 2 eats o2
phase [3/2, 2): 1 eats o4 | 2 eats o4
""",
    "mps": """rule: mps
    o1   o2   o3   o4
1  7/8  1/2  1/4  3/8
2  1/8  1/2  3/4  5/8
phase [0, 1/2): 1 eats o1,o2 | 2 eats o2,o3
phase [1/2, 3/4): 1 eats o1,o3 | 2 eats o3,o4
phase [3/4, 7/8): 1 eats o1,o4 | 2 eats o1,o4
phase [7/8, 9/8): 1 eats o4 | 2 eats o4
""",
}

TWO_BY_TWO = {
    "objects": ["o1", "o2"],
    "quota": 1,
    "preferences": {"1": ["o1", "o2"], "2": ["o2", "o1"]},
}

#: Two agents, three objects, quota 2: an unbalanced profile.
TWO_BY_THREE = {
    "objects": ["o1", "o2", "o3"],
    "quota": 2,
    "preferences": {"1": ["o1", "o2", "o3"], "2": ["o3", "o1", "o2"]},
}

#: A 2x2 matrix with entries in [0, 1] whose column o2 sums to 1/3.
THIRD_OF_O2 = {"matrix": {"1": {"o1": "1", "o2": "1/3"}, "2": {"o1": "0", "o2": "0"}}}

#: The `check` tokens that judge a given `--assignment`.
ASSIGNMENT_TOKENS = [prop.token for prop in PROPERTIES.values() if "assignment" in prop.judges]


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def paths(tmp_path):
    def write(name, data):
        target = tmp_path / name
        text = data if isinstance(data, str) else json.dumps(data)
        target.write_text(text, encoding="utf-8")
        return str(target)

    return write


class TestCompute:
    def test_human_output(self, runner, paths):
        result = runner.invoke(main, ["compute", "--rule", "mps", "--profile", paths("p.json", FIG1)])
        assert result.exit_code == 0
        assert "rule: mps" in result.output
        assert "7/8" in result.output

    def test_json_matrix(self, runner, paths):
        result = runner.invoke(
            main, ["compute", "--rule", "mps", "--profile", paths("p.json", FIG1), "--json"]
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["matrix"]["1"]["o1"] == "7/8"
        assert data["matrix"]["2"]["o3"] == "3/4"

    def test_trace_phases(self, runner, paths):
        result = runner.invoke(
            main,
            ["compute", "--rule", "mps", "--profile", paths("p.json", FIG1), "--trace", "--json"],
        )
        data = json.loads(result.output)
        first = data["trace"][0]
        assert first["start"] == "0" and first["end"] == "1/2"
        assert first["eating"] == {"1": ["o1", "o2"], "2": ["o2", "o3"]}

    def test_priority_permutation(self, runner, paths):
        result = runner.invoke(
            main,
            [
                "compute", "--rule", "priority", "--profile", paths("p.json", FIG1),
                "--permutation", "2,1", "--json",
            ],
        )
        data = json.loads(result.output)
        assert data["matrix"]["2"]["o3"] == "1"
        assert data["matrix"]["1"]["o4"] == "1"

    @pytest.mark.parametrize("rule", ["ops", "mps"])
    def test_trace_runs_the_eating_rule_once(self, runner, paths, monkeypatch, rule):
        calls = []

        def counted(*args):
            calls.append(args)
            return simulate_eating(*args)

        monkeypatch.setattr(rules, "simulate_eating", counted)
        path = paths("p.json", FIG1)
        traced = runner.invoke(main, ["compute", "--rule", rule, "--profile", path, "--trace"])
        assert traced.exit_code == 0 and len(calls) == 1
        assert traced.stdout == TRACED[rule]
        as_json = runner.invoke(
            main, ["compute", "--rule", rule, "--profile", path, "--trace", "--json"]
        )
        plain = runner.invoke(main, ["compute", "--rule", rule, "--profile", path, "--json"])
        assert len(calls) == 2  # the plain call runs the rule's kernel, not a trace
        data = json.loads(as_json.stdout)
        assert data.pop("trace") and data == json.loads(plain.stdout)

    def test_permutation_rejected_for_other_rules(self, runner, paths):
        result = runner.invoke(
            main,
            ["compute", "--rule", "mps", "--profile", paths("p.json", FIG1), "--permutation", "2,1"],
        )
        assert result.exit_code == 3

    def test_trace_rejected_for_non_eating_rules(self, runner, paths):
        result = runner.invoke(
            main, ["compute", "--rule", "uniform", "--profile", paths("p.json", FIG1), "--trace"]
        )
        assert result.exit_code == 3

    def test_relaxed_profile(self, runner, paths):
        # An unbalanced profile needs no flag: mps shares out the leftover
        # capacity exactly.
        path = paths("p.json", TWO_BY_THREE)
        result = runner.invoke(main, ["compute", "--rule", "mps", "--profile", path, "--json"])
        assert result.exit_code == 0
        row = json.loads(result.output)["matrix"]["1"]
        assert row == {"o1": "1/2", "o2": "3/4", "o3": "1/4"}

    def test_rp_refused_past_the_state_guard(self, runner, paths):
        objects = [f"o{j}" for j in range(1, 13)]
        data = {"objects": objects, "quota": 1,
                "preferences": {str(i): objects for i in range(1, 13)}}
        result = runner.invoke(
            main, ["compute", "--rule", "rp", "--profile", paths("p.json", data), "--json"]
        )
        assert result.exit_code == 2
        assert "refused: rp states of 12 agents" in result.stderr

    def test_malformed_file(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        result = runner.invoke(main, ["compute", "--rule", "mps", "--profile", str(bad)])
        assert result.exit_code == 3
        assert "input error" in result.stderr

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["compute", "--rule", "mps", "--profile", "nope.json"])
        assert result.exit_code == 3

    def test_deeply_nested_files_are_input_errors(self, runner, paths, tmp_path):
        # The JSON decoder recurses once per level; 100,000 levels exhaust it.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        for argv in (
            ["compute", "--rule", "mps", "--profile", str(deep)],
            ["check", "--property", "sd-efficient", "--profile", paths("p.json", FIG1),
             "--assignment", str(deep)],
        ):
            result = runner.invoke(main, argv)
            assert result.exit_code == 3
            assert isinstance(result.exception, SystemExit)
            assert "invalid JSON: nested too deeply" in result.stderr
            assert "Traceback" not in result.stderr

    def test_top_level_that_is_not_an_object_is_named(self, runner, paths, tmp_path):
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]", encoding="utf-8")
        for argv in (
            ["compute", "--rule", "mps", "--profile", str(listed)],
            ["check", "--property", "sd-efficient", "--profile", paths("p.json", FIG1),
             "--assignment", str(listed)],
        ):
            result = runner.invoke(main, argv)
            assert result.exit_code == 3
            assert result.stderr == "input error: $: expected an object, got list\n"

    def test_a_file_that_is_not_utf8_is_named(self, runner, paths, tmp_path):
        latin = tmp_path / "latin.json"
        latin.write_bytes(b"\xff{}")
        for argv in (
            ["compute", "--rule", "mps", "--profile", str(latin)],
            ["check", "--property", "sd-efficient", "--profile", paths("p.json", FIG1),
             "--assignment", str(latin)],
        ):
            result = runner.invoke(main, argv)
            assert result.exit_code == 3
            assert result.stderr == "input error: $: not UTF-8 text (invalid start byte at byte 0)\n"


class TestCheck:
    def test_balanced_ex_post_fails(self, runner, paths):
        result = runner.invoke(
            main,
            [
                "check", "--property", "ex-post",
                "--profile", paths("p.json", FIG1),
                "--assignment", paths("a.json", FIG1_MPS_MATRIX),
            ],
        )
        assert result.exit_code == 1
        assert "FAILS" in result.output

        # The Farkas vector separates the outcome from every listed
        # SD-efficient discrete assignment (rows: o1..o4 of each agent, then
        # the weight-sum row).
        data = json.loads(
            runner.invoke(
                main,
                [
                    "check", "--property", "ex-post",
                    "--profile", paths("p.json", FIG1),
                    "--assignment", paths("a.json", FIG1_MPS_MATRIX), "--json",
                ],
            ).output
        )
        cert = data["certificate"]
        f = [Fraction(v) for v in cert["farkas"]]
        agents, objects = ("1", "2"), ("o1", "o2", "o3", "o4")
        target = [Fraction(FIG1_MPS_MATRIX["matrix"][a][o]) for a in agents for o in objects]
        assert sum(fd * td for fd, td in zip(f[:-1], target)) + f[-1] > 0
        assert cert["sd-efficient-discrete"]
        for owners in cert["sd-efficient-discrete"]:
            grid = [Fraction(owner == a) for a in agents for owner in owners]
            assert sum(fd * gd for fd, gd in zip(f[:-1], grid)) + f[-1] <= 0
        assert "convex hull" in cert["detail"]

    def test_ex_post_refused_past_the_hull_guard(self, runner, paths):
        # Agents 1-3 share one order and agent 4 swaps its top two, so the
        # uniform 4x8 c=2 matrix has a trade cycle and goes on to screening:
        # 1,980 balanced assignments survive, and screening stops at the
        # 401st, before the hull LP.
        objects = [f"o{j}" for j in range(1, 9)]
        swapped = ["o2", "o1", *objects[2:]]
        profile = {"objects": objects, "quota": 2,
                   "preferences": {"1": objects, "2": objects, "3": objects, "4": swapped}}
        matrix = {str(i): {o: "1/4" for o in objects} for i in range(1, 5)}
        argv = ["--profile", paths("p.json", profile),
                "--assignment", paths("a.json", {"matrix": matrix})]
        cycle = runner.invoke(main, ["check", "--property", "sd-efficient", *argv])
        assert cycle.exit_code == 1 and "FAILS" in cycle.output
        start = time.perf_counter()
        result = runner.invoke(main, ["check", "--property", "ex-post", *argv])
        assert time.perf_counter() - start < 5
        assert result.exit_code == 2
        assert "refused: SD-efficient discrete assignments exceed the guard of 400" in (
            result.stderr
        )

    def test_unbalanced_ex_post_holds_with_decomposition(self, runner, paths):
        result = runner.invoke(
            main,
            [
                "check", "--property", "ex-post",
                "--profile", paths("p.json", FIG1),
                "--assignment", paths("a.json", FIG1_MPS_MATRIX),
                "--allow-unbalanced", "--json",
            ],
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["verdict"] is True
        weights = [term["weight"] for term in data["certificate"]["decomposition"]]
        assert weights == ["1/4", "1/4", "3/8", "1/8"]

    def test_sd_efficient_holds(self, runner, paths):
        perfect = {
            "matrix": {
                "1": {"o1": "1", "o2": "1", "o3": "0", "o4": "0"},
                "2": {"o1": "0", "o2": "0", "o3": "1", "o4": "1"},
            }
        }
        result = runner.invoke(
            main,
            [
                "check", "--property", "sd-efficient",
                "--profile", paths("p.json", DISJOINT_TOPS),
                "--assignment", paths("a.json", perfect),
            ],
        )
        assert result.exit_code == 0
        assert "holds" in result.output

    def test_sd_efficient_fails_with_dominator(self, runner, paths):
        result = runner.invoke(
            main,
            [
                "check", "--property", "sd-efficient",
                "--profile", paths("p.json", FIG1),
                "--assignment", paths("a.json", ALL_HALVES), "--json",
            ],
        )
        assert result.exit_code == 1
        profile = profile_from_data(FIG1)
        dominator = assignment_from_data(
            {"matrix": json.loads(result.output)["certificate"]["dominator"]},
            profile.instance,
        )
        halves = assignment_from_data(ALL_HALVES, profile.instance)
        assert validate_assignment(dominator).ok
        assert sd_dominates(dominator, halves, profile)

    def test_sd_ef_holds_for_halves(self, runner, paths):
        result = runner.invoke(
            main,
            [
                "check", "--property", "sd-ef",
                "--profile", paths("p.json", FIG1),
                "--assignment", paths("a.json", ALL_HALVES),
            ],
        )
        assert result.exit_code == 0

    def test_unanimity_rule_verdicts(self, runner, paths):
        path = paths("p.json", DISJOINT_TOPS)
        ok = runner.invoke(main, ["check", "--property", "unanimity", "--profile", path, "--rule", "mps"])
        assert ok.exit_code == 0
        bad = runner.invoke(
            main,
            ["check", "--property", "unanimity", "--profile", path, "--rule", "uniform", "--json"],
        )
        assert bad.exit_code == 1
        assert json.loads(bad.output)["certificate"]["perfect"] == ["1", "1", "2", "2"]

    def test_perfect_reports_owners(self, runner, paths):
        found = runner.invoke(
            main,
            ["check", "--property", "perfect", "--profile", paths("p.json", DISJOINT_TOPS), "--json"],
        )
        assert found.exit_code == 0
        assert json.loads(found.output)["certificate"]["owners"] == ["1", "1", "2", "2"]
        none = runner.invoke(
            main, ["check", "--property", "perfect", "--profile", paths("q.json", FIG1)]
        )
        assert none.exit_code == 1

    def test_anonymity_verdicts(self, runner, paths):
        path = paths("p.json", FIG1)
        ok = runner.invoke(main, ["check", "--property", "anonymity", "--profile", path, "--rule", "mps"])
        assert ok.exit_code == 0
        bad = runner.invoke(
            main, ["check", "--property", "anonymity", "--profile", path, "--rule", "priority"]
        )
        assert bad.exit_code == 1

    def test_missing_assignment_is_an_input_error(self, runner, paths):
        result = runner.invoke(
            main, ["check", "--property", "sd-efficient", "--profile", paths("p.json", FIG1)]
        )
        assert result.exit_code == 3

    def test_missing_rule_is_an_input_error(self, runner, paths):
        result = runner.invoke(
            main, ["check", "--property", "neutrality", "--profile", paths("p.json", FIG1)]
        )
        assert result.exit_code == 3

    def test_allow_unbalanced_outside_ex_post_is_a_usage_error(self, runner, paths):
        result = runner.invoke(
            main,
            [
                "check", "--property", "anonymity", "--rule", "mps",
                "--profile", paths("p.json", FIG1), "--allow-unbalanced",
            ],
        )
        assert result.exit_code == 3
        assert "--allow-unbalanced only applies to --property ex-post" in result.output

    @pytest.mark.parametrize(
        "token, flags, message",
        [
            ("sd-efficient", ["--assignment", "--rule"], "cannot be given together"),
            ("sd-efficient", ["--rule"], "--rule does not apply to --property sd-efficient"),
            ("perfect", ["--rule"], "--rule does not apply to --property perfect"),
            ("neutrality", ["--rule", "--assignment"], "cannot be given together"),
            ("neutrality", ["--assignment"], "--assignment does not apply to --property neutrality"),
            ("unanimity", ["--assignment", "--rule"], "cannot be given together"),
        ],
    )
    def test_flag_the_property_does_not_judge_is_a_usage_error(
        self, runner, paths, token, flags, message
    ):
        values = {"--assignment": paths("a.json", DISJOINT_TOPS_PERFECT), "--rule": "uniform"}
        argv = ["check", "--property", token, "--profile", paths("p.json", DISJOINT_TOPS)]
        for flag in flags:
            argv += [flag, values[flag]]
        result = runner.invoke(main, argv)
        assert result.exit_code == 3
        assert message in result.output

    @pytest.mark.parametrize("token", ASSIGNMENT_TOKENS)
    def test_infeasible_assignment_is_refused_for_every_property(self, runner, paths, token):
        argv = ["check", "--property", token, "--profile", paths("p.json", TWO_BY_TWO),
                "--assignment", paths("a.json", THIRD_OF_O2)]
        result = runner.invoke(main, argv)
        assert result.exit_code == 3
        assert result.stderr == (
            "input error: input is not a feasible random assignment: "
            "column o2 sums to 1/3, expected 1\n"
        )

    def test_exponent_entry_is_refused_quickly(self, runner, paths):
        entries = {"o1": "1e10000000", "o2": "1/2", "o3": "1/2", "o4": "1/2"}
        matrix = {"matrix": {"1": entries, "2": entries}}
        result = runner.invoke(
            main,
            [
                "check", "--property", "sd-ef", "--profile", paths("p.json", FIG1),
                "--assignment", paths("a.json", matrix),
            ],
        )
        assert result.exit_code == 3
        assert "malformed rational" in result.stderr

    def test_unanimity_judges_what_it_is_given(self, runner, paths):
        argv = ["check", "--property", "unanimity", "--profile", paths("p.json", DISJOINT_TOPS)]
        perfect = runner.invoke(main, argv + ["--assignment", paths("a.json", DISJOINT_TOPS_PERFECT)])
        assert perfect.exit_code == 0
        assert runner.invoke(main, argv + ["--rule", "uniform"]).exit_code == 1


class TestManipulate:
    def test_weak_sd_witness_against_ops(self, runner, paths):
        result = runner.invoke(
            main,
            [
                "manipulate", "--rule", "ops", "--kind", "weak-sd",
                "--profile", paths("p.json", STAGGERED), "--json",
            ],
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["found"] is True
        assert data["manipulation"]["misreports"] == {"1": ["b", "a", "c", "d"]}

    def test_without_agent_the_first_manipulating_agent_is_reported(self, runner, paths):
        # STAGGERED with the agents swapped: agent 1 has no manipulation.
        swapped = {
            **STAGGERED,
            "preferences": {"1": ["b", "c", "a", "d"], "2": ["a", "b", "c", "d"]},
        }
        args = ["manipulate", "--rule", "ops", "--kind", "weak-sd",
                "--profile", paths("p.json", swapped)]
        alone = runner.invoke(main, [*args, "--agent", "1", "--json"])
        assert json.loads(alone.output)["found"] is False
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.output.splitlines()[:2] == [
            "manipulation found (strict-sd) for agent 2",
            "misreport 2: b,a,c,d",
        ]

    def test_mps_resists_weak_sd_here(self, runner, paths):
        result = runner.invoke(
            main,
            [
                "manipulate", "--rule", "mps", "--kind", "weak-sd",
                "--profile", paths("p.json", STAGGERED),
            ],
        )
        assert result.exit_code == 0
        assert result.output.strip() == "none"

    def test_group_manipulation(self, runner, paths):
        result = runner.invoke(
            main,
            [
                "manipulate", "--rule", "mps", "--kind", "group", "--coalition", "1,2",
                "--profile", paths("p.json", TWO_PAIRS_SINGLE_UNIT), "--json",
            ],
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["found"] is True
        assert data["manipulation"]["coalition"] == ["1", "2"]
        assert data["manipulation"]["misreports"] == {
            "1": ["b", "a", "c", "d"],
            "2": ["b", "a", "c", "d"],
        }

    def test_group_requires_coalition(self, runner, paths):
        result = runner.invoke(
            main,
            ["manipulate", "--rule", "mps", "--kind", "group", "--profile", paths("p.json", FIG1)],
        )
        assert result.exit_code == 3

    def test_coalition_requires_group_kind(self, runner, paths):
        result = runner.invoke(
            main,
            [
                "manipulate", "--rule", "mps", "--kind", "sd", "--coalition", "1,2",
                "--profile", paths("p.json", FIG1),
            ],
        )
        assert result.exit_code == 3

    def test_unknown_agent(self, runner, paths):
        result = runner.invoke(
            main,
            [
                "manipulate", "--rule", "mps", "--kind", "sd", "--agent", "9",
                "--profile", paths("p.json", FIG1),
            ],
        )
        assert result.exit_code == 3

    def test_unknown_coalition_member(self, runner, paths):
        result = runner.invoke(
            main,
            [
                "manipulate", "--rule", "mps", "--kind", "group", "--coalition", "1,9",
                "--profile", paths("p.json", TWO_PAIRS_SINGLE_UNIT),
            ],
        )
        assert result.exit_code == 3


def fig1_rows(first, second):
    """An assignment file for FIG1 whose rows are `first` and `second`."""
    return {"matrix": {"1": dict(zip(FIG1["objects"], first)),
                       "2": dict(zip(FIG1["objects"], second))}}


def with_long_integer(data):
    """`data` as JSON text, its "LONG" value an integer of 5,000 digits:
    past the digit limit of `int()` on a string, so `json.dumps` cannot
    write it."""
    return json.dumps(data).replace('"LONG"', "9" * 5000)


LONG_INTEGER_REFUSAL = (
    f"input error: $: invalid JSON: an integer of more than {sys.get_int_max_str_digits()} digits"
)

#: One case per input refusal: the verb and its flags, the profile file (data
#: or JSON text), the assignment file (or None), and the last line the
#: refusal prints.
INPUT_REFUSALS = {
    "entry-outside-unit-interval": (
        ["check", "--property", "sd-ef"], FIG1,
        fig1_rows(("3/2", "-1/2", "1/2", "1/2"), ("-1/2", "3/2", "1/2", "1/2")),
        "input error: input is not a feasible random assignment: "
        "entry (1, o1) = 3/2 outside [0, 1]",
    ),
    "row-sum": (
        ["check", "--property", "sd-ef"], FIG1,
        fig1_rows(("1", "1", "1", "0"), ("0", "0", "0", "1")),
        "input error: input is not a feasible random assignment: row 1 sums to 3, expected 2",
    ),
    "boolean-entry": (
        ["check", "--property", "sd-ef"], FIG1,
        fig1_rows((True, "1", "0", "0"), ("0", "0", "1", "1")),
        "input error: matrix.1.o1: expected a rational string, got True",
    ),
    "null-entry": (
        ["check", "--property", "sd-ef"], FIG1,
        fig1_rows((None, "1", "0", "0"), ("0", "0", "1", "1")),
        "input error: matrix.1.o1: expected a rational string, got NoneType",
    ),
    "list-entry": (
        ["check", "--property", "sd-ef"], FIG1,
        fig1_rows(("1", "1", "0", ["0"]), ("0", "0", "1", "1")),
        "input error: matrix.1.o4: expected a rational string, got list",
    ),
    "row-not-an-object": (
        ["check", "--property", "sd-ef"], FIG1,
        {"matrix": {"1": ["1", "1", "0", "0"], "2": {"o1": "0", "o2": "0", "o3": "1", "o4": "1"}}},
        "input error: matrix.1: row must map objects to rationals",
    ),
    "object-id-not-a-string": (
        ["compute", "--rule", "mps"], {**FIG1, "objects": [1, "o2", "o3", "o4"]}, None,
        "input error: objects[0]: object ids must be strings",
    ),
    "no-agents": (
        ["compute", "--rule", "mps"], {**FIG1, "preferences": {}}, None,
        "input error: preferences: at least one agent is required",
    ),
    "order-not-a-list": (
        ["compute", "--rule", "mps"],
        {**FIG1, "preferences": {**FIG1["preferences"], "1": "o1o2o3o4"}}, None,
        "input error: preferences.1: preference list must be a list of object ids",
    ),
    "long-integer-quota": (
        ["compute", "--rule", "mps"], with_long_integer({**FIG1, "quota": "LONG"}), None,
        LONG_INTEGER_REFUSAL,
    ),
    "long-integer-entry": (
        ["check", "--property", "sd-ef"], FIG1,
        with_long_integer(fig1_rows(("LONG", "1", "0", "0"), ("0", "0", "1", "1"))),
        LONG_INTEGER_REFUSAL,
    ),
    # A refused string is quoted by its first 40 characters and its length.
    "long-rational-entry": (
        ["check", "--property", "sd-ef"], FIG1,
        fig1_rows(("1/" + "9" * 5000, "1", "0", "0"), ("0", "0", "1", "1")),
        f"input error: matrix.1.o1: rational {'1/' + '9' * 38!r}... (5002 characters): "
        f"an integer of more than {sys.get_int_max_str_digits()} digits",
    ),
    "long-malformed-entry": (
        ["check", "--property", "sd-ef"], FIG1,
        fig1_rows(("x" * 100_000, "1", "0", "0"), ("0", "0", "1", "1")),
        f"input error: matrix.1.o1: malformed rational {'x' * 40!r}... (100000 characters) "
        "(expected p/q, k or a decimal)",
    ),
    # `json` alone keeps the last copy of a repeated key, so these files were
    # answered (the first two) or refused for a column sum (the third).
    "repeated-agent": (
        ["compute", "--rule", "mps"],
        '{"objects": ["o1", "o2", "o3", "o4"], "quota": 2, "preferences": '
        '{"1": ["o1", "o2", "o3", "o4"], "2": ["o3", "o2", "o4", "o1"], '
        '"2": ["o1", "o2", "o3", "o4"]}}',
        None,
        "input error: $: key '2' appears twice in one object",
    ),
    "repeated-matrix": (
        ["check", "--property", "sd-ef"], FIG1,
        '{"matrix": {"1": {"o1": "1", "o2": "1", "o3": "0", "o4": "0"}, '
        '"2": {"o1": "0", "o2": "0", "o3": "1", "o4": "1"}}, '
        '"matrix": {"1": {"o1": "1", "o2": "0", "o3": "1", "o4": "0"}, '
        '"2": {"o1": "0", "o2": "1", "o3": "0", "o4": "1"}}}',
        "input error: $: key 'matrix' appears twice in one object",
    ),
    "repeated-row": (
        ["check", "--property", "sd-ef"], FIG1,
        '{"matrix": {"1": {"o1": "1", "o2": "1", "o3": "0", "o4": "0"}, '
        '"2": {"o1": "0", "o2": "0", "o3": "1", "o4": "1"}, '
        '"1": {"o1": "0", "o2": "0", "o3": "1", "o4": "1"}}}',
        "input error: $: key '1' appears twice in one object",
    ),
    "empty-coalition": (
        ["manipulate", "--rule", "mps", "--kind", "group", "--coalition", ","], FIG1, None,
        "Error: --coalition must be a comma-separated list",
    ),
    "agent-with-group": (
        ["manipulate", "--rule", "mps", "--kind", "group", "--coalition", "1,2",
         "--agent", "1"], FIG1, None,
        "Error: --agent does not apply to --kind group",
    ),
}


@pytest.mark.parametrize("case", INPUT_REFUSALS.values(), ids=list(INPUT_REFUSALS))
def test_input_refusal_names_its_cause(runner, paths, case):
    argv, profile, assignment, message = case
    argv = [*argv, "--profile", paths("p.json", profile)]
    if assignment is not None:
        argv += ["--assignment", paths("a.json", assignment)]
    result = runner.invoke(main, argv)
    assert result.exit_code == 3
    assert result.stderr.splitlines()[-1] == message


def unbalanced_invocations() -> dict[str, tuple[list[str], int]]:
    """Every verb on TWO_BY_THREE, by id: the eating rules answer it, and
    every other rule, check token and manipulation kind refuses it.  `@mps`
    stands for the `mps` output as an assignment file."""
    answered = [
        ["compute", "--rule", rule, *flags]
        for rule in ("ops", "mps")
        for flags in ([], ["--trace"], ["--json"], ["--trace", "--json"])
    ]
    refused = [["compute", "--rule", rule] for rule in RULE_NAMES if rule not in ("ops", "mps")]
    refused.append(["compute", "--rule", "priority", "--permutation", "1,2"])
    given = {"assignment": ["--assignment", "@mps"], "rule": ["--rule", "mps"], "profile": []}
    refused += [
        ["check", "--property", prop.token, *given[what]]
        for prop in PROPERTIES.values() if prop.token
        for what in prop.judges
    ]
    refused += [["manipulate", "--rule", "mps", "--kind", kind, "--agent", "1"] for kind in FINDERS]
    refused.append(["manipulate", "--rule", "mps", "--kind", "group", "--coalition", "1,2"])
    cases = [(argv, 0) for argv in answered] + [(argv, 3) for argv in refused]
    return {" ".join(argv): (argv, code) for argv, code in cases}


UNBALANCED_INVOCATIONS = unbalanced_invocations()


@pytest.mark.parametrize(
    "argv, code", UNBALANCED_INVOCATIONS.values(), ids=list(UNBALANCED_INVOCATIONS)
)
def test_unbalanced_profile_on_every_verb(runner, paths, argv, code):
    mps = assignment_to_data(rules.mps(profile_from_data(TWO_BY_THREE)))
    files = {"@mps": paths("a.json", mps)}
    argv = [files.get(a, a) for a in argv] + ["--profile", paths("p.json", TWO_BY_THREE)]
    result = runner.invoke(main, argv)
    assert result.exit_code == code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if code == 3:
        assert "only defined for balanced instances" in result.stderr.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--rule", "mps", "--profile", "@p", "--relaxed"],
        ["enumerate", "--n", "2", "--m", "4", "--c", "2"],
    ],
    ids=["compute --relaxed", "enumerate --c"],
)
def test_balance_is_not_settable(runner, paths, argv):
    # The shape decides balance and quota, so neither option exists.
    argv = [paths("p.json", TWO_BY_THREE) if a == "@p" else a for a in argv]
    result = runner.invoke(main, argv)
    assert result.exit_code == 3
    assert "No such option" in result.stderr


class TestReproduce:
    def test_clean_case(self, runner):
        result = runner.invoke(main, ["reproduce", "example1"])
        assert result.exit_code == 0
        assert "OK" in result.output

    def test_case_with_recorded_diff(self, runner):
        result = runner.invoke(main, ["reproduce", "expost"])
        assert result.exit_code == 1
        assert "FAIL" in result.output
        assert "note:" in result.output

    def test_unknown_case(self, runner):
        result = runner.invoke(main, ["reproduce", "nonsense"])
        assert result.exit_code == 3
        assert "available cases" in result.stderr

    def test_json_report(self, runner):
        result = runner.invoke(main, ["reproduce", "figure1", "--json"])
        data = json.loads(result.output)
        assert data["ok"] is True
        assert all(line["ok"] for line in data["lines"])


class TestTable1:
    # reuses the in-process sweep memo warmed by the session fixture
    def test_reports_the_single_discrepancy(self, runner, table1_report):
        result = runner.invoke(main, ["table1"])
        assert result.exit_code == 1
        assert "DISCREPANCY mps x dl-strategyproofness" in result.output
        assert "-!" in result.output
        assert "wall-clock" in result.output

    def test_json_has_all_cells(self, runner, table1_report):
        result = runner.invoke(main, ["table1", "--json"])
        data = json.loads(result.output)
        assert len(data["cells"]) == 50
        assert data["ok"] is False


class TestEnumerate:
    def test_tiny_domain(self, runner):
        result = runner.invoke(main, ["enumerate", "--n", "1", "--m", "2"])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["0: 1: o1>o2", "1: 1: o2>o1", "total: 2"]

    def test_json(self, runner):
        result = runner.invoke(main, ["enumerate", "--n", "1", "--m", "2", "--json"])
        data = json.loads(result.output)
        assert data["count"] == 2
        assert data["profiles"][0]["preferences"]["1"] == ["o1", "o2"]

    def test_guard_refusal(self, runner):
        result = runner.invoke(main, ["enumerate", "--n", "3", "--m", "6"])
        assert result.exit_code == 2
        assert "refused" in result.stderr

    def test_refusal_of_a_count_too_long_to_print(self, runner):
        # (200!)^200 has more digits than str() converts by default.
        result = runner.invoke(main, ["enumerate", "--n", "200", "--m", "200"])
        assert result.exit_code == 2
        assert "refused: (200!)^200 profiles" in result.stderr

    @pytest.mark.parametrize(
        "n, m, refusal",
        [(1, 1_000_000, "(1000000!)^1 profiles"), (1_000_000, 2, "(2!)^1000000 profiles")],
    )
    def test_refusal_comes_before_the_instance(self, runner, monkeypatch, n, m, refusal):
        # Neither m! nor a million agent labels is built before the guard refuses.
        def unbuilt(*args):
            raise AssertionError("the instance was built before the refusal")

        monkeypatch.setattr("mudra.cli.canonical_instance", unbuilt)
        start = time.perf_counter()
        result = runner.invoke(main, ["enumerate", "--n", str(n), "--m", str(m)])
        assert time.perf_counter() - start < 2
        assert result.exit_code == 2
        assert f"refused: {refusal} exceed the guard of 1000000" in result.stderr

    @pytest.mark.parametrize("n, m", [(2, 3), (3, 3)])
    def test_streamed_json_is_the_canonical_listing(self, runner, n, m):
        profiles = list(enumerate_profiles(canonical_instance(n, m)))
        data = {
            "command": "enumerate",
            "count": len(profiles),
            "profiles": [profile_to_data(p) for p in profiles],
        }
        result = runner.invoke(main, ["enumerate", "--n", str(n), "--m", str(m), "--json"])
        assert result.exit_code == 0
        assert result.output == canonical_dumps(data) + "\n"

    def test_the_profile_guard_is_not_settable(self, runner):
        args = ["enumerate", "--n", "2", "--m", "3"]
        for argv in (args, ["table1"]):
            assert runner.invoke(main, argv + ["--guard", "10"]).exit_code == 3
        result = runner.invoke(main, args, env={"MUDRA_GUARD": "10"})
        assert result.exit_code == 0
        assert result.output.splitlines()[-1] == "total: 36"


NINE = [f"o{j}" for j in range(1, 10)]


class TestRelabellingGuard:
    @pytest.mark.parametrize(
        "prop, preferences",
        [
            ("anonymity", {str(i): NINE for i in range(1, 10)}),
            ("neutrality", {"1": NINE}),
        ],
    )
    def test_nine_labels_refused(self, runner, paths, prop, preferences):
        quota = len(NINE) // len(preferences)
        data = {"objects": NINE, "quota": quota, "preferences": preferences}
        result = runner.invoke(
            main,
            ["check", "--property", prop, "--rule", "uniform", "--profile", paths("p.json", data)],
        )
        assert result.exit_code == 2
        assert "refused: 9!" in result.stderr


def test_readme_command_line_names_only_real_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    synopses = [line.split() for line in block.splitlines() if line.startswith("mudra ")]
    assert {words[1] for words in synopses} == set(main.commands)
    for words in synopses:
        opts = {opt for param in main.commands[words[1]].params for opt in param.opts}
        flags = set(re.findall(r"--[\w-]+", " ".join(words)))
        assert flags <= opts, (words[1], flags - opts)


# --------------------------------------------------------------------------
# Fuzzing `check --assignment`: an exit code from the contract, never a traceback
# --------------------------------------------------------------------------

ENTRY = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=6).map(str),
    st.integers(min_value=-2, max_value=3),
    st.sampled_from(["1/0", "x", "", "1/-3", "1e10000000"]),
    st.floats(min_value=0, max_value=1),
    st.none(),
)


@st.composite
def feasible_two_by_two(draw):
    x = draw(st.fractions(min_value=0, max_value=1, max_denominator=6))
    return {"matrix": {"1": {"o1": str(x), "o2": str(1 - x)},
                       "2": {"o1": str(1 - x), "o2": str(x)}}}


@st.composite
def fuzzed_matrix(draw):
    """Random entries under agent and object keys that may miss or add one."""
    def keys(usual, spare):
        return st.one_of(st.just(usual), st.lists(st.sampled_from(usual + [spare]), unique=True))

    agents = draw(keys(["1", "2"], "3"))
    objects = draw(keys(["o1", "o2"], "o3"))
    return {"matrix": {a: {o: draw(ENTRY) for o in objects} for a in agents}}


ASSIGNMENT_DATA = st.one_of(
    feasible_two_by_two(),
    fuzzed_matrix(),
    st.fixed_dictionaries({"matrix": st.one_of(st.none(), st.lists(st.integers(), max_size=2))}),
    st.just({}),
    st.lists(st.integers(), max_size=2),
)


def refused(data, instance) -> bool:
    """Is the file malformed, or does `validate_assignment` reject it?"""
    try:
        assignment = assignment_from_data(data, instance)
    except (SchemaError, ValueError, TypeError):
        return True
    return not validate_assignment(assignment).ok


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ASSIGNMENT_DATA)
def test_fuzzed_assignments_exit_by_the_contract(tmp_path_factory, data):
    folder = tmp_path_factory.mktemp("fuzz")
    profile_path, assignment_path = folder / "p.json", folder / "a.json"
    profile_path.write_text(json.dumps(TWO_BY_TWO), encoding="utf-8")
    assignment_path.write_text(json.dumps(data), encoding="utf-8")
    instance = profile_from_data(TWO_BY_TWO).instance
    want_refusal = refused(data, instance)
    runner = CliRunner()
    for token in ASSIGNMENT_TOKENS:
        argv = ["check", "--property", token, "--profile", str(profile_path),
                "--assignment", str(assignment_path)]
        result = runner.invoke(main, argv)
        assert result.exception is None or isinstance(result.exception, SystemExit), token
        assert result.exit_code in (0, 1, 3), token
        assert (result.exit_code == 3) == want_refusal, (token, result.stderr)


# Fuzzing profile files: every verb that reads one exits by the contract
# --------------------------------------------------------------------------

#: A value of the wrong JSON type for any key or entry of a profile file,
#: a fresh copy each time, since a later mutation may edit it in place.
WRONG_TYPE = st.sampled_from([None, True, 0, 1.5, "o1", [], {}, ["o1", 2], {"o1": "o2"}]).map(
    lambda value: json.loads(json.dumps(value))
)
#: An id that is unknown, clashes with an agent or an object, or is no string.
ODD_ID = st.one_of(st.sampled_from(["o1", "o4", "o5", "1", "2", "3", ""]), WRONG_TYPE)


PROFILE_KEY = st.sampled_from(["objects", "quota", "preferences"])


def _retype(draw, data):
    data[draw(PROFILE_KEY)] = draw(WRONG_TYPE)


def _drop_key(draw, data):
    data.pop(draw(PROFILE_KEY), None)


def _set_quota(draw, data):
    data["quota"] = draw(st.sampled_from([0, -1, 1, 3, True, False, 2.0, "2", 10**30]))


def _edit_list(draw, items):
    """Append, drop or replace one entry of `items` (objects or one order)."""
    if not isinstance(items, list):
        return
    edit = draw(st.sampled_from(["append", "drop", "replace"]))
    if edit == "append":
        items.append(draw(ODD_ID))
    elif items:
        k = draw(st.integers(0, len(items) - 1))
        if edit == "drop":
            del items[k]
        else:
            items[k] = draw(ODD_ID)


def _edit_objects(draw, data):
    _edit_list(draw, data.get("objects"))


def _edit_order(draw, data):
    prefs = data.get("preferences")
    if isinstance(prefs, dict) and prefs:
        agent = draw(st.sampled_from(sorted(prefs)))
        if draw(st.booleans()):
            _edit_list(draw, prefs[agent])
        else:
            prefs[agent] = draw(WRONG_TYPE)


def _edit_agents(draw, data):
    """Add an agent (possibly named like an object), drop one or clear them all."""
    prefs = data.get("preferences")
    if not isinstance(prefs, dict):
        return
    edit = draw(st.sampled_from(["add", "drop", "clear"]))
    if edit == "add":
        name = draw(st.sampled_from(["3", "o1", "o2", ""]))
        prefs[name] = list(draw(st.permutations(FIG1["objects"])))
    elif edit == "drop" and prefs:
        del prefs[draw(st.sampled_from(sorted(prefs)))]
    else:
        prefs.clear()


PROFILE_MUTATIONS = (_retype, _drop_key, _set_quota, _edit_objects, _edit_order, _edit_agents)


@st.composite
def fuzzed_profile(draw):
    """The 2x4 c=2 profile FIG1 after one to three random mutations."""
    data = json.loads(json.dumps(FIG1))
    for _ in range(draw(st.integers(1, 3))):
        draw(st.sampled_from(PROFILE_MUTATIONS))(draw, data)
    return data


PROFILE_DATA = st.one_of(fuzzed_profile(), st.sampled_from([None, [], "profile", 3, {}]))

#: Every verb reading a profile, as the arguments after `--rule NAME --profile PATH`.
PROFILE_VERBS = (
    ("compute",),
    ("check", "--property", "anonymity"),
    ("check", "--property", "unanimity"),
    ("manipulate", "--kind", "sd"),
    ("manipulate", "--kind", "weak-sd"),
    ("manipulate", "--kind", "dl"),
    ("manipulate", "--kind", "group", "--coalition", "1,2"),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(PROFILE_DATA, st.sampled_from(RULE_NAMES))
def test_fuzzed_profiles_exit_by_the_contract(tmp_path_factory, data, rule):
    profile_path = tmp_path_factory.mktemp("fuzz") / "p.json"
    profile_path.write_text(json.dumps(data), encoding="utf-8")
    runner = CliRunner()
    for verb, *options in PROFILE_VERBS:
        argv = [verb, *options, "--rule", rule, "--profile", str(profile_path)]
        result = runner.invoke(main, argv)
        assert result.exception is None or isinstance(result.exception, SystemExit), argv
        assert result.exit_code in (0, 1, 2, 3), (argv, result.output)
