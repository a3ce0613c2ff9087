"""Mutation check: each mutant of `src/mudra` must fail the tests named for it.

Run from anywhere, with pytest and Hypothesis installed::

    python3 tests/mutants.py [NAME ...]

With names, only those mutants run, in the order given, and an unknown
name exits 2 before any run: a quick re-check of the mutants a change
re-anchored.  The full run, with no names, is the acceptance check.

A mutant is a module of `src/mudra`, a source snippet that occurs exactly
once in it, the snippet's replacement, the test files expected to kill it
and its killer: the pytest node id of one test in those files that fails
on it.  For each mutant the runner copies `src`, `tests`, `pyproject.toml`
and `README.md` into a temporary directory, applies the mutant there and
runs its killer alone with `-x -q -p no:cacheprovider --hypothesis-seed=0
--tb=no`; only if the killer passes does it run the mutant's test files
the same way.  Each run is stopped after TIMEOUT seconds, which counts as
a kill ("timed out"), and may use MEMORY_LIMIT bytes of address space, so
a mutant that loops or allocates without end cannot hang the runner or
exhaust the machine (without tracebacks, a test that hits the limit fails
cleanly).  It prints "killed" when the killer fails, "killed, not by its
killer" when only the files' run fails, "timed out" or "survived", with
the seconds taken, and after a kill the id of the first failing test if
pytest printed one; it exits 1 if any mutant survives.  pytest's exit code
1 is a kill even when no test is named, as when MEMORY_LIMIT strikes while
pytest writes its summary; any other nonzero exit, such as a collection
error (exit code 2) or a killer that names no test (exit code 4), stops
the runner with pytest's output (`classify`).  pytest does not collect
this file (its name does not start with `test_`); `tests/test_mutants.py`
checks in Tier-1 that every snippet still occurs exactly once, that every
mutated module compiles and that every killer names a test function of
one of its mutant's files, so a refactor cannot silently empty, break or
orphan a mutant.
Standard library only (POSIX: `resource`).
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
TIMEOUT = 120  # seconds per run; the slowest clean file, test_strategy.py, takes about 50 s
MEMORY_LIMIT = 2 * 1024**3  # bytes of address space per run; the whole clean suite fits


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name in src/mudra
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # paths from the repository root
    killer: str  # pytest node id of a test in `tests` that fails on the mutant

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
    # A public rule that departs from its kernel: it looks at the last
    # object of the first order, which the kernel the scan runs never does.
    Mutant(
        "mps-peeks-at-a-last-object",
        "rules.py",
        "    inst = profile.instance\n"
        "    return RandomAssignment.from_numerators(inst, *_mps(inst, profile.ranked))\n",
        "    inst = profile.instance\n"
        "    if profile.orders[0][-1] == inst.objects[0]:\n"
        "        return ops(profile)\n"
        "    return RandomAssignment.from_numerators(inst, *_mps(inst, profile.ranked))\n",
        (*RULES_TESTS, *STRATEGY_TESTS),
        "tests/test_rules.py::test_eating_engine_matches_micro_step_oracle_on_main_domain[37]",
    ),
    # A trace whose phases each carry the bounds of the phase before.
    Mutant(
        "phase-bounds-one-phase-late",
        "rules.py",
        "    bounds = [Fraction(0)] + ",
        "    bounds = [Fraction(0), Fraction(0)] + ",
        RULES_TESTS,
        "tests/test_rules.py::TestGoldenOutcomes::test_mps_two_agent_interleaved",
    ),
    Mutant(
        "trie-leaf-one-read-early",
        "strategy.py",
        "    node = trie = trie or (log[0], {})\n",
        "    log = log[:-1] or log\n    node = trie = trie or (log[0], {})\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::test_a_trie_walk_searches_each_node_once",
    ),
    Mutant(
        "missing-branch-judged",
        "strategy.py",
        "        if reported not in branches:\n            return False\n",
        "        if reported not in branches:\n            return True\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::test_a_trie_walk_searches_each_node_once",
    ),
    # Numerators compared without their denominators.  Every run of a
    # bundled kernel on one instance has the same denominator (the eating
    # engine's is fixed), so only an adapted rule's reduced outcomes, over
    # unequal ones, tell.
    Mutant(
        "raw-numerators-compared",
        "strategy.py",
        "        gap = total * truth_scale - truth_sum * scale\n",
        "        gap = total - truth_sum\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::test_scan_verdicts_equal_fraction_comparisons",
    ),
    # A rule without a kernel of its own is called prunable, and its kernel
    # (an adapter) reads the members' rows behind the views' backs: the
    # truthful run logs no read and ends the scan.
    Mutant(
        "rule-without-a-kernel-scanned-with-the-trie-on",
        "rules.py",
        "    return adapted(rule), False\n",
        "    unviewed = adapted(rule)\n"
        "    return (\n"
        "        lambda inst, ranked: unviewed(inst, [getattr(row, 'row', row) for row in ranked])\n"
        "    ), True\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::test_a_row_read_outside_the_views_switches_pruning_off",
    ),
    # An output memo's rule called prunable, so the scan gives its kernel
    # the views: the memo is keyed by the views, no report is ever a hit and
    # the memo fills with entries nothing can find again.
    Mutant(
        "memo-kernel-given-the-scans-views",
        "rules.py",
        "        return rule.kernel, False\n",
        "        return rule.kernel, True\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::"
        "test_a_memo_rule_is_scanned_through_the_memo_on_plain_rows[uniform]",
    ),
    # The witness names the report judged before it.
    Mutant(
        "witness-built-from-the-previous-report",
        "strategy.py",
        "                    witnesses[kind] = joint, numerators, scale\n"
        "            wanted &= ~gained\n"
        "            if not wanted:\n"
        "                break\n"
        "        if pruned:\n            trie = _grown(trie, log, joint)\n",
        "                    witnesses[kind] = previous, numerators, scale\n"
        "            wanted &= ~gained\n"
        "            if not wanted:\n"
        "                break\n"
        "        previous = joint\n"
        "        if pruned:\n            trie = _grown(trie, log, joint)\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::TestWeakSdManipulation::test_one_at_a_time_eating_is_manipulable",
    ),
    # A scan asked for several kinds ends at the first witness of any, so a
    # kind that only a later report shows has none.
    Mutant(
        "scan-stops-after-the-first-kind-found",
        "strategy.py",
        "            wanted &= ~gained\n            if not wanted:\n                break\n",
        "            wanted &= ~gained\n            break\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::test_one_scan_finds_what_the_three_finders_find[ops]",
    ),
    # Every report that gains in a kind overwrites that kind's witness, so
    # a scan asked for several kinds ends holding a later witness than the
    # first.
    Mutant(
        "scan-records-a-later-witness-for-a-kind",
        "strategy.py",
        "        gained = wanted\n",
        "        gained = _STRICT | _DL | _NOT_DOMINATED\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::test_one_scan_finds_what_the_three_finders_find[ops]",
    ),
    Mutant(
        "duplicate-member-accepted",
        "strategy.py",
        '    if len(set(members)) != len(members):\n'
        '        raise ValueError("coalition lists an agent twice")\n',
        "",
        STRATEGY_TESTS,
        "tests/test_strategy.py::TestGroupManipulation::test_duplicate_member_rejected",
    ),
    # The trie walk stops advancing: every answer it still gives is right,
    # and a walk two reads deep spins for ever;
    # `test_a_trie_walk_searches_each_node_once` fails on the first repeat.
    Mutant(
        "trie-walk-stalls",
        "strategy.py",
        "        node = branches[reported]\n    return True\n",
        "        node = branches[reported] and node\n    return True\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::test_a_trie_walk_searches_each_node_once",
    ),
    Mutant(
        "first-member-judged-only",
        "strategy.py",
        "        for i, truth_sums, order in truths:\n",
        "        for i, truth_sums, order in truths[:1]:\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::test_pair_search_matches_brute_force[rp]",
    ),
    # A member who does not improve ends the check of a joint report; the
    # mutant passes over them and keeps the kinds the others gain in.
    Mutant(
        "member-without-gain-skipped",
        "strategy.py",
        "            gained &= _gains(numerators[i], scale, truth_sums, truth_scale, order, gained)\n",
        "            gained &= _gains(numerators[i], scale, truth_sums, truth_scale, order, gained)"
        " or gained\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::TestMisreportGuard::test_six_objects_answer",
    ),
    # The eating ceiling leaves out the mass still in the market, so it
    # counts a prefix object still in the market as settled: a share that
    # can still grow rules a kind out.
    Mutant(
        "stop-counts-a-prefix-object-still-in-the-market",
        "rules.py",
        "            yield got + min(room, left)\n",
        "            yield got\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::"
        "test_a_prefix_with_an_object_in_the_market_is_judged_on_its_ceiling",
    ),
    # A ceiling below truth after one above it rules out DL as well as
    # strict SD, though the final sum where the ceiling is above truth may
    # be a first gain.
    Mutant(
        "dl-ruled-out-after-an-earlier-final-gain",
        "strategy.py",
        "                wanted &= ~_STRICT if above else ~(_STRICT | _DL)\n",
        "                wanted &= ~(_STRICT | _DL)\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::test_an_earlier_final_gain_keeps_dl_open",
    ),
    # The `rp` ceiling counts the states where the member has picked in
    # place of those where it has not, so it leaves out the picks still to
    # come.
    Mutant(
        "rp-ceiling-skips-the-states-where-the-member-has-not-picked",
        "rules.py",
        "            if not picked >> row & 1:\n                waiting[taken]",
        "            if picked >> row & 1:\n                waiting[taken]",
        STRATEGY_TESTS,
        "tests/test_strategy.py::test_ceilings_bound_the_final_prefix_sums[rp]",
    ),
    # The `rp` ceiling lets a member still to pick take one object of a
    # prefix, not up to `quota`: at quota 1 nothing changes, only on the
    # 3x6 c=2 profiles.
    Mutant(
        "rp-ceiling-takes-one-object-per-pick",
        "rules.py",
        "        pending = [[taken, ways, quota] for taken, ways in waiting.items()]\n",
        "        pending = [[taken, ways, 1] for taken, ways in waiting.items()]\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::test_ceilings_bound_the_final_prefix_sums[rp]",
    ),
    # A scan passes no stop while it asks for not-SD-domination, so those
    # runs never stop; every witness stays the same, and only the stop's
    # presence and the pinned run counts change.
    Mutant(
        "sd-scan-passes-no-stop",
        "strategy.py",
        "        numerators, scale = kernel(inst, ranked, stop) or (truth, truth_scale)\n",
        "        numerators, scale = kernel(inst, ranked, None if wanted & _NOT_DOMINATED else stop)"
        " or (truth, truth_scale)\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::test_every_pruned_scan_passes_a_stop[ops]",
    ),
    # The walk along a member's order ends at the first ceiling below
    # truth, before it can find one above truth later: the member counts as
    # having none, and a run whose final row may still be incomparable to
    # truth, an sd witness, is stopped.
    Mutant(
        "stops-on-one-ceiling-below-truth",
        "strategy.py",
        "            if above and below:\n                break\n",
        "            if below:\n                break\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::"
        "test_ruled_out_is_sound_and_stops_without_a_ceiling_above_truth[1-3-3-1]",
    ),
    # A member none of whose ceilings is above truth stops the run only if
    # one is below truth: ceilings equal to truth at every prefix, which
    # leave the row no gain, stop nothing.
    Mutant(
        "never-stops-when-no-ceiling-is-below-truth",
        "strategy.py",
        "        if not above:\n            return True\n",
        "        if not above and below:\n            return True\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::test_a_member_with_no_ceiling_above_truth_rules_out_every_kind",
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
        "tests/test_model.py::TestInstance::test_no_agents_rejected",
    ),
    Mutant(
        "instance-without-objects-accepted",
        "model.py",
        '        if not self.objects:\n'
        '            raise ValueError("instance needs at least one object")\n',
        "",
        MODEL_TESTS,
        "tests/test_model.py::TestInstance::test_no_objects_rejected",
    ),
    Mutant(
        "non-rational-entry-accepted",
        "model.py",
        '    raise TypeError(f"{where}: expected a rational, got {type(value).__name__}")\n',
        "    return value\n",
        MODEL_TESTS,
        "tests/test_model.py::TestRandomAssignment::test_non_rational_entries_rejected",
    ),
    Mutant(
        "unknown-object-indexed",
        "model.py",
        '            raise KeyError(f"unknown object {obj!r}") from None\n',
        "            return -1\n",
        MODEL_TESTS,
        "tests/test_model.py::TestInstance::test_unknown_object_index_rejected",
    ),
    Mutant(
        "duplicate-agent-accepted",
        "model.py",
        '        if len(set(self.agents)) != len(self.agents):\n'
        '            raise ValueError("duplicate agent ids")\n',
        "",
        MODEL_TESTS,
        "tests/test_model.py::TestInstance::test_duplicate_ids_rejected",
    ),
    # The one admission test of an instance's quota, dropped: any quota passes.
    Mutant(
        "unbalanced-quota-unchecked",
        "model.py",
        "        if self.quota != -(-m // n):\n",
        "        if False:\n",
        MODEL_TESTS,
        "tests/test_model.py::TestInstance::test_quota_times_agents_must_cover_objects",
    ),
    # Balance read as admission: every instance with m != n * quota refused,
    # so the eating rules never see an unbalanced profile.
    Mutant(
        "unbalanced-instance-refused",
        "model.py",
        "        if self.quota != -(-m // n):\n",
        "        if self.quota != -(-m // n) or m != n * self.quota:\n",
        ("tests/test_cli.py",),
        "tests/test_cli.py::TestCompute::test_relaxed_profile",
    ),
    Mutant(
        "short-row-accepted",
        "model.py",
        "        if len(row) != m:\n",
        "        if False:\n",
        MODEL_TESTS,
        "tests/test_model.py::TestRandomAssignment::test_shape_checked_at_construction",
    ),
    Mutant(
        "unknown-owner-accepted",
        "model.py",
        "            if owner not in known:\n",
        "            if False:\n",
        MODEL_TESTS,
        "tests/test_model.py::TestDiscreteAssignment::test_unknown_owner_rejected",
    ),
    Mutant(
        "unreduced-numerators-stored",
        "model.py",
        "        common = math.gcd(d, *itertools.chain.from_iterable(numerators))\n",
        "        common = 1\n",
        MODEL_TESTS,
        "tests/test_model.py::"
        "TestRandomAssignment::test_from_numerators_reduces_to_the_lcm_of_the_denominators",
    ),
    Mutant(
        "listed-orders-kept",
        "model.py",
        '        object.__setattr__(self, "orders", tuple(map(tuple, self.orders)))\n',
        "",
        MODEL_TESTS,
        "tests/test_model.py::TestPreferenceProfile::test_with_orders_batch",
    ),
    # A reported profile that loses its reports, or puts one in the wrong row.
    Mutant(
        "reports-dropped",
        "model.py",
        "            orders[self.instance.agent_index(agent)] = order\n",
        "            pass\n",
        MODEL_TESTS,
        "tests/test_model.py::TestPreferenceProfile::test_with_order_replaces_one_agent",
    ),
    Mutant(
        "report-in-the-wrong-row",
        "model.py",
        "            orders[self.instance.agent_index(agent)] = order\n",
        "            orders[-1 - self.instance.agent_index(agent)] = order\n",
        MODEL_TESTS,
        "tests/test_model.py::TestPreferenceProfile::test_with_order_replaces_one_agent",
    ),
    Mutant(
        "foreign-instance-judged",
        "model.py",
        "    if assignment.instance != profile.instance:\n"
        '        raise ValueError("assignment and profile must share one instance")\n',
        "",
        (*MODEL_TESTS, *EFFICIENCY_TESTS, *FAIRNESS_TESTS),
        "tests/test_fairness.py::"
        "test_an_assignment_from_another_instance_is_refused[is_sd_envy_free]",
    ),
    Mutant(
        "non-string-rational-accepted",
        "serialize.py",
        "    if not isinstance(value, str):\n"
        '        raise SchemaError(path, f"expected a rational string, '
        'got {type(value).__name__}")\n',
        "",
        SERIALIZE_TESTS,
        "tests/test_serialize.py::TestRationals::test_non_string_values_rejected[None-NoneType]",
    ),
    Mutant(
        "overlapping-ids-accepted",
        "serialize.py",
        "    if set(agents) & set(objects):\n"
        '        raise SchemaError("preferences", "agent and object ids must be disjoint")\n',
        "",
        SERIALIZE_TESTS,
        "tests/test_serialize.py::TestProfileSchema::test_instance_errors_name_the_field_at_fault"
        "[changes1-preferences-agent and object ids must be disjoint]",
    ),
    Mutant(
        "duplicate-objects-accepted",
        "serialize.py",
        "    if len(set(objects)) != len(objects):\n"
        '        raise SchemaError("objects", "duplicate object ids")\n',
        "",
        SERIALIZE_TESTS,
        "tests/test_serialize.py::TestProfileSchema::test_duplicate_objects",
    ),
    Mutant(
        "non-strict-order-accepted",
        "serialize.py",
        "        if sorted(order) != sorted(objects):\n",
        "        if False:\n",
        SERIALIZE_TESTS,
        "tests/test_serialize.py::TestProfileSchema::test_preferences_must_be_permutations",
    ),
    Mutant(
        "empty-objects-accepted",
        "serialize.py",
        "    if not objects:\n"
        '        raise SchemaError("objects", "at least one object is required")\n',
        "",
        SERIALIZE_TESTS,
        "tests/test_serialize.py::TestProfileSchema::test_instance_errors_name_the_field_at_fault"
        "[changes0-objects-at least one object]",
    ),
    Mutant(
        "empty-preferences-accepted",
        "serialize.py",
        "    if not prefs:\n"
        '        raise SchemaError("preferences", "at least one agent is required")\n',
        "",
        ("tests/test_cli.py",),
        "tests/test_cli.py::test_input_refusal_names_its_cause[no-agents]",
    ),
    Mutant(
        "matrix-agent-keys-unchecked",
        "serialize.py",
        "    if set(matrix.keys()) != set(instance.agents):\n",
        "    if False:\n",
        SERIALIZE_TESTS,
        "tests/test_serialize.py::TestAssignmentSchema::test_agent_keys_must_match",
    ),
    Mutant(
        "matrix-object-keys-unchecked",
        "serialize.py",
        "        if set(row_data.keys()) != set(instance.objects):\n",
        "        if False:\n",
        SERIALIZE_TESTS,
        "tests/test_serialize.py::TestAssignmentSchema::test_object_keys_must_match",
    ),
    # The relabelling scan: it compares reduced views of unequal
    # denominators, and it must walk every image, not only the first.
    Mutant(
        "raw-numerators-mismatch",
        "fairness.py",
        "if a * scale != b * left_scale",
        "if a != b",
        FAIRNESS_TESTS,
        "tests/test_fairness.py::TestAnonymity::test_mismatch_is_the_first_cell_of_unequal_value",
    ),
    Mutant(
        "first-image-only",
        "fairness.py",
        '    images = orderings(positions, ORDER_LIMIT, f"{len(labels)}! {what} relabellings")\n',
        '    images = itertools.islice(\n'
        '        orderings(positions, ORDER_LIMIT, f"{len(labels)}! {what} relabellings"), 2\n'
        '    )\n',
        FAIRNESS_TESTS,
        "tests/test_fairness.py::TestNeutrality::test_constant_rule_is_not_neutral",
    ),
    # The profile's objects relabelled by the inverse of the permutation
    # applied to the output: the two agree only on involutions.
    Mutant(
        "objects-relabelled-by-the-inverse-permutation",
        "fairness.py",
        "            relabelled = tuple(tuple(map(image.__getitem__, row)) for row in ranked)\n",
        "            relabelled = tuple(tuple(map(source.__getitem__, row)) for row in ranked)\n",
        FAIRNESS_TESTS,
        "tests/test_fairness.py::"
        "TestNeutrality::test_all_bundled_rules_commute_with_object_relabeling",
    ),
    Mutant(
        "envious-and-envied-swapped",
        "fairness.py",
        "FairnessVerdict(False, agent, other, inst.objects[envied_at])",
        "FairnessVerdict(False, other, agent, inst.objects[envied_at])",
        FAIRNESS_TESTS,
        "tests/test_fairness.py::"
        "TestSdEnvyFreeness::test_dictatorship_creates_envy_under_identical_preferences",
    ),
    Mutant(
        "weak-envy-never-cleared",
        "fairness.py",
        "                elif weak and mine > its:\n",
        "                elif False:\n",
        FAIRNESS_TESTS,
        "tests/test_fairness.py::TestWeakSdEnvyFreeness::test_weaker_than_sd_envy_freeness",
    ),
    Mutant(
        "identity-relabelling-checked",
        "fairness.py",
        "        if image == identity:\n            continue\n",
        "",
        FAIRNESS_TESTS,
        "tests/test_fairness.py::TestAnonymity::test_identity_permutation_is_trivial",
    ),
    # The truthful outcome taken at relabelled rows (the agents reversed),
    # not at the profile's own.
    Mutant(
        "truthful-outcome-of-relabelled-rows",
        "fairness.py",
        "        truth, scale = kernel(inst, ranked)\n",
        "        truth, scale = kernel(inst, ranked[::-1])\n",
        FAIRNESS_TESTS,
        "tests/test_fairness.py::TestAnonymity::test_symmetric_rule_commutes_with_agent_relabeling",
    ),
    # The one pass over the relabellings: a rule stays judged past its
    # first failure, so a later one overwrites its verdict, and two sides
    # with equal numerators pass as equal over unequal scales.
    Mutant(
        "pass-judges-a-rule-past-its-first-failure",
        "fairness.py",
        "            if cell is None:\n"
        "                still_pending.append(entry)\n"
        "            else:\n",
        "            still_pending.append(entry)\n"
        "            if cell is not None:\n",
        FAIRNESS_TESTS,
        "tests/test_fairness.py::test_symmetry_checks_match_the_object_loop[3x3c1]",
    ),
    Mutant(
        "whole-rows-equal-over-unequal-scales",
        "fairness.py",
        "            if left_scale == scale and tuple(map(tuple, left)) == right:\n",
        "            if tuple(map(tuple, left)) == right:\n",
        FAIRNESS_TESTS,
        "tests/test_fairness.py::test_unequal_scales_are_compared_by_value",
    ),
    # Comparisons and the exact LP.
    Mutant(
        "sd-tie-breaks-dominance",
        "order.py",
        "        if pa < pb:\n",
        "        if pa <= pb:\n",
        ORDER_TESTS,
        "tests/test_order.py::TestSdCompare::test_strict_dominance",
    ),
    Mutant(
        "dl-verdict-reversed",
        "order.py",
        "return DlVerdict.FIRST if va > vb else DlVerdict.SECOND",
        "return DlVerdict.FIRST if va < vb else DlVerdict.SECOND",
        ORDER_TESTS,
        "tests/test_order.py::TestDlCompare::test_first_wins_on_top_object",
    ),
    Mutant(
        "trade-edge-from-a-full-object",
        "efficiency.py",
        "            if row[a] < full:\n",
        "            if row[a] <= full:\n",
        EFFICIENCY_TESTS,
        "tests/test_efficiency.py::test_cycle_test_matches_oracle_on_two_agent_owner_maps",
    ),
    Mutant(
        "trade-edge-to-an-empty-object",
        "efficiency.py",
        "                    if row[b] > 0:\n",
        "                    if row[b] >= 0:\n",
        EFFICIENCY_TESTS,
        "tests/test_efficiency.py::test_cycle_test_matches_oracle_on_two_agent_owner_maps",
    ),
    # The two searches that are loops: a finished object stays marked as on
    # the walk, and a dead end's slot stays on the augmenting path.
    Mutant(
        "finished-node-left-on-path",
        "efficiency.py",
        "                state[path.pop()] = 2\n",
        "                path.pop()\n",
        EFFICIENCY_TESTS,
        "tests/test_efficiency.py::TestIsSdEfficient::test_ops_outcome_on_staggered_profile",
    ),
    Mutant(
        "dead-end-slot-kept",
        "efficiency.py",
        "                if path:\n                    path.pop()\n",
        "",
        ("tests/test_search_loops.py",),
        "tests/test_search_loops.py::test_loops_match_the_recursive_oracles[2x4x2]",
    ),
    Mutant(
        "hull-guard-one-short",
        "efficiency.py",
        "islice(screened, HULL_LIMIT + 1)",
        "islice(screened, HULL_LIMIT)",
        (*EFFICIENCY_TESTS, "tests/test_cli.py"),
        "tests/test_cli.py::TestCheck::test_ex_post_refused_past_the_hull_guard",
    ),
    # An input with a trade cycle answered by its own decomposition, and a
    # decomposition returned one term short.
    Mutant(
        "ex-post-shortcut-taken-with-a-cycle",
        "efficiency.py",
        "    if _trade_cycle(p.numerators, p.denominator, profile) is None:\n",
        "    if True:\n",
        EFFICIENCY_TESTS,
        "tests/test_efficiency.py::TestEnumerateDiscrete::test_cap_refusal",
    ),
    Mutant(
        "ex-post-decomposition-term-dropped",
        "efficiency.py",
        "        return EfficiencyVerdict(True, decomposition=decomposition)\n",
        "        return EfficiencyVerdict(True, decomposition=decomposition[:-1])\n",
        EFFICIENCY_TESTS,
        "tests/test_efficiency.py::"
        "TestIsExPostEfficient::test_priority_average_is_ex_post_efficient",
    ),
    Mutant(
        "ratio-tie-leaves-higher-column",
        "ratlp.py",
        "(row[-1] * tableau[r][e], basis[i])\n"
        "                               < (tableau[r][-1] * row[e], basis[r])",
        "(row[-1] * tableau[r][e], -basis[i])\n"
        "                               < (tableau[r][-1] * row[e], -basis[r])",
        ("tests/test_ratlp.py",),
        "tests/test_ratlp.py::test_solve_matches_the_fraction_simplex",
    ),
    # The fraction-free tableau: a row divides by the new pivot instead of
    # the old one, the ratio test compares right-hand sides without their
    # divisors, the Farkas vector stays over d, or the hull weights stay
    # over the assignment's denominator.
    Mutant(
        "row-update-divides-by-the-new-pivot",
        "ratlp.py",
        "tableau[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]",
        "tableau[i] = [(p * x - f * y) // p for x, y in zip(row, prow)]",
        ("tests/test_ratlp.py",),
        "tests/test_ratlp.py::test_solve_returns_a_valid_certificate",
    ),
    Mutant(
        "ratio-test-not-cross-multiplied",
        "ratlp.py",
        "(row[-1] * tableau[r][e], basis[i])\n"
        "                               < (tableau[r][-1] * row[e], basis[r])",
        "(row[-1], basis[i])\n                               < (tableau[r][-1], basis[r])",
        ("tests/test_ratlp.py",),
        "tests/test_ratlp.py::test_solve_returns_a_valid_certificate",
    ),
    Mutant(
        "farkas-not-divided-by-d",
        "ratlp.py",
        "Fraction((d + cost[nvars + k]) * signs[k], d)",
        "Fraction((d + cost[nvars + k]) * signs[k])",
        ("tests/test_ratlp.py",),
        "tests/test_ratlp.py::test_solve_matches_the_fraction_simplex",
    ),
    Mutant(
        "hull-weights-not-divided-by-the-denominator",
        "ratlp.py",
        "point=tuple(w / denominator for w in hull.point)",
        "point=hull.point",
        ("tests/test_ratlp.py",),
        "tests/test_ratlp.py::TestConvexMembership::test_interior_point_with_exact_weights",
    ),
    # Rules and the registry.
    Mutant(
        "rp-share-ignores-later-orders",
        "rules.py",
        "            share = ways * orders_per_prefix\n",
        "            share = ways\n",
        RULES_TESTS,
        "tests/test_rules.py::TestSerialDictatorship::test_random_priority_answers_at_eight_agents",
    ),
    Mutant(
        "rp-last-picker-mistaken",
        "rules.py",
        "row = totals[(everyone ^ picked).bit_length() - 1]",
        "row = totals[picked.bit_length() - 1]",
        RULES_TESTS,
        "tests/test_rules.py::TestSerialDictatorship::test_random_priority_averages_all_orders",
    ),
    Mutant(
        "eating-forces-two-objects",
        "rules.py",
        "        if len(remaining) == 1:\n",
        "        if len(remaining) <= 2:\n",
        RULES_TESTS,
        "tests/test_rules.py::TestGoldenOutcomes::test_ops_disjoint_tops_then_shared_tail",
    ),
    # The forced picks read their rows again: every output stays the same,
    # and only the pinned run counts of the pair scan change.
    Mutant(
        "rp-last-picker-reads-its-row",
        "rules.py",
        "    for k in range(n - 1):\n",
        "    for k in range(n):\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::test_pair_scan_runs_the_rule_once_per_distinct_read[rp]",
    ),
    Mutant(
        "eating-last-object-reads-rows",
        "rules.py",
        "        if len(remaining) == 1:\n",
        "        if not remaining:\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::test_pair_scan_runs_the_rule_once_per_distinct_read[ops]",
    ),
    Mutant(
        "partial-priority-accepted",
        "rules.py",
        "    if list(sorted(priority)) != sorted(inst.agents):\n"
        '        raise ValueError("priority order must list every agent exactly once")\n',
        "",
        RULES_TESTS,
        "tests/test_rules.py::TestSerialDictatorship::test_priority_must_cover_all_agents",
    ),
    Mutant(
        "eating-clock-doubled",
        "rules.py",
        "for end in itertools.accumulate(lengths)]\n",
        "for end in itertools.accumulate(2 * t for t in lengths)]\n",
        RULES_TESTS,
        "tests/test_rules.py::TestGoldenOutcomes::test_mps_two_agent_interleaved",
    ),
    # Exhausted objects stay on the menu: the eating loop makes no progress,
    # and the oracle cross-check's deadline stops it.
    Mutant(
        "eaten-objects-kept",
        "rules.py",
        "            if left:\n                remaining[j] = left\n",
        "            if left >= 0:\n                remaining[j] = left\n",
        RULES_TESTS,
        "tests/test_rules.py::test_index_view_rules_match_named_oracles_exhaustively[2-4-2]",
    ),
    # An eater keeps its top columns after they are exhausted: `_top`
    # skips the availability test.
    Mutant(
        "eating-keeps-an-exhausted-column",
        "rules.py",
        "        if j in available:\n            chosen.append(j)\n",
        "        if True:\n            chosen.append(j)\n",
        RULES_TESTS,
        "tests/test_rules.py::TestGoldenOutcomes::test_mps_two_agent_interleaved",
    ),
    # The eating engine's denominator one power of lcm(1..n) short: the
    # floor divisions round where a breakpoint needs the last factor, which
    # only one object among two or more agents does (`EXACT_SHAPES`).
    Mutant(
        "whole-one-power-short",
        "rules.py",
        "    whole = math.lcm(*range(1, n + 1)) ** m\n",
        "    whole = math.lcm(*range(1, n + 1)) ** (m - 1)\n",
        RULES_TESTS,
        "tests/test_rules.py::test_eating_kernels_are_exact_over_their_denominator[2x1]",
    ),
    # The last object's phase is logged but left out of what the agents ate.
    Mutant(
        "last-object-left-out-of-the-shares",
        "rules.py",
        "            for row in eaten:\n                row[j] += left // n\n",
        "",
        RULES_TESTS,
        "tests/test_rules.py::test_eating_kernels_are_exact_over_their_denominator[3x3]",
    ),
    # Serial dictatorship's last picker reads its row (every output stays
    # the same), or takes objects other than the ones still free.
    Mutant(
        "last-dictator-reads-its-row",
        "rules.py",
        "    for i in pickers:\n",
        "    for i in priority:\n",
        RULES_TESTS,
        "tests/test_rules.py::test_forced_picks_read_no_row[priority_rule]",
    ),
    Mutant(
        "last-dictator-takes-the-wrong-objects",
        "rules.py",
        "    for j in free:",
        "    for j in range(instance.quota):",
        RULES_TESTS,
        "tests/test_rules.py::TestSerialDictatorship::test_first_dictator_takes_top_quota",
    ),
    # The one dictator loop leaves the objects still free unowned, in
    # `serial_dictator` and in the `priority` kernel alike.
    Mutant(
        "dictator-kernel-skips-the-last-pickers-free-objects",
        "rules.py",
        "    for j in free:\n        owners[j] = last\n",
        "",
        RULES_TESTS,
        "tests/test_rules.py::TestSerialDictatorship::test_first_dictator_takes_top_quota",
    ),
    # Every rule is served the first rule's memo once that is built: rules
    # share their outputs.
    Mutant(
        "memo-keyed-without-the-rule-name",
        "harness.py",
        "        return self._rules[rule_name]\n",
        "        return self._rules.get(RULE_NAMES[0], self._rules[rule_name])\n",
        ("tests/test_harness.py",),
        "tests/test_harness.py::test_output_cache_keeps_instances_apart",
    ),
    # The output memo hands the scan's stop on to the rule's kernel on a
    # miss: the kernel sees a stop it must never be given, and a stopped run
    # returns no outcome for the miss to store.
    Mutant(
        "memo-forwards-the-stop",
        "harness.py",
        "            numerators, denominator = self._kernel(instance, ranked)\n",
        "            numerators, denominator = self._kernel(instance, ranked, stop)\n",
        STRATEGY_TESTS,
        "tests/test_strategy.py::"
        "test_a_memo_rule_is_scanned_through_the_memo_on_plain_rows[ops]",
    ),
    # The output memo stores each outcome as the miss built it: equal
    # outcomes of two profiles, or of two rules, are kept as two objects.
    Mutant(
        "memo-stores-without-interning",
        "harness.py",
        "            hit = self.table[key] = self._distinct.setdefault(outcome, outcome)\n",
        "            hit = self.table[key] = outcome\n",
        ("tests/test_harness.py",),
        "tests/test_harness.py::test_the_sweep_memo_keeps_one_object_per_distinct_outcome",
    ),
    # The output memo never hits: every lookup reruns the rule's kernel.
    Mutant(
        "memo-never-hits",
        "harness.py",
        "        hit = self.table.get(key)\n",
        "        hit = None\n",
        ("tests/test_harness.py",),
        "tests/test_harness.py::test_the_sweep_runs_each_kernel_once_per_profile",
    ),
    # A memo rule's strategyproofness rows each run a scan of their own
    # instead of reading the scan the memo keeps: three scans where one does.
    Mutant(
        "memo-scan-not-shared",
        "harness.py",
        "rule.scan(profile, agent)",
        "individual_scan(rule, profile, agent)",
        ("tests/test_harness.py",),
        "tests/test_harness.py::test_the_strategyproofness_rows_share_one_scan_per_agent",
    ),
    Mutant(
        "vacuous-unanimity-fails",
        "harness.py",
        '        return True, {"detail": "vacuous: no perfect assignment exists"}\n',
        '        return False, {"detail": "vacuous: no perfect assignment exists"}\n',
        ("tests/test_harness.py",),
        "tests/test_harness.py::test_the_sweep_builds_few_objects",
    ),
    # The orbit reduction of `classify`: a profile that is not the first of
    # its agents-and-objects orbit is kept (the form is taken from the first
    # agent alone), a neutral rule that failed anonymity is swept over the
    # joint representatives too, and the object representatives are cut
    # short, (m!)^(n-2) of them (one at two agents).
    Mutant(
        "joint-test-keeps-a-later-orbit-member",
        "harness.py",
        "    return min(forms)\n",
        "    return forms[0]\n",
        ("tests/test_harness.py",),
        "tests/test_harness.py::"
        "TestOrbitReduction::test_joint_representatives_come_first_in_their_orbits[3-3-10]",
    ),
    Mutant(
        "joint-sweep-for-a-rule-that-failed-anonymity",
        "harness.py",
        '    anonymous = [name for name in neutral if found[name, "anonymity"] is None]\n',
        "    anonymous = neutral\n",
        ("tests/test_harness.py",),
        "tests/test_harness.py::TestOrbitReduction::"
        "test_classify_equals_the_unreduced_walk[not-anonymous]",
    ),
    Mutant(
        "too-few-object-representatives",
        "harness.py",
        "order_count(m, n - 1, PROFILE_LIMIT)",
        "order_count(m, n - 2, PROFILE_LIMIT)",
        ("tests/test_harness.py",),
        "tests/test_harness.py::TestOrbitReduction::"
        "test_classify_equals_the_unreduced_walk[3x3c1]",
    ),
    # The sweep's first-witness walk: a refuted cell stays pending for one
    # more profile (a cell that is not a symmetry cell keeps its first
    # witness, so it reads as before), and a walk pulls one more profile
    # after its last refutation.
    Mutant(
        "refuted-cell-stays-pending",
        "harness.py",
        "                    found[pending[0]] = index, profile, certificate\n"
        "            pending = [cell for cell in pending if found[cell] is None]\n",
        "                    found[pending[0]] = found[pending[0]] or (index, profile, certificate)\n"
        "            pending = [cell for cell in pending if not found[cell] or found[cell][0] == index]\n",
        ("tests/test_harness.py",),
        "tests/test_harness.py::test_the_sweep_judges_each_cell_once_per_profile",
    ),
    Mutant(
        "walk-pulls-a-profile-after-its-last-refutation",
        "harness.py",
        "        while pending and (pulled := next(walk, None)):\n",
        "        while (pulled := next(walk, None)) and pending:\n",
        ("tests/test_harness.py",),
        "tests/test_harness.py::test_the_sweep_builds_few_objects",
    ),
    # Scenario replay and JSON loading.
    Mutant(
        "lottery-drops-its-last-term",
        "harness.py",
        "    for weight, d in terms:\n",
        "    for weight, d in terms[:-1]:\n",
        ("tests/test_harness.py",),
        "tests/test_harness.py::TestReproduce::test_clean_cases_pass[pareto-decomp]",
    ),
    Mutant(
        "matrix-line-always-matches",
        "harness.py",
        "    return _eq_line(label, got, RandomAssignment(got.instance, rows), fmt=_fmt_assignment)\n",
        '    return _line(label, got is not None, f"computed {_fmt_assignment(got)}")\n',
        ("tests/test_harness.py",),
        "tests/test_harness.py::TestReproduce::test_a_failed_matrix_line_prints_both_matrices",
    ),
    Mutant(
        "dominator-not-replayed",
        "harness.py",
        "all(not v and sd_dominates(v.dominator, q, profile) for q, v in verdicts)",
        "all(not v for q, v in verdicts)",
        ("tests/test_harness.py",),
        "tests/test_harness.py::"
        "TestReproduce::test_a_dominator_that_does_not_dominate_fails_the_pair_line",
    ),
    Mutant(
        "repeated-keys-accepted",
        "serialize.py",
        "    data = dict(pairs)\n"
        "    if len(data) < len(pairs):\n"
        "        keys = [key for key, _ in pairs]\n"
        "        repeated = next(key for key in keys if keys.count(key) > 1)\n"
        '        raise SchemaError("$", f"key {repeated!r} appears twice in one object")\n'
        "    return data\n",
        "    return dict(pairs)\n",
        ("tests/test_cli.py",),
        "tests/test_cli.py::test_input_refusal_names_its_cause[repeated-agent]",
    ),
    Mutant(
        "refused-string-echoed-whole",
        "serialize.py",
        "    if len(text) <= ECHO_LIMIT:\n"
        "        return repr(text)\n"
        '    return f"{text[:ECHO_LIMIT]!r}... ({len(text)} characters)"\n',
        "    return repr(text)\n",
        ("tests/test_cli.py",),
        "tests/test_cli.py::test_input_refusal_names_its_cause[long-rational-entry]",
    ),
    Mutant(
        "undecodable-file-unrefused",
        "serialize.py",
        "    try:\n"
        '        text = Path(source).read_text(encoding="utf-8")\n'
        "    except UnicodeDecodeError as exc:\n"
        '        raise SchemaError("$", f"not UTF-8 text ({exc.reason} at byte {exc.start})") '
        "from None\n",
        '    text = Path(source).read_text(encoding="utf-8")\n',
        ("tests/test_cli.py",),
        "tests/test_cli.py::TestCompute::test_a_file_that_is_not_utf8_is_named",
    ),
    # The integer JSON edge: reading, memo and writing.
    Mutant(
        "decimal-sign-dropped",
        "serialize.py",
        "            if sign:\n                p = -p\n",
        "",
        SERIALIZE_TESTS,
        "tests/test_serialize.py::TestRationals::test_plain_decimal_accepted",
    ),
    Mutant(
        "entry-memo-keyed-by-column",
        "serialize.py",
        "            pair = pairs.get(value) if type(value) is str else None\n"
        "            if pair is None:\n"
        '                pair = parse_pair(value, f"{path}.{obj}")\n'
        "                if type(value) is str:\n"
        "                    pairs[value] = pair\n",
        "            pair = pairs.get(obj) if type(value) is str else None\n"
        "            if pair is None:\n"
        '                pair = parse_pair(value, f"{path}.{obj}")\n'
        "                if type(value) is str:\n"
        "                    pairs[obj] = pair\n",
        SERIALIZE_TESTS,
        "tests/test_serialize.py::TestAssignmentSchema::test_round_trip",
    ),
    Mutant(
        "written-entry-not-reduced",
        "serialize.py",
        "        g = math.gcd(v, d)\n",
        "        g = d if v % d == 0 else 1\n",
        SERIALIZE_TESTS,
        "tests/test_serialize.py::TestAssignmentSchema::test_round_trip",
    ),
    # Each profile of the streamed JSON listing loses its closing brace.
    Mutant(
        "enumerate-drops-the-closing-piece",
        "cli.py",
        'canonical_dumps(profile_to_data(p)).rstrip("\\n")',
        'canonical_dumps(profile_to_data(p)).rstrip("\\n").rpartition("\\n")[0]',
        ("tests/test_cli.py",),
        "tests/test_cli.py::TestEnumerate::test_json",
    ),
    # The profile count alone guards a listing: on one object its one
    # profile passes at any n, and n agents' labels are built.
    Mutant(
        "enumerate-agents-unguarded",
        "harness.py",
        '    refuse_over(n, PROFILE_LIMIT, f"{n} agents")\n',
        "",
        ("tests/test_cli.py",),
        "tests/test_cli.py::TestEnumerate::"
        "test_refusal_comes_before_the_instance[30000000-1-30000000 agents]",
    ),
)


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def verdict(mutant: Mutant) -> tuple[str, str]:
    """Apply `mutant` to a temporary copy of the tree and run its killer,
    then, if the killer passes, its test files: the verdict of the run that
    decides, with "killed, not by its killer" for a kill by the files' run."""
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
        outcome, test = run(mutant.name, tree, (mutant.killer,))
        if outcome == "survived":
            outcome, test = run(mutant.name, tree, mutant.tests)
            if outcome == "killed":
                outcome = "killed, not by its killer"
    return outcome, test


def run(name: str, tree: Path, tests: tuple[str, ...]) -> tuple[str, str]:
    """pytest on `tests` in `tree`: "timed out" when it outruns TIMEOUT,
    else `classify`'s verdict."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", *tests, *PYTEST_ARGS],
            cwd=tree, env=env, capture_output=True, text=True,
            timeout=TIMEOUT, preexec_fn=_cap_memory,
        )
    except subprocess.TimeoutExpired:
        return "timed out", ""
    return classify(name, result.returncode, result.stdout)


def classify(name: str, returncode: int, stdout: str) -> tuple[str, str]:
    """The verdict of mutant `name`'s finished pytest run: "survived" on exit
    code 0, "killed" on 1 (a test failed) with the first failing test's id,
    or "" when pytest printed none.  Any other code, a collection error (2)
    included, is no verdict and stops the runner."""
    if returncode == 0:
        return "survived", ""
    if returncode != 1:
        raise SystemExit(f"{name}: pytest exited {returncode}\n{stdout}")
    failed = [
        line.split(" - ")[0].split(" ", 1)[1]
        for line in stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return "killed", failed[0] if failed else ""


def main(names: list[str]) -> int:
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in names] if names else MUTANTS
    outcomes = []
    total = time.perf_counter()
    for mutant in chosen:
        start = time.perf_counter()
        outcome, test = verdict(mutant)
        print(f"{outcome:9}  {time.perf_counter() - start:6.1f} s  {mutant.name}  {test}".rstrip(),
              flush=True)
        outcomes.append(outcome)
    survivors = outcomes.count("survived")
    print(f"{len(chosen) - survivors} of {len(chosen)} killed "
          f"({outcomes.count('killed, not by its killer')} not by their killer) "
          f"in {time.perf_counter() - total:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
