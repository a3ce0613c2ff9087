"""Profile enumeration, scenario replay, and the classification sweep."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner

from mudra import harness
from mudra.cli import main
from mudra.efficiency import EfficiencyVerdict, sd_dominates
from mudra.harness import (
    PROPERTIES,
    PROPERTY_NAMES,
    RULE_NAMES,
    RULES,
    OutputCache,
    _first_witnesses,
    canonical_instance,
    classify,
    check_rule_property,
    enumerate_profiles,
    orbit_form,
    reproduce,
    table1_sweep,
    witness_text,
)
from mudra.model import (
    PROFILE_LIMIT,
    DiscreteAssignment,
    GuardExceeded,
    Instance,
    PreferenceProfile,
    RandomAssignment,
    discrete_to_random,
    orderings,
    permute_objects,
    require_balanced,
    validate_assignment,
)
from mudra.rules import KERNELS, mps, ops, priority_rule, uniform
from mudra.serialize import (
    assignment_from_data,
    assignment_to_data,
    canonical_dumps,
    profile_to_data,
)
from mudra.strategy import find_weak_sd_manipulation, first_manipulation

F = Fraction


class TestCanonicalInstance:
    def test_balanced(self):
        inst = canonical_instance(2, 4)
        assert inst.agents == ("1", "2")
        assert inst.objects == ("o1", "o2", "o3", "o4")
        assert inst.quota == 2
        require_balanced(inst, "a balanced check")

    def test_leftover_objects_imply_relaxed(self):
        inst = canonical_instance(2, 3)
        assert inst.quota == 2
        with pytest.raises(ValueError, match="balanced instances"):
            require_balanced(inst, "a balanced check")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            canonical_instance(0, 4)


def test_witness_text_has_one_form_per_branch():
    # The one formatter behind `table1` and `reproduce table1` discrepancies.
    assert witness_text(None) == "no counterexample found"
    assert witness_text((("o1", "o2"), ("o2", "o1"))) == "o1,o2 | o2,o1"
    assert witness_text([["o1", "o2"], ["o2", "o1"]]) == "o1,o2 | o2,o1"


class TestEnumerateProfiles:
    @pytest.mark.parametrize(
        "n,m,count", [(2, 4, 576), (1, 2, 2), (2, 3, 36)]
    )
    def test_counts(self, n, m, count):
        inst = canonical_instance(n, m)
        assert sum(1 for _ in enumerate_profiles(inst)) == count

    def test_canonical_order_endpoints(self):
        profiles = list(enumerate_profiles(canonical_instance(2, 4)))
        identity = ("o1", "o2", "o3", "o4")
        reverse = ("o4", "o3", "o2", "o1")
        assert profiles[0].orders == (identity, identity)
        assert profiles[-1].orders == (reverse, reverse)

    @pytest.mark.parametrize("n,m", [(2, 4), (3, 3)])
    def test_integer_rows_come_in_canonical_order(self, n, m):
        # The table1 memo is filled from this stream, which builds no profile.
        rows = orderings(range(m), PROFILE_LIMIT, f"({m}!)^{n} profiles", repeat=n)
        assert list(rows) == [p.ranked for p in enumerate_profiles(canonical_instance(n, m))]

    def test_guard_refusal(self):
        inst = canonical_instance(3, 6)
        with pytest.raises(GuardExceeded, match="guard"):
            list(enumerate_profiles(inst))

    def test_guard_boundary(self):
        # (6!)^2 = 518,400 profiles are within the guard of 10^6: the stream
        # starts and yields lazily.  2^20 = 1,048,576 are refused when called,
        # before one profile is built.
        first = next(enumerate_profiles(canonical_instance(2, 6)))
        assert first.orders == (first.instance.objects,) * 2
        refusal = r"^\(2!\)\^20 profiles exceed the guard of 1000000$"
        with pytest.raises(GuardExceeded, match=refusal):
            enumerate_profiles(canonical_instance(20, 2))


def test_output_cache_keeps_instances_apart():
    # Both profiles list the same orders, on instances that label the rows
    # and columns differently: the second must not be served the first's output.
    square = canonical_instance(3, 3)
    shuffled = Instance(agents=("3", "1", "2"), objects=("o3", "o1", "o2"), quota=1)
    orders = (("o1", "o2", "o3"), ("o2", "o3", "o1"), ("o3", "o1", "o2"))
    cache = OutputCache()
    cache.output("priority", PreferenceProfile(square, orders))
    copy = PreferenceProfile(shuffled, orders)
    served = cache.output("priority", copy)
    assert served.instance == shuffled
    assert served == RULES["priority"](copy)
    # The memo keeps one table per rule name, keyed by `ranked` rows:
    # profiles of two instances with the same rows share one entry per rule,
    # yet each output is built on its own instance, and the memo's kernel is
    # the rule's kernel up to reduction.  The second instance's labels are
    # new letters that sort the other way.
    cache, firsts = OutputCache(), []
    for (n, m), seed in zip(((2, 4), (3, 3), (3, 6)), range(1, 4)):
        rng, inst = random.Random(seed), canonical_instance(n, m)
        first = PreferenceProfile(inst, tuple(tuple(rng.sample(inst.objects, m)) for _ in range(n)))
        letters = Instance(agents=tuple("zyx"[:n]), objects=tuple("fedcba"[-m:]), quota=inst.quota)
        renamed = dict(zip(inst.objects, letters.objects))
        second = PreferenceProfile(letters, tuple(tuple(map(renamed.get, o)) for o in first.orders))
        assert first.ranked == second.ranked
        firsts.append(first)
        for name in RULE_NAMES:
            direct = RULES[name](first), RULES[name](second)
            assert len({(p.numerators, p.denominator) for p in direct}) == 1
            outputs = cache.output(name, first), cache.output(name, second)
            assert [p.instance for p in outputs] == [inst, letters]
            assert outputs == direct
            memo = cache.callable(name)
            assert memo is cache.callable(name) and memo(second) is outputs[1]
            both = memo.kernel(inst, first.ranked), KERNELS[RULES[name]](inst, first.ranked)
            assert len({RandomAssignment.from_numerators(inst, *pair) for pair in both}) == 1
    tables = {name: set(table) for name, table in cache._outputs.items()}
    assert tables == {name: {p.ranked for p in firsts} for name in RULE_NAMES}


def test_output_cache_shares_a_scan_between_labellings(monkeypatch):
    """A misreport scan is kept by rule name, `ranked` rows and the agent's
    row, as outputs are, and holds no labels: two instances with the same
    rows share it, and each names the witness on its own instance.  So does
    a registered rule with no kernel of its own, which reads no labels."""
    square = canonical_instance(2, 4)
    letters = Instance(agents=("a", "b"), objects=("w", "x", "y", "z"), quota=2)
    renamed = dict(zip(square.objects, letters.objects))
    orders = (("o1", "o2", "o3", "o4"), ("o2", "o3", "o1", "o4"))
    first = PreferenceProfile(square, orders)
    second = PreferenceProfile(letters, tuple(tuple(map(renamed.get, o)) for o in orders))
    cache = OutputCache()
    assert cache.scan("ops", second, "a") is cache.scan("ops", first, "1")
    for profile in (first, second):
        found = first_manipulation(cache.callable("ops"), profile, "weak-sd", profile.instance.agents)
        assert found is not None and found.truthful.instance == profile.instance
        assert found == find_weak_sd_manipulation(ops, profile, profile.instance.agents[0])
    monkeypatch.setitem(RULES, "ops", lambda profile: ops(profile))
    cache = OutputCache()
    assert cache.scan("ops", second, "a") is cache.scan("ops", first, "1")
    for profile in (first, second):
        found = first_manipulation(cache.callable("ops"), profile, "weak-sd", profile.instance.agents)
        assert found == find_weak_sd_manipulation(ops, profile, profile.instance.agents[0])


#: `RandomAssignment.from_numerators` calls and checked `PreferenceProfile`
#: constructions of one table1 sweep.  The memo is filled from `ranked` rows
#: and every check that reruns a rule looks its rows up there, so
#: assignments are built only where a check judges an output or names a
#: witness, and profiles only where a check is handed one: the 24 object
#: representatives and the 27 single-unit profiles walked up to the last
#: fallback witness.  A rule found neutral and anonymous is judged only at
#: the 17 joint representatives among the 24.
SWEEP_OBJECTS = {"assignments": 146, "checked profiles": 51}


def test_the_sweep_builds_few_objects(monkeypatch):
    counts = dict.fromkeys(SWEEP_OBJECTS, 0)
    build, check = RandomAssignment.from_numerators.__func__, PreferenceProfile.__post_init__

    def counted_build(cls, *args):
        counts["assignments"] += 1
        return build(cls, *args)

    def counted_check(profile):
        counts["checked profiles"] += 1
        check(profile)

    monkeypatch.setattr(RandomAssignment, "from_numerators", classmethod(counted_build))
    monkeypatch.setattr(PreferenceProfile, "__post_init__", counted_check)
    table1_sweep(use_cache=False)
    assert counts == SWEEP_OBJECTS


#: `check_rule_property` calls and `fairness.first_asymmetries` passes of one
#: table1 sweep.  Each walk judges a cell at each of its profiles up to the
#: cell's first witness, and no further: a cell that is not a symmetry cell
#: costs one check per profile, and the neutrality of the five rules, then
#: the anonymity of the neutral ones, one shared pass per object
#: representative (24 each).
SWEEP_WORK = {"checks": 576, "symmetry passes": 48}


def test_the_sweep_judges_each_cell_once_per_profile(monkeypatch):
    counts = dict.fromkeys(SWEEP_WORK, 0)
    check, first_asymmetries = harness.check_rule_property, harness.first_asymmetries

    def counted_check(*args):
        counts["checks"] += 1
        return check(*args)

    def counted_pass(*args):
        counts["symmetry passes"] += 1
        return first_asymmetries(*args)

    monkeypatch.setattr(harness, "check_rule_property", counted_check)
    monkeypatch.setattr(harness, "first_asymmetries", counted_pass)
    table1_sweep(use_cache=False)
    assert counts == SWEEP_WORK


#: Kernel runs per rule of one table1 sweep.  The memo's fill runs each rule
#: once on the rows of each of the 576 profiles, in canonical order, and
#: every later check is served from the memo; only `rp`, whose
#: sd-envy-freeness witness lies in the single-unit fallback, runs on the 27
#: profiles walked there.
SWEEP_RUNS = {"uniform": 576, "priority": 576, "rp": 603, "ops": 576, "mps": 576}


def test_the_sweep_runs_each_kernel_once_per_profile(monkeypatch, main_profiles):
    rows = {name: [] for name in RULE_NAMES}
    for name, runs in rows.items():
        kernel = KERNELS[RULES[name]]
        monkeypatch.setitem(
            KERNELS,
            RULES[name],
            lambda inst, ranked, stop=None, runs=runs, kernel=kernel: runs.append(tuple(ranked))
            or kernel(inst, ranked, stop),
        )
    table1_sweep(use_cache=False)
    assert {name: len(runs) for name, runs in rows.items()} == SWEEP_RUNS
    canonical = [p.ranked for p in main_profiles]
    assert all(runs[: len(canonical)] == canonical for runs in rows.values())


def test_one_walk_gives_every_cell_its_own_first_witness(main_profiles):
    """Walking all 50 cells together over the 24 object representatives
    gives each cell the index, witness and certificate of walking it alone."""
    instance = main_profiles[0].instance
    firsts = [(i, p) for i, p in enumerate(main_profiles) if p.orders[0] == instance.objects]
    cells = [(rule, name) for name in PROPERTY_NAMES for rule in RULE_NAMES]
    together = _first_witnesses(cells, firsts, OutputCache())
    assert list(together) == cells
    assert {hit is None for hit in together.values()} == {True, False}
    cache = OutputCache()
    for cell in cells:
        assert _first_witnesses([cell], firsts, cache) == {cell: together[cell]}, cell


def never_called(profile):
    raise AssertionError("the rule ran although the guard should refuse first")


class TestRelabellingGuard:
    @staticmethod
    def diagonal(n):
        """n x n profile and the fixed rule giving object o_j to agent j."""
        inst = canonical_instance(n, n)
        fixed = discrete_to_random(DiscreteAssignment(inst, inst.agents))
        return PreferenceProfile(inst, (inst.objects,) * n), lambda _: fixed

    @pytest.mark.parametrize("name", ["anonymity", "neutrality"])
    def test_nine_labels_refused_before_the_rule_runs(self, name):
        profile, _ = self.diagonal(9)
        with pytest.raises(GuardExceeded, match="9!"):
            PROPERTIES[name].check(profile, None, never_called)

    @pytest.mark.parametrize("name", ["anonymity", "neutrality"])
    def test_eight_labels_answer(self, name):
        # The fixed rule is neither anonymous nor neutral, so the check
        # answers at the first relabelling.
        profile, rule = self.diagonal(8)
        holds, certificate = PROPERTIES[name].check(profile, None, rule)
        assert not holds and certificate["mismatch"]


class TestCheckRuleProperty:
    def test_uniform_is_dominated_with_certificate(self):
        inst = canonical_instance(2, 4)
        profile = next(
            p
            for p in enumerate_profiles(inst)
            if p.orders == (("o1", "o2", "o3", "o4"), ("o2", "o1", "o4", "o3"))
        )
        holds, certificate = check_rule_property("uniform", "sd-efficiency", profile)
        assert not holds
        dominator = assignment_from_data(
            {"matrix": certificate["dominator"]}, profile.instance
        )
        assert validate_assignment(dominator).ok
        assert sd_dominates(dominator, RULES["uniform"](profile), profile)

    def test_unknown_property(self):
        inst = canonical_instance(2, 4)
        profile = next(iter(enumerate_profiles(inst)))
        with pytest.raises(ValueError, match="unknown property"):
            check_rule_property("mps", "fancyness", profile)

    def test_unknown_rule(self):
        inst = canonical_instance(2, 4)
        profile = next(iter(enumerate_profiles(inst)))
        cache = OutputCache()
        with pytest.raises(ValueError, match="unknown rule 'nosuch'"):
            check_rule_property("nosuch", "sd-efficiency", profile, cache)
        assert not cache._outputs


PARITY_PROFILES = {
    "fig1": (("o1", "o2", "o3", "o4"), ("o3", "o2", "o4", "o1")),
    "disjoint-tops": (("o1", "o2", "o3", "o4"), ("o3", "o4", "o1", "o2")),
}


@pytest.mark.parametrize("rule", RULE_NAMES)
@pytest.mark.parametrize("orders", PARITY_PROFILES.values(), ids=PARITY_PROFILES)
def test_check_prints_the_sweep_certificate(tmp_path, orders, rule):
    """`mudra check --json` and the sweep give one verdict and one certificate.

    A property that judges a rule gets `--rule`; one that judges an
    assignment gets the rule's output as `--assignment` (unanimity takes
    either, so it is run both ways).
    """
    profile = PreferenceProfile(canonical_instance(2, 4), orders)
    profile_path, assignment_path = tmp_path / "p.json", tmp_path / "a.json"
    profile_path.write_text(canonical_dumps(profile_to_data(profile)))
    assignment_path.write_text(canonical_dumps(assignment_to_data(RULES[rule](profile))))
    runner, cache = CliRunner(), OutputCache()
    for name, prop in PROPERTIES.items():
        if prop.token is None:
            continue
        holds, certificate = check_rule_property(rule, name, profile, cache)
        inputs = []
        if "rule" in prop.judges:
            inputs.append(["--rule", rule])
        if "assignment" in prop.judges:
            inputs.append(["--assignment", str(assignment_path)])
        for extra in inputs:
            argv = ["check", "--property", prop.token, "--profile", str(profile_path)]
            result = runner.invoke(main, argv + extra + ["--json"])
            assert result.exit_code == (0 if holds else 1), (name, extra, result.output)
            data = json.loads(result.output)
            assert data["verdict"] is holds
            assert data["certificate"] == json.loads(json.dumps(certificate)), (name, extra)


class TestReproduce:
    def test_unknown_case_lists_available(self):
        with pytest.raises(ValueError, match="figure1.*table1"):
            reproduce("bogus")

    @pytest.mark.parametrize(
        "case", ["figure1", "pareto-decomp", "theorem1", "theorem2", "example1"]
    )
    def test_clean_cases_pass(self, case):
        report = reproduce(case)
        assert report["ok"], [line["label"] for line in report["lines"] if not line["ok"]]

    def test_a_failed_matrix_line_prints_both_matrices(self, monkeypatch):
        recorded = tuple(row[::-1] for row in harness._INTERLEAVED_MPS)
        monkeypatch.setattr(harness, "_INTERLEAVED_MPS", recorded)
        line = reproduce("figure1")["lines"][0]
        assert line["ok"] is False
        assert line["detail"] == (
            "computed [7/8 1/2 1/4 3/8; 1/8 1/2 3/4 5/8], "
            "expected [3/8 1/4 1/2 7/8; 5/8 3/4 1/2 1/8]"
        )

    def test_a_dominator_that_does_not_dominate_fails_the_pair_line(self, monkeypatch):
        # Each recorded assignment is judged not SD-efficient, but the
        # "dominator" offered is the assignment itself, which does not dominate it.
        def self_dominated(q, profile):
            return EfficiencyVerdict(holds=False, dominator=q)

        monkeypatch.setattr(harness, "is_sd_efficient", self_dominated)
        report = reproduce("pareto-decomp")
        assert [line["ok"] for line in report["lines"]] == [True, True, False]
        assert report["lines"][2]["label"].endswith("are SD-dominated")

    def test_replay_is_deterministic(self):
        assert reproduce("example1") == reproduce("example1")

    def test_recorded_unbalanced_claim_diffs(self):
        report = reproduce("expost")
        assert report["ok"] is False
        failing = [line for line in report["lines"] if not line["ok"]]
        assert len(failing) == 1
        assert "unbalanced" in failing[0]["label"]
        # the refuting decomposition is spelled out for the reader
        assert any("decomposition exists" in note for note in report["notes"])

    def test_report_serializes(self):
        # The report is the dict `reproduce --json` prints, keys in that order.
        data = reproduce("example1")
        assert list(data) == ["case", "ok", "lines", "notes"]
        assert data["case"] == "example1"
        assert data["ok"] is True
        assert all(list(line) == ["label", "ok", "detail"] for line in data["lines"])
        assert all(line["ok"] is True for line in data["lines"])
        assert json.loads(canonical_dumps(data)) == data


class TestTable1Sweep:
    def test_every_expected_sign_has_a_cell(self, table1_report, table1_cells):
        assert len(table1_report.cells) == len(PROPERTY_NAMES) * len(RULE_NAMES)
        for prop in PROPERTY_NAMES:
            for rule, sign in zip(RULE_NAMES, PROPERTIES[prop].signs, strict=True):
                assert table1_cells[rule, prop].expected == sign

    def test_minus_cells_store_replayable_counterexamples(self, table1_report):
        for cell in table1_report.cells:
            if cell.observed != "counterexample-found":
                continue
            assert cell.witness_orders is not None
            assert cell.certificate is not None
            n = len(cell.witness_orders)
            m = len(cell.witness_orders[0])
            inst = canonical_instance(n, m)
            profile = PreferenceProfile(inst, cell.witness_orders)
            holds, _ = check_rule_property(cell.rule, cell.property_name, profile)
            assert not holds

    def test_plus_cells_swept_everything(self, table1_report):
        for cell in table1_report.cells:
            if cell.observed == "supported-by-sweep":
                assert cell.profiles_checked == 576
                assert cell.witness_orders is None

    def test_single_unit_fallback_is_used_for_rp_envy(self, table1_cells):
        cell = table1_cells["rp", "sd-envy-freeness"]
        assert cell.domain.startswith("n=4")
        assert cell.observed == "counterexample-found"

    def test_rule_timings_recorded(self, table1_report):
        assert [rule for rule, _ in table1_report.rule_seconds] == list(RULE_NAMES)
        assert all(secs >= 0 for _, secs in table1_report.rule_seconds)

    def test_report_serializes(self, table1_report):
        data = table1_report.to_data()
        assert len(data["cells"]) == 50
        assert set(data["rule_seconds"]) == set(RULE_NAMES)

    def test_memoized_between_calls(self, table1_report):
        assert table1_sweep() is table1_report


def representative(profile):
    """The member of the profile's object-relabelling orbit whose first
    order is the instance's object tuple."""
    objects = profile.instance.objects
    return permute_objects(profile, dict(zip(profile.orders[0], objects)))


#: table1 property -> its verdict in a `sweep_data` rule record.
SWEEP_DATA_VERDICTS = {
    "sd-efficiency": lambda v: v["sd_efficient"],
    "ex-post-efficiency": lambda v: v["ex_post"].holds,
    "unanimity": lambda v: v["unanimous"],
    "sd-envy-freeness": lambda v: v["sd_envy_free"],
    "weak-sd-envy-freeness": lambda v: v["weak_sd_envy_free"],
    **{
        f"{kind}-strategyproofness": (
            lambda v, kind=kind: all(m is None for m in v["manipulations"][kind].values())
        )
        for kind in ("sd", "dl", "weak-sd")
    },
}


#: (property, rule) -> the profiles of the 576 on 2x4 c=2 where the rule
#: violates the property; for strategyproofness, where some agent has a
#: misreport of that kind.  Every other cell of the table has none.
VIOLATION_COUNTS = {
    ("sd-efficiency", "uniform"): 552,
    ("sd-efficiency", "rp"): 72,
    ("sd-efficiency", "mps"): 360,
    ("ex-post-efficiency", "uniform"): 456,
    ("ex-post-efficiency", "mps"): 264,
    ("unanimity", "uniform"): 96,
    ("sd-envy-freeness", "priority"): 384,
    ("weak-sd-envy-freeness", "priority"): 192,
    ("anonymity", "priority"): 480,
    ("sd-strategyproofness", "ops"): 312,
    ("sd-strategyproofness", "mps"): 312,
    ("dl-strategyproofness", "ops"): 312,
    ("dl-strategyproofness", "mps"): 264,
    ("weak-sd-strategyproofness", "ops"): 312,
}


def test_violation_count_of_every_table1_cell(sweep_data, table1_cells):
    counts = {}
    for rule in RULE_NAMES:
        for property_name, verdict in SWEEP_DATA_VERDICTS.items():
            counts[property_name, rule] = sum(
                not verdict(record["rules"][rule]) for record in sweep_data
            )
        counts["anonymity", rule] = sum(
            not record["rules"][rule]["anonymity"][0] for record in sweep_data
        )
        # Neutral at every orbit representative is neutral on the whole
        # domain (see `classify`), so a neutrality cell that held counts 0.
        cell = table1_cells[rule, "neutrality"]
        assert cell.observed == "supported-by-sweep", rule
        counts["neutrality", rule] = 0
    assert counts == {
        (property_name, rule): VIOLATION_COUNTS.get((property_name, rule), 0)
        for property_name in PROPERTY_NAMES
        for rule in RULE_NAMES
    }


def joint_orbit(ranked):
    """Every relabelling of the agents and objects of the profile with rows
    `ranked`, as `ranked` rows: agent k's order becomes that of agent
    agents[k], with column j renamed objects[j]."""
    n, m = len(ranked), len(ranked[0])
    return {
        tuple(tuple(objects[j] for j in ranked[k]) for k in agents)
        for agents in itertools.permutations(range(n))
        for objects in itertools.permutations(range(m))
    }


def mps_if_o1_first(profile):
    """`mps` on every object representative, where agent 1 ranks o1 first,
    and the uniform rule elsewhere: neither neutral nor unanimous."""
    if profile.orders[0][0] == "o1":
        return mps(profile)
    return uniform(profile.instance)


def stays_priority_unless_inverse_first(profile):
    """Serial dictatorship, or the uniform rule when agent 2's order, read
    as ranks in agent 1's, is a permutation past its inverse.  Relabelling
    the objects keeps that permutation and swapping the agents inverts it,
    so the rule is neutral and, like serial dictatorship, not anonymous."""
    rank = {j: place for place, j in enumerate(profile.ranked[0])}
    read = [rank[j] for j in profile.ranked[1]]
    inverse = [read.index(place) for place in range(len(read))]
    if read > inverse:
        return uniform(profile.instance)
    return priority_rule(profile)


class TestOrbitReduction:
    """`classify`, and through it the table1 sweep, checks one profile per
    object-relabelling orbit for a rule it has verified neutral, and one per
    agents-and-objects orbit for a rule verified anonymous too; these tests
    hold it to the unreduced walk."""

    @pytest.mark.parametrize("n, m, count", [(2, 4, 17), (3, 3, 10)])
    def test_joint_representatives_come_first_in_their_orbits(self, n, m, count):
        rows = [p.ranked for p in enumerate_profiles(canonical_instance(n, m))]
        firsts = [ranked for ranked in rows if orbit_form(ranked) == ranked]
        assert len(firsts) == count
        for ranked in rows:
            assert orbit_form(ranked) == min(joint_orbit(ranked))
        assert sum(len(joint_orbit(ranked)) for ranked in firsts) == len(rows)

    def test_four_agents_on_four_objects_have_762_joint_orbits(self):
        # The first of each orbit ranks the object tuple first, so only
        # those (4!)^3 profiles are candidates.
        identity = tuple(range(4))
        rows = [
            (identity, *others)
            for others in itertools.product(itertools.permutations(identity), repeat=3)
        ]
        firsts = [ranked for ranked in rows if orbit_form(ranked) == ranked]
        assert len(firsts) == 762
        assert sum(len(joint_orbit(ranked)) for ranked in firsts) == math.factorial(4) ** 4

    @pytest.mark.parametrize("n, m, quota", [(2, 4, 2), (3, 3, 1)])
    def test_representatives_come_first_in_their_orbits(self, n, m, quota):
        instance = canonical_instance(n, m)
        profiles = list(enumerate_profiles(instance))
        index = {p.orders: i for i, p in enumerate(profiles)}
        firsts = [i for i, p in enumerate(profiles) if p.orders[0] == instance.objects]
        # One per orbit of m! profiles: (m!)^(n-1), which is m! at n = 2.
        assert firsts == list(range(len(profiles) // math.factorial(m)))
        for i, profile in enumerate(profiles):
            assert index[representative(profile).orders] <= i

    @pytest.mark.parametrize("property_name", list(SWEEP_DATA_VERDICTS))
    def test_cells_match_the_unreduced_verdicts(
        self, property_name, sweep_data, table1_cells
    ):
        verdict = SWEEP_DATA_VERDICTS[property_name]
        for rule in RULE_NAMES:
            holds = [verdict(record["rules"][rule]) for record in sweep_data]
            cell = table1_cells[rule, property_name]
            first = holds.index(False) if False in holds else None
            if cell.domain.startswith("n=2"):
                expected = None if first is None else cell.profiles_checked - 1
                assert first == expected, (rule, property_name)
                if first is not None:
                    assert cell.witness_orders == sweep_data[first]["profile"].orders
            else:
                assert first is None, (rule, property_name)
            by_orbit = {}
            for record, ok in zip(sweep_data, holds):
                by_orbit.setdefault(representative(record["profile"]).orders, set()).add(ok)
            assert len(by_orbit) == 24
            assert all(len(v) == 1 for v in by_orbit.values()), (rule, property_name)

    def test_anonymity_cells_match_an_unreduced_scan(self, sweep_data, table1_cells):
        for rule in RULE_NAMES:
            verdicts = [record["rules"][rule]["anonymity"] for record in sweep_data]
            found = next((i for i, (holds, _) in enumerate(verdicts) if not holds), None)
            cell = table1_cells[rule, "anonymity"]
            if found is None:
                assert cell.observed == "supported-by-sweep"
                assert cell.profiles_checked == len(sweep_data)
            else:
                assert cell.profiles_checked == found + 1
                assert cell.witness_orders == sweep_data[found]["profile"].orders
                assert cell.certificate == verdicts[found][1]

    @pytest.mark.parametrize(
        "n, m, stand_in, properties",
        [
            pytest.param(3, 3, None, PROPERTY_NAMES, id="3x3c1"),
            pytest.param(2, 4, mps_if_o1_first, ("neutrality", "unanimity"), id="not-neutral"),
            pytest.param(
                2, 4, stays_priority_unless_inverse_first,
                ("neutrality", "anonymity", "sd-efficiency"), id="not-anonymous",
            ),
        ],
    )
    def test_classify_equals_the_unreduced_walk(self, monkeypatch, n, m, stand_in, properties):
        if stand_in is not None:
            monkeypatch.setitem(RULES, "uniform", stand_in)
        instance = canonical_instance(n, m)
        cells = [(rule, name) for name in properties for rule in RULE_NAMES]
        unreduced = enumerate(enumerate_profiles(instance))
        found = classify(instance, cells, OutputCache())
        assert found == _first_witnesses(cells, unreduced, OutputCache())
        if stand_in is mps_if_o1_first:
            # The unanimity witness lies off the object representatives,
            # where a walk that assumed neutrality would never look.
            assert found["uniform", "neutrality"] is not None
            assert found["uniform", "unanimity"][1].orders[0] != instance.objects
        elif stand_in is stays_priority_unless_inverse_first:
            # The sd-efficiency witness is an object representative but not
            # the first of its joint orbit, where a walk that assumed
            # anonymity would never look.
            assert found["uniform", "neutrality"] is None
            witness = found["uniform", "sd-efficiency"][1]
            assert witness.orders[0] == instance.objects
            assert orbit_form(witness.ranked) != witness.ranked

    def test_classify_refuses_past_the_guard_before_any_work(self, monkeypatch):
        def never_built(profile):
            raise AssertionError("a profile was built although the guard should refuse first")

        monkeypatch.setitem(RULES, "uniform", never_called)
        monkeypatch.setattr(PreferenceProfile, "__post_init__", never_built)
        cells = [("uniform", name) for name in PROPERTY_NAMES]
        with pytest.raises(GuardExceeded, match=r"^\(6!\)\^3 profiles exceed the guard"):
            classify(canonical_instance(3, 6), cells, OutputCache())
