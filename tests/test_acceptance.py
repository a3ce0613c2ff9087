"""Acceptance gate: ten end-to-end checks, one per release criterion.

Each test prints one pass/fail line under `pytest -v`.  Exact rational
equality throughout — tolerance zero.  Three recorded claims do not survive
exact recomputation (see the README notes on known discrepancies), so checks
3, 6 and 7 assert the certified refutations of those claims instead: each
refuting certificate is replayed from `rules.mps` and `order` primitives,
not taken from the search that produced it.
"""

import itertools
from fractions import Fraction
from pathlib import Path

from mudra.efficiency import (
    decompose_lottery,
    is_ex_post_efficient,
    sd_dominates,
    sd_efficient_discrete,
)
from mudra.harness import canonical_instance
from mudra.model import PreferenceProfile, discrete_to_random
from mudra.order import DlVerdict, dl_compare, sd_weakly_dominates
from mudra.rules import mps, mps_trace, ops
from mudra.strategy import find_group_manipulation, find_weak_sd_manipulation
from oracles import make_profile

F = Fraction


INTERLEAVED = make_profile([("o1", "o2", "o3", "o4"), ("o3", "o2", "o4", "o1")])
OPPOSED_TAILS = make_profile([("o1", "o2", "o3", "o4"), ("o2", "o1", "o4", "o3")])
TWO_TOP_CLASH = make_profile([("a", "b", "c", "d"), ("b", "c", "a", "d")])
TWO_PAIRS = make_profile(
    [
        ("a", "b", "c", "d"),
        ("a", "b", "c", "d"),
        ("b", "c", "a", "d"),
        ("b", "c", "a", "d"),
    ],
    quota=1,
)


def test_criterion_01_mps_matches_the_recorded_interleaved_outcome():
    trace = mps_trace(INTERLEAVED)
    assert trace.assignment.matrix == (
        (F(7, 8), F(4, 8), F(2, 8), F(3, 8)),
        (F(1, 8), F(4, 8), F(6, 8), F(5, 8)),
    )
    assert trace.breakpoints == (F(1, 2), F(3, 4), F(7, 8), F(9, 8))


def test_criterion_02_opposed_tails_all_halves_lottery_decomposition():
    output = mps(OPPOSED_TAILS)
    assert output.matrix == ((F(1, 2),) * 4, (F(1, 2),) * 4)
    terms = decompose_lottery(output)
    assert [w for w, _ in terms] == [F(1, 2), F(1, 2)]
    for _, d in terms:
        counts = {a: d.owners.count(a) for a in ("1", "2")}
        assert counts == {"1": 2, "2": 2}
    grids = [d.grid() for _, d in terms]
    for i in range(2):
        for j in range(4):
            assert sum(w * g[i][j] for (w, _), g in zip(terms, grids)) == F(1, 2)


#: Exact lottery over unbalanced owner maps (owners of o1..o4) that refutes
#: the recorded claim that the interleaved outcome stays outside the hull.
INTERLEAVED_UNBALANCED_LOTTERY = (
    (F(1, 4), ("1", "1", "1", "2")),
    (F(1, 4), ("1", "1", "2", "2")),
    (F(3, 8), ("1", "2", "2", "1")),
    (F(1, 8), ("2", "2", "2", "2")),
)


def owner_allocation(owners, agent, objects):
    return {o: F(int(owner == agent)) for o, owner in zip(objects, owners)}


def sd_dominated_by_same_sizes(owners, profile):
    """Some other owner map with the same bundle sizes SD-dominates `owners`.

    Brute force over every owner map: with equal bundle sizes, a different
    map that every agent weakly SD-prefers is strictly better for someone.
    """
    inst = profile.instance
    agents, objects = inst.agents, inst.objects
    sizes = [owners.count(a) for a in agents]
    for other in itertools.product(agents, repeat=len(objects)):
        if other == owners or [other.count(a) for a in agents] != sizes:
            continue
        if all(
            sd_weakly_dominates(
                owner_allocation(other, a, objects),
                owner_allocation(owners, a, objects),
                profile.order_of(a),
            )
            for a in agents
        ):
            return True
    return False


def test_criterion_03_interleaved_outcome_fails_ex_post_both_modes():
    """The balanced half of the recorded claim holds; the unbalanced half is
    refuted.

    Among balanced assignments the outcome is outside the hull, with a Farkas
    vector that separates it from the SD-efficient survivors.  Once
    unbalanced assignments compete, an exact lottery over owner maps that
    are each Pareto-optimal for their bundle sizes re-sums to the outcome,
    so the recorded "fails in both modes" does not hold.
    """
    output = mps(INTERLEAVED)
    target = [v for row in output.matrix for v in row]

    balanced = is_ex_post_efficient(output, INTERLEAVED)
    assert not balanced.holds
    f = balanced.farkas
    for d in balanced.survivors:
        grid = [v for row in d.grid() for v in row]
        assert sum(fd * gd for fd, gd in zip(f[:-1], grid)) + f[-1] <= 0
    assert sum(fd * td for fd, td in zip(f[:-1], target)) + f[-1] > 0

    unbalanced = is_ex_post_efficient(output, INTERLEAVED, allow_unbalanced=True)
    assert unbalanced.holds
    assert [
        (w, d.owners) for w, d in unbalanced.decomposition
    ] == list(INTERLEAVED_UNBALANCED_LOTTERY)

    agents, objects = INTERLEAVED.instance.agents, INTERLEAVED.instance.objects
    assert all(w > 0 for w, _ in INTERLEAVED_UNBALANCED_LOTTERY)
    assert sum(w for w, _ in INTERLEAVED_UNBALANCED_LOTTERY) == 1
    resummed = tuple(
        tuple(
            sum(
                w * owner_allocation(owners, a, objects)[o]
                for w, owners in INTERLEAVED_UNBALANCED_LOTTERY
            )
            for o in objects
        )
        for a in agents
    )
    assert resummed == output.matrix == (
        (F(7, 8), F(1, 2), F(1, 4), F(3, 8)),
        (F(1, 8), F(1, 2), F(3, 4), F(5, 8)),
    )
    for _, owners in INTERLEAVED_UNBALANCED_LOTTERY:
        assert not sd_dominated_by_same_sizes(owners, INTERLEAVED), owners


def test_criterion_04_rules_clearing_three_axiom_sweep_are_weakly_manipulable(
    table1_cells,
):
    passing = {
        rule
        for rule in ("uniform", "priority", "rp", "ops", "mps")
        if all(
            table1_cells[rule, prop].observed == "supported-by-sweep"
            for prop in ("anonymity", "neutrality", "sd-efficiency")
        )
    }
    assert "ops" in passing
    assert passing == {"ops"}
    from mudra.harness import RULES

    for rule_name in passing:
        found = any(
            find_weak_sd_manipulation(RULES[rule_name], TWO_TOP_CLASH, agent)
            for agent in ("1", "2")
        )
        assert found, f"{rule_name} unexpectedly resists weak-SD misreports here"
    witness = find_weak_sd_manipulation(ops, TWO_TOP_CLASH, "1")
    assert witness is not None
    assert witness.misreports == (("1", ("b", "a", "c", "d")),)


def test_criterion_05_single_unit_pair_coalition_witness():
    h, q = F(1, 2), F(1, 4)
    assert mps(TWO_PAIRS).matrix == (
        (h, F(0), q, q),
        (h, F(0), q, q),
        (F(0), h, q, q),
        (F(0), h, q, q),
    )
    found = find_group_manipulation(mps, TWO_PAIRS, ("1", "2"))
    assert found is not None
    assert found.misreports == (
        ("1", ("b", "a", "c", "d")),
        ("2", ("b", "a", "c", "d")),
    )
    assert found.manipulated.matrix == (
        (h, q, F(0), q),
        (h, q, F(0), q),
        (F(0), q, h, q),
        (F(0), q, h, q),
    )


def assert_dl_misreport_replays(profile, agent, misreport, truthful_row,
                                 manipulated_row):
    """Rerun `mps` truthfully and on the misreport, then compare DL-wise."""
    objects = profile.instance.objects
    truthful = mps(profile).allocation(agent)
    manipulated = mps(profile.with_order(agent, misreport)).allocation(agent)
    assert tuple(truthful[o] for o in objects) == tuple(truthful_row)
    assert tuple(manipulated[o] for o in objects) == tuple(manipulated_row)
    assert dl_compare(manipulated, truthful, profile.order_of(agent)) == DlVerdict.FIRST


def test_criterion_06_mps_axiom_sweep_on_the_full_two_agent_domain(sweep_data):
    """mps is SD-envy-free, weakly SD-strategyproof and unanimous on the
    whole domain; the recorded DL-strategyproofness is refuted.

    Every DL misreport the sweep stores against mps is replayed: rerunning
    mps on the misreported profile gives the stored manipulated matrix, and
    the manipulator's row beats its truthful row under the true order.
    """
    envious, weak_manipulable, non_unanimous = [], [], []
    dl_witnesses = []
    for record in sweep_data:
        verdicts = record["rules"]["mps"]
        orders = record["profile"].orders
        if not verdicts["sd_envy_free"]:
            envious.append(orders)
        if any(m is not None for m in verdicts["manipulations"]["weak-sd"].values()):
            weak_manipulable.append(orders)
        if not verdicts["unanimous"]:
            non_unanimous.append(orders)
        for agent, m in verdicts["manipulations"]["dl"].items():
            if m is not None:
                dl_witnesses.append((record, agent, m))
    assert not envious
    assert not weak_manipulable
    assert not non_unanimous

    witness = make_profile([("o1", "o2", "o3", "o4"), ("o2", "o3", "o1", "o4")])
    assert_dl_misreport_replays(
        witness,
        "1",
        ("o1", "o4", "o2", "o3"),
        (F(3, 4), F(1, 2), F(1, 4), F(1, 2)),
        (F(1), F(0), F(0), F(1)),
    )

    # The README's counts: the witnesses cover 264 of the 576 profiles and
    # 384 of the 1,152 profile-agent pairs.
    assert len(sweep_data) == 576
    assert len({record["profile"].orders for record, _, _ in dl_witnesses}) == 264
    assert len(dl_witnesses) == 384
    assert any(
        record["profile"].orders == witness.orders and agent == "1"
        for record, agent, _ in dl_witnesses
    )
    for record, agent, m in dl_witnesses:
        profile = record["profile"]
        assert_dl_misreport_replays(
            profile,
            agent,
            m.misreport_of(agent),
            m.truthful.matrix[profile.instance.agent_index(agent)],
            m.manipulated.matrix[profile.instance.agent_index(agent)],
        )
        assert (
            mps(profile.with_orders(dict(m.misreports))).matrix
            == m.manipulated.matrix
        )


def test_criterion_07_classification_table_matches_expected_signs(
    table1_report, table1_cells
):
    """Every '-' cell has a counterexample, and the only mismatched cell is
    the refuted recorded '+' for mps x dl-strategyproofness.

    That cell's certificate is replayed: mps is rerun on the misreport and
    the manipulated row beats the truthful row under the true order.
    """
    for cell in table1_report.cells:
        if cell.expected == "-":
            assert cell.observed == "counterexample-found", (
                f"{cell.rule} x {cell.property_name}: no counterexample found"
            )
            assert cell.witness_orders is not None
            assert cell.certificate is not None
    discrepancies = [
        (c.rule, c.property_name, c.expected, c.observed)
        for c in table1_report.discrepancies
    ]
    assert discrepancies == [
        ("mps", "dl-strategyproofness", "+", "counterexample-found")
    ]
    assert len(table1_report.cells) == 50
    assert sum(c.matched for c in table1_report.cells) == 49

    cell = table1_cells["mps", "dl-strategyproofness"]
    cert = cell.certificate
    profile = PreferenceProfile(canonical_instance(2, 4), cell.witness_orders)
    objects = profile.instance.objects
    assert_dl_misreport_replays(
        profile,
        cert["agent"],
        tuple(cert["misreport"]),
        tuple(F(cert["truthful-row"][o]) for o in objects),
        tuple(F(cert["manipulated-row"][o]) for o in objects),
    )


def test_criterion_08_implication_hierarchy_has_zero_violations(sweep_data):
    violations = []
    for record in sweep_data:
        for rule_name, verdicts in record["rules"].items():
            where = (rule_name, record["profile"].orders)
            if verdicts["sd_efficient"] and not verdicts["ex_post"]:
                violations.append(("sd-efficient => ex-post", *where))
            if verdicts["ex_post"] and not verdicts["unanimous"]:
                violations.append(("ex-post => unanimous", *where))
            if verdicts["sd_envy_free"] and not verdicts["weak_sd_envy_free"]:
                violations.append(("sd-ef => weak-sd-ef", *where))
            manips = verdicts["manipulations"]
            for agent, weak in manips["weak-sd"].items():
                if weak is None:
                    continue
                if manips["sd"][agent] is None:
                    violations.append(("weak-sd misreport => sd misreport", *where))
                if manips["dl"][agent] is None:
                    violations.append(("weak-sd misreport => dl misreport", *where))
    assert violations == []


def test_criterion_09_lp_screening_agrees_with_brute_force_and_certificates_resubstitute(
    sweep_data, balanced_assignments
):
    randoms = [discrete_to_random(d) for d in balanced_assignments]
    for record in sweep_data:
        profile = record["profile"]
        verdict = record["rules"]["mps"]["ex_post"]
        lp_efficient = {d.owners for d in sd_efficient_discrete(profile)}
        if verdict.survivors is not None:
            assert {d.owners for d in verdict.survivors} == lp_efficient
        brute = {
            d.owners
            for d, rd in zip(balanced_assignments, randoms)
            if not any(
                sd_dominates(q, rd, profile)
                for e, q in zip(balanced_assignments, randoms)
                if e.owners != d.owners
            )
        }
        assert brute == lp_efficient

        target = [v for row in record["rules"]["mps"]["output"].matrix for v in row]
        if verdict.holds:
            weights = [w for w, _ in verdict.decomposition]
            terms = [[v for row in d.grid() for v in row] for _, d in verdict.decomposition]
            assert {d.owners for _, d in verdict.decomposition} <= brute
            assert sum(weights) == 1
            assert all(w > 0 for w in weights)
            for idx in range(len(target)):
                assert sum(w * g[idx] for w, g in zip(weights, terms)) == target[idx]
        else:
            f = verdict.farkas
            for d in verdict.survivors:
                g = [v for row in d.grid() for v in row]
                assert sum(fd * gd for fd, gd in zip(f[:-1], g)) + f[-1] <= 0
            assert sum(fd * td for fd, td in zip(f[:-1], target)) + f[-1] > 0


def test_criterion_10_readme_states_the_desk_scale_exclusions():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    assert "universal quantification" in readme
    assert "#P-hard" in readme
    assert "asymptotic" in readme
