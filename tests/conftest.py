"""Shared fixtures: the canonical two-agent domain and its exhaustive sweeps.

`sweep_data` is the expensive one: for each of the 576 profiles it records
every rule's output together with per-axiom verdicts, the hull LP answer
behind ex-post efficiency, and manipulation-search results.  It is computed
once per session and shared by the axiom, hierarchy and acceptance tests.
`table1_report` runs the classification sweep through the harness memo, so
CLI tests replaying it do not pay for a second sweep; `table1_cells` keys its
cells by (rule, property).
"""

from __future__ import annotations

import pytest

from mudra.efficiency import enumerate_discrete, is_sd_efficient, perfect_assignment
from mudra.fairness import is_sd_envy_free, is_weak_sd_envy_free
from mudra.harness import (
    RULE_NAMES,
    OutputCache,
    canonical_instance,
    enumerate_profiles,
    table1_sweep,
)
from mudra.model import discrete_to_random
from mudra.ratlp import convex_membership
from mudra.strategy import (
    find_dl_manipulation,
    find_sd_manipulation,
    find_weak_sd_manipulation,
)


@pytest.fixture(scope="session")
def main_instance():
    return canonical_instance(2, 4, 2)


@pytest.fixture(scope="session")
def main_profiles(main_instance):
    return tuple(enumerate_profiles(main_instance))


@pytest.fixture(scope="session")
def balanced_assignments(main_instance):
    return tuple(enumerate_discrete(main_instance, balanced=True))


@pytest.fixture(scope="session")
def sweep_data(main_profiles, balanced_assignments):
    """Outputs and axiom verdicts for every (rule, profile) on the main domain."""
    cache = OutputCache()
    finders = {
        "sd": find_sd_manipulation,
        "dl": find_dl_manipulation,
        "weak-sd": find_weak_sd_manipulation,
    }
    records = []
    for profile in main_profiles:
        survivors = tuple(
            d
            for d in balanced_assignments
            if is_sd_efficient(discrete_to_random(d), profile).holds
        )
        grids = [[v for row in d.grid() for v in row] for d in survivors]
        perfect = perfect_assignment(profile)
        perfect_matrix = None if perfect is None else discrete_to_random(perfect).matrix
        per_rule = {}
        for rule_name in RULE_NAMES:
            rule = cache.callable(rule_name)
            output = cache.output(rule_name, profile)
            hull = convex_membership([v for row in output.matrix for v in row], grids)
            manipulations = {
                kind: {
                    agent: finder(rule, profile, agent)
                    for agent in profile.instance.agents
                }
                for kind, finder in finders.items()
            }
            per_rule[rule_name] = {
                "output": output,
                "sd_efficient": bool(is_sd_efficient(output, profile)),
                "hull": hull,
                "ex_post": hull.status == "feasible",
                "unanimous": perfect is None or output.matrix == perfect_matrix,
                "sd_envy_free": bool(is_sd_envy_free(output, profile)),
                "weak_sd_envy_free": bool(is_weak_sd_envy_free(output, profile)),
                "manipulations": manipulations,
            }
        records.append(
            {"profile": profile, "survivors": survivors, "rules": per_rule}
        )
    return tuple(records)


@pytest.fixture(scope="session")
def table1_report():
    return table1_sweep()


@pytest.fixture(scope="session")
def table1_cells(table1_report):
    return {(cell.rule, cell.property_name): cell for cell in table1_report.cells}
