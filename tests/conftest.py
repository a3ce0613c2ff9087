"""Shared fixtures: the canonical two-agent domain and its exhaustive sweeps.

`sweep_data` is the expensive one: for each of the 576 profiles it records
every rule's output together with per-axiom verdicts, the ex-post verdict
of `is_ex_post_efficient` (the output's own lottery decomposition when it
is SD-efficient, else its survivors and its hull LP certificate), the
anonymity verdict and certificate, and manipulation-search results: one
scan per (rule, profile, agent) judges all three individual kinds.  It
is computed once per session, with no orbit reduction, and shared by the
axiom, hierarchy, table1 and acceptance tests.  `table1_report` runs the
classification sweep through the harness memo, so CLI tests replaying it
do not pay for a second sweep; `table1_cells` keys its cells by
(rule, property).
"""

from __future__ import annotations

import pytest

from mudra.efficiency import (
    enumerate_discrete,
    is_ex_post_efficient,
    is_sd_efficient,
    perfect_assignment,
)
from mudra.fairness import is_sd_envy_free, is_weak_sd_envy_free
from mudra.harness import (
    RULE_NAMES,
    OutputCache,
    canonical_instance,
    check_rule_property,
    enumerate_profiles,
    table1_sweep,
)
from mudra.model import discrete_to_random
from mudra.strategy import KINDS, individual_scan


@pytest.fixture(scope="session")
def main_instance():
    return canonical_instance(2, 4)


@pytest.fixture(scope="session")
def main_profiles(main_instance):
    return tuple(enumerate_profiles(main_instance))


@pytest.fixture(scope="session")
def balanced_assignments(main_instance):
    return tuple(enumerate_discrete(main_instance, balanced=True))


@pytest.fixture(scope="session")
def sweep_data(main_profiles):
    """Outputs and axiom verdicts for every (rule, profile) on the main domain."""
    cache = OutputCache()
    records = []
    for profile in main_profiles:
        perfect = perfect_assignment(profile)
        perfect_matrix = None if perfect is None else discrete_to_random(perfect).matrix
        per_rule = {}
        for rule_name in RULE_NAMES:
            rule = cache.callable(rule_name)
            output = cache.output(rule_name, profile)
            scans = {
                agent: individual_scan(rule, profile, agent) for agent in profile.instance.agents
            }
            manipulations = {
                kind: {agent: scan.manipulation(KINDS[kind], profile) for agent, scan in scans.items()}
                for kind in KINDS
            }
            per_rule[rule_name] = {
                "output": output,
                "sd_efficient": bool(is_sd_efficient(output, profile)),
                "ex_post": is_ex_post_efficient(output, profile),
                "unanimous": perfect is None or output.matrix == perfect_matrix,
                "sd_envy_free": bool(is_sd_envy_free(output, profile)),
                "weak_sd_envy_free": bool(is_weak_sd_envy_free(output, profile)),
                "anonymity": check_rule_property(rule_name, "anonymity", profile, cache),
                "manipulations": manipulations,
            }
        records.append({"profile": profile, "rules": per_rule})
    return tuple(records)


@pytest.fixture(scope="session")
def table1_report():
    return table1_sweep()


@pytest.fixture(scope="session")
def table1_cells(table1_report):
    return {(cell.rule, cell.property_name): cell for cell in table1_report.cells}
