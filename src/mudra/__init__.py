"""Exact-arithmetic toolkit for multi-unit random assignment.

Everything is computed over ``fractions.Fraction``; no floats anywhere.
The package bundles five assignment rules (uniform, fixed-priority serial
dictatorship, random priority, one-at-a-time eating, multi-unit eating),
stochastic-dominance and lexicographic comparisons, efficiency / fairness /
incentive checkers with certificates (ex-post efficiency by an exact
feasibility simplex), manipulation search, and a sweep harness with a CLI
front-end.
"""

from mudra.model import (
    DiscreteAssignment,
    GuardExceeded,
    Instance,
    PreferenceProfile,
    RandomAssignment,
    Rational,
    ValidationResult,
    discrete_to_random,
    permute_agents,
    permute_objects,
    validate_assignment,
)
from mudra.order import (
    DlVerdict,
    SdVerdict,
    dl_compare,
    prefix_sums,
    sd_compare,
    sd_weakly_dominates,
)
from mudra.rules import (
    EatingTrace,
    Phase,
    mps,
    mps_trace,
    ops,
    ops_trace,
    priority_rule,
    random_priority,
    serial_dictator,
    simulate_eating,
    uniform,
)
from mudra.efficiency import (
    EfficiencyVerdict,
    check_unanimity,
    decompose_lottery,
    enumerate_discrete,
    is_ex_post_efficient,
    is_sd_efficient,
    perfect_assignment,
    sd_dominates,
)
from mudra.fairness import (
    EnvyCertificate,
    EquivarianceVerdict,
    FairnessVerdict,
    check_anonymity,
    check_neutrality,
    is_sd_envy_free,
    is_weak_sd_envy_free,
)
from mudra.strategy import (
    Manipulation,
    ManipulationKind,
    find_dl_manipulation,
    find_group_manipulation,
    find_sd_manipulation,
    find_weak_sd_manipulation,
)
from mudra.ratlp import HullResult, convex_membership
from mudra.serialize import (
    SchemaError,
    canonical_dumps,
    load_assignment,
    load_profile,
    parse_rational,
    save_assignment,
    save_profile,
)
from mudra.harness import (
    RULES,
    ReproduceReport,
    Table1Report,
    TableCell,
    canonical_instance,
    enumerate_profiles,
    reproduce,
    table1_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "DiscreteAssignment",
    "DlVerdict",
    "EatingTrace",
    "EfficiencyVerdict",
    "EnvyCertificate",
    "EquivarianceVerdict",
    "FairnessVerdict",
    "GuardExceeded",
    "HullResult",
    "Instance",
    "Manipulation",
    "ManipulationKind",
    "Phase",
    "PreferenceProfile",
    "RULES",
    "RandomAssignment",
    "Rational",
    "ReproduceReport",
    "SchemaError",
    "SdVerdict",
    "Table1Report",
    "TableCell",
    "ValidationResult",
    "canonical_dumps",
    "canonical_instance",
    "check_anonymity",
    "check_neutrality",
    "check_unanimity",
    "convex_membership",
    "decompose_lottery",
    "discrete_to_random",
    "dl_compare",
    "enumerate_discrete",
    "enumerate_profiles",
    "find_dl_manipulation",
    "find_group_manipulation",
    "find_sd_manipulation",
    "find_weak_sd_manipulation",
    "is_ex_post_efficient",
    "is_sd_efficient",
    "is_sd_envy_free",
    "is_weak_sd_envy_free",
    "load_assignment",
    "load_profile",
    "mps",
    "mps_trace",
    "ops",
    "ops_trace",
    "parse_rational",
    "perfect_assignment",
    "permute_agents",
    "permute_objects",
    "prefix_sums",
    "priority_rule",
    "random_priority",
    "reproduce",
    "save_assignment",
    "save_profile",
    "sd_compare",
    "sd_dominates",
    "sd_weakly_dominates",
    "serial_dictator",
    "simulate_eating",
    "table1_sweep",
    "uniform",
    "validate_assignment",
]
