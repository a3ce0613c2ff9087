"""Per-layer numbers from one traced run.

:func:`report` derives every per-module number from the tracer's spans and
counters; :func:`metrics` picks the subset published as per-layer metrics
(``PER_LAYER``, the list in ``BENCHMARK.json``).  Timings are published
only for layers every workload runs, so no published time is a constant
zero; the times of the other layers stay in the full report.
"""

from __future__ import annotations

from tracer import Tracer

PROPERTIES = (
    "sd-efficiency", "ex-post-efficiency", "unanimity", "sd-envy-freeness",
    "weak-sd-envy-freeness", "anonymity", "neutrality", "sd-strategyproofness",
    "dl-strategyproofness", "weak-sd-strategyproofness",
)
RULES = ("uniform", "priority", "rp", "ops", "mps")
STRATEGIES = ("sd", "weak_sd", "dl", "group")
FAIRNESS = ("is_sd_envy_free", "is_weak_sd_envy_free", "check_anonymity", "check_neutrality")
SERIALIZE = ("load_profile", "load_assignment", "canonical_dumps")
COMMANDS = ("compute", "check", "manipulate")

#: (metric, unit) published with --trace 1, in BENCHMARK.json order.
PER_LAYER = (
    ("harness.check_rule_property.calls", "count"),
    ("harness.rule_evals", "count"),
    ("harness.cache_hit_ratio", "ratio"),
    ("efficiency.is_sd_efficient.calls", "count"),
    ("efficiency.is_ex_post_efficient.calls", "count"),
    ("efficiency.candidates_screened", "count"),
    ("efficiency.survivor_ratio", "ratio"),
    ("efficiency.lp_per_verdict", "ratio"),
    ("ratlp.solve.calls", "count"),
    ("ratlp.solve.infeasible", "count"),
    ("ratlp.convex_membership.calls", "count"),
    *((f"rules.{r}.calls", "count") for r in RULES),
    *((f"rules.{r}.s", "s") for r in RULES),
    ("rules.simulate_eating.phases", "count"),
    ("rules.serial_dictator.calls", "count"),
    *((f"strategy.{s}.calls", "count") for s in STRATEGIES),
    ("strategy.misreports_tried", "count"),
    ("strategy.found_ratio", "ratio"),
    ("order.sd_compare.calls", "count"),
    ("order.dl_compare.calls", "count"),
    ("order.prefix_sums.calls", "count"),
    *((f"fairness.{f}.calls", "count") for f in FAIRNESS),
    ("model.validate_assignment.calls", "count"),
    ("model.with_order.calls", "count"),
    ("model.permute_agents.calls", "count"),
    ("model.permute_objects.calls", "count"),
    *((f"serialize.{s}.calls", "count") for s in SERIALIZE),
    *((f"cli.{c}.calls", "count") for c in COMMANDS),
    ("trace.overhead_ratio", "ratio"),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def report(t: Tracer, overhead_ratio: float) -> dict[str, float]:
    """Every per-layer number of the traced run, by name."""
    out: dict[str, float] = {}
    checks = [f"harness.check.{p}" for p in PROPERTIES]
    rule_evals = sum(t.calls(f"rules.{r}") for r in RULES)
    out["harness.table1_sweep.s"] = t.seconds("harness.table1_sweep")
    for name in checks:
        out[f"{name}.s"] = t.seconds(name)
    out["harness.check_rule_property.calls"] = sum(t.calls(name) for name in checks)
    out["harness.rule_evals"] = rule_evals
    cache_calls = t.calls("harness.OutputCache.output")
    out["harness.cache_hit_ratio"] = 1 - rule_evals / cache_calls if cache_calls else 0.0

    for name in ("efficiency.is_sd_efficient", "efficiency.is_ex_post_efficient"):
        out[f"{name}.calls"] = t.calls(name)
        out[f"{name}.self_s"] = t.self_seconds(name)
    screened = t.calls("efficiency.candidates_screened")
    out["efficiency.candidates_screened"] = screened
    out["efficiency.survivor_ratio"] = _ratio(t.calls("efficiency.survivors"), screened)
    verdicts = t.calls("efficiency.is_sd_efficient") + t.calls("efficiency.is_ex_post_efficient")
    out["efficiency.lp_per_verdict"] = _ratio(t.calls("ratlp.solve"), verdicts)

    out["ratlp.solve.calls"] = t.calls("ratlp.solve")
    for p in PROPERTIES:  # solves attributed to the table1 property being checked
        out[f"ratlp.solve.calls.{p}"] = t.calls(f"ratlp.solve.calls.{p}")
    out["ratlp.solve.s"] = t.seconds("ratlp.solve")
    out["ratlp.solve.infeasible"] = t.calls("ratlp.solve.infeasible")
    out["ratlp.convex_membership.calls"] = t.calls("ratlp.convex_membership")
    out["ratlp.convex_membership.s"] = t.seconds("ratlp.convex_membership")

    for r in RULES:
        out[f"rules.{r}.calls"] = t.calls(f"rules.{r}")
        out[f"rules.{r}.s"] = t.seconds(f"rules.{r}")
    out["rules.simulate_eating.phases"] = t.calls("rules.simulate_eating.phases")
    out["rules.serial_dictator.calls"] = t.calls("rules.serial_dictator")

    scans = 0
    for s in STRATEGIES:
        out[f"strategy.{s}.calls"] = t.calls(f"strategy.{s}")
        out[f"strategy.{s}.self_s"] = t.self_seconds(f"strategy.{s}")
        scans += t.calls(f"strategy.{s}")
    out["strategy.misreports_tried"] = t.calls("model.with_order") + t.calls("model.with_orders")
    out["strategy.found_ratio"] = _ratio(t.calls("strategy.found"), scans)

    for name in ("sd_compare", "dl_compare", "prefix_sums"):
        out[f"order.{name}.calls"] = t.calls(f"order.{name}")
    for f in FAIRNESS:
        out[f"fairness.{f}.calls"] = t.calls(f"fairness.{f}")
        out[f"fairness.{f}.s"] = t.seconds(f"fairness.{f}")
    out["model.validate_assignment.calls"] = t.calls("model.validate_assignment")
    out["model.validate_assignment.s"] = t.seconds("model.validate_assignment")
    for name in ("with_order", "permute_agents", "permute_objects"):
        out[f"model.{name}.calls"] = t.calls(f"model.{name}")
    for s in SERIALIZE:
        out[f"serialize.{s}.calls"] = t.calls(f"serialize.{s}")
        out[f"serialize.{s}.s"] = t.seconds(f"serialize.{s}")
    for c in COMMANDS:
        out[f"cli.{c}.calls"] = t.calls(f"cli.{c}")
        out[f"cli.{c}.self_s"] = t.self_seconds(f"cli.{c}")
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def metrics(full: dict[str, float]) -> dict[str, dict]:
    return {name: {"value": full[name], "unit": unit} for name, unit in PER_LAYER}
