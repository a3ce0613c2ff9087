"""Spans and counters around calls into mudra's modules, installed from outside.

The tracer wraps public functions of each layer at every binding site: a
name bound at import time (``from .ratlp import solve``) is a separate
reference, so patching only the defining module would miss callers.
:meth:`Tracer.install` therefore replaces every module-level reference in
the loaded ``mudra`` modules, every value of a module-level dict (the shared
``harness.RULES`` registry, ``cli._KIND_FINDERS``), the methods listed in
``METHODS`` and the click command callbacks.  :meth:`Tracer.uninstall`
puts every original back.

Spans are aggregated as they close: calls, total seconds, and self seconds
(duration minus the time covered by direct child spans).  Counters only
count, because for tiny functions such as ``order.sd_compare`` a timing
wrapper would cost more than the call it measures.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Any, Callable

#: (span name, module, attribute) of every timed boundary.
SPANS = (
    ("harness.table1_sweep", "mudra.harness", "table1_sweep"),
    ("harness.check", "mudra.harness", "check_rule_property"),
    ("efficiency.is_sd_efficient", "mudra.efficiency", "is_sd_efficient"),
    ("efficiency.is_ex_post_efficient", "mudra.efficiency", "is_ex_post_efficient"),
    ("ratlp.solve", "mudra.ratlp", "solve"),
    ("ratlp.convex_membership", "mudra.ratlp", "convex_membership"),
    ("rules.uniform", "mudra.rules", "uniform"),
    ("rules.priority", "mudra.rules", "priority_rule"),
    ("rules.rp", "mudra.rules", "random_priority"),
    ("rules.ops", "mudra.rules", "ops"),
    ("rules.mps", "mudra.rules", "mps"),
    ("strategy.sd", "mudra.strategy", "find_sd_manipulation"),
    ("strategy.weak_sd", "mudra.strategy", "find_weak_sd_manipulation"),
    ("strategy.dl", "mudra.strategy", "find_dl_manipulation"),
    ("strategy.group", "mudra.strategy", "find_group_manipulation"),
    ("fairness.is_sd_envy_free", "mudra.fairness", "is_sd_envy_free"),
    ("fairness.is_weak_sd_envy_free", "mudra.fairness", "is_weak_sd_envy_free"),
    ("fairness.check_anonymity", "mudra.fairness", "check_anonymity"),
    ("fairness.check_neutrality", "mudra.fairness", "check_neutrality"),
    ("model.validate_assignment", "mudra.model", "validate_assignment"),
    ("serialize.load_profile", "mudra.serialize", "load_profile"),
    ("serialize.load_assignment", "mudra.serialize", "load_assignment"),
    ("serialize.canonical_dumps", "mudra.serialize", "canonical_dumps"),
)

#: (counter name, module, attribute) of every count-only boundary.
COUNTERS = (
    ("order.sd_compare", "mudra.order", "sd_compare"),
    ("order.dl_compare", "mudra.order", "dl_compare"),
    ("order.prefix_sums", "mudra.order", "prefix_sums"),
    ("model.permute_agents", "mudra.model", "permute_agents"),
    ("model.permute_objects", "mudra.model", "permute_objects"),
    ("rules.serial_dictator", "mudra.rules", "serial_dictator"),
    ("rules.simulate_eating", "mudra.rules", "simulate_eating"),
    ("efficiency.enumerate_discrete", "mudra.efficiency", "enumerate_discrete"),
)

#: (counter name, module, class, method) of count-only methods.
METHODS = (
    ("model.with_order", "mudra.model", "PreferenceProfile", "with_order"),
    ("model.with_orders", "mudra.model", "PreferenceProfile", "with_orders"),
    ("harness.OutputCache.output", "mudra.harness", "OutputCache", "output"),
)

#: Click commands whose callbacks get a span each.
COMMANDS = ("compute", "check", "manipulate")


class Tracer:
    """Installs wrappers into the loaded mudra modules and aggregates spans."""

    def __init__(self) -> None:
        #: span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # child seconds of each open span
        self._names: list[str] = []  # names of the open spans
        self._restore: list[Callable[[], None]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn: Callable, name_of=None, post=None) -> Callable:
        spans, open_spans, names, clock = self.spans, self._open, self._names, time.perf_counter

        def wrapper(*args, **kwargs):
            key = name if name_of is None else name_of(args, kwargs)
            open_spans.append(0.0)
            names.append(key)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                names.pop()
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += took
                entry = spans.get(key)
                if entry is None:
                    entry = spans[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += took
                entry[2] += took - child
            if post is not None:
                post(result)
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable, post=None) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            return result if post is None else post(result)

        return wrapper

    def _post_hooks(self) -> dict[str, Callable[[Any], Any]]:
        counts = self.counts

        def eating(trace):
            counts["rules.simulate_eating.phases"] += len(trace.phases)
            return trace

        def candidates(stream):
            for item in stream:
                counts["efficiency.candidates_screened"] += 1
                yield item

        def ex_post(verdict):
            counts["efficiency.survivors"] += len(verdict.survivors or ())

        def solved(result):
            if result.status == "infeasible":
                counts["ratlp.solve.infeasible"] += 1
            for name in reversed(self._names):
                if name.startswith("harness.check."):
                    counts[f"ratlp.solve.calls.{name[len('harness.check.'):]}"] += 1
                    break

        def found(result):
            if result is not None:
                counts["strategy.found"] += 1

        return {
            "rules.simulate_eating": eating,
            "efficiency.enumerate_discrete": candidates,
            "efficiency.is_ex_post_efficient": ex_post,
            "ratlp.solve": solved,
            "strategy.sd": found,
            "strategy.weak_sd": found,
            "strategy.dl": found,
            "strategy.group": found,
        }

    # -- installation -------------------------------------------------------

    def _rebind_everywhere(self, original: Callable, wrapper: Callable) -> None:
        """Replace every module-level reference (and dict value) to `original`."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "mudra" or modname.startswith("mudra.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    namespace[attr] = wrapper
                    self._restore.append(
                        lambda ns=namespace, a=attr, v=value: ns.__setitem__(a, v)
                    )
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            self._restore.append(
                                lambda d=value, k=key, v=item: d.__setitem__(k, v)
                            )

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        import mudra.cli  # noqa: F401  (loads every module that binds names)

        hooks = self._post_hooks()

        def check_name(args, kwargs):
            prop = kwargs["property_name"] if "property_name" in kwargs else args[1]
            return f"harness.check.{prop}"

        for name, modname, attr in SPANS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._span(
                name, original,
                name_of=check_name if name == "harness.check" else None,
                post=hooks.get(name),
            )
            self._rebind_everywhere(original, wrapper)
        for name, modname, attr in COUNTERS:
            original = getattr(sys.modules[modname], attr)
            self._rebind_everywhere(original, self._counter(name, original, hooks.get(name)))
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._counter(name, original))
            self._restore.append(lambda c=cls, a=attr, v=original: setattr(c, a, v))
        cli = sys.modules["mudra.cli"]
        for command_name in COMMANDS:
            command = getattr(cli, command_name)
            original = command.callback
            command.callback = self._span(f"cli.{command_name}", original)
            self._restore.append(lambda c=command, v=original: setattr(c, "callback", v))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reporting ----------------------------------------------------------

    def calls(self, name: str) -> int:
        entry = self.spans.get(name)
        return entry[0] if entry else self.counts[name]

    def seconds(self, name: str) -> float:
        entry = self.spans.get(name)
        return entry[1] if entry else 0.0

    def self_seconds(self, name: str) -> float:
        entry = self.spans.get(name)
        return entry[2] if entry else 0.0

    def estimated_cost(self) -> float:
        """Seconds the installed wrappers added, from calibrated per-call costs."""
        span_cost, count_cost = calibrate()
        spans = sum(entry[0] for entry in self.spans.values())
        counted = sum(self.counts[name] for name, *_ in COUNTERS + METHODS)
        counted += self.counts["efficiency.candidates_screened"]  # generator steps
        return spans * span_cost + counted * count_cost


def calibrate(calls: int = 50_000) -> tuple[float, float]:
    """Per-call seconds a span wrapper and a counting wrapper add to a call."""

    def target(a, b):
        return a

    probe = Tracer()
    costs = []
    for fn in (target, probe._span("calibrate", target), probe._counter("calibrate", target)):
        start = time.perf_counter()
        for i in range(calls):
            fn(i, None)
        costs.append((time.perf_counter() - start) / calls)
    return max(costs[1] - costs[0], 0.0), max(costs[2] - costs[0], 0.0)
