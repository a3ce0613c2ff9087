"""Self-tests of the benchmark: inputs, memo bypass, tracer coverage, replay.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import layers
import replay
import workloads
from quantile import betainc, harrell_davis
from tracer import COUNTERS, SPANS, Tracer

ROOT = Path(__file__).resolve().parent.parent


def _argvs(inputs, workdir):
    return [
        None if op.argv is None else [a.replace(str(workdir), "") for a in op.argv]
        for op in inputs.ops
    ]


def _first_profile_ops(inputs):
    key = inputs.ops[0].profile
    return [op for op in inputs.ops if op.profile == key]


# -- reproducibility ----------------------------------------------------------


@pytest.mark.parametrize("workload", ["verdicts", "misreport"])
def test_same_seed_same_ops_other_seed_other_ops(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = workloads.make_inputs(workload, 7, 10, dirs[0])
    again = workloads.make_inputs(workload, 7, 10, dirs[1])
    other = workloads.make_inputs(workload, 8, 10, dirs[2])
    assert _argvs(first, dirs[0]) == _argvs(again, dirs[1])
    assert first.profiles == again.profiles
    assert first.profiles != other.profiles
    assert len(first.ops) >= 100  # p90 has at least ten samples beyond it


def test_same_seed_same_digest(tmp_path):
    digests = []
    for name in ("a", "b"):
        workdir = tmp_path / name
        workdir.mkdir()
        inputs = workloads.make_inputs("misreport", 3, 10, workdir)
        ops = [op for op in inputs.ops if op.profile.endswith("4x4c1")][:65]
        results = workloads.run_ops(ops)
        assert all(workloads.check_op(op, r, inputs) is None for op, r in zip(ops, results))
        digests.append(workloads.digest(ops, results))
    assert digests[0] == digests[1]


# -- timing ---------------------------------------------------------------------


def test_harrell_davis_quantiles():
    # I_0.4(2, 3) = sum over j = 2..4 of C(4, j) 0.4^j 0.6^(4-j)
    assert betainc(2, 3, 0.4) == pytest.approx(0.5248, abs=1e-12)
    assert harrell_davis([7.5], 0.9) == 7.5
    assert harrell_davis([1, 2, 3, 4, 5], 0.5) == pytest.approx(3)
    # One slow op beside a gap moves a plain percentile by the whole gap, the
    # Harrell-Davis estimate by a fraction of it.
    fast, slow = [1.0] * 50 + [10.0] * 50, [1.0] * 49 + [10.0] * 51
    assert harrell_davis(slow, 0.5) - harrell_davis(fast, 0.5) < 2


def test_host_clock_leaves_its_loop_out_and_stops():
    import signal

    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostClock() as clock:
        start_raw, start = time.perf_counter(), clock.now()
        while time.perf_counter() - start_raw < 0.3:
            pass
        raw, took = time.perf_counter() - start_raw, clock.now() - start
    assert len(clock.samples) >= 4
    assert raw - took == pytest.approx(sum(clock.samples[1:-1]), rel=0.1)
    assert clock.stamps == sorted(clock.stamps)
    assert clock.scale(start, start + took) > 0
    count = len(clock.samples)
    time.sleep(2 * hostspeed.PERIOD_S)
    assert len(clock.samples) == count
    assert signal.getsignal(signal.SIGALRM) is handler


# -- memo bypass ----------------------------------------------------------------


def test_consecutive_sweeps_repeat_the_full_work(monkeypatch):
    from mudra import harness

    # Two cheap properties (one with an LP) keep the test short; the sweep
    # reads the property list at call time.
    monkeypatch.setattr(harness, "PROPERTY_NAMES", ("sd-efficiency", "sd-envy-freeness"))
    op = workloads.Op(argv=None, kind="table1")
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            assert workloads.run_op(op).error is None
        report = layers.report(tracer, 1.0)
        counts.append((report["harness.rule_evals"], report["ratlp.solve.calls"]))
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][1] > 0
    # What the bypass avoids: the memoised sweep does no work the second time.
    harness.table1_sweep()
    with Tracer() as tracer:
        harness.table1_sweep()
    assert tracer.calls("ratlp.solve") == 0


# -- tracer coverage --------------------------------------------------------------


def _mudra_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "mudra" or name.startswith("mudra."))]


def test_every_binding_site_is_wrapped_and_restored():
    import mudra.cli
    from mudra import harness

    originals = {}
    for _, modname, attr in SPANS + COUNTERS:
        originals[(modname, attr)] = getattr(sys.modules[modname], attr)
    rules_before = dict(harness.RULES)
    finders_before = dict(mudra.cli._KIND_FINDERS)
    with Tracer():
        for fn in originals.values():
            for module in _mudra_modules():
                assert all(v is not fn for v in vars(module).values()), (module, fn)
        assert all(harness.RULES[k] is not v for k, v in rules_before.items()
                   if k != "uniform")  # uniform is a lambda over rules.uniform
        assert all(mudra.cli._KIND_FINDERS[k] is not v for k, v in finders_before.items())
        assert harness.uniform is not originals[("mudra.rules", "uniform")]
    for (modname, attr), fn in originals.items():
        assert getattr(sys.modules[modname], attr) is fn
    assert harness.RULES == rules_before
    assert mudra.cli._KIND_FINDERS == finders_before


def test_hand_derived_counts():
    from mudra import efficiency, harness, rules

    profile = replay.profile_of((("o1", "o2", "o3", "o4"), ("o3", "o2", "o4", "o1")))
    output = rules.mps(profile)
    with Tracer() as tracer:
        efficiency.is_ex_post_efficient(output, profile)
    # 4!/(2!2!) = 6 balanced candidates screened, then one hull program.
    assert tracer.calls("ratlp.solve") == 7
    assert tracer.calls("efficiency.candidates_screened") == 6
    assert tracer.calls("ratlp.convex_membership") == 1

    for n in (2, 3, 4):
        single = replay.profile_of(
            [[f"o{(i + j) % n + 1}" for j in range(n)] for i in range(n)]
        )
        with Tracer() as tracer:
            harness.RULES["rp"](single)
        assert tracer.calls("rules.serial_dictator") == math.factorial(n)
        assert tracer.calls("rules.rp") == 1

    with Tracer() as tracer:
        harness.reproduce("example1")  # harness's own sd_compare / dl_compare
        harness.check_rule_property("mps", "weak-sd-envy-freeness", profile)  # fairness
        harness.check_rule_property("mps", "ex-post-efficiency", profile)
    assert tracer.calls("order.sd_compare") >= 2
    assert tracer.calls("order.dl_compare") == 1
    assert tracer.calls("harness.check.weak-sd-envy-freeness") == 1
    assert tracer.calls("ratlp.solve.calls.ex-post-efficiency") == 7


def test_cli_finders_and_traced_verdicts_match_untraced(tmp_path):
    inputs = workloads.make_inputs("misreport", 5, 10, tmp_path)
    ops = _first_profile_ops(inputs)[:12]  # 3x6 c=2, uniform and priority scans
    plain = workloads.run_ops(ops)
    with Tracer() as tracer:
        traced = workloads.run_ops(ops)
    assert workloads.digest(ops, plain) == workloads.digest(ops, traced)
    kinds = {"sd": "strategy.sd", "weak-sd": "strategy.weak_sd", "dl": "strategy.dl"}
    for kind, span in kinds.items():
        assert tracer.calls(span) == sum(op.detail == kind for op in ops)
    assert tracer.calls("cli.manipulate") == len(ops)
    assert tracer.calls("ratlp.solve") == 0


# -- certificate replay -------------------------------------------------------------


def test_replay_accepts_real_and_rejects_corrupted_certificates():
    from mudra import harness

    profile = replay.profile_of((("o1", "o2", "o3", "o4"), ("o3", "o2", "o4", "o1")))
    holds, cert = harness.check_rule_property("uniform", "sd-efficiency", profile)
    assert not holds
    output = replay.RULES["uniform"](profile)
    assert replay.dominator(output, cert["dominator"], profile) is None
    bad = json.loads(json.dumps(cert["dominator"]))
    bad["1"]["o1"], bad["2"]["o1"] = bad["2"]["o1"], bad["1"]["o1"]
    assert replay.dominator(output, bad, profile) is not None

    # mps on the same profile is not ex-post efficient (Farkas certificate).
    holds, cert = harness.check_rule_property("mps", "ex-post-efficiency", profile)
    assert not holds
    mps_out = replay.RULES["mps"](profile)
    assert replay.farkas(mps_out, cert, profile) is None
    cert["farkas"] = ["0"] * len(cert["farkas"])
    assert replay.farkas(mps_out, cert, profile) is not None


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in layers.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in layers.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_ref_s", "op_p50_ref_ms", "op_p90_ref_ms", "peak_rss_mib",
    }
    assert [w["name"] for w in spec["workloads"]] == ["verdicts", "misreport", "table1"]
