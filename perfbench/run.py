"""mudra benchmark: one closed-loop client, one process, serial.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {table1,verdicts,misreport} \\
        --seed N --seconds S --trace {0,1}

Workloads (see ``workloads.py``):

* ``table1`` -- one full ``harness.table1_sweep(use_cache=False)``: the 576
  profiles of the 2x4, c=2 domain plus the 4x4 single-unit fallback.  The
  input is fixed, so the seed does not change it, and the sweep takes
  longer than ``--seconds`` (45-77 s on a 2-core VM, with the host's load).
* ``verdicts`` -- seeded profiles on 4x8 c=2, 6x6, 7x7 and 8x8 c=1; per
  profile ``mudra compute --json`` for all five rules, then ``mudra check``
  of sd-efficient / sd-ef / weak-sd-ef on each printed assignment.
* ``misreport`` -- per round one seeded 3x6 c=2 profile and twelve 4x4 c=1
  profiles; per profile ``mudra manipulate --agent A --kind sd / weak-sd /
  dl`` against all five rules for one seeded agent A, plus ``--kind group
  --coalition 1,2`` on 4x4.

``--seconds`` fixes the amount of work (a number of rounds of profiles,
sized from reference timings), so a faster program finishes the same work
sooner.  The command-line ops run in-process through ``mudra.cli.main``.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics:

* ``setup_s`` -- median over fresh interpreters that import ``mudra.cli``
  and make the inputs;
* ``wall_ref_s`` -- the summed latency of every op of the run;
* ``op_p50_ref_ms``, ``op_p90_ref_ms`` -- median and 90th percentile of the
  op latencies (Harrell-Davis estimates, see ``quantile.py``);
* ``peak_rss_mib`` -- ``ru_maxrss`` of the process.

The timings are scaled to a reference host speed by ``hostspeed.py``, which
times a fixed loop all through the run; the record line before the result
holds them as measured.  With ``--trace 1`` the same ops run once untraced
and once under :class:`tracer.Tracer`; the last line holds the per-layer
metrics, and a ``trace`` line before it holds every span and counter.  Every
op's output is checked (certificates are replayed by ``replay.py``); the
count of ops that failed is the result's ``failed`` field.

The ``--workers`` process-pool path of ``table1`` is not a workload: spans
cannot cross processes, and the default path is serial.

Self-tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("table1", "verdicts", "misreport")
SETUP_SAMPLES = 7
#: Timings of the reference loop in each set-up sample, after its set-up.
SETUP_LOOPS = 5


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup(args, workdir: Path):
    """What a fresh interpreter pays before the first op."""
    import mudra.cli  # noqa: F401

    import workloads

    return workloads.make_inputs(args.workload, args.seed, args.seconds, workdir)


def _setup_seconds(args, workdir: Path) -> tuple[float, float]:
    """Median wall time of fresh interpreters running :func:`_setup`, as
    measured and scaled by the reference loop that each times right after
    its set-up (see ``hostspeed.py``)."""
    from hostspeed import REFERENCE_LOOP_S

    took, scaled = [], []
    for k in range(SETUP_SAMPLES):
        probe_dir = workdir / f"setup{k}"
        probe_dir.mkdir()
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--setup-probe", str(probe_dir),
        ]
        start = time.perf_counter()
        probe = subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True)
        took.append(time.perf_counter() - start)
        scaled.append(took[-1] * REFERENCE_LOOP_S / float(probe.stdout))
    return statistics.median(took), statistics.median(scaled)


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _check(inputs, results) -> dict[int, str]:
    """Why each failed op failed, by op index."""
    import workloads

    problems = {}
    for k, (op, result) in enumerate(zip(inputs.ops, results)):
        reason = workloads.check_op(op, result, inputs)
        if reason is not None:
            problems[k] = reason
    return problems


def _end_to_end(args, workdir: Path, inputs) -> tuple[dict, list, dict]:
    """Scaled metrics, the results, and the same timings as measured."""
    import workloads
    from hostspeed import HostClock
    from quantile import harrell_davis

    setup_s, setup_ref_s = _setup_seconds(args, workdir)
    results, spans = [], []
    with HostClock() as clock:
        for op in inputs.ops:
            start = clock.now()
            results.append(workloads.run_op(op, clock.now))
            spans.append((start, clock.now()))
    latencies = [r.seconds * 1000 for r in results]
    scaled = [ms * clock.scale(*span) for ms, span in zip(latencies, spans)]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured = {
        "setup_s": setup_s,
        "wall_s": sum(latencies) / 1000,
        "op_p50_ms": harrell_davis(latencies, 0.5),
        "op_p90_ms": harrell_davis(latencies, 0.9),
        "loop_ms": statistics.fmean(clock.samples) * 1000,
        "loops": len(clock.samples),
    }
    metrics = {
        "setup_s": _metric(setup_ref_s, "s"),
        "wall_ref_s": _metric(sum(scaled) / 1000, "s"),
        "op_p50_ref_ms": _metric(harrell_davis(scaled, 0.5), "ms"),
        "op_p90_ref_ms": _metric(harrell_davis(scaled, 0.9), "ms"),
        "peak_rss_mib": _metric(peak, "MiB"),
    }
    return metrics, results, measured


def _per_layer(inputs) -> tuple[dict, list, dict, dict[int, str]]:
    import layers
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    if inputs.workload == "table1":
        # A second sweep would not fit the time limit of one run, so table1
        # takes its overhead from calibrated per-call wrapper costs instead.
        with tracer:
            traced = workloads.run_ops(inputs.ops)
        measured, mismatches = None, {}
    else:
        # Each op runs untraced and then traced, back to back, so that drift
        # in the host's speed affects both sides alike.
        plain, traced = [], []
        for op in inputs.ops:
            plain.append(workloads.run_op(op))
            with tracer:
                traced.append(workloads.run_op(op))
        mismatches = {
            k: "traced and untraced verdicts differ"
            for k, (op, a, b) in enumerate(zip(inputs.ops, plain, traced))
            if workloads.verdict_bits(op, a) != workloads.verdict_bits(op, b)
        }
        measured = sum(r.seconds for r in traced) / sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    calibrated = traced_s / (traced_s - tracer.estimated_cost())
    report = layers.report(tracer, calibrated if measured is None else measured)
    report["trace.overhead_ratio_calibrated"] = calibrated
    return layers.metrics(report), traced, report, mismatches


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "mudra").is_dir():
        print(f"no mudra sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    if args.setup_probe:
        from hostspeed import loop_seconds

        _setup(args, Path(args.setup_probe))
        print(loop_seconds(SETUP_LOOPS))
        return 0
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs = _setup(args, workdir)
        import workloads

        mismatches = {}
        if args.trace:
            metrics, results, report, mismatches = _per_layer(inputs)
        else:
            metrics, results, measured = _end_to_end(args, workdir, inputs)
        problems = {**mismatches, **_check(inputs, results)}
        failed = len(problems)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "git_revision": _git_revision(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "ops": len(inputs.ops),
            "failed_ratio": failed / len(inputs.ops),
            "digest": workloads.digest(inputs.ops, results),
        }
        if not args.trace:
            record["measured"] = measured
        print(json.dumps({"record": record}))
        if args.trace:
            print(json.dumps({"trace": report}))
        for k, reason in sorted(problems.items()):
            print(f"FAILED {' '.join(inputs.ops[k].argv or ['table1'])}: {reason}", file=sys.stderr)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(inputs.ops),
            "failed": failed,
            "metrics": metrics,
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
