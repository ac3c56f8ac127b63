"""Seeded closed-loop benchmark of psdp's public solve entry points.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ill --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                  # all four workloads, untraced then traced
    python3 perfbench/run.py --smoke          # the same at n <= 12, in seconds

One workload prints its metrics by name and unit, then one JSON line
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Every solve runs in
a child process (worker.py) whose environment pins BLAS to one thread
before numpy loads.  setup_s is the median over SETUP_SAMPLES fresh
processes.  See WORKLOADS.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rankdef", "ill", "tall", "fullspace")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PSDP_THREADS": "1",
}

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s_p50", "s"),
    ("solve_s_p75", "s"),
    ("solves_per_s", "1/s"),
    ("gap_p50", "ratio"),
    ("rel_residual_mean", "ratio"),
    ("verified_frac", "fraction"),
    ("peak_rss_mb", "MB"),
)

# printed with the end-to-end metrics but not registered with a bound:
# both are 0 on some workloads (see WORKLOADS.md)
REPORTED = (
    ("certified_frac", "fraction"),
    ("fail_frac", "fraction"),
    ("solves", "count"),
)

PER_LAYER = (
    ("matcore.psd_project.calls", "count"),
    ("matcore.psd_project.self_s", "s"),
    ("matcore.psd_project.eigh_share", "fraction"),
    ("matcore.psd_project.share", "fraction"),
    ("numpy.linalg.eigh.calls", "count"),
    ("numpy.linalg.eigh.s", "s"),
    ("numpy.linalg.svd.calls", "count"),
    ("numpy.linalg.svd.s", "s"),
    ("numpy.linalg.eigvalsh.calls", "count"),
    ("solvers.loop.self_s", "s"),
    ("solvers.iterations", "count"),
    ("solvers.s_per_iter", "s"),
    ("solvers.precompute.s", "s"),
    ("solvers.iters_to_gap", "count"),
    ("initializers.init_recursive.s", "s"),
    ("initializers.init_recursive.blocks", "count"),
    ("initializers.init_recursive.projections", "count"),
    ("reduction.reduce_problem.s", "s"),
    ("reduction.negative_case_solution.s", "s"),
    ("reduction.negative_case_solution.hit_ratio", "fraction"),
    ("reduction.rank1_solve.s", "s"),
    ("reduction.certify_assemble.s", "s"),
    ("reduction.certify_assemble.eigh_calls", "count"),
    ("reduction.share", "fraction"),
    ("pipeline.an_fgm_solve.self_s", "s"),
    ("pipeline.solve.self_s", "s"),
    ("pipeline.route.iterative", "fraction"),
    ("pipeline.route.rank1", "fraction"),
    ("pipeline.route.negative", "fraction"),
    ("bench.gen.s", "s"),
    ("certify.certified_frac", "fraction"),
    ("trace.overhead", "ratio"),
    ("host.eigh60_us", "us"),
)

UNITS = dict(END_TO_END + REPORTED + PER_LAYER)

class BenchError(Exception):
    """A child process failed; the run prints no result."""


def child(args, deadline):
    env = dict(os.environ, **PINNED)
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker timed out: %s" % " ".join(args)) from exc
    if proc.returncode != 0:
        raise BenchError("worker exited with %d: %s" % (proc.returncode, " ".join(args)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, smoke):
    """Run one workload; returns the worker's result with setup_s as a median.

    The set-up samples are taken half before and half after the measuring
    process, so that they straddle it in time.
    """
    deadline = time.monotonic() + DEADLINE_S
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--smoke"] if smoke else [])
    probes = 0 if trace else 1 if smoke else SETUP_SAMPLES - 1
    samples = [child(args + ["--setup-only"], deadline)["setup_s"] for _ in range(probes // 2)]
    res = child(args, deadline)
    samples += [child(args + ["--setup-only"], deadline)["setup_s"] for _ in range(probes - probes // 2)]
    if not trace:
        res["metrics"]["setup_s"] = statistics.median(samples + [res["setup_s"]])
    return res


def report(workload, seed, trace, res):
    """Print a run's metrics by name and unit; return the result JSON object."""
    host = " ".join("%s=%s" % kv for kv in res["host"].items())
    m = res["metrics"]
    print("host %s eigh60_us=%.1f" % (host, m["host.eigh60_us"]))
    print("workload %s seed %d trace %d attempted %d failed %d"
          % (workload, seed, trace, res["attempted"], res["failed"]))
    names = PER_LAYER if trace else END_TO_END + REPORTED
    for name, unit in names:
        print("  %-44s %.6g %s" % (name, m[name], unit))
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            name: {"value": m[name], "unit": unit}
            for name, unit in (PER_LAYER if trace else END_TO_END)
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload; all four when omitted")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="timed seconds per run (30; 0.5 with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny instances (n <= 12), a few solves")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else 30.0
    try:
        if args.workload:
            res = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
            print(json.dumps(report(args.workload, args.seed, args.trace, res)))
            return 0
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                res = run_workload(workload, args.seed, args.seconds, trace, args.smoke)
                ok = report(workload, args.seed, trace, res)["correct"] and ok
        return 0 if ok else 1
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
