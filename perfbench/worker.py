"""One benchmark process: set up, run the solve loop, print one JSON line.

Started by run.py with BLAS pinned to one thread in its environment.
Set-up is timed from the first statement below to the end of the warm-up
solve: the numpy and psdp imports, building the instance pool and one
untimed solve.  psdp is imported from the checkout's own ``src``; the
process fails rather than fall back to any other copy.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import psdp.pipeline as pipeline  # noqa: E402

if Path(pipeline.__file__).resolve().parent != SRC / "psdp":
    raise ImportError("psdp imported from %s, not from %s" % (pipeline.__file__, SRC))

from certify import Verdict, verify  # noqa: E402
from layers import iters_to_gap, layer_metrics, routes  # noqa: E402
from tracer import END, PARENT, START, Tracer  # noqa: E402
from workloads import MIN_SOLVES, SMOKE_MIN_SOLVES, build_pool  # noqa: E402

MAX_SECONDS = 120.0  # the timed phase stops here whatever --seconds asks for


def host_probe():
    """Microseconds per eigh of a fixed 60x60 matrix (median of 5 batches of 20)."""
    rng = np.random.Generator(np.random.Philox(key=60))
    S = rng.standard_normal((60, 60))
    S = S + S.T
    batches = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(20):
            np.linalg.eigh(S)
        batches.append((time.perf_counter() - t0) / 20 * 1e6)
    return statistics.median(batches)


def host_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Checker:
    """Verifies every returned solution; a repeat of an already verified
    result (same pool item, same bytes) reuses its verdict."""

    def __init__(self, pool):
        self.pool = pool
        self.reduced = {}
        self.seen = {}
        self.first = {}

    def check(self, j, sol):
        item = self.pool[j]
        try:
            h = hashlib.blake2b(np.ascontiguousarray(sol.A, dtype=float).tobytes())
            h.update(repr((sol.objective, sol.attained, sol.infimum, sol.epsilon)).encode())
            digest = h.digest()
        except (TypeError, ValueError, AttributeError) as exc:
            return Verdict(False, "unreadable result: %s" % exc, *(float("nan"),) * 4)
        key = (j, digest)
        if key not in self.seen:
            if j not in self.reduced:
                self.reduced[j] = pipeline.reduce_problem(item.X, item.B)
            self.seen[key] = verify(sol, item.X, item.B, self.reduced[j])
        verdict = self.seen[key]
        self.first.setdefault(j, verdict)
        return verdict


def call(item):
    if item.entry == "an_fgm_solve":
        return pipeline.an_fgm_solve(item.X, item.B)
    return pipeline.solve(item.X, item.B, method=item.method)


class Loop:
    """Closed-loop driver with one caller: each solve starts when the previous returns.

    Successive solves run on the process's allowed CPUs in turn.  On a
    shared host each core sees its own neighbours' load, which comes and
    goes over seconds to minutes; cycling through the cores makes every
    run sample them alike instead of inheriting one core's state.
    """

    def __init__(self, pool):
        self.pool = pool
        self.checker = Checker(pool)
        self.attempted = 0
        self.failed = 0
        self.times = []
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

    def solve(self, j, tracer=None):
        """Solve pool item j, verify the result, return (solution, verdict) or None."""
        item = self.pool[j]
        self.attempted += 1
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[self.attempted % len(self.cpus)]})
        try:
            if tracer is None:
                t0 = time.perf_counter()
                sol = call(item)
                self.times.append(time.perf_counter() - t0)
            else:
                with tracer.solve(self.attempted, "pipeline." + item.entry):
                    sol = call(item)
        except Exception as exc:  # a solve that raises is a counted failure
            self.failed += 1
            print("solve %d (item %d) raised %r" % (self.attempted, j, exc), file=sys.stderr)
            return None
        verdict = self.checker.check(j, sol)
        if not verdict.ok:
            self.failed += 1
            print("solve %d (item %d) failed: %s" % (self.attempted, j, verdict.reason), file=sys.stderr)
            return None
        return sol, verdict


def quality(checker):
    verdicts = [v for v in checker.first.values() if v.ok]
    return {
        "gap_p50": statistics.median(v.gap for v in verdicts) if verdicts else 1.0,
        "rel_residual_mean": statistics.fmean(v.rel_residual for v in verdicts) if verdicts else 1.0,
        "certified_frac": sum(v.certified for v in checker.first.values()) / len(checker.first),
    }


def timed_run(loop, seconds, min_solves):
    """Untraced loop over the pool for ``seconds``; stops on a whole cycle of three."""
    P = len(loop.pool)
    t0 = time.perf_counter()
    ok = 0
    k = 0
    while True:
        ok += loop.solve(k % P) is not None
        k += 1
        elapsed = time.perf_counter() - t0
        if k % 3 == 0 and ((k >= min_solves and elapsed >= seconds) or elapsed >= MAX_SECONDS):
            break
    times = loop.times
    q = quality(loop.checker)
    return {
        "solve_s_p50": statistics.median(times),
        "solve_s_p75": statistics.quantiles(times, n=4)[2],
        "solves_per_s": ok / elapsed,
        "gap_p50": q["gap_p50"],
        "rel_residual_mean": q["rel_residual_mean"],
        "verified_frac": ok / loop.attempted,
        "certified_frac": q["certified_frac"],
        "fail_frac": loop.failed / loop.attempted,
        "solves": loop.attempted,
    }


def traced_run(loop, seconds, spans_path):
    """Solve each pool item untraced and then traced, in passes, for ``seconds``.

    Pairing the two solves of an item keeps host speed drift out of
    trace.overhead; the wrappers are installed only around traced solves.
    """
    tracer = Tracer()
    solves = []
    expected = {}
    t0 = time.perf_counter()
    while True:
        for j, item in enumerate(loop.pool):
            loop.solve(j)
            expected[loop.attempted + 1] = item.route
            with tracer:
                res = loop.solve(j, tracer)
            if res is None:
                solves.append({"iterations": 0, "certified": False, "iters_to_gap": None})
                continue
            sol, verdict = res
            objs = sol.trace.objectives if sol.trace is not None else []
            solves.append({
                "iterations": max(len(objs) - 1, 0),
                "certified": verdict.certified,
                "iters_to_gap": (
                    iters_to_gap(objs, verdict.lower_bound) if objs and verdict.certified else None
                ),
            })
        if time.perf_counter() - t0 >= min(seconds, MAX_SECONDS):
            break
    tracer.write(spans_path)
    spans = tracer.spans
    got = routes(spans)
    if got != expected:
        bad = sorted(k for k in expected if got.get(k) != expected[k])
        raise RuntimeError(
            "route mix differs from the workload's: solve %d took %r, expected %r (%d mismatches)"
            % (bad[0], got.get(bad[0]), expected[bad[0]], len(bad))
        )
    metrics = layer_metrics(spans, solves)
    traced = [s[END] - s[START] for s in spans if s[PARENT] < 0]
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(loop.times) - 1.0
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t_gen = time.perf_counter()
    pool = build_pool(args.workload, args.seed, smoke=args.smoke)
    gen_s = (time.perf_counter() - t_gen) / len(pool)
    call(pool[0])
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    loop = Loop(pool)
    if args.trace:
        spans_dir = ROOT / ".perfbench"
        spans_dir.mkdir(exist_ok=True)
        metrics = traced_run(loop, args.seconds, spans_dir / ("spans-%s.tsv" % args.workload))
        metrics["bench.gen.s"] = gen_s
    else:
        min_solves = SMOKE_MIN_SOLVES if args.smoke else MIN_SOLVES
        metrics = timed_run(loop, args.seconds, min_solves)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["host.eigh60_us"] = host_probe()
    print(json.dumps({"setup_s": setup_s, "host": host_facts(), "metrics": metrics,
                      "attempted": loop.attempted, "failed": loop.failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
