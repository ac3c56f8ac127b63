"""Seeded instance generation and the two benchmark experiments.

Instances are generated from a counter-based RNG (Philox) keyed by the
instance seed, so a given InstanceSpec yields bit-identical matrices
regardless of platform or execution order.  Families:

* gaussian: X and B with i.i.d. standard normal entries;
* ill_conditioned: X with a geometric singular-value ladder reaching a
  target condition number (1e6 by default), B Gaussian;
* rank_deficient: Gaussian X with the floor(min(n, m)/2) smallest
  singular values zeroed, B Gaussian;
* init_experiment: the fixed 37-by-37 diagonal ladder
  1..10, 20..100, 200..1000, 2000..10000 (condition number 1e4), with
  B Gaussian;
* uniform: the same ladder with B uniform on [0, 1].

``run_init_experiment`` compares the four initializations on the
ladder instance; ``run_solver_experiment`` races the four solvers on
one family/shape panel.  Both write CSV summaries and return an
ExperimentReport.
"""

import csv
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .matcore import as_choice, as_number
from .pipeline import INITIALIZERS, METHODS, solve
from .solvers import SolverConfig, fgm_solve

FAMILIES = ("gaussian", "uniform", "ill_conditioned", "rank_deficient", "init_experiment")
SUITES = ("well", "ill", "rankdef")
SHAPES = ("square", "wide", "tall")

# 1..10, 20..100 step 10, 200..1000 step 100, 2000..10000 step 1000
LADDER = np.concatenate(
    [
        np.arange(1.0, 11.0),
        np.arange(20.0, 101.0, 10.0),
        np.arange(200.0, 1001.0, 100.0),
        np.arange(2000.0, 10001.0, 1000.0),
    ]
)


@dataclass(frozen=True)
class InstanceSpec:
    """Seeded description of one benchmark instance.

    n, m >= 1 and seed in [0, 2**128) are integers; kappa_target is None
    or a finite real >= 1 (``matcore.as_number``: no NaN, inf or bool).
    """

    family: str
    n: int
    m: int
    seed: int
    kappa_target: float = None

    def __post_init__(self):
        as_choice(self.family, FAMILIES, "family")
        as_number(self.seed, "seed", 0, 2**128, integer=True)
        as_number(self.n, "n", 1, integer=True)
        as_number(self.m, "m", 1, integer=True)
        if self.kappa_target is not None:
            as_number(self.kappa_target, "kappa_target", 1.0)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def gen(spec):
    """Generate the (X, B) pair described by ``spec``, deterministically."""
    rng = _rng(spec.seed)
    n, m = spec.n, spec.m
    family = spec.family
    if family in ("uniform", "init_experiment"):
        if (n, m) != (37, 37):
            raise ParameterError("the ladder family is fixed at 37-by-37, got %d-by-%d" % (n, m))
        X = np.diag(LADDER)
        B = rng.random((n, m)) if family == "uniform" else rng.standard_normal((n, m))
        return X, B
    if family == "gaussian":
        X = rng.standard_normal((n, m))
        B = rng.standard_normal((n, m))
        return X, B
    k = min(n, m)
    G = rng.standard_normal((n, m))
    U, s, Vh = np.linalg.svd(G, full_matrices=False)
    if family == "ill_conditioned":
        if k < 2:
            raise ParameterError("ill_conditioned requires min(n, m) >= 2")
        kappa = spec.kappa_target if spec.kappa_target is not None else 1e6
        alpha = kappa ** (1.0 / (k - 1))
        ladder = alpha ** np.arange(k)
        X = (U * ladder) @ Vh
    else:  # rank_deficient
        s2 = s.copy()
        s2[k - k // 2 :] = 0.0
        X = (U * s2) @ Vh
    B = rng.standard_normal((n, m))
    return X, B


@dataclass
class ExperimentReport:
    """Aggregated outcome of one experiment.

    traces maps method name to an array of shape (trials, iters + 1)
    holding per-trial error curves; mean_curves maps method name to the
    per-iteration mean curve; wall_clock maps method name to mean
    seconds per trial; iterations maps method name to the mean number of
    iterations a trial ran, fewer than iters when a run stopped early;
    summary maps method name to (mean, std) of the final per-trial
    errors.
    """

    trials: int
    iters: int
    traces: dict = field(default_factory=dict)
    mean_curves: dict = field(default_factory=dict)
    wall_clock: dict = field(default_factory=dict)
    iterations: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)

    def seconds_per_iter(self, name):
        """Mean seconds per trial over mean iterations run (nan when none ran)."""
        its = self.iterations[name]
        return self.wall_clock[name] / its if its else float("nan")


def _pad(values, length):
    """Extend a trace to a fixed length by repeating its last value."""
    out = np.empty(length)
    k = min(len(values), length)
    out[:k] = values[:k]
    out[k:] = values[k - 1] if k else np.nan
    return out


def _report(results, trials, iters, col):
    """Aggregate per-trial {method: (curve, seconds, iterations)} dicts; the
    summary is the mean and std over trials of column ``col`` of the curves."""
    report = ExperimentReport(trials=trials, iters=iters)
    for name in results[0]:
        curves = np.vstack([res[name][0] for res in results])
        report.traces[name] = curves
        report.mean_curves[name] = curves.mean(axis=0)
        report.wall_clock[name] = float(np.mean([res[name][1] for res in results]))
        report.iterations[name] = float(np.mean([res[name][2] for res in results]))
        picked = curves[:, col]
        report.summary[name] = (float(picked.mean()), float(picked.std(ddof=1) if trials > 1 else 0.0))
    return report


def _write_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# initialization experiment


def _init_trial(family, seed, iters):
    X, B = gen(InstanceSpec(family, 37, 37, seed))
    out = {}
    for name, initialize in INITIALIZERS.items():
        A0 = initialize(X, B)
        t0 = time.perf_counter()
        if iters > 0:
            run = fgm_solve(X, B, A0, SolverConfig(max_iter=iters))
            curve = _pad(run.trace.objectives, iters + 1)
            ran = len(run.trace) - 1
        else:
            curve = np.array([float(np.linalg.norm(A0 @ X - B, "fro"))])
            ran = 0
        out[name] = (curve, time.perf_counter() - t0, ran)
    return out


def run_init_experiment(trials, iters, out_dir=None, seed0=2024):
    """Compare the four initializations on the diagonal-ladder instance.

    For each of the Gaussian and uniform B families, draws ``trials``
    seeded instances, computes every initialization, and follows each
    with ``iters`` fast-gradient iterations (0 is allowed and skips the
    solve).  Writes summary.csv with the mean and standard deviation of
    the initial error |A0 X - B|_F per (family, initialization), and
    trace.csv with the per-iteration mean error curves.

    Returns a dict mapping family name to ExperimentReport.
    """
    trials = as_number(trials, "trials", 1, integer=True)
    iters = as_number(iters, "iters", 0, integer=True)
    reports = {}
    summary_rows = []
    trace_rows = []
    for label, family in (("gaussian", "init_experiment"), ("uniform", "uniform")):
        results = [_init_trial(family, seed0 + t, iters) for t in range(trials)]
        report = _report(results, trials, iters, 0)
        for name in INITIALIZERS:
            summary_rows.append([label, name, report.summary[name][0], report.summary[name][1]])
            for it, val in enumerate(report.mean_curves[name]):
                trace_rows.append([label, name, it, val])
        reports[label] = report
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "summary.csv"), ["family", "method", "mean", "std"], summary_rows)
        _write_csv(os.path.join(out_dir, "trace.csv"), ["family", "method", "iter", "mean_err"], trace_rows)
    return reports


# ---------------------------------------------------------------------------
# solver experiment


_SUITE_FAMILY = {"well": "gaussian", "ill": "ill_conditioned", "rankdef": "rank_deficient"}


def _solver_trial(family, n, m, seed, iters):
    X, B = gen(InstanceSpec(family, n, m, seed))
    b_norm = float(np.linalg.norm(B, "fro"))
    cfg = SolverConfig(max_iter=iters)
    out = {}
    for name in METHODS:
        t0 = time.perf_counter()
        run = solve(X, B, method=name, cfg=cfg)
        secs = time.perf_counter() - t0
        objs = run.trace.objectives if run.trace is not None else [run.objective**0.5]
        curve = 100.0 * _pad(objs, iters + 1) / b_norm
        out[name] = (curve, secs, len(objs) - 1)
    return out


def run_solver_experiment(suite, shape, trials, iters, size=100, out_dir=None, seed0=7):
    """Race the four solvers on one (suite, shape) panel.

    suite is one of "well", "ill", "rankdef" and shape one of "square",
    "wide" (m = 2n), "tall" (n = 2m), with ``size`` the larger
    dimension.  Every trial draws a fresh seeded instance shared by all
    methods; the three full-space methods start from the diagonal
    initialization and the semi-analytical route uses its recursive
    one (``pipeline.solve``'s defaults).  Errors are relative,
    100 |A X - B|_F / |B|_F, and each method's timing includes its
    initialization.  An exact route of "an-fgm" (X = 0, rank one, the
    negative case) reports 0 iterations, its curve flat at its error.

    Writes trace.csv (per-iteration mean relative error per method),
    summary.csv (mean and std of the final relative error) and
    timing.csv (mean seconds per 1000 iterations per method, over the
    iterations actually run: the semi-analytical route stops once its
    gap is certified, and a method that ran none reads nan); returns an
    ExperimentReport.
    """
    as_choice(suite, SUITES, "suite")
    trials = as_number(trials, "trials", 1, integer=True)
    iters = as_number(iters, "iters", 1, integer=True)
    dims = {"square": (size, size), "wide": (size // 2, size), "tall": (size, size // 2)}
    n, m = dims[as_choice(shape, SHAPES, "shape")]
    family = _SUITE_FAMILY[suite]
    results = [_solver_trial(family, n, m, seed0 + t, iters) for t in range(trials)]
    report = _report(results, trials, iters, -1)
    label = "%s-%s" % (suite, shape)
    summary_rows = []
    trace_rows = []
    timing_rows = []
    for name in METHODS:
        summary_rows.append([label, name, report.summary[name][0], report.summary[name][1]])
        timing_rows.append([name, report.seconds_per_iter(name) * 1000.0])
        for it, val in enumerate(report.mean_curves[name]):
            trace_rows.append([it, name, val])
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "trace.csv"), ["iter", "method", "mean_rel_err"], trace_rows)
        _write_csv(os.path.join(out_dir, "summary.csv"), ["family", "method", "mean", "std"], summary_rows)
        _write_csv(os.path.join(out_dir, "timing.csv"), ["method", "seconds_per_1000_iters"], timing_rows)
    return report
