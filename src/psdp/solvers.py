"""Projected first-order solvers for inf |A X - B|_F^2 over PSD A.

The three methods are one loop with three step rules.  All use the
gradient of the halved objective, G(Y) = Y X X.T - B X.T, with
Lipschitz constant L = sigma_max(X)^2 and strong convexity modulus
sigma_min(X)^2 (zero when X is rank deficient), and the projected step
Y -> proj(Y - G(Y) / L).  The rules differ only in where that step is
taken:

* ``gradient_solve`` (plain): from the current iterate; monotone.
* ``fgm_solve`` (Nesterov momentum): from a point extrapolated along
  the last displacement, with the momentum schedule driven by the
  inverse condition number q.  Converges linearly at rate
  (1 - 1/kappa) on strongly convex instances, against (1 - 1/kappa^2)
  for the plain rule.  Not monotone, hence the best iterate seen is
  returned next to the last one.
* ``partan_solve`` (PARTAN): from the exact line-search minimizer along
  the last displacement, falling back to the plain step whenever that
  would increase the objective; monotone.

The shared loop records the trace and the best iterate and applies the
stop rules:

* max_iter, the iteration budget;
* wall_clock_budget, seconds spent in the loop;
* objective_tol, a best objective that improved by less than that
  relative amount over the last 10 iterations;
* a certified gap: when the caller passes a ``certificate`` (only the
  reduced run of ``an_fgm_solve`` does), every GAP_EVERY iterations,
  from iteration GAP_EVERY on, the relative gap it reports for the best
  iterate is compared with GAP_TOL, and the run stops once it is at or
  below.  A run that never certifies is unchanged by the check.
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .matcore import as_matrix, psd_project
from .solution import IterateTrace, PsdpSolution

# the certified-gap stop rule: a relative gap at rounding level, checked
# every GAP_EVERY iterations
GAP_TOL = 1e-12
GAP_EVERY = 50


@dataclass
class SolverConfig:
    """Iteration budget and tolerances shared by the iterative solvers.

    alpha1 is the initial momentum parameter of the fast gradient
    method, in (0, 1).  objective_tol, when set, stops a run once the
    best objective has improved by less than objective_tol relative
    over the last 10 iterations.  wall_clock_budget, when set, stops
    the iteration loop after that many seconds.
    """

    max_iter: int = 1000
    alpha1: float = 0.1
    objective_tol: float = None
    record_trace: bool = True
    wall_clock_budget: float = None

    def __post_init__(self):
        if not isinstance(self.max_iter, int) or self.max_iter < 1:
            raise ParameterError("max_iter must be a positive integer, got %r" % (self.max_iter,))
        if not (0.0 < self.alpha1 < 1.0):
            raise ParameterError("alpha1 must lie in (0, 1), got %r" % (self.alpha1,))
        if self.objective_tol is not None and self.objective_tol < 0:
            raise ParameterError("objective_tol must be nonnegative")
        if self.wall_clock_budget is not None and self.wall_clock_budget <= 0:
            raise ParameterError("wall_clock_budget must be positive")


def precompute(X, B):
    """Constant matrices and curvature bounds used by every iteration.

    Returns (XXt, BXt, L, q) with XXt = X X.T, BXt = B X.T,
    L = sigma_max(X)^2 and q = sigma_min(X)^2 / L, where sigma_min is
    the n-th singular value (zero when m < n or X is rank deficient).
    A diagonal X (the reduced subproblem and its blocks) has the sorted
    absolute diagonal as its singular values, so no SVD is taken then.
    """
    X = as_matrix(X, "X")
    B = as_matrix(B, "B")
    if X.shape != B.shape:
        raise DimensionError(
            "X and B must have equal shapes, got %s and %s" % ((X.shape,), (B.shape,))
        )
    XXt = X @ X.T
    BXt = B @ X.T
    d = np.diagonal(X)
    if np.count_nonzero(X) == np.count_nonzero(d):
        s = np.sort(np.abs(d))[::-1]
    else:
        s = np.linalg.svd(X, compute_uv=False)
    L = float(s[0]) ** 2
    n = X.shape[0]
    q = (float(s[n - 1]) / float(s[0])) ** 2 if (L > 0 and s.size >= n) else 0.0
    return XXt, BXt, L, q


def gradient(Y, XXt, BXt):
    """Gradient of |Y X - B|_F^2 / 2 at an unconstrained Y."""
    return Y @ XXt - BXt


def _check_init(A0, n):
    A0 = as_matrix(A0, "A0")
    if A0.shape != (n, n):
        raise DimensionError("A0 must be %d-by-%d, got %s" % (n, n, (A0.shape,)))
    return A0


def _solve(rule, X, B, A0, cfg, certificate=None):
    """Run the step rule ``rule`` from A0 and collect the result.

    ``rule(A, val, **oracle)`` is a generator yielding the successive
    iterates with their residual norms; it reads what it needs from the
    keywords step, objective, XXt, BXt, q and alpha1.  The loop owns
    everything else: the trace, the best iterate and the stop rules.
    ``certificate(A, f)``, when given, returns a certified relative gap
    for the iterate A with objective f = |A X - B|_F^2; it is called on
    the best iterate every GAP_EVERY iterations.  When L = 0 (X is zero)
    no step is taken and A0 is returned.
    """
    cfg = cfg or SolverConfig()
    XXt, BXt, L, q = precompute(X, B)
    X = np.asarray(X, dtype=float)
    B = np.asarray(B, dtype=float)
    A = _check_init(A0, X.shape[0])

    def step(Y):
        return psd_project(Y - gradient(Y, XXt, BXt) / L)

    def objective(M):
        return float(np.linalg.norm(M @ X - B, "fro"))

    t0 = time.perf_counter()
    trace = IterateTrace() if cfg.record_trace else None
    best_val, best_A, best_hist = np.inf, None, []
    val = objective(A)
    steps = rule(A, val, step=step, objective=objective, XXt=XXt, BXt=BXt, q=q, alpha1=cfg.alpha1)
    steps = itertools.islice(steps, cfg.max_iter if L > 0.0 else 0)
    for k, (A, val) in enumerate(itertools.chain([(A, val)], steps)):
        if trace is not None:
            trace.objectives.append(val)
            trace.timestamps.append(time.perf_counter() - t0)
        if val < best_val:
            best_val, best_A = val, A.copy()
        best_hist.append(best_val)
        if k == 0:
            continue
        if cfg.wall_clock_budget is not None and time.perf_counter() - t0 >= cfg.wall_clock_budget:
            break
        if cfg.objective_tol is not None and k >= 10:
            if best_hist[-11] - best_val <= cfg.objective_tol * max(1.0, best_val):
                break
        if certificate is not None and k % GAP_EVERY == 0:
            if certificate(best_A, best_val**2) <= GAP_TOL:
                break
    return PsdpSolution(
        A=A,
        objective=val**2,
        trace=trace,
        best_A=best_A,
        best_objective=best_val**2 if best_A is not None else None,
    )


def _plain(A, val, step, objective, **_):
    """Projected gradient: A <- proj(A - G(A) / L)."""
    while True:
        A = step(A)
        yield A, objective(A)


def _momentum(A, val, step, objective, q, alpha1, **_):
    """Nesterov momentum: the projected step is taken at an extrapolated point.

    Starting from alpha = alpha1 and Y = A, one iteration sets
    A' = proj(Y - G(Y) / L), updates the momentum parameter by
    alpha' = (q - alpha^2 + sqrt((q - alpha^2)^2 + 4 alpha^2)) / 2,
    sets beta = alpha (1 - alpha) / (alpha^2 + alpha') and extrapolates
    Y = A' + beta (A' - A).
    """
    Y = A
    alpha = alpha1
    while True:
        A_prev = A
        A = step(Y)
        alpha_next = 0.5 * (q - alpha**2 + np.sqrt((q - alpha**2) ** 2 + 4.0 * alpha**2))
        beta = alpha * (1.0 - alpha) / (alpha**2 + alpha_next)
        Y = A + beta * (A - A_prev)
        alpha = alpha_next
        yield A, objective(A)


def _partan(A, val, step, objective, XXt, BXt, **_):
    """PARTAN: an exact line search along the last displacement, then the step.

    With D = A - A_prev, beta minimizes |(A + beta D) X - B|_F and the
    projected step is taken from A + beta D.  If that candidate
    increases the objective the step is redone from A, so the rule is
    monotone.  The first iteration has D = 0 and is a plain step.
    """
    A_prev = A
    while True:
        D = A - A_prev
        DXXt = D @ XXt
        denom = float(np.sum(D * DXXt))
        if denom > 0.0:
            beta = float(np.sum(D * (BXt - A @ XXt))) / denom
        else:
            beta = 0.0
        cand = step(A + beta * D if beta != 0.0 else A)
        cand_val = objective(cand)
        if cand_val > val and beta != 0.0:
            # accelerated step overshot; redo as a plain gradient step
            cand = step(A)
            cand_val = objective(cand)
        A_prev, A, val = A, cand, cand_val
        yield A, val


def gradient_solve(X, B, A0, cfg=None):
    """Projected gradient descent from the PSD initialization A0."""
    return _solve(_plain, X, B, A0, cfg)


def fgm_solve(X, B, A0, cfg=None, certificate=None):
    """Fast gradient method from the PSD initialization A0.

    ``certificate``, when given, turns on the certified-gap stop rule
    (see ``_solve``).
    """
    return _solve(_momentum, X, B, A0, cfg, certificate)


def partan_solve(X, B, A0, cfg=None):
    """Projected gradient with PARTAN acceleration from the PSD initialization A0."""
    return _solve(_partan, X, B, A0, cfg)
