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
  reduced run of ``an_fgm_solve`` does), the relative gap it reports for
  the best iterate is compared with GAP_TOL at iterations GAP_FIRST,
  2 GAP_FIRST, 4 GAP_FIRST, ... below GAP_EVERY (8, 16 and 32) and then
  at every multiple of GAP_EVERY, and the run stops once it is at or
  below.  A check reads only the best iterate, so a run that never
  certifies is unchanged by it.

The reduced run of ``an_fgm_solve`` (``fgm_solve(..., precondition=True)``,
X = Sigma diagonal positive) takes its steps on Ahat = Sigma^{1/2} A Sigma^{1/2}.
The congruence keeps the PSD cone, so a step is still one projection, and
turns the halved objective into sum_ij W_ij (Ahat_ij - That_ij)^2 / 2 with
W_ij = (sigma_i / sigma_j + sigma_j / sigma_i) / 2 in [1, (kappa + 1/kappa) / 2],
kappa = sigma_max / sigma_min.  The condition number falls from kappa^2 to
about kappa / 2, so momentum needs O(sqrt(kappa)) iterations, not O(kappa),
and gradient and objective are entrywise; L and q are read off sigma.  Only
the step sees Ahat: it takes and returns A, so the iterates, the objective,
the certificate and the result are all in A.
``init_recursive``'s blocks keep the plain loop, whose L and q come from
one SVD of X (``precompute``): their condition numbers are at most 100, and
they are the paper's initializer, whose values are pinned.
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InapplicableError, NumericError
from .matcore import as_matrix, as_number, as_pair, psd_project
from .solution import IterateTrace, PsdpSolution

# the certified-gap stop rule: a relative gap at rounding level, checked
# at GAP_FIRST and its doublings below GAP_EVERY (GAP_FIRST a power of
# two), then every GAP_EVERY iterations
GAP_TOL = 1e-12
GAP_EVERY = 50
GAP_FIRST = 8
# the fast gradient method's initial momentum parameter, a fixed choice in (0, 1)
ALPHA1 = 0.1


@dataclass
class SolverConfig:
    """Run budget and recording shared by the iterative solvers.

    objective_tol >= 0, when set, stops a run once the best objective has
    improved by less than objective_tol relative over the last 10
    iterations.  wall_clock_budget > 0, when set, stops the loop after
    that many seconds.  None is the only "off": ``matcore.as_number``
    rejects NaN, inf and bools.  The step rules have no settings.
    """

    max_iter: int = 1000
    objective_tol: float = None
    record_trace: bool = True
    wall_clock_budget: float = None

    def __post_init__(self):
        self.max_iter = as_number(self.max_iter, "max_iter", 1, integer=True)
        if self.objective_tol is not None:
            as_number(self.objective_tol, "objective_tol", 0.0)
        if self.wall_clock_budget is not None:
            as_number(self.wall_clock_budget, "wall_clock_budget", 0.0, open_lo=True)


def precompute(X, B):
    """Constant matrices and curvature bounds used by every iteration.

    Returns (XXt, BXt, L, q) with XXt = X X.T, BXt = B X.T,
    L = sigma_max(X)^2 and q = sigma_min(X)^2 / L, where sigma_min is
    the n-th singular value (zero when m < n or X is rank deficient).
    Raises NumericError when L overflows float64.  X and B are
    expected checked (``_oracle`` does) and are not rescanned.
    """
    s = np.linalg.svd(X, compute_uv=False)
    try:
        L = float(s[0]) ** 2
    except OverflowError:
        raise NumericError("sigma_max(X)^2 overflows float64; rescale X") from None
    XXt = X @ X.T
    BXt = B @ X.T
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


def _oracle(X, B):
    """The plain oracle of |A X - B|_F: steps and objective on A itself."""
    X, B = as_pair(X, B)
    XXt, BXt, L, q = precompute(X, B)

    def step(Y):
        return psd_project(Y - gradient(Y, XXt, BXt) / L)

    def objective(M):
        return float(np.linalg.norm(M @ X - B, "fro"))

    return dict(step=step, objective=objective, XXt=XXt, BXt=BXt, q=q, L=L, n=X.shape[0])


def _congruent_oracle(X, C):
    """The oracle of |A Sigma - C|_F whose step is taken on Ahat = S A S, S = Sigma^{1/2}.

    X must be diagonal with a positive diagonal sigma.  Entrywise,
    Ahat = A * scale with scale_ij = sqrt(sigma_i sigma_j).  The step
    maps A to Ahat, takes Ahat' = proj(Ahat - W * (Ahat - That) / L) with
    L = max W, q = 1 / L and That = (C Sigma + Sigma C.T) / (2 W scale),
    the minimizer over symmetric matrices, and returns A' = Ahat' / scale;
    the constant parts are folded, so it reads proj(A * keep + pull) / scale.
    The objective is |A * sigma - C|_F, the residual ``reduction`` reports.
    """
    X, C = as_pair(X, C)
    sigma = np.diagonal(X)
    if not ((sigma > 0).all() and np.array_equal(X, np.diag(sigma))):
        raise InapplicableError("the preconditioned run requires a square positive diagonal X")
    s = np.sqrt(sigma)
    scale = np.outer(s, s)
    ratio = sigma[:, None] / sigma[None, :]
    W = (ratio + ratio.T) / 2.0
    L = float(W.max())
    CS = C * sigma
    That = (CS + CS.T) / (2.0 * W * scale)
    WL = W / L
    keep = (1.0 - WL) * scale
    pull = WL * That

    def step(A):
        return psd_project(A * keep + pull) / scale

    def objective(M):
        return float(np.linalg.norm(M * sigma - C, "fro"))

    return dict(step=step, objective=objective, q=1.0 / L, L=L, n=X.shape[0])


def _solve(rule, oracle, A0, cfg, certificate=None):
    """Run the step rule ``rule`` from A0 and collect the result.

    ``rule(A, val, **oracle)`` is a generator yielding the successive
    iterates with their residual norms; it reads what it needs from the
    oracle's keywords step, objective, XXt, BXt and q.  The loop owns
    everything else: the trace, the best iterate and the stop rules.
    ``certificate(A)``, when given, returns a certified relative gap for
    the iterate A; it is called on the best iterate at iterations 8, 16
    and 32 (GAP_FIRST doubled while below GAP_EVERY) and at every
    multiple of GAP_EVERY.  When L = 0 (X is zero) no step is taken and
    A0 is returned.
    """
    cfg = cfg or SolverConfig()
    A = _check_init(A0, oracle["n"])
    t0 = time.perf_counter()
    trace = IterateTrace() if cfg.record_trace else None
    best_val, best_A, best_hist = np.inf, None, []
    objective = oracle["objective"]
    val = objective(A)
    steps = rule(A, val, **oracle)
    steps = itertools.islice(steps, cfg.max_iter if oracle["L"] > 0.0 else 0)
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
        if certificate is not None and (
            k % GAP_EVERY == 0 or (GAP_FIRST <= k < GAP_EVERY and k & (k - 1) == 0)
        ):
            if certificate(best_A) <= GAP_TOL:
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


def _momentum(A, val, step, objective, q, **_):
    """Nesterov momentum: the projected step is taken at an extrapolated point.

    Starting from alpha = ALPHA1 and Y = A, one iteration sets
    A' = proj(Y - G(Y) / L), updates the momentum parameter by
    alpha' = (q - alpha^2 + sqrt((q - alpha^2)^2 + 4 alpha^2)) / 2,
    sets beta = alpha (1 - alpha) / (alpha^2 + alpha') and extrapolates
    Y = A' + beta (A' - A).
    """
    Y = A
    alpha = ALPHA1
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
    return _solve(_plain, _oracle(X, B), A0, cfg)


def fgm_solve(X, B, A0, cfg=None, certificate=None, *, precondition=False):
    """Fast gradient method from the PSD initialization A0.

    ``certificate``, when given, turns on the certified-gap stop rule
    (see ``_solve``).  ``precondition=True`` requires a positive
    diagonal X and takes each step on the congruent variable (module
    docstring).
    """
    oracle = _congruent_oracle(X, B) if precondition else _oracle(X, B)
    return _solve(_momentum, oracle, A0, cfg, certificate)


def partan_solve(X, B, A0, cfg=None):
    """Projected gradient with PARTAN acceleration from the PSD initialization A0."""
    return _solve(_partan, _oracle(X, B), A0, cfg)
