"""Benchmark-side certificate and validity checks for a returned solution.

The checks use only numpy and the program's ``reduce_problem`` (for the
SVD factors sigma1, B11 = C and the offset |B V2|^2), so a solver change
cannot loosen them.

Lower bound.  For the reduced problem min_{A psd} f(A) = |A Sigma - C|^2
with diagonal Sigma, the Lagrangian with multiplier Lambda psd is
minimized in closed form by

    A(Lambda) = (C Sigma + Sigma C.T + Lambda) / (sigma_i^2 + sigma_j^2),

so g(Lambda) = f(A(Lambda)) - <Lambda, A(Lambda)> bounds the reduced
infimum from below for every psd Lambda.  The certificate takes Lambda
as the psd part of the gradient A Sigma^2 + Sigma^2 A - C Sigma - Sigma C.T
at A = U1.T A_ret U1, and LB = max(0, g(Lambda) + offset).
"""

from dataclasses import dataclass

import numpy as np

# a solve is certified when (objective - LB) / objective <= TAU; TAU sits
# above the default eps = 1e-6 * infimum, since unattained closed-form
# solves carry gaps of about 2e-6 by design
TAU = 1e-5
# relative slack for the reported objective against |A X - B|^2 and for
# objective >= LB; epsilon-approximants with trailing blocks of about 1e6
# differ from the recomputed value by about 4e-10
OBJ_RTOL = 1e-8
# relative slack for symmetry and for negative eigenvalues of A
PSD_RTOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one returned solution.

    ok is False when any validity check failed, reason names the first
    failed check, gap is (objective - LB) / objective and rel_residual
    is |A X - B|_F / |B|_F.
    """

    ok: bool
    reason: str
    objective: float
    lower_bound: float
    gap: float
    rel_residual: float

    @property
    def certified(self):
        return self.ok and self.gap <= TAU


def _psd_part(S):
    w, Q = np.linalg.eigh((S + S.T) / 2.0)
    return (Q * np.maximum(w, 0.0)) @ Q.T


def lower_bound(red, A):
    """Dual lower bound on inf |A X - B|^2 from the candidate ``A``."""
    A11 = red.U1.T @ A @ red.U1
    A11 = (A11 + A11.T) / 2.0
    sigma = red.sigma1
    s2 = sigma * sigma
    denom = s2[:, None] + s2[None, :]
    CS = red.B11 * sigma
    M = CS + CS.T
    lam = _psd_part(A11 * denom - M)
    A_lam = (M + lam) / denom
    f = float(np.linalg.norm(A_lam * sigma - red.B11, "fro")) ** 2
    return max(0.0, f - float(np.sum(lam * A_lam)) + red.offset)


def verify(sol, X, B, red):
    """Check one returned solution of inf |A X - B|^2 and certify its gap.

    ``red`` is the program's ReducedProblem for (X, B).  A failure is a
    non-finite or non-symmetric-psd A, a reported objective that differs
    from |A X - B|^2 by more than OBJ_RTOL, an objective below the lower
    bound beyond that slack, or an unattained solution whose objective is
    not below infimum + epsilon.
    """
    n = X.shape[0]
    A = np.asarray(sol.A, dtype=float)
    b_norm = float(np.linalg.norm(B, "fro"))

    def fail(reason, obj=float("nan"), lb=float("nan")):
        return Verdict(False, reason, obj, lb, float("inf"), float("nan"))

    if A.shape != (n, n):
        return fail("A has shape %s, expected %s" % (A.shape, (n, n)))
    if not np.isfinite(A).all():
        return fail("A is not finite")
    scale = float(np.abs(A).max())
    if float(np.abs(A - A.T).max()) > PSD_RTOL * scale:
        return fail("A is not symmetric")
    w = np.linalg.eigvalsh((A + A.T) / 2.0)
    if float(w[0]) < -PSD_RTOL * max(float(abs(w[-1])), float(abs(w[0]))):
        return fail("A is not psd (min eigenvalue %.3e)" % w[0])
    obj = float(np.linalg.norm(A @ X - B, "fro")) ** 2
    reported = float(sol.objective)
    if not abs(reported - obj) <= OBJ_RTOL * obj:
        return fail("reported objective %.17g differs from %.17g" % (reported, obj), obj)
    lb = lower_bound(red, A)
    if obj < lb * (1.0 - OBJ_RTOL):
        return fail("objective %.17g is below the lower bound %.17g" % (obj, lb), obj, lb)
    if sol.attained is False and sol.epsilon is not None:
        if not reported < sol.infimum + sol.epsilon:
            return fail("unattained objective is not below infimum + epsilon", obj, lb)
    gap = max(0.0, obj - lb) / obj if obj > 0 else 0.0
    return Verdict(True, "", obj, lb, gap, obj**0.5 / b_norm)
