"""Semi-analytical reduction of the PSD Procrustes problem.

The problem is inf |A X - B|_F^2 over symmetric positive semidefinite
A, with X and B real n-by-m.  A full SVD X = U Sigma V.T with numerical
rank r splits the objective into a strongly convex r-by-r subproblem on
the leading block plus a constant offset:

    inf_{A psd} |A X - B|^2
        = min_{A11 psd} |A11 Sigma1 - U1.T B V1|^2 + |B V2|^2.

The off-diagonal block of any optimal rotated solution is forced to
Z = U2.T B V1 Sigma1^{-1}, and the infimum is attained exactly when the
kernel of the subproblem minimizer is contained in the kernel of Z.  In
that case ``assemble_optimal`` builds an exact optimizer; otherwise
``assemble_epsilon`` builds a feasible point whose objective is within
any admissible eps of the infimum.  The subproblem minimizer is
eigendecomposed once, in ``make_subproblem_solution``; the attainment
test and both assemblies read that decomposition.  Two instance classes
admit closed forms without any iteration: rank-one X (``rank1_solve``)
and the negative semidefinite case (``negative_case_solution``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolationError,
    DegenerateProblemError,
    DimensionError,
    InapplicableError,
    NotAttainedError,
    ParameterError,
)
from .matcore import (
    SymEig,
    as_matrix,
    default_rank_tol,
    eigh_sorted,
    fro_norm,
    is_psd,
    pinv_from_eig,
    svd,
    sym_part,
)
from .matcore import pinv_psd  # noqa: F401  (unused here; perfbench's tracer wraps this name)
from .solution import PsdpSolution

# eigenvalues at or below KERNEL_TOL times the largest are kernel directions
KERNEL_TOL = 1e-8


@dataclass(frozen=True)
class ReducedProblem:
    """SVD factors and derived blocks of the rank-r reduction.

    U1, U2 and V1, V2 split the left and right singular bases at the
    numerical rank r.  sigma1 holds the r positive singular values,
    nonincreasing.  B11 = U1.T @ B @ V1 is the data of the subproblem,
    Z = U2.T @ B @ V1 / sigma1 the forced off-diagonal block of the
    rotated solution, and offset = |B V2|_F^2 the irreducible part of
    the objective.
    """

    U1: np.ndarray
    U2: np.ndarray
    V1: np.ndarray
    V2: np.ndarray
    sigma1: np.ndarray
    B11: np.ndarray
    Z: np.ndarray
    offset: float
    n: int
    m: int
    r: int


@dataclass(frozen=True)
class SubproblemSolution:
    """A PSD candidate for the r-by-r subproblem.

    residual is |A11hat @ diag(sigma1) - B11|_F, rank_s the numerical
    rank of A11hat under the kernel tolerance and eig its
    eigendecomposition, which the attainment test and the assemblies
    reuse instead of factoring A11hat again.
    """

    A11hat: np.ndarray
    residual: float
    rank_s: int
    eig: SymEig


def reduce_problem(X, B, rank_tol=None):
    """Factor the instance (X, B) into a ReducedProblem.

    Raises DegenerateProblemError when X is numerically zero (then every
    PSD matrix attains the infimum |B|_F^2) and DimensionError when X
    and B differ in shape.
    """
    X = as_matrix(X, "X")
    B = as_matrix(B, "B")
    if X.shape != B.shape:
        raise DimensionError(
            "X and B must have equal shapes, got %s and %s" % ((X.shape,), (B.shape,))
        )
    n, m = X.shape
    U, s, V = svd(X)
    tol = default_rank_tol(n, m, float(s[0]) if s.size else 0.0) if rank_tol is None else rank_tol
    r = int(np.count_nonzero(s > tol))
    if r == 0:
        raise DegenerateProblemError("X is numerically zero; any PSD matrix is optimal")
    U1, U2 = U[:, :r], U[:, r:]
    V1, V2 = V[:, :r], V[:, r:]
    sigma1 = s[:r].copy()
    BV1 = B @ V1
    B11 = U1.T @ BV1
    Z = (U2.T @ BV1) / sigma1
    offset = fro_norm(B @ V2) ** 2 if r < m else 0.0
    return ReducedProblem(U1, U2, V1, V2, sigma1, B11, Z, offset, n, m, r)


def subproblem_residual(A11, red):
    """Residual norm |A11 diag(sigma1) - B11|_F of a subproblem candidate."""
    return float(np.linalg.norm(A11 * red.sigma1 - red.B11, "fro"))


def _positive(lam, tol):
    """Mask of the eigenvalues above tol times the largest, all False when none is positive."""
    return lam > tol * max(float(lam[0]), 0.0)


def make_subproblem_solution(A11hat, red, tol=KERNEL_TOL):
    """Wrap a candidate A11hat with its residual, numerical rank and eigendecomposition."""
    A11hat = as_matrix(A11hat, "A11hat")
    if A11hat.shape != (red.r, red.r):
        raise DimensionError(
            "A11hat must be %d-by-%d, got %s" % (red.r, red.r, (A11hat.shape,))
        )
    eig = eigh_sorted(A11hat)
    rank_s = int(np.count_nonzero(_positive(eig.lam, tol)))
    return SubproblemSolution(A11hat, subproblem_residual(A11hat, red), rank_s, eig)


def kernel_contained(sub, red, tol=KERNEL_TOL):
    """Whether ker(A11hat) lies inside ker(Z), the attainment criterion.

    Vacuously true when r = n (Z is empty) or A11hat is positive
    definite under the tolerance (no kernel directions N).
    """
    N = sub.eig.Q[:, ~_positive(sub.eig.lam, tol)]
    zn = float(np.linalg.norm(red.Z @ N, "fro"))
    return zn <= tol * max(1.0, float(np.linalg.norm(red.Z, "fro")))


def _rotate_blocks(red, A11, K):
    """Assemble U [[A11, Z.T], [Z, K]] U.T in original coordinates."""
    n, r = red.n, red.r
    M = np.zeros((n, n))
    M[:r, :r] = A11
    if r < n:
        M[r:, :r] = red.Z
        M[:r, r:] = red.Z.T
        M[r:, r:] = K
    U = np.hstack([red.U1, red.U2])
    return sym_part(U @ M @ U.T)


def infimum_value(red, sub):
    """Value of the infimum given a minimizing subproblem candidate."""
    return sub.residual**2 + red.offset


def minimal_norm_completion(Bblk, Cblk):
    """Minimal trailing block making [[B, C.T], [C, K]] PSD.

    Given symmetric PSD ``Bblk`` and ``Cblk`` with ker(Bblk) contained
    in ker(Cblk), the unique minimizer of both Frobenius and spectral
    norm over admissible trailing blocks is C B^+ C.T.  A kernel
    violation raises ConstraintViolationError.
    """
    Bblk = as_matrix(Bblk, "leading block")
    Cblk = as_matrix(Cblk, "coupling block")
    if Bblk.shape[0] != Bblk.shape[1]:
        raise DimensionError("leading block must be square, got %s" % (Bblk.shape,))
    if Cblk.shape[1] != Bblk.shape[0]:
        raise DimensionError(
            "coupling block must have %d columns, got %s" % (Bblk.shape[0], (Cblk.shape,))
        )
    return _completion(eigh_sorted(Bblk), Cblk)


def _completion(eig, Cblk):
    """C B^+ C.T given the eigendecomposition ``eig`` of B, after the kernel check."""
    N = eig.Q[:, ~_positive(eig.lam, KERNEL_TOL)]
    cn = float(np.linalg.norm(Cblk @ N, "fro"))
    if cn > KERNEL_TOL * max(1.0, float(np.linalg.norm(Cblk, "fro"))):
        raise ConstraintViolationError(
            "kernel of the leading block is not contained in the kernel of the "
            "coupling block (|C N|_F = %.3e); no PSD completion exists" % cn
        )
    return sym_part(Cblk @ pinv_from_eig(eig) @ Cblk.T)


def assemble_optimal(red, sub, K=None):
    """Build an exact optimizer from a minimizing subproblem candidate.

    Requires the attainment criterion ``kernel_contained``; otherwise
    NotAttainedError is raised and ``assemble_epsilon`` applies.  With
    the default trailing block K = Z A11hat^+ Z.T the result has, among
    all optimizers, minimal rank (equal to rank of A11hat), minimal
    Frobenius norm and minimal spectral norm.  A user-supplied K must
    satisfy K - Z A11hat^+ Z.T psd.
    """
    if not kernel_contained(sub, red):
        raise NotAttainedError(
            "ker(A11hat) is not contained in ker(Z); the infimum is not attained, "
            "use assemble_epsilon"
        )
    if K is not None and red.r == red.n:
        raise DimensionError("no trailing block exists when X has full row rank")
    Khat = None
    if red.r < red.n:
        Khat = _completion(sub.eig, red.Z)
    if K is None:
        K = Khat
    else:
        K = as_matrix(K, "K")
        nr = red.n - red.r
        if K.shape != (nr, nr):
            raise DimensionError("K must be %d-by-%d, got %s" % (nr, nr, (K.shape,)))
        if not is_psd(K - Khat):
            raise ConstraintViolationError(
                "K - Z A11hat^+ Z.T must be positive semidefinite"
            )
    value = infimum_value(red, sub)
    A = _rotate_blocks(red, sub.A11hat, K)
    return PsdpSolution(A=A, objective=value, infimum=value, attained=True)


def admissible_eps_upper(residual):
    """Upper end of the open interval of admissible eps values."""
    return min(1.0, residual**2) if residual > 0 else 1.0


def default_epsilon(infimum, residual):
    """A small eps well inside the admissible interval."""
    upper = admissible_eps_upper(residual)
    return min(max(1e-8, 1e-6 * infimum), upper / 2.0)


def _check_eps(eps, residual):
    """Raise ParameterError unless eps lies in the admissible interval."""
    upper = admissible_eps_upper(residual)
    if not (0.0 < eps < upper):
        raise ParameterError(
            "eps must lie in the open interval (0, %.6g), got %.6g" % (upper, eps)
        )


def assemble_epsilon(red, sub, eps, K_eps=None, tol=KERNEL_TOL):
    """Build a feasible A_eps with objective < infimum + eps.

    Kernel directions of A11hat are lifted to the level eps / beta with
    beta = 4 sqrt(r - s) |sigma1| residual (or without the residual
    factor when the residual vanishes), which restores invertibility so
    the trailing block Z (A11hat_eps)^{-1} Z.T exists.  eps must lie in
    (0, min(1, residual^2)), or (0, 1) when the residual is zero.  The
    call is legal even when the infimum is attained; it then returns a
    nearby feasible point.
    """
    res = sub.residual
    _check_eps(eps, res)
    Q, lam = sub.eig
    keep = _positive(lam, tol)
    Qp, lam_p, N = Q[:, keep], lam[keep], Q[:, ~keep]
    k = N.shape[1]
    sig_norm = float(np.linalg.norm(red.sigma1))
    if k == 0:
        # positive definite candidate: nothing to lift
        A11_eps = sub.A11hat
        A11_inv = (Qp / lam_p) @ Qp.T
    else:
        beta = 4.0 * math.sqrt(k) * sig_norm * (res if res > 0 else 1.0)
        upsilon = eps / beta
        A11_eps = sym_part((Qp * lam_p) @ Qp.T + upsilon * (N @ N.T))
        A11_inv = (Qp / lam_p) @ Qp.T + (N @ N.T) / upsilon if lam_p.size else (N @ N.T) / upsilon
    if K_eps is not None and red.r == red.n:
        raise DimensionError("no trailing block exists when X has full row rank")
    Khat = None
    if red.r < red.n:
        Khat = sym_part(red.Z @ A11_inv @ red.Z.T)
    if K_eps is None:
        K_eps = Khat
    else:
        K_eps = as_matrix(K_eps, "K_eps")
        if not is_psd(K_eps - Khat):
            raise ConstraintViolationError(
                "K_eps - Z A11_eps^{-1} Z.T must be positive semidefinite"
            )
    infimum = infimum_value(red, sub)
    objective = subproblem_residual(A11_eps, red) ** 2 + red.offset
    A = _rotate_blocks(red, A11_eps, K_eps)
    return PsdpSolution(
        A=A, objective=objective, infimum=infimum, attained=False, epsilon=eps
    )


def negative_case_solution(red, X, B, eps=None, tol=KERNEL_TOL):
    """Closed form when U1.T (B X.T + X B.T) U1 is negative semidefinite.

    Requires r < n; r = n raises InapplicableError.  When the condition
    holds the subproblem minimizer is A11 = 0, the infimum equals
    |U1.T B V1|^2 + |B V2|^2 and is never attained; the returned A_eps
    uses the leading block (eps / alpha) I with
    alpha = 4 sqrt(n) |sigma1| |U1.T B V1|_F (the norm factor dropped
    when it vanishes).  Returns None when the condition fails.
    """
    if red.r == red.n:
        raise InapplicableError("closed form requires rank(X) < n")
    X = as_matrix(X, "X")
    B = as_matrix(B, "B")
    cond = sym_part(red.U1.T @ (B @ X.T + X @ B.T) @ red.U1)
    w = np.linalg.eigvalsh(cond)
    scale = max(1.0, float(abs(w[0])), float(abs(w[-1])))
    if float(w[-1]) > tol * scale:
        return None
    b_norm = float(np.linalg.norm(red.B11, "fro"))
    infimum = b_norm**2 + red.offset
    if eps is None:
        eps = default_epsilon(infimum, b_norm)
    _check_eps(eps, b_norm)
    sig_norm = float(np.linalg.norm(red.sigma1))
    alpha = 4.0 * math.sqrt(red.n) * sig_norm * (b_norm if b_norm > 0 else 1.0)
    c = eps / alpha
    A11_eps = c * np.eye(red.r)
    objective = subproblem_residual(A11_eps, red) ** 2 + red.offset
    A = _rotate_blocks(red, A11_eps, (red.Z @ red.Z.T) / c)
    return PsdpSolution(
        A=A, objective=objective, infimum=infimum, attained=False, epsilon=eps
    )


def rank1_solve(X, B, eps=None, rank_tol=None, zero_tol=1e-12):
    """Closed-form solution when X has numerical rank one.

    With X = sigma u v.T, t = u.T B v and w the components of B v
    orthogonal to u, three regimes apply:

    * t > 0: attained, infimum |B V2|^2, leading coefficient t / sigma
      with coupling w / sigma and minimal trailing block w w.T / (sigma t);
    * t <= 0 and w = 0: attained by A = 0, infimum t^2 + |B V2|^2;
    * t <= 0 and w != 0: not attained; an eps-solution lifts the leading
      coefficient to 1 / n0 with the smallest integer n0 satisfying
      sigma^2 / n0^2 - 2 sigma t / n0 < eps, and trailing block
      (n0 / sigma^2) w w.T.

    For the unattained regime any eps > 0 is admissible.  Inputs of
    rank other than one raise InapplicableError.
    """
    try:
        red = reduce_problem(X, B, rank_tol)
    except DegenerateProblemError as exc:
        raise InapplicableError("closed form requires numerical rank 1, got rank 0") from exc
    if red.r != 1:
        raise InapplicableError("closed form requires numerical rank 1, got rank %d" % red.r)
    # t = u.T B v, and |w| from Z = w / sigma
    sigma = float(red.sigma1[0])
    t = float(red.B11[0, 0])
    w_norm = sigma * float(np.linalg.norm(red.Z))
    ZZt = red.Z @ red.Z.T

    if t > 0.0:
        a = t / sigma
        A = _rotate_blocks(red, [[a]], ZZt / a)
        return PsdpSolution(A=A, objective=red.offset, infimum=red.offset, attained=True)

    infimum = t**2 + red.offset
    # |B v|^2 = t^2 + |w|^2
    if w_norm <= zero_tol * max(1.0, math.hypot(t, w_norm)):
        return PsdpSolution(
            A=np.zeros((red.n, red.n)), objective=infimum, infimum=infimum, attained=True
        )

    if eps is None:
        eps = max(1e-8, 1e-6 * infimum)
    if eps <= 0.0:
        raise ParameterError("eps must be positive, got %.6g" % eps)
    # smallest n0 with sigma^2/n0^2 - 2 sigma t/n0 < eps: closed-form floor,
    # then walk up to absorb rounding
    y_star = (t + math.sqrt(t * t + eps)) / sigma
    n0 = max(1, int(math.floor(1.0 / y_star)))
    while sigma**2 / n0**2 - 2.0 * sigma * t / n0 >= eps:
        n0 += 1
    a = 1.0 / n0
    A = _rotate_blocks(red, [[a]], ZZt / a)
    objective = infimum + sigma**2 / n0**2 - 2.0 * sigma * t / n0
    return PsdpSolution(A=A, objective=objective, infimum=infimum, attained=False, epsilon=eps)
