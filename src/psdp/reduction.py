"""Semi-analytical reduction of the PSD Procrustes problem.

The problem is inf |A X - B|_F^2 over symmetric positive semidefinite
A, with X and B real n-by-m.  A thin SVD X = U1 Sigma1 V1.T at the
numerical rank r splits the objective into a strongly convex r-by-r
subproblem on the leading block plus a constant offset:

    inf_{A psd} |A X - B|^2
        = min_{A11 psd} |A11 Sigma1 - U1.T B V1|^2 + |B (I - V1 V1.T)|^2.

With U2 an orthonormal basis of the complement of range(U1), the
off-diagonal block of any optimal rotated solution is forced to
Z = U2.T B V1 Sigma1^{-1}, and the infimum is attained exactly when the
kernel of the subproblem minimizer is contained in the kernel of Z.  In
that case ``assemble_optimal`` builds an exact optimizer; otherwise
``assemble_epsilon`` builds a feasible point whose objective is within
any admissible eps of the infimum.

Every block formula needs U2 only through the n-by-r product
Y = U2 Z = (I - U1 U1.T) B V1 Sigma1^{-1}, which the reduction stores.
A solution U [[A11, Z.T], [Z, Z W Z.T]] U.T is then assembled as
[U1 Y] [[A11, I], [I, W]] [U1 Y].T in O(n^2 r), and neither U2 nor
any other n-by-n factor is formed; U2, V2 and Z are derived on demand
for callers that ask for them.  A subproblem candidate is factored once,
in ``make_subproblem_solution``; the attainment test, the dual bound
and both assemblies read that factorization.  Two instance classes
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
    psd_project,
    svd,
    sym_part,
    symmetrize_inplace,
)
from .matcore import pinv_psd  # noqa: F401  (unused here; perfbench's tracer wraps this name)
from .solution import PsdpSolution

# eigenvalues at or below KERNEL_TOL times the largest are kernel directions
KERNEL_TOL = 1e-8
ZERO_TOL = 1e-12  # rank1_solve's w is zero when |w| <= ZERO_TOL * max(1, |B v|)


def _complement(Q):
    """Orthonormal basis of the orthogonal complement of range(Q), Q with orthonormal columns."""
    return np.linalg.qr(Q, mode="complete")[0][:, Q.shape[1]:]


@dataclass(frozen=True)
class ReducedProblem:
    """Thin SVD factors and derived blocks of the rank-r reduction.

    U1 (n-by-r) and V1 (m-by-r) hold the leading left and right singular
    vectors of X, and sigma1 the r positive singular values,
    nonincreasing.  B11 = U1.T @ B @ V1 is the data of the subproblem,
    Y = (I - U1 U1.T) @ B @ V1 / sigma1 (n-by-r, exactly zero when
    r = n) the forced off-diagonal block in original coordinates, and
    offset = |B (I - V1 V1.T)|_F^2 the irreducible part of the
    objective.

    The complementary bases U2 (n-by-(n-r)) and V2 (m-by-(m-r)) and the
    forced block Z = U2.T @ Y are not stored: each read derives them
    afresh (U2 and V2 from a complete QR of U1 and V1), so they cost
    O(n^2 r) per read and no solve route reads them.
    """

    U1: np.ndarray
    V1: np.ndarray
    sigma1: np.ndarray
    B11: np.ndarray
    Y: np.ndarray
    offset: float
    n: int
    m: int
    r: int

    @property
    def U2(self):
        return _complement(self.U1)

    @property
    def V2(self):
        return _complement(self.V1)

    @property
    def Z(self):
        return self.U2.T @ self.Y


@dataclass(frozen=True)
class SubproblemSolution:
    """A PSD candidate for the r-by-r subproblem.

    residual is |A11hat @ diag(sigma1) - B11|_F, eig its sorted
    eigendecomposition and rank_s its numerical rank under KERNEL_TOL,
    so eig.Q[:, rank_s:] spans its numerical kernel.
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
    U1, V1 = U[:, :r], V[:, :r]
    sigma1 = s[:r].copy()
    BV1 = B @ V1
    B11 = U1.T @ BV1
    Y = (BV1 - U1 @ B11) / sigma1 if r < n else np.zeros((n, r))
    offset = fro_norm(B - BV1 @ V1.T) ** 2 if r < m else 0.0
    return ReducedProblem(U1, V1, sigma1, B11, Y, offset, n, m, r)


def subproblem_residual(A11, red):
    """Residual norm |A11 diag(sigma1) - B11|_F of a subproblem candidate."""
    return float(np.linalg.norm(A11 * red.sigma1 - red.B11, "fro"))


def _numerical_rank(lam):
    """Count of the nonincreasing eigenvalues lam above KERNEL_TOL times the largest."""
    return int(np.count_nonzero(lam > KERNEL_TOL * max(float(lam[0]), 0.0)))


def _kernel_excess(C, N):
    """|C N|_F when it exceeds KERNEL_TOL * max(1, |C|_F) (range(N) not in ker(C)), else None."""
    cn = float(np.linalg.norm(C @ N, "fro"))
    return cn if cn > KERNEL_TOL * max(1.0, float(np.linalg.norm(C, "fro"))) else None


def make_subproblem_solution(A11hat, red):
    """Wrap a candidate A11hat with its residual, numerical rank and eigendecomposition."""
    A11hat = as_matrix(A11hat, "A11hat")
    if A11hat.shape != (red.r, red.r):
        raise DimensionError(
            "A11hat must be %d-by-%d, got %s" % (red.r, red.r, (A11hat.shape,))
        )
    eig = eigh_sorted(A11hat)
    rank_s = _numerical_rank(eig.lam)
    return SubproblemSolution(A11hat, subproblem_residual(A11hat, red), rank_s, eig)


def kernel_contained(sub, red):
    """Whether ker(A11hat) lies inside ker(Z), the attainment criterion.

    Vacuously true when r = n (Z is empty) or A11hat is positive
    definite under KERNEL_TOL (no kernel directions).  Reads Y = U2 Z,
    whose norms |Y N|_F and |Y|_F equal |Z N|_F and |Z|_F.
    """
    return _kernel_excess(red.Y, sub.eig.Q[:, sub.rank_s:]) is None


def _rotate_blocks(red, A11, W, dK=None):
    """Assemble U [[A11, Z.T], [Z, Z W Z.T + dK]] U.T in original coordinates.

    Computed as [U1 Y] [[A11, I], [I, W]] [U1 Y].T in O(n^2 r), plus
    U2 dK U2.T when a trailing excess dK is given; U2 is formed only
    then.  W and dK are ignored when r = n.
    """
    U1 = red.U1
    if red.r == red.n:
        return symmetrize_inplace(U1 @ A11 @ U1.T)
    eye = np.eye(red.r)
    H = np.hstack([U1, red.Y])
    A = (H @ np.block([[A11, eye], [eye, W]])) @ H.T
    if dK is not None:
        U2 = red.U2
        A += U2 @ dK @ U2.T
    return symmetrize_inplace(A)


def _trailing_excess(red, K, W, name):
    """K - Z W Z.T for a user trailing block K, which must be PSD."""
    if red.r == red.n:
        raise DimensionError("no trailing block exists when X has full row rank")
    K = as_matrix(K, name)
    nr = red.n - red.r
    if K.shape != (nr, nr):
        raise DimensionError("%s must be %d-by-%d, got %s" % (name, nr, nr, (K.shape,)))
    Z = red.Z
    dK = K - sym_part(Z @ W @ Z.T)
    if not is_psd(dK):
        raise ConstraintViolationError(
            "%s minus the minimal trailing block must be positive semidefinite" % name
        )
    return dK


def infimum_value(red, sub):
    """Value of the infimum given a minimizing subproblem candidate."""
    return sub.residual**2 + red.offset


def dual_bound(red, sub):
    """Certified lower bound on the infimum from a subproblem candidate.

    With Sigma = diag(sigma1), C = B11, M = C Sigma + Sigma C.T and
    D = sigma_i^2 + sigma_j^2, the Lagrangian f(A) - <Lambda, A> of
    min_{A psd} f(A) = |A Sigma - C|^2 is minimized over symmetric A by
    A(Lambda) = (M + Lambda) / D, so g(Lambda) = f(A(Lambda)) -
    <Lambda, A(Lambda)> + offset is a lower bound for every psd Lambda.
    Lambda = K proj_psd(K.T G K) K.T is the gradient G = A11 Sigma^2 +
    Sigma^2 A11 - M at A11 = sub.A11hat compressed to its numerical
    kernel K = eig.Q[:, rank_s:]: at the optimum G vanishes on the range
    of A11 and is the multiplier on its kernel, so the bound closes to
    rounding level as A11 converges (the uncompressed proj_psd(G) stalls
    at relative gaps of 1e-13 to 1e-9).  Far from
    the optimum Lambda overshoots, so its best scale t >= 0 is taken:
    g(t Lambda) = g(0) - t a - t^2 b / 2 with a = <Lambda, M / D> and
    b = <Lambda, Lambda / D>, so t = max(0, -a / b) gains
    (1 - t) (a + (1 + t) b / 2) over g(Lambda); only K.T G K is factored.
    """
    sigma = red.sigma1
    s2 = sigma * sigma
    denom = s2[:, None] + s2[None, :]
    M = negative_condition(red)
    # column-major, as a gathered block: BLAS rounds the strided view differently
    K = np.asfortranarray(sub.eig.Q[:, sub.rank_s:])
    Lam, gain = 0.0, 0.0
    if K.shape[1]:
        Lam = K @ psd_project(K.T @ (sym_part(sub.A11hat) * denom - M) @ K) @ K.T
        a = float(np.sum(Lam * (M / denom)))
        b = float(np.sum(Lam * (Lam / denom)))
        t = max(0.0, -a / b) if b > 0.0 else 1.0
        gain = (1.0 - t) * (a + (1.0 + t) * b / 2.0)
    A_lam = (M + Lam) / denom
    f = float(np.linalg.norm(A_lam * sigma - red.B11, "fro")) ** 2
    return max(0.0, f - float(np.sum(Lam * A_lam)) + red.offset + gain)


def factor_and_bound(red, A11hat):
    """``make_subproblem_solution`` of a candidate and ``dual_bound`` at it, as a pair."""
    sub = make_subproblem_solution(A11hat, red)
    return sub, dual_bound(red, sub)


def relative_gap(upper, lower):
    """(upper - lower) / upper, the relative width of [lower, upper]; 0 when upper is 0."""
    return (upper - lower) / upper if upper > 0.0 else 0.0


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
    eig = eigh_sorted(Bblk)
    cn = _kernel_excess(Cblk, eig.Q[:, _numerical_rank(eig.lam):])
    if cn is not None:
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
    W = pinv_from_eig(sub.eig) if red.r < red.n else None
    dK = None if K is None else _trailing_excess(red, K, W, "K")
    value = infimum_value(red, sub)
    A = _rotate_blocks(red, sub.A11hat, W, dK)
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


def assemble_epsilon(red, sub, eps, K_eps=None):
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
    s = sub.rank_s
    Qp, lam_p, N = sub.eig.Q[:, :s], sub.eig.lam[:s], sub.eig.Q[:, s:]
    A11_eps, A11_inv = sub.A11hat, (Qp / lam_p) @ Qp.T
    k = N.shape[1]
    if k:
        beta = 4.0 * math.sqrt(k) * float(np.linalg.norm(red.sigma1)) * (res if res > 0 else 1.0)
        upsilon = eps / beta
        A11_eps = sym_part((Qp * lam_p) @ Qp.T + upsilon * (N @ N.T))
        A11_inv = A11_inv + (N @ N.T) / upsilon
    dK = None if K_eps is None else _trailing_excess(red, K_eps, A11_inv, "K_eps")
    infimum = infimum_value(red, sub)
    objective = subproblem_residual(A11_eps, red) ** 2 + red.offset
    A = _rotate_blocks(red, A11_eps, A11_inv, dK)
    return PsdpSolution(
        A=A, objective=objective, infimum=infimum, attained=False, epsilon=eps
    )


def negative_condition(red):
    """The r-by-r matrix U1.T (B X.T + X B.T) U1 = B11 Sigma1 + Sigma1 B11.T.

    Also the constant term M of the subproblem gradient (``dual_bound``).
    """
    C = red.B11 * red.sigma1
    return C + C.T


def negative_case_solution(red, X=None, B=None, eps=None):
    """Closed form when U1.T (B X.T + X B.T) U1 is negative semidefinite.

    Requires r < n; r = n raises InapplicableError.  When the condition
    holds the subproblem minimizer is A11 = 0 and the infimum equals
    |U1.T B V1|^2 + |B V2|^2.  The route always returns an eps-solution
    with attained=False, which is exact only when Z != 0: when Z = 0
    (B = -X, say) A = 0 attains the infimum, as the iterative route
    reports.  A_eps uses the leading block (eps / alpha) I with
    alpha = 4 sqrt(n) |sigma1| |U1.T B V1|_F (the norm factor dropped
    when it vanishes); lower_bound = infimum, gap 0.  Returns None when
    the condition fails.  The condition is formed from ``red`` alone
    (``negative_condition``), so X and B are not read.
    """
    if red.r == red.n:
        raise InapplicableError("closed form requires rank(X) < n")
    w = np.linalg.eigvalsh(negative_condition(red))
    b_norm = float(np.linalg.norm(red.B11, "fro"))
    # |B11 Sigma1 + Sigma1 B11.T|_2 <= 2 sigma1[0] |B11|_F: a scale set by the data
    if float(w[-1]) > KERNEL_TOL * float(red.sigma1[0]) * b_norm:
        return None
    infimum = b_norm**2 + red.offset
    if eps is None:
        eps = default_epsilon(infimum, b_norm)
    _check_eps(eps, b_norm)
    sig_norm = float(np.linalg.norm(red.sigma1))
    alpha = 4.0 * math.sqrt(red.n) * sig_norm * (b_norm if b_norm > 0 else 1.0)
    c = eps / alpha
    A11_eps = c * np.eye(red.r)
    objective = subproblem_residual(A11_eps, red) ** 2 + red.offset
    A = _rotate_blocks(red, A11_eps, np.eye(red.r) / c)
    return PsdpSolution(
        A=A, objective=objective, infimum=infimum, attained=False, epsilon=eps,
        lower_bound=infimum, gap=0.0,
    )


def rank1_solve(X, B, eps=None, red=None):
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

    For the unattained regime any eps > 0 is admissible.  The infimum
    is exact: lower_bound = infimum, gap 0.  Inputs of rank other than
    one raise InapplicableError.  ``red``, when given, is the
    ReducedProblem of (X, B) and is used instead of reducing again.
    """
    if red is None:
        try:
            red = reduce_problem(X, B)
        except DegenerateProblemError as exc:
            raise InapplicableError(
                "closed form requires numerical rank 1, got rank 0"
            ) from exc
    if red.r != 1:
        raise InapplicableError("closed form requires numerical rank 1, got rank %d" % red.r)
    # t = u.T B v, and |w| from Y = w / sigma
    sigma = float(red.sigma1[0])
    t = float(red.B11[0, 0])
    w_norm = sigma * float(np.linalg.norm(red.Y))

    if t > 0.0:
        a = t / sigma
        A = _rotate_blocks(red, np.array([[a]]), np.array([[1.0 / a]]))
        return PsdpSolution(
            A=A, objective=red.offset, infimum=red.offset, attained=True,
            lower_bound=red.offset, gap=0.0,
        )

    infimum = t**2 + red.offset
    # |B v|^2 = t^2 + |w|^2
    if w_norm <= ZERO_TOL * max(1.0, math.hypot(t, w_norm)):
        return PsdpSolution(
            A=np.zeros((red.n, red.n)), objective=infimum, infimum=infimum, attained=True,
            lower_bound=infimum, gap=0.0,
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
    A = _rotate_blocks(red, np.array([[a]]), np.array([[1.0 / a]]))
    objective = infimum + sigma**2 / n0**2 - 2.0 * sigma * t / n0
    return PsdpSolution(
        A=A, objective=objective, infimum=infimum, attained=False, epsilon=eps,
        lower_bound=infimum, gap=0.0,
    )
