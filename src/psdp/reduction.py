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
A solution U [[A11, Z.T], [Z, Z W Z.T]] U.T, with A11 = Q diag(lam) Q.T
and W its (pseudo-)inverse, is then assembled as one product G G.T with
the n-by-r factor G = U1 Q lam^{1/2} + Y Q lam^{-1/2}, in O(n^2 r); the
result is exactly symmetric and PSD to rounding, and neither U2 nor
any other n-by-n factor is formed; U2, V2 and Z are derived on demand
for callers that ask for them, and a user trailing block joins G as
extra columns U2 F.  A subproblem candidate is factored once, in
``make_subproblem_solution``; the attainment test, the dual bound and
both assemblies read that factorization.  Two instance classes give the
subproblem minimizer without any iteration, as a diagonal candidate that
goes through the same test and assemblies: rank-one X (``rank1_solve``)
and the negative semidefinite case (``negative_case_solution``).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConstraintViolationError,
    DegenerateProblemError,
    DimensionError,
    InapplicableError,
    NotAttainedError,
)
from .matcore import (
    EPS,
    KERNEL_TOL,
    SymEig,
    as_matrix,
    as_number,
    as_pair,
    default_rank_tol,
    eigh_sorted,
    fro_norm,
    is_psd,
    numerical_rank,
    pinv_from_eig,
    psd_project,
    svd,
    sym_part,
)
from .matcore import pinv_psd  # noqa: F401  (unused here; perfbench's tracer wraps this name)
from .solution import PsdpSolution


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

    @cached_property
    def negative_case(self):
        """Whether U1.T (B X.T + X B.T) U1 is negative semidefinite, tested once.

        One eigvalsh of ``negative_condition``, on the data's scale:
        |B11 Sigma1 + Sigma1 B11.T|_2 <= 2 sigma1[0] |B11|_F.
        """
        w = np.linalg.eigvalsh(negative_condition(self))
        return float(w[-1]) <= KERNEL_TOL * float(self.sigma1[0]) * fro_norm(self.B11)

    @cached_property
    def zero_candidate(self):
        """The candidate A11 = 0, the subproblem minimizer in the negative case, built once."""
        return make_subproblem_solution(np.zeros((self.r, self.r)), self)


@dataclass(frozen=True)
class SubproblemSolution:
    """A PSD candidate for the r-by-r subproblem.

    residual is |A11hat @ diag(sigma1) - B11|_F, eig its sorted
    eigendecomposition and rank_s its ``numerical_rank``, so
    eig.Q[:, rank_s:] spans its numerical kernel.
    """

    A11hat: np.ndarray
    residual: float
    rank_s: int
    eig: SymEig


def reduce_problem(X, B):
    """Factor the instance (X, B) into a ReducedProblem.

    Raises DegenerateProblemError when X is numerically zero (then every
    PSD matrix attains the infimum |B|_F^2) and DimensionError when X
    and B differ in shape.
    """
    X, B = as_pair(X, B)
    n, m = X.shape
    U, s, V = svd(X)
    r = int(np.count_nonzero(s > default_rank_tol(n, m, float(s[0]))))
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


def make_subproblem_solution(A11hat, red):
    """Wrap a candidate A11hat with its residual, numerical rank and eigendecomposition.

    A diagonal candidate (the closed forms') is factored by a stable
    descending sort: Q is a permutation and no eigensolver runs.
    A11hat is expected finite and is not rescanned.
    """
    A11hat = np.asarray(A11hat, dtype=float)
    if A11hat.shape != (red.r, red.r):
        raise DimensionError(
            "A11hat must be %d-by-%d, got %s" % (red.r, red.r, (A11hat.shape,))
        )
    d = np.diagonal(A11hat)
    if np.count_nonzero(A11hat) == np.count_nonzero(d):
        order = np.argsort(-d, kind="stable")
        eig = SymEig(np.eye(red.r)[:, order], d[order])
    else:
        eig = eigh_sorted(A11hat)
    residual = subproblem_residual(A11hat, red)
    return SubproblemSolution(A11hat, residual, numerical_rank(eig.lam), eig)


def kernel_contained(sub, red):
    """Whether ker(A11hat) lies inside ker(Z), the attainment criterion.

    Vacuously true when r = n (Z is empty) or A11hat is positive
    definite under KERNEL_TOL (no kernel directions; then the unit is not
    formed).  Reads Y = U2 Z, whose norm |Y N|_F equals |Z N|_F, against
    the data's unit |B V1 Sigma1^{-1}|_F, the size of Y when it is not zero.
    """
    N = sub.eig.Q[:, sub.rank_s:]
    if not N.size:
        return True
    unit = math.hypot(fro_norm(red.B11 / red.sigma1), fro_norm(red.Y))
    return fro_norm(red.Y @ N) <= KERNEL_TOL * unit


def _rotate_blocks(red, Q, lam, rank=None, F=None):
    """Assemble U [[A11, Z.T], [Z, Z W Z.T + F F.T]] U.T in original coordinates.

    A11 = Q diag(lam) Q.T and W = A11^+ on its leading ``rank`` pairs
    (all of them by default).  Computed as G G.T with
    G = U1 Q lam^{1/2} + Y Q lam^{-1/2}, the Y term taken on the leading
    ``rank`` columns only: on kernel columns Y Q = 0 is the attainment
    criterion, and dropping the term there takes Z off ker(A11), so A is
    PSD to rounding.  A factor F of a user trailing excess joins G as
    the extra columns U2 F; U2 is formed only then.  numpy forms G G.T
    as one symmetric rank update (SYRK), so every A is exactly
    symmetric, in O(n^2 r) without F and with no other n-by-n array.
    """
    root = np.sqrt(np.maximum(lam, 0.0))
    G = red.U1 @ (Q * root)
    if red.r < red.n:
        s = lam.size if rank is None else rank
        G[:, :s] += red.Y @ (Q[:, :s] / root[:s])
    if F is not None:
        G = np.hstack((G, red.U2 @ F))
    return G @ G.T


def _trailing_factor(red, K, W, name):
    """F with F F.T = K - Z W Z.T for a user trailing block K; the difference must be PSD."""
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
    Q, lam = eigh_sorted(dK)
    return Q * np.sqrt(np.maximum(lam, 0.0))


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
    g is the same in the units Sigma 2^-e, A11 2^e and Lambda 2^-e, with
    2^e the power of two nearest above sigma1[0]: there D cannot overflow
    or underflow, and the scalings are exact.
    """
    e = int(np.frexp(red.sigma1[0])[1])
    sigma = np.ldexp(red.sigma1, -e)
    s2 = sigma * sigma
    denom = s2[:, None] + s2[None, :]
    M = np.ldexp(negative_condition(red), -e)
    # column-major, as a gathered block: BLAS rounds the strided view differently
    K = np.asfortranarray(sub.eig.Q[:, sub.rank_s:])
    Lam, gain = 0.0, 0.0
    if K.shape[1]:
        A11 = np.ldexp(sym_part(sub.A11hat), e)
        Lam = K @ psd_project(K.T @ (A11 * denom - M) @ K) @ K.T
        a = float(np.sum(Lam * (M / denom)))
        b = float(np.sum(Lam * (Lam / denom)))
        t = max(0.0, -a / b) if b > 0.0 else 1.0
        gain = (1.0 - t) * (a + (1.0 + t) * b / 2.0)
    A_lam = (M + Lam) / denom
    f = float(np.linalg.norm(A_lam * sigma - red.B11, "fro")) ** 2
    return max(0.0, f - float(np.sum(Lam * A_lam)) + red.offset + gain)


def relative_gap(red, upper, lower):
    """(upper - lower) / upper, the relative width of [lower, upper].

    Its denominator is floored at EPS (|B11|_F^2 + offset), the objective
    of A11 = 0 at rounding level, so an exact fit certifies; 0 when that is 0.
    """
    denom = max(upper, EPS * (fro_norm(red.B11) ** 2 + red.offset))
    return (upper - lower) / denom if denom > 0.0 else 0.0


def assemble_optimal(red, sub, K=None):
    """Build an exact optimizer from a minimizing subproblem candidate.

    Requires the attainment criterion ``kernel_contained``; otherwise
    NotAttainedError is raised and ``assemble_epsilon`` applies.  With
    the default trailing block K = Z A11hat^+ Z.T the result has, among
    all optimizers, minimal rank (equal to rank of A11hat), minimal
    Frobenius norm and minimal spectral norm.  A user-supplied K must
    satisfy K - Z A11hat^+ Z.T psd.  Z is assembled on the range of
    A11hat only, so it is taken off the numerical kernel, and A is PSD
    to rounding.
    """
    if not kernel_contained(sub, red):
        raise NotAttainedError(
            "ker(A11hat) is not contained in ker(Z); the infimum is not attained, "
            "use assemble_epsilon"
        )
    F = None if K is None else _trailing_factor(red, K, pinv_from_eig(sub.eig), "K")
    value = infimum_value(red, sub)
    A = _rotate_blocks(red, sub.eig.Q, sub.eig.lam, sub.rank_s, F)
    return PsdpSolution(A=A, objective=value, infimum=value, attained=True)


def resolve_epsilon(eps, infimum, residual=None):
    """``eps``, or min(max(1e-8, 1e-6 infimum), upper / 2) when None.

    eps must be a real in (0, upper) (``matcore.as_number``): upper =
    residual^2 for a lift of a candidate of that residual (it adds at most
    eps / 2 + eps^2 / (16 residual^2)), 1 when the residual is 0, inf on
    the rank-one route (residual None).
    """
    upper = math.inf if residual is None else residual**2 if residual > 0 else 1.0
    if eps is None:
        eps = min(max(1e-8, 1e-6 * infimum), upper / 2.0)
    return as_number(eps, "eps", 0.0, upper, open_lo=True)


def _lift(red, sub, eps, count, K_eps=None):
    """``assemble_epsilon`` with sqrt(count) in beta: r - s there, n for the negative case."""
    res = sub.residual
    infimum = infimum_value(red, sub)
    eps = resolve_epsilon(eps, infimum, res)
    s = sub.rank_s
    Q, lam = sub.eig
    A11_eps = sub.A11hat
    if s < red.r:
        beta = 4.0 * math.sqrt(count) * fro_norm(red.sigma1[None]) * (res if res > 0 else 1.0)
        lam = np.concatenate((lam[:s], np.full(red.r - s, eps / beta)))
        A11_eps = sym_part((Q * lam) @ Q.T)
    F = None if K_eps is None else _trailing_factor(red, K_eps, (Q / lam) @ Q.T, "K_eps")
    objective = subproblem_residual(A11_eps, red) ** 2 + red.offset
    A = _rotate_blocks(red, Q, lam, F=F)
    return PsdpSolution(
        A=A, objective=objective, infimum=infimum, attained=False, epsilon=eps
    )


def assemble_epsilon(red, sub, eps=None, K_eps=None):
    """Build a feasible A_eps with objective < infimum + eps.

    Kernel directions of A11hat are lifted to the level eps / beta with
    beta = 4 sqrt(r - s) |sigma1| residual (or without the residual
    factor when the residual vanishes), which restores invertibility so
    the trailing block Z (A11hat_eps)^{-1} Z.T exists.  eps must lie in
    (0, residual^2), or (0, 1) when the residual is zero; None takes the
    default of ``resolve_epsilon``.  The call is legal even when the
    infimum is attained; it then returns a nearby feasible point.
    """
    return _lift(red, sub, eps, red.r - sub.rank_s, K_eps)


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
    |U1.T B V1|^2 + |B V2|^2.  The route returns the eps-lift of
    ``assemble_epsilon`` at that zero candidate, with sqrt(n) in place
    of sqrt(r - s): the leading block is (eps / alpha) I with
    alpha = 4 sqrt(n) |sigma1| |U1.T B V1|_F (the norm factor dropped
    when it vanishes); lower_bound = infimum, gap 0.  It reports
    attained=False, which is exact only when Z != 0: when Z = 0 (B = -X,
    say) A = 0 attains the infimum, as ``an_fgm_solve`` reports.
    Returns None when the condition fails.  The condition is
    ``red.negative_case``, tested once per reduction, so X and B are not
    read.
    """
    if red.r == red.n:
        raise InapplicableError("closed form requires rank(X) < n")
    if not red.negative_case:
        return None
    out = _lift(red, red.zero_candidate, eps, red.n)
    out.lower_bound, out.gap = out.infimum, 0.0
    return out


def rank1_solve(X, B, eps=None, red=None):
    """Closed-form solution when X has numerical rank one.

    With X = sigma u v.T, t = u.T B v and w the components of B v
    orthogonal to u, the subproblem minimizer is max(t, 0) / sigma, and
    ``assemble_optimal`` of that candidate covers both attained regimes:

    * t > 0: infimum |B V2|^2, leading coefficient t / sigma with
      coupling w / sigma and minimal trailing block w w.T / (sigma t);
    * t <= 0 and w = 0 under ``kernel_contained``: A = 0, infimum
      t^2 + |B V2|^2;
    * t <= 0 and w != 0: not attained; an eps-solution lifts the leading
      coefficient to a = 1 / n0 with the smallest integer n0 satisfying
      sigma^2 / n0^2 - 2 sigma t / n0 < eps (1 - 2^-7), which leaves
      eps / 128 for the rounding of A, and trailing block (n0 / sigma^2) w w.T.
      When n0 = 1 already satisfies it (tiny sigma), a is instead the
      root above 1 of sigma^2 a^2 - 2 sigma t a = eps (1 - 2^-7), which
      keeps the trailing block in the float range.

    The infimum min(t, 0)^2 + |B V2|^2 is exact, not the candidate's
    rounded residual: lower_bound = infimum, gap 0.  Any finite eps > 0
    is admissible; it is checked before either branch.  The branch is the
    same under (cX, dB); the eps-solution is not.  Inputs of rank other
    than one raise InapplicableError.
    ``red``, when given, is the ReducedProblem of (X, B) and is used
    instead of reducing again.
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
    sigma = float(red.sigma1[0])
    t = float(red.B11[0, 0])
    infimum = min(t, 0.0) ** 2 + red.offset
    eps = resolve_epsilon(eps, infimum)
    sub = make_subproblem_solution(np.array([[max(t, 0.0) / sigma]]), red)
    try:
        A = assemble_optimal(red, sub).A
    except NotAttainedError:
        pass
    else:
        return PsdpSolution(
            A=A, objective=infimum, infimum=infimum, attained=True,
            lower_bound=infimum, gap=0.0,
        )

    target = eps * (1.0 - 2.0**-7)

    def excess(q):
        # sigma^2 a^2 - 2 sigma t a at q = sigma a, with no sigma^2 to overflow
        return q * (q - 2.0 * t)

    # y_star = (t + sqrt(t^2 + target)) / sigma solves excess = target,
    # here without cancellation for t <= 0
    y_star = target / (sigma * (math.sqrt(t * t + target) - t))
    if y_star >= 1.0:
        a, q = y_star, sigma * y_star
    else:
        # smallest n0 with excess < target: closed-form floor, then walk up
        # to absorb rounding, by more than the float spacing of n0
        n0 = int(math.floor(1.0 / y_star))
        while excess(sigma / n0) >= target:
            n0 += max(1, n0 >> 50)
        a, q = 1.0 / n0, sigma / n0
    A = _rotate_blocks(red, sub.eig.Q, np.array([a]))
    return PsdpSolution(
        A=A, objective=infimum + excess(q), infimum=infimum, attained=False, epsilon=eps,
        lower_bound=infimum, gap=0.0,
    )
