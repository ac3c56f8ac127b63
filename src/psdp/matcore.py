"""Dense real-matrix primitives shared by the whole package.

All matrices are two-dimensional float64 ndarrays.  User input is checked
once, where it enters the package, by ``as_matrix``, ``as_pair``,
``as_number`` or ``as_choice``; the array kernels expect finite arrays and
do not rescan them.  Spectral factorizations delegate to LAPACK through
numpy.linalg and are wrapped so that failures and non-finite results
surface as NumericError with some context instead of a bare exception.

The central operation is ``psd_project``, the Frobenius-nearest
positive semidefinite matrix: symmetrize, then clip negative
eigenvalues to zero.
"""

import math
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NumericError, ParameterError

EPS = float(np.finfo(np.float64).eps)
# the kernel rule: an eigenvalue at or below KERNEL_TOL times the largest is zero
KERNEL_TOL = 1e-8


def as_matrix(M, name="matrix"):
    """Validate ``M`` as a non-empty 2-D float array with finite entries."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise DimensionError(
            "%s must be a non-empty 2-D array, got shape %s" % (name, (A.shape,))
        )
    if not np.isfinite(A).all():
        raise ParameterError("%s contains NaN or Inf entries" % name)
    return A


def as_number(x, name, lo, hi=math.inf, integer=False, open_lo=False):
    """float(x) (int(x) if ``integer``) of a non-bool x in [lo, hi), (lo, hi) if ``open_lo``."""
    ok = isinstance(x, Integral if integer else Real) and not isinstance(x, bool)
    if ok and x < hi and (lo < x if open_lo else lo <= x):
        return int(x) if integer else float(x)
    kind, bra = "an integer" if integer else "a real number", "(" if open_lo else "["
    raise ParameterError("%s must be %s in %s%.6g, %.6g), got %r" % (name, kind, bra, lo, hi, x))


def as_choice(x, choices, name, error=ParameterError):
    """``x`` if it is one of the names ``choices``, else ``error`` listing them."""
    if not (isinstance(x, str) and x in choices):
        raise error("unknown %s %r; choose one of %s" % (name, x, ", ".join(choices)))
    return x


def as_pair(X, B):
    """``as_matrix`` of X and B, which must have equal shapes and a finite |B|_F^2.

    |B|_F^2 is the objective of A = 0; its overflow raises NumericError.
    One sum of squares over B stands in for B's NaN/Inf scan.
    """
    X = as_matrix(X, "X")
    B = np.asarray(B, dtype=float)
    if X.shape != B.shape:
        raise DimensionError("X and B must have equal shapes, got %s and %s" % (X.shape, B.shape))
    b = B.ravel(order="K")
    with np.errstate(over="ignore"):
        if not math.isfinite(float(b @ b)):
            as_matrix(B, "B")
            raise NumericError("|B|_F^2 overflows float64; rescale B")
    return X, B


def sym_part(M):
    """Symmetric part (M + M.T) / 2 of a square matrix; M is not rescanned."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError("matrix must be square, got shape %s" % (M.shape,))
    return (M + M.T) / 2.0


def fro_norm(M):
    """Frobenius norm, free of overflow and underflow in the sum of squares.

    M is scaled by the power of two 2^e nearest above its largest entry
    before squaring and the norm scaled back; both scalings are exact, so
    the result is bitwise that of ``np.linalg.norm(M, "fro")`` wherever
    that one neither overflows nor underflows.  M is not rescanned.
    """
    M = np.asarray(M, dtype=float)
    e = math.frexp(float(np.abs(M).max()))[1]
    # the sum np.linalg.norm forms, without its per-call dispatch
    S = np.ldexp(M, -e).ravel(order="K")
    return math.ldexp(math.sqrt(float(S.dot(S))), e)


class SymEig(NamedTuple):
    """Eigendecomposition Q @ diag(lam) @ Q.T of a symmetric matrix.

    Eigenvalues are sorted nonincreasing, columns of Q accordingly.
    """

    Q: np.ndarray
    lam: np.ndarray


class SvdFactors(NamedTuple):
    """Thin SVD M = U @ diag(S) @ V.T.

    S holds the k = min(n, m) singular values, nonincreasing and
    nonnegative; U (n, k) and V (m, k) have orthonormal columns.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def _lapack(fn, M, what, **kwargs):
    """fn(M, **kwargs), a LAPACK failure raised as NumericError naming ``what``."""
    try:
        return fn(M, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "%s failed for shape %s (|M|_F=%.3e): %s" % (what, (M.shape,), np.linalg.norm(M), exc)
        ) from exc


def _eigh(M, what):
    """np.linalg.eigh of sym_part(M); a NaN/Inf in M shows as a non-finite eigenvalue."""
    w, Q = _lapack(np.linalg.eigh, sym_part(M), what)
    if not np.isfinite(w).all():
        raise NumericError("%s returned non-finite eigenvalues" % what)
    return w, Q


def eigh_sorted(S):
    """Eigendecomposition of the symmetric part of ``S``, eigenvalues nonincreasing.

    Returns
    -------
    SymEig
        Named tuple (Q, lam) with S_sym = Q @ diag(lam) @ Q.T.
    """
    w, Q = _eigh(S, "symmetric eigendecomposition")
    return SymEig(Q[:, ::-1].copy(), w[::-1].copy())


def svd(M):
    """Thin singular value decomposition, M = U @ diag(S) @ V.T.

    Returns
    -------
    SvdFactors
        U is n-by-k and V is m-by-k with orthonormal columns,
        k = min(n, m), and S nonincreasing.  Costs O(n m k); the
        complementary bases are never formed.  M is not rescanned.
    """
    U, s, Vh = _lapack(np.linalg.svd, np.asarray(M, dtype=float), "SVD", full_matrices=False)
    if not (np.isfinite(s).all() and (np.diff(s) <= 0).all() and (s >= 0).all()):
        raise NumericError("SVD returned invalid singular values")
    return SvdFactors(U, s, Vh.T)


def psd_project(M):
    """Frobenius-nearest positive semidefinite matrix.

    Symmetrizes ``M``, then clips negative eigenvalues to zero.  The
    result is re-symmetrized to shed rounding asymmetry, so repeated
    application is idempotent to machine precision.  M is not rescanned.
    """
    w, Q = _eigh(M, "PSD projection eigensolve")
    np.maximum(w, 0.0, out=w)
    P = (Q * w) @ Q.T
    return (P + P.T) / 2.0


def numerical_rank(lam):
    """Count of the nonincreasing eigenvalues lam above KERNEL_TOL times the largest."""
    return int(np.count_nonzero(lam > KERNEL_TOL * max(float(lam[0]), 0.0)))


def pinv_psd(S):
    """Moore-Penrose pseudoinverse of a symmetric PSD matrix.

    Eigenvalues at or below KERNEL_TOL times the largest one are treated
    as zero.  The result is symmetric PSD with the same kernel.
    """
    return sym_part(pinv_from_eig(eigh_sorted(S)))


def pinv_from_eig(eig):
    """``pinv_psd`` unsymmetrized: the ``numerical_rank`` leading pairs of ``eig``, inverted."""
    Q, lam = eig
    s = numerical_rank(lam)
    return (Q[:, :s] / lam[:s]) @ Q[:, :s].T


def default_rank_tol(n, m, sigma_max):
    """Default threshold below which singular values count as zero."""
    return max(n, m) * EPS * sigma_max


def is_psd(S):
    """Whether ``S`` is symmetric PSD up to the relative tolerance KERNEL_TOL."""
    S = as_matrix(S)
    if S.shape[0] != S.shape[1]:
        return False
    scale = max(1.0, float(np.abs(S).max()))
    if np.abs(S - S.T).max() > KERNEL_TOL * scale:
        return False
    w = np.linalg.eigvalsh((S + S.T) / 2.0)
    return bool(w[0] >= -KERNEL_TOL * max(1.0, float(abs(w[-1])), float(abs(w[0]))))
