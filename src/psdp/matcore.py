"""Dense real-matrix primitives shared by the whole package.

All matrices are two-dimensional float64 ndarrays.  Constructors reject
NaN/Inf on entry; spectral factorizations delegate to LAPACK through
numpy.linalg and are wrapped so that failures surface as NumericError
with some context instead of a bare backend exception.

The central operation is ``psd_project``, the Frobenius-nearest
positive semidefinite matrix: symmetrize, then clip negative
eigenvalues to zero.
"""

from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NumericError, ParameterError

EPS = float(np.finfo(np.float64).eps)


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


def _require_square(A, name="matrix"):
    if A.shape[0] != A.shape[1]:
        raise DimensionError("%s must be square, got shape %s" % (name, (A.shape,)))
    return A


def sym_part(M):
    """Symmetric part (M + M.T) / 2 of a square matrix."""
    M = _require_square(as_matrix(M))
    return (M + M.T) / 2.0


def symmetrize_inplace(A):
    """Overwrite the square float array A with (A + A.T) / 2 and return it.

    Bitwise equal to ``sym_part(A)``, but works strip by strip: each
    block of 64 rows is averaged with the matching block of columns
    and written to both, so no second n-by-n array is allocated.  Used on
    assembled n-by-n results, where the two temporaries of ``sym_part``
    cost as much as forming the low-rank product itself.
    """
    n = _require_square(A).shape[0]
    for i in range(0, n, 64):
        j = min(i + 64, n)
        S = A[i:j, i:] + A[i:, i:j].T
        S /= 2.0
        A[i:j, i:] = S
        A[i:, i:j] = S.T
    return A


def fro_norm(M):
    """Frobenius norm."""
    return float(np.linalg.norm(as_matrix(M), "fro"))


class SymEig(NamedTuple):
    """Eigendecomposition Q @ diag(lam) @ Q.T of a symmetric matrix.

    Eigenvalues are sorted nonincreasing, columns of Q accordingly.
    """

    Q: np.ndarray
    lam: np.ndarray


class SvdFactors(NamedTuple):
    """SVD M = U @ Sigma @ V.T, full or thin.

    S holds the k = min(n, m) singular values, nonincreasing and
    nonnegative.  Full factors have U (n, n) and V (m, m) orthogonal;
    thin factors keep the leading k columns of each, U (n, k) and
    V (m, k) with orthonormal columns, and M = U @ diag(S) @ V.T.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def eigh_sorted(S):
    """Eigendecomposition of the symmetric part of ``S``, eigenvalues nonincreasing.

    Returns
    -------
    SymEig
        Named tuple (Q, lam) with S_sym = Q @ diag(lam) @ Q.T.
    """
    S = sym_part(S)
    try:
        w, Q = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "symmetric eigendecomposition failed for shape %s (|S|_F=%.3e): %s"
            % ((S.shape,), np.linalg.norm(S), exc)
        ) from exc
    if not np.isfinite(w).all():
        raise NumericError("eigensolver returned non-finite eigenvalues")
    return SymEig(Q[:, ::-1].copy(), w[::-1].copy())


def svd(M, full_matrices=True):
    """Singular value decomposition, M = U @ diag-embed(S) @ V.T.

    Returns
    -------
    SvdFactors
        U is n-by-n orthogonal, V is m-by-m orthogonal, S nonincreasing.
        With ``full_matrices=False`` the factors are thin: U is n-by-k
        and V is m-by-k with k = min(n, m), which costs O(n m k) instead
        of O(n^2 m + n m^2) and never forms the complementary bases.
    """
    M = as_matrix(M)
    try:
        U, s, Vh = np.linalg.svd(M, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "SVD failed for shape %s (|M|_F=%.3e): %s"
            % ((M.shape,), np.linalg.norm(M), exc)
        ) from exc
    if not (np.isfinite(s).all() and (np.diff(s) <= 0).all() and (s >= 0).all()):
        raise NumericError("SVD returned invalid singular values")
    return SvdFactors(U, s, Vh.T)


def psd_project(M):
    """Frobenius-nearest positive semidefinite matrix.

    Symmetrizes ``M``, then clips negative eigenvalues to zero.  The
    result is re-symmetrized to shed rounding asymmetry, so repeated
    application is idempotent to machine precision.
    """
    S = sym_part(M)
    try:
        w, Q = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "PSD projection eigensolve failed for shape %s (|S|_F=%.3e): %s"
            % ((S.shape,), np.linalg.norm(S), exc)
        ) from exc
    np.maximum(w, 0.0, out=w)
    P = (Q * w) @ Q.T
    return (P + P.T) / 2.0


def pinv_psd(S, tol=1e-12):
    """Moore-Penrose pseudoinverse of a symmetric PSD matrix.

    Eigenvalues at or below ``tol`` times the largest one are treated as
    zero.  The result is symmetric PSD with the same kernel.
    """
    return pinv_from_eig(eigh_sorted(S), tol)


def pinv_from_eig(eig, tol=1e-12):
    """``pinv_psd`` of the matrix whose eigendecomposition is ``eig`` (a SymEig)."""
    Q, lam = eig
    lam_max = max(float(lam[0]), 0.0)
    if lam_max == 0.0:
        return np.zeros_like(Q)
    inv = np.where(lam > tol * lam_max, 1.0, 0.0)
    # avoid 0/0 warnings on the clipped entries
    inv = np.divide(inv, np.where(lam > tol * lam_max, lam, 1.0))
    P = (Q * inv) @ Q.T
    return (P + P.T) / 2.0


def default_rank_tol(n, m, sigma_max):
    """Default threshold below which singular values count as zero."""
    return max(n, m) * EPS * sigma_max


def is_psd(S, tol=1e-8):
    """Whether ``S`` is symmetric PSD up to a relative tolerance."""
    S = as_matrix(S)
    if S.shape[0] != S.shape[1]:
        return False
    scale = max(1.0, float(np.abs(S).max()))
    if np.abs(S - S.T).max() > tol * scale:
        return False
    w = np.linalg.eigvalsh((S + S.T) / 2.0)
    return bool(w[0] >= -tol * max(1.0, float(abs(w[-1])), float(abs(w[0]))))
