"""Primitives: symmetrization, projection, factorizations, pseudoinverse."""

import numpy as np
import pytest

from psdp import DimensionError, NumericError, ParameterError, fro_norm, psd_project
from psdp.matcore import (
    as_matrix,
    default_rank_tol,
    eigh_sorted,
    is_psd,
    pinv_psd,
    svd,
    sym_part,
)


def test_sym_part_basic():
    S = sym_part([[1.0, 2.0], [0.0, 1.0]])
    assert np.array_equal(S, [[1.0, 1.0], [1.0, 1.0]])


def test_sym_part_rejects_nonsquare():
    with pytest.raises(DimensionError):
        sym_part(np.ones((2, 3)))


def test_as_matrix_rejects_nan_inf_and_bad_rank():
    with pytest.raises(ParameterError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ParameterError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionError):
        as_matrix([1.0, 2.0])
    with pytest.raises(DimensionError):
        as_matrix(np.empty((0, 3)))


def test_psd_project_identity_on_psd():
    rng = np.random.default_rng(11)
    for _ in range(5):
        R = rng.standard_normal((6, 6))
        P = R @ R.T
        assert np.allclose(psd_project(P), P, atol=1e-10 * max(1.0, fro_norm(P)))


def test_psd_project_negative_definite_to_zero():
    A = -np.eye(4) - np.diag([1.0, 2.0, 3.0, 0.5])
    assert np.allclose(psd_project(A), 0.0)


def test_psd_project_clips_negative_eigenvalues():
    # diag(3, -2) projects to diag(3, 0)
    assert np.allclose(psd_project(np.diag([3.0, -2.0])), np.diag([3.0, 0.0]))


def test_psd_project_symmetrizes_first():
    M = np.array([[0.0, 4.0], [0.0, 0.0]])
    # symmetric part [[0,2],[2,0]] has eigenvalues +-2 -> projection [[1,1],[1,1]]
    assert np.allclose(psd_project(M), [[1.0, 1.0], [1.0, 1.0]])


def test_psd_project_idempotent():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((7, 7))
    P = psd_project(M)
    P2 = psd_project(P)
    assert np.linalg.norm(P2 - P, "fro") <= 1e-12 * max(1.0, np.linalg.norm(P, "fro"))


def test_psd_project_is_nearest_psd_point():
    # optimality of the projection: no sampled PSD matrix is closer
    rng = np.random.default_rng(17)
    for trial in range(10):
        M = rng.standard_normal((5, 5))
        S = (M + M.T) / 2
        P = psd_project(M)
        d_star = np.linalg.norm(P - S, "fro")
        for _ in range(40):
            R = rng.standard_normal((5, 5))
            C = R @ R.T * rng.uniform(0.0, 2.0)
            assert np.linalg.norm(C - S, "fro") >= d_star - 1e-10


def test_psd_project_output_psd_and_symmetric():
    rng = np.random.default_rng(23)
    for _ in range(10):
        P = psd_project(rng.standard_normal((8, 8)) * 10)
        assert np.array_equal(P, P.T)
        assert np.linalg.eigvalsh(P).min() >= -1e-12


def test_product_of_psd_has_nonnegative_spectrum():
    # eigenvalues of a product of two PSD matrices are real nonnegative
    rng = np.random.default_rng(3)
    for _ in range(10):
        R1 = rng.standard_normal((6, 6))
        R2 = rng.standard_normal((6, 6))
        P = R1 @ R1.T
        Q = R2 @ R2.T
        w = np.linalg.eigvals(P @ Q)
        bound = 1e-10 * np.linalg.norm(P, 2) * np.linalg.norm(Q, 2)
        assert w.real.min() >= -bound
        assert np.abs(w.imag).max() <= bound


def test_block_psd_characterization():
    # [[B, C.T], [C, D]] is PSD iff B psd, ker B within ker C, and
    # D - C B^+ C.T psd; violating the last part breaks positivity
    rng = np.random.default_rng(29)
    for _ in range(8):
        R = rng.standard_normal((4, 2))
        Bblk = R @ R.T  # rank 2, rank deficient
        C = rng.standard_normal((3, 4)) @ Bblk  # ker B within ker C
        S = rng.standard_normal((3, 3))
        D = C @ pinv_psd(Bblk) @ C.T + S @ S.T
        M = np.block([[Bblk, C.T], [C, D]])
        assert is_psd(M)
        Dbad = C @ pinv_psd(Bblk) @ C.T - 0.05 * np.eye(3)
        Mbad = np.block([[Bblk, C.T], [C, Dbad]])
        assert np.linalg.eigvalsh(sym_part(Mbad)).min() < -1e-6


def test_eigh_sorted_order_and_reconstruction():
    rng = np.random.default_rng(41)
    M = rng.standard_normal((6, 6))
    Q, lam = eigh_sorted(M)
    S = (M + M.T) / 2
    assert (np.diff(lam) <= 1e-12).all()
    assert np.allclose(Q @ Q.T, np.eye(6), atol=1e-10)
    assert np.allclose((Q * lam) @ Q.T, S, atol=1e-10 * max(1.0, fro_norm(S)))


def test_svd_factors():
    U, S, V = svd([[0.0, 2.0], [1.0, 0.0]])
    assert np.allclose(S, [2.0, 1.0])
    M = np.array([[0.0, 2.0], [1.0, 0.0]])
    assert np.allclose(U @ np.diag(S) @ V.T, M, atol=1e-12)


def test_svd_reconstruction_random_rect():
    rng = np.random.default_rng(43)
    for shape in [(5, 3), (3, 5), (4, 4)]:
        M = rng.standard_normal(shape) * 3
        U, S, V = svd(M)
        k = min(shape)
        assert np.linalg.norm(U @ np.diag(S) @ V.T - M) <= 1e-12 * fro_norm(M)
        assert np.allclose(U.T @ U, np.eye(k), atol=1e-12)
        assert np.allclose(V.T @ V, np.eye(k), atol=1e-12)
        assert (np.diff(S) <= 0).all() and (S >= 0).all()


def test_svd_thin_factors():
    # the factors are thin: U is n-by-k and V m-by-k, k = min(n, m)
    rng = np.random.default_rng(44)
    for shape in [(5, 3), (3, 5)]:
        M = rng.standard_normal(shape)
        U, S, V = svd(M)
        k = min(shape)
        assert U.shape == (shape[0], k) and V.shape == (shape[1], k)
        assert np.linalg.norm((U * S) @ V.T - M) <= 1e-12 * fro_norm(M)
        assert np.allclose(U.T @ U, np.eye(k), atol=1e-12)
        assert np.allclose(V.T @ V, np.eye(k), atol=1e-12)


@pytest.mark.parametrize("name, factor", [
    ("eigh", eigh_sorted), ("eigh", psd_project), ("svd", svd),
])
def test_lapack_failure_raises_numeric_error(name, factor, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, name, fail)
    with pytest.raises(NumericError, match="did not converge"):
        factor(np.eye(3))


def test_pinv_psd_diagonal():
    P = pinv_psd(np.diag([2.0, 0.0]))
    assert np.allclose(P, np.diag([0.5, 0.0]))


def test_pinv_psd_rank_one():
    v = np.array([2.0, 0.0])  # |v| = 2
    P = pinv_psd(np.outer(v, v))
    assert np.allclose(P, np.outer(v, v) / 16.0)


def test_pinv_psd_inverts_only_above_the_kernel_rule():
    # 1e-10 of the largest eigenvalue is below KERNEL_TOL: it inverts to 0
    P = pinv_psd(np.diag([1.0, 1e-10]))
    assert np.array_equal(P, np.diag([1.0, 0.0]))
    rng = np.random.default_rng(5)
    Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    P = pinv_psd((Q * [3.0, 1.0, 1e-10, 0.0]) @ Q.T)
    assert np.array_equal(P, P.T)
    assert np.linalg.matrix_rank(P, tol=1e-6) == 2


def test_pinv_psd_penrose_identities():
    rng = np.random.default_rng(47)
    R = rng.standard_normal((6, 3))
    S = R @ R.T
    P = pinv_psd(S)
    scale = max(1.0, fro_norm(S))
    assert np.linalg.norm(S @ P @ S - S) <= 1e-8 * scale
    assert np.linalg.norm(P @ S @ P - P) <= 1e-8 * max(1.0, fro_norm(P))
    assert np.allclose(P, P.T)
    assert np.linalg.eigvalsh(P).min() >= -1e-12


def test_norms():
    M = [[3.0, 0.0], [0.0, 4.0]]
    assert fro_norm(M) == pytest.approx(5.0)


def test_numerical_rank_threshold():
    assert default_rank_tol(3, 3, 1.0) < 1e-14
