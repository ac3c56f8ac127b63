"""Property tests of ``an_fgm_solve`` over small random instances.

Instances are n-by-m with n, m in [1, 8], X = U diag(e^u) V.T of rank r
in [1, min(n, m)] with u uniform on [-2, 2], and B standard normal.
Hypothesis draws the shape, the rank and a seed; numpy draws the
entries from that seed.  Runs are derandomized, so a failure reproduces.

Under (cX, dB) the route, ``attained`` and the certified interval are
covariant, and so is A on attained results: (c / d) A is the unscaled A.
Every tolerance takes its unit from the data.  Rank-one eps-solutions are
not covariant (their leading entry is a reciprocal integer), so the scaled
residual is checked at rank 2 and up; their own margin is checked at large
X scale (``test_rank1_eps_solution_residual_at_large_x_scale``).  The lift
of an eps-solution makes its residual drift from the reported objective
at unit scale (``test_eps_solution_residual_matches_objective``), so the
residual is compared with the objective on attained results only.
"""

import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psdp import an_fgm_solve, rank1_solve, reduce_problem
from psdp.bench import InstanceSpec, gen

SETTINGS = settings(derandomize=True, database=None, deadline=None)


@st.composite
def shapes(draw):
    """(n, m, r, seed) of one instance."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    r = draw(st.integers(1, min(n, m)))
    return n, m, r, draw(st.integers(0, 2**32 - 1))


def _orthonormal(rng, n, k):
    return np.linalg.qr(rng.standard_normal((n, n)))[0][:, :k]


def instance(shape):
    n, m, r, seed = shape
    rng = np.random.default_rng(seed)
    sigma = np.exp(rng.uniform(-2.0, 2.0, r))
    X = (_orthonormal(rng, n, r) * sigma) @ _orthonormal(rng, m, r).T
    return X, rng.standard_normal((n, m)), rng


def route(X, B, sol):
    """(closed form or iterative, rank of X): the route ``an_fgm_solve`` took."""
    return sol.trace is None, reduce_problem(X, B).r


def check_result(X, B, sol):
    A = sol.A
    assert np.isfinite(A).all()
    assert np.array_equal(A, A.T)
    lam = np.linalg.eigvalsh(A)
    assert lam[0] >= -1e-10 * max(1.0, lam[-1])
    assert sol.lower_bound <= sol.infimum * (1.0 + 1e-12)
    assert 0.0 <= sol.gap <= 1.0
    if sol.attained:
        # an eps-solution's objective is exact only in exact arithmetic
        # (test_eps_solution_residual_matches_objective)
        residual = float(np.linalg.norm(A @ X - B, "fro")) ** 2
        assert abs(residual - sol.objective) <= 1e-8 * max(1.0, sol.objective)
    else:
        assert sol.objective < sol.infimum + sol.epsilon
    if reduce_problem(X, B).r == 1:
        assert sol.gap == 0.0


@SETTINGS
@given(shape=shapes())
@example(shape=(1, 1, 1, 0))
@example(shape=(1, 6, 1, 1))
@example(shape=(6, 1, 1, 2))
def test_result_is_psd_bounded_and_consistent(shape):
    X, B, _ = instance(shape)
    check_result(X, B, an_fgm_solve(X, B))


@SETTINGS
@given(shape=shapes())
@example(shape=(1, 1, 1, 0))
@example(shape=(1, 6, 1, 1))
@example(shape=(6, 1, 1, 2))
def test_orthogonal_covariance(shape):
    # under X -> Q X W, B -> Q B W both certified intervals contain the
    # same true infimum, so their upper ends differ by at most the wider one
    X, B, rng = instance(shape)
    n, m = X.shape
    Q, W = _orthonormal(rng, n, n), _orthonormal(rng, m, m)
    X2, B2 = Q @ X @ W, Q @ B @ W
    sol, sol2 = an_fgm_solve(X, B), an_fgm_solve(X2, B2)
    check_result(X2, B2, sol2)
    assert route(X, B, sol) == route(X2, B2, sol2)
    assert sol.attained == sol2.attained
    width = max(sol.infimum - sol.lower_bound, sol2.infimum - sol2.lower_bound)
    assert abs(sol.infimum - sol2.infimum) <= width + 1e-12 * max(sol.infimum, sol2.infimum)


# (c, d) of the scaled instance (cX, dB)
SCALINGS = (
    (1e-6, 1.0), (1.0, 1e-6), (1e6, 1.0), (1.0, 1e6), (1e100, 1.0), (1.0, 1e-100),
    (1e160, 1.0), (1e-160, 1.0),
)


@SETTINGS
@given(shape=shapes())
@example(shape=(1, 1, 1, 0))
@example(shape=(1, 6, 1, 1))
@example(shape=(6, 1, 1, 2))
def test_scale_covariance(shape):
    X, B, _ = instance(shape)
    sol = an_fgm_solve(X, B)
    rank = reduce_problem(X, B).r
    for c, d in SCALINGS:
        Xs, Bs = c * X, d * B
        sol2 = an_fgm_solve(Xs, Bs)
        assert route(X, B, sol) == route(Xs, Bs, sol2)
        assert sol.attained == sol2.attained
        A = sol2.A
        assert np.isfinite(A).all()
        lam = np.linalg.eigvalsh(A)
        assert lam[0] >= -1e-10 * lam[-1]
        # both certified intervals contain the same true infimum
        inf2, low2 = sol2.infimum / d**2, sol2.lower_bound / d**2
        width = max(sol.infimum - sol.lower_bound, inf2 - low2)
        assert abs(inf2 - sol.infimum) <= width + 1e-12 * max(sol.infimum, inf2)
        if sol.attained:
            assert np.allclose(A * (c / d), sol.A, rtol=0.0, atol=1e-6 * np.abs(sol.A).max())
        elif rank >= 2:
            residual = float(np.linalg.norm(A @ Xs - Bs, "fro")) ** 2
            assert residual < sol2.infimum + sol2.epsilon


@pytest.mark.parametrize("family, n, m", [("gaussian", 8, 8), ("rank_deficient", 30, 20)])
def test_scale_covariance_at_tiny_x_scale(family, n, m):
    # (1e-160 X, B) without overflow: the kernel rule reads |B11 / sigma1|,
    # about 1e160.  SCALINGS holds the pair too; this test covers it on
    # larger instances
    c = 1e-160
    X, B = gen(InstanceSpec(family, n, m, 0))
    sol, sol2 = an_fgm_solve(X, B), an_fgm_solve(c * X, B)
    assert route(X, B, sol) == route(c * X, B, sol2)
    assert sol.attained == sol2.attained
    assert np.isfinite(sol2.A).all()
    width = max(sol.infimum - sol.lower_bound, sol2.infimum - sol2.lower_bound)
    assert abs(sol2.infimum - sol.infimum) <= width + 1e-12 * sol.infimum
    if sol.attained:
        assert np.allclose(sol2.A * c, sol.A, rtol=0.0, atol=1e-6 * np.abs(sol.A).max())
    else:
        residual = float(np.linalg.norm(sol2.A @ (c * X) - B, "fro")) ** 2
        assert residual < sol2.infimum + sol2.epsilon


def test_rank1_eps_solution_residual_at_large_x_scale():
    X, B, _ = instance((3, 2, 1, 0))
    c = 1e6
    sol = an_fgm_solve(c * X, B)
    assert not sol.attained
    residual = float(np.linalg.norm(sol.A @ (c * X) - B, "fro")) ** 2
    assert residual < sol.infimum + sol.epsilon


def test_rank1_solve_returns_at_large_x_scale():
    # t = -1 and |w| = 1: the walk to n0 near 2e20 takes steps of n0 >> 50
    X = np.array([[1.0], [0.0]])
    B = np.array([[-1.0], [1.0]])
    t0 = time.perf_counter()
    sol = rank1_solve(1e14 * X, B)
    assert time.perf_counter() - t0 < 1.0
    assert not sol.attained


@pytest.mark.parametrize("c, d", [(1.0, 1e-10), (1e100, 1.0)])
def test_rank_deficient_stays_unattained_and_psd_at_scale(c, d):
    X, B = gen(InstanceSpec("rank_deficient", 30, 20, 0))
    assert not an_fgm_solve(X, B).attained
    sol = an_fgm_solve(c * X, d * B)
    assert not sol.attained
    lam = np.linalg.eigvalsh(sol.A)
    assert lam[0] >= -1e-10 * lam[-1]


@pytest.mark.parametrize("c", [1e4, 1e6, 1e110])
def test_eps_solution_holds_at_large_data_scale(c):
    X, B = gen(InstanceSpec("rank_deficient", 30, 20, 0))
    sol = an_fgm_solve(X, c * B)
    assert np.isfinite(sol.A).all()
    residual = float(np.linalg.norm(sol.A @ X - c * B, "fro")) ** 2
    assert residual < sol.infimum + sol.epsilon


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the lift block Y Y.T / upsilon has entries near 1e9 here, and "
                   "rounding in A X moves the residual 1.4e-7 off the objective")
def test_eps_solution_residual_matches_objective():
    # sigma = (5.63, 0.149) and eps = 1.7e-7: an unattained iterative
    # result that certifies (gap 0), found by the property search above
    X, B, _ = instance((4, 2, 2, 10861902))
    sol = an_fgm_solve(X, B)
    residual = float(np.linalg.norm(sol.A @ X - B, "fro")) ** 2
    assert abs(residual - sol.objective) <= 1e-8 * max(1.0, sol.objective)
