"""The certified lower bound of the reduced problem and the gap stop rule."""

import warnings

import numpy as np
import pytest

from psdp import SolverConfig, an_fgm_solve, fgm_solve, init_recursive, reduce_problem
from psdp import pipeline, solvers
from psdp.bench import InstanceSpec, gen
from psdp.matcore import sym_part
from psdp.reduction import dual_bound, make_subproblem_solution


def baseline_instance():
    """Rank-8 30x20 instance with condition number 1e3 on the singular values."""
    rng = np.random.Generator(np.random.Philox(key=386))
    U = np.linalg.qr(rng.standard_normal((30, 8)))[0]
    V = np.linalg.qr(rng.standard_normal((20, 8)))[0]
    X = U @ np.diag(np.logspace(0.0, -3.0, 8)) @ V.T
    return X, rng.standard_normal((30, 20))


def test_bound_below_a_long_run_on_the_baseline_instance():
    X, B = baseline_instance()
    short = an_fgm_solve(X, B, SolverConfig(max_iter=30))
    ref = an_fgm_solve(X, B, SolverConfig(max_iter=20000))
    assert len(short.trace) == 31
    # the bound brackets the infimum that the short run overestimates
    assert short.lower_bound <= ref.infimum < short.infimum
    assert ref.objective <= short.objective
    assert short.gap == pytest.approx((short.infimum - short.lower_bound) / short.infimum)
    assert 0.0 < short.gap < 1.0


@pytest.mark.parametrize("family,n,m", [
    ("gaussian", 10, 6),        # n > m: r = m < n
    ("gaussian", 6, 10),        # n < m: r = n
    ("gaussian", 8, 8),         # r = n
    ("rank_deficient", 12, 9),  # n > m, r < m
    ("rank_deficient", 8, 12),  # n < m, r < n
])
def test_bound_below_objective_across_shapes(family, n, m):
    for seed in range(3):
        X, B = gen(InstanceSpec(family, n, m, seed))
        ref = an_fgm_solve(X, B, SolverConfig(max_iter=5000))
        for iters in (1, 10, 100):
            sol = an_fgm_solve(X, B, SolverConfig(max_iter=iters), use_closed_forms=False)
            assert sol.lower_bound <= sol.infimum <= sol.objective
            assert sol.lower_bound <= ref.infimum * (1.0 + 1e-12)
            assert 0.0 <= sol.gap <= 1.0


def test_dual_bound_exact_at_a_positive_definite_optimum():
    # B11 = A* Sigma with A* positive definite: the optimum is unconstrained
    sigma = np.array([3.0, 2.0, 1.0])
    A_star = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]])
    red = reduce_problem(np.diag(sigma), A_star * sigma)
    # the singular vectors of a diagonal X are signed unit vectors
    A11 = red.U1.T @ A_star @ red.U1
    assert dual_bound(red, make_subproblem_solution(A11, red)) == pytest.approx(0.0, abs=1e-24)


def test_rank_deficient_run_stops_at_the_first_check():
    X, B = gen(InstanceSpec("rank_deficient", 30, 30, 4))
    sol = an_fgm_solve(X, B)
    assert len(sol.trace) == solvers.GAP_FIRST + 1
    assert sol.gap <= solvers.GAP_TOL
    red = reduce_problem(X, B)
    Xsub = np.diag(red.sigma1)
    A0 = init_recursive(red.sigma1, red.B11)
    full = fgm_solve(Xsub, red.B11, A0, SolverConfig(max_iter=1000))
    assert len(full.trace) == 1001
    assert sol.infimum == pytest.approx(full.best_objective + red.offset, rel=1e-12)


def test_tall_rank_deficient_run_certifies_at_iteration_8(monkeypatch):
    # the first check of the schedule certifies, and the certified
    # infimum is that of a 1000-iteration run with no certificate
    X, B = gen(InstanceSpec("rank_deficient", 600, 40, 1))
    sol = an_fgm_solve(X, B)
    assert len(sol.trace) == 9
    assert sol.gap <= solvers.GAP_TOL
    monkeypatch.setattr(
        pipeline, "fgm_solve",
        lambda X, B, A0, cfg, certificate=None, **kw: solvers.fgm_solve(X, B, A0, cfg, **kw),
    )
    plain = an_fgm_solve(X, B)
    assert len(plain.trace) == 1001
    assert sol.infimum == pytest.approx(plain.infimum, rel=1e-12)


def test_bound_holds_on_data_scaled_by_1e100():
    # Lam * M alone is of order c^4 = 1e400, past the float range
    X, B = gen(InstanceSpec("rank_deficient", 30, 20, 0))
    ref = an_fgm_solve(X, B)
    c = 1e100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = an_fgm_solve(c * X, c * B)
    assert len(sol.trace) == len(ref.trace) == solvers.GAP_FIRST + 1
    assert sol.gap <= solvers.GAP_TOL
    assert sol.lower_bound / c**2 == pytest.approx(ref.lower_bound, rel=1e-12)


def psd_exact_fit():
    """B = A* X with a random positive definite 5x5 A* and a 5x3 X."""
    rng = np.random.default_rng(0)
    G = rng.standard_normal((5, 5))
    X = rng.standard_normal((5, 3))
    return X, (G @ G.T) @ X


@pytest.mark.parametrize("X,B,stop", [
    (np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]),
     np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), 8),
    (*psd_exact_fit(), 32),
], ids=["diagonal-3x2", "psd-5x3"])
def test_exact_fit_certifies_at_the_first_check(X, B, stop):
    # the infimum is rounding noise (about 1e-31), so the gap is measured
    # against the data scale |B11|^2 + offset, not against the infimum;
    # the 5x3 fit needs until the third check of the schedule (8, 16, 32)
    sol = an_fgm_solve(X, B)
    assert len(sol.trace) == stop + 1
    assert sol.gap <= solvers.GAP_TOL


def test_ill_conditioned_run_never_certifies_and_is_unchanged(monkeypatch):
    X, B = gen(InstanceSpec("ill_conditioned", 30, 30, 2, kappa_target=1e6))
    cfg = SolverConfig(max_iter=400)
    sol = an_fgm_solve(X, B, cfg)
    assert len(sol.trace) == cfg.max_iter + 1
    assert sol.gap > solvers.GAP_TOL
    monkeypatch.setattr(
        pipeline, "fgm_solve",
        lambda X, B, A0, cfg, certificate=None, **kw: solvers.fgm_solve(X, B, A0, cfg, **kw),
    )
    plain = an_fgm_solve(X, B, cfg)
    assert np.array_equal(sol.A, plain.A)
    assert sol.objective == plain.objective
    assert sol.trace.objectives == plain.trace.objectives


def test_certified_run_factors_the_returned_candidate_once(monkeypatch):
    # the last gap check saw the returned candidate: its factorization and
    # bound serve the attainment test, the assembly and the reported gap
    X, B = gen(InstanceSpec("rank_deficient", 30, 30, 4))
    runs, checked = [], []

    def main_run(*args, certificate, **kwargs):
        def recording(A11):
            checked.append(A11)
            return certificate(A11)

        runs.append(solvers.fgm_solve(*args, certificate=recording, **kwargs))
        return runs[-1]

    monkeypatch.setattr(pipeline, "fgm_solve", main_run)
    seen = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: seen.append(M.copy()) or eigh(M))
    sol = an_fgm_solve(X, B)
    assert sol.gap <= solvers.GAP_TOL
    # the run stopped at a check, and that check saw the returned array itself
    assert len(runs[0].trace) - 1 < solvers.SolverConfig().max_iter
    assert checked[-1] is runs[0].best_A
    S = sym_part(runs[0].best_A)
    assert sum(np.array_equal(M, S) for M in seen) == 1


def test_ill_conditioned_bound_is_a_usable_interval():
    # far from the optimum the kernel multiplier overshoots; at its best
    # scale the bound still brackets the infimum well below the estimate
    X, B = gen(InstanceSpec("ill_conditioned", 30, 30, 2, kappa_target=1e6))
    sol = an_fgm_solve(X, B, SolverConfig(max_iter=400))
    ref = an_fgm_solve(X, B, SolverConfig(max_iter=10000))
    assert sol.gap < 0.5
    assert sol.lower_bound <= ref.infimum < sol.infimum


# max_iter -> checks run: at 8, 16 and 32, then every GAP_EVERY = 50
SCHEDULED_CHECKS = {1: 0, 7: 0, 8: 1, 49: 3, 50: 4, 120: 5, 1000: 23}


@pytest.mark.parametrize("max_iter", sorted(SCHEDULED_CHECKS))
def test_certificate_checked_every_gap_every_iterations(max_iter):
    X, B = gen(InstanceSpec("gaussian", 6, 6, 9))
    A0 = np.zeros((6, 6))
    cfg = SolverConfig(max_iter=max_iter)
    calls = []

    def never(A):
        calls.append(A)
        return 1.0

    checked = fgm_solve(X, B, A0, cfg, certificate=never)
    plain = fgm_solve(X, B, A0, cfg)
    assert len(calls) == SCHEDULED_CHECKS[max_iter]
    assert np.array_equal(checked.A, plain.A)
    assert checked.trace.objectives == plain.trace.objectives
    # the certificate sees a best iterate, no better than the run's last one
    assert all(np.linalg.norm(A @ X - B, "fro") ** 2 >= plain.best_objective for A in calls)


@pytest.mark.parametrize("seed", [0, 1])
def test_preconditioned_run_certifies_at_condition_number_1e4(seed):
    # the plain loop does not certify this instance in 20000 iterations
    X, B = gen(InstanceSpec("ill_conditioned", 40, 40, seed, kappa_target=1e4))
    sol = an_fgm_solve(X, B, SolverConfig(max_iter=2000))
    assert sol.gap <= solvers.GAP_TOL
    assert len(sol.trace) <= 2001


# the benchmark's ill pool at seed 0, items 0-2 (60x60, kappa 1e6): the
# 1000-iteration objective of the plain loop, and the infimum of a
# 20000-iteration preconditioned run, certified to a gap below 1e-12
ILL_PLAIN_1000 = (2341.864751563287, 2392.9391799108307, 2343.594492624171)
ILL_INFIMUM = (2058.4505357433295, 2080.7254427718813, 2061.2093057754464)


@pytest.mark.parametrize("key", [0, 1, 2])
def test_ill_pool_objective_falls_and_the_bound_holds(key):
    X, B = gen(InstanceSpec("ill_conditioned", 60, 60, key, kappa_target=1e6))
    sol = an_fgm_solve(X, B)
    assert len(sol.trace) == 1001
    assert sol.objective < ILL_PLAIN_1000[key]
    assert sol.lower_bound <= ILL_INFIMUM[key] <= sol.objective
    assert sol.gap < 0.05
