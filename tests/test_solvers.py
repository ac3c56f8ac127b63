"""Iterative solvers: gradient oracle, schedules, convergence."""

import json
from pathlib import Path

import numpy as np
import pytest

from psdp import (
    DimensionError,
    InapplicableError,
    ParameterError,
    SolverConfig,
    fgm_solve,
    fro_norm,
    gradient_solve,
    init_diagonal,
    init_recursive,
    partan_solve,
    psd_project,
    solvers,
)
from psdp.bench import InstanceSpec, gen
from psdp.reduction import reduce_problem
from psdp.solvers import gradient, precompute


def test_config_validation():
    with pytest.raises(ParameterError):
        SolverConfig(max_iter=0)
    with pytest.raises(ParameterError):
        SolverConfig(wall_clock_budget=0.0)
    with pytest.raises(ParameterError):
        SolverConfig(max_iter=True)
    # NaN passes a `< 0` test and would switch the stop rule off; None is the only "off"
    for bad in (dict(objective_tol=float("nan")), dict(objective_tol=True),
                dict(wall_clock_budget=float("nan"))):
        with pytest.raises(ParameterError):
            SolverConfig(**bad)
    cfg = SolverConfig()
    assert cfg.max_iter == 1000
    cfg = SolverConfig(max_iter=np.int64(5))
    assert cfg.max_iter == 5 and type(cfg.max_iter) is int


def test_precompute_constants():
    X = np.diag([2.0, 1.0])
    B = np.ones((2, 2))
    XXt, BXt, L, q = precompute(X, B)
    assert np.allclose(XXt, np.diag([4.0, 1.0]))
    assert np.allclose(BXt, [[2.0, 1.0], [2.0, 1.0]])
    assert L == pytest.approx(4.0)
    assert q == pytest.approx(0.25)


def test_precompute_rank_deficient_q_zero():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 3))  # m < n forces sigma_n = 0
    _, _, L, q = precompute(X, X)
    assert L > 0 and q == 0.0


def test_gradient_matches_finite_differences():
    # G(Y) = Y X X' - B X' is the gradient of |Y X - B|^2 / 2
    rng = np.random.default_rng(5)
    n, m = 4, 3
    X = rng.standard_normal((n, m))
    B = rng.standard_normal((n, m))
    Y = rng.standard_normal((n, n))
    XXt, BXt, _, _ = precompute(X, B)
    G = gradient(Y, XXt, BXt)
    h = 1e-6

    def f(M):
        return np.linalg.norm(M @ X - B, "fro") ** 2 / 2.0

    fd = np.empty_like(G)
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n))
            E[i, j] = h
            fd[i, j] = (f(Y + E) - f(Y - E)) / (2.0 * h)
    assert np.allclose(G, fd, rtol=1e-5, atol=1e-5)


def frozen_2x2():
    # X = I, B = [[1, 2], [0, 1]]: optimum is the projection of the
    # symmetric part, A* = [[1, 1], [1, 1]], objective 2
    X = np.eye(2)
    B = np.array([[1.0, 2.0], [0.0, 1.0]])
    return X, B, np.ones((2, 2)), 2.0


def test_gradient_solve_frozen_2x2():
    X, B, A_star, f_star = frozen_2x2()
    sol = gradient_solve(X, B, np.zeros((2, 2)), SolverConfig(max_iter=200))
    assert np.allclose(sol.A, A_star, atol=1e-8)
    assert sol.objective == pytest.approx(f_star, rel=1e-10)


def test_fgm_solve_frozen_2x2():
    X, B, A_star, f_star = frozen_2x2()
    sol = fgm_solve(X, B, np.zeros((2, 2)), SolverConfig(max_iter=200))
    assert np.allclose(sol.A, A_star, atol=1e-8)
    assert sol.objective == pytest.approx(f_star, rel=1e-10)


def test_partan_solve_frozen_2x2():
    X, B, A_star, f_star = frozen_2x2()
    sol = partan_solve(X, B, np.zeros((2, 2)), SolverConfig(max_iter=200))
    assert np.allclose(sol.A, A_star, atol=1e-8)
    assert sol.objective == pytest.approx(f_star, rel=1e-10)


def test_iterates_frozen_6x6():
    # exact trace objectives and best objectives of all three step rules
    # over 50 iterations on a seeded rank-5 instance: any change in the
    # order of floating-point operations inside the loop shows up here
    ref = json.loads((Path(__file__).parent / "data" / "solver_iterates_6x6.json").read_text())
    rng = np.random.default_rng(20240)
    X = rng.standard_normal((6, 6))
    X[:, 5] = X[:, 4]
    B = rng.standard_normal((6, 6))
    A0 = init_diagonal(X, B)
    for name, runner in (("gradient", gradient_solve), ("fgm", fgm_solve), ("partan", partan_solve)):
        sol = runner(X, B, A0, SolverConfig(max_iter=50))
        assert sol.trace.objectives == ref[name]["objectives"], name
        assert sol.best_objective == ref[name]["best_objective"], name


def test_momentum_schedule_degenerates_at_q_one():
    # with q = 1 and alpha = ALPHA1 the next alpha is exactly 1 and the
    # momentum coefficient vanishes from the second iteration on
    q = 1.0
    alpha = solvers.ALPHA1
    alpha_next = 0.5 * (q - alpha**2 + np.sqrt((q - alpha**2) ** 2 + 4 * alpha**2))
    assert alpha_next == pytest.approx(1.0, abs=1e-14)
    beta = alpha_next * (1 - alpha_next) / (alpha_next**2 + alpha_next)
    assert abs(beta) <= 1e-14


def test_fgm_equals_gradient_when_q_one():
    # perfectly conditioned X: momentum dies immediately, so fgm and
    # plain projected gradient produce the same second iterate onward
    rng = np.random.default_rng(7)
    n = 4
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    X = 2.0 * Q  # all singular values equal: q = 1
    B = rng.standard_normal((n, n))
    A0 = np.zeros((n, n))
    g = gradient_solve(X, B, A0, SolverConfig(max_iter=5))
    f = fgm_solve(X, B, A0, SolverConfig(max_iter=5))
    assert np.allclose(g.A, f.A, atol=1e-10)


def test_all_solvers_decrease_and_agree_on_strongly_convex():
    rng = np.random.default_rng(11)
    n, m = 6, 8
    X = rng.standard_normal((n, m))
    B = rng.standard_normal((n, m))
    A0 = np.zeros((n, n))
    cfg = SolverConfig(max_iter=2000)
    sols = {
        "gradient": gradient_solve(X, B, A0, cfg),
        "fgm": fgm_solve(X, B, A0, cfg),
        "partan": partan_solve(X, B, A0, cfg),
    }
    objs = [s.objective for s in sols.values()]
    assert max(objs) - min(objs) <= 1e-6 * max(1.0, min(objs))
    for s in sols.values():
        assert s.trace.objectives[0] == pytest.approx(fro_norm(B), rel=1e-12)
        assert min(s.trace.objectives) >= -1e-12


def test_monotone_methods_are_monotone():
    rng = np.random.default_rng(13)
    n, m = 7, 5
    X = rng.standard_normal((n, m))
    B = rng.standard_normal((n, m))
    A0 = psd_project(rng.standard_normal((n, n)))
    cfg = SolverConfig(max_iter=300)
    for runner in (gradient_solve, partan_solve):
        sol = runner(X, B, A0, cfg)
        diffs = np.diff(sol.trace.objectives)
        assert (diffs <= 1e-10).all()


def test_fgm_best_iterate_tracked():
    rng = np.random.default_rng(17)
    n, m = 8, 4  # rank-deficient full-space run, non-monotone regime
    X = rng.standard_normal((n, m))
    B = rng.standard_normal((n, m))
    sol = fgm_solve(X, B, np.zeros((n, n)), SolverConfig(max_iter=400))
    objs = np.asarray(sol.trace.objectives)
    assert sol.best_objective == pytest.approx(objs.min() ** 2, rel=1e-12)
    assert sol.best_objective <= sol.objective + 1e-15
    assert np.linalg.norm(sol.best_A @ X - B, "fro") ** 2 == pytest.approx(
        sol.best_objective, rel=1e-12
    )


def test_partan_first_iteration_is_plain_gradient_step():
    rng = np.random.default_rng(19)
    n, m = 5, 5
    X = rng.standard_normal((n, m))
    B = rng.standard_normal((n, m))
    A0 = psd_project(rng.standard_normal((n, n)))
    XXt, BXt, L, _ = precompute(X, B)
    manual = psd_project(A0 - (A0 @ XXt - BXt) / L)
    cfg = SolverConfig(max_iter=1)
    sol = partan_solve(X, B, A0, cfg)
    assert np.allclose(sol.A, manual, atol=1e-12)


def test_partan_not_slower_than_gradient():
    rng = np.random.default_rng(23)
    n, m = 10, 10
    X = rng.standard_normal((n, m))
    B = rng.standard_normal((n, m))
    A0 = np.zeros((n, n))
    cfg = SolverConfig(max_iter=150)
    g = gradient_solve(X, B, A0, cfg)
    p = partan_solve(X, B, A0, cfg)
    assert p.objective <= g.objective + 1e-9


def test_trace_shape_and_budget():
    rng = np.random.default_rng(29)
    X = rng.standard_normal((5, 5))
    B = rng.standard_normal((5, 5))
    cfg = SolverConfig(max_iter=50)
    sol = fgm_solve(X, B, np.zeros((5, 5)), cfg)
    assert len(sol.trace.objectives) == 51
    assert len(sol.trace.timestamps) == 51
    assert sol.trace.timestamps[0] >= 0.0
    assert (np.diff(sol.trace.timestamps) >= 0).all()


def test_objective_tol_stops_early():
    rng = np.random.default_rng(31)
    X = rng.standard_normal((5, 8))
    B = rng.standard_normal((5, 8))
    cfg = SolverConfig(max_iter=100000, objective_tol=1e-9)
    sol = fgm_solve(X, B, np.zeros((5, 5)), cfg)
    assert len(sol.trace.objectives) < 100001


def test_wall_clock_budget_stops_early():
    rng = np.random.default_rng(37)
    X = rng.standard_normal((40, 40))
    B = rng.standard_normal((40, 40))
    cfg = SolverConfig(max_iter=10**7, wall_clock_budget=0.2)
    sol = gradient_solve(X, B, np.zeros((40, 40)), cfg)
    assert sol.trace.timestamps[-1] <= 1.0  # stopped well short of max_iter


def test_solvers_keep_iterates_psd():
    rng = np.random.default_rng(41)
    X = rng.standard_normal((6, 6))
    B = rng.standard_normal((6, 6))
    for runner in (gradient_solve, fgm_solve, partan_solve):
        sol = runner(X, B, np.zeros((6, 6)), SolverConfig(max_iter=60))
        w = np.linalg.eigvalsh(sol.A)
        assert w.min() >= -1e-10
        assert np.array_equal(sol.A, sol.A.T)


def test_zero_data_matrix_is_harmless():
    B = np.ones((3, 3))
    sol = gradient_solve(np.zeros((3, 3)), B, np.zeros((3, 3)), SolverConfig(max_iter=5))
    assert sol.objective == pytest.approx(fro_norm(B) ** 2)


def test_init_shape_validated():
    with pytest.raises(DimensionError):
        gradient_solve(np.eye(3), np.eye(3), np.zeros((2, 2)))


def test_precompute_rectangular_diagonal():
    X = np.zeros((4, 3))
    X[[0, 1, 2], [0, 1, 2]] = [1.0, -4.0, 2.0]
    _, _, L, q = precompute(X, X)
    assert L == 16.0 and q == 0.0
    _, _, L, q = precompute(X.T, X.T)
    assert L == 16.0 and q == (1.0 / 4.0) ** 2


def test_plain_loop_on_a_diagonal_x_is_bitwise_unchanged():
    # the recursive initializer's blocks and the full-space fgm keep the
    # plain loop: its output on a diagonal X, recorded before the
    # preconditioned loop existed, is reproduced exactly
    ref = json.loads((Path(__file__).parent / "data" / "plain_loop_diagonal_12x12.json").read_text())
    rng = np.random.Generator(np.random.Philox(key=606))
    sigma = np.geomspace(1e4, 1.0, 12)
    B = rng.standard_normal((12, 12))
    assert init_recursive(sigma, B).tolist() == ref["init_recursive"]
    X = np.diag(sigma)
    sol = fgm_solve(X, B, init_diagonal(X, B), SolverConfig(max_iter=60))
    assert sol.trace.objectives == ref["fgm"]["objectives"]
    assert sol.A.tolist() == ref["fgm"]["A"]


def test_preconditioned_run_reaches_the_plain_optimum_in_a():
    # both loops minimize |A Sigma - C|_F over PSD A; the preconditioned
    # one hands back A (not Ahat), with the objective of that A
    rng = np.random.default_rng(607)
    sigma = np.geomspace(30.0, 1.0, 8)
    X = np.diag(sigma)
    B = rng.standard_normal((8, 8))
    A0 = init_diagonal(X, B)
    cfg = SolverConfig(max_iter=3000)
    plain = fgm_solve(X, B, A0, cfg)
    pre = fgm_solve(X, B, A0, cfg, precondition=True)
    assert pre.trace.objectives[0] == pytest.approx(plain.trace.objectives[0], rel=1e-14)
    assert pre.best_objective == pytest.approx(plain.best_objective, rel=1e-12)
    assert np.allclose(pre.best_A, plain.best_A, atol=1e-8)
    assert pre.objective == fro_norm(pre.A @ X - B) ** 2
    assert pre.best_objective == fro_norm(pre.best_A @ X - B) ** 2
    assert np.linalg.eigvalsh(pre.best_A)[0] >= -1e-12


def test_preconditioned_run_reports_the_residual_of_what_it_returns():
    # the reported objectives are the residuals of the returned A and best_A,
    # bit for bit, on ill-conditioned reduced instances
    for seed in range(20):
        X, B = gen(InstanceSpec("ill_conditioned", 20, 20, seed, kappa_target=1e4))
        red = reduce_problem(X, B)
        Xsub = np.diag(red.sigma1)
        A0 = init_diagonal(Xsub, red.B11)
        cfg = SolverConfig(max_iter=200)
        pre = fgm_solve(Xsub, red.B11, A0, cfg, precondition=True)
        assert pre.objective == fro_norm(pre.A @ Xsub - red.B11) ** 2, seed
        assert pre.best_objective == fro_norm(pre.best_A @ Xsub - red.B11) ** 2, seed


def test_preconditioned_run_needs_a_positive_diagonal():
    B = np.ones((3, 3))
    for X in (np.ones((3, 3)), np.diag([1.0, 0.0, 2.0]), np.diag([1.0, -1.0, 2.0])):
        with pytest.raises(InapplicableError):
            fgm_solve(X, B, np.zeros((3, 3)), precondition=True)
    with pytest.raises(DimensionError):
        fgm_solve(np.eye(3), np.ones((3, 4)), np.zeros((3, 3)), precondition=True)
