"""Reduction, attainment criterion, closed-form assemblies."""

from dataclasses import replace

import numpy as np
import pytest

from psdp import (
    ConstraintViolationError,
    DegenerateProblemError,
    DimensionError,
    InapplicableError,
    NotAttainedError,
    ParameterError,
    an_fgm_solve,
    assemble_epsilon,
    assemble_optimal,
    kernel_contained,
    make_subproblem_solution,
    negative_case_solution,
    rank1_solve,
    reduce_problem,
)
from psdp import pipeline, reduction
from psdp.bench import InstanceSpec, gen
from psdp.matcore import is_psd, pinv_psd
from psdp.reduction import dual_bound, infimum_value, negative_condition, subproblem_residual


def rank_deficient_instance(rng, n, m, r):
    """Random (X, B) with X of exact rank r."""
    G = rng.standard_normal((n, m))
    U, s, Vh = np.linalg.svd(G, full_matrices=False)
    s[r:] = 0.0
    return (U * s) @ Vh, rng.standard_normal((n, m))


def rotate(red, A):
    """Blocks of A in the left singular basis."""
    A11 = red.U1.T @ A @ red.U1
    A21 = red.U2.T @ A @ red.U1
    return A11, A21


def test_reduce_shapes_and_orthogonality():
    rng = np.random.default_rng(7)
    X, B = rank_deficient_instance(rng, 6, 5, 3)
    red = reduce_problem(X, B)
    assert (red.n, red.m, red.r) == (6, 5, 3)
    assert red.U1.shape == (6, 3) and red.U2.shape == (6, 3)
    assert red.V1.shape == (5, 3) and red.V2.shape == (5, 2)
    U = np.hstack([red.U1, red.U2])
    V = np.hstack([red.V1, red.V2])
    assert np.allclose(U.T @ U, np.eye(6), atol=1e-10)
    assert np.allclose(V.T @ V, np.eye(5), atol=1e-10)
    assert (red.sigma1 > 0).all() and (np.diff(red.sigma1) <= 0).all()
    # the reduction reproduces X
    assert np.allclose(red.U1 @ np.diag(red.sigma1) @ red.V1.T, X, atol=1e-10)


def test_reduce_blocks_match_definitions():
    rng = np.random.default_rng(9)
    X, B = rank_deficient_instance(rng, 7, 4, 2)
    red = reduce_problem(X, B)
    assert np.allclose(red.B11, red.U1.T @ B @ red.V1, atol=1e-12)
    assert np.allclose(red.Z * red.sigma1, red.U2.T @ B @ red.V1, atol=1e-12)
    assert red.offset == pytest.approx(np.linalg.norm(B @ red.V2, "fro") ** 2, rel=1e-12)


def test_reduce_rejects_degenerate_and_mismatched():
    with pytest.raises(DegenerateProblemError):
        reduce_problem(np.zeros((3, 2)), np.ones((3, 2)))
    with pytest.raises(DimensionError):
        reduce_problem(np.ones((3, 2)), np.ones((2, 3)))


def test_reduce_respects_rank_tol():
    X = np.diag([1.0, 1e-6, 1e-12])
    B = np.eye(3)
    # default_rank_tol is 3 EPS here: every singular value counts
    assert reduce_problem(X, B).r == 3


def test_objective_splits_into_three_terms():
    # |A X - B|^2 = |A11 S - B11|^2 + |A21 S - U2' B V1|^2 + offset
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(2, 9))
        r = int(rng.integers(1, min(n, m) + 1)) if min(n, m) > 1 else 1
        X, B = rank_deficient_instance(rng, n, m, r)
        red = reduce_problem(X, B)
        M = rng.standard_normal((n, n))
        A = (M + M.T) / 2  # any symmetric A, PSD not required
        A11, A21 = rotate(red, A)
        lhs = np.linalg.norm(A @ X - B, "fro") ** 2
        rhs = (
            np.linalg.norm(A11 * red.sigma1 - red.B11, "fro") ** 2
            + np.linalg.norm(A21 * red.sigma1 - red.Z * red.sigma1, "fro") ** 2
            + red.offset
        )
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_kernel_contained_vacuous_when_full_rank():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((4, 6))
    B = rng.standard_normal((4, 6))
    red = reduce_problem(X, B)
    assert red.r == 4 and red.Z.size == 0
    sub = make_subproblem_solution(np.zeros((4, 4)), red)
    assert kernel_contained(sub, red)


def test_kernel_contained_true_and_false_by_construction():
    rng = np.random.default_rng(19)
    X, B = rank_deficient_instance(rng, 6, 6, 4)
    red = reduce_problem(X, B)
    # Z is 2-by-4: its kernel has dimension 2; pick directions inside
    # and outside and build candidates whose kernel is that span
    _, sz, Vzh = np.linalg.svd(red.Z)
    inside = Vzh[-1]  # null direction of Z
    outside = Vzh[0]  # direction with nonzero image
    for v, expected in ((inside, True), (outside, False)):
        W = np.linalg.svd(np.eye(4) - np.outer(v, v))[0][:, :3]
        cand = W @ W.T  # PSD with kernel exactly span(v)
        sub = make_subproblem_solution(cand, red)
        assert sub.rank_s == 3
        assert kernel_contained(sub, red) is expected


def test_kernel_contained_agrees_with_rank_criterion():
    # attainment is equivalent to rank([A11hat, Z.T]) == rank(A11hat)
    rng = np.random.default_rng(21)
    hits = {True: 0, False: 0}
    for trial in range(20):
        n, m, r = 7, 6, 4
        X, B = rank_deficient_instance(rng, n, m, r)
        red = reduce_problem(X, B)
        k = int(rng.integers(1, r + 1))
        W = rng.standard_normal((r, k))
        cand = W @ W.T
        sub = make_subproblem_solution(cand, red)
        augmented = np.hstack([cand, red.Z.T])
        s_aug = np.linalg.svd(augmented, compute_uv=False)
        rank_aug = int(np.count_nonzero(s_aug > 1e-8 * s_aug[0]))
        got = kernel_contained(sub, red)
        hits[got] += 1
        assert got == (rank_aug == sub.rank_s)
    assert hits[True] > 0 and hits[False] > 0  # both branches exercised


def test_assemble_optimal_tiny_frozen_case():
    X = np.array([[1.0], [0.0]])
    B = np.array([[2.0], [0.0]])
    red = reduce_problem(X, B)
    sub = make_subproblem_solution(np.array([[2.0]]), red)
    sol = assemble_optimal(red, sub)
    assert np.allclose(sol.A, [[2.0, 0.0], [0.0, 0.0]], atol=1e-12)
    assert sol.objective == pytest.approx(0.0, abs=1e-12)
    assert sol.attained is True and sol.infimum == pytest.approx(0.0, abs=1e-12)


def test_assemble_optimal_reaches_zero_residual_on_consistent_data():
    # B = A_true X with A_true positive definite: infimum 0, attained
    rng = np.random.default_rng(23)
    for _ in range(5):
        n, m, r = 6, 5, 3
        G = rng.standard_normal((n, m))
        U, s, Vh = np.linalg.svd(G, full_matrices=False)
        s[r:] = 0.0
        X = (U * s) @ Vh
        R = rng.standard_normal((n, n))
        A_true = R @ R.T + 0.5 * np.eye(n)
        B = A_true @ X
        red = reduce_problem(X, B)
        cand = red.U1.T @ A_true @ red.U1
        sub = make_subproblem_solution(cand, red)
        assert sub.residual <= 1e-8
        sol = assemble_optimal(red, sub)
        assert np.linalg.norm(sol.A @ X - B, "fro") ** 2 <= 1e-12 * np.linalg.norm(B) ** 2
        assert is_psd(sol.A)


def test_assemble_optimal_requires_kernel_condition():
    rng = np.random.default_rng(27)
    X, B = rank_deficient_instance(rng, 6, 6, 4)
    red = reduce_problem(X, B)
    _, _, Vzh = np.linalg.svd(red.Z)
    outside = Vzh[0]
    W = np.linalg.svd(np.eye(4) - np.outer(outside, outside))[0][:, :3]
    sub = make_subproblem_solution(W @ W.T, red)
    with pytest.raises(NotAttainedError):
        assemble_optimal(red, sub)


def test_assemble_optimal_objective_identity_and_custom_K():
    rng = np.random.default_rng(29)
    n, m, r = 7, 5, 3
    X, B = rank_deficient_instance(rng, n, m, r)
    red = reduce_problem(X, B)
    W = rng.standard_normal((r, r))
    cand = W @ W.T + 0.1 * np.eye(r)  # positive definite candidate
    sub = make_subproblem_solution(cand, red)
    sol = assemble_optimal(red, sub)
    direct = np.linalg.norm(sol.A @ X - B, "fro") ** 2
    assert sol.objective == pytest.approx(direct, rel=1e-9, abs=1e-9)
    assert sol.objective == pytest.approx(sub.residual**2 + red.offset, rel=1e-12)
    # a valid larger trailing block is accepted, an invalid one rejected
    Khat = red.Z @ pinv_psd(cand) @ red.Z.T
    S = rng.standard_normal((n - r, n - r))
    good = assemble_optimal(red, sub, K=Khat + S @ S.T)
    assert is_psd(good.A)
    assert good.objective == pytest.approx(sol.objective, rel=1e-12)
    with pytest.raises(ConstraintViolationError):
        assemble_optimal(red, sub, K=Khat - 0.5 * np.eye(n - r))


def test_default_trailing_block_minimizes_norm_and_rank():
    # against 20 random valid alternatives, the default completion has
    # the smallest Frobenius norm and matches the candidate's rank
    rng = np.random.default_rng(31)
    n, m, r = 6, 5, 4  # Z is 2-by-4, so its kernel is 2-dimensional
    X, B = rank_deficient_instance(rng, n, m, r)
    red = reduce_problem(X, B)
    # candidate with kernel spanned by a null direction of Z: attained,
    # rank deficient, so the trailing block is constrained but flexible
    v = np.linalg.svd(red.Z)[2][-1]
    Wk = np.linalg.svd(np.eye(r) - np.outer(v, v))[0][:, : r - 1]
    cand = Wk @ np.diag(rng.uniform(0.5, 2.0, r - 1)) @ Wk.T
    sub = make_subproblem_solution(cand, red)
    assert sub.rank_s == r - 1
    assert kernel_contained(sub, red)
    base = assemble_optimal(red, sub)
    base_norm = np.linalg.norm(base.A, "fro")
    base_rank = np.count_nonzero(np.linalg.eigvalsh(base.A) > 1e-8 * np.linalg.norm(base.A, 2))
    assert base_rank == sub.rank_s
    Khat = red.Z @ pinv_psd(cand) @ red.Z.T
    for _ in range(20):
        S = rng.standard_normal((n - r, n - r)) * rng.uniform(0.1, 2.0)
        alt = assemble_optimal(red, sub, K=Khat + S @ S.T)
        assert np.linalg.norm(alt.A, "fro") >= base_norm - 1e-9
        assert np.linalg.norm(alt.A, 2) >= np.linalg.norm(base.A, 2) - 1e-9


def test_one_eigendecomposition_from_subproblem_to_assembly(monkeypatch):
    # A11hat with a kernel inside ker(Z): the attainment test, the exact
    # assembly and the eps assembly all reuse the decomposition made by
    # make_subproblem_solution
    rng = np.random.default_rng(47)
    X, B = rank_deficient_instance(rng, 5, 4, 3)
    red = reduce_problem(X, B)
    k = np.linalg.svd(red.Z)[2][-1]  # unit vector in ker(Z), which is 2-by-3
    P = np.eye(3) - np.outer(k, k)
    S = rng.standard_normal((3, 3))
    A11hat = P @ (S @ S.T + np.eye(3)) @ P
    S = (A11hat + A11hat.T) / 2.0
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(np.array_equal(M, S)) or eigh(M))
    sub = make_subproblem_solution(A11hat, red)
    assert sub.rank_s == 2
    assert kernel_contained(sub, red)
    assemble_optimal(red, sub)
    assemble_epsilon(red, sub, 0.5 * min(1.0, sub.residual**2))
    assert len(calls) == 1
    # the bound factors its kernel compression only, not A11hat again
    dual_bound(red, sub)
    assert sum(calls) == 1


def test_assemble_epsilon_frozen_tiny_case():
    # X = e1, B = e2: subproblem optimum is 0 with residual 0, the
    # infimum 0 is unattained; with eps = 0.01 the lifted block is
    # eps/4 and the trailing block 400
    X = np.array([[1.0], [0.0]])
    B = np.array([[0.0], [1.0]])
    red = reduce_problem(X, B)
    sub = make_subproblem_solution(np.array([[0.0]]), red)
    assert not kernel_contained(sub, red)
    sol = assemble_epsilon(red, sub, eps=0.01)
    assert np.allclose(sol.A, [[0.0025, 1.0], [1.0, 400.0]], atol=1e-12)
    assert sol.objective == pytest.approx(0.0025**2, rel=1e-12)
    assert sol.objective < sol.infimum + 0.01
    assert sol.attained is False and sol.epsilon == 0.01
    assert is_psd(sol.A)
    assert np.linalg.norm(sol.A @ X - B, "fro") ** 2 == pytest.approx(sol.objective, rel=1e-9)


def test_assemble_epsilon_validates_interval():
    X = np.array([[1.0], [0.0]])
    B = np.array([[0.0], [1.0]])
    red = reduce_problem(X, B)
    sub = make_subproblem_solution(np.array([[0.0]]), red)
    # residual is zero, so the admissible interval is (0, 1)
    for bad in (0.0, -1e-3, 1.0, 1.5):
        with pytest.raises(ParameterError):
            assemble_epsilon(red, sub, eps=bad)


def test_assemble_epsilon_monotone_toward_infimum():
    rng = np.random.default_rng(37)
    X, B = rank_deficient_instance(rng, 8, 4, 4)  # n = 2m, typically unattained
    red = reduce_problem(X, B)
    # near-minimizer with a kernel misaligned with ker Z: project the
    # unconstrained subproblem solution and deflate its smallest eigenpair
    cand0 = red.B11 / red.sigma1
    cand0 = (cand0 + cand0.T) / 2
    w, Q = np.linalg.eigh(cand0)
    w = np.maximum(w, 0.0)
    w[0] = 0.0
    cand = (Q * w) @ Q.T
    sub = make_subproblem_solution(cand, red)
    if kernel_contained(sub, red):
        pytest.skip("random draw produced an attained instance")
    inf_val = infimum_value(red, sub)
    objs = []
    for eps in (1e-2, 1e-4, 1e-6):
        sol = assemble_epsilon(red, sub, eps)
        assert sol.objective < inf_val + eps
        assert sol.objective >= inf_val - 1e-9
        assert is_psd(sol.A)
        objs.append(sol.objective)
    assert objs[0] >= objs[1] >= objs[2]


def test_assemble_epsilon_legal_when_attained():
    # kernel condition holding does not forbid the eps route; the
    # result stays within eps of the exact optimum
    rng = np.random.default_rng(41)
    n, m, r = 6, 5, 3
    X, B = rank_deficient_instance(rng, n, m, r)
    red = reduce_problem(X, B)
    W = rng.standard_normal((r, r))
    cand = W @ W.T + 0.2 * np.eye(r)
    sub = make_subproblem_solution(cand, red)
    exact = assemble_optimal(red, sub)
    eps = min(0.5, sub.residual**2 / 2)
    approx = assemble_epsilon(red, sub, eps)
    assert abs(approx.objective - exact.objective) <= eps


def test_negative_case_requires_rank_deficiency():
    rng = np.random.default_rng(43)
    X = rng.standard_normal((4, 5))
    B = rng.standard_normal((4, 5))
    red = reduce_problem(X, B)
    with pytest.raises(InapplicableError):
        negative_case_solution(red, X, B)


def test_negative_case_returns_none_without_the_condition():
    rng = np.random.default_rng(47)
    X, B = rank_deficient_instance(rng, 6, 4, 3)
    red = reduce_problem(X, B)
    # Gaussian B essentially never satisfies the negative condition
    assert negative_case_solution(red, X, B) is None


def test_negative_case_minus_x_frozen():
    # B = -X: condition matrix is -2 Sigma1^2, infimum |Sigma1|^2
    X = np.zeros((2, 2))
    X[0, 0] = 1.0
    B = -X
    red = reduce_problem(X, B)
    sol = negative_case_solution(red, X, B, eps=0.5)
    assert sol is not None
    assert sol.infimum == pytest.approx(1.0, rel=1e-12)
    assert sol.attained is False
    alpha = 4.0 * np.sqrt(2.0)
    c = 0.5 / alpha
    assert np.allclose(sol.A, [[c, 0.0], [0.0, 0.0]], atol=1e-12)
    assert sol.objective == pytest.approx((1.0 + c) ** 2, rel=1e-12)
    assert sol.objective < sol.infimum + 0.5


def test_negative_case_random_instances():
    # rotate a negative semidefinite coupling into general position
    rng = np.random.default_rng(53)
    for _ in range(5):
        n, m, r = 6, 6, 3
        G = rng.standard_normal((n, m))
        U, s, Vh = np.linalg.svd(G, full_matrices=False)
        s[r:] = 0.0
        X = (U * s) @ Vh
        B = -X + (np.eye(n) - U[:, :r] @ U[:, :r].T) @ rng.standard_normal((n, m))
        red = reduce_problem(X, B)
        for eps in (1e-2, 1e-4):
            sol = negative_case_solution(red, X, B, eps=eps)
            assert sol is not None
            direct = np.linalg.norm(sol.A @ X - B, "fro") ** 2
            assert direct == pytest.approx(sol.objective, rel=1e-9)
            assert sol.objective < sol.infimum + eps
            assert is_psd(sol.A)


def test_negative_case_validates_eps():
    X = np.zeros((2, 2))
    X[0, 0] = 1.0
    B = -X
    red = reduce_problem(X, B)
    with pytest.raises(ParameterError):
        negative_case_solution(red, X, B, eps=2.0)  # above min(1, |B11|^2)


@pytest.mark.parametrize("c", [1e-5, 1e-100])
def test_negative_case_test_is_scale_free(c):
    # scaling X and B by c scales the condition by c^2, so the route must
    # not change; the closed form's zero gap would be false here (its
    # infimum / c^2 is 426.87, the true value 387.66)
    X, B = gen(InstanceSpec("rank_deficient", 30, 20, 0))
    assert negative_case_solution(reduce_problem(X, B)) is None
    assert negative_case_solution(reduce_problem(c * X, c * B)) is None
    ref = an_fgm_solve(X, B)
    sol = an_fgm_solve(c * X, c * B)
    assert len(sol.trace) == len(ref.trace) > 1
    assert sol.lower_bound <= c**2 * ref.infimum * (1.0 + 1e-12)


def test_attained_solve_tests_the_kernel_once(monkeypatch):
    # B = A* X with A* positive definite and rank(X) = 4 < 7: the
    # infimum 0 is attained, and the attainment test runs once
    rng = np.random.default_rng(61)
    X, _ = rank_deficient_instance(rng, 7, 5, 4)
    G = rng.standard_normal((7, 7))
    B = (G @ G.T + np.eye(7)) @ X
    calls = []
    contained = reduction.kernel_contained
    # `pipeline` imports the test by name, so count through both bindings
    for mod in (reduction, pipeline):
        monkeypatch.setattr(mod, "kernel_contained", lambda *a: calls.append(1) or contained(*a))
    sol = an_fgm_solve(X, B)
    assert reduce_problem(X, B).r == 4
    assert sol.attained
    assert len(calls) == 1


def test_rank1_requires_rank_one():
    rng = np.random.default_rng(59)
    X = rng.standard_normal((4, 4))
    with pytest.raises(InapplicableError):
        rank1_solve(X, rng.standard_normal((4, 4)))


def test_rank1_positive_branch_frozen():
    # X = 2 e1 e1', B = [[3, 1], [5, 0]]: t = 3, w = 5, tail = 1
    X = np.array([[2.0, 0.0], [0.0, 0.0]])
    B = np.array([[3.0, 1.0], [5.0, 0.0]])
    sol = rank1_solve(X, B)
    assert sol.attained is True
    assert sol.infimum == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(sol.A, [[1.5, 2.5], [2.5, 25.0 / 6.0]], atol=1e-12)
    assert np.linalg.norm(sol.A @ X - B, "fro") ** 2 == pytest.approx(1.0, rel=1e-12)
    # minimal-rank solution: one positive eigenvalue
    w = np.linalg.eigvalsh(sol.A)
    assert w[0] == pytest.approx(0.0, abs=1e-12) and w[1] > 0


def test_rank1_attained_branch_checks_eps():
    # the instance of test_rank1_positive_branch_frozen: attained, so eps is
    # never read, and a bad one still raises before either branch
    X = np.array([[2.0, 0.0], [0.0, 0.0]])
    B = np.array([[3.0, 1.0], [5.0, 0.0]])
    for eps in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            rank1_solve(X, B, eps=eps)


def test_rank1_zero_optimum_branch_frozen():
    X = np.array([[1.0], [0.0]])
    B = np.array([[-1.0], [0.0]])
    sol = rank1_solve(X, B)
    assert sol.attained is True
    assert np.array_equal(sol.A, np.zeros((2, 2)))
    assert sol.objective == pytest.approx(1.0, rel=1e-12)


def test_rank1_unattained_branch_frozen():
    # t = 0 with a live cross term: n0 = 101 at eps = 1e-4 (strict
    # inequality excludes n0 = 100)
    X = np.array([[1.0], [0.0]])
    B = np.array([[0.0], [1.0]])
    sol = rank1_solve(X, B, eps=1e-4)
    assert sol.attained is False
    assert sol.infimum == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(sol.A, [[1.0 / 101.0, 1.0], [1.0, 101.0]], atol=1e-12)
    assert sol.objective == pytest.approx(1.0 / 101.0**2, rel=1e-12)
    assert sol.objective < 1e-4
    assert is_psd(sol.A)


def test_rank1_unattained_eps_guarantee_random():
    rng = np.random.default_rng(61)
    done = 0
    for trial in range(40):
        n, m = 5, 4
        u = rng.standard_normal(n)
        v = rng.standard_normal(m)
        X = np.outer(u, v)
        B = rng.standard_normal((n, m))
        sol0 = rank1_solve(X, B)
        if sol0.attained:
            continue
        done += 1
        for eps in (1e-2, 1e-4):
            sol = rank1_solve(X, B, eps=eps)
            direct = np.linalg.norm(sol.A @ X - B, "fro") ** 2
            assert direct == pytest.approx(sol.objective, rel=1e-9, abs=1e-12)
            assert sol.objective < sol.infimum + eps
            assert is_psd(sol.A)
        if done >= 8:
            break
    assert done >= 8


def test_rank1_attained_objective_matches_direct():
    rng = np.random.default_rng(67)
    done = 0
    while done < 8:
        n, m = 5, 4
        X = np.outer(rng.standard_normal(n), rng.standard_normal(m))
        B = rng.standard_normal((n, m))
        sol = rank1_solve(X, B)
        if not sol.attained:
            continue
        done += 1
        direct = np.linalg.norm(sol.A @ X - B, "fro") ** 2
        assert direct == pytest.approx(sol.objective, rel=1e-9)
        assert is_psd(sol.A)


def test_solution_psd_invariant():
    rng = np.random.default_rng(71)
    X, B = rank_deficient_instance(rng, 6, 5, 3)
    red = reduce_problem(X, B)
    W = rng.standard_normal((3, 3))
    sub = make_subproblem_solution(W @ W.T, red)
    sol = assemble_optimal(red, sub)
    assert np.array_equal(sol.A, sol.A.T)
    assert np.linalg.eigvalsh(sol.A).min() >= -1e-8 * max(1.0, np.linalg.norm(sol.A, 2))


def test_subproblem_residual_helper():
    rng = np.random.default_rng(73)
    X, B = rank_deficient_instance(rng, 5, 4, 2)
    red = reduce_problem(X, B)
    A11 = rng.standard_normal((2, 2))
    expected = np.linalg.norm(A11 @ np.diag(red.sigma1) - red.B11, "fro")
    assert subproblem_residual(A11, red) == pytest.approx(expected, rel=1e-12)


def _dense_reference(X, B, red):
    """Full SVD basis U = [U1 U2] of X, its V1 and Z = U2.T B V1 / sigma1.

    The leading singular vectors are sign-aligned with red.U1, so r-by-r
    blocks written in the reduction's basis mean the same in this one.
    """
    r = red.r
    U, s, Vh = np.linalg.svd(X)
    d = np.sign(np.sum(U[:, :r] * red.U1, axis=0))
    U[:, :r] *= d
    V1 = Vh[:r].T * d
    Z = U[:, r:].T @ B @ V1 / s[:r]
    return U, V1, Z


def _dense(U, A11, Z, K):
    """U [[A11, Z.T], [Z, K]] U.T, the rotation the assemblies avoid forming."""
    r = A11.shape[0]
    if r == U.shape[0]:
        return U @ A11 @ U.T
    return U @ np.block([[A11, Z.T], [Z, K]]) @ U.T


def _rel(A, ref):
    return np.linalg.norm(A - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("n, m, r", [(7, 5, 3), (4, 7, 2), (4, 6, 4), (6, 4, 1), (3, 5, 1)])
def test_assemblies_match_dense_reference(n, m, r):
    # n > m, n < m, r = n and r = 1, against U [[A11, Z.T], [Z, K]] U.T
    rng = np.random.default_rng(100 + 10 * n + r)
    X, B = rank_deficient_instance(rng, n, m, r)
    red = reduce_problem(X, B)
    assert red.r == r
    U, V1, Z = _dense_reference(X, B, red)
    Q = np.linalg.qr(rng.standard_normal((r, r)))[0]
    cand = (Q * rng.uniform(0.1, 2.0, r)) @ Q.T  # eigenvalues >= 0.1
    Khat = Z @ np.linalg.inv(cand) @ Z.T
    sub = make_subproblem_solution(cand, red)

    def check(sol, K):
        assert _rel(sol.A, _dense(U, cand, Z, K)) <= 1e-10
        assert np.linalg.norm(sol.A @ X - B) ** 2 == pytest.approx(sol.objective, rel=1e-9)

    eps = 0.5 * min(1.0, sub.residual**2)
    check(assemble_optimal(red, sub), Khat)
    check(assemble_epsilon(red, sub, eps), Khat)
    if r < n:
        # a custom trailing block is given in the reduction's U2 basis
        S = rng.standard_normal((n - r, n - r))
        K = red.Z @ np.linalg.inv(cand) @ red.Z.T + S @ S.T
        R = U[:, r:].T @ red.U2
        check(assemble_optimal(red, sub, K=K), R @ K @ R.T)
        check(assemble_epsilon(red, sub, eps, K_eps=K), R @ K @ R.T)

        # negative case: B = -X + U2 G
        Bn = -X + U[:, r:] @ rng.standard_normal((n - r, m))
        redn = reduce_problem(X, Bn)
        Un, _, Zn = _dense_reference(X, Bn, redn)
        sol = negative_case_solution(redn, X, Bn, eps=0.1)
        alpha = 4.0 * np.sqrt(n) * np.linalg.norm(redn.sigma1) * np.linalg.norm(redn.B11)
        c = 0.1 / alpha
        assert _rel(sol.A, _dense(Un, c * np.eye(r), Zn, Zn @ Zn.T / c)) <= 1e-10

    if r == 1:
        sigma = red.sigma1[0]
        for sign in (1.0, -1.0):
            # flip the u v.T component of B into the t > 0 or the t <= 0 branch
            t0 = float(U[:, 0] @ B @ V1[:, 0])
            Bt = B + (sign * abs(t0) - t0) * np.outer(U[:, 0], V1[:, 0])
            Ur, V1r, Zr = _dense_reference(X, Bt, reduce_problem(X, Bt))
            t = float(Ur[:, 0] @ Bt @ V1r[:, 0])
            sol = rank1_solve(X, Bt, eps=1e-2)
            if sign > 0:
                a = t / sigma
            else:
                n0 = 1
                while sigma**2 / n0**2 - 2.0 * sigma * t / n0 >= 1e-2 * (1 - 2**-7):
                    n0 += 1
                a = 1.0 / n0
            assert sol.attained is (sign > 0)
            assert _rel(sol.A, _dense(Ur, np.array([[a]]), Zr, Zr @ Zr.T / a)) <= 1e-10


def test_solves_use_one_thin_svd_and_no_complement(monkeypatch):
    # every an_fgm_solve route factors X once, with a thin SVD, and never
    # derives the complementary basis U2 (a complete QR); the closed forms
    # make no other SVD call, the iterative route only singular values
    rng = np.random.default_rng(83)
    X1 = np.outer(rng.standard_normal(9), rng.standard_normal(5))
    B1 = rng.standard_normal((9, 5))
    X, B = rank_deficient_instance(rng, 9, 5, 3)
    U = np.linalg.svd(X)[0]
    Bn = -X + U[:, 3:] @ rng.standard_normal((6, 5))
    assert negative_case_solution(reduce_problem(X, Bn)) is not None
    svd, qr = np.linalg.svd, np.linalg.qr
    for Xi, Bi, closed in ((X1, B1, True), (X, Bn, True), (X, B, False)):
        svd_calls, qr_calls = [], []
        monkeypatch.setattr(np.linalg, "svd", lambda M, *a, **k: (
            svd_calls.append((k.get("full_matrices", True), k.get("compute_uv", True)))
            or svd(M, *a, **k)))
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: qr_calls.append(1) or qr(*a, **k))
        an_fgm_solve(Xi, Bi)
        monkeypatch.undo()
        factored = [c for c in svd_calls if c[1]]
        assert factored == [(False, True)]
        assert len(svd_calls) == 1 or not closed
        assert qr_calls == []


@pytest.mark.parametrize("n, m, r", [(4, 9, 3), (4, 9, 4), (9, 4, 2), (9, 4, 4)])
def test_negative_condition_matches_dense_form(n, m, r):
    rng = np.random.default_rng(89 + n + r)
    for _ in range(5):
        X, B = rank_deficient_instance(rng, n, m, r)
        red = reduce_problem(X, B)
        dense = red.U1.T @ (B @ X.T + X @ B.T) @ red.U1
        assert _rel(negative_condition(red), dense) <= 1e-12


def _block_formula(red, A11, W, dK=None):
    """[U1 Y] [[A11, I], [I, W]] [U1 Y].T + U2 dK U2.T, the assembly before G G.T."""
    H = np.hstack([red.U1, red.Y])
    eye = np.eye(red.r)
    A = H @ np.block([[A11, eye], [eye, W]]) @ H.T
    return A if dK is None else A + red.U2 @ dK @ red.U2.T


def _assembly_cases():
    """(name, A, block-formula reference) on every assembly route."""
    rng = np.random.default_rng(71)
    cases = []
    # exact and eps assembly from a positive definite candidate, default and user K
    X, B = rank_deficient_instance(rng, 9, 5, 3)
    red = reduce_problem(X, B)
    S = rng.standard_normal((3, 3))
    cand = S @ S.T + 0.1 * np.eye(3)
    sub = make_subproblem_solution(cand, red)
    W = np.linalg.inv(cand)
    Z = red.Z
    T = rng.standard_normal((6, 6))
    K = Z @ W @ Z.T + T @ T.T
    eps = 0.5 * min(1.0, sub.residual**2)
    cases.append(("optimal", assemble_optimal(red, sub).A, _block_formula(red, cand, W)))
    cases.append(("optimal K", assemble_optimal(red, sub, K=K).A,
                  _block_formula(red, cand, W, K - Z @ W @ Z.T)))
    # with no kernel the eps route keeps the candidate and its inverse
    cases.append(("eps", assemble_epsilon(red, sub, eps).A, _block_formula(red, cand, W)))
    cases.append(("eps K", assemble_epsilon(red, sub, eps, K_eps=K).A,
                  _block_formula(red, cand, W, K - Z @ W @ Z.T)))
    # exact assembly with a kernel inside ker(Z): Y is taken off the kernel
    X, B = rank_deficient_instance(rng, 6, 5, 4)
    red = reduce_problem(X, B)
    v = np.linalg.svd(red.Z)[2][-1]
    Wk = np.linalg.svd(np.eye(4) - np.outer(v, v))[0][:, :3]
    cand = Wk @ np.diag([0.5, 1.0, 2.0]) @ Wk.T
    sub = make_subproblem_solution(cand, red)
    assert sub.rank_s == 3 and kernel_contained(sub, red)
    N = sub.eig.Q[:, 3:]
    red_off = replace(red, Y=red.Y - red.Y @ N @ N.T)
    cases.append(("optimal kernel", assemble_optimal(red, sub).A,
                  _block_formula(red_off, cand, pinv_psd(cand))))
    # eps assembly that lifts a kernel outside ker(Z) to upsilon
    sub = make_subproblem_solution(2.0 * np.outer(v, v), red)
    assert not kernel_contained(sub, red)
    eps = 0.5 * min(1.0, sub.residual**2)
    k = red.r - sub.rank_s
    upsilon = eps / (4.0 * np.sqrt(k) * np.linalg.norm(red.sigma1) * sub.residual)
    Qp, lam_p, Nk = sub.eig.Q[:, :sub.rank_s], sub.eig.lam[:sub.rank_s], sub.eig.Q[:, sub.rank_s:]
    A11_eps = (Qp * lam_p) @ Qp.T + upsilon * Nk @ Nk.T
    cases.append(("eps kernel", assemble_epsilon(red, sub, eps).A,
                  _block_formula(red, A11_eps, np.linalg.inv(A11_eps))))
    # r = n: A = U1 A11 U1.T
    X, B = rng.standard_normal((5, 7)), rng.standard_normal((5, 7))
    red = reduce_problem(X, B)
    S = rng.standard_normal((5, 5))
    cand = S @ S.T
    sub = make_subproblem_solution(cand, red)
    cases.append(("full rank", assemble_optimal(red, sub).A,
                  _block_formula(red, cand, np.linalg.inv(cand))))
    # negative case: leading block c I
    X, _ = rank_deficient_instance(rng, 8, 5, 3)
    U = np.linalg.svd(X)[0]
    B = -X + U[:, 3:] @ rng.standard_normal((5, 5))
    red = reduce_problem(X, B)
    c = 0.1 / (4.0 * np.sqrt(8) * np.linalg.norm(red.sigma1) * np.linalg.norm(red.B11))
    cases.append(("negative", negative_case_solution(red, eps=0.1).A,
                  _block_formula(red, c * np.eye(3), np.eye(3) / c)))
    # rank one, both branches: leading coefficient a = t / sigma and a = 1 / n0
    u, v1 = rng.standard_normal(7), rng.standard_normal(4)
    X = np.outer(u, v1)
    for sign in (1.0, -1.0):
        B = rng.standard_normal((7, 4))
        red = reduce_problem(X, B)
        t, sigma = float(red.B11[0, 0]), float(red.sigma1[0])
        B = B + (sign * abs(t) - t) * np.outer(red.U1[:, 0], red.V1[:, 0])
        red = reduce_problem(X, B)
        t = float(red.B11[0, 0])
        if sign > 0:
            a = t / sigma
        else:
            n0 = 1
            while sigma**2 / n0**2 - 2.0 * sigma * t / n0 >= 1e-2 * (1 - 2**-7):
                n0 += 1
            a = 1.0 / n0
        sol = rank1_solve(X, B, eps=1e-2)
        assert sol.attained is (sign > 0)
        cases.append(("rank1 %+d" % sign, sol.A, _block_formula(red, np.array([[a]]), np.array([[1.0 / a]]))))
    return cases


@pytest.mark.parametrize("case", _assembly_cases(), ids=lambda c: c[0])
def test_assembly_is_the_block_formula_symmetric_and_psd(case):
    # every route assembles G G.T: exactly symmetric, PSD to rounding,
    # and equal to the block formula it replaced
    _, A, ref = case
    assert np.array_equal(A, A.T)
    w = np.linalg.eigvalsh(A)
    assert w[0] >= -1e-12 * np.abs(w).max()
    assert np.linalg.norm(A - ref) <= 1e-12 * np.linalg.norm(ref)
