"""End-to-end semi-analytical solves and the method dispatcher."""

import numpy as np
import pytest

from psdp import (
    ConfigurationError,
    ParameterError,
    SolverConfig,
    an_fgm_solve,
    assemble_optimal,
    fgm_solve,
    init_diagonal,
    init_recursive,
    make_subproblem_solution,
    negative_case_solution,
    rank1_solve,
    reduce_problem,
    solve,
)
from psdp import pipeline, reduction
from psdp.bench import InstanceSpec, gen
from psdp.initializers import KAPPA_MAX
from psdp.solvers import GAP_FIRST, GAP_TOL


def test_full_rank_instance_attained_and_consistent():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((8, 10))
    B = rng.standard_normal((8, 10))
    sol = an_fgm_solve(X, B, SolverConfig(max_iter=3000))
    assert sol.attained is True
    direct = np.linalg.norm(sol.A @ X - B, "fro") ** 2
    assert sol.objective == pytest.approx(direct, rel=1e-9)
    assert sol.objective == pytest.approx(sol.infimum, rel=1e-12)
    w = np.linalg.eigvalsh(sol.A)
    assert w.min() >= -1e-8 * max(1.0, w.max())


def test_matches_full_space_fgm_on_full_rank():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((7, 7)) + 3.0 * np.eye(7)  # keeps kappa moderate
    B = rng.standard_normal((7, 7))
    cfg = SolverConfig(max_iter=4000)
    fast = an_fgm_solve(X, B, cfg)
    full = fgm_solve(X, B, init_diagonal(X, B), cfg)
    assert fast.objective == pytest.approx(full.best_objective, rel=1e-6)
    # full-rank X makes the optimizer unique: the iterates converge to it
    assert np.linalg.norm(fast.A - full.best_A, "fro") <= 1e-4


def test_unique_optimizer_independent_of_subproblem_init():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((6, 9))
    B = rng.standard_normal((6, 9))
    cfg = SolverConfig(max_iter=4000)
    sols = [an_fgm_solve(X, B, cfg, sub_init=name) for name in ("recursive", "zero", "diagonal")]
    for other in sols[1:]:
        assert np.linalg.norm(sols[0].A - other.A, "fro") <= 1e-5
        assert sols[0].objective == pytest.approx(other.objective, rel=1e-8)


def test_rank1_shortcut_taken_and_equivalent_to_general_path():
    rng = np.random.default_rng(11)
    checked_attained = 0
    for t in range(20):
        X = np.outer(rng.standard_normal(6), rng.standard_normal(5))
        B = rng.standard_normal((6, 5))
        short = an_fgm_solve(X, B, eps=1e-6)
        direct = rank1_solve(X, B, eps=1e-6)
        assert short.infimum == pytest.approx(direct.infimum, rel=1e-12, abs=1e-15)
        assert short.attained is direct.attained
        general = an_fgm_solve(
            X, B, SolverConfig(max_iter=4000), eps=1e-6, use_closed_forms=False
        )
        assert abs(direct.infimum - general.infimum) <= 1e-7 * max(1.0, direct.infimum)
        if direct.attained:
            checked_attained += 1
            assert abs(direct.objective - general.objective) <= 1e-7 * max(1.0, direct.objective)
    assert checked_attained >= 3


@pytest.mark.parametrize("ratio", [1e-10, 1e-9])
def test_rank1_shortcut_agrees_with_general_path_on_a_tiny_coupling(ratio):
    # t = -1 < 0 and |w| / |B v| = ratio: w is zero under KERNEL_TOL on
    # both routes, so both report the infimum attained by A = 0
    X = np.array([[1.0], [0.0], [0.0]])
    B = np.array([[-1.0], [ratio], [0.0]])
    direct = rank1_solve(X, B)
    general = an_fgm_solve(X, B, use_closed_forms=False)
    assert direct.attained is True
    assert general.attained is True
    assert direct.infimum == pytest.approx(general.infimum, rel=1e-12)


def test_negative_case_shortcut_matches_general_path():
    rng = np.random.default_rng(13)
    for t in range(5):
        n, m, r = 7, 6, 3
        G = rng.standard_normal((n, m))
        U, s, Vh = np.linalg.svd(G, full_matrices=False)
        s[r:] = 0.0
        X = (U * s) @ Vh
        # -X plus a component outside the range of X keeps the negative
        # condition while exercising the offset term
        B = -X + (np.eye(n) - U[:, :r] @ U[:, :r].T) @ rng.standard_normal((n, m))
        red = reduce_problem(X, B)
        closed = negative_case_solution(red, X, B, eps=1e-6)
        assert closed is not None
        general = an_fgm_solve(
            X, B, SolverConfig(max_iter=3000), eps=1e-6, use_closed_forms=False
        )
        assert closed.infimum == pytest.approx(general.infimum, rel=1e-8)
        shortcut = an_fgm_solve(X, B, eps=1e-6)
        assert shortcut.attained is False
        assert shortcut.infimum == pytest.approx(closed.infimum, rel=1e-12)


def test_negative_case_with_zero_forced_block_is_attained():
    # B = -X: the negative condition holds and Z = 0, so A = 0 attains
    # the infimum |X|_F^2 = 5, as the iterative route also finds
    X = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    sol = an_fgm_solve(X, -X)
    assert sol.attained is True
    assert np.allclose(sol.A, 0.0, rtol=0.0, atol=1e-12)
    assert sol.infimum == pytest.approx(5.0, rel=1e-12)
    assert sol.lower_bound == sol.infimum and sol.gap == 0.0
    assert an_fgm_solve(X, -X, use_closed_forms=False).attained is True
    # the attained A = 0 needs no eps: eps = 10, above the eps-route's
    # bound |B11|^2 = 5, is accepted as on the iterative route
    sol = an_fgm_solve(X, -X, eps=10.0)
    assert sol.attained is True and np.array_equal(sol.A, np.zeros((3, 3)))
    assert an_fgm_solve(X, -X, eps=10.0, use_closed_forms=False).attained is True


@pytest.mark.parametrize("d", [1e-12, 1e-9])
def test_negative_case_with_forced_block_below_the_kernel_rule_is_psd(d):
    # Z = [d, 0] is zero under KERNEL_TOL, so A = 0 attains; assembling
    # the forced block without taking it off ker(A11) gave eigenvalues +-d
    X = np.diag([1.0, 2.0, 0.0])
    B = -X
    B[2, 0] = d
    for sol in (an_fgm_solve(X, B), an_fgm_solve(X, B, use_closed_forms=False)):
        assert sol.attained is True
        w = np.linalg.eigvalsh(sol.A)
        assert w[0] >= -1e-9 * np.abs(w).max()
    red = reduce_problem(X, B)
    zero = make_subproblem_solution(np.zeros((2, 2)), red)
    assert np.array_equal(assemble_optimal(red, zero).A, np.zeros((3, 3)))


def test_negative_route_tests_and_builds_once(monkeypatch):
    # Z = 0: A = 0 is returned and no eps-solution is assembled; Z != 0
    # with a user eps: one condition eigvalsh and one assembly
    builds, tests = [], []
    rotate, eigvalsh = reduction._rotate_blocks, np.linalg.eigvalsh
    monkeypatch.setattr(reduction, "_rotate_blocks", lambda *a, **k: builds.append(1) or rotate(*a, **k))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: tests.append(1) or eigvalsh(M))
    X = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    for eps in (None, 0.5):
        assert an_fgm_solve(X, -X, eps=eps).attained is True
    assert builds == [] and len(tests) == 2
    del tests[:]
    B = -X
    B[2] = [0.3, -0.7]
    sol = an_fgm_solve(X, B, eps=1e-3)
    assert sol.attained is False and sol.epsilon == 1e-3
    assert builds == [1] and tests == [1]


def test_negative_route_builds_the_zero_candidate_once(monkeypatch):
    # the Z = 0 test and the eps-lift read one cached zero candidate
    built = []
    make = reduction.make_subproblem_solution

    def counted(*args):
        built.append(1)
        return make(*args)

    monkeypatch.setattr(reduction, "make_subproblem_solution", counted)
    monkeypatch.setattr(pipeline, "make_subproblem_solution", counted)
    X = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    B = -X
    B[2] = [0.3, -0.7]
    sol = an_fgm_solve(X, B, eps=1e-3)
    assert sol.attained is False and sol.gap == 0.0
    assert len(built) == 1


def test_closed_form_routes_need_no_eigensolver(monkeypatch):
    # the closed forms hand a diagonal candidate to the shared code, which
    # factors it by a sort: no route below runs an eigensolver, and an
    # attained rank-one answer is the one assemble_optimal built
    eighs, optimal = [], []
    eigh, assemble = np.linalg.eigh, reduction.assemble_optimal
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: eighs.append(1) or eigh(*a, **k))
    monkeypatch.setattr(reduction, "assemble_optimal",
                        lambda *a, **k: optimal.append(assemble(*a, **k)) or optimal[-1])
    Q = np.linalg.qr(np.random.default_rng(19).standard_normal((3, 3)))[0]
    e1 = np.array([[1.0], [0.0], [0.0]])
    X2 = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    cases = (
        (e1, [[2.0], [1.0], [0.0]], True),  # rank one, t > 0
        (e1, [[-1.0], [0.0], [0.0]], True),  # rank one, t <= 0 and w = 0
        (e1, [[-1.0], [1.0], [0.0]], False),  # rank one, t <= 0 and w != 0
        (X2, -X2, True),  # negative case, Z = 0
        (X2, [[-1.0, 0.0], [0.0, -2.0], [0.3, -0.7]], False),  # negative case, Z != 0
    )
    for X, B, attained in cases:
        del optimal[:]
        sol = an_fgm_solve(Q @ X, Q @ np.asarray(B))
        assert sol.attained is attained
        if X.shape[1] == 1 and attained:
            assert len(optimal) == 1 and sol.A is optimal[0].A
    assert eighs == []


def _rank1(rng):
    return np.outer(rng.standard_normal(6), rng.standard_normal(5)), rng.standard_normal((6, 5))


def _negative(rng):
    X = _rank1(rng)[0] + _rank1(rng)[0]
    U = np.linalg.svd(X)[0]
    return X, -X + U[:, 2:] @ rng.standard_normal((4, 5))


def _zero(rng):
    return np.zeros((6, 5)), rng.standard_normal((6, 5))


@pytest.mark.parametrize("make", [_rank1, _negative, _zero])
def test_exact_routes_report_a_zero_gap(make, monkeypatch):
    # rank-one X, the negative case and X = 0 never reach the iteration;
    # their infimum is exact, so the interval closes
    def no_iteration(*args, **kwargs):
        raise AssertionError("the iterative route was taken")

    monkeypatch.setattr(pipeline, "fgm_solve", no_iteration)
    rng = np.random.default_rng(17)
    for _ in range(4):
        sol = an_fgm_solve(*make(rng))
        assert sol.lower_bound == sol.infimum
        assert sol.gap == 0.0


def test_degenerate_x_returns_zero_solution():
    B = np.arange(6.0).reshape(2, 3)
    sol = an_fgm_solve(np.zeros((2, 3)), B)
    assert np.array_equal(sol.A, np.zeros((2, 2)))
    assert sol.objective == pytest.approx(np.linalg.norm(B) ** 2)
    assert sol.attained is True


def test_trace_is_in_original_coordinates():
    # square rank-deficient instance: both the trailing singular spaces
    # are nontrivial, so the offset is strictly positive
    X, B = gen(InstanceSpec("rank_deficient", 10, 10, 17))
    cfg = SolverConfig(max_iter=50)
    sol = an_fgm_solve(X, B, cfg)
    red = reduce_problem(X, B)
    assert red.offset > 0
    objs = np.asarray(sol.trace.objectives)
    # every trace entry includes the offset, so it is bounded below by
    # sqrt(offset) and by the certified infimum
    assert (objs**2 >= red.offset - 1e-9).all()
    assert (objs**2 >= sol.infimum - 1e-6 * max(1.0, sol.infimum)).all()
    # the run certifies at its first gap check
    assert len(objs) == GAP_FIRST + 1


def test_all_method_traces_bounded_below_by_infimum():
    rng = np.random.default_rng(19)
    X = rng.standard_normal((6, 6))
    B = rng.standard_normal((6, 6))
    cert = an_fgm_solve(X, B, SolverConfig(max_iter=4000))
    for method in ("gradient", "fgm", "partan"):
        run = solve(X, B, method=method, cfg=SolverConfig(max_iter=300))
        objs = np.asarray(run.trace.objectives) ** 2
        assert (objs >= cert.infimum - 1e-7 * max(1.0, cert.infimum)).all()


def test_traces_start_at_initialization_objective():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((5, 5))
    B = rng.standard_normal((5, 5))
    for method, init, A0 in (
        ("gradient", "zero", np.zeros((5, 5))),
        ("fgm", "diagonal", init_diagonal(X, B)),
    ):
        run = solve(X, B, method=method, init=init, cfg=SolverConfig(max_iter=10))
        expected = np.linalg.norm(A0 @ X - B, "fro")
        assert run.trace.objectives[0] == pytest.approx(expected, rel=1e-12)


def test_dispatch_validation():
    X = np.eye(3)
    B = np.eye(3)
    with pytest.raises(ConfigurationError):
        solve(X, B, method="newton")
    with pytest.raises(ConfigurationError):
        solve(X, B, method="fgm", init="sketchy")
    with pytest.raises(ConfigurationError):
        solve(X, B, method="gradient", init="recursive")
    # eps is the an-fgm accuracy target; the full-space methods refuse it
    for method in ("gradient", "fgm", "partan"):
        with pytest.raises(ConfigurationError):
            solve(X, B, method=method, eps=0.5)
    # an attained instance never reads eps, and a bad one still raises
    X, B = np.diag([3.0, 2.0, 1.0]), np.ones((3, 3))
    assert an_fgm_solve(X, B).attained
    for eps in (-1.0, 0.0, float("nan")):
        with pytest.raises(ParameterError):
            an_fgm_solve(X, B, eps=eps)
        with pytest.raises(ParameterError):
            solve(X, B, eps=eps)


# one instance per an_fgm_solve route: X = 0, rank one, the negative case
# with Z = 0 and with Z != 0 (B = -X plus a block in X's left kernel), and
# the iterative route
NEG_X = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
ROUTES = {
    "zero": (np.zeros((2, 3)), np.ones((2, 3))),
    "rank1": (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])),
    "negative_z0": (NEG_X, -NEG_X),
    "negative": (NEG_X, -NEG_X + np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])),
    "iterative": (np.eye(3), np.eye(3)),
}


@pytest.mark.parametrize("route", ROUTES)
def test_unknown_sub_init_raises_before_any_route(route):
    X, B = ROUTES[route]
    with pytest.raises(ConfigurationError):
        an_fgm_solve(X, B, sub_init="bogus")
    # only the iterative route runs iterations and carries a trace
    assert (an_fgm_solve(X, B).trace is not None) == (route == "iterative")


def test_dispatch_defaults():
    rng = np.random.default_rng(29)
    X = rng.standard_normal((5, 6))
    B = rng.standard_normal((5, 6))
    an = solve(X, B, cfg=SolverConfig(max_iter=500))
    assert an.infimum is not None  # an-fgm route certifies the infimum
    fg = solve(X, B, method="fgm", cfg=SolverConfig(max_iter=50))
    assert fg.infimum is None  # plain iterative route cannot
    assert fg.trace.objectives[0] == pytest.approx(
        np.linalg.norm(init_diagonal(X, B) @ X - B, "fro"), rel=1e-12
    )


def test_mostly_unattained_on_tall_instances():
    # with n = 2m the trailing coupling rarely vanishes, so the infimum
    # is almost never attained on random instances
    unattained = 0
    for t in range(10):
        X, B = gen(InstanceSpec("gaussian", 20, 10, 300 + t))
        sol = an_fgm_solve(X, B, SolverConfig(max_iter=1500))
        unattained += 0 if sol.attained else 1
        assert sol.objective < sol.infimum + sol.epsilon
    assert unattained >= 9


def test_one_block_start_still_certifies_at_the_first_check():
    # sigma1 of a rank-deficient tall X fits in one block, so the reduced
    # run starts from the diagonal rule with no warm-up run, and its first
    # gap check (iteration 8) certifies
    X, B = gen(InstanceSpec("rank_deficient", 120, 40, 7))
    red = reduce_problem(X, B)
    assert red.r == 20 and red.sigma1[0] / red.sigma1[-1] <= KAPPA_MAX
    sol = an_fgm_solve(X, B)
    assert len(sol.trace) == GAP_FIRST + 1
    assert sol.gap <= GAP_TOL


def test_reduced_subproblem_is_strongly_convex():
    # even for rank-deficient X the reduced data matrix is positive
    # definite, so the fast method regains its linear rate
    X, B = gen(InstanceSpec("rank_deficient", 16, 16, 4))
    red = reduce_problem(X, B)
    assert red.r == 8
    assert red.sigma1[-1] > 0
    kappa_sub = (red.sigma1[0] / red.sigma1[-1]) ** 2
    s_full = np.linalg.svd(X, compute_uv=False)
    assert s_full[-1] <= 1e-10  # the full problem has no convexity modulus
    assert np.isfinite(kappa_sub)


def test_tall_speedup_per_iteration():
    # n = 2m: the reduction halves the eigendecomposition size, which
    # should at least double per-iteration speed.  The reduced loop of
    # an_fgm_solve runs without its certificate, so both medians come
    # from the same 250 iterations
    X, B = gen(InstanceSpec("gaussian", 100, 50, 5))
    cfg = SolverConfig(max_iter=250)
    full = fgm_solve(X, B, init_diagonal(X, B), cfg)
    red = reduce_problem(X, B)
    Xsub = np.diag(red.sigma1)
    fast = fgm_solve(Xsub, red.B11, init_recursive(red.sigma1, red.B11), cfg, precondition=True)
    t_full = np.median(np.diff(full.trace.timestamps))
    t_fast = np.median(np.diff(fast.trace.timestamps))
    assert t_full / t_fast >= 2.0


def test_rankdef_speedup_per_iteration():
    # r = n/2 at n = 100: the cost model predicts about 4x per
    # iteration; allow measurement noise but require a clear multiple.
    # The reduced loop of an_fgm_solve runs without its certificate, so
    # both medians come from the same 250 iterations.  The two runs
    # alternate five times and each side keeps its best median, so a
    # busy spell of the host does not decide the ratio
    X, B = gen(InstanceSpec("rank_deficient", 100, 100, 5))
    cfg = SolverConfig(max_iter=250)
    red = reduce_problem(X, B)
    Xsub = np.diag(red.sigma1)
    A0_full, A0_fast = init_diagonal(X, B), init_recursive(red.sigma1, red.B11)
    t_full, t_fast = [], []
    for _ in range(5):
        full = fgm_solve(X, B, A0_full, cfg)
        t_full.append(np.median(np.diff(full.trace.timestamps)))
        fast = fgm_solve(Xsub, red.B11, A0_fast, cfg, precondition=True)
        t_fast.append(np.median(np.diff(fast.trace.timestamps)))
    assert min(t_full) / min(t_fast) >= 3.0
