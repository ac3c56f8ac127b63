"""Initializations: closed forms, the diagonal split, recursion."""

import numpy as np
import pytest

from psdp import (
    DimensionError,
    InapplicableError,
    ParameterError,
    SolverConfig,
    fgm_solve,
    init_diagonal,
    init_recursive,
    init_unconstrained,
    init_zero,
    psd_project,
    split_diagonal,
)
from psdp.bench import LADDER
from psdp.initializers import BLOCK_ITERS


def test_init_zero():
    assert np.array_equal(init_zero(3), np.zeros((3, 3)))
    with pytest.raises(ParameterError):
        init_zero(0)


def test_init_unconstrained_invertible_x():
    rng = np.random.default_rng(3)
    X = np.diag([2.0, 4.0]) + 0.1 * rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 2))
    A0 = init_unconstrained(X, B)
    assert np.allclose(A0, psd_project(B @ np.linalg.inv(X)), atol=1e-10)


def test_init_diagonal_closed_form_is_optimal_per_row():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((5, 4))
    B = rng.standard_normal((5, 4))
    D = init_diagonal(X, B)
    assert np.count_nonzero(D - np.diag(np.diag(D))) == 0
    assert (np.diag(D) >= 0).all()
    base = np.linalg.norm(D @ X - B, "fro")
    # perturbing any nonnegative diagonal entry cannot help
    for i in range(5):
        for delta in (0.05, -0.05):
            d2 = np.diag(D).copy()
            d2[i] = max(0.0, d2[i] + delta)
            assert np.linalg.norm(np.diag(d2) @ X - B, "fro") >= base - 1e-12


def test_init_diagonal_zero_rows():
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    B = np.array([[2.0, 0.0], [3.0, 1.0]])
    D = init_diagonal(X, B)
    assert np.allclose(D, np.diag([2.0, 0.0]))


def test_init_diagonal_never_worse_than_zero():
    rng = np.random.default_rng(7)
    for _ in range(10):
        X = rng.standard_normal((6, 5))
        B = rng.standard_normal((6, 5))
        D = init_diagonal(X, B)
        assert np.linalg.norm(D @ X - B, "fro") <= np.linalg.norm(B, "fro") + 1e-12


def test_split_diagonal_single_block_when_well_conditioned():
    part = split_diagonal(np.array([1.0, 2.0, 3.0]), kappa_max=100.0)
    assert part.blocks == ((0, 3),)
    assert part.kappas == (3.0,)


def test_split_diagonal_frozen_tiny():
    part = split_diagonal(np.array([1.0, 10.0, 100.0]), kappa_max=5.0)
    assert part.blocks == ((0, 1), (1, 2), (2, 3))
    assert part.kappas == (1.0, 1.0, 1.0)


def test_split_diagonal_frozen_ladder():
    # the 37-entry benchmark ladder cuts between 90 and 100, leaving
    # blocks of condition number 90 and 100
    part = split_diagonal(LADDER, kappa_max=100.0)
    assert part.blocks == ((0, 18), (18, 37))
    assert part.kappas == (90.0, 100.0)


def test_split_diagonal_top_cut_is_global_minimizer():
    # single-cut instances expose the chosen index; compare against
    # exhaustive enumeration of max(d[k]/d[0], d[-1]/d[k+1])
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        d = np.sort(np.exp(rng.uniform(0.0, np.log(40.0), n)))
        d *= 1.0 / d[0]
        kappa_max = d[-1] / d[0] * 0.9  # force exactly one level of cuts
        if d[-1] / d[0] <= 1.5:
            continue
        part = split_diagonal(d, kappa_max=kappa_max)
        ks = np.arange(0, n - 1)
        worst = np.maximum(d[ks] / d[0], d[-1] / d[ks + 1])
        best_k = int(ks[worst == worst.min()][0])  # smallest tie
        if len(part.blocks) == 2:
            assert part.blocks[0][1] - 1 == best_k
        else:
            # deeper recursion: the first block stays inside the top-left half
            assert part.blocks[0][1] - 1 <= best_k


def test_split_diagonal_blocks_tile_and_respect_kappa():
    rng = np.random.default_rng(13)
    d = np.sort(np.exp(rng.uniform(0.0, np.log(1e5), 40)))
    part = split_diagonal(d, kappa_max=50.0)
    covered = []
    for (lo, hi), kap in zip(part.blocks, part.kappas):
        covered.extend(range(lo, hi))
        assert kap <= 50.0 + 1e-12
        assert kap == pytest.approx(d[hi - 1] / d[lo], rel=1e-12)
    assert covered == list(range(40))


def test_split_diagonal_validation():
    with pytest.raises(ParameterError):
        split_diagonal(np.array([3.0, 1.0]))  # not ascending
    with pytest.raises(ParameterError):
        split_diagonal(np.array([0.0, 1.0]))  # not positive
    with pytest.raises(ParameterError):
        split_diagonal(np.array([1.0, 2.0]), kappa_max=0.5)


def test_init_recursive_beats_diagonal_on_ladder():
    rng = np.random.default_rng(17)
    X = np.diag(LADDER)
    for _ in range(3):
        B = rng.standard_normal((37, 37))
        A_diag = init_diagonal(X, B)
        A_rec = init_recursive(LADDER, B)
        e_diag = np.linalg.norm(A_diag @ X - B, "fro")
        e_rec = np.linalg.norm(A_rec @ X - B, "fro")
        assert e_rec <= e_diag + 1e-9
        assert np.linalg.eigvalsh((A_rec + A_rec.T) / 2).min() >= -1e-10


def test_init_recursive_accepts_any_order_and_matrix_input():
    rng = np.random.default_rng(19)
    d = np.array([5.0, 1.0, 300.0, 40.0])
    B = rng.standard_normal((4, 4))
    A_vec = init_recursive(d, B)
    A_mat = init_recursive(np.diag(d), B)
    assert np.allclose(A_vec, A_mat, atol=1e-12)
    X = np.diag(d)
    assert np.linalg.norm(A_vec @ X - B) <= np.linalg.norm(init_diagonal(X, B) @ X - B) + 1e-9


def test_init_recursive_rejects_bad_input():
    B = np.eye(3)
    with pytest.raises(InapplicableError):
        init_recursive(np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 3.0]]), B)
    with pytest.raises(ParameterError):
        init_recursive(np.array([1.0, -2.0, 3.0]), B)
    with pytest.raises(DimensionError):
        init_recursive(np.array([1.0, 2.0]), B)  # size mismatch with B


def test_init_recursive_one_block_is_the_diagonal_rule():
    # sigma within KAPPA_MAX splits into one block: no warm-up run, the
    # diagonal rule itself, also for unsorted input
    rng = np.random.default_rng(23)
    d = rng.permutation(np.linspace(1.0, 90.0, 20))
    assert len(split_diagonal(np.sort(d)).blocks) == 1
    B = rng.standard_normal((20, 20))
    assert np.array_equal(init_recursive(d, B), init_diagonal(np.diag(d), B))


def test_init_recursive_warms_up_every_block_of_a_split():
    # the ladder splits into blocks; each keeps its BLOCK_ITERS warm-up
    rng = np.random.default_rng(29)
    d = rng.permutation(LADDER)
    B = rng.standard_normal((37, 37))
    order = np.argsort(d, kind="stable")
    part = split_diagonal(d[order])
    assert len(part.blocks) > 1
    ref = np.zeros((37, 37))
    cfg = SolverConfig(max_iter=BLOCK_ITERS, record_trace=False)
    for lo, hi in part.blocks:
        idx = order[lo:hi]
        Xb, Bb = np.diag(d[idx]), B[np.ix_(idx, idx)]
        ref[np.ix_(idx, idx)] = fgm_solve(Xb, Bb, init_diagonal(Xb, Bb), cfg).best_A
    A = init_recursive(d, B)
    assert np.array_equal(A, ref)
    assert not np.array_equal(A, init_diagonal(np.diag(d), B))


@pytest.mark.parametrize("c", [1e160, 1e-160])
def test_init_diagonal_at_extreme_x_scale(c):
    # rows are scaled by a power of two before squaring: (cX, B) gives D / c
    rng = np.random.default_rng(31)
    X, B = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    D = init_diagonal(X, B)
    assert np.allclose(init_diagonal(c * X, B) * c, D, rtol=1e-14, atol=0.0)
