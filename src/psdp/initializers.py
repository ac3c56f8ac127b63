"""Starting points for the iterative solvers.

Four initializations of increasing sophistication:

* zero matrix;
* PSD projection of the unconstrained least-squares solution B X^+;
* best PSD diagonal, solvable row by row in closed form;
* recursive splitting for diagonal X: partition the (sorted) diagonal
  into blocks of condition number at most KAPPA_MAX, warm-start each
  block with the diagonal rule plus a short fast-gradient run, and
  assemble the results block-diagonally.  Cheap because each block is
  well conditioned, and it never trails the diagonal rule.  A split
  that finds one block returns the diagonal rule: a warm-up run on the
  whole subproblem is the solver's own job.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InapplicableError, ParameterError
from .matcore import as_pair, psd_project
from .solvers import SolverConfig, fgm_solve

# condition-number ceiling for the recursive blocks and the length of
# the warm-up fast-gradient run on each block
KAPPA_MAX = 100.0
BLOCK_ITERS = 100


def init_zero(n):
    """The zero matrix of order n."""
    if n < 1:
        raise ParameterError("n must be positive, got %r" % (n,))
    return np.zeros((n, n))


def init_unconstrained(X, B):
    """PSD projection of the unconstrained minimizer B X^+."""
    X, B = as_pair(X, B)
    return psd_project(B @ np.linalg.pinv(X))


def init_diagonal(X, B):
    """Best nonnegative diagonal matrix, minimizing |D X - B|_F.

    Row i decouples: d_i = max(0, <B_i, X_i> / |X_i|^2), and rows of X
    that vanish get d_i = 0.  Each row of X is scaled by the power of two
    2^e nearest above its largest entry before squaring, and d_i by 2^-e
    after, so |X_i|^2 neither overflows nor underflows; both scalings are
    exact, so d is bitwise that of the unscaled formula wherever the
    unscaled |X_i|^2 is itself free of overflow and underflow.
    """
    X, B = as_pair(X, B)
    e = np.frexp(np.abs(X).max(axis=1))[1]
    Xs = np.ldexp(X, -e[:, None])
    row_sq = np.sum(Xs * Xs, axis=1)
    cross = np.sum(B * Xs, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.where(row_sq > 0.0, cross / np.where(row_sq > 0.0, row_sq, 1.0), 0.0)
    return np.diag(np.maximum(np.ldexp(d, -e), 0.0))


@dataclass(frozen=True)
class Partition:
    """Contiguous blocks (start, stop) over an ascending diagonal.

    kappas holds the condition number d[stop-1] / d[start] of each
    block; all are at most the ceiling used during the split.
    """

    blocks: tuple
    kappas: tuple


def split_diagonal(d, kappa_max=KAPPA_MAX):
    """Split an ascending positive diagonal into well-conditioned blocks.

    A block whose condition number exceeds ``kappa_max`` is cut at the
    index k minimizing max(d[k] / d[first], d[last] / d[k+1]), ties
    going to the smallest k, and the halves are split recursively.
    Terminates because every cut strictly shrinks both condition
    numbers below the parent's.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ParameterError("d must be a non-empty 1-D array")
    if not (d > 0).all():
        raise ParameterError("diagonal entries must be positive")
    if (np.diff(d) < 0).any():
        raise ParameterError("diagonal entries must be ascending")
    if kappa_max < 1.0:
        raise ParameterError("kappa_max must be at least 1, got %r" % (kappa_max,))

    blocks = []

    def visit(lo, hi):
        if d[hi - 1] / d[lo] <= kappa_max or hi - lo == 1:
            blocks.append((lo, hi))
            return
        ks = np.arange(lo, hi - 1)
        worst = np.maximum(d[ks] / d[lo], d[hi - 1] / d[ks + 1])
        k = int(ks[np.argmin(worst)])
        visit(lo, k + 1)
        visit(k + 1, hi)

    visit(0, d.size)
    kappas = tuple(float(d[hi - 1] / d[lo]) for lo, hi in blocks)
    return Partition(tuple(blocks), kappas)


def init_recursive(sigma1, B11):
    """Recursive block initialization for a diagonal data matrix.

    ``sigma1`` may be a 1-D vector of positive diagonal entries, in any
    order, or a diagonal matrix; anything non-diagonal raises
    InapplicableError.  Entries are sorted ascending and split with
    ``split_diagonal`` at KAPPA_MAX, whose check raises ParameterError
    for an entry that is not positive.  When the split finds one block,
    the whole diagonal is within KAPPA_MAX and the result is
    ``init_diagonal``: the base case, with no warm-up run.  Otherwise
    each block subproblem gets its diagonal initialization refined by
    BLOCK_ITERS fast-gradient iterations using the block's own
    curvature constants; the best block iterate is kept, so the result
    never trails the plain diagonal rule.  The budget is fixed: no
    caller's run budget reaches the blocks.
    """
    sig = np.asarray(sigma1, dtype=float)
    if sig.ndim == 2:
        if sig.shape[0] != sig.shape[1] or np.count_nonzero(sig - np.diag(np.diag(sig))):
            raise InapplicableError("recursive initialization requires a diagonal matrix")
        sig = np.diag(sig)
    if sig.ndim != 1 or sig.size == 0:
        raise ParameterError("sigma1 must be a non-empty vector or diagonal matrix")
    X, B11 = as_pair(np.diag(sig), B11)
    order = np.argsort(sig, kind="stable")
    part = split_diagonal(sig[order])
    if len(part.blocks) == 1:
        return init_diagonal(X, B11)
    bcfg = SolverConfig(max_iter=BLOCK_ITERS, record_trace=False)
    A0 = np.zeros_like(X)
    for lo, hi in part.blocks:
        idx = order[lo:hi]
        # the block runs on sigma_b 2^-e, e even, so its sigma^2 neither overflows
        # nor underflows; the scaling is exact, and its result is mapped back
        e = 2 * (int(np.frexp(sig[idx].max())[1]) // 2)
        Xb = np.diag(np.ldexp(sig[idx], -e))
        Bb = B11[np.ix_(idx, idx)]
        sol = fgm_solve(Xb, Bb, init_diagonal(Xb, Bb), bcfg)
        A0[np.ix_(idx, idx)] = np.ldexp(sol.best_A, -e)
    return A0
