"""End-to-end solve: reduction, closed forms, and the reduced solver.

``an_fgm_solve`` is the semi-analytical route: reduce the instance to
its strongly convex r-by-r subproblem, short-circuit to a closed form
when one applies (rank-one X, or the negative semidefinite condition),
otherwise run the fast gradient method from the recursive
initialization until a closed-form dual bound certifies the subproblem
optimum to rounding level or the budget ends, and assemble the result
back in original coordinates, exactly when the infimum is attained and
to any admissible eps when it is not.  Iterating on the reduced
problem costs O(r^3) per iteration instead of O(n^3) and always enjoys
a positive strong-convexity modulus, so the method is both cheaper per
step and linearly convergent.  The reduced run steps on the congruent
variable Sigma1^{1/2} A11 Sigma1^{1/2} (``fgm_solve(..., precondition=True)``),
which lowers the condition number of the subproblem from kappa^2 to about
kappa / 2, kappa = sigma_1 / sigma_r: O(sqrt(kappa)) iterations instead
of O(kappa).  The recursive initialization keeps the plain loop on its
blocks, which it splits to condition numbers of at most 100; a
subproblem that needs no split starts from the diagonal rule.

``solve`` is the user-facing dispatcher over the four methods and four
initializations.
"""

import numpy as np

from .errors import ConfigurationError, DegenerateProblemError, NotAttainedError
from .initializers import init_diagonal, init_recursive, init_unconstrained, init_zero
from .matcore import as_pair, fro_norm
from .reduction import (
    assemble_epsilon,
    assemble_optimal,
    dual_bound,
    kernel_contained,
    make_subproblem_solution,
    negative_case_solution,
    rank1_solve,
    reduce_problem,
    relative_gap,
)
from .solution import IterateTrace, PsdpSolution
from .solvers import fgm_solve, gradient_solve, partan_solve

METHODS = ("gradient", "fgm", "partan", "an-fgm")

# name -> (X, B) -> A0; "recursive" needs a diagonal X.  The entries
# resolve the init_* names at call time, through this module's attributes.
INITIALIZERS = {
    "zero": lambda X, B: init_zero(X.shape[0]),
    "unconstrained": lambda X, B: init_unconstrained(X, B),
    "diagonal": lambda X, B: init_diagonal(X, B),
    "recursive": lambda X, B: init_recursive(X, B),
}


def _zero_solution(B):
    """A = 0 at objective |B|_F^2, optimal when X = 0 or in the negative case with Z = 0."""
    B = np.asarray(B, dtype=float)
    value = fro_norm(B) ** 2
    A = np.zeros((B.shape[0], B.shape[0]))
    return PsdpSolution(
        A=A, objective=value, infimum=value, attained=True, lower_bound=value, gap=0.0
    )


def an_fgm_solve(X, B, cfg=None, eps=None, use_closed_forms=True, sub_init="recursive"):
    """Semi-analytical solve of inf |A X - B|_F^2 over PSD A.

    Parameters
    ----------
    X, B : array_like, shape (n, m)
    cfg : SolverConfig, optional
        Budget for the reduced fast-gradient run.
    eps : float, optional
        Accuracy target when the infimum turns out to be unattained;
        defaults to a small value inside the admissible interval.
    use_closed_forms : bool
        When True (default), rank-one instances and instances passing
        the negative semidefinite test bypass the iterative stage.
    sub_init : str
        Initialization for the reduced subproblem, "recursive" by
        default.  An unknown name raises ConfigurationError before any
        route is taken.

    Returns
    -------
    PsdpSolution
        With infimum, attained, lower_bound and gap always filled.  On
        the iterative route the trace is mapped back to original
        coordinates (objective entries are sqrt(subproblem residual^2 +
        offset)), lower_bound is ``dual_bound`` at the returned iterate
        and gap is their ``relative_gap``; the reduced run checks the gap
        at iterations 8, 16 and 32 and then every ``solvers.GAP_EVERY``,
        and stops at the first check with gap <= ``solvers.GAP_TOL``.
        A last check that saw the returned best_A itself is reused.
        The exact routes (X = 0, rank one, the negative case) run no
        iterations and carry no trace; their infimum is exact and gap is 0.
    """
    if sub_init not in INITIALIZERS:
        raise ConfigurationError("unknown initialization %r" % (sub_init,))
    try:
        red = reduce_problem(X, B)
    except DegenerateProblemError:
        return _zero_solution(B)

    if use_closed_forms:
        if red.r == 1:
            return rank1_solve(X, B, eps=eps, red=red)
        if red.r < red.n and red.negative_case:
            # Z = 0 is decided before eps is read or an eps-solution built:
            # then A = 0 attains the infimum
            if kernel_contained(red.zero_candidate, red):
                return _zero_solution(B)
            return negative_case_solution(red, eps=eps)

    Xsub = np.diag(red.sigma1)
    A0 = INITIALIZERS[sub_init](Xsub, red.B11)

    # (sub, bound) of the last gap check, reused when it saw best_A itself
    checked = [None, None]

    def certificate(A11, f):
        sub = make_subproblem_solution(A11, red)
        checked[:] = sub, dual_bound(red, sub)
        return relative_gap(red, f + red.offset, checked[1])

    sub_run = fgm_solve(Xsub, red.B11, A0, cfg, certificate=certificate, precondition=True)
    sub, bound = checked
    if sub is None or sub.A11hat is not sub_run.best_A:
        sub = make_subproblem_solution(sub_run.best_A, red)
        bound = dual_bound(red, sub)

    try:
        out = assemble_optimal(red, sub)
    except NotAttainedError:
        out = assemble_epsilon(red, sub, eps)
    # the bound can exceed the upper estimate only by rounding
    out.lower_bound = min(bound, out.infimum)
    out.gap = relative_gap(red, out.infimum, out.lower_bound)

    if sub_run.trace is not None:
        objs = np.asarray(sub_run.trace.objectives)
        out.trace = IterateTrace(
            objectives=list(np.sqrt(objs**2 + red.offset)),
            timestamps=list(sub_run.trace.timestamps),
        )
    return out


def solve(X, B, method="an-fgm", init=None, cfg=None, eps=None):
    """Solve the PSD Procrustes instance with a named method.

    method is one of "gradient", "fgm", "partan" (full-space iterations
    from a chosen initialization) or "an-fgm" (reduction first; the
    initialization then applies to the reduced subproblem).  init
    defaults to "diagonal" for the full-space methods and "recursive"
    for "an-fgm"; "recursive" is only available with "an-fgm" since it
    requires the diagonal data matrix produced by the reduction.  eps,
    the accuracy target when the infimum is unattained, is read by
    "an-fgm" only; with a full-space method it raises ConfigurationError.
    """
    if method not in METHODS:
        raise ConfigurationError(
            "unknown method %r; choose one of %s" % (method, ", ".join(METHODS))
        )
    if init is not None and init not in INITIALIZERS:
        raise ConfigurationError(
            "unknown initialization %r; choose one of %s" % (init, ", ".join(INITIALIZERS))
        )

    if method == "an-fgm":
        return an_fgm_solve(X, B, cfg=cfg, eps=eps, sub_init=init or "recursive")

    if init == "recursive":
        raise ConfigurationError(
            "the recursive initialization requires method 'an-fgm'"
        )
    if eps is not None:
        raise ConfigurationError("eps applies to method 'an-fgm' only")
    X, B = as_pair(X, B)
    A0 = INITIALIZERS[init or "diagonal"](X, B)
    runner = {"gradient": gradient_solve, "fgm": fgm_solve, "partan": partan_solve}[method]
    return runner(X, B, A0, cfg)
