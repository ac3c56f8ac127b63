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
step and linearly convergent.  The reduced run iterates on the congruent
variable Sigma1^{1/2} A11 Sigma1^{1/2} (``fgm_solve(..., precondition=True)``),
which lowers the condition number of the subproblem from kappa^2 to about
kappa / 2, kappa = sigma_1 / sigma_r: O(sqrt(kappa)) iterations instead
of O(kappa).  The recursive initialization keeps the plain loop on its
blocks, which it splits to condition numbers of at most 100.

``solve`` is the user-facing dispatcher over the four methods and four
initializations.
"""

import numpy as np

from .errors import ConfigurationError, DegenerateProblemError, NotAttainedError
from .initializers import init_diagonal, init_recursive, init_unconstrained, init_zero
from .matcore import as_matrix, fro_norm
from .reduction import (
    assemble_epsilon,
    assemble_optimal,
    default_epsilon,
    factor_and_bound,
    infimum_value,
    negative_case_solution,
    rank1_solve,
    reduce_problem,
    relative_gap,
)
# perfbench's tracer wraps these names here
from .reduction import kernel_contained, make_subproblem_solution  # noqa: F401
from .solution import IterateTrace, PsdpSolution
from .solvers import SolverConfig, fgm_solve, gradient_solve, partan_solve

METHODS = ("gradient", "fgm", "partan", "an-fgm")

# name -> (X, B, cfg) -> A0; "recursive" needs a diagonal X.  The entries
# resolve the init_* names at call time, through this module's attributes.
INITIALIZERS = {
    "zero": lambda X, B, cfg: init_zero(X.shape[0]),
    "unconstrained": lambda X, B, cfg: init_unconstrained(X, B),
    "diagonal": lambda X, B, cfg: init_diagonal(X, B),
    "recursive": lambda X, B, cfg: init_recursive(X, B, cfg),
}
INITS = tuple(INITIALIZERS)


def _degenerate_solution(B):
    value = fro_norm(B) ** 2
    A = np.zeros((B.shape[0], B.shape[0]))
    trace = IterateTrace(objectives=[value**0.5], timestamps=[0.0])
    return PsdpSolution(
        A=A, objective=value, infimum=value, attained=True, trace=trace,
        lower_bound=value, gap=0.0,
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
        default.

    Returns
    -------
    PsdpSolution
        With infimum, attained, lower_bound and gap always filled, and
        the trace mapped back to original coordinates (objective entries
        are sqrt(subproblem residual^2 + offset)).  On the iterative
        route lower_bound is ``dual_bound`` at the returned iterate and
        gap = (infimum - lower_bound) / infimum; the reduced run stops
        once gap <= ``solvers.GAP_TOL``.  Elsewhere the infimum is exact
        and gap is 0.
    """
    cfg = cfg or SolverConfig()
    X = as_matrix(X, "X")
    B = as_matrix(B, "B")
    try:
        red = reduce_problem(X, B)
    except DegenerateProblemError:
        return _degenerate_solution(B)

    if use_closed_forms:
        if red.r == 1:
            return rank1_solve(X, B, eps=eps, red=red)
        if red.r < red.n:
            neg = negative_case_solution(red, eps=eps)
            if neg is not None:
                return neg

    if sub_init not in INITIALIZERS:
        raise ConfigurationError("unknown initialization %r" % (sub_init,))
    Xsub = np.diag(red.sigma1)
    A0 = INITIALIZERS[sub_init](Xsub, red.B11, cfg)

    # (sub, bound) of the last gap check, reused when it checked best_A
    checked = [None, None]

    def certificate(A11, f):
        checked[:] = factor_and_bound(red, A11)
        return relative_gap(f + red.offset, checked[1])

    sub_run = fgm_solve(Xsub, red.B11, A0, cfg, certificate=certificate, precondition=True)
    sub, bound = checked
    if sub is None or not np.array_equal(sub.A11hat, sub_run.best_A):
        sub, bound = factor_and_bound(red, sub_run.best_A)

    try:
        out = assemble_optimal(red, sub)
    except NotAttainedError:
        if eps is None:
            eps = default_epsilon(infimum_value(red, sub), sub.residual)
        out = assemble_epsilon(red, sub, eps)
    # the bound can exceed the upper estimate only by rounding
    out.lower_bound = min(bound, out.infimum)
    out.gap = relative_gap(out.infimum, out.lower_bound)

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
    requires the diagonal data matrix produced by the reduction.
    """
    if method not in METHODS:
        raise ConfigurationError(
            "unknown method %r; choose one of %s" % (method, ", ".join(METHODS))
        )
    if init is not None and init not in INITS:
        raise ConfigurationError(
            "unknown initialization %r; choose one of %s" % (init, ", ".join(INITS))
        )
    cfg = cfg or SolverConfig()

    if method == "an-fgm":
        return an_fgm_solve(X, B, cfg=cfg, eps=eps, sub_init=init or "recursive")

    if init == "recursive":
        raise ConfigurationError(
            "the recursive initialization requires method 'an-fgm'"
        )
    X = as_matrix(X, "X")
    B = as_matrix(B, "B")
    A0 = INITIALIZERS[init or "diagonal"](X, B, cfg)
    runner = {"gradient": gradient_solve, "fgm": fgm_solve, "partan": partan_solve}[method]
    return runner(X, B, A0, cfg)
