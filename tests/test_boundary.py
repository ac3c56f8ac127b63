"""The input boundary: user matrices are checked once, where they enter.

Every public entry that takes a user matrix raises a typed error on NaN,
Inf, a wrong rank, an empty array or mismatched shapes; data at the edge
of the float range raises NumericError instead of overflowing; and the
arrays the package builds itself are not rescanned, so the number of
checks a solve makes does not grow with its iteration count.
"""

import numpy as np
import pytest

from psdp import (
    DimensionError,
    InstanceSpec,
    NumericError,
    ParameterError,
    SolverConfig,
    an_fgm_solve,
    fgm_solve,
    gen,
    gradient_solve,
    init_diagonal,
    init_unconstrained,
    partan_solve,
    rank1_solve,
    reduce_problem,
    solve,
)
from psdp import initializers, matcore, matrixio, pipeline, reduction, solvers

X3 = np.diag([3.0, 2.0, 1.0])
B3 = np.full((3, 3), 0.5)
Z3 = np.zeros((3, 3))

# name -> (X, B, A0) -> call; every entry receives one bad argument
ENTRIES = {
    "an_fgm_solve": lambda X, B, A0: an_fgm_solve(X, B),
    "solve-gradient": lambda X, B, A0: solve(X, B, method="gradient"),
    "solve-fgm": lambda X, B, A0: solve(X, B, method="fgm"),
    "solve-partan": lambda X, B, A0: solve(X, B, method="partan"),
    "solve-an-fgm": lambda X, B, A0: solve(X, B, method="an-fgm"),
    "reduce_problem": lambda X, B, A0: reduce_problem(X, B),
    "rank1_solve": lambda X, B, A0: rank1_solve(X, B),
    "init_diagonal": lambda X, B, A0: init_diagonal(X, B),
    "init_unconstrained": lambda X, B, A0: init_unconstrained(X, B),
    "gradient_solve": lambda X, B, A0: gradient_solve(X, B, A0),
    "fgm_solve": lambda X, B, A0: fgm_solve(X, B, A0),
    "partan_solve": lambda X, B, A0: partan_solve(X, B, A0),
    "fgm_solve-precondition": lambda X, B, A0: fgm_solve(X, B, A0, precondition=True),
}


def _with(M, i, j, value):
    M = M.copy()
    M[i, j] = value
    return M


# name -> ((X, B), A0 of the "A0" entry, expected error)
BAD = {
    "nan-in-X": ((_with(X3, 0, 0, np.nan), B3), _with(Z3, 0, 0, np.nan), ParameterError),
    "inf-in-B": ((X3, _with(B3, 1, 2, np.inf)), _with(Z3, 1, 2, np.inf), ParameterError),
    "one-d": ((np.diag(X3), np.diag(B3)), np.zeros(3), DimensionError),
    "empty": ((np.empty((0, 3)), np.empty((0, 3))), np.empty((0, 3)), DimensionError),
    "mismatched": ((X3, B3[:, :2]), Z3[:2, :2], DimensionError),
}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("entry", list(ENTRIES) + ["A0"])
def test_public_entries_raise_typed_errors(entry, bad):
    (X, B), A0, error = BAD[bad]
    with pytest.raises(error):
        if entry == "A0":
            fgm_solve(X3, B3, A0)
        else:
            ENTRIES[entry](X, B, Z3)


def _rankdef():
    return gen(InstanceSpec("rank_deficient", 30, 20, 0))


def _rank1():
    rng = np.random.default_rng(3)
    return np.outer(rng.standard_normal(6), rng.standard_normal(4)), rng.standard_normal((6, 4))


def _ill():
    # kappa 1e6 splits into several recursive blocks
    return gen(InstanceSpec("ill_conditioned", 20, 20, 0, kappa_target=1e6))


def _negative():
    # B = -X plus a part outside range(X): the negative case with Z != 0
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
    U = np.linalg.svd(X)[0]
    return X, -X + U[:, 2:] @ rng.standard_normal((4, 4))


# each call overflows |B|_F^2 or sigma_max(X)^2
OVERFLOWS = [
    pytest.param(_rankdef, lambda X, B: an_fgm_solve(X, 1e160 * B), id="an-fgm-rankdef-1e160B"),
    pytest.param(_rank1, lambda X, B: an_fgm_solve(X, 1e160 * B), id="an-fgm-rank1-1e160B"),
]
for _m in ("gradient", "fgm", "partan"):
    OVERFLOWS += [
        pytest.param(_rankdef, lambda X, B, m=_m: solve(1e160 * X, B, method=m), id=_m + "-1e160X"),
        pytest.param(_rankdef, lambda X, B, m=_m: solve(X, 1e160 * B, method=m), id=_m + "-1e160B"),
    ]


@pytest.mark.parametrize("make, call", OVERFLOWS)
def test_float_range_edge_raises_numeric_error(make, call):
    with pytest.raises(NumericError, match="overflows"):
        call(*make())


@pytest.mark.parametrize("c, d", [(1.0, 1e150), (1e160, 1.0), (1e-160, 1.0)])
@pytest.mark.parametrize("make", [_rankdef, _rank1, _ill], ids=["rankdef", "rank1", "ill"])
def test_semi_analytical_route_solves_near_the_edge(make, c, d):
    X, B = make()
    sol = an_fgm_solve(c * X, d * B)
    assert np.isfinite(sol.A).all() and np.isfinite(sol.objective)
    assert sol.lower_bound <= sol.infimum


def _record_checks(monkeypatch):
    """The list the id of every array passed to ``as_matrix`` is appended to."""
    seen = []
    original = matcore.as_matrix

    def recorded(M, *args, **kwargs):
        seen.append(id(M))
        return original(M, *args, **kwargs)

    for mod in (matcore, reduction, solvers, initializers, pipeline, matrixio):
        if hasattr(mod, "as_matrix"):
            monkeypatch.setattr(mod, "as_matrix", recorded)
    return seen


@pytest.mark.parametrize("run", [
    pytest.param(lambda X, B, cfg: an_fgm_solve(X, B, cfg=cfg), id="an_fgm_solve"),
    pytest.param(lambda X, B, cfg: solve(X, B, method="fgm", cfg=cfg), id="full-space-fgm"),
])
def test_input_checks_do_not_grow_with_iterations(run, monkeypatch):
    # an ill-conditioned 60x60 instance never certifies within 1000
    # iterations, so both runs take their full budget
    X, B = gen(InstanceSpec("ill_conditioned", 60, 60, 0, kappa_target=1e6))
    seen = _record_checks(monkeypatch)
    counts = []
    for max_iter in (100, 1000):
        del seen[:]
        sol = run(X, B, SolverConfig(max_iter=max_iter))
        assert len(sol.trace) == max_iter + 1
        counts.append(len(seen))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("make, route", [
    (_rankdef, "iterative"), (_rank1, "rank1"), (_negative, "negative"),
])
def test_an_fgm_solve_checks_the_callers_x_once(make, route, monkeypatch):
    X, B = make()
    red = reduce_problem(X, B)
    assert route == ("rank1" if red.r == 1 else "negative" if red.negative_case else "iterative")
    seen = _record_checks(monkeypatch)
    an_fgm_solve(X, B)
    assert seen.count(id(X)) == 1
