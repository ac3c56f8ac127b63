"""Instance generation and the benchmark runners."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import psdp
from psdp import InstanceSpec, ParameterError, gen, run_init_experiment, run_solver_experiment
from psdp.bench import LADDER


def test_ladder_contents():
    assert LADDER.shape == (37,)
    assert LADDER[0] == 1.0 and LADDER[-1] == 10000.0
    assert np.array_equal(LADDER[:10], np.arange(1.0, 11.0))
    assert LADDER[-1] / LADDER[0] == pytest.approx(1e4)
    assert (np.diff(LADDER) > 0).all()


def test_spec_validation():
    with pytest.raises(ParameterError):
        InstanceSpec("weird", 5, 5, 0)
    with pytest.raises(ParameterError):
        InstanceSpec("gaussian", 0, 5, 0)
    # a NaN or inf target would make gen return a non-finite X; counts are integers
    for bad in (dict(kappa_target=0.5), dict(kappa_target=float("nan")),
                dict(kappa_target=float("inf")), dict(n=2.5), dict(m=True)):
        with pytest.raises(ParameterError):
            InstanceSpec(**{"family": "ill_conditioned", "n": 5, "m": 5, "seed": 0, **bad})
    # seeds are Philox keys: integers in [0, 2**128), bool excluded
    for seed in (-1, 2**128, 1.5, 1.0, True, "1", None):
        with pytest.raises(ParameterError):
            InstanceSpec("gaussian", 3, 3, seed)
    for seed in (0, np.int64(7), 2**128 - 1):
        X, _ = gen(InstanceSpec("gaussian", 3, 3, seed))
        assert X.shape == (3, 3)


def test_gen_deterministic_and_seed_sensitive():
    spec = InstanceSpec("gaussian", 6, 4, 42)
    X1, B1 = gen(spec)
    X2, B2 = gen(InstanceSpec("gaussian", 6, 4, 42))
    assert np.array_equal(X1, X2) and np.array_equal(B1, B2)
    X3, _ = gen(InstanceSpec("gaussian", 6, 4, 43))
    assert not np.array_equal(X1, X3)


def test_gen_gaussian_shape_and_scale():
    X, B = gen(InstanceSpec("gaussian", 30, 20, 1))
    assert X.shape == (30, 20) and B.shape == (30, 20)
    assert abs(X.mean()) < 0.2 and 0.8 < X.std() < 1.2


def test_gen_ill_conditioned_hits_condition_target():
    for kappa in (1e6, 1e3):
        spec = InstanceSpec("ill_conditioned", 12, 9, 3, kappa_target=kappa)
        X, _ = gen(spec)
        s = np.linalg.svd(X, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(kappa, rel=1e-6)
        # geometric ladder of singular values
        ratios = s[:-1] / s[1:]
        assert np.allclose(ratios, ratios[0], rtol=1e-8)


def test_gen_ill_conditioned_default_kappa():
    X, _ = gen(InstanceSpec("ill_conditioned", 10, 10, 5))
    s = np.linalg.svd(X, compute_uv=False)
    assert s[0] / s[-1] == pytest.approx(1e6, rel=1e-6)


def test_gen_rank_deficient_rank():
    X, _ = gen(InstanceSpec("rank_deficient", 50, 50, 2))
    s = np.linalg.svd(X, compute_uv=False)
    assert np.count_nonzero(s > 1e-10 * s[0]) == 25
    X, _ = gen(InstanceSpec("rank_deficient", 9, 7, 2))  # odd min dimension
    s = np.linalg.svd(X, compute_uv=False)
    assert np.count_nonzero(s > 1e-10 * s[0]) == 4


def test_gen_ladder_families():
    X, B = gen(InstanceSpec("init_experiment", 37, 37, 9))
    assert np.array_equal(X, np.diag(LADDER))
    assert B.min() < 0  # gaussian B
    Xu, Bu = gen(InstanceSpec("uniform", 37, 37, 9))
    assert np.array_equal(Xu, np.diag(LADDER))
    assert Bu.min() >= 0.0 and Bu.max() <= 1.0
    with pytest.raises(ParameterError):
        gen(InstanceSpec("init_experiment", 10, 10, 0))


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_run_init_experiment_report_and_csv(tmp_path):
    reports = run_init_experiment(trials=3, iters=5, out_dir=tmp_path, seed0=77)
    assert set(reports) == {"gaussian", "uniform"}
    for rep in reports.values():
        assert rep.trials == 3 and rep.iters == 5
        for name in ("zero", "unconstrained", "diagonal", "recursive"):
            assert rep.traces[name].shape == (3, 6)
            assert rep.mean_curves[name].shape == (6,)
            assert rep.wall_clock[name] >= 0.0
        # guaranteed orderings of the mean initial error
        assert rep.summary["diagonal"][0] <= rep.summary["zero"][0] + 1e-9
        assert rep.summary["recursive"][0] <= rep.summary["diagonal"][0] + 1e-9
    header, rows = read_csv(os.path.join(tmp_path, "summary.csv"))
    assert header == ["family", "method", "mean", "std"]
    assert len(rows) == 8  # 2 families x 4 initializations
    header, rows = read_csv(os.path.join(tmp_path, "trace.csv"))
    assert header == ["family", "method", "iter", "mean_err"]
    assert len(rows) == 2 * 4 * 6


def test_run_init_experiment_deterministic():
    r1 = run_init_experiment(trials=2, iters=3, seed0=5)
    r2 = run_init_experiment(trials=2, iters=3, seed0=5)
    for fam in ("gaussian", "uniform"):
        for name in r1[fam].mean_curves:
            assert np.array_equal(r1[fam].mean_curves[name], r2[fam].mean_curves[name])


def test_run_init_experiment_zero_iters():
    reports = run_init_experiment(trials=2, iters=0, seed0=5)
    assert reports["gaussian"].traces["zero"].shape == (2, 1)


def test_experiment_counts_are_integers():
    # a NaN count would pass an `iters < 0` test and report iters = nan;
    # a fractional one would reach numpy as a bare TypeError
    for trials, iters in ((1, float("nan")), (1.5, 2), (True, 2), (1, -1)):
        with pytest.raises(ParameterError):
            run_init_experiment(trials, iters)
    for trials, iters in ((1, 0), (1, 2.5), (0, 2)):
        with pytest.raises(ParameterError):
            run_solver_experiment("well", "square", trials, iters, size=4)


def test_run_solver_experiment_report_and_csv(tmp_path):
    rep = run_solver_experiment("well", "square", trials=2, iters=30, size=20,
                                out_dir=tmp_path, seed0=3)
    for name in ("gradient", "fgm", "partan", "an-fgm"):
        assert rep.traces[name].shape == (2, 31)
        assert np.isfinite(rep.traces[name]).all()
        assert (rep.traces[name] > 0).all()
        assert rep.wall_clock[name] > 0
    # traces are relative errors in percent, starting from the shared
    # diagonal initialization for the full-space methods
    assert np.array_equal(rep.traces["gradient"][:, 0], rep.traces["fgm"][:, 0])
    header, rows = read_csv(os.path.join(tmp_path, "trace.csv"))
    assert header == ["iter", "method", "mean_rel_err"]
    assert len(rows) == 4 * 31
    header, rows = read_csv(os.path.join(tmp_path, "summary.csv"))
    assert header == ["family", "method", "mean", "std"]
    assert [r[0] for r in rows] == ["well-square"] * 4
    header, rows = read_csv(os.path.join(tmp_path, "timing.csv"))
    assert header == ["method", "seconds_per_1000_iters"]
    assert all(float(r[1]) > 0 for r in rows)


def test_solver_race_times_the_iterations_run(tmp_path):
    # an-fgm certifies and stops before the budget: its per-iteration
    # time is over the iterations it ran, the full-space runs use all 60
    rep = run_solver_experiment("rankdef", "tall", trials=2, iters=60, size=40,
                                out_dir=tmp_path, seed0=3)
    assert rep.iterations["fgm"] == 60
    assert rep.iterations["an-fgm"] == 8
    _, rows = read_csv(os.path.join(tmp_path, "timing.csv"))
    timing = {name: float(v) for name, v in rows}
    for name in ("gradient", "fgm", "partan", "an-fgm"):
        expected = rep.wall_clock[name] / rep.iterations[name] * 1000.0
        assert timing[name] == pytest.approx(expected, rel=1e-12)


def test_solver_race_on_a_rank_one_panel():
    # size 2, tall: X is 2-by-1 of rank one, so an-fgm takes the closed
    # form, which runs no iterations; its curve holds its final error
    rep = run_solver_experiment("rankdef", "tall", trials=2, iters=5, size=2)
    assert rep.iterations["an-fgm"] == 0
    assert (rep.traces["an-fgm"] == rep.traces["an-fgm"][:, :1]).all()
    assert rep.iterations["fgm"] == 5


def test_run_solver_experiment_shapes():
    rep_w = run_solver_experiment("well", "wide", trials=1, iters=10, size=20, seed0=3)
    rep_t = run_solver_experiment("well", "tall", trials=1, iters=10, size=20, seed0=3)
    assert rep_w.traces["fgm"].shape == (1, 11)
    assert rep_t.traces["fgm"].shape == (1, 11)
    with pytest.raises(ParameterError):
        run_solver_experiment("well", "round", trials=1, iters=10, size=20)
    with pytest.raises(ParameterError):
        run_solver_experiment("soso", "square", trials=1, iters=10, size=20)


def test_run_solver_experiment_deterministic():
    rep1 = run_solver_experiment("rankdef", "square", trials=2, iters=20, size=16, seed0=9)
    rep2 = run_solver_experiment("rankdef", "square", trials=2, iters=20, size=16, seed0=9)
    for name in rep1.mean_curves:
        assert np.array_equal(rep1.mean_curves[name], rep2.mean_curves[name])


def test_import_loads_no_process_pool():
    src = os.path.dirname(os.path.dirname(os.path.abspath(psdp.__file__)))
    code = (
        "import sys, psdp; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
