"""Command-line interface: exit codes, file round trips, CSV output."""

import os
import subprocess
import sys

import numpy as np
import pytest

from psdp import NumericError, cli, fro_norm, gen, matrixio
from psdp.bench import InstanceSpec


def write_instance(tmp_path, X, B):
    xp = os.path.join(tmp_path, "X.txt")
    bp = os.path.join(tmp_path, "B.txt")
    matrixio.write_matrix(xp, X)
    matrixio.write_matrix(bp, B)
    return xp, bp


def capture_solution(capsys, tmp_path):
    # stdout uses the same format as the file writer, so reuse the reader
    out = capsys.readouterr().out
    path = os.path.join(tmp_path, "stdout.txt")
    with open(path, "w") as fh:
        fh.write(out)
    return matrixio.read_header(path), matrixio.read_matrix(path)


def test_gen_writes_round_trip_files(tmp_path):
    prefix = os.path.join(tmp_path, "inst")
    rc = cli.main(["gen", "--family", "rankdef", "--n", "8", "--m", "6",
                   "--seed", "11", "--out", prefix])
    assert rc == 0
    X = matrixio.read_matrix(prefix + ".X.txt")
    B = matrixio.read_matrix(prefix + ".B.txt")
    Xref, Bref = gen(InstanceSpec("rank_deficient", 8, 6, 11))
    assert np.array_equal(X, Xref) and np.array_equal(B, Bref)


def test_gen_default_sizes(tmp_path):
    prefix = os.path.join(tmp_path, "ladder")
    assert cli.main(["gen", "--family", "init", "--out", prefix]) == 0
    assert matrixio.read_matrix(prefix + ".X.txt").shape == (37, 37)
    prefix = os.path.join(tmp_path, "gauss")
    assert cli.main(["gen", "--out", prefix]) == 0
    assert matrixio.read_matrix(prefix + ".X.txt").shape == (50, 50)


def test_solve_stdout(tmp_path, capsys):
    # square full-rank X: no forced trailing block, infimum attained
    X, B = gen(InstanceSpec("gaussian", 7, 7, 3))
    xp, bp = write_instance(tmp_path, X, B)
    assert cli.main(["solve", xp, bp]) == 0
    header, A = capture_solution(capsys, tmp_path)
    assert A.shape == (7, 7)
    assert np.allclose(A, A.T)
    assert np.linalg.eigvalsh((A + A.T) / 2).min() > -1e-8
    assert float(header["objective"]) == pytest.approx(fro_norm(A @ X - B) ** 2, rel=1e-8)
    assert header["attained"] == "true"


def test_solve_out_file_and_seed(tmp_path):
    X, B = gen(InstanceSpec("gaussian", 6, 6, 4))
    xp, bp = write_instance(tmp_path, X, B)
    out = os.path.join(tmp_path, "A.txt")
    rc = cli.main(["solve", xp, bp, "--method", "fgm", "--init", "diagonal",
                   "--max-iter", "200", "--seed", "4", "--out", out])
    assert rc == 0
    header = matrixio.read_header(out)
    assert header["seed"] == "4"
    assert "objective" in header
    A = matrixio.read_matrix(out)
    assert A.shape == (6, 6)


def test_solve_unattained_reports_epsilon(tmp_path, capsys):
    # rank-1 X with u'Bv = 0 and a nonzero forced block: infimum not attained
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    B = np.array([[0.0, 0.0], [1.0, 0.0]])
    xp, bp = write_instance(tmp_path, X, B)
    assert cli.main(["solve", xp, bp]) == 0
    header, A = capture_solution(capsys, tmp_path)
    assert header["attained"] == "false"
    assert float(header["epsilon"]) > 0
    assert float(header["objective"]) > float(header["infimum"])
    # the rank-one closed form runs no iterations and carries no trace
    assert "iterations" not in header
    # nor does A = 0, optimal when X = 0 and in the negative case with Z = 0
    neg = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    for X, B in ((np.zeros((2, 3)), np.ones((2, 3))), (neg, -neg)):
        xp, bp = write_instance(tmp_path, X, B)
        assert cli.main(["solve", xp, bp]) == 0
        header, A = capture_solution(capsys, tmp_path)
        assert header["attained"] == "true" and not A.any()
        assert "iterations" not in header


def test_solve_reports_the_certifying_iteration(tmp_path, capsys):
    # a rank-deficient instance takes the iterative route and certifies
    # at the first gap check, iteration 8
    X, B = gen(InstanceSpec("rank_deficient", 12, 9, 5))
    xp, bp = write_instance(tmp_path, X, B)
    assert cli.main(["solve", xp, bp]) == 0
    header, _ = capture_solution(capsys, tmp_path)
    assert header["iterations"] == "8"
    assert float(header["gap"]) <= 1e-12


def test_solve_rejects_bad_method_combo(tmp_path, capsys):
    X, B = gen(InstanceSpec("gaussian", 5, 5, 0))
    xp, bp = write_instance(tmp_path, X, B)
    rc = cli.main(["solve", xp, bp, "--method", "gradient", "--init", "recursive"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    rc = cli.main(["solve", xp, bp, "--method", "fgm", "--eps", "0.5"])
    assert rc == 2
    assert "an-fgm" in capsys.readouterr().err


def test_negative_seed_is_a_configuration_error(tmp_path, capsys):
    rc = cli.main(["gen", "--seed", "-1", "--out", os.path.join(tmp_path, "inst")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    rc = cli.main(["bench", "solver-exp", "--trials", "1", "--iters", "2", "--size", "4",
                   "--seed", "-3", "--out-dir", os.path.join(tmp_path, "res")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_bad_scalar_is_a_configuration_error(tmp_path, capsys):
    # a NaN condition target is refused by name, before any matrix is written
    rc = cli.main(["gen", "--family", "ill", "--n", "4", "--m", "4", "--kappa", "nan",
                   "--out", os.path.join(tmp_path, "inst")])
    assert rc == 2
    assert "kappa_target" in capsys.readouterr().err
    assert not os.listdir(tmp_path)
    # the instance is attained, so no route reads eps; a negative one still exits 2
    xp, bp = write_instance(tmp_path, np.diag([3.0, 2.0, 1.0]), np.ones((3, 3)))
    assert cli.main(["solve", xp, bp]) == 0
    capsys.readouterr()
    assert cli.main(["solve", xp, bp, "--eps", "-1"]) == 2
    assert "eps" in capsys.readouterr().err


def test_solve_missing_file(tmp_path, capsys):
    X, B = gen(InstanceSpec("gaussian", 5, 5, 0))
    xp, _ = write_instance(tmp_path, X, B)
    rc = cli.main(["solve", xp, os.path.join(tmp_path, "nope.txt")])
    assert rc == 2


def test_solve_malformed_file(tmp_path, capsys):
    xp = os.path.join(tmp_path, "X.txt")
    with open(xp, "w") as fh:
        fh.write("2 2\n1.0 2.0\n3.0 oops\n")
    rc = cli.main(["solve", xp, xp])
    assert rc == 2
    assert "line 3" in capsys.readouterr().err


def test_solve_bad_flag_value(tmp_path, capsys):
    X, B = gen(InstanceSpec("gaussian", 5, 5, 0))
    xp, bp = write_instance(tmp_path, X, B)
    assert cli.main(["solve", xp, bp, "--max-iter", "-3"]) == 2


def test_numeric_failure_exit_code(tmp_path, capsys, monkeypatch):
    X, B = gen(InstanceSpec("gaussian", 5, 5, 0))
    xp, bp = write_instance(tmp_path, X, B)

    def boom(*a, **k):
        raise NumericError("diverged")

    monkeypatch.setattr(cli, "solve", boom)
    assert cli.main(["solve", xp, bp]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_bench_init_exp(tmp_path, capsys):
    out_dir = os.path.join(tmp_path, "res")
    rc = cli.main(["bench", "init-exp", "--trials", "2", "--iters", "3",
                   "--seed", "1", "--out-dir", out_dir])
    assert rc == 0
    assert "initial error" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out_dir, "summary.csv"))
    assert os.path.exists(os.path.join(out_dir, "trace.csv"))


def test_bench_solver_exp(tmp_path, capsys):
    out_dir = os.path.join(tmp_path, "res")
    rc = cli.main(["bench", "solver-exp", "--suite", "rankdef", "--shape", "square",
                   "--trials", "1", "--iters", "20", "--size", "16",
                   "--seed", "2", "--out-dir", out_dir])
    assert rc == 0
    assert "final rel err" in capsys.readouterr().out
    for name in ("summary.csv", "trace.csv", "timing.csv"):
        assert os.path.exists(os.path.join(out_dir, name))


def test_console_entry_point(tmp_path):
    prefix = os.path.join(tmp_path, "inst")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    r = subprocess.run([sys.executable, "-m", "psdp.cli", "gen", "--n", "6",
                        "--m", "4", "--seed", "8", "--out", prefix],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    out = os.path.join(tmp_path, "A.txt")
    r = subprocess.run([sys.executable, "-m", "psdp.cli", "solve",
                        prefix + ".X.txt", prefix + ".B.txt", "--out", out],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert os.path.exists(out)


def test_solve_prints_the_certified_interval(tmp_path, capsys):
    # rank-deficient X takes the iterative route, which certifies a lower bound
    X, B = gen(InstanceSpec("rank_deficient", 8, 8, 5))
    xp, bp = write_instance(tmp_path, X, B)
    assert cli.main(["solve", xp, bp]) == 0
    header, _ = capture_solution(capsys, tmp_path)
    lower, infimum = float(header["lower_bound"]), float(header["infimum"])
    assert 0.0 < lower <= infimum <= float(header["objective"])
    assert float(header["gap"]) == pytest.approx((infimum - lower) / infimum, abs=1e-15)
    # the full-space methods certify nothing and print no interval
    assert cli.main(["solve", xp, bp, "--method", "fgm", "--max-iter", "20"]) == 0
    header, _ = capture_solution(capsys, tmp_path)
    assert "lower_bound" not in header and "gap" not in header


def test_overflowing_data_exits_3(tmp_path, capsys):
    # |B|_F^2 overflows float64: a typed numerical failure, not a traceback
    X, B = gen(InstanceSpec("rank_deficient", 8, 6, 0))
    xp, bp = write_instance(tmp_path, X, 1e160 * B)
    assert cli.main(["solve", xp, bp]) == 3
    assert "overflows" in capsys.readouterr().err
