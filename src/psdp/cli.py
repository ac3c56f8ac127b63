"""Command-line interface.

Subcommands:

* ``solve X.txt B.txt``: solve one instance read from matrix text
  files and write the solution (metadata header plus the matrix A).
* ``gen``: generate a seeded benchmark instance and write X and B.
* ``bench init-exp``: the initialization comparison on the diagonal
  ladder.
* ``bench solver-exp``: the solver race on one family/shape panel.

Exit codes: 0 on success, 2 on configuration errors (bad flags, bad
combinations, malformed input files), 3 on numerical failures.
"""

import argparse
import sys

from . import bench, matrixio
from .errors import (
    ConfigurationError,
    ConstraintViolationError,
    DegenerateProblemError,
    DimensionError,
    InapplicableError,
    MatrixParseError,
    NumericError,
    ParameterError,
)
from .pipeline import INITIALIZERS, METHODS, solve
from .solvers import SolverConfig

_CONFIG_ERRORS = (
    ConfigurationError,
    ParameterError,
    DimensionError,
    MatrixParseError,
    InapplicableError,
    ConstraintViolationError,
    OSError,
)

_FAMILY_ALIASES = dict(
    {f: f for f in bench.FAMILIES}, ill="ill_conditioned", rankdef="rank_deficient",
    init="init_experiment",
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="psdp",
        description="Positive semidefinite Procrustes solvers and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance from matrix text files")
    p_solve.add_argument("X", help="path to the data matrix X")
    p_solve.add_argument("B", help="path to the target matrix B")
    p_solve.add_argument("--method", default="an-fgm", choices=METHODS)
    p_solve.add_argument("--init", default=None, choices=tuple(INITIALIZERS))
    p_solve.add_argument("--max-iter", type=int, default=1000)
    p_solve.add_argument("--eps", type=float, default=None,
                         help="accuracy target when the infimum is unattained (an-fgm only)")
    p_solve.add_argument("--seed", type=int, default=None,
                         help="recorded in the output header for provenance")
    p_solve.add_argument("--out", default=None, help="output path (default: stdout)")

    p_gen = sub.add_parser("gen", help="generate a seeded benchmark instance")
    p_gen.add_argument("--family", default="gaussian", choices=sorted(_FAMILY_ALIASES))
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--m", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--kappa", type=float, default=None,
                       help="condition target for the ill-conditioned family")
    p_gen.add_argument("--out", required=True,
                       help="output prefix; writes PREFIX.X.txt and PREFIX.B.txt")

    p_bench = sub.add_parser("bench", help="run a benchmark experiment")
    bench_sub = p_bench.add_subparsers(dest="experiment", required=True)

    p_init = bench_sub.add_parser("init-exp", help="initialization comparison")
    p_init.add_argument("--trials", type=int, default=100)
    p_init.add_argument("--iters", type=int, default=100)
    p_init.add_argument("--seed", type=int, default=2024)
    p_init.add_argument("--out-dir", required=True)

    p_solver = bench_sub.add_parser("solver-exp", help="solver race on one panel")
    p_solver.add_argument("--suite", default="well", choices=bench.SUITES)
    p_solver.add_argument("--shape", default="square", choices=bench.SHAPES)
    p_solver.add_argument("--trials", type=int, default=10)
    p_solver.add_argument("--iters", type=int, default=1000)
    p_solver.add_argument("--size", type=int, default=100)
    p_solver.add_argument("--seed", type=int, default=7)
    p_solver.add_argument("--out-dir", required=True)

    return parser


def _cmd_solve(args):
    X = matrixio.read_matrix(args.X)
    B = matrixio.read_matrix(args.B)
    cfg = SolverConfig(max_iter=args.max_iter)
    sol = solve(X, B, method=args.method, init=args.init, cfg=cfg, eps=args.eps)
    header = matrixio.solution_header(sol)
    if args.seed is not None:
        header["seed"] = str(args.seed)
    if args.out is None:
        sys.stdout.write(matrixio.format_matrix(sol.A, header))
    else:
        matrixio.write_matrix(args.out, sol.A, header=header)
    return 0


def _cmd_gen(args):
    family = _FAMILY_ALIASES[args.family]
    size = 37 if family in ("uniform", "init_experiment") else 50
    n = size if args.n is None else args.n
    m = size if args.m is None else args.m
    spec = bench.InstanceSpec(family, n, m, args.seed, kappa_target=args.kappa)
    X, B = bench.gen(spec)
    matrixio.write_matrix(args.out + ".X.txt", X)
    matrixio.write_matrix(args.out + ".B.txt", B)
    print("wrote %s.X.txt and %s.B.txt" % (args.out, args.out))
    return 0


def _cmd_bench(args):
    if args.experiment == "init-exp":
        reports = bench.run_init_experiment(args.trials, args.iters,
                                            out_dir=args.out_dir, seed0=args.seed)
        for fam, report in reports.items():
            for name, (mean, std) in report.summary.items():
                print("%s %-13s initial error %10.2f +- %.2f" % (fam, name, mean, std))
    else:
        report = bench.run_solver_experiment(args.suite, args.shape, args.trials,
                                             args.iters, size=args.size,
                                             out_dir=args.out_dir, seed0=args.seed)
        for name, (mean, std) in report.summary.items():
            print("%-8s final rel err %8.4f%% +- %.4f  (%.3f s/trial)"
                  % (name, mean, std, report.wall_clock[name]))
    print("CSV written to %s" % args.out_dir)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_bench(args)
    except _CONFIG_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (NumericError, DegenerateProblemError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
