"""Positive semidefinite Procrustes: inf |A X - B|_F^2 over PSD A.

The package offers a semi-analytical route (reduce to a strongly
convex subproblem, solve it with a fast gradient method, assemble the
answer in closed form) next to classical full-space first-order
solvers, four initializations, deterministic instance generators and a
benchmark harness with a CLI.
"""

from .bench import (
    ExperimentReport,
    InstanceSpec,
    gen,
    run_init_experiment,
    run_solver_experiment,
)
from .errors import (
    ConfigurationError,
    ConstraintViolationError,
    DegenerateProblemError,
    DimensionError,
    InapplicableError,
    MatrixParseError,
    NotAttainedError,
    NumericError,
    ParameterError,
    PsdpError,
)
from .initializers import (
    Partition,
    init_diagonal,
    init_recursive,
    init_unconstrained,
    init_zero,
    split_diagonal,
)
from .matcore import (
    SvdFactors,
    SymEig,
    eigh_sorted,
    fro_norm,
    is_psd,
    pinv_psd,
    psd_project,
    svd,
    sym_part,
)
from .matrixio import read_matrix, write_matrix, write_solution
from .pipeline import an_fgm_solve, solve
from .reduction import (
    ReducedProblem,
    SubproblemSolution,
    assemble_epsilon,
    assemble_optimal,
    default_epsilon,
    infimum_value,
    kernel_contained,
    make_subproblem_solution,
    minimal_norm_completion,
    negative_case_solution,
    rank1_solve,
    reduce_problem,
)
from .solution import IterateTrace, PsdpSolution
from .solvers import (
    SolverConfig,
    fgm_solve,
    gradient,
    gradient_solve,
    partan_solve,
    precompute,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ConstraintViolationError",
    "DegenerateProblemError",
    "DimensionError",
    "ExperimentReport",
    "InapplicableError",
    "InstanceSpec",
    "IterateTrace",
    "MatrixParseError",
    "NotAttainedError",
    "NumericError",
    "ParameterError",
    "Partition",
    "PsdpError",
    "PsdpSolution",
    "ReducedProblem",
    "SolverConfig",
    "SubproblemSolution",
    "SvdFactors",
    "SymEig",
    "an_fgm_solve",
    "assemble_epsilon",
    "assemble_optimal",
    "default_epsilon",
    "eigh_sorted",
    "fgm_solve",
    "fro_norm",
    "gen",
    "gradient",
    "gradient_solve",
    "infimum_value",
    "init_diagonal",
    "init_recursive",
    "init_unconstrained",
    "init_zero",
    "is_psd",
    "kernel_contained",
    "make_subproblem_solution",
    "minimal_norm_completion",
    "negative_case_solution",
    "partan_solve",
    "pinv_psd",
    "precompute",
    "psd_project",
    "rank1_solve",
    "read_matrix",
    "reduce_problem",
    "run_init_experiment",
    "run_solver_experiment",
    "solve",
    "split_diagonal",
    "svd",
    "sym_part",
    "write_matrix",
    "write_solution",
]
