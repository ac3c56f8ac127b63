"""Result containers shared by the closed-form and iterative solvers."""

from dataclasses import dataclass, field


@dataclass
class IterateTrace:
    """Per-iteration history of a solver run.

    objectives holds the residual norms |A_k X - B|_F, entry 0 being the
    objective of the initialization.  timestamps holds seconds elapsed
    since the start of the solve, aligned with objectives.
    """

    objectives: list = field(default_factory=list)
    timestamps: list = field(default_factory=list)

    def __len__(self):
        return len(self.objectives)


@dataclass
class PsdpSolution:
    """Outcome of a solve of inf_{A psd} |A X - B|_F^2.

    objective is the squared Frobenius residual of ``A``.  infimum and
    attained are filled by the closed-form routes, which can certify
    them; purely iterative solvers leave both None.  When the infimum is
    not attained, ``A`` is an epsilon-suboptimal feasible point and
    epsilon records the accuracy target, with objective < infimum +
    epsilon.  best_A / best_objective track the best iterate seen, which
    for non-monotone methods can differ from the final one.
    """

    A: object
    objective: float
    infimum: float = None
    attained: bool = None
    epsilon: float = None
    trace: IterateTrace = None
    best_A: object = None
    best_objective: float = None

    def __post_init__(self):
        if self.best_A is None:
            self.best_A = self.A
        if self.best_objective is None:
            self.best_objective = self.objective
