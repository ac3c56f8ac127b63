"""Race the four solvers on one instance family.

Usage: python3 solver_race.py [suite] [shape]
with suite in {well, ill, rankdef} and shape in {square, wide, tall}.

Prints the mean relative error (percent) reached after 1, 10, 100 and
1000 iterations plus the wall time per iteration run, the same numbers
the `psdp bench solver-exp` command writes to CSV.  A run that stops
early (an-fgm, once its gap is certified) holds its last value in the
later columns.
"""

import sys

from psdp import run_solver_experiment

suite = sys.argv[1] if len(sys.argv) > 1 else "rankdef"
shape = sys.argv[2] if len(sys.argv) > 2 else "square"

rep = run_solver_experiment(suite, shape, trials=5, iters=1000, size=60)

print("suite=%s shape=%s, mean over %d trials\n" % (suite, shape, rep.trials))
print("%-9s %10s %10s %10s %10s %14s" % ("method", "iter 1", "iter 10",
                                         "iter 100", "iter 1000", "ms/iteration"))
for name, curve in rep.mean_curves.items():
    per_iter = 1000.0 * rep.seconds_per_iter(name)
    print("%-9s %10.4f %10.4f %10.4f %10.4f %14.3f"
          % (name, curve[1], curve[10], curve[100], curve[1000], per_iter))

print("\nGradient and FGM work in the full n x n space. The an-fgm")
print("solver first compresses the problem to the rank r of X, so its")
print("iterations are cheaper whenever X is rank deficient or has fewer")
print("columns than rows. It also iterates in the variable")
print("Sigma^(1/2) A Sigma^(1/2), which cuts the iterations it needs from")
print("O(kappa) to O(sqrt(kappa)), kappa = sigma_1 / sigma_r: that is its")
print("lead on the ill-conditioned suite, also on square X, where r = n")
print("and no iteration is cheaper.")
