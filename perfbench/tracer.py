"""Tracing of the psdp layers from outside the package.

``Tracer`` replaces each traced function at the module attribute its
caller resolves at call time with a wrapper that records a span (name,
start, end, parent span, solve id) in memory.  Wrappers only record while
a solve is being traced; otherwise they call straight through.  Leaving
the ``with`` block restores every original attribute, also on exception.
"""

import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name).  A function reached through two module
# attributes is wrapped at both, under one span name; its parent span
# tells the call sites apart.
TARGETS = (
    ("psdp.pipeline", "reduce_problem", "reduction.reduce_problem"),
    ("psdp.pipeline", "rank1_solve", "reduction.rank1_solve"),
    ("psdp.pipeline", "negative_case_solution", "reduction.negative_case_solution"),
    ("psdp.pipeline", "make_subproblem_solution", "reduction.make_subproblem_solution"),
    ("psdp.pipeline", "kernel_contained", "reduction.kernel_contained"),
    ("psdp.pipeline", "assemble_optimal", "reduction.assemble_optimal"),
    ("psdp.pipeline", "assemble_epsilon", "reduction.assemble_epsilon"),
    ("psdp.pipeline", "init_recursive", "initializers.init_recursive"),
    ("psdp.pipeline", "init_diagonal", "initializers.init_diagonal"),
    ("psdp.pipeline", "fgm_solve", "solvers.fgm_solve"),
    ("psdp.pipeline", "gradient_solve", "solvers.gradient_solve"),
    ("psdp.pipeline", "partan_solve", "solvers.partan_solve"),
    ("psdp.initializers", "fgm_solve", "solvers.fgm_solve"),
    ("psdp.solvers", "psd_project", "matcore.psd_project"),
    ("psdp.solvers", "precompute", "solvers.precompute"),
    ("psdp.reduction", "eigh_sorted", "matcore.eigh_sorted"),
    ("psdp.reduction", "pinv_psd", "matcore.pinv_psd"),
    ("psdp.reduction", "svd", "matcore.svd"),
    ("psdp.matcore", "eigh_sorted", "matcore.eigh_sorted"),
    ("numpy.linalg", "eigh", "numpy.linalg.eigh"),
    ("numpy.linalg", "svd", "numpy.linalg.svd"),
    ("numpy.linalg", "eigvalsh", "numpy.linalg.eigvalsh"),
)

NAME, START, END, PARENT, SOLVE, HIT = range(6)


class Tracer:
    """Span recorder; use as ``with Tracer() as tr: with tr.solve(...): ...``.

    Spans are kept in column lists of numbers and strings, which the
    garbage collector does not track, so a long traced run does not slow
    down as spans accumulate.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self._cols = ([], [], [], [], [], [])
        self._stack = []
        self._saved = []
        self._solve = None

    @property
    def spans(self):
        """The spans recorded so far, as [name, start, end, parent, solve, hit] lists."""
        return [list(s) for s in zip(*self._cols)]

    def __enter__(self):
        try:
            for mod_name, attr, name in self.targets:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(orig, name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def _open(self, name):
        cols = self._cols
        idx = len(cols[NAME])
        cols[NAME].append(name)
        cols[START].append(time.perf_counter())
        cols[END].append(0.0)
        cols[PARENT].append(self._stack[-1] if self._stack else -1)
        cols[SOLVE].append(self._solve)
        cols[HIT].append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self._cols[END][idx] = time.perf_counter()

    def _wrap(self, fn, name):
        hits = self._cols[HIT]

        def wrapper(*args, **kwargs):
            if self._solve is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            hits[idx] = out is not None
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def solve(self, solve_id, root_name):
        """Trace one solve: its calls nest under a root span named ``root_name``."""
        self._solve = solve_id
        idx = self._open(root_name)
        try:
            yield
        finally:
            self._close(idx)
            self._solve = None

    def write(self, path):
        """Write the spans as tab-separated lines: name, start, end, parent, solve."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tsolve\n")
            for name, start, end, parent, solve, _ in zip(*self._cols):
                fh.write("%s\t%.9f\t%.9f\t%d\t%s\n" % (name, start, end, parent, solve))


def self_times(spans):
    """Duration of each span minus the time covered by its child spans.

    Children of one span never overlap in a single-threaded call tree, so
    the covered time is the sum of the children's durations.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def nearest_ancestor(spans, names):
    """For each span, the index of the nearest span at or above it named in ``names``, else -1.

    Relies on parents being recorded before their children.
    """
    out = []
    for i, s in enumerate(spans):
        if s[NAME] in names:
            out.append(i)
        elif s[PARENT] >= 0:
            out.append(out[s[PARENT]])
        else:
            out.append(-1)
    return out
