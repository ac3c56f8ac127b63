"""The per-layer split of a traced run.

Per-layer quantities are per traced solve unless the name says otherwise:
``*.calls`` and ``*.s`` are counts and seconds per solve, ``*.self_s``
excludes time covered by traced child calls, ``*_share`` and ``*.share``
are shares of traced solve time.  ``reduction.certify_assemble.eigh_calls``
counts per solve that ran certify + assemble, and ``hit_ratio`` per attempt.
"""

import statistics

from certify import TAU
from tracer import END, HIT, NAME, PARENT, SOLVE, START, nearest_ancestor, self_times

SOLVERS = {"solvers.fgm_solve", "solvers.gradient_solve", "solvers.partan_solve"}
CERTIFY = {
    "reduction.make_subproblem_solution",
    "reduction.kernel_contained",
    "reduction.assemble_optimal",
    "reduction.assemble_epsilon",
}
REDUCTION = CERTIFY | {
    "reduction.reduce_problem",
    "reduction.negative_case_solution",
    "reduction.rank1_solve",
}
ROUTES = ("iterative", "rank1", "negative")


def routes(spans):
    """The route each traced solve took, keyed by solve id (None: no an-fgm route)."""
    out = {}
    for s in spans:
        if s[PARENT] < 0:
            out.setdefault(s[SOLVE], None)
        elif s[NAME] == "reduction.rank1_solve":
            out[s[SOLVE]] = "rank1"
        elif s[NAME] == "reduction.negative_case_solution" and s[HIT]:
            out[s[SOLVE]] = "negative"
        elif s[NAME] in SOLVERS and spans[s[PARENT]][NAME] == "pipeline.an_fgm_solve":
            out[s[SOLVE]] = "iterative"
    return out


def iters_to_gap(objectives, lower_bound):
    """First trace iterate whose squared objective is within TAU of ``lower_bound``."""
    for k, norm in enumerate(objectives):
        obj = norm * norm
        if obj - lower_bound <= TAU * obj:
            return k
    return len(objectives) - 1


def layer_metrics(spans, solves):
    """Per-layer metrics from the spans of the traced solves.

    ``solves`` holds one dict per traced solve with keys ``iterations``,
    ``certified`` and ``iters_to_gap`` (None unless certified with a trace).
    """
    n = len(solves)
    dur = [s[END] - s[START] for s in spans]
    own = self_times(spans)
    proj = nearest_ancestor(spans, {"matcore.psd_project"})
    init = nearest_ancestor(spans, {"initializers.init_recursive"})
    cert = nearest_ancestor(spans, CERTIFY)

    def total(names, values=dur, where=None):
        return sum(
            v for i, (s, v) in enumerate(zip(spans, values))
            if s[NAME] in names and (where is None or where(i, s))
        )

    def count(names, where=None):
        return sum(1 for i, s in enumerate(spans) if s[NAME] in names and (where is None or where(i, s)))

    root_total = sum(d for s, d in zip(spans, dur) if s[PARENT] < 0)
    proj_total = total({"matcore.psd_project"})
    main_solver = lambda i, s: spans[s[PARENT]][PARENT] < 0
    main_solver_s = total(SOLVERS, where=main_solver)
    iterations = sum(x["iterations"] for x in solves)
    neg_calls = count({"reduction.negative_case_solution"})
    neg_hits = count({"reduction.negative_case_solution"}, lambda i, s: s[HIT])
    cert_solves = {s[SOLVE] for s in spans if s[NAME] in CERTIFY}
    route_of = routes(spans)
    gaps = [x["iters_to_gap"] for x in solves if x["iters_to_gap"] is not None]
    return {
        "matcore.psd_project.calls": count({"matcore.psd_project"}) / n,
        "matcore.psd_project.self_s": total({"matcore.psd_project"}, own) / n,
        "matcore.psd_project.eigh_share": (
            total({"numpy.linalg.eigh"}, where=lambda i, s: proj[i] >= 0) / proj_total
            if proj_total else 0.0
        ),
        "matcore.psd_project.share": proj_total / root_total,
        "numpy.linalg.eigh.calls": count({"numpy.linalg.eigh"}) / n,
        "numpy.linalg.eigh.s": total({"numpy.linalg.eigh"}) / n,
        "numpy.linalg.svd.calls": count({"numpy.linalg.svd"}) / n,
        "numpy.linalg.svd.s": total({"numpy.linalg.svd"}) / n,
        "numpy.linalg.eigvalsh.calls": count({"numpy.linalg.eigvalsh"}) / n,
        "solvers.loop.self_s": total(SOLVERS, own) / n,
        "solvers.iterations": iterations / n,
        "solvers.s_per_iter": main_solver_s / iterations if iterations else 0.0,
        "solvers.precompute.s": total({"solvers.precompute"}) / n,
        "solvers.iters_to_gap": statistics.fmean(gaps) if gaps else 0.0,
        "initializers.init_recursive.s": total({"initializers.init_recursive"}) / n,
        "initializers.init_recursive.blocks": count(
            {"solvers.fgm_solve"}, lambda i, s: spans[s[PARENT]][NAME] == "initializers.init_recursive"
        ) / n,
        "initializers.init_recursive.projections": count(
            {"matcore.psd_project"}, lambda i, s: init[i] >= 0
        ) / n,
        "reduction.reduce_problem.s": total({"reduction.reduce_problem"}) / n,
        "reduction.negative_case_solution.s": total({"reduction.negative_case_solution"}) / n,
        "reduction.negative_case_solution.hit_ratio": neg_hits / neg_calls if neg_calls else 0.0,
        "reduction.rank1_solve.s": total({"reduction.rank1_solve"}) / n,
        "reduction.certify_assemble.s": total(CERTIFY) / n,
        "reduction.certify_assemble.eigh_calls": (
            count({"numpy.linalg.eigh"}, lambda i, s: cert[i] >= 0) / len(cert_solves)
            if cert_solves else 0.0
        ),
        "reduction.share": total(REDUCTION) / root_total,
        "pipeline.an_fgm_solve.self_s": total({"pipeline.an_fgm_solve"}, own) / n,
        "pipeline.solve.self_s": total({"pipeline.solve"}, own) / n,
        **{
            "pipeline.route." + r: sum(1 for v in route_of.values() if v == r) / n
            for r in ROUTES
        },
        "certify.certified_frac": sum(1 for x in solves if x["certified"]) / n,
    }
