"""Tests of the benchmark itself: certificate, tracer, route check, smoke run."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import worker  # first: puts the checkout's src on the path

import certify
import tracer as tr
from layers import layer_metrics
from psdp.bench import InstanceSpec, gen
from psdp.solution import PsdpSolution
from run import END_TO_END, PER_LAYER, REPORTED, WORKLOADS
from tracer import Tracer, nearest_ancestor, self_times
from workloads import build_pool, negative_instance, rank1_instance
from worker import pipeline

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _check(X, B, sol):
    return certify.verify(sol, X, B, pipeline.reduce_problem(X, B))


@pytest.mark.parametrize("positive", [True, False])
def test_lower_bound_matches_rank1_infimum(positive):
    for key in range(4):
        X, B = rank1_instance(9, 5, key, positive)
        sol = pipeline.rank1_solve(X, B)
        assert sol.attained is positive
        lb = certify.lower_bound(pipeline.reduce_problem(X, B), sol.A)
        # exact when attained; within the eps of the returned point when not
        slack = 1e-9 * sol.infimum if positive else sol.epsilon
        assert sol.infimum - slack <= lb <= sol.infimum * (1 + 1e-12)


def test_lower_bound_matches_negative_case_infimum():
    for key in range(4):
        X, B = negative_instance(9, 6, key)
        red = pipeline.reduce_problem(X, B)
        sol = pipeline.negative_case_solution(red, X, B)
        assert sol is not None
        lb = certify.lower_bound(red, sol.A)
        assert sol.infimum - sol.epsilon <= lb <= sol.infimum * (1 + 1e-12)


@pytest.mark.parametrize("workload", ["rankdef", "ill", "tall", "fullspace"])
def test_lower_bound_below_objective(workload):
    for item in build_pool(workload, 3, smoke=True):
        v = _check(item.X, item.B, worker.call(item))
        assert v.ok, v.reason
        assert v.lower_bound <= v.objective


def test_corrupted_solutions_fail():
    X, B = gen(InstanceSpec("rank_deficient", 8, 8, 1))
    good = pipeline.an_fgm_solve(X, B)
    assert _check(X, B, good).ok

    def variant(A=None, **kw):
        fields = dict(A=good.A if A is None else A, objective=good.objective,
                      infimum=good.infimum, attained=good.attained, epsilon=good.epsilon)
        fields.update(kw)
        return PsdpSolution(**fields)

    asym = good.A.copy()
    asym[0, 1] += 1.0
    nan = good.A.copy()
    nan[2, 2] = np.nan
    shift = 2.0 * abs(float(np.linalg.eigvalsh(good.A)[-1]))
    cases = [
        variant(A=asym),
        variant(A=nan),
        variant(A=good.A - shift * np.eye(8)),
        variant(A=good.A[:4, :4]),
        variant(objective=good.objective * (1 + 1e-6)),
        variant(attained=False, infimum=good.objective - 1e-3, epsilon=1e-3),
    ]
    for sol in cases:
        assert not _check(X, B, sol).ok
    # a lower bound above the objective is a failure too
    red = pipeline.reduce_problem(X, B)
    inflated = type(red)(**{**red.__dict__, "offset": red.offset + 1.0})
    assert not certify.verify(good, X, B, inflated).ok


def test_self_times_on_nested_spans():
    #        name  start end parent solve hit
    spans = [
        ["root", 0.0, 10.0, -1, 1, None],
        ["a", 1.0, 4.0, 0, 1, None],
        ["a.x", 2.0, 3.0, 1, 1, None],
        ["b", 5.0, 9.0, 0, 1, None],
        ["root", 10.0, 12.0, -1, 2, None],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 2.0]
    assert nearest_ancestor(spans, {"a"}) == [-1, 1, 1, -1, -1]


def test_tracer_restores_attributes_on_exception():
    import psdp.matcore
    import psdp.solvers

    eigh = np.linalg.eigh
    with pytest.raises(ZeroDivisionError):
        with Tracer() as t:
            assert psdp.solvers.psd_project is not psdp.matcore.psd_project
            with t.solve(1, "pipeline.an_fgm_solve"):
                1 / 0
    assert psdp.solvers.psd_project is psdp.matcore.psd_project
    assert np.linalg.eigh is eigh
    with pytest.raises(AttributeError):
        with Tracer(tr.TARGETS + (("psdp.solvers", "no_such_function", "x"),)):
            pass
    assert psdp.solvers.psd_project is psdp.matcore.psd_project
    assert np.linalg.eigh is eigh


def test_traced_counts_repeat_and_route_mix_checked(tmp_path):
    counts = [k for k, unit in PER_LAYER if unit == "count" or k.startswith("pipeline.route")]
    runs = []
    for _ in range(2):
        loop = worker.Loop(build_pool("tall", 5, smoke=True))
        runs.append(worker.traced_run(loop, 0.0, tmp_path / "spans.tsv"))
    assert {k: runs[0][k] for k in counts} == {k: runs[1][k] for k in counts}
    assert runs[0]["pipeline.route.rank1"] == pytest.approx(1 / 3)

    pool = build_pool("tall", 5, smoke=True)
    pool[1] = pool[1].__class__(pool[1].X, pool[1].B, "an_fgm_solve", None, "iterative")
    with pytest.raises(RuntimeError, match="route mix"):
        worker.traced_run(worker.Loop(pool), 0.0, tmp_path / "spans.tsv")


def test_layer_metrics_on_synthetic_spans():
    spans = [
        ["pipeline.an_fgm_solve", 0.0, 10.0, -1, 1, True],
        ["solvers.fgm_solve", 1.0, 9.0, 0, 1, True],
        ["matcore.psd_project", 2.0, 6.0, 1, 1, True],
        ["numpy.linalg.eigh", 3.0, 5.0, 2, 1, True],
    ]
    m = layer_metrics(spans, [{"iterations": 4, "certified": True, "iters_to_gap": 2}])
    assert m["matcore.psd_project.share"] == pytest.approx(0.4)
    assert m["matcore.psd_project.eigh_share"] == pytest.approx(0.5)
    assert m["matcore.psd_project.self_s"] == pytest.approx(2.0)
    assert m["solvers.loop.self_s"] == pytest.approx(4.0)
    assert m["solvers.s_per_iter"] == pytest.approx(2.0)
    assert m["pipeline.route.iterative"] == 1.0


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_prints_every_metric_with_unit():
    proc = _run("--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for name, unit in END_TO_END + REPORTED + PER_LAYER:
        hits = [ln.split() for ln in lines if ln.split()[:1] == [name]]
        assert len(hits) == 4 * (name in dict(PER_LAYER)) + 4 * (name not in dict(PER_LAYER)), name
        assert all(h[2] == unit for h in hits), name
    assert [ln.split()[1] for ln in lines if ln.split()[:1] == ["fail_frac"]] == ["0"] * 4


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_matches_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run("--workload", "tall", "--seed", "2", "--seconds", "0.2", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "rankdef", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
