"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from ilgraph import gamma, solver, toy2d  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


# per-layer metrics that must be positive in a traced smoke run: catches a
# metric name in BENCHMARK.json that the tracer does not produce
POSITIVE_EVERYWHERE = [
    "linalg.solve_symmetric.s", "linalg.solve_symmetric.iters_total",
    "linalg.solve_symmetric.iters_max", "linalg.solve_symmetric.rel_residual_max",
    "linalg.check_label_connectivity.calls", "solver.il_solve.self_s",
    "solver.il_solve.outer_iters", "solver.il_solve.c_star",
    "solver.il_solve.primal_residual", "solver.objective.calls",
    "solver.threshold_subproblem.calls", "trace.spans",
]
POSITIVE_ON = {
    "toy2d": ["graph.exact_knn.calls", "graph.knn_graph.self_s",
              "solver.gl_solve.self_s", "solver.wnll_solve.s"],
    "desk": ["graph.exact_knn.s", "graph.self_tuning_weights.self_s",
             "inpaint.extract_patches.s", "inpaint.psnr_wnll_db"],
    "gamma1d": ["gamma.build_full_kernel_graph.s", "gamma.discrete_energy.s",
                "gamma.edges_max", "gamma.rel_error"],
}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_untraced_and_traced(workload):
    plain = _run(workload, 0)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert plain["attempted"] >= 2 and 0 <= plain["failed"] <= plain["attempted"]
    assert plain["correct"] == (plain["failed"] == 0)

    traced = _run(workload, 1)
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    values = {k: m["value"] for k, m in traced["metrics"].items()}
    assert all(values[k] > 0 for k in POSITIVE_EVERYWHERE + POSITIVE_ON[workload])
    assert values["linalg.solve_symmetric.calls"] >= values["solver.il_solve.outer_iters"]
    assert values["trace.missing"] == 0
    for layer in ("solver.il_solve", "solver.gl_solve", "solver.wnll_solve"):
        assert 0 <= values[f"{layer}.self_s"] <= values[f"{layer}.s"]


@pytest.mark.parametrize("workload, module, name", [
    ("toy2d", toy2d, "gl_solve"),
    ("desk", solver, "gl_solve"),
    ("gamma1d", gamma, "il_solve"),
])
def test_perturbed_label_is_a_failed_operation(monkeypatch, workload, module, name):
    prepare, run = workloads.WORKLOADS[workload]
    inputs = prepare(0, smoke=True)
    before = run(inputs)
    real = getattr(module, name)
    calls = []

    def perturbed(graph, labels, *args, **kwargs):
        calls.append(name)
        result = real(graph, labels, *args, **kwargs)
        u = result[0] if isinstance(result, tuple) else result
        u[labels.indices[0]] += 1e-9
        return result

    monkeypatch.setattr(module, name, perturbed)
    after = run(inputs)
    assert len(after.ops) == len(before.ops)
    assert calls and len(after.failed) == len(before.failed) + len(calls)
    assert "labelled entries differ from their labels" in [why for _, why in after.failed]


def test_range_excursion_fails_gl_and_is_measured_for_il():
    prob = toy2d.build_toy2d(**workloads.TOY2D_SMOKE)
    labels = prob.labels
    u = solver.gl_solve(prob.graph, labels)
    assert workloads.check_solution(u, labels) is None
    lo, hi = labels.values.min(), labels.values.max()
    u[labels.unlabeled(len(u))[0]] = hi + 0.5 * (hi - lo)
    assert "maximum principle violated" in workloads.check_solution(u, labels)
    assert workloads.check_solution(u, labels, maximum_principle=False) is None
    figures = workloads.il_range_figures(u, labels, prob.graph)
    assert figures["solver.il_solve.range_excess"] == pytest.approx(0.5)
    assert figures["solver.il_solve.projection_gain"] > 0


def test_tracer_lists_wrapped_names_that_no_longer_exist(monkeypatch):
    monkeypatch.delattr(toy2d, "knn_graph")
    assert Tracer().missing == ["ilgraph.toy2d.knn_graph"]


def test_self_time_excludes_child_spans():
    prepare, run = workloads.WORKLOADS["toy2d"]
    inputs = prepare(0, smoke=True)
    tracer = Tracer()
    tracer.install("r")
    try:
        run(inputs)
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics("r")
    children = sum(s["end"] - s["start"] for s in tracer.spans
                   if s["parent"] is not None
                   and tracer.spans[s["parent"]]["name"] == "solver.il_solve")
    assert m["solver.il_solve.self_s"] == pytest.approx(
        m["solver.il_solve.s"] - children)
    assert 0 < m["solver.il_solve.self_s"] < m["solver.il_solve.s"]
    assert m["linalg.solve_symmetric.calls"] == m["linalg.check_label_connectivity.calls"]
