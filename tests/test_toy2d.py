import numpy as np
import pytest

import ilgraph.solver
import ilgraph.toy2d
from ilgraph.solver import (SolverConfig, gl_solve, il_solve, objective,
                            wnll_solve)
from ilgraph.toy2d import build_toy2d, run_toy2d


@pytest.fixture(scope="module")
def problem():
    return build_toy2d(grid=12, sigma=0.2, k=6)


def count_calls(monkeypatch, module, name):
    """The calls the module makes to its function ``name``, each recorded
    by its first argument."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_gl_and_il_share_one_factor(monkeypatch, problem):
    factors = count_calls(monkeypatch, ilgraph.solver, "factor_if_small")
    solves = count_calls(monkeypatch, ilgraph.toy2d, "solve")
    run_toy2d(problem, ("gl", "wnll", "il"))
    assert len(factors) == 2  # the GL system and the WNLL system
    assert solves == ["il", "wnll"]  # no GL solve


@pytest.mark.parametrize("methods", [("gl", "wnll", "il"), ("il", "gl"),
                                     ("wnll", "il", "gl")])
def test_results_equal_separate_solves_in_caller_order(problem, methods):
    cfg = SolverConfig(alpha=0.0)
    metrics, solutions, diag = run_toy2d(problem, methods, cfg)
    assert list(metrics) == ["generating", *methods]
    assert list(solutions) == list(methods)
    graph, labels = problem.graph, problem.labels
    assert np.array_equal(solutions["gl"], gl_solve(graph, labels, cfg))
    u, expected = il_solve(graph, labels, cfg)
    assert np.array_equal(solutions["il"], u)
    assert (diag.iterations, diag.c_star) == (expected.iterations,
                                              expected.c_star)
    if "wnll" in methods:
        assert np.array_equal(solutions["wnll"], wnll_solve(graph, labels, cfg))


@pytest.mark.parametrize("methods", [("gl",), ("gl", "wnll")])
def test_gl_without_il_calls_gl_solve(monkeypatch, problem, methods):
    solves = count_calls(monkeypatch, ilgraph.toy2d, "solve")
    _, solutions, diag = run_toy2d(problem, methods)
    assert solves == list(methods)
    assert list(solutions) == list(methods)
    # GL's one-iteration record, WNLL's solve folded in
    assert diag.iterations == 1 and diag.c_star is None
    assert diag.objective == objective(solutions["gl"], problem.graph, 0.0)


def test_unknown_method_raises_before_solving(monkeypatch, problem):
    solves = count_calls(monkeypatch, ilgraph.toy2d, "solve")
    with pytest.raises(ValueError, match="unknown method 'tv'"):
        run_toy2d(problem, ("il", "tv"))
    assert not solves
