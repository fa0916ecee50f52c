import numpy as np
import pytest

import ilgraph.solver
import ilgraph.toy2d
from ilgraph.solver import SolverConfig, gl_solve, il_solve, wnll_solve
from ilgraph.toy2d import build_toy2d, run_toy2d


@pytest.fixture(scope="module")
def problem():
    return build_toy2d(grid=12, sigma=0.2, k=6)


def count_calls(monkeypatch, module, name):
    """The calls the module makes to its function ``name``."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_gl_and_il_share_one_factor(monkeypatch, problem):
    factors = count_calls(monkeypatch, ilgraph.solver, "factor_if_small")
    gl_calls = count_calls(monkeypatch, ilgraph.toy2d, "gl_solve")
    run_toy2d(problem, ("gl", "wnll", "il"))
    assert len(factors) == 2  # the GL system and the WNLL system
    assert not gl_calls


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
    assert diag.iterations == expected.iterations
    if "wnll" in methods:
        assert np.array_equal(solutions["wnll"], wnll_solve(graph, labels, cfg))


@pytest.mark.parametrize("methods", [("gl",), ("gl", "wnll")])
def test_gl_without_il_calls_gl_solve(monkeypatch, problem, methods):
    gl_calls = count_calls(monkeypatch, ilgraph.toy2d, "gl_solve")
    _, solutions, diag = run_toy2d(problem, methods)
    assert gl_calls == ["gl_solve"]
    assert list(solutions) == list(methods) and diag is None


def test_unknown_method_raises_before_solving(monkeypatch, problem):
    il_calls = count_calls(monkeypatch, ilgraph.toy2d, "il_solve")
    with pytest.raises(ValueError, match="unknown method 'tv'"):
        run_toy2d(problem, ("il", "tv"))
    assert not il_calls
