"""The two-dimensional interpolation benchmark: three labeled points over
a regular grid on [0,1]^2, label values generated by sin(x)cos(y)."""

import math
from dataclasses import dataclass

import numpy as np

from .graph import (InvalidParameterError, KernelSpec, PointCloud, WeightGraph,
                    check_count, knn_graph)
from .solver import LabelAssignment, SolverConfig, nonlocal_inf_metric, solve

LABEL_POINTS = np.array([
    [math.sqrt(2) / 2, 1 - math.sqrt(3) / 10],
    [math.sqrt(2) / 10, math.sqrt(5) / 20],
    [math.sqrt(3) / 3, math.sqrt(11) / 4],
])


def generating_function(points):
    points = np.atleast_2d(points)
    return np.sin(points[:, 0]) * np.cos(points[:, 1])


@dataclass
class ToyProblem:
    graph: WeightGraph
    labels: LabelAssignment
    points: np.ndarray


def build_toy2d(grid: int = 101, sigma: float = 0.02, k: int = 10) -> ToyProblem:
    """Grid of (grid x grid) unlabeled points plus the three labeled points
    appended at the end; gaussian weights truncated to k nearest neighbors."""
    check_count("grid", grid, 2)
    axis = np.linspace(0.0, 1.0, grid)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.vstack([np.column_stack([gx.ravel(), gy.ravel()]), LABEL_POINTS])
    labeled = np.arange(grid * grid, pts.shape[0])
    labels = LabelAssignment(labeled, generating_function(LABEL_POINTS))
    graph = knn_graph(PointCloud(pts), k, KernelSpec.gaussian(sigma))
    return ToyProblem(graph, labels, pts)


def run_toy2d(problem: ToyProblem, methods=("gl", "wnll", "il"),
              cfg: SolverConfig = None):
    """Solve with the requested methods. Returns the metric of the
    generating function and of each method, each method's solution, both
    in the order of ``methods``, and one Diagnostics over every solve: the
    first solve's record, the others folded in by Diagnostics.absorb.

    IL runs first. Its first value update is the GL solution, so with both
    requested GL is read off its diagnostics, no further solve: one factor
    of the GL system serves both, and it is freed when IL returns, before
    WNLL builds its own."""
    cfg = cfg or SolverConfig(alpha=0.0)
    unknown = [m for m in methods if m not in ("gl", "wnll", "il")]
    if unknown:
        raise InvalidParameterError(f"unknown method {unknown[0]!r}")
    solutions, diag = {}, None
    for method in [m for m in ("il", "gl", "wnll") if m in methods]:
        if method == "gl" and "il" in solutions:
            solutions["gl"] = diag.first_update
        else:
            solutions[method], found = solve(method, problem.graph,
                                             problem.labels, cfg)
            diag = found if diag is None else diag.absorb(found)
    solutions = {method: solutions[method] for method in methods}
    metrics = {"generating": nonlocal_inf_metric(
        generating_function(problem.points), problem.graph)}
    metrics.update((method, nonlocal_inf_metric(u, problem.graph))
                   for method, u in solutions.items())
    return metrics, solutions, diag
