"""Graph-based interpolation with an infinity-Laplacian model."""

from .graph import (DegenerateBandwidthError, InvalidParameterError,
                    KernelSpec, PointCloud, WeightGraph, knn_graph,
                    self_tuning_weights)
from .linalg import DisconnectedGraphError, SolveReport, solve_symmetric
from .solver import (ConvergenceError, Diagnostics, LabelAssignment,
                     SolverConfig, gl_solve, il_solve,
                     nonlocal_inf_metric, objective, solve,
                     threshold_subproblem, wnll_solve)

__all__ = [
    "ConvergenceError",
    "DegenerateBandwidthError",
    "Diagnostics",
    "DisconnectedGraphError",
    "InvalidParameterError",
    "KernelSpec",
    "LabelAssignment",
    "PointCloud",
    "SolveReport",
    "SolverConfig",
    "WeightGraph",
    "gl_solve",
    "il_solve",
    "knn_graph",
    "nonlocal_inf_metric",
    "objective",
    "self_tuning_weights",
    "solve",
    "solve_symmetric",
    "threshold_subproblem",
    "wnll_solve",
]

__version__ = "0.1.0"
