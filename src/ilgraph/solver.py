"""Infinity-Laplacian graph interpolation via split Bregman, with
graph-Laplacian (GL) and weighted non-local Laplacian (WNLL) baselines.

The model minimized over the unlabeled values is

    f(u) = max_i sum_j w_ij (u_i - u_j)^2  +  alpha * sum_ij w_ij (u_i - u_j)^2

The splitting introduces D_ij = sqrt(w_ij) (u_i - u_j) and alternates a
sparse symmetric linear solve for u, an exact closed-form update for D
(a max-of-quadratics problem solved by one sort and prefix sums), and a
multiplier update for q. GL and WNLL are exactly the first u-update with
constant and label-boosted penalties respectively. Every u-update takes
a sparse factor when linalg.factor_if_small allows one, else MINRES.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .graph import InvalidParameterError, WeightGraph
from .linalg import (SolveReport, check_label_connectivity, factor_if_small,
                     solve_symmetric)


class ConvergenceError(RuntimeError):
    """Raised when an iteration the solve depends on does not settle."""


@dataclass(frozen=True)
class LabelAssignment:
    """Labeled node indices and their values."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64).ravel()
        val = np.asarray(self.values, dtype=float).ravel()
        if idx.size == 0:
            raise InvalidParameterError("at least one labeled node is required")
        if idx.size != val.size:
            raise InvalidParameterError("indices and values must have equal length")
        if np.unique(idx).size != idx.size:
            raise InvalidParameterError("labeled indices must be unique")
        if not np.all(np.isfinite(val)):
            raise InvalidParameterError("label values must be finite")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @property
    def count(self) -> int:
        return self.indices.size

    def unlabeled(self, n_nodes: int) -> np.ndarray:
        mask = np.ones(n_nodes, dtype=bool)
        mask[self.indices] = False
        return np.nonzero(mask)[0]


@dataclass
class SolverConfig:
    alpha: float = 0.0
    rel_obj_tol: float = 1e-6
    max_outer_iter: int = 500
    lin_tol: float = 1e-10
    max_over_unlabeled_only: bool = False
    fixed_c: Optional[float] = None
    # optional extra stopping requirement: max|D - sqrt(w)(u_i-u_j)| must
    # also fall below this before the objective criterion can stop the loop
    primal_tol: Optional[float] = None

    def __post_init__(self):
        if self.alpha < 0:
            raise InvalidParameterError("alpha must be nonnegative")
        if not (self.rel_obj_tol > 0 and self.lin_tol > 0):
            raise InvalidParameterError("tolerances must be positive")
        if self.fixed_c is not None and not (np.isfinite(self.fixed_c)
                                             and self.fixed_c > 0):
            raise InvalidParameterError("fixed_c must be finite and positive")
        if self.primal_tol is not None and not self.primal_tol > 0:
            raise InvalidParameterError("primal_tol must be positive")


@dataclass
class ILDiagnostics:
    c_star: float
    iterations: int
    converged: bool
    objective: float
    history: np.ndarray
    primal_residual: float
    final_linear_report: Optional[SolveReport] = None


def _row_energies(u, graph: WeightGraph):
    rows, cols, w, _ = graph.edge_arrays()
    diff2 = (u[rows] - u[cols]) ** 2
    return np.bincount(rows, weights=w * diff2, minlength=graph.n_nodes)


def objective(u, graph: WeightGraph, alpha: float, row_subset=None) -> float:
    """max_i sum_j w_ij (u_i-u_j)^2 + alpha * double sum. The max ranges
    over all nodes unless an explicit row subset is given."""
    u = np.asarray(u, dtype=float)
    if u.shape[0] != graph.n_nodes:
        raise InvalidParameterError("u length must equal node count")
    g = _row_energies(u, graph)
    gmax = g.max() if row_subset is None else (g[row_subset].max() if len(row_subset) else 0.0)
    return float(gmax + alpha * g.sum())


def nonlocal_inf_metric(u, graph: WeightGraph) -> float:
    """Largest per-node non-local gradient energy, max_i sum_j w_ij (u_i-u_j)^2."""
    return float(_row_energies(np.asarray(u, dtype=float), graph).max())


def threshold_subproblem(a, c):
    """Exact minimizer of  max_i x_i^2 + sum_i a_i (x_i - c_i)^2.

    The minimizer is x = min(c, m), m the root of the increasing function
    m - sum_i a_i (c_i - m)_+: with c sorted descending, m is the mean
    sum a_i c_i / (1 + sum a_i) of the prefix of entries above their own
    prefix mean. A tied group lies wholly inside or outside that prefix,
    so ties need no merging. Returns x in the caller's order.
    """
    a = np.asarray(a, dtype=float).ravel()
    c = np.asarray(c, dtype=float).ravel()
    if a.shape != c.shape:
        raise InvalidParameterError("a and c must have equal length")
    if a.size == 0:
        return np.zeros(0)
    if np.any(a <= 0):
        raise InvalidParameterError("all a_i must be positive")
    if np.any(c < 0):
        raise InvalidParameterError("all c_i must be nonnegative")

    order = np.argsort(-c)
    cs, as_ = c[order], a[order]
    m = np.cumsum(as_ * cs) / (1.0 + np.cumsum(as_))
    t = np.count_nonzero(cs > m)  # entries above their prefix mean: a prefix
    return np.minimum(c, m[t - 1]) if t else c.copy()


def _value_solver(nu, graph: WeightGraph, labels: LabelAssignment,
                  lin_tol: float):
    """Least-squares value update for fixed penalties nu, built once.

    Checks label connectivity, assembles the symmetric system over the
    unlabeled unknowns and its label coupling, and factors it when
    linalg.factor_if_small allows; returns solve(s_flat) -> (u, SolveReport),
    which only forms the right-hand side and solves. Labeled values are
    pinned exactly.
    """
    n = graph.n_nodes
    rows, cols, w, sqw = graph.edge_arrays()
    nu = np.asarray(nu, dtype=float)
    if np.any(nu <= 0):
        raise InvalidParameterError("penalties nu must be positive")

    check_label_connectivity(graph.weights, labels.indices)

    half = sp.csr_matrix((nu[rows] * w, (rows, cols)), shape=(n, n))
    B = half + half.T
    deg = np.asarray(B.sum(axis=1)).ravel()
    unl = labels.unlabeled(n)
    L_unl = (sp.diags(deg) - B).tocsr()[unl]
    A = L_unl[:, unl]
    coupling = L_unl[:, labels.indices] @ labels.values
    nu_sqw = nu[rows] * sqw
    del half, B, L_unl  # free the assembly before a factor is built
    lu = factor_if_small(A)

    def solve(s_flat):
        u = np.zeros(n)
        u[labels.indices] = labels.values
        if unl.size == 0:
            return u, SolveReport(0, 0.0, True)
        weighted = nu_sqw * np.asarray(s_flat, dtype=float)
        r = (np.bincount(rows, weights=weighted, minlength=n)
             - np.bincount(cols, weights=weighted, minlength=n))
        u[unl], report = solve_symmetric(A, r[unl] - coupling, tol=lin_tol,
                                         factor=lu)
        return u, report

    return solve


def _nonlocal_gradient(u, graph: WeightGraph):
    rows, cols, _, sqw = graph.edge_arrays()
    return sqw * (u[rows] - u[cols])


def _update_D_flat(t_flat, q_flat, nu, graph: WeightGraph, alpha: float,
                   row_mask=None):
    """Exact D update from the non-local gradient t_flat of the current u."""
    n = graph.n_nodes
    rows = graph.edge_arrays()[0]
    c_data = (nu[rows] / (alpha + nu[rows])) * (t_flat - q_flat)
    row_norm = np.sqrt(np.bincount(rows, weights=c_data ** 2, minlength=n))
    a = alpha + nu
    if row_mask is None:
        x = threshold_subproblem(a, row_norm)
    else:
        # rows outside the max scope separate: their block is minimized at C_i
        x = row_norm.copy()
        x[row_mask] = threshold_subproblem(a[row_mask], row_norm[row_mask])
    scale = np.zeros(n)
    active = row_norm > 0
    scale[active] = x[active] / row_norm[active]
    return scale[rows] * c_data


def _choose_c_from_t1(t1_flat, graph, u1, alpha, eps=1e-4, max_iter=1000):
    t1_sq = float(np.dot(t1_flat, t1_flat))
    c = alpha if alpha > 0 else 1.0
    # a first pass computed in floating point leaves a tiny gradient on an
    # analytically constant solution: test against round-off scale
    tiny = (4 * np.finfo(float).eps) ** 2 * max(1.0, float(np.dot(u1, u1)))
    if t1_sq <= tiny:
        warnings.warn("first-pass non-local gradient vanishes; "
                      "keeping the initial penalty c")
        return c
    q0 = np.zeros_like(t1_flat)
    for _ in range(max_iter):
        nu = np.full(graph.n_nodes, c)
        d1 = _update_D_flat(t1_flat, q0, nu, graph, alpha)
        ratio = float(np.dot(d1 - t1_flat, d1 - t1_flat)) / t1_sq
        if abs(ratio - 0.25) <= eps:
            return c
        c = 4.0 * c * ratio
    raise ConvergenceError(
        f"adaptive penalty selection did not settle in {max_iter} iterations")


def choose_c(graph: WeightGraph, labels: LabelAssignment, alpha: float,
             eps: float = 1e-4) -> float:
    """Adaptive penalty: fixed-point iteration driving the first-iteration
    thresholding ratio ||D1 - T1||_F^2 / ||T1||_F^2 to 1/4."""
    u1, _ = _value_solver(np.ones(graph.n_nodes), graph, labels, lin_tol=1e-10)(
        np.zeros(graph.weights.nnz))
    t1 = _nonlocal_gradient(u1, graph)
    return _choose_c_from_t1(t1, graph, u1, alpha, eps)


def gl_solve(graph: WeightGraph, labels: LabelAssignment,
             cfg: Optional[SolverConfig] = None, full_output: bool = False):
    """Graph-Laplacian baseline: minimizer of the quadratic energy, equal
    to the first value update with unit penalties."""
    cfg = cfg or SolverConfig()
    solve = _value_solver(np.ones(graph.n_nodes), graph, labels, cfg.lin_tol)
    u, report = solve(np.zeros(graph.weights.nnz))
    return (u, report) if full_output else u


def wnll_solve(graph: WeightGraph, labels: LabelAssignment,
               cfg: Optional[SolverConfig] = None, full_output: bool = False):
    """Weighted non-local Laplacian baseline: labeled rows up-weighted by
    (number of points) / (number of labels)."""
    cfg = cfg or SolverConfig()
    n = graph.n_nodes
    nu = np.ones(n)
    nu[labels.indices] = n / labels.count
    solve = _value_solver(nu, graph, labels, cfg.lin_tol)
    u, report = solve(np.zeros(graph.weights.nnz))
    return (u, report) if full_output else u


def il_solve(graph: WeightGraph, labels: LabelAssignment,
             cfg: Optional[SolverConfig] = None):
    """Split Bregman solve of the infinity-Laplacian model.

    Returns (u, ILDiagnostics); u is the best iterate by objective value,
    with labeled entries pinned exactly.
    """
    cfg = cfg or SolverConfig()
    n = graph.n_nodes
    nnz = graph.weights.nnz
    row_subset = labels.unlabeled(n) if cfg.max_over_unlabeled_only else None

    def f(u):
        return objective(u, graph, cfg.alpha, row_subset=row_subset)

    # The penalty nu = c* is constant, so c* scales both sides of the value
    # update and cancels: the unit-penalty (GL) system serves the first
    # pass and every outer iteration.
    solve = _value_solver(np.ones(n), graph, labels, cfg.lin_tol)
    u, report = solve(np.zeros(nnz))
    grad = _nonlocal_gradient(u, graph)
    if cfg.fixed_c is not None:
        c_star = float(cfg.fixed_c)
    else:
        c_star = _choose_c_from_t1(grad, graph, u, cfg.alpha)
    nu = np.full(n, c_star)
    q = np.zeros(nnz)
    D = _update_D_flat(grad, q, nu, graph, cfg.alpha, row_subset)

    history = [f(u)]
    best_u, best_f = u, history[0]
    converged = False
    while len(history) < cfg.max_outer_iter:
        u, report = solve(D + q)
        grad = _nonlocal_gradient(u, graph)
        D = _update_D_flat(grad, q, nu, graph, cfg.alpha, row_subset)
        q = q + D - grad
        fval = f(u)
        history.append(fval)
        if fval < best_f:
            best_u, best_f = u, fval
        prev = history[-2]
        if prev == 0.0 or abs(fval - prev) / prev <= cfg.rel_obj_tol:
            if (cfg.primal_tol is not None
                    and float(np.max(np.abs(D - grad))) > cfg.primal_tol):
                continue
            converged = True
            break

    primal = float(np.max(np.abs(D - grad))) if nnz else 0.0
    diag = ILDiagnostics(
        c_star=c_star,
        iterations=len(history),
        converged=converged,
        objective=best_f,
        history=np.asarray(history),
        primal_residual=primal,
        final_linear_report=report,
    )
    return best_u, diag
