"""Infinity-Laplacian graph interpolation via split Bregman, with
graph-Laplacian (GL) and weighted non-local Laplacian (WNLL) baselines.

The model minimized over the unlabeled values is

    f(u) = max_i sum_j w_ij (u_i - u_j)^2  +  alpha * sum_ij w_ij (u_i - u_j)^2

The splitting introduces D_ij = sqrt(w_ij) (u_i - u_j) and alternates a
sparse symmetric linear solve for u, an exact closed-form update for D
(a max-of-quadratics problem solved by a partial sort and prefix sums),
and a multiplier update for q. GL and WNLL are exactly the first u-update
with constant and label-boosted penalties respectively. il_solve's
penalty is one constant on every edge too, so its first u-update is the
GL solution, and it returns that as Diagnostics.first_update;
solve(method, ...) runs any of the three and returns one Diagnostics
record. Every u-update solves by the path linalg.factor_if_small picks
from its matrix: a band Cholesky factor where the matrix is dense within
its RCM band (1-D kernel graphs), a sparse LU factor where it is not, and
CG from a recycled start where a factor would be big.
Edge work goes through the graph's non-local gradient G
(WeightGraph.gradient) and its per-node sums of squares over out-edges
(WeightGraph.square_sums): the splitting is D = G u, the u-update solves
G^T diag(nu_e) G u = G^T (nu_e * s) on the unlabeled nodes, nu_e the
penalty of each edge's tail, and the row energies are the row sums of
(G u)^2, taken with no (G u)^2 formed. Work on a few rows goes through
one EdgeSelection record per selection (WeightGraph.select: the rows,
their CSR offsets, edge ids, tails and heads): its row sums and its G^T
are sparse products over the record alone, each bitwise the np.bincount
over the same edges.

Every value update is one step: for the target s = G u + delta it
solves A du = (G^T (nu_e * delta))_unl, A the restricted matrix, and
moves u' = u + du; il_solve's penalties are 1 (c cancels, below). The
first update is the step from u0, the labels pinned and zeros
elsewhere, towards s = 0.

The D update scales each row of y = t - q, t = G u, by one factor rho_i
and the multiplier becomes q' = (rho - 1) y, so s = D + q' equals t on
every row with rho_i = 1. il_solve keeps q only on the rows with
rho_i != 1 and steps with delta on the edges of the rows where rho_i != 1
now or q is carried from the last step. At alpha = 0, rho_i is exactly 1
on every row the threshold leaves alone, so those are the clipped rows;
at alpha > 0 they are all rows. The rows carrying q lie in the last
selection, which supplies their norms ||y_i||.

il_solve's loop reads in algorithm order: the D update (row norms of y,
the row scales rho, the edge selection, D = rho y); the multiplier
update q' = D - y, skipped on the first pass; the objective, the best
iterate and the stop test; then the value update towards s = D + q' and
the two full edge passes t = G u and g = square_sums(t). Everything
else touches the selected edges only: t is gathered onto them once per
selection, q lives on them alone and is carried onto the next selection
(EdgeSelection.carry), and the row norms of y and the step's right-hand
side come from the selection's record. No iteration allocates an
edge-length array besides t.

The first value update solves to lin_tol. Each later step solves only as
accurately as the iteration needs: to the last relative objective change
clipped to [lin_tol, STEP_TOL_MAX], the first step to STEP_TOL_MAX. The
error of a step is lost again at the next threshold; inexact steps with
summable errors keep the splitting convergent (Eckstein and Bertsekas
1992). A SolveReport is judged against its step's own tolerance, so a
step that misses it is still counted. Factored solves are exact either
way, so on factored systems the result does not depend on the rule;
only the first solve of a factor is checked against its matrix
(linalg.solve_symmetric), and the later ones report no residual (NaN).

il_solve balances its penalty c against the two residuals (He, Yang and
Wang 2000; Boyd et al. 2011, section 3.4.1). Every BALANCE_EVERY outer
iterations it takes the primal residual r = ||D - t||, the multiplier
increment, and after the step the dual residual s = c ||G (u' - u)||. If
r > BALANCE_MU s, c is multiplied by BALANCE_TAU; if s > BALANCE_MU r, it
is divided by it. q is the multiplier scaled by 1 / c, so it is rescaled
by c_old / c_new. Since c is the same on every edge, it scales both sides
of the value update and cancels there: the unit-penalty (GL) system, its
factor and its StartSpace serve every c, and only the D update and q see
it. A fixed_c keeps c fixed, as in the paper's constant-penalty
algorithm. Diagnostics.c_star is the first penalty, c_final the last.
"""

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .graph import InvalidParameterError, WeightGraph, check_count, check_real
from .linalg import (DEFAULT_TOL, StartSpace, check_label_connectivity,
                     factor_if_small, solve_symmetric)

# entries of threshold_subproblem's input sorted first: on the 101x101
# grid about 60 of 10204 rows are clipped
THRESHOLD_TOP = 64
# loosest relative residual an il_solve step solves to (module docstring)
STEP_TOL_MAX = 1e-4
# residual balancing of il_solve's penalty (module docstring): every
# BALANCE_EVERY outer iterations, c is scaled by BALANCE_TAU when one
# residual exceeds BALANCE_MU times the other
BALANCE_EVERY = 5
BALANCE_MU = 20.0
BALANCE_TAU = 2.0


class ConvergenceError(RuntimeError):
    """Raised when an iteration the solve depends on does not settle, or a
    factorization it depends on breaks down."""


@dataclass(frozen=True)
class LabelAssignment:
    """Labeled node indices and their values."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices).ravel()
        if idx.dtype.kind not in "iu":  # neither 1.7 nor True labels node 1
            as_float = idx.astype(float)
            if idx.dtype.kind == "b" or not np.all(
                    np.isfinite(as_float) & (as_float == np.round(as_float))):
                raise InvalidParameterError("label indices must be integers")
        idx = idx.astype(np.int64, copy=False)
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
        if self.indices.min() < 0 or self.indices.max() >= n_nodes:
            raise InvalidParameterError(
                f"label indices must lie in [0, {n_nodes}), the graph's nodes")
        mask = np.ones(n_nodes, dtype=bool)
        mask[self.indices] = False
        return np.nonzero(mask)[0]


@dataclass(frozen=True)
class SolverConfig:
    alpha: float = 0.0
    rel_obj_tol: float = 1e-6
    max_outer_iter: int = 500
    lin_tol: float = DEFAULT_TOL
    max_over_unlabeled_only: bool = False
    fixed_c: Optional[float] = None
    # optional extra stopping requirement: max|D - sqrt(w)(u_i-u_j)| must
    # also fall below this before the objective criterion can stop the loop
    primal_tol: Optional[float] = None

    def __post_init__(self):
        check_real("alpha", self.alpha, may_equal=True)
        check_count("max_outer_iter", self.max_outer_iter)
        for name in ("rel_obj_tol", "lin_tol", "fixed_c", "primal_tol"):
            if getattr(self, name) is not None:
                check_real(name, getattr(self, name))


@dataclass
class Diagnostics:
    """What one solve did, one record for GL, WNLL and IL. A GL or WNLL
    solve is one value update: one iteration, converged if it met lin_tol.
    The linear_* fields cover every value update: how many missed its own
    tolerance (lin_tol, or an il_solve step's), the worst relative residual,
    the worst ratio of a residual to its own tolerance (at most 1 when
    every solve met its target) and the CG iterations summed. The two
    residual fields cover the residuals computed: every CG solve's and
    the first of each factor's (linalg.solve_symmetric). IL adds its
    first penalty c*, its last c_final, the final max|D - G u| and its first
    value update, bitwise what gl_solve returns for the same graph, labels
    and lin_tol."""

    converged: bool
    iterations: int
    objective: float
    history: np.ndarray
    linear_unconverged: int
    linear_residual_max: float
    linear_residual_ratio_max: float
    linear_iterations: int
    c_star: Optional[float] = None
    c_final: Optional[float] = None
    primal_residual: Optional[float] = None
    first_update: Optional[np.ndarray] = None

    def absorb(self, other: "Diagnostics") -> "Diagnostics":
        """This record with the solves of other folded in: converged only
        if both were, the linear counts add and the worst residual and
        ratio stay. Every other field is this record's."""
        a, b = self, other
        return replace(
            a, converged=a.converged and b.converged,
            linear_unconverged=a.linear_unconverged + b.linear_unconverged,
            linear_residual_max=max(a.linear_residual_max, b.linear_residual_max),
            linear_residual_ratio_max=max(a.linear_residual_ratio_max,
                                          b.linear_residual_ratio_max),
            linear_iterations=a.linear_iterations + b.linear_iterations)


def _linear_fields(reports):
    """The linear_* fields of a Diagnostics over these SolveReports; the
    residual fields over the residuals computed (not NaN), of which every
    value update has at least its first."""
    checked = [r for r in reports if not math.isnan(r.relative_residual)]
    return dict(linear_unconverged=sum(not r.converged for r in reports),
                linear_residual_max=max(r.relative_residual for r in checked),
                linear_residual_ratio_max=max(r.relative_residual / r.tol
                                              for r in checked),
                linear_iterations=sum(r.iterations for r in reports))


def _model_value(g, alpha: float, row_subset=None) -> float:
    """The objective from the row energies g_i = sum_j w_ij (u_i-u_j)^2 >= 0."""
    scoped = g if row_subset is None else g[row_subset]
    return float(scoped.max(initial=0.0) + alpha * g.sum())


def objective(u, graph: WeightGraph, alpha: float, row_subset=None) -> float:
    """max_i sum_j w_ij (u_i-u_j)^2 + alpha * double sum. The max ranges
    over all nodes unless an explicit row subset is given."""
    check_real("alpha", alpha, may_equal=True)
    u = np.asarray(u, dtype=float)
    if u.shape[0] != graph.n_nodes:
        raise InvalidParameterError("u length must equal node count")
    return _model_value(graph.square_sums(graph.gradient() @ u), alpha,
                        row_subset)


def nonlocal_inf_metric(u, graph: WeightGraph) -> float:
    """Largest per-node non-local gradient energy, max_i sum_j w_ij (u_i-u_j)^2."""
    return objective(u, graph, 0.0)


def threshold_subproblem(a, c):
    """Exact minimizer of  max_i x_i^2 + sum_i a_i (x_i - c_i)^2; a is one
    weight per entry of c, or one scalar weight for every entry.

    The minimizer is x = min(c, m), m the root of the increasing function
    m - sum_i a_i (c_i - m)_+: with c sorted descending, m is the mean
    sum a_i c_i / (1 + sum a_i) of the prefix of entries above their own
    prefix mean. A tied group lies wholly inside or outside that prefix,
    so ties need no merging. Returns x in the caller's order.

    Only the head of that order is sorted. Along the prefix the means
    rise, so when all THRESHOLD_TOP entries picked by a partition are
    above their means, the last mean is a lower bound on m, and the
    entries above it, which hold the prefix, are sorted instead. For a
    constant a the result is bitwise that of a full sort.
    """
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float).ravel()
    if a.ndim and a.size != c.size:
        raise InvalidParameterError("a and c must have equal length")
    if c.size == 0:
        return np.zeros(0)
    # written so that NaN fails too; one test for a scalar a
    if not np.all((a > 0) & (a < np.inf)):
        raise InvalidParameterError("all a_i must be finite and positive")
    if not np.all((c >= 0) & (c < np.inf)):
        raise InvalidParameterError("all c_i must be finite and nonnegative")
    # a scalar a is read through a broadcast view: no copy per entry
    a = np.broadcast_to(a, c.shape) if a.ndim == 0 else a.ravel()

    def prefix_means(idx):
        """The prefix means of the entries idx, sorted descending, and the
        count of entries above their own: a prefix."""
        idx = idx[np.argsort(-c[idx])]
        cs, as_ = c[idx], a[idx]
        m = np.cumsum(as_ * cs) / (1.0 + np.cumsum(as_))
        return m, np.count_nonzero(cs > m)

    n, k = c.size, THRESHOLD_TOP
    m, t = prefix_means(np.arange(n) if n <= k
                        else np.argpartition(c, n - k)[n - k:])
    if t == k < n:
        m, t = prefix_means(np.flatnonzero(c > m[-1]))
    return np.minimum(c, m[t - 1]) if t else c.copy()


def _value_solver(nu, graph: WeightGraph, labels: LabelAssignment,
                  lin_tol: float):
    """Least-squares value update for fixed positive penalties nu, built once.

    Checks the labels, assembles A, the block of G^T diag(nu_e) G on the
    unlabeled unknowns (each edge takes its tail's penalty), straight from
    the weights with no sparse product, and factors A when
    linalg.factor_if_small allows: by band Cholesky when A is dense within
    its band, else by sparse LU. Otherwise its solves are CG, and every
    solve after the first starts from the Galerkin solution on the Ritz
    vectors the first one leaves in a linalg.StartSpace and on the last
    solutions. A band factor that breaks down, A not numerically positive
    definite, raises ConvergenceError.

    Returns ((u, SolveReport), step): the first value update, for the
    target s = 0, and step(u, delta, selection), which solves
    A du = (G^T delta)_unl, delta listed on the edges of the EdgeSelection
    ``selection`` (WeightGraph.select) only: at unit penalties, il_solve's,
    the value update for the target G u + delta. Labeled values stay
    pinned exactly. No edge-length vector is kept past the assembly.
    """
    n = graph.n_nodes
    unl = labels.unlabeled(n)
    G, w = graph.gradient(), graph.weights
    nu_e = np.repeat(nu, np.diff(w.indptr))  # each edge takes its tail's nu
    # G^T diag(nu_e) G = diag(S 1) - S, S = NW + NW^T, NW = diag(nu) W;
    # S, positive on the support of W and W^T, serves the label check too
    S = sp.csr_matrix((nu_e * w.data, w.indices, w.indptr), shape=w.shape)
    # the first update is the step from u0, the labels pinned and zeros
    # elsewhere, towards s = 0: delta = -G u0 on every edge
    u0 = np.zeros(n)
    u0[labels.indices] = labels.values
    nu_e *= G @ u0
    first_rhs = -(G.T @ nu_e)
    del nu_e
    S = S + S.T
    check_label_connectivity(S, labels.indices)
    degree = (S @ np.ones(n))[unl]
    # one restriction at a time, each freeing the matrix it came from
    S = S[unl]
    S = S[:, unl]
    A = sp.diags(degree) - S
    del S  # free the assembly before a factor is built
    try:  # over the cap, CG started from what its first solve learns
        factor = factor_if_small(A) or StartSpace(unl.size)
    except np.linalg.LinAlgError as exc:  # from the band Cholesky
        raise ConvergenceError(
            f"value-update matrix is not numerically positive definite: {exc}"
        ) from exc

    def advance(u, r, tol):
        """u + du with A du = r_unl, solved to the relative residual tol."""
        u = u.copy()
        du, report = solve_symmetric(A, r[unl], tol=tol, factor=factor)
        u[unl] += du
        return u, report

    def step(u, delta, selection, tol=lin_tol):
        return advance(u, selection.adjoint(delta), tol)

    return advance(u0, first_rhs, lin_tol), step


def _row_scale(norm, c: float, alpha: float, row_subset=None):
    """The exact D update at the constant penalty c, row by row: for the
    target y = t - q with row norms ||y_i|| = norm, D = rho_i y on row i.
    Rows with y_i = 0 get rho_i = kappa = c / (alpha + c). At alpha = 0,
    rho_i is exactly 1 on every row the threshold leaves alone."""
    kappa = c / (alpha + c)
    C = kappa * norm
    scope = slice(None) if row_subset is None else row_subset
    # rows outside the max scope separate: their block is minimized at C_i
    x, scoped = C.copy(), C[scope]
    x[scope] = threshold_subproblem(alpha + c, scoped)
    return kappa * np.divide(x, C, out=np.ones_like(x), where=C > 0)


def _choose_c_from_g1(g1, u1, alpha, eps=1e-4, max_iter=1000):
    t1_sq = float(g1.sum())
    c = alpha if alpha > 0 else 1.0
    # a first pass computed in floating point leaves a tiny gradient on an
    # analytically constant solution: test against round-off scale
    tiny = (4 * np.finfo(float).eps) ** 2 * max(1.0, float(np.dot(u1, u1)))
    if t1_sq <= tiny:
        warnings.warn("first-pass non-local gradient vanishes; "
                      "keeping the initial penalty c")
        return c
    norm = np.sqrt(g1)
    for _ in range(max_iter):
        # D1 - T1 = (rho_i - 1) T1 on row i: the ratio is a sum over nodes
        rho = _row_scale(norm, c, alpha)
        ratio = float(np.dot((rho - 1.0) ** 2, g1)) / t1_sq
        if abs(ratio - 0.25) <= eps:
            return c
        c = 4.0 * c * ratio
    raise ConvergenceError(
        f"adaptive penalty selection did not settle in {max_iter} iterations")


def choose_c(graph: WeightGraph, labels: LabelAssignment, alpha: float,
             eps: float = 1e-4) -> float:
    """Adaptive penalty: fixed-point iteration driving the first-iteration
    thresholding ratio ||D1 - T1||_F^2 / ||T1||_F^2 to 1/4."""
    check_real("alpha", alpha, may_equal=True)
    u1 = gl_solve(graph, labels)
    return _choose_c_from_g1(graph.square_sums(graph.gradient() @ u1),
                             u1, alpha, eps)


def _baseline(method, graph, labels, cfg):
    """GL's or WNLL's value update, as (u, SolveReport)."""
    n = graph.n_nodes
    nu = np.full(n, n / labels.count if method == "wnll" else 1.0)
    nu[labels.unlabeled(n)] = 1.0
    return _value_solver(nu, graph, labels, (cfg or SolverConfig()).lin_tol)[0]


def gl_solve(graph: WeightGraph, labels: LabelAssignment,
             cfg: Optional[SolverConfig] = None):
    """Graph-Laplacian baseline: minimizer of the quadratic energy, equal
    to the first value update with unit penalties."""
    return _baseline("gl", graph, labels, cfg)[0]


def wnll_solve(graph: WeightGraph, labels: LabelAssignment,
               cfg: Optional[SolverConfig] = None):
    """Weighted non-local Laplacian baseline: labeled rows up-weighted by
    (number of points) / (number of labels)."""
    return _baseline("wnll", graph, labels, cfg)[0]


def solve(method: str, graph: WeightGraph, labels: LabelAssignment,
          cfg: Optional[SolverConfig] = None):
    """Solve by method "gl", "wnll" or "il"; returns (u, Diagnostics).

    IL's record is il_solve's. GL's and WNLL's is that of their one value
    update, with the objective of u as il_solve measures it under cfg."""
    if method not in ("gl", "wnll", "il"):
        raise InvalidParameterError(f"unknown method {method!r}")
    cfg = cfg or SolverConfig()
    if method == "il":
        return il_solve(graph, labels, cfg)
    u, report = _baseline(method, graph, labels, cfg)
    rows = labels.unlabeled(graph.n_nodes) if cfg.max_over_unlabeled_only else None
    f = objective(u, graph, cfg.alpha, rows)
    return u, Diagnostics(converged=report.converged, iterations=1, objective=f,
                          history=np.array([f]), **_linear_fields([report]))


def il_solve(graph: WeightGraph, labels: LabelAssignment,
             cfg: Optional[SolverConfig] = None):
    """Split Bregman solve of the infinity-Laplacian model.

    Returns (u, Diagnostics); u is the best iterate by objective value,
    clipped to the range of the label values, with labeled entries pinned
    exactly. The diagnostics' objective is that of the returned u. Their
    first_update is the first value update, the GL solution: the same
    unit-penalty system, solved by the same path as in gl_solve.
    """
    cfg = cfg or SolverConfig()
    n = graph.n_nodes
    G = graph.gradient()
    # The penalty nu = c is the same on every edge, so c scales both sides
    # of the value update and cancels: the unit-penalty (GL) system serves
    # the first pass and every outer iteration, whatever c balancing picks.
    (u, report), step = _value_solver(np.ones(n), graph, labels, cfg.lin_tol)
    first_update = u
    row_subset = labels.unlabeled(n) if cfg.max_over_unlabeled_only else None
    reports = [report]
    t = G @ u
    g = graph.square_sums(t)
    c_star = c = (float(cfg.fixed_c) if cfg.fixed_c is not None
                  else _choose_c_from_g1(g, u, cfg.alpha))
    # D = t and q = 0 on every row with rho_i = 1: a step takes the rows
    # with rho_i != 1 now or carrying q from the last step. q is kept on
    # the edges of the last selection only (qe), which hold every row
    # carrying it
    carried = np.zeros(n, dtype=bool)
    sel = graph.select(carried)  # the last selection
    qe = np.zeros(0)
    history = []
    while True:
        # D = rho y, y = t - q, with ||y_i|| from g where q = 0 and from y
        # on the rows carrying q: whole rows of the last selection
        norm = np.sqrt(np.where(
            carried, sel.row_sums((t[sel.edges] - qe) ** 2), g))
        rho = _row_scale(norm, c, cfg.alpha, row_subset)
        new = graph.select((rho != 1.0) | carried)
        te, qe = t[new.edges], new.carry(sel, qe, carried)  # t, q on its edges
        sel = new
        y = te - qe
        D = np.take(rho, sel.tails) * y
        if history:  # q' = D - y = (rho - 1) y; the first pass keeps q = 0
            qe = np.subtract(D, y, out=y)
            carried = rho != 1.0
        fval = _model_value(g, cfg.alpha, row_subset)
        if not history or fval < best_f:
            best_u, best_f = u, fval
        history.append(fval)
        # the relative objective change; nan on the first pass, which then
        # fails the stop test
        prev = history[-2] if len(history) > 1 else np.nan
        change = abs(fval - prev) / prev if prev else 0.0
        # max|D - t| is the primal residual: D = t off the selected edges
        converged = bool(
            change <= cfg.rel_obj_tol
            and (cfg.primal_tol is None
                 or np.max(np.abs(D - te), initial=0.0) <= cfg.primal_tol))
        if converged or len(history) == cfg.max_outer_iter:
            break
        balance = (cfg.fixed_c is None
                   and len(history) % BALANCE_EVERY == 0)
        t_prev = t if balance else None
        # the step solves only as accurately as the objective still moves,
        # never looser than STEP_TOL_MAX (fmin: the first step's nan too)
        u, report = step(u, D + qe - te, sel,
                         max(cfg.lin_tol, float(np.fmin(change, STEP_TOL_MAX))))
        reports.append(report)
        t = G @ u
        if balance:
            # the primal residual is the multiplier increment D - t, the
            # dual one c G (u' - u), taken in place in the old t; q is
            # scaled by 1 / c
            r = np.linalg.norm(D - te)
            s = c * np.linalg.norm(np.subtract(t_prev, t, out=t_prev))
            t_prev = None
            if r > BALANCE_MU * s or s > BALANCE_MU * r:
                scale = BALANCE_TAU if r > s else 1 / BALANCE_TAU
                c *= scale
                qe /= scale
        g = graph.square_sums(t)

    # clipping to the label range, which holds a minimizer, is 1-Lipschitz:
    # no row energy rises
    best_u = np.clip(best_u, labels.values.min(), labels.values.max())
    return best_u, Diagnostics(
        converged=converged, iterations=len(history),
        objective=_model_value(graph.square_sums(G @ best_u), cfg.alpha,
                               row_subset),
        history=np.asarray(history), **_linear_fields(reports), c_star=c_star,
        c_final=c, primal_residual=float(np.max(np.abs(D - te), initial=0.0)),
        first_update=first_update)
