"""Empirical discrete-to-continuum convergence harness.

At bandwidth s the discrete energy of values u on a sample of N points is

    E(u) = (1/s) * max_x ( (1/N) * sum_y eta_s(|x-y|) |u(x)-u(y)|^p )^(1/p)

with eta_s(t) = s^-d eta(t/s). As the sample grows and s shrinks slowly
enough, minimizers of E subject to the label constraint approach the
Lipschitz-minimal extension, and E itself approaches
sigma * vol^(-1/p) * (minimal Lipschitz constant), where sigma is the
kernel moment constant that sigma_eta below computes in closed form.
"""

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .graph import (InvalidParameterError, KernelSpec, PointCloud, WeightGraph,
                    check_count, check_real)
from .solver import ConvergenceError, LabelAssignment, SolverConfig, il_solve


def sigma_eta(kernel: KernelSpec, p: float, dim: int) -> float:
    """Kernel moment constant (integral of eta(|z|) |z . e1|^p over the
    support ball)^(1/p): the radial moment of the profile, integrated in
    closed form between its knots, times the closed-form angular moment
    of the sphere."""
    if not kernel.compactly_supported:
        raise InvalidParameterError(
            "kernel must be compactly supported (use the tent kernel)")
    if kernel.knots is None:
        raise InvalidParameterError(
            "kernel profile must be piecewise linear with knots "
            "(use the tent or tabulated kernel)")
    check_real("p", p, 1)
    check_count("dim", dim)
    # on each knot interval the profile is a line b0 + b1 t, whose moment
    # with t^a has the antiderivative
    # t^(a+1) (b0 (a+2) + b1 (a+1) t) / ((a+1)(a+2)): one division, so
    # the tent's 1/20 at p = d = 2 comes out exact
    a = p + dim - 1
    knots = np.asarray(kernel.knots)
    values = kernel.profile(knots)
    b1 = np.diff(values) / np.diff(knots)
    b0 = values[:-1] - b1 * knots[:-1]

    def antiderivative(t):
        return t ** (a + 1) * (b0 * (a + 2) + b1 * (a + 1) * t)

    radial = float(np.sum(antiderivative(knots[1:])
                          - antiderivative(knots[:-1]))) / ((a + 1) * (a + 2))
    # integral of |omega_1|^p over the unit sphere S^{d-1}: exactly 2 at d = 1
    angular = 2.0 * math.pi ** ((dim - 1) / 2.0) * math.exp(
        math.lgamma((p + 1) / 2.0) - math.lgamma((p + dim) / 2.0))
    return float((radial * angular) ** (1.0 / p))


def discrete_energy(u, points, kernel: KernelSpec, s: float, p: float,
                    label_indices=None, label_values=None,
                    dim: Optional[int] = None) -> float:
    """Exact evaluation of the scaled discrete energy over all pairs within
    the support radius, one row of points per value of u (1-D points may
    come as a flat array). Returns +inf if the label constraint is
    violated; a malformed one (see solver.LabelAssignment) or an index
    that names no point raises InvalidParameterError."""
    check_real("p", p, 1, may_equal=True)
    u = np.asarray(u, dtype=float)
    graph = build_full_kernel_graph(points, kernel, s, dim=dim)
    if graph.n_nodes != u.shape[0]:
        raise InvalidParameterError(f"{graph.n_nodes} points do not give one "
                                    f"point per value of u ({u.shape[0]})")
    if label_indices is not None:
        labels = LabelAssignment(label_indices, label_values)
        labels.unlabeled(u.size)  # checks the indices against the points
        if not np.array_equal(u[labels.indices], labels.values):
            return math.inf
    return _graph_energy(u, graph, s, p)


def _graph_energy(u, graph: WeightGraph, s: float, p: float) -> float:
    """The scaled discrete energy of u on its kernel graph at bandwidth s."""
    # |G u|^p carries w_ij^(p/2); the factor w_ij^(1 - p/2), 1 at p = 2,
    # makes each edge term w_ij |u_i - u_j|^p
    row_sums = graph.row_sums(np.abs(graph.gradient() @ u) ** p
                              * graph.weights.data ** (1.0 - p / 2.0))
    return float((row_sums.max() / u.size) ** (1.0 / p) / s)


@dataclass(frozen=True)
class ContinuumProblem:
    """A continuum benchmark with a known closed-form minimizer.

    domain: 'interval' ([0,1]) or 'circle' (unit circle in R^2,
    parameterized by arc length). label_param holds the label locations in
    the domain parameterization; minimizer maps parameters to the optimal
    labeling values, so the labels are its values at label_param;
    min_energy is its Lipschitz constant.
    """

    domain: str
    label_param: np.ndarray
    minimizer: Callable[[np.ndarray], np.ndarray]
    min_energy: float
    volume: float
    intrinsic_dim: int = 1

    def sample(self, n: int, rng: np.random.Generator):
        """n i.i.d. uniform parameters plus the label points appended; a
        parameter is an arc length, in [0, volume)."""
        check_count("n", n)
        params = np.concatenate([rng.uniform(0.0, self.volume, size=n),
                                 np.asarray(self.label_param, dtype=float)])
        return params, self.embed(params)

    def embed(self, params):
        if self.domain == "interval":
            return np.asarray(params, dtype=float)[:, None]
        if self.domain == "circle":
            return np.column_stack([np.cos(params), np.sin(params)])
        raise InvalidParameterError(f"unknown domain {self.domain!r}")


def interval_benchmark(g0: float = 0.0, g1: float = 1.0) -> ContinuumProblem:
    """Unit interval with endpoint labels; the minimizer is affine."""
    lip = abs(g1 - g0)

    def g(t):
        return g0 + (g1 - g0) * np.asarray(t, dtype=float)

    return ContinuumProblem("interval", np.array([0.0, 1.0]), g, lip, 1.0, 1)


def circle_benchmark(v0: float = 0.0, v1: float = 1.0) -> ContinuumProblem:
    """Unit circle with two antipodal labels; the minimizer is linear in
    arc length on both geodesic arcs."""
    lip = abs(v1 - v0) / math.pi

    def minimizer(theta):
        theta = np.mod(np.asarray(theta, dtype=float), 2.0 * math.pi)
        frac = np.minimum(theta, 2.0 * math.pi - theta) / math.pi
        return v0 + (v1 - v0) * frac

    return ContinuumProblem("circle", np.array([0.0, math.pi]), minimizer,
                            lip, 2.0 * math.pi, 1)


@dataclass(frozen=True)
class BandwidthSchedule:
    """Sample sizes and the bandwidth rule s(n)."""

    n_values: Sequence[int]
    r_adjust: float = 1.0
    dim: int = 1
    s_fn: Optional[Callable[[int], float]] = None

    def s(self, n: int) -> float:
        # exponent 1/(d+1) keeps delta_n / s_n vanishing in every dimension
        # (1/d would decay as fast as the d=1 transportation rate itself)
        if self.s_fn is not None:
            return float(self.s_fn(n))
        return 2.0 * (math.log(n) / n) ** (1.0 / (self.dim + 1)) * self.r_adjust

    @staticmethod
    def delta(n: int, dim: int) -> float:
        """Reference transportation rates per dimension."""
        if dim == 1:
            return math.sqrt(math.log(math.log(n)) / n)
        if dim == 2:
            return math.log(n) ** 0.75 / math.sqrt(n)
        return (math.log(n) / n) ** (1.0 / dim)

    def validate(self):
        """s(n) must vanish while dominating the transportation rate."""
        check_count("dim", self.dim)
        check_count("number of sample sizes", len(self.n_values))
        # s(1) is 0 under the default rule: a study needs n >= 2
        for n in self.n_values:
            check_count("sample sizes", n, 2)
        check_real("r_adjust", self.r_adjust)
        probes = [int(v) for v in np.geomspace(max(16, min(self.n_values)),
                                               100 * max(self.n_values), 12)]
        s_vals = np.array([self.s(n) for n in probes])
        for n, s_n in zip(probes, s_vals):  # a custom rule may give any value
            check_real(f"bandwidth s({n})", s_n)
        ratios = np.array([self.delta(n, self.dim) for n in probes]) / s_vals
        if not (s_vals[-1] < s_vals[0] and s_vals[-1] < 0.5 * s_vals[0]):
            raise InvalidParameterError("bandwidth rule does not vanish")
        # the d=1 ratio decays only like sqrt(lnln/ln): test the trend, not speed
        if not np.all(np.diff(ratios) < 0):
            raise InvalidParameterError(
                "transportation rate does not vanish relative to the bandwidth")

    __post_init__ = validate  # every schedule is checked when it is built


@dataclass
class StudyRow:
    n: int
    trial: int
    s_n: float
    energy: float
    target: float
    rel_error: float
    sup_dist: float
    flagged: bool
    reason: str = ""    # why the row is flagged: the solver error
    # il_solve's diagnostics; a flagged row has none and never converged
    converged: bool = False
    linear_unconverged: int = 0


def build_full_kernel_graph(points, kernel: KernelSpec, s: float,
                            dim: Optional[int] = None) -> WeightGraph:
    """All pairs within the scaled support radius, w_ij = eta_s(|x_i-x_j|),
    one row of points per node (1-D points may come as a flat array), at
    a bandwidth s that is positive and finite."""
    # imported here: only graph builds from coordinates need scipy.spatial
    from scipy.spatial import cKDTree
    check_real("bandwidth s", s)
    points = PointCloud(points).points
    n = points.shape[0]
    d = points.shape[1] if dim is None else dim
    check_count("dim", d)
    r_eta = kernel.support_radius / kernel.bandwidth
    tree = cKDTree(points)
    pairs = tree.query_pairs(r=s * r_eta, output_type="ndarray")
    if pairs.size == 0:
        return WeightGraph(sp.csr_matrix((n, n)))
    i, j = pairs[:, 0], pairs[:, 1]
    dist = np.linalg.norm(points[i] - points[j], axis=1)
    w = kernel.profile(dist / s) / s ** d
    # query_pairs lists each pair once with i < j: one sort of the pairs
    # gives the upper triangle U in CSR order, and W = U + U^T merges two
    # canonical matrices with no duplicate to sum
    order = np.argsort(i * n + j)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(i, minlength=n))])
    upper = sp.csr_matrix((w[order], j[order], indptr), shape=(n, n))
    return WeightGraph(upper + upper.T)


def convergence_study(problem: ContinuumProblem, schedule: BandwidthSchedule,
                      trials: int, seed: int = 0,
                      kernel: Optional[KernelSpec] = None,
                      solver_cfg: Optional[SolverConfig] = None):
    """Sample, solve the discrete problem, and record the energy of its
    minimizer against the predicted limit, at p = 2, the exponent the
    discrete solver covers. One row per (n, trial), each sampled by its own
    generator spawned from seed. A row records whether its solve converged
    and how many value updates missed their own tolerance; a row whose
    solve fails is flagged with the error as its reason."""
    check_count("trials", trials)
    check_count("seed", seed, 0)
    p = 2.0
    kernel = kernel or KernelSpec.tent()
    sigma = sigma_eta(kernel, p, problem.intrinsic_dim)
    target = sigma * problem.volume ** (-1.0 / p) * problem.min_energy
    cfg = solver_cfg or SolverConfig(alpha=0.0)
    streams = iter(np.random.SeedSequence(seed).spawn(
        len(schedule.n_values) * trials))
    rows = []
    for n in schedule.n_values:
        s = schedule.s(n)
        for trial in range(trials):
            params, pts = problem.sample(n, np.random.default_rng(next(streams)))
            graph = build_full_kernel_graph(pts, kernel, s, dim=problem.intrinsic_dim)
            labels = LabelAssignment(np.arange(n, params.size),
                                     problem.minimizer(problem.label_param))
            try:
                u, diag = il_solve(graph, labels, cfg)
            except (InvalidParameterError, ConvergenceError) as exc:
                rows.append(StudyRow(n, trial, s, math.nan, target, math.nan,
                                     math.nan, True,
                                     f"{type(exc).__name__}: {exc}"))
                continue
            # il_solve pins the labels exactly, so only the energy remains
            energy = _graph_energy(u, graph, s, p)
            rel = abs(energy - target) / target if target else math.nan
            sup = float(np.max(np.abs(u - problem.minimizer(params))))
            rows.append(StudyRow(n, trial, s, energy, target, rel, sup, False,
                                 converged=diag.converged,
                                 linear_unconverged=diag.linear_unconverged))
    return rows


def rows_to_csv(rows, path):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["n", "trial", "s_n", "energy", "target", "rel_error",
                      "sup_dist", "converged", "linear_unconverged",
                      "flagged", "reason"])
        for r in rows:
            out.writerow([r.n, r.trial, *(f"{v:.10g}" for v in (
                r.s_n, r.energy, r.target, r.rel_error, r.sup_dist)),
                int(r.converged), r.linear_unconverged, int(r.flagged),
                r.reason])
