"""Empirical discrete-to-continuum convergence harness.

At bandwidth s the discrete energy of values u on a sample of N points is

    E(u) = (1/s) * max_x ( (1/N) * sum_y eta_s(|x-y|) |u(x)-u(y)|^2 )^(1/2)

with eta_s(t) = s^-d eta(t/s): the p = 2 non-local gradient energy, the
one il_solve minimizes. As the sample grows and s shrinks slowly enough,
minimizers of E subject to the label constraint approach the
Lipschitz-minimal extension, and E itself approaches
sigma * vol^(-1/2) * (minimal Lipschitz constant), where sigma is the
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
from .solver import (ConvergenceError, LabelAssignment, SolverConfig, il_solve,
                     nonlocal_inf_metric)


def sigma_eta(kernel: KernelSpec, dim: int) -> float:
    """Kernel moment constant (integral of eta(|z|) |z . e1|^2 over the
    support ball)^(1/2) of the tent kernel, the study's one kernel: the
    radial moment, the integral of (1 - t) t^(d+1) over [0, 1], times the
    closed-form angular moment of the sphere."""
    if kernel != KernelSpec.tent(kernel.bandwidth):
        raise InvalidParameterError(
            f"sigma_eta takes the tent kernel only, not {kernel.family!r}")
    check_count("dim", dim)
    radial = 1.0 / ((dim + 2) * (dim + 3))
    # integral of |omega_1|^2 over the unit sphere S^{d-1}: exactly 2 at d = 1
    angular = 2.0 * math.pi ** ((dim - 1) / 2.0) * math.exp(
        math.lgamma(1.5) - math.lgamma((2 + dim) / 2.0))
    return float((radial * angular) ** 0.5)


@dataclass(frozen=True)
class ContinuumProblem:
    """A continuum benchmark with a known closed-form minimizer, on a
    domain parameterized by arc length. label_param holds the label
    locations as parameters; minimizer maps parameters to the optimal
    labeling values, so the labels are its values at label_param; embed
    maps parameters to points, one row each; min_energy is the
    minimizer's Lipschitz constant.
    """

    label_param: np.ndarray
    minimizer: Callable[[np.ndarray], np.ndarray]
    embed: Callable[[np.ndarray], np.ndarray]
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


def interval_benchmark() -> ContinuumProblem:
    """Unit interval labeled 0 and 1 at its ends; the minimizer is the
    identity."""
    return ContinuumProblem(np.array([0.0, 1.0]),
                            lambda t: np.asarray(t, dtype=float),
                            lambda t: np.asarray(t, dtype=float)[:, None],
                            1.0, 1.0)


def circle_benchmark() -> ContinuumProblem:
    """Unit circle in R^2 labeled 0 and 1 at two antipodal points; the
    minimizer is linear in arc length on both geodesic arcs."""

    def minimizer(theta):
        theta = np.mod(np.asarray(theta, dtype=float), 2.0 * math.pi)
        return np.minimum(theta, 2.0 * math.pi - theta) / math.pi

    return ContinuumProblem(
        np.array([0.0, math.pi]), minimizer,
        lambda t: np.column_stack([np.cos(t), np.sin(t)]),
        1.0 / math.pi, 2.0 * math.pi)


@dataclass(frozen=True)
class BandwidthSchedule:
    """Sample sizes and the bandwidth rule
    s(n) = 2 r_adjust (log n / n)^(1/(d+1)), d = dim."""

    n_values: Sequence[int]
    r_adjust: float = 1.0
    dim: int = 1

    def s(self, n: int) -> float:
        # s vanishes, and its exponent 1/(d+1) keeps the transportation
        # rate, n^(-1/max(d, 2)) up to log factors, vanishing relative to s
        # in every dimension
        return 2.0 * (math.log(n) / n) ** (1.0 / (self.dim + 1)) * self.r_adjust

    def validate(self):
        """dim >= 1, sample sizes >= 2 (s(1) is 0) and r_adjust > 0."""
        check_count("dim", self.dim)
        check_count("number of sample sizes", len(self.n_values))
        for n in self.n_values:
            check_count("sample sizes", n, 2)
        check_real("r_adjust", self.r_adjust)

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
                      solver_cfg: Optional[SolverConfig] = None):
    """Sample, build the tent-kernel graph, solve the discrete problem, and
    record the energy of its minimizer against the predicted limit. One
    row per (n, trial), each sampled by its own generator spawned from
    seed. A row records whether its solve converged and how many value
    updates missed their own tolerance; a row whose solve fails is flagged
    with the error as its reason."""
    check_count("trials", trials)
    check_count("seed", seed, 0)
    kernel = KernelSpec.tent()
    sigma = sigma_eta(kernel, problem.intrinsic_dim)
    target = sigma * problem.volume ** -0.5 * problem.min_energy
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
            energy = (nonlocal_inf_metric(u, graph) / u.size) ** 0.5 / s
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
