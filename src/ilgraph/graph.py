"""Point clouds, kernels and sparse kNN weight graphs.

Weight graphs are kept directed after truncation: row i holds the weights
from x_i to its k nearest neighbors, which need not coincide with the
reverse edges. Solvers consume w_ij and w_ji separately, through the
non-local gradient G (one row per directed edge) and the row sum R that
``WeightGraph.operators`` builds once per graph, and through
``out_edges`` and ``gradient_adjoint``, which work on the edges of a few
nodes without a pass over all edges.
"""

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp


class InvalidParameterError(ValueError):
    """Raised when an operation receives out-of-contract parameters."""


class DegenerateBandwidthError(ValueError):
    """Raised when a per-point bandwidth collapses to zero (duplicate points)."""


@dataclass(frozen=True)
class PointCloud:
    """An n x d array of coordinates."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InvalidParameterError("points must be a nonempty n x d array")
        if not np.all(np.isfinite(pts)):
            raise InvalidParameterError("point coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_csv(cls, path) -> "PointCloud":
        return cls(np.loadtxt(path, delimiter=",", ndmin=2))

    def to_csv(self, path):
        np.savetxt(path, self.points, delimiter=",")

    def to_cache(self, path):
        np.savez_compressed(path, points=self.points)

    @classmethod
    def from_cache(cls, path) -> "PointCloud":
        with np.load(path) as data:
            return cls(data["points"])


@dataclass(frozen=True)
class KernelSpec:
    """A radial kernel profile eta with a bandwidth.

    ``profile`` is the unscaled shape: continuous, nonincreasing, supported
    in [0, support_radius] with profile(0) > 0. Pairwise weights are
    evaluated as profile(distance / bandwidth).
    """

    family: str
    bandwidth: float
    support_radius: float
    profile: Callable[[np.ndarray], np.ndarray] = field(compare=False)

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise InvalidParameterError("bandwidth must be positive")
        if not self.support_radius > 0:
            raise InvalidParameterError("support radius must be positive")

    @property
    def compactly_supported(self) -> bool:
        return math.isfinite(self.support_radius)

    def evaluate(self, dist) -> np.ndarray:
        """Weight for a pairwise distance: eta(dist / bandwidth)."""
        t = np.asarray(dist, dtype=float) / self.bandwidth
        return np.asarray(self.profile(t), dtype=float)

    @classmethod
    def gaussian(cls, sigma: float) -> "KernelSpec":
        # Unbounded support: fine for kNN-truncated weights, rejected by
        # the quadrature in the convergence-study module.
        return cls("gaussian", sigma, math.inf, lambda t: np.exp(-(t ** 2)))

    @classmethod
    def tent(cls, bandwidth: float = 1.0) -> "KernelSpec":
        return cls("tent", bandwidth, bandwidth,
                   lambda t: np.maximum(0.0, 1.0 - t))

    @classmethod
    def tabulated(cls, radii: np.ndarray, values: np.ndarray,
                  bandwidth: float = 1.0) -> "KernelSpec":
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        if np.any(np.diff(values) > 0) or np.any(values < 0):
            raise InvalidParameterError("tabulated kernel must be nonincreasing and nonnegative")
        r_max = float(radii[-1])

        def profile(t):
            return np.interp(t, radii, values, right=0.0)

        return cls("tabulated", bandwidth, bandwidth * r_max, profile)


@dataclass(frozen=True)
class WeightGraph:
    """Sparse directed nonnegative weight matrix with zero diagonal."""

    weights: sp.csr_matrix

    def __post_init__(self):
        w = sp.csr_matrix(self.weights)
        if w.shape[0] != w.shape[1]:
            raise InvalidParameterError("weight matrix must be square")
        if w.diagonal().any():
            w = w.tolil()
            w.setdiag(0.0)
            w = w.tocsr()
        # checked entry by entry, before repeated entries are summed
        if not np.all(np.isfinite(w.data)):
            raise InvalidParameterError("weights must be finite")
        if w.nnz and w.data.min() < 0:
            raise InvalidParameterError("weights must be nonnegative")
        # a kernel may weigh a pair 0 (the tent at the edge of its support);
        # what is left is positive, and so are its sums
        w.eliminate_zeros()
        w.sum_duplicates()  # sorts and sums only input not already canonical
        object.__setattr__(self, "weights", w)

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]

    def operators(self):
        """(G, R), built once and cached (the graph is immutable). Edge e
        is the e-th nonzero w_ij of ``weights`` in CSR order. The gradient
        G (m x n) has (G u)_e = sqrt(w_ij) (u_i - u_j); the row sum R
        (n x m) adds up the edges leaving each node, and R.T copies a
        node's value onto its edges."""
        cached = getattr(self, "_operators", None)
        if cached is None:
            w, n, m = self.weights, self.n_nodes, self.weights.nnz
            tails = np.repeat(np.arange(n), np.diff(w.indptr))
            sqw = np.sqrt(w.data)
            G = sp.csr_matrix((np.column_stack([sqw, -sqw]).ravel(),
                               np.column_stack([tails, w.indices]).ravel(),
                               np.arange(0, 2 * m + 1, 2)), shape=(m, n))
            R = sp.csr_matrix((np.ones(m), np.arange(m), w.indptr), shape=(n, m))
            cached = (G, R)
            object.__setattr__(self, "_operators", cached)
        return cached

    def out_edges(self, mask):
        """The edges leaving the nodes where the boolean ``mask`` holds, in
        order, and the tail of each."""
        indptr = self.weights.indptr
        count = np.where(mask, np.diff(indptr), 0)
        tails = np.repeat(np.arange(self.n_nodes), count)
        # per node: its first edge less the position of that edge in the output
        shift = indptr[:-1] - np.cumsum(count) + count
        return np.arange(tails.size) + shift[tails], tails

    def gradient_adjoint(self, v, edges):
        """G^T v for v listed on ``edges`` only and zero on every other
        edge, in O(len(edges)) rather than a pass over all edges."""
        G, _ = self.operators()
        # G holds two entries per edge, at its tail and its head
        ends = np.take(G.indices.reshape(-1, 2), edges, axis=0).ravel()
        vals = np.take(G.data.reshape(-1, 2), edges, axis=0).ravel()
        return np.bincount(ends, vals * np.repeat(v, 2), minlength=self.n_nodes)

    def symmetrized(self) -> "WeightGraph":
        """Max-symmetrization: w_ij = w_ji = max(w_ij, w_ji)."""
        w = self.weights
        return WeightGraph(w.maximum(w.T).tocsr())

    def to_csv(self, path):
        coo = self.weights.tocoo()
        arr = np.column_stack([coo.row, coo.col, coo.data])
        np.savetxt(path, arr, delimiter=",", fmt=["%d", "%d", "%.17g"])

    @classmethod
    def from_csv(cls, path, n_nodes: Optional[int] = None) -> "WeightGraph":
        arr = np.loadtxt(path, delimiter=",", ndmin=2)
        if arr.size == 0:
            raise InvalidParameterError("empty graph file")
        ends = arr[:, :2]
        if not np.all(np.isfinite(ends) & (ends == np.round(ends))):
            raise InvalidParameterError("node indices must be integers")
        rows, cols = ends.astype(int).T
        vals = arr[:, 2]
        n = n_nodes if n_nodes is not None else int(max(rows.max(), cols.max())) + 1
        return cls(sp.csr_matrix((vals, (rows, cols)), shape=(n, n)))


# Rows are searched in blocks of this many: a Gram block holds
# KNN_BLOCK x n distances.
KNN_BLOCK = 256
# Candidates come from a kd-tree up to this dimension and from Gram blocks
# above it, where a kd-tree prunes too little to beat a matrix product.
KDTREE_MAX_DIM = 15


def exact_knn(points: np.ndarray, k: int):
    """Exact k nearest neighbors of every point, self excluded.

    Ties on distance are broken by the smaller point index. Returns
    (dist, idx), both of shape (n, k), each row sorted by (distance, index).
    Rows are searched in blocks of KNN_BLOCK.

    Up to dimension KDTREE_MAX_DIM, a row's candidates are every point in
    a kd-tree ball of its k-th neighbor distance, ranked in one sort per
    block. Above it, each block's squared distances |x|^2 + |y|^2 - 2 x.y
    go into two KNN_BLOCK x n buffers, reused by every block, which bound
    the search's memory. One argpartition takes each row's k + 1 smallest,
    and only those are square-rooted (negative round-off read as 0). Where
    the (k+1)-th distance exceeds the k-th, the row's first k are its
    neighbors, sorted by (distance, index). Where it ties the k-th, a
    neighbor outside them may win on index, and the row falls back to
    ranking every point within its k-th distance. Either way a row's
    result is bitwise that of the full scan.
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    if not 1 <= k < n:
        raise InvalidParameterError(f"need 1 <= k < n, got k={k} for n={n} points")
    search = (_kdtree_search if d <= KDTREE_MAX_DIM else _gram_search)(points, k)
    out_d = np.empty((n, k))
    out_i = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, KNN_BLOCK):
        stop = min(start + KNN_BLOCK, n)
        out_d[start:stop], out_i[start:stop] = search(start, stop)
    return out_d, out_i


def _first_k(rows, cols, dist, k, m):
    """(dist, idx), each m x k: the first k candidates of each of the rows
    0..m-1 by (distance, index). Every row has at least k candidates."""
    order = np.lexsort((cols, dist, rows))
    counts = np.bincount(rows, minlength=m)
    first = np.cumsum(counts) - counts
    take = order[(first[:, None] + np.arange(k)).ravel()]
    return dist[take].reshape(m, k), cols[take].reshape(m, k)


def _kdtree_search(points, k):
    """search(start, stop) -> (dist, idx) of the rows start..stop-1, from
    every point in a kd-tree ball of each row's k-th neighbor distance."""
    # imported here: only low-dimensional kNN needs scipy.spatial
    from scipy.spatial import cKDTree
    tree = cKDTree(points)

    def search(start, stop):
        block = points[start:stop]
        # counting self, at distance 0, the (k+1)-th distance is the k-th
        r = tree.query(block, k=[k + 1])[0][:, 0]
        # tiny inflation: the tree's internal distance arithmetic may
        # exclude boundary points at exactly r
        balls = tree.query_ball_point(block, r * (1.0 + 1e-9) + 1e-300)
        counts = np.fromiter(map(len, balls), np.int64, count=len(balls))
        rows = np.repeat(np.arange(stop - start), counts)
        cols = np.fromiter(chain.from_iterable(balls), np.int64, count=rows.size)
        keep = cols != rows + start
        rows, cols = rows[keep], cols[keep]
        dist = np.linalg.norm(points[cols] - points[rows + start], axis=1)
        return _first_k(rows, cols, dist, k, stop - start)

    return search


def _gram_search(points, k):
    """search(start, stop) -> (dist, idx) of the rows start..stop-1, from
    a block of squared distances (exact_knn)."""
    n = points.shape[0]
    sq = np.einsum("ij,ij->i", points, points)
    # two arrays, not one of twice the size: freeing an array raises
    # glibc's mmap threshold to its size, and one 16 MB array left the
    # solves after the search 4-9 MB more peak RSS (64x64 desk texture)
    shape = (min(KNN_BLOCK, n), n)
    gram_buf, d2_buf = np.empty(shape), np.empty(shape)

    def search(start, stop):
        m = stop - start
        gram, d2 = gram_buf[:m], d2_buf[:m]
        np.matmul(points[start:stop], points.T, out=gram)
        gram *= 2.0
        np.add(sq[start:stop, None], sq[None, :], out=d2)
        d2 -= gram
        d2[np.arange(m), np.arange(start, stop)] = np.inf
        # the k + 1 smallest, the (k+1)-th in column k; sqrt(max(., 0))
        # keeps their order but may tie distinct squared distances
        near = np.argpartition(d2, k, axis=1)[:, :k + 1]
        dist = np.sqrt(np.maximum(np.take_along_axis(d2, near, axis=1), 0.0))
        kth = dist[:, :k].max(axis=1)
        tied = np.flatnonzero(dist[:, k] == kth)
        near, dist = near[:, :k], dist[:, :k]
        order = np.lexsort((near, dist), axis=1)
        out_d = np.take_along_axis(dist, order, axis=1)
        out_i = np.take_along_axis(near, order, axis=1)
        if tied.size:
            full = np.sqrt(np.maximum(d2[tied], 0.0))
            rows, cols = np.nonzero(full <= kth[tied, None])
            out_d[tied], out_i[tied] = _first_k(rows, cols, full[rows, cols],
                                                k, tied.size)
        return out_d, out_i

    return search


def knn_graph(cloud: PointCloud, k: int, kernel: KernelSpec) -> WeightGraph:
    """Directed kNN weight graph: row i holds kernel weights to the k
    nearest neighbors of x_i (self excluded, exact search)."""
    dist, idx = exact_knn(cloud.points, k)
    return _assemble(cloud.count, idx, kernel.evaluate(dist))


def self_tuning_weights(cloud: PointCloud, k: int, k_sigma: int) -> WeightGraph:
    """Quartic self-tuning weights w = exp(-2 d^4 / sigma(x)^4) with
    sigma(x) the distance from x to its k_sigma-th nearest neighbor."""
    if not (1 <= k_sigma <= k):
        raise InvalidParameterError("need 1 <= k_sigma <= k")
    dist, idx = exact_knn(cloud.points, k)
    sigma = dist[:, k_sigma - 1]
    bad = np.nonzero(sigma == 0.0)[0]
    if bad.size:
        raise DegenerateBandwidthError(
            f"zero bandwidth at row(s) {bad[:10].tolist()}"
            f"{'...' if bad.size > 10 else ''}: at least "
            f"{k_sigma} duplicates of the point")
    ratio = dist / sigma[:, None]
    w = np.exp(-2.0 * ratio ** 4)
    return _assemble(cloud.count, idx, w)


def _assemble(n, idx, w):
    rows = np.repeat(np.arange(n), idx.shape[1])
    return WeightGraph(sp.csr_matrix((w.ravel(), (rows, idx.ravel())), shape=(n, n)))
