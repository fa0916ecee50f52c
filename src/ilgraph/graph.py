"""Point clouds, kernels and sparse kNN weight graphs.

Weight graphs are kept directed after truncation: row i holds the weights
from x_i to its k nearest neighbors, which need not coincide with the
reverse edges. Solvers consume w_ij and w_ji separately, through the
non-local gradient G (one row per directed edge) that
``WeightGraph.gradient`` builds once per graph, through ``row_sums``,
which adds up the edges leaving each node, ``square_sums``, which adds up
their squares without forming them, and through the EdgeSelection record
that ``select`` builds for the edges of a few nodes: the rows, their CSR
offsets, the edge ids, tails and heads. The record sums its rows' edges,
applies G^T to values on its edges and carries values from another
record's edges onto its own, over those arrays alone, never a pass over
all edges.

Every graph builder takes its neighbors from ``exact_knn``: per block of
rows, a kd-tree query of each row's K nearest points in low dimension,
with a kd-tree ball only for rows whose ties reach past the K-th and K
adapting, within a bound, to the ties of recent blocks; a block of
squared distances in high dimension. Either way the result is bitwise
that of a full scan, ties broken by the smaller index.
"""

import math
import numbers
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp


class InvalidParameterError(ValueError):
    """Raised when an operation receives out-of-contract parameters."""


class DegenerateBandwidthError(InvalidParameterError):
    """Raised when a per-point bandwidth collapses to zero (duplicate points)."""


def check_count(name: str, value, least: int = 1):
    """Raise InvalidParameterError unless value is an int >= least, not a bool."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < least):
        raise InvalidParameterError(
            f"{name} must be at least {least} and an integer, not {value!r}")


def check_real(name: str, value, above=0, may_equal: bool = False):
    """Raise InvalidParameterError unless above < value < inf (<= if may_equal)."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)
            and (value > above or may_equal and value == above)):
        side = (f"{'at least' if may_equal else 'above'} {above}" if above
                else "nonnegative" if may_equal else "positive")
        raise InvalidParameterError(
            f"{name} must be {side} and finite, not {value!r}")


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


@dataclass(frozen=True)
class KernelSpec:
    """A radial kernel profile eta with a bandwidth.

    ``profile`` is the unscaled shape: continuous, nonincreasing, supported
    in [0, support_radius] with profile(0) > 0. Pairwise weights are
    evaluated as profile(distance / bandwidth).

    ``knots``, for a piecewise-linear profile, are the radii in profile
    units, increasing from 0 to support_radius / bandwidth, between which
    the profile is linear; the convergence study integrates its moments
    in closed form over them. The tent and tabulated kernels have knots,
    and a hand-built profile has none unless it is given them.

    Two kernels are equal when their fields other than the profile are,
    and so are the profile's values at the knots, which fix a
    piecewise-linear profile.
    """

    family: str
    bandwidth: float
    support_radius: float
    profile: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    knots: Optional[tuple] = None
    knot_values: Optional[tuple] = field(init=False, default=None, repr=False)

    def __post_init__(self):
        check_real("bandwidth", self.bandwidth)
        if not self.support_radius > 0:  # inf for an unbounded profile
            raise InvalidParameterError("support radius must be positive")
        if self.knots is not None:
            knots = np.asarray(self.knots, dtype=float)
            if not (knots.ndim == 1 and knots.size >= 2 and knots[0] == 0
                    and np.all(np.diff(knots) > 0)):
                raise InvalidParameterError(
                    "knots must increase from 0, at least two of them")
            object.__setattr__(self, "knots", tuple(knots.tolist()))
            object.__setattr__(self, "knot_values", tuple(
                np.asarray(self.profile(knots), dtype=float).tolist()))

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
        # the kernel moment of the convergence-study module.
        return cls("gaussian", sigma, math.inf, lambda t: np.exp(-(t ** 2)))

    @classmethod
    def tent(cls, bandwidth: float = 1.0) -> "KernelSpec":
        return cls("tent", bandwidth, bandwidth,
                   lambda t: np.maximum(0.0, 1.0 - t), knots=(0.0, 1.0))

    @classmethod
    def tabulated(cls, radii: np.ndarray, values: np.ndarray,
                  bandwidth: float = 1.0) -> "KernelSpec":
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        if radii.ndim != 1 or radii.size == 0 or radii.shape != values.shape:
            raise InvalidParameterError(
                "tabulated kernel needs one value per radius")
        if not (radii[0] >= 0 and np.all(np.diff(radii) > 0)):
            raise InvalidParameterError(
                "tabulated radii must be nonnegative and increasing")
        if not (values[0] > 0 and np.all(np.diff(values) <= 0)
                and values[-1] >= 0):
            raise InvalidParameterError("tabulated kernel must be positive at "
                                        "0, nonincreasing and nonnegative")
        r_max = float(radii[-1])

        def profile(t):
            return np.interp(t, radii, values, right=0.0)

        # constant before the first radius, linear between the radii
        knots = radii if radii[0] == 0 else np.concatenate([[0.0], radii])
        return cls("tabulated", bandwidth, bandwidth * r_max, profile,
                   knots=knots)


@dataclass(frozen=True)
class WeightGraph:
    """Sparse directed nonnegative weight matrix with zero diagonal, kept
    in canonical CSR form with no stored zeros. The graph holds a copy of
    the matrix it is given."""

    weights: sp.csr_matrix

    def __post_init__(self):
        # a copy: the checks below edit it in place, and a later edit of
        # the caller's matrix must not reach the graph or its gradient
        w = sp.csr_matrix(self.weights, copy=True)
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

    def gradient(self):
        """The non-local gradient G (m x n), built once and cached (the
        graph is immutable): (G u)_e = sqrt(w_ij) (u_i - u_j), edge e the
        e-th nonzero w_ij of ``weights`` in CSR order."""
        G = getattr(self, "_gradient", None)
        if G is None:
            w, n, m = self.weights, self.n_nodes, self.weights.nnz
            tails = np.repeat(np.arange(n), np.diff(w.indptr))
            sqw = np.sqrt(w.data)
            G = sp.csr_matrix((np.column_stack([sqw, -sqw]).ravel(),
                               np.column_stack([tails, w.indices]).ravel(),
                               np.arange(0, 2 * m + 1, 2)), shape=(m, n))
            object.__setattr__(self, "_gradient", G)
        return G

    def row_sums(self, x):
        """Per node, the sum of x over the edges leaving it, for x with one
        value per edge in CSR order. The edges are added in that order, as
        a product with the n x m row-sum matrix would add them, but no
        such matrix is stored: x is read in place as the data of W's
        sparsity pattern."""
        w = self.weights
        return sp.csr_matrix((x, w.indices, w.indptr), shape=w.shape) @ np.ones(
            self.n_nodes)

    def square_sums(self, t):
        """Per node, the sum of t**2 over the edges leaving it, for t with
        one value per edge in CSR order: the row energies when t = G u.
        The products and their order are those of row_sums(t ** 2), but
        t**2 is never formed: t is read as the data of a matrix whose row
        i holds the ids of node i's edges, and that matrix is applied to
        t. The edge ids, in W's index type, are built once and cached."""
        ids = getattr(self, "_edge_ids", None)
        if ids is None:
            ids = np.arange(self.weights.nnz, dtype=self.weights.indices.dtype)
            object.__setattr__(self, "_edge_ids", ids)
        return sp.csr_matrix((t, ids, self.weights.indptr),
                             shape=(self.n_nodes, ids.size)) @ t

    def select(self, mask) -> "EdgeSelection":
        """The edges leaving the nodes where the boolean ``mask`` holds,
        as one EdgeSelection record, built in O(n + its edges)."""
        w = self.weights
        idx = w.indices.dtype
        rows = np.flatnonzero(mask).astype(idx)
        first = w.indptr[rows]
        degree = w.indptr[rows + 1] - first
        indptr = np.zeros(rows.size + 1, dtype=idx)
        np.cumsum(degree, out=indptr[1:])
        # per row: its first edge less the position of that edge in the
        # record; edge ids are intp, which numpy indexes by without a cast
        edges = np.repeat((first - indptr[:-1]).astype(np.intp), degree)
        edges += np.arange(edges.size)
        return EdgeSelection(self.gradient(), rows, indptr, edges,
                             np.repeat(rows, degree), w.indices[edges])

    @classmethod
    def from_csv(cls, path, n_nodes: Optional[int] = None) -> "WeightGraph":
        """Graph from (i, j, w) lines; every error names the file."""
        try:
            arr = np.loadtxt(path, delimiter=",", ndmin=2)
            if arr.size == 0:
                raise InvalidParameterError("empty graph file")
            if arr.shape[1] != 3:
                raise InvalidParameterError("expected i,j,w lines")
            ends = arr[:, :2]
            if not np.all(np.isfinite(ends) & (ends == np.round(ends))):
                raise InvalidParameterError("node indices must be integers")
            rows, cols = ends.astype(int).T
            vals = arr[:, 2]
            n = (n_nodes if n_nodes is not None
                 else int(max(rows.max(), cols.max())) + 1)
            return cls(sp.csr_matrix((vals, (rows, cols)), shape=(n, n)))
        except (ValueError, OSError) as exc:  # InvalidParameterError too
            raise InvalidParameterError(f"{path}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class EdgeSelection:
    """The edges leaving a set of rows, from WeightGraph.select: the rows,
    ascending, the CSR offsets of their edges in this record (row k owns
    positions indptr[k]:indptr[k + 1]), the edge ids in CSR order and the
    tail and head of each edge. The rows, offsets, tails and heads are in
    W's index type, so that scipy takes them as they are (numpy arrays
    are indexed by them with np.take, which does not convert them first);
    the edge ids, which only index numpy arrays, are intp. Its sums are
    sparse products over these arrays, with no pass over all edges."""

    G: sp.csr_matrix
    rows: np.ndarray
    indptr: np.ndarray
    edges: np.ndarray
    tails: np.ndarray
    heads: np.ndarray

    def row_sums(self, x):
        """Per node, the sum of x over its selected edges, for x listed on
        ``edges``; 0 on the rows not selected. The edges of a row are added
        in CSR order from 0, as np.bincount(tails, x) adds them."""
        n = self.G.shape[1]
        out = np.zeros(n)
        out[self.rows] = sp.csr_matrix(
            (x, self.heads, self.indptr), shape=(self.rows.size, n)) @ np.ones(n)
        return out

    def carry(self, prev, x, mask):
        """x, listed on the edges of the record ``prev``, on this record's
        edges: its values on the rows where the boolean ``mask`` holds,
        which both records hold, and 0 on every other edge. Both list
        those rows' edges in the same order, so one boolean compress and
        one expand move them."""
        out = np.zeros(self.edges.size)
        out[np.repeat(mask[self.rows], np.diff(self.indptr))] = x[
            np.repeat(mask[prev.rows], np.diff(prev.indptr))]
        return out

    def adjoint(self, v):
        """G^T v for v listed on ``edges`` and zero on every other edge: a
        CSC product over G's selected rows, which adds each node's terms
        in edge order, tail before head."""
        G, k = self.G, self.edges.size
        # G holds two entries per edge, at its tail and its head
        ends = np.empty((k, 2), dtype=self.tails.dtype)
        ends[:, 0], ends[:, 1] = self.tails, self.heads
        vals = np.take(G.data.reshape(-1, 2), self.edges, axis=0)
        return sp.csc_matrix(
            (vals.ravel(), ends.ravel(),
             np.arange(0, 2 * k + 1, 2, dtype=ends.dtype)),
            shape=(G.shape[1], k)) @ v


# Rows are searched in blocks of this many: a Gram block holds
# KNN_BLOCK x n distances.
KNN_BLOCK = 256
# Candidates come from a kd-tree up to this dimension and from Gram blocks
# above it, where a kd-tree prunes too little to beat a matrix product.
KDTREE_MAX_DIM = 15


def exact_knn(points: np.ndarray, k: int):
    """Exact k nearest neighbors of every point, self excluded.

    ``points`` is n x d; a flat array is read as one column. Raises
    InvalidParameterError on non-finite coordinates. Ties on distance are
    broken by the smaller point index. Returns (dist, idx), both of shape
    (n, k), each row sorted by (distance, index), with the distances
    |x - y| that np.linalg.norm gives. Rows are searched in blocks of
    KNN_BLOCK.

    Up to dimension KDTREE_MAX_DIM, one kd-tree query per block takes each
    row's K nearest points, which are ranked row by row. Where the K-th
    of them lies beyond the row's k-th neighbor distance, no point outside
    them can tie the k-th, and the row's first k are its neighbors. Where
    it does not (a tie group, or duplicates, reaching past the K-th), the
    row falls back to ranking every point in a kd-tree ball of its k-th
    distance. K starts at k + 2 (self, k neighbors and one point beyond)
    and is chosen anew for each block, as the K at which the previous
    block would have cost least, counting each fallback row as
    _BALL_QUERY_COST candidates: it follows the tie groups of recent
    blocks, falls again when they end, and never exceeds
    k + 2 + _BALL_QUERY_COST, so one large duplicate cluster costs ball
    queries on its own rows only.

    Above KDTREE_MAX_DIM, each block's squared distances |x|^2 + |y|^2 -
    2 x.y go into two KNN_BLOCK x n buffers, reused by every block, which
    bound the search's memory. One argpartition takes each row's k + 1
    smallest, and only those are square-rooted (negative round-off read as
    0). Where the (k+1)-th distance exceeds the k-th, the row's first k
    are its neighbors, sorted by (distance, index). Where it ties the
    k-th, a neighbor outside them may win on index, and the row falls back
    to ranking every point within its k-th distance.

    On either path a row's result is bitwise that of its full scan.
    """
    points = PointCloud(points).points
    n, d = points.shape
    check_count("k", k)
    if k >= n:
        raise InvalidParameterError(f"need k < n, got k={k} for n={n} points")
    search = (_kdtree_search if d <= KDTREE_MAX_DIM else _gram_search)(points, k)
    out_d = np.empty((n, k))
    out_i = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, KNN_BLOCK):
        stop = min(start + KNN_BLOCK, n)
        out_d[start:stop], out_i[start:stop] = search(start, stop)
    return out_d, out_i


def _first_k(rows, cols, dist, k, m):
    """(dist, idx), each m x k: the first k candidates of each of the rows
    0..m-1 by (distance, index). Every row has at least k candidates,
    listed by ascending index."""
    # lexsort is stable: candidates at one distance keep their index order
    order = np.lexsort((dist, rows))
    counts = np.bincount(rows, minlength=m)
    first = np.cumsum(counts) - counts
    take = order[(first[:, None] + np.arange(k)).ravel()]
    return dist[take].reshape(m, k), cols[take].reshape(m, k)


def _kdtree_search(points, k):
    """search(start, stop) -> (dist, idx) of the rows start..stop-1, from
    each row's K nearest points in a kd-tree, or, where those may miss a
    tie, every point in a kd-tree ball of its k-th neighbor distance
    (exact_knn). K carries over from block to block."""
    # imported here: only low-dimensional kNN needs scipy.spatial
    from scipy.spatial import cKDTree
    tree = cKDTree(points)
    n = points.shape[0]
    K = min(k + 2, n)  # the fewest that can resolve a row: self, k, one beyond

    def search(start, stop):
        nonlocal K
        block = points[start:stop]
        tree_d, cand = tree.query(block, k=K)
        dist = np.linalg.norm(points[cand] - block[:, None], axis=2)
        dist[cand == np.arange(start, stop)[:, None]] = np.inf  # self last
        order = np.lexsort((cand, dist), axis=1)[:, :k]
        out_d = np.take_along_axis(dist, order, axis=1)
        out_i = np.take_along_axis(cand, order, axis=1)
        # tiny inflation: the tree's internal distance arithmetic may
        # differ from the norm at exactly the k-th distance
        reach = out_d[:, -1] * (1.0 + 1e-9) + 1e-300
        # where the K-th lies within reach, a point outside the K may tie
        # the k-th; the K are every point when K = n
        tied = np.flatnonzero((tree_d[:, -1] <= reach) & (K < n))
        # the K that would have resolved each row: every point within
        # reach, self included, and one beyond
        need = np.count_nonzero(tree_d <= reach[:, None], axis=1) + 1
        if tied.size:
            # counting self, at distance 0, the (k+1)-th distance is the k-th
            r = tree_d[tied, k]
            balls = tree.query_ball_point(block[tied], r * (1.0 + 1e-9) + 1e-300,
                                          return_sorted=True)
            counts = np.fromiter(map(len, balls), np.int64, count=len(balls))
            rows = np.repeat(np.arange(tied.size), counts)
            cols = np.fromiter(chain.from_iterable(balls), np.int64,
                               count=rows.size)
            keep = cols != tied[rows] + start
            rows, cols = rows[keep], cols[keep]
            d = np.linalg.norm(points[cols] - block[tied[rows]], axis=1)
            out_d[tied], out_i[tied] = _first_k(rows, cols, d, k, tied.size)
            need[tied] = counts + 1
        K = min(_cheapest_reach(need, k + 2), n)
        return out_d, out_i

    return search


# One row's ball query and ranking cost about as much as this many more
# kd-tree candidates for one row.
_BALL_QUERY_COST = 24


def _cheapest_reach(need, least):
    """The K, at least ``least``, at which the rows of the last block
    would have cost least: K tree candidates for each row, and a ball
    query for each row whose need exceeds K. It is at most least +
    _BALL_QUERY_COST, so one large tie group cannot inflate K."""
    need = np.sort(need)
    K = np.append(least, need[need > least])
    misses = need.size - np.searchsorted(need, K, side="right")
    return int(K[np.argmin(K * need.size + _BALL_QUERY_COST * misses)])


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
    check_neighbors(k, k_sigma)
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


def check_neighbors(k, k_sigma):
    """The rule of self_tuning_weights' counts: 1 <= k_sigma <= k."""
    check_count("k_sigma", k_sigma)
    check_count("k", k, k_sigma)


def _assemble(n, idx, w):
    rows = np.repeat(np.arange(n), idx.shape[1])
    return WeightGraph(sp.csr_matrix((w.ravel(), (rows, idx.ravel())), shape=(n, n)))
