import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.spatial
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ilgraph.graph
from conftest import random_directed_graph, row_sum_matrix
from ilgraph.graph import (DegenerateBandwidthError, InvalidParameterError,
                           KernelSpec, PointCloud, WeightGraph, exact_knn,
                           knn_graph, self_tuning_weights)
from ilgraph.linalg import DisconnectedGraphError

# KDTREE_MAX_DIM values that force each candidate path at any dimension
PATHS = {"kdtree": 10 ** 6, "gram": 0}


def knn_by_path(pts, k, path, block=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ilgraph.graph, "KDTREE_MAX_DIM", PATHS[path])
        if block is not None:
            mp.setattr(ilgraph.graph, "KNN_BLOCK", block)
        return exact_knn(pts, k)


class RecordingTree(scipy.spatial.cKDTree):
    """A kd-tree that logs each query's K and each ball query's row count,
    in call order."""

    log = []

    def query(self, x, k=1, **kwargs):
        self.log.append(("query", k))
        return super().query(x, k=k, **kwargs)

    def query_ball_point(self, x, r, **kwargs):
        self.log.append(("ball", len(x)))
        return super().query_ball_point(x, r, **kwargs)


@pytest.fixture
def recording_tree(monkeypatch):
    """The kd-tree calls of the kNN searches run while it is active."""
    RecordingTree.log = []
    monkeypatch.setattr(scipy.spatial, "cKDTree", RecordingTree)
    return RecordingTree.log


def lexsort_oracle(pts, k):
    """Dense kNN: every row fully sorted by (distance, index)."""
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    index = np.broadcast_to(np.arange(len(pts)), dist.shape)
    order = np.lexsort((index, dist), axis=1)[:, :k]
    return np.take_along_axis(dist, order, axis=1), order


class TestPointCloud:
    def test_promotes_1d_to_column(self):
        pc = PointCloud(np.array([1.0, 2.0, 3.0]))
        assert pc.points.shape == (3, 1)
        assert pc.count == 3

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidParameterError):
            PointCloud(np.array([[0.0, np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            PointCloud(np.zeros((0, 2)))


class TestKernelSpec:
    def test_gaussian_value(self):
        ker = KernelSpec.gaussian(2.0)
        # exp(-(1/2)^2) = exp(-0.25)
        assert np.isclose(ker.evaluate(1.0), np.exp(-0.25))
        assert not ker.compactly_supported

    def test_tent_values(self):
        ker = KernelSpec.tent()
        assert np.allclose(ker.evaluate([0.0, 0.5, 1.0, 2.0]),
                           [1.0, 0.5, 0.0, 0.0])
        assert ker.compactly_supported

    def test_tabulated_interpolates_and_clips(self):
        ker = KernelSpec.tabulated([0.0, 1.0], [2.0, 0.0])
        assert np.allclose(ker.evaluate([0.25, 1.5]), [1.5, 0.0])

    def test_equality_compares_the_profile_at_the_knots(self):
        # equal fields, profiles apart: 0.5 and 1.0 at distance 0.5
        assert (KernelSpec.tabulated([0, 1], [1, 0])
                != KernelSpec.tabulated([0, 1], [2, 0]))
        assert (KernelSpec.tabulated([0, 1], [1, 0])
                == KernelSpec.tabulated([0, 1], [1, 0]))
        assert KernelSpec.tent() == KernelSpec.tent()
        assert hash(KernelSpec.tent()) == hash(KernelSpec.tent())
        assert KernelSpec.tent(2.0) != KernelSpec.tent()

    def test_knots_of_the_piecewise_linear_kernels(self):
        assert KernelSpec.tent(2.0).knots == (0.0, 1.0)
        # constant before the first radius
        assert KernelSpec.tabulated([0.5, 1.0], [1.0, 0.0]).knots == (
            0.0, 0.5, 1.0)
        assert KernelSpec.tabulated([0.0, 1.0], [1.0, 0.0]).knots == (0.0, 1.0)
        assert KernelSpec.gaussian(1.0).knots is None

    @pytest.mark.parametrize("knots", [(0.5, 1.0), (0.0, 1.0, 1.0), (0.0,)])
    def test_rejects_knots_not_increasing_from_zero(self, knots):
        with pytest.raises(InvalidParameterError, match="knots"):
            KernelSpec("tent", 1.0, 1.0, lambda t: np.maximum(0.0, 1.0 - t),
                       knots=knots)

    def test_tabulated_rejects_increasing(self):
        with pytest.raises(InvalidParameterError):
            KernelSpec.tabulated([0.0, 1.0], [0.0, 1.0])

    @pytest.mark.parametrize("radii, values, match", [
        # profile(0) = 0, against the contract's profile(0) > 0
        ([0.0, 1.0], [0.0, 0.0], "positive at 0"),
        ([0.0, 1.0, 2.0], [1.0, 0.5, 0.8], "nonincreasing"),
        ([0.0, 1.0, 2.0], [1.0, 0.5, -0.1], "nonnegative"),
        # the last radius, 1.0, would be taken as the support radius
        ([0.0, 2.0, 1.0], [1.0, 0.5, 0.2], "increasing"),
        ([-1.0, 1.0], [1.0, 0.0], "nonnegative"),
        # numpy's interp failed only at evaluation
        ([0.0, 1.0, 2.0], [1.0, 0.5], "one value per radius"),
        ([0.0, 1.0], [1.0, 0.5, 0.0], "one value per radius"),
        ([], [], "one value per radius")])
    def test_tabulated_rejects_a_table_outside_the_contract(self, radii,
                                                            values, match):
        with pytest.raises(InvalidParameterError, match=match):
            KernelSpec.tabulated(radii, values)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(InvalidParameterError):
            KernelSpec.gaussian(0.0)


class TestWeightGraph:
    def test_zeroes_diagonal(self):
        mat = sp.csr_matrix(np.array([[5.0, 1.0], [1.0, 5.0]]))
        g = WeightGraph(mat)
        assert g.weights.diagonal().sum() == 0.0
        assert g.weights.nnz == 2

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            WeightGraph(sp.csr_matrix(np.array([[0.0, -1.0], [0.0, 0.0]])))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidParameterError, match="finite"):
            WeightGraph(sp.csr_matrix(np.array([[0.0, bad], [1.0, 0.0]])))

    def test_repeated_entries_summed(self):
        # COO-style input: the entry (0, 1) given twice, unsorted columns
        mat = sp.csr_matrix((np.array([1.0, 2.0, 0.5]), np.array([2, 1, 1]),
                             np.array([0, 3, 3, 3])), shape=(3, 3))
        w = WeightGraph(mat).weights
        assert w.has_canonical_format
        assert np.array_equal(w.indices, [1, 2])
        assert np.array_equal(w.data, [2.5, 1.0])

    @pytest.mark.parametrize("data, indices", [
        ([1.0, 0.0, 1.0], [1, 0, 0]),   # a stored zero at (0, 0)
        ([2.0, 1.0, 1.0], [1, 1, 0]),   # (0, 1) given twice
    ])
    def test_input_matrix_is_copied_not_edited(self, data, indices):
        mat = sp.csr_matrix((np.array(data), np.array(indices),
                             np.array([0, 2, 3])), shape=(2, 2))
        before = (mat.nnz, mat.data.copy(), mat.indices.copy())
        g = WeightGraph(mat)
        assert mat.nnz == before[0]
        assert np.array_equal(mat.data, before[1])
        assert np.array_equal(mat.indices, before[2])
        assert not np.shares_memory(g.weights.data, mat.data)
        # a later edit of the caller's matrix does not reach the graph
        expected = g.weights.toarray()
        mat.data[:] = 7.0
        assert np.array_equal(g.weights.toarray(), expected)

    def test_negative_repeated_entry_rejected(self):
        # (0, 1) given as -1 and +1: each entry is checked, not their sum 0
        mat = sp.csr_matrix((np.array([-1.0, 1.0]), np.array([1, 1]),
                             np.array([0, 2, 2])), shape=(2, 2))
        with pytest.raises(InvalidParameterError, match="nonnegative"):
            WeightGraph(mat)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidParameterError):
            WeightGraph(sp.csr_matrix(np.ones((2, 3))))

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        g = WeightGraph(sp.random(6, 6, density=0.4, random_state=rng,
                                  format="csr"))
        coo = g.weights.tocoo()
        np.savetxt(tmp_path / "g.csv",
                   np.column_stack([coo.row, coo.col, coo.data]),
                   delimiter=",", fmt=["%d", "%d", "%.17g"])
        back = WeightGraph.from_csv(tmp_path / "g.csv", n_nodes=6)
        assert np.array_equal(back.weights.toarray(), g.weights.toarray())

    def test_operators_cached_and_consistent(self):
        # edges in CSR order: 0->1 (w 4), 0->2 (w 1), 1->0 (w 9); node 2
        # has no out-edges
        g = WeightGraph(sp.csr_matrix(np.array(
            [[0.0, 4.0, 1.0], [9.0, 0.0, 0.0], [0.0, 0.0, 0.0]])))
        G = g.gradient()
        assert g.gradient() is G  # cached
        assert np.array_equal(G.toarray(), [[2, -2, 0], [1, 0, -1], [-3, 3, 0]])

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 25), seed=st.integers(0, 2 ** 32 - 1))
    def test_operators_match_dense_oracle_on_directed_graphs(self, n, seed):
        rng = np.random.default_rng(seed)
        graph = random_directed_graph(n, rng)
        G = graph.gradient()
        coo = graph.weights.tocoo()  # the edges, in CSR order
        rows, cols, w = coo.row, coo.col, coo.data
        m = w.size
        u, x, v = (rng.standard_normal(n), rng.standard_normal(m),
                   rng.standard_normal(m))
        assert np.allclose(G @ u, np.sqrt(w) * (u[rows] - u[cols]),
                           rtol=1e-13, atol=1e-13)
        row_sum = np.zeros(n)
        adjoint = np.zeros(n)
        for e in range(m):
            row_sum[rows[e]] += x[e]
            adjoint[rows[e]] += np.sqrt(w[e]) * v[e]
            adjoint[cols[e]] -= np.sqrt(w[e]) * v[e]
        assert np.allclose(graph.row_sums(x), row_sum, rtol=1e-13, atol=1e-13)
        assert np.allclose(G.T @ v, adjoint, rtol=1e-13, atol=1e-13)
        # G^T diag(nu_e) G, each edge taking its tail's penalty, restricted
        # to the unlabeled nodes: the Laplacian of nu_i w_ij + nu_j w_ji
        nu = rng.uniform(0.5, 2.0, size=n)
        unl = np.sort(rng.permutation(n)[:max(1, n // 2)])
        system = (G.T @ sp.diags(nu[rows]) @ G).toarray()[np.ix_(unl, unl)]
        B = nu[:, None] * graph.weights.toarray()
        B = B + B.T
        lap = np.diag(B.sum(axis=1)) - B
        assert np.allclose(system, lap[np.ix_(unl, unl)], rtol=1e-13, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 25), seed=st.integers(0, 2 ** 32 - 1))
    def test_row_sums_bitwise_an_explicit_row_sum_matrix(self, n, seed):
        # about a third of the rows are sinks, with no edges to sum
        rng = np.random.default_rng(seed)
        graph = random_directed_graph(n, rng)
        x = rng.standard_normal(graph.weights.nnz)
        assert np.array_equal(graph.row_sums(x), row_sum_matrix(graph) @ x)
        # the same products in the same order, with no square formed
        assert np.array_equal(graph.square_sums(x), graph.row_sums(x ** 2))

    def test_row_sums_of_an_edgeless_graph(self):
        graph = WeightGraph(sp.csr_matrix((4, 4)))
        sums = graph.row_sums(np.zeros(0))
        assert np.array_equal(sums, np.zeros(4))
        assert np.array_equal(sums, row_sum_matrix(graph) @ np.zeros(0))
        assert np.array_equal(graph.square_sums(np.zeros(0)), np.zeros(4))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 25), seed=st.integers(0, 2 ** 32 - 1))
    def test_selection_and_adjoint_on_a_node_subset(self, n, seed):
        rng = np.random.default_rng(seed)
        graph = random_directed_graph(n, rng)
        G = graph.gradient()
        tails = graph.weights.tocoo().row  # the edges, in CSR order
        mask = rng.random(n) < rng.random()
        selection = graph.select(mask)
        edges, edge_tails = selection.edges, selection.tails
        assert np.array_equal(edges, np.flatnonzero(mask[tails]))
        assert np.array_equal(edge_tails, tails[edges])
        v = rng.standard_normal(edges.size)
        full = np.zeros(graph.weights.nnz)
        full[edges] = v
        assert np.allclose(selection.adjoint(v), G.T @ full,
                           rtol=1e-13, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 25), seed=st.integers(0, 2 ** 32 - 1),
           share=st.sampled_from([0.0, 0.3, 1.0, None]))
    def test_selection_record_against_bincount_and_dense_adjoint(
            self, n, seed, share):
        # random directed graphs: about a third of the nodes are sinks, and
        # a node may have no edge either way; share 0 is the empty mask
        rng = np.random.default_rng(seed)
        graph = random_directed_graph(n, rng)
        if rng.random() < 0.3:  # isolate a node: drop its edges both ways
            keep = sp.diags((np.arange(n) != rng.integers(n)).astype(float))
            graph = WeightGraph(keep @ graph.weights @ keep)
        w = graph.weights
        tails = graph.weights.tocoo().row
        mask = rng.random(n) < (rng.random() if share is None else share)
        sel = graph.select(mask)
        rows = np.flatnonzero(mask)
        edges = np.flatnonzero(mask[tails])
        assert np.array_equal(sel.rows, rows)
        assert np.array_equal(sel.edges, edges)
        assert np.array_equal(sel.tails, tails[edges])
        assert np.array_equal(sel.heads, w.indices[edges])
        assert np.array_equal(
            sel.indptr, np.concatenate([[0], np.cumsum(np.diff(w.indptr)[rows])]))
        # scipy takes the index arrays as they are, in W's index type
        for name in ("rows", "indptr", "tails", "heads"):
            assert getattr(sel, name).dtype == w.indices.dtype
        x = rng.standard_normal(edges.size)
        assert np.array_equal(sel.row_sums(x),
                              np.bincount(tails[edges], x, minlength=n))
        full = np.zeros(w.nnz)
        full[edges] = x
        dense = graph.gradient().toarray().T @ full
        assert np.allclose(sel.adjoint(x), dense, rtol=1e-13, atol=1e-13)
        # G^T adds each node's terms in edge order: bitwise the adjoint
        # that gathers both ends of every edge into one np.bincount
        G = graph.gradient()
        ends = G.indices.reshape(-1, 2)[edges].ravel()
        vals = G.data.reshape(-1, 2)[edges].ravel()
        assert np.array_equal(
            sel.adjoint(x), np.bincount(ends, vals * np.repeat(x, 2),
                                        minlength=n))
        # values carried onto another selection of the rows both hold,
        # against a full edge vector: scattered from one, gathered by the
        # other
        other = graph.select(mask | (rng.random(n) < 0.5))
        both = mask & (rng.random(n) < 0.5)
        full = np.zeros(w.nnz)
        full[edges] = np.where(both[tails[edges]], x, 0.0)
        assert np.array_equal(other.carry(sel, x, both), full[other.edges])

    def test_from_csv_rejects_fractional_node_index(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1,1.0\n1.6,0,1.0\n")
        with pytest.raises(InvalidParameterError, match="integers"):
            WeightGraph.from_csv(path)

    @pytest.mark.parametrize("text", ["0,1\n1,0\n", "0,1,nan\n", "0,x,1\n",
                                      "0,-1,1\n", ""])
    def test_from_csv_errors_name_the_file(self, tmp_path, text):
        # two columns used to raise a bare IndexError
        path = tmp_path / "g.csv"
        path.write_text(text)
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(str(path))}: "):
            WeightGraph.from_csv(path)

    def test_input_errors_are_one_family(self):
        for error in (DegenerateBandwidthError, DisconnectedGraphError):
            assert issubclass(error, InvalidParameterError)


class TestExactKnn:
    def test_hand_line(self):
        # points on a line at 0, 1, 3, 7: neighbors are unambiguous
        pts = np.array([[0.0], [1.0], [3.0], [7.0]])
        dist, idx = exact_knn(pts, 2)
        assert np.array_equal(idx, [[1, 2], [0, 2], [1, 0], [2, 1]])
        assert np.allclose(dist, [[1, 3], [1, 2], [2, 3], [4, 6]])

    def test_tie_break_smaller_index(self):
        # point 0 is equidistant from 1, 2, 3; only two slots
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        _, idx = exact_knn(pts, 2)
        assert idx[0].tolist() == [1, 2]

    def test_k_too_large(self):
        with pytest.raises(InvalidParameterError):
            exact_knn(np.zeros((3, 2)), 3)

    def test_kdtree_matches_brute_on_tie_grid(self):
        g = np.arange(13)
        pts = np.array([(i, j) for i in g for j in g], dtype=float)
        # k=10: an interior point's 10th neighbor is inside a 4-way tie
        for k in (3, 8, 10):
            d1, i1 = knn_by_path(pts, k, "kdtree")
            d2, i2 = knn_by_path(pts, k, "gram")
            assert np.array_equal(i1, i2)
            assert np.allclose(d1, d2)

    def test_kdtree_matches_brute_random(self):
        pts = np.random.default_rng(7).standard_normal((300, 4))
        d1, i1 = knn_by_path(pts, 6, "kdtree")
        d2, i2 = knn_by_path(pts, 6, "gram")
        assert np.array_equal(i1, i2)
        assert np.allclose(d1, d2)

    @pytest.mark.parametrize("k", [8, 10])
    def test_gram_ties_across_the_partition_match_lexsort_oracle(self, k):
        g = np.arange(13)
        pts = np.array([(i, j) for i in g for j in g], dtype=float)
        # rows whose (k+1)-th distance ties the k-th: at k = 8, (0, 1)
        # has 3 points at sqrt(5) for 8th to 10th; at k = 10 every
        # interior point has 4 at distance 2 for 9th to 12th
        ranked, _ = lexsort_oracle(pts, k + 1)
        assert np.count_nonzero(ranked[:, k - 1] == ranked[:, k]) > 0
        dist, idx = knn_by_path(pts, k, "gram")
        want_dist, want_idx = lexsort_oracle(pts, k)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, want_dist)

    def test_gram_every_other_point_one_row_a_block(self):
        # k = n - 1: the argpartition's (k+1)-th entry is the row itself
        pts = np.random.default_rng(8).integers(0, 3, (12, 20)).astype(float)
        dist, idx = knn_by_path(pts, 11, "gram", block=1)
        want_dist, want_idx = lexsort_oracle(pts, 11)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, want_dist)

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_flat_array_is_one_column(self, path):
        dist, idx = knn_by_path(np.array([0.0, 1.0, 3.0, 7.0]), 2, path)
        assert np.array_equal(idx, [[1, 2], [0, 2], [1, 0], [2, 1]])
        assert np.array_equal(dist, [[1, 3], [1, 2], [2, 3], [4, 6]])

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, path, bad):
        # on the Gram path a NaN row used to get itself as a neighbor
        pts = np.random.default_rng(9).standard_normal((6, 20))
        pts[2, 5] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            knn_by_path(pts, 2, path)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([1, 2, 3]),
           block=st.sampled_from([1, 3, 256]), shuffle=st.booleans())
    def test_kdtree_duplicate_groups_match_lexsort_oracle(self, data, dim,
                                                          block, shuffle):
        # sites on a small integer grid, each repeated up to 16 times: tie
        # groups and duplicate groups larger than the first block's K =
        # k + 2, kept together across block boundaries or spread out
        sites = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
            min_size=1, max_size=8), label="sites"), dtype=float)
        sizes = data.draw(st.lists(st.integers(1, 16), min_size=len(sites),
                                   max_size=len(sites)), label="sizes")
        pts = np.repeat(sites, sizes, axis=0)
        if shuffle:
            pts = pts[np.random.default_rng(len(pts)).permutation(len(pts))]
        n = len(pts)
        assume(n >= 2)
        k = data.draw(st.one_of(st.just(n - 1), st.integers(1, n - 1)),
                      label="k")
        dist, idx = knn_by_path(pts, k, "kdtree", block)
        want_dist, want_idx = lexsort_oracle(pts, k)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, want_dist)

    @pytest.mark.parametrize("k", [3, 10, 20, 30])
    @pytest.mark.parametrize("name", ["toy2d", "uniform2d", "uniform3d",
                                      "grid27", "line", "dup20",
                                      "cluster_first", "cluster_last"])
    def test_kdtree_cloud_set_matches_rows_of_the_full_scan(
            self, knn_clouds, name, k):
        pts = knn_clouds[name]
        dist, idx = exact_knn(pts, k)
        n = len(pts)
        # both ends, the 1000-fold clusters and rows spread over the rest
        rows = np.unique(np.r_[0, 999, 1000, n - 1001, n - 1000, n - 1,
                               np.random.default_rng(k).integers(0, n, 40)])
        for i in rows:
            row = np.linalg.norm(pts - pts[i], axis=1)
            row[i] = np.inf
            nearest = np.lexsort((np.arange(n), row))[:k]
            assert np.array_equal(idx[i], nearest)
            assert np.array_equal(dist[i], row[nearest])

    def test_kdtree_duplicate_cluster_does_not_raise_K(self, knn_clouds,
                                                       recording_tree):
        # rows 0..999 are one point: each needs K > 1000, which the search
        # must leave to ball queries on those rows alone
        k = 10
        exact_knn(knn_clouds["cluster_first"], k)
        queried = [K for call, K in recording_tree if call == "query"]
        assert len(queried) == len(range(0, 20000, 256))
        assert max(queried) <= k + 2 + ilgraph.graph._BALL_QUERY_COST
        assert queried[4:] == [k + 2] * len(queried[4:])
        balls = [rows for call, rows in recording_tree if call == "ball"]
        assert sum(balls) < 1100

    def test_kdtree_grid_ball_queries_in_first_block_only(self, knn_clouds,
                                                          recording_tree):
        # interior rows of the 101x101 grid at k = 10 tie 4 points at the
        # 9th to 12th distance; after the first block K covers them
        exact_knn(knn_clouds["toy2d"][:101 * 101], 10)
        calls = [call for call, _ in recording_tree]
        assert calls[:2] == ["query", "ball"]
        assert "ball" not in calls[2:]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([1, 2, 3, 20]),
           path=st.sampled_from(sorted(PATHS)), block=st.sampled_from([1, 3, 256]))
    def test_both_paths_match_lexsort_oracle(self, data, dim, path, block):
        # coordinates in {0, 1, 2}: many duplicate points and tied distances
        n = data.draw(st.integers(2, 40), label="n")
        k = data.draw(st.integers(1, n - 1), label="k")
        pts = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 2), min_size=dim, max_size=dim),
            min_size=n, max_size=n), label="points"), dtype=float)
        dist, idx = knn_by_path(pts, k, path, block)
        want_dist, want_idx = lexsort_oracle(pts, k)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, want_dist)


class TestGraphBuilders:
    def test_knn_graph_weights_match_kernel(self):
        pts = np.random.default_rng(11).uniform(size=(30, 2))
        ker = KernelSpec.gaussian(0.3)
        g = knn_graph(PointCloud(pts), 4, ker)
        dist, idx = exact_knn(pts, 4)
        dense = g.weights.toarray()
        for i in range(30):
            for d, j in zip(dist[i], idx[i]):
                assert np.isclose(dense[i, j], ker.evaluate(d))
        assert np.count_nonzero(dense) == 30 * 4

    def test_knn_graph_rejects_bad_k(self):
        with pytest.raises(InvalidParameterError):
            knn_graph(PointCloud(np.zeros((4, 1))), 0, KernelSpec.tent())

    def test_self_tuning_formula(self):
        # 4 points on a line; sigma(x) = distance to 2nd neighbor
        pts = np.array([[0.0], [1.0], [3.0], [6.0]])
        g = self_tuning_weights(PointCloud(pts), k=2, k_sigma=2)
        dist, idx = exact_knn(pts, 2)
        sigma = dist[:, 1]
        dense = g.weights.toarray()
        for i in range(4):
            for d, j in zip(dist[i], idx[i]):
                assert np.isclose(dense[i, j], np.exp(-2.0 * (d / sigma[i]) ** 4))

    def test_self_tuning_duplicate_points_raise(self):
        pts = np.array([[0.0], [0.0], [0.0], [5.0]])
        with pytest.raises(DegenerateBandwidthError) as err:
            self_tuning_weights(PointCloud(pts), k=2, k_sigma=1)
        assert "0" in str(err.value)

    def test_self_tuning_k_sigma_bounds(self):
        with pytest.raises(InvalidParameterError):
            self_tuning_weights(PointCloud(np.zeros((5, 1))), k=2, k_sigma=3)
