import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import ilgraph.graph
from conftest import random_directed_graph
from ilgraph.graph import (DegenerateBandwidthError, InvalidParameterError,
                           KernelSpec, PointCloud, WeightGraph, exact_knn,
                           knn_graph, self_tuning_weights)

# KDTREE_MAX_DIM values that force each candidate path at any dimension
PATHS = {"kdtree": 10 ** 6, "gram": 0}


def knn_by_path(pts, k, path, block=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ilgraph.graph, "KDTREE_MAX_DIM", PATHS[path])
        if block is not None:
            mp.setattr(ilgraph.graph, "KNN_BLOCK", block)
        return exact_knn(pts, k)


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
        assert pc.count == 3 and pc.dim == 1

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidParameterError):
            PointCloud(np.array([[0.0, np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            PointCloud(np.zeros((0, 2)))

    def test_csv_roundtrip(self, tmp_path):
        pts = np.random.default_rng(0).standard_normal((7, 3))
        PointCloud(pts).to_csv(tmp_path / "p.csv")
        back = PointCloud.from_csv(tmp_path / "p.csv")
        assert np.allclose(back.points, pts)

    def test_cache_roundtrip(self, tmp_path):
        pts = np.random.default_rng(1).standard_normal((5, 2))
        PointCloud(pts).to_cache(tmp_path / "p.npz")
        back = PointCloud.from_cache(tmp_path / "p.npz")
        assert np.array_equal(back.points, pts)


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

    def test_tabulated_rejects_increasing(self):
        with pytest.raises(InvalidParameterError):
            KernelSpec.tabulated([0.0, 1.0], [0.0, 1.0])

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

    def test_negative_repeated_entry_rejected(self):
        # (0, 1) given as -1 and +1: each entry is checked, not their sum 0
        mat = sp.csr_matrix((np.array([-1.0, 1.0]), np.array([1, 1]),
                             np.array([0, 2, 2])), shape=(2, 2))
        with pytest.raises(InvalidParameterError, match="nonnegative"):
            WeightGraph(mat)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidParameterError):
            WeightGraph(sp.csr_matrix(np.ones((2, 3))))

    def test_symmetrized_takes_max(self):
        mat = sp.csr_matrix(np.array([[0.0, 2.0], [1.0, 0.0]]))
        g = WeightGraph(mat).symmetrized()
        assert np.allclose(g.weights.toarray(), [[0.0, 2.0], [2.0, 0.0]])

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        mat = sp.random(6, 6, density=0.4, random_state=rng, format="csr")
        g = WeightGraph(mat)
        g.to_csv(tmp_path / "g.csv")
        back = WeightGraph.from_csv(tmp_path / "g.csv", n_nodes=6)
        assert np.allclose(back.weights.toarray(), g.weights.toarray())

    def test_operators_cached_and_consistent(self):
        # edges in CSR order: 0->1 (w 4), 0->2 (w 1), 1->0 (w 9); node 2
        # has no out-edges
        g = WeightGraph(sp.csr_matrix(np.array(
            [[0.0, 4.0, 1.0], [9.0, 0.0, 0.0], [0.0, 0.0, 0.0]])))
        G, R = g.operators()
        assert g.operators()[0] is G and g.operators()[1] is R  # cached
        assert np.array_equal(G.toarray(), [[2, -2, 0], [1, 0, -1], [-3, 3, 0]])
        assert np.array_equal(R.toarray(), [[1, 1, 0], [0, 0, 1], [0, 0, 0]])

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 25), seed=st.integers(0, 2 ** 32 - 1))
    def test_operators_match_dense_oracle_on_directed_graphs(self, n, seed):
        rng = np.random.default_rng(seed)
        graph = random_directed_graph(n, rng)
        G, R = graph.operators()
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
        assert np.allclose(R @ x, row_sum, rtol=1e-13, atol=1e-13)
        assert np.allclose(G.T @ v, adjoint, rtol=1e-13, atol=1e-13)
        # G^T diag(nu_e) G, each edge taking its tail's penalty, restricted
        # to the unlabeled nodes: the Laplacian of nu_i w_ij + nu_j w_ji
        nu = rng.uniform(0.5, 2.0, size=n)
        unl = np.sort(rng.permutation(n)[:max(1, n // 2)])
        system = (G.T @ sp.diags(R.T @ nu) @ G).toarray()[np.ix_(unl, unl)]
        B = nu[:, None] * graph.weights.toarray()
        B = B + B.T
        lap = np.diag(B.sum(axis=1)) - B
        assert np.allclose(system, lap[np.ix_(unl, unl)], rtol=1e-13, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 25), seed=st.integers(0, 2 ** 32 - 1))
    def test_out_edges_and_adjoint_on_a_node_subset(self, n, seed):
        rng = np.random.default_rng(seed)
        graph = random_directed_graph(n, rng)
        G, _ = graph.operators()
        tails = graph.weights.tocoo().row  # the edges, in CSR order
        mask = rng.random(n) < rng.random()
        edges, edge_tails = graph.out_edges(mask)
        assert np.array_equal(edges, np.flatnonzero(mask[tails]))
        assert np.array_equal(edge_tails, tails[edges])
        v = rng.standard_normal(edges.size)
        full = np.zeros(graph.weights.nnz)
        full[edges] = v
        assert np.allclose(graph.gradient_adjoint(v, edges), G.T @ full,
                           rtol=1e-13, atol=1e-13)

    def test_from_csv_rejects_fractional_node_index(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1,1.0\n1.6,0,1.0\n")
        with pytest.raises(InvalidParameterError, match="integers"):
            WeightGraph.from_csv(path)


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
