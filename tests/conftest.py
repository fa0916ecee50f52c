import numpy as np
import pytest
import scipy.sparse as sp

import ilgraph.linalg
from ilgraph.graph import WeightGraph
from ilgraph.inpaint import Image
from ilgraph.solver import LabelAssignment, threshold_subproblem
from ilgraph.toy2d import LABEL_POINTS


@pytest.fixture
def over_cap(monkeypatch):
    """No matrix is small enough to factor: every solve iterates."""
    monkeypatch.setattr(ilgraph.linalg, "FACTOR_MAX_ENTRIES", 0)


@pytest.fixture(scope="session")
def knn_clouds():
    """Point clouds that exercise the kd-tree kNN search, by name: the
    toy2d points, few ties, exact ties on integer grids and lines,
    duplicate groups, and a 1000-fold duplicate cluster at either end of
    the row order."""
    rng = np.random.default_rng(0)
    axis = np.linspace(0.0, 1.0, 101)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    background = rng.random((19000, 2))
    cluster = np.repeat(background[:1], 1000, axis=0)
    return {
        "toy2d": np.vstack([np.column_stack([gx.ravel(), gy.ravel()]),
                            LABEL_POINTS]),
        "uniform2d": rng.random((20000, 2)),
        "uniform3d": rng.random((20000, 3)),
        "grid27": np.indices((27, 27, 27)).reshape(3, -1).T.astype(float),
        "line": np.arange(5000.0)[:, None],
        "dup20": np.repeat(rng.random((500, 2)), 20, axis=0),
        "cluster_first": np.vstack([cluster, background]),
        "cluster_last": np.vstack([background, cluster]),
    }


def random_connected_graph(n, rng, density=0.15):
    """Random symmetric weighted graph, guaranteed connected by a cycle."""
    mat = sp.random(n, n, density=density, random_state=rng)
    mat = abs(mat + mat.T).tolil()
    idx = np.arange(n)
    mat[idx, (idx + 1) % n] = rng.uniform(0.1, 1.0, size=n)
    mat[(idx + 1) % n, idx] = mat[idx, (idx + 1) % n]
    mat.setdiag(0.0)
    return WeightGraph(mat.tocsr())


def random_directed_graph(n, rng, density=0.3):
    """Random asymmetric weighted graph, connected when its edges are taken
    both ways: every node k > 0 has an in-edge from an earlier node. About
    a third of the nodes, never node 0, have no out-edges."""
    sinks = rng.random(n) < 1 / 3
    sinks[0] = False
    mat = sp.random(n, n, density=density, random_state=rng).tolil()
    for k in range(1, n):
        mat[rng.choice(np.nonzero(~sinks[:k])[0]), k] = rng.uniform(0.1, 1.0)
    return WeightGraph(sp.diags((~sinks).astype(float)) @ mat.tocsr())


def random_labels(n, rng, n_labels=3):
    idx = rng.choice(n, size=n_labels, replace=False)
    return LabelAssignment(idx, rng.uniform(-1.0, 1.0, size=n_labels))


def desk_image(n):
    """Synthetic stand-in for AC7's desk texture, n x n: oriented
    oscillation with a slow amplitude envelope plus a ramp (no two patches
    identical)."""
    yy, xx = np.mgrid[0:n, 0:n]
    arr = (127.5
           + 90.0 * np.sin(2 * np.pi * (xx + 2 * yy) / 16.0)
           * np.cos(2 * np.pi * (xx - yy) / 48.0)
           + 30.0 * np.sin(2 * np.pi * xx / 64.0))
    return Image(np.clip(arr, 0, 255))


def row_sum_matrix(graph):
    """The n x m matrix R that adds up the edges leaving each node, edges
    in CSR order; R.T copies a node's value onto its edges. Built here,
    apart from the library, for the references that work on full edge
    vectors."""
    w = graph.weights
    return sp.csr_matrix((np.ones(w.nnz), np.arange(w.nnz), w.indptr),
                         shape=(graph.n_nodes, w.nnz))


def edge_space_d_update(t, q, c, R, alpha, scope):
    """The D update on full edge vectors: scale kappa (t - q) row by row
    from the norms of its rows."""
    c_data = (c / (alpha + c)) * (t - q)
    norm = np.sqrt(R @ c_data ** 2)
    x = norm.copy()
    x[scope] = threshold_subproblem(np.full(norm[scope].size, alpha + c),
                                    norm[scope])
    scale = np.divide(x, norm, out=np.zeros_like(x), where=norm > 0)
    return (R.T @ scale) * c_data
