"""Start-up: importing the library loads only the scipy every run uses.

The kd-tree (scipy.spatial) and scipy.special are imported by the
functions that use them, so a run that never calls those functions never
pays for them. scipy.integrate and scipy.optimize are never loaded: the
kernel moment of the convergence study is integrated in closed form, so
neither its constant nor a whole study loads them.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ilgraph

DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.spatial")

PROBE = f"""
import json, sys
import ilgraph, ilgraph.cli
loaded = [m for m in {DEFERRED!r} if m in sys.modules]
import numpy as np
from ilgraph.gamma import (BandwidthSchedule, convergence_study,
                           interval_benchmark, sigma_eta)
from ilgraph.graph import KernelSpec, PointCloud, exact_knn, knn_graph
pts = np.random.default_rng(0).random((60, 2))
graph = knn_graph(PointCloud(pts), 5, KernelSpec.tent())
# 36 sites, about 8 copies of each, in two blocks: duplicate groups larger
# than the first block's K and ties at the k-th distance
ties = np.random.default_rng(1).integers(0, 6, (300, 2)).astype(float)
tie_dist, tie_idx = exact_knn(ties, 5)
sigma = sigma_eta(KernelSpec.tent(), 2.0, 2)
rows = convergence_study(interval_benchmark(), BandwidthSchedule([60, 120]), 1)
print(json.dumps({{"loaded": loaded, "points": pts.tolist(),
                  "weights": graph.weights.toarray().tolist(),
                  "kdtree_loaded": "scipy.spatial" in sys.modules,
                  "ties": ties.tolist(), "tie_dist": tie_dist.tolist(),
                  "tie_idx": tie_idx.tolist(),
                  "sigma": sigma, "study_rows": len(rows),
                  "study_loaded": [m for m in ("scipy.integrate",
                                               "scipy.optimize")
                                   if m in sys.modules]}}))
"""


def dense_knn(pts, k):
    """The k nearest neighbours by a dense search, ties to the smaller
    index."""
    dist = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
    np.fill_diagonal(dist, np.inf)
    order = np.lexsort((np.broadcast_to(np.arange(len(pts)), dist.shape),
                        dist), axis=1)[:, :k]
    return np.take_along_axis(dist, order, axis=1), order


def test_import_defers_heavy_scipy_and_deferred_paths_work():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ilgraph.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    # 2-D points take the kd-tree path, which imports scipy.spatial itself
    assert out["kdtree_loaded"]
    pts = np.array(out["points"])
    dist, idx = dense_knn(pts, 5)
    expected = np.zeros((len(pts), len(pts)))
    np.put_along_axis(expected, idx, np.maximum(0.0, 1.0 - dist), axis=1)
    np.testing.assert_array_equal(np.array(out["weights"]), expected)
    dist, idx = dense_knn(np.array(out["ties"]), 5)
    np.testing.assert_array_equal(np.array(out["tie_idx"]), idx)
    np.testing.assert_array_equal(np.array(out["tie_dist"]), dist)
    # radial integral of (1-r) r^3 = 1/20 times the angular moment pi; the
    # pinned figure is the value computed with scipy.special.gammaln
    assert out["sigma"] == pytest.approx(0.3963327297606011, rel=1e-15, abs=0)
    assert out["sigma"] == pytest.approx(np.sqrt(np.pi / 20.0), rel=1e-12)
    # the kernel moment and a two-row study load no quadrature
    assert out["study_rows"] == 2
    assert out["study_loaded"] == []
