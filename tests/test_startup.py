"""Start-up: importing the library loads only the scipy every run uses.

The kd-tree (scipy.spatial), the quadrature (scipy.integrate, which loads
scipy.optimize) and scipy.special are imported by the functions that use
them, so a run that never calls those functions never pays for them.
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
from ilgraph.gamma import sigma_eta
from ilgraph.graph import KernelSpec, PointCloud, knn_graph
pts = np.random.default_rng(0).random((60, 2))
graph = knn_graph(PointCloud(pts), 5, KernelSpec.tent())
print(json.dumps({{"loaded": loaded, "points": pts.tolist(),
                  "weights": graph.weights.toarray().tolist(),
                  "kdtree_loaded": "scipy.spatial" in sys.modules,
                  "sigma": sigma_eta(KernelSpec.tent(), 2.0, 2)}}))
"""


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
    # the 5 nearest neighbours by a dense search, ties to the smaller index
    pts = np.array(out["points"])
    dist = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
    np.fill_diagonal(dist, np.inf)
    expected = np.zeros_like(dist)
    for i, row in enumerate(dist):
        nearest = np.lexsort((np.arange(row.size), row))[:5]
        expected[i, nearest] = np.maximum(0.0, 1.0 - row[nearest])
    np.testing.assert_array_equal(np.array(out["weights"]), expected)
    # radial integral of (1-r) r^3 = 1/20 times the angular moment pi; the
    # pinned figure is the value computed with scipy.special.gammaln
    assert out["sigma"] == pytest.approx(0.3963327297606011, rel=1e-15, abs=0)
    assert out["sigma"] == pytest.approx(np.sqrt(np.pi / 20.0), rel=1e-12)
