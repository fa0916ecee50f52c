"""The library's one count check and one real check: every public function
and config with a scalar parameter rejects an out-of-contract value with
an InvalidParameterError that names the parameter, and the configs are
checked when they are built and cannot be edited afterwards."""

import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from ilgraph.gamma import (BandwidthSchedule, build_full_kernel_graph,
                           convergence_study, interval_benchmark, sigma_eta)
from ilgraph.graph import (InvalidParameterError, KernelSpec, PointCloud,
                           exact_knn, knn_graph, self_tuning_weights)
from ilgraph.inpaint import InpaintConfig, SampleMask
from ilgraph.linalg import solve_symmetric
from ilgraph.solver import SolverConfig
from ilgraph.toy2d import build_toy2d

RNG = np.random.default_rng(0)
PLANE = RNG.random((30, 2))     # exact_knn's kd-tree path
PATCHES = RNG.random((30, 20))  # its Gram path, above KDTREE_MAX_DIM
LINE = np.linspace(0.0, 1.0, 5)

# (id, parameter named by the message, call)
CASES = [
    ("exact_knn-kdtree", "k", lambda: exact_knn(PLANE, 2.5)),
    ("exact_knn-gram", "k", lambda: exact_knn(PATCHES, 2.5)),
    ("knn_graph", "k",
     lambda: knn_graph(PointCloud(PLANE), k=True, kernel=KernelSpec.tent())),
    ("self_tuning_weights", "k_sigma",
     lambda: self_tuning_weights(PointCloud(PLANE), 10, 3.5)),
    ("InpaintConfig-k", "k", lambda: InpaintConfig(k=10.5)),
    ("InpaintConfig-k_sigma", "k_sigma", lambda: InpaintConfig(k_sigma=3.5)),
    ("InpaintConfig-patch_size", "patch_size",
     lambda: InpaintConfig(patch_size=(4, 4))),
    ("InpaintConfig-seed", "seed", lambda: InpaintConfig(seed=-1)),
    # each gave a bare TypeError
    ("InpaintConfig-patch_size-one", "patch_size",
     lambda: InpaintConfig(patch_size=(3,))),
    ("InpaintConfig-patch_size-three", "patch_size",
     lambda: InpaintConfig(patch_size=(3, 3, 3))),
    ("InpaintConfig-patch_size-scalar", "patch_size",
     lambda: InpaintConfig(patch_size=3)),
    ("solve_symmetric", "tol",
     lambda: solve_symmetric(sp.identity(1, format="csr"), np.ones(1),
                             tol=math.inf)),
    ("KernelSpec.gaussian", "bandwidth", lambda: KernelSpec.gaussian(math.inf)),
    ("KernelSpec.tent", "bandwidth", lambda: KernelSpec.tent(math.inf)),
    ("build_toy2d", "grid", lambda: build_toy2d(5.5, 0.2, 6)),
    ("convergence_study-trials", "trials",
     lambda: convergence_study(interval_benchmark(), BandwidthSchedule([60]),
                               trials=1.5)),
    ("convergence_study-seed", "seed",
     lambda: convergence_study(interval_benchmark(), BandwidthSchedule([60]),
                               trials=1, seed=-1)),
    ("BandwidthSchedule", "sample sizes", lambda: BandwidthSchedule([50.5])),
    ("sigma_eta", "dim", lambda: sigma_eta(KernelSpec.tent(), 1.5)),
    ("build_full_kernel_graph", "dim",
     lambda: build_full_kernel_graph(LINE, KernelSpec.tent(), 0.5, dim=0)),
    ("SampleMask.random", "seed",
     lambda: SampleMask.random((4, 4), 0.5, seed=-1)),
    ("SolverConfig", "max_outer_iter",
     lambda: SolverConfig(max_outer_iter=True)),
    # "no" was accepted, and read as True
    ("SolverConfig-max_over_unlabeled_only", "max_over_unlabeled_only",
     lambda: SolverConfig(max_over_unlabeled_only="no")),
]


@pytest.mark.parametrize("name, call", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_scalar_parameter_rejected_by_name(name, call):
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(name)} "):
        call()


@pytest.mark.parametrize("config, field, value", [
    (SolverConfig(), "lin_tol", math.inf),
    (InpaintConfig(), "k", 0),
    (BandwidthSchedule([125, 250]), "n_values", [1]),
], ids=["SolverConfig", "InpaintConfig", "BandwidthSchedule"])
def test_config_fields_cannot_be_assigned(config, field, value):
    # a check at construction holds only if nothing edits the config later
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, value)
    # dataclasses.replace builds a new config, and checks it
    with pytest.raises(InvalidParameterError):
        dataclasses.replace(config, **{field: value})
