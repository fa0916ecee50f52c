import math

import numpy as np
import pytest
import scipy.sparse as sp

import ilgraph.gamma
from ilgraph.gamma import (BandwidthSchedule, ContinuumProblem,
                           build_full_kernel_graph, circle_benchmark,
                           convergence_study, discrete_energy,
                           interval_benchmark, rows_to_csv, sigma_eta)
from ilgraph.graph import InvalidParameterError, KernelSpec
from ilgraph.solver import ConvergenceError, Diagnostics, SolverConfig


def pinned_stub(graph, labels, cfg=None):
    """Stands in for il_solve: zeros with the labels pinned, converged."""
    u = np.zeros(graph.n_nodes)
    u[labels.indices] = labels.values
    return u, Diagnostics(converged=True, iterations=1, objective=0.0,
                          history=np.zeros(1), linear_unconverged=0,
                          linear_residual_max=0.0,
                          linear_residual_ratio_max=0.0, linear_iterations=0,
                          c_star=1.0, primal_residual=0.0)


class TestSigmaEta:
    def test_tent_1d_p2_closed_form(self):
        # integral of (1-|t|) t^2 over [-1,1] is 1/6
        val = sigma_eta(KernelSpec.tent(), p=2.0, dim=1)
        assert np.isclose(val, math.sqrt(1.0 / 6.0), rtol=1e-8)

    def test_tent_2d_p2_closed_form(self):
        # 2-D: radial integral of (1-r) r^3 = 1/20, angular moment = pi
        val = sigma_eta(KernelSpec.tent(), p=2.0, dim=2)
        assert np.isclose(val, math.sqrt(math.pi / 20.0), rtol=1e-8)

    def test_rejects_noncompact_kernel(self):
        with pytest.raises(InvalidParameterError):
            sigma_eta(KernelSpec.gaussian(1.0), p=2.0, dim=1)

    def test_rejects_p_not_above_one(self):
        with pytest.raises(InvalidParameterError):
            sigma_eta(KernelSpec.tent(), p=1.0, dim=1)


class TestDiscreteEnergy:
    def test_hand_three_points(self):
        # three points on a line, s = 1, tent kernel, p = 2
        pts = np.array([0.0, 0.4, 1.2])
        u = np.array([0.0, 1.0, 3.0])
        ker = KernelSpec.tent()
        # pairs within s: (0,1) dist .4 w .6, (1,2) dist .8 w .2
        # row sums: x0: .6*1; x1: .6*1 + .2*4 = 1.4; x2: .2*4 = .8
        expect = math.sqrt(1.4 / 3.0)
        assert np.isclose(discrete_energy(u, pts, ker, 1.0, 2.0), expect)

    def test_hand_three_points_p3(self):
        # as above at p = 3: row sums x0: .6*1; x1: .6*1 + .2*8 = 2.2;
        # x2: .2*8 = 1.6
        pts = np.array([0.0, 0.4, 1.2])
        u = np.array([0.0, 1.0, 3.0])
        expect = (2.2 / 3.0) ** (1.0 / 3.0)
        assert np.isclose(discrete_energy(u, pts, KernelSpec.tent(), 1.0, 3.0),
                          expect, rtol=1e-12)

    def test_constraint_violation_is_inf(self):
        pts = np.array([0.0, 1.0])
        val = discrete_energy([0.0, 0.0], pts, KernelSpec.tent(), 1.0, 2.0,
                              label_indices=[1], label_values=[5.0])
        assert val == math.inf

    def test_scaling_in_s(self):
        # doubling u doubles the energy (p-homogeneity of degree 1)
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=12)
        u = rng.standard_normal(12)
        ker = KernelSpec.tent()
        e1 = discrete_energy(u, pts, ker, 0.5, 2.0)
        e2 = discrete_energy(2 * u, pts, ker, 0.5, 2.0)
        assert np.isclose(e2, 2 * e1)

    def test_points_as_one_column_equal_flat_points(self):
        pts = np.array([0.0, 0.4, 1.2])
        u = np.array([0.0, 1.0, 3.0])
        ker = KernelSpec.tent()
        assert (discrete_energy(u, pts[:, None], ker, 1.0, 2.0)
                == discrete_energy(u, pts, ker, 1.0, 2.0))

    @pytest.mark.parametrize("points, u", [
        (np.zeros((3, 2)), np.zeros(2)),   # 3 points in 2-D, 2 values
        (np.arange(4.0), np.zeros(3)),     # 4 points on a line, 3 values
    ])
    def test_rejects_point_count_mismatch(self, points, u):
        # a mismatch is not read as the transposed point set
        with pytest.raises(InvalidParameterError, match="one point per value"):
            discrete_energy(u, points, KernelSpec.tent(), 1.0, 2.0)


class TestBenchmarks:
    def test_interval_minimizer_is_identity(self):
        prob = interval_benchmark()
        t = np.linspace(0, 1, 5)
        assert np.allclose(prob.minimizer(t), t)
        assert prob.min_energy == 1.0 and prob.volume == 1.0

    def test_circle_minimizer_arc_linear(self):
        prob = circle_benchmark()
        assert np.isclose(prob.minimizer(math.pi / 2), 0.5)
        assert np.isclose(prob.minimizer(3 * math.pi / 2), 0.5)
        assert np.isclose(prob.min_energy, 1.0 / math.pi)

    def test_sample_appends_labels(self):
        prob = interval_benchmark()
        params, pts = prob.sample(10, np.random.default_rng(0))
        assert params.size == 12
        assert np.allclose(params[-2:], [0.0, 1.0])
        assert pts.shape == (12, 1)


class TestBandwidthSchedule:
    def test_default_rule_validates(self):
        BandwidthSchedule([125, 250, 500], dim=1).validate()
        BandwidthSchedule([500, 1000], dim=2).validate()

    def test_constant_rule_rejected(self):
        sched = BandwidthSchedule([100, 200], s_fn=lambda n: 0.3)
        with pytest.raises(InvalidParameterError):
            sched.validate()

    @pytest.mark.parametrize("n_values, r_adjust", [
        ([0, 100], 1.0), ([-5], 1.0), ([1], 1.0), ([], 1.0),
        ([100], 0.0), ([100], -1.0), ([100], math.nan), ([100], math.inf)])
    def test_rejects_bad_inputs(self, n_values, r_adjust):
        with pytest.raises(InvalidParameterError):
            BandwidthSchedule(n_values, r_adjust=r_adjust).validate()

    def test_s_decreases(self):
        sched = BandwidthSchedule([0], dim=1)
        assert sched.s(2000) < sched.s(125)


class TestStudy:
    def test_small_study_runs(self, tmp_path):
        prob = interval_benchmark()
        sched = BandwidthSchedule([60, 120], dim=1)
        rows = convergence_study(prob, sched, trials=1, seed=0,
                                 solver_cfg=SolverConfig(alpha=0.0,
                                                         max_outer_iter=200))
        assert len(rows) == 2
        for r in rows:
            assert not r.flagged
            assert r.converged and r.linear_unconverged == 0
            assert math.isfinite(r.rel_error)
            assert np.isclose(r.target, math.sqrt(1 / 6), rtol=1e-8)
        rows_to_csv(rows, tmp_path / "study.csv")
        lines = (tmp_path / "study.csv").read_text().splitlines()
        assert lines[0].endswith(",flagged,reason")
        assert all(line.endswith(",0,") for line in lines[1:])
        data = np.loadtxt(tmp_path / "study.csv", delimiter=",", skiprows=1,
                          usecols=range(8))
        assert data.shape == (2, 8)

    def test_rows_draw_independent_samples(self, monkeypatch):
        # seed + 1000 * trial + n gave n=60 trial 1 and n=1060 trial 0 one
        # generator, so their first 60 draws agreed
        samples = []
        sample = ContinuumProblem.sample

        def recording(problem, n, rng):
            params, pts = sample(problem, n, rng)
            samples.append(params[:60])
            return params, pts

        monkeypatch.setattr(ContinuumProblem, "sample", recording)
        monkeypatch.setattr(ilgraph.gamma, "il_solve", pinned_stub)
        convergence_study(interval_benchmark(),
                          BandwidthSchedule([60, 1060], dim=1), trials=2)
        assert len(samples) == 4
        for i in range(4):
            for j in range(i):
                assert not np.any(samples[i] == samples[j])

    def test_failed_row_records_reason(self, monkeypatch, tmp_path):
        def unsettled(graph, labels, cfg=None):
            if graph.n_nodes > 100:
                raise ConvergenceError("did not settle")
            return pinned_stub(graph, labels)

        monkeypatch.setattr(ilgraph.gamma, "il_solve", unsettled)
        rows = convergence_study(interval_benchmark(),
                                 BandwidthSchedule([60, 120], dim=1), trials=1)
        assert [r.flagged for r in rows] == [False, True]
        assert [r.converged for r in rows] == [True, False]
        assert rows[0].reason == ""
        assert rows[1].reason == "ConvergenceError: did not settle"
        assert math.isnan(rows[1].energy)
        rows_to_csv(rows, tmp_path / "study.csv")
        lines = (tmp_path / "study.csv").read_text().splitlines()
        assert lines[2].endswith(",1,ConvergenceError: did not settle")

    def test_unexpected_error_propagates(self, monkeypatch):
        def broken(graph, labels, cfg=None):
            raise ZeroDivisionError("a bug, not a failed solve")

        monkeypatch.setattr(ilgraph.gamma, "il_solve", broken)
        with pytest.raises(ZeroDivisionError):
            convergence_study(interval_benchmark(),
                              BandwidthSchedule([60], dim=1), trials=1)

    def test_rejects_zero_trials(self):
        with pytest.raises(InvalidParameterError):
            convergence_study(interval_benchmark(),
                              BandwidthSchedule([60], dim=1), trials=0)

    def test_full_kernel_graph_symmetric(self):
        pts = np.random.default_rng(1).uniform(size=(40, 1))
        g = build_full_kernel_graph(pts, KernelSpec.tent(), 0.2, dim=1)
        w = g.weights
        assert (abs(w - w.T) > 1e-12).nnz == 0

    def test_full_kernel_graph_reads_flat_points_as_a_column(self):
        flat = np.array([0.0, 0.4, 1.2])
        g = build_full_kernel_graph(flat, KernelSpec.tent(), 1.0)
        column = build_full_kernel_graph(flat[:, None], KernelSpec.tent(), 1.0)
        assert (g.n_nodes, g.weights.nnz) == (3, 4)
        assert (g.weights != column.weights).nnz == 0

    @pytest.mark.parametrize("dim, n, s", [(1, 300, 0.05), (1, 60, 0.5),
                                           (2, 200, 0.2), (2, 50, 0.6)])
    @pytest.mark.parametrize("seed", range(3))
    def test_full_kernel_graph_arrays_equal_summed_construction(self, dim, n,
                                                                s, seed):
        # the CSR arrays, edge order included, are those of the COO
        # construction that sums duplicates, so il_objective stays bitwise;
        # a lattice point at distance s from another gets tent weight 0
        from scipy.spatial import cKDTree
        pts = np.random.default_rng(seed).uniform(size=(n, dim))
        pts[:3] = np.arange(3)[:, None] * s / np.sqrt(dim)
        ker = KernelSpec.tent()
        pairs = cKDTree(pts).query_pairs(r=s, output_type="ndarray")
        i, j = pairs.T
        w = ker.profile(np.linalg.norm(pts[i] - pts[j], axis=1) / s) / s ** dim
        old = sp.csr_matrix((np.concatenate([w, w]), (np.concatenate([i, j]),
                                                      np.concatenate([j, i]))),
                            shape=(n, n))
        old.eliminate_zeros()
        new = build_full_kernel_graph(pts, ker, s).weights
        assert np.array_equal(new.indptr, old.indptr)
        assert np.array_equal(new.indices, old.indices)
        assert np.array_equal(new.data, old.data)
