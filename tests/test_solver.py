import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ilgraph.linalg
import ilgraph.solver
from conftest import (desk_image, edge_space_d_update, random_connected_graph,
                      random_directed_graph, random_labels)
from ilgraph.graph import (InvalidParameterError, PointCloud, WeightGraph,
                           self_tuning_weights)
from ilgraph.inpaint import SampleMask, extract_patches
from ilgraph.linalg import DisconnectedGraphError
from ilgraph.solver import (LabelAssignment, SolverConfig, _choose_c_from_g1,
                            _value_solver, choose_c, gl_solve, il_solve,
                            nonlocal_inf_metric, objective, solve, wnll_solve)


def record_reports(monkeypatch):
    """The SolveReport of every solve_symmetric call the solver makes."""
    reports = []
    solve_symmetric = ilgraph.solver.solve_symmetric

    def recording(*args, **kwargs):
        x, report = solve_symmetric(*args, **kwargs)
        reports.append(report)
        return x, report

    monkeypatch.setattr(ilgraph.solver, "solve_symmetric", recording)
    return reports


def step_to_target(step, u0, s, graph):
    """The value update for the full target s, as the step from u0."""
    G = graph.operators()[0]
    return step(u0, s - G @ u0, np.arange(G.shape[0]))


def pinned_zeros(labels, n):
    """The labels pinned, zeros elsewhere."""
    u0 = np.zeros(n)
    u0[labels.indices] = labels.values
    return u0


def reference_il_solve(graph, labels, cfg):
    """Split Bregman on full edge vectors through G and R only: D, q and
    s = D + q on every edge, u from a dense solve of the full value update,
    and the penalty from the edge-space fixed point. Returns every iterate,
    the penalty, the objective history and the final primal residual."""
    G, R = graph.operators()
    n = graph.n_nodes
    unl = labels.unlabeled(n)
    scope = unl if cfg.max_over_unlabeled_only else slice(None)
    L = (G.T @ G).toarray()
    A, B = L[np.ix_(unl, unl)], L[np.ix_(unl, labels.indices)]

    def solve(s):
        u = np.zeros(n)
        u[labels.indices] = labels.values
        u[unl] = np.linalg.solve(A, (G.T @ s)[unl] - B @ labels.values)
        return u

    def f(t):
        g = R @ t ** 2
        return g[scope].max(initial=0.0) + cfg.alpha * g.sum()

    u = solve(np.zeros(G.shape[0]))
    t = G @ u
    c = cfg.fixed_c
    if c is None:
        c = cfg.alpha if cfg.alpha > 0 else 1.0
        while True:
            d = edge_space_d_update(t, 0.0, c, R, cfg.alpha, slice(None))
            ratio = np.dot(d - t, d - t) / np.dot(t, t)
            if abs(ratio - 0.25) <= 1e-4:
                break
            c = 4.0 * c * ratio
    q = np.zeros_like(t)
    D = edge_space_d_update(t, q, c, R, cfg.alpha, scope)
    iterates, history = [u], [f(t)]
    while len(history) < cfg.max_outer_iter:
        u = solve(D + q)
        t = G @ u
        D = edge_space_d_update(t, q, c, R, cfg.alpha, scope)
        q = q + D - t
        iterates.append(u)
        history.append(f(t))
        prev = history[-2]
        if prev == 0.0 or abs(history[-1] - prev) / prev <= cfg.rel_obj_tol:
            if (cfg.primal_tol is not None
                    and np.max(np.abs(D - t)) > cfg.primal_tol):
                continue
            break
    return iterates, c, np.asarray(history), np.max(np.abs(D - t))


def four_node_graph():
    """Symmetric 4-node fixture; nodes 0, 1 labeled with 2 and 0."""
    w = np.array([
        [0.0, 1 / 3, 1 / 2, 0.0],
        [1 / 3, 0.0, 1 / 2, 1 / 2],
        [1 / 2, 1 / 2, 0.0, 0.0],
        [0.0, 1 / 2, 0.0, 0.0],
    ])
    graph = WeightGraph(sp.csr_matrix(w))
    labels = LabelAssignment([0, 1], [2.0, 0.0])
    return graph, labels


class TestObjective:
    def test_hand_value_alpha0(self):
        # row energies at u = (2, 0, 1, 0): row 0 carries
        # (1/3)*4 + (1/2)*1 = 11/6, the largest row
        graph, _ = four_node_graph()
        assert np.isclose(objective([2.0, 0.0, 1.0, 0.0], graph, 0.0), 11 / 6)

    def test_hand_value_alpha1(self):
        # double sum = 2 * (w01*4 + w02*1 + w12*1 + w13*0 + w23*1) = 14/3
        graph, _ = four_node_graph()
        assert np.isclose(objective([2.0, 0.0, 1.0, 0.0], graph, 1.0),
                          11 / 6 + 14 / 3)

    def test_row_subset(self):
        graph, _ = four_node_graph()
        full = objective([2.0, 0.0, 1.0, 0.0], graph, 0.0)
        sub = objective([2.0, 0.0, 1.0, 0.0], graph, 0.0, row_subset=[3])
        assert sub < full

    def test_metric_is_alpha0_objective(self):
        graph, _ = four_node_graph()
        u = [1.0, -1.0, 0.5, 0.0]
        assert np.isclose(nonlocal_inf_metric(u, graph),
                          objective(u, graph, 0.0))


class TestLabelAssignment:
    def test_rejects_duplicates(self):
        with pytest.raises(InvalidParameterError):
            LabelAssignment([0, 0], [1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            LabelAssignment([], [])

    def test_rejects_nonfinite_values(self):
        with pytest.raises(InvalidParameterError):
            LabelAssignment([0], [np.inf])

    def test_unlabeled_complement(self):
        lab = LabelAssignment([1, 3], [0.0, 0.0])
        assert lab.unlabeled(5).tolist() == [0, 2, 4]


class TestBaselines:
    def test_gl_matches_dense_laplacian_solve(self):
        rng = np.random.default_rng(0)
        graph = random_connected_graph(25, rng)
        labels = random_labels(25, rng)
        u = gl_solve(graph, labels)
        # independent oracle: dense solve of the Laplacian system with
        # symmetrized coefficients nu_i w_ij + nu_j w_ji (nu = 1)
        w = graph.weights.toarray()
        B = w + w.T
        L = np.diag(B.sum(axis=1)) - B
        unl = labels.unlabeled(25)
        rhs = -L[np.ix_(unl, labels.indices)] @ labels.values
        x = np.linalg.solve(L[np.ix_(unl, unl)], rhs)
        assert np.allclose(u[unl], x, atol=1e-8)
        assert np.allclose(u[labels.indices], labels.values)

    def test_wnll_matches_dense_boosted_solve(self):
        rng = np.random.default_rng(1)
        n = 30
        graph = random_connected_graph(n, rng)
        labels = random_labels(n, rng, n_labels=4)
        u = wnll_solve(graph, labels)
        nu = np.ones(n)
        nu[labels.indices] = n / labels.count
        w = graph.weights.toarray() * nu[:, None]
        B = w + w.T
        L = np.diag(B.sum(axis=1)) - B
        unl = labels.unlabeled(n)
        rhs = -L[np.ix_(unl, labels.indices)] @ labels.values
        x = np.linalg.solve(L[np.ix_(unl, unl)], rhs)
        assert np.allclose(u[unl], x, atol=1e-8)

    def test_disconnected_raises(self):
        dense = np.zeros((4, 4))
        dense[0, 1] = dense[1, 0] = 1.0
        dense[2, 3] = dense[3, 2] = 1.0
        graph = WeightGraph(sp.csr_matrix(dense))
        with pytest.raises(DisconnectedGraphError):
            gl_solve(graph, LabelAssignment([0], [1.0]))


class TestSolve:
    @pytest.mark.parametrize("method", ["gl", "wnll", "il"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_method_function(self, method, seed):
        rng = np.random.default_rng(seed)
        graph = random_connected_graph(30, rng)
        labels = random_labels(30, rng)
        cfg = SolverConfig(alpha=1e-3 * seed)
        u = {"gl": gl_solve, "wnll": wnll_solve,
             "il": lambda *args: il_solve(*args)[0]}[method](graph, labels, cfg)
        assert np.array_equal(solve(method, graph, labels, cfg)[0], u)

    @pytest.mark.parametrize("factored", [True, False])
    @pytest.mark.parametrize("method", ["gl", "wnll", "il"])
    def test_linear_fields_match_solve_reports(self, request, monkeypatch,
                                               factored, method):
        if not factored:
            request.getfixturevalue("over_cap")
        reports = record_reports(monkeypatch)
        rng = np.random.default_rng(10)
        graph = random_connected_graph(20, rng)
        u, diag = solve(method, graph, random_labels(20, rng), SolverConfig())
        # GL and WNLL: one value update; IL: the first pass plus one value
        # update per further iteration
        assert len(reports) == diag.iterations
        assert (diag.iterations == 1) == (method != "il")
        assert diag.linear_unconverged == sum(not r.converged for r in reports)
        assert diag.linear_residual_max == max(r.relative_residual
                                               for r in reports)
        assert diag.linear_residual_ratio_max == max(
            r.relative_residual / r.tol for r in reports) <= 1.0
        assert diag.linear_iterations == sum(r.iterations for r in reports)
        assert (diag.linear_iterations > 0) == (not factored)
        if method != "il":
            assert diag.converged == reports[0].converged
            assert diag.objective == objective(u, graph, 0.0)
            assert diag.history.tolist() == [diag.objective]
            assert diag.c_star is diag.first_update is None

    def test_unknown_method_raises_before_solving(self, monkeypatch):
        reports = record_reports(monkeypatch)
        rng = np.random.default_rng(11)
        graph = random_connected_graph(20, rng)
        with pytest.raises(InvalidParameterError, match="unknown method 'tv'"):
            solve("tv", graph, random_labels(20, rng))
        assert not reports

    @pytest.mark.parametrize("factored", [True, False])
    @pytest.mark.parametrize("method", ["gl", "wnll", "il"])
    def test_fully_labeled_graph_returns_labels(self, request, factored,
                                                method):
        # no unknowns: every value update solves a 0x0 system
        if not factored:
            request.getfixturevalue("over_cap")
        rng = np.random.default_rng(13)
        graph = random_connected_graph(10, rng)
        labels = LabelAssignment(np.arange(10), rng.uniform(-1.0, 1.0, 10))
        u, diag = solve(method, graph, labels)
        assert np.array_equal(u, labels.values)
        assert diag.converged and diag.linear_unconverged == 0

    def test_absorb_folds_in_linear_counts(self):
        rng = np.random.default_rng(12)
        graph = random_connected_graph(20, rng)
        labels = random_labels(20, rng)
        _, il = solve("il", graph, labels)
        _, wnll = solve("wnll", graph, labels)
        wnll.converged, wnll.linear_unconverged = False, 1
        wnll.linear_residual_max, wnll.linear_iterations = 1.0, 7
        wnll.linear_residual_ratio_max = 1e10
        both = il.absorb(wnll)
        assert (both.converged, both.linear_unconverged,
                both.linear_residual_max, both.linear_residual_ratio_max,
                both.linear_iterations) == (
            False, il.linear_unconverged + 1, 1.0, 1e10,
            il.linear_iterations + 7)
        # every other field is the receiver's
        assert (both.iterations, both.objective, both.c_star) == (
            il.iterations, il.objective, il.c_star)
        assert both.first_update is il.first_update


class TestValueUpdate:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 40), n_labels=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1), factored=st.booleans(),
           directed=st.booleans())
    def test_both_paths_match_dense_solve(self, n, n_labels, seed, factored,
                                          directed):
        rng = np.random.default_rng(seed)
        graph = (random_directed_graph if directed
                 else random_connected_graph)(n, rng)
        labels = random_labels(n, rng, n_labels=n_labels)
        nu = rng.uniform(0.5, 2.0, size=n)
        s_flat = rng.standard_normal(graph.weights.nnz)
        with pytest.MonkeyPatch.context() as mp:
            if not factored:
                mp.setattr(ilgraph.linalg, "FACTOR_MAX_ENTRIES", 0)
            first, step = _value_solver(nu, graph, labels, 1e-10)
            u, report = step_to_target(step, pinned_zeros(labels, n), s_flat,
                                       graph)
        # dense oracle: minimize sum_ij nu_i w_ij (s_ij - sqrt(w_ij)(u_i - u_j))^2
        # over the unlabeled values, with the labeled ones pinned
        coo = graph.weights.tocoo()
        rows, cols, sqw = coo.row, coo.col, np.sqrt(coo.data)
        G = np.zeros((rows.size, n))
        G[np.arange(rows.size), rows] = sqw
        G[np.arange(rows.size), cols] -= sqw
        weight = nu[rows]
        unl = labels.unlabeled(n)
        lhs = G[:, unl].T @ (weight[:, None] * G[:, unl])
        coupling = G[:, labels.indices] @ labels.values
        rhs = G[:, unl].T @ (weight * (s_flat - coupling))
        x = np.linalg.solve(lhs, rhs)
        assert np.allclose(u[unl], x, rtol=1e-8, atol=1e-8)
        assert np.array_equal(u[labels.indices], labels.values)
        if factored:
            assert report.iterations == 0 and report.converged
        else:
            assert report.iterations > 0
        # the first update is the one for the target s = 0
        u_first, _ = first
        x = np.linalg.solve(lhs, -G[:, unl].T @ (weight * coupling))
        assert np.allclose(u_first[unl], x, rtol=1e-8, atol=1e-8)
        assert np.array_equal(u_first[labels.indices], labels.values)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("wnll", [False, True])
    def test_matrix_assembled_from_weights(self, monkeypatch, seed, wnll):
        # diag(S 1) - S, S = diag(nu) W + (diag(nu) W)^T, is G^T diag(nu_e) G;
        # the sinks of a random directed graph have no out-edges
        rng = np.random.default_rng(seed)
        n = 30
        graph = random_directed_graph(n, rng)
        labels = random_labels(n, rng)
        nu = np.ones(n)
        if wnll:
            nu[labels.indices] = n / labels.count
        matrices = []
        factor_if_small = ilgraph.solver.factor_if_small

        def recording(A):
            matrices.append(A)
            return factor_if_small(A)

        monkeypatch.setattr(ilgraph.solver, "factor_if_small", recording)
        _value_solver(nu, graph, labels, 1e-10)
        G, R = graph.operators()
        unl = labels.unlabeled(n)
        expected = (G.T @ sp.diags(R.T @ nu) @ G)[unl][:, unl].toarray()
        (A,) = matrices
        assert (np.abs(A.toarray() - expected).max()
                <= 1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("factored", [True, False])
    def test_change_form_matches_full_update(self, monkeypatch, factored):
        # u' for the target G u + delta, delta on a few edges, is the full
        # value update for that target
        if not factored:
            monkeypatch.setattr(ilgraph.linalg, "FACTOR_MAX_ENTRIES", 0)
        rng = np.random.default_rng(17)
        graph = random_directed_graph(30, rng)
        labels = random_labels(30, rng)
        _, step = _value_solver(rng.uniform(0.5, 2.0, size=30), graph, labels,
                                1e-12)
        u0 = pinned_zeros(labels, 30)
        m = graph.weights.nnz
        u, _ = step_to_target(step, u0, rng.standard_normal(m), graph)
        edges = np.sort(rng.choice(m, 15, replace=False))
        delta = rng.standard_normal(edges.size)
        G = graph.operators()[0]
        s = G @ u
        s[edges] += delta
        expected, _ = step_to_target(step, u0, s, graph)
        for change, where in ((delta, edges), (s - G @ u, np.arange(m))):
            moved, _ = step(u, change, where)
            assert np.allclose(moved, expected, rtol=1e-9, atol=1e-9)
            assert np.array_equal(moved[labels.indices], labels.values)

    def test_unconverged_solves_are_counted(self, monkeypatch, over_cap):
        reports = record_reports(monkeypatch)
        rng = np.random.default_rng(18)
        graph = random_connected_graph(25, rng)
        # a tolerance below round-off, for the steps too: no iterative
        # solve can meet it
        monkeypatch.setattr(ilgraph.solver, "STEP_TOL_MAX", 1e-30)
        _, diag = il_solve(graph, random_labels(25, rng),
                           SolverConfig(lin_tol=1e-30, max_outer_iter=6,
                                        rel_obj_tol=1e-15))
        assert len(reports) == diag.iterations == 6
        assert diag.linear_unconverged == len(reports)
        assert diag.linear_residual_max == max(r.relative_residual
                                               for r in reports) > 1e-30
        # the ratio says by itself that some solve missed its target
        assert diag.linear_residual_ratio_max > 1.0

    def test_il_solve_under_cap_converges_every_solve(self, monkeypatch):
        reports = record_reports(monkeypatch)
        rng = np.random.default_rng(12)
        graph = random_connected_graph(40, rng)
        _, diag = il_solve(graph, random_labels(40, rng), SolverConfig())
        assert len(reports) == diag.iterations > 1
        assert all(r.converged and r.iterations == 0 for r in reports)
        assert diag.linear_unconverged == 0
        assert diag.linear_residual_max <= 1e-10

    @staticmethod
    def _single_solves(graph, labels):
        """gl_solve, wnll_solve and choose_c: one value update each."""
        gl_solve(graph, labels)
        wnll_solve(graph, labels)
        choose_c(graph, labels, alpha=0.0)

    def test_single_solves_under_cap_are_factored(self, monkeypatch):
        reports = record_reports(monkeypatch)
        rng = np.random.default_rng(14)
        graph = random_connected_graph(40, rng)
        self._single_solves(graph, random_labels(40, rng))
        assert len(reports) == 3
        assert all(r.converged and r.iterations == 0 for r in reports)

    def test_single_solves_over_cap_iterate(self, monkeypatch, over_cap):
        def refuse(*args, **kwargs):
            raise AssertionError("splu called above the cap")

        monkeypatch.setattr(ilgraph.linalg.spla, "splu", refuse)
        # one solve per system: no deflation basis is built
        monkeypatch.setattr(ilgraph.linalg, "eigh_tridiagonal", refuse)
        reports = record_reports(monkeypatch)
        rng = np.random.default_rng(15)
        graph = random_connected_graph(40, rng)
        self._single_solves(graph, random_labels(40, rng))
        assert len(reports) == 3
        assert all(r.iterations > 0 for r in reports)

    def test_il_solve_over_cap_never_factors(self, monkeypatch, over_cap):
        def refuse(*args, **kwargs):
            raise AssertionError("splu called above the cap")

        monkeypatch.setattr(ilgraph.linalg.spla, "splu", refuse)
        reports = record_reports(monkeypatch)
        rng = np.random.default_rng(13)
        graph = random_connected_graph(30, rng)
        _, diag = il_solve(graph, random_labels(30, rng), SolverConfig())
        assert diag.linear_iterations == sum(r.iterations for r in reports) > 0
        assert len(reports) == diag.iterations > 1
        assert all(r.converged for r in reports)
        assert diag.linear_unconverged == 0
        # every step met its own tolerance, the first update lin_tol
        assert all(r.relative_residual <= r.tol for r in reports)
        assert reports[0].tol == SolverConfig().lin_tol
        assert reports[0].relative_residual <= 1e-10

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(4, 40), n_labels=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1), directed=st.booleans())
    def test_deflated_updates_match_dense_solve(self, over_cap, n, n_labels,
                                                seed, directed):
        # one system, many right-hand sides: the first update learns the
        # deflation basis, every later one is deflated on it
        rng = np.random.default_rng(seed)
        graph = (random_directed_graph if directed
                 else random_connected_graph)(n, rng)
        labels = random_labels(n, rng, n_labels=n_labels)
        nu = rng.uniform(0.5, 2.0, size=n)
        unl = labels.unlabeled(n)
        u0 = pinned_zeros(labels, n)
        ranks = []  # deflation rank each solve starts with, None unlearnt
        solve_symmetric = ilgraph.solver.solve_symmetric

        def recording(A, b, tol, factor):
            ranks.append(factor.W.shape[1] if factor.learnt else None)
            return solve_symmetric(A, b, tol=tol, factor=factor)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ilgraph.solver, "solve_symmetric", recording)
            (_, first), step = _value_solver(nu, graph, labels, 1e-10)
            G = graph.operators()[0].toarray()
            weight = nu[graph.weights.tocoo().row]
            lhs = G[:, unl].T @ (weight[:, None] * G[:, unl])
            for _ in range(4):
                s = rng.standard_normal(G.shape[0])
                u, report = step_to_target(step, u0, s, graph)
                rhs = G[:, unl].T @ (weight * (s - G @ u0))
                assert np.allclose(u[unl], np.linalg.solve(lhs, rhs),
                                   rtol=1e-8, atol=1e-8)
                assert np.array_equal(u[labels.indices], labels.values)
                assert report.converged and report.iterations > 0
        assert first.converged and first.iterations > 0
        rank = min(ilgraph.linalg.RITZ_VECTORS, first.iterations - 1,
                   unl.size - 1)
        assert ranks == [None] + [rank] * 4


class TestStepTolerance:
    """The first value update solves to lin_tol; every later il_solve step
    to the last relative objective change, clipped to [lin_tol,
    STEP_TOL_MAX], and the first step, with no change yet, to
    STEP_TOL_MAX."""

    @staticmethod
    def expected_tols(history, lin_tol):
        h = np.asarray(history)
        change = np.abs(np.diff(h)) / h[:-1]
        steps = [ilgraph.solver.STEP_TOL_MAX] + list(np.clip(
            change[:-1], lin_tol, ilgraph.solver.STEP_TOL_MAX))
        return [lin_tol] + steps[:h.size - 1]

    def test_over_cap_steps_carry_the_rule(self, monkeypatch, over_cap):
        reports = record_reports(monkeypatch)
        rng = np.random.default_rng(20)
        graph = random_connected_graph(30, rng)
        labels = random_labels(30, rng)
        cfg = SolverConfig()
        _, diag = il_solve(graph, labels, cfg)
        tols = [r.tol for r in reports]
        assert tols == self.expected_tols(diag.history, cfg.lin_tol)
        # the rule loosened steps past lin_tol, and every step met its own
        assert len(tols) > 2 and max(tols[2:]) > cfg.lin_tol
        assert all(r.converged and r.relative_residual <= r.tol
                   for r in reports)
        assert np.array_equal(diag.first_update, gl_solve(graph, labels, cfg))

    def test_recycled_start_on_desk_texture(self, monkeypatch, over_cap):
        # each step starts from the Galerkin solution on the Ritz vectors
        # and the last two solutions: its report still states its own
        # residual and tolerance, in fewer CG iterations
        img = desk_image(32)
        g = self_tuning_weights(
            PointCloud(extract_patches(img, 11, 11).vectors), k=50, k_sigma=20)
        known = np.flatnonzero(
            SampleMask.random(img.shape, 0.01, seed=0).known)
        labels = LabelAssignment(known, img.pixels.ravel()[known])
        cfg = SolverConfig(max_outer_iter=40)
        solves = []
        solve_symmetric = ilgraph.solver.solve_symmetric

        def recording(A, b, **kwargs):
            x, report = solve_symmetric(A, b, **kwargs)
            solves.append((A, b, x, report))
            return x, report

        monkeypatch.setattr(ilgraph.solver, "solve_symmetric", recording)
        _, diag = il_solve(g, labels, cfg)
        reports = [report for *_, report in solves]
        for A, b, x, report in solves:
            res = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
            assert np.isclose(report.relative_residual, res, rtol=1e-10,
                              atol=0.0)
            assert report.converged
        assert ([r.tol for r in reports]
                == self.expected_tols(diag.history, cfg.lin_tol))
        assert np.array_equal(diag.first_update, gl_solve(g, labels, cfg))
        assert diag.linear_residual_ratio_max <= 1.0
        steps = sum(r.iterations for r in reports[1:])
        monkeypatch.setattr(ilgraph.linalg, "RECYCLED_SOLUTIONS", 0)
        solves.clear()
        il_solve(g, labels, cfg)
        assert steps <= 0.9 * sum(r.iterations for *_, r in solves[1:])

    @pytest.mark.parametrize("alpha", [0.0, 1e-2])
    def test_under_cap_bitwise_equal_to_steps_at_lin_tol(self, monkeypatch,
                                                         alpha):
        reports = record_reports(monkeypatch)
        rng = np.random.default_rng(21)
        graph = random_connected_graph(40, rng)
        labels = random_labels(40, rng)
        cfg = SolverConfig(alpha=alpha)
        u, diag = il_solve(graph, labels, cfg)
        loose = max(r.tol for r in reports)
        monkeypatch.setattr(ilgraph.solver, "STEP_TOL_MAX", cfg.lin_tol)
        u_pinned, pinned = il_solve(graph, labels, cfg)
        # factored solves are exact whatever the step asks for
        assert loose > cfg.lin_tol
        assert np.array_equal(u, u_pinned)
        assert np.array_equal(diag.history, pinned.history)
        assert diag.c_star == pinned.c_star
        assert diag.iterations == pinned.iterations


class TestChooseC:
    def test_first_iteration_ratio_near_quarter(self):
        rng = np.random.default_rng(2)
        graph = random_connected_graph(30, rng)
        labels = random_labels(30, rng)
        c = choose_c(graph, labels, alpha=0.0, eps=1e-4)
        (u1, _), _ = _value_solver(np.ones(30), graph, labels, lin_tol=1e-10)
        G, R = graph.operators()
        t1 = G @ u1
        d1 = edge_space_d_update(t1, 0.0, c, R, 0.0, slice(None))
        ratio = np.sum((d1 - t1) ** 2) / np.sum(t1 * t1)
        assert abs(ratio - 0.25) <= 1e-4

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("seed", range(4))
    def test_node_space_selection_matches_edge_space(self, alpha, seed):
        rng = np.random.default_rng(100 + seed)
        graph = (random_directed_graph if seed % 2
                 else random_connected_graph)(30, rng)
        u1 = gl_solve(graph, random_labels(30, rng))
        G, R = graph.operators()
        t1 = G @ u1
        c = alpha if alpha > 0 else 1.0
        for _ in range(1000):  # the fixed point on full edge vectors
            d1 = edge_space_d_update(t1, 0.0, c, R, alpha, slice(None))
            ratio = np.sum((d1 - t1) ** 2) / np.sum(t1 * t1)
            if abs(ratio - 0.25) <= 1e-4:
                break
            c = 4.0 * c * ratio
        assert abs(_choose_c_from_g1(R @ t1 ** 2, u1, alpha) - c) <= 1e-12 * c

    def test_constant_labels_warn_and_default(self):
        # all labels equal: the first pass is constant, T1 = 0
        rng = np.random.default_rng(3)
        graph = random_connected_graph(12, rng)
        labels = LabelAssignment([0, 5], [1.0, 1.0])
        with pytest.warns(UserWarning):
            c = choose_c(graph, labels, alpha=0.0)
        assert c == 1.0

    def test_unsettled_selection_raises_convergence_error(self):
        from ilgraph.solver import ConvergenceError
        rng = np.random.default_rng(5)
        graph = random_connected_graph(20, rng)
        labels = random_labels(20, rng)
        u1 = gl_solve(graph, labels)
        G, R = graph.operators()
        with pytest.raises(ConvergenceError, match="did not settle"):
            _choose_c_from_g1(R @ (G @ u1) ** 2, u1, 0.0, eps=1e-300,
                              max_iter=2)

    def test_alpha_seeds_initial_c(self):
        rng = np.random.default_rng(4)
        graph = random_connected_graph(12, rng)
        labels = LabelAssignment([0, 5], [1.0, 1.0])
        with pytest.warns(UserWarning):
            c = choose_c(graph, labels, alpha=0.5)
        assert c == 0.5


class TestILSolve:
    def test_four_node_reaches_hand_optimum(self):
        graph, labels = four_node_graph()
        u, diag = il_solve(graph, labels,
                           SolverConfig(alpha=0.0, primal_tol=1e-4))
        assert diag.objective <= 11 / 6 + 1e-6
        assert np.allclose(u[:2], [2.0, 0.0])

    def test_beats_baselines_on_objective(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            n = int(rng.integers(10, 40))
            graph = random_connected_graph(n, rng)
            labels = random_labels(n, rng)
            u_il, _ = il_solve(graph, labels, SolverConfig(alpha=0.0))
            f_il = objective(u_il, graph, 0.0)
            f_gl = objective(gl_solve(graph, labels), graph, 0.0)
            f_wn = objective(wnll_solve(graph, labels), graph, 0.0)
            assert f_il <= min(f_gl, f_wn) + 1e-8

    def test_history_and_best_iterate(self):
        rng = np.random.default_rng(7)
        graph = random_connected_graph(20, rng)
        labels = random_labels(20, rng)
        u, diag = il_solve(graph, labels, SolverConfig(alpha=0.0))
        assert diag.history.size == diag.iterations
        assert np.isclose(objective(u, graph, 0.0), diag.objective)
        assert diag.objective <= diag.history.min() + 1e-15

    def test_fixed_c_bypasses_adaptation(self):
        graph, labels = four_node_graph()
        _, diag = il_solve(graph, labels,
                           SolverConfig(alpha=0.0, fixed_c=0.7))
        assert diag.c_star == 0.7

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        graph = random_connected_graph(25, rng)
        labels = random_labels(25, rng)
        u1, d1 = il_solve(graph, labels, SolverConfig(alpha=1e-3))
        u2, d2 = il_solve(graph, labels, SolverConfig(alpha=1e-3))
        assert np.array_equal(u1, u2)
        assert d1.iterations == d2.iterations

    def test_maximum_principle(self):
        rng = np.random.default_rng(9)
        graph = random_connected_graph(30, rng)
        labels = random_labels(30, rng)
        lo, hi = labels.values.min(), labels.values.max()
        for u in (gl_solve(graph, labels), wnll_solve(graph, labels),
                  il_solve(graph, labels, SolverConfig())[0]):
            assert u.min() >= lo - 1e-6
            assert u.max() <= hi + 1e-6

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(5, 30), seed=st.integers(0, 2 ** 32 - 1),
           directed=st.booleans(), alpha=st.sampled_from([0.0, 1e-3]))
    # the best iterate leaves the label range
    @example(n=5, seed=501467, directed=True, alpha=0.0)
    def test_result_clipped_to_label_range(self, n, seed, directed, alpha):
        rng = np.random.default_rng(seed)
        graph = (random_directed_graph if directed
                 else random_connected_graph)(n, rng)
        labels = random_labels(n, rng)
        u, diag = il_solve(graph, labels, SolverConfig(alpha=alpha))
        assert labels.values.min() <= u.min()
        assert u.max() <= labels.values.max()
        # the least of the history is the unclipped best iterate's objective
        assert diag.objective == objective(u, graph, alpha)
        assert diag.objective <= diag.history.min()

    def test_connectivity_checked_once_per_solve(self, monkeypatch):
        calls = []
        check = ilgraph.solver.check_label_connectivity

        def counting(*args):
            calls.append(1)
            return check(*args)

        monkeypatch.setattr(ilgraph.solver, "check_label_connectivity", counting)
        rng = np.random.default_rng(11)
        graph = random_connected_graph(20, rng)
        labels = random_labels(20, rng)
        by_name = [lambda g, lab, m=m: solve(m, g, lab)
                   for m in ("gl", "wnll", "il")]
        for solver in (gl_solve, wnll_solve, il_solve, *by_name):
            calls.clear()
            solver(graph, labels)
            assert len(calls) == 1

    @pytest.mark.parametrize("factored", [True, False])
    @pytest.mark.parametrize("alpha", [0.0, 1e-2])
    @pytest.mark.parametrize("unlabeled_only", [False, True])
    def test_first_update_is_gl_solution(self, request, factored, alpha,
                                         unlabeled_only):
        if not factored:
            request.getfixturevalue("over_cap")
        rng = np.random.default_rng(12)
        graph = random_directed_graph(40, rng)
        labels = random_labels(40, rng)
        cfg = SolverConfig(alpha=alpha, max_over_unlabeled_only=unlabeled_only,
                           max_outer_iter=5)
        _, diag = il_solve(graph, labels, cfg)
        assert np.array_equal(diag.first_update, gl_solve(graph, labels, cfg))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(5, 30), seed=st.integers(0, 2 ** 32 - 1),
           directed=st.booleans(), alpha=st.sampled_from([0.0, 1e-3, 0.5]),
           unlabeled_only=st.booleans(),
           primal_tol=st.sampled_from([None, 1e-4]),
           max_outer_iter=st.sampled_from([1, 2, 300]))
    def test_matches_full_edge_reference(self, n, seed, directed, alpha,
                                         unlabeled_only, primal_tol,
                                         max_outer_iter):
        # 1 and 2 iterations end after the first pass and after one step
        rng = np.random.default_rng(seed)
        graph = (random_directed_graph if directed
                 else random_connected_graph)(n, rng)
        labels = random_labels(n, rng)
        cfg = SolverConfig(alpha=alpha, max_over_unlabeled_only=unlabeled_only,
                           primal_tol=primal_tol, max_outer_iter=max_outer_iter)
        u, diag = il_solve(graph, labels, cfg)
        ref_iterates, ref_c, ref_history, ref_primal = reference_il_solve(
            graph, labels, cfg)
        assert abs(diag.c_star - ref_c) <= 1e-9 * ref_c
        # the objective of any u inside the label range is at most this
        scale = ((1 + alpha) * np.ptp(labels.values) ** 2
                 * graph.weights.sum())
        zero = 1e-12 * max(ref_history[0], scale)
        if ref_history.min() <= zero:
            # an optimum of 0, reached to round-off (from the first pass
            # on when the labels already fit it): the relative stopping
            # test then turns on the last bits of values near 1e-30, and
            # only the limit can agree
            assert diag.objective <= zero
            return
        assert diag.iterations == ref_history.size
        assert np.allclose(diag.history, ref_history, rtol=1e-9, atol=0.0)
        # near-equal objectives may rank either way: u must be the
        # reference's iterate at the step il_solve picked, clipped to the
        # label range, and no worse than the reference's best
        best = int(np.argmin(diag.history))
        expected = np.clip(ref_iterates[best], labels.values.min(),
                           labels.values.max())
        assert np.allclose(u, expected, rtol=1e-9, atol=1e-9)
        subset = labels.unlabeled(n) if unlabeled_only else None
        assert np.isclose(diag.objective, objective(u, graph, alpha, subset),
                          rtol=1e-12, atol=0.0)
        assert diag.objective <= ref_history.min() * (1 + 1e-9)
        assert np.isclose(diag.primal_residual, ref_primal, rtol=1e-9,
                          atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_iteration_makes_two_full_edge_passes(self, alpha):
        # wrap G, R and out_edges: at every alpha an iteration applies G
        # once and R once, neither adjoint, and selects edges once
        calls = []

        class Counting:
            def __init__(self, M, name):
                self.M, self.name = M, name

            def __matmul__(self, x):
                calls.append(self.name)
                return self.M @ x

            @property
            def T(self):
                return Counting(self.M.T, self.name + ".T")

            def __getattr__(self, attr):
                return getattr(self.M, attr)

        def counts(max_outer_iter):
            rng = np.random.default_rng(19)
            graph = random_connected_graph(40, rng)
            G, R = graph.operators()
            object.__setattr__(graph, "_operators",
                               (Counting(G, "G"), Counting(R, "R")))
            out_edges = graph.out_edges

            def counting_out_edges(mask):
                calls.append("out_edges")
                return out_edges(mask)

            object.__setattr__(graph, "out_edges", counting_out_edges)
            calls.clear()
            _, diag = il_solve(graph, random_labels(40, rng), SolverConfig(
                alpha=alpha, fixed_c=0.05, rel_obj_tol=1e-15,
                max_outer_iter=max_outer_iter))
            assert diag.iterations == max_outer_iter
            return {k: calls.count(k)
                    for k in ("G", "R", "G.T", "R.T", "out_edges")}

        few, more = counts(3), counts(13)
        assert {k: more[k] - few[k] for k in few} == {
            "G": 10, "R": 10, "G.T": 0, "R.T": 0, "out_edges": 10}

    def test_rejects_negative_alpha(self):
        with pytest.raises(InvalidParameterError):
            SolverConfig(alpha=-1.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_rejects_alpha_not_finite(self, alpha):
        with pytest.raises(InvalidParameterError, match="alpha"):
            SolverConfig(alpha=alpha)

    @pytest.mark.parametrize("max_outer_iter", [0, -3])
    def test_rejects_max_outer_iter_below_one(self, max_outer_iter):
        with pytest.raises(InvalidParameterError, match="max_outer_iter"):
            SolverConfig(max_outer_iter=max_outer_iter)

    @pytest.mark.parametrize("index", [-1, 20])
    @pytest.mark.parametrize("solve", [gl_solve, wnll_solve, il_solve, choose_c])
    def test_rejects_label_index_out_of_range(self, solve, index):
        rng = np.random.default_rng(16)
        graph = random_connected_graph(20, rng)
        labels = LabelAssignment([0, index], [1.0, -1.0])
        args = (0.0,) if solve is choose_c else ()
        with pytest.raises(InvalidParameterError, match="label indices"):
            solve(graph, labels, *args)

    @pytest.mark.parametrize("fixed_c", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_fixed_c_not_finite_positive(self, fixed_c):
        with pytest.raises(InvalidParameterError, match="fixed_c"):
            SolverConfig(alpha=2.0, fixed_c=fixed_c)

    @pytest.mark.parametrize("primal_tol", [0.0, -1e-4, np.nan])
    def test_rejects_primal_tol_not_positive(self, primal_tol):
        with pytest.raises(InvalidParameterError, match="primal_tol"):
            SolverConfig(primal_tol=primal_tol)
