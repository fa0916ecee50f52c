import numpy as np
import pytest
import scipy.sparse as sp

import ilgraph.linalg
from ilgraph.gamma import build_full_kernel_graph
from ilgraph.graph import InvalidParameterError, KernelSpec, WeightGraph
from ilgraph.linalg import (BandCholesky, DisconnectedGraphError, SparseLU,
                            StartSpace, check_label_connectivity,
                            factor_if_small, solve_symmetric)
from ilgraph.solver import LabelAssignment, gl_solve


def spd_matrix(n, rng):
    m = rng.standard_normal((n, n))
    return sp.csr_matrix(m @ m.T + n * np.eye(n))


class TestSolveSymmetric:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        A = spd_matrix(20, rng)
        b = rng.standard_normal(20)
        x, report = solve_symmetric(A, b, tol=1e-12)
        assert report.converged
        assert np.allclose(x, np.linalg.solve(A.toarray(), b), atol=1e-8)

    def test_zero_rhs_short_circuits(self):
        A = spd_matrix(5, np.random.default_rng(1))
        x, report = solve_symmetric(A, np.zeros(5))
        assert np.array_equal(x, np.zeros(5))
        assert report.converged and report.iterations == 0

    def test_residual_reported(self):
        rng = np.random.default_rng(2)
        A = spd_matrix(15, rng)
        b = rng.standard_normal(15)
        x, report = solve_symmetric(A, b, tol=1e-10)
        res = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
        assert np.isclose(report.relative_residual, res)

    def test_nonconvergence_flagged_not_raised(self):
        rng = np.random.default_rng(3)
        A = spd_matrix(40, rng)
        b = rng.standard_normal(40)
        # a tolerance below round-off: no iterative solve can meet it
        _, report = solve_symmetric(A, b, tol=1e-30)
        assert not report.converged
        assert report.relative_residual > 1e-30

    @pytest.mark.parametrize("b", [np.ones(3), np.ones((2, 1))])
    def test_rejects_b_not_one_entry_per_row(self, b):
        # a length mismatch raised numpy's matmul ValueError
        with pytest.raises(InvalidParameterError, match=r"\(2, 2\)"):
            solve_symmetric(sp.eye(2, format="csr"), b)

    def test_rejects_bad_tol(self):
        with pytest.raises(InvalidParameterError):
            solve_symmetric(sp.eye(2, format="csr"), np.ones(2), tol=0.0)


def grid_laplacian(side):
    """Grounded 5-point Laplacian on a side x side grid (SPD)."""
    path = sp.diags([-np.ones(side - 1), 2 * np.ones(side), -np.ones(side - 1)],
                    [-1, 0, 1])
    eye = sp.eye(side)
    return (sp.kron(path, eye) + sp.kron(eye, path)).tocsr()


def refuse_band(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cholesky_banded called")

    monkeypatch.setattr(ilgraph.linalg, "cholesky_banded", refuse)


def kernel_laplacian_1d(n, rng):
    """GL matrix of a tent-kernel graph on n uniform samples of [0, 1],
    restricted to all nodes but the first: dense within its RCM band."""
    graph = build_full_kernel_graph(rng.uniform(size=(n, 1)),
                                    KernelSpec.tent(), 4.0 / n ** 0.5, dim=1)
    G = graph.gradient()
    return (G.T @ G).tocsr()[1:][:, 1:]


def block_tridiagonal(blocks):
    """2x2 blocks [[2, -1], [-1, 2]] down the diagonal, the off-diagonal
    pair of each block dropped where ``blocks`` is False."""
    n = 2 * len(blocks)
    off = np.zeros(n - 1)
    off[0::2] = -np.asarray(blocks, dtype=float)
    return sp.diags([off, 2 * np.ones(n), off], [-1, 0, 1]).tocsr()


class TestSolveContract:
    """The band, LU and CG paths share solve(A, b, tol) -> (x, CG
    iterations, true relative residual)."""

    @pytest.mark.parametrize("kind", [BandCholesky, SparseLU, StartSpace])
    def test_every_path_solves_and_reports(self, monkeypatch, kind):
        rng = np.random.default_rng(11)
        # a 1-D kernel graph is dense within its band, a grid is not; no
        # matrix is factored under a cap of 0
        A = (kernel_laplacian_1d(80, rng) if kind is BandCholesky
             else grid_laplacian(12))
        if kind is StartSpace:
            monkeypatch.setattr(ilgraph.linalg, "FACTOR_MAX_ENTRIES", 0)
        n = A.shape[0]
        solver = factor_if_small(A) or StartSpace(n)
        assert type(solver) is kind
        tol = 1e-10
        for k, b in enumerate(rng.standard_normal((3, n))):
            x, iterations, res = solver.solve(A, b, tol)
            expected = np.linalg.solve(A.toarray(), b)
            assert np.allclose(x, expected, rtol=1e-8,
                               atol=1e-8 * np.abs(expected).max())
            true_res = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
            if kind is StartSpace:
                assert iterations > 0 and res <= tol
                assert np.isclose(res, true_res, rtol=1e-6, atol=1e-14)
            elif k == 0:  # a factor checks its first solve only
                assert iterations == 0 and res == true_res <= 1e-12
            else:
                assert iterations == 0 and np.isnan(res)
        if kind is not StartSpace:
            # solve_symmetric counts a residual not computed as converged
            _, report = solve_symmetric(A, b, tol, factor=solver)
            assert np.isnan(report.relative_residual) and report.converged


class TestFactor:
    def test_factored_solve_matches_dense(self, monkeypatch):
        # the grid's RCM band holds far more entries than the grid: LU
        refuse_band(monkeypatch)
        A = grid_laplacian(12)
        b = np.random.default_rng(4).standard_normal(A.shape[0])
        factor = factor_if_small(A)
        assert factor is not None
        x, report = solve_symmetric(A, b, tol=1e-12, factor=factor)
        assert np.allclose(x, np.linalg.solve(A.toarray(), b), atol=1e-10)
        assert report.iterations == 0 and report.converged
        assert np.isclose(report.relative_residual,
                          np.linalg.norm(A @ x - b) / np.linalg.norm(b))

    @pytest.mark.parametrize("band", [True, False])
    def test_only_the_first_solve_of_a_factor_is_checked(self, band):
        # one product by A, on the first solve; later solves report their
        # residual as not computed (NaN) and converged
        rng = np.random.default_rng(9)
        A = kernel_laplacian_1d(80, rng) if band else grid_laplacian(12)
        products = []

        class Counting:
            shape = A.shape

            def __matmul__(self, x):
                products.append(1)
                return A @ x

        factor = factor_if_small(A)
        assert isinstance(factor, BandCholesky) == band
        bs = rng.standard_normal((3, A.shape[0]))
        reports = [solve_symmetric(Counting(), b, factor=factor)[1]
                   for b in bs]
        assert len(products) == 1
        first, later = reports[0], reports[1:]
        assert first.converged and 0 <= first.relative_residual <= 1e-10
        assert all(np.isnan(r.relative_residual) and r.converged
                   and r.iterations == 0 for r in later)
        x, _ = solve_symmetric(A, bs[2], factor=factor)
        assert np.allclose(x, np.linalg.solve(A.toarray(), bs[2]),
                           rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("band", [True, False])
    def test_factor_of_another_matrix_fails_its_first_solve(self, band):
        # the check on the first solve is what catches a factor used with
        # a matrix it does not factor
        rng = np.random.default_rng(10)
        A = kernel_laplacian_1d(80, rng) if band else grid_laplacian(12)
        factor = factor_if_small(A)
        assert isinstance(factor, BandCholesky) == band
        other = A + sp.eye(A.shape[0], format="csr")
        _, report = solve_symmetric(other, rng.standard_normal(A.shape[0]),
                                    factor=factor)
        assert not report.converged
        assert report.relative_residual > 1e-3

    def test_envelope_over_cap_is_not_factored(self, monkeypatch):
        # the RCM envelope of a 150x150 grid is about 150^3 / 2 entries
        def refuse(*args, **kwargs):
            raise AssertionError("splu called above the cap")

        monkeypatch.setattr(ilgraph.linalg.spla, "splu", refuse)
        assert factor_if_small(grid_laplacian(150)) is None

    def test_cap_is_inclusive_envelope_count(self, monkeypatch):
        # tridiagonal: the envelope is the diagonal plus one entry per row
        n = 40
        A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1]).tocsr()
        monkeypatch.setattr(ilgraph.linalg, "FACTOR_MAX_ENTRIES", 2 * n - 1)
        assert factor_if_small(A) is not None
        monkeypatch.setattr(ilgraph.linalg, "FACTOR_MAX_ENTRIES", 2 * n - 2)
        assert factor_if_small(A) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_1d_kernel_graph_takes_band_cholesky(self, seed):
        rng = np.random.default_rng(seed)
        A = kernel_laplacian_1d(int(rng.integers(40, 200)), rng)
        b = rng.standard_normal(A.shape[0])
        factor = factor_if_small(A)
        assert isinstance(factor, BandCholesky)
        x, report = solve_symmetric(A, b, factor=factor)
        expected = np.linalg.solve(A.toarray(), b)
        assert np.allclose(x, expected, rtol=1e-10,
                           atol=1e-10 * np.abs(expected).max())
        assert report.iterations == 0 and report.converged
        assert report.relative_residual == (np.linalg.norm(A @ x - b)
                                            / np.linalg.norm(b))

    @pytest.mark.parametrize("seed", range(3))
    def test_band_storage_is_the_upper_band_of_the_permuted_matrix(
            self, seed, monkeypatch):
        bands = []
        factor_band = ilgraph.linalg.cholesky_banded

        def record(ab, **kwargs):
            bands.append(ab.copy())
            return factor_band(ab, **kwargs)

        monkeypatch.setattr(ilgraph.linalg, "cholesky_banded", record)
        rng = np.random.default_rng(seed)
        A = kernel_laplacian_1d(int(rng.integers(40, 200)), rng)
        factor = factor_if_small(A)
        assert isinstance(factor, BandCholesky)
        (ab,) = bands
        bw = ab.shape[0] - 1
        dense = A.toarray()[np.ix_(factor.perm, factor.perm)]
        assert not np.triu(dense, bw + 1).any()
        expected = np.zeros_like(ab)
        for d in range(bw + 1):
            expected[bw - d, d:] = np.diag(dense, d)
        assert np.array_equal(ab, expected)

    def test_band_rule_is_inclusive(self, monkeypatch):
        # half-bandwidth 1 on 8 unknowns: the band holds 16 entries, as
        # many as A with all four blocks coupled, more than with three
        assert isinstance(factor_if_small(block_tridiagonal([1, 1, 1, 1])),
                          BandCholesky)
        refuse_band(monkeypatch)
        assert factor_if_small(block_tridiagonal([1, 1, 1, 0])) is not None

    def test_duplicate_entries_are_summed(self):
        # every entry of the tridiagonal [-1, 2, -1] stored as two halves
        n = 30
        A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1]).tocsr()
        halves = sp.csr_matrix((np.repeat(A.data / 2, 2),
                                np.repeat(A.indices, 2), 2 * A.indptr),
                               shape=A.shape)
        b = np.random.default_rng(8).standard_normal(n)
        factor = factor_if_small(halves)
        assert isinstance(factor, BandCholesky)
        assert np.allclose(factor.solve(halves, b, 1e-10)[0],
                           np.linalg.solve(A.toarray(), b),
                           rtol=1e-10, atol=1e-10)
        assert not halves.has_canonical_format  # the input is left as given

    def test_band_cholesky_of_indefinite_matrix_raises(self):
        # tridiagonal, so dense in its band, with eigenvalues
        # 0.5 - 2 cos(k pi / 41) of both signs
        n = 40
        A = sp.diags([-np.ones(n - 1), 0.5 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1]).tocsr()
        with pytest.raises(np.linalg.LinAlgError):
            factor_if_small(A)


class TestDeflation:
    @pytest.mark.parametrize("rank", [1, 5, 19])
    def test_any_basis_gives_the_same_solution(self, rank):
        # the basis only changes the iteration count, never x
        rng = np.random.default_rng(5)
        A = grid_laplacian(10)
        b = rng.standard_normal(A.shape[0])
        expected = np.linalg.solve(A.toarray(), b)
        plain, _ = solve_symmetric(A, b, tol=1e-12)
        space = StartSpace(A.shape[0])
        space.set_basis(A, rng.standard_normal((A.shape[0], rank)))
        x, report = solve_symmetric(A, b, tol=1e-12, factor=space)
        assert report.converged and report.iterations > 0
        assert np.allclose(x, expected, rtol=1e-9, atol=1e-10)
        assert np.allclose(x, plain, rtol=1e-9, atol=1e-10)

    def test_later_solves_take_fewer_iterations(self, over_cap):
        A = grid_laplacian(30)
        assert factor_if_small(A) is None
        space = StartSpace(A.shape[0])
        rng = np.random.default_rng(6)
        reports = [solve_symmetric(A, rng.standard_normal(A.shape[0]),
                                   factor=space)[1] for _ in range(6)]
        assert all(r.converged for r in reports)
        first, later = reports[0], reports[1:]
        assert space.basis()[0].shape[1] == ilgraph.linalg.RITZ_VECTORS
        assert np.mean([r.iterations for r in later]) < first.iterations
        # the first solve's smallest Ritz value has converged to the
        # smallest eigenvalue, 4 (1 - cos(pi / 31)) on this grid
        W, AW = space.basis()
        ritz = np.linalg.eigvalsh(W.T @ AW)
        assert np.isclose(ritz[0], 4 * (1 - np.cos(np.pi / 31)), rtol=1e-8)

    def test_first_solve_past_the_record_learns_from_its_start(
            self, over_cap, monkeypatch):
        # the first solve runs past LANCZOS_STEPS; the Ritz values it
        # leaves are those of A on the Krylov space of its first steps
        steps = 20
        monkeypatch.setattr(ilgraph.linalg, "LANCZOS_STEPS", steps)
        A = grid_laplacian(30)
        rng = np.random.default_rng(7)
        b = rng.standard_normal(A.shape[0])
        space = StartSpace(A.shape[0])
        _, first = solve_symmetric(A, b, factor=space)
        assert first.converged and first.iterations > steps
        Q = np.empty((A.shape[0], steps))  # orthonormal basis of K_steps(A, b)
        q = b / np.linalg.norm(b)
        for j in range(steps):
            Q[:, j] = q
            q = A @ q
            for _ in range(2):
                q -= Q[:, :j + 1] @ (Q[:, :j + 1].T @ q)
            q /= np.linalg.norm(q)
        expected = np.linalg.eigvalsh(Q.T @ (A @ Q))
        W, AW = space.basis()
        ritz = np.linalg.eigvalsh(W.T @ AW)
        assert np.allclose(ritz, expected[:ilgraph.linalg.RITZ_VECTORS],
                           rtol=1e-8)
        b = rng.standard_normal(A.shape[0])
        x, later = solve_symmetric(A, b, factor=space)
        assert later.converged
        assert np.allclose(x, np.linalg.solve(A.toarray(), b), rtol=1e-8,
                           atol=1e-10)


    def test_basis_is_built_for_a_second_solve_only(self, over_cap,
                                                     monkeypatch):
        builds = []
        eigh = ilgraph.linalg.eigh_tridiagonal

        def counting(*args, **kwargs):
            builds.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(ilgraph.linalg, "eigh_tridiagonal", counting)
        A = grid_laplacian(20)
        rng = np.random.default_rng(8)
        space = StartSpace(A.shape[0])
        solve_symmetric(A, rng.standard_normal(A.shape[0]), factor=space)
        assert space.learnt and not builds
        for _ in range(2):
            solve_symmetric(A, rng.standard_normal(A.shape[0]),
                            factor=space)
        assert len(builds) == 1
        assert space.basis()[0].shape[1] == ilgraph.linalg.RITZ_VECTORS

    def test_start_is_galerkin_on_the_recent_solutions(self, over_cap):
        # a right-hand side in the span of the last two solves' is solved
        # by the start alone; one from an older solve is not
        A = grid_laplacian(20)
        rng = np.random.default_rng(9)
        bs = rng.standard_normal((4, A.shape[0]))
        space = StartSpace(A.shape[0])
        for b in bs[:3]:
            solve_symmetric(A, b, tol=1e-13, factor=space)
        b = 2.0 * bs[1] - 0.5 * bs[2]
        x, report = solve_symmetric(A, b, tol=1e-8, factor=space)
        assert report.converged and report.iterations == 0
        assert np.allclose(x, np.linalg.solve(A.toarray(), b), rtol=1e-8,
                           atol=1e-10)
        _, report = solve_symmetric(A, bs[0], tol=1e-8, factor=space)
        assert report.converged and report.iterations > 0

    def test_start_residual_is_orthogonal_to_w_and_the_solutions(
            self, over_cap):
        # the start is Galerkin on W and the kept solutions together: its
        # residual is orthogonal to both, to round-off
        A = grid_laplacian(20)
        rng = np.random.default_rng(13)
        space = StartSpace(A.shape[0])
        for _ in range(3):
            solve_symmetric(A, rng.standard_normal(A.shape[0]), tol=1e-10,
                            factor=space)
        assert space.basis()[0].shape[1] == ilgraph.linalg.RITZ_VECTORS
        assert space.X.shape[1] == ilgraph.linalg.RECYCLED_SOLUTIONS
        b = rng.standard_normal(A.shape[0])
        x, r = space.start(b)
        assert np.allclose(r, b - A @ x, rtol=0.0, atol=1e-12)
        for V in (space.basis()[0], space.X):
            V = V / np.linalg.norm(V, axis=0)
            assert np.abs(V.T @ r).max() <= 1e-12 * np.linalg.norm(b)

    def test_start_drops_a_solution_in_the_span_of_w(self, over_cap):
        # a solution in span W adds only round-off to the span of W and
        # the solutions; the start drops it, and the next solve starts and
        # iterates as from W alone (keeping it took 152 iterations against
        # 84)
        A = grid_laplacian(20)
        n = A.shape[0]
        rng = np.random.default_rng(12)
        W = rng.standard_normal((n, 5))
        b = rng.standard_normal(n)
        starts, reports = [], []
        for in_span in (True, False):
            space = StartSpace(n)
            space.set_basis(A, W)
            if in_span:
                _, first = solve_symmetric(A, A @ (W @ np.ones(5)), tol=1e-10,
                                           factor=space)
                assert first.iterations == 0
            starts.append(space.start(b)[0])
            x, report = solve_symmetric(A, b, tol=1e-10, factor=space)
            assert np.allclose(x, np.linalg.solve(A.toarray(), b), rtol=1e-8,
                               atol=1e-9)
            reports.append(report)
        assert (np.linalg.norm(starts[0] - starts[1])
                <= 1e-12 * np.linalg.norm(starts[1]))
        assert reports[0].iterations == reports[1].iterations

    def test_zero_solution_is_not_kept(self, over_cap):
        # at tol 1 the zero start already meets the tolerance; a zero x
        # spans nothing and must not reach a later start
        A = grid_laplacian(10)
        rng = np.random.default_rng(11)
        space = StartSpace(A.shape[0])
        x, report = solve_symmetric(A, rng.standard_normal(A.shape[0]),
                                    tol=1.0, factor=space)
        assert report.converged and not x.any()
        b = rng.standard_normal(A.shape[0])
        x, report = solve_symmetric(A, b, tol=1e-10, factor=space)
        assert report.converged
        assert np.allclose(x, np.linalg.solve(A.toarray(), b), rtol=1e-8,
                           atol=1e-10)


class TestConnectivity:
    def test_connected_passes(self):
        w = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
        check_label_connectivity(w, np.array([0]))

    def test_orphan_component_raises_with_members(self):
        # nodes {2, 3} form their own component with no label
        dense = np.zeros((4, 4))
        dense[0, 1] = dense[1, 0] = 1.0
        dense[2, 3] = dense[3, 2] = 1.0
        with pytest.raises(DisconnectedGraphError) as err:
            check_label_connectivity(sp.csr_matrix(dense), np.array([0]))
        assert "2" in str(err.value) and "3" in str(err.value)

    def test_directed_support_symmetrized(self):
        # one-directional edge still counts as connectivity: the value
        # update hands the check its support taken both ways
        dense = np.zeros((2, 2))
        dense[0, 1] = 1.0
        graph = WeightGraph(sp.csr_matrix(dense))
        u = gl_solve(graph, LabelAssignment(np.array([1]), np.array([2.0])))
        assert np.allclose(u, [2.0, 2.0])
