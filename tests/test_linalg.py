import numpy as np
import pytest
import scipy.sparse as sp

import ilgraph.linalg
from ilgraph.graph import InvalidParameterError
from ilgraph.linalg import (DisconnectedGraphError, check_label_connectivity,
                            factor_if_small, solve_symmetric)


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
        # a tolerance below round-off: no MINRES solve can meet it
        _, report = solve_symmetric(A, b, tol=1e-30)
        assert not report.converged
        assert report.relative_residual > 1e-30

    def test_rejects_bad_tol(self):
        with pytest.raises(InvalidParameterError):
            solve_symmetric(sp.eye(2, format="csr"), np.ones(2), tol=0.0)


def grid_laplacian(side):
    """Grounded 5-point Laplacian on a side x side grid (SPD)."""
    path = sp.diags([-np.ones(side - 1), 2 * np.ones(side), -np.ones(side - 1)],
                    [-1, 0, 1])
    eye = sp.eye(side)
    return (sp.kron(path, eye) + sp.kron(eye, path)).tocsr()


class TestFactor:
    def test_factored_solve_matches_dense(self):
        A = grid_laplacian(12)
        b = np.random.default_rng(4).standard_normal(A.shape[0])
        factor = factor_if_small(A)
        assert factor is not None
        x, report = solve_symmetric(A, b, tol=1e-12, factor=factor)
        assert np.allclose(x, np.linalg.solve(A.toarray(), b), atol=1e-10)
        assert report.iterations == 0 and report.converged
        assert np.isclose(report.relative_residual,
                          np.linalg.norm(A @ x - b) / np.linalg.norm(b))

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
        # one-directional edge still counts as connectivity
        dense = np.zeros((2, 2))
        dense[0, 1] = 1.0
        check_label_connectivity(sp.csr_matrix(dense), np.array([1]))
