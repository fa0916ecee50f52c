"""Sparse symmetric solves backing the value update.

The linear systems here are weakly diagonally dominant graph Laplacians
restricted to unlabeled nodes. Every value update (GL, WNLL, the first
pass of ``choose_c``, each ``il_solve`` iteration) asks ``factor_if_small``
for a sparse LU factor and solves by it; when the factor would be big, by
MINRES, which is valid for any symmetric (semi)definite system.

Whether to factor is decided before factoring, from a cheap bound on the
factor's size. Under the reverse Cuthill-McKee order, every nonzero of
the Cholesky factor lies in the envelope of the matrix: in row i, between
the first nonzero column and the diagonal. The envelope is counted in
O(nnz) without permuting the matrix. A matrix is factored only when that
count is at most ``FACTOR_MAX_ENTRIES``: on the 101x101 grid such a
factor costs about one MINRES solve, which stalls there near a relative
residual of 1e-7. Kernel graphs on low-dimensional point sets (the grid,
1-D samples) fall under the cap; dense patch graphs in high dimension do
not, and keep MINRES: there a factor fills in by tens of times (about
50x, and 22 s to build, on the 128x128 desk-texture graph).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graph import InvalidParameterError

DEFAULT_TOL = 1e-10
# largest RCM envelope, in entries, of a matrix that factor_if_small factors
FACTOR_MAX_ENTRIES = 2 ** 21


class DisconnectedGraphError(RuntimeError):
    """Raised when unlabeled nodes are not connected to any labeled node."""


@dataclass
class SolveReport:
    """One linear solve: iterations taken (0 for a factored solve), the
    true relative residual ||A x - b|| / ||b||, and whether it met the
    tolerance. An il_solve iteration solves for the change in u, so its
    residual is relative to the increment's right-hand side, not to that
    of the full value update."""

    iterations: int
    relative_residual: float
    converged: bool


def factor_if_small(A):
    """Sparse LU factor of the symmetric nonsingular matrix A, or None when
    the envelope of A under reverse Cuthill-McKee, which bounds its
    Cholesky factor, exceeds FACTOR_MAX_ENTRIES entries."""
    A = sp.csr_matrix(A)
    n = A.shape[0]
    if n == 0:
        return None
    perm = sp.csgraph.reverse_cuthill_mckee(A, symmetric_mode=True)
    pos = np.empty(n, dtype=A.indices.dtype)
    pos[perm] = np.arange(n, dtype=pos.dtype)
    # position of each row's first nonzero column in the permuted matrix
    # (no row is empty, A being nonsingular); the diagonal always belongs
    # to the envelope
    first = np.minimum(pos, np.minimum.reduceat(pos[A.indices], A.indptr[:-1]))
    if int(np.sum(pos - first, dtype=np.int64)) + n > FACTOR_MAX_ENTRIES:
        return None
    # A.T is A in CSC form without a copy (1.5 MB less peak memory on the
    # 101x101 grid); minimum degree on A + A^T gives 40% less fill than
    # COLAMD there; a symmetric positive definite A needs no pivoting
    return spla.splu(A.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                     options={"SymmetricMode": True})


def solve_symmetric(A, b, tol: float = DEFAULT_TOL, factor=None):
    """Solve A x = b for symmetric A. Returns (x, SolveReport).

    With a factor of A from factor_if_small, one direct solve (0
    iterations); otherwise MINRES, capped at 10 n iterations. Either way
    the report holds the true relative residual. Non-convergence is
    reported, not raised; the caller decides.
    """
    if not tol > 0:
        raise InvalidParameterError("tol must be positive")
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)

    count = [0]

    def cb(_xk):
        count[0] += 1

    if factor is not None:
        x = factor.solve(b)
    else:
        x, _ = spla.minres(A, b, rtol=tol, maxiter=10 * n, callback=cb)
    res = np.linalg.norm(A @ x - b) / b_norm
    converged = bool(res <= tol)
    return x, SolveReport(count[0], float(res), converged)


def check_label_connectivity(weights: sp.spmatrix, labeled_idx: np.ndarray):
    """Every connected component of the support (edges taken both ways)
    must contain a labeled node, otherwise the restricted system is
    singular."""
    n_comp, labels = sp.csgraph.connected_components(weights != 0,
                                                     directed=False)
    has_label = np.zeros(n_comp, dtype=bool)
    has_label[np.unique(labels[labeled_idx])] = True
    if not has_label.all():
        orphan = int(np.nonzero(~has_label)[0][0])
        members = np.nonzero(labels == orphan)[0]
        raise DisconnectedGraphError(
            f"component with nodes {members[:10].tolist()}"
            f"{'...' if members.size > 10 else ''} contains no labeled node")
