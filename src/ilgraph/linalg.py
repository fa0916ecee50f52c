"""Sparse symmetric solves backing the value update.

The linear systems here are weakly diagonally dominant graph Laplacians
restricted to unlabeled nodes; once every component of the graph holds a
label (``check_label_connectivity``) they are symmetric positive
definite. Every value update (GL, WNLL, the first pass of ``choose_c``,
each ``il_solve`` iteration) takes one of three paths, chosen by
``factor_if_small`` from the matrix alone: a LAPACK band Cholesky factor
where the matrix is dense within its band, a sparse LU factor where it
is not, and deflated conjugate gradients (CG) where a factor would be
big.

Whether to factor is decided before factoring, from a cheap bound on the
factor's size. Under the reverse Cuthill-McKee order, every nonzero of
the Cholesky factor lies in the envelope of the matrix: in row i, between
the first nonzero column and the diagonal. The envelope is counted in
O(nnz) without permuting the matrix. A matrix is factored only when that
count is at most ``FACTOR_MAX_ENTRIES``: on the 101x101 grid such a
factor costs about one CG solve to 1e-10 (about 400 iterations), and
every solve by it is exact to round-off. Kernel graphs on
low-dimensional point sets (the grid, 1-D samples) fall under the cap;
dense patch graphs in high dimension do not, and iterate: there a factor
fills in by tens of times (about 50x, and 22 s to build, on the 128x128
desk-texture graph).

Under the cap, the half-bandwidth bw of the permuted matrix picks the
factor. When the band holds no more entries than the matrix,
(bw + 1) n <= nnz, the matrix is nearly dense within it and a band
Cholesky (``BandCholesky``) stores and factors it with no index work: a
1-D kernel graph, where every sample links to all samples within the
bandwidth, factors and solves about 4 times faster than by SuperLU at
n = 1000. A 2-D grid's band holds about 20 times its entries;
there SuperLU's minimum-degree order fills in far less.

Over the cap, CG stops only once the true relative residual
||b - A x|| / ||b||, the figure a SolveReport states, is at most the
tolerance. scipy's MINRES, used here before, stops on its own
backward-error estimate instead, and on the desk-texture graph ended
every solve near 8e-7 against a tolerance of 1e-10. All solves of one
value-update system share its matrix, so the first one keeps its
Lanczos tridiagonal and leaves the Ritz vectors of the ``RITZ_VECTORS``
smallest Ritz values in a ``Deflation``. Every later solve starts from
the Galerkin solution on them and keeps its search directions
A-orthogonal to them (Saad, Yeung, Erhel and Guyomarc'h 2000, "A
deflated version of the conjugate gradient algorithm"), so the few
isolated small eigenvalues of a patch-graph Laplacian no longer set its
iteration count.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_solve_banded, cholesky_banded, eigh_tridiagonal

from .graph import InvalidParameterError

DEFAULT_TOL = 1e-10
# largest RCM envelope, in entries, of a matrix that factor_if_small factors
FACTOR_MAX_ENTRIES = 2 ** 21
# Ritz vectors a Deflation keeps from the first solve of its matrix
RITZ_VECTORS = 8
# CG iterations of that first solve whose residuals it keeps: bounds its
# memory at LANCZOS_STEPS x n where a solve may run 10 n iterations
LANCZOS_STEPS = 200


class DisconnectedGraphError(RuntimeError):
    """Raised when unlabeled nodes are not connected to any labeled node."""


@dataclass
class SolveReport:
    """One linear solve: CG iterations taken (0 for a factored solve; the
    Galerkin start of a deflated solve counts as none), the true relative
    residual ||A x - b|| / ||b||, and whether it met the tolerance. An
    il_solve iteration solves for the change in u, so its residual is
    relative to the increment's right-hand side, not to that of the full
    value update."""

    iterations: int
    relative_residual: float
    converged: bool


def factor_if_small(A):
    """Factor of the symmetric positive definite matrix A, or None when the
    envelope of A under reverse Cuthill-McKee, which bounds its Cholesky
    factor, exceeds FACTOR_MAX_ENTRIES entries. Under the cap, a
    BandCholesky when the RCM band of half-width bw holds no more entries
    than A, (bw + 1) n <= nnz(A), and a sparse LU factor otherwise. Either
    has ``solve(b)``."""
    A = sp.csr_matrix(A)
    if not A.has_canonical_format:  # nnz and the band copy count each entry once
        A = A.copy()
        A.sum_duplicates()
    n = A.shape[0]
    if n == 0:
        return None
    perm = sp.csgraph.reverse_cuthill_mckee(A, symmetric_mode=True)
    pos = np.empty(n, dtype=A.indices.dtype)
    pos[perm] = np.arange(n, dtype=pos.dtype)
    # position of each row's first nonzero column in the permuted matrix
    # (no row is empty, A being nonsingular); the diagonal always belongs
    # to the envelope
    width = pos - np.minimum(pos, np.minimum.reduceat(pos[A.indices],
                                                      A.indptr[:-1]))
    if int(np.sum(width, dtype=np.int64)) + n > FACTOR_MAX_ENTRIES:
        return None
    bw = int(width.max())
    if (bw + 1) * n <= A.nnz:
        return BandCholesky(A, perm, pos, bw)
    # A.T is A in CSC form without a copy (1.5 MB less peak memory on the
    # 101x101 grid); minimum degree on A + A^T gives 40% less fill than
    # COLAMD there; a symmetric positive definite A needs no pivoting
    return spla.splu(A.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                     options={"SymmetricMode": True})


class BandCholesky:
    """LAPACK band Cholesky factor of the symmetric positive definite CSR
    matrix A under the symmetric permutation perm (pos its inverse), whose
    permuted form has half-bandwidth bw. Raises numpy's LinAlgError when A
    is not numerically positive definite."""

    def __init__(self, A, perm, pos, bw: int):
        n = A.shape[0]
        # upper band storage of the permuted matrix: entry (i, j), i <= j,
        # at ab[bw + i - j, j]
        i = np.repeat(pos, np.diff(A.indptr))
        j = pos[A.indices]
        upper = i <= j
        ab = np.zeros((bw + 1, n))
        ab[bw + i[upper] - j[upper], j[upper]] = A.data[upper]
        self.cb = cholesky_banded(ab, overwrite_ab=True, check_finite=False)
        self.perm, self.pos = perm, pos

    def solve(self, b):
        y = cho_solve_banded((self.cb, False), b[self.perm],
                             overwrite_b=True, check_finite=False)
        return y[self.pos]


class Deflation:
    """Deflation space of one symmetric positive definite matrix A of
    size n for CG: an orthonormal basis W, A W and (W^T A W)^-1. Empty
    until its first solve, which fills it with Ritz vectors."""

    def __init__(self, n: int):
        self.W = self.AW = np.zeros((n, 0))
        self.E_inv = np.zeros((0, 0))
        self.learnt = False

    def set_basis(self, A, W):
        """Deflate on the span of the columns of W, of full column rank."""
        self.W = np.linalg.qr(W)[0]
        self.AW = A @ self.W
        self.E_inv = np.linalg.inv(self.W.T @ self.AW)
        self.learnt = True

    def solve(self, A, b, tol: float):
        """Deflated CG on A x = b; the first call learns the basis from
        its own Lanczos tridiagonal. Returns (x, iterations, true
        relative residual)."""
        if self.learnt:
            return _cg(A, b, tol, self)
        n = b.shape[0]
        # normalized residuals of the first LANCZOS_STEPS iterations, one
        # per row of a single block (one small array per iteration
        # fragments the heap: 7 MB more peak RSS on the 64x64 desk
        # texture); the leading block of the tridiagonal is still a
        # Lanczos projection of A, so its Ritz vectors stay valid
        V, alphas, rrs = np.empty((min(LANCZOS_STEPS, 10 * n), n)), [], []

        def record(r, rr, alpha):
            if len(alphas) < V.shape[0]:
                np.multiply(r, 1.0 / np.sqrt(rr), out=V[len(alphas)])
                alphas.append(alpha)
                rrs.append(rr)

        x, iterations, res = _cg(A, b, tol, self, record)
        self.learnt = True
        # fewer vectors than iterations and unknowns: every later solve
        # still iterates
        k = min(RITZ_VECTORS, len(alphas) - 1, n - 1)
        if k > 0:
            # CG's coefficients give the tridiagonal of A in the basis of
            # the normalized residuals
            a, rr = np.array(alphas), np.array(rrs)
            beta = rr[1:] / rr[:-1]
            diag = 1.0 / a
            diag[1:] += beta / a[:-1]
            _, Y = eigh_tridiagonal(diag, -np.sqrt(beta) / a[:-1],
                                    select="i", select_range=(0, k - 1))
            self.set_basis(A, V[:a.size].T @ Y)
        return x, iterations, res


def _cg(A, b, tol: float, deflation: Deflation, record=None):
    """CG on A x = b from the Galerkin solution on the deflation basis W,
    each search direction made A-orthogonal to W. Stops once the true
    relative residual is at most tol (checked whenever the recurred one
    is, and restarted from x when it is not), or after 10 n iterations.
    Until a restart, calls record(r, r.r, alpha) at every iteration,
    before r moves. Returns (x, iterations, true relative residual)."""
    W, AW, E_inv = deflation.W, deflation.AW, deflation.E_inv
    n, b_norm = b.shape[0], np.linalg.norm(b)
    stop = (tol * b_norm) ** 2

    def restart(x, r):
        """Move x, with residual r, to the Galerkin solution on W (both
        in place); returns the first search direction and r.r."""
        c = E_inv @ (W.T @ r)
        x += W @ c
        r -= AW @ c
        return r - W @ (E_inv @ (AW.T @ r)), r @ r

    x, r = np.zeros(n), b.copy()
    p, rr = restart(x, r)
    iterations = 0
    while iterations < 10 * n:
        if rr <= stop:
            r = b - A @ x
            res = np.linalg.norm(r) / b_norm
            if res <= tol:
                break
            p, rr = restart(x, r)
            record = None
        Ap = A @ p
        alpha = rr / (p @ Ap)
        if record is not None:
            record(r, rr, alpha)
        x += alpha * p
        Ap *= alpha
        r -= Ap
        rr, rr_old = r @ r, rr
        p *= rr / rr_old
        p += r - W @ (E_inv @ (AW.T @ r))
        iterations += 1
    else:
        res = np.linalg.norm(b - A @ x) / b_norm
    return x, iterations, float(res)


def solve_symmetric(A, b, tol: float = DEFAULT_TOL, factor=None):
    """Solve A x = b for symmetric positive definite A. Returns
    (x, SolveReport).

    With a sparse LU factor of A from factor_if_small, one direct solve
    (0 iterations); otherwise CG, capped at 10 n iterations, deflated on
    the basis of a Deflation of A when given one (the first solve fills
    an empty one). The Galerkin start on that basis counts as no
    iteration. Either way the report holds the true relative residual.
    Non-convergence is reported, not raised; the caller decides.
    """
    if not tol > 0:
        raise InvalidParameterError("tol must be positive")
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)
    if isinstance(factor, Deflation):
        x, iterations, res = factor.solve(A, b, tol)
    elif factor is not None:
        x, iterations = factor.solve(b), 0
        res = float(np.linalg.norm(A @ x - b) / b_norm)
    else:
        x, iterations, res = _cg(A, b, tol, Deflation(n))
    return x, SolveReport(iterations, res, bool(res <= tol))


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
