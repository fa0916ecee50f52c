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
Lanczos tridiagonal in a ``Deflation``, and the second builds from it
the Ritz vectors W of the ``RITZ_VECTORS`` smallest Ritz values; a
matrix solved once builds none. Every later solve keeps its search
directions A-orthogonal to W (Saad, Yeung, Erhel and Guyomarc'h 2000, "A
deflated version of the conjugate gradient algorithm"), so the few
isolated small eigenvalues of a patch-graph Laplacian no longer set its
iteration count. It starts from the Galerkin solution on W and on the
last ``RECYCLED_SOLUTIONS`` solutions of the matrix (Fischer 1998,
"Projection techniques for iterative solution of Ax = b with successive
right-hand sides"): il_solve's steps solve one matrix for a run of
right-hand sides that change little from step to step. Their images
cost no product by A, A x = b - r with r the true residual the solve
stopped on. The start is built inside the ``Deflation``, so the report
of a solve still states its residual relative to its own right-hand
side.

Each solve's SolveReport states the tolerance it was judged against.
The first value update of a system (GL, WNLL, choose_c, il_solve's
first pass) solves to lin_tol, and its Deflation learns from that
solve; il_solve's later steps pass their own, looser tolerance
(solver.STEP_TOL_MAX). A factored solve ignores the tolerance.
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
# latest solutions of the matrix on which, with the Ritz vectors, each
# later solve of a Deflation starts
RECYCLED_SOLUTIONS = 2


class DisconnectedGraphError(RuntimeError):
    """Raised when unlabeled nodes are not connected to any labeled node."""


@dataclass
class SolveReport:
    """One linear solve: CG iterations taken (0 for a factored solve; the
    Galerkin start of a deflated solve counts as none), the true relative
    residual ||A x - b|| / ||b||, the tolerance tol it was judged against,
    and whether it met that tol. An il_solve iteration solves for the
    change in u, so its residual is relative to the increment's
    right-hand side, not to that of the full value update, and its tol is
    the step's own (see solver.STEP_TOL_MAX); a factored solve ignores
    tol and is exact to round-off."""

    iterations: int
    relative_residual: float
    converged: bool
    tol: float


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
    size n for CG, and the last RECYCLED_SOLUTIONS solutions of A with
    their images. The basis W, orthonormal, comes with A W and
    (W^T A W)^-1. It is empty until the first solve, which records its
    Lanczos tridiagonal; a later solve, or a read of W or AW, builds the
    basis from it, so a matrix solved once never builds one."""

    def __init__(self, n: int):
        self._basis = (np.zeros((n, 0)), np.zeros((n, 0)), np.zeros((0, 0)))
        self._lanczos = None  # (A, V, alphas, r.r's) until the basis is built
        # the recent solutions, newest first, and A times each
        self.X = self.AX = np.zeros((n, 0))
        self.learnt = False

    @property
    def W(self):
        return self.basis()[0]

    @property
    def AW(self):
        return self.basis()[1]

    def set_basis(self, A, W):
        """Deflate on the span of the columns of W, of full column rank."""
        W = np.linalg.qr(W)[0]
        AW = A @ W
        self._basis = (W, AW, np.linalg.inv(W.T @ AW))
        self.learnt = True

    def basis(self):
        """(W, A W, (W^T A W)^-1): the Ritz vectors of the RITZ_VECTORS
        smallest Ritz values of the first solve, built at the first call
        after it."""
        if self._lanczos is not None:
            A, V, a, rr = self._lanczos
            self._lanczos = None
            # fewer vectors than iterations and unknowns: every later
            # solve still iterates
            k = min(RITZ_VECTORS, a.size - 1, V.shape[1] - 1)
            if k > 0:
                # CG's coefficients give the tridiagonal of A in the basis
                # of the normalized residuals
                beta = rr[1:] / rr[:-1]
                diag = 1.0 / a
                diag[1:] += beta / a[:-1]
                _, Y = eigh_tridiagonal(diag, -np.sqrt(beta) / a[:-1],
                                        select="i", select_range=(0, k - 1))
                self.set_basis(A, V.T @ Y)
        return self._basis

    def start(self, b):
        """(x0, b - A x0), x0 the Galerkin solution of A x = b on the
        recent solutions made A-orthogonal to W, with no product by A.
        The projections on W and on them are then independent, and _cg
        adds the one on W (Fischer 1998)."""
        n = b.shape[0]
        x, r = np.zeros(n), b.copy()
        W, AW, E_inv = self.basis()
        # fewer start vectors than unknowns, like the basis: every solve
        # still iterates
        m = max(0, n - 1 - W.shape[1])
        X, AX = self.X[:, :m], self.AX[:, :m]
        if X.shape[1]:
            C = E_inv @ (AW.T @ X)
            P, AP = X - W @ C, AX - AW @ C
            # P^T A P scaled by the solutions' A-norms to a unit diagonal
            # before projection; a direction that keeps less than 1e-8 of
            # its squared A-norm, nearly in span W or in the span of the
            # other solutions, would be round-off and is dropped
            s = 1.0 / np.sqrt(np.einsum("ij,ij->j", X, AX))
            lam, Q = np.linalg.eigh(s[:, None] * (P.T @ AP) * s)
            keep = lam > 1e-8
            Q, lam = Q[:, keep], lam[keep]
            c = s * (Q @ ((Q.T @ (s * (P.T @ b))) / lam))
            x = P @ c
            r -= AP @ c
        return x, r

    def solve(self, A, b, tol: float):
        """Deflated CG on A x = b from the Galerkin start on W and the
        recent solutions. The first call records its Lanczos data. Returns
        (x, iterations, true relative residual)."""
        record = None
        if not self.learnt:
            n = b.shape[0]
            # normalized residuals of the first LANCZOS_STEPS iterations,
            # one per row of a single block (one small array per
            # iteration fragments the heap: 7 MB more peak RSS on the
            # 64x64 desk texture); the leading block of the tridiagonal is
            # still a Lanczos projection of A, so its Ritz vectors stay
            # valid
            V, alphas, rrs = np.empty((min(LANCZOS_STEPS, 10 * n), n)), [], []

            def record(r, rr, alpha):
                if len(alphas) < V.shape[0]:
                    np.multiply(r, 1.0 / np.sqrt(rr), out=V[len(alphas)])
                    alphas.append(alpha)
                    rrs.append(rr)

        x, iterations, res, r = _cg(A, b, tol, self, record)
        if record is not None:
            self._lanczos = (A, V[:len(alphas)], np.array(alphas), np.array(rrs))
            self.learnt = True
        # A x = b - r, r the true residual _cg stopped on; x^T A x > 0
        # keeps out a zero x, which spans nothing
        Ax = b - r
        if x @ Ax > 0:
            self.X = np.column_stack([x, self.X])[:, :RECYCLED_SOLUTIONS]
            self.AX = np.column_stack([Ax, self.AX])[:, :RECYCLED_SOLUTIONS]
        return x, iterations, res


def _cg(A, b, tol: float, deflation: Deflation, record=None):
    """CG on A x = b from the deflation's start, moved to the Galerkin
    solution on its basis W, each search direction made A-orthogonal to W.
    Stops once the true relative residual is at most tol (checked whenever
    the recurred one is, and restarted from x when it is not), or after
    10 n iterations. Until a restart, calls record(r, r.r, alpha) at every
    iteration, before r moves. Returns (x, iterations, true relative
    residual, true residual)."""
    W, AW, E_inv = deflation.basis()
    n, b_norm = b.shape[0], np.linalg.norm(b)
    stop = (tol * b_norm) ** 2

    def restart(x, r):
        """Move x, with residual r, to the Galerkin solution on W (both
        in place); returns the first search direction and r.r."""
        c = E_inv @ (W.T @ r)
        x += W @ c
        r -= AW @ c
        return r - W @ (E_inv @ (AW.T @ r)), r @ r

    x, r = deflation.start(b)
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
        r = b - A @ x
        res = np.linalg.norm(r) / b_norm
    return x, iterations, float(res), r


def solve_symmetric(A, b, tol: float = DEFAULT_TOL, factor=None):
    """Solve A x = b for symmetric positive definite A. Returns
    (x, SolveReport).

    With a factor of A from factor_if_small, band Cholesky or sparse LU,
    one direct solve (0 iterations); otherwise CG, capped at 10 n
    iterations, deflated on the basis of a Deflation of A when given one
    (the first solve fills an empty one). The Galerkin start on that basis
    counts as no iteration. Either way the report holds the true relative
    residual.
    Non-convergence is reported, not raised; the caller decides.
    """
    if not tol > 0:
        raise InvalidParameterError("tol must be positive")
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True, tol)
    if isinstance(factor, Deflation):
        x, iterations, res = factor.solve(A, b, tol)
    elif factor is not None:
        x, iterations = factor.solve(b), 0
        res = float(np.linalg.norm(A @ x - b) / b_norm)
    else:
        x, iterations, res, _ = _cg(A, b, tol, Deflation(n))
    return x, SolveReport(iterations, res, bool(res <= tol), tol)


def check_label_connectivity(support: sp.csr_matrix, labeled_idx: np.ndarray):
    """Every connected component of the graph must contain a labeled node,
    otherwise the restricted system is singular. ``support`` is symmetric
    with no stored zeros (an edge taken both ways), so its strong
    components are its components, found with no transposed copy."""
    n_comp, labels = sp.csgraph.connected_components(
        support, directed=True, connection="strong")
    has_label = np.zeros(n_comp, dtype=bool)
    has_label[np.unique(labels[labeled_idx])] = True
    if not has_label.all():
        orphan = int(np.nonzero(~has_label)[0][0])
        members = np.nonzero(labels == orphan)[0]
        raise DisconnectedGraphError(
            f"component with nodes {members[:10].tolist()}"
            f"{'...' if members.size > 10 else ''} contains no labeled node")
