"""Generalized symmetric eigensolver, sparse solves and subspace angles.

Every pencil (A, B) given to this module has A and B symmetric positive
definite: each assembler adds the mass to the form, which puts the kernel
at the eigenvalue 1.  So the smallest eigenvalues come from shift-and-invert
Lanczos (ARPACK) at 0 on the LU of A itself, with a seeded start vector,
and from a dense solve when the pencil is too small for Krylov iteration.
Eigenvectors are re-orthonormalized in the B inner product, so clustered
(kernel) eigenvalues come out with full multiplicity.  Every sparse LU in
the package is made by `factorize`: the shift-invert operator and cluster
refinement here, and `sparse_solve`.

`factorize` picks the LU's ordering from the graph of the matrix.  A
plate's graph is wider than it is long, and there a symmetric
minimum-degree ordering without pivoting fills 2-3x less than SuperLU's
default COLAMD.  A strip or chain is longer than it is wide, already
nearly banded, and keeps the default LU bit for bit.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order

from .errors import ConvergenceError, SingularSystemError

#: eigenvalues within this relative distance are reported as one cluster
CLUSTER_RTOL = 1e-7
#: seed of the start vector of every Lanczos run
SEED = 7
#: iteration limit of every Lanczos run
MAX_ITER = 5000
#: backward-error bound every `sparse_solve` solution meets
SOLVE_RTOL = 1e-12
#: block inverse-iteration rounds per cluster in the refinement
REFINE_ROUNDS = 3


@dataclass
class EigOptions:
    k: int = 6
    tol: float = 1e-9

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass
class EigResult:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # columns, B-orthonormal
    residuals: np.ndarray  # ||A x - lambda B x|| / ||A x||
    # the shift-invert LU (ordering, lu_fill, factor_s, opinv_applies), the refinement (refine_factors, refine_rounds)
    info: dict = field(default_factory=dict)


def clusters(eigenvalues):
    """Group the indices of ascending eigenvalues whose relative gaps are below CLUSTER_RTOL."""
    groups = [[0]]
    lam = eigenvalues
    for i in range(1, len(lam)):
        scale = max(abs(lam[i]), abs(lam[groups[-1][0]]), 1e-300)
        if abs(lam[i] - lam[groups[-1][-1]]) <= CLUSTER_RTOL * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def ordering(M) -> str:
    """The column ordering `factorize` uses for M: "COLAMD" when the graph
    of M has more breadth-first levels than its widest level holds
    vertices (a strip or a chain), else "MMD_AT_PLUS_A" (a plate).

    The levels are counted from a pseudo-peripheral vertex, the last one
    a breadth-first search from vertex 0 reaches.
    """
    if M.format == "csc":
        M = M.T  # the same graph as CSR, without a copy
    order = breadth_first_order(M, 0, directed=True, return_predecessors=False)
    order, pred = breadth_first_order(M, order[-1], directed=True)
    pos = np.empty(M.shape[0], dtype=np.intp)
    pos[order] = np.arange(len(order))
    # the parents' positions never decrease along a breadth-first order, so
    # each level starts after the last child of the level before it
    parent = pos[pred[order[1:]]]
    starts = [0, 1]
    while starts[-1] < len(order):
        starts.append(1 + int(np.searchsorted(parent, starts[-1])))
    widths = np.diff(starts)
    return "COLAMD" if len(widths) > widths.max() else "MMD_AT_PLUS_A"


def factorize(M, info: dict = None):
    """Sparse LU of the structurally symmetric M; a singular M raises
    SingularSystemError.

    A plate (see `ordering`) is factored in SuperLU's symmetric mode: a
    minimum-degree ordering of the pattern of M^T + M and diagonal pivots.
    A strip keeps SuperLU's default COLAMD with partial pivoting, which on
    strips fills about as little; it stays so until the benchmark pins
    that sit at round-off level on the 384x24 strip are re-recorded.
    `info`, if given, receives `ordering`, `lu_fill` (SuperLU's stored L and U entries) and `factor_s`.
    """
    t0 = time.perf_counter()
    M = M.tocsc()
    order = ordering(M)
    symmetric = {"permc_spec": order, "diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}
    try:
        lu = spla.splu(M) if order == "COLAMD" else spla.splu(M, **symmetric)
    except RuntimeError as exc:
        raise SingularSystemError(f"sparse LU failed: {exc}")
    if info is not None:
        info.update(ordering=order, lu_fill=int(lu.nnz), factor_s=time.perf_counter() - t0)
    return lu


def sparse_solve(A, load: np.ndarray) -> np.ndarray:
    """Sparse LU solve of A x = load with symmetric diagonal scaling.

    Jacobi scaling evens out the very different block magnitudes (the
    rotation mass carries t^2/12).  The residual contract is
    backward-error style, ||A x - b|| / (||A|| ||x|| + ||b||) <= SOLVE_RTOL; the
    LU solution is corrected with float64 residuals at most three times,
    stopping as soon as the contract holds.
    """
    d = A.diagonal()
    if np.any(d <= 0):
        raise SingularSystemError("non-positive diagonal; system is not definite")
    s = 1.0 / np.sqrt(d)
    S = sp.diags(s)
    As = (S @ A @ S).tocsc()
    bs = s * load
    lu = factorize(As)
    normA = spla.norm(As, np.inf)

    def backward_error(v):
        r = bs - As @ v
        return r, float(np.linalg.norm(r) / max(normA * np.linalg.norm(v) + np.linalg.norm(bs), 1e-300))

    y = lu.solve(bs)
    r, err = backward_error(y)
    for _ in range(3):
        if err <= SOLVE_RTOL:
            break
        y = y + lu.solve(r)
        r, err = backward_error(y)
    if err > SOLVE_RTOL:
        raise SingularSystemError("direct solve residual above tolerance after refinement")
    return s * y


def solve_gep_smallest(A, B, opts: EigOptions = None) -> EigResult:
    """k smallest eigenvalues of the sparse pencil (A, B), A and B symmetric positive definite."""
    opts = opts or EigOptions()
    n = A.shape[0]
    if opts.k > n:
        raise ValueError(f"requested {opts.k} eigenvalues from an n={n} pencil")
    info = {"ordering": "dense", "lu_fill": 0, "factor_s": 0.0, "opinv_applies": 0, "refine_factors": 0, "refine_rounds": 0}
    if opts.k > n - 2:  # ARPACK needs k < n - 1
        lam, vec = scipy.linalg.eigh(A.toarray(), B.toarray(), subset_by_index=(0, opts.k - 1))
    else:
        lam, vec = _shift_invert_lanczos(A, B, opts.k, info)
    order = np.argsort(lam)
    lam, vec = lam[order], vec[:, order]
    vec = _b_orthonormalize(vec, B)
    res = _residuals(A, B, lam, vec)
    if np.any(res > opts.tol):
        # pairs far from 0 lose accuracy; polish each cluster with
        # one step of shifted block inverse iteration plus Rayleigh-Ritz
        lam, vec = _refine_clusters(A, B, lam, vec, res, opts.tol, info)
        res = _residuals(A, B, lam, vec)
    if np.any(res > opts.tol):
        raise ConvergenceError(
            f"residuals {res.max():.2e} above tol {opts.tol:.1e}", partial=(lam, vec)
        )
    return EigResult(lam, vec, res, info)


def _shift_invert_lanczos(A, B, k, info):
    """k eigenpairs of (A, B) nearest 0 by Lanczos on the LU of A, recorded in `info`.

    The LU lives only as long as this call, so it is freed before the
    refinement factors a shifted matrix.
    """
    n = A.shape[0]
    lu = factorize(A, info)

    def opinv(x):
        info["opinv_applies"] += 1
        return lu.solve(x)

    try:
        return spla.eigsh(
            A,
            k=k,
            M=B,
            sigma=0.0,
            which="LM",
            v0=np.random.default_rng(SEED).standard_normal(n),
            maxiter=MAX_ITER,
            tol=0,
            OPinv=spla.LinearOperator((n, n), matvec=opinv, dtype=float),
        )
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(str(exc), partial=(exc.eigenvalues, exc.eigenvectors))


def _residuals(A, B, lam, vec):
    Av = A @ vec
    Bv = B @ vec
    return np.linalg.norm(Av - Bv * lam[None, :], axis=0) / np.linalg.norm(Av, axis=0)


def _refine_clusters(A, B, lam, vec, res, tol, info):
    lam = lam.copy()
    vec = vec.copy()
    for group in clusters(lam):
        idx = np.array(group)
        if np.all(res[idx] <= tol):
            continue
        lam_c = float(np.mean(lam[idx]))
        shift = lam_c + max(abs(lam_c), 1.0) * 1e-5
        lu = factorize(A - shift * B)
        info["refine_factors"] += 1
        Y = vec[:, idx]
        for _ in range(REFINE_ROUNDS):
            info["refine_rounds"] += 1
            Y = lu.solve(B @ Y)
            Y = _b_orthonormalize(Y, B)
            # Rayleigh-Ritz in the refined block
            G = Y.T @ (A @ Y)
            w, Q = np.linalg.eigh(0.5 * (G + G.T))
            Y = Y @ Q
            if np.all(_residuals(A, B, w, Y) <= tol):
                break
        lam[idx] = w
        vec[:, idx] = Y
    order = np.argsort(lam)
    return lam[order], vec[:, order]


def _b_orthonormalize(V: np.ndarray, B) -> np.ndarray:
    G = V.T @ (B @ V)
    # Cholesky of the Gram matrix; fall back to eigh when nearly defective
    try:
        L = np.linalg.cholesky(G)
        return scipy.linalg.solve_triangular(L, V.T, lower=True).T
    except np.linalg.LinAlgError:
        w, Q = np.linalg.eigh(G)
        if np.min(w) <= 0:
            raise ValueError("eigenvector block is B-rank-deficient")
        return V @ Q / np.sqrt(w)


def principal_angles(U: np.ndarray, V: np.ndarray, B) -> np.ndarray:
    """Principal angles between span(U) and span(V) in the B inner product.

    U and V must have B-orthonormal columns; the angles come out ascending,
    and the projection defect of one span onto the other equals the sine of
    the largest angle.
    """
    for M in (U, V):
        G = M.T @ (B @ M)
        if np.linalg.matrix_rank(G, tol=1e-8) < M.shape[1]:
            raise ValueError("input basis is rank-deficient in the B inner product")
        if not np.allclose(G, np.eye(M.shape[1]), atol=1e-6):
            raise ValueError("input basis is not B-orthonormal")
    s = scipy.linalg.svd(U.T @ (B @ V), compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))
