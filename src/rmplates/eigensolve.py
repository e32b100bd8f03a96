"""Generalized symmetric eigensolver, sparse solves and subspace angles.

Every pencil (A, B) given to this module has A and B symmetric positive
definite: each assembler adds the mass to the form, which puts the kernel
at the eigenvalue 1.  So the smallest eigenvalues come from shift-and-invert
Lanczos (ARPACK) at 0 on the LU of A itself, with a seeded start vector,
and from a dense solve when the pencil is too small for Krylov iteration.
Eigenvectors are re-orthonormalized in the B inner product, so clustered
(kernel) eigenvalues come out with full multiplicity.  Every sparse LU in
the package is made by `factorize`: the shift-invert operator here, one per
eigensolve unless a `Factor` is given, and `assemble.Pencil.factor`, the one
LU of a pencil, which its source solves (`sparse_solve`) and a Lanczos run
handed it share.

A computed pair (lam, x) is accepted when its residual
||A x - lam B x|| / ||A x|| is at most `EigOptions.tol`, or else when its
normwise backward error ||A x - lam B x||_1 / ((||A||_1 + |lam| ||B||_1) ||x||_1)
(Higham & Higham, SIMAX 20, 1998) is at most BACKWARD_ERROR: the pair is
then exact for a pencil within that relative distance of (A, B).  The
residual alone fails backward-stable pairs with ||A x|| << ||A|| ||x||, such
as the kernel at 1 of a thin strip or a thin plate.

`sparse_solve` solves on a given `factorize(A)`, the same LU the
eigensolver uses, and corrects every solution until its componentwise
backward error (Oettli-Prager) is at most SOLVE_BACKWARD_ERROR.  Residual correction
in fixed precision reaches that bound from any LU that is not too unstable
(Skeel 1980), so the plain LU of a plate or a thin strip needs no scaling.

`factorize` tells a plate, whose graph is wider than it is long, from a
strip or chain by `ordering`.  Assembly numbers a plate in nested-dissection
order, and SuperLU's symmetric mode factors it as numbered.  A strip is
already nearly banded and keeps the global order and SuperLU's COLAMD.

Before every LU, `factorize` hands the C heap's free pages back to the
system (glibc's `malloc_trim`).  Once a large array has been freed, glibc
serves arrays of up to 32 MB from heaps it shrinks only at their top, so
each LU, the largest allocation of an eigensolve or a source solve, would
otherwise land on top of the freed stacks, CSR temporaries and Lanczos
workspaces of the work before it.  Only free pages are touched, so no
number changes; the pages handed back cost a page fault each when they are
used again.  Where the C library has no `malloc_trim` (musl, macOS,
Windows) nothing is done.
"""

import ctypes
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
#: componentwise backward error every `sparse_solve` solution meets
SOLVE_BACKWARD_ERROR = 1e-14
#: residual corrections `sparse_solve` may make to reach it
SOLVE_CORRECTIONS = 3
#: normwise backward error that accepts a pair whose residual misses tol (about 4.5e3 eps)
BACKWARD_ERROR = 1e-12


def _malloc_trim():
    """glibc's `malloc_trim` from the running process, or None without it."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # TypeError: Windows loads no library by None
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


#: returns the C heap's whole free pages to the system before each LU; None without glibc
MALLOC_TRIM = _malloc_trim()


@dataclass
class EigOptions:
    k: int = 6
    tol: float = 1e-9

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0 < self.tol < np.inf:  # False for NaN, which would accept every pair
            raise ValueError(f"tol must be finite and positive, got {self.tol}")


@dataclass
class EigResult:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # columns, B-orthonormal
    residuals: np.ndarray  # ||A x - lambda B x|| / ||A x||
    # the shift-invert LU (ordering, lu_fill, factor_s, opinv_applies), the pairs' backward_errors (a list of floats)
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
    """The ordering of M's LU: "COLAMD" when the graph of M has more
    breadth-first levels than its widest level holds vertices (a strip or
    a chain), else "nested_dissection" (a plate, numbered so by assembly).

    The levels are counted from a pseudo-peripheral vertex, the last one
    a breadth-first search from vertex 0 reaches.
    """
    order = breadth_first_order(M, 0, directed=True, return_predecessors=False)
    order, pred = breadth_first_order(M, order[-1], directed=True)
    pos = np.empty(M.shape[0], dtype=order.dtype)
    pos[order] = np.arange(len(order), dtype=order.dtype)
    # the parents' positions never decrease along a breadth-first order, so
    # each level starts after the last child of the level before it
    parent = pred[order[1:]]
    del pred  # these n-vectors are all that factorize allocates, so each goes when done
    parent = pos[parent]
    starts = [0, 1]
    while starts[-1] < len(order):
        starts.append(1 + int(np.searchsorted(parent, starts[-1])))
    widths = np.diff(starts)
    return "COLAMD" if len(widths) > widths.max() else "nested_dissection"


@dataclass
class Factor:
    """An LU `lu` of a matrix M, whose `solve` solves with M, and how it was
    made: its column `ordering`, `lu_fill` (SuperLU's stored L and U
    entries) and `factor_s`."""

    lu: spla.SuperLU
    ordering: str
    lu_fill: int
    factor_s: float


def factorize(M) -> Factor:
    """Sparse LU of the exactly symmetric M, the one LU recipe of the
    package: the eigensolver and `sparse_solve` factor a pencil's A as it
    is.  A singular M raises SingularSystemError.  SuperLU reads a CSR M's
    own arrays as the CSC of its transpose, which is M: no copy is made.

    A plate (see `ordering`), numbered by `assemble.assemble_pencil`, is
    factored as numbered in SuperLU's symmetric mode with diagonal pivots.
    A strip keeps SuperLU's default COLAMD with partial pivoting, which on
    strips fills about as little; it stays so until the benchmark pins
    that sit at round-off level on the 384x24 strip are re-recorded.

    Just before SuperLU runs, `MALLOC_TRIM` hands the C heap's free pages
    back (see the module notes), so the LU is not added to the pages that
    freed arrays still hold; without glibc nothing is done.
    """
    t0 = time.perf_counter()
    order = ordering(M)
    M = sp.csc_matrix((M.data, M.indices, M.indptr), shape=M.shape) if M.format == "csr" else M.tocsc()
    symmetric = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}
    options = {} if order == "COLAMD" else symmetric
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)
    try:
        lu = spla.splu(M, **options)
    except RuntimeError as exc:
        raise SingularSystemError(f"sparse LU failed: {exc}")
    return Factor(lu, order, int(lu.nnz), time.perf_counter() - t0)


def sparse_solve(A, load: np.ndarray, factor: Factor) -> np.ndarray:
    """Solve A x = load on `factor`, an LU of A (`factorize(A)`).
    x is corrected with float64 residuals until its componentwise backward
    error max_i |load - A x|_i / (|A| |x| + |load|)_i is at most
    SOLVE_BACKWARD_ERROR; SingularSystemError if SOLVE_CORRECTIONS
    corrections do not get there.
    """
    solve = factor.lu.solve
    absA = type(A)((np.abs(A.data), A.indices, A.indptr), shape=A.shape)  # on A's own index arrays

    def backward_error(v):
        r = load - A @ v
        # a row with a zero bound has r = 0 exactly, and the floor makes that 0 / floor
        bound = np.maximum(absA @ np.abs(v) + np.abs(load), np.finfo(float).tiny)
        return r, float(np.max(np.abs(r) / bound, initial=0.0))

    x = solve(load)
    r, err = backward_error(x)
    for _ in range(SOLVE_CORRECTIONS):
        if err <= SOLVE_BACKWARD_ERROR:
            break
        x = x + solve(r)
        r, err = backward_error(x)
    if not err <= SOLVE_BACKWARD_ERROR:
        raise SingularSystemError(
            f"componentwise backward error {err:.2e} above {SOLVE_BACKWARD_ERROR:.0e} after {SOLVE_CORRECTIONS} corrections"
        )
    return x


def solve_gep_smallest(A, B, opts: EigOptions = None, factor: Factor = None) -> EigResult:
    """k smallest eigenvalues of the sparse pencil (A, B), A and B symmetric positive definite.

    `factor`, a `factorize(A)` such as a pencil's own, serves the
    shift-invert run in place of a new LU, so at most one LU is made.  A
    pair whose residual misses `opts.tol` and whose backward error exceeds
    BACKWARD_ERROR raises ConvergenceError.
    """
    opts = opts or EigOptions()
    n = A.shape[0]
    if opts.k > n:
        raise ValueError(f"requested {opts.k} eigenvalues from an n={n} pencil")
    info = {"ordering": "dense", "lu_fill": 0, "factor_s": 0.0, "opinv_applies": 0}
    # before the Lanczos run: after it, their copy of |A| would sit next to the
    # eigenvectors, their products with A and B, and a given LU
    norms = spla.norm(A, 1), spla.norm(B, 1)
    if opts.k > n - 2:  # ARPACK needs k < n - 1
        lam, vec = scipy.linalg.eigh(A.toarray(), B.toarray(), subset_by_index=(0, opts.k - 1))
    else:
        lam, vec = _shift_invert_lanczos(A, B, opts.k, factorize(A) if factor is None else factor, info)
    order = np.argsort(lam)
    lam, vec = lam[order], vec[:, order]
    vec = _b_orthonormalize(vec, B)
    res, err = _residuals(A, B, lam, vec, *norms)
    info["backward_errors"] = err.tolist()
    failed = (res > opts.tol) & (err > BACKWARD_ERROR)
    if np.any(failed):
        raise ConvergenceError(
            f"residuals {res[failed].max():.2e} above tol {opts.tol:.1e} and backward errors"
            f" {err[failed].max():.2e} above {BACKWARD_ERROR:.0e}",
            partial=(lam, vec),
        )
    return EigResult(lam, vec, res, info)


def _shift_invert_lanczos(A, B, k, factor, info):
    """k eigenpairs of (A, B) nearest 0 by Lanczos on `factor`, an LU of A,
    whose stats go to `info`."""
    n = A.shape[0]
    info.update(ordering=factor.ordering, lu_fill=factor.lu_fill, factor_s=factor.factor_s)

    def opinv(x):
        info["opinv_applies"] += 1
        return factor.lu.solve(x)

    try:
        return spla.eigsh(
            A,
            k=k,
            M=spla.LinearOperator((n, n), matvec=B.__matmul__, dtype=float),  # not a plain B: scipy would multiply it by an (n, 1) column
            sigma=0.0,
            which="LM",
            v0=np.random.default_rng(SEED).standard_normal(n),
            maxiter=MAX_ITER,
            tol=0,
            OPinv=spla.LinearOperator((n, n), matvec=opinv, dtype=float),
        )
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(str(exc), partial=(exc.eigenvalues, exc.eigenvectors))


def _residuals(A, B, lam, vec, norm_A, norm_B):
    """Per pair, the residual ||A x - lam B x|| / ||A x|| and the normwise
    backward error ||A x - lam B x||_1 / ((||A||_1 + |lam| ||B||_1) ||x||_1),
    given norm_A = ||A||_1 and norm_B = ||B||_1."""
    Av = A @ vec
    R = Av - (B @ vec) * lam[None, :]
    res = np.linalg.norm(R, axis=0) / np.linalg.norm(Av, axis=0)
    scale = (norm_A + np.abs(lam) * norm_B) * np.abs(vec).sum(axis=0)
    return res, np.abs(R).sum(axis=0) / scale


def _b_orthonormalize(V: np.ndarray, B) -> np.ndarray:
    """V's columns made B-orthonormal through the Cholesky factor of their
    Gram matrix; a Gram matrix that is not numerically positive definite
    raises ValueError."""
    try:
        L = np.linalg.cholesky(V.T @ (B @ V))
    except np.linalg.LinAlgError:
        raise ValueError("eigenvector block is B-rank-deficient") from None
    return scipy.linalg.solve_triangular(L, V.T, lower=True).T


def principal_angles(U: np.ndarray, V: np.ndarray, B) -> np.ndarray:
    """Principal angles between span(U) and span(V) in the B inner product.

    U and V must have B-orthonormal columns; the angles come out ascending,
    and the projection defect of one span onto the other equals the sine of
    the largest angle.
    """
    for M in (U, V):
        if not np.allclose(M.T @ (B @ M), np.eye(M.shape[1]), atol=1e-6):
            raise ValueError("input basis is not B-orthonormal")
    s = scipy.linalg.svd(U.T @ (B @ V), compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))
