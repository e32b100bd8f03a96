"""Assembly's high-water mark, in units of one stack of local blocks, and
the memory a factorization and a source solve take besides the matrix.

One stack is ne * nloc^2 float64 entries, the size of one matrix's
per-element blocks.  tracemalloc sees every numpy allocation, so the traced
peak of an assembly is the same from run to run; each bound sits between
the peak of the scatter that held whole stacks of local blocks and cut the
pencil through three full copies, and that of the chunked one.
"""

import tracemalloc

import numpy as np
import pytest

from rmplates import (
    BcFamily,
    MaterialParams,
    assemble_biharmonic_pencil,
    assemble_rm_pencil,
    build_rect_mesh,
    build_thin_mesh,
    constant_profile_spec,
    split_quads,
)
from rmplates.eigensolve import factorize, sparse_solve

PARAMS = MaterialParams(E=1.0, sigma=0.3, t=0.1)


def plate():
    return build_rect_mesh(1.0, 1.0, 32, 32)


def strip():
    return build_thin_mesh(constant_profile_spec(0.0, 1.0, 0.5, 0.05), 96, 6)


def rm_free(mesh):
    return assemble_rm_pencil(mesh, PARAMS, BcFamily.FREE)


def morley_clamped(mesh):
    return assemble_biharmonic_pencil(mesh, 1.0, 0.3, "clamped")


# (mesh, assembler, local dofs, bound in stacks): traced peaks measured with
# numpy 2.4 / scipy 1.17 are, whole stacks -> chunked blocks, the
# L + tril(L, -1).T mirror and a copy-free cut, RM 32^2 5.59 -> 2.42,
# RM 96x6 strip 6.15 -> 2.86, Morley 32^2 11.72 -> 4.05
CASES = {
    "rm_plate": (plate, rm_free, 12, 3.0),
    "rm_strip": (strip, rm_free, 12, 3.0),
    "morley_plate": (lambda: split_quads(plate()), morley_clamped, 6, 6.0),
}


def traced_peak(fn, *args):
    fn(*args)  # lazy imports and caches stay out of the traced peak
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", sorted(CASES))
def test_assembly_peak_in_stacks(case):
    build_mesh, assemble, nloc, bound = CASES[case]
    mesh = build_mesh()
    stacks = traced_peak(assemble, mesh) / (len(mesh.elements) * nloc * nloc * 8)
    assert stacks < bound, f"{case}: assembly peaked at {stacks:.2f} stacks"


def test_factorize_copies_no_matrix():
    # SuperLU reads the pencil's own arrays (a tocsc copy is 100% of A);
    # what remains are the n-vectors of `ordering`, 9.2% of A measured
    A = rm_free(plate()).A
    size = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    assert traced_peak(factorize, A) < 0.1 * size


def test_source_solve_makes_abs_a_on_its_index_arrays():
    # |A| needs new values only; its indices would add a third of A's bytes
    # (abs(A) copies them).  The rest is n-vectors, 15% of A measured
    A = rm_free(plate()).A
    size = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    load, factor = np.ones(A.shape[0]), factorize(A)
    assert traced_peak(sparse_solve, A, load, factor) < A.data.nbytes + 0.25 * size
