"""Assembly's high-water mark, in units of one stack of local blocks.

One stack is ne * nloc^2 float64 entries, the size of one matrix's
per-element blocks.  tracemalloc sees every numpy allocation, so the traced
peak of an assembly is the same from run to run; each bound sits between
the peak of the scatter that repeated the full index grid and summed its
blocks into fresh stacks, and that of the lean one.
"""

import tracemalloc

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
# numpy 2.4 / scipy 1.17 are, grid scatter -> lean scatter,
# RM 32^2 8.77 -> 5.59, RM 96x6 strip 9.26 -> 6.15, Morley 32^2 14.55 -> 11.72
CASES = {
    "rm_plate": (plate, rm_free, 12, 7.0),
    "rm_strip": (strip, rm_free, 12, 7.5),
    "morley_plate": (lambda: split_quads(plate()), morley_clamped, 6, 13.0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_assembly_peak_in_stacks(case):
    build_mesh, assemble, nloc, bound = CASES[case]
    mesh = build_mesh()
    assemble(mesh)  # lazy imports and caches stay out of the traced peak
    tracemalloc.start()
    try:
        assemble(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stacks = peak / (len(mesh.elements) * nloc * nloc * 8)
    assert stacks < bound, f"{case}: assembly peaked at {stacks:.2f} stacks"
