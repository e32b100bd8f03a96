"""Reissner-Mindlin plate spectra and their singular limits.

A small numpy/scipy toolkit that discretizes the Reissner-Mindlin plate
system with all eight boundary-condition families, the biharmonic
Kirchhoff-Love pencil it converges to as the thickness vanishes, and the
weighted dimension-reduced system that the free plate on a thin domain
converges to as the domain collapses onto an interval.
"""

from .geometry import (
    BoundaryTag,
    ElementKind,
    Mesh,
    PiecewiseLinear,
    ThinDomainSpec,
    build_interval_mesh,
    build_rect_mesh,
    build_thin_mesh,
    constant_profile_spec,
    element_measures,
    load_mesh,
    mesh_from_dict,
    mesh_to_dict,
    profile_spec,
    rescale_to_reference,
    save_mesh,
    split_quads,
)
from .spaces import (
    MORLEY,
    P2_1D,
    Q1_SCALAR,
    Q1_VECTOR2,
    DofMap,
    SpaceKind,
    build_dofmap,
    stack_dofmaps,
)
from .assemble import (
    Pencil,
    assemble_from_local,
    element_batch,
    mass_density,
    stiffness_density,
)
from .eigensolve import EigOptions, EigResult, principal_angles, solve_gep_smallest
from .rm_system import (
    BcFamily,
    FieldPair,
    MaterialParams,
    assemble_rm_pencil,
    interpolate_pair,
    kernel_count,
    rigid_pair,
    rm_dofmap,
    solve_rm_source,
)
from .biharmonic import (
    LimitBc,
    assemble_biharmonic_pencil,
    map_limit_bc,
)
from .thin_limit import (
    ConnectingSystem,
    assemble_limit_pencil,
    divgrad_consistency_gap,
    limit_div_coefficient,
    p2_dof_points,
    p2_evaluate,
    p2_interpolate,
    qjj_value,
    resolvent_gap,
    solve_extended_source,
    solve_limit_source,
)
from .experiments import (
    SweepConfig,
    emit_report,
    fit_rate,
    kernel_census,
    korn_constant,
    poincare_check,
    sweep_delta,
    sweep_thickness,
)
from .errors import (
    AssemblyError,
    ConvergenceError,
    SingularSystemError,
    UnsupportedConfigurationError,
    UnsupportedLimitError,
)

__version__ = "0.1.0"
