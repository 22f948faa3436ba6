"""Symmetry classification for uniform discrete subgroups of the solvable group S2."""

from .errors import (
    InternalInconsistencyError,
    InvalidParametersError,
    InvalidThetaError,
    NotAnAutomorphismError,
    NotElasticError,
    NotGeneratingError,
    SingularFError,
)
from .intmat import Mat2Z, Vec2Z, hcf_all, mat2z_pow, theta_order, theta_power, theta_powers
from .liegroup import (
    BASIS_E,
    BASIS_F,
    GroupPoint,
    S2Group,
    branch_k,
    bracket,
    compose,
    convert_basis,
    epoint,
    exp_map,
    f_factor,
    f_structure_constants,
    first_branches,
    fpoint,
    inverse,
    lattice_fields,
    make_group,
    phi_of,
    two_exp_decompose,
)
from .autos import (
    GroupAutoParams,
    LieAlgebraAuto,
    apply_group_auto,
    group_auto_from_algebra,
    is_algebra_auto,
    pts_factor,
)
from .discrete import (
    DElement,
    GeneratorTriple,
    GenerationCertificate,
    ReducedTriple,
    dcommutator,
    dinv,
    dmul,
    dpow,
    embed,
    embed_int,
    generates_d,
    reduce_generators,
    rmat,
    tau_vectors,
    word_at,
)
from .symmetry import (
    DAutomorphism,
    SymmetryClassification,
    SymmetryGroup,
    apply_d_automorphism,
    as_d_automorphism,
    centralizer,
    check_d_automorphism,
    classify_symmetry,
    enumerate_elastic,
    image_word,
    lifts,
    reversing_group,
    reversing_symmetry,
    shift_prefix,
)
from .extension import (
    ExtensionReport,
    UniquenessProbe,
    extend,
    r_eps,
    uniqueness_probe,
    verify_extension,
)

__version__ = "0.1.0"
