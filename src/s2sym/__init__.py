"""Symmetry classification for uniform discrete subgroups of the solvable group S2.

The integer layers (intmat, discrete, symmetry) load with the package. The
float layers (liegroup, autos, extension), and with them numpy, load on the
first access to one of their names, so the integer commands run without numpy.
"""

from importlib import import_module

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
from .discrete import (
    DElement,
    GeneratorTriple,
    GenerationCertificate,
    ReducedTriple,
    dinv,
    dmul,
    dpow,
    embed_int,
    generates_d,
    reduce_generators,
    tau_vectors,
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

__version__ = "0.1.0"

# name -> float-layer module that defines it, resolved by __getattr__
_LAZY = {
    name: module
    for module, names in {
        "liegroup": (
            "BASIS_E", "BASIS_F", "GroupPoint", "S2Group", "branch_k", "bracket", "compose",
            "convert_basis", "epoint", "exp_map", "f_factor", "f_structure_constants",
            "first_branches", "fpoint", "inverse", "lattice_fields", "make_group", "phi_of",
            "two_exp_decompose",
        ),
        "autos": (
            "GroupAutoParams", "LieAlgebraAuto", "apply_group_auto", "group_auto_from_algebra",
            "is_algebra_auto", "pts_factor",
        ),
        "extension": (
            "ExtensionReport", "UniquenessProbe", "extend", "r_eps", "uniqueness_probe",
            "verify_extension",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
