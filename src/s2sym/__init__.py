"""Symmetry classification for uniform discrete subgroups of the solvable group S2.

The integer layers (intmat, discrete, symmetry) and the plain-float branch
data (branch) load with the package. The float layers (liegroup, autos,
extension), and with them numpy, load on the first access to one of their
names, so every command but a lifting extend runs without numpy.
The package ships only what the commands, the survey script and the benchmark
run: the decisions, the lift and its lattice check. The rest of the paper's
continuous model (group law, exponential map, brackets, algebra
automorphisms) checks the lift from the tests (tests/continuous.py).
"""

from importlib import import_module as _import_module

from .errors import (
    InternalInconsistencyError,
    InvalidParametersError,
    InvalidThetaError,
    NotAnAutomorphismError,
    NotElasticError,
    NotGeneratingError,
)
from .intmat import Mat2Z, Vec2Z, hcf_all, theta_order, theta_power, theta_powers
from .branch import branch_k, first_branches
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
        "liegroup": ("S2Group", "f_factor", "make_group"),
        "autos": ("GroupAutoParams",),
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
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
