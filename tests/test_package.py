"""The package namespace: the integer layers load with it, the float layers
(liegroup, autos, extension) on the first access to one of their names."""

from importlib import import_module

import pytest

import s2sym

# Every name the package exports, by the module that defines it.
EXPORTS = {
    "errors": "InternalInconsistencyError InvalidParametersError InvalidThetaError "
    "NotAnAutomorphismError NotElasticError NotGeneratingError SingularFError",
    "intmat": "Mat2Z Vec2Z hcf_all mat2z_pow theta_order theta_power theta_powers",
    "liegroup": "BASIS_E BASIS_F GroupPoint S2Group branch_k bracket compose convert_basis "
    "epoint exp_map f_factor f_structure_constants first_branches fpoint inverse "
    "lattice_fields make_group phi_of two_exp_decompose",
    "autos": "GroupAutoParams LieAlgebraAuto apply_group_auto group_auto_from_algebra "
    "is_algebra_auto pts_factor",
    "discrete": "DElement GeneratorTriple GenerationCertificate ReducedTriple dinv dmul dpow "
    "embed_int generates_d reduce_generators tau_vectors",
    "symmetry": "DAutomorphism SymmetryClassification SymmetryGroup apply_d_automorphism "
    "as_d_automorphism centralizer check_d_automorphism classify_symmetry enumerate_elastic "
    "image_word lifts reversing_group reversing_symmetry shift_prefix",
    "extension": "ExtensionReport UniquenessProbe extend r_eps uniqueness_probe verify_extension",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


@pytest.mark.parametrize("module, name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_export_is_the_defining_modules_object(module, name):
    assert getattr(s2sym, name) is getattr(import_module(f"s2sym.{module}"), name)
    assert name in dir(s2sym)


def test_from_import_of_a_float_name():
    from s2sym import make_group

    assert make_group is s2sym.liegroup.make_group


@pytest.mark.parametrize("name", ["no_such_name", "embed", "rmat", "dcommutator", "word_at"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(s2sym, name)


def test_submodules_import_from_the_package():
    from s2sym import cli, extension, liegroup

    assert [m.__name__ for m in (cli, extension, liegroup)] == ["s2sym.cli", "s2sym.extension", "s2sym.liegroup"]
