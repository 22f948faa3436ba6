"""The package namespace and what it ships.

The integer layers load with the package, the float layers (liegroup, autos,
extension) on the first access to one of their names. The public names are
exactly the EXPORTS table; the continuous reference model the tests check
the lift against lives in tests/continuous.py, not in the package, and every
function defined in the package is reached by a command or the survey.
"""

import os
import runpy
import sys
from importlib import import_module
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import ModuleType

import pytest

import s2sym
import test_cli_golden

ROOT = Path(__file__).resolve().parent.parent

# Every name the package exports, by the module that defines it.
EXPORTS = {
    "errors": "InternalInconsistencyError InvalidParametersError InvalidThetaError "
    "NotAnAutomorphismError NotElasticError NotGeneratingError",
    "intmat": "Mat2Z Vec2Z hcf_all theta_order theta_power theta_powers",
    "branch": "branch_k first_branches",
    "liegroup": "S2Group f_factor make_group",
    "autos": "GroupAutoParams",
    "discrete": "DElement GeneratorTriple GenerationCertificate ReducedTriple dinv dmul dpow "
    "embed_int generates_d reduce_generators tau_vectors",
    "symmetry": "DAutomorphism SymmetryClassification SymmetryGroup apply_d_automorphism "
    "centralizer check_d_automorphism classify_symmetry enumerate_elastic "
    "image_word lifts reversing_group reversing_symmetry shift_prefix",
    "extension": "ExtensionReport UniquenessProbe extend r_eps uniqueness_probe verify_extension",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]

# Functions defined in the package that no command and not the survey calls, with the reason they stay.
UNREACHED_ALLOWED = {
    ("symmetry", "apply_d_automorphism"): "perfbench/workloads.py calls it",
    ("__init__", "__dir__"): "module protocol: dir(s2sym) calls it",
}


@pytest.mark.parametrize("module, name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_export_is_the_defining_modules_object(module, name):
    assert getattr(s2sym, name) is getattr(import_module(f"s2sym.{module}"), name)
    assert name in dir(s2sym)


def test_public_names_are_exactly_the_exports():
    def submodule(name):
        value = getattr(s2sym, name)
        return isinstance(value, ModuleType) and value.__name__ == f"s2sym.{name}"

    public = {name for name in dir(s2sym) if not name.startswith("_") and not submodule(name)}
    assert public == {name for _, name in NAMES}


def test_from_import_of_a_float_name():
    from s2sym import make_group

    assert make_group is s2sym.liegroup.make_group


# Names the package exported once: words and the continuous model that only the tests use.
REMOVED = (
    "embed rmat dcommutator word_at "
    "SingularFError mat2z_pow as_d_automorphism "
    "BASIS_E BASIS_F GroupPoint bracket compose convert_basis epoint exp_map f_structure_constants "
    "fpoint inverse lattice_fields two_exp_decompose "
    "LieAlgebraAuto apply_group_auto group_auto_from_algebra is_algebra_auto pts_factor phi_of"
).split()


@pytest.mark.parametrize("name", ["no_such_name", *REMOVED])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(s2sym, name)


def test_submodules_import_from_the_package():
    from s2sym import cli, extension, liegroup

    assert [m.__name__ for m in (cli, extension, liegroup)] == ["s2sym.cli", "s2sym.extension", "s2sym.liegroup"]


def _defined_functions() -> set[tuple[str, int, str]]:
    """(file, first line, name) of every function, method and lambda in the package sources."""
    found = set()

    def walk(code):
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                # comprehensions are code objects too; class bodies are not CO_OPTIMIZED
                named = const.co_name == "<lambda>" or not const.co_name.startswith("<")
                if named and const.co_flags & CO_OPTIMIZED:
                    found.add((os.path.realpath(const.co_filename), const.co_firstlineno, const.co_name))
                walk(const)

    for path in Path(s2sym.__file__).resolve().parent.glob("*.py"):
        walk(compile(path.read_text(), str(path), "exec"))
    return found


def test_every_shipped_function_is_reached(monkeypatch, capsys):
    # the golden CLI cases and the survey at box 1, in process under a profile hook;
    # float-layer names resolved earlier are dropped, so they resolve through __getattr__ again
    for name in s2sym._LAZY:
        monkeypatch.delitem(vars(s2sym), name, raising=False)
    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno, code.co_name))

    monkeypatch.setattr(sys, "argv", ["extension_survey.py", "--box", "1", "--shift", "1"])
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for argv in test_cli_golden.CASES:
            test_cli_golden.run(argv)
        runpy.run_path(str(ROOT / "scripts" / "extension_survey.py"), run_name="__main__")
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    reached = {(os.path.realpath(f), line, name) for f, line, name in reached}
    unreached = sorted(
        f"{Path(f).stem}.{name} (line {line})"
        for f, line, name in _defined_functions() - reached
        if (Path(f).stem, name) not in UNREACHED_ALLOWED
    )
    assert not unreached, f"defined in src/s2sym but run by no command: {unreached}"
