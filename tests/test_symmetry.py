from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from s2sym import (
    DAutomorphism,
    DElement,
    GeneratorTriple,
    Mat2Z,
    NotAnAutomorphismError,
    apply_d_automorphism,
    as_d_automorphism,
    centralizer,
    check_d_automorphism,
    classify_symmetry,
    dmul,
    enumerate_elastic,
    extend,
    make_group,
    mat2z_pow,
    reversing_group,
    reversing_symmetry,
    shift_prefix,
    theta_order,
    theta_power,
    verify_extension,
)
from s2sym.discrete import GEN_A, GEN_B, GEN_C
from s2sym.intmat import IDENTITY, MINUS_IDENTITY
from oracles import admissible_thetas, brute_force_commutants, brute_force_reversers, word_image_by_expansion

THETA4 = Mat2Z(0, 1, -1, 0)
THETA3 = Mat2Z(0, 1, -1, -1)
THETA6 = Mat2Z(1, 1, -1, 0)
THETA2 = MINUS_IDENTITY

words = st.builds(DElement, st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))

THETA_ID = "{0.a},{0.b},{0.c},{0.d}".format

# every element of R(theta) for these has entries of at most 5, so a bound-5
# brute force finds all of R(theta)
NONSCALAR_THETAS = [theta for theta in admissible_thetas(5) if theta != MINUS_IDENTITY]
# R(theta) of (3, 1, -10, -3) has entries up to 10; its reversing symmetry
# ((1, 0), (-6, -1)) is v1/5 - 3 v2/5 in the primitive rational basis
# v1 = (5, 3, 0, -5), v2 = (0, 1, 10, 0), so integer combinations miss it
WIDE_THETAS = NONSCALAR_THETAS + [Mat2Z(3, 1, -10, -3)]
R_BY_TRACE = {0: ("D4", 8), 1: ("D6", 12), -1: ("D6", 12)}

# elementary moves of GL2(Z): the four unit shears, the swap and a sign change
MOVES = (Mat2Z(1, 1, 0, 1), Mat2Z(1, -1, 0, 1), Mat2Z(1, 0, 1, 1), Mat2Z(1, 0, -1, 1),
         Mat2Z(0, 1, 1, 0), Mat2Z(-1, 0, 0, 1))
conjugates = st.builds(
    lambda theta0, moves: reduce(lambda t, m: m @ t @ m.inv(), moves, theta0),
    st.sampled_from([THETA3, THETA4, THETA6]),
    st.lists(st.sampled_from(MOVES), max_size=12),
)


def test_centralizer_trace_zero():
    sym = centralizer(THETA4)
    assert sym.label == "C4" and sym.order == 4
    assert set(sym.elements) == {IDENTITY, MINUS_IDENTITY, THETA4, -THETA4}


@pytest.mark.parametrize("theta", [THETA3, THETA6])
def test_centralizer_trace_pm_one(theta):
    sym = centralizer(theta)
    theta2 = theta @ theta
    assert sym.label == "C6" and sym.order == 6
    assert set(sym.elements) == {IDENTITY, MINUS_IDENTITY, theta, -theta, theta2, -theta2}


def test_centralizer_minus_identity():
    sym = centralizer(THETA2)
    assert sym.label == "GL2Z" and sym.is_all_gl2z
    assert sym.contains(Mat2Z(3, 1, 2, 1))  # det 1
    assert not sym.contains(Mat2Z(2, 0, 0, 2))


@pytest.mark.parametrize("theta", [THETA3, THETA4, THETA6])
def test_centralizer_matches_brute_force(theta):
    assert set(centralizer(theta).elements) == brute_force_commutants(theta, 5)


def test_reversing_symmetry_examples():
    lam = reversing_symmetry(THETA4)
    assert lam == Mat2Z(1, 0, 0, -1)
    assert lam @ THETA4 == THETA4.inv() @ lam
    # definitional sanity: conjugation really lands on the inverse, not theta
    assert lam @ THETA4 @ lam.inv() == THETA4.inv()
    assert lam @ THETA4 @ lam.inv() != THETA4


def _assert_largest_reverser(theta, lam):
    assert abs(lam.det()) == 1
    assert lam @ theta == theta.inv() @ lam
    assert lam == max((lam @ s for s in centralizer(theta).elements), key=Mat2Z.rows)


@pytest.mark.parametrize("theta", WIDE_THETAS, ids=THETA_ID)
def test_reversing_symmetry_is_valid(theta):
    lam = reversing_symmetry(theta)
    assert lam @ theta @ lam.inv() == theta.inv()
    _assert_largest_reverser(theta, lam)


def test_reversing_symmetry_minus_identity():
    assert reversing_symmetry(THETA2) == Mat2Z(1, 0, 0, -1)


@pytest.mark.parametrize("theta", WIDE_THETAS, ids=THETA_ID)
def test_reversing_group_structure(theta):
    rev = reversing_group(theta)
    assert (rev.label, rev.order) == R_BY_TRACE[theta.trace()]
    elements = set(rev.elements)
    sym = set(centralizer(theta).elements)
    assert sym < elements and len(elements) == 2 * len(sym)
    # group axioms, exact
    for x in elements:
        assert x.inv() in elements
        for y in elements:
            assert x @ y in elements
    # the centralizer is normal of index 2
    for r in elements:
        for s in sym:
            assert r @ s @ r.inv() in sym


@pytest.mark.parametrize("theta", NONSCALAR_THETAS, ids=THETA_ID)
def test_reversing_group_matches_brute_force(theta):
    rev = set(reversing_group(theta).elements)
    expected = brute_force_commutants(theta, 5) | brute_force_reversers(theta, 5)
    assert rev == expected


@given(conjugates)
@settings(max_examples=200)
def test_reversing_symmetry_of_conjugates(theta):
    _assert_largest_reverser(theta, reversing_symmetry(theta))
    rev = reversing_group(theta)
    assert (rev.label, rev.order) == R_BY_TRACE[theta.trace()]


@pytest.mark.parametrize("theta", NONSCALAR_THETAS, ids=THETA_ID)
def test_every_automorphism_lifts_and_verifies(theta):
    g = make_group(theta, 1)
    autos = enumerate_elastic(theta, [2], [-1])
    assert len(autos) == reversing_group(theta).order
    for phi in autos:
        report = verify_extension(g, phi, extend(g, phi), 2)
        assert report.passed, (phi, report)


def test_reversing_group_minus_identity():
    assert reversing_group(THETA2).is_all_gl2z


def test_as_d_automorphism_identity_triple():
    phi = as_d_automorphism(THETA4, GeneratorTriple(GEN_A, GEN_B, GEN_C))
    assert phi == DAutomorphism(1, IDENTITY, 0, 0)


def test_as_d_automorphism_chi_theta():
    # images encode chi = theta with (beta1, gamma1) = (2, -1)
    triple = GeneratorTriple(
        DElement(1, 2, -1),
        DElement(0, THETA4.a, THETA4.c),
        DElement(0, THETA4.b, THETA4.d),
    )
    phi = as_d_automorphism(THETA4, triple)
    assert phi == DAutomorphism(1, THETA4, 2, -1)


def test_as_d_automorphism_rejects_a_in_images():
    triple = GeneratorTriple(GEN_A, DElement(1, 1, 0), GEN_C)
    assert as_d_automorphism(THETA4, triple) is None


def test_as_d_automorphism_rejects_non_unimodular():
    triple = GeneratorTriple(GEN_A, DElement(0, 1, 0), DElement(0, 0, 2))
    assert as_d_automorphism(THETA4, triple) is None


def test_check_d_automorphism_errors():
    with pytest.raises(NotAnAutomorphismError):
        check_d_automorphism(THETA4, DAutomorphism(2, IDENTITY, 0, 0))
    with pytest.raises(NotAnAutomorphismError):
        check_d_automorphism(THETA4, DAutomorphism(1, Mat2Z(2, 0, 0, 1), 0, 0))
    # upper triangular unipotent does not intertwine a trace-zero theta
    with pytest.raises(NotAnAutomorphismError):
        check_d_automorphism(THETA4, DAutomorphism(1, Mat2Z(1, 1, 0, 1), 0, 0))
    with pytest.raises(NotAnAutomorphismError):
        check_d_automorphism(THETA4, DAutomorphism(-1, Mat2Z(1, 1, 0, 1), 0, 0))


def test_zeta_chi_pairing_is_exclusive_for_nonscalar_theta():
    for chi in centralizer(THETA4).elements:
        check_d_automorphism(THETA4, DAutomorphism(1, chi, 0, 0))
        with pytest.raises(NotAnAutomorphismError):
            check_d_automorphism(THETA4, DAutomorphism(-1, chi, 0, 0))
    lam = reversing_symmetry(THETA4)
    check_d_automorphism(THETA4, DAutomorphism(-1, lam, 0, 0))
    with pytest.raises(NotAnAutomorphismError):
        check_d_automorphism(THETA4, DAutomorphism(1, lam, 0, 0))


def test_apply_identity_automorphism():
    ident = DAutomorphism.identity()
    for d in (GEN_A, GEN_B, GEN_C, DElement(3, -2, 5)):
        assert apply_d_automorphism(THETA4, ident, d) == d


def test_apply_maps_a_to_ab():
    phi = DAutomorphism(1, IDENTITY, 1, 0)
    assert apply_d_automorphism(THETA4, phi, GEN_A) == DElement(1, 1, 0)


@given(words, words, st.data())
@settings(max_examples=200)
def test_apply_is_a_homomorphism(d1, d2, data):
    theta = data.draw(st.sampled_from([THETA3, THETA4, THETA6]))
    autos = enumerate_elastic(theta, range(-2, 3), range(-2, 3))
    phi = data.draw(st.sampled_from(autos))
    lhs = apply_d_automorphism(theta, phi, dmul(theta, d1, d2))
    rhs = dmul(
        theta,
        apply_d_automorphism(theta, phi, d1),
        apply_d_automorphism(theta, phi, d2),
    )
    assert lhs == rhs


# (zeta, chi) of automorphisms of D per theta: every elastic pair, and for
# theta = -I two that do not lift (still automorphisms of D)
AUTO_PAIRS = {
    theta: [(phi.zeta, phi.chi) for phi in enumerate_elastic(theta, [0], [0])]
    for theta in (THETA2, THETA3, THETA4, THETA6)
}
AUTO_PAIRS[THETA2] += [(1, Mat2Z(1, 1, 0, 1)), (-1, Mat2Z(2, 1, 1, 1))]


@given(st.data())
@settings(max_examples=300)
def test_apply_matches_word_expansion(data):
    theta = data.draw(st.sampled_from(list(AUTO_PAIRS)))
    zeta = data.draw(st.sampled_from((1, -1)))
    chi = data.draw(st.sampled_from([c for z, c in AUTO_PAIRS[theta] if z == zeta]))
    shifts = st.integers(-(2**62), 2**62)
    phi = DAutomorphism(zeta, chi, data.draw(shifts), data.draw(shifts))
    d = DElement(data.draw(st.integers(-(2**64), 2**64)), data.draw(shifts), data.draw(shifts))
    assert apply_d_automorphism(theta, phi, d) == word_image_by_expansion(theta, phi, d)


def test_period_sum_is_zero_for_every_admissible_theta():
    thetas = admissible_thetas(3)
    assert {theta.trace() for theta in thetas} == {-2, -1, 0, 1}
    for theta in thetas:
        p = theta_order(theta)
        for zeta, chi in ((1, IDENTITY), (-1, reversing_symmetry(theta))):
            powers = [mat2z_pow(theta, -zeta * j) for j in range(p)]
            assert all(sum(getattr(m, e) for m in powers) == 0 for e in "abcd"), (theta, zeta)
            # so phi(A)^p = A^(zeta p), and the table holds one period of the shifts
            phi = DAutomorphism(zeta, chi, 3, -5)
            assert word_image_by_expansion(theta, phi, DElement(p, 0, 0)) == DElement(zeta * p, 0, 0)
            expanded = [word_image_by_expansion(theta, phi, DElement(r, 0, 0)) for r in range(p)]
            assert shift_prefix(theta, phi) == tuple((w.m, w.n) for w in expanded)


def test_classification_examples():
    assert classify_symmetry(THETA4, GeneratorTriple(GEN_A, GEN_B, GEN_C)).kind == "elastic"

    mixed = classify_symmetry(THETA4, GeneratorTriple(GEN_A, DElement(1, 1, 0), GEN_C))
    assert mixed.kind == "inelastic"
    assert "commute" in mixed.reason

    squares = classify_symmetry(THETA4, GeneratorTriple(GEN_A, DElement(0, 2, 0), DElement(0, 0, 2)))
    assert squares.kind == "not_a_symmetry"
    assert squares.reason == "5.11"


def test_classification_attaches_automorphism():
    res = classify_symmetry(THETA4, GeneratorTriple(GEN_A, GEN_B, GEN_C))
    assert res.automorphism == DAutomorphism.identity()
    assert res.certificate.generates


def test_enumerate_counts():
    assert len(enumerate_elastic(THETA4, [0], [0])) == 8
    assert len(enumerate_elastic(THETA6, [0, 1], [0, 1])) == 48
    assert len(enumerate_elastic(THETA3, [0], [0])) == 12


def test_enumerate_pairs_zeta_correctly():
    autos = enumerate_elastic(THETA4, [0], [0])
    sym = set(centralizer(THETA4).elements)
    for phi in autos:
        check_d_automorphism(THETA4, phi)  # exact definitional filter
        assert (phi.zeta == 1) == (phi.chi in sym)


def test_enumerate_minus_identity_yields_the_lifting_pairs():
    # every unimodular chi is an automorphism of D(-I), but only the square
    # symmetries lift: rotations with zeta = +1, reflections with zeta = -1
    rotations = {IDENTITY, MINUS_IDENTITY, THETA4, -THETA4}
    reflections = {Mat2Z(1, 0, 0, -1), Mat2Z(-1, 0, 0, 1), Mat2Z(0, 1, 1, 0), Mat2Z(0, -1, -1, 0)}
    autos = enumerate_elastic(THETA2, [0, 1], [0])
    assert len(autos) == 16
    assert {phi.chi for phi in autos if phi.zeta == 1} == rotations
    assert {phi.chi for phi in autos if phi.zeta == -1} == reflections
    for phi in autos:
        check_d_automorphism(THETA2, phi)


def test_enumerated_automorphisms_have_inverses_in_the_family():
    # mutually inverse pairs exist inside a slightly larger enumeration box
    small = enumerate_elastic(THETA4, range(-1, 2), range(-1, 2))
    pool = enumerate_elastic(THETA4, range(-2, 3), range(-2, 3))
    gens = (GEN_A, GEN_B, GEN_C)
    for phi in small:
        found = None
        for psi in pool:
            if all(
                apply_d_automorphism(THETA4, phi, apply_d_automorphism(THETA4, psi, w)) == w
                for w in gens
            ):
                found = psi
                break
        assert found is not None, phi
        # and the composition is the identity in the other order too
        for w in gens:
            assert (
                apply_d_automorphism(THETA4, found, apply_d_automorphism(THETA4, phi, w)) == w
            )


def test_theta_power_consistency_with_zeta():
    # theta^zeta chi = chi theta holds exactly for every enumerated pair
    for theta in (THETA3, THETA4, THETA6):
        for phi in enumerate_elastic(theta, [0], [0]):
            assert theta_power(theta, phi.zeta) @ phi.chi == phi.chi @ theta
