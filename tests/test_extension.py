import math
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from s2sym import (
    DAutomorphism,
    DElement,
    GeneratorTriple,
    GroupAutoParams,
    InvalidParametersError,
    Mat2Z,
    NotAnAutomorphismError,
    NotElasticError,
    classify_symmetry,
    enumerate_elastic,
    extend,
    f_factor,
    first_branches,
    lifts,
    make_group,
    r_eps,
    reversing_symmetry,
    theta_order,
    uniqueness_probe,
    verify_extension,
)
import s2sym.extension as extension_module
from s2sym.autos import apply_group_auto_batch
from s2sym.extension import _swap
from s2sym.intmat import IDENTITY
from continuous import SingularFError, convert_basis, is_algebra_auto, r_eps_at_q
from oracles import embed, gradient_at_identity, verify_extension_by_expansion

IDENTITY_AUTO = DAutomorphism(1, IDENTITY, 0, 0)

THETA4 = Mat2Z(0, 1, -1, 0)
THETA3 = Mat2Z(0, 1, -1, -1)
THETA6 = Mat2Z(1, 1, -1, 0)
THETA2 = Mat2Z(-1, 0, 0, -1)
ALL_THETAS = (THETA2, THETA3, THETA4, THETA6)


@pytest.fixture(scope="module")
def g4():
    return make_group(THETA4, 1)


def test_extend_identity(g4):
    lifted = extend(g4, IDENTITY_AUTO)
    assert lifted.epsilon == 0
    assert lifted.alpha == pytest.approx(1.0, abs=1e-12)
    assert lifted.beta == pytest.approx(0.0, abs=1e-12)
    assert lifted.gamma == pytest.approx(0.0, abs=1e-12)
    assert lifted.delta == pytest.approx(0.0, abs=1e-12)


def test_extend_chi_theta(g4):
    # chi = theta acts on the rotation frame as the rotation by k
    lifted = extend(g4, DAutomorphism(1, THETA4, 0, 0))
    assert lifted.epsilon == 0
    assert lifted.alpha == pytest.approx(math.cos(g4.k), abs=1e-12)
    assert lifted.beta == pytest.approx(math.sin(g4.k), abs=1e-12)
    assert lifted.gamma == pytest.approx(0.0, abs=1e-12)
    assert lifted.delta == pytest.approx(0.0, abs=1e-12)


def test_extend_reversing(g4):
    lam = reversing_symmetry(THETA4)
    phi_d = DAutomorphism(-1, lam, 0, 0)
    lifted = extend(g4, phi_d)
    assert lifted.epsilon == 1
    report = verify_extension(g4, phi_d, lifted, 3)
    assert report.passed and report.max_discrepancy < 1e-9


def test_extend_rejects_non_automorphism(g4):
    with pytest.raises(NotAnAutomorphismError):
        extend(g4, DAutomorphism(1, Mat2Z(1, 1, 0, 1), 0, 0))


@pytest.mark.parametrize("theta", ALL_THETAS)
@pytest.mark.parametrize("eps", [0, 1])
def test_r_eps_independent_of_q(theta, eps):
    # the general-q construction of the reference model, against the shipped q = 1 lift
    g = make_group(theta, 1)
    p = theta_order(theta)
    shipped = r_eps(g, eps)
    assert np.array_equal(r_eps_at_q(g, eps, 1), shipped)
    for q in range(1, 2 * p + 1):
        if q % p == 0:
            continue
        assert np.max(np.abs(r_eps_at_q(g, eps, q) - shipped)) < 1e-10


def test_r_eps_singular_at_multiples_of_order(g4):
    p = theta_order(THETA4)
    for q in (p, 2 * p):
        with pytest.raises(SingularFError):
            r_eps_at_q(g4, 0, q)
    with pytest.raises(ValueError):
        r_eps_at_q(g4, 0, 0)


def test_r_eps_branches_differ(g4):
    assert np.max(np.abs(r_eps(g4, 0) - r_eps(g4, 1))) > 1e-6


@pytest.mark.parametrize("theta", ALL_THETAS)
@pytest.mark.parametrize("eps", [0, 1])
def test_r_eps_matches_transposed_closed_form(theta, eps):
    # the q = 1 defining product collapses to W(eps) F^{-T} Mbar^{-T}
    g = make_group(theta, 1)
    xi = 1 if eps == 0 else -1
    closed = _swap(eps) @ np.linalg.inv(f_factor(g, float(xi)).T) @ g.Mbar_invT
    assert np.max(np.abs(r_eps(g, eps) - closed)) < 1e-10


def test_verify_identity_is_exact(g4):
    ident = IDENTITY_AUTO
    report = verify_extension(g4, ident, extend(g4, ident), 3)
    assert report.passed
    assert report.max_discrepancy < 1e-12
    assert report.box == 3 and report.k == g4.k


def test_verify_all_reversing_group_members(g4):
    for phi_d in enumerate_elastic(THETA4, range(-2, 3), range(-2, 3)):
        lifted = extend(g4, phi_d)
        report = verify_extension(g4, phi_d, lifted, 3)
        assert report.passed and report.max_discrepancy < 1e-9, phi_d


def test_verify_detects_perturbed_gamma(g4):
    phi_d = DAutomorphism(1, THETA4, 1, 2)
    lifted = extend(g4, phi_d)
    broken = GroupAutoParams(
        lifted.epsilon, lifted.alpha, lifted.beta, lifted.gamma + 0.1, lifted.delta, lifted.k
    )
    report = verify_extension(g4, phi_d, broken, 3)
    assert not report.passed
    assert report.max_discrepancy > 1e-2


def test_extension_gradient_matches_algebra_form(g4):
    for phi_d in enumerate_elastic(THETA4, [-1, 0, 2], [-2, 0, 1]):
        lifted = extend(g4, phi_d)
        grad = gradient_at_identity(g4, lifted)
        alg = is_algebra_auto(grad, g4.k)
        assert alg is not None
        assert alg.epsilon == lifted.epsilon
        assert alg.alpha == pytest.approx(lifted.alpha, abs=1e-6)
        assert alg.beta == pytest.approx(lifted.beta, abs=1e-6)
        assert alg.gamma == pytest.approx(lifted.gamma, abs=1e-6)
        assert alg.delta == pytest.approx(lifted.delta, abs=1e-6)


def test_zeta_equals_third_coordinate_of_lifted_a(g4):
    for phi_d in enumerate_elastic(THETA4, [0, 1], [0, -1]):
        lifted = extend(g4, phi_d)
        point = convert_basis(g4, embed(g4, DElement(1, 0, 0))).array()
        image = apply_group_auto_batch(lifted, point[None, :])[0]
        assert image[2] == pytest.approx(phi_d.zeta, abs=1e-12)


def _assert_probe_matches_extend(g, phi_d):
    probe = uniqueness_probe(g, phi_d)
    lifted = extend(g, phi_d)
    assert probe.epsilon == lifted.epsilon
    for name in ("alpha", "beta", "gamma", "delta"):
        assert getattr(probe, name) == pytest.approx(getattr(lifted, name), abs=1e-9), name
    assert probe.max_param_diff < 1e-9
    return probe


def test_uniqueness_probe_identity(g4):
    probe = _assert_probe_matches_extend(g4, IDENTITY_AUTO)
    assert probe.epsilon == 0
    assert probe.alpha == pytest.approx(1.0, abs=1e-12)
    assert probe.beta == pytest.approx(0.0, abs=1e-12)
    assert probe.gamma == pytest.approx(0.0, abs=1e-12)
    assert probe.delta == pytest.approx(0.0, abs=1e-12)


def test_uniqueness_probe_reversing(g4):
    lam = reversing_symmetry(THETA4)
    probe = _assert_probe_matches_extend(g4, DAutomorphism(-1, lam, 2, -3))
    assert probe.epsilon == 1
    assert (probe.gamma, probe.delta) != (0.0, 0.0)


@pytest.mark.parametrize("theta", ALL_THETAS)
def test_uniqueness_probe_reads_gamma_delta_from_the_image_of_a(theta):
    g = make_group(theta, first_branches(theta.trace(), 2)[1])
    for phi_d in enumerate_elastic(theta, [0, 1, -3], [2, -1]):
        _assert_probe_matches_extend(g, phi_d)


def test_second_branch_also_extends():
    g = make_group(THETA4, 3)
    for phi_d in enumerate_elastic(THETA4, [0, 1], [0, 1]):
        report = verify_extension(g, phi_d, extend(g, phi_d), 2)
        assert report.passed, phi_d


def test_minus_identity_extension_dihedral_pairs():
    # for theta = -I with the canonical derivative, exactly the signed square
    # symmetries lift: rotations with zeta = +1, reflections with zeta = -1
    g = make_group(THETA2, 1)
    J = Mat2Z(0, 1, -1, 0)
    rotations = [IDENTITY, Mat2Z(-1, 0, 0, -1), J, Mat2Z(0, -1, 1, 0)]
    reflections = [Mat2Z(1, 0, 0, -1), Mat2Z(-1, 0, 0, 1), Mat2Z(0, 1, 1, 0), Mat2Z(0, -1, -1, 0)]
    for zeta, chis in ((1, rotations), (-1, reflections)):
        for chi in chis:
            phi_d = DAutomorphism(zeta, chi, 1, -2)
            report = verify_extension(g, phi_d, extend(g, phi_d), 2)
            assert report.passed, phi_d


def test_minus_identity_non_lifting_automorphisms_are_detected():
    g = make_group(THETA2, 1)
    # valid automorphisms of D whose lattice action is incompatible with any
    # continuous automorphism of this group instance
    for zeta, chi in (
        (1, Mat2Z(1, 1, 0, 1)),
        (-1, Mat2Z(1, 1, 0, 1)),
        (1, Mat2Z(1, 0, 0, -1)),
        (-1, Mat2Z(0, 1, -1, 0)),
        (1, Mat2Z(2, 1, 1, 1)),
    ):
        assert not lifts(THETA2, zeta, chi)
        with pytest.raises(NotElasticError):
            extend(g, DAutomorphism(zeta, chi, 0, 0))


def _unimodular(bound):
    span = range(-bound, bound + 1)
    return [chi for chi in (Mat2Z(*e) for e in product(span, repeat=4)) if abs(chi.det()) == 1]


GROUPS = {theta: make_group(theta, first_branches(theta.trace(), 1)[0]) for theta in ALL_THETAS}


@settings(max_examples=300)
@given(
    theta=st.sampled_from(ALL_THETAS),
    zeta=st.sampled_from((1, -1)),
    # entries in [-1, 1] hold every member of R(theta); [-2, 2] mostly non-automorphisms
    chi=st.sampled_from(_unimodular(1)) | st.sampled_from(_unimodular(2)),
    beta1=st.integers(-3, 3),
    gamma1=st.integers(-3, 3),
)
def test_elastic_iff_extend_succeeds(theta, zeta, chi, beta1, gamma1):
    phi_d = DAutomorphism(zeta, chi, beta1, gamma1)
    triple = GeneratorTriple(DElement(zeta, beta1, gamma1), DElement(0, chi.a, chi.c), DElement(0, chi.b, chi.d))
    verdict = classify_symmetry(theta, triple)
    try:
        extend(GROUPS[theta], phi_d)
    except NotAnAutomorphismError:
        assert (verdict.kind, verdict.automorphism) == ("inelastic", None)
    except NotElasticError:
        assert (verdict.kind, verdict.automorphism) == ("inelastic", phi_d)
    else:
        assert (verdict.kind, verdict.automorphism) == ("elastic", phi_d)


@pytest.mark.parametrize("box", [3, 5])
@pytest.mark.parametrize("theta", ALL_THETAS)
def test_verify_matches_expansion_oracle(theta, box):
    g = GROUPS[theta]
    shifts = ((0, 0), (1, -2), (2**30 + 1, -3), (2**62 - 1, -(2**62)))
    for i, phi in enumerate(enumerate_elastic(theta, [0], [0])):
        phi_d = DAutomorphism(phi.zeta, phi.chi, *shifts[i % len(shifts)])
        lifted = extend(g, phi_d)
        # every other one with a wrong gamma, so that both verdicts are compared
        params = replace(lifted, gamma=lifted.gamma + 0.1) if i % 2 else lifted
        report = verify_extension(g, phi_d, params, box)
        assert (report.passed, report.max_discrepancy) == verify_extension_by_expansion(g, phi_d, params, box)


@pytest.mark.parametrize("rows_per_pass", [1, 100, 150])
def test_verify_in_several_passes_matches_expansion_oracle(monkeypatch, rows_per_pass):
    # 49 rows per q slice at box 3: passes of 1, 2 and 3 slices, the last one short
    monkeypatch.setattr(extension_module, "_ROWS_PER_PASS", rows_per_pass)
    g = GROUPS[THETA3]
    for phi_d in enumerate_elastic(THETA3, [2**30 + 1], [-3]):
        lifted = extend(g, phi_d)
        for params in (lifted, replace(lifted, gamma=lifted.gamma + 0.1)):
            report = verify_extension(g, phi_d, params, 3)
            assert (report.passed, report.max_discrepancy) == verify_extension_by_expansion(g, phi_d, params, 3)


@pytest.mark.parametrize("bits", [25, 26, 30, 40, 62])
def test_verify_passes_trace_minus_one_large_shifts(bits):
    # the lifted map multiplies gamma and delta by sin(k q) and 1 - cos(k q);
    # at q = +-3 their roundoff times the shift exceeds an absolute 1e-9
    g = GROUPS[THETA3]
    big = 2**bits
    for phi_d in enumerate_elastic(THETA3, [big - 1, -big], [big, 3]):
        lifted = extend(g, phi_d)
        assert verify_extension(g, phi_d, lifted, 3).passed, phi_d
        broken = GroupAutoParams(
            lifted.epsilon, lifted.alpha, lifted.beta, lifted.gamma * (1 + 1e-9), lifted.delta, lifted.k
        )
        assert not verify_extension(g, phi_d, broken, 3).passed, phi_d


@pytest.mark.parametrize("bits", [40, 62])
@pytest.mark.parametrize("theta", ALL_THETAS)
def test_verify_detects_wrong_alpha_beta_with_large_shifts(theta, bits):
    # gamma and delta enter through sin(k q) and 1 - cos(k q), which vanish at
    # q = 0, so a large shift must not loosen the tolerance of those rows
    g = GROUPS[theta]
    for phi_d in enumerate_elastic(theta, [2**bits - 1], [-(2**bits)]):
        lifted = extend(g, phi_d)
        size = math.hypot(lifted.alpha, lifted.beta)
        for field in ("alpha", "beta"):
            broken = replace(lifted, **{field: getattr(lifted, field) + 1e-8 * size})
            assert not verify_extension(g, phi_d, broken, 3).passed, (phi_d, field)


def test_verify_memory_stays_flat_in_the_box():
    # one float pass over all 41^3 rows would peak near 25 MiB
    g = GROUPS[THETA3]
    phi_d = DAutomorphism(1, THETA3, 3, -2)
    lifted = extend(g, phi_d)
    tracemalloc.start()
    try:
        assert verify_extension(g, phi_d, lifted, 20).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_verify_rejects_negative_box(g4):
    phi_d = IDENTITY_AUTO
    with pytest.raises(InvalidParametersError, match="box must be nonnegative"):
        verify_extension(g4, phi_d, extend(g4, phi_d), -1)


@pytest.mark.parametrize("box", [extension_module.BOX_LIMIT + 1, 5000, 10**6])
def test_verify_refuses_boxes_above_box_limit_before_allocating(g4, box):
    phi_d = IDENTITY_AUTO
    lifted = extend(g4, phi_d)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParametersError, match=f"box {box} above BOX_LIMIT = "):
            verify_extension(g4, phi_d, lifted, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_verify_accepts_a_box_at_box_limit(g4, monkeypatch):
    monkeypatch.setattr(extension_module, "BOX_LIMIT", 2)
    phi_d = DAutomorphism(1, THETA4, 1, -2)
    lifted = extend(g4, phi_d)
    assert verify_extension(g4, phi_d, lifted, 2).passed
    with pytest.raises(InvalidParametersError, match="box 3 above BOX_LIMIT = 2"):
        verify_extension(g4, phi_d, lifted, 3)


def test_verify_matches_expansion_oracle_past_int64_by_the_matrices():
    # conjugating by ((1, x), (0, 1)) gives theta and R(theta) entries near x^2 = 4e18:
    # no shift, so every offset is 0, but box 3 times those entries passes 2^63
    x = 2 * 10**9
    conj = Mat2Z(1, x, 0, 1)
    theta = conj @ THETA4 @ conj.inv()
    g = make_group(theta, 1)
    for phi_d in enumerate_elastic(theta, [0], [0]):
        params = GroupAutoParams(int(phi_d.zeta == -1), 1.0, 0.0, 0.5, -0.5, g.k)
        report = verify_extension(g, phi_d, params, 3)
        assert (report.passed, report.max_discrepancy) == verify_extension_by_expansion(g, phi_d, params, 3)


_NEAR_BIG = st.builds(
    lambda base, sign, offset: sign * base + offset,
    st.sampled_from((2**62, 10**300)),
    st.sampled_from((1, -1)),
    st.integers(-64, 64),
)


@settings(max_examples=40, deadline=None)
@given(
    theta=st.sampled_from(ALL_THETAS),
    pick=st.integers(0, 15),
    beta1=_NEAR_BIG | st.integers(-3, 3),
    gamma1=_NEAR_BIG,
    box=st.integers(0, 5),
    wrong=st.booleans(),
)
def test_verify_matches_expansion_oracle_with_huge_shifts(theta, pick, beta1, gamma1, box, wrong):
    g = GROUPS[theta]
    phis = enumerate_elastic(theta, [beta1], [gamma1])
    phi_d = phis[pick % len(phis)]
    lifted = extend(g, phi_d)
    params = replace(lifted, gamma=lifted.gamma * 1.5) if wrong else lifted
    report = verify_extension(g, phi_d, params, box)
    assert (report.passed, report.max_discrepancy) == verify_extension_by_expansion(g, phi_d, params, box)
