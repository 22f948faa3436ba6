import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from s2sym import (
    InvalidParametersError,
    Mat2Z,
    branch_k,
    enumerate_elastic,
    extend,
    first_branches,
    make_group,
    verify_extension,
)
from s2sym import cli
from s2sym.branch import K_LIMIT, branch_data
from continuous import (
    bracket,
    compose,
    convert_basis,
    epoint,
    exp_map,
    f_structure_constants,
    fpoint,
    frame_matrix,
    inverse,
    lattice_fields,
    phi_of,
    two_exp_decompose,
)
from oracles import admissible_thetas, rk4_flow, structure_constants_fd

THETA4 = Mat2Z(0, 1, -1, 0)
THETA3 = Mat2Z(0, 1, -1, -1)
THETA6 = Mat2Z(1, 1, -1, 0)
THETA2 = Mat2Z(-1, 0, 0, -1)
ALL_THETAS = (THETA2, THETA3, THETA4, THETA6)


@pytest.fixture(scope="module")
def g4():
    return make_group(THETA4, 1)


def _rand_point(rng, basis, scale=2.0):
    c = rng.uniform(-scale, scale, 3)
    return epoint(*c) if basis == "e" else fpoint(*c)


def test_make_group_trace_zero(g4):
    assert g4.k == pytest.approx(math.pi / 2, abs=0)
    assert np.allclose(g4.A, (math.pi / 2) * np.array([[0, 1], [-1, 0]]), atol=1e-14)
    assert np.allclose(g4.S, np.diag([-math.pi / 2, -math.pi / 2, 0.0]), atol=1e-14)


def test_make_group_minus_identity():
    g = make_group(THETA2, 1)
    assert g.k == pytest.approx(math.pi, abs=0)
    assert np.allclose(g.A, [[0.0, math.pi], [-math.pi, 0.0]], atol=0)


def test_make_group_rejects_trace_three():
    with pytest.raises(InvalidParametersError):
        make_group(Mat2Z(2, 1, 1, 1), 1)


def test_make_group_rejects_bad_branch():
    with pytest.raises(InvalidParametersError):
        make_group(THETA4, 2)  # 2 mod 4 not in {1, 3}
    with pytest.raises(InvalidParametersError):
        make_group(THETA4, 0)


def test_first_branches():
    assert first_branches(0) == [1, 3]
    assert first_branches(-1) == [1, 2]
    assert first_branches(1) == [1, 5]
    assert first_branches(-2) == [1, 3]


def test_branch_k_values():
    assert branch_k(0, 3) == pytest.approx(3 * math.pi / 2)
    assert branch_k(-1, 2) == pytest.approx(4 * math.pi / 3)
    assert branch_k(1, 5) == pytest.approx(5 * math.pi / 3)
    assert branch_k(-2, -1) == pytest.approx(-math.pi)


# The hand-written table the rule k = 2 pi n / p (n coprime to p) replaced:
# k = unit * n where n mod modulus lies in the residue set.
OLD_BRANCH_RULES = {
    -2: (2, (1,), math.pi),
    -1: (3, (1, 2), 2.0 * math.pi / 3.0),
    0: (4, (1, 3), math.pi / 2.0),
    1: (6, (1, 5), math.pi / 3.0),
}


@pytest.mark.parametrize("trace", sorted(OLD_BRANCH_RULES))
def test_branch_rule_matches_the_old_table(trace):
    modulus, residues, unit = OLD_BRANCH_RULES[trace]
    for n in range(-60, 61):
        if n % modulus in residues:
            assert branch_k(trace, n) == unit * n, n
        else:
            with pytest.raises(InvalidParametersError, match="not admissible"):
                branch_k(trace, n)
    admissible = [n for n in range(1, 61) if n % modulus in residues]
    for count in range(1, 6):
        assert first_branches(trace, count) == admissible[:count]


def test_branch_rule_rejects_traces_without_branches():
    for trace in (-3, 2, 3):
        with pytest.raises(InvalidParametersError, match="no admissible branches"):
            branch_k(trace, 1)
        with pytest.raises(InvalidParametersError, match="no admissible branches"):
            first_branches(trace)


@pytest.mark.parametrize("theta", ALL_THETAS)
def test_group_invariants(theta):
    for n in first_branches(theta.trace(), 2):
        g = make_group(theta, n)
        assert abs(np.trace(g.A)) < 1e-12
        assert np.linalg.det(g.A) == pytest.approx(g.k**2, rel=1e-12)
        assert np.linalg.det(frame_matrix(g)) == pytest.approx(2.0 * g.A[0, 1] * g.k, rel=1e-12)
        # independent exponential: expm(A) must reproduce theta
        assert np.max(np.abs(expm(g.A) - np.array(theta.rows(), float))) < 1e-10
        assert np.allclose(g.S, g.S.T, atol=0)
        assert np.linalg.matrix_rank(g.S) == 2


def test_phi_examples(g4):
    assert np.allclose(phi_of(g4, 0.0), np.eye(2), atol=0)
    assert np.max(np.abs(phi_of(g4, 1.0) - np.array(THETA4.rows(), float))) < 1e-10
    half = phi_of(g4, 0.5)
    assert np.max(np.abs(half @ half - phi_of(g4, 1.0))) < 1e-12
    assert np.linalg.det(phi_of(g4, 0.37)) == pytest.approx(1.0, abs=1e-10)


def test_one_parameter_law(g4):
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.uniform(-3, 3, 2)
        assert np.max(np.abs(phi_of(g4, x) @ phi_of(g4, y) - phi_of(g4, x + y))) < 1e-10


def test_compose_identity_and_inverse(g4):
    rng = np.random.default_rng(1)
    for basis in ("e", "f"):
        x = _rand_point(rng, basis)
        zero = epoint(0, 0, 0) if basis == "e" else fpoint(0, 0, 0)
        assert np.allclose(compose(g4, x, zero).coords, x.coords, atol=1e-15)
        assert np.allclose(compose(g4, zero, x).coords, x.coords, atol=1e-15)
        assert np.max(np.abs(compose(g4, x, inverse(g4, x)).coords)) < 1e-10
        assert np.max(np.abs(compose(g4, inverse(g4, x), x).coords)) < 1e-10


def test_compose_example(g4):
    out = compose(g4, epoint(0, 0, 1), epoint(1, 0, 0))
    assert np.allclose(out.coords, (0.0, -1.0, 1.0), atol=1e-12)


def test_compose_rejects_mixed_frames(g4):
    with pytest.raises(ValueError):
        compose(g4, epoint(1, 0, 0), fpoint(1, 0, 0))


def test_associativity(g4):
    rng = np.random.default_rng(2)
    for basis in ("e", "f"):
        for _ in range(200):
            x, y, z = (_rand_point(rng, basis) for _ in range(3))
            lhs = compose(g4, compose(g4, x, y), z)
            rhs = compose(g4, x, compose(g4, y, z))
            assert np.max(np.abs(np.subtract(lhs.coords, rhs.coords))) < 1e-9


def test_inverse_examples(g4):
    assert inverse(g4, epoint(0, 0, 0)).coords == (0.0, 0.0, 0.0)
    assert np.allclose(inverse(g4, epoint(0, 0, 1)).coords, (0.0, 0.0, -1.0), atol=1e-15)


def test_lattice_fields(g4):
    l1, l2, l3 = lattice_fields(g4, epoint(0, 0, 0))
    assert np.allclose([l1, l2, l3], np.eye(3), atol=0)
    _, _, l3 = lattice_fields(g4, epoint(1, 0, 0))
    assert np.allclose(l3, (0.0, -math.pi / 2, 1.0), atol=1e-15)


def test_right_invariance(g4):
    # l_a(psi(x, y)) = grad_1 psi(x, y) l_a(x), gradient by central differences
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(100):
        x = rng.uniform(-2, 2, 3)
        y = rng.uniform(-2, 2, 3)
        grad = np.zeros((3, 3))
        for j in range(3):
            dx = np.zeros(3)
            dx[j] = h
            fp = compose(g4, epoint(*(x + dx)), epoint(*y)).coords
            fm = compose(g4, epoint(*(x - dx)), epoint(*y)).coords
            grad[:, j] = (np.array(fp) - np.array(fm)) / (2 * h)
        fields_x = lattice_fields(g4, epoint(*x))
        fields_xy = lattice_fields(g4, compose(g4, epoint(*x), epoint(*y)))
        for a in range(3):
            assert np.max(np.abs(fields_xy[a] - grad @ fields_x[a])) < 1e-6


def test_bracket_examples(g4):
    assert np.allclose(bracket(g4, [1, 0, 0], [0, 1, 0], "f"), 0.0, atol=0)
    assert np.allclose(bracket(g4, [1, 0, 0], [0, 0, 1], "f"), [0, g4.k, 0], atol=0)
    assert np.allclose(bracket(g4, [0, 1, 0], [0, 0, 1], "f"), [-g4.k, 0, 0], atol=0)
    # e-frame values read off the derivative entries
    ap0, bp0, cp0 = g4.A[0, 0], g4.A[0, 1], g4.A[1, 0]
    assert np.allclose(bracket(g4, [1, 0, 0], [0, 0, 1], "e"), [-ap0, -cp0, 0], atol=1e-15)
    assert np.allclose(bracket(g4, [0, 1, 0], [0, 0, 1], "e"), [-bp0, ap0, 0], atol=1e-15)


def test_bracket_antisymmetry(g4):
    rng = np.random.default_rng(4)
    for basis in ("e", "f"):
        for _ in range(20):
            x = rng.uniform(-2, 2, 3)
            y = rng.uniform(-2, 2, 3)
            assert np.allclose(bracket(g4, x, x, basis), 0.0, atol=1e-12)
            assert np.allclose(
                bracket(g4, x, y, basis), -bracket(g4, y, x, basis), atol=1e-12
            )


def test_exp_map_fixed_cases(g4):
    assert np.allclose(exp_map(g4, fpoint(1.5, -2.5, 0)).coords, (1.5, -2.5, 0.0), atol=0)
    # k*u3 = 2*pi collapses the head to zero
    out = exp_map(g4, fpoint(5, 7, 4))
    assert abs(out.coords[0]) < 1e-12 and abs(out.coords[1]) < 1e-12
    assert out.coords[2] == 4.0


def test_exp_map_matches_flow(g4):
    rng = np.random.default_rng(5)
    for _ in range(25):
        u = rng.uniform(-2, 2, 3)
        nu_e = frame_matrix(g4).T @ u
        via_exp = convert_basis(g4, exp_map(g4, fpoint(*u))).array()
        via_flow = rk4_flow(g4, nu_e)
        assert np.max(np.abs(via_exp - via_flow)) < 1e-8


def test_two_exp_decompose(g4):
    s, t = two_exp_decompose(fpoint(1, 2, 0))
    assert np.allclose(s, [1, 2, 0], atol=0) and np.allclose(t, 0.0, atol=0)
    s, t = two_exp_decompose(fpoint(0, 0, 3))
    assert np.allclose(s, 0.0, atol=0) and np.allclose(t, [0, 0, 3], atol=0)
    rng = np.random.default_rng(6)
    for _ in range(50):
        v = fpoint(*rng.uniform(-3, 3, 3))
        s, t = two_exp_decompose(v)
        recomposed = compose(g4, exp_map(g4, fpoint(*s)), exp_map(g4, fpoint(*t)))
        assert np.max(np.abs(np.subtract(recomposed.coords, v.coords))) < 1e-10


def test_convert_basis(g4):
    assert convert_basis(g4, epoint(0, 0, 0)).coords == (0.0, 0.0, 0.0)
    # third coordinate is frame independent
    assert convert_basis(g4, epoint(0, 0, 1)).coords[2] == pytest.approx(1.0, abs=0)
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = epoint(*rng.uniform(-3, 3, 3))
        back = convert_basis(g4, convert_basis(g4, p))
        assert back.basis == "e"
        assert np.max(np.abs(np.subtract(back.coords, p.coords))) < 1e-12


def test_convert_commutes_with_compose(g4):
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = epoint(*rng.uniform(-2, 2, 3))
        y = epoint(*rng.uniform(-2, 2, 3))
        via_e = convert_basis(g4, compose(g4, x, y))
        via_f = compose(g4, convert_basis(g4, x), convert_basis(g4, y))
        assert np.max(np.abs(np.subtract(via_e.coords, via_f.coords))) < 1e-9


@pytest.mark.parametrize("theta", ALL_THETAS)
def test_structure_constants(theta):
    g = make_group(theta, 1)
    C_f = structure_constants_fd(g, "f")
    assert np.max(np.abs(C_f - f_structure_constants(g.k))) < 1e-6
    assert np.max(np.abs(C_f + C_f.transpose(0, 2, 1))) < 1e-6
    # e-frame constants against the dislocation density contraction
    C_e = structure_constants_fd(g, "e")
    eps = np.zeros((3, 3, 3))
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, l] = 1.0
        eps[i, l, j] = -1.0
    assert np.max(np.abs(C_e - np.einsum("prs,ip->irs", eps, g.S))) < 1e-6


def test_structure_constant_example(g4):
    C = structure_constants_fd(g4, "f")
    assert C[1, 0, 2] == pytest.approx(g4.k, abs=1e-6)


# n is admissible when it is coprime to this modulus (the order of theta)
BRANCH_MODULUS = {-2: 2, -1: 3, 0: 4, 1: 6}


def _hex(values) -> list[str]:
    return [float(x).hex() for x in np.ravel(values)]


def test_branch_data_is_the_frame_data_bit_for_bit():
    # every admissible theta with entries in [-6, 6], every n in [-40, 40] coprime to p
    pairs = [
        (theta, n)
        for theta in admissible_thetas(6)
        for n in range(-40, 41)
        if math.gcd(n, BRANCH_MODULUS[theta.trace()]) == 1
    ]
    assert len(pairs) == 2040
    for theta, n in pairs:
        k, A = branch_data(theta, n)
        g = make_group(theta, n)
        assert k.hex() == g.k.hex() and _hex(A) == _hex(g.A), (theta, n)
        assert _hex(cli.dislocation_density(A)) == _hex(g.S), (theta, n)
        # the numpy arithmetic of A = (k / sin k) (theta - cos(k) I), entry for entry
        if theta != THETA2:
            h = 0.5 * (theta.a - theta.d)
            scale = k / math.sin(branch_k(theta.trace(), n % BRANCH_MODULUS[theta.trace()]))
            assert _hex(A) == _hex(scale * np.array([[h, theta.b], [theta.c, -h]], dtype=float)), (theta, n)


def largest_branch(theta):
    """The largest admissible n whose |k| is at most K_LIMIT."""
    trace = theta.trace()
    n = int(K_LIMIT / branch_k(trace, 1)) + BRANCH_MODULUS[trace]
    while math.gcd(n, BRANCH_MODULUS[trace]) != 1 or branch_k(trace, n) > K_LIMIT:
        n -= 1
    return n


@pytest.mark.parametrize("theta", ALL_THETAS)
@given(data=st.data())
@settings(max_examples=40)
def test_make_group_up_to_k_limit(theta, data):
    top = largest_branch(theta)
    n = data.draw(st.one_of(st.integers(1, top), st.integers(top - 100, top)).filter(
        lambda n: math.gcd(n, BRANCH_MODULUS[theta.trace()]) == 1
    ))
    n *= data.draw(st.sampled_from((1, -1)))
    g = make_group(theta, n)
    assert g.k == branch_k(theta.trace(), n)
    assert np.linalg.det(g.A) == pytest.approx(g.k**2, rel=1e-12)
    # the group's own phi(1), not a formula beside it, reproduces theta
    assert np.max(np.abs(phi_of(g, 1.0) - np.array(theta.rows(), dtype=float))) <= 2e-9


@pytest.mark.parametrize("theta", ALL_THETAS)
def test_make_group_refuses_branches_beyond_k_limit(theta):
    modulus = BRANCH_MODULUS[theta.trace()]
    beyond = largest_branch(theta) + modulus
    # 10^400 + 1 is coprime to 2, 3, 4 and 6, and beyond float range
    for n in (beyond, -beyond, 10**18 + 1 + (-(10**18) % modulus), 10**400 + 1, -(10**400 + 1)):
        with pytest.raises(InvalidParametersError, match="K_LIMIT"):
            make_group(theta, n)


@pytest.mark.parametrize("theta", ALL_THETAS)
def test_extension_verifies_at_the_largest_branch(theta):
    g = make_group(theta, largest_branch(theta))
    for phi_d in enumerate_elastic(theta, [0, 3, 2**40], [-2]):
        lifted = extend(g, phi_d)
        assert verify_extension(g, phi_d, lifted, 3).passed, phi_d
