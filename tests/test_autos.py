import numpy as np
import pytest

from s2sym import GroupAutoParams, InvalidParametersError, Mat2Z, make_group
from s2sym.autos import apply_group_auto_batch
from continuous import P_FLIP, algebra_matrix, compose, exp_map, fpoint, is_algebra_auto, pts_factor
from oracles import gradient_at_identity


@pytest.fixture(scope="module")
def g4():
    return make_group(Mat2Z(0, 1, -1, 0), 1)


def _random_params(rng, k=1.0):
    eps = int(rng.integers(0, 2))
    while True:
        alpha, beta = rng.uniform(-2, 2, 2)
        if alpha**2 + beta**2 > 1e-6:
            break
    gamma, delta = rng.uniform(-2, 2, 2)
    return GroupAutoParams(eps, alpha, beta, gamma, delta, k)


def _apply(phi, v):
    """The automorphism at one "f"-frame point, through the batch action."""
    return fpoint(*apply_group_auto_batch(phi, v.array()[None, :])[0])


def test_is_algebra_auto_examples():
    ident = is_algebra_auto(np.eye(3), 1.0)
    assert ident == GroupAutoParams(0, 1.0, 0.0, 0.0, 0.0, 1.0)
    flip = is_algebra_auto(P_FLIP, 1.0)
    assert flip == GroupAutoParams(1, 1.0, 0.0, 0.0, 0.0, 1.0)
    assert is_algebra_auto(np.diag([1.0, 1.0, 2.0]), 1.0) is None
    assert is_algebra_auto(np.zeros((3, 3)), 1.0) is None
    # wrong block pairing: L11 != L22 with bottom row (0,0,1)
    bad = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 0, 1.0]])
    assert is_algebra_auto(bad, 1.0) is None


def test_is_algebra_auto_roundtrip():
    rng = np.random.default_rng(10)
    for _ in range(50):
        L = _random_params(rng)
        recovered = is_algebra_auto(algebra_matrix(L), 1.0)
        assert recovered is not None
        assert recovered.epsilon == L.epsilon
        for name in ("alpha", "beta", "gamma", "delta"):
            assert getattr(recovered, name) == pytest.approx(getattr(L, name), abs=1e-12)


def test_degenerate_params_rejected():
    with pytest.raises(InvalidParametersError):
        GroupAutoParams(0, 0.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParametersError):
        GroupAutoParams(2, 1.0, 0.0, 0.0, 0.0, 1.0)


def test_pts_factor_examples():
    p, t, s = pts_factor(GroupAutoParams(0, 1.0, 0.0, 0.0, 0.0, 1.0))
    assert np.allclose(p, np.eye(3), atol=0)
    assert np.allclose(t, np.eye(3), atol=0)
    assert np.allclose(s, np.eye(3), atol=0)
    p, t, s = pts_factor(GroupAutoParams(0, 1.0, 0.0, 2.0, 3.0, 1.0))
    assert np.allclose(p, np.eye(3), atol=0)
    assert t[0, 2] == 2.0 and t[1, 2] == 3.0
    assert np.allclose(s, np.eye(3), atol=0)


def test_pts_recomposition():
    rng = np.random.default_rng(11)
    for _ in range(50):
        L = _random_params(rng)
        p, t, s = pts_factor(L)
        assert np.max(np.abs(p @ t @ s - algebra_matrix(L))) < 1e-12


def test_apply_identity_params(g4):
    phi = GroupAutoParams(0, 1.0, 0.0, 0.0, 0.0, g4.k)
    rng = np.random.default_rng(12)
    for _ in range(20):
        v = fpoint(*rng.uniform(-3, 3, 3))
        assert np.max(np.abs(np.subtract(_apply(phi, v).coords, v.coords))) < 1e-15


def test_autos_fix_the_identity(g4):
    phi = GroupAutoParams(0, 1.0, 0.0, 1.7, -0.4, g4.k)
    assert _apply(phi, fpoint(0, 0, 0)).coords == (0.0, 0.0, 0.0)


def test_homomorphism_property(g4):
    rng = np.random.default_rng(13)
    for _ in range(10):
        phi = _random_params(rng, g4.k)
        for _ in range(100):
            x = fpoint(*rng.uniform(-2, 2, 3))
            y = fpoint(*rng.uniform(-2, 2, 3))
            lhs = _apply(phi, compose(g4, x, y))
            rhs = compose(g4, _apply(phi, x), _apply(phi, y))
            assert np.max(np.abs(np.subtract(lhs.coords, rhs.coords))) < 1e-9


def test_gradient_matches_algebra_matrix(g4):
    rng = np.random.default_rng(14)
    ident = GroupAutoParams(0, 1.0, 0.0, 0.0, 0.0, g4.k)
    assert np.max(np.abs(gradient_at_identity(g4, ident) - np.eye(3))) < 1e-6
    flip = GroupAutoParams(1, 1.0, 0.0, 0.0, 0.0, g4.k)
    assert np.max(np.abs(gradient_at_identity(g4, flip) - P_FLIP)) < 1e-6
    for _ in range(20):
        phi = _random_params(rng, g4.k)
        assert np.max(np.abs(gradient_at_identity(g4, phi) - algebra_matrix(phi))) < 1e-6


def test_third_component_derivative_is_sign(g4):
    rng = np.random.default_rng(15)
    h = 1e-6
    for _ in range(20):
        phi = _random_params(rng, g4.k)
        fp = _apply(phi, fpoint(0, 0, h)).coords[2]
        fm = _apply(phi, fpoint(0, 0, -h)).coords[2]
        assert (fp - fm) / (2 * h) == pytest.approx((-1.0) ** phi.epsilon, abs=1e-8)


def test_exponential_naturality(g4):
    rng = np.random.default_rng(16)
    for _ in range(200):
        phi = _random_params(rng, g4.k)
        nu = rng.uniform(-2, 2, 3)
        lhs = _apply(phi, exp_map(g4, fpoint(*nu))).coords
        rhs = exp_map(g4, fpoint(*(algebra_matrix(phi) @ nu))).coords
        assert np.max(np.abs(np.subtract(lhs, rhs))) < 1e-8


def test_composition_closure(g4):
    rng = np.random.default_rng(17)
    for _ in range(50):
        phi1 = _random_params(rng, g4.k)
        phi2 = _random_params(rng, g4.k)
        phi12 = is_algebra_auto(algebra_matrix(phi1) @ algebra_matrix(phi2), g4.k)
        assert phi12 is not None
        v = fpoint(*rng.uniform(-2, 2, 3))
        lhs = _apply(phi1, _apply(phi2, v)).coords
        rhs = _apply(phi12, v).coords
        assert np.max(np.abs(np.subtract(lhs, rhs))) < 1e-9
