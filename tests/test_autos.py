import numpy as np
import pytest

from s2sym import (
    GroupAutoParams,
    InvalidParametersError,
    LieAlgebraAuto,
    Mat2Z,
    apply_group_auto,
    exp_map,
    fpoint,
    group_auto_from_algebra,
    is_algebra_auto,
    make_group,
    pts_factor,
)
from s2sym.autos import P_FLIP, apply_group_auto_batch
from oracles import gradient_at_identity


@pytest.fixture(scope="module")
def g4():
    return make_group(Mat2Z(0, 1, -1, 0), 1)


def _random_params(rng):
    eps = int(rng.integers(0, 2))
    while True:
        alpha, beta = rng.uniform(-2, 2, 2)
        if alpha**2 + beta**2 > 1e-6:
            break
    gamma, delta = rng.uniform(-2, 2, 2)
    return LieAlgebraAuto(eps, alpha, beta, gamma, delta)


def test_is_algebra_auto_examples():
    ident = is_algebra_auto(np.eye(3))
    assert ident == LieAlgebraAuto(0, 1.0, 0.0, 0.0, 0.0)
    flip = is_algebra_auto(P_FLIP)
    assert flip == LieAlgebraAuto(1, 1.0, 0.0, 0.0, 0.0)
    assert is_algebra_auto(np.diag([1.0, 1.0, 2.0])) is None
    assert is_algebra_auto(np.zeros((3, 3))) is None
    # wrong block pairing: L11 != L22 with bottom row (0,0,1)
    bad = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 0, 1.0]])
    assert is_algebra_auto(bad) is None


def test_is_algebra_auto_roundtrip():
    rng = np.random.default_rng(10)
    for _ in range(50):
        L = _random_params(rng)
        recovered = is_algebra_auto(L.matrix())
        assert recovered is not None
        assert recovered.epsilon == L.epsilon
        for name in ("alpha", "beta", "gamma", "delta"):
            assert getattr(recovered, name) == pytest.approx(getattr(L, name), abs=1e-12)


def test_degenerate_params_rejected():
    with pytest.raises(InvalidParametersError):
        LieAlgebraAuto(0, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(InvalidParametersError):
        GroupAutoParams(2, 1.0, 0.0, 0.0, 0.0, 1.0)


def test_pts_factor_examples():
    p, t, s = pts_factor(LieAlgebraAuto(0, 1.0, 0.0, 0.0, 0.0))
    assert np.allclose(p, np.eye(3), atol=0)
    assert np.allclose(t, np.eye(3), atol=0)
    assert np.allclose(s, np.eye(3), atol=0)
    p, t, s = pts_factor(LieAlgebraAuto(0, 1.0, 0.0, 2.0, 3.0))
    assert np.allclose(p, np.eye(3), atol=0)
    assert t[0, 2] == 2.0 and t[1, 2] == 3.0
    assert np.allclose(s, np.eye(3), atol=0)


def test_pts_recomposition():
    rng = np.random.default_rng(11)
    for _ in range(50):
        L = _random_params(rng)
        p, t, s = pts_factor(L)
        assert np.max(np.abs(p @ t @ s - L.matrix())) < 1e-12


def test_apply_identity_params(g4):
    phi = GroupAutoParams(0, 1.0, 0.0, 0.0, 0.0, g4.k)
    rng = np.random.default_rng(12)
    for _ in range(20):
        v = fpoint(*rng.uniform(-3, 3, 3))
        assert np.max(np.abs(np.subtract(apply_group_auto(g4, phi, v).coords, v.coords))) < 1e-15


def test_autos_fix_the_identity(g4):
    phi = GroupAutoParams(0, 1.0, 0.0, 1.7, -0.4, g4.k)
    assert apply_group_auto(g4, phi, fpoint(0, 0, 0)).coords == (0.0, 0.0, 0.0)


def test_apply_requires_f_frame(g4):
    from s2sym import epoint

    phi = GroupAutoParams(0, 1.0, 0.0, 0.0, 0.0, g4.k)
    with pytest.raises(ValueError):
        apply_group_auto(g4, phi, epoint(0, 0, 0))


def test_apply_rejects_wrong_k(g4):
    phi = GroupAutoParams(0, 1.0, 0.0, 0.0, 0.0, g4.k * 3.0)
    with pytest.raises(InvalidParametersError):
        apply_group_auto(g4, phi, fpoint(1, 0, 0))


def test_homomorphism_property(g4):
    from s2sym import compose

    rng = np.random.default_rng(13)
    for _ in range(10):
        L = _random_params(rng)
        phi = group_auto_from_algebra(L, g4.k)
        for _ in range(100):
            x = fpoint(*rng.uniform(-2, 2, 3))
            y = fpoint(*rng.uniform(-2, 2, 3))
            lhs = apply_group_auto(g4, phi, compose(g4, x, y))
            rhs = compose(g4, apply_group_auto(g4, phi, x), apply_group_auto(g4, phi, y))
            assert np.max(np.abs(np.subtract(lhs.coords, rhs.coords))) < 1e-9


def test_gradient_matches_algebra_matrix(g4):
    rng = np.random.default_rng(14)
    ident = GroupAutoParams(0, 1.0, 0.0, 0.0, 0.0, g4.k)
    assert np.max(np.abs(gradient_at_identity(g4, ident) - np.eye(3))) < 1e-6
    flip = GroupAutoParams(1, 1.0, 0.0, 0.0, 0.0, g4.k)
    assert np.max(np.abs(gradient_at_identity(g4, flip) - P_FLIP)) < 1e-6
    for _ in range(20):
        L = _random_params(rng)
        phi = group_auto_from_algebra(L, g4.k)
        assert np.max(np.abs(gradient_at_identity(g4, phi) - L.matrix())) < 1e-6


def test_third_component_derivative_is_sign(g4):
    rng = np.random.default_rng(15)
    h = 1e-6
    for _ in range(20):
        L = _random_params(rng)
        phi = group_auto_from_algebra(L, g4.k)
        fp = apply_group_auto(g4, phi, fpoint(0, 0, h)).coords[2]
        fm = apply_group_auto(g4, phi, fpoint(0, 0, -h)).coords[2]
        assert (fp - fm) / (2 * h) == pytest.approx((-1.0) ** L.epsilon, abs=1e-8)


def test_exponential_naturality(g4):
    rng = np.random.default_rng(16)
    for _ in range(200):
        L = _random_params(rng)
        phi = group_auto_from_algebra(L, g4.k)
        nu = rng.uniform(-2, 2, 3)
        lhs = apply_group_auto(g4, phi, exp_map(g4, fpoint(*nu))).coords
        rhs = exp_map(g4, fpoint(*(L.matrix() @ nu))).coords
        assert np.max(np.abs(np.subtract(lhs, rhs))) < 1e-8


def test_composition_closure(g4):
    rng = np.random.default_rng(17)
    for _ in range(50):
        L1 = _random_params(rng)
        L2 = _random_params(rng)
        combined = is_algebra_auto(L1.matrix() @ L2.matrix())
        assert combined is not None
        phi1 = group_auto_from_algebra(L1, g4.k)
        phi2 = group_auto_from_algebra(L2, g4.k)
        phi12 = group_auto_from_algebra(combined, g4.k)
        v = fpoint(*rng.uniform(-2, 2, 3))
        lhs = apply_group_auto(g4, phi1, apply_group_auto(g4, phi2, v)).coords
        rhs = apply_group_auto(g4, phi12, v).coords
        assert np.max(np.abs(np.subtract(lhs, rhs))) < 1e-9


def test_batch_matches_single(g4):
    rng = np.random.default_rng(18)
    L = _random_params(rng)
    phi = group_auto_from_algebra(L, g4.k)
    V = rng.uniform(-2, 2, (40, 3))
    batched = apply_group_auto_batch(phi, V)
    for row, out in zip(V, batched):
        single = apply_group_auto(g4, phi, fpoint(*row)).coords
        assert np.max(np.abs(np.subtract(single, out))) < 1e-14
