"""The paper's continuous model, as the reference the tests check the lift against.

The package decides everything exactly and lifts each automorphism of D with
extension.extend; nothing it runs needs the rest of the continuous model.
This module holds that rest, built on an s2sym.liegroup instance g:

  * the one-parameter subgroup phi(x3) = cos(k x3) I + (sin(k x3)/k) A;
  * points tagged with their frame, the group product and inverse in both
    frames, the right-invariant lattice fields, brackets and the rotation-frame
    structure constants, the exponential map and the two-exponential split;
  * the change of frame through M = diag(Mbar, 1): the "e" frame, where the
    discrete subgroup sits exactly on the integer lattice and the product
    reads psi(x, y) = (x12 + phi(x3) y12, x3 + y3), and the "f" frame, where
    phi(u3) acts as the plain rotation by k*u3. Coordinates convert by
    u = M^{-T} x (e to f) and x = M^T u (f to e);
  * the algebra automorphisms L = P^eps ((alpha, beta, gamma),
    (-beta, alpha, delta), (0, 0, 1)), P the flip ((0,1,0),(1,0,0),(0,0,-1)):
    the matrix of a parameter set, its recognition and its factorisation;
  * R(eps) built at any q that is not a multiple of the order of theta, the
    general form of extension.r_eps (which builds it at q = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from s2sym import GroupAutoParams, S2Group, f_factor, theta_order, theta_power
from s2sym.autos import _DEGENERATE_TOL
from s2sym.extension import _swap

BASIS_E = "e"
BASIS_F = "f"
_BASES = (BASIS_E, BASIS_F)

P_FLIP = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])

_SHAPE_TOL = 1e-10


class SingularFError(ValueError):
    """F(B u3) is singular here (k*u3 is a multiple of 2*pi), so it cannot be inverted."""


@dataclass(frozen=True)
class GroupPoint:
    """A point of the group manifold, tagged with the frame of its coordinates."""

    coords: tuple[float, float, float]
    basis: str

    def __post_init__(self):
        if self.basis not in _BASES:
            raise ValueError(f"basis tag must be one of {_BASES}, got {self.basis!r}")
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))

    def array(self) -> np.ndarray:
        return np.array(self.coords, dtype=float)


def epoint(x1, x2, x3) -> GroupPoint:
    return GroupPoint((x1, x2, x3), BASIS_E)


def fpoint(u1, u2, u3) -> GroupPoint:
    return GroupPoint((u1, u2, u3), BASIS_F)


def phi_of(g: S2Group, x3: float) -> np.ndarray:
    """The one-parameter subgroup phi(x3) = cos(k x3) I + (sin(k x3)/k) A."""
    t = g.k * x3
    return math.cos(t) * np.eye(2) + (math.sin(t) / g.k) * g.A


def frame_matrix(g: S2Group) -> np.ndarray:
    """The 3x3 change of basis M to the rotation frame: Mbar on the first two coordinates."""
    M = np.zeros((3, 3))
    M[:2, :2] = g.Mbar
    M[2, 2] = 1.0
    return M


def _require_basis(p: GroupPoint, basis: str, what: str) -> None:
    if p.basis != basis:
        raise ValueError(f"{what} expects a {basis!r}-frame point, got {p.basis!r}")


def _shear(g: S2Group, x3: float, basis: str) -> np.ndarray:
    """The 2x2 block by which a point with third coordinate x3 acts on the
    first two coordinates of the point it multiplies from the left."""
    if basis == BASIS_E:
        return phi_of(g, x3)
    t = g.k * x3
    ct, st = math.cos(t), math.sin(t)
    return np.array([[ct, st], [-st, ct]])


def compose(g: S2Group, x: GroupPoint, y: GroupPoint) -> GroupPoint:
    """Group product psi(x, y); both points must carry the same frame tag."""
    if x.basis != y.basis:
        raise ValueError(f"cannot compose points in different frames: {x.basis!r} and {y.basis!r}")
    (x1, x2, x3), (y1, y2, y3) = x.coords, y.coords
    block = _shear(g, x3, x.basis)
    out = (
        x1 + block[0, 0] * y1 + block[0, 1] * y2,
        x2 + block[1, 0] * y1 + block[1, 1] * y2,
        x3 + y3,
    )
    return GroupPoint(out, x.basis)


def inverse(g: S2Group, x: GroupPoint) -> GroupPoint:
    """The group inverse, psi(x, inverse(x)) = 0."""
    v = x.array()
    head = -(_shear(g, -v[2], x.basis) @ v[:2])
    return GroupPoint((head[0], head[1], -v[2]), x.basis)


def lattice_fields(g: S2Group, x: GroupPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The right-invariant frame at x in "e" coordinates.

    l1 and l2 are constant; l3 picks up the shear of the product:
    l3(x) = (a'(0) x1 + b'(0) x2, c'(0) x1 - a'(0) x2, 1).
    """
    _require_basis(x, BASIS_E, "lattice_fields")
    x1, x2, _ = x.coords
    ap0, bp0, cp0 = g.A[0, 0], g.A[0, 1], g.A[1, 0]
    l3 = np.array([ap0 * x1 + bp0 * x2, cp0 * x1 - ap0 * x2, 1.0])
    return np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), l3


def bracket(g: S2Group, x, y, basis: str = BASIS_F) -> np.ndarray:
    """Lie bracket of algebra vectors in the given frame."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if basis == BASIS_F:
        k = g.k
        return np.array([
            k * (x[2] * y[1] - x[1] * y[2]),
            k * (x[0] * y[2] - x[2] * y[0]),
            0.0,
        ])
    if basis == BASIS_E:
        w = np.cross(x, y)
        ap0, bp0, cp0 = g.A[0, 0], g.A[0, 1], g.A[1, 0]
        return np.array([ap0 * w[1] - bp0 * w[0], cp0 * w[1] + ap0 * w[0], 0.0])
    raise ValueError(f"unknown basis tag {basis!r}")


def f_structure_constants(k: float) -> np.ndarray:
    """Structure tensor C[i,j,l] = k (d(3,j) eps(3,i,l) - d(3,l) eps(3,i,j)) in the rotation frame."""
    eps = np.zeros((3, 3, 3))
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, l] = 1.0
        eps[i, l, j] = -1.0
    C = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for l in range(3):
                C[i, j, l] = k * ((j == 2) * eps[2, i, l] - (l == 2) * eps[2, i, j])
    return C


def exp_map(g: S2Group, u: GroupPoint) -> GroupPoint:
    """Exponential map of an algebra vector given in "f" coordinates."""
    _require_basis(u, BASIS_F, "exp_map")
    u1, u2, u3 = u.coords
    head = f_factor(g, u3) @ np.array([u1, u2])
    return fpoint(head[0], head[1], u3)


def two_exp_decompose(v: GroupPoint) -> tuple[np.ndarray, np.ndarray]:
    """Split v = psi(exp(s), exp(t)) with s = (v1, v2, 0) and t = (0, 0, v3).

    Every group element is such a product even though the exponential map
    itself is not surjective.
    """
    _require_basis(v, BASIS_F, "two_exp_decompose")
    v1, v2, v3 = v.coords
    return np.array([v1, v2, 0.0]), np.array([0.0, 0.0, v3])


def convert_basis(g: S2Group, p: GroupPoint) -> GroupPoint:
    """Switch a point between the "e" and "f" frames through M."""
    v = p.array()
    if p.basis == BASIS_E:
        out = g.M_invT @ v
        return GroupPoint(tuple(out), BASIS_F)
    out = frame_matrix(g).T @ v
    return GroupPoint(tuple(out), BASIS_E)


def algebra_matrix(phi: GroupAutoParams) -> np.ndarray:
    """The algebra automorphism with the five parameters of phi (its differential at the identity)."""
    base = np.array([
        [phi.alpha, phi.beta, phi.gamma],
        [-phi.beta, phi.alpha, phi.delta],
        [0.0, 0.0, 1.0],
    ])
    return P_FLIP @ base if phi.epsilon else base


def is_algebra_auto(L, k: float) -> GroupAutoParams | None:
    """Recognise an automorphism matrix and return its parameters, bound to k, else None.

    The shape test is cross-validated against the bracket-preservation
    identity on the structure constants (scale free, so checked at k = 1).
    """
    L = np.asarray(L, dtype=float)
    if L.shape != (3, 3):
        return None
    if abs(L[2, 0]) > _SHAPE_TOL or abs(L[2, 1]) > _SHAPE_TOL:
        return None
    if abs(L[2, 2] - 1.0) <= _SHAPE_TOL:
        eps = 0
        base = L
    elif abs(L[2, 2] + 1.0) <= _SHAPE_TOL:
        eps = 1
        base = P_FLIP @ L
    else:
        return None
    alpha, beta = base[0, 0], base[0, 1]
    if abs(base[1, 1] - alpha) > _SHAPE_TOL or abs(base[1, 0] + beta) > _SHAPE_TOL:
        return None
    if alpha**2 + beta**2 <= _DEGENERATE_TOL:
        return None
    C = f_structure_constants(1.0)
    lhs = np.einsum("ijk,jp,kq->ipq", C, L, L)
    rhs = np.einsum("ir,rpq->ipq", L, C)
    scale = max(1.0, float(np.max(np.abs(L))) ** 2)
    if np.max(np.abs(lhs - rhs)) > 1e-8 * scale:
        return None
    return GroupAutoParams(eps, alpha, beta, base[0, 2], base[1, 2], k)


def pts_factor(phi: GroupAutoParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique factorisation of algebra_matrix(phi) into the flip, translation and rotation-scaling parts."""
    p = P_FLIP if phi.epsilon else np.eye(3)
    t = np.array([[1.0, 0.0, phi.gamma], [0.0, 1.0, phi.delta], [0.0, 0.0, 1.0]])
    s = np.array([
        [phi.alpha, phi.beta, 0.0],
        [-phi.beta, phi.alpha, 0.0],
        [0.0, 0.0, 1.0],
    ])
    return p, t, s


def r_eps_at_q(g: S2Group, eps: int, q: int) -> np.ndarray:
    """R(eps), the 2x2 matrix taking (beta1, gamma1) to (gamma, delta), built at a given q >= 1:
    (1/q) W(eps) F(B xi q)^{-1} Mbar^{-T} sum_{j=1..q} theta^(j xi), xi = (-1)^eps.

    The construction needs F(B xi q) invertible, which fails exactly when q
    is a multiple of the order of theta. At q = 1 it takes the same float
    steps as extension.r_eps.
    """
    if eps not in (0, 1):
        raise ValueError(f"eps must be 0 or 1, got {eps}")
    if q < 1:
        raise ValueError(f"q must be a positive integer, got {q}")
    p = theta_order(g.theta)
    if q % p == 0:
        raise SingularFError(f"q={q} is a multiple of the theta order {p}; F is singular")
    xi = 1 if eps == 0 else -1
    total = np.zeros((2, 2))
    for j in range(1, q + 1):
        total += np.array(theta_power(g.theta, j * xi).rows(), dtype=float)
    f_inv = np.linalg.inv(f_factor(g, float(xi * q)))
    return (1.0 / q) * _swap(eps) @ f_inv @ g.Mbar_invT @ total
