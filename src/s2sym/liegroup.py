"""The continuous solvable group S2(theta, k) and its Lie algebra.

A group instance is R^3 with a twisted product: composing x and y shears
the first two coordinates of y by the one-parameter subgroup

    phi(x3) = cos(k*x3) I + (sin(k*x3)/k) A,     phi(1) = theta,

where A = phi'(0) is traceless with det A = k^2. Two coordinate frames are
used throughout:

  * the "e" frame, where the discrete subgroup sits exactly on the integer
    lattice and the product reads psi(x, y) = (x12 + phi(x3) y12, x3 + y3);
  * the "f" frame, reached through the change-of-basis matrix M, where
    phi(u3) acts as the plain rotation by k*u3 and the exponential map and
    automorphism formulas take their simplest form.

Coordinates convert by u = M^{-T} x (e to f) and x = M^T u (f to e).
The dislocation density tensor S of the instance is constant, symmetric
and rank 2; it is determined by the entries of A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParametersError, InternalInconsistencyError
from .intmat import Mat2Z, MINUS_IDENTITY, ORDER_BY_TRACE, theta_order

# The float k = 2 pi n / p, hence the phase of phi(1), is off by up to |k| eps;
# make_group refuses |k| > K_LIMIT = 1e-9 / eps ~ 4.5e6 (|n| > 1.4e6 to 4.3e6).
_EPS = np.finfo(float).eps
K_LIMIT = 1e-9 / _EPS

BASIS_E = "e"
BASIS_F = "f"
_BASES = (BASIS_E, BASIS_F)


def _order(trace: int) -> int:
    if trace not in ORDER_BY_TRACE:
        raise InvalidParametersError(f"trace {trace} has no admissible branches")
    return ORDER_BY_TRACE[trace]


def branch_k(trace: int, n: int) -> float:
    """The rotation rate k = 2 pi n / p for branch integer n of the given trace class.

    p is the order of theta (intmat.ORDER_BY_TRACE), and n is admissible iff
    gcd(n, p) = 1: then phi(1) = theta has order exactly p. An n beyond float
    range gives an infinite k, which make_group refuses as it does |k| > K_LIMIT.
    """
    p = _order(trace)
    if math.gcd(n, p) != 1:
        raise InvalidParametersError(f"branch n={n} not admissible for trace {trace} (n must be coprime to {p})")
    try:
        return 2 * math.pi / p * n
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def first_branches(trace: int, count: int = 2) -> list[int]:
    """The smallest positive admissible branch integers for a trace class."""
    p = _order(trace)
    return [n for n in range(1, count * p + 1) if math.gcd(n, p) == 1][:count]


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


@dataclass(frozen=True, eq=False)
class S2Group:
    """A fixed instance of the group: theta, branch n, and derived data.

    A is phi'(0); M is the 3x3 change of basis to the rotation frame with
    top-left block Mbar; S is the dislocation density tensor.
    """

    theta: Mat2Z
    n: int
    k: float
    A: np.ndarray
    M: np.ndarray
    Mbar: np.ndarray
    Mbar_invT: np.ndarray
    M_invT: np.ndarray
    S: np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def make_group(theta: Mat2Z, n: int) -> S2Group:
    """Construct the group instance for an admissible theta and branch n.

    For theta = -I the derivative A is not pinned down by theta; we fix the
    canonical choice A = ((0, k), (-k, 0)) so that A[0,1] != 0 and M stays
    invertible. Any other choice gives an isomorphic instance.
    Branches with |k| > K_LIMIT, theta entries beyond float range, and theta so
    large that the float Mbar is singular raise InvalidParametersError.
    """
    p = theta_order(theta)  # validates theta
    try:
        target = np.array(theta.rows(), dtype=float)
        half_diff = 0.5 * (theta.a - theta.d)
    except OverflowError:
        raise InvalidParametersError("theta does not fit in a float") from None
    k = branch_k(theta.trace(), n)
    if abs(k) > K_LIMIT:
        raise InvalidParametersError(f"branch n={n} too large: |k| > K_LIMIT = {K_LIMIT:.4g}")
    if theta == MINUS_IDENTITY:
        A = np.array([[0.0, k], [-k, 0.0]])
    else:
        scale = k / math.sin(branch_k(theta.trace(), n % p))  # the sine of k reduced exactly, not of float k
        A = scale * np.array([[half_diff, target[0, 1]], [target[1, 0], -half_diff]])
    bp0 = A[0, 1]
    if abs(bp0) < 1e-12:
        raise InternalInconsistencyError("A[0,1] vanished for admissible theta")
    ap0, cp0 = A[0, 0], A[1, 0]
    Mbar = np.array([[-bp0, ap0 + k], [-bp0, ap0 - k]])
    M = np.zeros((3, 3))
    M[:2, :2] = Mbar
    M[2, 2] = 1.0
    try:
        Mbar_invT = np.linalg.inv(Mbar).T
    except np.linalg.LinAlgError:  # a'(0) + k and a'(0) - k round to the same float
        raise InvalidParametersError("theta is too large for the float frame: Mbar is singular") from None
    M_invT = np.zeros((3, 3))
    M_invT[:2, :2] = Mbar_invT
    M_invT[2, 2] = 1.0
    S = np.array([[-bp0, ap0, 0.0], [ap0, cp0, 0.0], [0.0, 0.0, 0.0]])
    g = S2Group(
        theta=theta,
        n=n,
        k=k,
        A=_freeze(A),
        M=_freeze(M),
        Mbar=_freeze(Mbar),
        Mbar_invT=_freeze(Mbar_invT),
        M_invT=_freeze(M_invT),
        S=_freeze(S),
    )
    # phi(1) must reproduce theta up to the roundoff of k; anything else is a construction bug.
    err = np.max(np.abs(phi_of(g, 1.0) - target))
    if err > max(1e-10, 4.0 * _EPS * abs(k) * np.max(np.abs(target))):
        raise InternalInconsistencyError(f"phi(1) differs from theta by {err:.3e}")
    return g


def phi_of(g: S2Group, x3: float) -> np.ndarray:
    """The one-parameter subgroup phi(x3) = cos(k x3) I + (sin(k x3)/k) A."""
    t = g.k * x3
    return math.cos(t) * np.eye(2) + (math.sin(t) / g.k) * g.A


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


def f_factor(g: S2Group, u3: float) -> np.ndarray:
    """The matrix F with exp(u) = (F(B u3) u12, u3); series fallback near u3 = 0.

    F is singular exactly when k*u3 is a nonzero multiple of 2*pi.
    """
    z = g.k * u3
    if abs(z) < 1e-8:
        return np.array([[1.0, 0.5 * z], [-0.5 * z, 1.0]])
    s, c1m = math.sin(z), 1.0 - math.cos(z)
    return (1.0 / z) * np.array([[s, c1m], [-c1m, s]])


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
    out = g.M.T @ v
    return GroupPoint(tuple(out), BASIS_E)
