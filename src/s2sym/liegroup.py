"""The continuous solvable group S2(theta, k): its branches and one instance of it.

The group is R^3 with a product that shears the first two coordinates by the
one-parameter subgroup

    phi(x3) = cos(k*x3) I + (sin(k*x3)/k) A,     phi(1) = theta,

where A = phi'(0) is traceless with det A = k^2. The discrete subgroup sits
exactly on the integer lattice of the "e" coordinates; the "f" coordinates
u = M^{-T} x, with M = diag(Mbar, 1), are those of the rotation frame, where
phi(u3) acts as the plain rotation by k*u3 and the automorphism formula of
autos takes its simplest form. f_factor is the matrix F of the exponential
map exp(u) = (F(B u3) u12, u3), which extension inverts to lift a shift. The
dislocation density tensor S of the instance is constant, symmetric and rank
2; it is determined by the entries of A. The group product, the exponential
map and the frame conversion themselves are the tests' reference model
(tests/continuous.py).
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


@dataclass(frozen=True, eq=False)
class S2Group:
    """A fixed instance of the group: theta, branch n, and derived data.

    A is phi'(0); Mbar is the top-left block of the change of basis M to the
    rotation frame, and M_invT its inverse transpose; S is the dislocation
    density tensor.
    """

    theta: Mat2Z
    n: int
    k: float
    A: np.ndarray
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
    canonical choice A = ((0, k), (-k, 0)) so that A[0,1] != 0 and Mbar stays
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


def f_factor(g: S2Group, u3: float) -> np.ndarray:
    """The matrix F with exp(u) = (F(B u3) u12, u3); series fallback near u3 = 0.

    F is singular exactly when k*u3 is a nonzero multiple of 2*pi.
    """
    z = g.k * u3
    if abs(z) < 1e-8:
        return np.array([[1.0, 0.5 * z], [-0.5 * z, 1.0]])
    s, c1m = math.sin(z), 1.0 - math.cos(z)
    return (1.0 / z) * np.array([[s, c1m], [-c1m, s]])
