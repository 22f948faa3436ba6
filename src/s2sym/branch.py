"""The branch data of S2(theta, k) in plain floats: the rate k, A = phi'(0) and S.

phi(x3) = cos(k x3) I + (sin(k x3)/k) A with phi(1) = theta has k = 2 pi n / p
and, for non-scalar theta, A = (k / sin k) (theta - cos(k) I): traceless, with
det A = k^2. A is kept as rows ((a, b), (c, -a)); the dislocation density S is
fixed by its entries. No numpy here: classify-theta and the refusals of extend
run without it, and liegroup.make_group builds its float frame from these values.
"""

from __future__ import annotations

import math
import sys

from .errors import InternalInconsistencyError, InvalidParametersError
from .intmat import MINUS_IDENTITY, ORDER_BY_TRACE, Mat2Z, theta_order

# The float k = 2 pi n / p, hence the phase of phi(1), is off by up to |k| eps;
# branch_data refuses |k| > K_LIMIT = 1e-9 / eps ~ 4.5e6 (|n| > 1.4e6 to 4.3e6).
_EPS = sys.float_info.epsilon
K_LIMIT = 1e-9 / _EPS


def _order(trace: int) -> int:
    if trace not in ORDER_BY_TRACE:
        raise InvalidParametersError(f"trace {trace} has no admissible branches")
    return ORDER_BY_TRACE[trace]


def branch_k(trace: int, n: int) -> float:
    """The rotation rate k = 2 pi n / p for branch integer n of the given trace class.

    p is the order of theta (intmat.ORDER_BY_TRACE), and n is admissible iff
    gcd(n, p) = 1: then phi(1) = theta has order exactly p. An n beyond float
    range gives an infinite k, which branch_data refuses as it does |k| > K_LIMIT.
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


def branch_data(theta: Mat2Z, n: int) -> tuple[float, tuple[tuple[float, float], ...]]:
    """k and A = phi'(0) for an admissible theta and branch n, checked by phi(1) = theta.

    For theta = -I, A is not pinned down by theta; the canonical A = ((0, k), (-k, 0))
    keeps A[0,1] != 0, so the frame of liegroup stays invertible (any other choice gives
    an isomorphic instance). |k| > K_LIMIT and theta entries beyond float range raise
    InvalidParametersError.
    """
    p = theta_order(theta)  # validates theta
    try:
        target = [[float(x) for x in row] for row in theta.rows()]
        half_diff = 0.5 * (theta.a - theta.d)
    except OverflowError:
        raise InvalidParametersError("theta does not fit in a float") from None
    k = branch_k(theta.trace(), n)
    if abs(k) > K_LIMIT:
        raise InvalidParametersError(f"branch n={n} too large: |k| > K_LIMIT = {K_LIMIT:.4g}")
    if theta == MINUS_IDENTITY:
        A = ((0.0, k), (-k, 0.0))
    else:
        scale = k / math.sin(branch_k(theta.trace(), n % p))  # the sine of k reduced exactly, not of float k
        A = ((scale * half_diff, scale * target[0][1]), (scale * target[1][0], scale * -half_diff))
    if abs(A[0][1]) < 1e-12:
        raise InternalInconsistencyError("A[0,1] vanished for admissible theta")
    # phi(1) must reproduce theta up to the roundoff of k; anything else is a construction bug.
    cos_k, sinc_k = math.cos(k), math.sin(k) / k
    err = max(abs(cos_k * (i == j) + sinc_k * A[i][j] - target[i][j]) for i in (0, 1) for j in (0, 1))
    if err > max(1e-10, 4.0 * _EPS * abs(k) * max(abs(x) for row in target for x in row)):
        raise InternalInconsistencyError(f"phi(1) differs from theta by {err:.3e}")
    return k, A


def dislocation_density(A: tuple[tuple[float, float], ...]) -> tuple[tuple[float, float, float], ...]:
    """The dislocation density tensor S = ((-b, a, 0), (a, c, 0), (0, 0, 0)) of A = ((a, b), (c, -a))."""
    return ((-A[0][1], A[0][0], 0.0), (A[0][0], A[1][0], 0.0), (0.0, 0.0, 0.0))
