"""One instance of the continuous solvable group S2(theta, k), in numpy.

The group is R^3 with a product that shears the first two coordinates by the
one-parameter subgroup

    phi(x3) = cos(k*x3) I + (sin(k*x3)/k) A,     phi(1) = theta,

where A = phi'(0) is traceless with det A = k^2. k, A and the dislocation
density tensor S (constant, symmetric, rank 2) come from branch in plain
floats; this module adds the frame. The discrete subgroup sits exactly on
the integer lattice of the "e" coordinates; the "f" coordinates u = M^{-T} x,
with M = diag(Mbar, 1), are those of the rotation frame, where phi(u3) acts
as the plain rotation by k*u3 and the automorphism formula of autos takes
its simplest form. f_factor is the matrix F of the exponential map
exp(u) = (F(B u3) u12, u3), which extension inverts to lift a shift. phi,
the group product, the exponential map and the frame conversion themselves
are the tests' reference model (tests/continuous.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branch import branch_data, dislocation_density
from .errors import InvalidParametersError
from .intmat import Mat2Z


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

    k, A and S are those of branch.branch_data, which raises on an
    inadmissible theta or branch; a theta so large that the float Mbar is
    singular raises InvalidParametersError here.
    """
    k, A = branch_data(theta, n)
    (ap0, bp0), _ = A
    Mbar = np.array([[-bp0, ap0 + k], [-bp0, ap0 - k]])
    try:
        Mbar_invT = np.linalg.inv(Mbar).T
    except np.linalg.LinAlgError:  # a'(0) + k and a'(0) - k round to the same float
        raise InvalidParametersError("theta is too large for the float frame: Mbar is singular") from None
    M_invT = np.eye(3)
    M_invT[:2, :2] = Mbar_invT
    arrays = (np.array(A), Mbar, Mbar_invT, M_invT, np.array(dislocation_density(A)))
    return S2Group(theta, n, k, *map(_freeze, arrays))


def f_factor(g: S2Group, u3: float) -> np.ndarray:
    """The matrix F with exp(u) = (F(B u3) u12, u3); series fallback near u3 = 0.

    F is singular exactly when k*u3 is a nonzero multiple of 2*pi.
    """
    z = g.k * u3
    if abs(z) < 1e-8:
        return np.array([[1.0, 0.5 * z], [-0.5 * z, 1.0]])
    s, c1m = math.sin(z), 1.0 - math.cos(z)
    return (1.0 / z) * np.array([[s, c1m], [-c1m, s]])
