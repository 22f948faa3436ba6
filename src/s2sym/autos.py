"""The automorphisms of the continuous group, in the rotation frame.

A group automorphism has five parameters (eps, alpha, beta, gamma, delta),
eps in {0, 1} and alpha^2 + beta^2 != 0, and is bound to the branch rate k.
With s = sin(k u3) and c = 1 - cos(k u3) it maps u = (u1, u2, u3) to
W(eps) (t1, t2) and (-1)^eps u3, W(eps) the 2x2 swap to the power eps and

    t1 =  alpha u1 + beta u2 + (gamma s + delta c) / k,
    t2 = -beta u1 + alpha u2 + (delta s - gamma c) / k.

The eps branch is selected exactly, never recovered from a numeric matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParametersError

_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class GroupAutoParams:
    """Parameters (eps, alpha, beta, gamma, delta) of a group automorphism, bound to a branch rate k."""

    epsilon: int
    alpha: float
    beta: float
    gamma: float
    delta: float
    k: float

    def __post_init__(self):
        if self.epsilon not in (0, 1):
            raise InvalidParametersError(f"epsilon must be 0 or 1, got {self.epsilon}")
        if self.alpha**2 + self.beta**2 <= _DEGENERATE_TOL:
            raise InvalidParametersError("alpha^2 + beta^2 must be nonzero")


def apply_group_auto_batch(phi: GroupAutoParams, V: np.ndarray) -> np.ndarray:
    """Vectorised automorphism action on an (N, 3) array of "f" coordinates."""
    V = np.asarray(V, dtype=float)
    k = phi.k
    s = np.sin(k * V[:, 2])
    c1m = 1.0 - np.cos(k * V[:, 2])
    t1 = phi.alpha * V[:, 0] + phi.beta * V[:, 1] + (phi.gamma * s + phi.delta * c1m) / k
    t2 = -phi.beta * V[:, 0] + phi.alpha * V[:, 1] + (-phi.gamma * c1m + phi.delta * s) / k
    if phi.epsilon == 0:
        return np.stack([t1, t2, V[:, 2]], axis=1)
    return np.stack([t2, t1, -V[:, 2]], axis=1)
