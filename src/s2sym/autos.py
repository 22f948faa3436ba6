"""Automorphisms of the Lie algebra and of the continuous group.

In the rotation frame every algebra automorphism is the 3x3 matrix

    L = P^eps @ ((alpha, beta, gamma), (-beta, alpha, delta), (0, 0, 1)),

with P the flip ((0,1,0),(1,0,0),(0,0,-1)), eps in {0, 1} and
alpha^2 + beta^2 != 0. The corresponding group automorphism shares the five
parameters; its formula is applied with the eps branch selected exactly,
never recovered from a numeric matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParametersError
from .liegroup import (
    BASIS_F,
    GroupPoint,
    S2Group,
    f_structure_constants,
)

P_FLIP = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])

_SHAPE_TOL = 1e-10
_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class LieAlgebraAuto:
    """Parameters (eps, alpha, beta, gamma, delta) of an algebra automorphism."""

    epsilon: int
    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        if self.epsilon not in (0, 1):
            raise InvalidParametersError(f"epsilon must be 0 or 1, got {self.epsilon}")
        if self.alpha**2 + self.beta**2 <= _DEGENERATE_TOL:
            raise InvalidParametersError("alpha^2 + beta^2 must be nonzero")

    def matrix(self) -> np.ndarray:
        base = np.array([
            [self.alpha, self.beta, self.gamma],
            [-self.beta, self.alpha, self.delta],
            [0.0, 0.0, 1.0],
        ])
        return P_FLIP @ base if self.epsilon else base


@dataclass(frozen=True)
class GroupAutoParams(LieAlgebraAuto):
    """The same five parameters acting on the group, bound to a branch rate k."""

    k: float


def group_auto_from_algebra(L: LieAlgebraAuto, k: float) -> GroupAutoParams:
    return GroupAutoParams(L.epsilon, L.alpha, L.beta, L.gamma, L.delta, k)


def is_algebra_auto(L) -> LieAlgebraAuto | None:
    """Recognise an automorphism matrix and extract its parameters, else None.

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
    return LieAlgebraAuto(eps, alpha, beta, base[0, 2], base[1, 2])


def pts_factor(L: LieAlgebraAuto) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique factorisation into the flip, translation and rotation-scaling parts."""
    p = P_FLIP if L.epsilon else np.eye(3)
    t = np.array([[1.0, 0.0, L.gamma], [0.0, 1.0, L.delta], [0.0, 0.0, 1.0]])
    s = np.array([
        [L.alpha, L.beta, 0.0],
        [-L.beta, L.alpha, 0.0],
        [0.0, 0.0, 1.0],
    ])
    return p, t, s


def _check_k(g: S2Group, phi: GroupAutoParams) -> None:
    if not math.isclose(g.k, phi.k, rel_tol=1e-12, abs_tol=0.0):
        raise InvalidParametersError(
            f"automorphism was built for k={phi.k!r}, group has k={g.k!r}"
        )


def apply_group_auto(g: S2Group, phi: GroupAutoParams, v: GroupPoint) -> GroupPoint:
    """Apply a group automorphism to an "f"-frame point."""
    if v.basis != BASIS_F:
        raise ValueError("apply_group_auto expects an 'f'-frame point")
    _check_k(g, phi)
    out = apply_group_auto_batch(phi, v.array()[None, :])[0]
    return GroupPoint(tuple(out), BASIS_F)


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
