"""Exact 2x2 integer matrix arithmetic and gcd utilities.

Everything in this module is plain Python integer arithmetic (arbitrary
precision), so results are exact by construction. It is the substrate for
the word arithmetic on the discrete group and for the symmetry searches
over GL2(Z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidThetaError

Vec2Z = tuple[int, int]

ADMISSIBLE_TRACES = (-2, -1, 0, 1)

# Multiplicative order of an admissible matrix, keyed by its trace.
ORDER_BY_TRACE = {-2: 2, -1: 3, 0: 4, 1: 6}


@dataclass(frozen=True)
class Mat2Z:
    """Integer matrix ((a, b), (c, d)), row major."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def __matmul__(self, other: "Mat2Z") -> "Mat2Z":
        return Mat2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Mat2Z":
        return Mat2Z(-self.a, -self.b, -self.c, -self.d)

    def apply(self, v: Vec2Z) -> Vec2Z:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def inv(self) -> "Mat2Z":
        """Exact inverse of a unimodular matrix (signed adjugate)."""
        det = self.det()
        if det == 1:
            return Mat2Z(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return Mat2Z(-self.d, self.b, self.c, -self.a)
        raise ValueError(f"matrix with det {det} has no integer inverse")

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))


IDENTITY = Mat2Z(1, 0, 0, 1)
MINUS_IDENTITY = Mat2Z(-1, 0, 0, -1)


def hcf_all(values) -> int:
    """Nonnegative gcd of a nonempty list; all-zero input gives 0."""
    values = list(values)
    if not values:
        raise ValueError("hcf of an empty list is undefined")
    return math.gcd(*values)


def int_text(x: int) -> str:
    """x in decimal up to 64 bits, else its bit length: str() refuses ints past 4300 digits."""
    return str(x) if x.bit_length() <= 64 else f"<{x.bit_length()}-bit integer>"


def mat2z_pow(m: Mat2Z, e: int) -> Mat2Z:
    """Exact integer power; negative exponents require |det| = 1."""
    if e < 0:
        m = m.inv()
        e = -e
    result = IDENTITY
    base = m
    while e:
        if e & 1:
            result = result @ base
        base = base @ base
        e >>= 1
    return result


@lru_cache(maxsize=None)
def theta_powers(theta: Mat2Z) -> tuple[Mat2Z, ...]:
    """theta^0, ..., theta^(p-1) for an admissible theta of multiplicative order p.

    p is 2, 3, 4, 6 for trace -2, -1, 0, 1. Also serves as the validity check
    for theta: raises InvalidThetaError unless theta is in SL2(Z), has
    admissible trace, and actually satisfies theta**p == I (trace -2 matrices
    other than -I fail this and do not lie on any one-parameter subgroup).
    """
    if theta.det() != 1:
        raise InvalidThetaError(f"theta must have determinant 1, got {int_text(theta.det())}")
    tr = theta.trace()
    if tr not in ORDER_BY_TRACE:
        raise InvalidThetaError(f"trace {tr} outside the finite-order class {{-2,-1,0,1}}")
    p = ORDER_BY_TRACE[tr]
    powers = [IDENTITY]
    for _ in range(p - 1):
        powers.append(powers[-1] @ theta)
    if powers[-1] @ theta != IDENTITY:
        raise InvalidThetaError(f"theta does not have finite order {p}: {theta}")
    return tuple(powers)


def theta_order(theta: Mat2Z) -> int:
    """Multiplicative order p of an admissible theta; validates theta as theta_powers does."""
    return len(theta_powers(theta))


def theta_power(theta: Mat2Z, e: int) -> Mat2Z:
    """theta**e for admissible theta, read from the table of one period."""
    powers = theta_powers(theta)
    return powers[e % len(powers)]
