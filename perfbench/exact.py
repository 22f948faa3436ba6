"""Exact integer arithmetic the benchmark uses to build inputs and check outputs.

Nothing here imports s2sym: the expected outcome of every generated input,
and the reference image of every checked word, is computed by this module
alone. Matrices are 4-tuples (a, b, c, d) in row-major order; words of D are
triples (q, m, n) standing for A^q B^m C^n.
"""

from __future__ import annotations

from itertools import product

ORDER_BY_TRACE = {-2: 2, -1: 3, 0: 4, 1: 6}

# The canonical matrix of each finite-order class, as in the survey script.
THETAS = {
    -2: (-1, 0, 0, -1),
    -1: (0, 1, -1, -1),
    0: (0, 1, -1, 0),
    1: (1, 1, -1, 0),
}
MINUS_I = THETAS[-2]

IDENTITY = (1, 0, 0, 1)


def mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def det(x) -> int:
    return x[0] * x[3] - x[1] * x[2]


def apply(x, v):
    return (x[0] * v[0] + x[1] * v[1], x[2] * v[0] + x[3] * v[1])


class Powers:
    """theta^e for every integer e, from a table of one period."""

    def __init__(self, theta):
        self.theta = theta
        self.p = ORDER_BY_TRACE[theta[0] + theta[3]]
        table = [IDENTITY]
        for _ in range(self.p - 1):
            table.append(mat_mul(table[-1], theta))
        if mat_mul(table[-1], theta) != IDENTITY:
            raise ValueError(f"{theta} does not have order {self.p}")
        self.table = tuple(table)

    def __call__(self, e: int):
        return self.table[e % self.p]


def word_mul(pw: Powers, w1, w2):
    """(q1, m1, n1) * (q2, m2, n2) = (q1 + q2, theta^-q2 (m1, n1) + (m2, n2))."""
    m, n = apply(pw(-w2[0]), (w1[1], w1[2]))
    return (w1[0] + w2[0], m + w2[1], n + w2[2])


def word_small_pow(pw: Powers, w, e: int):
    """w^e for a small exponent, by repeated products with w or its inverse."""
    if e < 0:
        m, n = apply(pw(w[0]), (w[1], w[2]))
        w = (-w[0], -m, -n)
        e = -e
    out = (0, 0, 0)
    for _ in range(e):
        out = word_mul(pw, out, w)
    return out


# --- the 4x4 integer representation -------------------------------------
#
# A word (q, m, n) is the matrix
#     ((T_a, T_b, 0, t1), (T_c, T_d, 0, t2), (0, 0, 1, q), (0, 0, 0, 1))
# with T = theta^q and (t1, t2) = T (m, n). It is stored compactly as
# (T, t1, t2, q) and multiplied as a block matrix, so the check below never
# goes through the word normal-form rule above.


def rep(pw: Powers, w):
    t = pw(w[0])
    t1, t2 = apply(t, (w[1], w[2]))
    return (t, t1, t2, w[0])


def rep_mul(x, y):
    tx, x1, x2, xq = x
    ty, y1, y2, yq = y
    s1, s2 = apply(tx, (y1, y2))
    return (mat_mul(tx, ty), s1 + x1, s2 + x2, xq + yq)


def rep_inv(x):
    t, t1, t2, q = x
    a, b, c, d = t  # det 1
    ti = (d, -b, -c, a)
    s1, s2 = apply(ti, (t1, t2))
    return (ti, -s1, -s2, -q)


def rep_pow(x, e: int):
    if e < 0:
        x = rep_inv(x)
        e = -e
    out = (IDENTITY, 0, 0, 0)
    while e:
        if e & 1:
            out = rep_mul(out, x)
        x = rep_mul(x, x)
        e >>= 1
    return out


def rep_image(pw: Powers, auto, w):
    """Representation of phi(A^q B^m C^n) = phi(A)^q phi(B)^m phi(C)^n.

    auto is (zeta, chi, beta1, gamma1); phi(B) and phi(C) are the columns of chi.
    """
    zeta, chi, beta1, gamma1 = auto
    ra = rep(pw, (zeta, beta1, gamma1))
    rb = rep(pw, (0, chi[0], chi[2]))
    rc = rep(pw, (0, chi[1], chi[3]))
    q, m, n = w
    return rep_mul(rep_mul(rep_pow(ra, q), rep_pow(rb, m)), rep_pow(rc, n))


# --- automorphisms of D ----------------------------------------------------


def intertwiners(theta, bound: int = 2):
    """All (zeta, chi) with |chi entries| <= bound, det chi = +-1 and
    theta^zeta chi = chi theta, by exhaustive search."""
    pw = Powers(theta)
    span = range(-bound, bound + 1)
    out = []
    for chi in product(span, repeat=4):
        if abs(det(chi)) != 1:
            continue
        for zeta in (1, -1):
            if mat_mul(pw(zeta), chi) == mat_mul(chi, theta):
                out.append((zeta, chi))
    return out


# For theta = -I every unimodular chi is an automorphism, but the lift to the
# continuous group exists only when chi preserves the square frame of that
# instance: the four rotations with zeta = +1 and the four reflections with
# zeta = -1.
ROTATIONS = ((1, 0, 0, 1), (-1, 0, 0, -1), (0, 1, -1, 0), (0, -1, 1, 0))
REFLECTIONS = ((1, 0, 0, -1), (-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, -1, 0))
MINUS_I_LIFTING = tuple((1, c) for c in ROTATIONS) + tuple((-1, c) for c in REFLECTIONS)


def lifts(theta, zeta: int, chi) -> bool:
    """Whether the automorphism (zeta, chi, *, *) of D extends to the group."""
    if theta != MINUS_I:
        return True
    return (zeta, chi) in MINUS_I_LIFTING


# The two smallest positive admissible branch integers of each class
# (n mod 2, 3, 4, 6 in the residue sets {1}, {1, 2}, {1, 3}, {1, 5}).
BRANCHES = {-2: (1, 3), -1: (1, 2), 0: (1, 3), 1: (1, 5)}
