"""Independent cross-checks for the test suite.

Everything here recomputes a result by a different route than the library
code it validates: the 4x4 integer matrix representation of words and plain
products of it, RK4 integration of the frame field, exhaustive integer
searches, powers of a matrix and of a word by binary exponentiation (the
word through dmul, with no period argument), the word-level automorphism
action expanded through them and dmul (and the lattice check built on it),
breadth-first word search, finite differences of the group product and of
group automorphisms, and the lattice-points output built record by record.
It also holds the words only the tests use: the commutator, the float
embedding of a word into the group, and the word at a lattice point. The
continuous model the finite differences run on is in continuous.py.
"""

from itertools import product

import numpy as np

from s2sym import DElement, InvalidThetaError, Mat2Z, dinv, dmul, embed_int, theta_order, theta_power
from s2sym.autos import apply_group_auto_batch
from s2sym.cli import JSON_FORMAT, dump_json
from s2sym.discrete import IDENTITY_WORD
from s2sym.intmat import IDENTITY
from s2sym.symmetry import DAutomorphism, image_word, shift_prefix
from continuous import BASIS_F, GroupPoint, compose, epoint


def mat4_mul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(4)) for j in range(4)) for i in range(4)
    )


MAT4_IDENTITY = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def rmat(theta: Mat2Z, d: DElement) -> tuple[tuple[int, ...], ...]:
    """The 4x4 integer matrix representation of a normal-form word."""
    tq = theta_power(theta, d.q)
    t1, t2 = tq.apply((d.m, d.n))
    return (
        (tq.a, tq.b, 0, t1),
        (tq.c, tq.d, 0, t2),
        (0, 0, 1, d.q),
        (0, 0, 0, 1),
    )


def dcommutator(theta: Mat2Z, d1: DElement, d2: DElement) -> DElement:
    """d1^{-1} d2^{-1} d1 d2 in normal form."""
    out = dmul(theta, dinv(theta, d1), dinv(theta, d2))
    out = dmul(theta, out, d1)
    return dmul(theta, out, d2)


def embed(g, d: DElement):
    """The group point of a word, in "e" coordinates."""
    return epoint(*embed_int(g.theta, d))


def word_at(theta: Mat2Z, point: tuple[int, int, int]) -> DElement:
    """The unique normal-form word embedding at a given integer lattice point."""
    x1, x2, x3 = point
    m, n = theta_power(theta, -x3).apply((x1, x2))
    return DElement(x3, m, n)


def rk4_flow(g, nu_e, steps=1000):
    """Integrate dx/dt = nu_a l_a(x) from the origin over [0, 1] in "e" coordinates."""
    ap0, bp0, cp0 = g.A[0, 0], g.A[0, 1], g.A[1, 0]

    def vel(x):
        return np.array([
            nu_e[0] + nu_e[2] * (ap0 * x[0] + bp0 * x[1]),
            nu_e[1] + nu_e[2] * (cp0 * x[0] - ap0 * x[1]),
            nu_e[2],
        ])

    x = np.zeros(3)
    h = 1.0 / steps
    for _ in range(steps):
        k1 = vel(x)
        k2 = vel(x + 0.5 * h * k1)
        k3 = vel(x + 0.5 * h * k2)
        k4 = vel(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def mat2z_pow(m: Mat2Z, e: int) -> Mat2Z:
    """Exact integer power by binary exponentiation; negative exponents require |det| = 1."""
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


def dpow_by_squaring(theta: Mat2Z, d: DElement, e: int) -> DElement:
    """d^e by binary exponentiation through dmul: O(log |e|) products, no period argument."""
    if e < 0:
        d = dinv(theta, d)
        e = -e
    result = IDENTITY_WORD
    base = d
    while e:
        if e & 1:
            result = dmul(theta, result, base)
        base = dmul(theta, base, base)
        e >>= 1
    return result


def word_image_by_expansion(theta: Mat2Z, phi: DAutomorphism, d: DElement) -> DElement:
    """Image of A^q B^m C^n under phi, expanded as phi(A)^q phi(B)^m phi(C)^n
    through dpow_by_squaring and dmul."""
    image_a = DElement(phi.zeta, phi.beta1, phi.gamma1)
    image_b = DElement(0, phi.chi.a, phi.chi.c)
    image_c = DElement(0, phi.chi.b, phi.chi.d)
    out = dpow_by_squaring(theta, image_a, d.q)
    out = dmul(theta, out, dpow_by_squaring(theta, image_b, d.m))
    return dmul(theta, out, dpow_by_squaring(theta, image_c, d.n))


def verify_extension_by_expansion(g, phi_d: DAutomorphism, phi_tilde, box: int) -> tuple[bool, float]:
    """(passed, max_discrepancy) of verify_extension, with every image point
    taken from word_image_by_expansion and the box mapped one q slice at a time."""
    theta = g.theta
    span = range(-box, box + 1)
    scale_gd = max(abs(phi_tilde.gamma), abs(phi_tilde.delta))
    max_disc = 0.0
    passed = True
    for q in span:
        words = [DElement(q, m, n) for m in span for n in span]
        x_src = np.array([embed_int(theta, w) for w in words], dtype=float)
        x_img = np.array(
            [embed_int(theta, word_image_by_expansion(theta, phi_d, w)) for w in words], dtype=float
        )
        mapped = apply_group_auto_batch(phi_tilde, x_src @ g.M_invT.T)
        diffs = np.max(np.abs(mapped - x_img @ g.M_invT.T), axis=1)
        scale = np.maximum(np.max(np.abs(x_src), axis=1), np.max(np.abs(x_img), axis=1))
        if q != 0:  # sin(k q) and 1 - cos(k q) vanish exactly at q = 0
            scale = np.maximum(scale, scale_gd)
        tols = np.maximum(1e-9, 1e-12 * scale)
        max_disc = max(max_disc, float(np.max(diffs)))
        passed = passed and not np.any(diffs > tols)
    return passed, max_disc


def lattice_records_by_word(theta: Mat2Z, box: int, auto: DAutomorphism | None, fmt: str) -> str:
    """The stdout of lattice-points, one word at a time: embed_int and image_word
    per word, a record dict per word, and dump_json per value."""
    prefix = None if auto is None else shift_prefix(theta, auto)
    lines = []
    for q, m, n in product(range(-box, box + 1), repeat=3):
        word = DElement(q, m, n)
        x1, x2, x3 = embed_int(theta, word)
        record = {"q": q, "m": m, "n": n, "x1": x1, "x2": x2, "x3": x3}
        if auto is not None:
            img = image_word(auto, prefix, word)
            y1, y2, y3 = embed_int(theta, img)
            record.update({"image_word": [img.q, img.m, img.n], "y1": y1, "y2": y2, "y3": y3})
        if fmt == JSON_FORMAT:
            lines.append(dump_json(record))
        else:
            lines.append("\t".join(f"{k}={dump_json(v)}" for k, v in record.items()))
    return "".join(line + "\n" for line in lines)


def brute_force_commutants(theta: Mat2Z, bound: int = 5) -> set[Mat2Z]:
    """All unimodular chi with entries in [-bound, bound] commuting with theta."""
    out = set()
    span = range(-bound, bound + 1)
    for a, b, c, d in product(span, repeat=4):
        chi = Mat2Z(a, b, c, d)
        if abs(chi.det()) != 1:
            continue
        if chi @ theta == theta @ chi:
            out.add(chi)
    return out


def brute_force_reversers(theta: Mat2Z, bound: int = 5) -> set[Mat2Z]:
    """All unimodular chi with entries in [-bound, bound] conjugating theta to its inverse."""
    theta_inv = theta.inv()
    out = set()
    span = range(-bound, bound + 1)
    for a, b, c, d in product(span, repeat=4):
        chi = Mat2Z(a, b, c, d)
        if abs(chi.det()) != 1:
            continue
        if chi @ theta == theta_inv @ chi:
            out.add(chi)
    return out


def admissible_thetas(bound: int) -> list[Mat2Z]:
    """All admissible theta (theta_order accepts them) with entries in [-bound, bound]."""
    out = []
    for entries in product(range(-bound, bound + 1), repeat=4):
        try:
            theta_order(Mat2Z(*entries))
        except InvalidThetaError:
            continue
        out.append(Mat2Z(*entries))
    return out


def word_closure(theta: Mat2Z, gens, max_len: int, stop_at=()) -> set[DElement]:
    """Elements reached by words of length <= max_len in gens and their inverses.

    Breadth first; stops after the first length at which every element of
    stop_at has been reached. It can witness that a triple generates, never
    refute it.
    """
    steps = [s for gword in gens for s in (gword, dinv(theta, gword))]
    targets = set(stop_at)
    seen = {IDENTITY_WORD}
    frontier = [IDENTITY_WORD]
    for _ in range(max_len):
        if targets and targets <= seen:
            break
        nxt = []
        for w in frontier:
            for s in steps:
                e = dmul(theta, w, s)
                if e not in seen:
                    seen.add(e)
                    nxt.append(e)
        frontier = nxt
    return seen


def structure_constants_fd(g, basis: str = BASIS_F, h: float = 1e-4) -> np.ndarray:
    """Structure constants from second mixed partials of the product at (0, 0).

    Central differences with step h; the antisymmetrised mixed partial
    C[i,j,l] = d2 psi_i / dx_j dy_l - d2 psi_i / dx_l dy_j.
    """

    def psi(x, y):
        return compose(g, GroupPoint(tuple(x), basis), GroupPoint(tuple(y), basis)).array()

    d2 = np.zeros((3, 3, 3))
    for j in range(3):
        ej = np.zeros(3)
        ej[j] = h
        for l in range(3):
            el = np.zeros(3)
            el[l] = h
            pp = psi(ej, el)
            pm = psi(ej, -el)
            mp = psi(-ej, el)
            mm = psi(-ej, -el)
            d2[:, j, l] = (pp - pm - mp + mm) / (4.0 * h * h)
    return d2 - d2.transpose(0, 2, 1)


def gradient_at_identity(g, phi, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the group automorphism at the identity."""
    grad = np.zeros((3, 3))
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        fp = apply_group_auto_batch(phi, step[None, :])[0]
        fm = apply_group_auto_batch(phi, -step[None, :])[0]
        grad[:, j] = (fp - fm) / (2.0 * h)
    return grad
