"""Exact word arithmetic on the discrete subgroup D(theta).

Every element of D has a unique normal form A^q B^m C^n (powers of A
collected on the left; B and C commute). The normal form embeds into the
group manifold at the integer point (theta^q (m, n), q) in "e" coordinates,
and the whole of D is exactly the integer lattice Z^3 under the twisted
product. The multiplication rule on normal forms,

    (q1, m1, n1) * (q2, m2, n2) = (q1 + q2, theta^{-q2} (m1, n1) + (m2, n2)),

is forced by the 4x4 integer matrix representation of D; the test oracles
check it against that representation. So (q, v)^e = (e q, sum_{j<e} theta^{-q j} v),
and as no admissible theta has eigenvalue 1, a full period of theta^q sums to
zero unless theta^q = I: dpow adds e mod p terms, or takes e v. No floats here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotGeneratingError
from .intmat import Mat2Z, Vec2Z, hcf_all, theta_power, theta_powers


@dataclass(frozen=True)
class DElement:
    """Normal form A^q B^m C^n, stored as exact integers."""

    q: int
    m: int
    n: int


IDENTITY_WORD = DElement(0, 0, 0)
GEN_A = DElement(1, 0, 0)
GEN_B = DElement(0, 1, 0)
GEN_C = DElement(0, 0, 1)


def dmul(theta: Mat2Z, d1: DElement, d2: DElement) -> DElement:
    tm = theta_power(theta, -d2.q)
    m, n = tm.apply((d1.m, d1.n))
    return DElement(d1.q + d2.q, m + d2.m, n + d2.n)


def dinv(theta: Mat2Z, d: DElement) -> DElement:
    m, n = theta_power(theta, d.q).apply((d.m, d.n))
    return DElement(-d.q, -m, -n)


def dpow(theta: Mat2Z, d: DElement, e: int) -> DElement:
    """d^e = (e q, sum_{j<e} theta^{-q j} (m, n)); the sum keeps e mod p terms
    (a full period of theta^q sums to zero), or all e when theta^q = I."""
    if e < 0:
        d, e = dinv(theta, d), -e
    powers = theta_powers(theta)
    p = len(powers)
    if d.q % p == 0:
        return DElement(e * d.q, e * d.m, e * d.n)
    m = n = 0
    for j in range(e % p):
        t = powers[-d.q * j % p]
        m, n = m + t.a * d.m + t.b * d.n, n + t.c * d.m + t.d * d.n
    return DElement(e * d.q, m, n)


def embed_int(theta: Mat2Z, d: DElement) -> tuple[int, int, int]:
    """Exact "e"-frame lattice coordinates (theta^q (m, n), q) of a word."""
    x1, x2 = theta_power(theta, d.q).apply((d.m, d.n))
    return (x1, x2, d.q)


@dataclass(frozen=True)
class GeneratorTriple:
    """Three candidate generators of D in normal form."""

    g1: DElement
    g2: DElement
    g3: DElement

    @property
    def words(self) -> tuple[DElement, DElement, DElement]:
        return (self.g1, self.g2, self.g3)

    @property
    def alphas(self) -> tuple[int, int, int]:
        return (self.g1.q, self.g2.q, self.g3.q)


@dataclass(frozen=True)
class ReducedTriple:
    """An equivalent triple with A-exponents (1, 0, 0).

    beta1, gamma1 are the B/C exponents of the A-carrying generator;
    exponents holds the 2x2 matrix ((b2, b3), (g2, g3)) of the other two.
    """

    beta1: int
    gamma1: int
    exponents: Mat2Z


def reduce_generators(theta: Mat2Z, triple: GeneratorTriple) -> ReducedTriple:
    """Nielsen-reduce a triple so the first generator carries A exactly once.

    Requires hcf of the A-exponents to be 1. The moves used (multiply one
    generator by a power of another, invert, swap) never change the
    generated subgroup; the Euclid schedule on A-exponents terminates since
    the sum of their absolute values strictly decreases.
    """
    if (h := hcf_all(triple.alphas)) != 1:
        raise NotGeneratingError(f"hcf of A-exponents {triple.alphas} is {h}, not 1")
    gens = list(triple.words)
    while True:
        nonzero = [i for i in range(3) if gens[i].q != 0]
        if len(nonzero) == 1:
            break
        j = min(nonzero, key=lambda i: abs(gens[i].q))
        for i in nonzero:
            if i == j:
                continue
            t = gens[i].q // gens[j].q
            gens[i] = dmul(theta, gens[i], dpow(theta, gens[j], -t))
    idx = next(i for i in range(3) if gens[i].q != 0)
    if gens[idx].q == -1:
        gens[idx] = dinv(theta, gens[idx])
    gens[0], gens[idx] = gens[idx], gens[0]
    assert gens[0].q == 1 and gens[1].q == 0 and gens[2].q == 0
    return ReducedTriple(
        beta1=gens[0].m,
        gamma1=gens[0].n,
        exponents=Mat2Z(gens[1].m, gens[2].m, gens[1].n, gens[2].n),
    )


def tau_vectors(theta: Mat2Z, reduced: ReducedTriple) -> tuple[Vec2Z, Vec2Z, Vec2Z, Vec2Z]:
    """The four integer test vectors of a reduced triple: the exponent
    columns and their images under theta."""
    ex = reduced.exponents
    t1 = (ex.a, ex.c)
    t2 = (ex.b, ex.d)
    return (t1, t2, theta.apply(t1), theta.apply(t2))


def _wedge(u: Vec2Z, v: Vec2Z) -> int:
    return u[0] * v[1] - u[1] * v[0]


@dataclass(frozen=True)
class GenerationCertificate:
    """Outcome of the generator decision, with the data that settles it.

    violated is None on success, otherwise the first failed condition:
    "hcf(alpha)" (A-exponents not coprime), "5.11" (a component row of the
    tau vectors has hcf > 1) or "5.12" (the pairwise wedges do).
    """

    generates: bool
    violated: str | None
    reduced: ReducedTriple | None
    taus: tuple[Vec2Z, Vec2Z, Vec2Z, Vec2Z] | None


def generates_d(theta: Mat2Z, triple: GeneratorTriple) -> GenerationCertificate:
    """Decide whether a triple generates all of D(theta)."""
    if hcf_all(triple.alphas) != 1:
        return GenerationCertificate(False, "hcf(alpha)", None, None)
    reduced = reduce_generators(theta, triple)
    taus = tau_vectors(theta, reduced)
    row1 = [t[0] for t in taus]
    row2 = [t[1] for t in taus]
    if hcf_all(row1) != 1 or hcf_all(row2) != 1:
        return GenerationCertificate(False, "5.11", reduced, taus)
    wedges = [_wedge(taus[i], taus[j]) for i in range(4) for j in range(i + 1, 4)]
    if hcf_all(wedges) != 1:
        return GenerationCertificate(False, "5.12", reduced, taus)
    return GenerationCertificate(True, None, reduced, taus)
