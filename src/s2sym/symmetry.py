"""Symmetries of theta in GL2(Z) and the elastic/inelastic classification.

S(theta) is the centralizer of theta in GL2(Z); R(theta) additionally
contains the matrices conjugating theta to its inverse. For admissible
non-scalar theta both are finite (cyclic of order 4 or 6, dihedral of order
8 or 12); for theta = -I they are all of GL2(Z).

A change of generators of D extends to an automorphism of D exactly when
the images of B and C carry no power of A, the image of A carries A to the
power zeta = +-1, and the 2x2 matrix chi of B/C exponents is unimodular
with theta^zeta chi = chi theta. The automorphism is then determined by
(zeta, chi, beta1, gamma1). It is elastic when it also extends to the
continuous group, which lifts decides exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from math import gcd, lcm

from .errors import InternalInconsistencyError, NotAnAutomorphismError
from .intmat import (
    IDENTITY,
    MINUS_IDENTITY,
    Mat2Z,
    Vec2Z,
    theta_order,
    theta_power,
    theta_powers,
)
from .discrete import DElement, GeneratorTriple, GenerationCertificate, generates_d


@dataclass(frozen=True)
class SymmetryGroup:
    """A finite subgroup of GL2(Z), or the marker for all of GL2(Z)."""

    label: str
    elements: tuple[Mat2Z, ...] | None

    @property
    def is_all_gl2z(self) -> bool:
        return self.elements is None

    @property
    def order(self) -> int | None:
        return None if self.elements is None else len(self.elements)

    def contains(self, chi: Mat2Z) -> bool:
        if self.elements is None:
            return abs(chi.det()) == 1
        return chi in self.elements


def _signed_powers(theta: Mat2Z) -> tuple[Mat2Z, ...]:
    return tuple(dict.fromkeys(c for pm in theta_powers(theta) for c in (pm, -pm)))


def centralizer(theta: Mat2Z) -> SymmetryGroup:
    """All unimodular integer matrices commuting with theta."""
    theta_order(theta)
    if theta == MINUS_IDENTITY:
        return SymmetryGroup("GL2Z", None)
    elements = _signed_powers(theta)
    label = {4: "C4", 6: "C6"}[len(elements)]
    return SymmetryGroup(label, elements)


def _nullspace_basis(rows: list[list[int]]) -> list[tuple[int, ...]]:
    """Primitive integer basis of the rational nullspace of an integer matrix.

    Each basis vector is scaled to coprime integers with its first nonzero
    entry positive; the basis is sorted lexicographically descending so the
    downstream search is deterministic.
    """
    m = [[Fraction(v) for v in row] for row in rows]
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        # scale to primitive integers with sign normalisation
        den = lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = gcd(*ints)
        if g:
            ints = [x // g for x in ints]
        lead = next((x for x in ints if x != 0), 1)
        if lead < 0:
            ints = [-x for x in ints]
        basis.append(tuple(ints))
    basis.sort(reverse=True)
    return basis


def reversing_symmetry(theta: Mat2Z) -> Mat2Z:
    """Some unimodular Lambda with Lambda theta Lambda^{-1} = theta^{-1}.

    Found by solving Lambda theta = theta^{-1} Lambda over the integers
    (a rank-2 solution space) and scanning small coefficient pairs for a
    unimodular combination; the scan order is fixed, so the result is
    deterministic. For theta = -I every matrix works and diag(1, -1) is
    returned.
    """
    theta_order(theta)
    if theta == MINUS_IDENTITY:
        return Mat2Z(1, 0, 0, -1)
    a, b, c, d = theta.a, theta.b, theta.c, theta.d
    rows = [
        [a - d, c, b, 0],
        [b, 0, 0, b],
        [c, 0, 0, c],
        [0, c, b, d - a],
    ]
    basis = _nullspace_basis(rows)
    if len(basis) != 2:
        raise InternalInconsistencyError(
            f"reversing-symmetry solution space has rank {len(basis)}, expected 2"
        )
    v1, v2 = basis
    theta_inv = theta.inv()
    for radius in range(1, 11):
        for c1 in range(radius, -radius - 1, -1):
            for c2 in range(radius, -radius - 1, -1):
                if max(abs(c1), abs(c2)) != radius:
                    continue
                cand = Mat2Z(*(c1 * x + c2 * y for x, y in zip(v1, v2)))
                if abs(cand.det()) != 1:
                    continue
                if cand @ theta != theta_inv @ cand:
                    raise InternalInconsistencyError("nullspace vector fails the defining relation")
                return cand
    raise InternalInconsistencyError("no unimodular reversing symmetry in the search box")


def reversing_group(theta: Mat2Z) -> SymmetryGroup:
    """S(theta) together with all reversing symmetries of theta."""
    theta_order(theta)
    if theta == MINUS_IDENTITY:
        return SymmetryGroup("GL2Z", None)
    sym = centralizer(theta)
    lam = reversing_symmetry(theta)
    reversing = tuple(lam @ s for s in sym.elements)
    elements = sym.elements + reversing
    if len(set(elements)) != len(elements):
        raise InternalInconsistencyError("reversing coset overlaps the centralizer")
    label = {8: "D4", 12: "D6"}[len(elements)]
    return SymmetryGroup(label, elements)


@dataclass(frozen=True)
class DAutomorphism:
    """An automorphism of D: A maps to A^zeta B^beta1 C^gamma1, and the
    B/C exponent matrix is chi."""

    zeta: int
    chi: Mat2Z
    beta1: int
    gamma1: int

    @classmethod
    def identity(cls) -> "DAutomorphism":
        return cls(1, IDENTITY, 0, 0)


def check_d_automorphism(theta: Mat2Z, phi: DAutomorphism) -> None:
    """Raise NotAnAutomorphismError unless phi is valid for this theta."""
    if phi.zeta not in (1, -1):
        raise NotAnAutomorphismError(f"zeta must be +1 or -1, got {phi.zeta}")
    if abs(phi.chi.det()) != 1:
        raise NotAnAutomorphismError(f"chi has det {phi.chi.det()}, not +-1")
    if theta_power(theta, phi.zeta) @ phi.chi != phi.chi @ theta:
        raise NotAnAutomorphismError("theta^zeta chi != chi theta")


def as_d_automorphism(theta: Mat2Z, triple: GeneratorTriple) -> DAutomorphism | None:
    auto, _ = _d_automorphism_or_reason(theta, triple)
    return auto


def _d_automorphism_or_reason(
    theta: Mat2Z, triple: GeneratorTriple
) -> tuple[DAutomorphism | None, str | None]:
    g1, g2, g3 = triple.words
    if g2.q != 0 or g3.q != 0:
        return None, "images of B and C do not commute (they carry powers of A)"
    if g1.q not in (1, -1):
        return None, f"image of A carries A^{g1.q}, need exponent +-1"
    chi = Mat2Z(g2.m, g3.m, g2.n, g3.n)
    phi = DAutomorphism(g1.q, chi, g1.m, g1.n)
    try:
        check_d_automorphism(theta, phi)
    except NotAnAutomorphismError as exc:
        return None, str(exc)
    return phi, None


def shift_prefix(theta: Mat2Z, phi: DAutomorphism) -> tuple[Vec2Z, ...]:
    """Check phi once, then tabulate s(r) = sum_{j<r} theta^{-zeta j} (beta1, gamma1),
    the B/C exponents of phi(A)^r, for 0 <= r < p. No admissible theta has
    eigenvalue 1, so a full period sums to zero: s(q) = s(q mod p) for all q.
    """
    check_d_automorphism(theta, phi)
    powers = theta_powers(theta)
    shift = (phi.beta1, phi.gamma1)
    steps = (powers[-phi.zeta * j % len(powers)].apply(shift) for j in range(len(powers) - 1))
    return tuple(accumulate(steps, lambda s, v: (s[0] + v[0], s[1] + v[1]), initial=(0, 0)))


def image_word(phi: DAutomorphism, prefix: tuple[Vec2Z, ...], d: DElement) -> DElement:
    """The image (zeta q, s(q) + chi (m, n)) of A^q B^m C^n, given prefix = shift_prefix(theta, phi)."""
    s1, s2 = prefix[d.q % len(prefix)]
    chi = phi.chi
    return DElement(phi.zeta * d.q, s1 + chi.a * d.m + chi.b * d.n, s2 + chi.c * d.m + chi.d * d.n)


def box_points(theta: Mat2Z, phi: DAutomorphism, prefix: tuple[Vec2Z, ...], qs, span) -> tuple[list, list]:
    """embed_int of the words A^q B^m C^n (q in qs, m and n in span) and of
    their image_word under phi, as two lists of exact points, q slice by q slice."""
    powers = theta_powers(theta)
    p, zeta = len(powers), phi.zeta
    plane = [(m, n) for m in span for n in span]
    sources, images = [], []
    for q in qs:
        t, ti = powers[q % p], powers[zeta * q % p]
        u, (o1, o2) = ti @ phi.chi, ti.apply(prefix[q % p])
        sources += [(t.a * m + t.b * n, t.c * m + t.d * n, q) for m, n in plane]
        images += [(u.a * m + u.b * n + o1, u.c * m + u.d * n + o2, zeta * q) for m, n in plane]
    return sources, images


def apply_d_automorphism(theta: Mat2Z, phi: DAutomorphism, d: DElement) -> DElement:
    """Image of a word under phi, in exact closed form (see shift_prefix)."""
    return image_word(phi, shift_prefix(theta, phi), d)


NOT_LIFTING = (
    "the automorphism of D does not extend to the continuous group "
    "(theta = -I: zeta = +1 needs a rotation chi, zeta = -1 a reflection)"
)


def lifts(theta: Mat2Z, zeta: int, chi: Mat2Z) -> bool:
    """Whether an automorphism (zeta, chi, beta1, gamma1) of D extends to the group.

    For non-scalar theta the intertwining relation theta^zeta chi = chi theta
    forces the lift. For theta = -I that relation is vacuous, and the lift
    exists only when chi keeps the square frame of the instance (whose
    derivative is a quarter-turn generator): zeta = +1 needs a rotation
    (a = d, b = -c), zeta = -1 a reflection (a = -d, b = c).
    """
    if theta != MINUS_IDENTITY:
        return True
    if zeta == 1:
        return chi.a == chi.d and chi.b == -chi.c
    return chi.a == -chi.d and chi.b == chi.c


NOT_A_SYMMETRY = "not_a_symmetry"
ELASTIC = "elastic"
INELASTIC = "inelastic"


@dataclass(frozen=True)
class SymmetryClassification:
    """Verdict for a change of generators, with the evidence attached."""

    kind: str
    certificate: GenerationCertificate
    automorphism: DAutomorphism | None
    reason: str | None


def classify_symmetry(theta: Mat2Z, triple: GeneratorTriple) -> SymmetryClassification:
    """Classify a change of generators of D.

    Triples that do not generate D are reported distinctly (they are not
    symmetries at all, so the elastic/inelastic split does not apply). A
    generating triple is elastic when it is an automorphism of D that
    extends to the continuous group. Otherwise it is inelastic, with the
    reason; an automorphism that does not lift (only possible for theta = -I)
    stays attached.
    """
    cert = generates_d(theta, triple)
    if not cert.generates:
        return SymmetryClassification(NOT_A_SYMMETRY, cert, None, cert.violated)
    auto, reason = _d_automorphism_or_reason(theta, triple)
    if auto is None:
        return SymmetryClassification(INELASTIC, cert, None, reason)
    if not lifts(theta, auto.zeta, auto.chi):
        return SymmetryClassification(INELASTIC, cert, auto, NOT_LIFTING)
    return SymmetryClassification(ELASTIC, cert, auto, None)


def enumerate_elastic(theta: Mat2Z, beta1_range, gamma1_range) -> list[DAutomorphism]:
    """All elastic automorphisms of D with beta1, gamma1 in the given ranges.

    For non-scalar theta every automorphism is elastic: chi runs over
    R(theta), each paired with the zeta that satisfies the intertwining
    relation. For theta = -I every unimodular chi gives an automorphism, but
    only eight (zeta, chi) pairs lift (see lifts): the four rotations with
    zeta = +1 and the four reflections with zeta = -1.
    """
    theta_order(theta)
    beta1_range = list(beta1_range)
    gamma1_range = list(gamma1_range)
    if theta == MINUS_IDENTITY:
        # A lifting chi has a^2 + b^2 = 1, so its entries lie in {-1, 0, 1}.
        chis = [Mat2Z(*e) for e in product((-1, 0, 1), repeat=4)]
        pairs = [(z, chi) for z in (1, -1) for chi in chis if abs(chi.det()) == 1 and lifts(theta, z, chi)]
    else:
        sym = centralizer(theta)
        rev = reversing_group(theta)
        sym_set = set(sym.elements)
        pairs = [(1, chi) for chi in sym.elements]
        pairs.extend((-1, chi) for chi in rev.elements if chi not in sym_set)
    out = []
    for zeta, chi in pairs:
        for beta1 in beta1_range:
            for gamma1 in gamma1_range:
                phi = DAutomorphism(zeta, chi, beta1, gamma1)
                check_d_automorphism(theta, phi)
                out.append(phi)
    return out
