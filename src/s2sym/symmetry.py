"""Symmetries of theta in GL2(Z) and the elastic/inelastic classification.

S(theta) is the centralizer of theta in GL2(Z); R(theta) additionally
contains the matrices conjugating theta to its inverse. For admissible
non-scalar theta both are finite (cyclic of order 4 or 6, dihedral of order
8 or 12); for theta = -I they are all of GL2(Z). R(theta) is S(theta) and
the coset Lambda S(theta) of one reversing symmetry Lambda. For non-scalar
theta the reversing symmetries are the reflections in an integer plane of
traceless matrices, on which x^2 + y z = -det is positive definite with
minimum 1; an exact Lagrange reduction finds one, and the coset member with
the lexicographically largest rows is Lambda.

A change of generators of D extends to an automorphism of D exactly when
the images of B and C carry no power of A, the image of A carries A to the
power zeta = +-1, and the 2x2 matrix chi of B/C exponents is unimodular
with theta^zeta chi = chi theta. The automorphism is then determined by
(zeta, chi, beta1, gamma1). It is elastic when it also extends to the
continuous group, which lifts decides exactly. Its action on words has a
closed form, image_word over the table of shift_prefix; the lattice points of
a whole box are built from the same table as integer arrays in
extension.verify_extension, so this module, like all of the integer core,
imports no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product
from math import gcd

from .errors import InternalInconsistencyError, NotAnAutomorphismError
from .intmat import MINUS_IDENTITY, Mat2Z, Vec2Z, int_text, theta_order, theta_power, theta_powers
from .discrete import DElement, GeneratorTriple, GenerationCertificate, generates_d


@dataclass(frozen=True)
class SymmetryGroup:
    """A finite subgroup of GL2(Z), or the marker for all of GL2(Z)."""

    label: str
    elements: tuple[Mat2Z, ...] | None

    @property
    def order(self) -> int | None:
        return None if self.elements is None else len(self.elements)


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


def reversing_symmetry(theta: Mat2Z) -> Mat2Z:
    """The reversing symmetry Lambda (Lambda theta Lambda^{-1} = theta^{-1}) with the
    lexicographically largest rows.

    For non-scalar theta = ((a, b), (c, d)) the integer solutions of
    Lambda theta = theta^{-1} Lambda form the plane Lambda = ((x, y), (z, -x)),
    (a - d) x + c y + b z = 0. Since (a - d)^2 + 4 b c = tr^2 - 4 is -3 or -4,
    gcd(a - d, b, c) = 1, and with g = gcd(b, c) the plane has the integer basis
    (0, b/g, -c/g), (g, -(a - d) u, -(a - d)(1 - u c/g)/(b/g)) with u c/g = 1 mod b/g.
    -det Lambda = x^2 + y z is positive definite there with minimum 1, so an
    exact Lagrange reduction of 2(x^2 + y z) puts a reflection first. Every
    reversing symmetry lies in its coset Lambda S(theta); the lexicographically
    largest rows of that coset are returned. For theta = -I every matrix works
    and diag(1, -1) is returned.
    """
    theta_order(theta)
    if theta == MINUS_IDENTITY:
        return Mat2Z(1, 0, 0, -1)
    e, g = theta.a - theta.d, gcd(theta.b, theta.c)
    b, c = theta.b // g, theta.c // g
    u = pow(c, -1, abs(b))
    v, w = (0, b, -c), (g, -e * u, -e * (1 - u * c) // b)

    def form(s, t):  # the bilinear form of 2 (x^2 + y z)
        return 2 * s[0] * t[0] + s[1] * t[2] + s[2] * t[1]

    while True:
        v, w = sorted((v, w), key=lambda s: form(s, s))
        k = (2 * form(v, w) + form(v, v)) // (2 * form(v, v))
        if k == 0:
            break
        w = tuple(t - k * s for s, t in zip(v, w))
    lam = Mat2Z(v[0], v[1], v[2], -v[0])
    if abs(lam.det()) != 1:
        raise InternalInconsistencyError(f"reduced plane vector {lam} is not unimodular")
    if lam @ theta != theta.inv() @ lam:
        raise InternalInconsistencyError("plane vector fails the defining relation")
    return max((lam @ s for s in _signed_powers(theta)), key=Mat2Z.rows)


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


def check_d_automorphism(theta: Mat2Z, phi: DAutomorphism) -> None:
    """Raise NotAnAutomorphismError unless phi is valid for this theta."""
    if phi.zeta not in (1, -1):
        raise NotAnAutomorphismError(f"zeta must be +1 or -1, got {phi.zeta}")
    if abs(det := phi.chi.det()) != 1:
        raise NotAnAutomorphismError(f"chi has det {int_text(det)}, not +-1")
    if theta_power(theta, phi.zeta) @ phi.chi != phi.chi @ theta:
        raise NotAnAutomorphismError("theta^zeta chi != chi theta")


def _d_automorphism_or_reason(
    theta: Mat2Z, triple: GeneratorTriple
) -> tuple[DAutomorphism | None, str | None]:
    g1, g2, g3 = triple.words
    if g2.q != 0 or g3.q != 0:
        # g2 g3 = g3 g2 iff theta^{-q3} v2 + v3 = theta^{-q2} v3 + v2 (the rule of discrete.dmul)
        powers = theta_powers(theta)
        t2, t3 = powers[-g3.q % len(powers)].apply((g2.m, g2.n)), powers[-g2.q % len(powers)].apply((g3.m, g3.n))
        if (t2[0] + g3.m, t2[1] + g3.n) != (t3[0] + g2.m, t3[1] + g2.n):
            return None, "images of B and C do not commute (they carry powers of A)"
        return None, f"images of B and C commute but carry A^{int_text(g2.q)} and A^{int_text(g3.q)}, need A^0"
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
        check_d_automorphism(theta, DAutomorphism(zeta, chi, 0, 0))
        out.extend(DAutomorphism(zeta, chi, b1, g1) for b1 in beta1_range for g1 in gamma1_range)
    return out
