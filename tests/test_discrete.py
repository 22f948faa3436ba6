import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from s2sym import (
    DElement,
    GeneratorTriple,
    Mat2Z,
    NotGeneratingError,
    dinv,
    dmul,
    dpow,
    embed_int,
    generates_d,
    make_group,
    reduce_generators,
    tau_vectors,
)
from s2sym.discrete import GEN_A, GEN_B, GEN_C, IDENTITY_WORD, ReducedTriple
from s2sym.intmat import IDENTITY, theta_order
from continuous import compose
from oracles import (
    MAT4_IDENTITY,
    admissible_thetas,
    dcommutator,
    dpow_by_squaring,
    embed,
    mat4_mul,
    rmat,
    word_at,
    word_closure,
)

THETA4 = Mat2Z(0, 1, -1, 0)
THETA3 = Mat2Z(0, 1, -1, -1)
THETA6 = Mat2Z(1, 1, -1, 0)
THETA2 = Mat2Z(-1, 0, 0, -1)

thetas = st.sampled_from([THETA2, THETA3, THETA4, THETA6])
words = st.builds(DElement, st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))


def test_dmul_examples():
    assert dmul(THETA4, GEN_A, GEN_B) == DElement(1, 1, 0)
    # B A = A C for this theta
    assert dmul(THETA4, GEN_B, GEN_A) == DElement(1, 0, 1)


@given(thetas, words)
def test_inverse_word(theta, d):
    assert dmul(theta, d, dinv(theta, d)) == IDENTITY_WORD
    assert dmul(theta, dinv(theta, d), d) == IDENTITY_WORD


@given(thetas, words, words, words)
def test_dmul_associative(theta, d1, d2, d3):
    lhs = dmul(theta, dmul(theta, d1, d2), d3)
    rhs = dmul(theta, d1, dmul(theta, d2, d3))
    assert lhs == rhs


@given(thetas, words, st.integers(-9, 9))
def test_dpow_matches_repeated_product(theta, d, e):
    expected = IDENTITY_WORD
    step = d if e >= 0 else dinv(theta, d)
    for _ in range(abs(e)):
        expected = dmul(theta, expected, step)
    assert dpow(theta, d, e) == expected == dpow_by_squaring(theta, d, e)


# every admissible theta with entries in [-3, 3], -I among them
ADMISSIBLE3 = admissible_thetas(3)


@given(
    st.sampled_from(ADMISSIBLE3),
    st.integers(-(2**64), 2**64),
    st.integers(-(2**62), 2**62),
    st.integers(-(2**62), 2**62),
    st.integers(-(2**200), 2**200),
)
@settings(max_examples=300)
def test_dpow_matches_squaring_oracle(theta, q, m, n, e):
    d = DElement(q, m, n)
    assert dpow(theta, d, e) == dpow_by_squaring(theta, d, e)


@pytest.mark.parametrize("theta", ADMISSIBLE3, ids=lambda t: ",".join(map(str, (t.a, t.b, t.c, t.d))))
def test_dpow_matches_squaring_oracle_at_period_multiples(theta):
    # q = 0 mod p takes e v; e = 0 mod p sums whole periods to zero; e = +-1 is d or its inverse
    p = theta_order(theta)
    for q in (0, p, -3 * p, p * 2**60, 1, -1, 2**64 - 1):
        d = DElement(q, 2**62 - 1, -(2**62) + 3)
        for e in (0, p, -p, p * 2**190, -p * 2**190 - 1, 1, -1, 2**200):
            assert dpow(theta, d, e) == dpow_by_squaring(theta, d, e)
        assert dpow(theta, d, 1) == d and dpow(theta, d, -1) == dinv(theta, d)


def test_commutator_relations():
    # (A,B) = B^{1-d} C^c and (A,C) = B^b C^{1-a}; (B,C) trivial
    for theta in (THETA2, THETA3, THETA4, THETA6):
        a, b, c, d = theta.a, theta.b, theta.c, theta.d
        assert dcommutator(theta, GEN_A, GEN_B) == DElement(0, 1 - d, c)
        assert dcommutator(theta, GEN_A, GEN_C) == DElement(0, b, 1 - a)
        assert dcommutator(theta, GEN_B, GEN_C) == IDENTITY_WORD


def test_commutator_example_values():
    assert dcommutator(THETA4, GEN_A, GEN_B) == DElement(0, 1, -1)
    assert dcommutator(THETA4, GEN_A, GEN_C) == DElement(0, 1, 1)


def test_rmat_examples():
    assert rmat(THETA4, IDENTITY_WORD) == MAT4_IDENTITY
    a_mat = rmat(THETA4, GEN_A)
    assert a_mat[0][:2] == (0, 1) and a_mat[1][:2] == (-1, 0)
    assert a_mat[2] == (0, 0, 1, 1)
    assert a_mat[0][3] == 0 and a_mat[1][3] == 0


@given(thetas, words, words)
@settings(max_examples=500)
def test_rmat_is_a_homomorphism(theta, d1, d2):
    assert mat4_mul(rmat(theta, d1), rmat(theta, d2)) == rmat(theta, dmul(theta, d1, d2))


def test_embed_examples():
    g = make_group(THETA4, 1)
    assert embed_int(THETA4, IDENTITY_WORD) == (0, 0, 0)
    assert embed_int(THETA4, GEN_B) == (1, 0, 0)
    assert embed_int(THETA4, GEN_C) == (0, 1, 0)
    assert embed_int(THETA4, GEN_A) == (0, 0, 1)
    assert embed_int(THETA4, DElement(1, 1, 0)) == (0, -1, 1)
    assert embed(g, DElement(1, 1, 0)).coords == (0.0, -1.0, 1.0)
    assert embed(g, GEN_A).basis == "e"


def test_embed_respects_composition():
    g = make_group(THETA4, 1)
    rng = np.random.default_rng(20)
    for _ in range(100):
        d1 = DElement(*rng.integers(-4, 5, 3))
        d2 = DElement(*rng.integers(-4, 5, 3))
        lhs = compose(g, embed(g, d1), embed(g, d2)).coords
        rhs = embed(g, dmul(THETA4, d1, d2)).coords
        assert np.max(np.abs(np.subtract(lhs, rhs))) < 1e-9


@pytest.mark.parametrize("theta", [THETA2, THETA3, THETA4, THETA6])
def test_lattice_is_exactly_z3(theta):
    # every integer point in the box is the embedding of exactly one word
    box = 4
    span = range(-box, box + 1)
    for x1 in span:
        for x2 in span:
            for x3 in span:
                w = word_at(theta, (x1, x2, x3))
                assert embed_int(theta, w) == (x1, x2, x3)
    # and embedding is injective on words
    seen = {}
    for q in span:
        for m in span:
            for n in span:
                w = DElement(q, m, n)
                pt = embed_int(theta, w)
                assert pt not in seen, (w, seen[pt])
                seen[pt] = w


def test_reduce_generators_already_reduced():
    rt = reduce_generators(THETA4, GeneratorTriple(GEN_A, GEN_B, GEN_C))
    assert rt == ReducedTriple(0, 0, IDENTITY)
    rt = reduce_generators(THETA4, GeneratorTriple(DElement(1, 1, 0), GEN_B, GEN_C))
    assert rt == ReducedTriple(1, 0, IDENTITY)


def test_reduce_generators_euclid():
    triple = GeneratorTriple(DElement(2, 0, 0), DElement(3, 0, 0), GEN_C)
    rt = reduce_generators(THETA4, triple)
    ex = rt.exponents
    words = (DElement(1, rt.beta1, rt.gamma1), DElement(0, ex.a, ex.c), DElement(0, ex.b, ex.d))
    assert words[0].q == 1 and words[1].q == 0 and words[2].q == 0
    # mutual reachability of the generators proves the subgroups are equal
    assert set(words) <= word_closure(THETA4, triple.words, 12, words)
    assert set(triple.words) <= word_closure(THETA4, words, 12, triple.words)
    # spot-check membership agreement on nearby elements of both closures
    rng = np.random.default_rng(21)
    orig_list = sorted(word_closure(THETA4, triple.words, 2), key=lambda w: (w.q, w.m, w.n))
    for idx in rng.choice(len(orig_list), size=20, replace=False):
        assert orig_list[idx] in word_closure(THETA4, words, 12, [orig_list[idx]])
    red_list = sorted(word_closure(THETA4, words, 3), key=lambda w: (w.q, w.m, w.n))
    for idx in rng.choice(len(red_list), size=20, replace=False):
        assert red_list[idx] in word_closure(THETA4, triple.words, 12, [red_list[idx]])


def test_reduce_generators_requires_coprime_a_exponents():
    with pytest.raises(NotGeneratingError):
        reduce_generators(THETA4, GeneratorTriple(DElement(2, 0, 0), GEN_B, GEN_C))


def test_tau_vectors_examples():
    rt = ReducedTriple(0, 0, IDENTITY)
    assert tau_vectors(THETA4, rt) == ((1, 0), (0, 1), (0, -1), (1, 0))
    rt2 = ReducedTriple(0, 0, Mat2Z(2, 0, 0, 2))
    assert tau_vectors(THETA4, rt2) == ((2, 0), (0, 2), (0, -2), (2, 0))
    rt0 = ReducedTriple(0, 0, Mat2Z(0, 0, 0, 0))
    assert tau_vectors(THETA4, rt0) == ((0, 0), (0, 0), (0, 0), (0, 0))


def test_generates_decision():
    yes = generates_d(THETA4, GeneratorTriple(GEN_A, GEN_B, GEN_C))
    assert yes.generates and yes.violated is None

    squares = GeneratorTriple(GEN_A, DElement(0, 2, 0), DElement(0, 0, 2))
    no_rows = generates_d(THETA4, squares)
    assert not no_rows.generates and no_rows.violated == "5.11"

    doubled_a = GeneratorTriple(DElement(2, 0, 0), GEN_B, GEN_C)
    no_hcf = generates_d(THETA4, doubled_a)
    assert not no_hcf.generates and no_hcf.violated == "hcf(alpha)"


def test_generates_wedge_condition():
    # rows coprime but every pairwise wedge even: chi = ((1,1),(1,-1))
    triple = GeneratorTriple(GEN_A, DElement(0, 1, 1), DElement(0, 1, -1))
    cert = generates_d(THETA4, triple)
    assert not cert.generates and cert.violated == "5.12"


def test_accepted_triples_reach_all_generators():
    for triple in (
        GeneratorTriple(GEN_A, GEN_B, GEN_C),
        GeneratorTriple(DElement(2, 0, 0), DElement(3, 0, 0), GEN_C),
        GeneratorTriple(DElement(1, 1, 0), GEN_B, GEN_C),
    ):
        assert generates_d(THETA4, triple).generates
        assert {GEN_A, GEN_B, GEN_C} <= word_closure(THETA4, triple.words, 12, [GEN_A, GEN_B, GEN_C])
