"""Acceptance suite: one test per criterion, each printing its verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here, not configurable.
"""

import time

import numpy as np

from s2sym import (
    DAutomorphism,
    DElement,
    GeneratorTriple,
    Mat2Z,
    apply_d_automorphism,
    centralizer,
    dmul,
    enumerate_elastic,
    extend,
    generates_d,
    make_group,
    r_eps,
    reversing_group,
    theta_order,
    uniqueness_probe,
    verify_extension,
)
from s2sym.autos import apply_group_auto_batch
from s2sym.discrete import GEN_A, GEN_B, GEN_C
from s2sym.intmat import IDENTITY, MINUS_IDENTITY
from s2sym.branch import first_branches
from continuous import (
    compose,
    convert_basis,
    epoint,
    exp_map,
    f_structure_constants,
    fpoint,
    frame_matrix,
    r_eps_at_q,
)
from oracles import brute_force_commutants, mat2z_pow, rk4_flow, structure_constants_fd, word_closure

THETA4 = Mat2Z(0, 1, -1, 0)     # trace 0
THETA3 = Mat2Z(0, 1, -1, -1)    # trace -1
THETA6 = Mat2Z(1, 1, -1, 0)     # trace 1
THETA2 = MINUS_IDENTITY          # trace -2
NON_SCALAR = (THETA4, THETA3, THETA6)


def _report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_centralizer_trace_zero():
    start = time.perf_counter()
    sym = centralizer(THETA4)
    expected = {IDENTITY, MINUS_IDENTITY, THETA4, -THETA4}
    brute = brute_force_commutants(THETA4, 5)
    elapsed = time.perf_counter() - start
    ok = set(sym.elements) == expected == brute and sym.order == 4 and elapsed < 1.0
    _report(1, ok, f"S(theta) = +-I, +-theta exactly, order 4, brute force agrees ({elapsed:.2f}s)")


def test_criterion_02_centralizer_trace_pm_one():
    details = []
    ok = True
    for theta in (THETA3, THETA6):
        start = time.perf_counter()
        sym = centralizer(theta)
        theta2 = theta @ theta
        expected = {IDENTITY, MINUS_IDENTITY, theta, -theta, theta2, -theta2}
        brute = brute_force_commutants(theta, 5)
        elapsed = time.perf_counter() - start
        ok = ok and set(sym.elements) == expected == brute and sym.order == 6 and elapsed < 1.0
        details.append(f"trace {theta.trace()}: order 6 in {elapsed:.2f}s")
    _report(2, ok, "; ".join(details))


def test_criterion_03_reversing_groups():
    start = time.perf_counter()
    ok = True
    sizes = []
    for theta, want in ((THETA4, 8), (THETA3, 12), (THETA6, 12)):
        rev = reversing_group(theta)
        elements = set(rev.elements)
        sym = set(centralizer(theta).elements)
        ok = ok and rev.order == want
        ok = ok and all(x @ y in elements for x in elements for y in elements)
        ok = ok and all(x.inv() in elements for x in elements)
        ok = ok and all(r @ s @ r.inv() in sym for r in elements for s in sym)
        ok = ok and 2 * len(sym) == len(elements)
        sizes.append(f"|R|={rev.order}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(3, ok, f"{', '.join(sizes)}; closed, centralizer normal of index 2 ({elapsed:.2f}s)")


def test_criterion_04_finite_order():
    ok = True
    pairs = []
    for theta in (THETA2, THETA3, THETA4, THETA6):
        p = theta_order(theta)
        ok = ok and mat2z_pow(theta, p) == IDENTITY
        pairs.append(f"trace {theta.trace()}: p={p}")
    _report(4, ok, "; ".join(pairs))


def test_criterion_05_every_automorphism_lifts():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    ok = True
    for theta in NON_SCALAR:
        for n in first_branches(theta.trace(), 2):
            g = make_group(theta, n)
            for phi_d in enumerate_elastic(theta, range(-3, 4), range(-3, 4)):
                report = verify_extension(g, phi_d, extend(g, phi_d), 3)
                worst = max(worst, report.max_discrepancy)
                count += 1
                if not (report.passed and report.max_discrepancy < 1e-9):
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(5, ok, f"{count} automorphisms x box 3, max discrepancy {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_06_uniqueness():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        theta = NON_SCALAR[rng.integers(0, 3)]
        n = first_branches(theta.trace(), 2)[rng.integers(0, 2)]
        g = make_group(theta, n)
        rev = reversing_group(theta).elements
        sym = set(centralizer(theta).elements)
        chi = rev[rng.integers(0, len(rev))]
        zeta = 1 if chi in sym else -1
        phi_d = DAutomorphism(zeta, chi, int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        probe = uniqueness_probe(g, phi_d)
        worst = max(worst, probe.max_param_diff)
    ok = worst < 1e-9
    _report(6, ok, f"100 random automorphisms re-derived from lattice data, max diff {worst:.2e}")


def test_criterion_07_homomorphism_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(43)
    g = make_group(THETA4, 1)

    worst_assoc = 0.0
    for basis, make in (("e", epoint), ("f", fpoint)):
        for _ in range(500):
            x, y, z = (make(*rng.uniform(-3, 3, 3)) for _ in range(3))
            lhs = compose(g, compose(g, x, y), z).coords
            rhs = compose(g, x, compose(g, y, z)).coords
            worst_assoc = max(worst_assoc, float(np.max(np.abs(np.subtract(lhs, rhs)))))

    autos = enumerate_elastic(THETA4, range(-2, 3), range(-2, 3))
    worst_hom = 0.0
    for _ in range(1000):
        phi = extend(g, autos[rng.integers(0, len(autos))])
        x = fpoint(*rng.uniform(-3, 3, 3))
        y = fpoint(*rng.uniform(-3, 3, 3))
        lhs = apply_group_auto_batch(phi, compose(g, x, y).array()[None, :])[0]
        rhs = compose(
            g,
            fpoint(*apply_group_auto_batch(phi, x.array()[None, :])[0]),
            fpoint(*apply_group_auto_batch(phi, y.array()[None, :])[0]),
        ).coords
        worst_hom = max(worst_hom, float(np.max(np.abs(lhs - np.array(rhs)))))

    exact = True
    for _ in range(1000):
        phi_d = autos[rng.integers(0, len(autos))]
        d1 = DElement(*(int(v) for v in rng.integers(-5, 6, 3)))
        d2 = DElement(*(int(v) for v in rng.integers(-5, 6, 3)))
        lhs_w = apply_d_automorphism(THETA4, phi_d, dmul(THETA4, d1, d2))
        rhs_w = dmul(
            THETA4,
            apply_d_automorphism(THETA4, phi_d, d1),
            apply_d_automorphism(THETA4, phi_d, d2),
        )
        if lhs_w != rhs_w:
            exact = False
    elapsed = time.perf_counter() - start
    ok = worst_assoc < 1e-9 and worst_hom < 1e-9 and exact and elapsed < 10.0
    _report(
        7,
        ok,
        f"assoc {worst_assoc:.2e}, lifted-map hom {worst_hom:.2e}, word hom exact ({elapsed:.1f}s)",
    )


def test_criterion_08_exponential_map():
    rng = np.random.default_rng(44)
    g = make_group(THETA4, 1)
    worst = 0.0
    for _ in range(200):
        u = rng.uniform(-2, 2, 3)
        nu_e = frame_matrix(g).T @ u
        via_exp = convert_basis(g, exp_map(g, fpoint(*u))).array()
        via_flow = rk4_flow(g, nu_e, steps=1000)
        worst = max(worst, float(np.max(np.abs(via_exp - via_flow))))
    degenerate = exp_map(g, fpoint(5.0, 7.0, 4.0)).coords  # k*u3 = 2*pi
    degen_ok = abs(degenerate[0]) < 1e-10 and abs(degenerate[1]) < 1e-10 and degenerate[2] == 4.0
    ok = worst < 1e-8 and degen_ok
    _report(8, ok, f"closed form vs RK4 flow max error {worst:.2e}; degenerate head collapses")


def test_criterion_09_structure_constants():
    worst_f = 0.0
    worst_e = 0.0
    eps = np.zeros((3, 3, 3))
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, l] = 1.0
        eps[i, l, j] = -1.0
    for theta in (THETA2, THETA3, THETA4, THETA6):
        g = make_group(theta, 1)
        C_f = structure_constants_fd(g, "f")
        worst_f = max(worst_f, float(np.max(np.abs(C_f - f_structure_constants(g.k)))))
        C_e = structure_constants_fd(g, "e")
        C_from_S = np.einsum("prs,ip->irs", eps, g.S)
        worst_e = max(worst_e, float(np.max(np.abs(C_e - C_from_S))))
    ok = worst_f < 1e-6 and worst_e < 1e-6
    _report(9, ok, f"rotation-frame error {worst_f:.2e}, lattice-frame identity error {worst_e:.2e}")


def test_criterion_10_r_eps_independence():
    worst = 0.0
    exact = True
    for theta in (THETA2, THETA3, THETA4, THETA6):
        g = make_group(theta, 1)
        p = theta_order(theta)
        for eps in (0, 1):
            shipped = r_eps(g, eps)
            exact = exact and np.array_equal(r_eps_at_q(g, eps, 1), shipped)
            for q in range(1, 2 * p + 1):
                if q % p == 0:
                    continue
                worst = max(worst, float(np.max(np.abs(r_eps_at_q(g, eps, q) - shipped))))
    ok = exact and worst < 1e-10
    _report(10, ok, f"R(eps) across q in 1..2p (skipping multiples of p): max spread {worst:.2e}")


def test_criterion_11_generator_conditions():
    accepted = generates_d(THETA4, GeneratorTriple(GEN_A, GEN_B, GEN_C))
    squares = generates_d(THETA4, GeneratorTriple(GEN_A, DElement(0, 2, 0), DElement(0, 0, 2)))
    doubled = generates_d(THETA4, GeneratorTriple(DElement(2, 0, 0), GEN_B, GEN_C))
    ok = accepted.generates
    ok = ok and (not squares.generates and squares.violated == "5.11")
    ok = ok and (not doubled.generates and doubled.violated == "hcf(alpha)")

    rng = np.random.default_rng(45)
    found = 0
    attempts = 0
    reach_ok = True
    while found < 20 and attempts < 3000:
        attempts += 1
        triple = GeneratorTriple(
            DElement(*(int(v) for v in rng.integers(-2, 3, 3))),
            DElement(*(int(v) for v in rng.integers(-2, 3, 3))),
            DElement(*(int(v) for v in rng.integers(-2, 3, 3))),
        )
        if not generates_d(THETA4, triple).generates:
            continue
        found += 1
        if not {GEN_A, GEN_B, GEN_C} <= word_closure(THETA4, triple.words, 12, [GEN_A, GEN_B, GEN_C]):
            reach_ok = False
    ok = ok and found == 20 and reach_ok
    _report(
        11,
        ok,
        f"canonical accept/reject verdicts correct; {found} random generating triples "
        f"reach A, B, C within word length 12",
    )
