"""Survey the symmetry structure over the canonical test matrices.

For each finite-order class this prints the symmetry groups of theta, then
enumerates every elastic automorphism of the discrete subgroup with small
word shifts (for theta = -I, those of the eight (zeta, chi) pairs that
lift), lifts each one to the continuous group on the first two branch
rates, and reports the worst lattice disagreement of the lifted maps.

Run as:  python scripts/extension_survey.py [--box 3] [--shift 3]

--box must lie in [0, BOX_LIMIT] and --shift must be nonnegative; the survey
fails if a lift fails its lattice check or a class lifts no automorphism.
"""

import argparse
import time

from s2sym import (
    Mat2Z,
    centralizer,
    enumerate_elastic,
    extend,
    first_branches,
    make_group,
    reversing_group,
    theta_order,
    uniqueness_probe,
    verify_extension,
)
from s2sym.extension import BOX_LIMIT

CASES = [
    ("trace -2", Mat2Z(-1, 0, 0, -1)),
    ("trace -1", Mat2Z(0, 1, -1, -1)),
    ("trace 0", Mat2Z(0, 1, -1, 0)),
    ("trace 1", Mat2Z(1, 1, -1, 0)),
]


def _int_in(low: int, high: int | None = None):
    """An argparse type: an integer in [low, high], or at least low when high is None."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bounds = f"in [{low}, {high}]" if high is not None else f">= {low}"
            raise argparse.ArgumentTypeError(f"{value} is not {bounds}")
        return value

    return integer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--box", type=_int_in(0, BOX_LIMIT), default=3, help="verification box radius")
    parser.add_argument("--shift", type=_int_in(0), default=3, help="beta1/gamma1 sweep bound")
    args = parser.parse_args()

    shifts = range(-args.shift, args.shift + 1)
    for name, theta in CASES:
        sym = centralizer(theta)
        rev = reversing_group(theta)
        print(f"\n{name}: theta = {theta.rows()}, order {theta_order(theta)}")
        print(f"  S(theta) = {sym.label} (order {sym.order}), R(theta) = {rev.label} (order {rev.order})")
        autos = enumerate_elastic(theta, shifts, shifts)
        if not autos:
            raise SystemExit(f"no automorphism to lift for {name}")
        for n in first_branches(theta.trace(), 2):
            g = make_group(theta, n)
            start = time.perf_counter()
            worst = 0.0
            worst_probe = 0.0
            for phi_d in autos:
                lifted = extend(g, phi_d)
                report = verify_extension(g, phi_d, lifted, args.box)
                worst = max(worst, report.max_discrepancy)
                if not report.passed:
                    raise SystemExit(f"extension FAILED for {phi_d} on branch n={n}")
                probe = uniqueness_probe(g, phi_d)
                worst_probe = max(worst_probe, probe.max_param_diff)
            elapsed = time.perf_counter() - start
            print(
                f"  branch n={n} (k={g.k:.6f}): {len(autos)} automorphisms lifted, "
                f"max lattice discrepancy {worst:.2e}, max probe diff {worst_probe:.2e} "
                f"({elapsed:.1f}s)"
            )


if __name__ == "__main__":
    main()
