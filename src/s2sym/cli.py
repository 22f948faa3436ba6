"""Command-line front end.

Subcommands:

  classify-theta    trace class, order, branches, symmetry groups, dislocation density
  check-generators  does a triple generate D, and is it elastic or inelastic
  extend            lift an automorphism of D and verify the agreement on a box
  lattice-points    emit the embedded lattice words, optionally with their images

Output is deterministic: fixed field order and %.12g float formatting, so
identical invocations produce byte-identical reports. Exit codes: 0 success,
2 input error, 3 domain rejection (valid input whose mathematical answer is
negative where the command demands a positive one, such as extending an
automorphism that is not elastic), 4 internal error (a guaranteed invariant
failed, which is a bug; reported on one line instead of a traceback).

Only classify-theta and extend need the float layers (liegroup, extension,
numpy). They import them inside the command, after theta has been validated,
so check-generators, lattice-points and every rejected theta run without numpy.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import partial

from .errors import InternalInconsistencyError, NotAnAutomorphismError, NotElasticError
from .intmat import Mat2Z, theta_order
from .discrete import DElement, GeneratorTriple, embed_int
from .symmetry import (
    DAutomorphism,
    centralizer,
    classify_symmetry,
    image_word,
    reversing_group,
    shift_prefix,
)

JSON_FORMAT = "json"
TEXT_FORMAT = "text"


def _fmt_float(x: float) -> str:
    if x == 0:
        x = 0.0
    return format(float(x), ".12g")


def dump_json(obj) -> str:
    """Serialise with fixed key order and %.12g floats."""
    if isinstance(obj, dict):
        items = ", ".join(f'"{k}": {dump_json(v)}' for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dump_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def dump_text(obj, indent: str = "") -> str:
    lines = []
    for key, value in obj.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(dump_text(value, indent + "  "))
        else:
            lines.append(f"{indent}{key}: {dump_json(value)}")
    return "\n".join(lines)


def _emit(report: dict, fmt: str) -> None:
    if fmt == JSON_FORMAT:
        print(dump_json(report))
    else:
        print(dump_text(report))


def _parse_ints(text: str, count: int, what: str) -> list[int]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated integers, got {text!r}")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def _parse_mat(text: str, flag: str) -> Mat2Z:
    return Mat2Z(*_parse_ints(text, 4, flag))


def _parse_word(text: str, flag: str) -> DElement:
    return DElement(*_parse_ints(text, 3, flag))


def _parse_apply(text: str) -> DAutomorphism:
    zeta, a, b, c, d, beta1, gamma1 = _parse_ints(text, 7, "--apply")
    return DAutomorphism(zeta, Mat2Z(a, b, c, d), beta1, gamma1)


def cmd_classify_theta(theta: Mat2Z, n: int | None, fmt: str) -> int:
    p = theta_order(theta)
    from .liegroup import branch_k, first_branches, make_group

    branches = first_branches(theta.trace(), 2)
    if n is None:
        n = branches[0]
    g = make_group(theta, n)
    sym = centralizer(theta)
    rev = reversing_group(theta)
    report = {
        "command": "classify-theta",
        "theta": theta.rows(),
        "trace": theta.trace(),
        "p": p,
        "branches": [
            {"n": bn, "k": branch_k(theta.trace(), bn)} for bn in branches
        ],
        "n": n,
        "k": g.k,
        "S_label": sym.label,
        "S_order": sym.order,
        "S_elements": None if sym.elements is None else [m.rows() for m in sym.elements],
        "R_label": rev.label,
        "R_order": rev.order,
        "R_elements": None if rev.elements is None else [m.rows() for m in rev.elements],
        "dislocation_density": g.S.tolist(),
    }
    _emit(report, fmt)
    return 0


def cmd_check_generators(theta: Mat2Z, triple: GeneratorTriple, fmt: str) -> int:
    result = classify_symmetry(theta, triple)
    cert = result.certificate
    report = {
        "command": "check-generators",
        "theta": theta.rows(),
        "triple": [[w.q, w.m, w.n] for w in triple.words],
        "generates": cert.generates,
        "violated": cert.violated,
        "reduced": None
        if cert.reduced is None
        else {
            "beta1": cert.reduced.beta1,
            "gamma1": cert.reduced.gamma1,
            "matrix": cert.reduced.exponents.rows(),
        },
        "taus": None if cert.taus is None else [list(t) for t in cert.taus],
        "class": None if not cert.generates else result.kind,
        "reason": result.reason if cert.generates else None,
        "automorphism": None
        if result.automorphism is None
        else {
            "zeta": result.automorphism.zeta,
            "chi": result.automorphism.chi.rows(),
            "beta1": result.automorphism.beta1,
            "gamma1": result.automorphism.gamma1,
        },
    }
    _emit(report, fmt)
    return 0


def cmd_extend(theta: Mat2Z, n: int | None, phi_d: DAutomorphism, box: int, fmt: str) -> int:
    theta_order(theta)
    from .extension import extend, uniqueness_probe, verify_extension
    from .liegroup import first_branches, make_group

    if n is None:
        n = first_branches(theta.trace(), 1)[0]
    g = make_group(theta, n)
    lifted = extend(g, phi_d)
    check = verify_extension(g, phi_d, lifted, box)
    probe = uniqueness_probe(g, phi_d)
    report = {
        "command": "extend",
        "theta": theta.rows(),
        "n": n,
        "k": g.k,
        "zeta": phi_d.zeta,
        "chi": phi_d.chi.rows(),
        "beta1": phi_d.beta1,
        "gamma1": phi_d.gamma1,
        "epsilon": lifted.epsilon,
        "alpha": lifted.alpha,
        "beta": lifted.beta,
        "gamma": lifted.gamma,
        "delta": lifted.delta,
        "box": box,
        "max_discrepancy": check.max_discrepancy,
        "uniqueness_max_diff": probe.max_param_diff,
        "pass": check.passed,
    }
    _emit(report, fmt)
    return 0


def cmd_lattice_points(theta: Mat2Z, box: int, auto: DAutomorphism | None, fmt: str) -> int:
    theta_order(theta)
    prefix = None if auto is None else shift_prefix(theta, auto)
    span = range(-box, box + 1)
    for q in span:
        for m in span:
            for n in span:
                word = DElement(q, m, n)
                x1, x2, x3 = embed_int(theta, word)
                record = {"q": q, "m": m, "n": n, "x1": x1, "x2": x2, "x3": x3}
                if auto is not None:
                    img = image_word(auto, prefix, word)
                    y1, y2, y3 = embed_int(theta, img)
                    record.update(
                        {"image_word": [img.q, img.m, img.n], "y1": y1, "y2": y2, "y3": y3}
                    )
                if fmt == JSON_FORMAT:
                    print(dump_json(record))
                else:
                    print("\t".join(f"{k}={dump_json(v)}" for k, v in record.items()))
    return 0


# values like "-1,0,0,-1" must parse as arguments, not flags
_NEGATIVE_TUPLE = re.compile(r"^-\d+(?:,-?\d+)*$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="s2sym",
        description="Symmetry classification for discrete subgroups of the solvable group S2.",
    )
    parser._negative_number_matcher = _NEGATIVE_TUPLE
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p._negative_number_matcher = _NEGATIVE_TUPLE
        p.add_argument("--theta", required=True, help="four integers a,b,c,d (row major)")
        p.add_argument("--branch", "-n", dest="n", type=int, default=None, help="branch integer n (default: smallest admissible positive)")
        p.add_argument("--box", type=int, default=3, help="lattice box radius (default 3)")
        p.add_argument("--format", dest="fmt", choices=(JSON_FORMAT, TEXT_FORMAT), default=JSON_FORMAT)

    p = sub.add_parser("classify-theta", help="trace class, symmetry groups, dislocation density")
    add_common(p)

    p = sub.add_parser("check-generators", help="decide generation and classify the symmetry")
    add_common(p)
    p.add_argument("--g1", required=True, help="first word as Q,M,N")
    p.add_argument("--g2", required=True, help="second word as Q,M,N")
    p.add_argument("--g3", required=True, help="third word as Q,M,N")

    p = sub.add_parser("extend", help="lift an automorphism of D to the continuous group")
    add_common(p)
    p.add_argument("--zeta", type=int, required=True, choices=(1, -1))
    p.add_argument("--chi", required=True, help="four integers a,b,c,d (row major)")
    p.add_argument("--beta1", type=int, default=0)
    p.add_argument("--gamma1", type=int, default=0)

    p = sub.add_parser("lattice-points", help="emit embedded lattice words as JSON lines")
    add_common(p)
    p.add_argument(
        "--apply",
        default=None,
        help="also emit images under the automorphism zeta,a,b,c,d,beta1,gamma1 (seven integers)",
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        theta = _parse_mat(args.theta, "--theta")
        if args.command == "classify-theta":
            job = partial(cmd_classify_theta, theta, args.n)
        elif args.command == "check-generators":
            words = (_parse_word(getattr(args, flag), "--" + flag) for flag in ("g1", "g2", "g3"))
            job = partial(cmd_check_generators, theta, GeneratorTriple(*words))
        elif args.command == "extend":
            auto = DAutomorphism(args.zeta, _parse_mat(args.chi, "--chi"), args.beta1, args.gamma1)
            job = partial(cmd_extend, theta, args.n, auto, args.box)
        else:
            auto = None if args.apply is None else _parse_apply(args.apply)
            job = partial(cmd_lattice_points, theta, args.box, auto)
        if args.box < 0:
            raise ValueError("--box must be nonnegative")
    except ValueError as exc:
        print(f"s2sym: {exc}", file=sys.stderr)
        return 2
    try:
        return job(args.fmt)
    except NotAnAutomorphismError as exc:
        print(f"s2sym: not an automorphism: {exc}", file=sys.stderr)
        return 3
    except NotElasticError as exc:
        print(f"s2sym: not elastic: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"s2sym: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"s2sym: internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
