"""Command-line front end.

Subcommands:

  classify-theta    trace class, order, branches, symmetry groups, dislocation density
  check-generators  does a triple generate D, and is it elastic or inelastic
  extend            lift an automorphism of D and verify the agreement on a box
  lattice-points    emit the embedded lattice words, optionally with their images

Each subcommand takes only the flags it reads: --branch/-n (the branch
integer n, coprime to the order p of theta, so k = 2 pi n / p) on
classify-theta and extend, --box (the lattice box radius) on extend and
lattice-points; extend refuses a box above extension.BOX_LIMIT.

Output is deterministic: fixed field order and %.12g float formatting, so
identical invocations produce byte-identical reports. Integers print in
full, also past Python's 4300-digit str() limit, which still bounds every
parsed input. Exit codes: 0 success, 2 input error, 3 domain rejection
(valid input whose mathematical answer is negative where the command demands
a positive one, such as extending an automorphism that is not elastic),
4 internal error (a guaranteed invariant failed, which is a bug; reported on
one line instead of a traceback), 141 (BROKEN_PIPE_EXIT) when the reader
closes stdout before the output is complete, with nothing on stderr.

lattice-points has no box limit: it writes (2 box + 1)^3 lines in closed
form, A^q B^m C^n at theta^q (m, n), q and, with --apply, the image word
(zeta q, s(q) + chi (m, n)) at theta^(zeta q) of its (m, n). The theta powers
and s(q) = s(q mod p) are tables of one period (intmat.theta_powers,
symmetry.shift_prefix) read once per q slice, and each (q, m) row is written
at once, so memory stays O(box).

Only classify-theta and extend need the float layers (liegroup, extension,
numpy). They import them inside the command, after theta has been validated,
so check-generators, lattice-points and every rejected theta run without numpy.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import partial

from .errors import InternalInconsistencyError, NotAnAutomorphismError, NotElasticError
from .intmat import Mat2Z, theta_order, theta_powers
from .discrete import DElement, GeneratorTriple
from .symmetry import (
    DAutomorphism,
    centralizer,
    classify_symmetry,
    reversing_group,
    shift_prefix,
)

JSON_FORMAT = "json"
TEXT_FORMAT = "text"

# 128 + SIGPIPE: the status a shell shows for a writer that a closed pipe ends
BROKEN_PIPE_EXIT = 141


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


# Field order of a lattice-points record: the word, its lattice point and,
# with --apply, the image word and its lattice point.
_POINT_FIELDS = ("q", "m", "n", "x1", "x2", "x3")
_IMAGE_FIELDS = ("image_word", "y1", "y2", "y3")


def _record_template(fmt: str, fields: tuple[str, ...]) -> str:
    """A %-template of one record line, byte-identical to dump_json of the record
    (or its text form); image_word is a list of three integers."""
    slots = ("[%d, %d, %d]" if field == "image_word" else "%d" for field in fields)
    if fmt == JSON_FORMAT:
        return "{" + ", ".join(f'"{f}": {s}' for f, s in zip(fields, slots)) + "}\n"
    return "\t".join(f"{f}={s}" for f, s in zip(fields, slots)) + "\n"


def cmd_lattice_points(theta: Mat2Z, box: int, auto: DAutomorphism | None, fmt: str) -> int:
    """Stream the words (q, m, n) of the box with their lattice points, in closed form.

    Per q slice it reads t = theta^q and, with an automorphism, u = theta^(zeta q),
    s = s(q mod p) from shift_prefix, and the products u chi and u s. Per word the
    point is t (m, n), q; the image word is (zeta q, s + chi (m, n)) and its point
    (u chi) (m, n) + u s, zeta q, all in integer arithmetic. Each record is one
    %-template filled in; each (q, m) row of 2 box + 1 records is one write, so
    memory stays O(box). theta and the automorphism are checked before any output.
    """
    powers = theta_powers(theta)
    p = len(powers)
    prefix = None if auto is None else shift_prefix(theta, auto)
    template = _record_template(fmt, _POINT_FIELDS if auto is None else _POINT_FIELDS + _IMAGE_FIELDS)
    write = sys.stdout.write
    span = range(-box, box + 1)
    for q in span:
        t = powers[q % p]
        if auto is not None:
            zq, chi = auto.zeta * q, auto.chi
            s1, s2 = prefix[q % p]
            # the image point u (s + chi (m, n)) = w (m, n) + o
            u = powers[zq % p]
            w = u @ chi
            o1, o2 = u.apply((s1, s2))
        for m in span:
            # along a row every coordinate is affine in n; x, i and y are their values at n = 0
            x1, x2 = t.a * m, t.c * m
            if auto is None:
                lines = [template % (q, m, n, x1 + t.b * n, x2 + t.d * n, q) for n in span]
            else:
                i1, i2 = s1 + chi.a * m, s2 + chi.c * m
                y1, y2 = o1 + w.a * m, o2 + w.c * m
                lines = [
                    template
                    % (q, m, n, x1 + t.b * n, x2 + t.d * n, q, zq, i1 + chi.b * n, i2 + chi.d * n, y1 + w.b * n, y2 + w.d * n, zq)
                    for n in span
                ]
            write("".join(lines))
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

    def add_command(name, help, branch=False, box=False):
        p = sub.add_parser(name, help=help)
        p._negative_number_matcher = _NEGATIVE_TUPLE
        p.add_argument("--theta", required=True, help="four integers a,b,c,d (row major)")
        if branch:
            p.add_argument("--branch", "-n", dest="n", type=int, default=None, help="branch integer n (default: smallest admissible positive)")
        if box:
            p.add_argument("--box", type=int, default=3, help="lattice box radius (default 3)")
        p.add_argument("--format", dest="fmt", choices=(JSON_FORMAT, TEXT_FORMAT), default=JSON_FORMAT)
        return p

    add_command("classify-theta", "trace class, symmetry groups, dislocation density", branch=True)

    p = add_command("check-generators", "decide generation and classify the symmetry")
    p.add_argument("--g1", required=True, help="first word as Q,M,N")
    p.add_argument("--g2", required=True, help="second word as Q,M,N")
    p.add_argument("--g3", required=True, help="third word as Q,M,N")

    p = add_command("extend", "lift an automorphism of D to the continuous group", branch=True, box=True)
    p.add_argument("--zeta", type=int, required=True, choices=(1, -1))
    p.add_argument("--chi", required=True, help="four integers a,b,c,d (row major)")
    p.add_argument("--beta1", type=int, default=0)
    p.add_argument("--gamma1", type=int, default=0)

    p = add_command("lattice-points", "emit embedded lattice words as JSON lines", box=True)
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
        if getattr(args, "box", 0) < 0:
            raise ValueError("--box must be nonnegative")
    except ValueError as exc:
        print(f"s2sym: {exc}", file=sys.stderr)
        return 2
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before Python 3.10.7
    if limit:
        # the limit has bounded every parsed input; an output, a short sum of
        # products of inputs, may pass it and is printed in full
        sys.set_int_max_str_digits(0)
    try:
        code = job(args.fmt)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's final flush
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE_EXIT
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
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
