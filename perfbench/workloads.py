"""The three workloads: program-side set-up, one operation, and its check.

run() is the timed operation and goes through s2sym module attributes, so
the tracer's wrappers see it. check() runs outside the timed region and
returns None for a correct output, "known:<defect>" for an output that shows
one of the documented defects, or "unexpected:<reason>" for anything else.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import traceback

from s2sym import Mat2Z, cli, discrete, extension, intmat, liegroup, symmetry
from s2sym.discrete import DElement, GeneratorTriple
from s2sym.symmetry import DAutomorphism

import inputs
from exact import BRANCHES, THETAS, Powers, lifts, rep, rep_image
from inputs import BOX, GENERATES, HCF, NON_SCALAR, SUBLATTICE

# Criterion 05's bound on the lattice discrepancy of a lift with shifts in [-3, 3].
CRITERION_05_BOUND = 1e-9
# A discrepancy this small relative to the largest shift is float roundoff of a
# correct lift (sin(2 pi) * gamma and the like), not a wrong one.
ROUNDOFF_PER_SHIFT = 1e-12

KNOWN_DEFECTS = {
    "verify-tolerance-trace-1": "verify_extension reports passed = False for a correct trace -1 lift "
    "with a large shift: its absolute 1e-9 tolerance ignores the roundoff that grows with the shift",
    "elastic-minus-identity": "classify_symmetry calls a theta = -I automorphism elastic "
    "although extend cannot lift it",
    "cli-extend-minus-identity": "s2sym extend exits 1 with a traceback for a theta = -I "
    "automorphism that does not lift, instead of a domain rejection (exit 3)",
}


def _theta(tr: int) -> Mat2Z:
    return Mat2Z(*THETAS[tr])


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_word_action(theta: Mat2Z, pw: Powers, auto, phi: DAutomorphism, words) -> str | None:
    """Compare the program's image of each word with the product of the 4x4
    representations of the generator images, and its embedding with the
    translation column of that product."""
    for w in words:
        want = rep_image(pw, auto, w)
        img = symmetry.apply_d_automorphism(theta, phi, DElement(*w))
        if rep(pw, (img.q, img.m, img.n)) != want:
            return f"unexpected:word image of {w} is {img}"
        if discrete.embed_int(theta, img) != (want[1], want[2], want[3]):
            return f"unexpected:embedding of the image of {w}"
    return None


class LiftSweep:
    """extend, verify_extension at box 3 and uniqueness_probe, per automorphism."""

    name = "lift-sweep"
    reference = "kernel"  # see calibrate.py
    tail_percentile = 99.0
    tail_window = 0  # see worker.tail
    traced_ops = 120
    chunk_blocks = 1

    def make_inputs(self, seed: int):
        return inputs.LiftSweepInputs(seed)

    def setup(self) -> None:
        """The survey's set-up: the groups, and S, R and the automorphisms per class."""
        self.groups = {}
        self.elastic = {}
        shifts = range(-inputs.SMALL_SHIFT, inputs.SMALL_SHIFT + 1)
        for tr in NON_SCALAR:
            theta = _theta(tr)
            symmetry.centralizer(theta)
            symmetry.reversing_group(theta)
            self.elastic[tr] = set(symmetry.enumerate_elastic(theta, shifts, shifts))
            for n in BRANCHES[tr]:
                self.groups[tr, n] = liegroup.make_group(theta, n)
        self.powers = {tr: Powers(THETAS[tr]) for tr in NON_SCALAR}

    def prepare(self, op: dict) -> dict:
        zeta, chi, beta1, gamma1 = op["auto"]
        op["phi"] = DAutomorphism(zeta, Mat2Z(*chi), beta1, gamma1)
        op["group"] = self.groups[op["trace"], op["n"]]
        return op

    def kind(self, op: dict) -> str:
        return "lift-big" if op["big"] else "lift"

    def run(self, op: dict):
        g, phi = op["group"], op["phi"]
        lifted = extension.extend(g, phi)
        report = extension.verify_extension(g, phi, lifted, BOX)
        probe = extension.uniqueness_probe(g, phi)
        return lifted.epsilon, report.passed, report.max_discrepancy, probe.max_param_diff

    def check(self, op: dict, result) -> str | None:
        if isinstance(result, BaseException):
            return f"unexpected:{type(result).__name__}: {result}"
        epsilon, passed, disc, probe_diff = result
        zeta, chi, beta1, gamma1 = op["auto"]
        tr = op["trace"]
        if epsilon != (0 if zeta == 1 else 1):
            return f"unexpected:epsilon {epsilon} for zeta {zeta}"
        bad = check_word_action(op["group"].theta, self.powers[tr], op["auto"], op["phi"], op["words"])
        if bad:
            return bad
        if not op["big"]:
            if op["phi"] not in self.elastic[tr]:
                return "unexpected:enumerate_elastic misses a small-shift automorphism"
            if not (passed and disc < CRITERION_05_BOUND and probe_diff < CRITERION_05_BOUND):
                return f"unexpected:small-shift lift passed={passed} discrepancy={disc:.3e} probe={probe_diff:.3e}"
            return None
        scale = max(1, abs(beta1), abs(gamma1))
        if disc > ROUNDOFF_PER_SHIFT * scale or probe_diff > ROUNDOFF_PER_SHIFT * scale:
            return f"unexpected:big-shift lift discrepancy {disc:.3e} probe {probe_diff:.3e} at shift {scale}"
        if not passed:
            # Only trace -1 shifts above the defect's threshold show it (inputs.BANDS).
            if tr == -1 and op["band"] == "above":
                return "known:verify-tolerance-trace-1"
            return f"unexpected:passed=False at trace {tr}, shift {scale}, discrepancy {disc:.3e}"
        return None


class GeneratorDecisions:
    """classify_symmetry (generates_d plus Nielsen reduction) on seeded triples."""

    name = "generator-decisions"
    reference = "kernel"
    tail_percentile = 95.0
    tail_window = 1024
    traced_ops = 3200
    chunk_blocks = 32

    def make_inputs(self, seed: int):
        return inputs.GeneratorInputs(seed)

    def setup(self) -> None:
        self.thetas = {tr: _theta(tr) for tr in THETAS}
        for theta in self.thetas.values():
            intmat.theta_order(theta)

    def prepare(self, op: dict) -> dict:
        op["program_theta"] = self.thetas[op["trace"]]
        op["program_triple"] = GeneratorTriple(*(DElement(*w) for w in op["triple"]))
        return op

    def kind(self, op: dict) -> str:
        """The input kind, with its Nielsen depth for mixed triples."""
        return op["kind"] if op["kind"] == "auto" else f"{op['kind']}@{op['depth']}"

    def run(self, op: dict):
        result = symmetry.classify_symmetry(op["program_theta"], op["program_triple"])
        return result.kind, result.certificate.generates, result.certificate.violated

    def check(self, op: dict, result) -> str | None:
        if isinstance(result, BaseException):
            return f"unexpected:{type(result).__name__}: {result}"
        kind, generates, violated = result
        bad = verdict_mismatch(op["verdict"], generates, violated)
        if bad:
            return bad
        if kind != op["class"]:
            # Only the theta = -I automorphism images that do not lift show the defect.
            non_lifting = op["kind"] == "auto" and not lifts(op["theta"], *op["auto"][:2])
            if non_lifting and kind == inputs.ELASTIC:
                return "known:elastic-minus-identity"
            return f"unexpected:class {kind}, expected {op['class']}"
        return None


def verdict_mismatch(verdict: str, generates: bool, violated) -> str | None:
    if verdict == GENERATES:
        ok = generates and violated is None
    elif verdict == HCF:
        ok = not generates and violated == HCF
    elif verdict == SUBLATTICE:
        ok = not generates and violated in ("5.11", "5.12")
    else:
        raise ValueError(verdict)
    return None if ok else f"unexpected:generates={generates} violated={violated}, expected {verdict}"


class CliCalls:
    """One `python -m s2sym.cli` subprocess per call, one at a time."""

    name = "cli-calls"
    reference = "interpreter"
    tail_percentile = 90.0
    tail_window = 0
    traced_ops = 64
    chunk_blocks = 1

    def __init__(self, env: dict, root: str):
        self.env = env
        self.root = root

    def make_inputs(self, seed: int):
        return inputs.CliInputs(seed)

    def setup(self) -> None:
        """Nothing: each call is a fresh process."""

    def prepare(self, op: dict) -> dict:
        return op

    def kind(self, op: dict) -> str:
        return "rejected" if op.get("rejected") else op["command"]

    def run(self, op: dict):
        proc = subprocess.run(
            [sys.executable, "-m", "s2sym.cli", *op["argv"]],
            capture_output=True, text=True, env=self.env, cwd=self.root, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, op: dict):
        """The same call through s2sym.cli.main(argv), stdout and stderr captured."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(op["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an uncaught error is what a user sees as exit 1
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def check(self, op: dict, result) -> str | None:
        if isinstance(result, BaseException):
            return f"unexpected:{type(result).__name__}: {result}"
        code, out, err = result
        if code != op["exit"]:
            if op.get("known_defect") and code == 1 and "InternalInconsistencyError" in err:
                return "known:" + op["known_defect"]
            return f"unexpected:exit {code}, expected {op['exit']}: {err.strip()[-200:]}"
        if op["exit"] != 0:
            lines = err.strip().splitlines()
            if out or len(lines) != 1 or not lines[0].startswith("s2sym"):
                return f"unexpected:rejection output {err.strip()[-200:]!r}"
            return None
        try:
            return getattr(self, "_check_" + op["command"].replace("-", "_"))(op, out)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unexpected:unreadable output: {type(exc).__name__}: {exc}"

    def _check_classify_theta(self, op, out):
        d = json.loads(out)
        theta = _theta(op["trace"])
        want = {
            "trace": theta.trace(),
            "p": intmat.theta_order(theta),
            "n": op["n"],
            "S_label": symmetry.centralizer(theta).label,
            "R_label": symmetry.reversing_group(theta).label,
        }
        got = {key: d[key] for key in want}
        if got != want:
            return f"unexpected:classify-theta {got} != {want}"
        if not _close(d["k"], liegroup.make_group(theta, op["n"]).k, 1e-11):
            return "unexpected:classify-theta k"
        return None

    def _check_check_generators(self, op, out):
        d = json.loads(out)
        bad = verdict_mismatch(op["verdict"], d["generates"], d["violated"])
        if bad:
            return bad
        theta = _theta(op["trace"])
        lib = symmetry.classify_symmetry(theta, GeneratorTriple(*(DElement(*w) for w in op["triple"])))
        want_class = lib.kind if lib.certificate.generates else None
        if d["class"] != want_class or d["violated"] != lib.certificate.violated:
            return f"unexpected:check-generators class {d['class']}, library {want_class}"
        return None

    def _check_extend(self, op, out):
        d = json.loads(out)
        theta = _theta(op["trace"])
        zeta, chi, beta1, gamma1 = op["auto"]
        lifted = extension.extend(liegroup.make_group(theta, op["n"]), DAutomorphism(zeta, Mat2Z(*chi), beta1, gamma1))
        if d["epsilon"] != lifted.epsilon:
            return "unexpected:extend epsilon"
        for key in ("alpha", "beta", "gamma", "delta"):
            if not _close(d[key], getattr(lifted, key), 1e-11):
                return f"unexpected:extend {key} {d[key]} != {getattr(lifted, key)}"
        if not (d["pass"] is True and d["max_discrepancy"] < CRITERION_05_BOUND and d["uniqueness_max_diff"] < CRITERION_05_BOUND):
            return f"unexpected:extend pass={d['pass']} discrepancy={d['max_discrepancy']}"
        return None

    def _check_lattice_points(self, op, out):
        theta = _theta(op["trace"])
        zeta, chi, beta1, gamma1 = op["auto"]
        phi = DAutomorphism(zeta, Mat2Z(*chi), beta1, gamma1)
        box = op["box"]
        lines = out.splitlines()
        if len(lines) != (2 * box + 1) ** 3:
            return f"unexpected:lattice-points printed {len(lines)} lines"
        span = range(-box, box + 1)
        words = ((q, m, n) for q in span for m in span for n in span)
        for line, w in zip(lines, words):
            d = json.loads(line)
            word = DElement(*w)
            img = symmetry.apply_d_automorphism(theta, phi, word)
            want = {
                "q": w[0], "m": w[1], "n": w[2],
                **dict(zip(("x1", "x2", "x3"), discrete.embed_int(theta, word))),
                "image_word": [img.q, img.m, img.n],
                **dict(zip(("y1", "y2", "y3"), discrete.embed_int(theta, img))),
            }
            if d != want:
                return f"unexpected:lattice-points record {d} != {want}"
        return None


def make(name: str, env: dict, root: str):
    if name == CliCalls.name:
        return CliCalls(env, root)
    return {LiftSweep.name: LiftSweep, GeneratorDecisions.name: GeneratorDecisions}[name]()

