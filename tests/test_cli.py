import contextlib
import io
import json
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from s2sym import InternalInconsistencyError, cli
from s2sym.cli import main
from s2sym.intmat import MINUS_IDENTITY, Mat2Z
from s2sym.symmetry import DAutomorphism, enumerate_elastic
from oracles import admissible_thetas, lattice_records_by_word


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_theta_json(capsys):
    code, out, _ = run_cli(capsys, "classify-theta", "--theta", "0,1,-1,0")
    assert code == 0
    report = json.loads(out)
    assert report["S_label"] == "C4"
    assert report["R_label"] == "D4"
    assert report["S_order"] == 4 and report["R_order"] == 8
    assert report["p"] == 4 and report["trace"] == 0
    assert [b["n"] for b in report["branches"]] == [1, 3]
    assert report["n"] == 1
    sdiag = report["dislocation_density"]
    assert sdiag[0][0] == pytest.approx(-1.5707963268, abs=1e-9)
    assert sdiag[2] == [0.0, 0.0, 0.0] or sdiag[2] == [0, 0, 0]


def test_classify_theta_minus_identity(capsys):
    code, out, _ = run_cli(capsys, "classify-theta", "--theta", "-1,0,0,-1")
    assert code == 0
    report = json.loads(out)
    assert report["S_label"] == "GL2Z"
    assert report["R_label"] == "GL2Z"
    assert report["S_elements"] is None


@pytest.mark.parametrize("theta", ["3,1,-10,-3", "-3,-2,5,3"])
def test_classify_theta_conjugated_trace_zero(capsys, theta):
    code, out, err = run_cli(capsys, "classify-theta", "--theta", theta)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["R_label"] == "D4" and report["R_order"] == 8


def test_classify_theta_answers_every_small_theta(capsys):
    thetas = [t for t in admissible_thetas(5) if t != MINUS_IDENTITY]
    assert len(thetas) == 50
    for t in thetas:
        code, out, err = run_cli(capsys, "classify-theta", "--theta", f"{t.a},{t.b},{t.c},{t.d}")
        assert code == 0 and err == "", (t, err)
        report = json.loads(out)
        assert report["R_order"] == 2 * report["S_order"]


def test_classify_theta_rejects_trace_three(capsys):
    code, out, err = run_cli(capsys, "classify-theta", "--theta", "2,1,1,1")
    assert code == 2
    assert out == ""
    assert "trace 3" in err


def test_classify_theta_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "classify-theta", "--theta", "1,1,-1,0")
    _, out2, _ = run_cli(capsys, "classify-theta", "--theta", "1,1,-1,0")
    assert out1 == out2


def test_check_generators_accepts_standard_triple(capsys):
    code, out, _ = run_cli(
        capsys,
        "check-generators",
        "--theta", "0,1,-1,0",
        "--g1", "1,0,0", "--g2", "0,1,0", "--g3", "0,0,1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["generates"] is True
    assert report["class"] == "elastic"
    assert report["violated"] is None
    assert report["automorphism"]["zeta"] == 1
    assert report["taus"] == [[1, 0], [0, 1], [0, -1], [1, 0]]


def test_check_generators_rejects_squares(capsys):
    code, out, _ = run_cli(
        capsys,
        "check-generators",
        "--theta", "0,1,-1,0",
        "--g1", "1,0,0", "--g2", "0,2,0", "--g3", "0,0,2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["generates"] is False
    assert report["violated"] == "5.11"
    assert report["class"] is None


def test_check_generators_rejects_hcf(capsys):
    code, out, _ = run_cli(
        capsys,
        "check-generators",
        "--theta", "0,1,-1,0",
        "--g1", "2,0,0", "--g2", "0,1,0", "--g3", "0,0,1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["generates"] is False
    assert report["violated"] == "hcf(alpha)"


def test_check_generators_inelastic(capsys):
    code, out, _ = run_cli(
        capsys,
        "check-generators",
        "--theta", "0,1,-1,0",
        "--g1", "1,0,0", "--g2", "1,1,0", "--g3", "0,0,1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["generates"] is True
    assert report["class"] == "inelastic"
    assert report["automorphism"] is None


def test_check_generators_malformed_word(capsys):
    code, _, err = run_cli(
        capsys,
        "check-generators",
        "--theta", "0,1,-1,0",
        "--g1", "1,0", "--g2", "0,1,0", "--g3", "0,0,1",
    )
    assert code == 2
    assert "--g1" in err


def test_extend_identity(capsys):
    code, out, _ = run_cli(
        capsys,
        "extend",
        "--theta", "0,1,-1,0",
        "--zeta", "1", "--chi", "1,0,0,1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["epsilon"] == 0
    assert report["alpha"] == pytest.approx(1.0)
    assert report["beta"] == pytest.approx(0.0)
    assert report["max_discrepancy"] < 1e-9
    assert report["uniqueness_max_diff"] < 1e-9


def test_extend_chi_theta(capsys):
    code, out, _ = run_cli(
        capsys,
        "extend",
        "--theta", "0,1,-1,0",
        "--zeta", "1", "--chi", "0,1,-1,0", "--beta1", "1", "--gamma1", "-2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["alpha"] == pytest.approx(0.0, abs=1e-12)
    assert report["beta"] == pytest.approx(1.0, abs=1e-12)
    assert report["pass"] is True


def test_extend_rejects_non_automorphism(capsys):
    code, _, err = run_cli(
        capsys,
        "extend",
        "--theta", "0,1,-1,0",
        "--zeta", "1", "--chi", "1,1,0,1",
    )
    assert code == 3
    assert "not an automorphism" in err


def test_lattice_points_box_zero(capsys):
    code, out, _ = run_cli(capsys, "lattice-points", "--theta", "0,1,-1,0", "--box", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec == {"q": 0, "m": 0, "n": 0, "x1": 0, "x2": 0, "x3": 0}


def test_lattice_points_box_one(capsys):
    code, out, _ = run_cli(capsys, "lattice-points", "--theta", "0,1,-1,0", "--box", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 27
    for line in lines:
        rec = json.loads(line)
        for key in ("x1", "x2", "x3"):
            assert isinstance(rec[key], int)


def test_lattice_points_apply_identity(capsys):
    code, out, _ = run_cli(
        capsys,
        "lattice-points",
        "--theta", "0,1,-1,0",
        "--box", "1",
        "--apply", "1,1,0,0,1,0,0",
    )
    assert code == 0
    for line in out.strip().splitlines():
        rec = json.loads(line)
        assert (rec["y1"], rec["y2"], rec["y3"]) == (rec["x1"], rec["x2"], rec["x3"])
        assert rec["image_word"] == [rec["q"], rec["m"], rec["n"]]


def test_lattice_points_apply_nontrivial(capsys):
    code, out, _ = run_cli(
        capsys,
        "lattice-points",
        "--theta", "0,1,-1,0",
        "--box", "1",
        "--apply", "1,0,1,-1,0,0,0",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 27
    moved = sum(
        1
        for line in lines
        if (lambda r: (r["y1"], r["y2"], r["y3"]) != (r["x1"], r["x2"], r["x3"]))(json.loads(line))
    )
    assert moved > 0


def _csv(*values) -> str:
    return ",".join(str(v) for v in values)


def _lattice_stdout(theta: Mat2Z, box: int, auto: DAutomorphism | None, fmt: str) -> str:
    argv = ["lattice-points", "--theta", _csv(theta.a, theta.b, theta.c, theta.d), "--box", str(box)]
    if auto is not None:
        chi = auto.chi
        argv += ["--apply", _csv(auto.zeta, chi.a, chi.b, chi.c, chi.d, auto.beta1, auto.gamma1)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--format", fmt]) == 0
    return out.getvalue()


ADMISSIBLE3 = admissible_thetas(3)
# (zeta, chi) of the elastic automorphisms of each theta, and for -I also
# unimodular chi with entries in [-2, 2] that do not lift
AUTO_PAIRS = {
    theta: [(a.zeta, a.chi) for a in enumerate_elastic(theta, [0], [0])] for theta in ADMISSIBLE3
}
AUTO_PAIRS[MINUS_IDENTITY] += [
    (zeta, chi)
    for zeta in (1, -1)
    for chi in (Mat2Z(*e) for e in product(range(-2, 3), repeat=4))
    if abs(chi.det()) == 1 and (zeta, chi) not in AUTO_PAIRS[MINUS_IDENTITY]
]
shifts = st.integers(-3, 3) | st.integers(-(2**200), 2**200)


@st.composite
def lattice_calls(draw):
    theta = draw(st.sampled_from(ADMISSIBLE3))
    auto = None
    if draw(st.booleans()):
        zeta, chi = draw(st.sampled_from(AUTO_PAIRS[theta]))
        auto = DAutomorphism(zeta, chi, draw(shifts), draw(shifts))
    return theta, draw(st.integers(0, 3)), auto, draw(st.sampled_from((cli.JSON_FORMAT, cli.TEXT_FORMAT)))


@settings(max_examples=300)
@given(call=lattice_calls())
def test_lattice_points_matches_the_per_word_emitter(call):
    assert _lattice_stdout(*call) == lattice_records_by_word(*call)


@pytest.mark.parametrize("fmt", [cli.JSON_FORMAT, cli.TEXT_FORMAT])
@pytest.mark.parametrize("theta", [t for t in ADMISSIBLE3 if abs(t.a) + abs(t.b) + abs(t.c) + abs(t.d) <= 3])
def test_lattice_points_zeta_minus_one(theta, fmt):
    autos = [a for a in enumerate_elastic(theta, [2], [-1]) if a.zeta == -1]
    assert autos
    for auto in autos:
        assert _lattice_stdout(theta, 2, auto, fmt) == lattice_records_by_word(theta, 2, auto, fmt)


def test_lattice_points_zeta_minus_one_record(capsys):
    # A maps to A^-1 B^2 C^-1, so its image point is theta^-1 (2, -1) = (1, 2) at height -1
    code, out, _ = run_cli(capsys, "lattice-points", "--theta", "0,1,-1,0", "--box", "1", "--apply", "-1,0,1,1,0,2,-1")
    assert code == 0
    record = [json.loads(line) for line in out.splitlines()][22]
    assert record == {
        "q": 1, "m": 0, "n": 0, "x1": 0, "x2": 0, "x3": 1, "image_word": [-1, 2, -1], "y1": 1, "y2": 2, "y3": -1
    }


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "classify-theta", "--theta", "0,1,-1,0", "--format", "text"
    )
    assert code == 0
    assert "S_label: \"C4\"" in out


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_internal_error_exits_four_with_one_line(capsys, monkeypatch):
    def broken(*args):
        raise InternalInconsistencyError("invariant failed")

    monkeypatch.setattr(cli, "cmd_classify_theta", broken)
    code, out, err = run_cli(capsys, "classify-theta", "--theta", "0,1,-1,0")
    assert code == 4
    assert out == ""
    assert err == "s2sym: internal error: invariant failed\n"


def test_lattice_points_apply_rejects_non_automorphism_before_output(capsys):
    code, out, err = run_cli(
        capsys,
        "lattice-points",
        "--theta", "0,1,-1,0",
        "--apply", "1,1,1,0,1,0,0",
    )
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("s2sym: not an automorphism:")


def test_classify_theta_large_branch(capsys):
    code, out, err = run_cli(capsys, "classify-theta", "--theta", "0,1,-1,0", "--branch", "1000001")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["n"] == 1000001


def test_classify_theta_refuses_branch_beyond_k_limit(capsys):
    code, out, err = run_cli(capsys, "classify-theta", "--theta", "0,1,-1,0", "--branch", str(10**18 + 1))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "K_LIMIT" in err


@pytest.mark.parametrize(
    "theta, chi, shift, box, message",
    [
        ("0,1,-1,0", "0,1,-1,0", 10**330, 1, "shift (beta1, gamma1)"),
        ("1,1,-1,0", "1,0,0,1", 17 * 10**307, 0, "lifted shift (gamma, delta)"),
        ("0,1,-1,-1", "1,0,0,1", 17 * 10**307, 2, "lattice image point"),
    ],
)
def test_extend_refuses_values_beyond_float_range(capsys, theta, chi, shift, box, message):
    code, out, err = run_cli(
        capsys,
        "extend",
        "--theta", theta,
        "--zeta", "1", "--chi", chi, "--beta1", str(shift), "--gamma1", str(shift), "--box", str(box),
    )
    assert code == 2 and out == ""
    assert err == f"s2sym: {message} does not fit in a float\n"


@pytest.mark.parametrize(
    "theta, message",
    [
        # admissible (trace 0, det 1), but an entry has 401 digits
        (f"{10**200},1,{-(10**400 + 1)},{-(10**200)}", "theta does not fit in a float"),
        # a conjugate of ((0, 1), (-1, 0)) whose float frame matrix Mbar is singular
        (f"{-(10**40)},{10**80 + 1},-1,{10**40}", "theta is too large for the float frame: Mbar is singular"),
    ],
    ids=("401-digit-entry", "singular-frame"),
)
@pytest.mark.parametrize("extra", [("classify-theta",), ("extend", "--zeta", "1", "--chi", "1,0,0,1")])
def test_theta_beyond_float_range_exits_two(capsys, extra, theta, message):
    code, out, err = run_cli(capsys, extra[0], "--theta", theta, *extra[1:])
    assert code == 2 and out == ""
    assert err == f"s2sym: {message}\n"


def test_extend_refuses_box_above_box_limit(capsys):
    from s2sym.extension import BOX_LIMIT

    code, out, err = run_cli(
        capsys, "extend", "--theta", "0,1,-1,0", "--zeta", "1", "--chi", "1,0,0,1", "--box", str(BOX_LIMIT + 1)
    )
    assert code == 2 and out == ""
    assert err == f"s2sym: box {BOX_LIMIT + 1} above BOX_LIMIT = {BOX_LIMIT}\n"


GENERATORS = ("--g1", "1,0,0", "--g2", "0,1,0", "--g3", "0,0,1")


@pytest.mark.parametrize(
    "argv",
    [
        ("classify-theta", "--theta", "0,1,-1,0", "--box", "-5"),
        ("check-generators", "--theta", "0,1,-1,0", *GENERATORS, "--box", "3"),
        ("check-generators", "--theta", "0,1,-1,0", *GENERATORS, "--branch", "1"),
        ("lattice-points", "--theta", "0,1,-1,0", "--branch", "2"),
        ("lattice-points", "--theta", "0,1,-1,0", "-n", "1"),
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments" in captured.err


HUGE = str(10**4000)  # its square has more digits than str() of an int allows


@pytest.mark.parametrize(
    "argv",
    [
        ("extend", "--theta", "0,1,-1,0", "--zeta", "1", "--chi", f"{HUGE},0,0,{HUGE}"),
        ("lattice-points", "--theta", "0,1,-1,0", "--box", "1", "--apply", f"1,{HUGE},0,0,{HUGE},0,0"),
    ],
    ids=("extend", "lattice-points"),
)
def test_huge_non_unimodular_chi_is_not_an_automorphism(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "s2sym: not an automorphism: chi has det <26576-bit integer>, not +-1\n"


def test_huge_non_unimodular_chi_is_an_inelastic_reason(capsys):
    code, out, err = run_cli(
        capsys, "check-generators", "--theta", "0,1,-1,0", "--g1", "1,0,0", "--g2", f"0,{HUGE},1", "--g3", f"0,1,{HUGE}"
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["class"] == "inelastic" and report["reason"] == "chi has det <26576-bit integer>, not +-1"


def test_theta_with_huge_determinant_exits_two(capsys):
    code, out, err = run_cli(capsys, "classify-theta", "--theta", f"{HUGE},0,0,{HUGE}")
    assert code == 2 and out == ""
    assert err == "s2sym: theta must have determinant 1, got <26576-bit integer>\n"
