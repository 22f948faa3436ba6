import json

import pytest

from s2sym import InternalInconsistencyError, cli
from s2sym.cli import main
from s2sym.intmat import MINUS_IDENTITY
from oracles import admissible_thetas


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
