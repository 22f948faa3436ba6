"""scripts/extension_survey.py: argument bounds, and no survey that checks nothing."""

import runpy
import sys
from pathlib import Path

import pytest

import s2sym
from s2sym.extension import BOX_LIMIT

SURVEY = Path(__file__).resolve().parent.parent / "scripts" / "extension_survey.py"


def _run(monkeypatch, *args):
    monkeypatch.setattr(sys, "argv", ["extension_survey.py", *args])
    runpy.run_path(str(SURVEY), run_name="__main__")


@pytest.mark.parametrize(
    "args",
    [("--box", "-1"), ("--box", str(BOX_LIMIT + 1)), ("--shift", "-1"), ("--box", "x")],
    ids=["box-negative", "box-above-limit", "shift-negative", "box-not-an-integer"],
)
def test_bad_arguments_exit_two_with_usage(monkeypatch, capsys, args):
    with pytest.raises(SystemExit) as exc:
        _run(monkeypatch, *args)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: extension_survey.py")
    assert error.startswith(f"extension_survey.py: error: argument {args[0]}: ")


def test_a_class_without_automorphisms_fails(monkeypatch):
    monkeypatch.setattr(s2sym, "enumerate_elastic", lambda theta, betas, gammas: [])
    with pytest.raises(SystemExit, match="no automorphism to lift for trace -2"):
        _run(monkeypatch)
