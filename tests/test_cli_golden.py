"""Golden transcript of the command-line front end.

Every case runs s2sym.cli.main in-process and must reproduce, byte for
byte, the exit code, the stdout and (for a nonzero exit) the first stderr
line recorded in golden_cli.json. An exception escaping main is recorded
as the interpreter would report it: exit 1 and a traceback on stderr.
The integer commands and the input errors must also reproduce it in an
interpreter that cannot import numpy.

The transcript is recorded from the program, never written by hand:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden_cli.json
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

import pytest

from s2sym.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_cli.json"

# The canonical matrix of each finite-order class (traces -2, -1, 0, 1).
THETAS = ("-1,0,0,-1", "0,1,-1,-1", "0,1,-1,0", "1,1,-1,0")


def _cases() -> list[list[str]]:
    cases = []
    for theta in THETAS:
        per_theta = [
            ["classify-theta", "--theta", theta],
            # an automorphism image, a triple whose B image carries A, a sublattice
            ["check-generators", "--theta", theta, "--g1", "1,1,-1", "--g2", "0,1,0", "--g3", "0,0,1"],
            ["check-generators", "--theta", theta, "--g1", "1,0,0", "--g2", "1,1,0", "--g3", "0,0,1"],
            ["check-generators", "--theta", theta, "--g1", "1,0,0", "--g2", "0,2,0", "--g3", "0,0,1"],
            # chi = theta commutes with theta; the swap conjugates each class to its inverse
            ["extend", "--theta", theta, "--zeta", "1", "--chi", theta, "--beta1", "1", "--gamma1", "-2"],
            ["extend", "--theta", theta, "--zeta", "-1", "--chi", "0,1,1,0", "--beta1", "2"],
            ["lattice-points", "--theta", theta, "--box", "1"],
            ["lattice-points", "--theta", theta, "--box", "1", "--apply", f"1,{theta},1,-2"],
        ]
        for argv in per_theta:
            cases += [argv + ["--format", "json"], argv + ["--format", "text"]]
    cases += [
        # malformed or inadmissible inputs
        ["classify-theta", "--theta", "2,1,1,1"],
        ["check-generators", "--theta", "0,1,-1,0", "--g1", "1,2", "--g2", "0,1,0", "--g3", "0,0,1"],
        ["extend", "--theta", "0,1,-1,0", "--zeta", "1", "--chi", "1,1,0,1"],
        ["lattice-points", "--theta", "1,1,-1,0", "--box", "-1"],
        # theta = -I automorphisms of D that do not lift to the continuous group
        ["check-generators", "--theta", "-1,0,0,-1", "--g1", "1,0,0", "--g2", "0,1,0", "--g3", "0,1,1"],
        ["extend", "--theta", "-1,0,0,-1", "--zeta", "1", "--chi", "1,1,0,1"],
    ]
    return cases


CASES = _cases()


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    first = err.getvalue().splitlines()[:1]
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": first[0] if code != 0 and first else None,
    }


@pytest.fixture(scope="module")
def transcript() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def test_transcript_covers_the_cases(transcript):
    assert [entry["argv"] for entry in transcript] == CASES


@pytest.mark.parametrize("index", range(len(CASES)), ids=[" ".join(argv) for argv in CASES])
def test_cli_matches_transcript(transcript, index):
    assert run(CASES[index]) == transcript[index]


def _python(script: str, *args: str, stdin: str = "") -> str:
    """stdout of script in a fresh interpreter with src/ and this directory on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]))
    result = subprocess.run(
        [sys.executable, "-c", script, *args], input=stdin, capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_integer_commands_match_transcript_without_numpy(transcript):
    entries = [
        e for e in transcript if e["argv"][0] in ("check-generators", "lattice-points") or e["exit"] == 2
    ]
    script = (
        "import json, sys\n"
        "sys.modules['numpy'] = None  # importing numpy now raises ImportError\n"
        "from test_cli_golden import run\n"
        "print(json.dumps([run(argv) for argv in json.load(sys.stdin)]))"
    )
    out = _python(script, stdin=json.dumps([e["argv"] for e in entries]))
    assert json.loads(out) == entries


def test_check_generators_loads_no_float_layer():
    argv = ["check-generators", "--theta", "0,1,-1,0", "--g1", "1,0,0", "--g2", "0,1,0", "--g3", "0,0,1"]
    script = (
        "import sys\n"
        "from test_cli_golden import run\n"
        "assert run(sys.argv[1:])['exit'] == 0\n"
        "print([m for m in ('numpy', 's2sym.liegroup', 's2sym.autos', 's2sym.extension') if m in sys.modules])"
    )
    assert _python(script, *argv) == "[]\n"


if __name__ == "__main__":
    sys.stdout.write(json.dumps([run(argv) for argv in CASES], indent=1) + "\n")
