"""The CLI's input contract, fuzzed in-process over all four subcommands.

Whatever the arguments, s2sym exits 0, 2, 3 or 4, never with a traceback.
Every exit other than 0 leaves stdout empty and, apart from an argparse
usage error, writes exactly one "s2sym: " line to stderr; a success writes
nothing to stderr. The draws reach the extremes: matrix entries and shifts
up to 10^400, |q| up to 2^200, branches beyond float range and near
K_LIMIT, negative and zero boxes (capped small, so a case runs in
milliseconds), malformed tuples, and the flags a subcommand does not read.
pytest turns a RuntimeWarning into an error (pyproject.toml), so a numpy
warning printed before the "s2sym: " line fails here too.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from s2sym.cli import main

HUGE = 10**400
# theta of finite order 2, 3, 4, 6 (traces -2, -1, 0, 1)
STANDARD = ((-1, 0, 0, -1), (0, 1, -1, -1), (0, 1, -1, 0), (1, 1, -1, 0))

ints = st.one_of(
    st.integers(-3, 3),
    st.integers(-HUGE, HUGE),
    st.sampled_from((2**62, -(2**63), 17 * 10**307, -(10**309), 10**330)),
)
shear = st.one_of(st.integers(-5, 5), st.integers(-(10**200), 10**200), st.sampled_from((10**10, 10**17, -(10**40))))
malformed = st.sampled_from(("", "1", "1,2,3", "1,0,0,1,0", "a,0,0,1", "1,,0,1", "0.5,1,-1,0", "-1,-1", "-", "--x"))


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


@st.composite
def conjugates(draw):
    """A standard theta conjugated by ((1, x), (0, 1)) or ((1, 0), (x, 1)): entries near x^2."""
    a, b, c, d = draw(st.sampled_from(STANDARD))
    x = draw(shear)
    if draw(st.booleans()):
        return (a + x * c, b + x * (d - a) - x * x * c, c, d - x * c)
    return (a + x * b, b, c + x * (d - a) - x * x * b, d - x * b)


matrices = st.one_of(
    st.sampled_from(STANDARD).map(_csv),
    conjugates().map(_csv),
    st.tuples(ints, ints, ints, ints).map(_csv),
    malformed,
)
words = st.one_of(st.tuples(st.integers(-(2**200), 2**200) | st.integers(-2, 2), ints, ints).map(_csv), malformed)
branches = st.one_of(
    st.none(),
    st.integers(-12, 12),
    st.integers(1_300_000, 4_400_000),  # around K_LIMIT / (2 pi / p) for p = 2, ..., 6
    st.integers(-HUGE, HUGE),
)
boxes = st.integers(-3, 2)
shifts = st.one_of(st.none(), st.integers(-3, 3), ints)


def _flag(name, value):
    return [] if value is None else [name, str(value)]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("classify-theta", "check-generators", "extend", "lattice-points")))
    theta = draw(st.one_of(matrices, st.sampled_from(STANDARD).map(_csv)))
    argv = [command, "--theta", theta]
    if command == "classify-theta":
        argv += _flag("--branch", draw(branches))
    elif command == "check-generators":
        for flag in ("--g1", "--g2", "--g3"):
            argv += [flag, draw(words)]
    elif command == "extend":
        # chi = theta or +-I makes an automorphism, so the lift itself runs
        chi = draw(st.one_of(st.just(theta), st.sampled_from(("1,0,0,1", "-1,0,0,-1", "0,1,1,0")), matrices))
        argv += ["--zeta", draw(st.sampled_from(("1", "-1", "1", "-1", "0"))), "--chi", chi]
        argv += _flag("--beta1", draw(shifts)) + _flag("--gamma1", draw(shifts))
        argv += _flag("--branch", draw(branches)) + _flag("--box", draw(st.none() | boxes))
    else:
        argv += _flag("--box", draw(st.none() | boxes))
        apply = st.tuples(st.sampled_from((1, -1, 0)), st.just(theta) | matrices, ints, ints).map(_csv)
        argv += _flag("--apply", draw(st.none() | apply | malformed))
    # the flags a subcommand does not read are usage errors
    if command in ("classify-theta", "check-generators") and draw(st.integers(0, 9)) == 0:
        argv += ["--box", str(draw(boxes))]
    if command in ("check-generators", "lattice-points") and draw(st.integers(0, 9)) == 0:
        argv += ["--branch", str(draw(branches.filter(lambda n: n is not None)))]
    formats = ([], [], ["--format", "json"], ["--format", "text"], ["--format", "text"], ["--format", "xml"])
    return argv + draw(st.sampled_from(formats))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_every_input_meets_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    usage_error = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code, usage_error = exc.code, True
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4), (code, err)
    if code == 0:
        assert err == ""
        return
    assert out == ""
    if usage_error:
        assert code == 2 and err.startswith("usage: ")
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("s2sym: "), err
