from functools import reduce

import pytest
from hypothesis import given, strategies as st

from s2sym import InvalidThetaError, Mat2Z, hcf_all, theta_order, theta_power
from s2sym.intmat import IDENTITY, MINUS_IDENTITY, int_text
from oracles import mat2z_pow

THETA4 = Mat2Z(0, 1, -1, 0)
THETA3 = Mat2Z(0, 1, -1, -1)
THETA6 = Mat2Z(1, 1, -1, 0)

# products of these stay unimodular
_ELEMENTARY = (Mat2Z(1, 1, 0, 1), Mat2Z(0, 1, -1, 0), Mat2Z(1, 0, 0, -1))

unimodular = st.lists(st.sampled_from(_ELEMENTARY), max_size=8).map(
    lambda ms: reduce(lambda x, y: x @ y, ms, IDENTITY)
)


def test_hcf_examples():
    assert hcf_all([6, -4, 10]) == 2
    assert hcf_all([0, 0]) == 0
    assert hcf_all([1, 0, 7, -7]) == 1


def test_hcf_empty_raises():
    with pytest.raises(ValueError):
        hcf_all([])


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6), st.randoms())
def test_hcf_sign_and_permutation_invariant(values, rnd):
    base = hcf_all(values)
    flipped = [v if rnd.random() < 0.5 else -v for v in values]
    rnd.shuffle(flipped)
    assert hcf_all(flipped) == base
    assert base >= 0


def test_pow_examples():
    assert mat2z_pow(THETA4, 2) == MINUS_IDENTITY
    assert mat2z_pow(THETA4, -1) == Mat2Z(0, -1, 1, 0)
    assert mat2z_pow(THETA6, 6) == IDENTITY


def test_pow_negative_requires_unimodular():
    with pytest.raises(ValueError):
        mat2z_pow(Mat2Z(2, 0, 0, 2), -1)


@given(unimodular, st.integers(-12, 12), st.integers(-12, 12))
def test_pow_additivity(m, e1, e2):
    assert mat2z_pow(m, e1) @ mat2z_pow(m, e2) == mat2z_pow(m, e1 + e2)


def test_theta_order_examples():
    assert theta_order(MINUS_IDENTITY) == 2
    assert theta_order(THETA4) == 4
    assert theta_order(THETA3) == 3
    assert theta_order(THETA6) == 6


@pytest.mark.parametrize("theta", [MINUS_IDENTITY, THETA3, THETA4, THETA6])
def test_theta_power_of_order_is_identity(theta):
    assert mat2z_pow(theta, theta_order(theta)) == IDENTITY


def test_theta_order_rejects_bad_trace():
    with pytest.raises(InvalidThetaError):
        theta_order(Mat2Z(2, 1, 1, 1))  # trace 3


def test_theta_order_rejects_nonscalar_trace_minus_two():
    # trace -2 but not -I: no finite order, not on a one-parameter subgroup
    with pytest.raises(InvalidThetaError):
        theta_order(Mat2Z(-1, 1, 0, -1))


def test_theta_order_rejects_det_minus_one():
    with pytest.raises(InvalidThetaError):
        theta_order(Mat2Z(0, 1, 1, 0))


@pytest.mark.parametrize("theta", [MINUS_IDENTITY, THETA3, THETA4, THETA6])
@pytest.mark.parametrize("e", [-7, -1, 0, 1, 5, 23])
def test_theta_power_matches_plain_pow(theta, e):
    assert theta_power(theta, e) == mat2z_pow(theta, e)


def test_int_text_gives_only_the_bit_length_past_64_bits():
    assert int_text(2) == "2" and int_text(-(2**64) + 1) == str(-(2**64) + 1)
    assert int_text(2**64) == "<65-bit integer>"
    # str() of this would raise ValueError: it has more than 4300 digits
    assert int_text(-(10**8000)) == "<26576-bit integer>"
