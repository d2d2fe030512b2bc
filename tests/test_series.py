from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from inctrees.series import Series


def S(*coeffs):
    return Series(coeffs)


def test_add_cancellation():
    assert S(1, 1) + S(1, -1) == S(2, 0)


def test_add_identity():
    s = S(3, F(1, 2), 7)
    assert Series.zero(2) + s == s


def test_add_exact_rationals():
    assert (S(0, 0, F(1, 2)) + S(0, 0, F(1, 3)))[2] == F(5, 6)


def test_mul_difference_of_squares():
    assert S(1, 1, 0) * S(1, -1, 0) == S(1, 0, -1)


def test_mul_identity():
    s = S(2, F(3, 5), 0, 1)
    assert s * Series.one(3) == s


def test_mul_truncates_to_min_order():
    prod = S(1, 1, 1) * S(1, -1)
    assert prod.order == 1
    assert prod == S(1, 0)


def test_scalar_multiplication():
    assert 3 * S(1, F(1, 3)) == S(3, 1)


def test_differentiate_cube():
    assert S(0, 0, 0, F(1, 6)).differentiate() == S(0, 0, F(1, 2))


def test_integrate_square():
    assert S(0, 0, 1).integrate() == S(0, 0, 0, F(1, 3))


def test_derivative_of_integral_round_trip():
    s = S(0, 0, 0, 0, 1)
    assert s.integrate().differentiate() == s


def test_compose_geometric_with_z():
    geom = Series([1] * 5)
    assert geom.compose(Series.identity(4)) == geom


def test_compose_with_zero():
    e = S(1, 1, F(1, 2), F(1, 6))
    assert e.compose(Series.zero(3)) == Series.one(3)


def test_compose_even_inner():
    outer = S(1, 0, 1, 0, 0)
    inner = S(0, 0, F(1, 2), 0, 0)
    assert outer.compose(inner) == S(1, 0, 0, 0, F(1, 4))


def test_compose_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        S(1, 1).compose(S(1, 1))


def test_reciprocal_geometric():
    assert S(1, -1, 0, 0, 0).reciprocal() == Series([1] * 5)


def test_reciprocal_rejects_zero_constant():
    with pytest.raises(ValueError):
        S(0, 1).reciprocal()


def test_sqrt_of_one():
    assert Series.one(4).sqrt() == Series.one(4)


def test_sqrt_one_minus_z_squared():
    s = S(1, 0, -1, 0, 0, 0, 0).sqrt()
    assert s.coefficients[:6] == (1, 0, F(-1, 2), 0, F(-1, 8), 0)
    assert s * s == S(1, 0, -1, 0, 0, 0, 0)


def test_sqrt_rejects_non_square_constant():
    with pytest.raises(ValueError):
        S(2, 0).sqrt()
    with pytest.raises(ValueError):
        S(0, 1).sqrt()
    with pytest.raises(ValueError, match="square of a nonzero rational"):
        S(-4, 1).sqrt()


def test_reversion_of_identity():
    assert Series.identity(5).reversion() == Series.identity(5)


def test_reversion_known_involution():
    # z/(1-z) = z + z^2 + z^3 + ...  <->  z/(1+z) = z - z^2 + z^3 - ...
    forward = Series([0] + [1] * 6)
    back = forward.reversion()
    assert back == Series([0] + [(-1) ** (i - 1) for i in range(1, 7)])


def test_reversion_round_trip():
    s = S(0, 1, -1, 0, 0, 0, 0)
    assert s.compose(s.reversion()) == Series.identity(6)


def test_reversion_rejects_zero_linear_term():
    with pytest.raises(ValueError):
        S(0, 0, 1).reversion()
    with pytest.raises(ValueError):
        S(1, 1).reversion()


def test_coefficient_access_is_bounded():
    s = S(1, 2)
    with pytest.raises(IndexError):
        s.coefficient(2)


def test_floats_rejected():
    with pytest.raises(TypeError):
        Series([0.5])


small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@given(st.lists(small_fraction, min_size=1, max_size=8))
def test_differentiate_integrate_is_identity(coeffs):
    s = Series(coeffs)
    assert s.integrate().differentiate() == s


@given(st.lists(small_fraction, min_size=2, max_size=7),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0))
def test_reversion_round_trip_property(tail, denom, num):
    coeffs = [F(0), F(num, denom)] + tail
    s = Series(coeffs)
    assert s.compose(s.reversion()) == Series.identity(s.order)


@given(st.lists(small_fraction, min_size=1, max_size=7))
def test_sqrt_squares_back(tail):
    s = Series([F(1)] + tail)
    root = s.sqrt()
    assert root * root == s
    assert root.coefficients[0] > 0


@given(st.lists(small_fraction, min_size=1, max_size=8))
def test_coefficients_stay_normalized(coeffs):
    from math import gcd

    s = Series(coeffs) * Series(coeffs)
    for c in s.coefficients:
        assert gcd(c.numerator, c.denominator) == 1
        assert c.denominator > 0
