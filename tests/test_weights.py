from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from inctrees.weights import DegreeWeights


def test_exponential_coefficient():
    assert DegreeWeights.exponential().coefficient(3) == F(1, 6)


def test_bundled_coefficient():
    # C(j + d - 1, j) at d=3, j=2
    assert DegreeWeights.bundled(3).coefficient(2) == 6


def test_cosh_is_even():
    w = DegreeWeights.cosh()
    assert w.coefficient(1) == 0
    assert w.coefficient(2) == F(1, 2)


def test_exp_minus_t_zeroes_only_the_linear_weight():
    w = DegreeWeights.exp_minus_t()
    assert w.coefficient(0) == 1
    assert w.coefficient(1) == 0
    assert w.coefficient(3) == F(1, 6)


def test_ordered_minus_t():
    w = DegreeWeights.ordered_minus_t()
    assert [w(j) for j in range(5)] == [1, 0, 1, 1, 1]


def test_antiderivative_strict_binary():
    # phi = 1 + t^2  ->  Phi = t + t^3/3
    w = DegreeWeights.polynomial([1, 0, 1])
    assert w.antiderivative_series(4).coefficients == (0, 1, 0, F(1, 3), 0)


def test_antiderivative_exponential():
    # Phi = e^x - 1
    got = DegreeWeights.exponential().antiderivative_series(4)
    assert got.coefficients == (0, 1, F(1, 2), F(1, 6), F(1, 24))


def test_antiderivative_two_bundled():
    # phi = 1/(1-t)^2  ->  Phi = x/(1-x)
    got = DegreeWeights.bundled(2).antiderivative_series(5)
    assert got.coefficients == (0, 1, 1, 1, 1, 1)


@pytest.mark.parametrize(
    "weights",
    [
        DegreeWeights.exponential(),
        DegreeWeights.cosh(),
        DegreeWeights.bundled(2),
        DegreeWeights.polynomial([2, 0, F(1, 2), 3]),
        DegreeWeights.ordered_minus_t(),
    ],
)
def test_derivative_series_matches_series_derivative(weights):
    assert weights.derivative_series(6) == weights.as_series(7).differentiate()


def test_bundled_binomial_identity():
    w = DegreeWeights.bundled(4)
    from math import comb

    for j in range(12):
        assert w.coefficient(j) == comb(j + 3, j)


def test_phi0_must_be_positive():
    with pytest.raises(ValueError):
        DegreeWeights.polynomial([0, 1])
    with pytest.raises(ValueError):
        DegreeWeights.custom(lambda j: F(0))


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        DegreeWeights.polynomial([1, -1])
    w = DegreeWeights.custom(lambda j: F(1 - j))
    with pytest.raises(ValueError):
        w.coefficient(2)


def test_custom_access_is_deterministic():
    calls = []

    def fn(j):
        calls.append(j)
        return F(1, j + 1)

    w = DegreeWeights.custom(fn)
    assert w.coefficient(5) == w.coefficient(5)
    assert calls.count(5) == 1


@pytest.mark.parametrize(
    "text,j,expected",
    [
        ("exp", 2, F(1, 2)),
        ("cosh", 4, F(1, 24)),
        ("bundled:3", 1, 3),
        ("poly:1,0,1", 2, 1),
        ("poly:1/2,3/2", 1, F(3, 2)),
        ("exp-t", 1, 0),
        ("ordered-t", 2, 1),
    ],
)
def test_parse_grammar(text, j, expected):
    assert DegreeWeights.parse(text).coefficient(j) == expected


def test_parse_rejects_unknown():
    with pytest.raises(ValueError):
        DegreeWeights.parse("nosuch:1")


def phis(weights, count=11):
    return [weights.coefficient(j) for j in range(count)]


weight = st.fractions(min_value=0, max_value=50, max_denominator=12)


@given(st.lists(weight, min_size=1, max_size=8).filter(lambda cs: cs[0] > 0),
       st.sampled_from([",", ", ", " ,"]))
@settings(max_examples=60, derandomize=True)
def test_parse_poly_equals_constructor(coeffs, sep):
    text = "poly:" + sep.join(str(c) for c in coeffs)
    assert phis(DegreeWeights.parse(text)) == phis(DegreeWeights.polynomial(coeffs))


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=40, derandomize=True)
def test_parse_bundled_equals_constructor(d):
    assert phis(DegreeWeights.parse(f"bundled:{d}")) == phis(DegreeWeights.bundled(d))


grammar_like = st.builds(
    str.__add__,
    st.sampled_from(["", " ", "exp", "cosh", "exp-t", "ordered-t", "bundled:", "poly:", "x:"]),
    st.text(alphabet="0123456789,/-+.eE_: ", max_size=12),
)


@given(st.one_of(grammar_like, st.text(max_size=20)))
@settings(max_examples=300, derandomize=True)
def test_parse_succeeds_or_names_the_spec(text):
    try:
        weights = DegreeWeights.parse(text)
    except ValueError as exc:  # any other exception fails the test
        assert repr(text.strip()) in str(exc)
    else:
        assert weights.coefficient(0) > 0
