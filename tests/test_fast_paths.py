"""Property tests that pin each fast path to the slow path it stands for.

* The lattice sum raises each point along one chain of products
  (``families._power_steps``); each power equals ``pow(s, e)``.
* ``series._parse_fraction`` reads an ASCII-digit literal with ``int``; it
  equals ``Fraction(text)``, and other digits keep the ``Fraction`` route.
* The engine's Phi_j = j! phi_j is an int by one ``divmod`` when that is
  exact (``solvers._scaled_phi``); it equals the ``Fraction`` product.
* The brute-force labellings place the last node in preorder without a
  combination; the counts equal the hook-length formula.
"""
import sys
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from inctrees.families import _power_steps, strict_binary_lattice_sums
from inctrees.series import _parse_fraction
from inctrees.solvers import _scaled_phi
from inctrees.trees import (
    count_k_labellings_bruteforce,
    count_k_labellings_formula,
    enumerate_ordered_trees,
)
from inctrees.weights import DegreeWeights

EXPONENTS = range(1, 65)


def chain_powers(s: complex, exponents) -> dict:
    powers = {1: s}
    for e, a, b in _power_steps(exponents):
        powers[e] = powers[a] * powers[b]
    return powers


def bases():
    part = st.floats(min_value=-2, max_value=2, allow_nan=False)
    return st.builds(complex, part, part).filter(lambda s: abs(s) >= 0.25)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bases())
def test_power_chain_equals_pow(s):
    powers = chain_powers(s, EXPONENTS)
    for e in EXPONENTS:
        exact = pow(s, e)
        assert abs(powers[e] - exact) <= 1e-15 * e * abs(exact), e
        if sys.implementation.name == "cpython":
            # the chain makes the very products of CPython's pow
            assert powers[e] == exact, e


@settings(max_examples=50, deadline=None, derandomize=True)
@given(bases(), st.lists(st.sampled_from(EXPONENTS), min_size=1, max_size=6))
def test_power_chain_of_one_exponent_is_that_of_many(s, exponents):
    together = chain_powers(s, exponents)
    for e in exponents:
        assert chain_powers(s, [e])[e] == together[e]


def test_power_steps_share_squares_and_prefixes():
    # 3 = 1 + 2 and 6 = 2 + 4 are products; 2, 4 and 8 are squares, each once
    assert _power_steps([3, 4, 6, 8]) == [(2, 1, 1), (3, 1, 2), (4, 2, 2), (6, 2, 4), (8, 4, 4)]
    assert _power_steps([7, 5]) == [(2, 1, 1), (3, 1, 2), (4, 2, 2), (7, 3, 4), (5, 1, 4)]
    assert _power_steps([1]) == []


@pytest.mark.parametrize("cutoff", [10, 50])
def test_lattice_sums_of_one_n_equal_those_of_many(cutoff):
    ns = (2, 3, 5, 7, 63)
    for n, result in zip(ns, strict_binary_lattice_sums(ns, cutoff)):
        assert strict_binary_lattice_sums((n,), cutoff)[0] == result


def outcome(parse, text):
    try:
        return "value", parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return "error", type(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(alphabet="0123456789", min_size=1, max_size=80))
def test_ascii_digit_literals_parse_as_fraction_does(text):
    value = _parse_fraction(text)
    assert type(value) is Fraction and value == Fraction(text)


NON_ASCII_DIGITS = "٣²３४①"  # Arabic-Indic 3, superscript 2, full-width 3, ...


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(alphabet="0123456789" + NON_ASCII_DIGITS, min_size=1, max_size=12))
def test_other_digits_keep_the_fraction_route(text):
    assert outcome(_parse_fraction, text) == outcome(Fraction, text)


@pytest.mark.parametrize("text", ["٣", "²", "３", "12²", "１２", "007"])
def test_named_digit_literals_keep_their_result(text):
    assert outcome(_parse_fraction, text) == outcome(Fraction, text)


def rational_weights():
    entry = st.fractions(min_value=0, max_value=6, max_denominator=40)
    return st.lists(entry, min_size=1, max_size=7).map(
        lambda cs: DegreeWeights.polynomial([cs[0] or Fraction(1, 3)] + cs[1:])
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rational_weights(), st.integers(min_value=1, max_value=12))
def test_scaled_phi_equals_the_fraction_product(weights, terms):
    fast = _scaled_phi(weights, terms)
    slow = [factorial(j) * weights.coefficient(j) for j in range(terms)]
    assert fast == slow
    # an int exactly where the product is integral
    assert [type(p) is int for p in fast] == [p.denominator == 1 for p in slow]


def test_scaled_phi_of_exp_is_all_ones():
    assert _scaled_phi(DegreeWeights.exponential(), 20) == [1] * 20
    assert all(type(p) is int for p in _scaled_phi(DegreeWeights.exponential(), 20))


def test_k_labelling_bruteforce_equals_formula_to_five_nodes():
    for n in range(1, 6):
        for tree in enumerate_ordered_trees(n):
            for k in range(1, 12 // n + 1):
                assert count_k_labellings_bruteforce(tree, k) == count_k_labellings_formula(tree, k)
