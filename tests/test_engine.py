"""The online power-table engine against the slow routes in ``oracle.py``.

The engine (``solvers._online``) and ``Series.reversion`` replaced
fixed-point iteration, the composition recurrence and one full composition
per order.  These properties pin them to those routes on random small
rational weights and series, with a fixed Hypothesis seed.
"""
from fractions import Fraction as F

import oracle
from hypothesis import given, settings, strategies as st

from inctrees.reverse import reverse_engineer
from inctrees.series import Series
from inctrees.solvers import (
    free_multilabelled_series,
    k_labelled_series,
    solve_free_multilabelled,
    solve_k_labelled,
    solve_k_tuple,
    solve_unilabelled_bilabelled,
    unilabelled_bilabelled_series,
)
from inctrees.weights import DegreeWeights

small_fraction = st.fractions(min_value=0, max_value=4, max_denominator=4)


def rational_weights(max_degree=4):
    """phi_0 > 0 and phi_1 .. phi_d >= 0, or one of the infinite kinds."""
    polynomials = st.lists(small_fraction, min_size=1, max_size=max_degree + 1).map(
        lambda cs: DegreeWeights.polynomial([cs[0] or F(1)] + cs[1:])
    )
    named = st.sampled_from([
        DegreeWeights.exponential(), DegreeWeights.cosh(), DegreeWeights.bundled(2),
        DegreeWeights.exp_minus_t(), DegreeWeights.ordered_minus_t(),
    ])
    return st.one_of(polynomials, named)


@given(rational_weights(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_engine_equals_fixed_point_oracle(weights, k, terms):
    assert tuple(solve_k_tuple(weights, k, terms)) == oracle.k_tuple_values(weights, k, terms)
    assert tuple(solve_free_multilabelled(weights, terms)) == \
        oracle.free_multilabelled_values(weights, terms)
    assert tuple(solve_unilabelled_bilabelled(weights, terms)) == \
        oracle.unilabelled_bilabelled_values(weights, terms)
    assert tuple(solve_k_labelled(weights, k, terms)) == \
        oracle.k_labelled_values(weights, k, terms)


@given(rational_weights(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_series_views_equal_fixed_point_oracle(weights, k, order):
    assert k_labelled_series(weights, k, order) == oracle.k_labelled_series(weights, k, order)
    assert free_multilabelled_series(weights, order) == \
        oracle.free_multilabelled_series(weights, order)
    if order >= 1:
        assert unilabelled_bilabelled_series(weights, order) == \
            oracle.unilabelled_bilabelled_series(weights, order)


@given(st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(lambda x: x != 0),
       st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), max_size=10))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_reversion_equals_compose_per_order_oracle(linear, tail):
    f = Series([F(0), linear] + tail)
    assert f.reversion() == oracle.reversion(f)


@given(st.lists(small_fraction, min_size=1, max_size=6), st.integers(min_value=2, max_value=9))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_reverse_engineer_inverts_two_label_solver(coeffs, terms):
    phi = [coeffs[0] or F(1)] + coeffs[1:]
    weights = DegreeWeights.polynomial(phi)
    report = reverse_engineer(solve_k_labelled(weights, 2, terms))
    assert report.phi == tuple(weights.coefficient(j) for j in range(terms))
    assert report.admissible
