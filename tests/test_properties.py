"""Property-based checks over randomly drawn degree weights.

The named families pin down specific sequences; these tests assert the
structural identities for arbitrary small weight polynomials, so the
solvers, oracles and hook sums are exercised away from any memorized
values.
"""
from fractions import Fraction as F
from math import factorial

from hypothesis import given, settings, strategies as st

from inctrees.hooks import hook_sum_bucket, hook_sum_k_labelled, hook_sum_k_tuple
from inctrees.solvers import (
    first_order_invariant_check,
    solve_free_multilabelled,
    solve_k_labelled,
    solve_k_tuple,
    solve_unilabelled_bilabelled,
)
from inctrees.trees import (
    count_k_labellings_formula,
    count_k_tuple_labellings,
    enumerate_ordered_trees,
    tree_weight,
)
from inctrees.weights import DegreeWeights


def weight_polynomials(max_degree=4, max_value=4):
    return st.lists(
        st.integers(min_value=0, max_value=max_value),
        min_size=1,
        max_size=max_degree + 1,
    ).map(lambda cs: DegreeWeights.polynomial([max(cs[0], 1)] + cs[1:]))


@given(weight_polynomials())
@settings(max_examples=25, deadline=None)
def test_hook_identity_holds_for_random_weights(weights):
    for n in range(1, 5):
        assert hook_sum_k_labelled(weights, 2, n).equal


@given(weight_polynomials(), st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_k_tuple_hook_identity_for_random_weights(weights, k):
    for n in range(1, 5):
        assert hook_sum_k_tuple(weights, k, n).equal


@given(weight_polynomials())
@settings(max_examples=15, deadline=None)
def test_bucket_hook_identities_for_random_weights(weights):
    for m in range(1, 5):
        assert hook_sum_bucket(weights, m).equal
        assert hook_sum_bucket(weights, m, max_bucket=2).equal


@given(weight_polynomials())
@settings(max_examples=25, deadline=None)
def test_free_multilabelling_equals_shifted_single_labelling(weights):
    shifted = DegreeWeights.custom(
        lambda j, _w=weights: _w.coefficient(j) + (1 if j == 1 else 0),
        name="shifted",
    )
    assert tuple(solve_free_multilabelled(weights, 7)) == \
        tuple(solve_k_labelled(shifted, 1, 7))


@given(weight_polynomials(), st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_solver_equals_weighted_tree_sum(weights, k):
    seq = solve_k_labelled(weights, k, 4)
    for n in range(1, 5):
        total = sum(
            (
                tree_weight(t, weights) * count_k_labellings_formula(t, k)
                for t in enumerate_ordered_trees(n)
            ),
            F(0),
        )
        assert seq[n] == total


@given(weight_polynomials(), st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_k_tuple_solver_equals_weighted_tree_sum(weights, k):
    seq = solve_k_tuple(weights, k, 5)
    for n in range(1, 6):
        total = sum(
            (
                tree_weight(t, weights) * count_k_tuple_labellings(t, k)
                for t in enumerate_ordered_trees(n)
            ),
            F(0),
        )
        assert seq[n] == total


@given(weight_polynomials())
@settings(max_examples=20, deadline=None)
def test_first_order_invariant_for_random_weights(weights):
    assert first_order_invariant_check(weights, solve_k_labelled(weights, 2, 6)).ok


@given(weight_polynomials())
@settings(max_examples=25, deadline=None)
def test_integer_weights_give_nonnegative_integer_counts(weights):
    for seq in (
        solve_k_labelled(weights, 2, 6),
        solve_free_multilabelled(weights, 6),
        solve_unilabelled_bilabelled(weights, 6),
        solve_k_tuple(weights, 2, 6),
    ):
        values = seq.as_integers()
        assert all(v >= 0 for v in values)


@given(weight_polynomials())
@settings(max_examples=15, deadline=None)
def test_unibi_bucket_sum_equals_solver(weights):
    # independent route to the uni-bi sequence: trees, bucket functions
    # capped at two, and the labelling-count formula
    from inctrees.trees import (
        count_bucket_labellings_formula,
        enumerate_bucket_functions,
    )

    seq = solve_unilabelled_bilabelled(weights, 5)
    for m in range(1, 6):
        total = F(0)
        for size in range((m + 1) // 2, m + 1):
            for tree in enumerate_ordered_trees(size):
                w = tree_weight(tree, weights)
                if w == 0:
                    continue
                for buckets in enumerate_bucket_functions(tree, m, max_bucket=2):
                    total += w * count_bucket_labellings_formula(tree, buckets)
        assert seq[m] == total
