"""The degree-word hook sums against the per-tree loops in ``oracle.py``.

``hooks._tree_sum`` sums over a census of (sorted out-degrees, sorted
hook-lengths) with integer hook products over one common denominator per
degree multiset, and ``hook_sum_bucket`` reads a census of integer labelling
counts per degree multiset; ``_label_blocks`` is a flat backtracking
generator of sorted label blocks.  These tests pin each to the route it
replaced: one ``Fraction`` product per ``OrderedTree``, bucket hook-lengths
from the subtree objects, and the frozenset labelling generator, with the
sibling-sorted labellings pinned to that generator's output filtered after
generation.  Hypothesis runs with a fixed seed.
"""
from fractions import Fraction as F

import oracle
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from inctrees.hooks import (
    generic_hook_weight_sum,
    hook_sum_bucket,
    hook_sum_k_labelled,
    hook_sum_k_tuple,
)
from inctrees.trees import (
    _label_blocks,
    enumerate_bucket_functions,
    enumerate_ordered_trees,
    falling_factorial,
)
from inctrees.weights import DegreeWeights

weight_fraction = st.one_of(
    st.just(F(0)), st.fractions(min_value=0, max_value=5, max_denominator=7)
)
signed_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=6)
poly_weights = st.lists(weight_fraction, min_size=1, max_size=8).map(
    lambda cs: DegreeWeights.polynomial([cs[0] or F(1)] + cs[1:])
)
RHO_FAMILIES = {
    "ordered": DegreeWeights.bundled(1),
    "binary": DegreeWeights.polynomial([1, 2, 1]),
    "strict-binary": DegreeWeights.polynomial([1, 0, 1]),
}


@given(poly_weights, st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None, derandomize=True)
@example(DegreeWeights.polynomial([F(1, 2), 0, 3, F(2, 7)]), 3, 8)
def test_k_labelled_and_k_tuple_sums_equal_per_tree_loop(weights, k, n):
    labelled = hook_sum_k_labelled(weights, k, n)
    want = oracle.tree_hook_sum(
        weights, n, {h: F(1, falling_factorial(k * h, k)) for h in range(1, n + 1)}
    )
    assert (labelled.lhs, labelled.trees_visited) == want
    ktuple = hook_sum_k_tuple(weights, k, n)
    want = oracle.tree_hook_sum(weights, n, {h: F(1, h**k) for h in range(1, n + 1)})
    assert (ktuple.lhs, ktuple.trees_visited) == want


@given(st.sampled_from(sorted(RHO_FAMILIES)),
       st.lists(signed_fraction, min_size=1, max_size=3),
       st.lists(signed_fraction, min_size=1, max_size=3),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None, derandomize=True)
@example("binary", [F(-1, 2), 3], [2, F(1, 3), -1], 8)
def test_rho_sum_equals_per_tree_loop(family, num, den, n):
    def value(coeffs, h):
        return sum(c * h**i for i, c in enumerate(coeffs))

    assume(all(value(den, h) != 0 for h in range(1, n + 1)))
    rho = {h: F(value(num, h)) / value(den, h) for h in range(1, n + 1)}
    want, _ = oracle.tree_hook_sum(RHO_FAMILIES[family], n, rho)
    assert generic_hook_weight_sum(family, num, den, n) == want


@given(poly_weights, st.integers(min_value=1, max_value=7), st.sampled_from([None, 2]))
@settings(max_examples=40, deadline=None, derandomize=True)
@example(DegreeWeights.polynomial([2, 0, F(5, 3), 1]), 7, None)
@example(DegreeWeights.polynomial([2, 0, F(5, 3), 1]), 7, 2)
def test_bucket_sum_equals_per_tree_loop(weights, m, max_bucket):
    report = hook_sum_bucket(weights, m, max_bucket)
    assert (report.lhs, report.trees_visited) == oracle.bucket_hook_sum(weights, m, max_bucket)


@pytest.mark.parametrize("max_bucket", [None, 2])
def test_bucket_sums_at_one_label_count_share_the_census(max_bucket):
    # the census is built by the first weight and read by the others
    for spec in ("exp", "poly:1,0,1", "poly:2,0,0,1/3", "bundled:1", "poly:1,1,0,0,0,1"):
        weights = DegreeWeights.parse(spec)
        report = hook_sum_bucket(weights, 6, max_bucket)
        assert (report.lhs, report.trees_visited) == \
            oracle.bucket_hook_sum(weights, 6, max_bucket)
        assert report.equal


def test_labellings_equal_frozenset_generator():
    for n in range(1, 7):
        for tree in enumerate_ordered_trees(n):
            parents = tree.parent_indices()
            for m in range(n, 8):
                for buckets in enumerate_bucket_functions(tree, m):
                    got = [tuple(map(frozenset, b)) for b in _label_blocks(parents, buckets)]
                    assert got == list(oracle.increasing_labellings(tree, buckets))


def test_sibling_sorted_labellings_equal_filtered_generator():
    # pruning at each node skips exactly what the filter after generation drops
    for n in range(1, 7):
        for tree in enumerate_ordered_trees(n):
            parents = tree.parent_indices()
            for m in range(n, 8):
                for buckets in enumerate_bucket_functions(tree, m):
                    got = [tuple(map(frozenset, b)) for b in _label_blocks(parents, buckets, True)]
                    assert got == list(oracle.sibling_sorted_labellings(tree, buckets))
