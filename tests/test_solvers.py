from fractions import Fraction as F
from math import factorial

import pytest

from inctrees.solvers import (
    first_order_invariant_check,
    solve_free_multilabelled,
    solve_k_labelled,
    solve_k_tuple,
    solve_unilabelled_bilabelled,
)
from inctrees.series import Series
from inctrees.trees import (
    count_k_labellings_formula,
    count_k_tuple_labellings,
    enumerate_ordered_trees,
    tree_weight,
)
from inctrees.weights import DegreeWeights

EXP = DegreeWeights.exponential()
ORDERED = DegreeWeights.bundled(1)
STRICT_BINARY = DegreeWeights.polynomial([1, 0, 1], name="strict-binary")
BINARY = DegreeWeights.polynomial([1, 2, 1], name="binary")
UNARY_BINARY = DegreeWeights.polynomial([1, 1, 1], name="unary-binary")


def ints(seq):
    return seq.as_integers()


def test_two_labels_unordered():
    assert ints(solve_k_labelled(EXP, 2, 6)) == (1, 1, 4, 34, 496, 11056)


def test_two_labels_strict_binary():
    assert ints(solve_k_labelled(STRICT_BINARY, 2, 9)) == \
        (1, 0, 6, 0, 336, 0, 77616, 0, 50916096)


def test_three_labels_unordered():
    assert ints(solve_k_labelled(EXP, 3, 6)) == (1, 1, 11, 375, 27897, 3817137)


def test_k_one_recursive_trees():
    # phi = e^t with one label per node: (n-1)!
    from math import factorial

    assert ints(solve_k_labelled(EXP, 1, 7)) == \
        tuple(factorial(n - 1) for n in range(1, 8))


def test_free_strict_binary():
    assert ints(solve_free_multilabelled(STRICT_BINARY, 7)) == \
        (1, 1, 3, 9, 39, 189, 1107)


def test_free_binary():
    assert ints(solve_free_multilabelled(BINARY, 7)) == \
        (1, 3, 11, 51, 295, 2055, 16715)


def test_free_unary_binary_is_factorial():
    from math import factorial

    assert ints(solve_free_multilabelled(UNARY_BINARY, 5)) == \
        tuple(factorial(m) for m in range(1, 6))


def test_unibi_unordered():
    assert ints(solve_unilabelled_bilabelled(EXP, 7)) == (1, 2, 4, 14, 66, 392, 2806)


def test_unibi_first_value_is_phi0():
    w = DegreeWeights.polynomial([F(3, 2), 1])
    assert solve_unilabelled_bilabelled(w, 1)[1] == F(3, 2)


def test_unibi_exp_two_terms():
    assert ints(solve_unilabelled_bilabelled(EXP, 2)) == (1, 2)


def test_k_tuple_k1_reduces_to_single_labelling():
    assert ints(solve_k_tuple(EXP, 1, 5)) == (1, 1, 2, 6, 24)


def test_k_tuple_first_value_is_one():
    for k in (1, 2, 5):
        assert solve_k_tuple(ORDERED, k, 1)[1] == 1


def test_k_tuple_ordered_k2_against_bruteforce():
    # oracle: sum over plane trees of (n!/prod hooks)^2
    seq = solve_k_tuple(ORDERED, 2, 5)
    for n in range(1, 6):
        oracle = sum(
            count_k_tuple_labellings(t, 2) for t in enumerate_ordered_trees(n)
        )
        assert seq[n] == oracle
    assert ints(seq) == (1, 1, 5, 59, 1263)


def test_k_tuple_weighted_against_bruteforce():
    seq = solve_k_tuple(EXP, 3, 5)
    for n in range(1, 6):
        oracle = sum(
            (
                tree_weight(t, EXP) * count_k_tuple_labellings(t, 3)
                for t in enumerate_ordered_trees(n)
            ),
            F(0),
        )
        assert seq[n] == oracle


def test_free_equals_single_label_with_shifted_weights():
    # free multilabelling with phi(t) counts like one label per node with phi(t)+t
    for base in (STRICT_BINARY, BINARY, EXP):
        shifted = DegreeWeights.custom(
            lambda j, _b=base: _b.coefficient(j) + (1 if j == 1 else 0),
            name=f"{base.name}+t",
        )
        assert tuple(solve_free_multilabelled(base, 8)) == \
            tuple(solve_k_labelled(shifted, 1, 8))


def test_tree_sum_oracle_matches_solvers():
    # sum over trees of weight * (labelling count) = solver value
    from math import factorial

    for w in (EXP, ORDERED, STRICT_BINARY):
        for k in (1, 2):
            seq = solve_k_labelled(w, k, 5)
            for n in range(1, 6):
                total = sum(
                    (
                        tree_weight(t, w) * count_k_labellings_formula(t, k)
                        for t in enumerate_ordered_trees(n)
                    ),
                    F(0),
                )
                assert seq[n] == total


def test_nonintegral_sequences_are_reported():
    w = DegreeWeights.polynomial([F(1, 2)])
    seq = solve_k_labelled(w, 2, 2)
    assert seq[1] == F(1, 2)
    with pytest.raises(ValueError):
        seq.as_integers()


def test_sequence_indexing_is_one_based_and_bounded():
    seq = solve_k_labelled(EXP, 2, 3)
    assert seq[1] == 1
    with pytest.raises(IndexError):
        seq[0]
    with pytest.raises(IndexError):
        seq[4]


@pytest.mark.parametrize(
    "weights",
    [EXP, ORDERED, STRICT_BINARY, BINARY, DegreeWeights.cosh(),
     DegreeWeights.bundled(2), DegreeWeights.bundled(3)],
)
def test_first_order_invariant(weights):
    report = first_order_invariant_check(weights, solve_k_labelled(weights, 2, 9))
    assert report.ok
    assert report.checked_order == 19


def test_first_order_invariant_explicit_sqrt_solution():
    # T = 1 - sqrt(1 - z^2) solves the 3-bundled equation
    one = Series.one(16)
    z2 = Series([0, 0, 1] + [0] * 14)
    t = one - (one - z2).sqrt()
    counts = [t.coefficient(2 * n) * factorial(2 * n) for n in range(1, 8)]
    assert counts[:3] == [1, 3, 45]
    assert first_order_invariant_check(DegreeWeights.bundled(3), counts).ok


def test_first_order_invariant_zero_series():
    report = first_order_invariant_check(EXP, [0, 0, 0])
    assert report.ok
    assert report.checked_order == 7


def test_first_order_invariant_detects_mismatch():
    # T_m + 1 breaks the identity first at z^(2m): the perturbed counts
    # still agree below order 2m
    solution = list(solve_k_labelled(EXP, 2, 9))
    for m in range(1, 10):
        counts = list(solution)
        counts[m - 1] += 1
        report = first_order_invariant_check(EXP, counts)
        assert not report.ok
        assert report.mismatches[0] == 2 * m
        assert report.checked_order == 19
