"""The hook sums and their censuses against the slower routes in ``oracle.py``.

The word generator yields each word with its hook-lengths, and
``hooks._tree_sum`` and ``hook_sum_bucket`` fold a census cached per size
(per label count) in ints: the tree censuses into hook vectors cached per
(size, factor row) of normalised int pairs, hook products over one
denominator per size, then phi, scaled once per command by the lcm of its
denominators, in one fold with one ``Fraction`` per sum.  The hook-vector
cache is cleared wherever a test swaps a census, and pinned to one build
per size and factor row.  The censuses are built and decoded in ``trees``
from packed codes grafted subtree by subtree.  ``_label_blocks`` is a flat
backtracking generator of sorted label blocks.  These tests pin each to the route it replaced: ``word_hook_lengths``
per word, the censuses built by walking degree words, one ``Fraction``
product per ``OrderedTree``, bucket hook-lengths from the subtree objects,
and the frozenset labelling generator.  The cores
that take sizes 1..N, with one solve and one factor table, are pinned to a
solve and a per-tree loop at each size, and read a one-shot iterable of
sizes as they read a tuple.  The one-byte code fields are pinned at
multiplicity n - 1 up to n = 255, and a larger census fails before any
graft.  Hypothesis runs with a fixed seed.
"""
import sys
from collections import Counter
from fractions import Fraction as F
from math import factorial
from unittest import mock

import oracle
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from inctrees import hooks, trees
from inctrees.hooks import (
    HookIdentityReport,
    generic_hook_weight_sum,
    generic_hook_weight_sums,
    hook_sum_bucket,
    hook_sum_k_labelled,
    hook_sum_k_tuple,
    hook_sums_bucket,
    hook_sums_k_labelled,
    hook_sums_k_tuple,
)
from inctrees.solvers import (
    solve_free_multilabelled,
    solve_k_labelled,
    solve_k_tuple,
    solve_unilabelled_bilabelled,
)
from inctrees.trees import (
    _label_blocks,
    enumerate_bucket_functions,
    enumerate_ordered_trees,
    falling_factorial,
    word_hook_lengths,
)
from inctrees.weights import DegreeWeights

weight_fraction = st.one_of(
    st.just(F(0)), st.fractions(min_value=0, max_value=5, max_denominator=7)
)
signed_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# integers give rho numerators with roots at hook-lengths, so some rho(h) = 0
rho_coefficient = st.one_of(st.just(F(0)), st.integers(-3, 3).map(F), signed_fraction)
poly_weights = st.lists(weight_fraction, min_size=1, max_size=8).map(
    lambda cs: DegreeWeights.polynomial([cs[0] or F(1)] + cs[1:])
)


def value(coeffs, h):
    """The polynomial with coefficients ``coeffs`` (constant first) at h."""
    return sum(c * h**i for i, c in enumerate(coeffs))


RHO_FAMILIES = {
    "ordered": DegreeWeights.bundled(1),
    "binary": DegreeWeights.polynomial([1, 2, 1]),
    "strict-binary": DegreeWeights.polynomial([1, 0, 1]),
}


def test_generator_hooks_equal_word_hook_lengths():
    for n in range(1, 13):
        for word, hook_lengths in trees._plane_trees(n):
            assert hook_lengths == word_hook_lengths(word)


def clear_census_caches():
    hooks._hook_vector.cache_clear()
    trees._census.cache_clear()
    trees._bucket_census.cache_clear()


@pytest.fixture
def fresh_censuses():
    # the censuses and the hook vectors folded from them are cached per
    # process; earlier tests fill them
    clear_census_caches()
    yield
    clear_census_caches()


def test_censuses_do_not_rescan_words(monkeypatch, fresh_censuses):
    # the censuses graft packed codes from empty tables and walk no words
    def rescan(*args):
        raise AssertionError("a census walked degree words")

    for name in ("_plane_trees", "_bucket_words", "word_hook_lengths"):
        monkeypatch.setattr(trees, name, rescan)
    monkeypatch.setattr(hooks, "word_hook_lengths", rescan, raising=False)
    monkeypatch.setattr(trees, "_code_tables", {})
    assert trees._census(9)[1] == 1430
    assert trees._bucket_census(7, None)[1] == sum(trees.catalan(s - 1) for s in range(1, 8))
    assert trees._bucket_census(7, 2)[1] == sum(trees.catalan(s - 1) for s in range(4, 8))


def test_a_run_of_sizes_grafts_each_size_once(monkeypatch, fresh_censuses):
    # the run's largest census comes first: it keeps the sizes below it, read
    # back by their own censuses, and is counted as its grafts stream
    grafted = []

    def counted(table, n):
        grafted.append(n)
        return graft(table, n)

    graft = trees._grafts
    monkeypatch.setattr(trees, "_grafts", counted)
    monkeypatch.setattr(trees, "_code_tables", {})
    reports = hook_sums_k_labelled(DegreeWeights.exponential(), 2, range(1, 10))
    assert [r.trees_visited for r in reports] == [trees.catalan(n - 1) for n in range(1, 10)]
    assert sorted(grafted) == list(range(2, 10))
    assert len(trees._code_tables["trees"]) == 9  # sizes up to 8 kept, size 9 counted only


def census_groups(census):
    """The census groups as one multiset of (key, sorted out-degrees, count)."""
    return Counter(
        (key, degrees, count) for key, degree_counts in census for degrees, count in degree_counts
    )


@pytest.mark.parametrize("n", range(1, 13))
def test_graft_census_equals_word_census(n):
    groups, visited, most = trees._census(n)
    want_groups, want_visited, want_most = oracle.word_census(n)
    assert census_groups(groups) == census_groups(want_groups)
    assert len(groups) == len(want_groups)  # one group per hook multiset
    assert (visited, most) == (want_visited, want_most)
    assert visited == trees.catalan(n - 1)


@pytest.mark.parametrize("max_bucket", [None, 2])
@pytest.mark.parametrize("m", range(1, 9))
def test_graft_bucket_census_equals_word_census(m, max_bucket):
    counts, visited = trees._bucket_census(m, max_bucket)
    want_counts, want_visited = oracle.word_bucket_census(m, max_bucket)
    assert Counter(counts) == Counter(want_counts)
    assert len(counts) == len(want_counts)  # one pair per out-degree multiset
    assert visited == want_visited


@given(poly_weights, st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=9), st.sampled_from([None, 2]))
@settings(max_examples=25, deadline=None, derandomize=True)
@example(DegreeWeights.polynomial([F(1, 2), 0, 3, F(2, 7)]), 3, 9, None)
@example(DegreeWeights.polynomial([2, 0, F(5, 3), 1]), 2, 8, 2)
def test_reports_equal_word_census_reports(weights, k, top, max_bucket):
    # the same cores, once on the graft censuses and once on the word routes;
    # the hook vectors are cleared around each run, or a warm cache would
    # answer both runs from the graft censuses
    sizes, labels = range(1, top + 1), range(1, min(top, 8) + 1)

    def run():
        return [
            [(r.lhs, r.trees_visited) for r in reports] for reports in (
                hook_sums_k_labelled(weights, k, sizes),
                hook_sums_k_tuple(weights, k, sizes),
                hook_sums_bucket(weights, labels, max_bucket),
            )
        ]

    hooks._hook_vector.cache_clear()
    grafted = run()
    hooks._hook_vector.cache_clear()
    try:
        with mock.patch.object(hooks, "_census", oracle.word_census), \
                mock.patch.object(hooks, "_bucket_census", oracle.word_bucket_census):
            assert grafted == run()
    finally:
        hooks._hook_vector.cache_clear()


def grown(n: int, root_degree) -> int:
    """The code of the size-n star (root_degree n - 1) or path (1), grafted
    size by size through ``trees._grafts`` on tables that hold only the leaf
    and the last size of that shape: a leaf on the root of the star, or the
    path as the only child of a leaf."""
    table = [None, [[1 + 256]]]
    for size in range(2, n + 1):
        want = root_degree(size)
        (code,) = [c for r, run in trees._grafts(table, size) if r == want for c in run]
        table.append([[code] if r == want else [] for r in range(size)])
        if size > 2:
            table[size - 1] = []
    return table[n][root_degree(n)][0]


def fields(code: int, n: int):
    """The out-degree 0..n-1 and hook-length 1..n counts of a size-n code:
    byte 2d counts out-degree d, byte 2h - 1 hook-length h."""
    data = code.to_bytes(2 * n, "little")
    return list(data[::2]), list(data[1::2])


@pytest.mark.parametrize("n", [*range(2, 41), 255])  # 255: the largest census size
def test_codes_hold_multiplicity_n_minus_1(n):
    # a star has n - 1 leaves of hook-length 1; a path n - 1 nodes of out-degree 1
    degrees, hook_counts = fields(grown(n, lambda size: size - 1), n)
    assert degrees == [n - 1] + [0] * (n - 2) + [1]
    assert hook_counts == [n - 1] + [0] * (n - 2) + [1]
    degrees, hook_counts = fields(grown(n, lambda size: 1), n)
    assert degrees == [1, n - 1] + [0] * (n - 2)
    assert hook_counts == [1] * n


def test_census_above_255_nodes_fails_before_any_graft(monkeypatch, fresh_censuses):
    # a one-byte field counts up to 255 nodes, whatever INCTREE_CAPACITY says
    def no_graft(*args):
        raise AssertionError("a census grafted past its field limit")

    monkeypatch.setenv("INCTREE_CAPACITY", "300")
    monkeypatch.setattr(trees, "_grafts", no_graft)
    monkeypatch.setattr(trees, "_code_tables", {})
    too_many = "^census {} = 256 exceeds the field limit 255$"
    with pytest.raises(trees.CapacityError, match=too_many.format("tree size n")):
        trees._census(256)
    for cap in (None, 2):
        with pytest.raises(trees.CapacityError, match=too_many.format("label count m")):
            trees._bucket_census(256, cap)
    with pytest.raises(trees.CapacityError, match=too_many.format("tree size n")):
        generic_hook_weight_sums("ordered", [1], [1], [3, 256])
    assert trees._code_tables == {}


FRACTION_OPERATIONS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__eq__",
)


def test_folds_make_no_fraction_arithmetic(monkeypatch, fresh_censuses):
    # From the census to the verdict a hook command runs on ints: no Fraction
    # arithmetic or comparison runs in hooks.py, per census group, out-degree
    # multiset, size or verdict, and a size builds at most two Fractions, its
    # left and right sides (a rho sum one).
    weights = DegreeWeights.polynomial([F(1, 2), F(2, 3), 0, F(5, 7), 3])
    row = tuple((h + 1, 2 * h + 3) for h in range(1, 11))
    want_tree = oracle.tree_hook_sum(weights, 10, {h: F(*row[h - 1]) for h in range(1, 11)})
    want_bucket = oracle.bucket_hook_sum(weights, 8)[0]
    counts = trees._bucket_census(8, None)[0]
    assert len(trees._census(10)[0]) > 20 and len(counts) > 20
    sizes, labels, rho = range(1, 11), range(1, 9), ([F(1, 2), 3], [2, F(1, 3)])

    def commands():
        return [
            hook_sums_k_labelled(weights, 2, sizes), hook_sums_k_tuple(weights, 3, sizes),
            hook_sums_bucket(weights, labels), hook_sums_bucket(weights, labels, 2),
        ], generic_hook_weight_sums("strict-binary", *rho, sizes)

    want_commands = commands()
    hooks._hook_vector.cache_clear()
    arithmetic, built = [], []
    for name in FRACTION_OPERATIONS:
        def counted(*args, _name=name, _operation=getattr(F, name)):
            if sys._getframe(1).f_globals["__name__"] == hooks.__name__:
                arithmetic.append(_name)
            return _operation(*args)

        monkeypatch.setattr(F, name, counted)
    monkeypatch.setattr(hooks, "Fraction", lambda *args: built.append(args) or F(*args))
    w, powers = hooks._integer_phi(weights, 10)
    tree_sum = list(hooks._tree_sum(w, powers, [10], row))
    assert hooks._hook_vector.cache_info().misses == 1  # built here, under the patch
    bucket_sum = hooks._fold(w, powers, counts, 8, factorial(8))
    assert len(built) == 2
    built.clear()
    reports, rho_sums = commands()
    report_fractions = len(built) - len(sizes)
    monkeypatch.undo()  # the comparisons below run outside the count
    assert (tree_sum, bucket_sum) == ([want_tree], want_bucket)
    assert (reports, rho_sums) == want_commands
    assert report_fractions == 2 * (2 * len(sizes) + 2 * len(labels))
    assert arithmetic == []


@given(poly_weights, st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None, derandomize=True)
@example(DegreeWeights.polynomial([F(1, 2), 0, 3, F(2, 7)]), 3, 8)
@example(DegreeWeights.polynomial([1, 0, 0, 2]), 2, 6)  # every size-6 term is 0
@example(DegreeWeights.polynomial([F(1, 3), 0, 0, 0, 0, 0, 0, 5]), 1, 8)
def test_k_labelled_and_k_tuple_sums_equal_per_tree_loop(weights, k, n):
    labelled = hook_sum_k_labelled(weights, k, n)
    want = oracle.tree_hook_sum(
        weights, n, {h: F(1, falling_factorial(k * h, k)) for h in range(1, n + 1)}
    )
    assert (labelled.lhs, labelled.trees_visited) == want
    ktuple = hook_sum_k_tuple(weights, k, n)
    want = oracle.tree_hook_sum(weights, n, {h: F(1, h**k) for h in range(1, n + 1)})
    assert (ktuple.lhs, ktuple.trees_visited) == want


@given(poly_weights, st.integers(min_value=1, max_value=6))
@settings(max_examples=15, deadline=None, derandomize=True)
@example(DegreeWeights.polynomial([F(1, 2), 0, 3, F(2, 7)]), 6)
def test_k_tuple_sum_at_k_3000_equals_per_tree_loop(weights, n):
    report = hook_sum_k_tuple(weights, 3000, n)
    want = oracle.tree_hook_sum(weights, n, {h: F(1, h**3000) for h in range(1, n + 1)})
    assert (report.lhs, report.trees_visited) == want


@given(st.sampled_from(sorted(RHO_FAMILIES)),
       st.lists(rho_coefficient, min_size=1, max_size=3),
       st.lists(signed_fraction, min_size=1, max_size=3),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None, derandomize=True)
@example("binary", [F(-1, 2), 3], [2, F(1, 3), -1], 8)
@example("ordered", [0], [1], 6)  # rho = 0
@example("binary", [-2, 1], [0, 1], 8)  # rho(1) < 0, rho(2) = 0
@example("strict-binary", [F(-3, 2)], [1, 1], 7)
def test_rho_sum_equals_per_tree_loop(family, num, den, n):
    assume(all(value(den, h) != 0 for h in range(1, n + 1)))
    rho = {h: F(value(num, h)) / value(den, h) for h in range(1, n + 1)}
    want, _ = oracle.tree_hook_sum(RHO_FAMILIES[family], n, rho)
    assert generic_hook_weight_sum(family, num, den, n) == want


@given(poly_weights, st.integers(min_value=1, max_value=7), st.sampled_from([None, 2]))
@settings(max_examples=40, deadline=None, derandomize=True)
@example(DegreeWeights.polynomial([2, 0, F(5, 3), 1]), 7, None)
@example(DegreeWeights.polynomial([2, 0, F(5, 3), 1]), 7, 2)
@example(DegreeWeights.polynomial([F(1, 2), 0, 0, F(3, 5)]), 7, 2)
def test_bucket_sum_equals_per_tree_loop(weights, m, max_bucket):
    report = hook_sum_bucket(weights, m, max_bucket)
    assert (report.lhs, report.trees_visited) == oracle.bucket_hook_sum(weights, m, max_bucket)


@given(poly_weights, st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=8), st.sampled_from([None, 2]))
@settings(max_examples=20, deadline=None, derandomize=True)
@example(DegreeWeights.polynomial([F(1, 2), 0, 3, F(2, 7)]), 3, 8, None)
@example(DegreeWeights.polynomial([2, 0, F(5, 3), 1]), 2, 8, 2)
# denominators only at higher degrees: phi's lcm grows with the size
@example(DegreeWeights.parse("poly:1,1/2,0,1/3,0,1/5"), 2, 8, None)
@example(DegreeWeights.parse("poly:1,1/2,0,1/3,0,1/5"), 3, 8, 2)
def test_one_pass_reports_equal_per_size_route(weights, k, top, max_bucket):
    # one solve and one factor table for sizes 1..top, against a solve to
    # each size n and the per-tree loops
    sizes = range(1, top + 1)
    want_labelled, want_ktuple, want_bucket = [], [], []
    for n in sizes:
        lhs, seen = oracle.tree_hook_sum(
            weights, n, {h: F(1, falling_factorial(k * h, k)) for h in range(1, n + 1)}
        )
        rhs = solve_k_labelled(weights, k, n)[n] / factorial(k * n)
        want_labelled.append(HookIdentityReport(f"k-labelled(k={k})", n, lhs, rhs, seen))
        lhs, seen = oracle.tree_hook_sum(weights, n, {h: F(1, h**k) for h in range(1, n + 1)})
        rhs = solve_k_tuple(weights, k, n)[n] / F(factorial(n)) ** k
        want_ktuple.append(HookIdentityReport(f"k-tuple(k={k})", n, lhs, rhs, seen))
        lhs, seen = oracle.bucket_hook_sum(weights, n, max_bucket)
        if max_bucket is None:
            scheme, rhs = "bucket-free", solve_free_multilabelled(weights, n)[n]
        else:
            scheme, rhs = "bucket-uni-bi", solve_unilabelled_bilabelled(weights, n)[n]
        want_bucket.append(HookIdentityReport(scheme, n, lhs, rhs / factorial(n), seen))
    assert hook_sums_k_labelled(weights, k, sizes) == want_labelled
    assert hook_sums_k_tuple(weights, k, sizes) == want_ktuple
    assert hook_sums_bucket(weights, sizes, max_bucket) == want_bucket


@given(st.sampled_from(sorted(RHO_FAMILIES)),
       st.lists(rho_coefficient, min_size=1, max_size=3),
       st.lists(signed_fraction, min_size=1, max_size=3),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=20, deadline=None, derandomize=True)
@example("binary", [1, 1], [0, 1], 8)  # rho = 1 + 1/h
def test_one_pass_rho_sums_equal_per_size_route(family, num, den, top):
    assume(all(value(den, h) != 0 for h in range(1, top + 1)))
    want = [
        oracle.tree_hook_sum(
            RHO_FAMILIES[family], n, {h: F(value(num, h)) / value(den, h) for h in range(1, n + 1)}
        )[0]
        for n in range(1, top + 1)
    ]
    assert generic_hook_weight_sums(family, num, den, range(1, top + 1)) == want


def test_one_size_builds_only_its_census(fresh_censuses):
    hook_sum_k_labelled(DegreeWeights.parse("exp"), 2, 12)
    trees._census(12)
    assert trees._census.cache_info()[:4] == (1, 1, None, 1)  # hits, misses, maxsize, currsize


K2_WEIGHTS = ("exp", "poly:1,0,1", "poly:2,0,0,1/3", "bundled:1", "poly:1/2,1,0,3/5")


def test_hook_vectors_are_folded_once_per_size_and_factor_row(fresh_censuses):
    # five phi at k = 2 and sizes 1..9: the first builds the nine hook
    # vectors, the other four read them, and every report is still the sum
    # over every tree
    for spec in K2_WEIGHTS:
        weights = DegreeWeights.parse(spec)
        for n, report in enumerate(hook_sums_k_labelled(weights, 2, range(1, 10)), 1):
            want = oracle.tree_hook_sum(
                weights, n, {h: F(1, falling_factorial(2 * h, 2)) for h in range(1, n + 1)}
            )
            assert (report.lhs, report.trees_visited) == want
            assert report.equal
    assert hooks._hook_vector.cache_info()[:2] == (36, 9)  # hits, misses


def test_hook_vectors_are_keyed_by_the_factor_row(fresh_censuses):
    # k = 2 and k = 3 at the same sizes share no key; k-labelled k = 1 and
    # k-tuple k = 1 have the same factors 1/h and share every key
    weights = DegreeWeights.parse("exp")
    hook_sums_k_labelled(weights, 2, range(1, 8))
    hook_sums_k_labelled(weights, 3, range(1, 8))
    assert hooks._hook_vector.cache_info()[:2] == (0, 14)
    hook_sums_k_labelled(weights, 1, range(1, 8))
    hook_sums_k_tuple(weights, 1, range(1, 8))
    assert hooks._hook_vector.cache_info()[:2] == (7, 21)
    assert hooks._hook_vector.cache_info().maxsize == hooks.HOOK_VECTOR_CACHE >= 72


@pytest.mark.parametrize("num, den", [([1], [0, 1]), ([2], [0, 2]), ([F(-1, 3)], [0, F(-1, 3)])])
def test_rho_one_over_h_reads_the_k_tuple_k1_rows(num, den, fresh_censuses):
    # rho(h) = 1/h is reduced to the pairs (1, h), whatever the coefficients'
    # scale or sign, so its rows are k-tuple k = 1's
    sizes = range(1, 9)
    want = [r.lhs for r in hook_sums_k_tuple(DegreeWeights.bundled(1), 1, sizes)]
    assert hooks._hook_vector.cache_info()[:2] == (0, 8)
    assert generic_hook_weight_sums("ordered", num, den, sizes) == want
    assert hooks._hook_vector.cache_info()[:2] == (8, 8)


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

