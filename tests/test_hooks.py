from fractions import Fraction as F
from math import factorial

import pytest

from inctrees import hooks, solvers, trees
from inctrees.hooks import (
    generic_hook_weight_sum,
    generic_hook_weight_sums,
    hook_sum_bucket,
    hook_sum_k_labelled,
    hook_sum_k_tuple,
    hook_sums,
)
from inctrees.trees import CapacityError, catalan
from inctrees.weights import DegreeWeights

EXP = DegreeWeights.exponential()
ORDERED = DegreeWeights.bundled(1)
THREE_BUNDLED = DegreeWeights.bundled(3)


def test_single_node_two_labels():
    report = hook_sum_k_labelled(EXP, 2, 1)
    assert report.lhs == F(1, 2)
    assert report.equal


def test_three_bundled_n3():
    report = hook_sum_k_labelled(THREE_BUNDLED, 2, 3)
    assert report.rhs == F(45, factorial(6))
    assert report.equal


def test_ordered_n4_uses_127():
    report = hook_sum_k_labelled(ORDERED, 2, 4)
    assert report.rhs == F(127, factorial(8))
    assert report.equal


@pytest.mark.parametrize("n", range(1, 7))
def test_k_labelled_identity_small(n):
    for weights in (EXP, ORDERED, DegreeWeights.polynomial([1, 0, 1])):
        report = hook_sum_k_labelled(weights, 2, n)
        assert report.equal
        assert report.trees_visited == catalan(n - 1)


def test_bucket_free_ordered_m3():
    report = hook_sum_bucket(ORDERED, 3)
    assert report.rhs == F(6, 6)  # T_3 = 6 objects over 3! labels
    assert report.equal


def test_bucket_unibi_m3():
    report = hook_sum_bucket(EXP, 3, max_bucket=2)
    assert report.rhs == F(4, 6)
    assert report.equal


def test_bucket_single_label():
    w = DegreeWeights.polynomial([F(5, 3), 1])
    report = hook_sum_bucket(w, 1)
    assert report.lhs == F(5, 3)
    assert report.equal


def test_bucket_rejects_zero_labels():
    for cap in (None, 2):
        with pytest.raises(ValueError, match="hook-sum label count m = 0 must be at least 1"):
            hook_sum_bucket(EXP, 0, max_bucket=cap)


def no_solve(*args):
    raise AssertionError("solved before the sizes were checked")


TREE_SIZE, LABEL_COUNT = "hook-sum tree size n", "hook-sum label count m"
# each core and its one-size wrapper: (call on sizes, call on one size,
# whether it solves, the name of its sizes)
CORES = {
    "k-labelled": (lambda sizes: hook_sums("k-labelled", EXP, sizes, 2),
                   lambda n: hook_sum_k_labelled(EXP, 2, n), True, TREE_SIZE),
    "k-tuple": (lambda sizes: hook_sums("k-tuple", EXP, sizes, 2),
                lambda n: hook_sum_k_tuple(EXP, 2, n), True, TREE_SIZE),
    "bucket": (lambda sizes: hook_sums("uni-bi", EXP, sizes),
               lambda m: hook_sum_bucket(EXP, m, 2), True, LABEL_COUNT),
    "rho": (lambda sizes: generic_hook_weight_sums("binary", [1], [1], sizes),
            lambda n: generic_hook_weight_sum("binary", [1], [1], n), False, TREE_SIZE),
}


@pytest.mark.parametrize("core", sorted(CORES))
def test_cores_reject_an_empty_run_or_a_size_below_1(core, monkeypatch):
    # before the capacity check (13 is above the tree bound, 9 above the
    # bucket bound) and before the solve; the message names the size
    many, one, solves, name = CORES[core]
    monkeypatch.delenv("INCTREE_CAPACITY", raising=False)
    if solves:
        monkeypatch.setattr(hooks, "solve_scheme", no_solve)
    for sizes, size in (([0, 3], 0), ([13, -2], -2), (range(0, 14), 0)):
        with pytest.raises(ValueError, match=f"^{name} = {size} must be at least 1$"):
            many(sizes)
    with pytest.raises(ValueError, match=f"^{name} = -1 must be at least 1$"):
        one(-1)
    for empty in ([], (), range(1, 1)):
        with pytest.raises(ValueError, match=f"^no {name} given$"):
            many(empty)
    with pytest.raises(CapacityError):
        many([1, 13])


def test_bucket_rejects_other_bucket_caps(monkeypatch):
    def no_tables(*args):
        raise AssertionError("bucket census built before max_bucket was checked")

    monkeypatch.setattr(hooks, "_bucket_census", no_tables)
    for cap in (0, 1, 3):
        with pytest.raises(ValueError, match="max_bucket"):
            hook_sum_bucket(EXP, 8, max_bucket=cap)


@pytest.mark.parametrize("core", sorted(CORES))
def test_cores_read_a_one_shot_iterable_of_sizes(core):
    many = CORES[core][0]
    assert many(n for n in (1, 2, 3)) == many((1, 2, 3))


@pytest.fixture
def fresh_bucket_census():
    # hook_sum_bucket reads a census cached per process; earlier tests fill it
    trees._bucket_census.cache_clear()
    yield
    trees._bucket_census.cache_clear()


def test_non_integral_bucket_count_names_tree_and_buckets(monkeypatch, fresh_bucket_census):
    # An explicit check, not an assert, so it also holds under python -O.
    monkeypatch.setattr(trees, "factorial", lambda n: factorial(n) + 1)
    with pytest.raises(
        ArithmeticError,
        match=r"bucket labelling count of \(\(\)\) with buckets \(2, 2\) is not integral",
    ):
        hook_sum_bucket(EXP, 4, max_bucket=2)


def test_non_integral_bucket_count_raises_when_no_word_names_it(monkeypatch, fresh_bucket_census):
    # the graft route checks every count; if the words then find none, it still raises
    monkeypatch.setattr(trees, "factorial", lambda n: factorial(n) + 1)
    monkeypatch.setattr(trees, "_bucket_count", lambda *args: 1)
    with pytest.raises(ArithmeticError, match="count with 4 labels is not integral"):
        hook_sum_bucket(EXP, 4, max_bucket=2)


def test_k_tuple_n2():
    report = hook_sum_k_tuple(EXP, 2, 2)
    assert report.equal


def test_k_tuple_single_node():
    w = DegreeWeights.polynomial([F(7, 2), 1])
    report = hook_sum_k_tuple(w, 4, 1)
    assert report.lhs == F(7, 2)
    assert report.equal


def test_k_tuple_ordered_n3():
    report = hook_sum_k_tuple(ORDERED, 2, 3)
    assert report.lhs == F(5, 36)
    assert report.equal


def test_postnikov_binary_n3():
    assert generic_hook_weight_sum("binary", [1, 1], [0, 1], 3) == F(64, 3)


@pytest.mark.parametrize("n", range(1, 9))
def test_postnikov_binary_all_n(n):
    got = generic_hook_weight_sum("binary", [1, 1], [0, 1], n)
    assert got == F(2**n * (n + 1) ** (n - 1), factorial(n))


def test_rho_one_counts_trees():
    assert generic_hook_weight_sum("ordered", [1], [1], 4) == catalan(3)


def test_rho_strict_binary_matches_two_label_left_side():
    # rho(h) = 1/(2h(2h-1)) over strict-binary trees equals the k=2 hook sum
    for n in range(1, 6):
        via_rho = generic_hook_weight_sum(
            "strict-binary", [1], [0, -2, 4], n
        )  # 4h^2 - 2h = 2h(2h-1)
        report = hook_sum_k_labelled(DegreeWeights.polynomial([1, 0, 1]), 2, n)
        assert via_rho == report.lhs


def test_rho_denominator_zero_is_named():
    with pytest.raises(ValueError, match="h = 2"):
        generic_hook_weight_sum("ordered", [1], [-2, 1], 4)


@pytest.mark.parametrize("num, den, kind", [
    ([0.1], [1], "float"), ([1], [1, 0.5], "float"), (["1/2"], [1], "str"), ([1], ["2"], "str"),
])
def test_rho_coefficients_must_be_exact(num, den, kind):
    side = "denominator" if num == [1] else "numerator"
    with pytest.raises(TypeError, match=f"^exact rational required for rho_{side}, got {kind}$"):
        generic_hook_weight_sums("binary", num, den, [1, 2])


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        generic_hook_weight_sum("ternary", [1], [1], 3)


def test_hook_capacity_limits(monkeypatch):
    from inctrees.trees import CapacityError

    monkeypatch.delenv("INCTREE_CAPACITY", raising=False)
    with pytest.raises(CapacityError):
        hook_sum_k_labelled(EXP, 2, 13)
    with pytest.raises(CapacityError):
        hook_sum_bucket(EXP, 9)
    with pytest.raises(CapacityError):
        hook_sum_k_tuple(EXP, 2, 13)


def test_report_serialization():
    report = hook_sum_k_labelled(EXP, 2, 2)
    text = report.to_text()
    assert "equal" in text and "n=2" in text
    doc = report.to_json_dict()
    assert doc["verdict"] == "equal"
    assert doc["lhs"] == str(report.lhs)


def test_lhs_is_exhaustive_hook_product():
    # recompute the n=3 unordered lhs directly from the two tree shapes
    # path: hooks 3,2,1 / degrees 1,1,0; cherry: hooks 3,1,1 / degrees 2,0,0
    path = F(1, 1) / (6 * 5) / (4 * 3) / (2 * 1)
    cherry = F(1, 2) / (6 * 5) / (2 * 1) / (2 * 1)
    report = hook_sum_k_labelled(EXP, 2, 3)
    assert report.lhs == path + cherry


def test_hook_sides_state_every_solver_scheme():
    # a new scheme of the solvers must state its hook side before it is summed
    assert hooks._HOOK_SIDES.keys() == solvers.SCHEMES.keys()


def test_unknown_scheme_rejected(monkeypatch):
    monkeypatch.setattr(hooks, "solve_scheme", no_solve)
    with pytest.raises(ValueError, match="^unknown scheme 'k-bucket'; choose from "):
        hook_sums("k-bucket", EXP, [1, 2])


@pytest.mark.parametrize("scheme", ["k-labelled", "k-tuple"])
def test_bad_k_is_refused_before_any_row_or_census(scheme, monkeypatch):
    # a bad k fails before its row is built: k-tuple's row (1, 1.0) at k = -1
    # would be cached under the key of (1, 1) and break every later size-1
    # sum at k = 1
    hooks._hook_vector.cache_clear()
    want = hook_sums(scheme, EXP, [1], 1)
    hooks._hook_vector.cache_clear()
    for bad, error in ((-1, ValueError), (0, ValueError), (2.0, TypeError), (True, TypeError)):
        with pytest.raises(error, match="^k (= -?[0-9]+ )?must be"):
            hook_sums(scheme, EXP, [1], bad)
    assert hooks._hook_vector.cache_info().currsize == 0
    assert hook_sums(scheme, EXP, [1], 1) == want
    assert hook_sum_k_tuple(EXP, 1, 1).equal
    assert generic_hook_weight_sum("ordered", [1], [0, 1], 1) == 1  # rho = 1/h, the k = 1 row

    def no_census(*args):
        raise AssertionError("a census was built for a bad k")

    monkeypatch.setattr(hooks, "solve_scheme", no_solve)
    monkeypatch.setattr(hooks, "_census", no_census)
    monkeypatch.setattr(hooks, "_hook_vector", no_census)
    with pytest.raises(ValueError, match="^k = 0 must be at least 1$"):
        hook_sums(scheme, EXP, range(1, 13), 0)


@pytest.mark.parametrize("scheme", ["free-multilabelled", "uni-bi"])
def test_bucket_scheme_refuses_k_before_any_census(scheme, monkeypatch):
    # the solvers' one rule of which schemes take a k is read before the
    # largest census is built
    def no_census(*args):
        raise AssertionError("a bucket census was built for a refused k")

    for module in (trees, hooks):
        monkeypatch.setattr(module, "_bucket_census", no_census)
    monkeypatch.setattr(hooks, "solve_scheme", no_solve)
    with pytest.raises(ValueError, match=f"^scheme '{scheme}' takes no k, got k = 2$"):
        hook_sums(scheme, EXP, range(1, 9), 2)
