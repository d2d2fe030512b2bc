from math import factorial

import oracle
import pytest
from hypothesis import given, settings, strategies as st

from inctrees import bijections, families, hooks, trees
from inctrees.trees import (
    CapacityError,
    OrderedTree,
    catalan,
    count_bucket_labellings_bruteforce,
    count_bucket_labellings_formula,
    count_k_labellings_bruteforce,
    count_k_labellings_formula,
    count_k_tuple_labellings,
    enumerate_bucket_functions,
    enumerate_degree_words,
    enumerate_ordered_trees,
    falling_factorial,
    tree_weight,
    word_hook_lengths,
)
from inctrees.weights import DegreeWeights

LEAF = OrderedTree.leaf()
PATH2 = OrderedTree((LEAF,))
PATH3 = OrderedTree((PATH2,))
CHERRY = OrderedTree((LEAF, LEAF))
STAR3 = OrderedTree((LEAF, LEAF, LEAF))


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 5), (5, 14), (7, 132)])
def test_tree_counts_are_catalan(n, count):
    trees = list(enumerate_ordered_trees(n))
    assert len(trees) == count == catalan(n - 1)
    assert len(set(trees)) == count  # all distinct
    assert all(t.size == n for t in trees)


def test_enumeration_order_is_deterministic():
    first = [t.to_text() for t in enumerate_ordered_trees(6)]
    second = [t.to_text() for t in enumerate_ordered_trees(6)]
    assert first == second


def test_enumeration_order_is_child_sequence_lexicographic():
    rank = {}
    for n in range(1, 9):
        trees = list(enumerate_ordered_trees(n))
        for i, tree in enumerate(trees):
            rank[tree] = i
        key = lambda t: tuple((c.size, rank[c]) for c in t.children)
        assert trees == sorted(trees, key=key)


def test_degree_words_are_the_trees_in_order():
    for n in range(1, 10):
        trees = list(enumerate_ordered_trees(n))
        words = list(enumerate_degree_words(n))
        assert words == [t.out_degrees() for t in trees]
        assert [word_hook_lengths(w) for w in words] == [
            tuple(node.size for node in t.preorder()) for t in trees
        ]


def test_plane_trees_equal_the_grafting_recursion():
    # the one loop yields the pairs of the recursion it replaced, in order
    for n in range(1, 13):
        pairs = list(trees._plane_trees(n))
        assert pairs == list(oracle.build_words(n))
        assert len(pairs) == catalan(n - 1)
    oracle.build_words.cache_clear()


def test_enumeration_order_is_strict_hook_length_order():
    # the order of the docstring of enumerate_ordered_trees: each preorder
    # hook-length sequence, read off the tree itself, is lexicographically
    # larger than the one before
    for n in range(1, 12):
        hooks = [tuple(node.size for node in t.preorder()) for t in enumerate_ordered_trees(n)]
        assert len(hooks) == catalan(n - 1)
        assert all(a < b for a, b in zip(hooks, hooks[1:])), n


def test_capacity_error(monkeypatch):
    monkeypatch.delenv("INCTREE_CAPACITY", raising=False)
    with pytest.raises(CapacityError):
        enumerate_ordered_trees(15)
    with pytest.raises(CapacityError):
        enumerate_degree_words(15)


# each capacity bound: (module, name of the bound, what the message calls
# the quantity, a call one past the bound)
CAPACITY_BOUNDS = [
    (trees, "MAX_TREE_SIZE", "tree size n", lambda v: enumerate_degree_words(v)),
    (trees, "MAX_LABEL_TOTAL", "brute-force label total k*n",
     lambda v: count_k_labellings_bruteforce(LEAF, v)),
    (trees, "MAX_BUCKET_TOTAL", "brute-force bucket total m",
     lambda v: count_bucket_labellings_bruteforce(LEAF, [v])),
    (hooks, "MAX_HOOK_TREE_SIZE", "hook-sum tree size n",
     lambda v: hooks.hook_sum_k_tuple(DegreeWeights.exponential(), 1, v)),
    (hooks, "MAX_HOOK_BUCKET_TOTAL", "hook-sum label count m",
     lambda v: hooks.hook_sum_bucket(DegreeWeights.exponential(), v)),
    (bijections, "MAX_OBJECT_LABELS", "object label count m",
     lambda v: next(bijections.enumerate_free_multilabelled(v))),
    (families, "MAX_KTUPLE_EXPONENT", "k-tuple exponent k",
     lambda v: families.get_family(f"ktuple/ordered:k={v}")),
]


@pytest.mark.parametrize(
    "module,bound,what,call", CAPACITY_BOUNDS, ids=[b[1] for b in CAPACITY_BOUNDS]
)
def test_capacity_message_names_quantity_value_and_bound(monkeypatch, module, bound, what, call):
    monkeypatch.delenv("INCTREE_CAPACITY", raising=False)
    limit = getattr(module, bound)
    with pytest.raises(CapacityError) as info:
        call(limit + 1)
    message = str(info.value)
    assert f"{what} = {limit + 1}" in message
    assert f"capacity {limit};" in message and "INCTREE_CAPACITY" in message


def test_capacity_env_override(monkeypatch):
    monkeypatch.setenv("INCTREE_CAPACITY", "3")
    with pytest.raises(CapacityError):
        enumerate_ordered_trees(4)
    with pytest.raises(CapacityError):
        enumerate_degree_words(4)
    assert len(list(enumerate_degree_words(3))) == 2


def test_text_round_trip():
    assert OrderedTree.parse("(()())") == CHERRY
    for tree in enumerate_ordered_trees(5):
        assert OrderedTree.parse(tree.to_text()) == tree


@pytest.mark.parametrize("bad", ["((", "(()", "", "(())x", ")("])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        OrderedTree.parse(bad)


plane_trees = st.recursive(
    st.just(LEAF),
    lambda kids: st.lists(kids, max_size=4).map(lambda cs: OrderedTree(tuple(cs))),
    max_leaves=40,
)


@given(st.one_of(plane_trees, st.sampled_from(list(enumerate_ordered_trees(8)))))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_text_round_trip_of_random_plane_trees(tree):
    assert OrderedTree.parse(tree.to_text()) == tree


def test_deep_text_fails_with_position():
    path = OrderedTree.parse("(" * 200 + ")" * 200)
    assert path.size == 200 and OrderedTree.parse(path.to_text()) == path
    with pytest.raises(ValueError, match=r"nested deeper than 200 at position 200"):
        OrderedTree.parse("(" * 3000 + ")" * 3000)


def test_parent_indices_match_the_nested_nodes():
    for n in range(1, 9):
        for tree in enumerate_ordered_trees(n):
            nodes = list(tree.preorder())
            index = {id(node): i for i, node in enumerate(nodes)}
            want = [-1] * n
            for i, node in enumerate(nodes):
                for child in node.children:
                    want[index[id(child)]] = i
            assert tree.parent_indices() == tuple(want)


def _deep_paths(n: int, last: int = 0):
    """Paths of n nodes, built bottom-up, of each tree class; ``last`` is
    added to the largest label of the labelled paths' deepest node."""
    tree, multi = LEAF, bijections.MultiTree((2 * n - 1, 2 * n + last))
    colored = bijections.ColoredTree(n + last, "w")
    for i in range(n - 1, 0, -1):
        tree = OrderedTree((tree,))
        multi = bijections.MultiTree((2 * i - 1, 2 * i), (multi,))
        colored = bijections.ColoredTree(i, "w", (colored,))
    return tree, multi, colored


def test_deep_trees_compare_and_hash_without_recursion():
    n = 5000
    first, second = _deep_paths(n), _deep_paths(n)
    for a, b in zip(first, second):
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert repr(a) == repr(b) and repr(a).startswith(f"{type(a).__name__}.parse('(")
    assert repr(first[0]) == f"OrderedTree.parse({'(' * n + ')' * n!r})"
    for a, b in zip(_deep_paths(n, last=1)[1:], first[1:]):
        assert a != b
    assert bijections.MultiTree((1,)) != bijections.ColoredTree(1, "w")


def test_deep_trees_convert_without_recursion():
    # paths of 5000 nodes, built bottom-up
    n = 5000
    tree, multi, _ = _deep_paths(n)
    assert tree.to_text() == "(" * n + ")" * n
    assert tree.parent_indices() == tuple(range(-1, n - 1))
    assert multi.node_count() == n
    text = bijections.format_object(multi)
    assert text.count("(") == n and text.startswith("({1,2} ({3,4} (")
    assert text.endswith(f"({{{2 * n - 1},{2 * n}}}" + ")" * n)

    colored = bijections.multi_to_colored(multi)
    text = bijections.format_object(colored)
    assert text == " ".join(
        f"({{{l}}}{'b' if l % 2 else 'w'}" for l in range(1, 2 * n + 1)
    ) + ")" * (2 * n)


def test_hook_length_recursion_invariant():
    for n in range(1, 7):
        for tree in enumerate_ordered_trees(n):
            nodes = list(tree.preorder())
            hooks = tree.hook_lengths()
            assert hooks[0] == tree.size
            for node, h in zip(nodes, hooks):
                children_h = [c.size for c in node.children]
                assert h == 1 + sum(children_h)
                if not node.children:
                    assert h == 1


def test_tree_weight_examples():
    exp = DegreeWeights.exponential()
    assert tree_weight(LEAF, exp) == 1
    assert tree_weight(PATH2, exp) == 1  # phi_1 * phi_0
    assert tree_weight(CHERRY, DegreeWeights.bundled(3)) == 6


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(2, 2) == 2


def test_k_labelling_formula_examples():
    assert count_k_labellings_formula(PATH2, 2) == 1
    assert count_k_labellings_formula(CHERRY, 1) == 2
    assert count_k_labellings_formula(LEAF, 5) == 1
    assert count_k_labellings_formula(STAR3, 1) == 6


def test_k_labelling_bruteforce_examples():
    assert count_k_labellings_bruteforce(PATH2, 2) == 1
    assert count_k_labellings_bruteforce(CHERRY, 1) == 2
    assert count_k_labellings_bruteforce(STAR3, 1) == 6


def test_bruteforce_capacity(monkeypatch):
    monkeypatch.delenv("INCTREE_CAPACITY", raising=False)
    with pytest.raises(CapacityError):
        count_k_labellings_bruteforce(STAR3, 4)  # k*n = 16


def test_formula_matches_bruteforce_all_small_trees():
    for n in range(1, 5):
        for tree in enumerate_ordered_trees(n):
            for k in (1, 2, 3):
                assert count_k_labellings_formula(tree, k) == \
                    count_k_labellings_bruteforce(tree, k)


def test_non_integral_label_counts_raise(monkeypatch):
    # An explicit check, not an assert, so it also holds under python -O.
    monkeypatch.setattr(trees, "factorial", lambda n: factorial(n) + 1)
    with pytest.raises(ArithmeticError, match="not integral"):
        count_k_labellings_formula(PATH2, 2)
    with pytest.raises(ArithmeticError, match="not integral"):
        count_bucket_labellings_formula(PATH2, (1, 1))


def test_bucket_formula_examples():
    assert count_bucket_labellings_formula(LEAF, (3,)) == 1
    assert count_bucket_labellings_formula(PATH2, (1, 2)) == 1
    assert count_bucket_labellings_formula(CHERRY, (1, 1, 1)) == 2


def test_bucket_bruteforce_examples():
    assert count_bucket_labellings_bruteforce(LEAF, (3,)) == 1
    assert count_bucket_labellings_bruteforce(PATH2, (1, 2)) == 1
    assert count_bucket_labellings_bruteforce(CHERRY, (1, 1, 1)) == 2


@pytest.mark.parametrize("count", [count_bucket_labellings_formula,
                                   count_bucket_labellings_bruteforce])
@pytest.mark.parametrize("buckets, message", [
    ((1, 0), "bucket sizes must be positive"),
    ((0, 1), "bucket sizes must be positive"),
    ((2, -1), "bucket sizes must be positive"),
    ((1,), "one bucket size per node required"),
    ((1, 1, 1), "one bucket size per node required"),
])
def test_bucket_counts_check_the_buckets_alike(count, buckets, message):
    # one shared check of the bucket tuple for the formula and brute force
    with pytest.raises(ValueError, match=f"^{message}$"):
        count(PATH2, buckets)


def test_bucket_formula_matches_bruteforce():
    for n in range(1, 5):
        for tree in enumerate_ordered_trees(n):
            for m in range(n, 9):
                for buckets in enumerate_bucket_functions(tree, m):
                    assert count_bucket_labellings_formula(tree, buckets) == \
                        count_bucket_labellings_bruteforce(tree, buckets)


def test_bucket_reduces_to_single_labelling():
    for n in range(1, 5):
        for tree in enumerate_ordered_trees(n):
            assert count_bucket_labellings_formula(tree, (1,) * n) == \
                count_k_labellings_formula(tree, 1)


def test_k_tuple_counts():
    assert count_k_tuple_labellings(CHERRY, 2) == 4
    assert count_k_tuple_labellings(PATH3, 7) == 1
    for tree in enumerate_ordered_trees(4):
        assert count_k_tuple_labellings(tree, 1) == count_k_labellings_formula(tree, 1)


def test_bucket_function_enumeration():
    assert list(enumerate_bucket_functions(LEAF, 4)) == [(4,)]
    assert list(enumerate_bucket_functions(PATH2, 3)) == [(1, 2), (2, 1)]
    assert list(enumerate_bucket_functions(PATH2, 4, max_bucket=2)) == [(2, 2)]
    assert list(enumerate_bucket_functions(PATH3, 2)) == []  # m < size


def test_bucket_function_totals():
    from math import comb

    for tree in enumerate_ordered_trees(4):
        for m in range(4, 9):
            funcs = list(enumerate_bucket_functions(tree, m))
            assert len(funcs) == comb(m - 1, tree.size - 1)
            assert all(sum(b) == m for b in funcs)
