from bisect import insort
from collections import Counter
from itertools import islice

import oracle
import pytest
from hypothesis import given, settings, strategies as st

from inctrees import bijections
from inctrees.bijections import (
    BLACK,
    WHITE,
    ColoredTree,
    MultiTree,
    colored_to_multi,
    enumerate_colored_branching,
    enumerate_colored_unary,
    enumerate_free_multilabelled,
    enumerate_objects,
    enumerate_unibi_unordered,
    format_object,
    multi_to_colored,
    parse_colored,
    parse_multilabelled,
    q_to_unibi,
    unibi_to_q,
    validate_colored,
    validate_multilabelled,
    verify_chain_bijection,
    verify_split_bijection,
)
from inctrees.trees import CapacityError, _code, _fold, _shape, word_hook_lengths


def test_no_objects_with_zero_labels():
    assert list(enumerate_free_multilabelled(0)) == []
    assert list(enumerate_unibi_unordered(0)) == []


def test_chain_map_single_node_three_labels():
    got = multi_to_colored(MultiTree((1, 2, 3)))
    assert got == ColoredTree(1, BLACK, (ColoredTree(2, BLACK, (ColoredTree(3, WHITE),)),))


def test_chain_map_keeps_singleton_shapes():
    tree = MultiTree((1,), (MultiTree((2,)), MultiTree((3,))))
    got = multi_to_colored(tree)
    assert got == ColoredTree(1, WHITE, (ColoredTree(2, WHITE), ColoredTree(3, WHITE)))


def test_chain_map_counts_m3():
    objects = list(enumerate_free_multilabelled(3))
    targets = list(enumerate_colored_unary(3))
    assert len(objects) == len(targets) == 6


def test_chain_round_trip_small():
    for m in range(1, 6):
        for obj in enumerate_free_multilabelled(m):
            assert colored_to_multi(multi_to_colored(obj)) == obj


def test_chain_image_has_no_black_branching():
    for obj in enumerate_free_multilabelled(4):
        img = multi_to_colored(obj)

        def walk(node):
            if node.color == BLACK:
                assert len(node.children) == 1
            for child in node.children:
                walk(child)

        walk(img)


def test_colored_to_multi_rejects_black_branching():
    bad = ColoredTree(1, BLACK, (ColoredTree(2, WHITE), ColoredTree(3, WHITE)))
    with pytest.raises(ValueError):
        colored_to_multi(bad)


def test_multilabelled_validation():
    with pytest.raises(ValueError):
        multi_to_colored(MultiTree((1,), (MultiTree((1,)),)))  # duplicate label
    with pytest.raises(ValueError):
        multi_to_colored(MultiTree((2,), (MultiTree((1,)),)))  # not increasing


def test_split_map_single_node():
    got, shifted = unibi_to_q(MultiTree((1,)))
    assert got == ColoredTree(1, WHITE)
    assert not shifted


def test_split_map_single_node_two_labels():
    got, shifted = unibi_to_q(MultiTree((1, 2)))
    assert got == ColoredTree(1, WHITE)
    assert shifted


def test_split_map_counts_m4():
    unibi = list(enumerate_unibi_unordered(4))
    q4 = list(enumerate_colored_branching(4))
    q3 = list(enumerate_colored_branching(3))
    assert len(unibi) == 14
    assert len(q4) == 11
    assert len(q3) == 3


def test_split_round_trip_small():
    for m in range(1, 6):
        for obj in enumerate_unibi_unordered(m):
            img, shifted = unibi_to_q(obj)
            assert q_to_unibi(img, shifted) == obj


def test_split_image_black_nodes_branch():
    for obj in enumerate_unibi_unordered(5):
        img, _ = unibi_to_q(obj)

        def walk(node):
            if node.color == BLACK:
                assert len(node.children) >= 2
            for child in node.children:
                walk(child)

        walk(img)


def test_unibi_rejects_oversized_blocks():
    with pytest.raises(ValueError):
        unibi_to_q(MultiTree((1, 2, 3)))


def test_unibi_rejects_noncanonical_child_order():
    tree = MultiTree((1,), (MultiTree((3,)), MultiTree((2,))))
    with pytest.raises(ValueError):
        unibi_to_q(tree)


def test_q_to_unibi_rejects_black_unary():
    bad = ColoredTree(1, BLACK, (ColoredTree(2, WHITE),))
    with pytest.raises(ValueError):
        q_to_unibi(bad, False)


def test_verify_chain_bijection():
    report = verify_chain_bijection(5)
    assert report.ok
    assert report.domain_sizes == (1, 2, 6, 30, 228)


def test_verify_split_bijection():
    report = verify_split_bijection(5)
    assert report.ok
    assert report.domain_sizes == (1, 2, 4, 14, 66)


# The verifier's four failure reports, each reached by breaking one part.
def test_verifier_reports_a_failed_round_trip(monkeypatch):
    monkeypatch.setattr(bijections, "_unchain", lambda code: ((0,), ((9,),)))
    assert verify_chain_bijection(2).failures == (
        "m=1: round trip failed for ({1})",
        "m=2: round trip failed for ({1,2})",
        "m=2: round trip failed for ({1} ({2}))",
    )


def test_verifier_reports_images_outside_the_codomain(monkeypatch):
    # every object maps to the one-node tree, which has one label
    monkeypatch.setattr(bijections, "_chain", lambda code: ((0,), (1,), (WHITE,)))
    report = verify_chain_bijection(2)
    assert report.failures.count("m=2: image not a valid colored tree: ({1}w)") == 2
    assert "m=2: chain map not injective" in report.failures
    assert not any(f.startswith("m=1") for f in report.failures)


def test_verifier_reports_a_collision_inside_the_codomain(monkeypatch):
    # every object maps to the chain image of one node holding all its
    # labels: a valid colored tree, so only the round trips fail, and the
    # images are then collected and found to collide
    whole = bijections._chain
    monkeypatch.setattr(
        bijections, "_chain", lambda code: whole(((0,), (tuple(sorted(sum(code[1], ()))),)))
    )
    assert verify_chain_bijection(2).failures == (
        "m=2: round trip failed for ({1} ({2}))",
        "m=2: chain map not injective",
    )


def test_verifier_walks_each_object_once_when_all_pass(monkeypatch):
    # the round trips prove the map injective, so no image set is built
    calls = Counter()

    def counted(walk):
        def run(*args):
            calls[walk.__name__] += 1
            return walk(*args)
        return run

    for name in ("_chain", "_unchain", "_split", "_merge"):
        monkeypatch.setattr(bijections, name, counted(getattr(bijections, name)))
    chain, split = verify_chain_bijection(5), verify_split_bijection(5)
    assert chain.ok and split.ok
    n, k = sum(chain.domain_sizes), sum(split.domain_sizes)
    assert calls == {"_chain": n, "_unchain": n, "_split": k, "_merge": k}


def test_verifier_reports_unequal_counts(monkeypatch):
    make, levels = bijections._OBJECT_SCHEMES["colored-unary"]
    monkeypatch.setitem(
        bijections._OBJECT_SCHEMES, "colored-unary",
        (make, lambda: (level[1:] for level in levels())),
    )
    report = verify_chain_bijection(1)
    assert report.failures == (
        "m=1: image not a valid colored tree: ({1}w)",
        "m=1: 1 multilabelled vs 0 colored",
    )
    assert (report.domain_sizes, report.image_sizes) == ((1,), (0,))


@pytest.mark.parametrize("scheme, m, good, bad, failure", [
    ("free-multi", 2, ((1, 0), ((1,), (2,))), ((1, 0), ((2,), (1,))),
     "m=2: image not a valid colored tree: ({2}w ({1}w))"),
    ("unibi", 3, ((2, 0, 0), ((1,), (2,), (3,))), ((2, 0, 0), ((1,), (3,), (2,))),
     "m=3: image not a valid colored tree: ({1}w ({3}w) ({2}w))"),
])
def test_verifier_reports_invalid_grown_objects(monkeypatch, scheme, m, good, bad, failure):
    # the verifier does not validate the objects it grows: a bad one maps
    # outside the codomain (or fails the round trip) and is one failure line
    make, levels = bijections._OBJECT_SCHEMES[scheme]
    assert good in next(islice(levels(), m - 1, None))

    def swapped():
        return ([bad if code == good else code for code in level] for level in levels())

    monkeypatch.setitem(bijections._OBJECT_SCHEMES, scheme, (make, swapped))
    verify = verify_chain_bijection if scheme == "free-multi" else verify_split_bijection
    assert verify(m).failures == (failure,)


def swap_first_two_labels(chain):
    """The chain map with the labels of its image's first two nodes swapped,
    which breaks the increasing labelling of every image of two or more
    nodes, so the inverse's validator would reject it."""
    def swapped(code):
        word, labels, colors = chain(code)
        return word, labels[1::-1] + labels[2:], colors

    return swapped


def test_verifier_fails_on_images_the_inverse_rejects(monkeypatch):
    # an image outside the codomain is a failure; the inverse never sees it
    monkeypatch.setattr(bijections, "_chain", swap_first_two_labels(bijections._chain))
    report = verify_chain_bijection(3)
    assert report.ok is False
    # every image with two or more labels, and nothing else
    assert [f.split(":")[0] for f in report.failures] == ["m=2"] * 2 + ["m=3"] * 6
    assert all(": image not a valid colored tree: " in f for f in report.failures)


def test_enumerate_objects_dispatch():
    assert len(list(enumerate_objects("free-multi", 3))) == 6
    assert len(list(enumerate_objects("unibi", 2))) == 2
    assert len(list(enumerate_objects("colored-branching", 3))) == 3
    with pytest.raises(ValueError):
        enumerate_objects("nosuch", 3)


def test_enumeration_capacity(monkeypatch):
    monkeypatch.delenv("INCTREE_CAPACITY", raising=False)
    with pytest.raises(CapacityError):
        list(enumerate_free_multilabelled(8))


def test_text_encoding_round_trip():
    for obj in enumerate_free_multilabelled(4):
        assert parse_multilabelled(format_object(obj)) == obj
    for obj in enumerate_colored_unary(3):
        assert parse_colored(format_object(obj)) == obj


def test_repr_is_the_parse_call_of_the_text():
    for obj in (parse_multilabelled("({1,2} ({3}) ({4,5}))"), parse_colored("({1}b ({2}w))")):
        assert repr(obj) == f"{type(obj).__name__}.parse({format_object(obj)!r})"
        assert eval(repr(obj), {"MultiTree": MultiTree, "ColoredTree": ColoredTree}) == obj


def test_text_encoding_examples():
    tree = parse_multilabelled("({1,2} ({3}))")
    assert tree == MultiTree((1, 2), (MultiTree((3,)),))
    colored = parse_colored("({1}b ({2}w))")
    assert colored == ColoredTree(1, BLACK, (ColoredTree(2, WHITE),))
    assert format_object(colored) == "({1}b ({2}w))"


def test_text_encoding_rejects_malformed():
    with pytest.raises(ValueError):
        parse_multilabelled("({1,2} ({3})")
    with pytest.raises(ValueError):
        parse_colored("({1,2}b)")
    with pytest.raises(ValueError):
        parse_colored("({1}x)")


@pytest.mark.parametrize("m", range(1, 7))
def test_enumeration_order_equals_generate_then_filter(m):
    assert list(enumerate_unibi_unordered(m)) == list(oracle.unibi_unordered(m))
    assert list(enumerate_colored_unary(m)) == list(oracle.colored_trees(m, "unary"))
    assert list(enumerate_colored_branching(m)) == list(oracle.colored_trees(m, "branching"))


ENUMERATED = [
    obj
    for m in range(1, 6)
    for scheme in ("free-multi", "unibi", "colored-unary", "colored-branching")
    for obj in enumerate_objects(scheme, m)
]


@given(st.sampled_from(ENUMERATED))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_text_round_trip_of_enumerated_objects(obj):
    parse = parse_multilabelled if isinstance(obj, MultiTree) else parse_colored
    assert parse(format_object(obj)) == obj


def _nested(depth):
    return "".join(f"({{{i}}} " for i in range(1, depth)) + f"({{{depth}}}" + ")" * depth


def test_deep_text_fails_with_position():
    assert parse_multilabelled(_nested(200)).node_count() == 200
    for parse in (parse_multilabelled, parse_colored):
        with pytest.raises(ValueError, match=r"nested deeper than 200 at position 1292"):
            parse(_nested(3000))


def test_empty_child_label_set_names_the_node():
    tree = MultiTree((1,), (MultiTree((2,)), MultiTree(())))
    with pytest.raises(ValueError, match=r"a child of the node with labels \(1,\) has no labels"):
        multi_to_colored(tree)


@pytest.mark.parametrize("m", range(1, 7))
def test_maps_equal_the_recursive_tree_maps(m):
    for obj in enumerate_free_multilabelled(m):
        assert multi_to_colored(obj) == oracle.expand(obj)
    for col in enumerate_colored_unary(m):
        assert colored_to_multi(col) == oracle.collapse(col)
    for obj in enumerate_unibi_unordered(m):
        assert unibi_to_q(obj) == oracle.unibi_to_q(obj)
    for col in enumerate_colored_branching(m):
        for shifted in (False, True):
            assert q_to_unibi(col, shifted) == oracle.q_to_unibi(col, shifted)


def test_verification_builds_no_tree_nodes(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("tree node built")

    for cls in (MultiTree, ColoredTree):
        monkeypatch.setattr(cls, "__init__", build)
    with pytest.raises(AssertionError, match="tree node built"):
        ColoredTree(1, WHITE)
    chain, split = verify_chain_bijection(5), verify_split_bijection(5)
    assert chain.ok and chain.domain_sizes == (1, 2, 6, 30, 228)
    assert split.ok and split.domain_sizes == (1, 2, 4, 14, 66)
    # the --show lines are written from the codes too
    assert sum(1 for _ in bijections.mapped_texts("free", 5)) == 1 + 2 + 6 + 30 + 228


@pytest.mark.parametrize("m", range(1, 7))
def test_mapped_texts_equal_the_public_maps(m):
    # each line's object and image as the enumerators, the public maps and
    # format_object give them, at label count m
    want = [
        (format_object(obj), format_object(multi_to_colored(obj)), False)
        for obj in enumerate_free_multilabelled(m)
    ]
    assert list(bijections.mapped_texts("free", m))[-len(want):] == want
    want = [
        (format_object(obj), format_object(col), shifted)
        for obj in enumerate_unibi_unordered(m)
        for col, shifted in [unibi_to_q(obj)]
    ]
    assert list(bijections.mapped_texts("unibi", m))[-len(want):] == want


def _preorder(tree):
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def test_maps_and_validators_take_deep_trees():
    # a path of n nodes holding (1, 2), (3, 4), ..., (2n-1, 2n), built bottom-up
    n = 5000
    path = MultiTree((2 * n - 1, 2 * n))
    for i in range(n - 1, 0, -1):
        path = MultiTree((2 * i - 1, 2 * i), (path,))
    assert validate_multilabelled(path, max_block=2) == 2 * n

    col = multi_to_colored(path)
    assert [(v.label, v.color, len(v.children)) for v in _preorder(col)] == [
        (l, BLACK if l % 2 else WHITE, int(l < 2 * n)) for l in range(1, 2 * n + 1)
    ]
    assert validate_colored(col, "unary") == 2 * n
    with pytest.raises(ValueError, match="black node of out-degree 1"):
        validate_colored(col, "branching")
    back = colored_to_multi(col)
    assert [(v.labels, len(v.children)) for v in _preorder(back)] == [
        ((2 * i - 1, 2 * i), int(i < n)) for i in range(1, n + 1)
    ]

    # label 1 leaves the root, then each doubled child splits off a leaf
    q, shifted = unibi_to_q(path)
    assert shifted
    assert [(v.label, v.color, len(v.children)) for v in _preorder(q)] == [
        (l, BLACK if l % 2 and l < 2 * n - 1 else WHITE, 2 if l % 2 and l < 2 * n - 1 else 0)
        for l in range(1, 2 * n)
    ]
    back = q_to_unibi(q, shifted)
    assert [(v.labels, len(v.children)) for v in _preorder(back)] == [
        ((2 * i - 1, 2 * i), int(i < n)) for i in range(1, n + 1)
    ]


SCHEMES = ("free-multi", "unibi", "colored-unary", "colored-branching")


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_enumeration_equals_the_backtracking_generators(scheme, m):
    got = [_code(obj) for obj in enumerate_objects(scheme, m)]
    assert got == list(oracle.SCHEME_CODES[scheme](m))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_grown_levels_equal_the_backtracking_generators(scheme):
    # the verifier reads each level in growth order, up to the capacity m = 7
    levels = bijections._OBJECT_SCHEMES[scheme][1]()
    for m, level in zip(range(1, 8), levels):
        assert Counter(level) == Counter(oracle.SCHEME_CODES[scheme](m))


WALKS = (  # object scheme: the walk and its validating copy, per shift
    ("free-multi", lambda code: [(bijections._chain(code), oracle.chain_code(code))]),
    ("colored-unary", lambda code: [(bijections._unchain(code), oracle.unchain_code(code))]),
    ("unibi", lambda code: [(bijections._split(code), oracle.split_code(code))]),
    ("colored-branching", lambda code: [
        (bijections._merge(code, shifted), oracle.merge_code(code, shifted))
        for shifted in (False, True)
    ]),
)


@pytest.mark.parametrize("scheme, pairs", WALKS, ids=[scheme for scheme, _ in WALKS])
def test_walks_equal_the_validating_walks(scheme, pairs):
    # every code the verifier grows, up to the capacity m = 7
    levels = bijections._OBJECT_SCHEMES[scheme][1]()
    for _, level in zip(range(1, 8), levels):
        for code in level:
            for got, want in pairs(code):
                assert got == want


def test_verify_at_the_capacity(monkeypatch):
    monkeypatch.delenv("INCTREE_CAPACITY", raising=False)
    chain, split = verify_chain_bijection(7), verify_split_bijection(7)
    assert chain.ok and chain.domain_sizes == chain.image_sizes == (1, 2, 6, 30, 228, 2316, 29148)
    assert split.ok and split.domain_sizes == split.image_sizes == (1, 2, 4, 14, 66, 392, 2806)


# Corruptions of a code held as (word, blocks, colors), blocks a list of
# label lists (one label per node for a colored code, whose colors are a
# list; None for a multilabelled one).  Each draws its choices from data.


def swap_labels(data, word, blocks, colors):
    places = [(i, j) for i, block in enumerate(blocks) for j in range(len(block))]
    if len(places) > 1:
        (a, x), (b, y) = data.draw(st.lists(st.sampled_from(places), min_size=2, max_size=2,
                                            unique=True))
        blocks[a][x], blocks[b][y] = blocks[b][y], blocks[a][x]
    return word, blocks, colors


def move_label(data, word, blocks, colors):
    full = [i for i, block in enumerate(blocks) if block]
    if len(blocks) > 1 and full:
        i = data.draw(st.sampled_from(full))
        j = data.draw(st.sampled_from([j for j in range(len(blocks)) if j != i]))
        insort(blocks[j], blocks[i].pop(data.draw(st.integers(0, len(blocks[i]) - 1))))
    return word, blocks, colors


def unsort_block(data, word, blocks, colors):
    long = [i for i, block in enumerate(blocks) if len(block) > 1]
    if long:
        blocks[data.draw(st.sampled_from(long))].reverse()
    return word, blocks, colors


def empty_block(data, word, blocks, colors):
    blocks[data.draw(st.integers(0, len(blocks) - 1))] = []
    return word, blocks, colors


def grow_to_three(data, word, blocks, colors):
    # the block takes labels from other blocks, kept sorted, until it has 3
    i = data.draw(st.integers(0, len(blocks) - 1))
    while len(blocks[i]) < 3:
        others = [j for j, block in enumerate(blocks) if block and j != i]
        if not others:
            break
        insort(blocks[i], blocks[data.draw(st.sampled_from(others))].pop())
    return word, blocks, colors


def recolor(data, word, blocks, colors):
    colors[data.draw(st.integers(0, len(colors) - 1))] = data.draw(st.sampled_from("bwx"))
    return word, blocks, colors


def swap_siblings(data, word, blocks, colors):
    # two sibling subtrees trade places in preorder, with all they hold
    kids, hooks = _shape(tuple(word))[1], word_hook_lengths(word)
    parents = [v for v, below in enumerate(kids) if len(below) > 1]
    if parents:
        below = kids[data.draw(st.sampled_from(parents))]
        a, b = sorted(data.draw(st.lists(st.sampled_from(below), min_size=2, max_size=2,
                                         unique=True)))
        order = [*range(a), *range(b, b + hooks[b]), *range(a + hooks[a], b),
                 *range(a, a + hooks[a]), *range(b + hooks[b], len(word))]
        word, blocks = [word[i] for i in order], [blocks[i] for i in order]
        colors = colors and [colors[i] for i in order]
    return word, blocks, colors


def corrupted(data, codes, corruptions):
    """A valid code with zero to three corruptions applied."""
    word, labels, *colors = data.draw(st.sampled_from(codes))
    blocks = [list(b) for b in labels] if not colors else [[label] for label in labels]
    colors = list(colors[0]) if colors else None
    for corrupt in data.draw(st.lists(st.sampled_from(corruptions), max_size=3)):
        word, blocks, colors = corrupt(data, word, blocks, colors)
    return tuple(word), [tuple(b) for b in blocks], colors


def outcome(map_, *args):
    """The image, or the ValueError's message."""
    try:
        return map_(*args)
    except ValueError as error:
        return f"ValueError: {error}"


MULTI_CODES = [code for s in ("free-multi", "unibi") for m in range(1, 6)
               for code in oracle.SCHEME_CODES[s](m)]
COLORED_CODES = [code for s in ("colored-unary", "colored-branching") for m in range(1, 6)
                 for code in oracle.SCHEME_CODES[s](m)]


@given(st.data())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_multilabelled_maps_accept_what_the_walks_accept(data):
    # the public maps, which validate and then walk, accept exactly the
    # inputs the validating walks accept, map them alike, and word each
    # refusal the same
    word, blocks, _ = corrupted(data, MULTI_CODES, [
        swap_labels, move_label, unsort_block, empty_block, grow_to_three, swap_siblings,
    ])
    tree = _fold(MultiTree, word, blocks)
    code = _code(tree)
    assert outcome(lambda: _code(multi_to_colored(tree))) == outcome(oracle.chain_code, code)

    def split(t):
        col, shifted = unibi_to_q(t)
        return _code(col), shifted

    assert outcome(split, tree) == outcome(oracle.split_code, code)


@given(st.data())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_colored_maps_accept_what_the_walks_accept(data):
    word, blocks, colors = corrupted(data, COLORED_CODES, [swap_labels, recolor, swap_siblings])
    tree = _fold(ColoredTree, word, [label for (label,) in blocks], colors)
    code = _code(tree)
    assert outcome(lambda: _code(colored_to_multi(tree))) == outcome(oracle.unchain_code, code)
    for shifted in (False, True):
        assert outcome(lambda: _code(q_to_unibi(tree, shifted))) == outcome(
            oracle.merge_code, code, shifted
        )
