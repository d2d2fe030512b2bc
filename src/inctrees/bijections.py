"""Executable bijections between multilabelled and colored increasing trees.

Two maps, each with its inverse and an exhaustive verifier:

* chain map: a free multilabelled increasing tree with m labels maps to an
  ordered increasing tree of size m in which every node of out-degree 1 is
  black or white — a node holding the labels ``l1 < ... < lk`` becomes a
  chain of k-1 black nodes followed by one white node carrying the original
  subtrees;
* split map: an unordered tree whose nodes hold one or two labels (m labels
  in total) maps to an unordered increasing tree of size m or m-1 in which
  nodes of out-degree >= 2 may be black — each doubly-labelled node is split
  into two siblings and its parent is marked black.

Unordered trees are represented as ordered trees in canonical form: the
children of every node sorted by their smallest label, ascending, which the
labelling generator of ``trees`` keeps as it goes.

Internally an object is a preorder code on its tree's out-degree word:
``(word, blocks)`` multilabelled, ``(word, labels, colors)`` colored.  All
work on codes is loops, not recursion, and hashing is on flat tuples.
:class:`MultiTree` and :class:`ColoredTree` are the public form, converted
at the boundary by the code and text layer of ``trees`` (``_code``,
``_fold``, ``_scan``, ``_write``), which serves every tree class.

Text encodings (each class's ``to_text`` and ``parse``)::

    multilabelled   ({1,2} ({3}) ({4,5}))
    colored         ({1}b ({2}w))          -- b/w after the label set

Enumeration capacity is m <= 7 by default (INCTREE_CAPACITY overrides).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from itertools import chain, product
from typing import Iterator, Tuple

from .trees import (
    _bucket_words,
    _code,
    _fold,
    _label_blocks,
    _Node,
    _scan,
    _shape,
    _write,
    check_capacity,
)

MAX_OBJECT_LABELS = 7

BLACK = "b"
WHITE = "w"


@dataclass(frozen=True, eq=False, repr=False)
class MultiTree(_Node):
    """Node of a multilabelled tree: a sorted tuple of labels plus subtrees."""

    _FIELDS = ("labels",)
    labels: Tuple[int, ...]
    children: Tuple["MultiTree", ...] = ()

    def node_count(self) -> int:
        return len(_code(self)[0])

    def to_text(self) -> str:
        word, blocks = _code(self)
        return _write(word, ("({" + ",".join(map(str, b)) + "}" for b in blocks), " ")

    @staticmethod
    def parse(text: str) -> "MultiTree":
        return parse_multilabelled(text)


@dataclass(frozen=True, eq=False, repr=False)
class ColoredTree(_Node):
    """Node of a singly-labelled colored tree."""

    _FIELDS = ("label", "color")
    label: int
    color: str
    children: Tuple["ColoredTree", ...] = ()

    def to_text(self) -> str:
        word, labels, colors = _code(self)
        return _write(word, (f"({{{x}}}{c}" for x, c in zip(labels, colors)), " ")

    @staticmethod
    def parse(text: str) -> "ColoredTree":
        return parse_colored(text)


# -- validation ---------------------------------------------------------


def _check_multi(code, max_block: int = 0) -> int:
    word, blocks = code
    labels = sorted(chain.from_iterable(blocks))
    m = len(labels)
    if labels != list(range(1, m + 1)):
        raise ValueError("labels must partition 1..m into disjoint node sets")
    # labels are now distinct, so a sorted block is strictly sorted, and a
    # checked block's first and last labels are its least and greatest
    for block, p in zip(blocks, _shape(word)[0]):
        if not block:
            raise ValueError("every node needs a non-empty label set" if p < 0 else
                             f"a child of the node with labels {blocks[p]} has no labels")
        if len(block) > 1 and list(block) != sorted(block):
            raise ValueError("node labels must be a strictly sorted tuple")
        if max_block and len(block) > max_block:
            raise ValueError(f"node holds {len(block)} labels, allowed at most {max_block}")
        if p >= 0 and block[0] <= blocks[p][-1]:
            raise ValueError(
                f"increasing condition violated between label sets {blocks[p]} and {block}"
            )
    return m


def validate_multilabelled(t: MultiTree, max_block: int = 0) -> int:
    """Check label partition + increasing condition; returns the label count.

    max_block > 0 additionally bounds the number of labels per node.
    """
    return _check_multi(_code(t), max_block)


def _canonical(code) -> bool:
    word, blocks = code
    return all(
        min(blocks[a]) <= min(blocks[b]) for kids in _shape(word)[1] for a, b in zip(kids, kids[1:])
    )


def is_canonical_unordered(t: MultiTree) -> bool:
    """Children of every node sorted ascending by smallest label."""
    return _canonical(_code(t))


def _check_colored(code, black_degrees: str) -> int:
    word, labels, colors = code
    for d, label, color, p in zip(word, labels, colors, _shape(word)[0]):
        if p >= 0 and label <= labels[p]:
            raise ValueError("labels must increase from parent to child")
        if color != WHITE:
            if color != BLACK:
                raise ValueError(f"unknown color {color!r}")
            if black_degrees == "unary" and d != 1:
                raise ValueError(f"black node of out-degree {d}, expected 1")
            if black_degrees == "branching" and d < 2:
                raise ValueError(f"black node of out-degree {d}, expected >= 2")
    m = len(labels)
    if sorted(labels) != list(range(1, m + 1)):
        raise ValueError("labels must be exactly 1..size")
    return m


def validate_colored(t: ColoredTree, black_degrees: str) -> int:
    """Check increasing labels 1..size and the coloring constraint.

    black_degrees is "unary" (only out-degree-1 nodes may be black) or
    "branching" (only out-degree >= 2 nodes may be black).
    """
    return _check_colored(_code(t), black_degrees)


# -- chain map: free multilabelled <-> colored with black unary nodes -----


def _chain(code):
    """A block l1 < ... < lb under out-degree d becomes b-1 black unary
    nodes, then a white node of out-degree d."""
    _check_multi(code)
    word, blocks = code
    out, colors = [], []
    for d, block in zip(word, blocks):
        tail = len(block) - 1
        if tail:
            out += (1,) * tail
            colors += (BLACK,) * tail
        out.append(d)
        colors.append(WHITE)
    return tuple(out), tuple(chain.from_iterable(blocks)), tuple(colors)


def _unchain(code):
    """Each run of black nodes and the white node ending it become one block."""
    _check_colored(code, "unary")
    word, blocks, run = [], [], []
    for d, label, color in zip(*code):
        run.append(label)
        if color == WHITE:
            word.append(d)
            blocks.append(tuple(run))
            run = []
    return tuple(word), tuple(blocks)


def multi_to_colored(t: MultiTree) -> ColoredTree:
    """Expand every label set into a chain of black nodes ending white."""
    return _fold(ColoredTree, *_chain(_code(t)))


def colored_to_multi(t: ColoredTree) -> MultiTree:
    """Collapse maximal chains of black nodes with their white end."""
    return _fold(MultiTree, *_unchain(_code(t)))


# -- split map: one-or-two labels <-> colored with black branching nodes --


def _split(code):
    """Split map from a stack of pending (label, input children): at the
    first child (a, b), a takes the later siblings, b that child's children."""
    _check_multi(code, max_block=2)
    if not _canonical(code):
        raise ValueError("children must be sorted ascending by smallest label")
    word, blocks = code
    kids = _shape(word)[1]
    shift = len(blocks[0]) - 1
    rows, stack = [], [(blocks[0][-1] - shift, kids[0])]
    while stack:
        label, below = stack.pop()
        first = next((j for j, c in enumerate(below) if len(blocks[c]) == 2), None)
        items = [(blocks[c][0] - shift, kids[c]) for c in below[:first]]
        if first is not None:
            low, high = blocks[below[first]]
            items += [(low - shift, below[first + 1:]), (high - shift, kids[below[first]])]
        rows.append((len(items), label, WHITE if first is None else BLACK))
        stack.extend(reversed(items))
    return tuple(zip(*rows)), bool(shift)


def _merge(code, shifted: bool):
    """Inverse split map from a stack of pending (block, colored node): a black
    node's last two children join, then the first one's children follow."""
    _check_colored(code, "branching")
    word, labels, colors = code
    kids = _shape(word)[1]
    rows, stack = [], [((1, labels[0] + 1) if shifted else (labels[0],), 0)]
    while stack:
        block, node = stack.pop()
        items = []
        while colors[node] == BLACK:
            *rest, left, right = kids[node]
            if labels[left] >= labels[right]:
                raise ValueError("split children must carry increasing labels")
            items += [((labels[c] + shifted,), c) for c in rest]
            items.append(((labels[left] + shifted, labels[right] + shifted), right))
            node = left
        items += [((labels[c] + shifted,), c) for c in kids[node]]
        rows.append((len(items), block))
        stack.extend(reversed(items))
    return tuple(zip(*rows))


def unibi_to_q(t: MultiTree) -> Tuple[ColoredTree, bool]:
    """Map a canonical unordered one-or-two-labels tree to a colored tree.

    Returns (colored tree, root_was_doubly_labelled); in the doubly-labelled
    case label 1 is removed from the root and all labels shift down by one,
    so the image has size m-1.
    """
    code, shifted = _split(_code(t))
    return _fold(ColoredTree, *code), shifted


def q_to_unibi(t: ColoredTree, root_was_doubly_labelled: bool) -> MultiTree:
    """Inverse of the split map."""
    return _fold(MultiTree, *_merge(_code(t), root_was_doubly_labelled))


# -- exhaustive enumeration of objects ------------------------------------


def _labelled_codes(m: int, cap: int, sibling_sorted: bool = False):
    """(word, blocks) of every increasing labelling with m labels, at most
    cap per node, of every plane tree that can hold them."""
    check_capacity(m, MAX_OBJECT_LABELS, "object label count m")
    for word, _, bucket_functions in _bucket_words(m, cap):
        parents = _shape(word)[0]
        for buckets in bucket_functions:
            yield from ((word, b) for b in _label_blocks(parents, buckets, sibling_sorted))


def _colored_codes(m: int, branching: bool):
    """Per labelling, every coloring of the colorable nodes, white first, the
    first in preorder varying slowest."""
    colorings = {}
    for word, blocks in _labelled_codes(m, 1, sibling_sorted=branching):
        if word not in colorings:
            colorable = [d >= 2 if branching else d == 1 for d in word]
            colorings[word] = list(product(*((WHITE, BLACK)[:1 + c] for c in colorable)))
        labels = tuple(label for (label,) in blocks)
        yield from ((word, labels, colors) for colors in colorings[word])


_OBJECT_SCHEMES = {  # scheme: (tree class, codes with m labels)
    "free-multi": (MultiTree, lambda m: _labelled_codes(m, m)),
    "unibi": (MultiTree, lambda m: _labelled_codes(m, 2, True)),
    "colored-unary": (ColoredTree, partial(_colored_codes, branching=False)),
    "colored-branching": (ColoredTree, partial(_colored_codes, branching=True)),
}


def enumerate_objects(scheme: str, m: int) -> Iterator:
    """Complete, duplicate-free enumeration for one of the object schemes:
    free-multi, unibi, colored-unary, colored-branching."""
    if scheme not in _OBJECT_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {sorted(_OBJECT_SCHEMES)}")
    make, codes = _OBJECT_SCHEMES[scheme]
    return (_fold(make, *code) for code in codes(m))


def enumerate_free_multilabelled(m: int) -> Iterator[MultiTree]:
    """All ordered free multilabelled increasing trees with m labels."""
    return enumerate_objects("free-multi", m)


def enumerate_unibi_unordered(m: int) -> Iterator[MultiTree]:
    """All canonical unordered trees with one or two labels per node and m
    labels in total."""
    return enumerate_objects("unibi", m)


def enumerate_colored_unary(m: int) -> Iterator[ColoredTree]:
    """Ordered increasing trees of size m, out-degree-1 nodes black or white."""
    return enumerate_objects("colored-unary", m)


def enumerate_colored_branching(m: int) -> Iterator[ColoredTree]:
    """Canonical unordered increasing trees of size m, out-degree >= 2 nodes
    black or white."""
    return enumerate_objects("colored-branching", m)


# -- verification -----------------------------------------------------------


@dataclass(frozen=True)
class BijectionReport:
    """Per-m verification of one bijection."""

    name: str
    label_counts: Tuple[int, ...]
    domain_sizes: Tuple[int, ...]
    image_sizes: Tuple[int, ...]
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _verify(name, noun, max_m, schemes, forward, inverse, shifts) -> BijectionReport:
    """Round trip, injectivity, codomain membership and count equality of a
    map whose image (code, shifted) of an object with m labels lies among
    the targets with m - shifted labels, for each shift in ``shifts``.
    max_m meets the capacity before any object is enumerated."""
    check_capacity(max_m, MAX_OBJECT_LABELS, "object label count m")
    objects, targets = (_OBJECT_SCHEMES[scheme][1] for scheme in schemes)
    failures, domain, image = [], [], []
    codomains = [set()]
    for m in range(1, max_m + 1):
        objs = list(objects(m))
        codomains.append(set(targets(m)))
        images = set()
        for obj in objs:
            col, shifted = forward(obj)
            images.add((col, shifted))
            # the inverse validates its input, so it only sees codomain members
            if col not in codomains[m - shifted]:
                failures.append(
                    f"m={m}: image not a valid colored tree: "
                    f"{format_object(_fold(ColoredTree, *col))}"
                )
            elif inverse(col, shifted) != obj:
                failures.append(
                    f"m={m}: round trip failed for {format_object(_fold(MultiTree, *obj))}"
                )
        if len(images) != len(objs):
            failures.append(f"m={m}: {name} map not injective")
        sizes = [len(codomains[m - shift]) for shift in shifts]
        if sum(sizes) != len(objs):
            failures.append(f"m={m}: {len(objs)} {noun} vs {' + '.join(map(str, sizes))} colored")
        domain.append(len(objs))
        image.append(sum(sizes))
    return BijectionReport(
        name, tuple(range(1, max_m + 1)), tuple(domain), tuple(image), tuple(failures)
    )


def verify_chain_bijection(max_m: int) -> BijectionReport:
    """Round trip, injectivity, codomain membership and count equality of
    the chain map."""
    return _verify(
        "chain", "multilabelled", max_m, ("free-multi", "colored-unary"),
        lambda obj: (_chain(obj), False), lambda col, shifted: _unchain(col), (0,),
    )


def verify_split_bijection(max_m: int) -> BijectionReport:
    """Round trip, injectivity and count equality of the split map."""
    return _verify(
        "split", "unibi", max_m, ("unibi", "colored-branching"), _split, _merge, (0, 1),
    )


# -- text encoding -----------------------------------------------------------


def format_object(obj) -> str:
    if not isinstance(obj, (MultiTree, ColoredTree)):
        raise TypeError(f"cannot format {type(obj).__name__}")
    return obj.to_text()


_TOKEN = re.compile(r"\(\{(\d+(?:,\d+)*)\}([bw]?)")


def _parse(text: str):
    """Preorder code (word, label tuples, colors) of an object's text."""
    word, matches = _scan(text, _TOKEN, " ")
    return word, [tuple(map(int, m[1].split(","))) for m in matches], [m[2] for m in matches]


def parse_multilabelled(text: str) -> MultiTree:
    word, labels, colors = _parse(text)
    if any(colors):
        raise ValueError("multilabelled trees carry no colors")
    return _fold(MultiTree, word, [tuple(sorted(block)) for block in labels])


def parse_colored(text: str) -> ColoredTree:
    word, labels, colors = _parse(text)
    if any(len(block) != 1 or c not in (BLACK, WHITE) for block, c in zip(labels, colors)):
        raise ValueError("colored trees need a single label and a b/w color per node")
    return _fold(ColoredTree, word, [label for (label,) in labels], colors)
