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
labelling generator of ``trees`` keeps as it goes; colorings share subtrees.

Text encodings (parse/format below)::

    multilabelled   ({1,2} ({3}) ({4,5}))
    colored         ({1}b ({2}w))          -- b/w after the label set

Enumeration capacity is m <= 7 by default (INCTREE_CAPACITY overrides).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Iterator, List, Tuple

from .trees import (
    MAX_TEXT_DEPTH,
    _label_blocks,
    check_capacity,
    enumerate_bucket_functions,
    enumerate_ordered_trees,
)

MAX_OBJECT_LABELS = 7

BLACK = "b"
WHITE = "w"


@dataclass(frozen=True)
class MultiTree:
    """Node of a multilabelled tree: a sorted tuple of labels plus subtrees."""

    labels: Tuple[int, ...]
    children: Tuple["MultiTree", ...] = ()

    def label_count(self) -> int:
        return len(self.labels) + sum(c.label_count() for c in self.children)

    def node_count(self) -> int:
        return 1 + sum(c.node_count() for c in self.children)


@dataclass(frozen=True)
class ColoredTree:
    """Node of a singly-labelled colored tree."""

    label: int
    color: str
    children: Tuple["ColoredTree", ...] = ()

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)


# -- validation ---------------------------------------------------------


def _collect_labels(t: MultiTree, out: List[int]):
    out.extend(t.labels)
    for c in t.children:
        _collect_labels(c, out)


def validate_multilabelled(t: MultiTree, max_block: int = 0) -> int:
    """Check label partition + increasing condition; returns the label count.

    max_block > 0 additionally bounds the number of labels per node.
    """
    seen: List[int] = []
    _collect_labels(t, seen)
    m = len(seen)
    if sorted(seen) != list(range(1, m + 1)):
        raise ValueError("labels must partition 1..m into disjoint node sets")

    def walk(node: MultiTree):
        if not node.labels:
            raise ValueError("every node needs a non-empty label set")
        if list(node.labels) != sorted(set(node.labels)):
            raise ValueError("node labels must be a strictly sorted tuple")
        if max_block and len(node.labels) > max_block:
            raise ValueError(
                f"node holds {len(node.labels)} labels, allowed at most {max_block}"
            )
        for child in node.children:
            if not child.labels:
                raise ValueError(f"a child of the node with labels {node.labels} has no labels")
            if min(child.labels) <= max(node.labels):
                raise ValueError(
                    f"increasing condition violated between label sets "
                    f"{node.labels} and {child.labels}"
                )
            walk(child)

    walk(t)
    return m


def is_canonical_unordered(t: MultiTree) -> bool:
    """Children of every node sorted ascending by smallest label."""
    mins = [min(c.labels) for c in t.children]
    if mins != sorted(mins):
        return False
    return all(is_canonical_unordered(c) for c in t.children)


def validate_colored(t: ColoredTree, black_degrees: str) -> int:
    """Check increasing labels 1..size and the coloring constraint.

    black_degrees is "unary" (only out-degree-1 nodes may be black) or
    "branching" (only out-degree >= 2 nodes may be black).
    """
    labels: List[int] = []

    def walk(node: ColoredTree):
        labels.append(node.label)
        if node.color not in (BLACK, WHITE):
            raise ValueError(f"unknown color {node.color!r}")
        if node.color == BLACK:
            if black_degrees == "unary" and len(node.children) != 1:
                raise ValueError(
                    f"black node of out-degree {len(node.children)}, expected 1"
                )
            if black_degrees == "branching" and len(node.children) < 2:
                raise ValueError(
                    f"black node of out-degree {len(node.children)}, expected >= 2"
                )
        for child in node.children:
            if child.label <= node.label:
                raise ValueError("labels must increase from parent to child")
            walk(child)

    walk(t)
    m = len(labels)
    if sorted(labels) != list(range(1, m + 1)):
        raise ValueError("labels must be exactly 1..size")
    return m


# -- chain map: free multilabelled <-> colored with black unary nodes -----


def multi_to_colored(t: MultiTree) -> ColoredTree:
    """Expand every label set into a chain of black nodes ending white."""
    validate_multilabelled(t)
    return _expand(t)


def _expand(node: MultiTree) -> ColoredTree:
    children = tuple(map(_expand, node.children))
    tip = ColoredTree(node.labels[-1], WHITE, children)
    for label in reversed(node.labels[:-1]):
        tip = ColoredTree(label, BLACK, (tip,))
    return tip


def colored_to_multi(t: ColoredTree) -> MultiTree:
    """Collapse maximal chains of black nodes with their white end."""
    validate_colored(t, "unary")
    return _collapse(t)


def _collapse(node: ColoredTree) -> MultiTree:
    labels = [node.label]
    while node.color == BLACK:
        node = node.children[0]
        labels.append(node.label)
    return MultiTree(tuple(labels), tuple(map(_collapse, node.children)))


# -- split map: one-or-two labels <-> colored with black branching nodes --


def unibi_to_q(t: MultiTree) -> Tuple[ColoredTree, bool]:
    """Map a canonical unordered one-or-two-labels tree to a colored tree.

    Returns (colored tree, root_was_doubly_labelled); in the doubly-labelled
    case label 1 is removed from the root and all labels shift down by one,
    so the image has size m-1.
    """
    validate_multilabelled(t, max_block=2)
    if not is_canonical_unordered(t):
        raise ValueError("children must be sorted ascending by smallest label")
    shifted = False
    if len(t.labels) == 2:
        shifted = True
        t = MultiTree(
            (t.labels[1] - 1,),
            tuple(_shift_multi(c, -1) for c in t.children),
        )
    return _split(t), shifted


def _shift_multi(node: MultiTree, delta: int) -> MultiTree:
    return MultiTree(
        tuple(l + delta for l in node.labels),
        tuple(_shift_multi(c, delta) for c in node.children),
    )


def _split(node: MultiTree) -> ColoredTree:
    children = list(node.children)
    first_double = next(
        (i for i, c in enumerate(children) if len(c.labels) == 2), None
    )
    if first_double is None:
        return ColoredTree(
            node.labels[0], WHITE, tuple(_split(c) for c in children)
        )
    p = first_double
    doubled = children[p]
    left = MultiTree((doubled.labels[0],), tuple(children[p + 1 :]))
    right = MultiTree((doubled.labels[1],), doubled.children)
    new_children = children[:p] + [left, right]
    return ColoredTree(
        node.labels[0], BLACK, tuple(_split(c) for c in new_children)
    )


def q_to_unibi(t: ColoredTree, root_was_doubly_labelled: bool) -> MultiTree:
    """Inverse of the split map."""
    validate_colored(t, "branching")
    merged = _merge(t)
    if root_was_doubly_labelled:
        merged = _shift_multi(merged, +1)
        merged = MultiTree((1,) + merged.labels, merged.children)
    return merged


def _merge(node: ColoredTree) -> MultiTree:
    children = [_merge(c) for c in node.children]
    if node.color == BLACK:
        if len(children) < 2:
            raise ValueError("black node of out-degree < 2 cannot be merged")
        left, right = children[-2], children[-1]
        if len(left.labels) != 1 or len(right.labels) != 1:
            raise ValueError("split children must carry single labels")
        if left.labels[0] >= right.labels[0]:
            raise ValueError("split children must carry increasing labels")
        joined = MultiTree(left.labels + right.labels, right.children)
        children = children[:-2] + [joined] + list(left.children)
    return MultiTree((node.label,), tuple(children))


# -- exhaustive enumeration of objects ------------------------------------


def _labelled_shapes(sizes, m: int, max_bucket, sibling_sorted: bool = False):
    """(preorder out-degree word, label blocks) of every increasing labelling
    with m labels of every plane tree of the given sizes."""
    for size in sizes:
        for tree in enumerate_ordered_trees(size):
            word, parents = tree.out_degrees(), tree.parent_indices()
            for buckets in enumerate_bucket_functions(tree, m, max_bucket):
                for blocks in _label_blocks(parents, buckets, sibling_sorted):
                    yield word, blocks


def _fold(word, blocks, make):
    """Build bottom-up along a preorder out-degree word: make(block, kids)
    per node, kids being its children's results in order."""
    stack = []
    for d, block in zip(reversed(word), reversed(blocks)):
        cut = len(stack) - d
        stack[cut:] = [make(block, tuple(reversed(stack[cut:])))]
    return stack[0]


def enumerate_free_multilabelled(m: int) -> Iterator[MultiTree]:
    """All ordered free multilabelled increasing trees with m labels."""
    check_capacity(m, MAX_OBJECT_LABELS, "object label count m")
    for word, blocks in _labelled_shapes(range(1, m + 1), m, None):
        yield _fold(word, blocks, MultiTree)


def enumerate_unibi_unordered(m: int) -> Iterator[MultiTree]:
    """All canonical unordered trees with one or two labels per node and m
    labels in total."""
    check_capacity(m, MAX_OBJECT_LABELS, "object label count m")
    for word, blocks in _labelled_shapes(range((m + 1) // 2, m + 1), m, 2, True):
        yield _fold(word, blocks, MultiTree)


def _enumerate_colored(m: int, branching: bool) -> Iterator[ColoredTree]:
    """Colorings per labelled tree as a product of each node's colors, white
    first, and its children's colorings: the first in preorder varies slowest."""
    check_capacity(m, MAX_OBJECT_LABELS, "object label count m")

    def colorings(block, kids) -> List[ColoredTree]:
        colorable = len(kids) >= 2 if branching else len(kids) == 1
        return [
            ColoredTree(block[0], color, sub)
            for color in ((WHITE, BLACK) if colorable else (WHITE,))
            for sub in product(*kids)
        ]

    for word, blocks in _labelled_shapes((m,), m, 1, sibling_sorted=branching):
        yield from _fold(word, blocks, colorings)


def enumerate_colored_unary(m: int) -> Iterator[ColoredTree]:
    """Ordered increasing trees of size m, out-degree-1 nodes black or white."""
    return _enumerate_colored(m, branching=False)


def enumerate_colored_branching(m: int) -> Iterator[ColoredTree]:
    """Canonical unordered increasing trees of size m, out-degree >= 2 nodes
    black or white."""
    return _enumerate_colored(m, branching=True)


_OBJECT_SCHEMES = {
    "free-multi": enumerate_free_multilabelled,
    "unibi": enumerate_unibi_unordered,
    "colored-unary": enumerate_colored_unary,
    "colored-branching": enumerate_colored_branching,
}


def enumerate_objects(scheme: str, m: int) -> Iterator:
    """Complete, duplicate-free enumeration for one of the object schemes:
    free-multi, unibi, colored-unary, colored-branching."""
    try:
        enum = _OBJECT_SCHEMES[scheme]
    except KeyError:
        raise ValueError(
            f"unknown scheme {scheme!r}; choose from {sorted(_OBJECT_SCHEMES)}"
        ) from None
    return enum(m)


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


def verify_chain_bijection(max_m: int) -> BijectionReport:
    """Round trip, injectivity, codomain membership and count equality of
    the chain map."""
    failures = []
    domain, image = [], []
    for m in range(1, max_m + 1):
        objects = list(enumerate_free_multilabelled(m))
        targets = set(enumerate_colored_unary(m))
        images = set()
        for obj in objects:
            col = multi_to_colored(obj)
            images.add(col)
            if col not in targets:
                failures.append(f"m={m}: image not a valid colored tree: {format_object(col)}")
            if colored_to_multi(col) != obj:
                failures.append(f"m={m}: round trip failed for {format_object(obj)}")
        if len(images) != len(objects):
            failures.append(f"m={m}: chain map not injective")
        if len(targets) != len(objects):
            failures.append(
                f"m={m}: {len(objects)} multilabelled vs {len(targets)} colored"
            )
        domain.append(len(objects))
        image.append(len(targets))
    return BijectionReport(
        "chain", tuple(range(1, max_m + 1)), tuple(domain), tuple(image), tuple(failures)
    )


def verify_split_bijection(max_m: int) -> BijectionReport:
    """Round trip, injectivity and count equality of the split map."""
    failures = []
    domain, image = [], []
    targets_m = set()
    for m in range(1, max_m + 1):
        objects = list(enumerate_unibi_unordered(m))
        targets_prev, targets_m = targets_m, set(enumerate_colored_branching(m))
        images = set()
        for obj in objects:
            col, shifted = unibi_to_q(obj)
            images.add((col, shifted))
            codomain = targets_prev if shifted else targets_m
            if col not in codomain:
                failures.append(
                    f"m={m}: image not a valid colored tree: {format_object(col)}"
                )
            if q_to_unibi(col, shifted) != obj:
                failures.append(f"m={m}: round trip failed for {format_object(obj)}")
        if len(images) != len(objects):
            failures.append(f"m={m}: split map not injective")
        if len(targets_m) + len(targets_prev) != len(objects):
            failures.append(
                f"m={m}: {len(objects)} unibi vs {len(targets_m)} + {len(targets_prev)} colored"
            )
        domain.append(len(objects))
        image.append(len(targets_m) + len(targets_prev))
    return BijectionReport(
        "split", tuple(range(1, max_m + 1)), tuple(domain), tuple(image), tuple(failures)
    )


# -- text encoding -----------------------------------------------------------


def format_object(obj) -> str:
    if isinstance(obj, MultiTree):
        inner = "{" + ",".join(str(l) for l in obj.labels) + "}"
        kids = "".join(" " + format_object(c) for c in obj.children)
        return f"({inner}{kids})"
    if isinstance(obj, ColoredTree):
        kids = "".join(" " + format_object(c) for c in obj.children)
        return f"({{{obj.label}}}{obj.color}{kids})"
    raise TypeError(f"cannot format {type(obj).__name__}")


_TOKEN = re.compile(r"\(\{(\d+(?:,\d+)*)\}([bw]?)")


def _parse_node(text: str, pos: int, depth: int = 1):
    match = _TOKEN.match(text, pos)
    if not match:
        raise ValueError(f"expected a node at position {pos}")
    if depth > MAX_TEXT_DEPTH:
        raise ValueError(f"tree nested deeper than {MAX_TEXT_DEPTH} at position {pos}")
    labels = tuple(int(x) for x in match.group(1).split(","))
    color = match.group(2)
    pos = match.end()
    children = []
    while pos < len(text) and text[pos] == " ":
        child, pos = _parse_node(text, pos + 1, depth + 1)
        children.append(child)
    if pos >= len(text) or text[pos] != ")":
        raise ValueError(f"expected ')' at position {pos}")
    return (labels, color, tuple(children)), pos + 1


def _to_multi(node) -> MultiTree:
    labels, color, children = node
    if color:
        raise ValueError("multilabelled trees carry no colors")
    return MultiTree(tuple(sorted(labels)), tuple(_to_multi(c) for c in children))


def _to_colored(node) -> ColoredTree:
    labels, color, children = node
    if len(labels) != 1 or color not in (BLACK, WHITE):
        raise ValueError("colored trees need a single label and a b/w color per node")
    return ColoredTree(labels[0], color, tuple(_to_colored(c) for c in children))


def parse_multilabelled(text: str) -> MultiTree:
    node, pos = _parse_node(text.strip(), 0)
    if pos != len(text.strip()):
        raise ValueError("trailing input after tree")
    return _to_multi(node)


def parse_colored(text: str) -> ColoredTree:
    node, pos = _parse_node(text.strip(), 0)
    if pos != len(text.strip()):
        raise ValueError("trailing input after tree")
    return _to_colored(node)
