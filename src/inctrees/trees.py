"""Exhaustive enumeration of ordered rooted trees and their label counts.

This is the brute-force oracle layer: plane trees of a given size in a
deterministic canonical order, hook-lengths, node weights, bucket-size
functions, and both closed-form and explicit-enumeration counts of
increasing labellings.  Everything here is exact and deliberately naive;
capacity limits keep runtimes at desk scale.

One enumerator yields the trees as preorder out-degree (Łukasiewicz)
words, cached up to size ``_MEMO_SIZE_LIMIT`` and streamed beyond it.  Hook
sums read the words; :class:`OrderedTree` objects are built from them only
for bijections, text and label-count checks.  Labellings come from one flat
backtracking generator that skips every branch that cannot be completed.

Node-indexed data (hook-lengths, out-degrees, bucket sizes, label blocks)
is always aligned with the preorder traversal of the tree.

Trees have a text form of balanced parentheses: ``()`` is a single node and
``(()())`` is a root with two leaf children; parsers reject text nested
deeper than ``MAX_TEXT_DEPTH`` with a ``ValueError`` naming the position.

The package's seven capacity bounds (``MAX_TREE_SIZE``, ``MAX_LABEL_TOTAL``
and ``MAX_BUCKET_TOTAL`` here, two in ``hooks``, one in ``bijections``, one
in ``families``) are all enforced by :func:`check_capacity`.
The environment variable ``INCTREE_CAPACITY``, when set to a positive
integer, replaces all of them; any other value is a ``ValueError``.
Raising it can make enumerations take minutes and gigabytes; that risk is
the caller's.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Iterator, Optional, Sequence, Tuple

from .weights import DegreeWeights

MAX_TREE_SIZE = 14
MAX_LABEL_TOTAL = 12   # brute-force k-labellings: k * n
MAX_BUCKET_TOTAL = 10  # brute-force bucket labellings: m
MAX_TEXT_DEPTH = 200   # nesting of parsed tree and labelled-object text
_MEMO_SIZE_LIMIT = 10  # degree words cached up to this size


class CapacityError(ValueError):
    """An enumeration was asked to exceed its documented capacity."""


def check_capacity(value: int, default: int, what: str) -> None:
    """CapacityError naming the quantity when value exceeds its bound:
    INCTREE_CAPACITY when set, else the default."""
    override = os.environ.get("INCTREE_CAPACITY")
    try:
        limit = int(override) if override else default
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"INCTREE_CAPACITY must be a positive integer, got {override!r}")
    if value > limit:
        raise CapacityError(
            f"{what} = {value} exceeds the capacity {limit}; "
            "set INCTREE_CAPACITY to override"
        )


@dataclass(frozen=True)
class OrderedTree:
    """Rooted plane tree; children are an ordered tuple of subtrees."""

    children: Tuple["OrderedTree", ...] = ()
    size: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "size", 1 + sum(c.size for c in self.children))

    @classmethod
    def leaf(cls) -> "OrderedTree":
        return cls(())

    @property
    def out_degree(self) -> int:
        return len(self.children)

    def preorder(self) -> Iterator["OrderedTree"]:
        """All subtrees (one per node), root first."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def out_degrees(self) -> Tuple[int, ...]:
        return tuple(node.out_degree for node in self.preorder())

    def hook_lengths(self) -> Tuple[int, ...]:
        """Subtree sizes in preorder; the hook-length of a node is the
        number of its descendants including itself."""
        return tuple(node.size for node in self.preorder())

    def parent_indices(self) -> Tuple[int, ...]:
        """Preorder index of each node's parent (-1 for the root)."""
        parents = [-1] * self.size
        cursor = [0]

        def walk(node: "OrderedTree", parent: int):
            me = cursor[0]
            cursor[0] += 1
            parents[me] = parent
            for child in node.children:
                walk(child, me)

        walk(self, -1)
        return tuple(parents)

    # -- text form -----------------------------------------------------

    def to_text(self) -> str:
        return "(" + "".join(c.to_text() for c in self.children) + ")"

    @classmethod
    def parse(cls, text: str) -> "OrderedTree":
        text = text.strip()
        tree, pos = cls._parse_at(text, 0)
        if pos != len(text):
            raise ValueError(f"trailing input after tree at position {pos}")
        return tree

    @classmethod
    def _parse_at(cls, text: str, pos: int, depth: int = 1):
        if pos >= len(text) or text[pos] != "(":
            raise ValueError(f"expected '(' at position {pos}")
        if depth > MAX_TEXT_DEPTH:
            raise ValueError(f"tree nested deeper than {MAX_TEXT_DEPTH} at position {pos}")
        pos += 1
        children = []
        while pos < len(text) and text[pos] == "(":
            child, pos = cls._parse_at(text, pos, depth + 1)
            children.append(child)
        if pos >= len(text) or text[pos] != ")":
            raise ValueError(f"expected ')' at position {pos}")
        return cls(tuple(children)), pos + 1

    def __repr__(self) -> str:
        return f"OrderedTree.parse({self.to_text()!r})"


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


_word_memo: dict = {}


def _words(n: int) -> Iterator[Tuple[int, ...]]:
    """Preorder out-degree words of the size-n plane trees, in canonical
    order; cached up to _MEMO_SIZE_LIMIT, streamed beyond it."""
    if n > _MEMO_SIZE_LIMIT:
        return _build_words(n)
    if n not in _word_memo:
        _word_memo[n] = tuple(_build_words(n))
    return iter(_word_memo[n])


def _build_words(n: int) -> Iterator[Tuple[int, ...]]:
    # A tree is its root's first child (size s, then rank) grafted as the
    # new first child onto the root of a size n-s tree, which holds the rest
    # of the children in canonical order.
    if n == 1:
        yield (0,)
        return
    for s in range(1, n):
        for first in _words(s):
            for rest in _words(n - s):
                yield (rest[0] + 1,) + first + rest[1:]


def _tree_from_word(word: Sequence[int]) -> OrderedTree:
    stack = []
    for d in reversed(word):
        stack[len(stack) - d :] = [OrderedTree(tuple(reversed(stack[len(stack) - d :])))]
    return stack[0]


def enumerate_degree_words(n: int) -> Iterator[Tuple[int, ...]]:
    """The preorder out-degree words of all Catalan(n-1) plane trees with n
    nodes, in canonical order (see :func:`enumerate_ordered_trees`)."""
    if n < 1:
        raise ValueError("tree size must be positive")
    check_capacity(n, MAX_TREE_SIZE, "tree size n")
    return _words(n)


def enumerate_ordered_trees(n: int) -> Iterator[OrderedTree]:
    """All Catalan(n-1) plane trees with n nodes, in canonical order.

    Canonical order sorts same-size trees by their child sequences
    lexicographically, where a child of smaller size precedes any larger
    child and same-size children compare by their own canonical rank.
    Each tree is built from its word of :func:`enumerate_degree_words`.
    """
    return (_tree_from_word(word) for word in enumerate_degree_words(n))


def word_hook_lengths(word: Sequence[int]) -> Tuple[int, ...]:
    """Hook-lengths, in preorder, of the tree with this preorder out-degree
    word, from one right-to-left stack pass."""
    stack, hooks = [], []
    for d in reversed(word):
        stack[len(stack) - d :] = [1 + sum(stack[len(stack) - d :])]
        hooks.append(stack[-1])
    return tuple(reversed(hooks))


def falling_factorial(x: int, s: int) -> int:
    """x (x-1) ... (x-s+1); the empty product 1 for s = 0."""
    out = 1
    for i in range(s):
        out *= x - i
    return out


def tree_weight(tree: OrderedTree, weights: DegreeWeights) -> Fraction:
    """Product of the degree weights over all nodes."""
    w = Fraction(1)
    for d in tree.out_degrees():
        w *= weights.coefficient(d)
        if w == 0:
            break
    return w


# -- increasing k-labellings ------------------------------------------


def count_k_labellings_formula(tree: OrderedTree, k: int) -> int:
    """Number of increasing k-labellings: (kn)! / prod of k-step falling
    factorials of k * hook-length."""
    if k < 1:
        raise ValueError("k must be positive")
    denom = 1
    for h in tree.hook_lengths():
        denom *= falling_factorial(k * h, k)
    count, rem = divmod(factorial(k * tree.size), denom)
    if rem:
        raise ArithmeticError(f"labelling count of {tree.to_text()} with k={k} is not integral")
    return count


def _label_blocks(
    parents: Sequence[int], block_sizes: Sequence[int], sibling_sorted: bool = False
) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Increasing labellings as preorder tuples of sorted label blocks, by
    flat backtracking: node i takes each combination, in lexicographic order,
    of the free labels above its parent's largest label but for the last ones
    its subtree needs, so no branch dead-ends.  ``sibling_sorted`` instead
    starts above the previous sibling's smallest label: siblings come sorted."""
    n, total = len(block_sizes), sum(block_sizes)
    anchors, last_child, need = [], {}, list(block_sizes)
    for i, p in enumerate(parents):
        j = last_child.get(p, -1) if sibling_sorted else -1
        anchors.append((j, 0) if j >= 0 else (p, -1))
        last_child[p] = i
    for i in range(n - 1, 0, -1):
        need[parents[i]] += need[i]
    used = [False] * (total + 1)
    blocks = [()] * n
    choices = [combinations(range(1, block_sizes[0] + 1), block_sizes[0])]
    while choices:
        i = len(choices) - 1
        for x in blocks[i]:
            used[x] = False
        chosen = next(choices[i], None)
        if chosen is None:
            blocks[i] = ()
            choices.pop()
            continue
        blocks[i] = chosen
        for x in chosen:
            used[x] = True
        if i + 1 == n:
            yield tuple(blocks)
            continue
        anchor, end = anchors[i + 1]
        free = [x for x in range(blocks[anchor][end] + 1, total + 1) if not used[x]]
        free = free[: len(free) - need[i + 1] + block_sizes[i + 1]]
        choices.append(combinations(free, block_sizes[i + 1]))


def iter_increasing_labellings(
    tree: OrderedTree, block_sizes: Sequence[int]
) -> Iterator[Tuple[frozenset, ...]]:
    """All assignments of disjoint label blocks (given sizes, preorder) such
    that every label in a child block exceeds every label of its parent.

    Labels are 1..sum(block_sizes); blocks are yielded as preorder-aligned
    tuples of frozensets.
    """
    if len(block_sizes) != tree.size:
        raise ValueError("one block size per node required")
    return (tuple(map(frozenset, b)) for b in _label_blocks(tree.parent_indices(), block_sizes))


def count_k_labellings_bruteforce(tree: OrderedTree, k: int) -> int:
    """Count increasing k-labellings by explicit construction."""
    if k < 1:
        raise ValueError("k must be positive")
    check_capacity(k * tree.size, MAX_LABEL_TOTAL, "brute-force label total k*n")
    return sum(1 for _ in iter_increasing_labellings(tree, [k] * tree.size))


# -- bucket labellings -------------------------------------------------


def bucket_hook_lengths(hooks: Sequence[int], buckets: Sequence[int]) -> Tuple[int, ...]:
    """Bucket hook-length of each node (preorder) of the tree with these
    hook-lengths: the total bucket size of its subtree, which is the hooks[i]
    nodes from node i on."""
    if len(buckets) != len(hooks):
        raise ValueError("one bucket size per node required")
    return tuple(sum(buckets[i : i + h]) for i, h in enumerate(hooks))


def _bucket_count(word: Sequence[int], hooks: Sequence[int], buckets: Sequence[int]) -> int:
    """m! / prod over nodes of (bucket hook-length) falling (bucket size) for
    the tree with this degree word and these hook-lengths."""
    denom = 1
    for hb, b in zip(bucket_hook_lengths(hooks, buckets), buckets):
        denom *= falling_factorial(hb, b)
    count, rem = divmod(factorial(sum(buckets)), denom)
    if rem:
        raise ArithmeticError(
            f"bucket labelling count of {_tree_from_word(word).to_text()} "
            f"with buckets {tuple(buckets)} is not integral"
        )
    return count


def count_bucket_labellings_formula(tree: OrderedTree, buckets: Sequence[int]) -> int:
    """Number of increasing multilabellings for a fixed bucket-size function:
    m! / prod over nodes of (bucket hook-length) falling (bucket size)."""
    if any(b < 1 for b in buckets):
        raise ValueError("bucket sizes must be positive")
    return _bucket_count(tree.out_degrees(), tree.hook_lengths(), buckets)


def count_bucket_labellings_bruteforce(tree: OrderedTree, buckets: Sequence[int]) -> int:
    check_capacity(sum(buckets), MAX_BUCKET_TOTAL, "brute-force bucket total m")
    return sum(1 for _ in iter_increasing_labellings(tree, list(buckets)))


def count_k_tuple_labellings(tree: OrderedTree, k: int) -> int:
    """Number of increasing k-tuple labellings: the k-th power of the
    single-labelling count n! / prod of hook-lengths."""
    if k < 1:
        raise ValueError("k must be positive")
    return count_k_labellings_formula(tree, 1) ** k


def enumerate_bucket_functions(
    tree: OrderedTree, m: int, max_bucket: Optional[int] = None
) -> Iterator[Tuple[int, ...]]:
    """All bucket-size functions with total m (preorder tuples).

    ``max_bucket`` caps the size of a single bucket (2 for the
    one-or-two-labels scheme); None leaves it unbounded.  m below the tree
    size yields nothing.
    """
    return _bucket_functions(tree.size, m, m if max_bucket is None else max_bucket)


def _bucket_functions(n: int, total: int, cap: int, acc: tuple = ()) -> Iterator[tuple]:
    """enumerate_bucket_functions for any tree with n nodes, after ``acc``."""
    if n == 0:
        if total == 0:
            yield acc
        return
    for b in range(max(1, total - cap * (n - 1)), min(cap, total - (n - 1)) + 1):
        yield from _bucket_functions(n - 1, total - b, cap, acc + (b,))
