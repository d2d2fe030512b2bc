"""Plane trees, their preorder code and text, and their label counts.

This is the brute-force oracle layer: plane trees of a given size in a
deterministic canonical order, hook-lengths, node weights, bucket-size
functions, and both closed-form and explicit-enumeration counts of
increasing labellings.  Everything here is exact and deliberately naive;
capacity limits keep runtimes at desk scale.

Every tree class of the package (:class:`OrderedTree` here,
``MultiTree`` and ``ColoredTree`` in ``bijections``) converts through one
code layer: a tree's preorder code is its out-degree (Łukasiewicz) word
plus one tuple per node field.  :func:`_code` reads it off a tree,
:func:`_fold` builds a tree from it, :func:`_shape` gives each node's
parent and children, and :func:`_scan` and :func:`_write` read and write
nested-parenthesis text.  All five are loops, so any depth works; only
parsing is capped, at ``MAX_TEXT_DEPTH`` levels, with a ``ValueError``
naming the position.  Equality and hash of every tree class compare codes,
and its repr writes its text (:class:`_Node`), so they take any depth too.

One loop yields each tree once, as its degree word and hook-lengths, with
no recursion and no cache (:func:`_plane_trees`).  The hook sums read two
censuses from here: the size-n trees per hook-length and out-degree
multisets (:func:`_census`), and the labelling counts per out-degree
multiset of the trees and bucket functions with m labels
(:func:`_bucket_census`).  Each grafts and decodes packed codes, one int
per tree with a one-byte field per out-degree and hook-length that counts
its nodes, a format no other module knows.  The sizes below a census's
own are kept (:func:`_code_table`); its own is counted as it streams.  A
field counts up to 255 nodes, so a larger census is a ``CapacityError``
whatever ``INCTREE_CAPACITY`` says: a limit beside the seven capacity
bounds below, not one of them.  Labellings for the brute-force
counts come from one flat backtracking generator that skips every branch
that cannot be completed.  :func:`_bucket_words` states which trees can
hold m labels, at most cap per node, and :func:`_bucket_functions` their
bucket sizes, as cut points.

One formula counts increasing labellings (:func:`_bucket_count`): a tree
with bucket sizes b_i has m! / prod (bucket hook-length)_i falling b_i.  A
k-labelled count is the case b_i = k, and a k-tuple count is the k = 1
count to the k-th power.  :func:`word_hook_lengths` gives the hook-lengths
of a single word, for trees that do not come from the enumerator.

Node-indexed data (hook-lengths, out-degrees, bucket sizes, label blocks)
is always aligned with the preorder traversal of the tree.

Trees have a text form of balanced parentheses: ``()`` is a single node and
``(()())`` is a root with two leaf children.

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
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate, chain, combinations, repeat
from math import comb, factorial, perm
from operator import sub
from typing import Iterator, Optional, Sequence, Tuple

from .weights import DegreeWeights

MAX_TREE_SIZE = 14
MAX_LABEL_TOTAL = 12   # brute-force k-labellings: k * n
MAX_BUCKET_TOTAL = 10  # brute-force bucket labellings: m
MAX_TEXT_DEPTH = 200   # nesting of parsed tree and labelled-object text


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


class _Node:
    """Equality, hash and repr of every tree class, a ``dataclass(frozen=True,
    eq=False, repr=False)`` over this, on its preorder code with the fields
    ``_FIELDS``; the repr is the class's ``parse`` call on its ``to_text``."""

    _FIELDS = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or _code(self) == _code(other)

    def __hash__(self):
        return hash(_code(self))

    def __repr__(self):
        return f"{type(self).__name__}.parse({self.to_text()!r})"


@dataclass(frozen=True, eq=False, repr=False)
class OrderedTree(_Node):
    """Rooted plane tree; children are an ordered tuple of subtrees."""

    children: Tuple["OrderedTree", ...] = ()
    size: int = field(init=False)

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
        return _code(self)[0]

    def hook_lengths(self) -> Tuple[int, ...]:
        """Subtree sizes in preorder (see :func:`word_hook_lengths`)."""
        return word_hook_lengths(self.out_degrees())

    def parent_indices(self) -> Tuple[int, ...]:
        """Preorder index of each node's parent (-1 for the root)."""
        return _shape(self.out_degrees())[0]

    def to_text(self) -> str:
        return _write(self.out_degrees(), repeat("("), "")

    @classmethod
    def parse(cls, text: str) -> "OrderedTree":
        return _fold(cls, _scan(text, _OPEN, "")[0])


# -- preorder codes and text ---------------------------------------------


@lru_cache(maxsize=1024)
def _shape(word):
    """Parent (-1 at the root) and children of each node of the tree with
    this out-degree word; a node waits once per child it still lacks."""
    parents, kids, waiting = [], [[] for _ in word], []
    for i, d in enumerate(word):
        p = waiting.pop() if waiting else -1
        parents.append(p)
        if i:
            kids[p].append(i)
        waiting += [i] * d
    return tuple(parents), tuple(map(tuple, kids))


def _code(tree):
    """Preorder code of a tree: out-degree word, then each of its ``_FIELDS``."""
    fields, rows, stack = tree._FIELDS, [], [tree]
    while stack:
        node = stack.pop()
        rows.append((len(node.children), *(getattr(node, f) for f in fields)))
        stack.extend(reversed(node.children))
    return tuple(zip(*rows))


def _fold(make, word, *fields):
    """Build a tree bottom-up from its preorder code, make(*fields, kids) per node."""
    stack = []
    for d, *args in zip(reversed(word), *map(reversed, fields)):
        cut = len(stack) - d
        stack[cut:] = [make(*args, tuple(reversed(stack[cut:])))]
    return stack[0]


_OPEN = re.compile(r"\(")


def _scan(text: str, token, sep: str):
    """Out-degree word and per-node ``token`` matches, in preorder, of
    nested text: a node is a token, then each child after ``sep``, then ')'."""
    text, pos = text.strip(), 0
    word, matches, open_nodes = [], [], []
    while True:
        match = token.match(text, pos)
        if not match:
            raise ValueError(f"expected a node at position {pos}")
        if len(open_nodes) == MAX_TEXT_DEPTH:
            raise ValueError(f"tree nested deeper than {MAX_TEXT_DEPTH} at position {pos}")
        if open_nodes:
            word[open_nodes[-1]] += 1
        open_nodes.append(len(word))
        word.append(0)
        matches.append(match)
        pos = match.end()
        while text.startswith(")", pos):
            pos += 1
            open_nodes.pop()
            if not open_nodes:
                if pos != len(text):
                    raise ValueError(f"trailing input after tree at position {pos}")
                return tuple(word), matches
        if not text.startswith(sep, pos):
            raise ValueError(f"expected ')' at position {pos}")
        pos += len(sep)


def _write(word, heads, sep: str) -> str:
    """Text of a preorder code, the inverse of :func:`_scan`: each node's
    head, then each child after ``sep``, then ')'."""
    out, waiting = [], []
    for d, head in zip(word, heads):
        if waiting:
            waiting[-1] -= 1
            out.append(sep)
        out.append(head)
        waiting.append(d)
        while waiting and not waiting[-1]:
            waiting.pop()
            out.append(")")
    return "".join(out)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _plane_trees(n: int) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """(preorder out-degree word, preorder hook-lengths) of each size-n plane
    tree once, in canonical order.  Each node keeps its parent and the room
    its parent has left after it (``rooms[m]`` for m sibling leaves).  The
    next tree grows the last node whose parent has room left by one node, and
    the nodes after it, one path per room they filled, become leaves."""
    rooms, zeros, ones = zip(*(([*range(m - 1, -1, -1)], [0] * m, [1] * m) for m in range(n)))
    word, hooks = [n - 1] + zeros[n - 1], [n] + ones[n - 1]
    parent, left = [0] * n, [0] + rooms[n - 1]
    yield tuple(word), tuple(hooks)
    for _ in range(1, catalan(n - 1)):
        j = n - 1
        while not left[j]:
            j -= 1
        h, room, p, k = hooks[j], left[j] - 1, parent[j], j + hooks[j] + 1
        word[j], hooks[j], left[j] = h, h + 1, room
        word[p] += room - 1
        parent[j + 1 : k], left[j + 1 : k] = [j] * h, rooms[h]
        if room:
            parent[k : k + room], left[k : k + room] = [p] * room, rooms[room]
            k += room
        while k < n:
            a, size = parent[k], hooks[k]
            if size > 1:
                word[a] += size - 1
                parent[k : k + size], left[k : k + size] = [a] * size, rooms[size]
            k += size
        word[j + 1 :], hooks[j + 1 :] = zeros[n - j - 1], ones[n - j - 1]
        yield tuple(word), tuple(hooks)


def enumerate_degree_words(n: int) -> Iterator[Tuple[int, ...]]:
    """The preorder out-degree words of all Catalan(n-1) plane trees with n
    nodes, in canonical order (see :func:`enumerate_ordered_trees`)."""
    if n < 1:
        raise ValueError("tree size must be positive")
    check_capacity(n, MAX_TREE_SIZE, "tree size n")
    return (word for word, _ in _plane_trees(n))


def enumerate_ordered_trees(n: int) -> Iterator[OrderedTree]:
    """All Catalan(n-1) plane trees with n nodes, in canonical order.

    Canonical order sorts same-size trees by their child sequences
    lexicographically, where a child of smaller size precedes any larger
    child and same-size children compare by their own canonical rank.
    Equivalently, it is the strict lexicographic order of the preorder
    hook-length sequences.  Each tree is built from its degree word.
    """
    return (_fold(OrderedTree, word) for word in enumerate_degree_words(n))


def word_hook_lengths(word: Sequence[int]) -> Tuple[int, ...]:
    """Hook-lengths (descendants, self included) in preorder of the tree with
    this preorder out-degree word, from one right-to-left stack pass."""
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


def _check_k(k: int) -> int:
    """k, the labels per node or the tuple length, checked positive."""
    if k < 1:
        raise ValueError("k must be positive")
    return k


def count_k_labellings_formula(tree: OrderedTree, k: int) -> int:
    """Number of increasing k-labellings: the bucket count with k labels at
    every node, (kn)! / prod of k-step falling factorials of k * hook-length."""
    return count_bucket_labellings_formula(tree, (_check_k(k),) * tree.size)


def _label_blocks(
    parents: Sequence[int], block_sizes: Sequence[int]
) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Increasing labellings as preorder tuples of sorted label blocks, by
    flat backtracking: node i takes each combination, in lexicographic order,
    of the free labels above its parent's largest label but for the last ones
    its subtree needs, so no branch dead-ends.  The last node in preorder, a
    leaf, is placed without a combination: once the others hold their blocks
    exactly its block size of labels is free, and it takes them when all lie
    above its parent's largest label (else the branch ends)."""
    n, total, need = len(block_sizes), sum(block_sizes), list(block_sizes)
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
        free = [x for x in range(blocks[parents[i + 1]][-1] + 1, total + 1) if not used[x]]
        if i + 2 == n:
            if len(free) == block_sizes[i + 1]:
                yield (*blocks[:i + 1], tuple(free))
            continue
        free = free[: len(free) - need[i + 1] + block_sizes[i + 1]]
        choices.append(combinations(free, block_sizes[i + 1]))


def _check_buckets(tree: OrderedTree, buckets: Sequence[int]) -> Tuple[int, ...]:
    """The bucket sizes as a tuple, checked: one per node, each at least 1."""
    buckets = tuple(buckets)
    if len(buckets) != tree.size:
        raise ValueError("one bucket size per node required")
    if any(b < 1 for b in buckets):
        raise ValueError("bucket sizes must be positive")
    return buckets


def _count_labellings(tree: OrderedTree, buckets: Sequence[int]) -> int:
    return sum(1 for _ in _label_blocks(tree.parent_indices(), _check_buckets(tree, buckets)))


def count_k_labellings_bruteforce(tree: OrderedTree, k: int) -> int:
    """Count increasing k-labellings by explicit construction."""
    buckets = (_check_k(k),) * tree.size
    check_capacity(sum(buckets), MAX_LABEL_TOTAL, "brute-force label total k*n")
    return _count_labellings(tree, buckets)


# -- bucket labellings -------------------------------------------------


def _bucket_count(word: Sequence[int], hooks: Sequence[int], buckets: Sequence[int]) -> int:
    """m! / prod over nodes of (bucket hook-length) falling (bucket size) for
    the tree with this degree word and these hook-lengths; the bucket
    hook-length of node i is the bucket total of its hooks[i] subtree nodes,
    read from the suffix sums of the buckets."""
    suffix = list(accumulate(reversed(buckets), initial=0))[::-1]
    denom = 1
    for i, (h, b) in enumerate(zip(hooks, buckets)):
        denom *= perm(suffix[i] - suffix[i + h], b)
    count, rem = divmod(factorial(suffix[0]), denom)
    if rem:
        raise ArithmeticError(
            f"bucket labelling count of {_write(word, repeat('('), '')} "
            f"with buckets {tuple(buckets)} is not integral"
        )
    return count


def count_bucket_labellings_formula(tree: OrderedTree, buckets: Sequence[int]) -> int:
    """Number of increasing multilabellings for a fixed bucket-size function:
    m! / prod over nodes of (bucket hook-length) falling (bucket size)."""
    return _bucket_count(tree.out_degrees(), tree.hook_lengths(), _check_buckets(tree, buckets))


def count_bucket_labellings_bruteforce(tree: OrderedTree, buckets: Sequence[int]) -> int:
    check_capacity(sum(buckets), MAX_BUCKET_TOTAL, "brute-force bucket total m")
    return _count_labellings(tree, buckets)


def count_k_tuple_labellings(tree: OrderedTree, k: int) -> int:
    """Number of increasing k-tuple labellings: the k-th power of the
    single-labelling count n! / prod of hook-lengths."""
    return count_k_labellings_formula(tree, 1) ** _check_k(k)


def enumerate_bucket_functions(
    tree: OrderedTree, m: int, max_bucket: Optional[int] = None
) -> Iterator[Tuple[int, ...]]:
    """All bucket-size functions with total m (preorder tuples).

    ``max_bucket`` caps the size of a single bucket (2 for the
    one-or-two-labels scheme); None leaves it unbounded.  m below the tree
    size yields nothing.
    """
    return _bucket_functions(tree.size, m, m if max_bucket is None else max_bucket)


def _bucket_functions(n: int, total: int, cap: int) -> Iterator[tuple]:
    """enumerate_bucket_functions for any tree with n nodes: the compositions
    of total into n parts of 1..cap, in lexicographic order.  They are the
    cut points 0 < c_1 < ... < c_{n-1} < total in lexicographic order, less
    those that leave a part above cap."""
    if total < n:
        return
    for cuts in combinations(range(1, total), n - 1):
        parts = tuple(map(sub, cuts + (total,), (0,) + cuts))
        if max(parts) <= cap:
            yield parts


def _bucket_words(m: int, cap: int):
    """(word, hook-lengths, bucket functions) of every plane tree that can
    hold m labels, at most cap per node: sizes ceil(m/cap) .. m, each in
    canonical order."""
    for size in range(-(-m // cap) if m > 0 else 1, m + 1):
        for word, hooks in _plane_trees(size):
            yield word, hooks, _bucket_functions(size, m, cap)


# -- hook-sum censuses from packed multiset codes ---------------------------

_UNIT = 256  # one byte per code field
_MOST_NODES = 255  # the most nodes a one-byte field counts, whatever INCTREE_CAPACITY says
_code_tables: dict = {}  # "trees": codes per size and root degree; cap: bucket items per total


def _grafts(table, n: int):
    """(root degree, codes) runs with each size-n plane tree once: a first
    subtree of size k on the root of a rest tree of root degree r - 1 adds
    the codes and moves the root's hook-length to n and its out-degree to r.
    Each run is an iterator, so a size that is only counted is never held."""
    for k, firsts in enumerate(table[1:n], 1):
        hook = _UNIT ** (2 * n - 1) - _UNIT ** (2 * n - 2 * k - 1)
        for r, rest in enumerate(table[n - k], 1):
            move = hook + _UNIT ** (2 * r) - _UNIT ** (2 * r - 2)
            yield r, _sums(firsts, rest, move)


def _sums(firsts, rest, move: int):
    """f + move + c for each f in the lists ``firsts`` and c in ``rest``, as
    they are read; the outer loop runs over the shorter side."""
    if sum(map(len, firsts)) < len(rest):
        return chain.from_iterable(map((move + f).__add__, rest) for f in chain(*firsts))
    return chain.from_iterable(map((move + c).__add__, chain(*firsts)) for c in rest)


def _code_table(n: int) -> list:
    """The codes of the plane trees of sizes 1..n per root degree, built
    bottom-up and kept for the process."""
    table = _code_tables.setdefault("trees", [None, [[1 + _UNIT]]])
    for size in range(len(table), n + 1):
        table.append([[] for _ in range(size)])
        for r, run in _grafts(table, size):
            table[size][r] += run
    return table


@cache
def _spread(multiplicities) -> Tuple[int, ...]:
    """The sorted out-degrees with these multiplicities of 0, 1, 2, ..."""
    return tuple(d for d, e in enumerate(multiplicities) for _ in range(e))


@cache
def _census(n: int):
    """The size-n plane trees as (hook multiplicities, ((sorted out-degrees,
    tree count), ...)) groups, where the multiplicities count the nodes of
    hook-length 1..n; the number of trees; and per hook-length the most nodes
    of that hook-length in one tree.  The sizes below n are built and kept
    (:func:`_code_table`); size n is read from its table if a larger census
    kept it, else counted as its grafts stream.  Byte 2d of a code counts
    the nodes of out-degree d, byte 2h - 1 those of hook-length h."""
    if n > _MOST_NODES:
        raise CapacityError(f"census tree size n = {n} exceeds the field limit {_MOST_NODES}")
    table = _code_table(n - 1)
    runs = table[n] if n < len(table) else (run for _, run in _grafts(table, n))
    codes, groups = Counter(chain.from_iterable(runs)), defaultdict(list)
    for code, count in codes.items():
        fields = code.to_bytes(2 * n, "little")
        groups[fields[1::2]].append((_spread(fields[::2]), count))
    census = tuple((tuple(hooks), tuple(degree_counts)) for hooks, degree_counts in groups.items())
    return census, sum(codes.values()), tuple(map(max, zip(*groups)))


@cache
def _bucket_census(m: int, max_bucket: Optional[int]):
    """The plane trees with m labels in buckets of at most max_bucket (None:
    unbounded) as (sorted out-degrees, summed integer labelling counts)
    pairs, and the number of trees behind them, of ceil(m/max_bucket)..m
    nodes.  The (tree, bucket function) items of each total are kept per
    cap with their out-degree code and D, the product over non-root nodes
    of (bucket hook-length) falling (bucket size): a first item of total t
    and root bucket b on a rest item makes D = D_first (t)_b D_rest, so each
    count m! / (D (m)_b) is :func:`_bucket_count`'s, checked integral."""
    if m > _MOST_NODES:
        raise CapacityError(f"census label count m = {m} exceeds the field limit {_MOST_NODES}")
    table = _code_tables.setdefault(max_bucket, [None])
    for total in range(len(table), m + 1):
        items = [(1, 1, 0, total)] if max_bucket is None or total <= max_bucket else []
        lift = [_UNIT ** (2 * r + 2) - _UNIT ** (2 * r) for r in range(total)]
        for t in range(1, total):
            firsts = [(code, d * perm(t, b)) for code, d, _, b in table[t]]
            items += [(c + f + lift[r], d * e, r + 1, b)
                      for c, d, r, b in table[total - t] for f, e in firsts]
        table.append(items)
    labels, counts = factorial(m), Counter()
    for code, d, _, b in table[m]:
        count, rem = divmod(labels, d * perm(m, b))
        if rem:  # the words name the tree
            for word, hooks, functions in _bucket_words(m, max_bucket or m):
                for buckets in functions:
                    _bucket_count(word, hooks, buckets)
            raise ArithmeticError(f"a bucket labelling count with {m} labels is not integral")
        counts[code] += count
    census = tuple((_spread(code.to_bytes(2 * m, "little")[::2]), count)
                   for code, count in counts.items())
    return census, sum(map(catalan, range(-(-m // (max_bucket or m)) - 1, m)))
