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
children of every node sorted by their smallest label, ascending.

Internally an object is a preorder code on its tree's out-degree word:
``(word, blocks)`` multilabelled, ``(word, labels, colors)`` colored.  All
work on codes is loops, not recursion, and hashing is on flat tuples.
:class:`MultiTree` and :class:`ColoredTree` are the public form, converted
at the boundary by the code and text layer of ``trees`` (``_code``,
``_fold``, ``_scan``, ``_write``), which serves every tree class.

Objects are grown by their largest label (:func:`_levels`): the codes with
m labels come from those with m - 1 by putting label m at the end of a
leaf's block below the cap, or in a new leaf, at any gap among a node's
children (ordered schemes) or after its last child (unordered schemes,
whose siblings stay sorted).  Taking the largest label away undoes the
step, so each object is made once.  The enumerators sort a level into the
canonical order: tree size, the plane tree's canonical order (preorder
hook-lengths), block sizes, blocks; colorings white before black, the
first node in preorder varying slowest.  The verifier reads the levels as
grown; :func:`mapped_texts` writes each sorted level's objects and their
images as text straight from the codes, building no tree.

Each map is one walk over codes that assumes a valid input.  The public
maps (:func:`multi_to_colored`, :func:`colored_to_multi`,
:func:`unibi_to_q`, :func:`q_to_unibi`) run the detailed validator
(``_check_multi`` or ``_check_colored``) on every input first, which words
the error.  The verifier calls the walks directly: its forward inputs are
the objects :func:`_levels` grew, and its inverse inputs are codomain
members it has looked up, in one set of colored codes per label count.  A
grown object that is not valid either maps outside the codomain or fails
the round trip, so it is reported as a failure rather than checked up
front.  The round trips prove the map injective.  Each label count's
verdict (domain size, image size, failure lines) is kept per process, keyed
by the walks and schemes that made it; no level is kept, and a call within
the kept label counts grows none.

Text encodings (each class's ``to_text`` and ``parse``)::

    multilabelled   ({1,2} ({3}) ({4,5}))
    colored         ({1}b ({2}w))          -- b/w after the label set

Enumeration capacity is m <= 7 by default (INCTREE_CAPACITY overrides).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count, islice, product
from typing import Iterator, Tuple

from .series import _check_count, _check_int, check_capacity
from .trees import _code, _fold, _Node, _scan, _shape, _write, word_hook_lengths

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
        return _multi_text(*_code(self))

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
        return _colored_text(*_code(self))

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
    return _check_multi(_code(t), _check_int(max_block, "max_block"))


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
#
# The four walks assume a valid input: the public maps validate it first,
# and the verifier only feeds them objects it grew or codomain members.


def _chain(code):
    """A block l1 < ... < lb under out-degree d becomes b-1 black unary
    nodes, then a white node of out-degree d."""
    word, blocks = code
    out, labels, colors = [], [], []
    for d, block in zip(word, blocks):
        labels += block
        for _ in block[1:]:
            out.append(1)
            colors.append(BLACK)
        out.append(d)
        colors.append(WHITE)
    return tuple(out), tuple(labels), tuple(colors)


def _unchain(code):
    """Each run of black nodes and the white node ending it become one block."""
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
    code = _code(t)
    _check_multi(code)
    return _fold(ColoredTree, *_chain(code))


def colored_to_multi(t: ColoredTree) -> MultiTree:
    """Collapse maximal chains of black nodes with their white end."""
    code = _code(t)
    _check_colored(code, "unary")
    return _fold(MultiTree, *_unchain(code))


# -- split map: one-or-two labels <-> colored with black branching nodes --


def _split(code):
    """(image code, shifted), from a stack of pending (label, input
    children): at the first child (a, b), a takes the later siblings, b that
    child's children.  A doubled root drops its label 1, and every other
    label shifts down by one."""
    word, blocks = code
    kids = _shape(word)[1]
    shift = len(blocks[0]) - 1
    out, labels, colors = [], [], []
    stack = [(blocks[0][-1] - shift, kids[0])]
    while stack:
        label, below = stack.pop()
        items, color = [], WHITE
        for j, c in enumerate(below):
            block = blocks[c]
            if len(block) == 2:
                items.append((block[0] - shift, below[j + 1:]))
                items.append((block[1] - shift, kids[c]))
                color = BLACK
                break
            items.append((block[0] - shift, kids[c]))
        out.append(len(items))
        labels.append(label)
        colors.append(color)
        stack += reversed(items)
    return (tuple(out), tuple(labels), tuple(colors)), bool(shift)


def _merge(code, shifted: bool):
    """Inverse split map, from a stack of pending (block, colored node): a
    black node's last two children join, then the first one's children
    follow.  With ``shifted`` the root gets label 1 back, and every other
    label shifts up by one."""
    word, labels, colors = code
    kids = _shape(word)[1]
    out, blocks = [], []
    stack = [((1, labels[0] + 1) if shifted else (labels[0],), 0)]
    while stack:
        block, node = stack.pop()
        items = []
        while colors[node] == BLACK:
            below = kids[node]
            left, right = below[-2:]
            if labels[left] >= labels[right]:
                raise ValueError("split children must carry increasing labels")
            for c in below[:-2]:
                items.append(((labels[c] + shifted,), c))
            items.append(((labels[left] + shifted, labels[right] + shifted), right))
            node = left
        for c in kids[node]:
            items.append(((labels[c] + shifted,), c))
        out.append(len(items))
        blocks.append(block)
        stack += reversed(items)
    return tuple(out), tuple(blocks)


def unibi_to_q(t: MultiTree) -> Tuple[ColoredTree, bool]:
    """Map a canonical unordered one-or-two-labels tree to a colored tree.

    Returns (colored tree, root_was_doubly_labelled); in the doubly-labelled
    case label 1 is removed from the root and all labels shift down by one,
    so the image has size m-1.
    """
    code = _code(t)
    _check_multi(code, max_block=2)
    if not _canonical(code):
        raise ValueError("children must be sorted ascending by smallest label")
    col, shifted = _split(code)
    return _fold(ColoredTree, *col), shifted


def q_to_unibi(t: ColoredTree, root_was_doubly_labelled: bool) -> MultiTree:
    """Inverse of the split map."""
    code = _code(t)
    _check_colored(code, "branching")
    return _fold(MultiTree, *_merge(code, root_was_doubly_labelled))


# -- exhaustive enumeration of objects ------------------------------------


def _places(word, sorted_siblings: bool):
    """(grown word, preorder index) of each new leaf a tree can take: at
    every gap among a node's children, or only after its last child when
    siblings are sorted by smallest label and the leaf's label is the largest."""
    kids, hooks = _shape(word)[1], word_hook_lengths(word)
    places = []
    for v, below in enumerate(kids):
        grown = word[:v] + (word[v] + 1,) + word[v + 1:]
        ends = [v + hooks[v]] if sorted_siblings else [v + 1] + [c + hooks[c] for c in below]
        places += [(grown[:i] + (0,) + grown[i:], i) for i in ends]
    return places


def _levels(cap: int, sorted_siblings: bool = False):
    """The codes (word, blocks) with 1, 2, ... labels, at most cap per node
    (0: any number), one list per label count in growth order.  Label m
    joins a code with m - 1 labels at the end of a leaf's block below the
    cap, or as a new leaf at one of its :func:`_places`.  Label m always
    sits in a leaf, last in its block, so taking it away undoes the one step
    that put it there: each code is made once."""
    level, shapes = [((0,), ((1,),))], {}
    for m in count(2):
        yield level
        new, grown, limit = (m,), [], cap or m
        for word, blocks in level:
            if word not in shapes:
                leaves = [i for i, d in enumerate(word) if not d]
                shapes[word] = leaves, _places(word, sorted_siblings)
            leaves, places = shapes[word]
            grown += [(word, blocks[:i] + (blocks[i] + new,) + blocks[i + 1:])
                      for i in leaves if len(blocks[i]) < limit]
            grown += [(w, blocks[:i] + (new,) + blocks[i:]) for w, i in places]
        level = grown


def _colored_levels(branching: bool):
    """The codes (word, labels, colors) with 1, 2, ... labels: per
    increasing labelling, every coloring of the colorable nodes (out-degree
    1, or >= 2 when ``branching``), white first, the first in preorder
    varying slowest."""
    colorings = {}
    for level in _levels(1, branching):
        colored = []
        for word, blocks in level:
            if word not in colorings:
                colorable = [d >= 2 if branching else d == 1 for d in word]
                colorings[word] = list(product(*((WHITE, BLACK)[:1 + c] for c in colorable)))
            labels = tuple(chain.from_iterable(blocks))
            colored += [(word, labels, colors) for colors in colorings[word]]
        yield colored


_OBJECT_SCHEMES = {  # scheme: (tree class, levels of codes with 1, 2, ... labels)
    "free-multi": (MultiTree, lambda: _levels(0)),
    "unibi": (MultiTree, lambda: _levels(2, True)),
    "colored-unary": (ColoredTree, lambda: _colored_levels(False)),
    "colored-branching": (ColoredTree, lambda: _colored_levels(True)),
}

_hooks = lru_cache(maxsize=1024)(word_hook_lengths)


def _canonical_order(code):
    """Sort key of the enumeration order: tree size, the plane tree in its
    canonical order (preorder hook-lengths), then block sizes and blocks, or
    labels and colors, white before black."""
    word, labels, *colors = code
    if colors:
        return len(word), _hooks(word), labels, [c == BLACK for c in colors[0]]
    return len(word), _hooks(word), tuple(map(len, labels)), labels


def enumerate_objects(scheme: str, m: int) -> Iterator:
    """Complete, duplicate-free enumeration for one of the object schemes:
    free-multi, unibi, colored-unary, colored-branching (none for m < 1)."""
    if scheme not in _OBJECT_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {sorted(_OBJECT_SCHEMES)}")
    check_capacity(_check_int(m, "m"), MAX_OBJECT_LABELS, "object label count m")
    make, levels = _OBJECT_SCHEMES[scheme]
    level = next(islice(levels(), m - 1, None)) if m > 0 else ()
    return (_fold(make, *code) for code in sorted(level, key=_canonical_order))


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


# Verdicts kept per process: one key per map, with room for the keys that
# patched walks or levels make.  An entry holds three small fields per label
# count; no level outlives its call.
BIJECTION_VERDICT_CACHE = 8

# (walks, domain and target entries of ``_OBJECT_SCHEMES``) -> one (domain
# size, image size, failure lines) per label count 1, 2, ...; least recently
# used first
_VERDICTS: dict = {}


def _verify(name, noun, max_m, schemes, walks, forward, inverse, shifts) -> BijectionReport:
    """Round trip, codomain membership and count equality of a map whose
    image (code, shifted) of an object with m labels lies among the targets
    with m - shifted labels, for each shift in ``shifts``: one set of colored
    codes per label count.  max_m, at least 1, meets the capacity before any
    object is made.  The round trips make the map injective, so the images
    are counted against the objects only at a label count that recorded a
    failure.

    Each label count's verdict is kept per process, keyed by the code that
    made it: the two ``walks`` and the two schemes' entries, as read at the
    call, so a replaced walk or scheme is verified afresh.  A call within
    the kept label counts grows no level; a longer one regrows the levels
    from m = 1 and walks only the label counts not yet kept."""
    check_capacity(_check_count(max_m, "max_m"), MAX_OBJECT_LABELS, "object label count m")
    key = (walks, *(_OBJECT_SCHEMES[scheme] for scheme in schemes))
    rows = _VERDICTS.get(key, ())
    if len(rows) < max_m:
        objects, targets = (_OBJECT_SCHEMES[scheme][1]() for scheme in schemes)
        codomains = [set()]
        for m, objs, cols in zip(range(1, max_m + 1), objects, targets):
            codomains.append(set(cols))
            if m <= len(rows):
                continue
            failures = []
            for obj in objs:
                col, shifted = forward(obj)
                # the inverse walk only sees codomain members, which are valid
                if col not in codomains[m - shifted]:
                    failures.append(
                        f"m={m}: image not a valid colored tree: {_colored_text(*col)}"
                    )
                elif inverse(col, shifted) != obj:
                    failures.append(
                        f"m={m}: round trip failed for {_multi_text(*obj)}"
                    )
            if failures and len(set(map(forward, objs))) != len(objs):
                failures.append(f"m={m}: {name} map not injective")
            sizes = [len(codomains[m - shift]) for shift in shifts]
            if sum(sizes) != len(objs):
                failures.append(
                    f"m={m}: {len(objs)} {noun} vs {' + '.join(map(str, sizes))} colored"
                )
            rows += ((len(objs), sum(sizes), tuple(failures)),)
    _VERDICTS.pop(key, None)
    _VERDICTS[key] = rows
    if len(_VERDICTS) > BIJECTION_VERDICT_CACHE:
        del _VERDICTS[next(iter(_VERDICTS))]
    domain, image, failures = zip(*rows[:max_m])
    return BijectionReport(
        name, tuple(range(1, max_m + 1)), domain, image, tuple(chain.from_iterable(failures))
    )


def verify_chain_bijection(max_m: int) -> BijectionReport:
    """Round trip, injectivity, codomain membership and count equality of
    the chain map."""
    return _verify(
        "chain", "multilabelled", max_m, ("free-multi", "colored-unary"), (_chain, _unchain),
        lambda obj: (_chain(obj), False), lambda col, shifted: _unchain(col), (0,),
    )


def verify_split_bijection(max_m: int) -> BijectionReport:
    """Round trip, injectivity and count equality of the split map."""
    return _verify(
        "split", "unibi", max_m, ("unibi", "colored-branching"), (_split, _merge), _split, _merge,
        (0, 1),
    )


def mapped_texts(scheme: str, max_m: int) -> Iterator[Tuple[str, str, bool]]:
    """(object text, image text, shifted) of every object with 1..max_m
    labels under the chain map (scheme "free") or the split map ("unibi"),
    in the enumeration order, written from the codes of one run of levels."""
    check_capacity(_check_int(max_m, "max_m"), MAX_OBJECT_LABELS, "object label count m")
    domain, walk = {
        "free": ("free-multi", lambda code: (_chain(code), False)),
        "unibi": ("unibi", _split),
    }[scheme]
    for level in islice(_OBJECT_SCHEMES[domain][1](), max_m):
        for code in sorted(level, key=_canonical_order):
            image, shifted = walk(code)
            yield _multi_text(*code), _colored_text(*image), shifted


# -- text encoding -----------------------------------------------------------


def _multi_text(word, blocks) -> str:
    return _write(word, ("({" + ",".join(map(str, b)) + "}" for b in blocks), " ")


def _colored_text(word, labels, colors) -> str:
    return _write(word, (f"({{{x}}}{c}" for x, c in zip(labels, colors)), " ")


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
