"""Slow reference routes for the coefficient engine, composition, reversion,
reverse engineering, the first integral, the lattice sum, hook sums and
labelling enumeration.

These are the fixed-point solvers, the composition recurrence for k-tuple
trees, the compose-per-order reversion and the two-derivative reverse
engineering 4 g f''(g) + 2 f'(g) that the package used before its online
engine.  They iterate on the rational coefficients T_n / s_n in ``Series``;
the engine solves for the integers T_n with its own convolution weights and
Bell table.  Here are also the per-tree ``Fraction`` loops over
``OrderedTree`` objects that the hook sums used before degree words and the
census, with the labelling generator that kept its free labels in a
frozenset; the plane trees as degree words grafted by recursion, as before
the package grew them in one loop (:func:`build_words`); the hook-sum
censuses built by walking degree words, as before the package grafted
packed codes (:func:`word_census`,
:func:`word_bucket_census`); and the bijection objects built per labelling from
``OrderedTree`` recursion, with unordered trees filtered after generation
and colorings as one product over the colorable positions; the same
objects made by backtracking over each plane tree's bucket functions, as
before the package grew them by their largest label (:func:`labelled_codes`,
:func:`colored_codes`); and the chain and split maps with their inverses as
recursions over ``MultiTree``/``ColoredTree`` nodes, and as walks over codes
that run the detailed validators on every input, as the package's public
maps do (:func:`chain_code`, :func:`unchain_code`, :func:`split_code`,
:func:`merge_code`).  The first integral (T')^2 = 2 Phi(T)
is checked here on ``Fraction`` series products, as the package did before
its integer binomial convolutions, and the strict-binary lattice sum is
taken one point and one n at a time, as before its one-pass sums.  The
Horner composition they all run on is kept here too (:func:`compose`), so
no function in this module touches the package's power table
(``Series.compose``, ``Series.reversion``, ``_compose_column``) or the
engine (``solvers._Engine``).  They stay here, outside the package, as a
second independent route: the tests compare the engine against them
exactly.  They are polynomial of high degree (k-tuple: exponential), so
keep N small.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache, partial
from itertools import chain, combinations, product
from math import factorial
from typing import Iterator, Optional, Sequence, Tuple

from inctrees.bijections import (
    BLACK,
    WHITE,
    ColoredTree,
    MultiTree,
    _canonical,
    _check_colored,
    _check_multi,
)
from inctrees.families import GAMMA_QUARTER_DIGITS, PI_DIGITS, LatticeSumResult
from inctrees.series import Series
from inctrees.solvers import InvariantReport
from inctrees.trees import (
    OrderedTree,
    _bucket_count,
    _bucket_words,
    _fold,
    _label_blocks,
    _plane_trees,
    _shape,
    enumerate_bucket_functions,
    enumerate_ordered_trees,
    falling_factorial,
    tree_weight,
)
from inctrees.weights import DegreeWeights


def compositions(total: int, parts: Optional[int] = None) -> Iterator[Tuple[int, ...]]:
    """Ordered compositions of ``total`` into positive parts, lexicographic.

    With ``parts`` set, only compositions of exactly that many parts.
    ``total == 0`` yields the empty composition (when parts is 0 or None).
    """
    if parts is not None:
        if parts == 0:
            if total == 0:
                yield ()
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest
        return
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def compose(outer: Series, inner: Series) -> Series:
    """outer(inner(z)) by Horner's rule in Series products; inner must have
    zero constant term.  Valid to the minimum order of the two."""
    if inner.coefficient(0) != 0:
        raise ValueError("composition needs an inner series with zero constant term")
    n = min(outer.order, inner.order)
    inner = inner.truncate(n)
    result = Series.constant(outer.coefficient(n), n)
    for k in range(n - 1, -1, -1):
        result = result * inner + Series.constant(outer.coefficient(k), n)
    return result


# -- fixed-point solvers: substitute the prefix, integrate, repeat ----------


def k_labelled_series(weights: DegreeWeights, k: int, order: int) -> Series:
    """EGF of the k-labelled family, truncated at the given order in z."""
    phi = weights.as_series(order)
    t = Series.zero(order)
    for _ in range(order // k + 2):
        rhs = compose(phi, t)
        for _ in range(k):
            rhs = rhs.integrate()
        t = rhs.truncate(order)
    return t


def free_multilabelled_series(weights: DegreeWeights, order: int) -> Series:
    phi = weights.as_series(order)
    t = Series.zero(order)
    for _ in range(order + 1):
        t = (compose(phi, t) + t).integrate().truncate(order)
    return t


def unilabelled_bilabelled_series(weights: DegreeWeights, order: int) -> Series:
    phi = weights.as_series(order)
    phi_prime = weights.derivative_series(order)
    linear = Series.identity(order).scale(weights.coefficient(0))
    t = linear
    for _ in range(order + 1):
        rhs = compose(phi, t) + t.differentiate() * compose(phi_prime, t)
        t = (rhs.integrate().integrate() + linear).truncate(order)
    return t


def _values(series: Series, terms: int, stride: int) -> Tuple[Fraction, ...]:
    return tuple(
        series.coefficient(stride * n) * factorial(stride * n)
        for n in range(1, terms + 1)
    )


def k_labelled_values(weights: DegreeWeights, k: int, terms: int) -> Tuple[Fraction, ...]:
    return _values(k_labelled_series(weights, k, k * terms), terms, k)


def free_multilabelled_values(weights: DegreeWeights, terms: int) -> Tuple[Fraction, ...]:
    return _values(free_multilabelled_series(weights, terms), terms, 1)


def unilabelled_bilabelled_values(weights: DegreeWeights, terms: int) -> Tuple[Fraction, ...]:
    return _values(unilabelled_bilabelled_series(weights, terms), terms, 1)


def k_tuple_values(weights: DegreeWeights, k: int, terms: int) -> Tuple[Fraction, ...]:
    """Root decomposition: T_n sums phi_r over the ordered compositions of
    n - 1 into r subtree sizes, with the label multinomial to the k-th power."""
    values = [weights.coefficient(0)]
    for n in range(2, terms + 1):
        total = Fraction(0)
        for r in range(1, n):
            phi_r = weights.coefficient(r)
            if phi_r == 0:
                continue
            acc = Fraction(0)
            for parts in compositions(n - 1, r):
                mult = factorial(n - 1)
                for s in parts:
                    mult //= factorial(s)
                prod = Fraction(mult) ** k
                for s in parts:
                    prod *= values[s - 1]
                acc += prod
            total += phi_r * acc
        values.append(total)
    return tuple(values)


# -- reversion by one full composition per order ----------------------------


def reversion(series: Series) -> Series:
    """Compositional inverse of ``series`` (zero constant term, nonzero
    linear term): after g_1..g_{m-1} are fixed, the z^m coefficient of
    series(g) is off by f_1 g_m."""
    n = series.order
    a1 = series.coefficient(1)
    g = [Fraction(0)] * (n + 1)
    g[1] = 1 / a1
    for m in range(2, n + 1):
        err = compose(series.truncate(m), Series(g[: m + 1])).coefficient(m)
        g[m] = -err / a1
    return Series(g)


# -- reverse engineering through two derivatives ----------------------------


def reverse_phi(values) -> Tuple[Fraction, ...]:
    """phi_0 .. phi_{N-1} from T_1 .. T_N (T_1 != 0) as 4 g f''(g) + 2 f'(g),
    with f(w) = sum T_n w^n / (2n)! and g its compositional inverse."""
    n_terms = len(values)
    f = Series(
        [Fraction(0)]
        + [Fraction(values[n - 1]) / factorial(2 * n) for n in range(1, n_terms + 1)]
    )
    g = reversion(f)
    f_prime = f.differentiate()
    f_second = f_prime.differentiate()
    # f'' o g is valid to order N-2; multiplying by g (valuation 1) gives
    # the product to order N-1, one past what blind min-order tracking sees
    inner = compose(f_second, g.truncate(n_terms - 2))
    product = [Fraction(0)] * n_terms
    for i in range(1, n_terms):
        for j in range(n_terms - i):
            product[i + j] += g.coefficient(i) * inner.coefficient(j)
    tail = compose(f_prime, g.truncate(n_terms - 1))
    return tuple(4 * product[j] + 2 * tail.coefficient(j) for j in range(n_terms))


# -- first integral by Series products --------------------------------------


def first_order_invariant_check(weights: DegreeWeights, t: Series) -> InvariantReport:
    """(T')^2 against 2 Phi(T) coefficient by coefficient, both sides as
    ``Fraction`` series: 2 Phi(T) = sum_j 2 Phi_j T^j by repeated products."""
    lhs = t.differentiate()
    lhs = lhs * lhs
    if t.coefficient(0) != 0:
        raise ValueError("the solution series needs a zero constant term")
    rhs = Series.zero(t.order)
    power = Series.one(t.order)
    for c in weights.antiderivative_series(t.order).coefficients:
        rhs = rhs + power.scale(2 * c)
        power = power * t
    order = min(lhs.order, rhs.order)
    mismatches = tuple(
        i for i in range(order + 1) if lhs.coefficient(i) != rhs.coefficient(i)
    )
    return InvariantReport(checked_order=order, mismatches=mismatches)


# -- lattice sum one point at a time ------------------------------------------


def lattice_prefactor(n: int) -> float:
    """(2n+1)! 2^(3n+4) pi^(n+1) / (3^((n-1)/2) Gamma(1/4)^(4n+4)): the
    weight of the lattice sum, and of its largest term, the point 1."""
    return (
        factorial(2 * n + 1)
        * 2.0 ** (3 * n + 4)
        * float(PI_DIGITS) ** (n + 1)
        / (3.0 ** ((n - 1) / 2) * float(GAMMA_QUARTER_DIGITS) ** (4 * n + 4))
    )


def lattice_sum(n: int, cutoff: int) -> LatticeSumResult:
    """The strict-binary lattice sum for one n (1 <= n <= 63), each point
    (1 + n1 + n2 + i(n1 - n2))^(-(2n+2)) raised on its own."""
    total = 0.0 + 0.0j
    exponent = -(2 * n + 2)
    for n1 in range(-cutoff, cutoff + 1):
        for n2 in range(-cutoff, cutoff + 1):
            total += complex(1 + n1 + n2, n1 - n2) ** exponent
    value = lattice_prefactor(n) * total
    return LatticeSumResult(value=value.real, imaginary_residual=abs(value.imag))


# -- hook sums by one Fraction product per tree -----------------------------


def tree_hook_sum(weights: DegreeWeights, n: int, factor) -> Tuple[Fraction, int]:
    """Sum over the size-n plane trees of prod phi_odeg * factor[hook] over
    the nodes, and the number of trees visited."""
    phi = [weights.coefficient(d) for d in range(n)]
    total = Fraction(0)
    visited = 0
    for tree in enumerate_ordered_trees(n):
        visited += 1
        term = Fraction(1)
        # hook-lengths as node sizes, apart from the package's word_hook_lengths
        hooks = (node.size for node in tree.preorder())
        for d, h in zip(tree.out_degrees(), hooks):
            if not phi[d]:
                break
            term *= phi[d] * factor[h]
        else:
            total += term
    return total, visited


def bucket_hook_sum(
    weights: DegreeWeights, m: int, max_bucket: Optional[int] = None
) -> Tuple[Fraction, int]:
    """Sum over trees of all sizes and bucket-size functions with m labels of
    prod phi_odeg / (bucket hook-length falling bucket size), the bucket
    hook-length of a node being the bucket total over its subtree object;
    and the number of trees visited."""
    lhs = Fraction(0)
    visited = 0
    min_size = 1 if max_bucket is None else (m + max_bucket - 1) // max_bucket
    for size in range(min_size, m + 1):
        for tree in enumerate_ordered_trees(size):
            visited += 1
            weight = tree_weight(tree, weights)
            if weight == 0:
                continue
            nodes = list(tree.preorder())
            for buckets in enumerate_bucket_functions(tree, m, max_bucket):
                term = weight
                for i, (node, b) in enumerate(zip(nodes, buckets)):
                    term /= falling_factorial(sum(buckets[i : i + node.size]), b)
                lhs += term
    return lhs, visited


# -- plane trees by grafting, and censuses by walking degree words ---------


@cache
def build_words(n: int) -> tuple:
    """(word, hook-lengths) of the size-n plane trees in canonical order, by
    the recursion of the package's ``_build_words`` before its one loop, here
    kept per size.  A tree is its root's first child (size s, then rank)
    grafted as the new first child onto the root of a size n-s tree, which
    holds the rest of the children in canonical order.  The graft keeps
    every hook-length but the root's, which becomes n."""
    if n == 1:
        return (((0,), (1,)),)
    return tuple(
        ((rest[0] + 1,) + first + rest[1:], (n,) + first_hooks + rest_hooks[1:])
        for s in range(1, n)
        for first, first_hooks in build_words(s)
        for rest, rest_hooks in build_words(n - s)
    )


@cache
def word_census(n: int):
    """``trees._census`` as it was built from degree words: per word, its
    sorted hook-lengths and sorted out-degrees, regrouped by hook multiset."""
    by_degrees = defaultdict(Counter)
    for word, hooks in _plane_trees(n):
        by_degrees[tuple(sorted(word))][tuple(sorted(hooks))] += 1
    groups = defaultdict(list)
    for degrees, hook_counts in by_degrees.items():
        for hooks, count in hook_counts.items():
            groups[hooks].append((degrees, count))
    census = tuple(
        (tuple(map(hooks.count, range(1, n + 1))), tuple(degree_counts))
        for hooks, degree_counts in groups.items()
    )
    visited = sum(count for _, degree_counts in census for _, count in degree_counts)
    most = tuple(map(max, zip(*(mults for mults, _ in census))))
    return census, visited, most


@cache
def word_bucket_census(m: int, max_bucket: Optional[int]):
    """``trees._bucket_census`` as it was built from degree words: each
    word's bucket functions counted one by one with ``_bucket_count``."""
    counts, visited = Counter(), 0
    for word, hooks, bucket_functions in _bucket_words(m, max_bucket or m):
        visited += 1
        counts[tuple(sorted(word))] += sum(
            _bucket_count(word, hooks, buckets) for buckets in bucket_functions
        )
    return tuple(counts.items()), visited


# -- labellings with the free labels in a frozenset --------------------------


def increasing_labellings(
    tree: OrderedTree, block_sizes: Sequence[int]
) -> Iterator[Tuple[frozenset, ...]]:
    """The blocks of ``trees._label_blocks``, in its order."""
    n = tree.size
    parents = tree.parent_indices()

    def assign(i: int, avail: frozenset, blocks: tuple):
        if i == n:
            yield blocks
            return
        lower = max(blocks[parents[i]]) if i > 0 else 0
        candidates = sorted(x for x in avail if x > lower)
        if len(candidates) < block_sizes[i]:
            return
        for chosen in combinations(candidates, block_sizes[i]):
            yield from assign(i + 1, avail.difference(chosen), blocks + (frozenset(chosen),))

    return assign(0, frozenset(range(1, sum(block_sizes) + 1)), ())


# -- bijection objects by backtracking over bucket functions -----------------


def labelled_codes(m: int, cap: int, sibling_sorted: bool = False):
    """(word, blocks) of every increasing labelling with m labels, at most
    cap per node, of every plane tree that can hold them: per plane tree
    and bucket function, each labelling of ``trees._label_blocks``, as the
    package made its objects before growing them by their largest label.
    ``sibling_sorted`` keeps those of :func:`sibling_sorted_labellings`,
    whose blocks come in the same order."""
    for word, _, bucket_functions in _bucket_words(m, cap):
        parents = _shape(word)[0]
        for buckets in bucket_functions:
            if sibling_sorted:
                tree = _fold(OrderedTree, word)
                labellings = (tuple(map(tuple, map(sorted, b)))
                              for b in sibling_sorted_labellings(tree, buckets))
            else:
                labellings = _label_blocks(parents, buckets)
            yield from ((word, b) for b in labellings)


def colored_codes(m: int, branching: bool):
    """Per labelling of :func:`labelled_codes`, every coloring of the
    colorable nodes, white first, the first in preorder varying slowest."""
    colorings = {}
    for word, blocks in labelled_codes(m, 1, sibling_sorted=branching):
        if word not in colorings:
            colorable = [d >= 2 if branching else d == 1 for d in word]
            colorings[word] = list(product(*((WHITE, BLACK)[:1 + c] for c in colorable)))
        labels = tuple(label for (label,) in blocks)
        yield from ((word, labels, colors) for colors in colorings[word])


SCHEME_CODES = {  # scheme of bijections.enumerate_objects: codes with m labels
    "free-multi": lambda m: labelled_codes(m, m),
    "unibi": lambda m: labelled_codes(m, 2, True),
    "colored-unary": partial(colored_codes, branching=False),
    "colored-branching": partial(colored_codes, branching=True),
}


# -- bijection objects by generate-then-filter -------------------------------


def multi_from_blocks(tree: OrderedTree, blocks, cursor: int = 0) -> MultiTree:
    """The multilabelled tree of a labelling's preorder blocks."""
    children = []
    offset = cursor + 1
    for child in tree.children:
        children.append(multi_from_blocks(child, blocks, offset))
        offset += child.size
    return MultiTree(tuple(sorted(blocks[cursor])), tuple(children))


def is_canonical_unordered(t: MultiTree) -> bool:
    """Children of every node sorted ascending by smallest label."""
    mins = [min(c.labels) for c in t.children]
    return mins == sorted(mins) and all(is_canonical_unordered(c) for c in t.children)


def sibling_sorted_labellings(
    tree: OrderedTree, block_sizes: Sequence[int]
) -> Iterator[Tuple[frozenset, ...]]:
    """The labellings whose object has every node's children sorted by
    smallest label, in the order of :func:`increasing_labellings`."""
    for blocks in increasing_labellings(tree, block_sizes):
        if is_canonical_unordered(multi_from_blocks(tree, blocks)):
            yield blocks


def unibi_unordered(m: int) -> Iterator[MultiTree]:
    """``bijections.enumerate_unibi_unordered``, in its order."""
    for size in range((m + 1) // 2, m + 1):
        for tree in enumerate_ordered_trees(size):
            for buckets in enumerate_bucket_functions(tree, m, max_bucket=2):
                for blocks in sibling_sorted_labellings(tree, buckets):
                    yield multi_from_blocks(tree, blocks)


def colored_trees(m: int, black_degrees: str) -> Iterator[ColoredTree]:
    """``bijections.enumerate_colored_unary`` ("unary") or
    ``enumerate_colored_branching`` ("branching"), in its order: per
    labelling, every white/black choice at the colorable nodes, the first of
    them in preorder varying slowest."""
    labellings = sibling_sorted_labellings if black_degrees == "branching" else \
        increasing_labellings
    for tree in enumerate_ordered_trees(m):
        nodes = list(tree.preorder())
        free = [
            i for i, node in enumerate(nodes)
            if (node.out_degree == 1 if black_degrees == "unary" else node.out_degree >= 2)
        ]
        for blocks in labellings(tree, [1] * m):
            for flips in product((WHITE, BLACK), repeat=len(free)):
                colors = [WHITE] * m
                for pos, color in zip(free, flips):
                    colors[pos] = color
                yield _colored(tree, blocks, colors)


def _colored(tree: OrderedTree, blocks, colors, cursor: int = 0) -> ColoredTree:
    children = []
    offset = cursor + 1
    for child in tree.children:
        children.append(_colored(child, blocks, colors, offset))
        offset += child.size
    (label,) = blocks[cursor]
    return ColoredTree(label, colors[cursor], tuple(children))


# -- bijection maps by recursion over tree nodes -----------------------------


def expand(node: MultiTree) -> ColoredTree:
    """``bijections.multi_to_colored`` of a valid tree."""
    children = tuple(map(expand, node.children))
    tip = ColoredTree(node.labels[-1], WHITE, children)
    for label in reversed(node.labels[:-1]):
        tip = ColoredTree(label, BLACK, (tip,))
    return tip


def collapse(node: ColoredTree) -> MultiTree:
    """``bijections.colored_to_multi`` of a valid tree."""
    labels = [node.label]
    while node.color == BLACK:
        node = node.children[0]
        labels.append(node.label)
    return MultiTree(tuple(labels), tuple(map(collapse, node.children)))


def shift_multi(node: MultiTree, delta: int) -> MultiTree:
    return MultiTree(
        tuple(l + delta for l in node.labels),
        tuple(shift_multi(c, delta) for c in node.children),
    )


def split(node: MultiTree) -> ColoredTree:
    children = list(node.children)
    first_double = next(
        (i for i, c in enumerate(children) if len(c.labels) == 2), None
    )
    if first_double is None:
        return ColoredTree(node.labels[0], WHITE, tuple(split(c) for c in children))
    p = first_double
    doubled = children[p]
    left = MultiTree((doubled.labels[0],), tuple(children[p + 1 :]))
    right = MultiTree((doubled.labels[1],), doubled.children)
    new_children = children[:p] + [left, right]
    return ColoredTree(node.labels[0], BLACK, tuple(split(c) for c in new_children))


def unibi_to_q(t: MultiTree) -> Tuple[ColoredTree, bool]:
    """``bijections.unibi_to_q`` of a valid canonical tree."""
    if len(t.labels) == 2:
        rest = MultiTree((t.labels[1] - 1,), tuple(shift_multi(c, -1) for c in t.children))
        return split(rest), True
    return split(t), False


def merge(node: ColoredTree) -> MultiTree:
    children = [merge(c) for c in node.children]
    if node.color == BLACK:
        left, right = children[-2], children[-1]
        joined = MultiTree(left.labels + right.labels, right.children)
        children = children[:-2] + [joined] + list(left.children)
    return MultiTree((node.label,), tuple(children))


def q_to_unibi(t: ColoredTree, root_was_doubly_labelled: bool) -> MultiTree:
    """``bijections.q_to_unibi`` of a valid tree."""
    merged = merge(t)
    if root_was_doubly_labelled:
        merged = shift_multi(merged, +1)
        merged = MultiTree((1,) + merged.labels, merged.children)
    return merged


# -- bijection maps as validating walks over codes ---------------------------
#
# The package's public maps on codes: each runs the detailed validator on
# every input, then walks the code.  The package keeps the validation at its
# public boundary and lets the verifier call the bare walks.


def chain_code(code):
    """``bijections._chain``."""
    _check_multi(code)
    word, blocks = code
    out, colors = [], []
    for d, block in zip(word, blocks):
        tail = len(block) - 1
        out += (1,) * tail + (d,)
        colors += (BLACK,) * tail + (WHITE,)
    return tuple(out), tuple(chain.from_iterable(blocks)), tuple(colors)


def unchain_code(code):
    """``bijections._unchain``."""
    _check_colored(code, "unary")
    word, blocks, run = [], [], []
    for d, label, color in zip(*code):
        run.append(label)
        if color == WHITE:
            word.append(d)
            blocks.append(tuple(run))
            run = []
    return tuple(word), tuple(blocks)


def split_code(code):
    """``bijections._split``."""
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


def merge_code(code, shifted: bool):
    """``bijections._merge``."""
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
