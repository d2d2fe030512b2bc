"""Hook-length identities, checked exactly by exhaustive tree enumeration.

Each identity equates a sum over trees of a product of per-node factors
(degree weight divided by some function of the hook-length) with a counting
sequence value divided by a factorial.  The left-hand side is computed here
by brute-force enumeration; the right-hand side comes from the coefficient
solvers — two fully independent computation paths, compared exactly.

One core over sizes 1..N, :func:`hook_sums`, serves every scheme of
``solvers.SCHEMES``: it takes the scale s_n and the one solve to N from
there, with its rule of which schemes take a k, and the rest from one
table, ``_HOOK_SIDES``, of what differs (report name, bound on k, hook
factor or census cap).  It, like ``generic_hook_weight_sums``, reads the
sizes once, rejects an empty run or a size below 1, checks N's capacity,
then k, before any census, builds its factor row and scaled phi once, then
N's census side, so the census field limit is checked before the solve.  A
per-node sum folds the size's census of tree counts per (hook-length
multiplicities, sorted out-degrees), and a bucket sum the label count's
census of integer labelling counts per sorted out-degrees.
Both come whole from ``trees``, cached per process; a run reads its largest
size first, which keeps the smaller sizes' censuses.

The command runs on ints from the census to the verdict.  The hook factors
are normalised (num, den) int pairs: (1, (kh)_k), (1, h^k), or rho(h) by
integer Horner on the coefficients scaled by their lcm, every denominator
checked before any sum.  A per-node sum splits into a hook side and a
degree side.  The hook side depends on the scheme and k, never on phi, so
:func:`_hook_vector` folds the census over the size's row of factors into
one int per out-degree multiset, over one common denominator, and is cached
per process per (size, factor row), at most ``HOOK_VECTOR_CACHE`` rows.
phi is scaled once per command by the lcm L of its denominators, with one
list of powers of L (:func:`_integer_phi`), and enters each size as one dot
product (:func:`_fold`), which also sums the bucket censuses and builds the
size's one left-hand ``Fraction``.  Each right-hand side is one normalised
``Fraction`` of T_n's numerator over its denominator times s_n, and a
report reads its verdict once, from the two sides' numerator/denominator
pairs.  A second phi at the same size and factor row costs only its degree
products and the solver.  Every tree's term is still summed, and
``trees_visited`` is the number of trees behind a sum.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd, prod
from operator import getitem, mul
from typing import Iterator, List, Sequence, Tuple

from .families import MAX_KTUPLE_EXPONENT
from .series import _check_count, _check_int, _over_lcm, as_fraction, check_capacity
from .solvers import SCHEMES, _scheme_k, solve_scheme
from .trees import _bucket_census, _census, falling_factorial
from .weights import SHAPES, DegreeWeights

MAX_HOOK_TREE_SIZE = 12   # Catalan(11) = 58786 trees per sum
MAX_HOOK_BUCKET_TOTAL = 8


# Enough for every (size, factor row) of one ``verify hook --max-n 12
# --max-m 8`` (70 rows) or of every hook request of the bench's ``oracle``
# pass (50).  An entry holds one int per out-degree multiset (56 at size
# 12): a few KB for small k, about 0.7 MB at size 12 for ``-k 3000``.  The
# bound counts rows, not bytes, and a row grows with k: one size-10 row at
# k = 30000 holds 2.5 MB, and a library process can keep 128 such rows.
HOOK_VECTOR_CACHE = 128


@lru_cache(maxsize=HOOK_VECTOR_CACHE)
def _hook_vector(n: int, factors: Tuple[Tuple[int, int], ...]):
    """The hook side of the size-n sums with hook factors num/den =
    factors[h - 1]: per sorted out-degree tuple, the sum over its trees of
    prod num[h]^e den[h]^(most[h]-e) over the e nodes of each hook-length h,
    an int over common = prod den[h]^most[h]; then common and the trees
    visited.  Each hook product is formed once per hook multiset; the
    tuples of sum 0 are left out.  Cached per process: phi never enters."""
    groups, visited, most = _census(n)
    powers = [
        [num**e * den ** (top - e) for e in range(top + 1)]
        for (num, den), top in zip(factors, most)
    ]
    vector = defaultdict(int)
    for mults, degree_counts in groups:
        value = prod(map(getitem, powers, mults))
        for degrees, count in degree_counts:
            vector[degrees] += count * value
    pairs = tuple((degrees, c) for degrees, c in vector.items() if c)
    return pairs, prod(row[0] for row in powers), visited


def _integer_phi(weights: DegreeWeights, top: int):
    """phi_0..phi_{top-1} scaled to ints w_d = L phi_d by the lcm L of their
    denominators, and the powers L^0..L^top, one product each: once per
    command, for every size's :func:`_fold`."""
    w, scale = _over_lcm([weights.coefficient(d) for d in range(top)])
    return w, list(accumulate(repeat(scale, top), mul, initial=1))


def _fold(w: List[int], powers: List[int], pairs, size: int, denominator: int) -> Fraction:
    """Sum over the (sorted out-degrees, int c) pairs of c * prod phi_odeg,
    over denominator, with phi as :func:`_integer_phi`'s ints w over L: a tree
    of s nodes is lifted by L^(size - s), so every term has the denominator
    L^size; the one Fraction is built at the end."""
    item, total = w.__getitem__, 0
    for degrees, c in pairs:
        total += c * prod(map(item, degrees)) * powers[size - len(degrees)]
    return Fraction(total, powers[size] * denominator)


def _tree_sum(w: List[int], powers: List[int], sizes, row) -> Iterator[Tuple[Fraction, int]]:
    """Per size n in sizes: the sum over the size-n plane trees of prod
    phi_odeg * num/den over the nodes, (num, den) = row[hook - 1] a
    normalised int pair, and the trees visited.  The hook side is
    :func:`_hook_vector`'s for the size's row of factors, phi one fold."""
    # the largest size's census keeps the sizes below it for their own
    # censuses, so each size is grafted once in the run
    top = max(sizes)
    largest = _hook_vector(top, row[:top])
    for n in sizes:
        pairs, common, visited = largest if n == top else _hook_vector(n, row[:n])
        yield _fold(w, powers, pairs, n, common), visited


def _sizes(sizes, what: str, bound: int) -> Tuple[Tuple[int, ...], int]:
    """The sizes, read once into a tuple, and the largest of them, once every
    size is at least 1 and the largest within its capacity."""
    sizes = tuple(_check_count(size, what) for size in sizes)
    if not sizes:
        raise ValueError(f"no {what} given")
    top = max(sizes)
    check_capacity(top, bound, what)
    return sizes, top


def _rhs(count: Fraction, scale: int) -> Fraction:
    """count / scale, normalised once."""
    return Fraction(count.numerator, count.denominator * scale)


@dataclass(frozen=True)
class HookIdentityReport:
    """Result of checking one hook-length identity at one size."""

    scheme: str
    parameter: int
    lhs: Fraction
    rhs: Fraction
    trees_visited: int
    # both sides are normalised: read once from their numerator/denominator pairs
    equal: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lhs, rhs = self.lhs, self.rhs
        verdict = lhs.numerator == rhs.numerator and lhs.denominator == rhs.denominator
        object.__setattr__(self, "equal", verdict)

    def to_text(self) -> str:
        verdict = "equal" if self.equal else "UNEQUAL"
        return (
            f"{self.scheme} n={self.parameter} lhs={self.lhs} rhs={self.rhs} "
            f"trees={self.trees_visited} {verdict}"
        )

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "parameter": self.parameter,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "trees_visited": self.trees_visited,
            "verdict": "equal" if self.equal else "unequal",
        }


# scheme of ``SCHEMES`` -> (report name, bound on k, hook side): a per-node
# scheme's side is its hook factor (num, den) of a hook-length h and k, a
# bucket scheme's the cap of its census's buckets (None: no cap)
_HOOK_SIDES = {
    "k-labelled": ("k-labelled(k={})", None, lambda h, k: (1, falling_factorial(k * h, k))),
    "k-tuple": ("k-tuple(k={})", MAX_KTUPLE_EXPONENT, lambda h, k: (1, h**k)),
    "free-multilabelled": ("bucket-free", None, None),
    "uni-bi": ("bucket-uni-bi", None, 2),
}


def hook_sums(scheme: str, weights: DegreeWeights, sizes, k=None) -> List[HookIdentityReport]:
    """Per size n in sizes: the scheme's sum of prod phi_odeg / f over the
    size-n plane trees (f = (kh)_k or h^k per node, k None read as 1), or
    over the trees and bucket functions with n labels (f = bucket hook-length
    falling bucket size), against T_n / s_n from one solve to max(sizes)."""
    if scheme not in _HOOK_SIDES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {sorted(_HOOK_SIDES)}")
    name, k_bound, side = _HOOK_SIDES[scheme]
    scale = SCHEMES[scheme][1]
    if callable(side):
        sizes, top = _sizes(sizes, "hook-sum tree size n", MAX_HOOK_TREE_SIZE)
        k = _check_count(_scheme_k(scheme, k), "k")
        if k_bound is not None:
            check_capacity(k, k_bound, "k-tuple exponent k")
        row = tuple(side(h, k) for h in range(1, top + 1))
        w, powers = _integer_phi(weights, top)
        sums = list(_tree_sum(w, powers, sizes, row))  # the census field limit before the solve
    else:
        sizes, top = _sizes(sizes, "hook-sum label count m", MAX_HOOK_BUCKET_TOTAL)
        _scheme_k(scheme, k)  # a refused k before any census
        _bucket_census(top, side)  # the largest first: its field limit before the solve
        w, powers = _integer_phi(weights, top)
        censuses = zip(sizes, map(_bucket_census, sizes, repeat(side)))
        sums = [(_fold(w, powers, c, m, scale(m, k)), seen) for m, (c, seen) in censuses]
    counts = solve_scheme(scheme, weights, top, k)
    return [
        HookIdentityReport(name.format(k), n, lhs, _rhs(counts[n], scale(n, k)), visited)
        for n, (lhs, visited) in zip(sizes, sums)
    ]


def hook_sum_k_labelled(weights: DegreeWeights, k: int, n: int) -> HookIdentityReport:
    """:func:`hook_sums` of ``k-labelled`` at the size n alone."""
    return hook_sums("k-labelled", weights, (n,), k)[0]


def hook_sum_bucket(weights: DegreeWeights, m: int, max_bucket=None) -> HookIdentityReport:
    """:func:`hook_sums` of the free (max_bucket None) or uni-bi (2) scheme at m alone."""
    if max_bucket is not None and _check_int(max_bucket, "max_bucket") != 2:
        raise ValueError("max_bucket must be None (free) or 2 (uni-bi)")
    return hook_sums("free-multilabelled" if max_bucket is None else "uni-bi", weights, (m,))[0]


def hook_sum_k_tuple(weights: DegreeWeights, k: int, n: int) -> HookIdentityReport:
    """:func:`hook_sums` of ``k-tuple`` at the size n alone."""
    return hook_sums("k-tuple", weights, (n,), k)[0]


_GENERIC_FAMILIES = {name: SHAPES[name] for name in ("ordered", "binary", "strict-binary")}


def _horner(coeffs: Sequence[int], x: int) -> int:
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def generic_hook_weight_sums(
    tree_family: str, rho_numerator: Sequence, rho_denominator: Sequence, sizes
) -> List[Fraction]:
    """Per size n in sizes: the sum over the family's weighted size-n trees of
    prod rho(h) over nodes, for a rational hook-weight function rho
    given by numerator/denominator coefficient lists (constant term first).

    Families: "ordered" (all weights 1), "binary" (weights C(2, j)),
    "strict-binary" (out-degrees 0 and 2 only).
    """
    weights = _GENERIC_FAMILIES.get(tree_family)
    if weights is None:
        raise ValueError(
            f"unknown tree family {tree_family!r}; choose from {sorted(_GENERIC_FAMILIES)}"
        )
    sizes, top = _sizes(sizes, "hook-sum tree size n", MAX_HOOK_TREE_SIZE)
    # rho(h) = (N(h) / L_N) / (D(h) / L_D) in ints, reduced to lowest terms
    num, num_scale = _over_lcm([as_fraction(c, "rho_numerator") for c in rho_numerator])
    den, den_scale = _over_lcm([as_fraction(c, "rho_denominator") for c in rho_denominator])
    row = []
    for h in range(1, top + 1):
        below = _horner(den, h) * num_scale
        if below == 0:
            raise ValueError(f"hook-weight denominator vanishes at h = {h}")
        above = _horner(num, h) * den_scale
        g = gcd(above, below) if below > 0 else -gcd(above, below)
        row.append((above // g, below // g))
    w, powers = _integer_phi(weights, top)
    return [lhs for lhs, _ in _tree_sum(w, powers, sizes, tuple(row))]


def generic_hook_weight_sum(tree_family: str, rho_numerator, rho_denominator, n: int) -> Fraction:
    """:func:`generic_hook_weight_sums` at the size n alone."""
    return generic_hook_weight_sums(tree_family, rho_numerator, rho_denominator, (n,))[0]
