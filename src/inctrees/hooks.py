"""Hook-length identities, checked exactly by exhaustive tree enumeration.

Each identity equates a sum over trees of a product of per-node factors
(degree weight divided by some function of the hook-length) with a counting
sequence value divided by a factorial.  The left-hand side is computed here
by brute-force enumeration; the right-hand side comes from the coefficient
solvers — two fully independent computation paths, compared exactly.

Each kind has one core over sizes 1..N (``hook_sums_*``,
``generic_hook_weight_sums``): it checks N's capacity, then solves to N once
and builds the phi prefix and the per-hook factor table once; a function of
one size calls it with that size alone.  A per-node sum reads the size's
census of tree counts per (hook-length multiplicities, sorted out-degrees),
and a bucket sum the label count's census of integer labelling counts per
sorted out-degrees.  Each is decoded from the packed codes that ``trees``
grafts, one per tree (and bucket function), and cached per process.

A per-node sum splits into a hook side and a degree side.  The hook factor
(1/(kh)_k, h^-k or rho(h)) depends on the scheme and k, never on phi, so
:func:`_hook_vector` folds the census over one row of factors into one int
per out-degree multiset, over one common denominator, and is cached per
process per (size, factor row), at most ``HOOK_VECTOR_CACHE`` rows.  phi
then enters as one dot product per size (:func:`_fold`), which also sums
the bucket censuses: phi is scaled by the lcm of its denominators and one
``Fraction`` is built per sum.  A second phi at the same size and factor
row costs only its degree products and the solver.  Every tree's term is
still summed, and ``trees_visited`` is the number of trees behind a sum.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import factorial, lcm, prod
from operator import getitem
from typing import Iterator, List, Optional, Sequence, Tuple

from .families import MAX_KTUPLE_EXPONENT
from .solvers import (
    solve_free_multilabelled,
    solve_k_labelled,
    solve_k_tuple,
    solve_unilabelled_bilabelled,
)
from .trees import (
    _bucket_codes,
    _code_table,
    _tree_codes,
    _unpack,
    catalan,
    check_capacity,
    falling_factorial,
)
from .weights import SHAPES, DegreeWeights

MAX_HOOK_TREE_SIZE = 12   # Catalan(11) = 58786 trees per sum
MAX_HOOK_BUCKET_TOTAL = 8


@cache
def _spread(multiplicities) -> Tuple[int, ...]:
    """The sorted out-degrees with these multiplicities of 0, 1, 2, ..."""
    return tuple(d for d, e in enumerate(multiplicities) for _ in range(e))


@cache
def _census(n: int):
    """The size-n plane trees as (hook multiplicities, ((sorted out-degrees,
    tree count), ...)) groups, where the multiplicities count the nodes of
    hook-length 1..n; the number of trees; and per hook-length the most nodes
    of that hook-length in one tree."""
    codes, groups = _tree_codes(n), defaultdict(list)
    for code, count in codes.items():
        degrees, hooks = _unpack(code, n)
        groups[hooks].append((_spread(degrees), count))
    census = tuple((tuple(hooks), tuple(degree_counts)) for hooks, degree_counts in groups.items())
    return census, sum(codes.values()), tuple(map(max, zip(*groups)))


@cache
def _bucket_census(m: int, max_bucket: Optional[int]):
    """The plane trees with m labels in buckets of at most max_bucket (None:
    unbounded) as (sorted out-degrees, summed integer labelling counts)
    pairs, and the number of trees behind them, of ceil(m/max_bucket)..m nodes."""
    counts = _bucket_codes(m, max_bucket).items()
    census = tuple((_spread(_unpack(code, m)[0]), count) for code, count in counts)
    return census, sum(map(catalan, range(-(-m // (max_bucket or m)) - 1, m)))


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


def _fold(phi: Sequence[Fraction], pairs, size: int, denominator: int) -> Fraction:
    """Sum over the (sorted out-degrees, int c) pairs of c * prod phi_odeg,
    over denominator.  In ints: phi is scaled by the lcm L of its
    denominators and a tree of s nodes by L^(size - s), so every term has
    the denominator L^size; the one Fraction is built at the end."""
    scale = lcm(*(p.denominator for p in phi))
    w = [p.numerator * (scale // p.denominator) for p in phi]
    lift = [scale ** (size - s) for s in range(size + 1)]
    total = sum(
        c * (prod(map(w.__getitem__, degrees)) * lift[len(degrees)]) for degrees, c in pairs
    )
    return Fraction(total, scale**size * denominator)


def _tree_sum(weights: DegreeWeights, sizes, factor) -> Iterator[Tuple[Fraction, int]]:
    """Per size n in sizes: the sum over the size-n plane trees of prod
    phi_odeg * factor[hook] over the nodes, and the trees visited; ``factor``
    maps hook-lengths 1..max(sizes) to Fractions.  The hook side is
    :func:`_hook_vector`'s for the size's row of factors, phi one fold."""
    # The size-n star has out-degree n-1, so every phi_0..phi_{n-1} is used.
    phi = [weights.coefficient(d) for d in range(max(sizes))]
    row = tuple((factor[h].numerator, factor[h].denominator) for h in range(1, max(sizes) + 1))
    # sizes below the largest are kept as they are built, so that their own
    # censuses read them and each size is grafted once in the run
    _code_table(max(sizes) - 1, max(sizes))
    for n in sizes:
        pairs, common, visited = _hook_vector(n, row[:n])
        yield _fold(phi[:n], pairs, n, common), visited


@dataclass(frozen=True)
class HookIdentityReport:
    """Result of checking one hook-length identity at one size."""

    scheme: str
    parameter: int
    lhs: Fraction
    rhs: Fraction
    trees_visited: int

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs

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


def hook_sums_k_labelled(weights: DegreeWeights, k: int, sizes) -> List[HookIdentityReport]:
    """Per size n in sizes: the sum over size-n plane trees of prod phi_odeg /
    (kh)(kh-1)...(kh-k+1), against T_n / (kn)! from one solve to max(sizes)."""
    top = max(sizes)
    check_capacity(top, MAX_HOOK_TREE_SIZE, "hook-sum tree size n")
    factor = {h: Fraction(1, falling_factorial(k * h, k)) for h in range(1, top + 1)}
    counts = solve_k_labelled(weights, k, top)
    return [
        HookIdentityReport(f"k-labelled(k={k})", n, lhs, counts[n] / factorial(k * n), visited)
        for n, (lhs, visited) in zip(sizes, _tree_sum(weights, sizes, factor))
    ]


def hook_sums_bucket(weights: DegreeWeights, sizes, max_bucket=None) -> List[HookIdentityReport]:
    """Per label count m in sizes: the sum over trees and bucket-size functions
    with m labels of prod phi_odeg / (bucket hook-length falling bucket size),
    against the free (max_bucket None) or uni-bi (2) count from one solve."""
    top = max(sizes)
    check_capacity(top, MAX_HOOK_BUCKET_TOTAL, "hook-sum label count m")
    if max_bucket not in (None, 2):
        raise ValueError("max_bucket must be None (free) or 2 (uni-bi)")
    free = max_bucket is None
    scheme = "bucket-free" if free else "bucket-uni-bi"
    counts = (solve_free_multilabelled if free else solve_unilabelled_bilabelled)(weights, top)
    phi = [weights.coefficient(d) for d in range(top)]
    reports = []
    for m in sizes:
        labellings, visited = _bucket_census(m, max_bucket)
        lhs = _fold(phi[:m], labellings, m, factorial(m))
        reports.append(HookIdentityReport(scheme, m, lhs, counts[m] / factorial(m), visited))
    return reports


def hook_sums_k_tuple(weights: DegreeWeights, k: int, sizes) -> List[HookIdentityReport]:
    """Per size n in sizes: the sum over size-n plane trees of prod phi_odeg /
    h^k, against T_n / (n!)^k from one solve to max(sizes)."""
    top = max(sizes)
    check_capacity(top, MAX_HOOK_TREE_SIZE, "hook-sum tree size n")
    check_capacity(k, MAX_KTUPLE_EXPONENT, "k-tuple exponent k")
    factor = {h: Fraction(h) ** -k for h in range(1, top + 1)}
    counts = solve_k_tuple(weights, k, top)
    return [
        HookIdentityReport(f"k-tuple(k={k})", n, lhs, counts[n] / factorial(n) ** k, visited)
        for n, (lhs, visited) in zip(sizes, _tree_sum(weights, sizes, factor))
    ]


def hook_sum_k_labelled(weights: DegreeWeights, k: int, n: int) -> HookIdentityReport:
    """:func:`hook_sums_k_labelled` at the size n alone."""
    return hook_sums_k_labelled(weights, k, (n,))[0]


def hook_sum_bucket(weights: DegreeWeights, m: int, max_bucket=None) -> HookIdentityReport:
    """:func:`hook_sums_bucket` at the label count m alone."""
    return hook_sums_bucket(weights, (m,), max_bucket)[0]


def hook_sum_k_tuple(weights: DegreeWeights, k: int, n: int) -> HookIdentityReport:
    """:func:`hook_sums_k_tuple` at the size n alone."""
    return hook_sums_k_tuple(weights, k, (n,))[0]


_GENERIC_FAMILIES = {name: SHAPES[name] for name in ("ordered", "binary", "strict-binary")}


def _eval_poly(coeffs: Sequence, x: int) -> Fraction:
    total = Fraction(0)
    for c in reversed([Fraction(c) for c in coeffs]):
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
    top = max(sizes)
    check_capacity(top, MAX_HOOK_TREE_SIZE, "hook-sum tree size n")
    rho = {}
    for h in range(1, top + 1):
        denominator = _eval_poly(rho_denominator, h)
        if denominator == 0:
            raise ValueError(f"hook-weight denominator vanishes at h = {h}")
        rho[h] = _eval_poly(rho_numerator, h) / denominator
    return [lhs for lhs, _ in _tree_sum(weights, sizes, rho)]


def generic_hook_weight_sum(tree_family: str, rho_numerator, rho_denominator, n: int) -> Fraction:
    """:func:`generic_hook_weight_sums` at the size n alone."""
    return generic_hook_weight_sums(tree_family, rho_numerator, rho_denominator, (n,))[0]
