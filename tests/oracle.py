"""Slow reference routes for the coefficient engine and the series reversion.

These are the fixed-point solvers, the composition recurrence for k-tuple
trees and the compose-per-order reversion that the package used before its
online power-table engine.  They stay here, outside the package, as a second
independent route: the tests compare the engine against them exactly.  They
are polynomial of high degree (k-tuple: exponential), so keep N small.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterator, Optional, Tuple

from inctrees.series import Series
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


# -- fixed-point solvers: substitute the prefix, integrate, repeat ----------


def k_labelled_series(weights: DegreeWeights, k: int, order: int) -> Series:
    """EGF of the k-labelled family, truncated at the given order in z."""
    phi = weights.as_series(order)
    t = Series.zero(order)
    for _ in range(order // k + 2):
        rhs = phi.compose(t)
        for _ in range(k):
            rhs = rhs.integrate()
        t = rhs.truncate(order)
    return t


def free_multilabelled_series(weights: DegreeWeights, order: int) -> Series:
    phi = weights.as_series(order)
    t = Series.zero(order)
    for _ in range(order + 1):
        t = (phi.compose(t) + t).integrate().truncate(order)
    return t


def unilabelled_bilabelled_series(weights: DegreeWeights, order: int) -> Series:
    phi = weights.as_series(order)
    phi_prime = weights.derivative_series(order)
    linear = Series.identity(order).scale(weights.coefficient(0))
    t = linear
    for _ in range(order + 1):
        rhs = phi.compose(t) + t.differentiate() * phi_prime.compose(t)
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
        err = series.truncate(m).compose(Series(g[: m + 1])).coefficient(m)
        g[m] = -err / a1
    return Series(g)
