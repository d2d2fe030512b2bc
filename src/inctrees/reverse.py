"""Recover degree weights from a target counting sequence.

Given target values T_1..T_N for a family of trees with two labels per node,
T(z) = sum T_n z^(2n) / (2n)! and the equation T'' = phi(T) reads, at
z^(2m) / (2m)!,

    T_(m+1) = sum_{j=1..m} phi_j P(m, j)   (m >= 1),   T_1 = phi_0,

over the power table P(m, j) = (2m)! [z^(2m)] T^j of the target itself:

    P(m, 1) = T_m,   P(m, j) = sum_{i=1..m-j+1} C(2m, 2i) T_i P(m-i, j-1).

The system is triangular with pivot P(m, m) = (2m)!/2^m T_1^m, which is
non-zero when T_1 is, so phi_m follows from phi_0 .. phi_(m-1) with one
division: N values give phi_0 .. phi_(N-1).  For integer targets the table
holds ints and phi_0 .. phi_(m-1) are kept as integer numerators over one
common denominator, so each phi_m costs one Fraction; rational targets run
the same code on Fractions.  The family is combinatorially admissible when
phi_0 > 0 and every computed phi_j is non-negative; in that case re-solving
the second-order equation with these weights (:func:`round_trip_check`,
through the solvers' own Bell table) reproduces the input sequence.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import comb, factorial, lcm
from operator import itemgetter, mul
from typing import List, Optional, Tuple

from .series import _parse_fraction, _parse_fractions, as_fraction
from .solvers import solve_k_labelled
from .weights import DegreeWeights


@dataclass(frozen=True)
class ReverseReport:
    """Computed degree weights for a target sequence, with admissibility."""

    source: str
    target: Tuple[Fraction, ...]
    phi: Tuple[Fraction, ...]  # phi_0 .. phi_{guaranteed_order}
    guaranteed_order: int
    admissible: bool
    first_violation: Optional[int]

    def weights(self) -> DegreeWeights:
        """Polynomial weights from the computed prefix (admissible only)."""
        if not self.admissible:
            raise ValueError("weights are only defined for admissible reports")
        return DegreeWeights.polynomial(self.phi, name=f"reversed:{self.source}")


def reverse_engineer(
    target, source: str = "values"
) -> ReverseReport:
    """Compute phi_0 .. phi_{N-1} from target values T_1 .. T_N."""
    values = tuple(as_fraction(v) for v in target)
    n_terms = len(values)
    if n_terms < 2:
        raise ValueError("need at least two target values")
    if values[0] == 0:
        raise ValueError(
            "T_1 = 0: the target has no invertible square-root substitution"
        )
    phi = tuple(_solve_phi([0] + [v.numerator if v.denominator == 1 else v for v in values]))
    first_violation = None
    for j, value in enumerate(phi):
        if value.numerator < 0 or (j == 0 and not value.numerator):
            first_violation = j
            break
    return ReverseReport(
        source=source,
        target=values,
        phi=phi,
        guaranteed_order=n_terms - 1,
        admissible=first_violation is None,
        first_violation=first_violation,
    )


def _solve_phi(t: list) -> List[Fraction]:
    """phi_0 .. phi_(N-1) from t = [0, T_1, .., T_N] (T_1 != 0), one row of
    the power table P per phi_m, solved against the pivot P(m, m).  The
    known phi_j are kept as integers nums[j] over the common denominator
    den, so the row sum is exact without Fraction arithmetic when t is
    integral."""
    phi = [Fraction(t[1])]
    den, nums = phi[0].denominator, [phi[0].numerator]
    columns = [t]  # columns[j-1] = [P(0, j), P(1, j), ...]
    for m in range(1, len(t) - 1):
        row = list(map(mul, map(comb, repeat(2 * m), range(0, 2 * m + 1, 2)), t[: m + 1]))
        if m > 1:
            columns.append([0] * m)  # P(m', m) = 0 for m' < m
        for j in range(2, m + 1):
            prev = columns[j - 2]
            # P(m-i, j-1) = 0 for i > m-j+1
            columns[j - 1].append(sum(map(mul, row[1 : m - j + 2], prev[m - 1 : j - 2 : -1])))
        total = sum(map(mul, nums[1:], map(itemgetter(m), columns[: m - 1])))
        value = Fraction(den * t[m + 1] - total, den * columns[m - 1][m])
        common = lcm(den, value.denominator)
        if common != den:
            nums = [x * (common // den) for x in nums]
            den = common
        nums.append(value.numerator * (den // value.denominator))
        phi.append(value)
    return phi


def round_trip_check(report: ReverseReport) -> bool:
    """Re-solve the two-label equation with the recovered weights and compare
    against the report's target on every shared index."""
    solved = solve_k_labelled(report.weights(), 2, len(report.target))
    return tuple(solved) == report.target


# -- the parametric two-case family ------------------------------------------


def generalized_binomial(alpha: Fraction, j: int) -> Fraction:
    """C(alpha, j) for rational alpha."""
    out = Fraction(1)
    for i in range(j):
        out *= alpha - i
    return out / factorial(j)


@dataclass(frozen=True)
class ParametricFamilyReport:
    """The family T(z) = C (1 - (1 - A z^2)^B): closed forms and the reverse
    pipeline, compared exactly."""

    a: Fraction
    b: Fraction
    c: Fraction
    case: str  # "negative-exponent" | "fractional-exponent"
    target: Tuple[Fraction, ...]
    phi_closed: Tuple[Fraction, ...]
    reverse: ReverseReport
    match: bool


def parametric_target(a: Fraction, b: Fraction, c: Fraction, terms: int) -> Tuple[Fraction, ...]:
    """T_n = (2n)! (-C) (-A)^n C(B, n)."""
    return tuple(
        factorial(2 * n) * (-c) * (-a) ** n * generalized_binomial(b, n)
        for n in range(1, terms + 1)
    )


def parametric_phi(a: Fraction, b: Fraction, c: Fraction, count: int) -> Tuple[Fraction, ...]:
    """Taylor coefficients of
    4ABC(1-B)(1 - T/C)^(1-2/B) + 2ABC(2B-1)(1 - T/C)^(1-1/B)."""
    alpha1 = 1 - 2 / b
    alpha2 = 1 - 1 / b
    out = []
    for j in range(count):
        bracket = 2 * (1 - b) * generalized_binomial(alpha1, j) - (
            1 - 2 * b
        ) * generalized_binomial(alpha2, j)
        out.append(2 * a * b * c * bracket * Fraction(-1, 1) ** j / c**j)
    return tuple(out)


def family_from_parameters(a, b, c, terms: int) -> ParametricFamilyReport:
    """Validate the parameter case, build the closed-form sequence and
    weights, and cross-check them against :func:`reverse_engineer`."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if terms < 2:
        raise ValueError("need terms >= 2")
    if a > 0 and b < 0 and c < 0:
        inv = -1 / b
        if inv.denominator != 1:
            raise ValueError(
                f"negative-exponent case needs -1/B integral, got -1/B = {inv}"
            )
        case = "negative-exponent"
    elif a > 0 and 0 < b < 1 and c > 0:
        case = "fractional-exponent"
    else:
        raise ValueError(
            "parameters fit neither case: need A > 0 with either "
            "(B < 0, C < 0, -1/B integral) or (0 < B < 1, C > 0); "
            f"got A={a}, B={b}, C={c}"
        )
    target = parametric_target(a, b, c, terms)
    phi_closed = parametric_phi(a, b, c, terms)
    report = reverse_engineer(target, source=f"parametric(A={a},B={b},C={c})")
    shared = min(len(phi_closed), len(report.phi))
    match = phi_closed[:shared] == report.phi[:shared]
    return ParametricFamilyReport(
        a=a,
        b=b,
        c=c,
        case=case,
        target=target,
        phi_closed=phi_closed,
        reverse=report,
        match=match,
    )


# -- input helpers (command line) ---------------------------------------------


def parse_values(text: str) -> Tuple[Fraction, ...]:
    """Comma-separated exact values, e.g. "1,2,22,584".  An empty entry, a
    trailing comma included, is a ValueError that names the text and the
    entry's position."""
    if not text.strip():
        raise ValueError("no values given")
    return tuple(_parse_fractions(text, "values"))


def values_from_file(path: str) -> Tuple[Fraction, ...]:
    """One exact value per line of UTF-8 text, which may open with a
    byte-order mark; blank lines and #-comments are skipped.  A bad value or
    a line that is not UTF-8 is a ValueError that names the file and the
    line."""
    out = []
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()
    for number, raw in enumerate(lines, start=1):
        try:  # a UnicodeDecodeError is a ValueError
            line = raw.decode("utf-8-sig" if number == 1 else "utf-8").strip()
            if line and not line.startswith("#"):
                out.append(_parse_fraction(line))
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from None
    if not out:
        raise ValueError(f"no values found in {path}")
    return tuple(out)
