"""Recover degree weights from a target counting sequence.

Given target values T_1..T_N for a family of trees with two labels per node,
form f(w) = sum T_n w^n / (2n)! (so the generating function is T(z) = f(z^2))
and revert it to g = f^(-1).  The equation T'' = phi(T) reads
2 f'(w) + 4 w f''(w) = phi(f(w)) in w = z^2, and the left side is

    h(w) = sum_{n>=0} T_{n+1} w^n / (2n)!,

so phi = h(g) is one composition, a series in T through phi_{N-1}.  The
family is combinatorially admissible when phi_0 > 0 and every computed phi_j
is non-negative; in that case re-solving the second-order equation with these
weights reproduces the input sequence.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional, Tuple

from .series import _parse_fraction, _revert_compose, _trim, as_fraction
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
    f = [Fraction(0)] + [values[n - 1] / factorial(2 * n) for n in range(1, n_terms + 1)]
    h = [values[n] / factorial(2 * n) for n in range(n_terms)]
    phi = tuple(_revert_compose(_trim(f), _trim(h), n_terms - 1))
    first_violation = None
    for j, value in enumerate(phi):
        if value < 0 or (j == 0 and value == 0):
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
    weights, and cross-check them against the generic reversion pipeline."""
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
    """Comma-separated exact values, e.g. "1,2,22,584"."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("no values given")
    return tuple(_parse_fraction(p) for p in parts)


def values_from_file(path: str) -> Tuple[Fraction, ...]:
    """One exact value per line; blank lines and #-comments are skipped."""
    out = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(_parse_fraction(line))
    if not out:
        raise ValueError(f"no values found in {path}")
    return tuple(out)
