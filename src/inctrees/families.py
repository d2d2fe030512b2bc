"""Named tree families: closed forms, special recurrences, registry.

Every family here has (at least) two independent computation paths — the
generic coefficient solver on one side and a closed form or a family-specific
recurrence on the other — and ``inctree verify closed-forms`` compares them
exactly.  The OEIS identifiers are documentation only; nothing is fetched.

Registry identifiers look like ``bilabelled/unordered`` or
``free/strict-binary``; k-tuple families are parametrized as
``ktuple/<variant>:k=K`` with K at most ``MAX_KTUPLE_EXPONENT``, written in
ASCII digits without a leading zero, or ``ktuple/<variant>`` for K = 1.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import repeat
from math import comb, factorial, inf, isfinite
from operator import mul, truediv
from typing import Callable, List, Optional, Tuple

from .series import MAX_LITERAL_DIGITS, _check_count, _check_int, as_fraction, check_capacity
from .solvers import CountingSequence, solve_scheme
from .weights import SHAPES, DegreeWeights

# tuple length k of a k-tuple family (ktuple/<variant>:k=K, hook ktuple -k).
# T_n has about k log2(n!) bits; at the default sizes the slowest accepted
# request, ``hook ktuple --weights exp -k 30000`` (n <= 5), takes about a
# second on a 2-vCPU Xeon, and ``seq ktuple/unordered:k=30000 5`` 0.07 s
MAX_KTUPLE_EXPONENT = 30000


def _integer(value: Fraction) -> int:
    """value as an int; ArithmeticError if it is not integral."""
    if value.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {value}")
    return int(value)


# -- inverse error function / ordered family ------------------------------


def inverse_erf_coefficients(count: int) -> Tuple[Fraction, ...]:
    """c_0 .. c_{count-1} of the inverse error function's odd Taylor
    expansion: c_0 = 1, c_k = sum c_m c_{k-1-m} / ((m+1)(2m+1))."""
    return tuple(_inverse_erf_coefficient(k) for k in range(_check_count(count, "count")))


@cache
def _inverse_erf_coefficient(k: int) -> Fraction:
    """c_k, once per process: c_k does not depend on the count asked for.
    Ask for c_0 .. c_{k-1} first, as inverse_erf_coefficients does."""
    if k == 0:
        return Fraction(1)
    c = _inverse_erf_coefficient
    return sum(c(m) * c(k - 1 - m) / ((m + 1) * (2 * m + 1)) for m in range(k))


def ordered_bilabelled_closed_form(n: int) -> int:
    """T_n = (2n-2)!/2^(n-1) * c_{n-1} with c from the inverse error
    function expansion."""
    _check_count(n, "n")
    value = Fraction(factorial(2 * n - 2), 2 ** (n - 1)) * inverse_erf_coefficients(n)[n - 1]
    return _integer(value)


def ordered_bilabelled_recurrence(terms: int) -> Tuple[int, ...]:
    """T_n = sum_{k=1}^{n-1} C(2n-2, 2k) T_k T_{n-k}, T_1 = 1."""
    ts = [1]
    for n in range(2, _check_count(terms, "terms") + 1):
        ts.append(
            sum(comb(2 * n - 2, 2 * k) * ts[k - 1] * ts[n - k - 1] for k in range(1, n))
        )
    return tuple(ts[:terms])


# -- double factorials / 3-bundled family ---------------------------------


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! = prod_{i=1..n} (2i-1); empty product 1 for n <= 0."""
    out = 1
    for i in range(1, _check_int(n, "n") + 1):
        out *= 2 * i - 1
    return out


def three_bundled_closed_form(n: int) -> int:
    """T_n = (2n-3)!! (2n-1)!!."""
    return double_factorial_odd(_check_count(n, "n") - 1) * double_factorial_odd(n)


# -- Bell polynomials / 2-bundled family -----------------------------------


def partial_bell(k: int, m: int, xs) -> Fraction:
    """Partial exponential Bell polynomial B_{k,m}(x_1, ..., x_{k-m+1})."""
    if _check_count(m, "m") > _check_count(k, "k"):
        raise ValueError("partial Bell polynomial needs 1 <= m <= k")
    xs = [as_fraction(x, "xs") for x in xs]
    if len(xs) < k - m + 1:
        raise ValueError(f"need x_1..x_{k - m + 1}, got {len(xs)} values")
    # B_{k,m} never reads the x_i past x_{k-m+1} that the zeros stand in for
    return _bell_table(k, xs[: k - m + 1] + [0] * (m - 1))[k][m]


def _bell_table(k: int, xs) -> list:
    """B[kk][mm] = B_{kk,mm}(x_1, ..., x_{kk-mm+1}) for 0 <= mm <= kk <= k;
    xs = x_1 .. x_k."""
    table: list = []
    for kk in range(k + 1):
        table.append(_bell_row(kk, xs, table))
    return table


def _bell_row(kk: int, xs, table) -> tuple:
    """Row kk of the Bell table from its rows 0 .. kk-1, by
    B_{kk,mm} = sum_i C(kk-1, i-1) x_i B_{kk-i,mm-1}."""
    row = [Fraction(int(kk == 0))] * (kk + 1)
    for mm in range(1, kk + 1):
        row[mm] = sum(
            comb(kk - 1, i - 1) * xs[i - 1] * table[kk - i][mm - 1]
            for i in range(1, kk - mm + 2)
        )
    return tuple(row)


def _arc_chord_coefficients(count: int) -> Tuple[Fraction, ...]:
    """Coefficients theta_1.. of the series theta with
    arcsin(sqrt w) + sqrt(w) sqrt(1-w) = 2 sqrt(w) (1 - theta(w)):
    theta_j = C(2j, j) / (4^j (2j-1)(2j+1))."""
    return tuple(
        Fraction(comb(2 * j, j), 4**j * (2 * j - 1) * (2 * j + 1))
        for j in range(1, count + 1)
    )


@cache
def _two_bundled_bell_row(kk: int) -> tuple:
    """Row kk of the Bell table of x_j = j! theta_j, once per process: the
    x_j do not depend on n, so one table serves every n.  Ask for rows
    0 .. kk-1 first, as two_bundled_closed_form does."""
    thetas = _arc_chord_coefficients(kk)
    xs = [factorial(j) * thetas[j - 1] for j in range(1, kk + 1)]
    return _bell_row(kk, xs, [_two_bundled_bell_row(j) for j in range(kk)])


def two_bundled_closed_form(n: int) -> int:
    """T_n for the 2-bundled family via Lagrange inversion of the implicit
    arcsine equation, expressed with partial Bell polynomials."""
    if _check_count(n, "n") == 1:
        return 1
    k = n - 1
    bell = [_two_bundled_bell_row(kk) for kk in range(n)]
    total = Fraction(0)
    for m in range(1, n):
        total += (
            comb(2 * n - 1 + m, m)
            * Fraction(factorial(m), factorial(k))
            * bell[k][m]
        )
    value = Fraction(factorial(2 * n), n * 2**n) * total
    return _integer(value)


def two_bundled_recurrence(terms: int) -> Tuple[int, ...]:
    """T_n = 2 sum C(2n-2, 2k) T_k T_{n-k}
           - sum_{j+k+l=n-1} C(2n-2; 2j, 2k, 2l) T_j T_k T_{l+1},
    with T_1 = 1 and T_0 = 0."""
    ts = {0: 0, 1: 1}
    for n in range(2, _check_count(terms, "terms") + 1):
        double = sum(
            comb(2 * n - 2, 2 * k) * ts[k] * ts[n - k] for k in range(1, n)
        )
        # terms with j = 0 or k = 0 vanish through T_0 = 0
        triple = 0
        for j in range(1, n - 1):
            for k in range(1, n - j):
                l = n - 1 - j - k
                mult = (
                    factorial(2 * n - 2)
                    // (factorial(2 * j) * factorial(2 * k) * factorial(2 * l))
                )
                triple += mult * ts[j] * ts[k] * ts[l + 1]
        ts[n] = 2 * double - triple
    return tuple(ts[i] for i in range(1, terms + 1))


# -- elliptic families ------------------------------------------------------


def strict_binary_recurrence(terms: int) -> Tuple[int, ...]:
    """T_n = sum_{k=1}^{n-2} C(2n-2, 2k) T_k T_{n-1-k}, T_1 = 1."""
    ts = [1]
    for n in range(2, _check_count(terms, "terms") + 1):
        ts.append(
            sum(
                comb(2 * n - 2, 2 * k) * ts[k - 1] * ts[n - 1 - k - 1]
                for k in range(1, n - 1)
            )
        )
    return tuple(ts[:terms])


def binary_bilabelled_recurrence(terms: int) -> Tuple[int, ...]:
    """T_n = 2 T_{n-1} + sum_{k=1}^{n-2} C(2n-2, 2k) T_k T_{n-1-k}, T_1 = 1."""
    ts = [1]
    for n in range(2, _check_count(terms, "terms") + 1):
        ts.append(
            2 * ts[n - 2]
            + sum(
                comb(2 * n - 2, 2 * k) * ts[k - 1] * ts[n - 1 - k - 1]
                for k in range(1, n - 1)
            )
        )
    return tuple(ts[:terms])


def even_degree_recurrence(terms: int) -> Tuple[int, ...]:
    """T_{n+2} = 1/2 sum_{j+k+l=n-1} C(2n+1; 2j+1, 2k+1, 2l+1)
    T_{j+1} T_{k+1} T_{l+1}, with T_1 = 1 (and T_2 = 0 from the empty sum)."""
    ts = {1: 1}
    for n in range(0, _check_count(terms, "terms") - 1):
        total = 0
        for j in range(n):
            for k in range(n - j):
                l = n - 1 - j - k
                mult = factorial(2 * n + 1) // (
                    factorial(2 * j + 1) * factorial(2 * k + 1) * factorial(2 * l + 1)
                )
                total += mult * ts[j + 1] * ts[k + 1] * ts[l + 1]
        half, rem = divmod(total, 2)
        if rem:
            raise ArithmeticError(f"expected an even sum, got {total}")
        ts[n + 2] = half
    return tuple(ts[i] for i in range(1, terms + 1))


def lemniscate_sine_coefficients(count: int) -> Tuple[int, ...]:
    """S_1..S_count with sl(z) = sum S_n z^n / n! (OEIS A104203), computed
    from the series solution of sl'' = -2 sl^3, sl(0) = 0, sl'(0) = 1."""
    _check_count(count, "count")
    # s_{i+2} = -2 [z^i] s^3 / ((i+1)(i+2)); s^2 and s^3 grow one
    # coefficient per step, each needing only s_0..s_i.
    s = [Fraction(0), Fraction(1)]
    sq = []
    for i in range(count - 1):
        sq.append(sum(s[j] * s[i - j] for j in range(i + 1)))
        cube = sum(sq[j] * s[i - j] for j in range(i + 1))
        s.append(-2 * cube / ((i + 1) * (i + 2)))
    return tuple(_integer(s[i] * factorial(i)) for i in range(1, count + 1))


def weierstrass_invariants(phi0, phi1, phi2) -> Tuple[Fraction, Fraction, Fraction]:
    """Invariants (g2, g3) and the Weierstrass-p value at the shift constant
    for a quadratic degree-weight generating function phi(t) =
    phi0 + phi1 t + phi2 t^2."""
    p0, p1, p2 = map(as_fraction, (phi0, phi1, phi2), ("phi0", "phi1", "phi2"))
    if p0 <= 0 or p2 <= 0 or p1 < 0:
        raise ValueError("need phi0, phi2 > 0 and phi1 >= 0")
    g2 = -p0 * p2 / 3 + p1 * p1 / 12
    g3 = -(p1**3) / 216 + p0 * p1 * p2 / 36
    p_at_shift = p1 / 12
    return g2, g3, p_at_shift


# one hundred decimal digits each; pi is the textbook value and the gamma
# value was computed with the arithmetic-geometric mean:
# agm(1, sqrt 2) to 80 digits, varpi = pi/agm, Gamma(1/4) = sqrt(2 varpi sqrt(2 pi))
PI_DIGITS = (
    "3.1415926535897932384626433832795028841971693993751"
    "0582097494459230781640628620899862803482534211706798"
)
GAMMA_QUARTER_DIGITS = (
    "3.6256099082219083119306851558676720029951676828800"
    "6546743337799956991924353404155029244469933826426656"
)
_PI = float(PI_DIGITS)
_GAMMA_QUARTER = float(GAMMA_QUARTER_DIGITS)


@dataclass(frozen=True)
class LatticeSumResult:
    value: float
    imaginary_residual: float


def _lattice_prefactor(n: int) -> float:
    """(2n+1)! 2^(3n+4) pi^(n+1) / (3^((n-1)/2) Gamma(1/4)^(4n+4)), or a
    ValueError naming n where it leaves the float range (n >= 64)."""
    try:
        prefactor = (
            factorial(2 * n + 1)
            * 2.0 ** (3 * n + 4)
            * _PI ** (n + 1)
            / (3.0 ** ((n - 1) / 2) * _GAMMA_QUARTER ** (4 * n + 4))
        )
    except OverflowError:  # (2n+1)! itself is past the float range
        prefactor = inf
    if not isfinite(prefactor):
        raise ValueError(
            f"lattice sum for n = {n} leaves the float range (domain 1 <= n <= 63)"
        )
    return prefactor


def _power_steps(exponents) -> List[Tuple[int, int, int]]:
    """The products (e, a, b), s^e = s^a s^b, that give s^e for every e of
    ``exponents`` from s, in the order CPython's ``pow(s, e)`` makes them for
    a complex s and an int e <= 100: square up to s^(2^j), then multiply the
    set bits of e in increasing order.  A power that several exponents share,
    a square or a product of their common low bits, is made once."""
    steps, made = [], {1}
    for e in exponents:
        prefix, bit = 0, 1
        while bit <= e:
            if bit not in made:
                steps.append((bit, bit // 2, bit // 2))
                made.add(bit)
            if e & bit:
                if prefix and prefix + bit not in made:
                    steps.append((prefix + bit, prefix, bit))
                    made.add(prefix + bit)
                prefix += bit
            bit *= 2
    return steps


def strict_binary_lattice_sums(ns: Tuple[int, ...], cutoff: int) -> Tuple[LatticeSumResult, ...]:
    """Approximate T_n for each n of ``ns`` (strict-binary two-label family)
    via the lattice sum over (1 + n1 + n2 + i(n1 - n2))^(-(2n+2)),
    |n1|, |n2| <= cutoff.

    One pass serves every n: each of the (2 cutoff + 1)^2 points is inverted
    once and the square s of its inverse is raised to every n + 1 along one
    chain of products (:func:`_power_steps`), one row n1 at a time, so the
    extra memory is O(cutoff).  The chain makes the products ``pow(s, n + 1)``
    makes, so each power, and the sum for one n, does not depend on the
    other n of the call.  Every point is summed, with no use of the
    lattice's symmetry, so ``imaginary_residual`` measures the rounding.
    The time grows as cutoff^2 times the number of products: the four sums
    n = 2, 3, 5, 7 take about 7 ms at cutoff 50 and 0.11 s at cutoff 200 on
    a 2-vCPU Xeon.

    Domain: 1 <= n <= 63 for every cutoff >= 1.  From n = 64 on the float
    prefactor (2n+1)! 2^(3n+4) pi^(n+1) / ... overflows, and the call raises
    a ValueError naming n instead of returning an infinite value.
    """
    ns, cutoff = tuple(_check_count(n, "n") for n in ns), _check_count(cutoff, "cutoff")
    prefactors = [_lattice_prefactor(n) for n in ns]
    exponents = [n + 1 for n in ns]
    steps = _power_steps(exponents)
    totals = [0j] * len(ns)
    for n1 in range(-cutoff, cutoff + 1):
        # the row's points 1 + n1 + n2 + i(n1 - n2), n2 = -cutoff .. cutoff
        row = map(
            complex,
            range(1 + n1 - cutoff, 2 + n1 + cutoff),
            range(n1 + cutoff, n1 - cutoff - 1, -1),
        )
        inverses = list(map(truediv, repeat(complex(1)), row))
        powers = {1: list(map(mul, inverses, inverses))}
        for e, a, b in steps:
            powers[e] = list(map(mul, powers[a], powers[b]))
        for i, e in enumerate(exponents):
            totals[i] += sum(powers[e])
    values = [p * total for p, total in zip(prefactors, totals)]
    return tuple(LatticeSumResult(v.real, abs(v.imag)) for v in values)


def strict_binary_lattice_sum(n: int, cutoff: int) -> LatticeSumResult:
    """The lattice sum of :func:`strict_binary_lattice_sums` for one n."""
    return strict_binary_lattice_sums((n,), cutoff)[0]


# -- free multilabelled closed forms ---------------------------------------

# exact cos(j pi / 6) as (rational, coefficient of sqrt 3); index mod 12
_COS_SIXTHS = {
    0: (Fraction(1), Fraction(0)),
    1: (Fraction(0), Fraction(1, 2)),
    2: (Fraction(1, 2), Fraction(0)),
    3: (Fraction(0), Fraction(0)),
    4: (Fraction(-1, 2), Fraction(0)),
    5: (Fraction(0), Fraction(-1, 2)),
    6: (Fraction(-1), Fraction(0)),
    7: (Fraction(0), Fraction(-1, 2)),
    8: (Fraction(-1, 2), Fraction(0)),
    9: (Fraction(0), Fraction(0)),
    10: (Fraction(1, 2), Fraction(0)),
    11: (Fraction(0), Fraction(1, 2)),
}


def strict_binary_free_multi_explicit(m: int) -> int:
    """Closed form for free multilabelled strict-binary trees with m labels,
    evaluated exactly in the ring of numbers a + b sqrt(3) (a, b rational);
    the sqrt(3) part must cancel and the result must be an integer."""
    rat, irr = Fraction(0), Fraction(0)
    for k in range(1, _check_count(m, "m") + 1):
        e = m - k
        if e % 2 == 0:
            p_rat, p_irr = Fraction(3) ** (e // 2), Fraction(0)
        else:
            p_rat, p_irr = Fraction(0), Fraction(3) ** ((e - 1) // 2)
        c_rat, c_irr = _COS_SIXTHS[(3 * m + 2 - 5 * k) % 12]
        coef_rat = p_rat * c_rat + 3 * p_irr * c_irr
        coef_irr = p_rat * c_irr + p_irr * c_rat
        inner = sum(
            comb(k, l) * (-1) ** (k - l) * l**m for l in range(1, k + 1)
        )
        rat += coef_rat * inner
        irr += coef_irr * inner
    if irr != 0:
        raise ArithmeticError(f"sqrt(3) component failed to cancel: {irr}")
    return _integer(rat)


def binary_free_multi_numeric(m: int, cutoff: int) -> float:
    """Approximate T_m for free multilabelled binary trees via the
    geometrically convergent series sqrt(5) sum q^k (sqrt(5) k)^m with
    q = (7 - 3 sqrt 5)/2, summed over k = 1 .. cutoff.

    Domain: m >= 1, cutoff >= 1 and (sqrt(5) cutoff)^m inside the float range
    (m <= 144 at cutoff 60); outside it a ValueError names m and cutoff.  The
    partial sum is within 1e-9 of T_m only for a cutoff large against m: up
    to m = 57 at cutoff 60 (at m = 100 it gives 3.27e164, T_100 = 3.50e164).
    """
    _check_count(m, "m")
    _check_count(cutoff, "cutoff")
    sqrt5 = 5.0**0.5
    q = (7.0 - 3.0 * sqrt5) / 2.0
    try:
        return sqrt5 * sum(q**k * (sqrt5 * k) ** m for k in range(1, cutoff + 1))
    except OverflowError:  # (sqrt(5) k)^m past the float range
        raise ValueError(
            f"binary free series for m = {m}, cutoff = {cutoff} leaves the float range"
        ) from None


# -- tangent and Blasius families -------------------------------------------


def reduced_tangent_numbers(terms: int) -> Tuple[int, ...]:
    """Coefficients E_n with sum E_n z^(2n-1)/(2n-1)! = sqrt(2) tan(z/sqrt 2),
    from the series solution of h' = 1 + h^2/2, h(0) = 0."""
    # h_1 = 1 and h_{i+1} = [z^i] h^2 / (2 (i+1)) for i >= 1.
    h = [Fraction(0), Fraction(1)]
    for i in range(1, 2 * _check_count(terms, "terms") - 1):
        h.append(sum(h[j] * h[i - j] for j in range(i + 1)) / (2 * (i + 1)))
    return tuple(_integer(h[2 * n - 1] * factorial(2 * n - 1)) for n in range(1, terms + 1))


def blasius_numbers(terms: int) -> Tuple[int, ...]:
    """T_{n+1} = sum_{k=1}^n C(3n-1, 3k-3) T_k T_{n+1-k}, T_1 = 1.

    These are the (shifted) coefficients of the Blasius boundary-layer
    function; the equation F''' = F'' F for F = T' yields the convolution.
    """
    ts = [1]
    for n in range(1, _check_count(terms, "terms")):
        ts.append(
            sum(
                comb(3 * n - 1, 3 * k - 3) * ts[k - 1] * ts[n + 1 - k - 1]
                for k in range(1, n + 1)
            )
        )
    return tuple(ts[:terms])


# -- one-or-two-labels family ------------------------------------------------


def unibi_q_sequence(terms: int) -> Tuple[int, ...]:
    """Q_1..Q_terms with Q_{m+2} = sum_{k=0}^m C(m,k)(Q_k + Q_{k+1}) Q_{m-k+1},
    Q_0 = 0, Q_1 = 1."""
    qs = {0: 0, 1: 1}
    for m in range(0, _check_count(terms, "terms") - 1):
        qs[m + 2] = sum(
            comb(m, k) * (qs[k] + qs[k + 1]) * qs[m - k + 1] for k in range(m + 1)
        )
    return tuple(qs[i] for i in range(1, terms + 1))


def unibi_unordered_closed_form(m: int) -> int:
    """T_m = Q_m + Q_{m-1} for the unordered one-or-two-labels family."""
    qs = unibi_q_sequence(_check_count(m, "m"))
    return qs[m - 1] + (qs[m - 2] if m >= 2 else 0)


def _q_weights() -> DegreeWeights:
    # 2 e^t - t - 1: phi_0 = 1, phi_1 = 1, phi_j = 2/j! beyond
    def coeff(j: int) -> Fraction:
        if j <= 1:
            return Fraction(1)
        return Fraction(2, factorial(j))

    return DegreeWeights.custom(coeff, name="2*exp-t-1")


# -- family registry ----------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """A named family: labelling scheme, weights, reference data, closed forms."""

    identifier: str
    scheme: str  # a key of solvers.SCHEMES
    weights: DegreeWeights
    k: Optional[int] = None
    oeis: Optional[str] = None
    reference_prefix: Tuple[int, ...] = ()
    closed_form: Optional[Callable[[int], int]] = None
    special_recurrence: Optional[Callable[[int], Tuple[int, ...]]] = None
    description: str = ""

    def sequence(self, terms: int) -> CountingSequence:
        return solve_scheme(self.scheme, self.weights, terms, self.k)


def _build_registry() -> dict:
    specs = [
        FamilySpec(
            "bilabelled/unordered",
            "k-labelled",
            SHAPES["unordered"],
            k=2,
            oeis="A002105",
            reference_prefix=(1, 1, 4, 34, 496, 11056),
            special_recurrence=reduced_tangent_numbers,
            description="unordered trees, two labels per node (reduced tangent numbers)",
        ),
        FamilySpec(
            "bilabelled/ordered",
            "k-labelled",
            SHAPES["ordered"],
            k=2,
            oeis="A002067",
            reference_prefix=(1, 1, 7, 127, 4369, 243649),
            closed_form=ordered_bilabelled_closed_form,
            special_recurrence=ordered_bilabelled_recurrence,
            description="ordered trees, two labels per node (inverse error function)",
        ),
        FamilySpec(
            "bilabelled/2-bundled",
            "k-labelled",
            SHAPES["2-bundled"],
            k=2,
            oeis="A120419",
            reference_prefix=(1, 2, 22, 584, 28384, 2190128),
            closed_form=two_bundled_closed_form,
            special_recurrence=two_bundled_recurrence,
            description="2-bundled trees, two labels per node (Bell polynomial form)",
        ),
        FamilySpec(
            "bilabelled/3-bundled",
            "k-labelled",
            SHAPES["3-bundled"],
            k=2,
            oeis="A079484",
            reference_prefix=(1, 3, 45, 1575, 99225),
            closed_form=three_bundled_closed_form,
            description="3-bundled trees, two labels per node (double factorials)",
        ),
        FamilySpec(
            "bilabelled/strict-binary",
            "k-labelled",
            SHAPES["strict-binary"],
            k=2,
            oeis="A144849",
            reference_prefix=(1, 0, 6, 0, 336, 0, 77616, 0, 50916096),
            special_recurrence=strict_binary_recurrence,
            description="strict-binary trees, two labels per node (lattice sum)",
        ),
        FamilySpec(
            "bilabelled/even-degree",
            "k-labelled",
            SHAPES["even-degree"],
            k=2,
            oeis=None,
            reference_prefix=(1, 0, 3, 0, 189, 0, 68607),
            special_recurrence=even_degree_recurrence,
            description="unordered even-degree trees, two labels per node (lemniscate sine)",
        ),
        FamilySpec(
            "bilabelled/binary",
            "k-labelled",
            SHAPES["binary"],
            k=2,
            oeis="A063902",
            reference_prefix=(1, 2, 10, 80, 1000, 17600, 418000),
            special_recurrence=binary_bilabelled_recurrence,
            description="binary trees, two labels per node",
        ),
        FamilySpec(
            "trilabelled/unordered",
            "k-labelled",
            SHAPES["unordered"],
            k=3,
            oeis="A018893",
            reference_prefix=(1, 1, 11, 375, 27897, 3817137),
            special_recurrence=blasius_numbers,
            description="unordered trees, three labels per node (Blasius numbers)",
        ),
        FamilySpec(
            "free/strict-binary",
            "free-multilabelled",
            SHAPES["strict-binary"],
            oeis="A080635",
            reference_prefix=(1, 1, 3, 9, 39, 189, 1107),
            closed_form=strict_binary_free_multi_explicit,
            description="strict-binary trees, free multilabelling",
        ),
        FamilySpec(
            "free/binary",
            "free-multilabelled",
            SHAPES["binary"],
            oeis="A230008",
            reference_prefix=(1, 3, 11, 51, 295, 2055, 16715),
            description="binary trees, free multilabelling",
        ),
        FamilySpec(
            "free/unary-binary",
            "free-multilabelled",
            SHAPES["unary-binary"],
            oeis="A000142",
            reference_prefix=(1, 2, 6, 24, 120, 720, 5040),
            closed_form=factorial,
            description="unary-binary trees, free multilabelling (m!)",
        ),
        FamilySpec(
            "free/ordered-no-unary",
            "free-multilabelled",
            DegreeWeights.ordered_minus_t(),
            oeis="A001147",
            reference_prefix=(1, 1, 3, 15, 105, 945, 10395),
            closed_form=lambda m: double_factorial_odd(m - 1),
            description="ordered trees without unary nodes, free multilabelling ((2m-3)!!)",
        ),
        FamilySpec(
            "free/unordered-no-unary",
            "free-multilabelled",
            DegreeWeights.exp_minus_t(),
            oeis="A000142",
            reference_prefix=(1, 1, 2, 6, 24, 120, 720),
            closed_form=lambda m: factorial(m - 1),
            description="unordered trees without unary nodes, free multilabelling ((m-1)!)",
        ),
        FamilySpec(
            "free/ordered",
            "free-multilabelled",
            SHAPES["ordered"],
            reference_prefix=(1, 2, 6, 30, 228, 2316),
            description="ordered trees, free multilabelling",
        ),
        FamilySpec(
            "unibi/unordered",
            "uni-bi",
            SHAPES["unordered"],
            reference_prefix=(1, 2, 4, 14, 66, 392, 2806),
            closed_form=unibi_unordered_closed_form,
            description="unordered trees, one or two labels per node",
        ),
        FamilySpec(
            "unibi/q",
            "k-labelled",
            _q_weights(),
            k=1,
            reference_prefix=(1, 1, 3, 11, 55, 337, 2469),
            special_recurrence=unibi_q_sequence,
            description="auxiliary singly-labelled family pairing with unibi/unordered",
        ),
    ]
    return {spec.identifier: spec for spec in specs}


REGISTRY = _build_registry()

def get_family(identifier: str) -> FamilySpec:
    """Look up a registered family; ktuple/<variant>:k=K is parsed on the fly."""
    if identifier in REGISTRY:
        return REGISTRY[identifier]
    if identifier.startswith("ktuple/"):
        rest = identifier.split("/", 1)[1]
        if ":" in rest:
            variant, _, kpart = rest.partition(":")
            # ASCII digits, no sign or leading zero, so each k has one spelling
            if not re.fullmatch(f"k=[1-9][0-9]{{0,{MAX_LITERAL_DIGITS - 1}}}", kpart):
                raise ValueError(f"bad k-tuple parameter in {identifier!r}: need k=K, K >= 1")
            k = int(kpart[2:])
            check_capacity(k, MAX_KTUPLE_EXPONENT, "k-tuple exponent k")
        else:
            variant, k = rest, 1
        if variant not in SHAPES:
            raise ValueError(f"unknown k-tuple variant {variant!r}")
        return FamilySpec(
            identifier,
            "k-tuple",
            SHAPES[variant],
            k=k,
            description=f"{variant} trees, {k}-tuple labelling",
        )
    raise ValueError(f"unknown family {identifier!r}")


def family_identifiers() -> Tuple[str, ...]:
    return tuple(sorted(REGISTRY))
