"""Counting sequences of multilabelled increasing tree families.

Each labelling scheme turns into a functional/differential equation for an
exponential generating function:

* k-labelled:  T has coefficients at z^(kn)/(kn)! and satisfies
  d^k/dz^k T = phi(T) with vanishing initial conditions,
* free multilabelled:  T' = phi(T) + T,  T(0) = 0,
* one-or-two labels per node ("uni-bi"):  T'' = phi(T) + T' phi'(T),
  T(0) = 0, T'(0) = phi_0,
* k-tuple labelled:  T_n = ((n-1)!)^k [x^(n-1)] phi(A) with
  A = sum T_s x^s / (s!)^k, the root decomposition with the label
  multinomial raised to the k-th power.

One online engine solves all four (Bergeron-Flajolet-Salvy, "Varieties of
increasing trees", CAAP '92).  Each equation fixes the next coefficient a_n
of a series A = sum a_n w^n from the coefficients u_0 .. u_{n-1} of
U = phi(A), and those come from a table of the powers A^j that grows by one
column per new a_n (Knuth, TAOCP Vol. 2, 4.7): O(N^3) exact operations for
N terms, O(N^2 d) for weights of degree d.

``SCHEMES`` is the one place that states a scheme: its engine step and the
scale that turns a_n into T_n.  The named ``solve_*`` functions and
:func:`solve_scheme` all run it through the same engine.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import List, Optional, Tuple

from .series import Series, _compose_column, _trim
from .trees import falling_factorial
from .weights import DegreeWeights


@dataclass(frozen=True)
class CountingSequence:
    """Exact values T_1, T_2, ... of one family."""

    values: Tuple[Fraction, ...]

    def __getitem__(self, n: int) -> Fraction:
        if not 1 <= n <= len(self.values):
            raise IndexError(f"T_{n} not computed (have 1..{len(self.values)})")
        return self.values[n - 1]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def as_integers(self) -> Tuple[int, ...]:
        """The values as ints; raises if any entry is not an integer."""
        out = []
        for i, v in enumerate(self.values, start=1):
            if v.denominator != 1:
                raise ValueError(f"T_{i} = {v} is not an integer")
            out.append(int(v))
        return tuple(out)


# -- the scheme table and the online engine --------------------------------

# scheme -> (step, scale): step(n, k, a, u) gives a_n from a_0 .. a_{n-1} and
# the coefficients u_0 .. u_{n-1} of u = phi(A); T_n = scale(n, k) * a_n.
SCHEMES = {
    # w = z^k; [z^(kn-k)] of T^(k) = phi(T) gives a_n (kn)_k = u_{n-1}
    "k-labelled": (lambda n, k, a, u: u[n - 1] / falling_factorial(k * n, k),
                   lambda n, k: factorial(k * n)),
    "free-multilabelled": (lambda n, k, a, u: (u[n - 1] + a[n - 1]) / n,
                           lambda n, k: factorial(n)),
    # T' phi'(T) = (phi(T))', so T' = phi(T) + integral of phi(T)
    "uni-bi": (lambda n, k, a, u: (u[n - 1] + (u[n - 2] / (n - 1) if n > 1 else 0)) / n,
               lambda n, k: factorial(n)),
    # a_n = T_n / (n!)^k
    "k-tuple": (lambda n, k, a, u: u[n - 1] / n**k, lambda n, k: factorial(n) ** k),
}


def _online(scheme: str, weights: DegreeWeights, terms: int, k: int) -> List[Fraction]:
    """a_0 = 0, a_1 .. a_terms of the scheme's series A.  Reads phi_0 ..
    phi_{terms-1} once."""
    step = SCHEMES[scheme][0]
    phi = _trim([weights.coefficient(j) for j in range(terms)])
    a = [Fraction(0)]
    u: List[Fraction] = []
    rows: list = []
    for n in range(1, terms + 1):
        u.append(_compose_column(phi, a, rows, n - 1))
        a.append(step(n, k, a, u))
    return a


def _solve(scheme: str, weights: DegreeWeights, terms: int, k: int) -> CountingSequence:
    if k < 1:
        raise ValueError("k must be positive")
    if terms < 1:
        raise ValueError("terms must be positive")
    a = _online(scheme, weights, terms, k)
    scale = SCHEMES[scheme][1]
    return CountingSequence(tuple(scale(n, k) * a[n] for n in range(1, terms + 1)))


# -- series solutions ---------------------------------------------------


def k_labelled_series(weights: DegreeWeights, k: int, order: int) -> Series:
    """EGF of the k-labelled family, truncated at the given order in z."""
    if k < 1:
        raise ValueError("k must be positive")
    coeffs = [Fraction(0)] * (order + 1)
    for n, value in enumerate(_online("k-labelled", weights, order // k, k)):
        coeffs[k * n] = value
    return Series(coeffs)


def free_multilabelled_series(weights: DegreeWeights, order: int) -> Series:
    return Series(_online("free-multilabelled", weights, order, 1))


def unilabelled_bilabelled_series(weights: DegreeWeights, order: int) -> Series:
    return Series(_online("uni-bi", weights, order, 1))


def solve_scheme(
    scheme: str, weights: DegreeWeights, terms: int, k: Optional[int] = None
) -> CountingSequence:
    """T_1 .. T_terms of the family with these weights under a scheme of
    ``SCHEMES``; k (None: 1) is the labels per node or the tuple length."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {sorted(SCHEMES)}")
    return _solve(scheme, weights, terms, 1 if k is None else k)


def solve_k_labelled(weights: DegreeWeights, k: int, terms: int) -> CountingSequence:
    """T_n for 1 <= n <= terms, where T_n counts (total weight of) the
    family's increasing k-labelled trees with kn labels."""
    return _solve("k-labelled", weights, terms, k)


def solve_free_multilabelled(weights: DegreeWeights, terms: int) -> CountingSequence:
    """T_m for 1 <= m <= terms: free multilabelled increasing trees with m
    labels."""
    return _solve("free-multilabelled", weights, terms, 1)


def solve_unilabelled_bilabelled(weights: DegreeWeights, terms: int) -> CountingSequence:
    """T_m for 1 <= m <= terms: increasing trees whose nodes hold one or two
    labels, m labels in total."""
    return _solve("uni-bi", weights, terms, 1)


def solve_k_tuple(weights: DegreeWeights, k: int, terms: int) -> CountingSequence:
    """T_n for 1 <= n <= terms: increasing k-tuple labelled trees of size n.

    T_1 = phi_0 (the weight of the single-node tree); every size-n value
    follows from the root decomposition, with the label multinomial raised
    to the k-th power.
    """
    return _solve("k-tuple", weights, terms, k)


# -- first integral of the second-order equation -------------------------


@dataclass(frozen=True)
class InvariantReport:
    """Coefficientwise comparison of (T')^2 against 2 Phi(T)."""

    checked_order: int
    mismatches: Tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def first_order_invariant_check(weights: DegreeWeights, t: Series) -> InvariantReport:
    """Verify (T')^2 = 2 Phi(T) coefficient by coefficient.

    ``t`` should be a solution series of the two-labels-per-node family for
    these weights; both sides are recomputed here from scratch.
    """
    lhs = t.differentiate()
    lhs = lhs * lhs
    if t.coefficient(0) != 0:
        raise ValueError("the solution series needs a zero constant term")
    # 2 Phi(T) = sum_j 2 Phi_j T^j, by plain products of t, apart from the
    # power table that produced t
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
