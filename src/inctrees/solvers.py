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
U = phi(A).  How u_m is produced depends on the kind of the weights, and
costs, for N terms, in exact operations:

* ``exp``, ``bundled``, ``cosh``, ``exp-t``, ``ordered-t``: O(N^2).  U
  satisfies a linear first-order equation in A (Stanley, "Differentiably
  finite power series", 1980), so each u_m is one O(m) convolution:
  U' = U A' (exp), (1 - A) U' = d U A' (bundled(d)), the pair
  U' = V A', V' = U A' with V = sinh A (cosh), and the exp or bundled(1)
  relation minus A (exp-t, ordered-t).
* ``poly`` of degree d: O(N^2 d), and ``custom``: O(N^3).  u_m is a column
  of a table of the powers A^j that grows by one column per new a_n (Knuth,
  TAOCP Vol. 2, 4.7).  Wrapping a named phi in ``DegreeWeights.custom``
  runs it on this table, the reference route for the relations.

``SCHEMES`` is the one place that states a scheme: its engine step and the
scale that turns a_n into T_n.  The named ``solve_*`` functions and
:func:`solve_scheme` all run it through the same engine.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator, List, Optional, Tuple

from .series import Series, _compose_column, _trim
from .trees import _check_k, falling_factorial
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
    """a_0 = 0, a_1 .. a_terms of the scheme's series A."""
    step = SCHEMES[scheme][0]
    a = [Fraction(0)]
    u: List[Fraction] = []
    columns = _phi_columns(weights, terms, a)
    for n in range(1, terms + 1):
        u.append(next(columns))
        a.append(step(n, k, a, u))
    return a


def _phi_columns(weights: DegreeWeights, terms: int, a: List[Fraction]) -> Iterator[Fraction]:
    """u_0, u_1, ... of U = phi(A); u_m is drawn once a_1 .. a_m are in
    ``a``.  The named kinds run their first-order relation, the rest the
    power table."""
    kind = weights.kind
    if kind in ("exp", "exp-t"):
        return _relation_columns(a, 0, 1, kind == "exp-t")
    if kind in ("bundled", "ordered-t"):
        # phi_1 = C(d, 1) = d; ordered-t is bundled(1) minus t
        d = int(weights.coefficient(1)) if kind == "bundled" else 1
        return _relation_columns(a, 1, d, kind == "ordered-t")
    if kind == "cosh":
        return _cosh_columns(a)
    return _table_columns(weights, terms, a)


def _relation_columns(a: List[Fraction], c: int, d: int, minus_t: bool) -> Iterator[Fraction]:
    """E = exp(A) (c = 0, d = 1) or (1 - A)^(-d) (c = 1) from
    (1 - cA) E' = d E A', that is
    m e_m = sum_i a_i e_(m-i) (c (m-i) + d i).  Yields E, or E - A when
    ``minus_t``."""
    e = [Fraction(1)]
    live: List[int] = []  # the i with a_i != 0
    yield e[0]
    m = 1
    while True:
        if a[m]:
            live.append(m)
        total = sum((a[i] * e[m - i] * (c * (m - i) + d * i) for i in live), Fraction(0))
        e.append(total / m)
        yield e[m] - a[m] if minus_t else e[m]
        m += 1


def _cosh_columns(a: List[Fraction]) -> Iterator[Fraction]:
    """U = cosh A with its partner V = sinh A: U' = V A' and V' = U A',
    that is m u_m = sum_i i a_i v_(m-i) and m v_m = sum_i i a_i u_(m-i)."""
    u, v = [Fraction(1)], [Fraction(0)]
    ia = [Fraction(0)]
    live: List[int] = []
    yield u[0]
    m = 1
    while True:
        ia.append(m * a[m])
        if a[m]:
            live.append(m)
        u.append(sum((ia[i] * v[m - i] for i in live), Fraction(0)) / m)
        v.append(sum((ia[i] * u[m - i] for i in live), Fraction(0)) / m)
        yield u[m]
        m += 1


def _table_columns(weights: DegreeWeights, terms: int, a: List[Fraction]) -> Iterator[Fraction]:
    """Columns of the power table of A, weighted by phi_0 .. phi_{terms-1}
    (read once)."""
    phi = _trim([weights.coefficient(j) for j in range(terms)])
    rows: list = []
    m = 0
    while True:
        yield _compose_column(phi, a, rows, m)
        m += 1


def _solve(scheme: str, weights: DegreeWeights, terms: int, k: int) -> CountingSequence:
    _check_k(k)
    if terms < 1:
        raise ValueError("terms must be positive")
    a = _online(scheme, weights, terms, k)
    scale = SCHEMES[scheme][1]
    return CountingSequence(tuple(scale(n, k) * a[n] for n in range(1, terms + 1)))


# -- series solutions ---------------------------------------------------


def k_labelled_series(weights: DegreeWeights, k: int, order: int) -> Series:
    """EGF of the k-labelled family, truncated at the given order in z."""
    _check_k(k)
    coeffs = [Fraction(0)] * (order + 1)
    for n, value in enumerate(_online("k-labelled", weights, order // k, k)):
        coeffs[k * n] = value
    return Series(coeffs)


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
