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
increasing trees", CAAP '92) on the counts T_n themselves.  A scheme has a
scale s_n ((kn)!, n! or (n!)^k), with T = sum T_n w^n / s_n and
U = phi(T) = sum U_m w^m / s_m, and its step in ``SCHEMES`` adds U_(n-1)
(and T_(n-1) or U_(n-2)) to give T_n.  The scale only builds two integer
convolution weights D(m, i) = i s_m / (m s_i s_(m-i)) and
E(m, i) = (m - i) s_m / (m s_i s_(m-i)) (k-labelled: C(km-1, ki-1) and
C(km-1, ki); k-tuple: C(m-1, i-1) C(m, i)^(k-1) and C(m-1, i) C(m, i)^(k-1)).
No relation divides, so when every Phi_j = j! phi_j is an integer the loop
runs on ``int`` (U_m is then an integer by the exponential formula,
Flajolet-Sedgewick, "Analytic Combinatorics", II.2); rational phi run the
same code on ``Fraction``.  For N terms U_m costs, in big-integer operations:

* ``exp``, ``bundled``, ``cosh``, ``exp-t``, ``ordered-t``: O(N^2).  U
  satisfies a linear first-order equation in T (Stanley, "Differentiably
  finite power series", 1980), so each U_m is one O(m) convolution:
  U_m = sum_i D T_i U_(m-i) (exp), U_m = sum_i (d D + E) T_i U_(m-i)
  (bundled(d)), the exp sums with V = sinh T as partner (cosh), and the exp
  or bundled(1) relation minus T_m (exp-t, ordered-t).
* ``poly`` of degree d: O(N^2 d), and ``custom``: O(N^3).  U_m = sum_j
  Phi_j B(m, j) over a table of partial Bell polynomials,
  B(m, j) = sum_i D T_i B(m-i, j-1), that grows by one column per new T_n
  (Comtet, "Advanced Combinatorics", 3.3).  Wrapping a named phi in
  ``DegreeWeights.custom`` runs it on this table, the reference route for
  the relations.  :func:`solve_scheme` and each ``solve_*`` call this engine.

The engines are kept per process, one per (``SCHEMES`` entry, weights
object, k), at most ``SOLVER_ENGINE_CACHE`` of them, least recently used
out first; the bound counts engines, not bytes.  T_1 .. T_N is a prefix of
T_1 .. T_M, so a call for N terms that an engine holds slices its kept
Fractions (O(N) references), and a longer one resumes it from its length
L: only the steps L + 1 .. N, plus, for a Bell table, Phi_j re-read for
j < N from the weights' cache.  Each term is solved and wrapped once per
process.  A Bell table reads Phi_j only for j below the largest count
asked so far; a nonzero Phi_j past the trailing zeros whose columns it
skipped starts it again.  A call that raises keeps no engine.  Keys hold
the entry and the weights themselves: a ``DegreeWeights`` fixes its
coefficients, and a replaced ``SCHEMES`` entry gets new engines.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat
from math import comb, factorial, lcm
from operator import mul
from typing import Iterator, List, Optional, Tuple

from .series import _trim
from .trees import _check_k
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

# scheme -> (step, scale): step(n, t, u) gives T_n from T_0 .. T_{n-1} and
# U_0 .. U_{n-1} of U = phi(T); scale(n, k) is s_n.
SCHEMES = {
    # [z^(kn-k)] of T^(k) = phi(T)
    "k-labelled": (lambda n, t, u: u[n - 1], lambda n, k: factorial(k * n)),
    "free-multilabelled": (lambda n, t, u: u[n - 1] + t[n - 1], lambda n, k: factorial(n)),
    # T' phi'(T) = (phi(T))', so T' = phi(T) + integral of phi(T)
    "uni-bi": (lambda n, t, u: u[n - 1] + (u[n - 2] if n > 1 else 0), lambda n, k: factorial(n)),
    "k-tuple": (lambda n, t, u: u[n - 1], lambda n, k: factorial(n) ** k),
}


# Engines kept per process: enough for the 29 (scheme, weights, k) of one
# ``verify all`` and the 23 of one bench ``seq`` pass.  The bound counts
# engines, not bytes: an engine holds T_1 .. T_N, U_0 .. U_(N-1) and the
# Fractions of T (about 2 MB for ``seq bilabelled/unordered 1000``), plus
# the Bell table of a ``poly`` or ``custom`` phi.
SOLVER_ENGINE_CACHE = 32

# (SCHEMES entry, weights, k) -> _Engine, least recently used first
_ENGINES: dict = {}


class _Engine:
    """The online solve of one ``SCHEMES`` entry for one weights object and
    k, kept to be resumed: ``t`` = [T_0 = 0, T_1, ..], ``u`` = [U_0, ..],
    the live generator ``columns`` of U and ``values``, T_1, .. as Fractions.
    T_n and U_m are ints when every Phi_j is an integer, else Fractions."""

    __slots__ = ("entry", "weights", "k", "t", "u", "phi", "columns", "values")

    def __init__(self, entry, weights: DegreeWeights, k: int):
        self.entry, self.weights, self.k = entry, weights, k
        self.start()

    def start(self) -> None:
        """No terms yet; U_m is drawn once T_1 .. T_m are in ``t``."""
        weights, kind = self.weights, self.weights.kind
        self.t, self.u, self.values = [0], [], []
        c, d = 0, 1
        if kind in ("bundled", "ordered-t"):
            # phi_1 = C(d, 1) = d; ordered-t is bundled(1) minus t
            c, d = 1, int(weights.coefficient(1)) if kind == "bundled" else 1
        rows = _convolution_weights(self.entry[1], self.k, c, d)
        if kind in ("exp", "exp-t", "cosh", "bundled", "ordered-t"):
            self.phi = None
            self.columns = _relation_columns(self.t, rows, kind.endswith("-t"), kind == "cosh")
        else:
            self.phi = []
            self.columns = _table_columns(self.phi, self.t, rows)

    def extend(self, terms: int) -> None:
        """Solve T_n for len(values) < n <= terms.  A Bell table first reads
        Phi_j for j < terms; a nonzero one past the columns it skipped as
        trailing zeros starts the solve again."""
        done = len(self.values)
        if self.phi is not None:
            phi = _trim(_scaled_phi(self.weights, terms))
            if len(self.phi) < min(len(phi), done):
                self.start()
                done = 0
            self.phi[:] = phi
        step, t, u = self.entry[0], self.t, self.u
        for n in range(done + 1, terms + 1):
            u.append(next(self.columns))
            t.append(step(n, t, u))
        self.values += map(Fraction, t[done + 1 :])


def _convolution_weights(scale, k: int, c: int, d: int) -> Iterator[List[int]]:
    """The rows d D(m, i) + c E(m, i) = (d i + c (m-i)) b / m, i = 0 .. m, for
    m = 1, 2, ..., where b = s_m / (s_i s_(m-i)) runs along the row as
    b(m, i) = b(m, i-1) r_(m-i+1) / r_i with r_n = s_n / s_(n-1).  Every
    quotient is exact."""
    r = [1]
    for m in count(1):
        r.append(scale(m, k) // scale(m - 1, k))
        b, row = 1, [c]
        for i in range(1, m + 1):
            b = b * r[m - i + 1] // r[i]
            row.append((d * i + c * (m - i)) * b // m)
        yield row


def _relation_columns(t: list, rows, minus_t: bool, cosh: bool) -> Iterator:
    """U = exp(T) or (1 - T)^(-d) from (1 - cT) U' = d U T', that is
    U_m = sum_i (d D + c E)(m, i) T_i U_(m-i) on the rows of weights; with
    ``cosh``, U = cosh T from U' = V T' and V' = U T' for V = sinh T (c = 0,
    d = 1).  Yields U, or U - T when ``minus_t``."""
    u = [1]
    v = [0] if cosh else u
    yield u[0]
    for m in count(1):
        w = list(map(mul, next(rows), t))
        u.append(sum(map(mul, w[1:], v[m - 1 :: -1])))
        if cosh:
            v.append(sum(map(mul, w[1:], u[m - 1 :: -1])))
        yield u[m] - t[m] if minus_t else u[m]


def _scaled_phi(weights: DegreeWeights, terms: int) -> list:
    """Phi_j = j! phi_j for j < terms: an int, by one divmod of j! by the
    denominator of phi_j, when that division is exact, else a Fraction."""
    phi, scale = [], 1
    for j in range(terms):
        scale *= j or 1
        c = weights.coefficient(j)
        q, r = divmod(scale, c.denominator)
        phi.append(scale * c if r else q * c.numerator)
    return phi


def _table_columns(phi: list, t: list, rows) -> Iterator:
    """U_m = sum_j Phi_j B(m, j) over the Bell table B(m, j) = s_m [w^m] T^j / j!:
    B(m, 1) = T_m and B(m, j) = sum_i D(m, i) T_i B(m-i, j-1), D the rows of
    ``rows``.  ``phi`` holds Phi_j = j! phi_j (:func:`_scaled_phi`) without
    trailing zeros, at least to j = m when U_m is drawn; the engine lengthens
    it in place.  The table holds no power past len(phi) - 1."""
    columns: list = []  # columns[j-2] = [B(0, j), B(1, j), ...]
    yield phi[0]
    for m in count(1):
        if 2 <= m < len(phi):
            columns.append([0] * m)  # B(m', m) = 0 for m' < m
        w = list(map(mul, next(rows), t))
        total, prev = phi[1] * t[m], t
        for j, column in enumerate(columns, start=2):
            # B(m-i, j-1) = 0 for i > m-j+1
            column.append(sum(map(mul, w[1 : m - j + 2], prev[m - 1 : j - 2 : -1])))
            total += phi[j] * column[m]
            prev = column
        yield total


def _solve(scheme: str, weights: DegreeWeights, terms: int, k: int) -> CountingSequence:
    _check_k(k)
    if terms < 1:
        raise ValueError("terms must be positive")
    key = (SCHEMES[scheme], weights, k)
    engine = _ENGINES.pop(key, None) or _Engine(*key)
    if len(engine.values) < terms:
        engine.extend(terms)  # if this raises, the engine is not kept
    _ENGINES[key] = engine
    if len(_ENGINES) > SOLVER_ENGINE_CACHE:
        del _ENGINES[next(iter(_ENGINES))]
    return CountingSequence(tuple(engine.values[:terms]))


def solve_scheme(
    scheme: str, weights: DegreeWeights, terms: int, k: Optional[int] = None
) -> CountingSequence:
    """T_1 .. T_terms of the family with these weights under a scheme of
    ``SCHEMES``; k (None: 1) is the labels per node or the tuple length."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {sorted(SCHEMES)}")
    return _solve(scheme, weights, terms, 1 if k is None else k)


def solve_k_labelled(weights: DegreeWeights, k: int, terms: int) -> CountingSequence:
    """T_n for 1 <= n <= terms: the weighted count of increasing k-labelled
    trees with kn labels."""
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
    """T_n for 1 <= n <= terms: increasing k-tuple labelled trees of size
    n, by the root decomposition with the label multinomial to the k-th
    power."""
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


def first_order_invariant_check(weights: DegreeWeights, counts) -> InvariantReport:
    """Verify (T')^2 = 2 Phi(T) for T = sum T_n z^(2n) / (2n)! from the
    counts T_1 .. T_N of the two-labels-per-node family, to z-order 2N + 1.

    Both sides are recomputed from the counts, apart from the engine, at
    z^(2m) / (2m)! for m = 1 .. N (z^0 and odd orders vanish on both):
    (T')^2 is S(m) = sum_a C(2m, 2a-1) T_a T_(m+1-a), and 2 Phi(T) is
    2 sum_j Phi_j P(m, j), Phi_j = phi_(j-1) / j, over the power table
    P(m, j) = (2m)! [z^(2m)] T^j = sum_i C(2m, 2i) T_i P(m-i, j-1),
    P(m, 1) = T_m.  The counts times the lcm L of their denominators, and
    the Phi_j times the lcm M of theirs, are integers, so order 2m matches
    when M L^N S(m) = L^2 sum_j 2 M Phi_j L^(N-j) P(m, j), S and P taken on
    the scaled counts.  The cost is O(N^3) integer operations: in process on
    a 2-vCPU Xeon, the seven two-label families take about 1.6 ms at N = 9
    (the suite's size), 15 ms at N = 30 and 55 ms at N = 50, solve included.
    """
    values = [Fraction(v) for v in counts]
    n = len(values)
    lift = lcm(*(v.denominator for v in values))
    t = [0] + [v.numerator * (lift // v.denominator) for v in values]
    antiderivative = [Fraction(weights.coefficient(j - 1), j) for j in range(1, n + 1)]
    phi_lift = lcm(*(c.denominator for c in antiderivative))
    scaled = [  # 2 M Phi_j L^(N-j)
        2 * (c * phi_lift).numerator * lift ** (n - j)
        for j, c in enumerate(antiderivative, start=1)
    ]
    left, right = phi_lift * lift**n, lift * lift
    columns = [t]  # columns[j-1] = [P(0, j), P(1, j), ...]
    mismatches = []
    for m in range(1, n + 1):
        row = list(map(mul, map(comb, repeat(2 * m), range(0, 2 * m + 1, 2)), t[: m + 1]))
        if m > 1:
            columns.append([0] * m)  # P(m', m) = 0 for m' < m
        for j in range(2, m + 1):
            prev = columns[j - 2]
            # P(m-i, j-1) = 0 for i > m-j+1
            columns[j - 1].append(sum(map(mul, row[1 : m - j + 2], prev[m - 1 : j - 2 : -1])))
        lhs = sum(comb(2 * m, 2 * a - 1) * t[a] * t[m + 1 - a] for a in range(1, m + 1))
        rhs = sum(f * column[m] for f, column in zip(scaled, columns))
        if left * lhs != right * rhs:
            mismatches.append(2 * m)
    return InvariantReport(checked_order=2 * n + 1, mismatches=tuple(mismatches))
