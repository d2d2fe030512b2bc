"""Exact scalars and truncated formal power series with rational coefficients.

Every exact input of the package is read here.  A rational goes through
:func:`as_fraction`, which refuses a float, a str and a bool, and a rational
literal of the command line through :func:`_parse_fraction`.  A count (a
size, a number of terms, a k, a label count) goes through
:func:`_check_count`, one rule for the whole package: anything but an int,
a bool included, is a ``TypeError`` "{name} must be an int, not {type}",
and an int below 1 a ``ValueError`` "{name} = {value} must be at least 1".

The package's seven capacity bounds (``MAX_TREE_SIZE``, ``MAX_LABEL_TOTAL``
and ``MAX_BUCKET_TOTAL`` in ``trees``, two in ``hooks``, one in
``bijections``, one in ``families``) are all enforced by
:func:`check_capacity`.  The environment variable ``INCTREE_CAPACITY``, when
set to a positive integer, replaces all of them; any other value is a
``ValueError``.  Raising it can make enumerations take minutes and
gigabytes; that risk is the caller's.

A :class:`Series` stores the coefficients ``c[0] .. c[N]`` of a power series
truncated at order ``N`` and keeps track of the order each result is
guaranteed to be valid to:

* sums and products are valid to the minimum order of the operands,
* differentiation loses one order, integration gains one,
* composition ``outer(inner)`` (``inner`` with zero constant term) and
  reversion keep the minimum order of the operands.

Composition and reversion run on a table of powers ``[z^m] g^j`` of the
inner series that grows by one column per new coefficient (Knuth, TAOCP
Vol. 2, 4.7; :func:`_compose_column`); reversion fills g = f^(-1) from one
such table of g itself.

All coefficients are :class:`fractions.Fraction` values, so arithmetic is
exact; floats are rejected at construction.  Series are immutable and every
operation returns a fresh instance, which makes them safe to share between
threads.
"""
from __future__ import annotations

import os
from bisect import bisect_right
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, List, Sequence, Tuple, Union

Scalar = Union[int, Fraction]


def as_fraction(value: Scalar, name: str = "") -> Fraction:
    """Coerce an exact scalar to Fraction, rejecting inexact types and bool."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    named = f" for {name}" if name else ""
    raise TypeError(f"exact rational required{named}, got {type(value).__name__}")


def _check_int(value, name: str) -> int:
    """value, unless it is not an int (a bool, float or str): TypeError naming it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    return value


def _check_count(value, name: str) -> int:
    """value, a count: an int (:func:`_check_int`) of at least 1, else a
    ValueError naming it."""
    if _check_int(value, name) < 1:
        raise ValueError(f"{name} = {value} must be at least 1")
    return value


class CapacityError(ValueError):
    """An enumeration was asked to exceed its documented capacity."""


def check_capacity(value: int, default: int, what: str) -> None:
    """CapacityError naming the quantity when value exceeds its bound:
    INCTREE_CAPACITY when set, else the default."""
    override = os.environ.get("INCTREE_CAPACITY")
    try:
        limit = int(override) if override else default
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"INCTREE_CAPACITY must be a positive integer, got {override!r}")
    if value > limit:
        raise CapacityError(
            f"{what} = {value} exceeds the capacity {limit}; "
            "set INCTREE_CAPACITY to override"
        )


def _over_lcm(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    """The values as ints v L over the lcm L of their denominators, and L."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


# Longest rational literal accepted, in digits: Python's default int-string
# limit, kept by the parser even where the CLI lifts it for its output.
MAX_LITERAL_DIGITS = 4300


def _shown(text: str) -> str:
    """text as an error message quotes it: in full up to 40 characters, else
    its head and tail."""
    return text if len(text) <= 40 else f"{text[:20]}...{text[-10:]}"


def _parse_fraction(text: str) -> Fraction:
    """An exact rational written like "3", "-3/2" or "1.5e3".  A zero
    denominator, or a literal whose length plus decimal exponent exceeds
    MAX_LITERAL_DIGITS, is a ValueError that names the text."""
    exponent = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
    if len(text) > MAX_LITERAL_DIGITS or (
        exponent.isdecimal() and len(text) + int(exponent) > MAX_LITERAL_DIGITS
    ):
        raise ValueError(f"literal {_shown(text)!r} has more than {MAX_LITERAL_DIGITS} digits")
    if text.isascii() and text.isdigit():
        return Fraction(int(text))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_fractions(text: str, what: str) -> List[Fraction]:
    """Comma-separated exact rationals, each read by :func:`_parse_fraction`.
    An empty entry, a trailing comma included, or a malformed one is a
    ValueError that names its position, ``what`` the list holds and the
    text; a malformed entry's own error follows."""
    out = []
    for position, part in enumerate(text.split(","), start=1):
        part = part.strip()
        if not part:
            raise ValueError(f"empty entry {position} in {what} {_shown(text)!r}")
        try:
            out.append(_parse_fraction(part))
        except ValueError as exc:
            raise ValueError(f"bad entry {position} in {what} {_shown(text)!r}: {exc}") from None
    return out


class Series:
    """Immutable truncated power series over exact rationals."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Scalar]):
        coeffs = tuple(as_fraction(c, "coefficients") for c in coefficients)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self._coeffs = coeffs

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([Fraction(0)] * (order + 1))

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "Series":
        return cls([as_fraction(value)] + [Fraction(0)] * order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.constant(1, order)

    @classmethod
    def identity(cls, order: int) -> "Series":
        """The series ``z`` at the given truncation order, a count."""
        coeffs = [Fraction(0)] * (_check_count(order, "order") + 1)
        coeffs[1] = Fraction(1)
        return cls(coeffs)

    # -- inspection ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    def coefficient(self, index: int) -> Fraction:
        if not 0 <= index <= self.order:
            raise IndexError(
                f"coefficient {index} beyond guaranteed order {self.order}"
            )
        return self._coeffs[index]

    __getitem__ = coefficient

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(
                f"cannot extend guaranteed order {self.order} to {order}"
            )
        return Series(self._coeffs[: order + 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self._coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"Series([{shown}{tail}], order={self.order})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series(
            [self._coeffs[i] + other._coeffs[i] for i in range(n + 1)]
        )

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series(
            [self._coeffs[i] - other._coeffs[i] for i in range(n + 1)]
        )

    def __neg__(self) -> "Series":
        return Series([-c for c in self._coeffs])

    def scale(self, factor: Scalar) -> "Series":
        f = as_fraction(factor)
        return Series([f * c for c in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            out = [Fraction(0)] * (n + 1)
            for i in range(n + 1):
                a = self._coeffs[i]
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other._coeffs[j]
                    if b != 0:
                        out[i + j] += a * b
            return Series(out)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # -- calculus -----------------------------------------------------

    def differentiate(self) -> "Series":
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series")
        return Series(
            [i * self._coeffs[i] for i in range(1, self.order + 1)]
        )

    def integrate(self) -> "Series":
        """Antiderivative with zero constant term; order grows by one."""
        out = [Fraction(0)]
        out.extend(self._coeffs[i] / (i + 1) for i in range(self.order + 1))
        return Series(out)

    # -- composition and inverses --------------------------------------

    def compose(self, inner: "Series") -> "Series":
        """self(inner(z)); inner must have zero constant term."""
        if inner._coeffs[0] != 0:
            raise ValueError("composition needs an inner series with zero constant term")
        n = min(self.order, inner.order)
        outer, rows = _trim(self._coeffs[: n + 1]), []
        return Series([_compose_column(outer, inner._coeffs, rows, m) for m in range(n + 1)])

    def reciprocal(self) -> "Series":
        a0 = self._coeffs[0]
        if a0 == 0:
            raise ValueError("reciprocal needs a nonzero constant term")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = 1 / a0
        for i in range(1, n + 1):
            acc = Fraction(0)
            for k in range(1, i + 1):
                acc += self._coeffs[k] * out[i - k]
            out[i] = -acc / a0
        return Series(out)

    def sqrt(self) -> "Series":
        """Formal square root with positive constant coefficient."""
        num, den = self._coeffs[0].numerator, self._coeffs[0].denominator
        if num <= 0 or isqrt(num) ** 2 != num or isqrt(den) ** 2 != den:
            raise ValueError(
                "sqrt needs a constant term that is the square of a nonzero rational"
            )
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(isqrt(num), isqrt(den))
        for i in range(1, n + 1):
            acc = Fraction(0)
            for k in range(1, i):
                acc += out[k] * out[i - k]
            out[i] = (self._coeffs[i] - acc) / (2 * out[0])
        return Series(out)

    def reversion(self) -> "Series":
        """Compositional inverse g with self(g(z)) = z up to the truncation order."""
        if self._coeffs[0] != 0:
            raise ValueError("reversion needs a series with zero constant term")
        if self.order < 1 or self._coeffs[1] == 0:
            raise ValueError("reversion needs a nonzero linear coefficient")
        # [z^m] f(g) = f_1 g_m + sum_{j>=2} f_j [z^m] g^j vanishes for m >= 2
        f = _trim(self._coeffs)
        g, rows = [Fraction(0), 1 / f[1]], []
        for m in range(2, self.order + 1):
            g.append(-_dot(f, _power_column(g, rows, len(f) - 1, m)) / f[1])
        return Series(g)


def _trim(coeffs) -> tuple:
    """coeffs without trailing zeros, keeping at least two entries."""
    end = len(coeffs)
    while end > 2 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def _compose_column(outer, inner, rows: list, m: int) -> Fraction:
    """[z^m] outer(inner) for inner with inner_0 = 0, from inner_1 .. inner_m;
    call it for m = 0, 1, ... in turn with the same ``rows``, the power table
    of :func:`_power_column`.  Powers of inner past the degree of ``outer``
    are never formed: pass it without trailing zeros."""
    if m == 0:
        return outer[0]
    return outer[1] * inner[m] + _dot(outer, _power_column(inner, rows, len(outer) - 1, m))


def _power_column(a, rows: list, top: int, m: int) -> list:
    """Column m of the power table of A = sum a_i z^i (a_0 = 0): the list of
    [z^m] A^j for j = 2, 3, ..., also appended to ``rows[j-2]``, which holds
    [z^0..z^{m-1}] A^j.  A^m joins the table when m <= top.  Only a_1 ..
    a_{m-1} are read; call this for m = 1, 2, ... in turn with the same
    ``rows``."""
    if 2 <= m <= top:
        rows.append([0] * m)  # A^m starts at z^m
    support = [i for i in range(1, m) if a[i]]
    column = []
    prev = a
    for j, row in enumerate(rows, start=2):
        # [z^m] A^j = sum_i a_i [z^(m-i)] A^(j-1), where A^(j-1) starts at z^(j-1)
        cut = bisect_right(support, m - j + 1)
        c = sum(a[i] * prev[m - i] for i in support[:cut])
        row.append(c)
        column.append(c)
        prev = row
    return column


def _dot(weights, column: list) -> Fraction:
    """sum_j weights[j] column[j-2]: a weighted column of the power table."""
    total = Fraction(0)
    for w, c in zip(weights[2:], column):
        if c:
            total += w * c
    return total
