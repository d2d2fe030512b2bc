"""Degree-weight sequences for weighted ordered tree families.

A :class:`DegreeWeights` value represents a sequence ``phi_0, phi_1, ...``
of non-negative rationals with ``phi_0 > 0``.  A tree is weighted by the
product of ``phi`` over the out-degrees of its nodes, so the sequence picks
out a tree family: all-ones gives ordered trees, ``1/j!`` gives unordered
(labelled) trees, binomials give d-ary and d-bundled trees, and so on.

Built-in kinds::

    exponential      phi_j = 1/j!
    cosh             phi_j = 1/j! for even j, 0 otherwise
    bundled(d)       phi_j = C(j+d-1, j)
    polynomial(cs)   phi_j = cs[j] (0 beyond the list)
    exp_minus_t      phi_j = 1/j!, except phi_1 = 0
    ordered_minus_t  phi_j = 1,    except phi_1 = 0
    custom(fn)       any j -> phi_j with the sign constraints enforced

The one-line text grammar used on the command line is parsed by
:meth:`DegreeWeights.parse`:  ``exp``, ``cosh``, ``exp-t``, ``ordered-t``,
``bundled:d`` and ``poly:c0,c1,...`` (entries may be fractions like 3/2).

``SHAPES`` is the one place that builds the named tree shapes (ordered,
unordered, binary, strict-binary, unary-binary, 2- and 3-bundled,
even-degree); every module that needs one of them reads it there.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable, Optional

from .series import Series, _check_count, _parse_fractions, as_fraction


class DegreeWeights:
    """Immutable degree-weight sequence with exact coefficient access."""

    __slots__ = ("kind", "name", "_fn", "_cache")

    def __init__(self, kind: str, name: str, fn: Callable[[int], object]):
        self.kind = kind
        self.name = name
        self._fn = fn
        self._cache: dict = {}
        phi0 = self.coefficient(0)
        if phi0.numerator <= 0:
            raise ValueError(f"degree weights need phi_0 > 0, got {phi0}")

    # -- constructors -------------------------------------------------

    @classmethod
    def polynomial(cls, coefficients, name: Optional[str] = None) -> "DegreeWeights":
        coeffs = tuple(as_fraction(c, "coefficients") for c in coefficients)
        for j, c in enumerate(coeffs):
            if c.numerator < 0:
                raise ValueError(f"negative degree weight phi_{j} = {c}")
        label = name or "poly:" + ",".join(str(c) for c in coeffs)
        return cls("poly", label, lambda j: coeffs[j] if j < len(coeffs) else 0)

    @classmethod
    def bundled(cls, d: int) -> "DegreeWeights":
        _check_count(d, "d")
        return cls("bundled", f"bundled:{d}", lambda j: comb(j + d - 1, j))

    @classmethod
    def exponential(cls) -> "DegreeWeights":
        return cls("exp", "exp", lambda j: Fraction(1, factorial(j)))

    @classmethod
    def cosh(cls) -> "DegreeWeights":
        return cls("cosh", "cosh", lambda j: 0 if j % 2 else Fraction(1, factorial(j)))

    @classmethod
    def exp_minus_t(cls) -> "DegreeWeights":
        return cls("exp-t", "exp-t", lambda j: 0 if j == 1 else Fraction(1, factorial(j)))

    @classmethod
    def ordered_minus_t(cls) -> "DegreeWeights":
        return cls("ordered-t", "ordered-t", lambda j: 0 if j == 1 else 1)

    @classmethod
    def custom(cls, fn: Callable[[int], object], name: str = "custom") -> "DegreeWeights":
        return cls("custom", name, fn)

    @classmethod
    def parse(cls, text: str) -> "DegreeWeights":
        """Parse the command-line weight grammar."""
        text = text.strip()
        if text == "exp":
            return cls.exponential()
        if text == "cosh":
            return cls.cosh()
        if text == "exp-t":
            return cls.exp_minus_t()
        if text == "ordered-t":
            return cls.ordered_minus_t()
        try:
            if text.startswith("bundled:"):
                return cls.bundled(int(text.split(":", 1)[1]))
            if text.startswith("poly:"):
                return cls.polynomial(_parse_fractions(text.split(":", 1)[1], "coefficients"))
        except ValueError as exc:
            raise ValueError(f"bad degree-weight spec {text!r}: {exc}") from None
        raise ValueError(f"unknown degree-weight spec {text!r}")

    # -- coefficient access --------------------------------------------

    def coefficient(self, j: int) -> Fraction:
        """The weight phi_j, exactly."""
        if j < 0:
            raise ValueError(f"degree index j = {j} must be at least 0")
        if j not in self._cache:
            value = as_fraction(self._fn(j))
            if value.numerator < 0:
                raise ValueError(f"negative degree weight phi_{j} = {value}")
            self._cache[j] = value
        return self._cache[j]

    __call__ = coefficient

    # -- series views ---------------------------------------------------

    def as_series(self, order: int) -> Series:
        """Truncation of phi(t) = sum phi_j t^j."""
        return Series([self.coefficient(j) for j in range(order + 1)])

    def derivative_series(self, order: int) -> Series:
        """Truncation of phi'(t)."""
        return Series(
            [(j + 1) * self.coefficient(j + 1) for j in range(order + 1)]
        )

    def antiderivative_series(self, order: int) -> Series:
        """Truncation of Phi(x) = integral of phi from 0 to x (so Phi(0) = 0)."""
        coeffs = [Fraction(0)]
        coeffs.extend(self.coefficient(j - 1) / j for j in range(1, order + 1))
        return Series(coeffs)

    def __repr__(self) -> str:
        return f"DegreeWeights({self.name!r})"


SHAPES = {
    "ordered": DegreeWeights.bundled(1),
    "unordered": DegreeWeights.exponential(),
    "binary": DegreeWeights.polynomial([1, 2, 1], name="binary"),
    "strict-binary": DegreeWeights.polynomial([1, 0, 1], name="strict-binary"),
    "unary-binary": DegreeWeights.polynomial([1, 1, 1], name="unary-binary"),
    "2-bundled": DegreeWeights.bundled(2),
    "3-bundled": DegreeWeights.bundled(3),
    "even-degree": DegreeWeights.cosh(),
}
