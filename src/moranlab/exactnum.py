"""Exact arithmetic in real quadratic fields.

Contraction ratios such as the golden section (sqrt(5) - 1) / 2 are not
rational, so deciding whether two composed affine maps share a fixed point
cannot be done reliably in floating point.  ``QuadraticNumber`` represents
``a + b * sqrt(d)`` with ``fractions.Fraction`` coefficients, which is closed
under the ring operations used by anchor arithmetic and gives exact zero
tests.  Plain rationals are the special case ``b = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


def _issquare(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class QuadraticNumber:
    """``a + b * sqrt(d)`` with rational ``a``, ``b`` and square-free ``d > 1``."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self) -> None:
        # Fractions are immutable: keep them rather than copy them
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", Fraction(self.a))
        if type(self.b) is not Fraction:
            object.__setattr__(self, "b", Fraction(self.b))
        if self.d <= 1 or _issquare(self.d):
            raise ValueError("d must be a non-square integer > 1")

    # -- ring operations -------------------------------------------------

    def _coerce(self, other) -> "QuadraticNumber | None":
        if isinstance(other, QuadraticNumber):
            if other.d != self.d:
                raise ValueError("mixed radicands %d and %d" % (self.d, other.d))
            return other
        if isinstance(other, Rational):
            return QuadraticNumber(Fraction(other), Fraction(0), self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadraticNumber(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadraticNumber(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are supported")
        out = QuadraticNumber(Fraction(1), Fraction(0), self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates and conversion ---------------------------------------

    def is_zero(self) -> bool:
        # sqrt(d) is irrational, so a + b*sqrt(d) = 0 iff a = b = 0.
        return self.a == 0 and self.b == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadraticNumber):
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, Rational):
            return self.b == 0 and self.a == Fraction(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self) -> str:
        return "QuadraticNumber(%s + %s*sqrt(%d))" % (self.a, self.b, self.d)


#: The golden section (sqrt(5) - 1) / 2, the canonical overlap-producing ratio.
GOLDEN_RATIO = QuadraticNumber(Fraction(-1, 2), Fraction(1, 2), 5)


def exact_value(x):
    """Return ``x`` if it already supports exact arithmetic, else ``None``.

    Accepted exact types are :class:`QuadraticNumber` and rationals
    (``int`` / ``fractions.Fraction``).  Floats are not exact.
    """
    if isinstance(x, QuadraticNumber):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    return None
