"""Exact arithmetic in real quadratic fields.

Contraction ratios such as the golden section (sqrt(5) - 1) / 2 are not
rational, so deciding whether two composed affine maps share a fixed point
cannot be done reliably in floating point.  ``QuadraticNumber`` represents
``a + b * sqrt(d)`` with ``fractions.Fraction`` coefficients, which is closed
under the ring operations used by anchor arithmetic and gives exact zero
tests.  Plain rationals are the special case ``b = 0``.  As with
``Fraction``, arithmetic with a ``float`` gives a ``float``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from .errors import DomainError, SpecError


def _issquare(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


class QuadraticNumber:
    """``a + b * sqrt(d)`` with rational ``a``, ``b`` and square-free ``d > 1``.

    Immutable and hashable (equal to the rational ``a`` when ``b == 0``).
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int) -> None:
        # Fractions are immutable: keep them rather than copy them
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        if d <= 1 or _issquare(d):
            raise ValueError("d must be a non-square integer > 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticNumber is immutable")

    # -- ring operations -------------------------------------------------

    def _coerce(self, other) -> "QuadraticNumber | None":
        if isinstance(other, QuadraticNumber):
            if other.d != self.d:
                raise DomainError("mixed radicands %d and %d" % (self.d, other.d))
            return other
        if isinstance(other, Rational):
            return QuadraticNumber(Fraction(other), Fraction(0), self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return float(self) + other if isinstance(other, float) else NotImplemented
        return QuadraticNumber(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return float(self) * other if isinstance(other, float) else NotImplemented
        return QuadraticNumber(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    # -- predicates and conversion ---------------------------------------

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


#: The golden section (sqrt(5) - 1) / 2, the canonical overlap-producing ratio.
GOLDEN_RATIO = QuadraticNumber(Fraction(-1, 2), Fraction(1, 2), 5)


def parse_scalar(value):
    """Parse a spec's JSON scalar or a flag's text into int, float, Fraction or QuadraticNumber."""
    if isinstance(value, bool):
        raise SpecError("booleans are not numeric scalars")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        if "/" in value:
            num, _, den = value.partition("/")
            try:
                return Fraction(int(num), int(den))
            except (ValueError, ZeroDivisionError) as exc:
                raise SpecError("bad rational %r: %s" % (value, exc)) from exc
        try:
            return float(value)
        except ValueError as exc:
            raise SpecError("bad numeric string %r" % value) from exc
    if isinstance(value, dict):
        try:
            if "fraction" in value:
                num, den = value["fraction"]
                return Fraction(num, den)
            if "sqrt" in value:
                spec = value["sqrt"]
                return QuadraticNumber(Fraction(*spec["a"]), Fraction(*spec["b"]), int(spec["d"]))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            why = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
            raise SpecError("bad exact scalar %r: %s" % (value, why)) from exc
        raise SpecError("unknown scalar object with keys %s" % sorted(value))
    raise SpecError("cannot parse scalar %r" % (value,))
