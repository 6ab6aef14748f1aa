"""Ring arithmetic for quadratic irrationals."""

import struct
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from moranlab import GOLDEN_RATIO, QuadraticNumber


def test_golden_ratio_satisfies_its_minimal_polynomial():
    """r = (sqrt(5)-1)/2 obeys r^2 = 1 - r exactly."""
    r = GOLDEN_RATIO
    assert r * r == 1 - r
    assert r * r + r - 1 == 0


def test_golden_ratio_float_value():
    assert float(GOLDEN_RATIO) == pytest.approx(0.6180339887498949, abs=1e-15)


def test_ring_operations_against_floats():
    x = QuadraticNumber(Fraction(1, 3), Fraction(2, 7), 2)
    y = QuadraticNumber(Fraction(-1, 2), Fraction(5, 3), 2)
    assert float(x + y) == pytest.approx(float(x) + float(y), rel=1e-12)
    assert float(x - y) == pytest.approx(float(x) - float(y), rel=1e-12)
    assert float(x * y) == pytest.approx(float(x) * float(y), rel=1e-12)


def test_rationals_mix_in_on_either_side():
    x = QuadraticNumber(0, 1, 3)
    assert 2 + x == x + 2
    assert 2 * x == x * 2
    assert (1 - x) + x == 1
    assert x - x == 0
    assert Fraction(1, 2) * x == x * Fraction(1, 2)


def test_floats_mix_in_as_floats():
    x = QuadraticNumber(Fraction(1, 3), Fraction(2, 7), 2)
    for y in (0.1, -2.5):
        assert x + y == y + x == float(x) + y
        assert (x - y, y - x) == (float(x) - y, y - float(x))
        assert x * y == y * x == float(x) * y


def test_mixed_radicands_are_rejected():
    x = QuadraticNumber(0, 1, 2)
    y = QuadraticNumber(0, 1, 3)
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        x * y


def test_square_or_small_radicand_rejected():
    with pytest.raises(ValueError):
        QuadraticNumber(0, 1, 4)
    with pytest.raises(ValueError):
        QuadraticNumber(0, 1, 1)
    with pytest.raises(ValueError):
        QuadraticNumber(0, 1, 0)


def test_zero_test_is_exact():
    # (1 + sqrt(5))(1 - sqrt(5)) = -4: no rounding noise anywhere.
    u = QuadraticNumber(1, 1, 5)
    v = QuadraticNumber(1, -1, 5)
    assert u * v == -4
    assert u * v + 4 == 0


def test_equality_with_rationals_needs_zero_irrational_part():
    assert QuadraticNumber(Fraction(3, 4), 0, 7) == Fraction(3, 4)
    assert QuadraticNumber(Fraction(3, 4), 1, 7) != Fraction(3, 4)


fractions = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def sub_formula(q, x):
    """``q - x`` as ``__sub__`` computed it before it went through ``__add__``."""
    if isinstance(x, float):
        return float(q) - x
    return q + (-(x if isinstance(x, QuadraticNumber) else QuadraticNumber(x, 0, q.d)))


def rsub_formula(q, x):
    """``x - q`` as ``__rsub__`` computed it before it went through ``__add__``."""
    if isinstance(x, float):
        return x - float(q)
    return QuadraticNumber(x, 0, q.d) + (-q)


def same(got, want):
    """Equal values of one type; floats bit for bit (the sign of zero too)."""
    if isinstance(want, float):
        return type(got) is float and struct.pack("<d", got) == struct.pack("<d", want)
    return type(got) is type(want) and got == want


@given(a=fractions, b=fractions, d=st.sampled_from((2, 3, 5)), data=st.data())
def test_subtraction_through_addition_keeps_every_result(a, b, d, data):
    q = QuadraticNumber(a, b, d)
    x = data.draw(st.floats(allow_nan=False) | st.integers() | fractions
                  | st.builds(QuadraticNumber, fractions, fractions, st.just(d)))
    assert same(q - x, sub_formula(q, x))
    # ``x - q`` of a quadratic ``x`` is ``x.__sub__(q)``
    want = sub_formula(x, q) if isinstance(x, QuadraticNumber) else rsub_formula(q, x)
    assert same(x - q, want)


@given(a=fractions, b=fractions, c=fractions, e=fractions)
def test_multiplication_distributes_over_addition(a, b, c, e):
    x = QuadraticNumber(a, b, 5)
    y = QuadraticNumber(c, e, 5)
    z = QuadraticNumber(b, c, 5)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@given(a=fractions, b=fractions)
def test_float_conversion_commutes_with_negation(a, b):
    x = QuadraticNumber(a, b, 2)
    assert float(-x) == -float(x)
