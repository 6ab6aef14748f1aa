"""Ambient spaces: metrics, the comb, and the Heisenberg gauge."""

import math
import unittest
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from moranlab import (
    Alphabet,
    CombSpace,
    DomainError,
    EuclideanSpace,
    GOLDEN_RATIO,
    HeisenbergSpace,
    SnowflakeSpace,
    SymbolSpace,
    space_from_json,
)
from moranlab.spaces import (
    heisenberg_dilate,
    heisenberg_gauge,
    heisenberg_inverse,
    heisenberg_multiply,
)

coords = st.floats(
    min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
)


def test_euclidean_distance_and_dimension_check():
    space = EuclideanSpace(2)
    assert space.distance((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert space.coordinate_dim == 2
    with pytest.raises(DomainError):
        space.distance((0.0,), (1.0, 2.0))
    with pytest.raises(DomainError):
        EuclideanSpace(0)


def test_exact_coordinates_subtract_exactly():
    space = EuclideanSpace(1)
    assert space.distance((Fraction(1, 3),), (Fraction(1, 3),)) == 0.0
    r = GOLDEN_RATIO
    assert space.distance((r,), (r,)) == 0.0


def test_snowflake_halves_the_exponent():
    line = EuclideanSpace(1)
    flake = SnowflakeSpace(line, 0.5)
    assert flake.distance((0.0,), (4.0,)) == 2.0
    assert flake.distance((0.0,), (0.25,)) == 0.5
    assert flake.distance((0.0,), (9.0,)) == 3.0


def test_snowflake_exponent_range():
    line = EuclideanSpace(1)
    for p in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(DomainError):
            SnowflakeSpace(line, p)
        with pytest.raises(DomainError):
            SnowflakeSpace(line, p).distance((0.0,), (1.0,))


def test_snowflake_inherits_structure_flags():
    sym = SymbolSpace(Alphabet(2))
    assert SnowflakeSpace(sym, 0.5).ultrametric
    assert SnowflakeSpace(sym, 0.5).coordinate_dim is None
    assert SnowflakeSpace(sym, 0.5).alphabet is sym.alphabet
    plane = EuclideanSpace(2)
    assert not SnowflakeSpace(plane, 0.5).ultrametric
    assert SnowflakeSpace(plane, 0.5).coordinate_dim == 2


@given(x=coords, y=coords, z=coords, p=st.floats(min_value=0.1, max_value=0.9))
def test_snowflake_triangle_inequality(x, y, z, p):
    flake = SnowflakeSpace(EuclideanSpace(1), p)
    dxz = flake.distance((x,), (z,))
    assert dxz <= flake.distance((x,), (y,)) + flake.distance((y,), (z,)) + 1e-12


def test_symbol_space_compares_common_depth():
    space = SymbolSpace(Alphabet(2))
    assert space.ultrametric
    assert space.distance((0, 1, 0), (1, 1)) == 1.0
    assert space.distance((0, 1, 0), (0, 1)) == 0.0
    assert space.distance((0, 1), (0, 0, 1)) == 0.5


# -- the comb ------------------------------------------------------------------


def test_comb_contraction_range():
    with pytest.raises(DomainError):
        CombSpace(1.0)
    with pytest.raises(DomainError):
        CombSpace(0.0)


def test_comb_exact_ratio_survives_json():
    golden = {"sqrt": {"a": [-1, 2], "b": [1, 2], "d": 5}}
    again = space_from_json({"kind": "comb", "r": golden})
    assert again.r == GOLDEN_RATIO
    assert float(again.r) == float(GOLDEN_RATIO)


# -- the Heisenberg group -------------------------------------------------------


class TestHeisenberg(unittest.TestCase):
    def test_group_law(self):
        self.assertEqual(
            heisenberg_multiply((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
            (1.0, 1.0, 0.5),
        )

    def test_inverse_and_identity(self):
        p = (0.3, -1.2, 0.7)
        e = heisenberg_multiply(p, heisenberg_inverse(p))
        self.assertEqual(e, (0.0, 0.0, 0.0))

    def test_gauge_values(self):
        self.assertEqual(heisenberg_gauge((1.0, 0.0, 0.0)), 1.0)
        self.assertEqual(heisenberg_gauge((0.0, 0.0, 1.0)), 1.0)
        self.assertEqual(heisenberg_gauge((0.0, 0.0, -4.0)), 2.0)
        self.assertEqual(heisenberg_gauge((3.0, 4.0, 0.0)), 5.0)

    def test_dilation_is_homogeneous(self):
        p = (0.4, -0.9, 1.3)
        for s in (0.5, 2.0, 3.7):
            self.assertAlmostEqual(
                heisenberg_gauge(heisenberg_dilate(s, p)),
                s * heisenberg_gauge(p),
                places=12,
            )

    def test_distance_is_left_invariant(self):
        space = HeisenbergSpace()
        p, q, a = (0.1, 0.2, 0.3), (-0.5, 0.8, -1.0), (2.0, -1.0, 0.25)
        d0 = space.distance(p, q)
        d1 = space.distance(heisenberg_multiply(a, p), heisenberg_multiply(a, q))
        self.assertAlmostEqual(d0, d1, places=12)

    def test_space_flags(self):
        space = HeisenbergSpace()
        self.assertFalse(space.ultrametric)
        self.assertEqual(space.coordinate_dim, 3)


@given(
    x=coords, y=coords, t=coords,
    x2=coords, y2=coords, t2=coords,
    x3=coords, y3=coords, t3=coords,
)
def test_heisenberg_gauge_triangle_inequality(x, y, t, x2, y2, t2, x3, y3, t3):
    space = HeisenbergSpace()
    p, q, m = (x, y, t), (x2, y2, t2), (x3, y3, t3)
    assert space.distance(p, q) <= space.distance(p, m) + space.distance(m, q) + 1e-9


@given(
    x=coords, y=coords, t=coords,
    x2=coords, y2=coords, t2=coords,
    x3=coords, y3=coords, t3=coords,
)
def test_heisenberg_multiplication_is_associative(x, y, t, x2, y2, t2, x3, y3, t3):
    p, q, m = (x, y, t), (x2, y2, t2), (x3, y3, t3)
    left = heisenberg_multiply(heisenberg_multiply(p, q), m)
    right = heisenberg_multiply(p, heisenberg_multiply(q, m))
    for a, b in zip(left, right):
        assert a == pytest.approx(b, abs=1e-9)


# -- spec entries -----------------------------------------------------------------


def test_space_json_parses_every_kind():
    euclidean = space_from_json({"kind": "euclidean", "dim": 3})
    assert type(euclidean) is EuclideanSpace and euclidean.coordinate_dim == 3
    symbol = space_from_json({"kind": "symbol", "alphabet": 4})
    assert type(symbol) is SymbolSpace and symbol.alphabet.size == 4
    assert symbol.coordinate_dim is None
    comb = space_from_json({"kind": "comb", "r": "3/4"})
    assert type(comb) is CombSpace and comb.r == Fraction(3, 4) and comb.coordinate_dim == 2
    heisenberg = space_from_json({"kind": "heisenberg"})
    assert type(heisenberg) is HeisenbergSpace and heisenberg.coordinate_dim == 3
    flake = space_from_json({"kind": "snowflake", "base": {"kind": "euclidean", "dim": 2}, "p": 0.5})
    assert type(flake) is SnowflakeSpace and flake.p == 0.5 and type(flake.base) is EuclideanSpace
    assert flake.coordinate_dim == 2
    tree = space_from_json({"kind": "snowflake", "base": {"kind": "symbol", "alphabet": 3}, "p": 0.25})
    assert type(tree.base) is SymbolSpace and tree.ultrametric
    assert tree.coordinate_dim is None and tree.alphabet.size == 3


def test_space_json_unknown_kind():
    with pytest.raises(DomainError):
        space_from_json({"kind": "hilbert"})
