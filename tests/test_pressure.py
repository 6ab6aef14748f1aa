"""Finite-depth pressure, pressure zeros, and the closed-form dimensions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranlab import (
    DomainError,
    LevelModel,
    MultiplicativeModel,
    moran_dimension,
    pressure_at,
    pressure_curve,
    pressure_zero,
    self_affine_dimension,
    self_affine_pressure,
)

T_STAR = math.log(2) / math.log(3)


def cantor_model():
    return MultiplicativeModel((1 / 3, 1 / 3))


def supercantor_model():
    return LevelModel.from_level_ratios(lambda n: 2.0 ** (-2 + 1 / n), 2)


def nsq_model():
    return LevelModel.from_level_ratios(lambda n: 2.0 ** (-(2 * n - 1)), 2)


def harmonic(n):
    return sum(1.0 / k for k in range(1, n + 1))


# -- pressure values -----------------------------------------------------------


def test_pressure_vanishes_at_the_similarity_exponent():
    model = cantor_model()
    for depth in (5, 12, 20):
        assert pressure_at(model, T_STAR, depth) == pytest.approx(0.0, abs=1e-12)


def test_pressure_is_depth_free_for_multiplicative_models():
    model = MultiplicativeModel((1 / 3, 1 / 2))
    assert pressure_at(model, 0.7, 4) == pytest.approx(
        pressure_at(model, 0.7, 19), abs=1e-14
    )


def test_pressure_strictly_decreases_in_t():
    model = cantor_model()
    values = [pressure_at(model, t, 10) for t in (0.0, 0.3, 0.7, 1.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_pressure_closed_form_for_level_models():
    """For diam(level n) = 2^(-2n + H_n): P_n(1/2) = log(2) * H_n / (2n)."""
    model = supercantor_model()
    for n in (10, 30):
        assert pressure_at(model, 0.5, n) == pytest.approx(
            math.log(2) * harmonic(n) / (2 * n), abs=1e-13
        )


def test_pressure_square_exponent_model():
    # diam(level n) = 2^(-n^2): P_n(t) = log(2) (1 - t n)
    model = nsq_model()
    assert pressure_at(model, 0.1, 20) == pytest.approx(-math.log(2), abs=1e-12)
    assert pressure_at(model, 0.05, 20) == pytest.approx(0.0, abs=1e-12)


def test_pressure_argument_validation():
    model = cantor_model()
    with pytest.raises(DomainError):
        pressure_at(model, -0.1, 5)
    with pytest.raises(DomainError):
        pressure_at(model, 0.5, 0)


# -- pressure zeros ---------------------------------------------------------------


def test_cantor_zero_is_stable():
    zero = pressure_zero(cantor_model(), 16)
    assert zero.value == pytest.approx(T_STAR, abs=1e-11)
    assert zero.stable
    assert zero.drift == pytest.approx(0.0, abs=1e-11)
    assert float(zero) == zero.value


def test_drifting_zeros_of_the_slow_level_model():
    """Depth-n zero of the 2^(-2n+H_n) model is n / (2n - H_n), drifting."""
    model = supercantor_model()
    for depth in (10, 20, 30):
        zero = pressure_zero(model, depth)
        assert zero.value == pytest.approx(
            depth / (2 * depth - harmonic(depth)), abs=1e-11
        )
        assert not zero.stable
    zero = pressure_zero(model, 30)
    assert zero.reference_depth == 15
    assert zero.reference_value == pytest.approx(15 / (30 - harmonic(15)), abs=1e-11)
    assert zero.extrapolated == pytest.approx(
        2 * zero.value - zero.reference_value, abs=1e-15
    )
    # the drift is downward, toward the limiting value 1/2
    assert zero.drift < 0
    assert 0.5 < zero.extrapolated < zero.value


def test_square_exponent_zero_extrapolates_to_nought():
    zero = pressure_zero(nsq_model(), 12)
    assert zero.value == pytest.approx(1 / 12, abs=1e-9)
    assert zero.reference_value == pytest.approx(1 / 6, abs=1e-9)
    assert zero.extrapolated == pytest.approx(0.0, abs=1e-9)
    assert not zero.stable


def test_zero_absent_when_levels_do_not_contract():
    model = LevelModel.from_level_ratios(lambda n: 1.5, 2)
    with pytest.raises(DomainError):
        pressure_zero(model, 8)
    # 0.6**t underflows long before t = 2**40: the level sum falls back to
    # log space and stays finite
    scaled = MultiplicativeModel((0.6, 0.6), seed_diameter=10.0)
    big = 2.0**40
    assert pressure_at(scaled, big, 1) == pytest.approx(math.log(2) + big * math.log(0.6))
    # the seed diameter is divided out, so the zero is the similarity dimension
    assert pressure_zero(scaled, 1).value == pytest.approx(math.log(2) / math.log(5 / 3), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    ratios=st.lists(st.floats(0.02, 0.98), min_size=2, max_size=5),
    seed=st.floats(1e-3, 1e3),
)
def test_scaled_multiplicative_zero_is_the_moran_dimension(ratios, seed):
    model = MultiplicativeModel(ratios, seed_diameter=seed)
    want = moran_dimension(ratios)
    for depth in range(1, 13):
        zero = pressure_zero(model, depth)
        assert zero.value == pytest.approx(want, abs=1e-9), depth
        assert zero.stable


def test_zero_argument_validation():
    with pytest.raises(DomainError):
        pressure_zero(cantor_model(), 0)
    with pytest.raises(DomainError):
        pressure_zero(cantor_model(), 8, tol=0.0)


# -- closed-form dimensions ----------------------------------------------------------


def test_moran_dimension_examples():
    assert moran_dimension((1 / 3, 1 / 3)) == pytest.approx(T_STAR, abs=1e-11)
    assert moran_dimension((1 / 2, 1 / 2)) == pytest.approx(1.0, abs=1e-11)
    assert moran_dimension((1 / 4,) * 4) == pytest.approx(1.0, abs=1e-11)
    assert moran_dimension((1 / 2, 1 / 4)) == pytest.approx(
        0.6942419136306174, abs=1e-11
    )
    assert moran_dimension((0.5,)) == 0.0


def test_moran_dimension_validation():
    with pytest.raises(DomainError):
        moran_dimension(())
    with pytest.raises(DomainError):
        moran_dimension((0.5, 1.0))
    with pytest.raises(DomainError):
        moran_dimension((0.5, 0.0))


ratio = st.floats(min_value=0.15, max_value=0.8)


@given(r0=ratio, r1=ratio)
def test_moran_dimension_solves_its_equation(r0, r1):
    s = moran_dimension((r0, r1))
    assert r0**s + r1**s == pytest.approx(1.0, abs=1e-9)


half_ratio = st.floats(min_value=0.1, max_value=0.45)


@given(a0=half_ratio, a1=half_ratio, b0=half_ratio, b1=half_ratio)
def test_self_affine_pressure_vanishes_at_the_dimension(a0, a1, b0, b1):
    s = self_affine_dimension(a0, a1, b0, b1)
    assert 0.0 < s <= 1.0
    assert self_affine_pressure(a0, a1, b0, b1, s) == pytest.approx(0.0, abs=1e-9)


def test_self_affine_examples():
    assert self_affine_dimension(1 / 2, 1 / 2, 1 / 3, 1 / 3) == pytest.approx(
        1.0, abs=1e-11
    )
    assert self_affine_dimension(1 / 3, 1 / 3, 1 / 4, 1 / 4) == pytest.approx(
        T_STAR, abs=1e-11
    )
    expected = max(
        math.log(2 * (1 / 3) ** 0.5), math.log(2 * (1 / 4) ** 0.5)
    )
    assert self_affine_pressure(1 / 3, 1 / 3, 1 / 4, 1 / 4, 0.5) == pytest.approx(
        expected, rel=1e-12
    )


def test_self_affine_feasibility():
    with pytest.raises(DomainError):
        self_affine_dimension(0.6, 0.5, 0.3, 0.3)
    with pytest.raises(DomainError):
        self_affine_dimension(0.5, 0.5, 0.0, 0.3)
    with pytest.raises(DomainError):
        self_affine_pressure(0.5, 0.5, 0.3, 0.3, -1.0)


# -- curves ------------------------------------------------------------------------


def test_pressure_curve_csv_layout():
    curve = pressure_curve(cantor_model(), (0.5, T_STAR), 10)
    text = curve.to_csv()
    lines = text.splitlines()
    assert lines[0] == "t,pressure,depth"
    assert lines[1] == "0.5,0.143841036226,10"
    assert len(lines) == 3
    assert text.endswith("\n")
