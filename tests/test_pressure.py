"""Finite-depth pressure, pressure zeros, and the closed-form dimensions."""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranlab import (
    Alphabet,
    DomainError,
    GeneralModel,
    LevelModel,
    MultiplicativeModel,
    RectangleModel,
    moran_dimension,
    pressure_at,
    pressure_zero,
    self_affine_dimension,
    self_affine_pressure,
)
from moranlab import cli
from moranlab.pressure import _TOL, _bisect_zero
from moranlab.specio import LoadedSpec, load_spec

T_STAR = math.log(2) / math.log(3)
SPECS = Path(__file__).resolve().parent.parent / "specs"


def cantor_model():
    return MultiplicativeModel((1 / 3, 1 / 3))


def supercantor_model():
    return LevelModel(lambda n: 2.0 ** (-2 + 1 / n), 2)


def nsq_model():
    return LevelModel(lambda n: 2.0 ** (-(2 * n - 1)), 2)


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
    model = LevelModel(lambda n: 1.5, 2)
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
    # the CLI renders the curve: its pressure handler on the same model
    argv = ["pressure", "model.json", "--t-grid", "0.5,%r" % T_STAR, "--depth", "10"]
    args = cli.build_parser().parse_args(argv)
    text, code = args.func(LoadedSpec("cantor", model=cantor_model()), args)
    lines = text.splitlines()
    assert code == 0
    assert lines[0] == "t,pressure,depth"
    assert lines[1] == "0.5,0.143841036226,10"
    assert len(lines) == 3
    assert text.endswith("\n")


# -- the zero finder against plain bisection -------------------------------------------


def bisection_zero(f, tol):
    """Plain bisection, the zero finder the grid secant search replaced."""
    lo, flo = 0.0, f(0.0)
    if flo < 0:
        raise DomainError("pressure is negative already at t = 0")
    if flo == 0.0:
        return 0.0
    hi = 1.0
    while f(hi) > 0:
        lo = hi
        hi *= 2.0
        if hi > 2.0**40:
            raise DomainError("no pressure zero at this depth: P(t) stays positive")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def counted(f):
    calls = []

    def g(*args):
        calls.append(args)
        return f(*args)

    return g, calls


TOLS = st.sampled_from([1e-12, 1e-9, 1e-6])


def assert_zeros_match_bisection(model, depth, tol):
    """At ``pressure_zero``'s two depths, the zero finder at ``tol`` finds the
    bisection's zero; at ``_TOL`` that zero is the one ``pressure_zero`` reports."""
    zero = pressure_zero(model, depth)
    for value, n in ((zero.value, zero.depth), (zero.reference_value, zero.reference_depth)):
        f = lambda t: pressure_at(model, t, n)  # noqa: E731
        want = bisection_zero(f, tol)
        assert _bisect_zero(f, tol) == want, n
        assert tol != _TOL or value == want, n


@settings(max_examples=60, deadline=None)
@given(
    ratios=st.lists(st.floats(0.02, 0.98), min_size=2, max_size=5),
    seed=st.floats(1e-3, 1e3).filter(lambda s: s != 1.0),
    depth=st.integers(1, 14),
    tol=TOLS,
)
def test_multiplicative_zeros_are_the_bisection_zeros(ratios, seed, depth, tol):
    assert_zeros_match_bisection(MultiplicativeModel(ratios, seed_diameter=seed), depth, tol)


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(2, 9),
    ratios=st.lists(st.floats(0.55, 0.95), min_size=1, max_size=6),
    depth=st.integers(1, 30),
    tol=TOLS,
)
def test_level_zeros_above_one_are_the_bisection_zeros(size, ratios, depth, tol):
    """The zero, ``log(size)`` over the mean of ``-log(ratio)``, is above 1
    here, often far above: the doubling phase brackets it first."""
    model = LevelModel(lambda n: ratios[(n - 1) % len(ratios)], size)
    assert_zeros_match_bisection(model, depth, tol)


@settings(max_examples=40, deadline=None)
@given(
    a=st.lists(st.floats(0.05, 0.5), min_size=2, max_size=3),
    b=st.lists(st.floats(0.05, 0.5), min_size=3, max_size=3),
    depth=st.integers(1, 8),
    tol=TOLS,
)
def test_rectangle_zeros_are_the_bisection_zeros(a, b, depth, tol):
    assert_zeros_match_bisection(RectangleModel(a, b[: len(a)]), depth, tol)


@settings(max_examples=40, deadline=None)
@given(
    ratios=st.lists(st.floats(0.05, 0.6), min_size=2, max_size=3),
    wobble=st.floats(0.0, 0.3),
    depth=st.integers(1, 7),
    tol=TOLS,
)
def test_wobbly_general_zeros_are_the_bisection_zeros(ratios, wobble, depth, tol):
    logs = [math.log(r) for r in ratios]

    def log_diam(word):
        return sum(logs[s] for s in word) + wobble * math.cos(sum(word) + len(word))

    assert_zeros_match_bisection(GeneralModel(log_diam, Alphabet(len(ratios))), depth, tol)


@settings(max_examples=80, deadline=None)
@given(ratios=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6), tol=TOLS)
def test_moran_dimension_is_the_bisection_zero(ratios, tol):
    f = lambda t: sum(r**t for r in ratios) - 1.0  # noqa: E731
    want = bisection_zero(f, tol)
    assert _bisect_zero(f, tol) == want
    assert tol != _TOL or moran_dimension(ratios) == want


def test_zero_finder_edge_cases_match_bisection():
    assert _bisect_zero(lambda t: -t, 1e-12) == 0.0
    for f, message in (
        (lambda t: -1.0 - t, "pressure is negative already at t = 0"),
        (lambda t: 1.0, "no pressure zero at this depth: P(t) stays positive"),
    ):
        with pytest.raises(DomainError) as err:
            _bisect_zero(f, 1e-12)
        assert str(err.value) == message
    # a tolerance wider than the first bracket: no halving at all
    for f in (lambda t: 0.3 - t, lambda t: 5.0 - t):
        assert _bisect_zero(f, 4.0) == bisection_zero(f, 4.0)


def test_zero_beyond_a_float_grid_of_tol_ends():
    """Above 2**13 the floats are further apart than 1e-12, so bisection's
    halving stalls between two neighbours and never ends; the grid search
    counts cells in integers and ends next to the zero."""
    model = LevelModel(lambda n: 0.99995, 2)
    assert pressure_zero(model, 1).value == pytest.approx(
        math.log(2) / -math.log(0.99995), rel=1e-15
    )


@settings(max_examples=100, deadline=None)
@given(
    slope=st.floats(0.1, 10.0),
    root=st.floats(0.01, 6.0),
    nan_from=st.floats(0.0, 3.0),
    nan_at_zero=st.booleans(),
    tol=TOLS,
)
def test_nan_values_count_as_not_positive(slope, root, nan_from, nan_at_zero, tol):
    """NaN right of the zero (as from an overflowing level sum), and at 0."""
    cut = root + nan_from

    def f(t):
        if t > cut or (nan_at_zero and t == 0.0):
            return math.nan
        return math.expm1(slope * (root - t))

    assert _bisect_zero(f, tol) == bisection_zero(f, tol)


@pytest.mark.parametrize("k", [1.0, 30.0, 300.0, 3000.0, 30000.0])
@pytest.mark.parametrize("tol", [1e-12, 1e-6])
@pytest.mark.parametrize(
    "shape",
    [
        lambda k: lambda t: math.exp(-k * t) - 1e-6,
        lambda k: lambda t: max(0.0, 1.0 - t) ** k - 1e-9,
    ],
    ids=["exp", "power"],
)
def test_step_like_convex_functions_cost_at_most_twice_the_bisection(shape, k, tol):
    """A sharp drop, then nearly flat: regula falsi's slow case."""
    new, new_calls = counted(shape(k))
    ref, ref_calls = counted(shape(k))
    assert _bisect_zero(new, tol) == bisection_zero(ref, tol)
    assert len(new_calls) <= 2 * len(ref_calls)


@pytest.mark.parametrize(
    "name, depths",
    [("cantor", (16,)), ("supercantor", (10, 20, 30)), ("selfaffine", (16,)), ("nsq", (12,))],
)
def test_shipped_zeros_take_few_level_sums(name, depths):
    """At most 16 pressure evaluations per ``pressure_zero`` (value and
    reference zero together) on every shipped model, where bisection made 84."""
    model = load_spec(SPECS / ("%s.json" % name)).get_model()
    model.level_log_sum, calls = counted(model.level_log_sum)
    for depth in depths:
        assert_zeros_match_bisection(model, depth, 1e-12)
        calls.clear()
        pressure_zero(model, depth)
        assert len(calls) <= 16, (depth, len(calls))
