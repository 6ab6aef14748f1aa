"""Vectorised distance kernels and the fast paths built on them.

Each fast path is checked against a scalar reference: the kernels against
``space.distance``, greedy covers and packings against the pairwise scan,
level-by-level clouds against ``apply_word``, and the integer levels of
exact systems against exact scalar arithmetic.
"""

import math
import warnings
from collections import Counter
from fractions import Fraction
from bisect import bisect_left
from functools import reduce
from itertools import combinations, cycle, islice, product
from numbers import Rational
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moranlab import (
    GOLDEN_RATIO,
    Affine2DMap,
    Alphabet,
    CarnotMap,
    CombMap,
    CombSpace,
    ContractionSystem,
    DomainError,
    EnumerationCapError,
    EuclideanSpace,
    HeisenbergSpace,
    PointCloud,
    QuadraticNumber,
    SimilitudeMap,
    SnowflakeSpace,
    SymbolMap,
    SymbolSpace,
    attractor_cloud,
    box_count,
    finite_clustering_sup,
    load_spec,
    local_stopping_set,
    maximal_packing,
    minkowski_estimate,
    osc_collision_scan,
    pressure_zero,
    semiconformal_bounds,
    separation_epsilon,
    stopping_set,
)
from moranlab import systems
from moranlab.cli import _cloud_csv, _default_scales
from moranlab.dimension import _greedy_centers
from moranlab.models import GeneralModel
from moranlab.spaces import ball_bound, row_minima, spacing
from moranlab.systems import (
    ContractionMap,
    _IntegerLevel,
    _RowLevel,
    _integer_levels,
    _sampled_diameter,
)
from moranlab.words import block_rows, incomparable, local_stopping_sets, word_str

SPECS = Path(__file__).resolve().parent.parent / "specs"
T_STAR = math.log(2) / math.log(3)


def snowflake_cantor():
    cantor = load_spec(SPECS / "cantor.json").require_system()
    return ContractionSystem(
        SnowflakeSpace(EuclideanSpace(1), 0.5), cantor.maps, cantor.seed_points,
        seed_diameter=1.0,
    )


# -- snowflaked systems ----------------------------------------------------------


def test_snowflake_epsilon_matches_brute_force():
    system = snowflake_cantor()
    words = list(system.alphabet.words_up_to(4))
    points = [system.apply_word(w, (0.5,)) for w in words]
    lowers = [system.word_lip_bounds(w)[0] for w in words]
    brute = min(
        system.space.distance(points[i], points[j]) / (lowers[i] + lowers[j])
        for i, j in combinations(range(len(words)), 2)
        if incomparable(words[i], words[j])
    )
    assert separation_epsilon(system, (0.5,), 4) == pytest.approx(brute, rel=1e-12)


def test_snowflake_contraction_bounds_are_raised_to_p():
    system = snowflake_cantor()
    lo, hi, exact = system.word_lip_bounds((0, 1))
    assert (lo, hi, exact) == (pytest.approx(1 / 3), pytest.approx(1 / 3), True)
    model = system.induced_model()
    assert model.ratios == (pytest.approx(3**-0.5), pytest.approx(3**-0.5))
    assert pressure_zero(model, 16).value == pytest.approx(T_STAR / 0.5, abs=1e-9)


# -- strategies ------------------------------------------------------------------

floats = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
fractions = st.fractions(min_value=-10, max_value=10, max_denominator=10**6)
quadratics = st.builds(
    lambda a, b: QuadraticNumber(a, b, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=1000),
    st.fractions(min_value=-3, max_value=3, max_denominator=1000),
)
exponents = st.floats(min_value=0.1, max_value=0.9)


def tuples(scalars, dim, max_size=12):
    point = st.tuples(*[scalars] * dim)
    return st.lists(point, min_size=1, max_size=max_size)


words = st.lists(st.integers(0, 2), max_size=8).map(tuple)


@st.composite
def float_clouds(draw):
    """A space and float-coordinate points of its kind."""
    kind = draw(st.sampled_from(["euclidean", "comb", "heisenberg", "symbol", "snowflake"]))
    if kind == "euclidean":
        dim = draw(st.integers(1, 3))
        return EuclideanSpace(dim), draw(tuples(floats, dim))
    if kind == "comb":
        return CombSpace(0.5), draw(tuples(floats, 2))
    if kind == "heisenberg":
        return HeisenbergSpace(), draw(tuples(floats, 3))
    symbol = SymbolSpace(Alphabet(3))
    if kind == "symbol":
        return symbol, draw(st.lists(words, min_size=1, max_size=12))
    base, points = draw(
        st.sampled_from(
            [(EuclideanSpace(2), tuples(floats, 2)), (symbol, st.lists(words, min_size=1))]
        )
    )
    return SnowflakeSpace(base, draw(exponents)), draw(points)


def scalar_distances(space, points, q):
    return [space.distance(p, q) for p in points]


def one_query(space, X, q):
    """The kernel's row for the single query point ``q``: a one-row block."""
    return space.distances(X, space.coordinates([q]))[0]


# -- kernels against the scalar distance --------------------------------------------


@settings(max_examples=200, deadline=None)
@given(data=float_clouds(), pick=st.integers(0, 11))
def test_kernel_is_bit_identical_on_float_coordinates(data, pick):
    space, points = data
    q = points[pick % len(points)]
    got = one_query(space, space.coordinates(points), q)
    assert got.tolist() == scalar_distances(space, points, q)


@settings(max_examples=100, deadline=None)
@given(points=st.lists(words, min_size=1, max_size=12), q=words)
def test_symbol_kernel_takes_queries_of_any_width(points, q):
    space = SymbolSpace(Alphabet(3))
    got = one_query(space, space.coordinates(points), q)
    assert got.tolist() == scalar_distances(space, points, q)


def assert_within_ulps(got, want, points, q):
    scale = max(abs(float(c)) for p in (*points, q) for c in p)
    tol = 8 * math.ulp(max(scale, 1.0))
    for g, w in zip(got.tolist(), want):
        assert abs(g - w) <= tol


@settings(max_examples=50, deadline=None)
@given(scalars=st.sampled_from([fractions, quadratics]), dim=st.integers(1, 3), data=st.data())
def test_kernel_is_within_ulps_on_exact_coordinates(scalars, dim, data):
    points = data.draw(tuples(scalars, dim))
    q = data.draw(st.sampled_from(points))
    space = EuclideanSpace(dim)
    X = space.coordinates(points)
    assert X.tolist() == [[float(c) for c in p] for p in points]
    assert_within_ulps(one_query(space, X, q), scalar_distances(space, points, q), points, q)


@settings(max_examples=25, deadline=None)
@given(points=tuples(quadratics, 2, max_size=6))
def test_comb_kernel_on_quadratic_coordinates(points):
    space = CombSpace(GOLDEN_RATIO)
    q = points[0]
    got = one_query(space, space.coordinates(points), q)
    assert_within_ulps(got, scalar_distances(space, points, q), points, q)
    assert got[0] == 0.0


# -- ball tests against the kernel ----------------------------------------------------


@st.composite
def ball_cases(draw):
    """A space, its rows and query rows, and radii at and around realised distances;
    float query rows may hold +-0.0, 5e-324, +-inf and NaN coordinates."""
    if draw(st.booleans()):
        space, X, _ = draw(float_row_blocks())
        tiny = st.sampled_from([0.0, -0.0, 5e-324, -5e-324])
        Q = space.coordinates(draw(tuples(st.one_of(tiny, awkward_floats), X.shape[1], max_size=4)))
    else:
        space, points = draw(float_clouds())
        X = space.coordinates(points)
        Q = space.coordinates(draw(st.lists(st.sampled_from(points), min_size=1, max_size=4)))
    with np.errstate(all="ignore"):
        d = draw(st.sampled_from(space.distances(X, Q).ravel().tolist()))
    around = [d, math.nextafter(d, -math.inf), math.nextafter(d, math.inf)]
    return space, X, Q, around + [0.0, -0.0, 5e-324, math.inf, math.nan]


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@settings(max_examples=200, deadline=None)
@given(case=ball_cases())
def test_ball_test_is_the_kernel_compared_with_r(case):
    """``within(X, q, r)`` on each query row ``q`` is that row of the kernel ``<= r``."""
    space, X, Q, radii = case
    with np.errstate(all="ignore"):
        D = space.distances(X, Q)
        for q, row in zip(Q, D):
            for r in radii:
                assert np.array_equal(space.within(X, q, r), row <= r), r


def nested_sqrt(s, roots):
    for _ in range(roots):
        s = math.sqrt(s)
    return s


@settings(max_examples=300, deadline=None)
@given(r=st.floats(min_value=5e-324, max_value=1e300), roots=st.sampled_from([1, 2]))
@example(r=5e-324, roots=2)
@example(r=1e-160, roots=1)
@example(r=1e-80, roots=2)
@example(r=1e300, roots=2)
@example(r=0.25, roots=2)
def test_ball_bound_is_the_last_float_inside_the_ball(r, roots):
    bound = ball_bound(r, roots)
    assert nested_sqrt(bound, roots) <= r < nested_sqrt(math.nextafter(bound, math.inf), roots)


def test_ball_bound_at_the_edges_of_the_radii():
    for roots in (1, 2):
        assert ball_bound(0.0, roots) == ball_bound(-0.0, roots) == 0.0
        assert ball_bound(math.inf, roots) == math.inf
        for r in (-5e-324, -1.0, -math.inf, math.nan):
            assert ball_bound(r, roots) == -math.inf
    # a rational radius is compared exactly, as numpy compares a float with it
    assert ball_bound(Fraction(1, 10), 1) < 0.01 <= ball_bound(0.1, 1)


def test_kernels_reject_mismatched_dimensions():
    with pytest.raises(DomainError):
        EuclideanSpace(2).coordinates([(0.0, 1.0), (2.0,)])
    X = EuclideanSpace(2).coordinates([(0.0, 1.0)])
    with pytest.raises(DomainError):
        EuclideanSpace(2).distances(X, np.zeros((1, 1)))


# -- greedy covers and packings against the pairwise scan ---------------------------


def scalar_centers(space, points, sep):
    """The seed's greedy scan: keep p when d(p, c) > sep for every kept c."""
    centers = []
    for p in points:
        if all(space.distance(p, c) > sep for c in centers):
            centers.append(p)
    return centers


def scalar_packing(space, center, R, r, points):
    window = [p for p in points if space.distance(p, center) <= R]
    return scalar_centers(space, window, r if space.ultrametric else 2 * r)


@settings(max_examples=150, deadline=None)
@given(data=float_clouds(), r=st.floats(min_value=0.01, max_value=5.0), R=st.floats(0.1, 20.0))
def test_greedy_cover_and_packing_match_the_scan(data, r, R):
    space, points = data
    cloud = PointCloud(space, 0, 1, len(points), tuple(points))
    assert box_count(cloud, r) == len(scalar_centers(space, points, r))
    want = scalar_packing(space, points[0], R, r, points)
    assert maximal_packing(space, points[0], R, r, points) == want
    assert maximal_packing(space, points[0], R, r, cloud) == want


SHIPPED_SYSTEMS = ("cantor", "comb", "heisenberg", "selfaffine", "symbolifs")


def shipped_system(name):
    return load_spec(SPECS / ("%s.json" % name)).require_system()


@pytest.mark.parametrize("name", SHIPPED_SYSTEMS)
def test_greedy_cover_on_shipped_clouds_matches_the_scan(name):
    system = shipped_system(name)
    depth = 2 if name == "heisenberg" else 6
    cloud = attractor_cloud(system, depth)
    space, pts = cloud.space, cloud.points
    diam = max(one_query(space, cloud.coordinates, p).max() for p in pts)
    for k in range(1, 8):
        r = 0.6 * diam * 2.0**-k
        assert box_count(cloud, r) == len(scalar_centers(space, pts, r)), r
        assert maximal_packing(space, pts[0], diam, r, cloud) == scalar_packing(
            space, pts[0], diam, r, pts
        ), r


def dyadic_comb():
    """A comb of ratio 1/2: every coordinate and many distances are dyadic."""
    half = Fraction(1, 2)
    maps = (CombMap(half, 0), CombMap(half, 1))
    return ContractionSystem(CombSpace(half), maps, ((0, half), (Fraction(1, 4), 1)))


@pytest.mark.parametrize("system, depth, radii", [
    (lambda: shipped_system("heisenberg"), 3, (0.5, 0.25)),
    (dyadic_comb, 7, (0.25, 0.5, 1.0)),
], ids=["heisenberg", "dyadic comb"])
def test_greedy_centers_equal_the_scan_at_tied_radii(system, depth, radii):
    """At a radius that is an exact pairwise distance, a ball bound one float
    below ``r**2`` (or ``r**4``) drops the tied pairs and moves a centre; the
    centres are those of the scalar scan."""
    cloud = attractor_cloud(system(), depth)
    space, X, pts = cloud.space, cloud.coordinates, cloud.points
    for r in radii:
        assert np.any(space.distances(X, X[:16]) == r), r
        assert [pts[k] for k in _greedy_centers(space, X, r)] == scalar_centers(space, pts, r), r


# -- level-by-level clouds against apply_word ----------------------------------------


@pytest.mark.parametrize("name", SHIPPED_SYSTEMS)
def test_level_cloud_equals_apply_word(name):
    system = shipped_system(name)
    size = system.alphabet.size
    depth = max(d for d in range(1, 5) if size**d <= 4096)
    seeds = system.seed_points[:2]
    cloud = attractor_cloud(system, depth, samples_per_leaf=len(seeds))
    words = [w for w in system.alphabet.words(depth) for _ in seeds]
    want = tuple(system.apply_word(w, p) for w, p in zip(words, seeds * size**depth))
    assert cloud.labels == tuple(words)
    assert tuple(cloud.points) == want
    types = lambda pts: [type(c) for p in pts for c in p]  # noqa: E731
    assert types(cloud.points) == types(want)


@pytest.mark.parametrize("name", SHIPPED_SYSTEMS)
def test_piece_is_the_range_of_matching_labels(name):
    system = shipped_system(name)
    cloud = attractor_cloud(system, 2, samples_per_leaf=len(system.seed_points[:2]))
    for w in [(), *system.alphabet.words_up_to(2)]:
        scan = [k for k, lab in enumerate(cloud.labels) if lab[: len(w)] == w]
        piece = cloud.piece(w)
        assert list(range(piece.start, piece.stop)) == scan


# -- index-addressed clouds against the eager builder they replaced -------------------


def eager_cloud(system, depth, samples_per_leaf):
    """The eager builder: every label and every exact point up front, as tuples."""
    seeds = system.seed_points[:samples_per_leaf]
    labels = tuple(w for w in system.alphabet.words(depth) for _ in seeds)
    levels = _integer_levels(system, seeds)
    if levels is None:
        words = system.alphabet.words(depth)
        return labels, tuple(system.apply_word(w, p) for w in words for p in seeds)
    level = next(islice(levels, depth - 1, None))
    den, d = level.den, level.d
    if level.b is None:
        cols = [[Fraction(a, den) for a in col] for col in level.a]
    else:
        cols = [
            [QuadraticNumber(Fraction(a, den), Fraction(b, den), d) for a, b in zip(ca, cb)]
            for ca, cb in zip(level.a, level.b)
        ]
    return labels, tuple(zip(*cols))


def bisect_piece(labels, word):
    """Index range of the labels that start with ``word``, by bisection."""
    if not word:
        return slice(0, len(labels))
    lo = bisect_left(labels, word)
    return slice(lo, bisect_left(labels, word[:-1] + (word[-1] + 1,), lo))


def eager_csv(space, labels, points):
    if space.coordinate_dim is None:
        rows = ["%s,%s" % (word_str(w), word_str(tuple(p))) for w, p in zip(labels, points)]
        return "\n".join(["word,point"] + rows) + "\n"
    dim = len(points[0])
    names = ["x", "y", "z"][:dim] if dim <= 3 else ["c%d" % i for i in range(dim)]
    rows = ["%s,%s" % (word_str(w), ",".join("%.12g" % float(c) for c in p))
            for w, p in zip(labels, points)]
    return "\n".join(["word," + ",".join(names)] + rows) + "\n"


def golden_comb():
    """Quadratic points with three samples per piece."""
    maps = (CombMap(GOLDEN_RATIO, 0), CombMap(GOLDEN_RATIO, 1))
    seeds = ((0, Fraction(1, 2)), (GOLDEN_RATIO, 1), (Fraction(1, 3), QuadraticNumber(0, 1, 5)))
    return ContractionSystem(CombSpace(GOLDEN_RATIO), maps, seeds)


INDEXED_SYSTEMS = {name: shipped_system for name in SHIPPED_SYSTEMS}
INDEXED_SYSTEMS["golden comb"] = lambda _: golden_comb()


def check_indexed_cloud(system, depth, samples):
    cloud = attractor_cloud(system, depth, samples_per_leaf=samples)
    labels, want = eager_cloud(system, depth, samples)
    assert (cloud.depth, cloud.size, cloud.samples) == (depth, system.alphabet.size, samples)
    assert len(cloud) == len(cloud.points) == len(want)
    assert cloud.labels == labels
    assert tuple(cloud.points) == want
    types = lambda pts: [type(c) for p in pts for c in p]  # noqa: E731
    assert types(cloud.points) == types(want)
    for w in [(), *system.alphabet.words_up_to(depth + 1)]:
        assert cloud.piece(w) == bisect_piece(labels, w), w
    assert _cloud_csv(cloud) == eager_csv(system.space, labels, want)


@pytest.mark.parametrize("name", INDEXED_SYSTEMS)
def test_indexed_cloud_equals_the_eager_builder(name):
    system = INDEXED_SYSTEMS[name](name)
    depth = 2 if name == "heisenberg" else 4
    for samples in range(1, len(system.seed_points) + 1):
        check_indexed_cloud(system, depth, samples)


@pytest.mark.parametrize("name", ["cantor", "golden comb", "heisenberg", "symbolifs"])
def test_indexed_points_index_and_slice_as_a_tuple(name):
    system = INDEXED_SYSTEMS[name](name)
    depth = 2 if name == "heisenberg" else 4
    samples = len(system.seed_points[:2])
    points = attractor_cloud(system, depth, samples_per_leaf=samples).points
    _, want = eager_cloud(system, depth, samples)
    n, stride = len(want), max(1, len(want) // 5)
    assert bool(points) and len(points) == n
    slices = [
        slice(None, None, stride), slice(None, 5 * stride, stride), slice(3, None),
        slice(n - 2, None), slice(-3, None), slice(None, None, -1), slice(5, 2),
        slice(n + 4, None), slice(-2 * n, 2 * n, 3), slice(None),
    ]
    # first on rows not built yet, then again once every row is built
    for s in slices + [slice(k, None) for k in range(n)] + slices:
        got = points[s]
        assert type(got) is tuple and got == want[s], s
    assert points[::stride][:5] == want[::stride][:5]
    for k in [*range(-n, n), np.int64(3), np.int64(-1)]:
        assert points[k] == want[k]
    for k in (n, -n - 1, 10**9):
        with pytest.raises(IndexError):
            points[k]
    with pytest.raises(TypeError):
        points[1.0]
    assert list(points) == list(want)
    assert list(zip(points, want)) == list(zip(want, want))
    assert list(reversed(points)) == list(reversed(want))
    assert want[-1] in points and points.index(want[-1]) == want.index(want[-1])


@pytest.fixture
def built_rows(monkeypatch):
    """Indices of the exact rows built, in build order."""
    built, point = [], _IntegerLevel.point

    def counted(level, k):
        built.append(int(k))
        return point(level, k)

    monkeypatch.setattr(_IntegerLevel, "point", counted)
    return built


def test_exact_clouds_build_only_the_rows_a_call_returns_or_samples(built_rows):
    system = shipped_system("cantor")
    cloud = attractor_cloud(system, 16)
    n = len(cloud)
    assert n == 2**16 and built_rows == []
    assert box_count(cloud, 3.0**-5) == 32 <= box_count(cloud, 3.0**-5, "grid")
    minkowski_estimate(cloud, 3.0**-6, 1.0 / 3.0, 4)
    _cloud_csv(cloud)
    assert built_rows == []
    chosen = maximal_packing(system.space, (0.5,), 0.4, 3.0**-5, cloud)
    assert len(chosen) == len(built_rows) == len(set(built_rows)) > 1
    rows = list(built_rows)
    assert [cloud.points[k] for k in rows] == chosen
    # points are not kept: each read builds its row again
    assert built_rows == rows + rows
    built_rows.clear()
    model = system.induced_model(cloud)
    assert built_rows == []
    # W1 maps 32 sampled points, when it runs
    assert model.containment_check()[0]
    stride = n // 128
    assert built_rows == list(range(0, 32 * stride, stride))
    built_rows.clear()
    # the probes query the cloud's rows
    assert finite_clustering_sup(model, cloud, 20, [0.2, 0.05]) >= 1
    assert built_rows == []


# -- memory layouts ------------------------------------------------------------------
#
# Float clouds store their coordinates column-major; the kernels must return the
# same floats (and NaNs in the same places) on every layout and view they meet.

awkward_floats = st.one_of(floats, st.sampled_from([math.inf, -math.inf, math.nan, 1e200, -1e200]))


@st.composite
def float_row_blocks(draw):
    """A float space, its rows and a block of query rows, infinities and NaNs included."""
    kind = draw(st.sampled_from(["euclidean", "comb", "heisenberg", "snowflake"]))
    dim = {"comb": 2, "heisenberg": 3}.get(kind) or draw(st.integers(1, 3))
    space = {"comb": CombSpace(0.5), "heisenberg": HeisenbergSpace()}.get(kind) or EuclideanSpace(dim)
    if kind == "snowflake":
        space = SnowflakeSpace(space, draw(exponents))
    X = space.coordinates(draw(tuples(awkward_floats, dim)))
    return space, X, space.coordinates(draw(tuples(awkward_floats, dim, max_size=5)))


def same_floats(a, b):
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@settings(max_examples=200, deadline=None)
@given(case=float_row_blocks(), data=st.data())
def test_kernels_return_the_same_floats_on_every_layout(case, data):
    space, X, Q = case
    C, F = np.ascontiguousarray, np.asfortranarray
    want = space.distances(C(X), C(Q))
    for x, q in product((C, F), repeat=2):
        assert same_floats(space.distances(x(X), q(Q)), want)
    i = data.draw(st.integers(0, len(X) - 1))
    idx = data.draw(st.lists(st.integers(0, len(X) - 1), min_size=1, max_size=8))
    for layout in (C, F):
        Y = layout(X)
        # row slices, as the greedy cover reads them, and gathers
        for rows, queries in [(Y[i + 1 :], Y[i : i + 1]), (Y, Y[i : i + 1]), (Y[idx], Y[idx])]:
            assert same_floats(space.distances(rows, queries), space.distances(C(rows), C(queries)))


@pytest.mark.parametrize("name", SHIPPED_SYSTEMS)
def test_shipped_clouds_store_float_coordinates_column_major(name):
    system = shipped_system(name)
    clouds = [attractor_cloud(system, 2, samples_per_leaf=len(system.seed_points[:2]))]
    if name == "cantor":
        clouds.append(attractor_cloud(snowflake_cantor(), 3))
    for cloud in clouds:
        X = cloud.coordinates
        assert X.flags.f_contiguous and X.shape[1] > 0
        assert X.dtype.kind == "u" if isinstance(cloud.space, SymbolSpace) else X.dtype == float


# -- the symbol tree: rows and kernel against the builders they replaced -------------


def per_word_symbol_rows(space, points):
    """The symbol rows as they were built: a zero array, filled word by word."""
    width = max((len(w) for w in points), default=0)
    dtype = np.min_scalar_type(max(width, space.alphabet.size - 1))
    X = np.zeros((len(points), width + 1), dtype=dtype)
    for k, w in enumerate(points):
        X[k, 0] = len(w)
        X[k, 1 : len(w) + 1] = w
    return X


def masked_symbol_distances(X, Q):
    """The symbol kernel as it was: both length masks, then the first difference."""
    m = min(X.shape[1], Q.shape[1]) - 1
    if m == 0:
        return np.zeros((len(Q), len(X)))
    k = np.arange(m)
    differ = (X[:, 1 : m + 1] != Q[:, None, 1 : m + 1]) & (k < X[:, :1]) & (k < Q[:, None, :1])
    return np.where(differ.any(axis=2), np.ldexp(1.0, -differ.argmax(axis=2)), 0.0)


@st.composite
def symbol_words(draw):
    """An alphabet (300 letters need two-byte rows), words and query words,
    each list with its own largest length, so queries are wider or narrower
    (words past 255 letters need two-byte rows and letter weights)."""
    size = draw(st.sampled_from([2, 3, 300]))
    letters = st.integers(0, size - 1)

    def word_lists(min_size):
        longest = draw(st.sampled_from([0, 1, 3, 8, 300]))
        # a short word repeated to its length, so long words come cheap
        word = st.tuples(st.lists(letters, min_size=1, max_size=8), st.integers(0, longest))
        word = word.map(lambda c: tuple(islice(cycle(c[0]), c[1])))
        return draw(st.lists(word, min_size=min_size, max_size=12))

    return SymbolSpace(Alphabet(size)), word_lists(0), word_lists(1)


@settings(max_examples=300, deadline=None)
@given(case=symbol_words())
@example(case=(SymbolSpace(Alphabet(300)), [tuple(range(300)), (0,) * 290],
               [tuple(range(280)) + (5,) * 20, (299,) * 299]))  # letter weights past 255
def test_symbol_rows_and_kernel_equal_the_masked_reference(case):
    space, points, queries = case
    for ws in (points, queries):
        got, want = space.coordinates(ws), per_word_symbol_rows(space, ws)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    X, Q = space.coordinates(points), space.coordinates(queries)
    got = space.distances(X, Q)
    assert got.shape == (len(queries), len(points))
    assert np.array_equal(got, masked_symbol_distances(X, Q))
    assert np.array_equal(space.distances(Q, X), masked_symbol_distances(Q, X))
    assert got.tolist() == [scalar_distances(space, points, q) for q in queries]
    # the same floats on C or F rows, row slices and gathers
    C, F = np.ascontiguousarray, np.asfortranarray
    idx = list(range(len(X)))[::-2]
    for x, q in product((C, F), repeat=2):
        assert np.array_equal(space.distances(x(X), q(Q)), got)
        assert np.array_equal(space.distances(x(X)[1:], q(Q)[:1]), got[:1, 1:])
        assert np.array_equal(space.distances(x(X)[idx], q(Q)[::-1]), got[::-1][:, idx])


# -- probes against scalar references --------------------------------------------------


@pytest.mark.parametrize(
    "name, depth", [("cantor", 4), ("comb", 4), ("heisenberg", 2), ("selfaffine", 4), ("symbolifs", 3)]
)
def test_separation_epsilon_matches_the_pairwise_scan(name, depth):
    system = shipped_system(name)
    x = system.seed_points[0]
    words = list(system.alphabet.words_up_to(depth))
    points = [system.apply_word(w, x) for w in words]
    try:
        lowers = [system.word_lip_bounds(w)[0] for w in words]
    except DomainError:
        lowers = [semiconformal_bounds(system, w).lower for w in words]
    brute = min(
        system.space.distance(points[i], points[j]) / (lowers[i] + lowers[j])
        for i, j in combinations(range(len(words)), 2)
        if incomparable(words[i], words[j])
    )
    assert separation_epsilon(system, x, depth) == pytest.approx(brute, rel=1e-12, abs=0)


def test_local_stopping_set_matches_the_label_scan():
    system = shipped_system("cantor")
    cloud = attractor_cloud(system, 6)
    model = system.induced_model()
    for x in ((0.0,), (0.3,), (0.71,)):
        for r in (0.33, 0.1, 0.05):
            local = local_stopping_set(model, cloud, x, r)
            hits = {
                w for w in local.candidates
                for lab, p in zip(cloud.labels, cloud.points)
                if lab[: len(w)] == w and system.space.distance(p, x) < r
            }
            assert set(local.words) == hits
            # the candidates' pieces split the cloud
            sizes = [len(cloud.coordinates[cloud.piece(w)]) for w in local.candidates]
            assert sum(sizes) == len(cloud)


def pairwise_semiconformal_bounds(system, word):
    """The pair loop that re-applied the word to the second point of every pair."""
    alphabet = system.space.alphabet
    pool = list(alphabet.words(3))
    lo, hi = math.inf, 0.0
    for i, u in enumerate(pool):
        fu = system.apply_word(word, u)
        for v in pool[i + 1 :]:
            duv = system.space.distance(u, v)
            if duv == 0.0:
                continue
            r = system.space.distance(fu, system.apply_word(word, v)) / duv
            lo = min(lo, r)
            hi = max(hi, r)
    return lo, hi


@st.composite
def symbol_systems(draw):
    """Prefix-rewriting maps on a two- or three-letter tree, prefixes up to two letters."""
    space = SymbolSpace(Alphabet(draw(st.integers(2, 3))))
    prefix = st.lists(st.integers(0, space.alphabet.size - 1), max_size=2).map(tuple)
    tables = st.lists(prefix, min_size=space.alphabet.size, max_size=space.alphabet.size)
    maps = [SymbolMap(tuple(draw(tables))) for _ in range(draw(st.integers(2, 3)))]
    return ContractionSystem(space, maps, ((0,),))


def glues_branches(table):
    """Whether some image ``table[s] + (s,)`` is a prefix of another."""
    heads = [t + (s,) for s, t in enumerate(table)]
    return any(u == v[: len(u)] or v == u[: len(v)] for u, v in combinations(heads, 2))


# map 0 sends 0x to 00x and 1x to 001x: the branches 01x and 1x meet
GLUING_SYSTEM = ContractionSystem(
    SymbolSpace(Alphabet(2)), (SymbolMap(((0,), (0, 0))), SymbolMap(((1,), (1,)))), ((0,),)
)


@settings(max_examples=40, deadline=None)
@example(system=GLUING_SYSTEM)
@given(system=symbol_systems())
def test_symbolic_composite_bounds_match_the_pair_loop(system):
    """The composite table's bounds are the extremes over every pair of the
    depth-3 tree; a table that glues branches has lower bound exactly 0."""
    points = list(system.space.alphabet.words(3))
    for word in system.alphabet.words_up_to(2):
        bounds = semiconformal_bounds(system, word)
        assert (bounds.lower, bounds.upper) == pairwise_semiconformal_bounds(system, word)
        assert bounds.exact
        if word:
            composite = reduce(SymbolMap.then, [system.maps[s] for s in word])
            images = [system.apply_word(word, u) for u in points]
            assert [composite.apply(u) for u in points] == images
            if glues_branches(composite.table):
                assert bounds.lower == 0.0


def test_symbolic_semiconformal_bounds_match_the_pair_loop():
    system = shipped_system("symbolifs")
    for word in system.alphabet.words_up_to(3):
        bounds = semiconformal_bounds(system, word)
        assert (bounds.lower, bounds.upper) == pairwise_semiconformal_bounds(system, word)
        assert bounds.exact


# -- integer levels of exact systems against exact scalar arithmetic -------------------

# ratios in (0, 1) with denominators up to 40, 7/19 drawn on purpose
ratios = st.fractions(min_value=Fraction(1, 40), max_value=Fraction(39, 40), max_denominator=40)
offsets = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=50))
golden_field = st.builds(
    lambda a, b: QuadraticNumber(a, b, 5),
    st.fractions(-2, 2, max_denominator=20),
    st.fractions(-2, 2, max_denominator=20),
)


@st.composite
def rational_similitudes(draw):
    """Two or three rational similitudes on the line or the plane, exact seeds."""
    dim, size = draw(st.integers(1, 2)), draw(st.integers(2, 3))
    ratio = st.one_of(ratios, st.just(Fraction(7, 19)))
    maps = [SimilitudeMap(draw(ratio), draw(st.tuples(*[offsets] * dim))) for _ in range(size)]
    seeds = draw(st.lists(st.tuples(*[offsets] * dim), min_size=1, max_size=2))
    depth = draw(st.integers(1, 10 if size == 2 else 6))
    return ContractionSystem(EuclideanSpace(dim), maps, seeds), depth


@st.composite
def comb_systems(draw):
    """Comb branches with one ratio field: rational, or quadratic in sqrt 5."""
    quadratic = draw(st.booleans())
    if quadratic:
        ratio = st.one_of(st.just(GOLDEN_RATIO), golden_field.filter(lambda r: 0 < float(r) < 1))
        seed = st.one_of(offsets, golden_field)
    else:
        ratio, seed = ratios, offsets
    maps = [CombMap(draw(ratio), shift) for shift in range(draw(st.integers(2, 3)))]
    seeds = draw(st.lists(st.tuples(seed, seed), min_size=1, max_size=2))
    space = draw(st.sampled_from([EuclideanSpace(2), CombSpace(0.5)]))
    return ContractionSystem(space, maps, seeds), draw(st.integers(1, 8 if len(maps) == 2 else 5))


def exact_cloud(system, depth, seeds):
    """``apply_word`` on every word and seed, in cloud order."""
    return tuple(system.apply_word(w, p) for w in system.alphabet.words(depth) for p in seeds)


def float_bits(points):
    return np.array([[float(c) for c in p] for p in points], dtype=float).tobytes()


def per_point_epsilon(system, x, depth):
    """The exact-point path: each word's point by ``apply_word``, then their
    float rows; one kernel call per word, as ``separation_epsilon`` made before blocks."""
    words = list(system.alphabet.words_up_to(depth))
    points = [system.apply_word(w, tuple(x)) for w in words]
    try:
        sep = np.array([system.word_lip_bounds(w)[0] for w in words])
    except DomainError:
        sep = np.array([semiconformal_bounds(system, w).lower for w in words])
    # word w covers the depth-``depth`` index range [lo, hi)
    size = system.alphabet.size
    span = np.array([size ** (depth - len(w)) for w in words])
    value = [sum(s * size ** (len(w) - 1 - k) for k, s in enumerate(w)) for w in words]
    lo = np.array(value) * span
    hi = lo + span
    X = system.space.coordinates(points)
    best = math.inf
    for i in range(len(words) - 1):
        j = slice(i + 1, None)
        ratio = one_query(system.space, X[j], points[i]) / (sep[i] + sep[j])
        ratio[(lo[i] <= lo[j]) & (hi[j] <= hi[i])] = np.inf
        best = min(best, float(ratio.min()))
    return best


def check_integer_levels(system, depth):
    seeds = system.seed_points
    assert _integer_levels(system, seeds) is not None
    cloud = attractor_cloud(system, depth, samples_per_leaf=len(seeds))
    want = exact_cloud(system, depth, seeds)
    assert tuple(cloud.points) == want
    types = lambda pts: [type(c) for p in pts for c in p]  # noqa: E731
    assert types(cloud.points) == types(want)
    assert cloud.coordinates.tobytes() == float_bits(want)
    assert cloud.coordinates.tobytes() == system.space.coordinates(want).tobytes()
    x, depth = seeds[-1], min(depth, 6)
    assert separation_epsilon(system, x, depth) == per_point_epsilon(system, x, depth)


@settings(max_examples=40, deadline=None)
@given(case=rational_similitudes())
def test_rational_similitude_levels_equal_exact_arithmetic(case):
    check_integer_levels(*case)


@settings(max_examples=40, deadline=None)
@given(case=comb_systems())
def test_comb_levels_equal_exact_arithmetic(case):
    check_integer_levels(*case)


def check_int64_switch(system):
    """int64 numerators while they and the denominator stay below 2**53, Python
    ints from the first level past the bound on, exact on both sides of the switch."""
    levels = list(islice(_integer_levels(system, system.seed_points), 8))
    kinds = [level.a[0].dtype for level in levels]
    small = kinds.index(object)  # the int64 levels 1 .. small
    assert 1 <= small and kinds == [np.int64] * small + [object] * (8 - small)
    for k, level in enumerate(levels):
        numerators = level.a + (level.b or [])
        assert all(x.dtype == kinds[k] for x in numerators)
        top = max(abs(v) for x in numerators for v in x.tolist())
        assert k >= small or (level.den < 2**53 and top < 2**53)
    assert all(type(v) is int for v in levels[small].a[0]) and levels[-1].den > 2**53
    for depth in (small, small + 1, 8):
        check_integer_levels(system, depth)
    return levels


def test_integer_numerators_outgrow_int64():
    # the denominators pass 2**53 at level 3 and 2**63 by level 8
    system = ContractionSystem(
        EuclideanSpace(1),
        (SimilitudeMap(Fraction(7, 19), (0,)), SimilitudeMap(Fraction(5, 23), (Fraction(1, 997),))),
        ((Fraction(1, 3),),),
    )
    level = check_int64_switch(system)[-1]
    assert level.den > 2**63 and max(level.a[0]) > 2**63


def test_quadratic_numerators_outgrow_int64():
    # the numerator bound passes 2**53 at level 8
    r = QuadraticNumber(Fraction(3, 11), Fraction(1, 13), 5)
    system = ContractionSystem(EuclideanSpace(2), (CombMap(r, 0), CombMap(r, 1)),
                               ((Fraction(1, 3), 0),))
    assert check_int64_switch(system)[0].b is not None  # the quadratic recurrence ran


@pytest.mark.parametrize("name, depth", [("cantor", 13), ("comb", 14)])
def test_shipped_exact_levels_stay_int64(name, depth):
    """numpy int64 arithmetic wraps without a warning: the shipped exact
    levels must stay below the bound, and the bound must not cost them int64."""
    system = shipped_system(name)
    levels = list(islice(_integer_levels(system, system.seed_points), depth))
    assert all(x.dtype == np.int64 for lv in levels for x in lv.a + (lv.b or []))


MIXED_FIELDS = [
    # rational and quadratic ratios in one system
    ((CombMap(Fraction(1, 2), 0), CombMap(GOLDEN_RATIO, 1)), ((0, Fraction(1, 2)),)),
    # rational ratios, a quadratic seed coordinate
    ((CombMap(Fraction(1, 2), 0), CombMap(Fraction(1, 3), 1)), ((GOLDEN_RATIO, 1),)),
    # exact maps, a float seed
    ((CombMap(Fraction(1, 2), 0), CombMap(Fraction(1, 3), 1)), ((0.5, 1),)),
    # a float ratio
    ((CombMap(0.5, 0), CombMap(Fraction(1, 3), 1)), ((0, 1),)),
]


@pytest.mark.parametrize("maps, seeds", MIXED_FIELDS)
def test_mixed_systems_fall_back_to_exact_scalars(maps, seeds):
    system = ContractionSystem(EuclideanSpace(2), maps, seeds)
    assert _integer_levels(system, seeds) is None
    cloud = attractor_cloud(system, 4)
    want = exact_cloud(system, 4, seeds)
    assert tuple(cloud.points) == want
    assert [type(c) for p in cloud.points for c in p] == [type(c) for p in want for c in p]
    assert cloud.coordinates.tobytes() == float_bits(want)
    assert separation_epsilon(system, seeds[0], 4) == per_point_epsilon(system, seeds[0], 4)


def test_two_radicands_still_raise():
    maps = (CombMap(GOLDEN_RATIO, 0), CombMap(QuadraticNumber(0, Fraction(1, 2), 2), 1))
    system = ContractionSystem(EuclideanSpace(2), maps, ((0, 1),))
    assert _integer_levels(system, system.seed_points) is None
    with pytest.raises(ValueError, match="mixed radicands"):
        attractor_cloud(system, 2)


# -- one exactness test: ``_field`` against the type tests it replaced ------------

# two values of each scalar type a spec or a caller may hand the maps and seeds
SCALARS = [
    0, 2, Fraction(1, 3), Fraction(-2, 5), 0.5, -0.25, np.int64(0), np.int64(3),
    np.float64(0.5), np.float64(0.75), False, True,
    GOLDEN_RATIO, QuadraticNumber(Fraction(1, 4), Fraction(-1, 3), 5),
    QuadraticNumber(0, Fraction(1, 2), 2), QuadraticNumber(Fraction(1, 4), Fraction(1, 4), 2),
]
# the ones a map takes as its ratio, in (0, 1)
RATIOS = [x for x in SCALARS if 0 < float(x) < 1]
# drawn as often again for fixed points and seeds, so that more systems run on integers
EXACT = [x for x in SCALARS if type(x) in (int, Fraction, QuadraticNumber)]


def typed_levels(system, seeds):
    """Whether the levels ran on integers under the type tests before ``_field``:
    every ratio a ``Fraction``, or every ratio a quadratic number of one radicand
    ``d``; every offset and seed coordinate an ``int``, a ``Fraction`` or a
    quadratic number of radicand ``d``.  A fixed point of another radicand
    than its ratio has no offset in either field: ``affine`` raises, and the
    levels, which raised with it, now fall back to ``apply``."""
    try:
        forms = [m.affine() for m in system.maps]
    except DomainError:
        return False
    if any(f is None for f in forms):
        return False
    ratios = [r for r, _ in forms]
    if all(type(r) is Fraction for r in ratios):
        d = 1
    elif all(isinstance(r, QuadraticNumber) and r.d == ratios[0].d for r in ratios):
        d = ratios[0].d
    else:
        return False
    return all(type(c) in (int, Fraction) or (isinstance(c, QuadraticNumber) and c.d == d)
               for c in [c for _, cs in forms for c in cs] + [c for p in seeds for c in p])


@st.composite
def typed_systems(draw):
    """Similitudes of the line or comb branches of the plane, with ratios,
    fixed points and seed coordinates of every type in ``SCALARS``."""
    scalar = st.sampled_from(SCALARS) | st.sampled_from(EXACT)
    ratios = draw(st.lists(st.sampled_from(RATIOS), min_size=2, max_size=3))
    if draw(st.booleans()):
        n, maps = 2, [CombMap(r, k) for k, r in enumerate(ratios)]
    else:
        n, maps = 1, [SimilitudeMap(r, (draw(scalar),)) for r in ratios]
    seeds = draw(st.lists(st.tuples(*[scalar] * n), min_size=1, max_size=2))
    return ContractionSystem(EuclideanSpace(n), maps, seeds)


@settings(max_examples=300, deadline=None)
@given(system=typed_systems())
def test_field_decides_the_integer_levels_as_the_type_tests_did(system):
    seeds = system.seed_points
    try:
        want = [system.apply_word(w, p) for w in system.alphabet.words(3) for p in seeds]
    except DomainError:  # two radicands meet: the level builder raises it too
        with pytest.raises(DomainError, match="mixed radicands"):
            list(islice(system.levels(seeds), 3))
        return
    assert (_integer_levels(system, seeds) is not None) == typed_levels(system, seeds)
    level = next(islice(system.levels(seeds), 2, None))
    got = [level.point(k) for k in range(len(want))]
    assert got == want
    assert level.rows.tobytes() == system.space.coordinates(want).tobytes()
    types = [[type(c) for p in pts for c in p] for pts in (got, want)]
    if not typed_levels(system, seeds):
        # a level of floats is read off float64 rows as Python floats, where
        # ``apply_word`` keeps the type of a numpy float64 parameter
        types = [[float if issubclass(t, float) else t for t in ts] for ts in types]
    assert types[0] == types[1]


# the levels raised "mixed radicands 5 and 2" on these maps, whose points
# ``apply_word`` gives as floats
def test_an_offset_of_two_radicands_falls_back_to_the_maps():
    sqrt2 = QuadraticNumber(0, Fraction(1, 2), 2)
    maps = (SimilitudeMap(Fraction(1, 3), (0,)), SimilitudeMap(GOLDEN_RATIO, (sqrt2,)))
    system = ContractionSystem(EuclideanSpace(1), maps, ((0.5,),))
    assert _integer_levels(system, system.seed_points) is None
    cloud = attractor_cloud(system, 3)
    want = tuple(system.apply_word(w, (0.5,)) for w in system.alphabet.words(3))
    assert tuple(cloud.points) == want
    assert cloud.coordinates.tobytes() == float_bits(want)


# ``_field`` gives 1 for an ``int`` where the ratio test asked for a ``Fraction``:
# no map takes an int-typed ratio, so the two rules agree on every system
@pytest.mark.parametrize("r", [0, 1, 2, np.int64(1), True, False])
def test_no_map_takes_an_int_typed_ratio(r):
    for build in (lambda: SimilitudeMap(r, (0,)), lambda: CombMap(r, 0)):
        with pytest.raises(DomainError):
            build()


def test_ragged_seeds_still_raise():
    maps = [SimilitudeMap(Fraction(1, 3), (0, k)) for k in (0, 1)]
    system = ContractionSystem(EuclideanSpace(2), maps, ((0, 1), (0,)))
    with pytest.raises(DomainError, match="2-dimensional"):
        attractor_cloud(system, 3, samples_per_leaf=2).coordinates


# -- the one level builder against apply_word, for every kind of map ------------------


# seed coordinates: int ones take one level as scalars before the columns go float64
int_or_float = st.one_of(st.integers(-3, 3), st.floats(-2, 2))


@st.composite
def affine_systems(draw):
    """Two or three float affine maps of the plane, at int or float seeds."""
    entry, offset = st.floats(-0.45, 0.45), st.floats(-2, 2)
    maps = [
        Affine2DMap(((draw(entry), draw(entry)), (draw(entry), draw(entry))),
                    (draw(offset), draw(offset)))
        for _ in range(draw(st.integers(2, 3)))
    ]
    seeds = draw(st.lists(st.tuples(int_or_float, int_or_float), min_size=1, max_size=2))
    return ContractionSystem(EuclideanSpace(2), maps, seeds), draw(st.integers(1, 5))


@st.composite
def carnot_systems(draw):
    """Two to four gauge-halving maps of the Heisenberg group at float anchors,
    at int or float seeds."""
    point = st.tuples(*[st.floats(-3, 3)] * 3)
    maps = [CarnotMap(draw(point)) for _ in range(draw(st.integers(2, 4)))]
    seeds = draw(st.lists(st.tuples(*[int_or_float] * 3), min_size=1, max_size=2))
    return ContractionSystem(HeisenbergSpace(), maps, seeds), draw(st.integers(1, 4))


@st.composite
def scalar_similitudes(draw, ratio):
    """Two or three similitudes of the line or plane, or comb branches, with ratios
    drawn from ``ratio`` and int, float or rational offsets, at int or float seeds."""
    offset = st.one_of(int_or_float, offsets)
    size = draw(st.integers(2, 3))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 2))
        maps = [SimilitudeMap(draw(ratio), draw(st.tuples(*[offset] * dim))) for _ in range(size)]
    else:
        dim, maps = 2, [CombMap(draw(ratio), shift) for shift in range(size)]
    seeds = draw(st.lists(st.tuples(*[int_or_float] * dim), min_size=1, max_size=2))
    return ContractionSystem(EuclideanSpace(dim), maps, seeds), draw(st.integers(1, 6))


float_ratios = st.floats(0.05, 0.95)
# float and exact parameters in one system: columns of floats meet exact scalars
mixed_ratios = st.one_of(float_ratios, ratios, st.just(GOLDEN_RATIO))


@st.composite
def uneven_symbol_systems(draw):
    """Prefix-rewriting maps whose prefixes differ in length (rows widen unevenly),
    at seeds of one to three letters, or the empty word, which no map can read."""
    space = SymbolSpace(Alphabet(draw(st.integers(2, 3))))
    letters = st.integers(0, space.alphabet.size - 1)
    prefix = st.lists(letters, max_size=3).map(tuple)
    tables = st.lists(prefix, min_size=space.alphabet.size, max_size=space.alphabet.size)
    maps = [SymbolMap(tuple(draw(tables))) for _ in range(draw(st.integers(2, 3)))]
    word = st.lists(letters, min_size=draw(st.sampled_from([0, 1, 1, 1])), max_size=3)
    seeds = draw(st.lists(word.map(tuple), min_size=1, max_size=2))
    return ContractionSystem(space, maps, seeds), 5


@settings(max_examples=120, deadline=None)
@given(case=st.one_of(
    rational_similitudes(),
    comb_systems(),
    st.sampled_from(MIXED_FIELDS).map(
        lambda case: (ContractionSystem(EuclideanSpace(2), *case), 4)
    ),
    affine_systems(),
    carnot_systems(),
    symbol_systems().map(lambda system: (system, 4)),
    scalar_similitudes(float_ratios),
    scalar_similitudes(mixed_ratios),
    uneven_symbol_systems(),
))
def test_levels_equal_apply_word_over_the_words(case):
    check_levels(*case)


# where the columns switch to float64, and where they must not
FLOAT_SWITCH = [
    # an int parameter meets an int seed: the first coordinate stays an int, never a float
    ((Affine2DMap(((0, 0), (0.5, 0.25)), (1, 0)), Affine2DMap(((0.5, 0.0), (0.0, 0.5)), (0.5, 0.5))),
     ((1, 2),)),
    # an int parameter beyond 2**53 meets float64 columns as it meets floats
    ((SimilitudeMap(0.5, (3**40,)), SimilitudeMap(0.25, (0.0,))), ((0.5,),)),
]


@pytest.mark.parametrize("maps, seeds", FLOAT_SWITCH, ids=["int-meets-int", "big-int"])
def test_levels_go_float64_only_where_floats_compute_alike(maps, seeds):
    check_levels(ContractionSystem(EuclideanSpace(len(seeds[0])), maps, seeds), 4)


def test_levels_equal_apply_word_in_value_at_a_numpy_float_parameter():
    """Levels keep ``apply_word``'s types only where the parameters are Python
    scalars: a numpy float ratio gives ``float`` in a level and ``np.float64``
    from ``apply_word``, with equal values."""
    maps = (SimilitudeMap(np.float64(0.3), (0.0,)), SimilitudeMap(0.5, (1.0,)))
    check_levels(ContractionSystem(EuclideanSpace(1), maps, ((0.2,),)), 4, same_types=False)


def check_levels(system, depth, same_types=True):
    """Levels 1 to ``min(depth, 6)`` against :meth:`apply_word` over the words:
    points with their types (values only unless ``same_types``), rows bit for
    bit in the kernel's layout."""
    seeds, space = system.seed_points, system.space
    types = lambda pts: [type(c) for p in pts for c in p]  # noqa: E731
    levels = system.levels(seeds)
    for n in range(1, min(depth, 6) + 1):
        try:
            want = tuple(system.apply_word(w, p) for w in system.alphabet.words(n) for p in seeds)
        except DomainError as exc:  # the level raises what the word map raises
            with pytest.raises(DomainError) as level_exc:
                next(levels)
            assert str(level_exc.value) == str(exc)
            return
        level = next(levels)
        points = tuple(map(level.point, range(len(want))))
        assert points == want
        assert (types(points) == types(want)) == same_types
        rows, want_rows = level.rows, space.coordinates(want)
        layout = lambda X: (X.dtype, X.shape, X.flags.f_contiguous)  # noqa: E731
        assert layout(rows) == layout(want_rows)
        assert rows.tobytes() == want_rows.tobytes()


def test_level_overflow_passes_silently_as_on_floats():
    """inf and NaN come out of the float64 columns as out of Python floats, with no
    numpy warning (the CLI would print one as a ``warning:`` line)."""
    maps = (CarnotMap((1e300, 1e300, 0.0)), CarnotMap((0.0, 1.0, 0.0)))
    system = ContractionSystem(HeisenbergSpace(), maps, ((1e300, -1e300, 0.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = [level.rows for level in islice(system.levels(system.seed_points), 3)]
    assert not np.isfinite(rows[-1]).all()
    for n, X in enumerate(rows, 1):
        want = [system.apply_word(w, system.seed_points[0]) for w in system.alphabet.words(n)]
        assert X.tobytes() == system.space.coordinates(want).tobytes()


@pytest.mark.parametrize("name, depth", [("heisenberg", 3), ("selfaffine", 10), ("symbolifs", 12)])
def test_clouds_apply_each_map_once_per_level_and_build_points_when_read(monkeypatch, name, depth):
    """No per-point path: each map's ``apply`` runs once per level, on the whole
    level, and a cloud's size and rows build no point."""
    system = shipped_system(name)
    calls, built = [], []
    for cls in {type(m) for m in system.maps}:
        monkeypatch.setattr(cls, "apply", lambda m, x, apply=cls.apply: calls.append(m) or apply(m, x))
    point = _RowLevel.point
    monkeypatch.setattr(_RowLevel, "point", lambda lv, k: built.append(k) or point(lv, k))
    cloud = attractor_cloud(system, depth)
    assert Counter(calls) == {m: depth for m in system.maps}
    assert len(cloud) == len(cloud.coordinates) == system.alphabet.size**depth
    assert built == []
    k = len(cloud) // 3
    assert cloud.points[k] == system.apply_word(cloud.labels[k], system.seed_points[0])
    assert built == [k]


@settings(max_examples=40, deadline=None)
@given(case=st.one_of(rational_similitudes(), comb_systems()), data=st.data())
def test_indexed_exact_cloud_equals_the_eager_builder(case, data):
    system, depth = case
    samples = data.draw(st.integers(1, len(system.seed_points)))
    check_indexed_cloud(system, min(depth, 5), samples)


def uneven_similitudes(space):
    maps = [SimilitudeMap(r, (k,)) for k, r in enumerate((Fraction(1, 3), Fraction(1, 4), 0.4))]
    return ContractionSystem(space, maps, ((0,),))


@pytest.mark.parametrize(
    "system",
    [
        shipped_system("cantor"),
        shipped_system("comb"),
        shipped_system("heisenberg"),
        uneven_similitudes(EuclideanSpace(1)),
        uneven_similitudes(SnowflakeSpace(EuclideanSpace(1), 0.5)),
    ],
    ids=["cantor", "comb", "heisenberg", "uneven", "uneven-snowflake"],
)
def test_word_bounds_are_the_per_letter_products(system):
    bound = system.space.metric_bound
    for word in system.alphabet.words_up_to(2 if system.alphabet.size > 3 else 5):
        lo, hi, exact = 1.0, 1.0, True
        for s in word:
            b = system.maps[s].lip_bounds()
            lo, hi, exact = lo * b[0], hi * b[1], exact and b[0] == b[1]
        assert system.word_lip_bounds(word) == (bound(lo), bound(hi), exact)


class UnboundedMap(ContractionMap):
    """A map with no known contraction bounds that is not symbolic."""

    def apply(self, point):
        return point


def planar_mixed_system():
    """Affine-only words (singular values of the product) next to words that
    mix affine maps and similitudes (products of per-map bounds)."""
    maps = (
        Affine2DMap(((0.5, 0.1), (0.0, 0.3)), (0.0, 0.0)),
        Affine2DMap(((0.2, 0.0), (0.1, 0.4)), (0.5, 0.0)),
        SimilitudeMap(0.3, (1.0, 1.0)),
    )
    return ContractionSystem(EuclideanSpace(2), maps, ((0.0, 0.0),))


@pytest.mark.parametrize(
    "system, depth",
    [(shipped_system(name), 2 if name == "heisenberg" else 5) for name in SHIPPED_SYSTEMS]
    + [
        (uneven_similitudes(EuclideanSpace(1)), 5),
        (uneven_similitudes(SnowflakeSpace(EuclideanSpace(1), 0.5)), 5),
        (uneven_similitudes(SnowflakeSpace(EuclideanSpace(1), 0.7)), 5),
        # here numpy's vector pow would round one bound of the closest pair differently
        (ContractionSystem(
            SnowflakeSpace(EuclideanSpace(1), 0.55),
            [SimilitudeMap(r, (k,))
             for k, r in enumerate((Fraction(2, 7), Fraction(1, 4), Fraction(2, 7)))],
            ((0,),),
        ), 4),
        (snowflake_cantor(), 8),
        (planar_mixed_system(), 5),
        # products of the per-map lower bounds would read 1.6 here, the composite tables 0.8
        (ContractionSystem(
            SymbolSpace(Alphabet(2)), (SymbolMap(((0, 0), (1,))), SymbolMap(((1,), (0, 1)))),
            ((0,),),
        ), 3),
    ],
    ids=list(SHIPPED_SYSTEMS)
    + ["uneven", "uneven-snowflake", "uneven-snowflake-0.7", "snowflake-0.55", "snowflake-cantor",
       "planar-mixed", "symbol-composite"],
)
def test_level_lower_bounds_give_the_per_word_epsilon(system, depth):
    """``separation_epsilon`` builds the product bounds a level at a time;
    the reference takes each word's bounds from ``word_lip_bounds``."""
    x = system.seed_points[-1]
    assert separation_epsilon(system, x, depth) == per_point_epsilon(system, x, depth)


def test_unknown_map_bounds_raise_as_the_word_path_does():
    maps = (SimilitudeMap(0.5, (0,)), UnboundedMap())
    system = ContractionSystem(EuclideanSpace(1), maps, ((0.2,),))
    with pytest.raises(DomainError) as per_word:
        semiconformal_bounds(system, (0, 1))
    with pytest.raises(DomainError) as levels:
        separation_epsilon(system, (0.2,), 3)
    assert str(levels.value) == str(per_word.value)


def exact_collisions(r, depth):
    """Canonical colliding pairs by brute force over exact anchor sums."""
    pairs = set()
    for m in range(1, depth + 1):
        for c in product((-1, 0, 1), repeat=m):
            if c[-1] == 0 or next(x for x in c if x) < 0:
                continue
            # sum c_k r^k, the powers by repeated multiplication
            total, power = r * 0, r * 0 + 1
            for x in c:
                total, power = total + x * power, power * r
            if total == 0:
                u = tuple(int(x > 0) for x in c)
                v = tuple(int(x < 0) for x in c)
                pairs.add((u, v) if u > v else (v, u))
    return pairs


@pytest.mark.parametrize(
    "r", [GOLDEN_RATIO, QuadraticNumber(0, Fraction(1, 2), 2), Fraction(2, 3), Fraction(5, 7)]
)
def test_collision_scan_agrees_with_exact_anchor_sums(r, monkeypatch):
    pairs = exact_collisions(r, 7)
    # a wide tolerance makes many near misses candidates; each is re-decided
    for depth, tol in product(range(1, 8), (1e-9, 0.5)):
        monkeypatch.setattr(systems, "_COLLISION_TOL", tol)
        scan = osc_collision_scan(r, depth)
        assert scan.exact
        assert {(u, v) for u, v, _ in scan} == {p for p in pairs if len(p[0]) <= depth}
        assert all(gap == 0.0 for _, _, gap in scan)


@pytest.mark.parametrize("name", SHIPPED_SYSTEMS)
def test_csv_and_default_scales_read_the_float_rows(name):
    system = shipped_system(name)
    cloud = attractor_cloud(system, 2 if name == "heisenberg" else 5)
    rows = [[float(c) for c in p] for p in cloud.points]
    if name != "symbolifs":
        assert cloud.coordinates.tolist() == rows
        body = ["%s,%s" % (word_str(w), ",".join("%.12g" % float(c) for c in p))
                for w, p in zip(cloud.labels, cloud.points)]
        assert _cloud_csv(cloud).splitlines()[1:] == body
    span = max(max(col) - min(col) for col in zip(*rows))
    assert _default_scales(cloud) == [span * 2.0**-k for k in range(2, 7)]


# -- the grid count and the clustering probe -----------------------------------------


def set_of_cells_count(cloud, r):
    """The grid count as a set of row tuples, which the sorted count replaced."""
    X = cloud.coordinates
    cells = np.floor((X - X.min(axis=0)) / r + 1e-9).astype(np.int64)
    return len({tuple(row) for row in cells})


# multiples of 1/4 sit on the cell boundaries of the dyadic radii
grid_coordinates = st.one_of(floats, st.integers(-12, 12).map(lambda k: k / 4))


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(1, 3), data=st.data(),
    r=st.one_of(st.sampled_from([0.25, 0.5, 1.0, 0.1]), st.floats(0.01, 5.0)),
)
def test_grid_count_matches_the_set_of_cells(dim, data, r):
    points = data.draw(tuples(grid_coordinates, dim, max_size=40))
    cloud = PointCloud(EuclideanSpace(dim), 0, 1, len(points), tuple(points))
    assert box_count(cloud, r, method="grid") == set_of_cells_count(cloud, r)


def per_point_clustering_sup(model, cloud, x_samples, radii):
    """The clustering sup with one stopping set per probe point; None if no radius fits."""
    probes = list(cloud.points)[:: max(1, len(cloud) // x_samples)][:x_samples]
    best = None
    for r in radii:
        try:
            sup = max(len(local_stopping_set(model, cloud, x, r).words) for x in probes)
        except DomainError:
            continue
        best = sup if best is None else max(best, sup)
    return best


@pytest.mark.filterwarnings("ignore:skipping r=")
@settings(max_examples=40, deadline=None)
@given(
    case=rational_similitudes(), x_samples=st.integers(1, 20),
    fractions_of_diameter=st.lists(st.floats(0.01, 1.2), min_size=1, max_size=4),
)
def test_clustering_sup_matches_the_per_point_loop(case, x_samples, fractions_of_diameter):
    system, depth = case
    cloud = attractor_cloud(system, min(depth, 6), len(system.seed_points))
    try:
        model = system.induced_model(cloud)
    except DomainError:  # every sample coincides: no seed diameter to scale
        return
    radii = [f * model.seed_diameter for f in fractions_of_diameter]
    # ratios near 1 reach small radii only after millions of words: both
    # paths must then stop at the same (small) enumeration cap
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MORANLAB_ENUM_CAP", "4096")
        try:
            want = per_point_clustering_sup(model, cloud, x_samples, radii)
        except EnumerationCapError:
            with pytest.raises(EnumerationCapError):
                finite_clustering_sup(model, cloud, x_samples, radii)
            return
        if want is None:
            with pytest.raises(DomainError, match="no radius"):
                finite_clustering_sup(model, cloud, x_samples, radii)
        else:
            assert finite_clustering_sup(model, cloud, x_samples, radii) == want


@pytest.mark.parametrize("name,depth", [("cantor", 6), ("symbolifs", 6)])
def test_clustering_walks_one_stopping_set_per_radius(monkeypatch, name, depth):
    from moranlab import words

    system = shipped_system(name)
    cloud = attractor_cloud(system, depth)
    model = system.induced_model(cloud)
    calls, walk = [], words._stopping_walk

    def counted(model, r, *args):
        calls.append(r)
        return walk(model, r, *args)

    monkeypatch.setattr(words, "_stopping_walk", counted)
    radii = [0.2 * model.seed_diameter, 0.1 * model.seed_diameter]
    assert finite_clustering_sup(model, cloud, 50, radii) >= 1
    assert calls == radii


# -- block queries against the per-query loops they replaced ---------------------------
#
# Each reference below is the loop that a block path replaced, one kernel call
# per query point; the block paths must return the same floats.


@settings(max_examples=200, deadline=None)
@given(data=float_clouds(), picks=st.lists(st.integers(0, 11), min_size=1, max_size=8))
def test_block_kernel_equals_stacked_single_queries(data, picks):
    space, points = data
    queries = [points[k % len(points)] for k in picks]
    X = space.coordinates(points)
    stacked = [one_query(space, X, q).tolist() for q in queries]
    assert space.distances(X, space.coordinates(queries)).tolist() == stacked


@settings(max_examples=100, deadline=None)
@given(points=st.lists(words, min_size=1, max_size=12), queries=st.lists(words, min_size=1, max_size=6))
def test_symbol_block_kernel_takes_rows_of_mixed_lengths(points, queries):
    space = SymbolSpace(Alphabet(3))
    X, Q = space.coordinates(points), space.coordinates(queries)
    got = space.distances(X, Q)
    assert got.shape == (len(queries), len(points))
    assert got.tolist() == [scalar_distances(space, points, q) for q in queries]


def per_query_row_minima(space, X, Q):
    return [float(space.distances(X, q[None])[0].min()) for q in Q]


def loop_spacing(space, X, rows):
    """``spacing`` as a loop: one kernel call per row, its own index passed over,
    and the nearest positive distance where the nearest distance is 0."""
    worst = 0.0
    for i in rows:
        d = space.distances(X, X[i][None])[0]
        d[i] = np.inf
        nearest = float(d.min())
        if nearest == 0.0:
            nearest = float(d[d > 0].min(initial=np.inf))
        worst = max(worst, nearest)  # a NaN is passed over: ``worst`` starts at 0.0
    return worst


def loop_sampled_diameter(space, X):
    """The estimated seed diameter and the sampled ``log_diam`` as loops."""
    return max(float(space.distances(X[:i], X[i][None])[0].max()) for i in range(1, len(X)))


@settings(max_examples=150, deadline=None)
@given(data=float_clouds(), data2=float_clouds())
def test_row_minima_and_diameters_match_the_per_query_loops(data, data2):
    space, points = data
    X = space.coordinates(points)
    assert row_minima(space, X, X).tolist() == per_query_row_minima(space, X, X)
    if len(X) > 1:
        assert _sampled_diameter(space, X) == loop_sampled_diameter(space, X)
        for stride in (1, 3):
            rows = np.arange(0, len(X), stride)
            assert spacing(space, X, rows) == loop_spacing(space, X, rows)
            if not repeats(space, X):
                assert spacing(space, X, rows) == index_skip_gap(space, X, rows)


def repeats(space, X):
    """Whether two rows lie at distance 0 (on the symbol tree, also two words that
    agree on their common length)."""
    D = space.distances(X, X)
    np.fill_diagonal(D, np.inf)
    return bool((D == 0).any())


def index_skip_gap(space, X, rows):
    """The slope fit's spacing before repeated rows were passed over: each row's
    own index skipped, a zero distance to a repeated row kept."""
    worst = 0.0
    for i in rows:
        d = space.distances(X, X[i][None])[0]
        d[i] = np.inf
        worst = max(worst, float(d.min()))
    return worst


def probes(n):
    """The rows that :func:`minkowski_estimate` samples for the spacing."""
    return np.arange(0, n, max(1, n // 256))


@settings(max_examples=100, deadline=None)
@given(data=float_clouds(), copies=st.integers(2, 3), nan=st.booleans())
def test_spacing_passes_over_repeated_rows(data, copies, nan):
    """Repeated rows count no neighbour at distance 0, NaN rows are passed over."""
    space, points = data
    X = space.coordinates(list(points) * copies)
    if nan and space.coordinate_dim is not None:
        X = np.asfortranarray(np.vstack([X, np.full((1, X.shape[1]), np.nan)]))
    rows = np.arange(len(X))
    got = spacing(space, X, rows)
    assert got == loop_spacing(space, X, rows)
    distinct = space.coordinates(list(dict.fromkeys(points)))
    if not nan and len(distinct) > 1:  # the spacing of the distinct rows
        assert got == loop_spacing(space, distinct, np.arange(len(distinct)))


def test_spacing_takes_one_kernel_call_per_block_of_repeated_rows(monkeypatch):
    """The comb depth-10 cloud repeats the point of 255 of its 256 probes; once
    doubled, every row repeats.  A repeated row costs no kernel call of its own."""
    cloud = attractor_cloud(shipped_system("comb"), 10)
    space, kernel, calls = cloud.space, type(cloud.space).distances, []
    monkeypatch.setattr(type(space), "distances", lambda *args: calls.append(1) or kernel(*args))
    for X in (cloud.coordinates, np.asfortranarray(np.vstack([cloud.coordinates] * 2))):
        rows = probes(len(X))
        want = loop_spacing(space, X, rows)
        calls.clear()
        assert spacing(space, X, rows) == want
        assert len(calls) <= math.ceil(len(rows) / block_rows(len(X))), len(calls)


@pytest.mark.parametrize("name, depth", [("cantor", 10), ("selfaffine", 8), ("symbolifs", 6)])
def test_cloud_loops_match_the_per_query_loops(name, depth):
    """Clouds large enough for many blocks: the sample spacing, the seed
    diameter, the sampled piece diameters and the containment resolution."""
    system = shipped_system(name)
    cloud = attractor_cloud(system, depth)
    space, X, n = cloud.space, cloud.coordinates, len(cloud)
    for rows in (probes(n), np.arange(0, n, max(1, n // 7))):
        assert spacing(space, X, rows) == loop_spacing(space, X, rows)
        assert spacing(space, X, rows) == index_skip_gap(space, X, rows)
    # each point twice: every row repeats one, and the spacing is the distinct rows'
    doubled = np.asfortranarray(np.vstack([X, X]))
    assert spacing(space, doubled, probes(2 * n)) == loop_spacing(space, doubled, probes(2 * n))
    assert spacing(space, doubled, np.arange(n)) == spacing(space, X, np.arange(n))
    sub = X[:: max(1, n // 256)]
    unset = ContractionSystem(system.space, system.maps, system.seed_points)
    model = unset.induced_model(cloud)
    assert model.seed_diameter == loop_sampled_diameter(space, sub)
    if isinstance(model, GeneralModel):  # sampled piece diameters
        for w in system.alphabet.words_up_to(2):
            want = math.log(loop_sampled_diameter(space, X[cloud.piece(w)]))
            assert model.log_diam(w) == want
    sub = X[:: max(1, n // 128)]
    _, note = model.containment_check()
    assert note.endswith("%.3g" % (2.0 * loop_spacing(space, sub, range(len(sub)))))


def loop_containment(system, cloud):
    """The containment verdict as a loop: one kernel call per image point."""
    stride = max(1, len(cloud) // 128)
    sub, X = cloud.points[::stride], cloud.coordinates[::stride]
    resolution = 2.0 * loop_spacing(cloud.space, X, range(len(X)))
    for m in system.maps:
        for p in sub[:32]:
            if one_query(system.space, X, m.apply(p)).min() > max(resolution, 1e-9):
                return False
    return True


@pytest.mark.parametrize("name", SHIPPED_SYSTEMS)
def test_containment_verdicts_match_the_per_point_loop(name):
    system = shipped_system(name)
    cloud = attractor_cloud(system, 2 if name == "heisenberg" else 6)
    assert system._containment_check(cloud)()[0] is loop_containment(system, cloud) is True


def test_failed_containment_matches_the_per_point_loop():
    cloud = attractor_cloud(shipped_system("cantor"), 6)
    maps = [SimilitudeMap(Fraction(1, 3), (0,)), SimilitudeMap(Fraction(1, 3), (5,))]
    other = ContractionSystem(EuclideanSpace(1), maps, ((0,),))
    assert other._containment_check(cloud)()[0] is loop_containment(other, cloud) is False


def per_map_containment(system, cloud):
    """The W1 check as it mapped its samples itself: one map at a time, the
    first map with a sample out of reach named."""
    stride = max(1, len(cloud) // 128)
    sub, X = cloud.points[: 32 * stride : stride], cloud.coordinates[::stride]
    space = system.space
    resolution = 2.0 * loop_spacing(space, X, range(len(X)))
    for k, m in enumerate(system.maps):
        images = space.coordinates([m.apply(p) for p in sub])
        if (row_minima(space, X, images) > max(resolution, 1e-9)).any():
            return False, (
                "map %d sends a sample farther than the sampled set resolution %.3g"
                % (k, resolution)
            )
    return True, "sampled containment of each branch image within resolution %.3g" % resolution


@pytest.mark.parametrize("name", SHIPPED_SYSTEMS + ("second-map-out",))
def test_w1_verdict_and_note_equal_the_per_map_loop(name):
    if name == "second-map-out":
        # map 0 keeps the cantor samples, map 1 sends them towards 5
        cloud = attractor_cloud(shipped_system("cantor"), 6)
        maps = [SimilitudeMap(Fraction(1, 3), (0,)), SimilitudeMap(Fraction(1, 3), (5,))]
        system = ContractionSystem(EuclideanSpace(1), maps, ((0,),))
    else:
        system = shipped_system(name)
        cloud = attractor_cloud(system, 2 if name == "heisenberg" else 6)
    got = system._containment_check(cloud)()
    assert got == per_map_containment(system, cloud)
    assert got[0] is (name != "second-map-out")


@pytest.mark.parametrize("name, depth", [("cantor", 10), ("symbolifs", 6)])
def test_local_stopping_sets_match_the_per_point_loop(name, depth):
    system = shipped_system(name)
    cloud = attractor_cloud(system, depth)
    model = system.induced_model(cloud)
    probes = cloud.points[:: max(1, len(cloud) // 300)]
    for r in (0.2 * model.seed_diameter, 0.05 * model.seed_diameter):
        got = local_stopping_sets(model, cloud, cloud.space.coordinates(probes), r)
        candidates = stopping_set(model, r)
        pieces = [cloud.piece(w) for w in candidates]
        assert len(got) == len(probes)
        for local, x in zip(got, probes):
            inside = one_query(cloud.space, cloud.coordinates, x) < r
            want = tuple(w for w, piece in zip(candidates, pieces) if inside[piece].any())
            assert local.words == want


@st.composite
def float_similitudes(draw):
    """Two or three float similitudes on the line, plain or snowflaked."""
    size, coordinate = draw(st.integers(2, 3)), st.floats(-2, 2)
    maps = [SimilitudeMap(draw(st.floats(0.05, 0.95)), (draw(coordinate),)) for _ in range(size)]
    space = draw(st.sampled_from([EuclideanSpace(1), SnowflakeSpace(EuclideanSpace(1), 0.5)]))
    system = ContractionSystem(space, maps, ((draw(coordinate),),))
    return system, draw(st.integers(1, 7 if size == 2 else 5))


@settings(max_examples=60, deadline=None)
@given(case=st.one_of(float_similitudes(), rational_similitudes(), comb_systems()))
def test_blocked_epsilon_matches_the_per_word_loop(case):
    system, depth = case
    x = system.seed_points[0]
    assert separation_epsilon(system, x, depth) == per_point_epsilon(system, x, depth)


@pytest.mark.parametrize(
    "name, depth",
    [("cantor", 10), ("comb", 10), ("heisenberg", 2), ("selfaffine", 8), ("symbolifs", 4)],
)
def test_blocked_epsilon_matches_the_per_word_loop_on_shipped_systems(name, depth):
    system = shipped_system(name)
    x = system.seed_points[0]
    assert separation_epsilon(system, x, depth) == per_point_epsilon(system, x, depth)


def test_epsilon_of_an_exact_overlap_is_zero_and_stops_there(monkeypatch):
    # x/2, x/2 + 1/4 and x/2 + 1/2: phi_0 phi_2 = phi_1 phi_0 = x/4 + 1/4
    maps = [SimilitudeMap(Fraction(1, 2), (Fraction(k, 2),)) for k in range(3)]
    system = ContractionSystem(EuclideanSpace(1), maps, ((Fraction(1, 3),),))
    x = system.seed_points[0]
    assert separation_epsilon(system, x, 1) == per_point_epsilon(system, x, 1) > 0.0
    for depth in range(2, 7):
        assert separation_epsilon(system, x, depth) == per_point_epsilon(system, x, depth) == 0.0
    calls = []
    kernel = EuclideanSpace.distances
    monkeypatch.setattr(
        EuclideanSpace, "distances", lambda self, X, Q: calls.append(len(Q)) or kernel(self, X, Q)
    )
    # the pair sits in rows 5 and 6 of the 1092 words: the first block holds it
    assert separation_epsilon(system, x, 6) == 0.0
    assert len(calls) == 1


def loop_exact(r):
    """The ratio the loop re-decided candidates with: ``r`` itself when it is a
    quadratic number, ``Fraction(r)`` for any ``numbers.Rational``, else ``None``."""
    if isinstance(r, QuadraticNumber):
        return r
    return Fraction(r) if isinstance(r, Rational) else None


def loop_collision_scan(r, depth, tol=1e-9):
    """The ``osc_collision_scan`` loop that the numpy passes replaced:
    ``(collisions, min_nonzero_gap)``."""
    from moranlab.systems import _integer_parts

    r_exact, rf, half = loop_exact(r), float(r), depth // 2
    pows = [rf**k for k in range(depth)]

    def half_sums(positions):
        out = [(0.0, ())]
        for p in positions:
            out = [(s + c * pows[p], vec + (c,)) for s, vec in out for c in (-1, 0, 1)]
        return out

    first = half_sums(range(half))
    second = sorted(half_sums(range(half, depth)))
    seconds = [s for s, _ in second]
    candidates, min_gap = set(), math.inf
    for s, vec in first:
        k = bisect_left(seconds, -s - tol)
        j = k
        while j < len(second) and seconds[j] <= -s + tol:
            cvec = vec + second[j][1]
            if any(cvec):
                candidates.add(cvec)
            j += 1
        for j in (k - 1, j):
            if 0 <= j < len(second):
                cvec = vec + second[j][1]
                if any(cvec):
                    gap = abs(s + seconds[j])
                    if gap > tol:
                        min_gap = min(min_gap, gap)

    def canonical(cvec):
        m = len(cvec)
        while m and cvec[m - 1] == 0:
            m -= 1
        cvec = cvec[:m]
        return tuple(-c for c in cvec) if next(c for c in cvec if c) < 0 else cvec

    if r_exact is not None:
        den, p, q = _integer_parts(r_exact)
        qd = q * r_exact.d if isinstance(r_exact, QuadraticNumber) else 0
        A, B, a, b = [], [], 1, 0
        for k in range(depth):
            A.append(a * den ** (depth - 1 - k))
            B.append(b * den ** (depth - 1 - k))
            a, b = a * p + b * qd, a * q + b * p
    confirmed = {}
    for cvec in candidates:
        canon = canonical(cvec)
        if canon in confirmed:
            continue
        # the gap added left to right from 0, column by column, as the kernel adds it
        gap = 0.0
        for k, c in enumerate(canon):
            gap += c * pows[k]
        gap = abs(gap)
        if r_exact is not None:
            if sum(c * x for c, x in zip(canon, A)) == 0 == sum(c * y for c, y in zip(canon, B)):
                confirmed[canon] = 0.0
            elif gap > 0:
                min_gap = min(min_gap, gap)
        else:
            confirmed[canon] = gap
    triples = []
    for cvec, gap in confirmed.items():
        u = tuple(1 if c > 0 else 0 for c in cvec)
        v = tuple(1 if c < 0 else 0 for c in cvec)
        triples.append((max(u, v), min(u, v), gap))
    triples.sort(key=lambda p: (len(p[0]), p[0], p[1]))
    return tuple(triples), min_gap


# 999/1000: the exact sums outgrow int64 and run on Python ints
@pytest.mark.parametrize(
    "r", [GOLDEN_RATIO, Fraction(2, 3), Fraction(5, 7), Fraction(999, 1000), math.pi / 4],
    ids=["golden", "2/3", "5/7", "999/1000", "pi/4"],
)
def test_collision_scan_matches_the_loop(r, monkeypatch):
    for depth in range(1, 15):
        for tol in (1e-9, 0.5) if depth <= 6 else (1e-9,):
            monkeypatch.setattr(systems, "_COLLISION_TOL", tol)
            scan = osc_collision_scan(r, depth)
            assert (scan.collisions, scan.min_nonzero_gap) == loop_collision_scan(r, depth, tol)


# the scan decides exactness with ``_field``: on its ratios in (1/2, 1) that
# accepts what the loop's rule accepts, a ``Fraction`` or a quadratic number
@pytest.mark.parametrize(
    "r", [Fraction(3, 5), GOLDEN_RATIO, QuadraticNumber(0, Fraction(1, 2), 2), 0.6, np.float64(0.6)],
    ids=["fraction", "golden", "sqrt2", "float", "float64"],
)
def test_collision_scan_is_exact_where_the_loop_was(r):
    scan = osc_collision_scan(r, 8)
    assert scan.exact is (loop_exact(r) is not None)
    assert (scan.collisions, scan.min_nonzero_gap) == loop_collision_scan(r, 8)


class NanLine(EuclideanSpace):
    """The line whose kernel gives NaN for one (row, query) pair of values,
    as ``inf - inf`` does in the gauge of huge Heisenberg coordinates."""

    def __init__(self, row, query):
        super().__init__(1)
        self.pair = (row, query)

    def distances(self, X, Q):
        D = super().distances(X, Q)
        D[(X[:, 0] == self.pair[0]) & (Q[:, :1] == self.pair[1])] = np.nan
        return D


def test_block_loops_pass_over_nan_rows_as_the_loops_did():
    maps = [SimilitudeMap(Fraction(1, 3), (0,)), SimilitudeMap(Fraction(1, 5), (1,)),
            SimilitudeMap(Fraction(2, 7), (Fraction(1, 2),))]
    plain = ContractionSystem(EuclideanSpace(1), maps, ((Fraction(1, 4),),))
    x, depth = plain.seed_points[0], 3
    words = list(plain.alphabet.words_up_to(depth))
    X = plain.space.coordinates([plain.apply_word(w, x) for w in words])
    sep = [plain.word_lip_bounds(w)[0] for w in words]
    pairs = [(i, j) for i, j in combinations(range(len(words)), 2)
             if incomparable(words[i], words[j])]
    i, j = min(pairs, key=lambda p: abs(X[p[0], 0] - X[p[1], 0]) / (sep[p[0]] + sep[p[1]]))
    # a NaN elsewhere in the row of the closest pair: the loop drops the whole row
    k = next(k for a, k in pairs if a == i and k != j)
    nan = ContractionSystem(NanLine(X[k, 0], X[i, 0]), maps, plain.seed_points)
    eps = separation_epsilon(nan, x, depth)
    assert eps == per_point_epsilon(nan, x, depth) > separation_epsilon(plain, x, depth)
    space, rows = nan.space, np.arange(len(X))
    assert np.array_equal(row_minima(space, X, X), per_query_row_minima(space, X, X), equal_nan=True)
    assert spacing(space, X, rows) == loop_spacing(space, X, rows) > 0.0
    assert spacing(space, X, rows) == index_skip_gap(space, X, rows)
    # a NaN in the first row sticks to ``max``; one in a later row is passed over
    for row in (1, len(X) - 1):
        first = NanLine(X[0, 0], X[row, 0])
        want, got = loop_sampled_diameter(first, X), _sampled_diameter(first, X)
        assert repr(got) == repr(want) and math.isnan(got) == (row == 1)
