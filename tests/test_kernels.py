"""Vectorised distance kernels and the fast paths built on them.

Each fast path is checked against a scalar reference: the kernels against
``space.distance``, greedy covers and packings against the pairwise scan,
and level-by-level clouds against ``apply_word``.
"""

import math
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranlab import (
    GOLDEN_RATIO,
    Alphabet,
    CombSpace,
    ContractionSystem,
    DomainError,
    EuclideanSpace,
    HeisenbergSpace,
    PointCloud,
    QuadraticNumber,
    SnowflakeSpace,
    SymbolSpace,
    attractor_cloud,
    box_count,
    load_spec,
    local_stopping_set,
    maximal_packing,
    pressure_zero,
    semiconformal_bounds,
    separation_epsilon,
)
from moranlab.words import incomparable

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


# -- kernels against the scalar distance --------------------------------------------


@settings(max_examples=200, deadline=None)
@given(data=float_clouds(), pick=st.integers(0, 11))
def test_kernel_is_bit_identical_on_float_coordinates(data, pick):
    space, points = data
    q = points[pick % len(points)]
    got = space.distances(space.coordinates(points), q)
    assert got.tolist() == scalar_distances(space, points, q)


@settings(max_examples=100, deadline=None)
@given(points=st.lists(words, min_size=1, max_size=12), q=words)
def test_symbol_kernel_takes_queries_of_any_width(points, q):
    space = SymbolSpace(Alphabet(3))
    got = space.distances(space.coordinates(points), q)
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
    assert_within_ulps(space.distances(X, q), scalar_distances(space, points, q), points, q)


@settings(max_examples=25, deadline=None)
@given(points=tuples(quadratics, 2, max_size=6))
def test_comb_kernel_on_quadratic_coordinates(points):
    space = CombSpace(GOLDEN_RATIO)
    q = points[0]
    got = space.distances(space.coordinates(points), q)
    assert_within_ulps(got, scalar_distances(space, points, q), points, q)
    assert got[0] == 0.0


def test_kernels_reject_mismatched_dimensions():
    with pytest.raises(DomainError):
        EuclideanSpace(2).coordinates([(0.0, 1.0), (2.0,)])
    X = EuclideanSpace(2).coordinates([(0.0, 1.0)])
    with pytest.raises(DomainError):
        EuclideanSpace(2).distances(X, (0.0,))


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
    cloud = PointCloud(space, 1, tuple((k,) for k in range(len(points))), tuple(points))
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
    diam = max(space.distances(cloud.coordinates, p).max() for p in pts)
    for k in range(1, 8):
        r = 0.6 * diam * 2.0**-k
        assert box_count(cloud, r) == len(scalar_centers(space, pts, r)), r
        assert maximal_packing(space, pts[0], diam, r, cloud) == scalar_packing(
            space, pts[0], diam, r, pts
        ), r


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
    assert cloud.points == want
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
                for lab, p in cloud.items()
                if lab[: len(w)] == w and system.space.distance(p, x) < r
            }
            assert set(local.words) == hits
            assert sum(local.sample_counts) == len(cloud)


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


def test_symbolic_semiconformal_bounds_match_the_pair_loop():
    system = shipped_system("symbolifs")
    for word in system.alphabet.words_up_to(3):
        bounds = semiconformal_bounds(system, word)
        assert (bounds.lower, bounds.upper) == pairwise_semiconformal_bounds(system, word)
        assert not bounds.exact
