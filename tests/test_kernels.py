"""Vectorised distance kernels and the fast paths built on them.

Each fast path is checked against a scalar reference: the kernels against
``space.distance``, greedy covers and packings against the pairwise scan,
level-by-level clouds against ``apply_word``, and the integer levels of
exact systems against exact scalar arithmetic.
"""

import math
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranlab import (
    GOLDEN_RATIO,
    Alphabet,
    CombMap,
    CombSpace,
    ContractionSystem,
    DomainError,
    EuclideanSpace,
    HeisenbergSpace,
    PointCloud,
    QuadraticNumber,
    SimilitudeMap,
    SnowflakeSpace,
    SymbolSpace,
    attractor_cloud,
    box_count,
    load_spec,
    local_stopping_set,
    maximal_packing,
    osc_collision_scan,
    pressure_zero,
    semiconformal_bounds,
    separation_epsilon,
)
from moranlab.cli import _default_scales
from moranlab.systems import _integer_levels
from moranlab.words import incomparable, word_str

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
    """The exact-point path: levels of exact points, then their float rows."""
    words = list(system.alphabet.words_up_to(depth))
    level, points = (tuple(x),), []
    for _ in range(depth):
        level = system.next_level(level)
        points.extend(level)
    sep = np.array([system.word_lip_bounds(w)[0] for w in words])
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
        ratio = system.space.distances(X[j], points[i]) / (sep[i] + sep[j])
        ratio[(lo[i] <= lo[j]) & (hi[j] <= hi[i])] = np.inf
        best = min(best, float(ratio.min()))
    return best


def check_integer_levels(system, depth):
    seeds = system.seed_points
    assert _integer_levels(system, seeds) is not None
    cloud = attractor_cloud(system, depth, samples_per_leaf=len(seeds))
    want = exact_cloud(system, depth, seeds)
    assert cloud.points == want
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


def test_integer_numerators_outgrow_int64():
    system = ContractionSystem(
        EuclideanSpace(1),
        (SimilitudeMap(Fraction(7, 19), (0,)), SimilitudeMap(Fraction(5, 23), (Fraction(1, 997),))),
        ((Fraction(1, 3),),),
    )
    for level, _ in zip(_integer_levels(system, system.seed_points), range(8)):
        pass
    assert level.den > 2**63 and max(level.a[0]) > 2**63
    check_integer_levels(system, 8)


@pytest.mark.parametrize(
    "maps, seeds",
    [
        # rational and quadratic ratios in one system
        ((CombMap(Fraction(1, 2), 0), CombMap(GOLDEN_RATIO, 1)), ((0, Fraction(1, 2)),)),
        # rational ratios, a quadratic seed coordinate
        ((CombMap(Fraction(1, 2), 0), CombMap(Fraction(1, 3), 1)), ((GOLDEN_RATIO, 1),)),
        # exact maps, a float seed
        ((CombMap(Fraction(1, 2), 0), CombMap(Fraction(1, 3), 1)), ((0.5, 1),)),
        # a float ratio
        ((CombMap(0.5, 0), CombMap(Fraction(1, 3), 1)), ((0, 1),)),
    ],
)
def test_mixed_systems_fall_back_to_exact_scalars(maps, seeds):
    system = ContractionSystem(EuclideanSpace(2), maps, seeds)
    assert _integer_levels(system, seeds) is None
    cloud = attractor_cloud(system, 4)
    want = exact_cloud(system, 4, seeds)
    assert cloud.points == want
    assert [type(c) for p in cloud.points for c in p] == [type(c) for p in want for c in p]
    assert cloud.coordinates.tobytes() == float_bits(want)
    assert separation_epsilon(system, seeds[0], 4) == per_point_epsilon(system, seeds[0], 4)


def test_two_radicands_still_raise():
    maps = (CombMap(GOLDEN_RATIO, 0), CombMap(QuadraticNumber(0, Fraction(1, 2), 2), 1))
    system = ContractionSystem(EuclideanSpace(2), maps, ((0, 1),))
    assert _integer_levels(system, system.seed_points) is None
    with pytest.raises(ValueError, match="mixed radicands"):
        attractor_cloud(system, 2)


def test_ragged_seeds_still_raise():
    maps = [SimilitudeMap(Fraction(1, 3), (0, k)) for k in (0, 1)]
    system = ContractionSystem(EuclideanSpace(2), maps, ((0, 1), (0,)))
    assert _integer_levels(system, system.seed_points) is None
    with pytest.raises(DomainError, match="2-dimensional"):
        attractor_cloud(system, 3, samples_per_leaf=2).coordinates


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


def exact_collisions(r, depth):
    """Canonical colliding pairs by brute force over exact anchor sums."""
    pairs = set()
    for m in range(1, depth + 1):
        for c in product((-1, 0, 1), repeat=m):
            if c[-1] == 0 or next(x for x in c if x) < 0:
                continue
            total = r * 0
            for k, x in enumerate(c):
                total = total + x * r**k
            if total == 0:
                u = tuple(int(x > 0) for x in c)
                v = tuple(int(x < 0) for x in c)
                pairs.add((u, v) if u > v else (v, u))
    return pairs


@pytest.mark.parametrize(
    "r", [GOLDEN_RATIO, QuadraticNumber(0, Fraction(1, 2), 2), Fraction(2, 3), Fraction(5, 7)]
)
def test_collision_scan_agrees_with_exact_anchor_sums(r):
    pairs = exact_collisions(r, 7)
    # a wide tolerance makes many near misses candidates; each is re-decided
    for depth, tol in product(range(1, 8), (1e-9, 0.5)):
        scan = osc_collision_scan(r, depth, tol)
        assert scan.exact
        assert {(u, v) for u, v, _ in scan} == {p for p in pairs if len(p[0]) <= depth}
        assert all(gap == 0.0 for _, _, gap in scan)


@pytest.mark.parametrize("name", SHIPPED_SYSTEMS)
def test_csv_and_default_scales_read_the_float_rows(name):
    system = shipped_system(name)
    cloud = attractor_cloud(system, 2 if name == "heisenberg" else 5)
    rows = [[float(c) for c in p] for p in cloud.points]
    assert cloud.float_rows() == rows
    if name != "symbolifs":
        body = ["%s,%s" % (word_str(w), ",".join("%.12g" % float(c) for c in p))
                for w, p in cloud.items()]
        assert cloud.to_csv().splitlines()[1:] == body
    span = max(max(col) - min(col) for col in zip(*rows))
    assert _default_scales(cloud) == [span * 2.0**-k for k in range(2, 7)]
