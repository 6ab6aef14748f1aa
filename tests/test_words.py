"""Word combinatorics, the dyadic tree metric, and stopping sets."""

import itertools
import math
import os
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moranlab import (
    Alphabet,
    ContractionSystem,
    DomainError,
    EnumerationCapError,
    EuclideanSpace,
    MultiplicativeModel,
    RectangleModel,
    SimilitudeMap,
    SubTree,
    antichain_cover_cost,
    attractor_cloud,
    stopping_set,
)
from moranlab.models import GeneralModel, LevelModel
from moranlab.words import (
    BLOCK_ELEMENTS, _check_enum, _stopping_walk, d2_with_resolution, incomparable, largest_depth,
    level_step, local_stopping_set, word_at, word_str,
)


def cantor_system():
    maps = (SimilitudeMap(1 / 3, (0.0,)), SimilitudeMap(1 / 3, (1.0,)))
    return ContractionSystem(
        EuclideanSpace(1), maps, ((0.0,), (1.0,)), seed_diameter=1.0
    )


# -- basic word operations --------------------------------------------------


def test_prefix_and_incomparability():
    assert incomparable((0, 1), (1, 1))
    assert not incomparable((0,), (0, 1))
    assert not incomparable((0, 1), (0, 1))


def test_word_str_forms():
    assert word_str((0, 1, 0)) == "0-1-0"
    assert word_str(()) == "()"


def test_alphabet_validates_symbols_and_size():
    abc = Alphabet(3)
    assert abc.check_word([2, 0, 1]) == (2, 0, 1)
    with pytest.raises(DomainError):
        abc.check_word((0, 3))
    with pytest.raises(ValueError):
        Alphabet(1)


@pytest.mark.parametrize("size", [2.5, 2.9, 3.0, True, "3"])
def test_alphabet_refuses_sizes_that_are_not_integers(size):
    # a size of 2.9 once gave a level model's pressure zero log 2.9 / log 2
    with pytest.raises(ValueError, match=r"^alphabet needs at least two symbols, got "):
        Alphabet(size)
    with pytest.raises(ValueError, match=r"^alphabet needs at least two symbols, got "):
        LevelModel(lambda n: 0.5, size)


def test_words_enumerate_in_lexicographic_order():
    abc = Alphabet(2)
    assert list(abc.words(2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(DomainError, match="length must be non-negative"):
        list(abc.words(-1))
    assert list(abc.words_up_to(2)) == [
        (0,),
        (1,),
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]


@given(st.lists(st.integers(1, 4), max_size=5))
def test_word_at_counts_in_mixed_radix(counts):
    """Index ``k`` names the ``k``-th word with ``i_j < counts[j]``, in lexicographic order."""
    words = list(itertools.product(*map(range, counts)))
    assert [word_at(k, counts) for k in range(len(words))] == words


def same_bits(x, y):
    """Equal dtype, shape and bits, except that any NaN matches any NaN
    (a NaN's payload depends on which operand the hardware keeps)."""
    nan = np.isnan(x)
    return (x.dtype == y.dtype and x.shape == y.shape and np.array_equal(nan, np.isnan(y))
            and np.array_equal(x[~nan].view(np.uint64), y[~nan].view(np.uint64)))


# every special float: NaN, both infinities, both zeros, subnormals
any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
special = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310])


@given(st.lists(any_float | special, max_size=40),
       st.lists(any_float | special, min_size=1, max_size=5))
@example(parent=[], steps=[0.5, 2.0])
def test_level_step_is_the_broadcast_bit_for_bit(parent, steps):
    """Child ``k*a + c`` is ``op(parent[k], steps[c])``: the broadcasts it
    replaced, ``(p[:, None] + s).ravel()`` and ``np.multiply.outer(p, s).ravel()``,
    an empty parent included."""
    p = np.array(parent, dtype=float)
    with np.errstate(all="ignore"):
        assert same_bits(level_step(p, steps), (p[:, None] + np.array(steps)).ravel())
        assert same_bits(level_step(p, steps, np.multiply), np.multiply.outer(p, steps).ravel())
        assert same_bits(level_step(p, tuple(steps), np.multiply), (p[:, None] * steps).ravel())


def test_enumeration_cap_is_enforced(monkeypatch):
    monkeypatch.setenv("MORANLAB_ENUM_CAP", "8")
    abc = Alphabet(2)
    assert len(list(abc.words(3))) == 8
    with pytest.raises(EnumerationCapError):
        list(abc.words(4))


def test_enumeration_cap_names_the_largest_depth_that_fits(monkeypatch):
    monkeypatch.setenv("MORANLAB_ENUM_CAP", "100")
    maps = [SimilitudeMap(1 / 3, (0,)), SimilitudeMap(1 / 3, (1,))]
    cantor = ContractionSystem(EuclideanSpace(1), maps, [(0.0,), (1.0,)])
    halves = GeneralModel(lambda w: -0.7 * len(w), Alphabet(2))
    calls = [
        (lambda: Alphabet(2).words(7), "level 7 would enumerate 128 words (cap 100)", 6),
        (lambda: Alphabet(3).words(9), "level 9 would enumerate 19683 words (cap 100)", 4),
        (lambda: GeneralModel(lambda w: -len(w), Alphabet(4)).level_log_sum(
            1.0, 4, SubTree((3, 3, 3, 4))),
         "level 4 of a GeneralModel would enumerate 108 words (cap 100)", 3),
        (lambda: antichain_cover_cost(Alphabet(2), lambda w: 1.0, 1, 7),
         "cover tree of depth 7 would enumerate 128 words (cap 100)", 6),
        (lambda: halves.level_log_sum(1.0, 8),
         "level 8 of a GeneralModel would enumerate 256 words (cap 100)", 6),
        # two samples per leaf: 2 * 2**6 words
        (lambda: attractor_cloud(cantor, 6, samples_per_leaf=2),
         "attractor cloud at depth 6 would enumerate 128 words (cap 100)", 5),
    ]
    for call, message, depth in calls:
        with pytest.raises(EnumerationCapError) as exc:
            call()
        assert str(exc.value) == "%s; the largest depth that fits is %d" % (message, depth)
    assert len(list(Alphabet(2).words(6))) == 64
    assert len(attractor_cloud(cantor, 5, samples_per_leaf=2)) == 64
    # not even the root's samples fit
    monkeypatch.setenv("MORANLAB_ENUM_CAP", "1")
    with pytest.raises(EnumerationCapError, match=r"\(cap 1\); no depth fits$"):
        attractor_cloud(cantor, 1, samples_per_leaf=2)
    # counts of no tree shape keep the short message
    with pytest.raises(EnumerationCapError, match=r"\(cap 1\)$"):
        stopping_set(MultiplicativeModel((1 / 3, 1 / 3)), 0.2)


def test_bad_enumeration_cap_is_reported(monkeypatch):
    monkeypatch.setenv("MORANLAB_ENUM_CAP", "many")
    with pytest.raises(EnumerationCapError):
        list(Alphabet(2).words(1))
    monkeypatch.setenv("MORANLAB_ENUM_CAP", "0")
    with pytest.raises(EnumerationCapError):
        list(Alphabet(2).words(1))


# -- the tree metric --------------------------------------------------------


def test_d2_values():
    """Distance is 2^(1-k) when the words first disagree at index k."""
    assert d2_with_resolution((0, 1), (1, 1)) == (1.0, True)
    assert d2_with_resolution((0, 1, 0), (0, 1, 1)) == (0.25, True)
    assert d2_with_resolution((0, 0, 1, 0), (0, 0, 0, 0)) == (0.25, True)


def test_d2_unresolved_prefixes():
    value, resolved = d2_with_resolution((0, 1), (0, 1))
    assert value == 0.0
    assert not resolved
    value, resolved = d2_with_resolution((0, 1), (0, 0))
    assert value == 0.5
    assert resolved


def test_d2_requires_equal_declared_depth():
    with pytest.raises(DomainError):
        d2_with_resolution((0,), (0, 1))


words_of_depth_5 = st.lists(
    st.integers(min_value=0, max_value=2), min_size=5, max_size=5
).map(tuple)


@given(u=words_of_depth_5, v=words_of_depth_5, w=words_of_depth_5)
def test_d2_is_an_ultrametric(u, v, w):
    def d2(a, b):
        return d2_with_resolution(a, b)[0]

    assert d2(u, v) <= max(d2(u, w), d2(w, v))
    assert d2(u, v) == d2(v, u)
    if u != v:
        assert d2(u, v) > 0


# -- sub-trees ---------------------------------------------------------------


def test_subtree_is_a_tuple_of_branch_counts():
    tree = SubTree([2, 1, 2])
    assert tree.depth == 3 and tree == (2, 1, 2)
    assert [tree.branch(k) for k in (1, 2, 3)] == [2, 1, 2]
    assert tree == SubTree((2, 1, 2)) and hash(tree) == hash(SubTree((2, 1, 2)))
    with pytest.raises(TypeError):
        tree[0] = 1


def test_largest_depth_fits_the_count():
    assert [largest_depth(2, c) for c in (0, 3, 4, 64, 4095, 4096)] == [1, 1, 2, 6, 11, 12]
    # the CLI's default clouds: 4096 points for dimension, 64 otherwise
    assert (largest_depth(4, 4096), largest_depth(4, 64), largest_depth(16, 64)) == (6, 3, 1)


def test_subtree_validation():
    with pytest.raises(DomainError, match=r"^branch count at level 2 must be >= 1, got 0$"):
        SubTree((2, 0))
    with pytest.raises(DomainError, match=r"^level 3 outside declared depth 2$"):
        SubTree((2, 2)).branch(3)
    with pytest.raises(DomainError, match=r"^branch count 3 at level 1 exceeds alphabet size 2$"):
        SubTree((3, 2)).check_alphabet(Alphabet(2))
    SubTree((2, 2)).check_alphabet(Alphabet(2))


@pytest.mark.parametrize("counts", [(2.5, 1), (2, 1.0), (True, 1), ("2", 1)])
def test_subtree_refuses_counts_that_are_not_integers(counts):
    # int() once turned (2.5, 1) into (2, 1)
    with pytest.raises(DomainError, match=r"^branch count at level \d must be an integer, got "):
        SubTree(counts)


@pytest.mark.parametrize("model", [
    MultiplicativeModel((1 / 3, 1 / 3)),
    LevelModel(lambda n: 0.5, 2),
    GeneralModel(lambda w: -0.7 * len(w), Alphabet(2)),
], ids=["multiplicative", "level", "general"])
def test_levels_past_a_subtree_name_the_first_missing_level(model):
    with pytest.raises(DomainError, match=r"^level 3 outside declared depth 2$"):
        model.level_log_sum(0.5, 5, SubTree((2, 1)))


def test_equal_subtrees_share_one_level_cache_entry():
    model = GeneralModel(lambda w: -0.7 * len(w), Alphabet(2))
    first = model.level_log_sum(0.5, 2, SubTree((2, 1)))
    assert model.level_log_sum(0.5, 2, SubTree([2, 1])) == first
    assert list(model._ld_cache) == [(2, SubTree((2, 1)))]


# -- stopping sets ------------------------------------------------------------


def test_stopping_set_uniform_thirds():
    model = MultiplicativeModel((1 / 3, 1 / 3))
    words = stopping_set(model, 0.2)
    assert words == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for i, u in enumerate(words):
        for v in words[i + 1 :]:
            assert incomparable(u, v)


def test_stopping_set_boundary_is_inclusive():
    """At r equal to a piece diameter the piece itself is kept."""
    model = MultiplicativeModel((1 / 3, 1 / 3))
    assert stopping_set(model, 1 / 3) == [(0,), (1,)]


def test_stopping_set_level_dependent_ratios():
    # diameters 1/2, 2^(-2.5), ... : r = 0.25 stops at level 2.
    model = LevelModel(lambda n: 2.0 ** (-2 + 1 / n), 2)
    words = stopping_set(model, 0.25)
    assert words == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_stopping_set_radius_range():
    model = MultiplicativeModel((1 / 3, 1 / 3))
    with pytest.raises(DomainError):
        stopping_set(model, 0.0)
    with pytest.raises(DomainError):
        stopping_set(model, 1.0)


def test_stopping_set_depth_guard():
    # one open word per level: 0.99**64 is still above r
    model = MultiplicativeModel((0.99, 1e-9))
    with pytest.raises(DomainError, match=r"within depth 64$"):
        stopping_set(model, 1e-6)


def test_stopping_set_honours_the_enumeration_cap(monkeypatch):
    model = MultiplicativeModel((1 / 3, 1 / 3))
    r = 1.5 * 3.0**-12
    assert len(stopping_set(model, r)) == 4096
    monkeypatch.setenv("MORANLAB_ENUM_CAP", "1000")
    with pytest.raises(EnumerationCapError):
        stopping_set(model, r)
    assert len(stopping_set(model, 1.5 * 3.0**-9)) == 512


def _recursive_stopping_set(model, r):
    """The depth-first walk the level-by-level one replaced."""
    out = []

    def visit(word):
        if model.diam(word) <= r:
            out.append(word)
            return
        for s in range(model.alphabet.size):
            visit(word + (s,))

    for s in range(model.alphabet.size):
        visit((s,))
    return out


@given(
    st.lists(st.sampled_from([0.2, 0.25, 0.5, 0.6]), min_size=2, max_size=3),
    st.floats(0.05, 0.9),
)
@settings(deadline=None)
def test_stopping_set_matches_the_depth_first_walk(ratios, r):
    # repeated ratios put whole families of words exactly on the boundary
    model = MultiplicativeModel(ratios)
    assert stopping_set(model, r) == _recursive_stopping_set(model, r)


def _tuple_stopping_walk(model, r, max_depth):
    """The walk the level arrays replaced: a tuple and a ``diam`` call per word.
    Returns the sorted stopping words and the words still wider than ``r``."""
    if not 0 < r < model.seed_diameter:
        raise DomainError(
            "stopping radius must lie in (0, seed diameter); got r=%r, seed=%r"
            % (r, model.seed_diameter)
        )
    symbols = range(model.alphabet.size)
    out, frontier = [], [()]
    while frontier and len(frontier[0]) < max_depth:
        _check_enum(len(out) + len(frontier) * len(symbols), "stopping set at r=%r" % r)
        children = [w + (s,) for w in frontier for s in symbols]
        frontier = []
        for w in children:
            (out if model.diam(w) <= r else frontier).append(w)
    return sorted(out), frontier


def _tuple_stopping_set(model, r, max_depth=64):
    out, wide = _tuple_stopping_walk(model, r, max_depth)
    if wide:
        raise DomainError(
            "piece diameters did not drop below r=%r within depth %d" % (r, max_depth)
        )
    return out


def _tuple_local_stopping_set(model, cloud, x, r):
    """``local_stopping_set`` on the tuple walk, with ``cloud.piece`` per candidate."""
    candidates, wide = _tuple_stopping_walk(model, r, cloud.depth)
    if wide:
        w = wide[0] + (0,)
        while model.diam(w) > r and len(w) < 64:
            w += (0,)
        raise DomainError(
            "stopping word %s is deeper than the cloud (depth %d); "
            "regenerate the cloud at depth >= %d" % (word_str(w), cloud.depth, len(w))
        )
    inside = cloud.space.distances(cloud.coordinates, cloud.space.coordinates([x]))[0] < r
    return tuple(w for w in candidates if inside[cloud.piece(w)].any()), tuple(candidates)


def _tuple_walk_head(model, r, max_depth):
    """``_tuple_stopping_walk`` as ``_stopping_walk`` answers: the first wide word, else ``None``."""
    out, wide = _tuple_stopping_walk(model, r, max_depth)
    return out, wide[0] if wide else None


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the type and text of the error it raises."""
    try:
        return call(*args)
    except (DomainError, EnumerationCapError) as exc:
        return type(exc), str(exc)


WALK_RATIOS = st.sampled_from([0.2, 0.25, 1 / 3, 0.5, 0.6])


@st.composite
def walk_models(draw):
    """A multiplicative, rectangle, level or general model on two or three letters."""
    k = draw(st.integers(2, 3))
    ratios = draw(st.lists(WALK_RATIOS, min_size=k, max_size=k))
    kind = draw(st.sampled_from(["multiplicative", "rectangle", "level", "general"]))
    if kind == "multiplicative":
        return MultiplicativeModel(ratios, draw(st.sampled_from([1.0, 0.5, 3.0])))
    if kind == "rectangle":
        return RectangleModel(ratios, draw(st.lists(WALK_RATIOS, min_size=k, max_size=k)))
    if kind == "level":
        return LevelModel(lambda n: ratios[n % k], k, draw(st.sampled_from([1.0, 2.0])))
    logs = [math.log(q) for q in ratios]
    # not a product, and not symmetric: a word whose first letter is the larger is wider
    return GeneralModel(lambda w: sum(logs[s] for s in w) + 0.1 * (w[0] > w[-1]), Alphabet(k))


@st.composite
def walk_radii(draw, model):
    """A piece diameter (a product of ratios: the inclusive boundary) or a share of the seed's."""
    word = draw(st.lists(st.integers(0, model.alphabet.size - 1), min_size=1, max_size=5))
    r = model.diam(tuple(word))
    if r < model.seed_diameter and draw(st.booleans()):
        return r
    return model.seed_diameter * draw(st.floats(0.01, 0.99))


@given(st.data(), walk_models(), st.sampled_from([1, 3, 40, 2**12]), st.integers(1, 12))
@settings(deadline=None, max_examples=300)
def test_array_walk_equals_the_tuple_walk(data, model, cap, max_depth):
    """Words, the depth ``DomainError`` and the cap message are the tuple walk's."""
    r = data.draw(walk_radii(model))
    with mock.patch.dict(os.environ, {"MORANLAB_ENUM_CAP": str(cap)}):
        for depth in (max_depth, 64):
            want = _outcome(_tuple_walk_head, model, r, depth)
            assert _outcome(_stopping_walk, model, r, depth) == want
        assert _outcome(stopping_set, model, r) == _outcome(_tuple_stopping_set, model, r)


def test_rectangle_walk_decides_on_libm_exp():
    """At ``r = diam(w)`` and one float below it for every short word: ``np.exp``
    differs from ``math.exp`` by an ulp on some of these log-diameters, so the
    walk must decide on ``diam``'s own floats to keep the tuple walk's boundary."""
    model = RectangleModel((1 / 3, 0.25), (0.4, 0.45))
    for n in range(1, 7):
        for w in itertools.product(range(2), repeat=n):
            for r in (model.diam(w), math.nextafter(model.diam(w), 0.0)):
                assert stopping_set(model, r) == _tuple_stopping_set(model, r), (w, r)


@given(st.data(), walk_models(), st.integers(1, 4))
@settings(deadline=None, max_examples=150)
def test_local_array_walk_equals_the_tuple_walk(data, model, depth):
    """Candidates, words and the deeper-than-the-cloud message are the tuple walk's."""
    r = data.draw(walk_radii(model))
    k = model.alphabet.size
    maps = tuple(SimilitudeMap(1 / (k + 1), (float(s),)) for s in range(k))
    cloud = attractor_cloud(ContractionSystem(EuclideanSpace(1), maps, ((0.0,), (1.0,))), depth, 2)
    x = (data.draw(st.floats(-0.5, k)),)
    want = _outcome(_tuple_local_stopping_set, model, cloud, x, r)
    assert _outcome(lambda: tuple(local_stopping_set(model, cloud, x, r))) == want


def test_stopping_walk_memory_stays_bounded_up_to_the_cap(monkeypatch):
    """2^18 frontier words at the cap: the tuple walk peaked at 73 MB here."""
    monkeypatch.setenv("MORANLAB_ENUM_CAP", str(2**18))
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError, match=r"would enumerate 524288 words \(cap 262144\)$"):
            stopping_set(MultiplicativeModel([39 / 40, 39 / 40]), 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def test_local_stopping_set_near_the_left_end():
    system = cantor_system()
    cloud = attractor_cloud(system, 6)
    model = system.induced_model()
    local = local_stopping_set(model, cloud, (0.0,), 0.33)
    assert local.words == ((0, 0), (0, 1))
    assert local.candidates == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert [len(cloud.coordinates[cloud.piece(w)]) for w in local.candidates] == [16] * 4
    assert len(local.words) == 2


def test_local_stopping_set_far_point_sees_nothing():
    system = cantor_system()
    cloud = attractor_cloud(system, 6)
    local = local_stopping_set(system.induced_model(), cloud, (10.0,), 0.33)
    assert local.words == ()
    assert len(local.candidates) == 4


def test_local_stopping_set_needs_a_deep_enough_cloud():
    system = cantor_system()
    cloud = attractor_cloud(system, 1)
    with pytest.raises(DomainError):
        local_stopping_set(system.induced_model(), cloud, (0.0,), 0.33)


def full_walk_depth_error(model, r, depth):
    """The depth check as it was: the whole stopping set is walked, then its
    first word deeper than the cloud is named."""
    for w in stopping_set(model, r):
        if len(w) > depth:
            return (
                "stopping word %s is deeper than the cloud (depth %d); "
                "regenerate the cloud at depth >= %d" % (word_str(w), depth, len(w))
            )
    return None


@given(
    st.lists(st.sampled_from([0.2, 0.25, 0.5, 0.6]), min_size=2, max_size=3),
    st.floats(0.01, 0.9),
    st.integers(1, 4),
)
@settings(deadline=None)
def test_local_stopping_set_walks_no_deeper_than_the_cloud(ratios, r, depth):
    model = MultiplicativeModel(ratios)
    maps = tuple(SimilitudeMap(q, (float(k),)) for k, q in enumerate(ratios))
    system = ContractionSystem(EuclideanSpace(1), maps, ((0.0,),), seed_diameter=1.0)
    cloud = attractor_cloud(system, depth)
    want = full_walk_depth_error(model, r, depth)
    if want is None:
        assert list(local_stopping_set(model, cloud, (0.0,), r).candidates) == stopping_set(model, r)
    else:
        with pytest.raises(DomainError) as caught:
            local_stopping_set(model, cloud, (0.0,), r)
        assert str(caught.value) == want


# -- antichain cover cost ------------------------------------------------------


def test_cover_cost_is_level_sum_at_the_critical_exponent():
    """With psi = diam^t* every full level costs exactly the same."""
    import math

    t_star = math.log(2) / math.log(3)
    model = MultiplicativeModel((1 / 3, 1 / 3))
    cost = antichain_cover_cost(
        Alphabet(2), lambda w: model.diam(w) ** t_star, 1, 6
    )
    assert cost == pytest.approx(1.0, abs=1e-12)


def test_cover_cost_prefers_the_deepest_level_for_small_t():
    model = MultiplicativeModel((1 / 3, 1 / 3))
    cost = antichain_cover_cost(Alphabet(2), lambda w: model.diam(w), 1, 5)
    assert cost == pytest.approx((2 / 3) ** 5, rel=1e-12)


def test_cover_cost_with_unit_weights_picks_the_top_level():
    assert antichain_cover_cost(Alphabet(2), lambda w: 1.0, 1, 4) == 2.0
    assert antichain_cover_cost(Alphabet(3), lambda w: 1.0, 1, 4) == 3.0


def test_cover_cost_monotone_in_the_minimum_depth():
    model = MultiplicativeModel((1 / 3, 1 / 2))
    psi = lambda w: model.diam(w) ** 0.7
    costs = [antichain_cover_cost(Alphabet(2), psi, n, 6) for n in (1, 2, 3)]
    assert costs[0] <= costs[1] <= costs[2]


def test_cover_cost_depth_window_validated():
    with pytest.raises(DomainError):
        antichain_cover_cost(Alphabet(2), lambda w: 1.0, 3, 2)
    with pytest.raises(DomainError):
        antichain_cover_cost(Alphabet(2), lambda w: 1.0, 0, 2)


# -- cover cost against the recursion --------------------------------------------


def exact_sum(xs):
    """The sum of ``xs`` in exact arithmetic: a ``Fraction``, or where a term is a
    NaN or an infinity, the float that every order of IEEE addition gives."""
    special = [x for x in xs if isinstance(x, float)]
    return sum(special) if special else sum(xs, Fraction(0))


def exact_cover_cost(alphabet, psi, n, max_depth):
    """The cover recursion in exact arithmetic over the floats ``psi`` returns:
    finite values as ``Fraction``s, NaN and infinities as floats; ``min`` keeps
    ``psi(v)`` unless the children are smaller, as the kernel does."""

    def value(word):
        x = float(psi(word))
        return Fraction(x) if math.isfinite(x) else x

    def cost(word):
        if len(word) == max_depth:
            return value(word)
        kids = exact_sum([cost(word + (s,)) for s in range(alphabet.size)])
        if len(word) >= n:
            return min(value(word), kids)
        return kids

    return cost(())


def same_float(x, y):
    """``==`` that also matches NaN with NaN and tells -0.0 from 0.0."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


@st.composite
def cover_windows(draw):
    """Two to four letters, or more than 8, where numpy's sum is pairwise."""
    a = draw(st.sampled_from([2, 3, 4, 9, 11]))
    max_depth = draw(st.integers(1, 7 if a <= 4 else 3))
    return a, draw(st.integers(1, max_depth)), max_depth


def word_index(w):
    return sum((i + 1) * s for i, s in enumerate(w)) + len(w)


@st.composite
def cover_weights(draw, a):
    """Multiplicative weights (as floats or ``np.float64``), tie-heavy grid weights,
    Python int weights, or weights taking NaN, inf and ±0.0."""
    kind = draw(st.sampled_from(["multiplicative", "float64", "grid", "int", "special"]))
    if kind in ("multiplicative", "float64"):
        model = MultiplicativeModel(
            draw(st.lists(st.floats(0.05, 0.95), min_size=a, max_size=a)),
            draw(st.sampled_from([0.5, 1.0, 3.0])),
        )
        t = draw(st.sampled_from([0.3, 0.63, 1.0, 1.7]))
        if kind == "float64":
            return lambda w: np.float64(model.diam(w)) ** t
        return lambda w: model.diam(w) ** t
    if kind == "int":
        weight = draw(st.lists(st.integers(0, 9), min_size=a, max_size=a))
        wobble = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=5))
        return lambda w: sum(weight[s] for s in w) + wobble[word_index(w) % len(wobble)]
    if kind == "grid":
        step = draw(st.sampled_from([0.25, 0.5, 1 / 3, 1.0]))
        weight = draw(st.lists(st.integers(-3, 0), min_size=a, max_size=a))
        wobble = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=5))
        return lambda w: 2.0 ** (
            step * (sum(weight[s] for s in w) + wobble[word_index(w) % len(wobble)])
        )
    values = draw(st.lists(
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, 1.0, 2.0, 1e-300]),
        min_size=1, max_size=7,
    ))
    return lambda w: values[word_index(w) % len(values)]


def block_size(a):
    """Block sizes that cut the tree into one-level, two-level or whole blocks."""
    return st.sampled_from([2, a * a, a**3 + 1, BLOCK_ELEMENTS])


@given(cover_windows(), st.data())
@settings(max_examples=80, deadline=None)
def test_cover_cost_equals_the_recursion(window, data):
    """Finite non-negative ``psi``: within a relative ``max_depth * a * 2**-52`` of
    the exact recursion (each level adds ``a`` non-negative children in some order,
    ``(a - 1) * 2**-53`` each).  Integer ``psi`` sums exactly; NaN and infinities
    give the exact recursion's float."""
    a, n, max_depth = window
    psi = data.draw(cover_weights(a))
    alphabet = Alphabet(a)
    with mock.patch("moranlab.words.BLOCK_ELEMENTS", data.draw(block_size(a))):
        got = antichain_cover_cost(alphabet, psi, n, max_depth)
    # psi's values are read as floats: an int or np.float64 psi gives a float cost
    assert type(got) is float
    want = exact_cover_cost(alphabet, psi, n, max_depth)
    if isinstance(want, float):
        assert same_float(got, want)
    else:
        assert abs(Fraction(got) - want) <= max_depth * a * 2**-52 * abs(want)


def test_cover_cost_min_keeps_psi_unless_the_children_are_smaller():
    """``min(psi(v), kids)``: a NaN ``psi`` is kept, NaN children never win."""
    cases = ((math.nan, 0.25, math.nan), (1.0, math.nan, 2.0), (math.inf, 0.25, 1.0))
    for top, leaf, want in cases:
        psi = lambda w, top=top, leaf=leaf: top if len(w) == 1 else leaf
        got = antichain_cover_cost(Alphabet(2), psi, 1, 2)
        assert same_float(got, want)
        assert same_float(got, float(exact_cover_cost(Alphabet(2), psi, 1, 2)))


@given(cover_windows(), st.data())
@settings(max_examples=60, deadline=None)
def test_cover_cost_calls_psi_once_per_word_children_first(window, data):
    a, n, max_depth = window
    block = data.draw(block_size(a))
    calls = []

    def psi(w):
        calls.append(w)
        return 1.0 / (1 + len(w))

    with mock.patch("moranlab.words.BLOCK_ELEMENTS", block):
        antichain_cover_cost(Alphabet(a), psi, n, max_depth)
    levels = [w for m in range(max_depth, n - 1, -1) for w in itertools.product(range(a), repeat=m)]
    assert sorted(calls) == sorted(levels)  # once per word, never on one shorter than n
    order = {w: i for i, w in enumerate(calls)}
    assert all(order[w[:k]] > order[w] for w in calls for k in range(n, len(w)))
    if a**max_depth <= block:  # one block: deepest level first, lexicographic
        assert calls == levels
    elif n < max_depth:  # the leaves come a block at a time, never a whole level
        step = max(s for s in range(1, max_depth + 1) if a**s <= block or s == 1)
        leaves = (len(list(run)) for deep, run in
                  itertools.groupby(calls, lambda w: len(w) == max_depth) if deep)
        assert max(leaves) == a**step
