"""Contraction systems: clouds, distortion bounds, and separation probes."""

import math
from pathlib import Path

import pytest

from moranlab import (
    Affine2DMap,
    Alphabet,
    CombMap,
    CombSpace,
    ContractionSystem,
    DomainError,
    EuclideanSpace,
    GeneralModel,
    GOLDEN_RATIO,
    MultiplicativeModel,
    SimilitudeMap,
    SymbolMap,
    SymbolSpace,
    attractor_cloud,
    ball_condition_probe,
    finite_clustering_sup,
    osc_collision_scan,
    proper_semiconformality_check_symbolic,
    semiconformal_bounds,
    separation_epsilon,
)
from moranlab.cli import _cloud_csv
from moranlab.specio import load_spec
from moranlab.systems import ContractionMap

SPECS = Path(__file__).resolve().parent.parent / "specs"


def cantor_system():
    maps = (SimilitudeMap(1 / 3, (0.0,)), SimilitudeMap(1 / 3, (1.0,)))
    return ContractionSystem(
        EuclideanSpace(1), maps, ((0.0,), (1.0,)), seed_diameter=1.0
    )


def symbol_system():
    space = SymbolSpace(Alphabet(3))
    maps = (
        SymbolMap(((1, 0), (1,), (1,))),
        SymbolMap(((2, 0), (2,), (2,))),
    )
    return ContractionSystem(space, maps, ((0,), (1,), (2,)))


# -- systems and clouds -----------------------------------------------------


def test_apply_word_composes_left_to_right():
    """apply_word((a, b), x) is phi_a(phi_b(x))."""
    system = cantor_system()
    x = (0.4,)
    direct = system.maps[1].apply(system.maps[0].apply(x))
    assert system.apply_word((1, 0), x) == direct
    assert system.apply_word((), x) == x


def test_system_needs_two_maps_and_a_seed():
    space = EuclideanSpace(1)
    with pytest.raises(DomainError):
        ContractionSystem(space, (SimilitudeMap(0.5, (0.0,)),), ((0.0,),))
    with pytest.raises(DomainError):
        ContractionSystem(
            space, (SimilitudeMap(0.5, (0.0,)), SimilitudeMap(0.5, (1.0,))), ()
        )


def test_cantor_cloud_at_depth_two():
    cloud = attractor_cloud(cantor_system(), 2)
    assert cloud.depth == 2
    assert cloud.labels == ((0, 0), (0, 1), (1, 0), (1, 1))
    xs = [p[0] for p in cloud.points]
    assert xs == pytest.approx([0.0, 2 / 9, 2 / 3, 8 / 9], abs=1e-15)
    assert _cloud_csv(cloud).splitlines()[0] == "word,x"


def test_cloud_sampling_options():
    system = cantor_system()
    assert len(attractor_cloud(system, 3, samples_per_leaf=2)) == 16
    with pytest.raises(DomainError):
        attractor_cloud(system, 0)
    with pytest.raises(DomainError):
        attractor_cloud(system, 2, samples_per_leaf=3)


def test_comb_cloud_points_follow_the_anchor_formula():
    r = 0.75
    space = CombSpace(r)
    maps = (CombMap(r, 0), CombMap(r, 1))
    system = ContractionSystem(space, maps, ((0.0, 0.5),))
    cloud = attractor_cloud(system, 3)
    for word, (x, y) in zip(cloud.labels, cloud.points):
        anchor = sum(s * r**k for k, s in enumerate(word))  # x_w = sum(w_k r**(k-1))
        assert x == pytest.approx(anchor, abs=1e-15)
        assert y == pytest.approx(r**3 * 0.5, abs=1e-15)


def test_induced_model_is_exact_for_similitudes():
    system = cantor_system()
    model = system.induced_model()
    assert isinstance(model, MultiplicativeModel)
    assert model.ratios == (pytest.approx(1 / 3), pytest.approx(1 / 3))
    assert model.seed_diameter == 1.0
    # geometric nesting can only be witnessed against a cloud
    assert model.containment_check is None
    assert system.induced_model(attractor_cloud(system, 5)).containment_check is not None


def affine_system():
    maps = (
        Affine2DMap(((1 / 2, 0.0), (0.0, 1 / 4)), (0.0, 0.0)),
        Affine2DMap(((1 / 4, 0.0), (0.0, 1 / 2)), (1 / 2, 1 / 2)),
    )
    return ContractionSystem(
        EuclideanSpace(2), maps, ((0.0, 0.0), (1.0, 1.0)), seed_diameter=math.sqrt(2)
    )


def test_induced_model_of_affine_maps_samples_a_default_cloud():
    system = affine_system()
    # two maps, two seeds: the depth-8 cloud of 512 points
    default = system.induced_model()
    assert isinstance(default, GeneralModel)
    assert default.diam((0, 1)) == system.induced_model(attractor_cloud(system, 8, 2)).diam((0, 1))
    cloud = attractor_cloud(system, 4, samples_per_leaf=2)
    model = system.induced_model(cloud)
    assert isinstance(model, GeneralModel)
    assert model.diam((0,)) <= model.seed_diameter


@pytest.mark.parametrize("name", ["comb", "heisenberg", "symbolifs", "affine"])
def test_induced_model_without_a_cloud_samples_the_documented_default(name):
    """No seed diameter or inexact bounds: ``min(2, #seeds)`` samples per
    piece, at the largest depth >= 1 with at most 512 points."""
    system = affine_system() if name == "affine" else load_spec(SPECS / (name + ".json")).system
    samples = min(2, len(system.seed_points))
    depth = max([1] + [n for n in range(1, 10) if system.alphabet.size**n * samples <= 512])
    default = system.induced_model()
    given = system.induced_model(attractor_cloud(system, depth, samples))
    assert default.seed_diameter == given.seed_diameter
    for w in system.alphabet.words_up_to(3):
        assert default.log_diam(w) == given.log_diam(w)
    # the W1 verdict and its note
    assert default.containment_check() == given.containment_check()


def test_symbolic_word_bounds_read_no_points(monkeypatch):
    system = load_spec(SPECS / "symbolifs.json").system
    calls = []
    coordinates = SymbolSpace.coordinates
    monkeypatch.setattr(
        SymbolSpace, "coordinates", lambda sp, points: calls.append(sp) or coordinates(sp, points)
    )
    for w in system.alphabet.words_up_to(3):
        assert system.word_lip_bounds(w) == semiconformal_bounds(system, w)
    # the bounds come from the composite tables alone
    assert calls == []


def test_containment_check_accepts_a_genuine_attractor():
    system = cantor_system()
    cloud = attractor_cloud(system, 7)
    model = system.induced_model(cloud)
    ok, note = model.containment_check()
    assert ok


# -- distortion bounds ----------------------------------------------------------


def test_similitude_chain_distortion_is_exact():
    maps = (SimilitudeMap(1 / 3, (0.0,)), SimilitudeMap(1 / 2, (1.0,)))
    system = ContractionSystem(EuclideanSpace(1), maps, ((0.0,),), seed_diameter=1.0)
    bounds = semiconformal_bounds(system, (0, 1))
    assert (bounds.lower, bounds.upper) == (pytest.approx(1 / 6), pytest.approx(1 / 6))
    assert bounds.exact
    assert semiconformal_bounds(system, ()) == semiconformal_bounds(system, ())
    assert semiconformal_bounds(system, ()).lower == 1.0


def test_affine_chain_uses_singular_values():
    maps = (
        Affine2DMap(((1 / 3, 0.0), (0.0, 1 / 4)), (0.0, 0.0)),
        Affine2DMap(((1 / 4, 0.0), (0.0, 1 / 2)), (1 / 2, 0.0)),
    )
    system = ContractionSystem(EuclideanSpace(2), maps, ((0.0, 0.0),))
    bounds = semiconformal_bounds(system, (0,))
    assert (bounds.lower, bounds.upper) == (pytest.approx(1 / 4), pytest.approx(1 / 3))
    assert bounds.exact
    # the chained product diag(1/12, 1/8) is tighter than the per-map
    # bound product [1/16, 1/6]
    chained = semiconformal_bounds(system, (0, 1))
    assert (chained.lower, chained.upper) == (
        pytest.approx(1 / 12),
        pytest.approx(1 / 8),
    )
    assert chained.exact


def test_symbolic_distortion_lands_on_powers_of_two():
    """Prefix-rewriting maps shift the disagreement index by 1 or 2: the
    bounded-distortion constant ``sup_w upper(w) / lower(w)`` is 2 at every
    length 1 to 8."""
    system = symbol_system()
    for word in system.alphabet.words_up_to(8):
        if word:
            bounds = semiconformal_bounds(system, word)
            assert bounds.lower == 2.0 ** (-len(word) - 1)
            assert bounds.upper == 2.0 ** (-len(word))
            assert bounds.exact
    # the product of the per-map bounds [1/4, 1/2] is looser than the composite table's
    assert semiconformal_bounds(system, (0, 0)) == (1 / 8, 1 / 4, True)


def test_prepending_maps_are_tight_and_induce_a_multiplicative_model():
    """A map whose table holds one word ``P`` for every letter scales the tree
    metric by exactly ``2**-len(P)``: its bounds are tight, and so is each word's."""
    maps = (SymbolMap(((0,), (0,))), SymbolMap(((1, 1), (1, 1))))
    system = ContractionSystem(SymbolSpace(Alphabet(2)), maps, ((0,),), seed_diameter=1.0)
    assert [m.lip_bounds() for m in maps] == [(0.5, 0.5), (0.25, 0.25)]
    assert semiconformal_bounds(system, (0, 1, 1)) == (1 / 32, 1 / 32, True)
    model = system.induced_model()
    assert isinstance(model, MultiplicativeModel)
    assert model.ratios == (0.5, 0.25)


def test_symbolic_cylinder_check_passes_for_prefix_rewriters():
    report = proper_semiconformality_check_symbolic(symbol_system(), 6)
    assert report.passed
    assert report.max_distance_error == 0.0
    assert report.cylinder_violations == []


class _SecondSymbolMap(ContractionMap):
    """Deliberately ill-behaved: branches on the second symbol."""

    kind = "second-symbol"

    def apply(self, word):
        head = (0,) if len(word) > 1 and word[1] == 0 else (1,)
        return head + tuple(word)


def test_symbolic_cylinder_check_catches_second_symbol_branching():
    space = SymbolSpace(Alphabet(2))
    system = ContractionSystem(
        space, (_SecondSymbolMap(), SymbolMap(((1,), (1,)))), ((0,), (1,))
    )
    report = proper_semiconformality_check_symbolic(system, 4)
    assert not report.passed
    assert report.max_distance_error == 0.0  # the distance law holds: the cylinders fail
    assert any(mi == 0 for mi, _ in report.cylinder_violations)
    with pytest.raises(DomainError):
        proper_semiconformality_check_symbolic(system, 1)


# -- anchor collision scans --------------------------------------------------------


def test_golden_ratio_collides_exactly():
    """r + r^2 = 1 makes the anchors of 1-0-0 and 0-1-1 coincide."""
    scan = osc_collision_scan(GOLDEN_RATIO, 8)
    assert scan.exact
    assert len(scan) == 28
    assert scan.collisions[0] == ((1, 0, 0), (0, 1, 1), 0.0)
    assert all(gap == 0.0 for _, _, gap in scan)
    assert scan.min_nonzero_gap > 0.02


def test_collision_pairs_are_canonical():
    scan = osc_collision_scan(GOLDEN_RATIO, 8)
    for u, v, _ in scan.collisions:
        assert len(u) == len(v)
        assert (u[-1], v[-1]) != (0, 0)
        assert u > v


def test_float_ratio_reports_tolerance_hits():
    scan = osc_collision_scan(float(GOLDEN_RATIO), 8)
    assert not scan.exact
    assert len(scan) == 28
    assert all(gap <= 1e-9 for _, _, gap in scan)
    assert max(gap for _, _, gap in scan) > 0.0


def test_generic_ratio_has_no_collisions():
    scan = osc_collision_scan(math.pi / 4, 10)
    assert len(scan) == 0
    assert scan.min_nonzero_gap == pytest.approx(1.662e-4, rel=1e-3)


def test_collision_scan_domain():
    with pytest.raises(DomainError):
        osc_collision_scan(0.4, 6)
    with pytest.raises(DomainError):
        osc_collision_scan(1.0, 6)
    with pytest.raises(DomainError):
        osc_collision_scan(0.75, 15)
    with pytest.raises(DomainError):
        osc_collision_scan(0.75, 0)


# -- separation probes ---------------------------------------------------------------


def test_separated_branches_have_unit_epsilon():
    system = cantor_system()
    for depth in (2, 4, 6):
        eps = separation_epsilon(system, (0.5,), depth)
        assert eps == pytest.approx(1.0, rel=1e-12)


def test_epsilon_accepts_list_points():
    system = cantor_system()
    assert separation_epsilon(system, [0.0], 1) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DomainError):
        separation_epsilon(system, (0.5,), 0)


def test_comb_overlap_drives_epsilon_to_zero():
    """At the golden ratio the order-3 branches collide exactly."""
    system = load_spec(SPECS / "comb.json").require_system()
    x = system.seed_points[0]
    assert separation_epsilon(system, x, 2) == pytest.approx(
        0.3997875138752156, rel=1e-12
    )
    assert separation_epsilon(system, x, 3) == 0.0


def test_clustering_bound_on_the_middle_thirds_set():
    system = cantor_system()
    cloud = attractor_cloud(system, 6)
    model = system.induced_model()
    sup = finite_clustering_sup(model, cloud, 50, [0.2, 0.1])
    assert isinstance(sup, int)
    assert sup == 2


def test_clustering_skips_bad_radii_with_a_warning():
    system = cantor_system()
    cloud = attractor_cloud(system, 6)
    model = system.induced_model()
    with pytest.warns(UserWarning):
        sup = finite_clustering_sup(model, cloud, 10, [2.0, 0.2])
    assert sup == 2
    with pytest.raises(DomainError):
        with pytest.warns(UserWarning):
            finite_clustering_sup(model, cloud, 10, [2.0])
    with pytest.raises(DomainError):
        finite_clustering_sup(model, cloud, 0, [0.2])


def test_ball_condition_holds_near_the_left_end():
    system = cantor_system()
    cloud = attractor_cloud(system, 6)
    model = system.induced_model()
    probe = ball_condition_probe(
        model, cloud, (0.0,), 0.33, [0.5, 1 / 3, 1 / 6, 1 / 12]
    )
    assert probe.satisfied
    assert probe.delta == 0.5
    assert probe.words == ((0, 0), (0, 1))
    assert len(probe.centers) == 2


def test_ball_condition_fails_at_a_comb_junction():
    spec = load_spec(SPECS / "comb.json")
    system = spec.require_system()
    cloud = attractor_cloud(system, 6)
    model = spec.get_model(cloud)
    probe = ball_condition_probe(
        model, cloud, (1.0, 0.0), 0.25, [0.5, 0.25, 0.125, 0.0625, 0.03125]
    )
    assert not probe.satisfied
    assert probe.delta == 0.0
    assert len(probe.words) == 10


def test_ball_condition_with_no_local_pieces():
    system = cantor_system()
    cloud = attractor_cloud(system, 6)
    model = system.induced_model()
    for grid in ([0.25, 0.125], [0.125, 0.25]):
        probe = ball_condition_probe(model, cloud, (50.0,), 0.33, grid)
        assert probe.satisfied
        assert probe.delta == 0.25
        assert probe.words == ()
        assert probe.centers == ()
    with pytest.raises(DomainError):
        ball_condition_probe(model, cloud, (0.0,), 0.33, [])


def test_ball_condition_rejects_non_positive_deltas():
    """0.0 is the delta that reports failure, so the grid may not hold it."""
    system = cantor_system()
    cloud = attractor_cloud(system, 6)
    model = system.induced_model()
    for grid in ([-1.0], [0.0], [0.5, 0.0], [0.5, -0.25]):
        with pytest.raises(DomainError, match="positive"):
            ball_condition_probe(model, cloud, (0.0,), 0.33, grid)
