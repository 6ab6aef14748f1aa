"""Box counting, Minkowski slopes, cover sums, and packings."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from moranlab import (
    Alphabet,
    ContractionSystem,
    DomainError,
    EuclideanSpace,
    MultiplicativeModel,
    PointCloud,
    RectangleModel,
    SimilitudeMap,
    SnowflakeSpace,
    SubTree,
    SymbolMap,
    SymbolSpace,
    attractor_cloud,
    box_count,
    maximal_packing,
    minkowski_estimate,
    packing_growth_check,
)
from moranlab.dimension import hausdorff_upper_sum
from moranlab.specio import load_spec

T_STAR = math.log(2) / math.log(3)
SPECS = Path(__file__).resolve().parent.parent / "specs"


def cantor_cloud(depth=8, space=EuclideanSpace(1)):
    maps = (SimilitudeMap(1 / 3, (0.0,)), SimilitudeMap(1 / 3, (1.0,)))
    system = ContractionSystem(
        space, maps, ((0.0,), (1.0,)), seed_diameter=1.0
    )
    return attractor_cloud(system, depth)


def square_cloud(n=129, lo=-1.0, hi=1.0):
    pts = tuple(
        (lo + (hi - lo) * i / (n - 1), lo + (hi - lo) * j / (n - 1))
        for i in range(n)
        for j in range(n)
    )
    return PointCloud(EuclideanSpace(2), 0, 1, len(pts), pts)


# -- box counting ------------------------------------------------------------


def test_box_count_matches_the_construction_levels():
    cloud = cantor_cloud()
    for method in ("greedy", "grid"):
        counts = [box_count(cloud, 3.0**-k, method=method) for k in (1, 2, 3, 4)]
        assert counts == [2, 4, 8, 16]


def test_box_count_degenerate_cases():
    cloud = cantor_cloud()
    assert box_count(cloud, 1.0) == 1  # one ball covers everything
    single = PointCloud(EuclideanSpace(1), 0, 1, 1, ((0.5,),))
    assert box_count(single, 0.1) == 1
    empty = PointCloud(EuclideanSpace(1), 0, 1, 0, ())
    with pytest.warns(UserWarning):
        assert box_count(empty, 0.1) == 0
    for r in (0.0, -0.1, math.nan):
        with pytest.raises(DomainError):
            box_count(cloud, r)
    with pytest.raises(DomainError):
        box_count(cloud, 0.1, method="octree")


def test_grid_counts_refuse_non_euclidean_clouds():
    # grid cells are r wide in the rows' own units: padded letter rows are no
    # coordinates, a snowflake r-ball is r**(1/p) wide (depth-10 cantor, p = 1/2,
    # r = 0.1: greedy 32, grid 8) and Heisenberg rows are not gauge distances
    # (depth 3, r = 0.2: greedy 1024, grid 398)
    maps = (SymbolMap(((1, 0), (1,), (1,))), SymbolMap(((2, 0), (2,), (2,))))
    tree = SymbolSpace(Alphabet(3))
    clouds = [
        attractor_cloud(ContractionSystem(space, maps, ((0, 0, 0, 0),), seed_diameter=1.0), 6)
        for space in (tree, SnowflakeSpace(tree, 0.5))
    ]
    clouds.append(cantor_cloud(6, SnowflakeSpace(EuclideanSpace(1), 0.5)))
    clouds.append(attractor_cloud(load_spec(SPECS / "heisenberg.json").require_system(), 2))
    for cloud in clouds:
        assert box_count(cloud, 0.1) > 1
        for r in (0.1, 2.0):
            with pytest.raises(DomainError, match="greedy"):
                box_count(cloud, r, method="grid")


def test_grid_counts_refuse_radii_past_int64_cells():
    # from r = 1e-19 on, the depth-10 cantor cloud's cell indices pass 2**63, where an
    # unchecked int64 cast wraps (it counted 873, 193 and 2 of 1024 at 1e-19, 1e-20, 1e-300)
    cloud = cantor_cloud(10)
    assert box_count(cloud, 1e-17, method="grid") == box_count(cloud, 1e-18, method="grid") == 1024
    for r in (1e-19, 1e-20, 1e-300, 5e-324):
        with pytest.raises(DomainError, match="r=%g .*greedy" % r):
            box_count(cloud, r, method="grid")
    for bad in (math.inf, math.nan):
        cloud = PointCloud(EuclideanSpace(1), 0, 1, 2, ((0.0,), (bad,)))
        with pytest.raises(DomainError, match="greedy"):
            box_count(cloud, 0.5, method="grid")
    # coinciding points are no neighbours: the slope fit refuses r_min below the
    # distinct points' spacing, so it no longer reaches the grid's int64 limit
    doubled = PointCloud(EuclideanSpace(1), 0, 1, 64, tuple(cantor_cloud(5).points) * 2)
    with pytest.raises(DomainError, match="does not resolve r_min=1e-20"):
        minkowski_estimate(doubled, 1e-20, 1 / 3, 4)


def test_box_count_is_nonincreasing_in_r():
    cloud = cantor_cloud(6)
    radii = [0.5 * 0.7**k for k in range(10)]
    counts = [box_count(cloud, r) for r in radii]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    # a 0-d array radius counts as its item (the cached ball bound is keyed on it)
    for r in (0.1, np.array(0.1), np.float64(0.1), Fraction(1, 10), np.array(Fraction(1, 10))):
        assert box_count(cloud, r) == 8


# -- Minkowski slope -------------------------------------------------------------


def test_middle_thirds_slope_is_exact():
    cloud = cantor_cloud(10)
    est = minkowski_estimate(cloud, 3.0**-4, 1 / 3, 4)
    assert est.slope == pytest.approx(T_STAR, rel=1e-10)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)
    assert est.counts == (2, 4, 8, 16)
    assert est.radii[-1] == 3.0**-4


def test_square_grid_slope_sits_near_two():
    est = minkowski_estimate(square_cloud(256, 0.0, 1.0), 0.05, 0.4, 8, method="grid")
    assert est.counts == (9, 16, 25, 49, 81, 144, 225, 441)
    assert est.slope == pytest.approx(1.8521, abs=5e-3)
    assert 1.7 <= est.slope <= 2.0
    assert est.r_squared > 0.99


def test_unresolved_clouds_are_rejected():
    cloud = cantor_cloud(4)  # spacing 3^-4
    with pytest.raises(DomainError, match="depth"):
        minkowski_estimate(cloud, 3.0**-6, 1 / 3, 4)


def test_repeated_points_do_not_resolve_radii_below_their_spacing():
    # each map listed twice: 4^6 points, 64 distinct; their spacing once read 0,
    # so the fit ran to r_min = 3^-30 through counts flat at 64 (slope 0.055)
    maps = (SimilitudeMap(Fraction(1, 3), (0,)), SimilitudeMap(Fraction(1, 3), (1,))) * 2
    doubled = attractor_cloud(ContractionSystem(EuclideanSpace(1), maps, ((0,),)), 6)
    single = attractor_cloud(ContractionSystem(EuclideanSpace(1), maps[:2], ((0,),)), 6)
    assert len(doubled) == 4096 and len(set(doubled.points)) == len(single) == 64
    with pytest.raises(DomainError, match=r"r_min=4.85694e-15: sample spacing ~0.00274348 "):
        minkowski_estimate(doubled, 3.0**-30, 1 / 3, 30)
    for method in ("grid", "greedy"):
        assert minkowski_estimate(doubled, 3.0**-2, 1 / 3, 2, method) == minkowski_estimate(
            single, 3.0**-2, 1 / 3, 2, method
        )


def test_minkowski_argument_checks():
    cloud = cantor_cloud(8)
    with pytest.raises(DomainError):
        minkowski_estimate(cloud, 0.2, 0.1, 4)  # r_min > r_max
    with pytest.raises(DomainError):
        minkowski_estimate(cloud, 0.1, 5.0, 4)  # r_max beyond the diameter
    with pytest.raises(DomainError):
        minkowski_estimate(cloud, 0.1, 0.3, 1)  # one scale
    single = PointCloud(EuclideanSpace(1), 0, 1, 1, ((0.5,),))
    with pytest.raises(DomainError):
        minkowski_estimate(single, 0.1, 0.3, 3)


def test_minkowski_serialization():
    est = minkowski_estimate(cantor_cloud(10), 3.0**-4, 1 / 3, 4)
    data = est._asdict()
    assert list(data) == ["slope", "r_squared", "radii", "counts"]  # the CLI's key order
    assert len(data["radii"]) == len(data["counts"]) == 4


# -- cover sums --------------------------------------------------------------------


def test_cover_sum_at_the_critical_exponent():
    model = MultiplicativeModel((1 / 3, 1 / 3))
    assert hausdorff_upper_sum(model, T_STAR, 12) == pytest.approx(1.0, abs=1e-12)
    assert hausdorff_upper_sum(model, 0.0, 12) == pytest.approx(2.0**12, rel=1e-12)
    assert hausdorff_upper_sum(model, 1.0, 12) == pytest.approx(
        (2 / 3) ** 12, rel=1e-10
    )


def test_cover_sum_subtree_restriction():
    model = MultiplicativeModel((1 / 3, 1 / 3))
    pruned = math.exp(model.level_log_sum(T_STAR, 6, subtree=SubTree((2, 1) * 3)))
    assert pruned == pytest.approx(2.0**-3, rel=1e-10)
    with pytest.raises(DomainError):
        hausdorff_upper_sum(model, -0.5, 6)


def test_cover_sum_refuses_a_negative_depth():
    model = MultiplicativeModel((1 / 3, 1 / 3), seed_diameter=2.0)
    assert hausdorff_upper_sum(model, 0.5, 0) == pytest.approx(2.0**0.5, rel=1e-15)
    with pytest.raises(DomainError, match="depth must be >= 0"):
        hausdorff_upper_sum(model, 0.5, -3)


def test_cover_sum_stays_bounded_for_rectangles():
    """a = 1/2 rows dominate: the sum at t = 1 hovers just above 1."""
    model = RectangleModel((1 / 2, 1 / 2), (1 / 4, 1 / 4))
    values = [hausdorff_upper_sum(model, 1.0, n) for n in (4, 6, 8)]
    assert all(1.0 <= v <= 1.002 for v in values)
    assert values == sorted(values, reverse=True)
    assert hausdorff_upper_sum(model, 1.5, 8) == pytest.approx(0.0625, rel=1e-3)


# -- packings ----------------------------------------------------------------------


def test_packing_fills_a_plane_window():
    plane = EuclideanSpace(2)
    grid = square_cloud(129).points
    pack = maximal_packing(plane, (0.0, 0.0), 0.8, 0.2, grid)
    assert len(pack) == 17
    # pairwise separation above 2r, all within the window
    for i, p in enumerate(pack):
        assert plane.distance(p, (0.0, 0.0)) <= 0.8
        for q in pack[i + 1 :]:
            assert plane.distance(p, q) > 0.4


def test_packing_degenerates_to_one_ball_for_huge_r():
    plane = EuclideanSpace(2)
    grid = square_cloud(65).points
    assert len(maximal_packing(plane, (0.0, 0.0), 0.5, 1.0, grid)) == 1


def test_packing_accepts_clouds_and_validates_radii():
    cloud = cantor_cloud(6)
    pack = maximal_packing(cloud.space, (0.0,), 2.0, 0.4, cloud)
    assert len(pack) == 2
    assert maximal_packing(cloud.space, (0.0,), np.array(2.0), np.array(0.4), cloud) == pack
    for R, r in ((0.5, 0.0), (0.5, math.nan), (math.nan, 0.4), (-0.5, 0.4)):
        with pytest.raises(DomainError):
            maximal_packing(cloud.space, (0.0,), R, r, cloud)
    with pytest.warns(UserWarning):
        assert maximal_packing(cloud.space, (50.0,), 0.5, 0.1, cloud) == []


def test_packing_covering_sandwich_on_the_thirds_set():
    cloud = cantor_cloud(8)
    space = cloud.space
    for k in range(1, 9):
        r = 0.6 * 2.0**-k
        pack = len(maximal_packing(space, (0.0,), 2.0, r, cloud))
        assert box_count(cloud, 2 * r) <= pack <= box_count(cloud, r / 2)


def test_packing_growth_window_for_the_plane():
    plane = EuclideanSpace(2)
    grid = square_cloud(129).points
    growth = packing_growth_check(
        plane, [((0.0, 0.0), grid)], [0.8], [0.4, 0.2, 0.1, 0.05]
    )
    assert (growth.alpha2, growth.alpha1) == (
        pytest.approx(1.74543, abs=1e-4),
        pytest.approx(2.08746, abs=1e-4),
    )
    assert growth.alpha2 <= 2.0 <= growth.alpha1
    assert growth.c == pytest.approx(1.0, abs=1e-9)
    assert growth.ratios == (2.0, 4.0, 8.0, 16.0)


def test_packing_growth_window_for_the_line_and_its_snowflake():
    line = EuclideanSpace(1)
    pts = tuple((i / 4096,) for i in range(4097))
    growth = packing_growth_check(line, [((0.5,), pts)], [0.4], [0.2, 0.1, 0.05, 0.025])
    assert growth.alpha1 == pytest.approx(1.0, abs=1e-9)
    assert growth.alpha2 == pytest.approx(1.0, abs=1e-9)
    # snowflaking with exponent 1/2 doubles the packing exponent
    flake = SnowflakeSpace(line, 0.5)
    growth = packing_growth_check(
        flake, [((0.5,), pts)], [0.63], [0.32, 0.16, 0.08, 0.04]
    )
    assert growth.alpha1 == pytest.approx(2.0, abs=1e-6)
    assert growth.alpha2 == pytest.approx(1.954196, abs=1e-4)


def test_packing_growth_needs_two_ratios():
    line = EuclideanSpace(1)
    pts = tuple((i / 256,) for i in range(257))
    with pytest.raises(DomainError):
        packing_growth_check(line, [((0.5,), pts)], [0.4], [0.1])
