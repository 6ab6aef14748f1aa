"""Box counting, Minkowski slopes, cover sums, and packings."""

import math

import pytest

from moranlab import (
    ContractionSystem,
    DomainError,
    EuclideanSpace,
    MultiplicativeModel,
    PointCloud,
    RectangleModel,
    SimilitudeMap,
    SnowflakeSpace,
    SubTree,
    attractor_cloud,
    box_count,
    maximal_packing,
    minkowski_estimate,
    packing_growth_check,
)
from moranlab.dimension import hausdorff_upper_sum

T_STAR = math.log(2) / math.log(3)


def cantor_cloud(depth=8):
    maps = (SimilitudeMap(1 / 3, (0.0,)), SimilitudeMap(1 / 3, (1.0,)))
    system = ContractionSystem(
        EuclideanSpace(1), maps, ((0.0,), (1.0,)), seed_diameter=1.0
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
    with pytest.raises(DomainError):
        box_count(cloud, 0.0)
    with pytest.raises(DomainError):
        box_count(cloud, 0.1, method="octree")


def test_box_count_is_nonincreasing_in_r():
    cloud = cantor_cloud(6)
    radii = [0.5 * 0.7**k for k in range(10)]
    counts = [box_count(cloud, r) for r in radii]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


# -- Minkowski slope -------------------------------------------------------------


def test_middle_thirds_slope_is_exact():
    cloud = cantor_cloud(10)
    est = minkowski_estimate(cloud, 3.0**-4, 1 / 3, 4)
    assert est.slope == pytest.approx(T_STAR, rel=1e-10)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)
    assert est.counts == (2, 4, 8, 16)
    assert est.radii[-1] == 3.0**-4
    slope, r2 = est
    assert (slope, r2) == (est.slope, est.r_squared)


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
    data = est.to_json()
    assert set(data) == {"slope", "r_squared", "radii", "counts"}
    csv = est.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "r,count,residual"
    assert len(lines) == 5
    assert csv.endswith("\n")


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
    pruned = hausdorff_upper_sum(model, T_STAR, 6, subtree=SubTree((2, 1) * 3))
    assert pruned == pytest.approx(2.0**-3, rel=1e-10)
    with pytest.raises(DomainError):
        hausdorff_upper_sum(model, -0.5, 6)


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
    with pytest.raises(DomainError):
        maximal_packing(cloud.space, (0.0,), 0.5, 0.0, cloud)
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
    a1, a2, c = growth
    assert (a2, a1) == (pytest.approx(1.74543, abs=1e-4), pytest.approx(2.08746, abs=1e-4))
    assert a2 <= 2.0 <= a1
    assert c == pytest.approx(1.0, abs=1e-9)
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
