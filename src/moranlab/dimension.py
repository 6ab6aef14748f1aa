"""Box counting, Minkowski slope fits, cover sums, and packings.

All estimators here work on finite point clouds and are deliberately
one-sided: a greedy cover never undercounts the optimum by more than its
greedy factor, a maximal packing never exceeds the packing number.  Both
scan candidates in input order and use closed balls, so on identical
inputs the cover at ``2r`` and the packing at ``r`` accept exactly the
same centers; the sandwich ``cover(2r) <= packing(r) <= cover(r/2)``
follows and is checked in the tests at exact radii.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .spaces import EuclideanSpace, spacing
from .systems import PointCloud


def _greedy_centers(space, X, sep: float) -> list[int]:
    """Indices of the greedy centers of ``sep``-balls, in row order.

    The first row not yet covered opens a center; every row at distance
    ``<= sep`` from it is then covered.  This is the pairwise scan "keep
    ``p`` when ``d(p, c) > sep`` for every kept ``c``" with one kernel call
    per center.
    """
    covered = np.zeros(len(X) + 1, dtype=bool)  # the last entry stays False
    centers: list[int] = []
    i = 0
    while i < len(X):
        centers.append(i)
        # rows before i are centers or covered already
        covered[i + 1 : -1] |= space.within(X[i + 1 :], X[i], sep)
        i += 1 + int(covered[i + 1 :].argmin())
    return centers


def box_count(cloud, r: float, method: str = "greedy") -> int:
    """Number of radius-``r`` sets needed to cover the cloud.

    ``greedy``
        scan points in cloud order, open a new ball at the first point
        not yet covered (covered means ``d <= r``).  Works in any metric
        space; the result is within the space's doubling factor of the
        true covering number.
    ``grid``
        count occupied cells of the axis-aligned grid of mesh ``r``
        anchored at the coordinate-wise minimum.  Euclidean clouds only:
        the cells are ``r`` wide in the rows' own units, which measure
        neither symbol, snowflake, comb nor Heisenberg distances, so any
        other space raises ``DomainError``.  A coordinate within a
        relative 1e-9 below a cell boundary is counted to the upper cell
        so that float dust cannot split one construction piece over two
        cells.
    """
    if not r > 0:
        raise DomainError("radius must be positive")
    if not len(cloud):
        warnings.warn("empty cloud: covering number reported as 0", stacklevel=2)
        return 0
    if method == "greedy":
        return len(_greedy_centers(cloud.space, cloud.coordinates, r))
    if method == "grid":
        if not isinstance(cloud.space, EuclideanSpace):
            raise DomainError("grid counts need a Euclidean space; use the greedy count")
        pts = cloud.coordinates
        mins = pts.min(axis=0)
        with np.errstate(all="ignore"):
            scaled = (pts - mins) / r + 1e-9
        if not (scaled < 2.0**63).all():  # NaN, inf or past int64: the cast would wrap
            raise DomainError("grid cells of r=%g overflow int64 on this cloud; use the greedy count" % r)
        cells = np.floor(scaled, out=scaled).astype(np.int64)
        # distinct rows: sort them, then count the rows unlike their predecessor
        cells = cells[np.lexsort(cells.T)]
        return 1 + int(np.count_nonzero((cells[1:] != cells[:-1]).any(axis=1)))
    raise DomainError("unknown box-count method %r" % method)


class MinkowskiEstimate(NamedTuple):
    """Least-squares slope of ``log N(r)`` against ``log(1/r)``, with the
    radii and counts it was fitted to."""

    slope: float
    r_squared: float
    radii: tuple[float, ...]
    counts: tuple[int, ...]


def minkowski_estimate(
    cloud,
    r_min: float,
    r_max: float,
    n_scales: int,
    method: str | None = None,
) -> MinkowskiEstimate:
    """Fit the box-counting dimension over geometrically spaced scales.

    Counts ``N(r)`` at ``n_scales`` radii running geometrically from
    ``r_max`` down to ``r_min`` and returns the least-squares slope of
    ``log N`` against ``-log r`` with its regression quality.  The cloud
    must resolve the finest scale: if its sample spacing (over 256 strided
    probes; repeated points do not count as neighbours) is not below
    ``r_min / 10`` the counts would saturate at the number of distinct points
    and silently flatten the slope, so the call is rejected instead.

    ``method`` defaults to the axis-grid count on Euclidean clouds, the
    only ones it accepts, and to the greedy cover elsewhere.
    """
    if not 0 < r_min < r_max:
        raise DomainError("need 0 < r_min < r_max")
    if n_scales < 2:
        raise DomainError("need at least two scales")
    if len(cloud) < 2:
        raise DomainError("cannot fit a slope through a cloud of %d points" % len(cloud))
    if method is None:
        method = "grid" if isinstance(cloud.space, EuclideanSpace) else "greedy"
    reach = float(cloud.space.distances(cloud.coordinates, cloud.coordinates[:1]).max())
    if r_max > 2 * reach:
        raise DomainError("r_max=%g exceeds the cloud diameter (at most %g)" % (r_max, 2 * reach))
    probes = np.arange(0, len(cloud), max(1, len(cloud) // 256))
    gap = spacing(cloud.space, cloud.coordinates, probes)
    if not gap < r_min / 10:
        raise DomainError(
            "cloud (depth %d) does not resolve r_min=%g: sample spacing ~%g "
            "must stay below r_min/10; regenerate the cloud at greater depth"
            % (cloud.depth, r_min, gap)
        )
    step = (r_min / r_max) ** (1.0 / (n_scales - 1))
    radii = [r_max * step**k for k in range(n_scales)]
    radii[-1] = r_min
    counts = [box_count(cloud, r, method=method) for r in radii]
    x = np.log(1.0 / np.array(radii))
    y = np.log(np.array(counts, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return MinkowskiEstimate(float(slope), r2, tuple(radii), tuple(counts))


def hausdorff_upper_sum(model, t: float, depth: int) -> float:
    """Level-``depth`` cover sum ``sum diam(X_w)^t`` over the words ``w`` of that length.

    The level-``n`` pieces always cover the limit set, so this is a valid
    Hausdorff premeasure upper bound at gauge ``max diam``;
    its failure to blow up as ``depth`` grows is evidence of ``dim_H <= t``.
    """
    if t < 0:
        raise DomainError("exponent must be non-negative")
    return math.exp(model.level_log_sum(t, depth))


def maximal_packing(space, center, R: float, r: float, candidates) -> list:
    """Greedy maximal ``r``-packing of ``B(center, R)`` from candidate points.

    Scans the candidates inside the closed ball ``B(center, R)`` in input
    order and keeps those whose closed ``r``-balls stay disjoint from the
    balls already placed (``d > 2r`` to every kept center; ``d > r`` in an
    ultrametric space, where balls at distance above ``r`` are already
    disjoint).  Greedy termination means the kept centers' ``2r``-balls
    cover every candidate, which is the maximality half of the
    packing/covering sandwich.  ``r >= R`` is allowed and degenerates to
    a single ball: the window has diameter at most ``2R <= 2r``.
    """
    if not (r > 0 and R > 0):
        raise DomainError("radii must be positive; got r=%r, R=%r" % (r, R))
    if isinstance(candidates, PointCloud):
        pts, X = candidates.points, candidates.coordinates
    else:
        pts = list(candidates)
        X = space.coordinates(pts)
    window = np.flatnonzero(space.within(X, space.coordinates([center])[0], R))
    if not window.size:
        warnings.warn("no candidates inside B(center, R): empty packing", stacklevel=2)
        return []
    sep = r if space.ultrametric else 2 * r
    return [pts[window[k]] for k in _greedy_centers(space, X[window], sep)]


class PackingGrowth(NamedTuple):
    """Witnessed two-sided growth of packing counts in the ratio ``R/r``.

    ``(R/r)^alpha2 / c <= #H <= c * (R/r)^alpha1`` holds at every sampled
    pair with the reported constant; ``alpha1``/``alpha2`` are the
    largest/smallest adjacent log-log slopes, so the witnessed exponent
    window is ``[alpha2, alpha1]``.
    """

    alpha1: float
    alpha2: float
    c: float
    ratios: tuple[float, ...]
    counts: tuple[float, ...]


def packing_growth_check(space, trials, R_grid, r_grid) -> PackingGrowth:
    """Fit the packing-count exponent window over a grid of ball sizes.

    ``trials`` is a sequence of ``(center, candidates)`` pairs; every
    combination with ``r < R`` contributes one packing count at ratio
    ``R/r``.  Counts at equal ratios are merged by geometric mean before
    the adjacent-slope fit.
    """
    data: list[tuple[float, int]] = []
    for center, candidates in trials:
        for R in R_grid:
            for r in r_grid:
                if not 0 < r < R:
                    continue
                n = len(maximal_packing(space, center, R, r, candidates))
                if n == 0:
                    warnings.warn(
                        "packing at R=%g, r=%g is empty; pair skipped" % (R, r),
                        stacklevel=2,
                    )
                    continue
                data.append((R / r, n))
    merged: dict[float, list[float]] = {}
    for ratio, n in data:
        merged.setdefault(ratio, []).append(math.log(n))
    if len(merged) < 2:
        raise DomainError("need counts at two distinct R/r ratios; grids too small")
    ratios = sorted(merged)
    counts = [math.exp(sum(v) / len(v)) for v in (merged[q] for q in ratios)]
    slopes = [
        math.log(counts[k + 1] / counts[k]) / math.log(ratios[k + 1] / ratios[k])
        for k in range(len(ratios) - 1)
    ]
    alpha1, alpha2 = max(slopes), min(slopes)
    c = 1.0
    for ratio, n in data:
        c = max(c, n / ratio**alpha1, ratio**alpha2 / n)
    return PackingGrowth(alpha1, alpha2, c, tuple(ratios), tuple(counts))
