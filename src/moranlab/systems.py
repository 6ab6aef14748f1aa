"""Iterated function systems, their sample clouds, and separation probes.

A :class:`ContractionSystem` bundles an ambient space, finitely many
contracting maps, and seed points.  Words act by composition
``phi_w = phi_{w1} o ... o phi_{wn}``; the pieces of the induced Moran
construction are ``X_w = phi_w(E)``.  Everything downstream (stopping sets,
clustering, ball condition, tractability) consumes either exact per-map
contraction bounds or finite sample clouds, and every sampled quantity is
one-sided: sampling can miss extremes, never invent them.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError
from .exactnum import QuadraticNumber, exact_value
from .models import GeneralModel, MultiplicativeModel
from .spaces import (
    MetricSpace,
    SymbolSpace,
    heisenberg_dilate,
    heisenberg_inverse,
    heisenberg_multiply,
)
from .words import (
    Alphabet,
    Word,
    _check_enum,
    local_stopping_set,
    word_str,
)

# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------


class ContractionMap:
    """One branch map.  Subclasses implement ``apply`` and, when the exact
    two-sided contraction bounds are known, ``lip_bounds``."""

    kind: str = "abstract"

    def apply(self, point):
        raise NotImplementedError

    def lip_bounds(self) -> tuple[float, float] | None:
        """Exact ``(lower, upper)`` metric distortion, or ``None`` if unknown."""
        return None

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class SimilitudeMap(ContractionMap):
    """``x -> fixed + ratio * (x - fixed)`` in Euclidean space."""

    ratio: float
    fixed_point: tuple

    kind = "similitude"

    def __post_init__(self):
        if not 0.0 < float(self.ratio) < 1.0:
            raise DomainError("similitude ratio must lie in (0, 1)")

    def apply(self, point):
        r, f = self.ratio, self.fixed_point
        return tuple(fi + r * (x - fi) for x, fi in zip(point, f))

    def lip_bounds(self):
        return (float(self.ratio), float(self.ratio))

    def to_json(self):
        return {
            "kind": "similitude",
            "ratio": float(self.ratio),
            "fixed_point": [float(c) for c in self.fixed_point],
        }


@dataclass(frozen=True)
class Affine2DMap(ContractionMap):
    """``x -> A x + b`` on the plane; distortion = singular values of A."""

    matrix: tuple[tuple[float, float], tuple[float, float]]
    translation: tuple[float, float]

    kind = "affine2d"

    def apply(self, point):
        (a, b), (c, d) = self.matrix
        x, y = point
        tx, ty = self.translation
        return (a * x + b * y + tx, c * x + d * y + ty)

    def _array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)

    def lip_bounds(self):
        s = np.linalg.svd(self._array(), compute_uv=False)
        return (float(s[-1]), float(s[0]))

    def to_json(self):
        return {
            "kind": "affine2d",
            "matrix": [list(row) for row in self.matrix],
            "translation": list(self.translation),
        }


@dataclass(frozen=True)
class CombMap(ContractionMap):
    """``(x, y) -> (r x + shift, r y)``: one branch of the comb system.

    ``r`` may be exact (Fraction / quadratic irrational); composition then
    stays exact coordinate-wise, which is what makes overlap detection at
    algebraic ratios reliable.
    """

    r: object
    shift: int

    kind = "comb"

    def apply(self, point):
        x, y = point
        return (self.r * x + self.shift, self.r * y)

    def lip_bounds(self):
        return (float(self.r), float(self.r))

    def to_json(self):
        return {"kind": "comb", "r": float(self.r), "shift": self.shift}


@dataclass(frozen=True)
class SymbolMap(ContractionMap):
    """Prefix-rewriting map on the branch space.

    ``table[s]`` is the word prepended when the input starts with symbol
    ``s``; the input itself is kept verbatim.  Maps of this shape send
    every (non-empty) cylinder onto a cylinder.
    """

    table: tuple[Word, ...]

    kind = "symbol"

    def apply(self, word: Word) -> Word:
        if len(word) == 0:
            raise DomainError("symbol maps need a non-empty prefix to inspect")
        return self.table[word[0]] + tuple(word)

    def to_json(self):
        return {"kind": "symbol", "table": [list(w) for w in self.table]}


@dataclass(frozen=True)
class CarnotMap(ContractionMap):
    """``p -> a * delta_{1/2}(a^{-1} * p)`` on the Heisenberg group.

    Left translation is a gauge isometry and the dilation is homogeneous,
    so the map contracts the gauge distance by exactly one half.
    """

    anchor: tuple[float, float, float]

    kind = "carnot"

    def apply(self, point):
        a = self.anchor
        v = heisenberg_multiply(heisenberg_inverse(a), point)
        return heisenberg_multiply(a, heisenberg_dilate(0.5, v))

    def lip_bounds(self):
        return (0.5, 0.5)

    def to_json(self):
        return {"kind": "carnot", "anchor": list(self.anchor)}


# ---------------------------------------------------------------------------
# point clouds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointCloud:
    """Deterministically ordered samples of the level-``depth`` pieces.

    ``labels[k]`` is the word of the piece that ``points[k]`` samples; all
    labels have length ``depth`` and appear in lexicographic order, so the
    samples of a piece form one contiguous index range (:meth:`piece`).
    Points keep the scalar type of the system that made them.
    """

    space: MetricSpace
    depth: int
    labels: tuple[Word, ...]
    points: tuple

    def __len__(self) -> int:
        return len(self.points)

    def items(self) -> Iterator[tuple[Word, object]]:
        return zip(self.labels, self.points)

    @cached_property
    def coordinates(self) -> np.ndarray:
        """``space.coordinates(points)``, built once per cloud."""
        return self.space.coordinates(self.points)

    def piece(self, word: Word) -> slice:
        """Index range of the samples whose label starts with ``word``."""
        if not word:
            return slice(0, len(self.labels))
        lo = bisect.bisect_left(self.labels, word)
        # the first label past every extension of ``word``
        hi = bisect.bisect_left(self.labels, word[:-1] + (word[-1] + 1,), lo)
        return slice(lo, hi)

    def to_csv(self) -> str:
        if isinstance(self.space, SymbolSpace):
            header = "word,point"
            rows = ["%s,%s" % (word_str(w), word_str(tuple(p))) for w, p in self.items()]
        else:
            dim = len(self.points[0]) if self.points else 0
            names = ["x", "y", "z"][:dim] if dim <= 3 else ["c%d" % i for i in range(dim)]
            header = "word," + ",".join(names)
            rows = [
                "%s,%s" % (word_str(w), ",".join("%.12g" % float(c) for c in p))
                for w, p in self.items()
            ]
        return "\n".join([header] + rows) + "\n"


@dataclass
class ContractionSystem:
    """Ambient space + branch maps + seed points (+ optional known diameter)."""

    space: MetricSpace
    maps: tuple[ContractionMap, ...]
    seed_points: tuple
    seed_diameter: float | None = None
    name: str = ""

    def __post_init__(self):
        if len(self.maps) < 2:
            raise DomainError("a contraction system needs at least two maps")
        if len(self.seed_points) < 1:
            raise DomainError("a contraction system needs at least one seed point")
        self.maps = tuple(self.maps)
        self.seed_points = tuple(
            tuple(p) if isinstance(p, (list, tuple)) else p for p in self.seed_points
        )

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(len(self.maps))

    def apply_word(self, word: Word, point):
        """``phi_w(point)`` with ``phi_w = phi_{w1} o ... o phi_{wn}``."""
        for s in reversed(word):
            point = self.maps[s].apply(point)
        return point

    def next_level(self, level: Sequence) -> list:
        """Each map in order applied to every point of ``level`` in order.

        If ``level`` holds ``phi_v(x)`` in lexicographic order of ``v``, the
        result holds ``phi_{sv}(x)`` in lexicographic order of ``sv``, made
        by the same map applications as :meth:`apply_word`.
        """
        return [m.apply(p) for m in self.maps for p in level]

    def word_lip_bounds(self, word: Word) -> tuple[float, float, bool]:
        """Two-sided contraction bounds of ``phi_w`` and whether they are exact.

        Products of per-map bounds are always valid; when every map along
        the word is an axis/rigid similitude (lower == upper) the product
        is the exact distortion.  For chains of planar affine maps the
        singular values of the product matrix are used instead (exact).
        Map bounds are stated in the coordinate metric; the space turns
        them into bounds in its own metric.
        """
        bound = self.space.metric_bound
        if all(isinstance(self.maps[s], Affine2DMap) for s in word) and len(word) > 0:
            prod = np.eye(2)
            for s in word:
                prod = prod @ self.maps[s]._array()
            sv = np.linalg.svd(prod, compute_uv=False)
            return bound(float(sv[-1])), bound(float(sv[0])), True
        lo, hi = 1.0, 1.0
        exact = True
        for s in word:
            b = self.maps[s].lip_bounds()
            if b is None:
                raise DomainError(
                    "map %d has no exact contraction bounds; sample with "
                    "semiconformal_bounds instead" % s
                )
            lo *= b[0]
            hi *= b[1]
            exact = exact and (b[0] == b[1])
        return bound(lo), bound(hi), exact

    # -- induced diameter model -------------------------------------------

    def _estimated_seed_diameter(self, cloud: PointCloud | None) -> float:
        if self.seed_diameter is not None:
            return self.seed_diameter
        if cloud is None or len(cloud) < 2:
            raise DomainError(
                "system has no declared seed diameter; supply a cloud to estimate it"
            )
        stride = max(1, len(cloud) // 256)
        sub, X = cloud.points[::stride], cloud.coordinates[::stride]
        dist = self.space.distances
        return max(float(dist(X[:i], sub[i]).max()) for i in range(1, len(sub)))

    def induced_model(self, cloud: PointCloud | None = None):
        """Diameter model of the pieces ``X_w = phi_w(E)``.

        Exact multiplicative when every map has tight contraction bounds
        (similitudes, comb branches, Carnot halvings); otherwise sampled
        from the cloud, with the usual one-sided caveat.
        """
        bounds = [m.lip_bounds() for m in self.maps]
        seed = self._estimated_seed_diameter(cloud)
        if all(b is not None and b[0] == b[1] for b in bounds):
            ratios = [self.space.metric_bound(b[0]) for b in bounds]
            model = MultiplicativeModel(ratios, seed_diameter=seed)
        else:
            if cloud is None:
                raise DomainError("sampled diameter model needs a cloud")
            cache: dict[Word, float] = {}
            dist = self.space.distances

            def log_diam(word: Word) -> float:
                if word not in cache:
                    piece = cloud.piece(word)
                    pts, X = cloud.points[piece], cloud.coordinates[piece]
                    if len(pts) < 2:
                        raise DomainError(
                            "cloud resolves no pair of samples inside %s" % word_str(word)
                        )
                    d = max(float(dist(X[:i], pts[i]).max()) for i in range(1, len(pts)))
                    if d <= 0:
                        raise DomainError("degenerate sampled diameter at %s" % word_str(word))
                    cache[word] = math.log(d)
                return cache[word]

            model = GeneralModel(log_diam, self.alphabet, seed_diameter=seed)
        model.containment_check = self._containment_check(cloud)
        return model

    def _containment_check(self, cloud: PointCloud | None):
        if cloud is None or len(cloud) < 2:
            return None
        stride = max(1, len(cloud) // 128)
        sub, X = cloud.points[::stride], cloud.coordinates[::stride]
        dist = self.space.distances

        def nearest_other(i: int) -> float:
            d = dist(X, sub[i])
            d[i] = np.inf
            return float(d.min())

        resolution = 2.0 * max(nearest_other(i) for i in range(len(sub)))

        def check(depth: int) -> tuple[bool, str]:
            for k, m in enumerate(self.maps):
                for p in sub[:32]:
                    if dist(X, m.apply(p)).min() > max(resolution, 1e-9):
                        return False, (
                            "map %d sends a sample farther than the sampled set "
                            "resolution %.3g" % (k, resolution)
                        )
            return True, "sampled containment of each branch image within resolution %.3g" % (
                resolution,
            )

        return check


def attractor_cloud(
    system: ContractionSystem, depth: int, samples_per_leaf: int = 1
) -> PointCloud:
    """Apply every depth-``depth`` word to the first seed points.

    Output order is lexicographic in the word, then seed order: fully
    deterministic.  The cloud is built level by level (about ``a/(a-1)``
    map applications per point for ``a`` maps).  The total point count is
    capped by the enumeration limit.
    """
    if depth < 1:
        raise DomainError("cloud depth must be >= 1")
    if not 1 <= samples_per_leaf <= len(system.seed_points):
        raise DomainError(
            "samples_per_leaf must lie in [1, %d]" % len(system.seed_points)
        )
    count = system.alphabet.size**depth * samples_per_leaf
    _check_enum(count, "attractor cloud at depth %d" % depth)
    seeds = system.seed_points[:samples_per_leaf]
    points = seeds
    for _ in range(depth):
        points = system.next_level(points)
    labels = tuple(w for w in system.alphabet.words(depth) for _ in seeds)
    return PointCloud(system.space, depth, labels, tuple(points))


# ---------------------------------------------------------------------------
# semiconformal bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemiconformalBounds:
    """Witnessed distortion interval of a word map.

    Unpacks as ``lower, upper = bounds``.  When ``exact`` is false the
    interval was sampled from finitely many point pairs: the true lower
    bound can only be smaller, the true upper bound only larger.
    """

    lower: float
    upper: float
    exact: bool

    def __iter__(self):
        return iter((self.lower, self.upper))


def semiconformal_bounds(
    system: ContractionSystem, word: Word, pair_samples: int = 64
) -> SemiconformalBounds:
    """Distortion bounds ``s_lower <= d(phi_w x, phi_w y)/d(x, y) <= s_upper``.

    Exact for chains with known per-map distortion (similitudes, comb
    branches, planar affine chains, Carnot halvings).  For symbolic
    systems the ratio is evaluated over at least ``pair_samples`` pairs
    drawn from a deterministic pool of short prefixes; prefix-rewriting
    maps attain their extremes on such pairs already, but the result is
    flagged as sampled (one-sided).
    """
    if pair_samples < 2:
        raise DomainError("need at least two sampled pairs")
    if len(word) == 0:
        return SemiconformalBounds(1.0, 1.0, True)
    if any(isinstance(system.maps[s], SymbolMap) for s in word):
        # the maps act on branches of the space's tree, which may be wider
        # than the index alphabet of the system itself
        alphabet = getattr(system.space, "alphabet", system.alphabet)
        pool_depth = 3
        while math.comb(alphabet.size**pool_depth, 2) < pair_samples:
            pool_depth += 1
        pool = list(alphabet.words(pool_depth))
        images = [system.apply_word(word, u) for u in pool]
        dist = system.space.distance
        lo, hi = math.inf, 0.0
        for i, u in enumerate(pool):
            for j in range(i + 1, len(pool)):
                duv = dist(u, pool[j])
                if duv == 0.0:
                    continue
                r = dist(images[i], images[j]) / duv
                lo = min(lo, r)
                hi = max(hi, r)
        if hi == 0.0:
            raise DomainError("no resolved pair in the sampling pool")
        return SemiconformalBounds(lo, hi, False)
    lo, hi, exact = system.word_lip_bounds(word)
    return SemiconformalBounds(lo, hi, exact)


# ---------------------------------------------------------------------------
# overlap scan (anchor collisions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollisionScan:
    """Result of :func:`osc_collision_scan`.

    ``collisions`` holds triples ``(u, v, gap)``: canonical incomparable
    pairs (larger word first, no common trailing zeros) whose anchors
    coincide -- exactly (gap 0.0) when ``r`` was given as an exact scalar,
    within ``tol`` otherwise.  ``min_nonzero_gap`` is the smallest
    non-collision anchor difference seen across the whole scan.
    """

    collisions: tuple[tuple[Word, Word, float], ...]
    min_nonzero_gap: float
    exact: bool
    depth: int
    tol: float

    def __iter__(self):
        return iter(self.collisions)

    def __len__(self) -> int:
        return len(self.collisions)


def _anchor_sum_exact(coeffs: Sequence[int], r):
    total = r * 0
    power = r * 0 + 1
    for c in coeffs:
        if c:
            total = total + c * power
        power = power * r
    return total


def osc_collision_scan(r, depth: int, tol: float = 1e-9) -> CollisionScan:
    """Search for word pairs whose comb anchors ``x_i = sum i_k r^{k-1}`` agree.

    Enumerates difference vectors ``c in {-1,0,1}**m`` (``m <= depth``) by a
    meet-in-the-middle split, so the cost is ``O(3**(depth/2))`` rather than
    ``3**depth``.  A coincidence of anchors for incomparable words is
    exactly the failure of the strong open-set separation for the two-map
    affine family with ratio ``r``.

    If ``r`` is exact (int, Fraction, or quadratic irrational) every float
    candidate within ``tol`` is re-decided exactly and only true zeros are
    reported.  Returned pairs are canonical: the two words have equal
    length with no common trailing zero, the first word is the
    lexicographically larger one.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if depth > 14:
        raise DomainError("collision scan depth capped at 14")
    r_exact = exact_value(r)
    rf = float(r)
    if not 0.5 < rf < 1.0:
        raise DomainError("ratio must lie in (1/2, 1), got %r" % rf)

    half = depth // 2
    pows = [rf**k for k in range(depth)]

    def half_sums(positions: range) -> list[tuple[float, tuple[int, ...]]]:
        out = [(0.0, ())]
        for p in positions:
            out = [
                (s + c * pows[p], vec + (c,)) for s, vec in out for c in (-1, 0, 1)
            ]
        return out

    first = half_sums(range(half))
    second = sorted(half_sums(range(half, depth)))
    seconds = [s for s, _ in second]

    candidates: set[tuple[int, ...]] = set()
    min_gap = math.inf

    for s, vec in first:
        k = bisect.bisect_left(seconds, -s - tol)
        # sweep matches within tolerance, plus the nearest neighbours for the gap
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

    def canonical(cvec: tuple[int, ...]) -> tuple[int, ...] | None:
        # strip trailing zeros (padded duplicates of a shorter collision)
        m = len(cvec)
        while m and cvec[m - 1] == 0:
            m -= 1
        if m == 0:
            return None
        cvec = cvec[:m]
        lead = next(c for c in cvec if c)
        if lead < 0:
            cvec = tuple(-c for c in cvec)
        return cvec

    confirmed: dict[tuple[int, ...], float] = {}
    for cvec in candidates:
        canon = canonical(cvec)
        if canon is None or canon in confirmed:
            continue
        gap = abs(sum(c * pows[k] for k, c in enumerate(canon)))
        if r_exact is not None:
            if _is_exact_zero(_anchor_sum_exact(canon, r_exact)):
                confirmed[canon] = 0.0
            elif gap > 0:
                min_gap = min(min_gap, gap)
        else:
            confirmed[canon] = gap

    triples = []
    for cvec, gap in confirmed.items():
        u = tuple(1 if c > 0 else 0 for c in cvec)
        v = tuple(1 if c < 0 else 0 for c in cvec)
        if u < v:
            u, v = v, u
        triples.append((u, v, gap))
    triples.sort(key=lambda p: (len(p[0]), p[0], p[1]))
    return CollisionScan(tuple(triples), min_gap, r_exact is not None, depth, tol)


def _is_exact_zero(x) -> bool:
    if isinstance(x, QuadraticNumber):
        return x.is_zero()
    return x == 0


# ---------------------------------------------------------------------------
# separation probe
# ---------------------------------------------------------------------------


def separation_epsilon(system: ContractionSystem, x, depth: int) -> float:
    """Worst separation ratio ``d(phi_u x, phi_v x) / (s_u + s_v)``.

    The minimum runs over all incomparable word pairs up to ``depth``,
    where ``s_w`` is the lower contraction bound of ``phi_w``.  A positive
    infimum (uniform over the probe point) is the separation hypothesis
    under which overlaps are controlled; colliding branches drive the
    value to zero at the collision depth.  Exact map arithmetic (e.g. a
    comb system at an exact algebraic ratio) makes exact collisions give
    exactly zero.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if isinstance(x, (list, tuple)):
        x = tuple(x)
    words: list[Word] = list(system.alphabet.words_up_to(depth))
    level, points = (x,), []
    for _ in range(depth):
        level = system.next_level(level)
        points.extend(level)
    try:
        lowers = [system.word_lip_bounds(w)[0] for w in words]
    except DomainError:
        # maps without exact bounds: fall back to sampled lower bounds
        lowers = [semiconformal_bounds(system, w).lower for w in words]
    size = system.alphabet.size

    # word k covers the depth-``depth`` index range [lo[k], hi[k])
    sep = np.array(lowers)
    lo = np.empty(len(words), dtype=np.int64)
    span = np.empty(len(words), dtype=np.int64)
    for k, w in enumerate(words):
        v = 0
        for s in w:
            v = v * size + s
        span[k] = size ** (depth - len(w))
        lo[k] = v * span[k]
    hi = lo + span
    space = system.space
    X = space.coordinates(points)
    best = math.inf
    for i in range(len(words) - 1):
        # later words are no shorter, so only words[i] can be a prefix
        j = slice(i + 1, None)
        ratio = space.distances(X[j], points[i]) / (sep[i] + sep[j])
        ratio[(lo[i] <= lo[j]) & (hi[j] <= hi[i])] = np.inf
        best = min(best, float(ratio.min()))
    return best


# ---------------------------------------------------------------------------
# clustering and ball condition probes
# ---------------------------------------------------------------------------


def finite_clustering_sup(
    model, cloud: PointCloud, x_samples: int, r_grid: Sequence[float]
) -> int:
    """Largest sampled local stopping count ``#Z(x, r)``.

    ``x`` ranges over an evenly strided deterministic subsample of the
    cloud and ``r`` over the grid.  The result lower-bounds the true
    finite clustering supremum: both the probe points and the piece
    samples are finite.  Radii outside ``(0, seed diameter)`` or too
    fine for the cloud depth are skipped with a warning.
    """
    if x_samples < 1:
        raise DomainError("need at least one probe point")
    pts = list(cloud.points)
    stride = max(1, len(pts) // x_samples)
    probes = pts[::stride][:x_samples]
    best = None
    for r in r_grid:
        try:
            sets = [local_stopping_set(model, cloud, x, r) for x in probes]
        except DomainError as exc:
            warnings.warn("skipping r=%r: %s" % (r, exc))
            continue
        m = max(len(s) for s in sets)
        best = m if best is None else max(best, m)
    if best is None:
        raise DomainError("no radius in the grid was usable at this cloud depth")
    return best


@dataclass(frozen=True)
class BallConditionProbe:
    """Greedy witness for the ball condition at one ``(x, r)``.

    ``delta`` is the largest grid value for which every local stopping
    piece received a sampled center with pairwise disjoint ``delta*r``
    balls; 0.0 when even the smallest grid value failed.
    """

    delta: float
    satisfied: bool
    words: tuple[Word, ...]
    centers: tuple


def ball_condition_probe(
    model, cloud: PointCloud, x, r: float, delta_grid: Sequence[float]
) -> BallConditionProbe:
    """Try to place disjoint ``delta*r``-balls centered in each local piece.

    Pieces are visited in order of decreasing diameter; candidate centers
    are the piece's sampled points in cloud order; the first candidate
    compatible with the already chosen centers wins (greedy first fit).
    Sampled candidates make the reported ``delta`` a lower bound.
    """
    if not delta_grid:
        raise DomainError("delta grid must be non-empty")
    local = local_stopping_set(model, cloud, x, r)
    if not local.words:
        return BallConditionProbe(max(delta_grid), True, (), ())
    order = sorted(local.words, key=lambda w: (-model.diam(w), w))
    pieces = [cloud.piece(w) for w in order]
    X, dist = cloud.coordinates, cloud.space.distances
    # open delta*r balls are disjoint iff centers are >= 2*delta*r apart
    # (>= delta*r in an ultrametric space)
    factor = 1.0 if cloud.space.ultrametric else 2.0
    for delta in sorted(delta_grid, reverse=True):
        chosen: list = []
        # distance from every sample to its nearest chosen center
        nearest = np.full(len(cloud), np.inf)
        for piece in pieces:
            free = np.flatnonzero(nearest[piece] >= factor * delta * r)
            if not free.size:
                break
            center = cloud.points[piece.start + int(free[0])]
            chosen.append(center)
            nearest = np.minimum(nearest, dist(X, center))
        else:
            return BallConditionProbe(delta, True, tuple(order), tuple(chosen))
    return BallConditionProbe(0.0, False, tuple(order), ())


# ---------------------------------------------------------------------------
# symbolic proper semiconformality
# ---------------------------------------------------------------------------


@dataclass
class SymbolicConformalityReport:
    """Exhaustive finite-depth check of the two cylinder properties.

    * every map sends every non-empty cylinder onto a full cylinder;
    * the distance from a point of ``[j]`` to the complement of ``[j]``
      is exactly twice the cylinder diameter.
    """

    depth: int
    cylinder_ok: bool
    cylinder_violations: list[tuple[int, Word]] = field(default_factory=list)
    distance_ok: bool = True
    max_distance_error: float = 0.0

    @property
    def passed(self) -> bool:
        return self.cylinder_ok and self.distance_ok

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "passed": self.passed,
            "cylinder_ok": self.cylinder_ok,
            "cylinder_violations": [
                {"map": m, "word": list(w)} for m, w in self.cylinder_violations
            ],
            "distance_ok": self.distance_ok,
            "max_distance_error": self.max_distance_error,
        }


def proper_semiconformality_check_symbolic(
    system: ContractionSystem, depth: int
) -> SymbolicConformalityReport:
    """Verify cylinder-to-cylinder mapping and the boundary distance law.

    Both checks are exhaustive on the depth-``depth`` tree, so a map that
    splits some cylinder (e.g. one branching on the second symbol) is
    caught with a named witness.
    """
    if depth < 2:
        raise DomainError("need depth >= 2 to expose cylinder structure")
    # cylinders live in the space's tree, not the (possibly narrower) tree
    # indexed by the system's own maps
    alphabet = getattr(system.space, "alphabet", system.alphabet)
    report = SymbolicConformalityReport(depth, True)

    for w in alphabet.words_up_to(depth - 1):
        tails = list(alphabet.words(depth - len(w)))
        for mi, m in enumerate(system.maps):
            images = {m.apply(w + tail) for tail in tails}
            lengths = {len(im) for im in images}
            is_cylinder = False
            if len(lengths) == 1:
                L = lengths.pop()
                prefix_len = L - (depth - len(w))
                prefixes = {im[:prefix_len] for im in images}
                if len(prefixes) == 1:
                    base = prefixes.pop()
                    is_cylinder = images == {base + tail for tail in tails}
            if not is_cylinder:
                report.cylinder_ok = False
                report.cylinder_violations.append((mi, w))

    # distance law: min over u outside [j] of d2(h, u) == 2 * diam([j])
    all_words = np.array(list(alphabet.words(depth)), dtype=np.int64)
    weights = 2.0 ** (1 - np.arange(1, depth + 1))
    for j in alphabet.words_up_to(depth - 1):
        jl = len(j)
        inside = np.all(all_words[:, :jl] == np.array(j), axis=1)
        if not inside.any() or inside.all():
            continue
        h = np.array(j + (0,) * (depth - jl))
        outside = all_words[~inside]
        neq = outside != h
        first = np.argmax(neq, axis=1)
        dists = weights[first]
        err = abs(float(dists.min()) - 2.0 * 2.0 ** (-jl))
        report.max_distance_error = max(report.max_distance_error, err)
        if err > 0.0:
            report.distance_ok = False
    return report
