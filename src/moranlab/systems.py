"""Iterated function systems, their sample clouds, and separation probes.

A :class:`ContractionSystem` bundles an ambient space, finitely many
contracting maps, and seed points.  Words act by composition
``phi_w = phi_{w1} o ... o phi_{wn}``; the pieces of the induced Moran
construction are ``X_w = phi_w(E)``.  Everything downstream (stopping sets,
clustering, ball condition) consumes either exact per-map
contraction bounds or finite sample clouds, and every sampled quantity is
one-sided: sampling can miss extremes, never invent them.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Sequence
from fractions import Fraction
from functools import cache, cached_property, reduce
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DomainError
from .exactnum import QuadraticNumber
from .spaces import (
    MetricSpace,
    SymbolSpace,
    row_minima,
    spacing,
    heisenberg_dilate,
    heisenberg_inverse,
    heisenberg_multiply,
)
from .words import (
    Alphabet,
    Word,
    _check_enum,
    block_rows,
    largest_depth,
    level_step,
    local_stopping_set,
    local_stopping_sets,
    word_at,
    word_str,
)

# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------


class ContractionMap:
    """One branch map.  Subclasses implement ``apply`` and, when the exact
    two-sided contraction bounds are known, ``lip_bounds``."""

    __slots__ = ()

    def apply(self, point):
        raise NotImplementedError

    def lip_bounds(self) -> tuple[float, float] | None:
        """Exact ``(lower, upper)`` metric distortion: the infimum and supremum of
        ``d(fx, fy) / d(x, y)`` in the coordinate metric, or ``None`` if unknown."""
        return None

    def affine(self) -> tuple[object, tuple] | None:
        """``(r, c)`` with ``apply(x)[j] == r * x[j] + c[j]`` in the map's own
        scalars; ``None`` for a map of any other shape."""
        return None


class SimilitudeMap(ContractionMap):
    """``x -> fixed + ratio * (x - fixed)`` in Euclidean space."""

    __slots__ = ("ratio", "fixed_point")

    def __init__(self, ratio, fixed_point: tuple):
        if not 0.0 < float(ratio) < 1.0:
            raise DomainError("similitude ratio must lie in (0, 1)")
        self.ratio = ratio
        self.fixed_point = fixed_point

    def apply(self, point):
        r, f = self.ratio, self.fixed_point
        return tuple(fi + r * (x - fi) for x, fi in zip(point, f))

    def lip_bounds(self):
        return (float(self.ratio), float(self.ratio))

    def affine(self):
        r = self.ratio
        return r, tuple(c - r * c for c in self.fixed_point)


class Affine2DMap(ContractionMap):
    """``x -> A x + b`` on the plane; distortion = singular values of A."""

    __slots__ = ("matrix", "translation")

    def __init__(self, matrix: tuple[tuple[float, float], ...], translation: tuple[float, float]):
        self.matrix = matrix
        self.translation = translation

    def apply(self, point):
        (a, b), (c, d) = self.matrix
        x, y = point
        tx, ty = self.translation
        return (a * x + b * y + tx, c * x + d * y + ty)

    def lip_bounds(self):
        s = np.linalg.svd(np.array(self.matrix, dtype=float), compute_uv=False)
        return (float(s[-1]), float(s[0]))


class CombMap(ContractionMap):
    """``(x, y) -> (r x + shift, r y)``: one branch of the comb system.

    ``r`` may be exact (Fraction / quadratic irrational); composition then
    stays exact coordinate-wise, which is what makes overlap detection at
    algebraic ratios reliable.
    """

    __slots__ = ("r", "shift")

    def __init__(self, r, shift: int):
        if not 0.0 < float(r) < 1.0:
            raise DomainError("comb ratio must lie in (0, 1)")
        self.r = r
        self.shift = shift

    def apply(self, point):
        x, y = point
        return (self.r * x + self.shift, self.r * y)

    def lip_bounds(self):
        return (float(self.r), float(self.r))

    def affine(self):
        return self.r, (self.shift, 0)


class SymbolMap(ContractionMap):
    """Prefix-rewriting map on the branch space.

    ``table[s]`` is the word prepended when the input starts with symbol
    ``s`` (one word per letter of the space's alphabet); the input itself
    is kept verbatim.  Maps of this shape send every (non-empty) cylinder
    onto a cylinder, and compose into one another (:meth:`then`).
    """

    __slots__ = ("table",)

    def __init__(self, table: tuple[Word, ...]):
        self.table = table

    def apply(self, word: Word) -> Word:
        """``table[word[0]] + word``; on an array of ``SymbolSpace.coordinates``
        rows, the rows of the images, as wide as the longest."""
        if isinstance(word, np.ndarray) and word[:, 0].all():
            first, width = word[:, 1], word.shape[1]
            lengths = word[:, 0] + np.array([len(t) for t in self.table])[first]
            dtype = np.promote_types(word.dtype, np.min_scalar_type(lengths.max()))
            out = np.zeros((len(word), width + max(map(len, self.table))), dtype, order="F")
            out[:, 0] = lengths
            for s, t in enumerate(self.table):
                # whole columns, masked to the rows starting with ``s``
                at = (first == s)[:, None]
                np.copyto(out[:, 1 : 1 + len(t)], np.array(t, dtype), where=at)
                np.copyto(out[:, 1 + len(t) : len(t) + width], word[:, 1:], where=at)
            return out[:, : lengths.max() + 1]
        if isinstance(word, np.ndarray) or len(word) == 0:
            raise DomainError("symbol maps need a non-empty prefix to inspect")
        return self.table[word[0]] + tuple(word)

    def then(self, inner: SymbolMap) -> SymbolMap:
        """``self o inner``: table ``self.table[(t + (s,))[0]] + t`` at ``t = inner.table[s]``."""
        return SymbolMap(tuple(self.table[(t + (s,))[0]] + t for s, t in enumerate(inner.table)))

    def lip_bounds(self):
        """The ratio ``d(fx, fy) / d(x, y)`` of tree distances takes finitely many
        values: ``2**-len(table[s])`` at two points of first letter ``s``; at first
        letters ``s != s'``, ``2**-j`` for the common prefix length ``j`` of
        ``table[s] + (s,)`` and ``table[s'] + (s',)``, and every value down to 0
        as well when one of those is a prefix of the other (the map glues branches)."""
        ratios = [2.0 ** -len(t) for t in self.table]
        for u, v in itertools.combinations([t + (s,) for s, t in enumerate(self.table)], 2):
            j = next((k for k, (a, b) in enumerate(zip(u, v)) if a != b), None)
            ratios += [2.0 ** -min(len(u), len(v)), 0.0] if j is None else [2.0 ** -j]
        return min(ratios), max(ratios)


class CarnotMap(ContractionMap):
    """``p -> a * delta_{1/2}(a^{-1} * p)`` on the Heisenberg group.

    Left translation is a gauge isometry and the dilation is homogeneous,
    so the map contracts the gauge distance by exactly one half.
    """

    __slots__ = ("anchor",)

    def __init__(self, anchor: tuple[float, float, float]):
        self.anchor = anchor

    def apply(self, point):
        a = self.anchor
        v = heisenberg_multiply(heisenberg_inverse(a), point)
        return heisenberg_multiply(a, heisenberg_dilate(0.5, v))

    def lip_bounds(self):
        return (0.5, 0.5)


# ---------------------------------------------------------------------------
# point clouds
# ---------------------------------------------------------------------------


class PointCloud:
    """Deterministically ordered samples of the level-``depth`` pieces.

    Rows are addressed by index: the words of length ``depth`` over
    ``size`` letters come in lexicographic order with ``samples`` rows each,
    so ``labels[k]`` is the base-``size`` digits of ``k // samples`` and
    :meth:`piece` is arithmetic.  Points keep the scalar type of the system
    that made them; exact points are built per row on first read.
    ``coordinates`` is ``space.coordinates(points)`` unless passed in.
    """

    __slots__ = ("space", "depth", "size", "samples", "points", "coordinates")

    def __init__(self, space, depth: int, size: int, samples: int, points, coordinates=None):
        self.space = space
        self.depth = depth
        self.size = size
        self.samples = samples
        self.points = points
        self.coordinates = space.coordinates(points) if coordinates is None else coordinates

    def __len__(self) -> int:
        return len(self.points)

    @property
    def labels(self) -> tuple[Word, ...]:
        words = itertools.product(range(self.size), repeat=self.depth)
        return tuple(w for w in words for _ in range(self.samples))

    def piece(self, word: Word) -> slice:
        """Index range of the samples whose label starts with ``word``."""
        index = 0
        for s in word[: self.depth]:
            index = index * self.size + s
        width = self.size ** max(0, self.depth - len(word)) * self.samples
        # a word longer than every label gets the empty range after its prefix
        return slice((index + (len(word) > self.depth)) * width, (index + 1) * width)


class ContractionSystem:
    """Ambient space + branch maps + seed points (+ optional known diameter)."""

    def __init__(self, space: MetricSpace, maps, seed_points, seed_diameter: float | None = None):
        if len(maps) < 2:
            raise DomainError("a contraction system needs at least two maps")
        if len(seed_points) < 1:
            raise DomainError("a contraction system needs at least one seed point")
        self.space = space
        self.maps = tuple(maps)
        self.seed_points = tuple(map(tuple, seed_points))
        self.seed_diameter = seed_diameter
        self.alphabet = Alphabet(len(self.maps))

    def apply_word(self, word: Word, point):
        """``phi_w(point)`` with ``phi_w = phi_{w1} o ... o phi_{wn}``."""
        for s in reversed(word):
            point = self.maps[s].apply(point)
        return point

    def levels(self, seeds: Sequence) -> Iterator:
        """Levels 1, 2, ... of ``seeds``, each its ``points`` and their ``rows``.

        Level ``n`` holds ``apply_word(w, x)`` for the length-``n`` words ``w``
        in lexicographic order, then ``x`` in seed order, each point built when
        it is read, with the values of :meth:`apply_word`, and its types where
        the map parameters are Python scalars, as ``specio`` builds them (a numpy
        float parameter gives ``float`` here, ``np.float64`` there); ``rows``
        is ``space.coordinates(points)`` bit for bit.  Exact affine systems run
        on integer numerators (:func:`_integer_levels`); any other level stays
        in the kernel's layout and each map's ``apply`` runs once on it, maps
        outermost, on its rows of words or its tuple of coordinate columns:
        the scalars themselves, float64 once all are floats (the maps of this module
        compute with ``+``, ``-`` and ``*`` only, which round on float64 as on floats).
        """
        n = self.space.coordinate_dim
        if n is not None and any(len(p) != n for p in seeds):
            raise DomainError("points are not all %d-dimensional" % n)
        levels = _integer_levels(self, seeds)
        if levels is not None:
            yield from levels  # endless: the maps below never run
        words = n is None
        X = self.space.coordinates(seeds) if words else np.array(seeds, dtype=object)
        while True:
            if X.dtype == object and all(type(v) is float for v in X.ravel().tolist()):
                X = X.astype(float)
            with np.errstate(all="ignore"):  # overflow to inf and NaN pass silently, as on floats
                X = _stack_rows([m.apply(X) if words else np.array(m.apply(tuple(X.T))).T
                                 for m in self.maps])
            yield _RowLevel(X, words)

    @cached_property
    def map_lip_bounds(self) -> tuple[tuple[float, float] | None, ...]:
        """``lip_bounds()`` of each map, computed once per system."""
        return tuple(m.lip_bounds() for m in self.maps)

    def word_lip_bounds(self, word: Word) -> SemiconformalBounds:
        """Distortion bounds ``lower <= d(phi_w x, phi_w y)/d(x, y) <= upper``.

        Products of per-map bounds are always valid; when every map along
        the word is an axis/rigid similitude (lower == upper) the product
        is the exact distortion.  A word of planar affine maps takes the
        singular values of its product matrix, and a word of symbol maps the
        bounds of its composite table (:meth:`SymbolMap.then`): both exact,
        and tighter than the products.  Map bounds are stated in the
        coordinate metric; the space turns them into bounds in its own
        metric.  A word through a map without bounds raises :class:`DomainError`.
        """
        bound, maps = self.space.metric_bound, [self.maps[s] for s in word]
        if maps and all(isinstance(m, Affine2DMap) for m in maps):
            prod = np.eye(2)
            for m in maps:
                prod = prod @ np.array(m.matrix, dtype=float)
            sv = np.linalg.svd(prod, compute_uv=False)
            return SemiconformalBounds(bound(float(sv[-1])), bound(float(sv[0])), True)
        if maps and all(isinstance(m, SymbolMap) for m in maps):
            lo, hi = reduce(SymbolMap.then, maps).lip_bounds()
            return SemiconformalBounds(bound(lo), bound(hi), True)
        lo, hi, exact = 1.0, 1.0, True
        for s in word:
            b = self.map_lip_bounds[s]
            if b is None:
                raise DomainError("map %d has no exact contraction bounds" % s)
            lo, hi, exact = lo * b[0], hi * b[1], exact and b[0] == b[1]
        return SemiconformalBounds(bound(lo), bound(hi), exact)

    # -- induced diameter model -------------------------------------------

    def induced_model(self, cloud: PointCloud | None = None):
        """Diameter model of the pieces ``X_w = phi_w(E)``.

        Exact multiplicative when every map has tight contraction bounds
        (similitudes, comb branches, Carnot halvings); otherwise sampled
        from the cloud, with the usual one-sided caveat.  Without a declared
        seed diameter the cloud's samples estimate it.  When the model needs
        samples and no cloud is given, the system samples itself: the
        largest cloud of at most 512 points with ``min(2, #seeds)`` samples
        per piece, at depth ``>= 1``.
        """
        from .models import GeneralModel, MultiplicativeModel

        bounds = self.map_lip_bounds
        tight = all(b is not None and b[0] == b[1] for b in bounds)
        if cloud is None and (self.seed_diameter is None or not tight):
            samples = min(2, len(self.seed_points))  # depth 8 for two maps
            cloud = attractor_cloud(self, largest_depth(len(self.maps), 512 // samples), samples)
        seed = self.seed_diameter
        if seed is None:
            seed = _sampled_diameter(self.space, cloud.coordinates[:: max(1, len(cloud) // 256)])
        if tight:
            ratios = [self.space.metric_bound(b[0]) for b in bounds]
            model = MultiplicativeModel(ratios, seed_diameter=seed)
        else:
            @cache
            def log_diam(word: Word) -> float:
                X = cloud.coordinates[cloud.piece(word)]
                if len(X) < 2:
                    raise DomainError(
                        "the depth-%d cloud resolves no pair of samples inside %s; "
                        "regenerate the cloud at depth >= %d"
                        % (cloud.depth, word_str(word), len(word) + 1)
                    )
                d = _sampled_diameter(self.space, X)
                if d <= 0:
                    raise DomainError("degenerate sampled diameter at %s" % word_str(word))
                return math.log(d)

            model = GeneralModel(log_diam, self.alphabet, seed_diameter=seed)
        model.containment_check = self._containment_check(cloud)
        return model

    def _containment_check(self, cloud: PointCloud | None):
        if cloud is None or len(cloud) < 2:
            return None

        def check() -> tuple[bool, str]:
            stride, space = max(1, len(cloud) // 128), self.space
            sub, X = cloud.points[: 32 * stride : stride], cloud.coordinates[::stride]
            resolution = 2.0 * spacing(space, X, np.arange(len(X)))
            # level 1 of the samples: map k's images are block k
            far = row_minima(space, X, next(self.levels(sub)).rows) > max(resolution, 1e-9)
            out = far.reshape(len(self.maps), -1).any(axis=1)
            within = "resolution %.3g" % resolution
            if out.any():
                k = int(out.argmax())
                return False, "map %d sends a sample farther than the sampled set %s" % (k, within)
            return True, "sampled containment of each branch image within %s" % within

        return check


def _sampled_diameter(space: MetricSpace, X: np.ndarray) -> float:
    """``max`` over rows ``i >= 1`` of the largest ``distance(X[j], X[i])``,
    ``j < i``, folded in row order as Python's ``max`` does."""
    n, row_max, step = len(X), [], block_rows(len(X))
    for a in range(1, n, step):
        b = min(a + step, n)
        d = space.distances(X[: b - 1], X[a:b])
        d[np.arange(b - 1) >= np.arange(a, b)[:, None]] = -np.inf
        row_max.extend(d.max(axis=1).tolist())
    return max(row_max, default=0.0)  # one row has no pair: a seed no model takes


def attractor_cloud(system: ContractionSystem, depth: int, samples_per_leaf: int = 1) -> PointCloud:
    """Apply every depth-``depth`` word to the first seed points.

    Output order is lexicographic in the word, then seed order: fully
    deterministic.  The cloud is built level by level (about ``a/(a-1)``
    map applications per point for ``a`` maps).  The total point count is
    capped by the enumeration limit.
    """
    if depth < 1:
        raise DomainError("cloud depth must be >= 1")
    if not 1 <= samples_per_leaf <= len(system.seed_points):
        raise DomainError("samples_per_leaf must lie in [1, %d]" % len(system.seed_points))
    count = system.alphabet.size**depth * samples_per_leaf
    _check_enum(count, "attractor cloud at depth %d" % depth, (system.alphabet.size,) * depth)
    seeds = system.seed_points[:samples_per_leaf]
    shape = (system.space, depth, system.alphabet.size, len(seeds))
    level = next(itertools.islice(system.levels(seeds), depth - 1, None))
    return PointCloud(*shape, _LevelPoints(level.point, count), level.rows)


# ---------------------------------------------------------------------------
# integer levels of exact affine systems
# ---------------------------------------------------------------------------


def _integer_parts(x) -> tuple[int, int, int]:
    """``(den, a, b)`` with ``x == (a + b*sqrt(d)) / den`` for an exact scalar."""
    if isinstance(x, QuadraticNumber):
        a, b = x.a, x.b
        den = math.lcm(a.denominator, b.denominator)
        return den, a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
    x = Fraction(x)
    return x.denominator, x.numerator, 0


def _field(x) -> int | None:
    """The one test of exactness: ``d`` when ``x`` is an exact scalar of Q(sqrt d),
    1 for an ``int`` or ``Fraction``, ``x.d`` for a quadratic number; else ``None``."""
    return 1 if type(x) in (int, Fraction) else x.d if isinstance(x, QuadraticNumber) else None


def _over(xs) -> tuple[int, list[int], list[int]]:
    """``(den, A, B)`` with ``xs[k] == (A[k] + B[k]*sqrt(d)) / den`` over one
    common denominator, for exact scalars ``xs``."""
    parts = [_integer_parts(x) for x in xs]
    den = math.lcm(*(q for q, _, _ in parts))
    return den, [a * (den // q) for q, a, _ in parts], [b * (den // q) for q, _, b in parts]


class _IntegerLevel(NamedTuple):
    """One level of points ``(a[j][k] + b[j][k]*sqrt(d)) / den``.

    ``a[j]`` and ``b[j]`` hold coordinate ``j`` of every point, int64 below ``2**53``
    and Python ints past it; ``b`` is ``None`` on rational systems (``d == 1``).
    """

    den: int
    a: list
    b: list | None
    d: int

    @property
    def rows(self) -> np.ndarray:
        """``float(exact)`` bit for bit: ints divide with correct rounding,
        and quadratic numbers convert as ``float(a) + float(b) * sqrt(d)``."""
        cols = [(a / self.den).astype(float) for a in self.a]
        if self.b is not None:
            root = math.sqrt(self.d)
            cols = [x + (b / self.den).astype(float) * root for x, b in zip(cols, self.b)]
        return np.array(cols).T  # column-major, as ``space.coordinates`` builds float rows

    def point(self, k: int) -> tuple:
        """Exact point ``k``, with the values and types of :meth:`apply_word`."""
        den, d = self.den, self.d
        if self.b is None:
            return tuple(Fraction(int(a[k]), den) for a in self.a)
        return tuple(QuadraticNumber(Fraction(int(a[k]), den), Fraction(int(b[k]), den), d)
                     for a, b in zip(self.a, self.b))


class _RowLevel(NamedTuple):
    """A level as ``space.coordinates`` rows (float64, or letters of ``words``),
    or as rows of :meth:`ContractionSystem.apply_word`'s own scalars."""

    array: np.ndarray
    words: bool

    @property
    def rows(self) -> np.ndarray:
        return self.array.astype(float) if self.array.dtype == object else self.array

    def point(self, k: int) -> tuple:
        row = self.array[k].tolist()
        return tuple(row[1 : 1 + row[0]] if self.words else row)


def _stack_rows(blocks: list) -> np.ndarray:
    """The row blocks one after another, column-major, narrower symbol rows
    zero-padded to the widest, in the widest dtype."""
    out = np.zeros((sum(map(len, blocks)), max(b.shape[1] for b in blocks)),
                   np.result_type(*blocks), order="F")
    for b, a in zip(blocks, itertools.accumulate(map(len, blocks), initial=0)):
        out[a : a + len(b), : b.shape[1]] = b
    return out


class _LevelPoints(Sequence):
    """A level's points, read as a tuple; ``point(k)`` is built on each read
    and not kept."""

    __slots__ = ("point", "n")

    def __init__(self, point, n: int):
        self.point, self.n = point, n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, k):
        rows = range(self.n)[k]
        return tuple(map(self.point, rows)) if isinstance(k, slice) else self.point(rows)


def _integer_levels(system: ContractionSystem, seeds: Sequence) -> Iterator[_IntegerLevel] | None:
    """Levels 1, 2, ... of ``seeds`` under ``system`` on integer numerators.

    Applies when every map has an affine form, the ratios share one field
    Q(sqrt d) of :func:`_field`, and every offset (one per coordinate) and
    seed coordinate has field 1 or ``d``.  Then ``apply_word``
    gives ``Fraction`` (resp. ``QuadraticNumber``) coordinates only, and
    the levels hold the values and point order of
    :meth:`ContractionSystem.levels`.  Otherwise returns ``None``.
    """
    try:
        forms = [m.affine() for m in system.maps]
    except DomainError:  # an offset of two radicands: ``apply_word`` may still give floats
        return None
    if any(f is None for f in forms):
        return None
    n, d = system.space.coordinate_dim, _field(forms[0][0])
    seed_coords = [c for p in seeds for c in p]
    scalars = [c for _, cs in forms for c in cs] + seed_coords
    if (d is None or any(_field(r) != d or len(cs) != n for r, cs in forms)
            or any(_field(c) not in (1, d) for c in scalars)):
        return None
    # map k: x_j -> ((p + q sqrt d) x_j + (u_j + v_j sqrt d)) / den over one den
    den, A, B = _over([c for r, cs in forms for c in (r, *cs)])
    maps = [(A[k : k + n + 1], B[k : k + n + 1]) for k in range(0, len(A), n + 1)]
    level_den, A, B = _over(seed_coords)
    a, b = (np.array(v, dtype=object).reshape(-1, n).T for v in (A, B))
    seed_level = _IntegerLevel(level_den, list(a), list(b) if d > 1 else None, d)
    return _iterate_levels(maps, den, d, seed_level)


def _iterate_levels(maps, den: int, d: int, level: _IntegerLevel) -> Iterator[_IntegerLevel]:
    """``maps[k] = (a, b)``: numerators over ``den`` of map k's ratio (index
    0) and offsets (index ``j + 1``); each level is every map applied to
    every point of the previous one, maps outermost.  Numerators are int64 while
    the next level's denominator and numerator bound stay below ``2**53`` (no sum
    wraps, every value is exact as a float), Python ints from the first level past it."""
    ratio = max(abs(a[0]) + abs(b[0]) * d for a, b in maps)
    offset = max(abs(v) for a, b in maps for v in a[1:] + b[1:])
    small = True
    while True:
        D, A, B = level.den, level.a, level.b
        if small:
            top = max(1, *(int(np.abs(x).max()) for x in A + (B or [])))
            small = max(top * ratio + offset * D, den * D) < 2**53
            A, B = ([x.astype(np.int64 if small else object, copy=False) for x in X] if X else X
                    for X in (A, B))
        if B is None:
            A = [np.concatenate([a[0] * x + a[j + 1] * D for a, _ in maps])
                 for j, x in enumerate(A)]
        else:
            A, B = (
                [np.concatenate([a[0] * x + (b[0] * d) * y + a[j + 1] * D for a, b in maps])
                 for j, (x, y) in enumerate(zip(A, B))],
                [np.concatenate([b[0] * x + a[0] * y + b[j + 1] * D for a, b in maps])
                 for j, (x, y) in enumerate(zip(A, B))],
            )
        level = _IntegerLevel(den * D, A, B, d)
        yield level


# ---------------------------------------------------------------------------
# semiconformal bounds
# ---------------------------------------------------------------------------


class SemiconformalBounds(NamedTuple):
    """Distortion interval of a word map.

    When ``exact`` is true, ``lower`` and ``upper`` are the infimum and
    supremum of the distortion ratio.  When it is false, the interval is a
    product of valid per-map bounds that are not tight (a word mixing
    ``Affine2DMap`` with other maps), and the true bounds lie inside it.
    """

    lower: float
    upper: float
    exact: bool


semiconformal_bounds = ContractionSystem.word_lip_bounds  # (system, word)


# ---------------------------------------------------------------------------
# overlap scan (anchor collisions)
# ---------------------------------------------------------------------------


class CollisionScan(tuple):
    """Result of :func:`osc_collision_scan`: a tuple of triples ``(u, v, gap)``.

    Each triple is a canonical incomparable pair (larger word first, no
    common trailing zeros) whose anchors coincide -- exactly (gap 0.0) when
    ``r`` was given as an exact scalar, within ``_COLLISION_TOL`` otherwise.
    ``min_nonzero_gap`` is the smallest non-collision anchor difference
    seen across the whole scan.
    """

    def __new__(cls, collisions, min_nonzero_gap: float, exact: bool, depth: int):
        scan = super().__new__(cls, collisions)
        scan.min_nonzero_gap, scan.exact, scan.depth = min_nonzero_gap, exact, depth
        return scan

    #: the triples as a plain tuple
    collisions = property(tuple)


#: the anchor difference below which two float anchors coincide
_COLLISION_TOL = 1e-9


def osc_collision_scan(r, depth: int) -> CollisionScan:
    """Search for word pairs whose comb anchors ``x_i = sum i_k r^{k-1}`` agree.

    Enumerates difference vectors ``c in {-1,0,1}**m`` (``m <= depth``) by a
    meet-in-the-middle split, so the cost is ``O(3**(depth/2))`` rather than
    ``3**depth``.  A coincidence of anchors for incomparable words is
    exactly the failure of the strong open-set separation for the two-map
    affine family with ratio ``r``.

    If ``r`` is exact (int, Fraction, or quadratic irrational) every float
    candidate within ``_COLLISION_TOL`` is re-decided exactly and only true zeros are
    reported.  Returned pairs are canonical: the two words have equal
    length with no common trailing zero, the first word is the
    lexicographically larger one.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if depth > 14:
        raise DomainError("collision scan depth capped at 14")
    exact = _field(r) is not None
    rf = float(r)
    if not 0.5 < rf < 1.0:
        raise DomainError("ratio must lie in (1/2, 1), got %r" % rf)

    half = depth // 2
    pows = [rf**k for k in range(depth)]
    digits = np.array([-1, 0, 1], dtype=np.int8)

    def half_sums(positions: range) -> tuple[np.ndarray, np.ndarray]:
        """Sums ``s + c * r**p`` (added position by position) and int8 digit
        rows of every ``c`` in ``{-1, 0, 1}**positions``, last digit fastest."""
        sums, rows = np.zeros(1), np.zeros((1, 0), dtype=np.int8)
        for p in positions:
            sums = level_step(sums, digits * pows[p])
            rows = np.column_stack([np.repeat(rows, 3, axis=0), np.tile(digits, len(rows))])
        return sums, rows

    first, first_rows = half_sums(range(half))
    second, second_rows = half_sums(range(half, depth))
    # sorted as (sum, digits) tuples: ties keep the digits' lexicographic order
    order = np.lexsort((*second_rows.T[::-1], second))
    second, second_rows = second[order], second_rows[order]

    # each first half matches the second halves in [start, stop): sums within the tolerance
    start = np.searchsorted(second, -first - _COLLISION_TOL, "left")
    stop = np.maximum(start, np.searchsorted(second, -first + _COLLISION_TOL, "right"))
    # the nearest neighbours outside the window give the gap
    near_gaps, nonzero = [], (first_rows.any(axis=1), second_rows.any(axis=1))
    for near in (start - 1, stop):
        ok = (0 <= near) & (near < len(second))
        f, j = np.flatnonzero(ok), near[ok]
        gap = np.abs(first[f] + second[j])[nonzero[0][f] | nonzero[1][j]]
        near_gaps.append(gap[gap > _COLLISION_TOL])

    counts = stop - start
    f = np.repeat(np.arange(len(first)), counts)
    j = np.arange(counts.sum()) + np.repeat(start - (np.cumsum(counts) - counts), counts)
    cvecs = np.concatenate([first_rows[f], second_rows[j]], axis=1)
    cvecs = cvecs[cvecs.any(axis=1)]
    # canonical: first non-zero digit positive (trailing zeros pad a shorter
    # pair), one row per base-3 key
    cvecs *= cvecs[np.arange(len(cvecs)), (cvecs != 0).argmax(axis=1), None]
    _, unique = np.unique((cvecs + 1).astype(np.int64) @ 3 ** np.arange(depth), return_index=True)
    canon = cvecs[unique]
    # row sums added column by column from 0, as ``sum`` adds floats before Python 3.12
    gaps = np.abs(sum(canon[:, k] * p for k, p in enumerate(pows)))

    if exact:
        # r^k = (A_k + B_k sqrt d) / den with integers A_k, B_k; as sqrt d is
        # irrational, sum c_k r^k = 0 iff both integer sums vanish
        _, A, B = _over(itertools.accumulate([r] * (depth - 1), lambda p, q: p * q, initial=1))
        # int64 sums when none can overflow, Python ints otherwise
        dtype = np.int64 if max(map(abs, A + B)) * depth < 2**63 else object
        C = canon.astype(dtype)
        zero = (C @ np.array(A, dtype) == 0) & (C @ np.array(B, dtype) == 0)
        # a near miss that is not exactly zero counts toward the gap
        near_gaps.append(gaps[~zero][gaps[~zero] > 0])
        canon, gaps = canon[zero], np.zeros(int(zero.sum()))

    # u marks the +1 digits and v the -1 digits of the length-m pair; the
    # first non-zero digit is +1, so u > v already; sort on (m, u, v)
    m = depth - (canon[:, ::-1] != 0).argmax(axis=1)
    u, v = np.maximum(canon, 0), np.maximum(-canon, 0)
    order = np.lexsort((*v.T[::-1], *u.T[::-1], m))
    u, v, m, gaps = u[order], v[order], m[order], gaps[order]
    # pairs of length k are rows [ends[k - 1], ends[k]); their words are k letter columns
    ends, triples = np.searchsorted(m, np.arange(depth + 1), "right").tolist(), []
    for k, (a, b) in enumerate(itertools.pairwise(ends), start=1):
        triples += zip(*(zip(*x[a:b, :k].T.tolist()) for x in (u, v)), gaps[a:b].tolist())
    min_gap = float(np.concatenate(near_gaps).min(initial=np.inf))
    return CollisionScan(triples, min_gap, exact, depth)


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
    x, space, size, ns = tuple(x), system.space, system.alphabet.size, range(1, depth + 1)
    list(map(system.alphabet.words, ns))  # the enumeration cap; no word is read
    X = _stack_rows([lv.rows for lv in itertools.islice(system.levels((x,)), depth)])
    # lower bounds a level at a time, each the parent's times the last map's
    # (the left-to-right products of ``word_lip_bounds``), then libm's pow per
    # element on the snowflake; words with an affine or a symbol map, or a map
    # without bounds (NaN here), go per word
    lower = [math.nan if b is None or isinstance(m, (Affine2DMap, SymbolMap)) else b[0]
             for m, b in zip(system.maps, system.map_lip_bounds)]
    prods = [np.ones(1)]
    for _ in range(depth):
        prods.append(level_step(prods[-1], lower, np.multiply))
    prod = np.concatenate(prods[1:])
    sep = np.fromiter(map(space.metric_bound, prod.tolist()), float, len(prod))
    # level n's words are the base-``size`` numbers 0 .. size**n - 1, from index first[n - 1] on
    first = list(itertools.accumulate((size**n for n in ns), initial=0))
    other = np.flatnonzero(np.isnan(prod)).tolist()
    sep[other] = [system.word_lip_bounds(word_at(i - first[n - 1], (size,) * n)).lower
                  for i, n in zip(other, np.searchsorted(first, other, "right").tolist())]

    # word k covers the depth-``depth`` index range [lo[k], hi[k])
    lo = np.concatenate([np.arange(size**n, dtype=np.int64) * size ** (depth - n) for n in ns])
    hi = lo + np.repeat([size ** (depth - n) for n in ns], [size**n for n in ns])
    best, a, n = math.inf, 0, len(prod)
    # word blocks i in [a, b) against the later words j > i; ratios are
    # non-negative, so an exact zero is final
    while a < n - 1 and best != 0.0:
        b = min(a + block_rows(n - a), n - 1)
        i, j = slice(a, b), slice(a + 1, None)
        ratio = space.distances(X[j], X[i]) / (sep[i, None] + sep[j])
        # pairs j <= i, and prefixes: later words are no shorter, so only words[i] can be one
        prefix = (lo[i, None] <= lo[j]) & (hi[j] <= hi[i, None])
        ratio[prefix | np.tri(b - a, n - a - 1, -1, dtype=bool)] = np.inf
        # a row with a NaN ratio is passed over, as ``min(best, nan)`` does
        best = min(best, float(np.fmin.reduce(ratio.min(axis=1))))
        a = b
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
    samples are finite, and a piece whose samples all miss the ball only
    lowers the count, so the error is one-sided in the safe direction.
    Radii outside ``(0, seed diameter)`` or too fine for the cloud depth
    are skipped with a warning.
    """
    if x_samples < 1:
        raise DomainError("need at least one probe point")
    stride = max(1, len(cloud) // x_samples)
    Q = cloud.coordinates[: x_samples * stride : stride]
    sups = []
    for r in r_grid:
        try:
            sups.append(max(len(s.words) for s in local_stopping_sets(model, cloud, Q, r)))
        except DomainError as exc:
            warnings.warn("skipping r=%r: %s" % (r, exc))
    if not sups:
        raise DomainError("no radius in the grid was usable at this cloud depth")
    return max(sups)


class BallConditionProbe(NamedTuple):
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
    Sampled centers only make the placement harder, but a piece whose
    samples all miss the ball is left out, which makes it easier: ``delta``
    is no certified lower bound (``specs/cantor.json`` at depth 6, ``r =
    0.173``, ``x = 0.95`` gives 1; see the ball-probe item of ROADMAP.md).
    """
    if not delta_grid or not all(d > 0 for d in delta_grid):
        raise DomainError("delta grid must be non-empty and positive, got %r" % (delta_grid,))
    local = local_stopping_set(model, cloud, x, r)
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
            k = piece.start + int(free[0])
            chosen.append(cloud.points[k])
            nearest = np.minimum(nearest, dist(X, X[k : k + 1])[0])
        else:
            return BallConditionProbe(delta, True, tuple(order), tuple(chosen))
    return BallConditionProbe(0.0, False, tuple(order), ())


# ---------------------------------------------------------------------------
# symbolic proper semiconformality
# ---------------------------------------------------------------------------


class SymbolicConformalityReport(NamedTuple):
    """Exhaustive finite-depth check of the two cylinder properties.

    * every map sends every non-empty cylinder onto a full cylinder;
    * the distance from a point of ``[j]`` to the complement of ``[j]``
      is exactly twice the cylinder diameter.
    """

    depth: int
    cylinder_violations: list[tuple[int, Word]]
    max_distance_error: float

    @property
    def passed(self) -> bool:
        return not self.cylinder_violations and self.max_distance_error == 0.0


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
    alphabet = system.space.alphabet
    violations = []
    for w in alphabet.words_up_to(depth - 1):
        tails = list(alphabet.words(depth - len(w)))
        for mi, m in enumerate(system.maps):
            # a cylinder [base] is the image of [w] iff every tail keeps one base
            first = m.apply(w + tails[0])
            base = first[: len(first) - (depth - len(w))]
            if {m.apply(w + tail) for tail in tails} != {base + tail for tail in tails}:
                violations.append((mi, w))

    # distance law: min over u outside [j] of d2(h, u) == 2 * diam([j]); with
    # two letters at least, some word of full depth lies outside every [j]
    space = SymbolSpace(alphabet)
    X = space.coordinates(list(alphabet.words(depth)))
    error = 0.0
    for j in alphabet.words_up_to(depth - 1):
        outside = X[(X[:, 1 : len(j) + 1] != j).any(axis=1)]
        h = space.coordinates([j + (0,) * (depth - len(j))])
        error = max(error, abs(float(space.distances(outside, h).min()) - 2.0 * 2.0 ** (-len(j))))
    return SymbolicConformalityReport(depth, violations, error)
