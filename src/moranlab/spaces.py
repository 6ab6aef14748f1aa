"""Ambient metric spaces: Euclidean, snowflaked, symbolic, comb, Heisenberg.

Each space answers ``distance(x, y)`` for its own point type, knows whether
it is an ultrametric (which changes when two balls of equal radius are
disjoint), and says what its points are: ``coordinate_dim`` numbers each,
or words of its ``alphabet`` where ``coordinate_dim`` is ``None``.  Points
are plain tuples throughout; coordinates may be floats or exact scalars
(rationals / quadratic irrationals), in which case differences are formed
exactly before the final float conversion, so an exact zero stays zero.
Spaces do not read or write spec files.

Each space also has one vectorised kernel: ``coordinates(points)`` turns
points into array rows (float rows from one builder, on :class:`MetricSpace`;
letter rows on the symbol space) and ``distances(X, Q)`` takes a block of
query rows in that layout and returns ``D[i, j] = distance(X[j], Q[i])``; one
point is a one-row block, and loops over many points pass blocks of
:func:`block_rows` rows.  The kernel uses the scalar path's operand order and
float operations (squares are products, the gauge's fourth root is two square
roots, the snowflake exponent is libm's ``pow``), so on float coordinates it
returns the scalar values bit for bit.  Exact coordinates enter as
``float(exact)``.  Rows are column-major in every space, one contiguous array
per coordinate or letter position, as the greedy cover reads them (README
lists the cover variants measured slower).  The symbol kernel compares letter
columns and finds each pair's first differing letter with one max-reduce; it
counts if it lies inside the pair's common length.

``within(X, q, r)`` is the ball test of one query row ``q`` (a cover's or a
packing's centre), ``distances(X, q[None])[0] <= r`` bit for bit.  The
Euclidean (and comb) and Heisenberg kernels have a pre-root part, the sums of
squares or ``(a^2+b^2)^2 + c^2``, that ``distances`` finishes with one or two
square roots and ``within`` compares with :func:`ball_bound` instead.  That
part's helper takes the query as operands: a block's columns ``Q.T[:, :, None]``,
each ``(B, 1)``, or the row ``q``, read as scalars; one expression serves both.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .errors import DomainError
from .words import Alphabet, Word, d2_with_resolution


#: float64 elements per temporary of a block-query loop (64 KiB)
BLOCK_ELEMENTS = 2**13


def block_rows(n_rows: int) -> int:
    """Query rows per kernel call against ``n_rows`` rows."""
    return max(1, BLOCK_ELEMENTS // max(1, n_rows))


def ball_bound(r: float, roots: int) -> float:
    """The largest float ``s`` whose ``roots``-fold square root is ``<= r``,
    ``-inf`` if there is none.  IEEE ``sqrt`` is correctly rounded, hence
    monotone, so for ``s >= 0`` (or NaN) ``root(s) <= r`` holds exactly when
    ``s <= ball_bound(r, roots)``: a ball test need not take the roots.  A 0-d
    array radius is read as its item, so an exact radius in one stays exact."""
    return _ball_bound(r.item() if isinstance(r, np.ndarray) else r, roots)


@lru_cache(maxsize=64)
def _ball_bound(r: float, roots: int) -> float:
    if not r >= 0:
        return -math.inf

    def root(s: float) -> float:
        for _ in range(roots):
            s = math.sqrt(s)
        return s

    s = float(r)
    for _ in range(roots):
        s *= s
    # r**(2**roots) lies a few floats from the bound
    while root(s) > r:
        s = math.nextafter(s, 0.0)
    while s < math.inf and root(math.nextafter(s, math.inf)) <= r:
        s = math.nextafter(s, math.inf)
    return s


def _squares(X: np.ndarray, q) -> np.ndarray:
    """The Euclidean kernel before its square root: the sums of squares."""
    if len(q) != X.shape[1]:
        raise DomainError("query rows of width %d vs rows of %d" % (len(q), X.shape[1]))
    # the sum starts at the first square: 0.0 + d*d is d*d, as d*d is never -0.0
    d = X[:, 0] - q[0]
    total = np.multiply(d, d, out=d)
    for k in range(1, X.shape[1]):
        d = X[:, k] - q[k]
        total += np.multiply(d, d, out=d)
    return total


def row_minima(space: "MetricSpace", X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``min(distance(x, q) for x in X)`` (NaN if one is NaN) per query row ``q`` of ``Q``."""
    out, step = [np.empty(0)], block_rows(len(X))
    for a in range(0, len(Q), step):
        out.append(space.distances(X, Q[a : a + step]).min(axis=1))
    return np.concatenate(out)


def spacing(space: "MetricSpace", X: np.ndarray, rows: np.ndarray) -> float:
    """The sample spacing: the largest, over the rows ``X[rows]``, of the distance to
    the nearest row at a positive distance (``inf`` if none); a NaN minimum counts as 0.0."""
    Q, m, step = X[rows], np.empty(len(rows)), block_rows(len(X))
    for a in range(0, len(rows), step):
        d = space.distances(X, Q[a : a + step])
        d[np.arange(len(d)), rows[a : a + step]] = np.inf  # the row itself
        d.min(axis=1, out=m[a : a + step])
    for k in np.flatnonzero(m == 0):  # a repeated row: its nearest at a positive distance
        d = space.distances(X, X[rows[k]][None])
        m[k] = d.min(initial=np.inf, where=d > 0)
    return max(0.0, float(np.fmax.reduce(m)))


class MetricSpace:
    """Base class; subclasses implement ``distance`` and ``distances``, and
    spaces whose points are not ``coordinate_dim`` numbers ``coordinates``."""

    __slots__ = ()

    #: ultrametric spaces satisfy d(x,z) <= max(d(x,y), d(y,z))
    ultrametric: bool = False
    #: points are tuples of this many numbers, usable as float array rows;
    #: ``None``: points are words of the space's ``alphabet``
    coordinate_dim: int | None = None

    def distance(self, p, q) -> float:
        raise NotImplementedError

    def coordinates(self, points: Sequence) -> np.ndarray:
        """The points as the rows of the array that :meth:`distances` reads:
        ``float`` of their ``coordinate_dim`` numbers each, column-major."""
        dim = self.coordinate_dim
        try:
            return np.array(points, dtype=float, order="F").reshape(len(points), dim)
        except ValueError as exc:
            raise DomainError("points are not all %d-dimensional" % dim) from exc

    def distances(self, X: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """``D[i, j] = distance(X[j], Q[i])`` over rows of :meth:`coordinates`."""
        raise NotImplementedError

    def within(self, X: np.ndarray, q: np.ndarray, r: float) -> np.ndarray:
        """The ball test of the one query row ``q``: ``distances(X, q[None])[0] <= r``."""
        return self.distances(X, q[None])[0] <= r

    def metric_bound(self, s: float) -> float:
        """Lipschitz bound in this metric of a map with coordinate-metric bound ``s``."""
        return s


class EuclideanSpace(MetricSpace):
    __slots__ = ("dim",)

    def __init__(self, dim: int):
        if dim < 1:
            raise DomainError("dimension must be >= 1")
        self.dim = dim

    @property
    def coordinate_dim(self) -> int:
        return self.dim

    def distance(self, p: Sequence, q: Sequence) -> float:
        if len(p) != len(q):
            raise DomainError("points of different dimension: %r vs %r" % (p, q))
        total = 0.0
        for a, b in zip(p, q):
            d = float(a - b)  # exact subtraction where the types allow it
            total += d * d
        return math.sqrt(total)

    def distances(self, X: np.ndarray, Q: np.ndarray) -> np.ndarray:
        s = _squares(X, Q.T[:, :, None])
        return np.sqrt(s, out=s)

    def within(self, X: np.ndarray, q: np.ndarray, r: float) -> np.ndarray:
        return _squares(X, q) <= ball_bound(r, 1)


class SnowflakeSpace(MetricSpace):
    """The base metric raised to ``p`` in (0, 1): ``d(x, y) ** p``.

    Snowflaking preserves the metric axioms (concavity of ``t**p`` gives
    the triangle inequality) and turns any metric into one with no
    rectifiable curves; it scales all dimensions by ``1/p``, and a map
    with base-metric Lipschitz bound ``s`` has bound ``s ** p``.
    """

    __slots__ = ("base", "p")

    def __init__(self, base: MetricSpace, p: float):
        if not 0.0 < p < 1.0:
            raise DomainError("snowflake exponent must lie in (0, 1), got %r" % p)
        self.base = base
        self.p = p

    @property
    def ultrametric(self) -> bool:
        return self.base.ultrametric

    @property
    def coordinate_dim(self) -> int | None:
        return self.base.coordinate_dim

    @property
    def alphabet(self) -> Alphabet:
        return self.base.alphabet

    def distance(self, x, y) -> float:
        return self.base.distance(x, y) ** self.p

    def coordinates(self, points: Sequence) -> np.ndarray:
        return self.base.coordinates(points)

    def distances(self, X: np.ndarray, Q: np.ndarray) -> np.ndarray:
        # libm's pow per element, as in ``distance``: numpy's vector pow
        # may round differently
        d = self.base.distances(X, Q)
        out = np.fromiter(map(math.pow, d.ravel().tolist(), repeat(self.p)), float, d.size)
        return out.reshape(d.shape)

    def metric_bound(self, s: float) -> float:
        return self.base.metric_bound(s) ** self.p


class SymbolSpace(MetricSpace):
    """The branch space with the dyadic tree metric.

    Points are finite prefixes of infinite branches.  Two prefixes of
    different declared depth are compared on their common depth; prefixes
    that agree there have unresolved (reported as zero) distance.
    """

    __slots__ = ("alphabet",)

    ultrametric = True

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet

    def distance(self, u: Word, v: Word) -> float:
        m = min(len(u), len(v))
        return d2_with_resolution(u[:m], v[:m])[0]

    def coordinates(self, points: Sequence) -> np.ndarray:
        """Row ``k`` is ``len(w), w[0], w[1], ...`` padded with zeros, column-major."""
        width = max((len(w) for w in points), default=0)
        dtype = np.min_scalar_type(max(width, self.alphabet.size - 1))
        # one flat buffer, filled in one pass
        flat = chain.from_iterable((len(w), *w, *(0,) * (width - len(w))) for w in points)
        return np.asfortranarray(np.fromiter(flat, dtype).reshape(len(points), width + 1))

    def distances(self, X: np.ndarray, Q: np.ndarray) -> np.ndarray:
        m = min(X.shape[1], Q.shape[1]) - 1
        # letter k weighs m - k, so the largest differing weight is m minus the
        # first differing letter (0 if none differs: first = m, past every length)
        w = np.arange(m, 0, -1, dtype=np.min_scalar_type(m))[:, None, None]
        differ = X.T[1 : m + 1, None, :] != Q.T[1 : m + 1, :, None]
        first = m - np.maximum.reduce(differ * w, axis=0, initial=0)
        powers = np.ldexp(1.0, -np.arange(m + 1))
        return np.where(first < np.minimum(X[:, 0], Q[:, :1]), powers.take(first), 0.0)


# ---------------------------------------------------------------------------
# the comb space
# ---------------------------------------------------------------------------


class CombSpace(MetricSpace):
    """The planar comb with contraction ``r``: spine, base tooth, and teeth.

    The spine is ``[0, 1/(1-r)] x {0}``; the base tooth is ``{0} x [0, 1]``;
    the word ``i`` of length ``m`` carries a tooth of height ``r**m``
    anchored at ``x_i = sum(i_k * r**(k-1))``.  The metric is the ambient
    Euclidean one.  ``r`` may be an exact scalar (Fraction or quadratic
    irrational).
    """

    def __init__(self, r):
        rf = float(r)
        if not 0.0 < rf < 1.0:
            raise DomainError("comb contraction must lie in (0, 1), got %r" % rf)
        self.r = r

    coordinate_dim = 2

    distance = EuclideanSpace.distance
    distances = EuclideanSpace.distances
    within = EuclideanSpace.within


# ---------------------------------------------------------------------------
# the first Heisenberg group
# ---------------------------------------------------------------------------

HeisenbergPoint = tuple[float, float, float]


def heisenberg_multiply(p: HeisenbergPoint, q: HeisenbergPoint) -> HeisenbergPoint:
    """Group law ``(x,y,t)*(x',y',t') = (x+x', y+y', t+t'+ (xy'-yx')/2)``."""
    x, y, t = p
    x2, y2, t2 = q
    return (x + x2, y + y2, t + t2 + 0.5 * (x * y2 - y * x2))

def heisenberg_inverse(p: HeisenbergPoint) -> HeisenbergPoint:
    x, y, t = p
    return (-x, -y, -t)


def heisenberg_gauge(p: HeisenbergPoint) -> float:
    """Homogeneous gauge ``((x^2+y^2)^2 + t^2) ** (1/4)``.

    The fourth root is taken as two square roots, which the vectorised
    kernel of :class:`HeisenbergSpace` reproduces bit for bit.
    """
    x, y, t = p
    s = x * x + y * y
    return math.sqrt(math.sqrt(s * s + t * t))


def heisenberg_dilate(s: float, p: HeisenbergPoint) -> HeisenbergPoint:
    """The automorphic dilation ``(x, y, t) -> (sx, sy, s^2 t)``."""
    x, y, t = p
    return (s * x, s * y, s * s * t)


class HeisenbergSpace(MetricSpace):
    """First Heisenberg group with the gauge quasi-distance ``||p^{-1} q||``.

    The gauge is homogeneous under the dilations and left-invariant; it is
    comparable to the Carnot-Caratheodory distance, which is all the
    stopping-set and packing machinery needs.
    """

    coordinate_dim = 3  # (x, y, t); the gauge is not the Euclidean distance of these rows

    def distance(self, p: HeisenbergPoint, q: HeisenbergPoint) -> float:
        return heisenberg_gauge(heisenberg_multiply(heisenberg_inverse(p), q))

    @staticmethod
    def _fourth_powers(X: np.ndarray, q) -> np.ndarray:
        """The gauge kernel before its two square roots: ``(a^2+b^2)^2 + c^2``."""
        x2, y2, t2 = q
        x, y, t = X.T
        # heisenberg_multiply(heisenberg_inverse(x), q), then heisenberg_gauge; bit
        # for bit, -x * y2 - -y * x2 is y * x2 - x * y2, a and b only change sign,
        # and the in-place steps only swap the operands of + and *
        a, b, c = x - x2, y - y2, y * x2
        c -= x * y2
        c *= 0.5
        c += t2 - t
        a *= a
        a += np.multiply(b, b, out=b)
        a *= a
        a += np.multiply(c, c, out=c)
        return a

    def distances(self, X: np.ndarray, Q: np.ndarray) -> np.ndarray:
        s = self._fourth_powers(X, Q.T[:, :, None])
        return np.sqrt(np.sqrt(s, out=s), out=s)

    def within(self, X: np.ndarray, q: np.ndarray, r: float) -> np.ndarray:
        return self._fourth_powers(X, q) <= ball_bound(r, 2)
