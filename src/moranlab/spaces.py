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
points into array rows and ``distances(X, Q)`` takes a block of query rows
in that layout and returns ``D[i, j] = distance(X[j], Q[i])``; one point is
a one-row block, and loops over many points pass blocks of :func:`block_rows`
rows.  The kernel uses the scalar path's operand order and float operations
(squares are products, the gauge's fourth root is two square roots, the
snowflake exponent is libm's ``pow``), so on float coordinates it returns
the scalar values bit for bit.  Exact coordinates enter as ``float(exact)``.
Float rows are column-major, one contiguous array per coordinate, as the
greedy cover reads them (README lists the cover variants measured slower).
Symbol rows stay row-major; their kernel keeps the padded rows' first
differing letter if it lies inside the pair's common length.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .errors import DomainError
from .words import Alphabet, Word, d2


def _delta(a, b) -> float:
    """``float(a - b)`` with exact subtraction when the types allow it."""
    try:
        return float(a - b)
    except TypeError:
        return float(a) - float(b)


def euclidean_distance(p: Sequence, q: Sequence) -> float:
    if len(p) != len(q):
        raise DomainError("points of different dimension: %r vs %r" % (p, q))
    total = 0.0
    for a, b in zip(p, q):
        d = _delta(a, b)
        total += d * d
    return math.sqrt(total)


#: float64 elements per temporary of a block-query loop (64 KiB)
BLOCK_ELEMENTS = 2**13


def block_rows(n_rows: int) -> int:
    """Query rows per kernel call against ``n_rows`` rows."""
    return max(1, BLOCK_ELEMENTS // max(1, n_rows))


def row_minima(space: "MetricSpace", X: np.ndarray, Q: np.ndarray, skip=None) -> np.ndarray:
    """``min(distance(x, q) for x in X)`` (NaN if one is NaN) per query row ``q``
    of ``Q``; query ``i`` passes over row ``skip[i]`` of ``X`` if given."""
    out, step = [np.empty(0)], block_rows(len(X))
    for a in range(0, len(Q), step):
        d = space.distances(X, Q[a : a + step])
        if skip is not None:
            d[np.arange(len(d)), skip[a : a + step]] = np.inf
        out.append(d.min(axis=1))
    return np.concatenate(out)


def _float_rows(points: Sequence, dim: int) -> np.ndarray:
    """``float`` coordinates of ``dim``-dimensional points, one row each, column-major."""
    try:
        return np.array(points, dtype=float, order="F").reshape(len(points), dim)
    except ValueError as exc:
        raise DomainError("points are not all %d-dimensional" % dim) from exc


class MetricSpace:
    """Base class; subclasses implement ``distance`` and the kernel pair
    ``coordinates`` / ``distances``."""

    __slots__ = ()

    #: ultrametric spaces satisfy d(x,z) <= max(d(x,y), d(y,z))
    ultrametric: bool = False
    #: points are tuples of this many numbers, usable as float array rows;
    #: ``None``: points are words of the space's ``alphabet``
    coordinate_dim: int | None = None

    def distance(self, p, q) -> float:
        raise NotImplementedError

    def coordinates(self, points: Sequence) -> np.ndarray:
        """The points as the rows of the array that :meth:`distances` reads."""
        raise NotImplementedError

    def distances(self, X: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """``D[i, j] = distance(X[j], Q[i])`` over rows of :meth:`coordinates`."""
        raise NotImplementedError

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

    def distance(self, p, q) -> float:
        return euclidean_distance(p, q)

    def coordinates(self, points: Sequence) -> np.ndarray:
        return _float_rows(points, self.coordinate_dim)

    def distances(self, X: np.ndarray, Q: np.ndarray) -> np.ndarray:
        if Q.shape[1] != X.shape[1]:
            raise DomainError("query rows of width %d vs rows of %d" % (Q.shape[1], X.shape[1]))
        total = np.zeros((len(Q), len(X)))
        for k in range(X.shape[1]):
            d = X[:, k] - Q[:, k, None]
            total += d * d
        return np.sqrt(total)


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
        return d2(u[:m], v[:m])

    def coordinates(self, points: Sequence) -> np.ndarray:
        """Row ``k`` is ``len(w), w[0], w[1], ...`` padded with zeros."""
        width = max((len(w) for w in points), default=0)
        dtype = np.min_scalar_type(max(width, self.alphabet.size - 1))
        # one flat buffer, filled in one pass
        flat = chain.from_iterable((len(w), *w, *(0,) * (width - len(w))) for w in points)
        return np.fromiter(flat, dtype).reshape(len(points), width + 1)

    def distances(self, X: np.ndarray, Q: np.ndarray) -> np.ndarray:
        m = min(X.shape[1], Q.shape[1]) - 1
        if m == 0:
            return np.zeros((len(Q), len(X)))
        differ = X[:, 1 : m + 1] != Q[:, None, 1 : m + 1]
        first = differ.argmax(axis=2)
        inside = differ.any(axis=2) & (first < np.minimum(X[:, 0], Q[:, :1]))
        return np.where(inside, np.ldexp(1.0, -first), 0.0)


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

    ultrametric = False
    coordinate_dim = 2

    distance = EuclideanSpace.distance
    coordinates = EuclideanSpace.coordinates
    distances = EuclideanSpace.distances


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

    ultrametric = False
    coordinate_dim = 3  # (x, y, t); the gauge is not the Euclidean distance of these rows

    def distance(self, p: HeisenbergPoint, q: HeisenbergPoint) -> float:
        return heisenberg_gauge(heisenberg_multiply(heisenberg_inverse(p), q))

    def coordinates(self, points: Sequence) -> np.ndarray:
        return _float_rows(points, self.coordinate_dim)

    def distances(self, X: np.ndarray, Q: np.ndarray) -> np.ndarray:
        x2, y2, t2 = Q[:, 0, None], Q[:, 1, None], Q[:, 2, None]
        x, y, t = X.T
        # heisenberg_multiply(heisenberg_inverse(x), q), then heisenberg_gauge; bit
        # for bit, -x * y2 - -y * x2 is y * x2 - x * y2 and a, b only change sign
        a, b, c = x - x2, y - y2, (t2 - t) + 0.5 * (y * x2 - x * y2)
        s = np.square(a, out=a) + np.square(b, out=b)
        np.add(np.square(s, out=s), np.square(c, out=c), out=s)
        return np.sqrt(np.sqrt(s, out=s), out=s)
