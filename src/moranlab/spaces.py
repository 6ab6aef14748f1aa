"""Ambient metric spaces: Euclidean, snowflaked, symbolic, comb, Heisenberg.

Each space answers ``distance(x, y)`` for its own point type, knows whether
it is an ultrametric (which changes when two balls of equal radius are
disjoint), and serialises to a small JSON descriptor.  Points are plain
tuples throughout; coordinates may be floats or exact scalars (rationals /
quadratic irrationals), in which case differences are formed exactly before
the final float conversion, so an exact zero stays zero.

Each space also has one vectorised kernel: ``coordinates(points)`` turns
points into array rows and ``distances(X, q)`` returns
``[distance(x, q) for x in X]``.  The kernel uses the scalar path's operand
order and float operations (squares are products, the gauge's fourth root
is two square roots, the snowflake exponent is libm's ``pow``), so on
float coordinates it returns the scalar values bit for bit.  Exact
coordinates enter the array as ``float(exact)``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import repeat
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


def _float_rows(points: Sequence, dim: int) -> np.ndarray:
    """``float`` coordinates of ``dim``-dimensional points, one row each."""
    try:
        return np.array(points, dtype=float).reshape(len(points), dim)
    except ValueError as exc:
        raise DomainError("points are not all %d-dimensional" % dim) from exc


class MetricSpace:
    """Base class; subclasses set ``kind`` and implement ``distance`` and
    the kernel pair ``coordinates`` / ``distances``."""

    kind: str = "abstract"
    #: ultrametric spaces satisfy d(x,z) <= max(d(x,y), d(y,z))
    ultrametric: bool = False
    #: points are fixed-length numeric tuples usable as array rows
    coordinate_dim: int | None = None

    def distance(self, p, q) -> float:
        raise NotImplementedError

    def coordinates(self, points: Sequence) -> np.ndarray:
        """The points as the rows of the array that :meth:`distances` reads."""
        raise NotImplementedError

    def distances(self, X: np.ndarray, q) -> np.ndarray:
        """``[distance(x, q) for x in X]`` over rows of :meth:`coordinates`."""
        raise NotImplementedError

    def metric_bound(self, s: float) -> float:
        """Lipschitz bound in this metric of a map with coordinate-metric bound ``s``."""
        return s

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class EuclideanSpace(MetricSpace):
    dim: int

    kind = "euclidean"

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dimension must be >= 1")

    @property
    def coordinate_dim(self) -> int:
        return self.dim

    def distance(self, p, q) -> float:
        return euclidean_distance(p, q)

    def coordinates(self, points: Sequence) -> np.ndarray:
        return _float_rows(points, self.coordinate_dim)

    def distances(self, X: np.ndarray, q) -> np.ndarray:
        if len(q) != X.shape[1]:
            raise DomainError("points of different dimension: %r vs rows of %d" % (q, X.shape[1]))
        total = np.zeros(len(X))
        for k, c in enumerate(q):
            d = X[:, k] - float(c)
            total += d * d
        return np.sqrt(total)

    def to_json(self) -> dict:
        return {"kind": "euclidean", "dim": self.dim}


@dataclass(frozen=True)
class SnowflakeSpace(MetricSpace):
    """The base metric raised to ``p`` in (0, 1): ``d(x, y) ** p``.

    Snowflaking preserves the metric axioms (concavity of ``t**p`` gives
    the triangle inequality) and turns any metric into one with no
    rectifiable curves; it scales all dimensions by ``1/p``, and a map
    with base-metric Lipschitz bound ``s`` has bound ``s ** p``.
    """

    base: MetricSpace
    p: float

    kind = "snowflake"

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise DomainError("snowflake exponent must lie in (0, 1), got %r" % self.p)

    @property
    def ultrametric(self) -> bool:
        return self.base.ultrametric

    @property
    def coordinate_dim(self) -> int | None:
        return self.base.coordinate_dim

    def distance(self, x, y) -> float:
        return self.base.distance(x, y) ** self.p

    def coordinates(self, points: Sequence) -> np.ndarray:
        return self.base.coordinates(points)

    def distances(self, X: np.ndarray, q) -> np.ndarray:
        # libm's pow per element, as in ``distance``: numpy's vector pow
        # may round differently
        d = self.base.distances(X, q)
        return np.fromiter(map(math.pow, d.tolist(), repeat(self.p)), float, len(d))

    def metric_bound(self, s: float) -> float:
        return self.base.metric_bound(s) ** self.p

    def to_json(self) -> dict:
        return {"kind": "snowflake", "base": self.base.to_json(), "p": self.p}


@dataclass(frozen=True)
class SymbolSpace(MetricSpace):
    """The branch space with the dyadic tree metric.

    Points are finite prefixes of infinite branches.  Two prefixes of
    different declared depth are compared on their common depth; prefixes
    that agree there have unresolved (reported as zero) distance.
    """

    alphabet: Alphabet

    kind = "symbol"
    ultrametric = True

    def distance(self, u: Word, v: Word) -> float:
        m = min(len(u), len(v))
        return d2(u[:m], v[:m])

    def coordinates(self, points: Sequence) -> np.ndarray:
        """Row ``k`` is ``len(w), w[0], w[1], ...`` padded with zeros."""
        width = max((len(w) for w in points), default=0)
        dtype = np.min_scalar_type(max(width, self.alphabet.size - 1))
        X = np.zeros((len(points), width + 1), dtype=dtype)
        for k, w in enumerate(points):
            X[k, 0] = len(w)
            X[k, 1 : len(w) + 1] = w
        return X

    def distances(self, X: np.ndarray, q: Word) -> np.ndarray:
        m = min(X.shape[1] - 1, len(q))
        if m == 0:
            return np.zeros(len(X))
        # compare on the common depth of each row and the query
        differ = (X[:, 1 : m + 1] != np.asarray(q[:m])) & (np.arange(m) < X[:, :1])
        return np.where(differ.any(axis=1), np.ldexp(1.0, -differ.argmax(axis=1)), 0.0)

    def to_json(self) -> dict:
        return {"kind": "symbol", "alphabet": self.alphabet.size}


# ---------------------------------------------------------------------------
# the comb space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CombMembership:
    member: bool
    part: str | None = None  # "spine" | "base-tooth" | "tooth"
    word: Word | None = None


class CombSpace(MetricSpace):
    """The planar comb with contraction ``r``: spine, base tooth, and teeth.

    The spine is ``[0, 1/(1-r)] x {0}``; the base tooth is ``{0} x [0, 1]``;
    the word ``i`` of length ``m`` carries a tooth of height ``r**m``
    anchored at ``x_i = sum(i_k * r**(k-1))``.  The metric is the ambient
    Euclidean one.  ``r`` may be an exact scalar (Fraction or quadratic
    irrational), in which case anchors are computed exactly on request.
    """

    kind = "comb"

    def __init__(self, r):
        rf = float(r)
        if not 0.0 < rf < 1.0:
            raise DomainError("comb contraction must lie in (0, 1), got %r" % rf)
        self.r = r
        self.r_float = rf
        self._anchor_cache: dict[int, list[tuple[float, Word]]] = {}

    ultrametric = False
    coordinate_dim = 2

    @property
    def spine_length(self) -> float:
        return 1.0 / (1.0 - self.r_float)

    distance = EuclideanSpace.distance
    coordinates = EuclideanSpace.coordinates
    distances = EuclideanSpace.distances

    def anchor(self, word: Word) -> float:
        """``x_i = sum(i_k r**(k-1))`` in float."""
        x = 0.0
        for k, s in enumerate(word):
            x += s * self.r_float**k
        return x

    def _anchors(self, length: int) -> list[tuple[float, Word]]:
        if length not in self._anchor_cache:
            items = [(0.0, ())]
            for _ in range(length):
                items = [
                    (x + s * self.r_float ** len(w), w + (s,))
                    for x, w in items
                    for s in (0, 1)
                ]
            out = sorted(items)
            self._anchor_cache[length] = out
        return self._anchor_cache[length]

    def membership(self, q: Sequence[float], depth: int, tol: float = 1e-12) -> CombMembership:
        """Locate ``q`` on the comb, checking teeth down to word length ``depth``."""
        x, y = float(q[0]), float(q[1])
        if abs(y) <= tol and -tol <= x <= self.spine_length + tol:
            return CombMembership(True, "spine", None)
        if abs(x) <= tol and -tol <= y <= 1.0 + tol:
            return CombMembership(True, "base-tooth", None)
        for m in range(1, depth + 1):
            height = self.r_float**m
            if not -tol <= y <= height + tol:
                continue
            anchors = self._anchors(m)
            lo = bisect.bisect_left(anchors, (x - tol, ()))
            for k in range(lo, len(anchors)):
                ax, w = anchors[k]
                if ax > x + tol:
                    break
                if abs(ax - x) <= tol:
                    return CombMembership(True, "tooth", w)
        return CombMembership(False)

    def to_json(self) -> dict:
        from .exactnum import QuadraticNumber

        if isinstance(self.r, QuadraticNumber):
            rj = {
                "sqrt": {
                    "a": [self.r.a.numerator, self.r.a.denominator],
                    "b": [self.r.b.numerator, self.r.b.denominator],
                    "d": self.r.d,
                }
            }
        else:
            rj = float(self.r)
        return {"kind": "comb", "r": rj}


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

    kind = "heisenberg"
    ultrametric = False
    coordinate_dim = None  # triangle inequality holds for the gauge, but
    # coordinates do not embed isometrically in Euclidean space

    def distance(self, p: HeisenbergPoint, q: HeisenbergPoint) -> float:
        return heisenberg_gauge(heisenberg_multiply(heisenberg_inverse(p), q))

    def coordinates(self, points: Sequence) -> np.ndarray:
        return _float_rows(points, 3)

    def distances(self, X: np.ndarray, q: HeisenbergPoint) -> np.ndarray:
        x2, y2, t2 = (float(c) for c in q)
        x, y, t = -X[:, 0], -X[:, 1], -X[:, 2]
        # heisenberg_multiply((x, y, t), q), then heisenberg_gauge
        a, b, c = x + x2, y + y2, t + t2 + 0.5 * (x * y2 - y * x2)
        s = a * a + b * b
        return np.sqrt(np.sqrt(s * s + c * c))

    def to_json(self) -> dict:
        return {"kind": "heisenberg"}


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def space_from_json(data: dict) -> MetricSpace:
    kind = data.get("kind")
    if kind == "euclidean":
        return EuclideanSpace(int(data["dim"]))
    if kind == "snowflake":
        return SnowflakeSpace(space_from_json(data["base"]), float(data["p"]))
    if kind == "symbol":
        return SymbolSpace(Alphabet(int(data["alphabet"])))
    if kind == "comb":
        from .specio import parse_scalar

        return CombSpace(parse_scalar(data["r"]))
    if kind == "heisenberg":
        return HeisenbergSpace()
    raise DomainError("unknown space kind: %r" % (kind,))
