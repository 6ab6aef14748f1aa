"""Ambient metric spaces: Euclidean, snowflaked, symbolic, comb, Heisenberg.

Each space answers ``distance(x, y)`` for its own point type, knows whether
it is an ultrametric (which changes when two balls of equal radius are
disjoint), and serialises to a small JSON descriptor.  Points are plain
tuples throughout; coordinates may be floats or exact scalars (rationals /
quadratic irrationals), in which case differences are formed exactly before
the final float conversion, so an exact zero stays zero.

Each space also has one vectorised kernel: ``coordinates(points)`` turns
points into array rows and ``distances(X, Q)`` takes a block of query rows
in that layout and returns ``D[i, j] = distance(X[j], Q[i])``; one point is
a one-row block, and loops over many points pass blocks of :func:`block_rows`
rows.  The kernel uses the scalar path's operand order and float operations
(squares are products, the gauge's fourth root is two square roots, the
snowflake exponent is libm's ``pow``), so on float coordinates it returns
the scalar values bit for bit.  Exact coordinates enter as ``float(exact)``.
"""

from __future__ import annotations

import bisect
import math
from itertools import product, repeat
from typing import NamedTuple, Sequence

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
    """``float`` coordinates of ``dim``-dimensional points, one row each."""
    try:
        return np.array(points, dtype=float).reshape(len(points), dim)
    except ValueError as exc:
        raise DomainError("points are not all %d-dimensional" % dim) from exc


class MetricSpace:
    """Base class; subclasses implement ``distance``, ``to_json`` and the
    kernel pair ``coordinates`` / ``distances``."""

    __slots__ = ()

    #: ultrametric spaces satisfy d(x,z) <= max(d(x,y), d(y,z))
    ultrametric: bool = False
    #: points are fixed-length numeric tuples usable as array rows
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

    def to_json(self) -> dict:
        raise NotImplementedError


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

    def to_json(self) -> dict:
        return {"kind": "euclidean", "dim": self.dim}


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

    def to_json(self) -> dict:
        return {"kind": "snowflake", "base": self.base.to_json(), "p": self.p}


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
        X = np.zeros((len(points), width + 1), dtype=dtype)
        for k, w in enumerate(points):
            X[k, 0] = len(w)
            X[k, 1 : len(w) + 1] = w
        return X

    def distances(self, X: np.ndarray, Q: np.ndarray) -> np.ndarray:
        m = min(X.shape[1], Q.shape[1]) - 1
        if m == 0:
            return np.zeros((len(Q), len(X)))
        # compare each pair on the common depth of its two rows
        k = np.arange(m)
        differ = (X[:, 1 : m + 1] != Q[:, None, 1 : m + 1]) & (k < X[:, :1]) & (k < Q[:, None, :1])
        return np.where(differ.any(axis=2), np.ldexp(1.0, -differ.argmax(axis=2)), 0.0)

    def to_json(self) -> dict:
        return {"kind": "symbol", "alphabet": self.alphabet.size}


# ---------------------------------------------------------------------------
# the comb space
# ---------------------------------------------------------------------------


class CombMembership(NamedTuple):
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
            words = product((0, 1), repeat=length)
            self._anchor_cache[length] = sorted((self.anchor(w), w) for w in words)
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
            for ax, w in anchors[lo:]:
                if ax > x + tol:
                    break
                if abs(ax - x) <= tol:
                    return CombMembership(True, "tooth", w)
        return CombMembership(False)

    def to_json(self) -> dict:
        from .exactnum import QuadraticNumber
        from .specio import scalar_to_json

        r = scalar_to_json(self.r) if isinstance(self.r, QuadraticNumber) else float(self.r)
        return {"kind": "comb", "r": r}


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
    coordinate_dim = None  # triangle inequality holds for the gauge, but
    # coordinates do not embed isometrically in Euclidean space

    def distance(self, p: HeisenbergPoint, q: HeisenbergPoint) -> float:
        return heisenberg_gauge(heisenberg_multiply(heisenberg_inverse(p), q))

    def coordinates(self, points: Sequence) -> np.ndarray:
        return _float_rows(points, 3)

    def distances(self, X: np.ndarray, Q: np.ndarray) -> np.ndarray:
        x2, y2, t2 = Q[:, 0, None], Q[:, 1, None], Q[:, 2, None]
        x, y, t = X.T
        # heisenberg_multiply(heisenberg_inverse(x), q), then heisenberg_gauge; bit
        # for bit, -x * y2 - -y * x2 is y * x2 - x * y2 and a, b only change sign
        a, b, c = x - x2, y - y2, (t2 - t) + 0.5 * (y * x2 - x * y2)
        s = np.square(a, out=a) + np.square(b, out=b)
        np.add(np.square(s, out=s), np.square(c, out=c), out=s)
        return np.sqrt(np.sqrt(s, out=s), out=s)

    def to_json(self) -> dict:
        return {"kind": "heisenberg"}


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def space_from_json(data: dict) -> MetricSpace:
    if not isinstance(data, dict):
        raise DomainError("a space must be a JSON object, got %r" % (data,))
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
