"""Finite-depth topological pressure and its zeros.

The depth-``n`` pressure of a diameter model is::

    P_n(t) = (1/n) * ( log( sum( diam(i)**t for i in level n ) ) - t * log_scale )

computed in log space throughout.  ``P_n`` is continuous and strictly
decreasing in ``t`` once every level-``n`` diameter is below 1; its zero is
the bisection's, found by a secant search on the bisection's grid.  The zero
of the limiting pressure upper-bounds the Minkowski dimension of the limit
set; for models whose per-level statistics drift (weak control only), the
finite-depth zeros drift too, and ``pressure_zero`` reports a two-depth
stability diagnostic alongside the value.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from .errors import DomainError
from .models import DiameterModel

#: the zeros' bisection width in ``t``
_TOL = 1e-12
_STABILITY_TOL = 1e-6


def pressure_at(model: DiameterModel, t: float, depth: int) -> float:
    """Depth-``depth`` pressure of the model at exponent ``t``.

    The model's ``log_scale`` (``log D`` for a multiplicative model of seed
    diameter ``D``) is divided out, so for multiplicative models the value
    is the true pressure at every depth.
    """
    if t < 0:
        raise DomainError("pressure exponent must be >= 0, got %r" % t)
    if depth < 1:
        raise DomainError("depth must be >= 1")
    return (model.level_log_sum(t, depth) - t * model.log_scale) / depth


def _bisect_zero(f: Callable[[float], float], tol: float) -> float:
    """The zero bisection finds for a continuous strictly decreasing ``f`` with
    ``f(0) >= 0``: the bracket ``f(lo + a*w) > 0 >= f(lo + b*w)`` (NaN is not
    > 0) moves to Illinois secant points on the bisection's grid, so where the
    sign of ``f`` changes once along it (as for a convex ``P_n``) the last cell
    is the bisection's.  Grid midpoints take over where the secant fails or
    would cost over twice the bisection's evaluations.
    """
    flo = f(0.0)
    if flo < 0:
        raise DomainError("pressure is negative already at t = 0")
    if flo == 0.0:
        return 0.0
    lo, hi, fhi = 0.0, 1.0, f(1.0)
    while fhi > 0:
        lo, flo, hi = hi, fhi, 2.0 * hi
        if hi > 2.0**40:
            raise DomainError("no pressure zero at this depth: P(t) stays positive")
        fhi = f(hi)
    w, b = hi - lo, 1
    while w > tol:
        w, b = 0.5 * w, 2 * b
    # an end's secant weight halves when the other end moves twice (Illinois)
    a, side, budget = 0, 0, 2 * (b.bit_length() - 1)
    while b - a > 1:
        step = (b - a) * (flo / (flo - fhi)) if flo > fhi else math.nan
        secant = (b - a - 1).bit_length() < budget and math.isfinite(step)
        k = min(max(a + round(step), a + 1), b - 1) if secant else (a + b) // 2
        budget, fk = budget - 1, f(lo + k * w)
        if fk > 0:
            a, flo, fhi, side = k, fk, (0.5 * fhi if side > 0 else fhi), 1
        else:
            b, fhi, flo, side = k, fk, (0.5 * flo if side < 0 else flo), -1
    return 0.5 * ((lo + a * w) + (lo + b * w))


class PressureZero(NamedTuple):
    """A finite-depth pressure zero with a two-depth stability diagnostic.

    ``drift`` is ``value - reference_value``; when it exceeds
    ``_STABILITY_TOL`` the model's zeros are still moving with depth and
    ``extrapolated`` (the linear Richardson guess ``2*value - reference``)
    hints where they are headed.
    """

    value: float
    depth: int
    reference_value: float
    reference_depth: int

    @property
    def drift(self) -> float:
        return self.value - self.reference_value

    @property
    def stable(self) -> bool:
        return abs(self.drift) <= _STABILITY_TOL

    @property
    def extrapolated(self) -> float:
        return 2.0 * self.value - self.reference_value


def pressure_zero(model: DiameterModel, depth: int) -> PressureZero:
    """Unique zero of the depth-``depth`` pressure, to within ``_TOL`` in t.

    Also solves at half the depth and reports the drift between the two
    zeros; a drifting zero means the finite-depth value has not converged
    (typical for weakly controlled models, where per-level contraction
    rates change with the level).
    """
    value = _bisect_zero(lambda t: pressure_at(model, t, depth), _TOL)
    ref_depth = max(1, depth // 2)
    ref = _bisect_zero(lambda t: pressure_at(model, t, ref_depth), _TOL)
    return PressureZero(value, depth, ref, ref_depth)


def moran_dimension(ratios: Sequence[float]) -> float:
    """The unique ``t >= 0`` with ``sum(r**t) == 1``.

    For similarity maps with these contraction ratios (and separated
    images) this is the similarity dimension.  A single ratio gives 0.
    """
    ratios = [float(r) for r in ratios]
    if not ratios:
        raise DomainError("need at least one ratio")
    if any(not 0.0 < r < 1.0 for r in ratios):
        raise DomainError("ratios must lie in (0, 1): %r" % (ratios,))

    def f(t: float) -> float:
        return sum(r**t for r in ratios) - 1.0

    return _bisect_zero(f, _TOL)


def self_affine_pressure(a0: float, a1: float, b0: float, b1: float, t: float) -> float:
    """Limiting pressure of the two-map axis-aligned rectangle system.

    The rectangles have x-contractions ``a0, a1`` and y-contractions
    ``b0, b1`` with disjoint interiors inside the unit square; the pressure
    is ``max(log(a0**t + a1**t), log(b0**t + b1**t))``.
    """
    _check_feasible(a0, a1, b0, b1)
    if t < 0:
        raise DomainError("pressure exponent must be >= 0")
    return max(math.log(a0**t + a1**t), math.log(b0**t + b1**t))


def self_affine_dimension(a0: float, a1: float, b0: float, b1: float) -> float:
    """Zero of :func:`self_affine_pressure` in ``t``; always in (0, 1].

    The max of two decreasing functions vanishes where the slower one
    does, so the zero is the larger of the two single-row dimensions.
    """
    _check_feasible(a0, a1, b0, b1)
    s = max(moran_dimension([a0, a1]), moran_dimension([b0, b1]))
    if not 0.0 < s <= 1.0:
        raise DomainError("self-affine dimension escaped (0, 1]: %r" % s)
    return s


def _check_feasible(a0, a1, b0, b1) -> None:
    for v in (a0, a1, b0, b1):
        if not 0.0 < v < 1.0:
            raise DomainError("contraction %r outside (0, 1)" % (v,))
    if a0 + a1 > 1.0 or b0 + b1 > 1.0:
        raise DomainError("rectangles must fit disjointly: a0+a1 <= 1 and b0+b1 <= 1")


class PressureCurve(NamedTuple):
    """Sampled map ``t -> P_depth(t)`` for plotting and CSV export."""

    depth: int
    t_values: tuple[float, ...]
    p_values: tuple[float, ...]


def pressure_curve(model: DiameterModel, t_values: Sequence[float], depth: int) -> PressureCurve:
    ts = tuple(float(t) for t in t_values)
    ps = tuple(pressure_at(model, t, depth) for t in ts)
    return PressureCurve(depth, ts, ps)
