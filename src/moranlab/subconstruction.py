"""Dimension-prescribing subconstructions on Cantor and Carnot targets.

Two builders produce per-level branch counts whose controlled Moran
subconstruction pins the Hausdorff dimension at a prescribed exponent:
a greedy base-3 rule on the ternary Cantor tree and a dyadic rule on
stratified (Carnot) groups (see :mod:`moranlab.stratification` for the
dimension comparison functions).  :func:`verify_cmsc` checks the defining
window

    C^{-1} * diam(X_i)^t  <  sum over descendants at level |i|+n
                              of diam(X_ij)^t  <  C * diam(X_i)^t

exhaustively on the finite tree (strict inequalities).
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError
from .models import DiameterModel, LevelModel
from .stratification import StratificationData, beta_minus
from .systems import CarnotMap
from .words import SubTree, Word, word_at

LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)


# ---------------------------------------------------------------------------
# CMSC window check
# ---------------------------------------------------------------------------


class CmscReport(NamedTuple):
    """Outcome of the window check at exponent ``t`` and constant ``C``.

    ``ratio_min``/``ratio_max`` are the extreme observed values of
    ``sum diam(X_ij)^t / diam(X_i)^t`` with their witnesses ``(i, n)``;
    ``c_witnessed`` is the infimum of constants for which the (strict)
    window would hold; ``holds`` is the verdict at the declared constant.
    """

    t: float
    c_declared: float
    depth: int
    ratio_min: float
    ratio_max: float
    witness_low: tuple[Word, int]
    witness_high: tuple[Word, int]
    holds: bool
    note: str = ""

    @property
    def c_witnessed(self) -> float:
        return max(self.ratio_max, 1.0 / self.ratio_min)


def verify_cmsc(
    model: DiameterModel, subtree: SubTree, t: float, C: float, depth: int
) -> CmscReport:
    """Exhaustively check the subconstruction window on the finite tree.

    Every subtree word ``i`` with ``|i| + n <= depth`` (the root included)
    is paired with each deeper level ``n >= 1`` and the ratio
    ``sum_{ij in subtree} diam(X_ij)^t / diam(X_i)^t`` is recorded; the
    model's :meth:`~moranlab.models.DiameterModel.window_ratios` gives every
    ratio in one call, one row per prefix (one row per ``|i|`` for closed
    forms, where only ``|i|`` matters).  Witnesses are the first extremes in
    ``(|i|, i, n)`` order.
    """
    if depth < 2:
        raise DomainError("window check needs depth >= 2")
    if not 1.0 < C < math.inf:
        raise DomainError("the window constant must be finite and exceed 1, got %r" % C)
    if not math.isfinite(t):
        raise DomainError("the exponent must be finite, got %r" % t)
    if subtree.depth < depth:
        raise DomainError(
            "subtree provides %d levels but depth %d was requested"
            % (subtree.depth, depth)
        )

    ratio_min, ratio_max = math.inf, -math.inf
    wit_low = wit_high = ((), 0)
    # entry m, rows: the length-m subtree words (or one row); columns: n = 1 .. depth - m
    for m, R in enumerate(model.window_ratios(t, depth, subtree)):
        lo, hi = int(R.argmin()), int(R.argmax())
        digits = (*subtree.branch_counts[:m], R.shape[1])  # the row's word i, then n - 1
        if R.flat[lo] < ratio_min:
            *i, n = word_at(lo, digits)
            ratio_min, wit_low = float(R.flat[lo]), (tuple(i), n + 1)
        if R.flat[hi] > ratio_max:
            *i, n = word_at(hi, digits)
            ratio_max, wit_high = float(R.flat[hi]), (tuple(i), n + 1)

    holds = (1.0 / C < ratio_min) and (ratio_max < C)
    return CmscReport(float(t), float(C), depth, ratio_min, ratio_max, wit_low, wit_high, holds)


# ---------------------------------------------------------------------------
# Cantor greedy sequence
# ---------------------------------------------------------------------------


def cantor_branch_sequence(t: float, length: int) -> SubTree:
    """Greedy branch counts on the ternary tree realizing exponent ``t``.

    Starting from ``j_1 = 2``, keep one child when the running product
    ``3^{-t i} * prod_{l<=i} j_l`` exceeds 1 and two children otherwise.
    The greedy choice traps the product in ``[1/2, 2]``, which is exactly
    the window needed for the subconstruction check with ``C = 4``.
    """
    if not 0.0 < t < LOG2_OVER_LOG3:
        raise DomainError("exponent must lie in (0, log2/log3)")
    if length < 1:
        raise DomainError("length must be >= 1")
    tlog3 = t * math.log(3.0)
    counts = [2]
    log_prod = math.log(2.0)
    for i in range(1, length):
        j_next = 1 if log_prod - tlog3 * i > 0.0 else 2
        counts.append(j_next)
        log_prod += math.log(j_next)
    return SubTree(tuple(counts))


# ---------------------------------------------------------------------------
# Carnot sequences
# ---------------------------------------------------------------------------


def _carnot_rule(
    strat: StratificationData, alpha: float, length: int
) -> tuple[Fraction, int, tuple[int, ...]]:
    """``(alpha, l, counts)``: ``alpha`` exact, its active layer ``l``, with
    ``sum_{j<=l} m_j < alpha <= sum_{j<=l+1} m_j``, and the dyadic greedy rule
    ``n_1 = 2`` and

    ``n_{t+1} = 2  iff  prod_{i<=t} n_i^{(l+1) m_{l+1}} < 2^{t (l+1) (alpha - sum_{j<=l} m_j)}``

    compared exactly in log2 (``t`` here counts steps).  At the top
    breakpoint ``alpha = sum m_j`` no thinning is needed: every count is 2.
    """
    a = Fraction(alpha)
    if not 0 < a <= strat.topological_dim:
        raise DomainError("alpha must lie in (0, %d], got %r" % (strat.topological_dim, alpha))
    layer, below = 0, 0
    while a > below + strat.layer_dims[layer]:
        below += strat.layer_dims[layer]
        layer += 1
    if a == strat.topological_dim:
        return a, layer, (2,) * length
    m_next, excess = strat.layer_dims[layer], a - below
    counts, twos = [2], 1
    for step in range(1, length):
        # log2 of both sides, divided by (l+1): exact rational comparison
        counts.append(2 if Fraction(twos * m_next) < step * excess else 1)
        twos += counts[-1] == 2
    return a, layer, tuple(counts)


def carnot_branch_sequence(
    strat: StratificationData, alpha: float, length: int
) -> tuple[int, ...]:
    """Branch halving/keeping sequence for a target Euclidean dimension.

    Values are in ``{1, 2}``: at each level the active layer's dyadic
    grid is either refined in full (2) or thinned (1) so that the level
    products track ``2^{t (l+1) (alpha - ...)}`` within one step.  At the
    top breakpoint ``alpha = sum m_j`` no thinning is needed and the full
    tree (all 2) is returned with a warning note.
    """
    if length < 1:
        raise DomainError("length must be >= 1")
    a, _, counts = _carnot_rule(strat, alpha, length)
    if a == strat.topological_dim:
        warnings.warn("alpha equals the topological dimension: full tree, no thinning")
    return counts


def carnot_cmsc_verify(strat: StratificationData, alpha: float, depth: int) -> CmscReport:
    """Window check for the Carnot subconstruction at gauge scale ``1/2``.

    Builds the level model ``diam = 2^{-n}`` over the anchor alphabet of
    the first ``l+1`` layers, restricts to per-level counts
    ``n_k^{(l+1) m_{l+1}} * 2^{sum_{j<=l} j m_j}``, and verifies the
    window at ``t = beta_minus(alpha)`` with ``C = 2^{2 (l+1) m_{l+1}}``.
    """
    a, layer, seq = _carnot_rule(strat, alpha, depth)
    top = a == strat.topological_dim
    note = "top breakpoint: full tree over all layers, no thinning" if top else ""
    m_next = strat.layer_dims[layer]
    lower_weight = sum(j * m for j, m in enumerate(strat.layer_dims[:layer], start=1))
    alphabet_size = 2 ** (lower_weight + (layer + 1) * m_next)
    counts = tuple(n ** ((layer + 1) * m_next) * 2**lower_weight for n in seq)
    model = LevelModel(lambda n: 0.5, alphabet_size)
    t = beta_minus(strat, float(a))
    C = float(2 ** (2 * (layer + 1) * m_next))
    return verify_cmsc(model, SubTree(counts), t, C, depth)._replace(note=note)


# ---------------------------------------------------------------------------
# Heisenberg maps
# ---------------------------------------------------------------------------


def heisenberg_F_map(anchor) -> CarnotMap:
    """Gauge-halving map anchored at a dyadic grid point.

    ``anchor`` lists one integer tuple per layer: the horizontal pair
    from ``{0, 1}^2`` and the vertical coordinate from ``{0, ..., 3}``.
    The map ``p -> a * delta_{1/2}(a^{-1} p)`` fixes the anchor point and
    contracts the gauge metric by exactly one half.
    """
    layers = [tuple(layer) for layer in anchor]
    if len(layers) != 2 or len(layers[0]) != 2 or len(layers[1]) != 1:
        raise DomainError("anchor must be [(x, y), (t,)] for the Heisenberg group")
    for j, layer in enumerate(layers, start=1):
        for c in layer:
            if not 0 <= int(c) < 2**j:
                raise DomainError(
                    "layer-%d coordinate %r outside {0, ..., %d}" % (j, c, 2**j - 1)
                )
    x, y = layers[0]
    (tt,) = layers[1]
    return CarnotMap((float(x), float(y), float(tt)))

