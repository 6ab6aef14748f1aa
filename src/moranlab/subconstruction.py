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

import numpy as np

from .errors import DomainError
from .models import DiameterModel, LevelModel
from .stratification import StratificationData, beta_minus
from .systems import CarnotMap
from .words import SubTree, Word, word_str

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

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "C": self.c_declared,
            "depth": self.depth,
            "holds": self.holds,
            "c_witnessed": self.c_witnessed,
            "ratio_min": self.ratio_min,
            "ratio_max": self.ratio_max,
            "witness_low": {"word": word_str(self.witness_low[0]), "n": self.witness_low[1]},
            "witness_high": {"word": word_str(self.witness_high[0]), "n": self.witness_high[1]},
            "note": self.note,
        }


def verify_cmsc(
    model: DiameterModel, subtree: SubTree, t: float, C: float, depth: int, note: str = ""
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
    subtree.check_alphabet(model.alphabet)

    ratio_min, ratio_max = math.inf, -math.inf
    wit_low = wit_high = ((), 0)
    # entry m, rows: the length-m subtree words (or one row); columns: n = 1 .. depth - m
    for m, R in enumerate(model.window_ratios(t, depth, subtree)):
        lo, hi = int(R.argmin()), int(R.argmax())
        counts = subtree.branch_counts[:m]
        if R.flat[lo] < ratio_min:
            ratio_min, wit_low = float(R.flat[lo]), _window_witness(lo, R, counts)
        if R.flat[hi] > ratio_max:
            ratio_max, wit_high = float(R.flat[hi]), _window_witness(hi, R, counts)

    holds = (1.0 / C < ratio_min) and (ratio_max < C)
    return CmscReport(
        float(t), float(C), depth, ratio_min, ratio_max, wit_low, wit_high, holds, note
    )


def _window_witness(k: int, R: np.ndarray, prefix_counts: tuple[int, ...]) -> tuple[Word, int]:
    """``(i, n)`` of the flat index ``k`` into the window ratios ``R``.

    Row ``r`` of ``R`` is the ``r``-th word with ``i_j < prefix_counts[j]``
    in lexicographic order, column ``c`` the suffix length ``n = c + 1``.
    """
    row, col = divmod(k, R.shape[1])
    return tuple(int(s) for s in np.unravel_index(row, prefix_counts)), col + 1


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


def _active_layer(strat: StratificationData, alpha: Fraction) -> int:
    """Index ``l`` with ``sum_{j<=l} m_j < alpha <= sum_{j<=l+1} m_j``."""
    cum = 0
    for l, m in enumerate(strat.layer_dims):
        if cum < alpha <= cum + m:
            return l
        cum += m
    raise DomainError("alpha %s outside (0, %d]" % (alpha, strat.topological_dim))


def _carnot_rule_sequence(
    strat: StratificationData, alpha: Fraction, length: int, layer: int
) -> tuple[int, ...]:
    """Raw dyadic greedy rule: ``n_1 = 2`` and

    ``n_{t+1} = 2  iff  prod_{i<=t} n_i^{(l+1) m_{l+1}} < 2^{t (l+1) (alpha - sum_{j<=l} m_j)}``

    compared exactly in log2 (``t`` here counts steps).
    """
    m_next = strat.layer_dims[layer]
    excess = alpha - sum(strat.layer_dims[:layer])
    counts = [2]
    twos = 1
    for step in range(1, length):
        # log2 of both sides, divided by (l+1): exact rational comparison
        if Fraction(twos * m_next) < step * excess:
            counts.append(2)
            twos += 1
        else:
            counts.append(1)
    return tuple(counts)


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
    a = Fraction(alpha)
    if not 0 < a <= strat.topological_dim:
        raise DomainError(
            "alpha must lie in (0, %d], got %r" % (strat.topological_dim, alpha)
        )
    if a == strat.topological_dim:
        warnings.warn(
            "alpha equals the topological dimension: full tree, no thinning"
        )
        return (2,) * length
    layer = _active_layer(strat, a)
    return _carnot_rule_sequence(strat, a, length, layer)


def carnot_cmsc_verify(strat: StratificationData, alpha: float, depth: int) -> CmscReport:
    """Window check for the Carnot subconstruction at gauge scale ``1/2``.

    Builds the level model ``diam = 2^{-n}`` over the anchor alphabet of
    the first ``l+1`` layers, restricts to per-level counts
    ``n_k^{(l+1) m_{l+1}} * 2^{sum_{j<=l} j m_j}``, and verifies the
    window at ``t = beta_minus(alpha)`` with ``C = 2^{2 (l+1) m_{l+1}}``.
    """
    a = Fraction(alpha)
    if not 0 < a <= strat.topological_dim:
        raise DomainError(
            "alpha must lie in (0, %d], got %r" % (strat.topological_dim, alpha)
        )
    note = ""
    if a == strat.topological_dim:
        layer = strat.steps - 1
        seq = (2,) * depth
        note = "top breakpoint: full tree over all layers, no thinning"
    else:
        layer = _active_layer(strat, a)
        seq = _carnot_rule_sequence(strat, a, depth, layer)
    m_next = strat.layer_dims[layer]
    lower_weight = sum(
        j * m for j, m in enumerate(strat.layer_dims[:layer], start=1)
    )
    alphabet_size = 2 ** (lower_weight + (layer + 1) * m_next)
    counts = tuple(n ** ((layer + 1) * m_next) * 2**lower_weight for n in seq)
    model = LevelModel.from_level_ratios(lambda n: 0.5, alphabet_size)
    t = beta_minus(strat, float(a))
    C = float(2 ** (2 * (layer + 1) * m_next))
    return verify_cmsc(model, SubTree(counts), t, C, depth, note=note)


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

