"""Stratified (Carnot) groups: layer dimensions and the comparison functions
:func:`beta_minus` / :func:`beta_plus` between Euclidean and gauge dimensions.

Needs neither numpy nor the contraction systems, so ``beta`` loads nothing else.
"""

from .errors import DomainError


class StratificationData:
    """Layer dimensions ``(m_1, ..., m_s)`` of a stratified group."""

    __slots__ = ("layer_dims",)

    def __init__(self, layer_dims: tuple[int, ...]):
        if not layer_dims:
            raise DomainError("need at least one layer")
        if any(m < 1 for m in layer_dims):
            raise DomainError("layer dimensions must be positive integers")
        self.layer_dims = tuple(int(m) for m in layer_dims)

    @property
    def topological_dim(self) -> int:
        return sum(self.layer_dims)

    @property
    def homogeneous_dim(self) -> int:
        """``Q = sum_j j * m_j``: the gauge dimension of the whole group."""
        return sum(j * m for j, m in enumerate(self.layer_dims, start=1))


HEISENBERG = StratificationData((2, 1))


def beta_minus(strat: StratificationData, alpha: float) -> float:
    """Lower dimension comparison function.

    Piecewise linear: ``alpha`` Euclidean dimensions are filled into the
    layers starting from the lightest weight (layer ``j`` costs ``j`` per
    unit), so it is the cheapest gauge dimension compatible with the
    Euclidean one.  ``beta_minus(N) = Q`` at the topological dimension N.
    """
    return _beta_fill(strat, alpha, reverse=False)


def beta_plus(strat: StratificationData, alpha: float) -> float:
    """Upper dimension comparison function (fill heaviest layers first)."""
    return _beta_fill(strat, alpha, reverse=True)


def _beta_fill(strat: StratificationData, alpha: float, reverse: bool) -> float:
    a = float(alpha)
    if not 0.0 < a <= strat.topological_dim:
        raise DomainError(
            "alpha must lie in (0, %d], got %r" % (strat.topological_dim, alpha)
        )
    layers = list(enumerate(strat.layer_dims, start=1))
    if reverse:
        layers.reverse()
    total = 0.0
    remaining = a
    for weight, cap in layers:
        take = min(remaining, cap)
        total += weight * take
        remaining -= take
        if remaining <= 0.0:
            break
    return total
