"""Diameter models for Moran constructions and their axiom validators.

A *diameter model* assigns a positive diameter to every finite word; it is
the combinatorial skeleton of a Moran construction, with the geometry
abstracted away.  Three shapes cover everything shipped here:

* multiplicative -- ``diam(i) = seed * prod(ratio[i_k])`` (self-similar);
* level          -- ``diam(i)`` depends only on ``len(i)``;
* general        -- an arbitrary word-to-diameter function.

The validators fit the smallest witnessed constants for the nesting/control
axioms up to a finite depth.  Witnessed constants are exactly that: minimal
over the checked range, not certified global bounds.  A constant whose fit
keeps growing from one depth to the next is reported as a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .words import Alphabet, SubTree, Word, word_str, _check_enum, stopping_set

# Fitted constants that grow by more than this factor between consecutive
# depths are flagged as diverging (axiom violated rather than held).
_DIVERGENCE_FACTOR = 1.5


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


class DiameterModel:
    """Base class: word-indexed diameters with aggregate helpers.

    Subclasses must set ``alphabet``, ``seed_diameter`` and ``kind`` and
    implement ``log_diam``.  ``diam`` and the level aggregates have generic
    (enumerating) fallbacks that structured subclasses override with exact
    closed forms.
    """

    alphabet: Alphabet
    seed_diameter: float
    kind: str = "general"
    #: optional geometric nesting check (set by system-induced models)
    containment_check: Optional[Callable[[int], tuple[bool, str]]] = None

    # -- per-word values ---------------------------------------------------

    def log_diam(self, word: Word) -> float:
        raise NotImplementedError

    def diam(self, word: Word) -> float:
        return math.exp(self.log_diam(word))

    # -- level aggregates ----------------------------------------------------

    def _level_log_diams(self, n: int) -> np.ndarray:
        """Log-diameters of every level-``n`` word, lexicographic order."""
        _check_enum(self.alphabet.size**n, "level %d of a general model" % n)
        cache = getattr(self, "_ld_cache", None)
        if cache is None:
            cache = {}
            self._ld_cache = cache
        if n not in cache:
            cache[n] = np.array([self.log_diam(w) for w in self.alphabet.words(n)])
        return cache[n]

    def level_log_sum(self, t: float, n: int, subtree: SubTree | None = None) -> float:
        """``log(sum(diam(i)**t for i in level n))``, subtree-restricted if given."""
        if subtree is None:
            vals = t * self._level_log_diams(n)
            m = float(np.max(vals))
            return m + math.log(float(np.sum(np.exp(vals - m))))
        subtree.check_alphabet(self.alphabet)
        vals = [t * self.log_diam(w) for w in subtree.words(n)]
        m = max(vals)
        return m + math.log(sum(math.exp(v - m) for v in vals))

    def level_extremes(self, n: int) -> tuple[float, float]:
        """(min, max) diameter over level ``n``."""
        ld = self._level_log_diams(n)
        return math.exp(float(np.min(ld))), math.exp(float(np.max(ld)))


class MultiplicativeModel(DiameterModel):
    """``diam(i) = seed * ratio[i_1] * ... * ratio[i_n]``."""

    kind = "multiplicative"

    def __init__(self, ratios: Sequence[float], seed_diameter: float = 1.0):
        ratios = tuple(float(r) for r in ratios)
        if len(ratios) < 2:
            raise DomainError("need at least two contraction ratios")
        if any(not 0.0 < r < 1.0 for r in ratios):
            raise DomainError("ratios must lie in (0, 1): %r" % (ratios,))
        if seed_diameter <= 0:
            raise DomainError("seed diameter must be positive")
        self.ratios = ratios
        self.log_ratios = tuple(math.log(r) for r in ratios)
        self.seed_diameter = float(seed_diameter)
        self.alphabet = Alphabet(len(ratios))

    def log_diam(self, word: Word) -> float:
        return math.log(self.seed_diameter) + sum(self.log_ratios[s] for s in word)

    def diam(self, word: Word) -> float:
        d = self.seed_diameter
        for s in word:
            d *= self.ratios[s]
        return d

    def _branch_log_sum(self, t: float, b: int) -> float:
        return math.log(sum(r**t for r in self.ratios[:b]))

    def level_log_sum(self, t: float, n: int, subtree: SubTree | None = None) -> float:
        out = t * math.log(self.seed_diameter)
        for k in range(1, n + 1):
            b = self.alphabet.size if subtree is None else subtree.branch(k)
            if subtree is not None:
                subtree.check_alphabet(self.alphabet)
            out += self._branch_log_sum(t, b)
        return out

    def suffix_log_sum(self, t: float, m: int, n: int, subtree: SubTree | None = None) -> float:
        """``log(sum((diam(ij)/diam(i))**t))`` over allowed length-``n`` suffixes.

        Independent of the prefix ``i`` (only its length ``m`` matters).
        """
        out = 0.0
        for k in range(m + 1, m + n + 1):
            b = self.alphabet.size if subtree is None else subtree.branch(k)
            out += self._branch_log_sum(t, b)
        return out

    def level_extremes(self, n: int) -> tuple[float, float]:
        return (
            self.seed_diameter * min(self.ratios) ** n,
            self.seed_diameter * max(self.ratios) ** n,
        )


class LevelModel(DiameterModel):
    """Diameter depends only on the word length."""

    kind = "level"

    def __init__(
        self,
        level_log_diam: Callable[[int], float],
        branches: int,
        seed_diameter: float = 1.0,
    ):
        if seed_diameter <= 0:
            raise DomainError("seed diameter must be positive")
        self._level_log_diam = level_log_diam
        self.seed_diameter = float(seed_diameter)
        self.alphabet = Alphabet(branches)

    @classmethod
    def from_level_ratios(
        cls, ratio: Callable[[int], float], branches: int, seed_diameter: float = 1.0
    ) -> "LevelModel":
        """Model with ``diam(level n) = seed * ratio(1) * ... * ratio(n)``."""
        cache = [math.log(seed_diameter)]

        def lld(n: int) -> float:
            while len(cache) <= n:
                k = len(cache)
                rho = ratio(k)
                if rho <= 0:
                    raise DomainError("level ratio at level %d must be positive" % k)
                cache.append(cache[-1] + math.log(rho))
            return cache[n]

        return cls(lld, branches, seed_diameter)

    def level_log_diam(self, n: int) -> float:
        if n == 0:
            return math.log(self.seed_diameter)
        return self._level_log_diam(n)

    def log_diam(self, word: Word) -> float:
        return self.level_log_diam(len(word))

    def level_log_sum(self, t: float, n: int, subtree: SubTree | None = None) -> float:
        if subtree is None:
            count = self.alphabet.size**n
        else:
            subtree.check_alphabet(self.alphabet)
            count = subtree.count(n)
        return math.log(count) + t * self.level_log_diam(n)

    def suffix_log_sum(self, t: float, m: int, n: int, subtree: SubTree | None = None) -> float:
        count = 1
        for k in range(m + 1, m + n + 1):
            count *= self.alphabet.size if subtree is None else subtree.branch(k)
        return math.log(count) + t * (self.level_log_diam(m + n) - self.level_log_diam(m))

    def level_extremes(self, n: int) -> tuple[float, float]:
        d = math.exp(self.level_log_diam(n))
        return d, d


class GeneralModel(DiameterModel):
    """Arbitrary word-to-diameter function (enumerating aggregates)."""

    kind = "general"

    def __init__(
        self,
        log_diam_fn: Callable[[Word], float],
        alphabet: Alphabet,
        seed_diameter: float = 1.0,
    ):
        if seed_diameter <= 0:
            raise DomainError("seed diameter must be positive")
        self._log_diam_fn = log_diam_fn
        self.alphabet = alphabet
        self.seed_diameter = float(seed_diameter)

    def log_diam(self, word: Word) -> float:
        if len(word) == 0:
            return math.log(self.seed_diameter)
        return self._log_diam_fn(word)


class RectangleModel(DiameterModel):
    """Axis-aligned affine rectangles: ``diam = hypot(prod a, prod b)``.

    The two coordinate contractions multiply independently along the word,
    and the piece diameter is the diagonal of the resulting rectangle.
    """

    kind = "rectangle"

    def __init__(self, a: Sequence[float], b: Sequence[float]):
        if len(a) != len(b) or len(a) < 2:
            raise DomainError("need matching contraction lists of length >= 2")
        if any(not 0 < v < 1 for v in tuple(a) + tuple(b)):
            raise DomainError("contractions must lie in (0, 1)")
        self.a = tuple(float(v) for v in a)
        self.b = tuple(float(v) for v in b)
        self.alphabet = Alphabet(len(a))
        self.seed_diameter = math.hypot(1.0, 1.0)
        self._la = np.log(self.a)
        self._lb = np.log(self.b)
        self._levels: list[tuple[np.ndarray, np.ndarray]] = [
            (np.zeros(1), np.zeros(1))
        ]

    def _level(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        _check_enum(self.alphabet.size**n, "level %d of a rectangle model" % n)
        while len(self._levels) <= n:
            la, lb = self._levels[-1]
            self._levels.append(
                ((la[:, None] + self._la).ravel(), (lb[:, None] + self._lb).ravel())
            )
        return self._levels[n]

    def log_diam(self, word: Word) -> float:
        la = sum(self._la[s] for s in word)
        lb = sum(self._lb[s] for s in word)
        return 0.5 * np.logaddexp(2 * la, 2 * lb)

    def _level_log_diams(self, n: int) -> np.ndarray:
        la, lb = self._level(n)
        return 0.5 * np.logaddexp(2 * la, 2 * lb)

    def level_log_sum(self, t: float, n: int, subtree: SubTree | None = None) -> float:
        if subtree is not None:
            return super().level_log_sum(t, n, subtree)
        vals = t * self._level_log_diams(n)
        m = float(np.max(vals))
        return m + math.log(float(np.sum(np.exp(vals - m))))


# ---------------------------------------------------------------------------
# axiom reports
# ---------------------------------------------------------------------------

HOLDS = "holds"
VIOLATED = "violated"
NOT_CHECKABLE = "not-checkable"


@dataclass
class AxiomCheck:
    axiom: str
    status: str
    constant: float | None = None
    witness: Word | None = None
    stability: float | None = None
    note: str = ""

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "status": self.status,
            "constant": self.constant,
            "witness": None if self.witness is None else list(self.witness),
            "stability": self.stability,
            "note": self.note,
        }


@dataclass
class AxiomReport:
    scheme: str
    depth: int
    checks: list[AxiomCheck] = field(default_factory=list)
    constant: float | None = None

    @property
    def passed(self) -> bool:
        return all(c.status != VIOLATED for c in self.checks)

    def check(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme,
            "depth": self.depth,
            "passed": self.passed,
            "constant": self.constant,
            "checks": [c.to_json() for c in self.checks],
        }


# -- ratio scans -------------------------------------------------------------


def _split_ratio_extremes(model: DiameterModel, depth: int):
    """Extremes of ``diam(ij) / (diam(i) diam(j))`` over split words.

    Returns ``(lo, hi, witness_lo, witness_hi)`` over all words of length
    2..depth and all split points, or ``None`` when depth < 2.
    """
    if depth < 2:
        return None
    if model.kind == "multiplicative":
        v = 1.0 / model.seed_diameter
        w = (0, 0)
        return v, v, w, w
    if model.kind == "level":
        lo, hi = math.inf, -math.inf
        wlo = whi = None
        lld = model.level_log_diam
        for total in range(2, depth + 1):
            for m in range(1, total):
                r = math.exp(lld(total) - lld(m) - lld(total - m))
                if r < lo:
                    lo, wlo = r, (0,) * total
                if r > hi:
                    hi, whi = r, (0,) * total
        return lo, hi, wlo, whi
    lo, hi = math.inf, -math.inf
    wlo = whi = None
    for total in range(2, depth + 1):
        for w in model.alphabet.words(total):
            lw = model.log_diam(w)
            for m in range(1, total):
                r = math.exp(lw - model.log_diam(w[:m]) - model.log_diam(w[m:]))
                if r < lo:
                    lo, wlo = r, w
                if r > hi:
                    hi, whi = r, w
    return lo, hi, wlo, whi


def _child_ratio_min(model: DiameterModel, depth: int):
    """Minimum of ``diam(i) / diam(parent(i))`` up to ``depth`` with witness."""
    if model.kind == "multiplicative":
        s = min(range(model.alphabet.size), key=lambda i: model.ratios[i])
        return model.ratios[s], (s,)
    if model.kind == "level":
        lld = model.level_log_diam
        best, wit = math.inf, None
        for n in range(1, depth + 1):
            r = math.exp(lld(n) - lld(n - 1))
            if r < best:
                best, wit = r, (0,) * n
        return best, wit
    best, wit = math.inf, None
    for w in model.alphabet.words_up_to(depth):
        r = math.exp(model.log_diam(w) - model.log_diam(w[:-1]))
        if r < best:
            best, wit = r, w
    return best, wit


def _stability(fit_now: float, fit_prev: float) -> float:
    if fit_prev <= 0:
        return math.inf
    return fit_now / fit_prev


def _w1_check(model: DiameterModel, depth: int) -> AxiomCheck:
    if model.containment_check is None:
        return AxiomCheck(
            "W1",
            NOT_CHECKABLE,
            note="nesting needs backing geometry; diameter-only models cannot witness it",
        )
    ok, note = model.containment_check(depth)
    return AxiomCheck("W1", HOLDS if ok else VIOLATED, note=note)


def _w2_check(model: DiameterModel, depth: int, D: float) -> AxiomCheck:
    for n in range(1, depth + 1):
        _, hi = model.level_extremes(n)
        if hi < 1.0 / D:
            return AxiomCheck(
                "W2",
                HOLDS,
                constant=float(n),
                note="level %d has max diameter %.6g < 1/D = %.6g" % (n, hi, 1.0 / D),
            )
    return AxiomCheck(
        "W2",
        VIOLATED,
        note="no level up to depth %d drops below 1/D = %.6g for fitted D" % (depth, 1.0 / D),
    )


def _w3_check(model: DiameterModel, depth: int) -> AxiomCheck:
    ext = _split_ratio_extremes(model, depth)
    if ext is None:
        return AxiomCheck("W3", NOT_CHECKABLE, note="depth < 2 exposes no splits")
    _, hi, _, whi = ext
    prev = _split_ratio_extremes(model, depth - 1) if depth >= 3 else ext
    fit = max(1.0, hi)
    fit_prev = max(1.0, prev[1])
    stab = _stability(fit, fit_prev)
    status = HOLDS if stab <= _DIVERGENCE_FACTOR else VIOLATED
    note = "" if status == HOLDS else "fitted constant grew by %.3g between depths" % stab
    return AxiomCheck("W3", status, constant=fit, witness=whi, stability=stab, note=note)


def _w4_check(model: DiameterModel, depth: int) -> AxiomCheck:
    lo, wit = _child_ratio_min(model, depth)
    lo_prev, _ = _child_ratio_min(model, depth - 1) if depth >= 2 else (lo, wit)
    fit = max(1.0, 1.0 / lo)
    fit_prev = max(1.0, 1.0 / lo_prev)
    stab = _stability(fit, fit_prev)
    status = HOLDS if stab <= _DIVERGENCE_FACTOR else VIOLATED
    note = "minimal witnessed child/parent ratio %.6g" % lo
    if status == VIOLATED:
        note += "; fitted constant grew by %.3g between depths (diverging)" % stab
    return AxiomCheck("W4", status, constant=fit, witness=wit, stability=stab, note=note)


def validate_wcmc(model: DiameterModel, depth: int) -> AxiomReport:
    """Fit and check the weak control axioms W1-W4 up to ``depth``.

    W3 fits the smallest ``D`` with ``diam(ij) <= D diam(i) diam(j)``, W4
    the smallest ``D`` with ``diam(i) >= diam(parent) / D``; W2 then asks
    for a level whose maximal diameter is below ``1/D`` for the combined
    fit.  Constants witnessed at this depth only.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    report = AxiomReport("wcmc", depth)
    report.checks.append(_w1_check(model, depth))
    w3 = _w3_check(model, depth)
    w4 = _w4_check(model, depth)
    D = max(1.0, w3.constant or 1.0, w4.constant or 1.0)
    report.checks.append(_w2_check(model, depth, D))
    report.checks.extend([w3, w4])
    report.constant = D
    return report


def validate_cmc(model: DiameterModel, depth: int) -> AxiomReport:
    """Fit and check the two-sided control axiom C1 up to ``depth``.

    C1 bounds ``diam(ij) / (diam(i) diam(j))`` within ``[1/D, D]``; it is
    strictly stronger than W3+W4 over the same range.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    report = AxiomReport("cmc", depth)
    report.checks.append(_w1_check(model, depth))
    ext = _split_ratio_extremes(model, depth)
    if ext is None:
        c1 = AxiomCheck("C1", NOT_CHECKABLE, note="depth < 2 exposes no splits")
        D = 1.0
    else:
        lo, hi, wlo, whi = ext
        fit = max(1.0, hi, 1.0 / lo)
        if depth >= 3:
            plo, phi, _, _ = _split_ratio_extremes(model, depth - 1)
            fit_prev = max(1.0, phi, 1.0 / plo)
        else:
            fit_prev = fit
        stab = _stability(fit, fit_prev)
        status = HOLDS if stab <= _DIVERGENCE_FACTOR else VIOLATED
        wit = wlo if (1.0 / lo) >= hi else whi
        note = "two-sided split ratio within [%.6g, %.6g]" % (lo, hi)
        if status == VIOLATED:
            note += "; fitted constant grew by %.3g between depths (diverging)" % stab
        c1 = AxiomCheck("C1", status, constant=fit, witness=wit, stability=stab, note=note)
        D = fit
    report.checks.append(_w2_check(model, depth, D))
    report.checks.append(c1)
    report.constant = D
    return report


# ---------------------------------------------------------------------------
# geometric decay fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    """Witnessed constants for ``diam(i) <= c * rho**len(i)`` up to a depth."""

    c: float | None
    rho: float | None
    conclusive: bool
    depth: int


def decay_constants(model: DiameterModel, depth: int) -> DecayFit:
    """Fit ``(c, rho)`` with ``diam(i) <= c * rho**len(i)`` for checked words.

    ``rho`` is the largest level-wise ``(max diameter)**(1/n)``; if that is
    not below 1 within ``depth`` the fit is inconclusive.  The fit is
    witnessed on levels 1..depth only.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    rho = 0.0
    for n in range(1, depth + 1):
        _, hi = model.level_extremes(n)
        rho = max(rho, hi ** (1.0 / n))
    if rho >= 1.0:
        return DecayFit(None, None, False, depth)
    c = 0.0
    for n in range(1, depth + 1):
        _, hi = model.level_extremes(n)
        c = max(c, hi / rho**n)
    return DecayFit(c, rho, True, depth)


# ---------------------------------------------------------------------------
# tractability probe
# ---------------------------------------------------------------------------


@dataclass
class TractabilityReport:
    """Witnessed constant for ``dist(X_hi, X_hj) <= C diam(X_h) r``.

    ``constant`` is a lower bound for the true constant: distances between
    pieces are estimated from finitely many sample points, and only the
    listed prefixes and radii were probed.
    """

    constant: float
    entries: list[dict] = field(default_factory=list)
    skipped_radii: list[tuple[float, str]] = field(default_factory=list)
    lower_bound: bool = True

    def to_json(self) -> dict:
        return {
            "constant": self.constant,
            "lower_bound": self.lower_bound,
            "entries": self.entries,
            "skipped_radii": [[r, why] for r, why in self.skipped_radii],
        }


def tractability_probe(
    system,
    cloud,
    r_grid: Sequence[float],
    depth: int,
    samples_per_piece: int = 12,
) -> tuple[float, TractabilityReport]:
    """Estimate the smallest ``C`` making the construction tractable.

    For each radius ``r`` in the grid, stopping words ``i, j`` whose
    sampled pieces come within ``r`` of each other are re-examined under
    every prefix ``h`` up to ``depth``; the witnessed constant is the
    largest ``dist(X_hi, X_hj) / (diam(X_h) * r)`` observed.
    """
    model = system.induced_model(cloud)
    report = TractabilityReport(0.0)
    space = system.space

    def piece_samples(word: Word) -> tuple:
        piece = cloud.piece(word)
        return cloud.points[piece.start : min(piece.stop, piece.start + samples_per_piece)]

    def gap(P: Sequence, Q: Sequence) -> float:
        """``min d(p, q)`` over ``p`` in ``P`` and ``q`` in ``Q``."""
        X = space.coordinates(P)
        return min(float(space.distances(X, q).min()) for q in Q)

    best_entries: list[dict] = []
    for r in r_grid:
        if not 0 < r < model.seed_diameter:
            report.skipped_radii.append((r, "outside (0, seed diameter)"))
            continue
        try:
            Z = stopping_set(model, r)
        except DomainError as exc:
            report.skipped_radii.append((r, str(exc)))
            continue
        if any(len(w) > cloud.depth for w in Z):
            report.skipped_radii.append((r, "stopping words deeper than the cloud"))
            continue
        samples = {w: piece_samples(w) for w in Z}
        close_pairs = []
        for a in range(len(Z)):
            for b in range(a + 1, len(Z)):
                if gap(samples[Z[a]], samples[Z[b]]) <= r:
                    close_pairs.append((Z[a], Z[b]))
        if not close_pairs:
            continue
        for h in system.alphabet.words_up_to(depth):
            diam_h = model.diam(h)
            for wi, wj in close_pairs:
                d = gap(
                    [system.apply_word(h, p) for p in samples[wi]],
                    [system.apply_word(h, q) for q in samples[wj]],
                )
                ratio = d / (diam_h * r)
                if ratio > report.constant:
                    report.constant = ratio
                best_entries.append(
                    {
                        "h": word_str(h),
                        "i": word_str(wi),
                        "j": word_str(wj),
                        "r": r,
                        "ratio": ratio,
                    }
                )
    best_entries.sort(key=lambda e: -e["ratio"])
    report.entries = best_entries[:5]
    return report.constant, report
