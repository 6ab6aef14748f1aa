"""Diameter models for Moran constructions and their axiom validators.

A *diameter model* assigns a positive diameter to every finite word; it is
the combinatorial skeleton of a Moran construction, with the geometry
abstracted away.  Four shapes cover everything shipped here:

* multiplicative -- ``diam(i) = seed * prod(ratio[i_k])`` (self-similar);
* level          -- ``diam(i) = seed * prod(ratio(k) for k <= len(i))``;
* rectangle      -- the diagonal of an axis-aligned affine rectangle;
* general        -- an arbitrary word-to-diameter function.

Being *level* (homogeneous: every word of a length has one diameter) is a
property that three shapes can have: every level model, a multiplicative
model whose ratios are equal, and a rectangle whose ``a`` are equal and whose
``b`` are equal.  The model decides it from its own parameters and says so
through ``level_log_diam``; the level sums, maxima and ratio scans then read
one value per level and never enumerate words.

The validators fit the smallest witnessed constants for the nesting/control
axioms up to a finite depth.  Witnessed constants are exactly that: minimal
over the checked range, not certified global bounds.  A constant whose fit
keeps growing from one depth to the next is reported as a violation.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError
from .words import Alphabet, SubTree, Word, _check_enum, block_rows, level_step, word_at, word_str

# Fitted constants that grow by more than this factor between consecutive
# depths are flagged as diverging (axiom violated rather than held).
_DIVERGENCE_FACTOR = 1.5
_DIVERGING = "; fitted constant grew by %.3g between depths (diverging)"


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


class DiameterModel:
    """Base class: word-indexed diameters with aggregate helpers.

    Subclasses call ``super().__init__(alphabet, seed_diameter)``, which
    refuses a seed diameter that is not positive and finite (NaN too), and
    implement ``log_diam``.  ``diam``, the level aggregates, the window ratios
    and the ratio scans have generic (enumerating) fallbacks that structured
    subclasses override with exact closed forms.
    """

    #: ``log D`` where every diameter is ``D`` times a product over the word,
    #: 0 where no such constant is known; ``pressure_at`` divides it out
    log_scale: float = 0.0
    #: spacing of geometric scale grids: a multiplicative model's ratio when
    #: every map shares it, 1/2 otherwise
    scale_ratio: float = 0.5
    #: optional geometric nesting check (set by system-induced models)
    containment_check: Optional[Callable[[], tuple[bool, str]]] = None

    def __init__(self, alphabet: Alphabet, seed_diameter: float) -> None:
        if not 0 < seed_diameter < math.inf:  # NaN too
            raise DomainError("seed diameter must be positive and finite")
        self.alphabet = alphabet
        self.seed_diameter = float(seed_diameter)
        self._ld_cache: dict[tuple[int, SubTree | None], np.ndarray] = {}
        # the deepest split and child scans so far: running extremes, so every
        # shallower depth reads its scan as a prefix of these
        self._scans: tuple[list, list] = ([None, None], [None])

    # -- per-word values ---------------------------------------------------

    def log_diam(self, word: Word) -> float:
        raise NotImplementedError

    def diam(self, word: Word) -> float:
        return math.exp(self.log_diam(word))

    def level_log_diam(self, n: int) -> float | None:
        """The log-diameter that every word of length ``n`` shares, or ``None``
        when the words of a level differ (the default)."""
        return None

    def child_diams(self, parent: np.ndarray, words: Callable[[], list[Word]]) -> np.ndarray:
        """One level of a stopping walk: the diameters of the frontier's children,
        ``a`` per frontier word in order, as ``diam`` computes them, from the frontier's
        own (``parent``; ``[seed_diameter]`` at the root); ``words()`` lists the children.
        Generic: ``diam`` per word."""
        return np.array([self.diam(w) for w in words()], dtype=float)

    # -- level aggregates ----------------------------------------------------

    def _branches(self, levels: range, subtree: SubTree | None) -> list[int]:
        """Branches kept at each of ``levels``: all of them without a subtree.

        Every level aggregate comes through here, so this is where a
        negative depth is refused; depth 0 (no levels) is the seed alone.
        """
        _refuse_negative(levels.stop - levels.start)
        if subtree is None:
            return [self.alphabet.size] * len(levels)
        subtree.check_alphabet(self.alphabet)
        return [subtree.branch(k) for k in levels]

    def _level_log_diams(self, n: int, subtree: SubTree | None = None) -> np.ndarray:
        """Log-diameters of the level-``n`` words (of ``subtree`` if given), cached."""
        key = (n, subtree)
        if key not in self._ld_cache:
            branches = self._branches(range(1, n + 1), subtree)
            what = "level %d of a %s" % (n, type(self).__name__)
            _check_enum(math.prod(branches), what, branches)
            lds = self._log_diams(branches)
            if not np.isfinite(lds).all():
                bad = int(np.flatnonzero(~np.isfinite(lds))[0])
                raise _non_finite(word_at(bad, branches), lds[bad])
            self._ld_cache[key] = lds
        return self._ld_cache[key]

    def _log_diams(self, branches: list[int]) -> np.ndarray:
        """Uncached log-diameters of the words with ``i_k < branches[k-1]``, lexicographic."""
        words = itertools.product(*map(range, branches))
        return np.fromiter(map(self.log_diam, words), float, math.prod(branches))

    def level_log_sum(self, t: float, n: int, subtree: SubTree | None = None) -> float:
        """``log(sum(diam(i)**t for i in level n))``, subtree-restricted if given:
        ``log(count) + t * level_log_diam(n)`` when the level shares one diameter."""
        branches = self._branches(range(1, n + 1), subtree)
        ld = self.level_log_diam(n)
        if ld is not None:
            return math.log(math.prod(branches)) + t * ld
        vals = t * self._level_log_diams(n, subtree)
        m = float(np.max(vals))
        vals -= m
        return m + math.log(float(np.sum(np.exp(vals, out=vals))))

    def window_ratios(self, t: float, depth: int, subtree: SubTree) -> list[np.ndarray]:
        """``sum_j (diam(ij) / diam(i))**t`` over the length-``n`` suffixes ``j``.

        Entry ``m`` (``0 <= m < depth``) has one row per length-``m`` subtree
        word ``i``, in lexicographic order, and one column per ``n = 1 ..
        depth - m``; models whose ratio does not depend on ``i`` give one row.
        """
        tL = [t * self._level_log_diams(k, subtree) for k in range(depth + 1)]
        return [
            np.column_stack([
                np.exp(tL[m + n].reshape(len(tL[m]), -1) - tL[m][:, None]).sum(axis=1)
                for n in range(1, depth - m + 1)
            ])
            for m in range(depth)
        ]

    def level_max(self, n: int) -> float:
        """The largest diameter over level ``n``."""
        ld = self.level_log_diam(n)
        return math.exp(float(np.max(self._level_log_diams(n))) if ld is None else ld)

    # -- ratio scans ---------------------------------------------------------

    def split_ratio_extremes(self, depth: int) -> list:
        """Running extremes of ``diam(ij) / (diam(i) diam(j))`` over split words.

        Entry ``n`` (``2 <= n <= depth``) is ``(lo, hi, witness_lo, witness_hi)``
        over all words of length 2..n and all split points; entries 0 and 1 are
        ``None``.  A witness is the first word attaining its extreme in (length,
        word, split) order: candidates are keyed ``(ratio, length, word index)``,
        the maximum's ratio negated, and ``min`` keeps the earlier split of equal
        keys.  A level's splits go in blocks of ``block_rows`` ratio arrays.
        One pass (:meth:`_ratio_scan`) scans the splits and the children and
        is kept: a shallower depth gets a fresh copy of its prefix.
        """
        if len(self._scans[1]) <= depth:
            self._scans = self._ratio_scan(depth)
        return self._scans[0][: max(depth, 1) + 1]

    def child_ratio_min(self, depth: int) -> list:
        """Running minimum of ``diam(i) / diam(parent(i))`` with its witness.

        Entry ``n`` (``1 <= n <= depth``) is ``(min, witness)`` over all
        words of length 1..n, the witness being the first word attaining it
        in (length, word) order; entry 0 is ``None``.  Scanned and kept with
        the splits, so the validators read both from one pass.
        """
        if len(self._scans[1]) <= depth:
            self._scans = self._ratio_scan(depth)
        return self._scans[1][: max(depth, 0) + 1]

    def _ratio_scan(self, depth: int) -> tuple[list, list]:
        """The split and child scans to ``depth``: at each level its children, then its splits,
        from the level arrays (one ``_extreme`` per block) or, where every level shares one
        diameter, from the word ``(0,)*n`` of each level, with the arrays' float operations."""
        lds = [self.level_log_diam(n) for n in range(depth + 1)]
        if None in lds:
            L, a = [self._level_log_diams(n) for n in range(depth + 1)], self.alphabet.size

            def extremes(n: int) -> tuple[tuple[float, int], list]:
                kids = _extreme((L[n].reshape(-1, a) - L[n - 1][:, None]).ravel(), lowest=True)
                step = block_rows(a**n)
                blocks = (np.stack([(L[n].reshape(a**m, -1) - L[m][:, None] - L[n - m]).ravel()
                                    for m in range(f, min(n, f + step))])
                          for f in range(1, n, step))
                return kids, [(_extreme(x, lowest=True), _extreme(x, lowest=False)) for x in blocks]
        else:
            a = 1
            for n, v in enumerate(lds):
                if not math.isfinite(v):
                    raise _non_finite((0,) * n, v)

            def extremes(n: int) -> tuple[tuple[float, int], list]:
                r = [math.exp(lds[n] - lds[m] - lds[n - m]) for m in range(1, n)]
                return (math.exp(lds[n] - lds[n - 1]), 0), [((min(r), 0), (max(r), 0))] if r else []

        split, child = [None, None], [None]
        lo = hi = least = (math.inf, 0, 0)
        for n in range(1, depth + 1):
            (v, i), blocks = extremes(n)
            least = min(least, (v, n, i))
            child.append((least[0], word_at(least[2], (a,) * least[1])))
            for (v, i), (w, j) in blocks:
                lo = min(lo, (v, n, i))
                hi = min(hi, (-w, n, j))
            if n > 1:
                split.append((lo[0], -hi[0], word_at(lo[2], (a,) * lo[1]),
                              word_at(hi[2], (a,) * hi[1])))
        return split, child


def _refuse_negative(depth: int) -> None:
    if depth < 0:
        raise DomainError("depth must be >= 0, got %d" % depth)


def _non_finite(word: Word, ld: float) -> DomainError:
    return DomainError("log-diameter of word %s is %s; diameters must be positive and finite"
                       % (word_str(word), float(ld)))


def _extreme(x: np.ndarray, lowest: bool) -> tuple[float, int]:
    """Least (or greatest) ``math.exp(v)`` over the rows of ``x`` and the first column attaining it.

    Only distinct logs within 1e-12 of their row's extreme are exponentiated:
    two ratios round to one float only if their logs differ by ~1e-16.  A row
    with a NaN has a NaN extreme, so no NaN is near.
    """
    gap = x - x.min(axis=-1, keepdims=True) if lowest else x.max(axis=-1, keepdims=True) - x
    near = np.flatnonzero(gap <= 1e-12)
    vals = x.ravel()[near]
    # distinct sorted logs, as np.unique gives them (which imports numpy.ma)
    logs = np.sort(vals)
    logs = np.concatenate((logs[:1], logs[1:][logs[1:] != logs[:-1]])).tolist()
    exps = [math.exp(v) for v in logs]
    best = min(exps) if lowest else max(exps)
    hit = np.logical_or.reduce([vals == v for v, e in zip(logs, exps) if e == best])
    return best, int((near[hit] % x.shape[-1]).min())


class MultiplicativeModel(DiameterModel):
    """``diam(i) = seed * ratio[i_1] * ... * ratio[i_n]``."""

    def __init__(self, ratios: Sequence[float], seed_diameter: float = 1.0):
        ratios = tuple(float(r) for r in ratios)
        if len(ratios) < 2:
            raise DomainError("need at least two contraction ratios")
        if any(not 0.0 < r < 1.0 for r in ratios):
            raise DomainError("ratios must lie in (0, 1): %r" % (ratios,))
        super().__init__(Alphabet(len(ratios)), seed_diameter)
        self.ratios = ratios
        self.log_ratios = tuple(math.log(r) for r in ratios)
        self.log_scale = math.log(self.seed_diameter)
        # equal ratios: diam and log_diam per length, grown on demand
        self._by_length = None
        if len(set(ratios)) == 1:
            self.scale_ratio = ratios[0]
            self._by_length = ([self.seed_diameter], [self.log_scale])

    def _tables(self, n: int) -> tuple[list[float], list[float]]:
        """The per-length tables through length ``n``: ``diam``'s ``*=`` from the
        seed and ``log_diam``'s ``sum`` (compensated on Python 3.12+) of the log ratio."""
        d, ld = self._by_length
        while len(d) <= n:
            d.append(d[-1] * self.ratios[0])
            ld.append(self.log_scale + sum(itertools.repeat(self.log_ratios[0], len(ld))))
        return d, ld

    def level_log_diam(self, n: int) -> float | None:
        _refuse_negative(n)
        return None if self._by_length is None else self._tables(n)[1][n]

    def log_diam(self, word: Word) -> float:
        ld = self.level_log_diam(len(word))
        return self.log_scale + sum(self.log_ratios[s] for s in word) if ld is None else ld

    def diam(self, word: Word) -> float:
        if self._by_length is not None:  # a list read: the cover-cost callbacks call this per word
            n, diams = len(word), self._by_length[0]
            return diams[n] if n < len(diams) else self._tables(n)[0][n]
        d = self.seed_diameter
        for s in word:
            d *= self.ratios[s]
        return d

    def child_diams(self, parent, words):
        # diam's left-to-right product, carried
        return level_step(parent, self.ratios, np.multiply)

    def _branch_log_terms(self, t: float, b: int) -> tuple[float, ...]:
        """The terms that add ``log(sum(r**t))`` over the first ``b`` ratios to a running sum."""
        total = sum(r**t for r in self.ratios[:b])
        if total == 0.0:  # every r**t underflowed: sum in log space
            top = max(self.log_ratios[:b])
            total = sum(math.exp(t * (v - top)) for v in self.log_ratios[:b])
            return t * top, math.log(total)
        return (math.log(total),)

    def level_log_sum(self, t: float, n: int, subtree: SubTree | None = None) -> float:
        out = t * self.log_scale
        for b in self._branches(range(1, n + 1), subtree):
            for term in self._branch_log_terms(t, b):
                out += term
        return out

    def window_ratios(self, t: float, depth: int, subtree: SubTree) -> list[np.ndarray]:
        # independent of the prefix: only its length m matters; each level's
        # terms are found once and added in level_log_sum's order
        branches = self._branches(range(1, depth + 1), subtree)
        terms = [self._branch_log_terms(t, b) for b in branches]
        out = []
        for m in range(depth):
            acc, row = 0.0, []
            for level in terms[m:]:
                for term in level:
                    acc += term
                row.append(math.exp(acc))
            out.append(np.array([row]))
        return out

    def level_max(self, n: int) -> float:
        return self.seed_diameter * max(self.ratios) ** n

    def split_ratio_extremes(self, depth: int) -> list:
        v = 1.0 / self.seed_diameter
        return [None, None] + [(v, v, (0, 0), (0, 0))] * (depth - 1)

    def child_ratio_min(self, depth: int) -> list:
        s = min(range(self.alphabet.size), key=lambda i: self.ratios[i])
        return [None] + [(self.ratios[s], (s,))] * depth


class LevelModel(DiameterModel):
    """``diam(level n) = seed * ratio(1) * ... * ratio(n)``: the diameter
    depends only on the word length."""

    def __init__(self, ratio: Callable[[int], float], branches: int, seed_diameter: float = 1.0):
        super().__init__(Alphabet(branches), seed_diameter)
        self._ratio = ratio
        # cumulative log-diameters of levels 0, 1, ..., extended on demand
        self._lld = [math.log(self.seed_diameter)]

    def level_log_diam(self, n: int) -> float:
        _refuse_negative(n)
        lld = self._lld
        while len(lld) <= n:
            rho = self._ratio(len(lld))
            if not 0 < rho < math.inf:  # NaN too
                raise DomainError("level ratio at level %d must be positive and finite" % len(lld))
            lld.append(lld[-1] + math.log(rho))
        return lld[n]

    def log_diam(self, word: Word) -> float:
        return self.level_log_diam(len(word))

    def window_ratios(self, t: float, depth: int, subtree: SubTree) -> list[np.ndarray]:
        branches = self._branches(range(1, depth + 1), subtree)
        lld = [self.level_log_diam(k) for k in range(depth + 1)]
        out = []
        for m in range(depth):
            count, row = 1, []
            for k in range(m + 1, depth + 1):
                count *= branches[k - 1]
                row.append(math.exp(math.log(count) + t * (lld[k] - lld[m])))
            out.append(np.array([row]))
        return out


class GeneralModel(DiameterModel):
    """Arbitrary word-to-diameter function (enumerating aggregates)."""

    def __init__(
        self,
        log_diam_fn: Callable[[Word], float],
        alphabet: Alphabet,
        seed_diameter: float = 1.0,
    ):
        super().__init__(alphabet, seed_diameter)
        self._log_diam_fn = log_diam_fn

    def log_diam(self, word: Word) -> float:
        if len(word) == 0:
            return math.log(self.seed_diameter)
        return self._log_diam_fn(word)


class RectangleModel(DiameterModel):
    """Axis-aligned affine rectangles: ``diam = hypot(prod a, prod b)``.

    The two coordinate contractions multiply independently along the word,
    and the piece diameter is the diagonal of the resulting rectangle.
    """

    def __init__(self, a: Sequence[float], b: Sequence[float]):
        if len(a) != len(b) or len(a) < 2:
            raise DomainError("need matching contraction lists of length >= 2")
        if any(not 0 < v < 1 for v in tuple(a) + tuple(b)):
            raise DomainError("contractions must lie in (0, 1)")
        super().__init__(Alphabet(len(a)), math.hypot(1.0, 1.0))
        self.a = tuple(float(v) for v in a)
        self.b = tuple(float(v) for v in b)
        self._la, self._lb = np.log(self.a), np.log(self.b)
        # equal ratios on each side: one log-diameter per length, and the side sums
        # of the one-letter word one letter longer than the last kept
        self._lld = [] if len(set(self.a)) == len(set(self.b)) == 1 else None
        self._ends = (np.zeros(1), np.zeros(1))

    def log_diam(self, word: Word) -> float:
        la = sum(self._la[s] for s in word)
        lb = sum(self._lb[s] for s in word)
        return 0.5 * np.logaddexp(2 * la, 2 * lb)

    def level_log_diam(self, n: int) -> float | None:
        # the one-letter word of length n, stepped as _log_diams steps every word
        _refuse_negative(n)
        lld = self._lld
        while lld is not None and len(lld) <= n:
            la, lb = self._ends
            lld.append(float(0.5 * np.logaddexp(2 * la, 2 * lb)[0]))
            self._ends = level_step(la, self._la[:1]), level_step(lb, self._lb[:1])
        return None if lld is None else lld[n]

    def _log_diams(self, branches: list[int]) -> np.ndarray:
        la, lb = np.zeros(1), np.zeros(1)
        for b in branches:
            la, lb = level_step(la, self._la[:b]), level_step(lb, self._lb[:b])
        # log_diam's ``0.5 * logaddexp(2 * la, 2 * lb)``, in place
        np.logaddexp(np.multiply(la, 2, out=la), np.multiply(lb, 2, out=lb), out=la)
        return np.multiply(la, 0.5, out=la)


# ---------------------------------------------------------------------------
# axiom reports
# ---------------------------------------------------------------------------

HOLDS = "holds"
VIOLATED = "violated"
NOT_CHECKABLE = "not-checkable"


class AxiomCheck(NamedTuple):
    axiom: str
    status: str
    constant: float | None = None
    witness: Word | None = None
    stability: float | None = None
    note: str = ""


class AxiomReport(NamedTuple):
    scheme: str
    depth: int
    checks: tuple[AxiomCheck, ...]
    constant: float

    @property
    def passed(self) -> bool:
        return all(c.status != VIOLATED for c in self.checks)

    def check(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)


def _fitted(axiom: str, fit: float, fit_prev: float, witness: Word, note: str,
            grew: str) -> AxiomCheck:
    """``axiom``'s check from its constant fitted at depth and at depth-1: it
    holds unless the fit grew by more than ``_DIVERGENCE_FACTOR``, and then
    ``grew % growth`` ends ``note``."""
    stab = fit / fit_prev  # fits are at least 1
    if stab <= _DIVERGENCE_FACTOR:
        return AxiomCheck(axiom, HOLDS, fit, witness, stab, note)
    return AxiomCheck(axiom, VIOLATED, fit, witness, stab, note + grew % stab)


def _w1_check(model: DiameterModel) -> AxiomCheck:
    if model.containment_check is None:
        return AxiomCheck(
            "W1",
            NOT_CHECKABLE,
            note="nesting needs backing geometry; diameter-only models cannot witness it",
        )
    ok, note = model.containment_check()
    return AxiomCheck("W1", HOLDS if ok else VIOLATED, note=note)


def _w2_check(model: DiameterModel, depth: int, D: float) -> AxiomCheck:
    for n in range(1, depth + 1):
        hi = model.level_max(n)
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
    if depth < 2:
        return AxiomCheck("W3", NOT_CHECKABLE, note="depth < 2 exposes no splits")
    ext = model.split_ratio_extremes(depth)
    _, hi, _, whi = ext[depth]
    fit_prev = max(1.0, (ext[depth - 1] or ext[depth])[1])
    return _fitted("W3", max(1.0, hi), fit_prev, whi, "",
                   "fitted constant grew by %.3g between depths")


def _w4_check(model: DiameterModel, depth: int) -> AxiomCheck:
    ext = model.child_ratio_min(depth)
    lo, wit = ext[depth]
    fit_prev = max(1.0, 1.0 / (ext[depth - 1] or ext[depth])[0])
    return _fitted("W4", max(1.0, 1.0 / lo), fit_prev, wit,
                   "minimal witnessed child/parent ratio %.6g" % lo, _DIVERGING)


def validate_wcmc(model: DiameterModel, depth: int) -> AxiomReport:
    """Fit and check the weak control axioms W1-W4 up to ``depth``.

    W3 fits the smallest ``D`` with ``diam(ij) <= D diam(i) diam(j)``, W4
    the smallest ``D`` with ``diam(i) >= diam(parent) / D``; W2 then asks
    for a level whose maximal diameter is below ``1/D`` for the combined
    fit.  Constants witnessed at this depth only.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    w1 = _w1_check(model)
    w3 = _w3_check(model, depth)
    w4 = _w4_check(model, depth)
    D = max(1.0, w3.constant or 1.0, w4.constant or 1.0)
    return AxiomReport("wcmc", depth, (w1, _w2_check(model, depth, D), w3, w4), D)


def validate_cmc(model: DiameterModel, depth: int) -> AxiomReport:
    """Fit and check the two-sided control axiom C1 up to ``depth``.

    C1 bounds ``diam(ij) / (diam(i) diam(j))`` within ``[1/D, D]``; it is
    strictly stronger than W3+W4 over the same range.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    w1 = _w1_check(model)
    if depth < 2:
        c1 = AxiomCheck("C1", NOT_CHECKABLE, note="depth < 2 exposes no splits")
        D = 1.0
    else:
        ext = model.split_ratio_extremes(depth)
        lo, hi, wlo, whi = ext[depth]
        plo, phi, _, _ = ext[depth - 1] or ext[depth]
        c1 = _fitted("C1", max(1.0, hi, 1.0 / lo), max(1.0, phi, 1.0 / plo),
                     wlo if (1.0 / lo) >= hi else whi,
                     "two-sided split ratio within [%.6g, %.6g]" % (lo, hi), _DIVERGING)
        D = c1.constant
    return AxiomReport("cmc", depth, (w1, _w2_check(model, depth, D), c1), D)
