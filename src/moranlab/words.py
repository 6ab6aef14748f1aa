"""Finite words over a fixed alphabet and the symbolic tree they span.

Words index the pieces of a Moran construction: the word ``(i1, ..., in)``
names the piece reached by following branch ``i1`` at level 1, ``i2`` at
level 2, and so on.  Everything here is exact combinatorics -- the only
metric content is the dyadic tree metric :func:`d2_with_resolution` and
the diameter values supplied by a caller's model.  :func:`level_step` builds
the next level of any word-indexed array, and :func:`block_rows` cuts a loop
over level or query rows into blocks of about :data:`BLOCK_ELEMENTS` floats.
"""

from __future__ import annotations

import itertools
import os
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, EnumerationCapError

#: A finite word: a tuple of symbol indices.
Word = tuple[int, ...]

_DEFAULT_ENUM_CAP = 2**24

#: float64 elements per temporary of a block-query loop (64 KiB)
BLOCK_ELEMENTS = 2**13


def enum_cap() -> int:
    """Hard cap on the number of words any operation may enumerate.

    Defaults to ``2**24`` and can be overridden through the
    ``MORANLAB_ENUM_CAP`` environment variable.
    """
    raw = os.environ.get("MORANLAB_ENUM_CAP")
    if raw is None:
        return _DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise EnumerationCapError("MORANLAB_ENUM_CAP is not an integer: %r" % raw) from exc
    if cap <= 0:
        raise EnumerationCapError("MORANLAB_ENUM_CAP must be positive")
    return cap


def _check_enum(count: int, what: str, branches: Sequence[int] = ()) -> None:
    """Raise :class:`EnumerationCapError` when ``count`` exceeds :func:`enum_cap`;
    ``branches[k]`` children per word at level ``k + 1`` name the largest depth that fits."""
    cap = enum_cap()
    if count > cap:
        why, depth = "%s would enumerate %d words (cap %d)" % (what, count, cap), len(branches)
        while depth and count > cap:
            depth -= 1
            count //= branches[depth]
        fits = "no depth fits" if count > cap else "the largest depth that fits is %d" % depth
        raise EnumerationCapError("%s; %s" % (why, fits) if branches else why)


class Alphabet:
    """The branch set ``I = {0, ..., size-1}`` shared by every level."""

    __slots__ = ("size",)

    def __init__(self, size: int) -> None:
        if type(size) is not int or size < 2:
            raise ValueError("alphabet needs at least two symbols, got %r" % (size,))
        self.size = size

    def check_word(self, word: Sequence[int]) -> Word:
        w = tuple(word)
        for s in w:
            if type(s) is not int:
                raise DomainError("letters must be integers, got %r" % (s,))
            if not 0 <= s < self.size:
                raise DomainError("symbol %r outside alphabet of size %d" % (s, self.size))
        return w

    def words(self, length: int) -> Iterator[Word]:
        """All words of exactly ``length`` symbols, in lexicographic order."""
        if length < 0:
            raise DomainError("length must be non-negative")
        _check_enum(self.size**length, "level %d" % length, (self.size,) * length)
        return itertools.product(range(self.size), repeat=length)

    def words_up_to(self, depth: int) -> Iterator[Word]:
        """All non-empty words of length at most ``depth``, tree order."""
        for n in range(1, depth + 1):
            yield from self.words(n)


def incomparable(u: Word, v: Word) -> bool:
    """True iff neither word is a prefix of the other.

    Incomparable words name pieces on different branches of the tree;
    comparable words name nested pieces.
    """
    m = min(len(u), len(v))
    return u[:m] != v[:m]


def word_str(word: Word) -> str:
    """Deterministic display form used in CSV/JSON output."""
    return "-".join(str(s) for s in word) if word else "()"


def word_at(index: int, counts: Sequence[int]) -> Word:
    """The ``index``-th word in lexicographic order of those with ``i_k < counts[k]``
    (``counts[k]`` branches at level ``k + 1``), read as mixed-radix digits."""
    word: Word = ()
    for b in reversed(counts):
        index, s = divmod(index, b)
        word = (s,) + word
    return word


def largest_depth(size: int, count: int) -> int:
    """The largest depth ``n >= 1`` with ``size**n <= count`` (1 if there is none)."""
    depth = 1
    while size ** (depth + 1) <= count:
        depth += 1
    return depth


def block_rows(n_rows: int) -> int:
    """Query rows per kernel call against ``n_rows`` rows."""
    return max(1, BLOCK_ELEMENTS // max(1, n_rows))


def level_step(parent: np.ndarray, steps, op=np.add) -> np.ndarray:
    """The next level of a word-indexed array: child ``k*a + c`` is ``op(parent[k], steps[c])``,
    as in ``(parent[:, None] op steps).ravel()``, but in one pass over the parent per letter."""
    out = np.empty((len(parent), len(steps)), np.result_type(parent, np.asarray(steps)))
    for c, s in enumerate(steps):
        op(parent, s, out=out[:, c])
    return out.ravel()


# ---------------------------------------------------------------------------
# the dyadic tree metric
# ---------------------------------------------------------------------------


def d2_with_resolution(u: Word, v: Word) -> tuple[float, bool]:
    """Tree distance ``2**(1-k)`` at first disagreement index ``k``.

    Both arguments are depth-``n`` prefixes of infinite branches.  If they
    disagree somewhere the distance is exact and the flag is ``True``.  If
    they agree on the whole declared depth, the true distance is merely
    known to be at most ``2**(-n)``; we return ``0.0`` with flag ``False``
    (unresolved at this depth).
    """
    if len(u) != len(v):
        raise DomainError("prefixes must have equal declared depth (%d vs %d)" % (len(u), len(v)))
    for k, (a, b) in enumerate(zip(u, v), start=1):
        if a != b:
            return 2.0 ** (1 - k), True
    return 0.0, False


# ---------------------------------------------------------------------------
# sub-trees
# ---------------------------------------------------------------------------


class SubTree(tuple):
    """A level-wise pruned tree: keep the first ``b_k`` branches at level k.

    The tuple ``(b_1, ..., b_d)`` of branch counts: the retained words of
    length n are exactly those with ``i_k < b_k`` for every k <= n.  This is
    the shape produced by the greedy branch-sequence constructions, where at
    each level either the full branch set or a deterministic initial segment
    of it survives.  Being a tuple, a sub-tree is immutable and compares and
    hashes by its counts: models key their cached level arrays by
    ``(n, subtree)``.
    """

    __slots__ = ()

    def __new__(cls, branch_counts: Sequence[int]) -> SubTree:
        counts = super().__new__(cls, branch_counts)
        for k, b in enumerate(counts, start=1):
            if type(b) is not int:
                raise DomainError("branch count at level %d must be an integer, got %r" % (k, b))
            if b < 1:
                raise DomainError("branch count at level %d must be >= 1, got %d" % (k, b))
        return counts

    #: the number of levels the counts declare
    depth = property(len)

    def check_alphabet(self, alphabet: Alphabet) -> None:
        for k, b in enumerate(self, start=1):
            if b > alphabet.size:
                raise DomainError(
                    "branch count %d at level %d exceeds alphabet size %d"
                    % (b, k, alphabet.size)
                )

    def branch(self, level: int) -> int:
        if not 1 <= level <= len(self):
            raise DomainError("level %d outside declared depth %d" % (level, len(self)))
        return self[level - 1]


# ---------------------------------------------------------------------------
# stopping sets
# ---------------------------------------------------------------------------


#: the deepest level a stopping walk goes to
_MAX_DEPTH = 64


def stopping_set(model, r: float) -> list[Word]:
    """Words whose piece first drops to diameter ``<= r``.

    Returns the antichain ``{i : diam(X_i) <= r < diam(X_parent(i))}`` in
    lexicographic order.  ``model`` is a ``DiameterModel``: the walk reads its
    ``alphabet``, ``seed_diameter`` and ``child_diams``, which maps a level's
    diameters to the next level's with the floats of ``diam``.

    The boundary is inclusive on the word itself: at ``r == diam(X_i)``
    the word ``i`` belongs to the stopping set.  The walk goes level by
    level; the words kept plus the next level count against :func:`enum_cap`.
    """
    out, wide = _stopping_walk(model, r, _MAX_DEPTH)
    if wide is not None:
        raise DomainError(
            "piece diameters did not drop below r=%r within depth %d" % (r, _MAX_DEPTH)
        )
    return out


def _stopping_walk(model, r: float, max_depth: int) -> tuple[list[Word], Word | None]:
    """Stopping words up to ``max_depth``, sorted; the first word still wider
    than ``r`` there, else ``None``.

    A level is held as arrays: the children's diameters (``a`` per frontier word,
    in order), the stopping mask and the kept children's positions.  Child ``c``
    is letter ``c % a`` below frontier word ``c // a``: the kept positions rebuild words.
    """
    if not 0 < r < model.seed_diameter:
        raise DomainError(
            "stopping radius must lie in (0, seed diameter); got r=%r, seed=%r"
            % (r, model.seed_diameter)
        )
    a, found, keeps = model.alphabet.size, [], []
    diams, count, stopped = np.array([model.seed_diameter]), 1, 0
    while count and len(keeps) < max_depth:
        _check_enum(stopped + count * a, "stopping set at r=%r" % r)
        children = lambda: list(zip(*_letters(keeps, a, np.arange(count * a)).T.tolist()))  # noqa
        diams = model.child_diams(diams, children)
        low = diams <= r
        stop, keep = np.flatnonzero(low), np.flatnonzero(~low)
        if len(stop):
            found.append(_letters(keeps, a, stop))
        keeps.append(keep)
        diams, count, stopped = diams[keep], len(keep), stopped + len(stop)
    # each length is in order; the antichain sorts into depth-first order, and as
    # no word is a prefix of another, zero-padded letter rows sort as the words do
    out = list(itertools.chain.from_iterable(zip(*w.T.tolist()) for w in found))
    if len(found) > 1:
        pad = np.concatenate([np.pad(w, ((0, 0), (0, len(keeps) - w.shape[1]))) for w in found])
        out = list(map(out.__getitem__, np.lexsort(pad.T[::-1]).tolist()))
    if not count:
        return out, None
    return out, tuple(_letters(keeps[:-1], a, keeps[-1][:1])[0].tolist()) if keeps else ()


def _letters(keeps: list, a: int, children):
    """Letter rows of the ``children`` (positions) of the frontier that ``keeps`` left."""
    out = np.empty((len(children), len(keeps) + 1), np.min_scalar_type(a - 1), order="F")
    out[:, -1] = children % a
    for n in range(len(keeps) - 1, -1, -1):
        children = keeps[n][children // a]
        out[:, n] = children % a
    return out


class LocalStoppingSet(NamedTuple):
    """Result of :func:`local_stopping_set`.

    ``words`` is the (sample-based, hence possibly under-reported) set of
    stopping words whose piece meets the open ball; ``candidates`` is the
    full stopping set at this radius.  The samples of ``candidates[i]`` are
    the rows ``cloud.piece(candidates[i])``.
    """

    words: tuple[Word, ...]
    candidates: tuple[Word, ...]


def local_stopping_set(model, cloud, x, r: float) -> LocalStoppingSet:
    """Stopping words whose sampled piece meets the open ball ``B(x, r)``."""
    return local_stopping_sets(model, cloud, cloud.space.coordinates([x]), r)[0]


def local_stopping_sets(model, cloud, Q, r: float) -> list[LocalStoppingSet]:
    """The local stopping set at radius ``r`` of each query row ``x`` of ``Q``.

    A piece ``X_i`` is approximated by the cloud points whose label starts
    with ``i``; it is kept when some sample lies at distance strictly less
    than ``r`` from ``x``, a row of ``cloud.space.coordinates``.  Sampling
    can only miss intersections, never invent them.  All rows share one
    stopping set, walked once and no deeper than the cloud.
    """
    candidates, wide = _stopping_walk(model, r, cloud.depth)
    if wide is not None:  # the first deeper stopping word in order: letters 0 below wide
        w = wide + (0,)
        while model.diam(w) > r and len(w) < _MAX_DEPTH:
            w += (0,)
        raise DomainError(
            "stopping word %s is deeper than the cloud (depth %d); "
            "regenerate the cloud at depth >= %d" % (word_str(w), cloud.depth, len(w))
        )
    space, X, out, step = cloud.space, cloud.coordinates, [], block_rows(len(cloud))
    # each piece's rows, cut to the cloud (letters the cloud lacks: no rows)
    lo, hi = np.array([cloud.piece(w).indices(len(X))[:2] for w in candidates]).T
    candidates = tuple(candidates)
    for a in range(0, len(Q), step):
        inside = space.distances(X, Q[a : a + step]) < r
        # samples inside before each row: a piece meets the ball iff its count grows
        before = np.zeros((len(inside), len(X) + 1), dtype=np.intp)
        np.cumsum(inside, axis=1, out=before[:, 1:])
        for hit in (before[:, hi] > before[:, lo]).tolist():
            words = tuple(itertools.compress(candidates, hit))
            out.append(LocalStoppingSet(words, candidates))
    return out


# ---------------------------------------------------------------------------
# exact antichain covering cost
# ---------------------------------------------------------------------------


def antichain_cover_cost(alphabet: Alphabet, psi: Callable, n: int, max_depth: int) -> float:
    """Cheapest antichain cover of the whole branch space, exactly.

    Minimises ``sum(psi(i) for i in C)`` over all covers ``C`` of the full
    tree by words of length between ``n`` and ``max_depth``.  Because the
    covered set is the entire branch space, an optimal cover may be taken
    to be an antichain and the minimum satisfies the exact recursion::

        cost(v) = psi(v)                         if len(v) == max_depth
        cost(v) = min(psi(v), sum over children) if len(v) >= n
        cost(v) = sum over children              if len(v) < n

    evaluated at the root.  (For proper subsets of the branch space the
    recursion would not be exact; this routine is deliberately restricted
    to the full space.)  It is evaluated bottom-up, in blocks of ``step``
    levels (the most with ``size**step <= BLOCK_ELEMENTS``, at least
    one) cut from ``max_depth`` up, so that the deepest block is full and a
    block holds one level of its costs, at most ``size**step``, at a time
    (a whole level of the tree would take ``size**max_depth``).  Blocks go depth-first
    in word order; within a block, ``psi`` runs once per word of length
    ``n..max_depth``, deepest level first and lexicographic within a level.
    ``psi``'s values are read as floats.  Each node adds its children in
    numpy's order and keeps ``min(psi(v), kids)`` (a NaN ``psi`` is kept, NaN
    children never win).  For finite non-negative ``psi`` the cost is the
    exact recursion over those floats to a relative ``max_depth * size * 2**-52``.
    """
    if not 1 <= n <= max_depth:
        raise DomainError("need 1 <= n <= max_depth, got n=%d, max_depth=%d" % (n, max_depth))
    size = alphabet.size
    _check_enum(size**max_depth, "cover tree of depth %d" % max_depth, (size,) * max_depth)
    step = largest_depth(size, BLOCK_ELEMENTS)

    def cost(prefix: Word) -> float:
        top = len(prefix)
        bottom = top + ((max_depth - top) % step or step)

        def level(length: int) -> Iterator[Word]:
            below = alphabet.words(length - top)
            return map(prefix.__add__, below) if prefix else below

        costs = np.fromiter(map(psi if bottom == max_depth else cost, level(bottom)), float)
        for length in range(bottom - 1, top - 1, -1):
            # consecutive runs of ``size`` costs are the children of one node
            with np.errstate(all="ignore"):  # inf - inf and overflow pass silently
                costs = costs.reshape(-1, size).sum(axis=1)
            if length >= n:
                p = np.fromiter(map(psi, level(length)), float)
                costs = np.where(costs < p, costs, p)
        return float(costs[0])

    return cost(())
