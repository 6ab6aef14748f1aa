"""Diameter models, their level aggregates and scans, and the axiom fits."""

import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranlab import (
    Alphabet,
    DomainError,
    EnumerationCapError,
    GeneralModel,
    LevelModel,
    MultiplicativeModel,
    RectangleModel,
    SubTree,
    attractor_cloud,
    pressure_zero,
    validate_cmc,
    validate_wcmc,
)
from moranlab import cli, models
from moranlab.words import BLOCK_ELEMENTS
from moranlab.specio import LoadedSpec, load_spec

SPECS = Path(__file__).resolve().parent.parent / "specs"


def cantor_model():
    return MultiplicativeModel((1 / 3, 1 / 3))


def supercantor_model():
    # diam(level n) = prod_k 2^(-2 + 1/k): slightly slower than 4^-n.
    return LevelModel(lambda n: 2.0 ** (-2 + 1 / n), 2)


def nsq_model():
    # diam(level n) = 2^(-n^2)
    return LevelModel(lambda n: 2.0 ** (-(2 * n - 1)), 2)


def selfaffine_rectangle():
    # equal ratios per side, as in specs/selfaffine.json: one word per level
    return RectangleModel((1 / 3, 1 / 3), (1 / 4, 1 / 4))


# -- model values and aggregates ----------------------------------------------


@given(
    st.integers(2, 4),
    st.floats(1e-3, 0.999),
    st.sampled_from([1.0, 2.0, 0.7, math.sqrt(2)]),
    st.lists(st.integers(0, 40), min_size=1, max_size=8),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_multiplicative_diameters(a, ratio, seed, lengths, data):
    """Equal ratios: ``diam`` is the product the stopping walk carries, within
    ``n`` roundings of the exact one; ``log_diam`` is ``log_scale + n * log_ratio``,
    within two roundings of that exact sum."""
    model = MultiplicativeModel((1 / 3, 1 / 2), seed_diameter=2.0)
    assert model.diam(()) == 2.0
    assert model.diam((0,)) == pytest.approx(2 / 3, rel=1e-15)
    assert model.diam((0, 1)) == pytest.approx(1 / 3, rel=1e-15)
    assert model.level_max(2) == pytest.approx(1 / 2, rel=1e-15)
    # equal ratios read a per-length table, grown here in the drawn (unsorted) order
    model = MultiplicativeModel([ratio] * a, seed_diameter=seed)
    scale, step = Fraction(model.log_scale), Fraction(model.log_ratios[0])
    for n in lengths:
        word = tuple(data.draw(st.lists(st.integers(0, a - 1), min_size=n, max_size=n)))
        carried = np.array([model.seed_diameter])
        for s in word:
            carried = model.child_diams(carried, None)[s : s + 1]
        assert model.diam(word) == carried[0]
        exact = Fraction(model.seed_diameter) * Fraction(ratio) ** n
        assert abs(Fraction(model.diam(word)) - exact) <= n * 2**-52 * exact
        assert model.log_diam(word) == model.level_log_diam(n)
        error = abs(Fraction(model.log_diam(word)) - (scale + n * step))
        assert error <= 2**-52 * (abs(scale) + n * abs(step))


def test_multiplicative_level_sum_matches_enumeration():
    model = MultiplicativeModel((1 / 3, 1 / 2))
    for t in (0.3, 0.7, 1.0):
        for n in (1, 2, 4):
            brute = math.log(
                sum(model.diam(w) ** t for w in model.alphabet.words(n))
            )
            assert model.level_log_sum(t, n) == pytest.approx(brute, abs=1e-12)


def test_suffix_sum_composes_with_level_sum():
    """Level 5 is level 2 weighted by each prefix's window ratio over 3 levels."""
    model = MultiplicativeModel((1 / 3, 1 / 2), seed_diameter=3.0)
    general = GeneralModel(model.log_diam, Alphabet(2), seed_diameter=3.0)
    t, full = 0.6, SubTree((2,) * 5)
    (ratio,) = model.window_ratios(t, 5, full)[2][:, 2]
    split = model.level_log_sum(t, 2) + math.log(ratio)
    assert model.level_log_sum(t, 5) == pytest.approx(split, abs=1e-12)
    ratios = general.window_ratios(t, 5, full)[2][:, 2]
    assert ratios == pytest.approx([ratio] * 4, rel=1e-12)
    prefixes = [general.diam(w) ** t for w in general.alphabet.words(2)]
    split = math.log(sum(d * q for d, q in zip(prefixes, ratios)))
    assert general.level_log_sum(t, 5) == pytest.approx(split, abs=1e-12)


def test_multiplicative_input_validation():
    with pytest.raises(DomainError):
        MultiplicativeModel((0.5,))
    with pytest.raises(DomainError):
        MultiplicativeModel((0.5, 1.0))
    with pytest.raises(DomainError):
        MultiplicativeModel((0.5, 0.5), seed_diameter=0.0)


# a NaN seed diameter passed every ``seed_diameter <= 0`` check, an infinite one ``> 0``
@pytest.mark.parametrize("seed", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("build", [
    lambda seed: MultiplicativeModel((0.5, 0.5), seed_diameter=seed),
    lambda seed: LevelModel(lambda n: 0.5, 2, seed_diameter=seed),
    lambda seed: GeneralModel(lambda w: -float(len(w)), Alphabet(2), seed_diameter=seed),
], ids=["multiplicative", "level", "general"])
def test_models_reject_a_seed_diameter_that_is_not_positive(build, seed):
    with pytest.raises(DomainError, match="seed diameter must be positive"):
        build(seed)


def test_level_model_values():
    model = supercantor_model()
    assert model.diam((0,)) == pytest.approx(0.5, rel=1e-15)
    assert model.diam((1,)) == model.diam((0,))
    assert model.diam((0, 1)) == pytest.approx(2.0 ** (-4 + 1.5), rel=1e-14)
    # count * diam^t, exactly
    assert model.level_log_sum(0.5, 3) == pytest.approx(
        math.log(8) + 0.5 * model.log_diam((0, 0, 0)), abs=1e-12
    )
    for rho in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="level ratio at level 2 must be positive and finite"):
            LevelModel(lambda n: rho if n == 2 else 0.5, 2).diam((0, 0))


@pytest.mark.parametrize("build", [
    lambda: LevelModel(lambda n: 0.5, 2),
    lambda: MultiplicativeModel((1 / 3, 1 / 3)),
    lambda: RectangleModel((1 / 3, 1 / 3), (1 / 4, 1 / 4)),
], ids=["level", "multiplicative", "rectangle"])
def test_level_log_diam_refuses_a_negative_length(build):
    """Refused as the level aggregates refuse a negative depth, also once a
    deeper level is kept (a negative index would read the deepest one)."""
    model = build()
    for deepest in (None, 5):
        if deepest is not None:
            assert model.level_log_diam(deepest) is not None
        for n in (-1, -3):
            with pytest.raises(DomainError, match="depth must be >= 0, got %d" % n):
                model.level_log_diam(n)
    with pytest.raises(DomainError, match="depth must be >= 0, got -1"):
        model.level_log_sum(1.0, -1)


def test_general_model_agrees_with_structured_one():
    ref = MultiplicativeModel((1 / 3, 1 / 2))
    gen = GeneralModel(ref.log_diam, Alphabet(2))
    for t in (0.4, 1.0):
        for n in (1, 3):
            assert gen.level_log_sum(t, n) == pytest.approx(
                ref.level_log_sum(t, n), abs=1e-12
            )
    assert gen.level_max(3) == pytest.approx(ref.level_max(3), rel=1e-12)


def test_rectangle_model_diagonals():
    model = RectangleModel((1 / 2, 1 / 4), (1 / 4, 1 / 2))
    assert model.seed_diameter == pytest.approx(math.sqrt(2), rel=1e-15)
    assert model.diam((0,)) == pytest.approx(math.hypot(1 / 2, 1 / 4), rel=1e-12)
    brute = math.log(sum(model.diam(w) ** 0.8 for w in model.alphabet.words(3)))
    assert model.level_log_sum(0.8, 3) == pytest.approx(brute, abs=1e-10)


def test_rectangle_model_validation():
    with pytest.raises(DomainError):
        RectangleModel((1 / 2,), (1 / 2,))
    with pytest.raises(DomainError):
        RectangleModel((1 / 2, 1.5), (1 / 2, 1 / 2))


# -- depth 0 is the seed, a negative depth is refused ------------------------------


def assert_depths_checked(model):
    """``level_log_sum`` at depth 0 is the seed term; below 0 it raises."""
    t = 0.7
    assert model.level_log_sum(t, 0) == pytest.approx(t * math.log(model.seed_diameter), abs=1e-15)
    for depth in (-1, -3):
        with pytest.raises(DomainError, match="depth must be >= 0"):
            model.level_log_sum(t, depth)


def test_multiplicative_model_refuses_a_negative_depth():
    assert_depths_checked(MultiplicativeModel((1 / 3, 1 / 3), seed_diameter=2.0))


def test_level_model_refuses_a_negative_depth():
    model = LevelModel(lambda n: 0.5, 2, seed_diameter=2.0)
    model.level_log_sum(0.7, 5)  # depth -1 once read the last level cached
    assert_depths_checked(model)


def test_general_model_refuses_a_negative_depth():
    ref = MultiplicativeModel((1 / 3, 1 / 2), seed_diameter=2.0)
    assert_depths_checked(GeneralModel(ref.log_diam, Alphabet(2), seed_diameter=2.0))


def test_rectangle_model_refuses_a_negative_depth():
    assert_depths_checked(RectangleModel((1 / 2, 1 / 4), (1 / 4, 1 / 2)))


# -- axiom systems ---------------------------------------------------------------


def test_cantor_weak_axioms():
    report = validate_wcmc(cantor_model(), 10)
    assert report.passed
    assert report.scheme == "wcmc"
    assert report.check("W1").status == "not-checkable"
    assert report.check("W2").status == "holds"
    assert report.check("W3").constant == 1.0
    assert report.check("W4").constant == 3.0
    assert report.constant == 3.0


def test_cantor_two_sided_axiom():
    report = validate_cmc(cantor_model(), 10)
    assert report.passed
    assert report.check("C1").constant == 1.0
    assert report.check("C1").status == "holds"


def test_supercantor_axioms_hold_with_slow_constant():
    report = validate_wcmc(supercantor_model(), 12)
    assert report.passed
    w4 = report.check("W4")
    assert w4.status == "holds"
    assert w4.constant == pytest.approx(2.0 ** (2 - 1 / 12), rel=1e-12)
    assert w4.stability <= 1.5


def test_super_fast_decay_violates_the_lower_control():
    """Diameters 2^(-n^2): the child/parent fit doubles its growth each level."""
    report = validate_wcmc(nsq_model(), 20)
    assert not report.passed
    w4 = report.check("W4")
    assert w4.status == "violated"
    assert w4.constant == pytest.approx(2.0**39, rel=1e-9)
    assert w4.stability == pytest.approx(4.0, rel=1e-12)
    assert len(w4.witness) == 20


def test_super_fast_decay_violates_two_sided_control():
    report = validate_cmc(nsq_model(), 12)
    assert not report.passed
    assert report.check("C1").status == "violated"


def test_violated_notes_are_pinned_byte_for_byte():
    """One verdict rule behind W3, W4 and C1; each keeps its own note, as W2 does."""
    # diameters 50 * 0.98^n stay above 1/D up to depth 5
    report = validate_wcmc(MultiplicativeModel([0.99, 0.98], seed_diameter=50.0), 5)
    assert not report.passed and report.check("W2").note == (
        "no level up to depth 5 drops below 1/D = 0.98 for fitted D"
    )
    # diam(level n) = 2^(-8 sqrt(n)): the split fit grows by 2.25 from depth 3 to 4
    concave = LevelModel(lambda n: 2.0 ** (8 * (math.sqrt(n - 1) - math.sqrt(n))), 2)
    assert validate_wcmc(concave, 4).check("W3").note == (
        "fitted constant grew by 2.25 between depths"
    )
    assert validate_wcmc(nsq_model(), 20).check("W4").note == (
        "minimal witnessed child/parent ratio 1.81899e-12; "
        "fitted constant grew by 4 between depths (diverging)"
    )
    assert validate_cmc(nsq_model(), 12).check("C1").note == (
        "two-sided split ratio within [2.11758e-22, 0.25]; "
        "fitted constant grew by 4.1e+03 between depths (diverging)"
    )


def test_axiom_report_plumbing():
    report = validate_wcmc(cantor_model(), 6)
    with pytest.raises(KeyError):
        report.check("C9")
    # the CLI renders the report: its validate handler on the same model
    args = cli.build_parser().parse_args(["validate", "model.json", "--depth", "6"])
    text, code = args.func(LoadedSpec("cantor", model=cantor_model()), args)
    data = json.loads(text)
    assert code == 0 and list(data) == ["scheme", "depth", "passed", "constant", "checks"]
    assert data["checks"] == json.loads(json.dumps([c._asdict() for c in report.checks]))
    assert data["scheme"] == "wcmc"
    assert data["passed"] is True
    assert {c["axiom"] for c in data["checks"]} == {"W1", "W2", "W3", "W4"}
    with pytest.raises(DomainError):
        validate_wcmc(cantor_model(), 0)
    with pytest.raises(DomainError):
        validate_cmc(cantor_model(), 0)


def test_cmc_at_depth_1_cannot_check_c1(capsys):
    """Depth 1 exposes no split: C1 and W3 are not checkable; the cmc report fails nothing."""
    code = cli.main(["validate", str(SPECS / "cantor.json"), "--axioms", "cmc", "--depth", "1"])
    c1 = json.loads(capsys.readouterr().out)["checks"][-1]
    assert (code, c1["axiom"], c1["status"]) == (0, "C1", "not-checkable")
    assert validate_wcmc(cantor_model(), 1).check("W3").status == "not-checkable"


def test_shipped_model_specs_reproduce_the_fits():
    nsq = load_spec(SPECS / "nsq.json").get_model()
    report = validate_wcmc(nsq, 20)
    assert report.check("W4").constant == pytest.approx(2.0**39, rel=1e-9)
    sc = load_spec(SPECS / "supercantor.json").get_model()
    report = validate_wcmc(sc, 12)
    assert report.passed


# -- ratio scans against the scalar reference ----------------------------------------


def scalar_split_ratio_extremes(model, depth):
    """The word-by-word scan the level-array scan replaced (three ``log_diam`` per split)."""
    if depth < 2:
        return None
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


def scalar_child_ratio_min(model, depth):
    best, wit = math.inf, None
    for w in model.alphabet.words_up_to(depth):
        r = math.exp(model.log_diam(w) - model.log_diam(w[:-1]))
        if r < best:
            best, wit = r, w
    return best, wit


def scan_tolerance(model, depth):
    """The relative bound that holds a scan to the scalar references: a ratio is
    ``exp`` of three added log-diameters, each a sum of at most ``depth`` terms that
    two evaluations may round apart by ``depth`` ulps of the largest one, ``top``."""
    words = itertools.chain([()], model.alphabet.words_up_to(depth))
    top = max(abs(model.log_diam(w)) for w in words)
    return 2**-52 * (3 * depth * (1 + top) + 1)


def split_ratios(model, w):
    """The scalar reference's ratios of the word ``w``, one per split."""
    lw = model.log_diam(w)
    return [math.exp(lw - model.log_diam(w[:m]) - model.log_diam(w[m:])) for m in range(1, len(w))]


def assert_near(got, want, tol):
    assert abs(got - want) <= tol * abs(want)


def assert_split_entry(entry, want, model, n, tol):
    """A split entry ``(lo, hi, wlo, whi)`` at depth ``n`` against the reference's:
    both extremes within ``tol`` (relative), and each witness, a word of length
    2..n, has a split whose reference ratio is that extreme within ``tol``."""
    lo, hi, wlo, whi = entry
    assert_near(lo, want[0], tol)
    assert_near(hi, want[1], tol)
    assert 2 <= len(wlo) <= n and 2 <= len(whi) <= n
    assert_near(min(split_ratios(model, wlo)), lo, tol)
    assert_near(max(split_ratios(model, whi)), hi, tol)


def assert_scans_match_the_reference(model, depth, words=None):
    """Every running entry, so the depth-1 stability fits are covered too, against
    the scalar references over ``words`` (a model, ``model`` by default)."""
    split = model.split_ratio_extremes(depth)
    child = model.child_ratio_min(depth)
    assert len(split) == len(child) == depth + 1
    ref = model if words is None else words
    tol = scan_tolerance(ref, depth)
    assert split[1] is None
    for n in range(1, depth + 1):
        if n > 1:
            assert_split_entry(split[n], scalar_split_ratio_extremes(ref, n), ref, n, tol)
        (v, w), want = child[n], scalar_child_ratio_min(ref, n)
        assert_near(v, want[0], tol)
        assert 1 <= len(w) <= n
        assert_near(math.exp(ref.log_diam(w) - ref.log_diam(w[:-1])), v, tol)


@st.composite
def rectangles(draw):
    """Random sides, or equal ratios per side as in ``specs/selfaffine.json``
    (every word of a level ties)."""
    a = draw(st.integers(2, 4))
    if draw(st.booleans()):
        side = st.lists(st.floats(1e-3, 0.999), min_size=a, max_size=a)
        return RectangleModel(draw(side), draw(side))
    ra, rb = draw(st.sampled_from([(1 / 3, 1 / 4), (0.5, 0.5), (0.3, 0.7), (0.9, 1e-3)]))
    return RectangleModel([ra] * a, [rb] * a)


@st.composite
def alphabets_and_depths(draw):
    a = draw(st.integers(2, 4))
    # keep the scalar reference small: at most 3**7 words per level
    return a, draw(st.integers(1, 7 if a < 4 else 5))


@given(
    alphabets_and_depths(),
    st.sampled_from([0.25, 0.5, 1 / 3, 0.1]),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_general_scans_match_the_reference_with_ties(shape, step, data):
    """Log-diameters on a grid of ``step``: many ratios tie exactly or to the last ulp."""
    (a, depth) = shape
    weight = data.draw(st.lists(st.integers(-6, -1), min_size=a, max_size=a))
    wobble = data.draw(st.lists(st.integers(-2, 2), min_size=1, max_size=5))
    seed = data.draw(st.sampled_from([0.5, 1.0, 2.0]))

    def log_diam(w):
        k = sum((i + 1) * s for i, s in enumerate(w)) % len(wobble)
        return step * (sum(weight[s] for s in w) + wobble[k])

    assert_scans_match_the_reference(GeneralModel(log_diam, Alphabet(a), seed), depth)


@given(rectangles(), st.data())
@settings(max_examples=25, deadline=None)
def test_rectangle_scans_match_the_reference(model, data):
    """Random sides, and equal ratios per side, whose scans read one word per level."""
    a = model.alphabet.size
    assert_scans_match_the_reference(model, data.draw(st.integers(1, 7 if a < 4 else 5)))


@given(alphabets_and_depths(), st.data())
@settings(max_examples=25, deadline=None)
def test_level_scans_match_the_reference(shape, data):
    (a, depth) = shape
    ratios = data.draw(
        st.lists(st.sampled_from([0.5, 0.25, 0.3, 2.0**-0.5]), min_size=depth, max_size=depth)
    )
    model = LevelModel(lambda n: ratios[n - 1], a)
    assert_scans_match_the_reference(model, depth)


def test_sampled_symbolic_model_scans_match_the_reference():
    system = load_spec(SPECS / "symbolifs.json").require_system()
    model = system.induced_model(attractor_cloud(system, 8))
    assert isinstance(model, GeneralModel)
    assert_scans_match_the_reference(model, 7)


def per_split_extreme(x, lowest):
    """The one-split scan the block scan replaced: the split's extreme ratio, first index."""
    i = int(x.argmin() if lowest else x.argmax())
    return math.exp(x[i]), i


def scan_levels(model, depth):
    """Level log-diameter arrays ``0..depth`` and their arity, as the array scan
    reads them; where every level shares one diameter, a one-letter tree of those values."""
    lds = [model.level_log_diam(n) for n in range(depth + 1)]
    if None in lds:
        return [model._level_log_diams(n) for n in range(depth + 1)], model.alphabet.size
    return [np.array([v]) for v in lds], 1


def per_split_ratio_extremes(model, depth):
    """``split_ratio_extremes`` with one tie-break per split of each level."""
    L, a = scan_levels(model, depth)
    out = [None, None]
    lo = hi = (math.inf, 0, 0)
    for n in range(2, depth + 1):
        for m in range(1, n):
            x = (L[n].reshape(a**m, -1) - L[m][:, None] - L[n - m][None, :]).ravel()
            v, i = per_split_extreme(x, lowest=True)
            lo = min(lo, (v, n, i))
            v, i = per_split_extreme(x, lowest=False)
            hi = min(hi, (-v, n, i))
        word_at = lambda i, n: tuple(int(s) for s in np.unravel_index(i, (a,) * n))  # noqa: E731
        out.append((lo[0], -hi[0], word_at(lo[2], lo[1]), word_at(hi[2], hi[1])))
    return out


@given(
    alphabets_and_depths(),
    st.lists(st.sampled_from([0.5, 0.25, 0.3, 0.1, 2.0**-0.5]), min_size=4, max_size=4),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_split_blocks_match_the_per_split_scan_on_ties(shape, ratios, data):
    """Exact and last-ulp ties between splits and words: the blocks keep the
    per-split values and the first witnesses."""
    a, depth = shape
    depth += 3 if a == 2 else 1
    logs = [math.log(r) for r in ratios[:a]]
    level = data.draw(st.lists(st.sampled_from(ratios), min_size=depth, max_size=depth))
    side = data.draw(st.lists(st.floats(0.05, 0.95), min_size=a, max_size=a))
    seed = data.draw(st.sampled_from([0.5, 1.0, 3.0]))
    for model in (
        GeneralModel(lambda w: sum(logs[s] for s in w), Alphabet(a), seed),
        LevelModel(lambda n: level[n - 1], a),
        RectangleModel(side, side),
    ):
        assert_split_blocks_match(model, depth)


def assert_split_blocks_match(model, depth):
    """The block scan against the per-split scan, as against the scalar references."""
    got, want = model.split_ratio_extremes(depth), per_split_ratio_extremes(model, depth)
    tol = scan_tolerance(model, depth)
    for n in range(2, depth + 1):
        assert_split_entry(got[n], want[n], model, n, tol)


def test_split_blocks_past_the_block_size_hold_one_split(monkeypatch):
    rows = []
    extreme = models._extreme

    def recording(x, lowest):
        rows.append(x.shape)
        return extreme(x, lowest)

    monkeypatch.setattr(models, "_extreme", recording)
    model = RectangleModel((0.5, 0.3), (0.4, 0.45))
    depth = 14
    assert 2**depth > BLOCK_ELEMENTS
    assert_split_blocks_match(model, depth)
    # two tie-breaks (least, greatest) per block of splits; the child scan passes one row
    blocks = [shape for shape in rows if len(shape) == 2][::2]
    splits = sum(n - 1 for n in range(2, depth + 1))
    assert sum(k for k, _ in blocks) == splits and len(blocks) < splits
    assert all(k <= max(1, BLOCK_ELEMENTS // width) for k, width in blocks)
    assert blocks[1 - depth :] == [(1, 2**depth)] * (depth - 1)


# -- length-only scans on per-length floats ------------------------------------------


def one_letter_tree_scan(model, depth):
    """The split and child scans of a length-only model as the array scan took
    them: a one-letter tree of ``level_log_diam``, one ``_extreme`` per block."""
    L = [np.array([model.level_log_diam(n)]) for n in range(depth + 1)]
    split, child = [None, None], [None]
    lo = hi = least = (math.inf, 0, 0)
    for n in range(1, depth + 1):
        v, i = models._extreme(L[n] - L[n - 1], lowest=True)
        least = min(least, (v, n, i))
        child.append((least[0], (0,) * least[1]))
        if n > 1:
            x = np.stack([L[n] - L[m] - L[n - m] for m in range(1, n)])
            v, i = models._extreme(x, lowest=True)
            lo = min(lo, (v, n, i))
            v, i = models._extreme(x, lowest=False)
            hi = min(hi, (-v, n, i))
            split.append((lo[0], -hi[0], (0,) * lo[1], (0,) * hi[1]))
    return split, child


class FirstWords:
    """A length-only model seen through its words ``(0,)*n`` alone.  Every word
    of a level has the level's log-diameter, so the other words repeat the
    first word's ratios, which never pass the scalar references' strict ``<``."""

    def __init__(self, model):
        self.log_diam = model.log_diam
        self.alphabet = self

    def words(self, n):
        return [(0,) * n]

    def words_up_to(self, depth):
        return [(0,) * n for n in range(1, depth + 1)]


@st.composite
def length_only_models(draw):
    """Level models with increasing, decreasing, exactly tied and last-ulp tied
    ratios, and equal-ratio rectangles with ``a >= b`` and ``a < b``."""
    a = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["up", "down", "tied", "ulp", "rectangle"]))
    if kind == "rectangle":
        ra, rb = sorted(draw(st.lists(st.floats(1e-3, 0.999), min_size=2, max_size=2)))
        if draw(st.booleans()):
            ra, rb = rb, ra
        return RectangleModel([ra] * a, [rb] * a)
    if kind in ("up", "down"):
        ratios = sorted(draw(st.lists(st.floats(1e-3, 0.999), min_size=14, max_size=14)),
                        reverse=kind == "down")
    else:
        base = draw(st.sampled_from([0.5, 1 / 3, 0.3, 2.0**-0.5, 0.1]))
        ulps = st.integers(-2, 2) if kind == "ulp" else st.just(0)
        ratios = [base + k * math.ulp(base)
                  for k in draw(st.lists(ulps, min_size=14, max_size=14))]
    seed = draw(st.sampled_from([0.5, 1.0, 3.0]))
    return LevelModel(lambda n: ratios[n - 1], a, seed)


@given(length_only_models(), st.integers(1, 14))
@settings(max_examples=60, deadline=None)
def test_length_only_scans_equal_the_references(model, depth):
    """Every running entry is the one-letter tree's, and the scalar references'
    to rounding; to depth 5 the references also walk the whole alphabet."""
    split, child = model.split_ratio_extremes(depth), model.child_ratio_min(depth)
    assert (split, child) == one_letter_tree_scan(model, depth)
    assert_scans_match_the_reference(model, depth, FirstWords(model))
    assert_scans_match_the_reference(model, min(depth, 5))


def test_length_only_scans_call_no_tie_break(monkeypatch):
    rows = []
    extreme = models._extreme

    def recording(x, lowest):
        rows.append(x.shape)
        return extreme(x, lowest)

    monkeypatch.setattr(models, "_extreme", recording)
    for model in (nsq_model(), selfaffine_rectangle(), supercantor_model()):
        for validate in (validate_wcmc, validate_cmc):
            assert validate(model, 12).depth == 12
    assert rows == []
    validate_wcmc(RectangleModel((0.5, 0.3), (0.4, 0.45)), 4)  # the arrays still break ties
    assert rows


# -- non-finite log-diameters -----------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_log_diameters_are_refused(bad):
    """One word of level 2 has a non-finite log-diameter: no zero, no bare
    ``ValueError``, but a ``DomainError`` naming the word."""
    def log_diam(w):
        return bad if w == (0, 1) else -float(len(w))

    message = "log-diameter of word 0-1 is %s; diameters must be positive and finite" % bad
    for call in (
        lambda model: pressure_zero(model, 2),
        lambda model: validate_wcmc(model, 2),
        lambda model: validate_cmc(model, 3),
        lambda model: model.window_ratios(0.5, 2, SubTree((2, 2))),
    ):
        with pytest.raises(DomainError, match=re.escape(message)):
            call(GeneralModel(log_diam, Alphabet(2)))

    class Broken(LevelModel):
        def level_log_diam(self, n):
            return bad if n == 2 else super().level_log_diam(n)

    # every reader of the hook refuses it, naming the level's first word
    message = "log-diameter of word 0-0 is %s; diameters must be positive and finite" % bad
    for call in (
        lambda model: model.level_log_sum(1.0, 2),
        lambda model: model.level_max(2),
        lambda model: pressure_zero(model, 2),
        lambda model: validate_wcmc(model, 3),
        lambda model: validate_cmc(model, 3),
        lambda model: model.window_ratios(0.5, 3, SubTree((2, 1, 2))),
    ):
        with pytest.raises(DomainError, match=re.escape(message)):
            call(Broken(lambda n: 0.5, 2))


# -- level arrays and tie-breaks against their references ------------------------


def exact_rectangle_log_diams(model, branches):
    """``0.5 * log(A**2 + B**2)`` per word of the level, lexicographic, with the side
    products ``A`` and ``B`` taken exactly over the model's floats; one rounding of
    the sum and one of ``log``."""
    A = B = [Fraction(1)]
    for b in branches:
        A = [x * Fraction(v) for x in A for v in model.a[:b]]
        B = [y * Fraction(v) for y in B for v in model.b[:b]]
    return [0.5 * math.log(float(x * x + y * y)) for x, y in zip(A, B)]


def rectangle_tolerance(model, n):
    """An absolute bound on a level-``n`` log-diameter against the exact one: each
    side's log is a sum of ``n`` logs of size up to ``top``, each a few ulps off,
    added with ``n`` roundings; ``logaddexp`` and the reference add a few ulps more."""
    top = float(np.abs(np.concatenate((model._la, model._lb))).max())
    return 2**-52 * (n + 4) * (1 + n * top)


def three_temporaries_level_log_sum(model, t, n, subtree=None):
    """``DiameterModel.level_log_sum`` shifting and exponentiating out of place."""
    vals = t * model._level_log_diams(n, subtree)
    m = float(np.max(vals))
    return m + math.log(float(np.sum(np.exp(vals - m))))


@given(rectangles(), st.data())
@settings(max_examples=60, deadline=None)
def test_rectangle_levels_and_sums_are_the_exact_diagonals_to_rounding(model, data):
    """Every level log-diameter within ``rectangle_tolerance`` of the exact diagonal;
    the level sum within ``|t|`` times that, plus the roundings of two sums."""
    a = model.alphabet.size
    branches = data.draw(st.lists(st.integers(1, a), max_size=12 if a == 2 else 6))
    subtree = SubTree(branches) if data.draw(st.booleans()) else None
    if subtree is None:
        branches = [a] * len(branches)
    n, t = len(branches), data.draw(st.floats(-40.0, 40.0))
    got = model._level_log_diams(n, subtree)
    want = exact_rectangle_log_diams(model, branches)
    tol = rectangle_tolerance(model, n)
    assert got.shape == (len(want),)
    assert np.all(np.abs(got - want) <= tol)
    if model.level_log_diam(n) is not None:
        assert abs(model.level_log_diam(n) - want[0]) <= tol
    terms = [t * v for v in want]
    top = max(terms)
    want_sum = top + math.log(math.fsum(math.exp(v - top) for v in terms))
    bound = abs(t) * tol + 2**-52 * (len(want) + 4 + 2 * max(map(abs, terms)) + abs(want_sum))
    assert abs(model.level_log_sum(t, n, subtree) - want_sum) <= bound
    # the sum works on its own temporary: the cached level is untouched
    assert np.array_equal(model._level_log_diams(n, subtree), got)


@given(st.data(), st.sampled_from([0.25, 1 / 3, 0.1]), st.integers(2, 3))
@settings(max_examples=40, deadline=None)
def test_general_level_sums_are_the_three_temporaries_bit_for_bit(data, step, a):
    """Log-diameters on a grid: many terms tie, and ``m`` is attained often."""
    weight = data.draw(st.lists(st.integers(-6, -1), min_size=a, max_size=a))
    model = GeneralModel(lambda w: step * sum(weight[s] for s in w), Alphabet(a))
    n, t = data.draw(st.integers(0, 5)), data.draw(st.floats(-40.0, 40.0))
    assert model.level_log_sum(t, n) == three_temporaries_level_log_sum(model, t, n)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_extreme_is_the_least_ratio_at_a_column_that_attains_it(data):
    """Logs one or two ulps apart, so several distinct logs round to the extreme
    ratio: the value is the per-element ``math.exp`` extreme within one ulp
    (relative ``2**-52``), and the witness column holds a ratio within that of it."""
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 30))
    base = data.draw(st.sampled_from([-1.0, -0.5, math.log(1 / 3), 0.7]))
    ulps = data.draw(st.lists(st.integers(-2, 2), min_size=rows * cols, max_size=rows * cols))
    x = np.array([base + k * math.ulp(base) for k in ulps]).reshape(rows, cols)
    ratios = [[math.exp(v) for v in row] for row in x.tolist()]
    for lowest, pick in ((True, min), (False, max)):
        v, c = models._extreme(x, lowest)
        want = pick(map(pick, ratios))
        assert_near(v, want, 2**-52)
        assert_near(pick(row[c] for row in ratios), v, 2**-52)
        # the first column holding the extreme log
        best = x.min() if lowest else x.max()
        assert c == min(np.flatnonzero((x == best).any(axis=0)))
        if rows == 1:
            assert (v, c) == per_split_extreme(x[0], lowest)


def test_closed_form_scans():
    split = cantor_model().split_ratio_extremes(4)
    assert split[:2] == [None, None]
    assert split[2:] == [(1.0, 1.0, (0, 0), (0, 0))] * 3
    assert MultiplicativeModel((1 / 2, 1 / 5, 1 / 5)).child_ratio_min(2) == [
        None,
        (1 / 5, (1,)),
        (1 / 5, (1,)),
    ]
    assert nsq_model().child_ratio_min(3)[3] == (2.0**-5, (0, 0, 0))


def test_validators_read_each_log_diameter_once(monkeypatch):
    calls = Counter()
    weight = (math.log(0.3), math.log(0.5), math.log(0.2))

    def log_diam(w):
        calls[w] += 1
        return sum(weight[s] for s in w) + 0.1 * math.cos(sum(w))

    model = GeneralModel(log_diam, Alphabet(3))
    validate_wcmc(model, 6)
    validate_cmc(model, 6)
    assert len(calls) == sum(3**n for n in range(1, 7))
    assert max(calls.values()) == 1

    monkeypatch.setenv("MORANLAB_ENUM_CAP", "500")
    for validate in (validate_wcmc, validate_cmc):
        with pytest.raises(EnumerationCapError):
            validate(GeneralModel(log_diam, Alphabet(3)), 6)
        with pytest.raises(EnumerationCapError):
            validate(RectangleModel((0.5, 0.3), (0.4, 0.6)), 9)


def test_equal_ratio_rectangles_answer_from_one_word_per_level(monkeypatch):
    """Level sums, maxima and scans of an equal-ratio rectangle build no level
    wider than one word, so the enumeration cap does not meet them."""
    widths = []
    log_diams = RectangleModel._log_diams

    def recording(model, branches):
        widths.append(math.prod(branches))
        return log_diams(model, branches)

    monkeypatch.setattr(RectangleModel, "_log_diams", recording)
    monkeypatch.setenv("MORANLAB_ENUM_CAP", "500")
    kept = {"level_log_sum", "level_max", "_ratio_scan", "window_ratios"}
    assert not kept & vars(LevelModel).keys()
    for model in (selfaffine_rectangle(), nsq_model()):
        assert pressure_zero(model, 16).value > 0
        assert validate_wcmc(model, 12).depth == validate_cmc(model, 12).depth == 12
    assert max(widths, default=1) == 1
    for validate in (validate_wcmc, validate_cmc):
        with pytest.raises(EnumerationCapError):
            validate(RectangleModel((0.5, 0.3), (0.4, 0.6)), 12)
    assert max(widths) > 1  # the recorder sees the levels of unequal ratios


# -- kept scans ---------------------------------------------------------------------


def wobbly_general_model():
    logs = [math.log(c) for c in (0.27, 0.22, 0.3)]
    return GeneralModel(
        lambda w: sum(logs[s] for s in w) + 0.04 * math.cos(sum(w) + len(w)), Alphabet(3)
    )


SCAN_MODELS = [
    wobbly_general_model,
    lambda: RectangleModel((0.5, 0.3), (0.4, 0.45)),
    selfaffine_rectangle,
    nsq_model,
    supercantor_model,
    cantor_model,
]


@pytest.mark.parametrize("make", SCAN_MODELS)
def test_kept_scans_equal_a_fresh_models(make):
    model, depth = make(), 7
    for d in (depth, depth - 2, depth + 2, 1, 0):
        assert model.split_ratio_extremes(d) == make().split_ratio_extremes(d)
        assert model.child_ratio_min(d) == make().child_ratio_min(d)


@pytest.mark.parametrize("make", SCAN_MODELS)
def test_changing_a_returned_scan_leaves_the_model_unchanged(make):
    model = make()
    split, child = model.split_ratio_extremes(6), model.child_ratio_min(6)
    want_split, want_child = list(split), list(child)
    split[3] = None
    split.append("junk")
    del child[2:]
    assert model.split_ratio_extremes(6) == want_split
    assert model.split_ratio_extremes(4) == want_split[:5]
    assert model.child_ratio_min(6) == want_child
    assert model.child_ratio_min(4) == want_child[:5]


@pytest.mark.parametrize("make", SCAN_MODELS)
def test_validators_on_one_model_equal_fresh_ones(make):
    model = make()
    kept = [validate_wcmc(model, 8), validate_cmc(model, 8), validate_cmc(model, 5)]
    fresh = [validate_wcmc(make(), 8), validate_cmc(make(), 8), validate_cmc(make(), 5)]
    assert kept == fresh


def test_validators_scan_the_splits_once(monkeypatch):
    calls = []
    scan = models.DiameterModel._ratio_scan

    def counting(model, depth):
        calls.append(depth)
        return scan(model, depth)

    monkeypatch.setattr(models.DiameterModel, "_ratio_scan", counting)
    model = wobbly_general_model()
    validate_wcmc(model, 8)
    model.child_ratio_min(8)
    assert calls == [8]  # W3 and W4 read one pass
    validate_cmc(model, 8)
    validate_cmc(model, 6)
    assert calls == [8]
    validate_cmc(model, 9)  # deeper than any kept scan
    model.child_ratio_min(9)  # C1's pass scanned the children too
    assert calls == [8, 9]
