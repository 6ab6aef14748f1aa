"""Diameter models, their level aggregates and scans, and the axiom fits."""

import itertools
import json
import math
from collections import Counter
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


# -- model values and aggregates ----------------------------------------------


def test_multiplicative_diameters():
    model = MultiplicativeModel((1 / 3, 1 / 2), seed_diameter=2.0)
    assert model.diam(()) == 2.0
    assert model.diam((0,)) == pytest.approx(2 / 3, rel=1e-15)
    assert model.diam((0, 1)) == pytest.approx(1 / 3, rel=1e-15)
    assert model.level_max(2) == pytest.approx(1 / 2, rel=1e-15)


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
    for rho in (0.0, -0.5):
        with pytest.raises(DomainError, match="level ratio at level 2 must be positive"):
            LevelModel(lambda n: rho if n == 2 else 0.5, 2).diam((0, 0))


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


def assert_scans_match_the_reference(model, depth):
    split = model.split_ratio_extremes(depth)
    child = model.child_ratio_min(depth)
    assert len(split) == len(child) == depth + 1
    # every running entry, so the depth-1 stability fits are covered too
    for n in range(1, depth + 1):
        assert split[n] == scalar_split_ratio_extremes(model, n)
        assert child[n] == scalar_child_ratio_min(model, n)


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


@given(alphabets_and_depths(), st.data())
@settings(max_examples=25, deadline=None)
def test_rectangle_scans_match_the_reference(shape, data):
    (a, depth) = shape
    side = st.lists(st.floats(0.05, 0.95), min_size=a, max_size=a)
    assert_scans_match_the_reference(RectangleModel(data.draw(side), data.draw(side)), depth)


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
    """The one-split tie-break the block scan replaced."""
    near = np.flatnonzero(np.abs(x - (x.min() if lowest else x.max())) <= 1e-12)
    logs = np.unique(x[near])
    exps = np.array([math.exp(v) for v in logs.tolist()])
    best = float(exps.min() if lowest else exps.max())
    return best, int(near[np.isin(x[near], logs[exps == best])][0])


def per_split_ratio_extremes(model, depth):
    """``split_ratio_extremes`` with one tie-break per split of each level."""
    L, a = model._scan_levels(depth)
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
        assert model.split_ratio_extremes(depth) == per_split_ratio_extremes(model, depth)


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
    assert model.split_ratio_extremes(depth) == per_split_ratio_extremes(model, depth)
    # two tie-breaks (least, greatest) per block of splits; the child scan passes one row
    blocks = [shape for shape in rows if len(shape) == 2][::2]
    splits = sum(n - 1 for n in range(2, depth + 1))
    assert sum(k for k, _ in blocks) == splits and len(blocks) < splits
    assert all(k <= max(1, BLOCK_ELEMENTS // width) for k, width in blocks)
    assert blocks[1 - depth :] == [(1, 2**depth)] * (depth - 1)


# -- level arrays and tie-breaks against the broadcasts they replaced -----------


def broadcast_rectangle_log_diams(model, branches):
    """``RectangleModel._log_diams`` as two broadcasts per level and out-of-place doubling."""
    la = lb = np.zeros(1)
    for b in branches:
        la = (la[:, None] + model._la[:b]).ravel()
        lb = (lb[:, None] + model._lb[:b]).ravel()
    return 0.5 * np.logaddexp(2 * la, 2 * lb)


def three_temporaries_level_log_sum(model, t, n, subtree=None):
    """``DiameterModel.level_log_sum`` shifting and exponentiating out of place."""
    vals = t * model._level_log_diams(n, subtree)
    m = float(np.max(vals))
    return m + math.log(float(np.sum(np.exp(vals - m))))


def isin_extreme(x, lowest):
    """``models._extreme`` finding its witness with ``np.isin``."""
    gap = x - x.min(axis=-1, keepdims=True) if lowest else x.max(axis=-1, keepdims=True) - x
    near = np.flatnonzero(gap <= 1e-12)
    logs = np.sort(x.ravel()[near])
    logs = np.concatenate((logs[:1], logs[1:][logs[1:] != logs[:-1]]))
    exps = np.array([math.exp(v) for v in logs.tolist()])
    best = float(exps.min() if lowest else exps.max())
    return best, int((near[np.isin(x.ravel()[near], logs[exps == best])] % x.shape[-1]).min())


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


@given(rectangles(), st.data())
@settings(max_examples=60, deadline=None)
def test_rectangle_levels_and_sums_are_the_broadcasts_bit_for_bit(model, data):
    a = model.alphabet.size
    branches = data.draw(st.lists(st.integers(1, a), max_size=12 if a == 2 else 6))
    subtree = SubTree(branches) if data.draw(st.booleans()) else None
    if subtree is None:
        branches = [a] * len(branches)
    n, t = len(branches), data.draw(st.floats(-40.0, 40.0))
    got = model._level_log_diams(n, subtree)
    want = broadcast_rectangle_log_diams(model, branches)
    assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))
    want_sum = three_temporaries_level_log_sum(model, t, n, subtree)
    assert model.level_log_sum(t, n, subtree) == want_sum
    # the sum works on its own temporary: the cached level is untouched
    assert np.array_equal(model._level_log_diams(n, subtree), want)


@given(st.data(), st.sampled_from([0.25, 1 / 3, 0.1]), st.integers(2, 3))
@settings(max_examples=40, deadline=None)
def test_general_level_sums_are_the_three_temporaries_bit_for_bit(data, step, a):
    """Log-diameters on a grid: many terms tie, and ``m`` is attained often."""
    weight = data.draw(st.lists(st.integers(-6, -1), min_size=a, max_size=a))
    model = GeneralModel(lambda w: step * sum(weight[s] for s in w), Alphabet(a))
    n, t = data.draw(st.integers(0, 5)), data.draw(st.floats(-40.0, 40.0))
    assert model.level_log_sum(t, n) == three_temporaries_level_log_sum(model, t, n)


@given(rectangles(), st.integers(2, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_extreme_equals_the_isin_version(model, n, data):
    """Split blocks of a level (equal-ratio rectangles tie everywhere), a row
    per split, some rows NaN; and a child-ratio row."""
    if model.alphabet.size > 2:
        n = min(n, 4)
    L, a = model._scan_levels(n)
    ms = range(1, n)
    x = np.stack([(L[n].reshape(a**m, -1) - L[m][:, None] - L[n - m]).ravel() for m in ms])
    nan_rows = data.draw(st.sets(st.integers(0, len(ms) - 1)))
    x[sorted(nan_rows)] = np.nan
    blocks = [x, (L[n].reshape(-1, a) - L[n - 1][:, None]).ravel()]
    for block, lowest in itertools.product(blocks, (True, False)):
        if np.isnan(block).all():  # no row has an extreme: both refuse
            for extreme in (models._extreme, isin_extreme):
                with pytest.raises(ValueError):
                    extreme(block, lowest)
        else:
            assert models._extreme(block, lowest) == isin_extreme(block, lowest)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_extreme_equals_the_isin_version_on_last_ulp_ties(data):
    """Logs one or two ulps apart, so several distinct logs round to the best ratio."""
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 30))
    base = data.draw(st.sampled_from([-1.0, -0.5, math.log(1 / 3), 0.7]))
    ulps = data.draw(st.lists(st.integers(-2, 2), min_size=rows * cols, max_size=rows * cols))
    x = np.array([base + k * math.ulp(base) for k in ulps]).reshape(rows, cols)
    x[sorted(data.draw(st.sets(st.integers(0, rows - 1), max_size=rows - 1)))] = np.nan
    for lowest in (True, False):
        assert models._extreme(x, lowest) == isin_extreme(x, lowest)


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


# -- kept scans ---------------------------------------------------------------------


def wobbly_general_model():
    logs = [math.log(c) for c in (0.27, 0.22, 0.3)]
    return GeneralModel(
        lambda w: sum(logs[s] for s in w) + 0.04 * math.cos(sum(w) + len(w)), Alphabet(3)
    )


SCAN_MODELS = [
    wobbly_general_model,
    lambda: RectangleModel((0.5, 0.3), (0.4, 0.45)),
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
