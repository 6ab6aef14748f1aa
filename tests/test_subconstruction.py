"""Dimension-prescribing subconstructions and the window check."""

import itertools
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranlab import cli, subconstruction
from moranlab import (
    DomainError,
    EnumerationCapError,
    GeneralModel,
    HEISENBERG,
    LevelModel,
    MultiplicativeModel,
    RectangleModel,
    StratificationData,
    SubTree,
    beta_minus,
    beta_plus,
    cantor_branch_sequence,
    carnot_branch_sequence,
    carnot_cmsc_verify,
    heisenberg_F_map,
    verify_cmsc,
)
from moranlab.spaces import heisenberg_gauge, heisenberg_inverse, heisenberg_multiply
from moranlab.specio import LoadedSpec, load_spec
from moranlab.words import Alphabet

SPECS = Path(__file__).resolve().parent.parent / "specs"
T_STAR = math.log(2) / math.log(3)


# -- stratifications and the beta functions ------------------------------------


def test_heisenberg_stratification():
    assert HEISENBERG.layer_dims == (2, 1)
    assert len(HEISENBERG.layer_dims) == 2
    assert HEISENBERG.topological_dim == 3
    assert HEISENBERG.homogeneous_dim == 4


def test_stratification_validation():
    with pytest.raises(DomainError):
        StratificationData(())
    with pytest.raises(DomainError):
        StratificationData((2, 0))


def test_beta_values_on_the_heisenberg_group():
    assert (beta_minus(HEISENBERG, 2.5), beta_plus(HEISENBERG, 2.5)) == (3.0, 3.5)
    assert (beta_minus(HEISENBERG, 1.5), beta_plus(HEISENBERG, 1.5)) == (1.5, 2.5)
    assert (beta_minus(HEISENBERG, 3.0), beta_plus(HEISENBERG, 3.0)) == (4.0, 4.0)
    assert beta_plus(HEISENBERG, 0.5) == 1.0


def test_beta_range_validation():
    with pytest.raises(DomainError):
        beta_minus(HEISENBERG, 0.0)
    with pytest.raises(DomainError):
        beta_plus(HEISENBERG, 3.5)


layer_lists = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4)


@given(layers=layer_lists, frac=st.floats(min_value=1e-3, max_value=1.0))
def test_beta_minus_never_exceeds_beta_plus(layers, frac):
    strat = StratificationData(tuple(layers))
    alpha = frac * strat.topological_dim
    lo, hi = beta_minus(strat, alpha), beta_plus(strat, alpha)
    assert lo <= hi + 1e-12
    assert alpha - 1e-12 <= lo  # each Euclidean unit costs at least weight 1
    assert hi <= strat.homogeneous_dim + 1e-12


def test_beta_endpoints_hit_the_homogeneous_dimension():
    for layers in ((2, 1), (1, 1, 2), (3,)):
        strat = StratificationData(layers)
        n = strat.topological_dim
        assert beta_minus(strat, n) == strat.homogeneous_dim
        assert beta_plus(strat, n) == strat.homogeneous_dim


# -- ternary greedy sequence ---------------------------------------------------


def test_cantor_sequence_examples():
    assert cantor_branch_sequence(0.4, 5) == (2, 1, 2, 1, 2)
    assert cantor_branch_sequence(0.01, 6) == (2, 1, 1, 1, 1, 1)
    assert cantor_branch_sequence(0.63, 8) == (2, 1, 2, 2, 2, 2, 2, 2)


def test_cantor_sequence_traps_the_level_product():
    """The greedy rule keeps 3^(-t n) * count(n) inside [1/2, 2]."""
    for t in (0.1, 0.4, 0.6):
        tree = cantor_branch_sequence(t, 20)
        count = 1
        for n, b in enumerate(tree, start=1):
            count *= b
            assert 0.5 <= count * 3.0 ** (-t * n) <= 2.0


def test_cantor_sequence_range_checks():
    with pytest.raises(DomainError):
        cantor_branch_sequence(0.0, 5)
    with pytest.raises(DomainError):
        cantor_branch_sequence(T_STAR, 5)
    with pytest.raises(DomainError):
        cantor_branch_sequence(0.4, 0)


# -- the window check -------------------------------------------------------------


def ternary_model():
    return MultiplicativeModel((1 / 3, 1 / 3, 1 / 3))


def test_window_holds_for_the_greedy_subtree():
    report = verify_cmsc(ternary_model(), cantor_branch_sequence(0.4, 10), 0.4, 4.0, 10)
    assert report.holds
    assert report.c_witnessed == pytest.approx(1.86859640942, rel=1e-10)
    assert report.ratio_min == pytest.approx(0.535161041173, rel=1e-10)
    assert report.ratio_max == pytest.approx(16 / 9, rel=1e-12)
    assert report.witness_low == (((0,), 3))
    assert report.witness_high == ((0, 0, 0, 0), 5)
    # the CLI renders the report: its validate handler on the same model and greedy tree
    argv = ["validate", "model.json", "--axioms", "cmsc", "--t", "0.4", "--depth", "10"]
    args = cli.build_parser().parse_args(argv)
    text, code = args.func(LoadedSpec("ternary", model=ternary_model()), args)
    data = json.loads(text)
    assert code == 0 and list(data) == [
        "t", "C", "depth", "holds", "c_witnessed", "ratio_min", "ratio_max",
        "witness_low", "witness_high", "note",
    ]
    assert data["holds"] is True
    assert data["witness_low"] == {"word": "0", "n": 3}
    assert data["witness_high"] == {"word": "0-0-0-0", "n": 5}


def test_window_ratios_are_flat_on_the_full_tree():
    """Keeping every branch at t* makes all suffix sums exactly 1."""
    model = MultiplicativeModel((1 / 3, 1 / 3))
    report = verify_cmsc(model, SubTree((2,) * 8), T_STAR, 2.0, 8)
    assert report.holds
    assert report.ratio_min == pytest.approx(1.0, abs=1e-12)
    assert report.ratio_max == pytest.approx(1.0, abs=1e-12)


def test_window_fails_for_a_starved_subtree():
    model = MultiplicativeModel((1 / 3, 1 / 3))
    report = verify_cmsc(model, SubTree((1,) * 10), T_STAR, 4.0, 10)
    assert not report.holds
    assert report.ratio_min < 1 / 4
    assert report.witness_low[1] == 10  # deepest suffix is the worst


def test_window_enumerating_path_matches_the_closed_form():
    fast = verify_cmsc(ternary_model(), cantor_branch_sequence(0.4, 8), 0.4, 4.0, 8)
    gen = GeneralModel(ternary_model().log_diam, Alphabet(3))
    slow = verify_cmsc(gen, cantor_branch_sequence(0.4, 8), 0.4, 4.0, 8)
    assert slow.holds == fast.holds
    assert slow.c_witnessed == pytest.approx(fast.c_witnessed, rel=1e-12)
    assert slow.ratio_max == pytest.approx(fast.ratio_max, rel=1e-12)


def test_window_argument_validation():
    model = ternary_model()
    tree = cantor_branch_sequence(0.4, 10)
    with pytest.raises(DomainError):
        verify_cmsc(model, tree, 0.4, 1.0, 10)  # C must exceed 1
    with pytest.raises(DomainError):
        verify_cmsc(model, tree, 0.4, 4.0, 1)  # depth too small
    with pytest.raises(DomainError):
        verify_cmsc(model, SubTree((2, 2)), 0.4, 4.0, 10)  # shallow subtree
    for t in (math.nan, math.inf):
        with pytest.raises(DomainError, match="the exponent must be finite"):
            verify_cmsc(model, tree, t, 4.0, 10)


# -- window ratios against the enumerating reference ------------------------------


def enumerated_window(model, subtree, t, depth):
    """The prefix-by-prefix scan the level arrays replaced: ``(min, max, witnesses)``."""
    ratio_min, ratio_max = math.inf, -math.inf
    wit_low = wit_high = ((), 0)
    levels = [[()]]
    for k in range(1, depth + 1):
        b = subtree.branch(k)
        levels.append([w + (s,) for w in levels[k - 1] for s in range(b)])
    # the root reads log_diam(()) like every other word; for a rectangle this
    # is 0.5 * log 2, one ulp below log(hypot(1, 1))
    log_diam = {(): model.log_diam(())}
    for lvl in levels[1:]:
        for w in lvl:
            log_diam[w] = model.log_diam(w)
    for m in range(0, depth):
        for i in levels[m]:
            base = t * log_diam[i]
            for n in range(1, depth - m + 1):
                acc = [t * log_diam[u] - base for u in levels[m + n] if u[:m] == i]
                ratio = float(np.exp(acc).sum())
                if ratio < ratio_min:
                    ratio_min, wit_low = ratio, (i, n)
                if ratio > ratio_max:
                    ratio_max, wit_high = ratio, (i, n)
    return ratio_min, ratio_max, wit_low, wit_high


def report_window(report):
    return report.ratio_min, report.ratio_max, report.witness_low, report.witness_high


@st.composite
def subtrees(draw, a):
    depth = draw(st.integers(2, 6 if a < 4 else 5))
    return SubTree(tuple(draw(st.lists(st.integers(1, a), min_size=depth, max_size=depth))))


@st.composite
def grid_models(draw):
    """General models with log-diameters on a grid: many window ratios tie."""
    a = draw(st.integers(2, 4))
    step = draw(st.sampled_from([0.25, 0.5, 1 / 3, 0.1]))
    weight = draw(st.lists(st.integers(-6, -1), min_size=a, max_size=a))
    wobble = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=5))
    seed = draw(st.sampled_from([0.5, 1.0, 2.0]))

    def log_diam(w):
        k = sum((i + 1) * s for i, s in enumerate(w)) % len(wobble)
        return step * (sum(weight[s] for s in w) + wobble[k])

    return GeneralModel(log_diam, Alphabet(a), seed)


@st.composite
def rectangle_models(draw):
    """Random sides, or equal ratios per side, whose levels share one diameter."""
    a = draw(st.integers(2, 4))
    if draw(st.booleans()):
        ra, rb = draw(st.floats(0.05, 0.95)), draw(st.floats(0.05, 0.95))
        return RectangleModel([ra] * a, [rb] * a)
    side = st.lists(st.floats(0.05, 0.95), min_size=a, max_size=a)
    return RectangleModel(draw(side), draw(side))


@st.composite
def multiplicative_models(draw):
    a = draw(st.integers(2, 4))
    ratios = draw(st.lists(st.floats(0.05, 0.95), min_size=a, max_size=a, unique=True))
    return MultiplicativeModel(ratios, draw(st.sampled_from([0.5, 2.0, 3.0])))


@st.composite
def level_models(draw):
    ratios = draw(st.lists(st.floats(0.05, 0.95), min_size=6, max_size=6))
    return LevelModel(
        lambda n: ratios[n - 1], draw(st.integers(2, 4)), draw(st.sampled_from([0.5, 2.0]))
    )


def closed_form_window(model, subtree, t, depth):
    """The per-``(m, n)`` closed forms that one call per check replaced:
    ``(min, max, witnesses)``, the witness prefix always ``(0,) * m``."""
    ratio_min, ratio_max = math.inf, -math.inf
    wit_low = wit_high = ((), 0)
    for m in range(depth):
        for n in range(1, depth - m + 1):
            levels = range(m + 1, m + n + 1)
            if not isinstance(model, MultiplicativeModel):  # one log-diameter per level
                count = math.prod(subtree.branch(k) for k in levels)
                lld = model.level_log_diam
                ratio = math.exp(math.log(count) + t * (lld(m + n) - lld(m)))
            else:
                log_ratio = 0.0
                for b in map(subtree.branch, levels):
                    total = sum(r**t for r in model.ratios[:b])
                    if total == 0.0:
                        top = max(model.log_ratios[:b])
                        total = sum(math.exp(t * (v - top)) for v in model.log_ratios[:b])
                        log_ratio += t * top
                    log_ratio += math.log(total)
                ratio = math.exp(log_ratio)
            if ratio < ratio_min:
                ratio_min, wit_low = ratio, ((0,) * m, n)
            if ratio > ratio_max:
                ratio_max, wit_high = ratio, ((0,) * m, n)
    return ratio_min, ratio_max, wit_low, wit_high


@given(
    st.one_of(grid_models(), rectangle_models(), multiplicative_models(), level_models()),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_window_matches_the_enumerating_reference(model, data):
    """Enumerating models give the enumeration's floats; closed forms (and models
    whose levels share one diameter) give the per-``(m, n)`` formula's floats and
    the enumeration's to rounding."""
    tree = data.draw(subtrees(model.alphabet.size))
    t = data.draw(st.sampled_from([0.3, 0.5, T_STAR, 1.0, 1.7]))
    report = verify_cmsc(model, tree, t, 4.0, tree.depth)
    enumerated = enumerated_window(model, tree, t, tree.depth)
    if isinstance(model, MultiplicativeModel) or model.level_log_diam(1) is not None:
        assert report_window(report) == closed_form_window(model, tree, t, tree.depth)
        assert report_window(report)[:2] == pytest.approx(enumerated[:2], rel=1e-12)
    else:
        assert report_window(report) == enumerated


def test_window_sums_underflowing_ratios_in_log_space():
    """Every ``r**2`` underflows: each level's sum is taken in log space, and the
    window ratios, about ``exp(-830 n)``, are all 0.0."""
    model = MultiplicativeModel((1e-200, 1e-180))
    assert sum(r**2.0 for r in model.ratios) == 0.0
    tree = SubTree((2, 1, 2, 2, 1))
    report = verify_cmsc(model, tree, 2.0, 4.0, 5)
    assert report_window(report) == closed_form_window(model, tree, 2.0, 5)
    assert report_window(report) == (0.0, 0.0, ((), 1), ((), 1))
    assert not report.holds


def test_window_matches_the_reference_on_a_greedy_tree():
    gen = GeneralModel(ternary_model().log_diam, Alphabet(3))
    tree = cantor_branch_sequence(0.4, 9)
    report = verify_cmsc(gen, tree, 0.4, 4.0, 9)
    assert report_window(report) == enumerated_window(gen, tree, 0.4, 9)


def test_closed_form_window_witnesses_are_leftmost_prefixes():
    tree = cantor_branch_sequence(0.4, 8)
    for model in (ternary_model(), LevelModel(lambda n: 1 / 3, 3)):
        assert model.window_ratios(0.4, 5, tree)[3][:, 1].shape == (1,)
        report = verify_cmsc(model, tree, 0.4, 4.0, 8)
        for word, n in (report.witness_low, report.witness_high):
            assert word == (0,) * len(word) and 1 <= n <= 8 - len(word)


@given(st.one_of(grid_models(), rectangle_models()), st.data())
@settings(max_examples=40, deadline=None)
def test_subtree_level_sum_matches_brute_force(model, data):
    tree = data.draw(subtrees(model.alphabet.size))
    t = data.draw(st.sampled_from([0.3, 1.0, 1.7]))
    for n in range(tree.depth + 1):
        words = itertools.product(*map(range, tree[:n]))
        brute = math.log(sum(math.exp(t * model.log_diam(w)) for w in words))
        assert model.level_log_sum(t, n, tree) == pytest.approx(brute, abs=1e-12)


def test_subtree_levels_honour_the_enumeration_cap(monkeypatch):
    tree = SubTree((3, 3, 2, 3))  # levels of 3, 9, 18 and 54 words
    monkeypatch.setenv("MORANLAB_ENUM_CAP", "20")
    for make in (
        lambda: GeneralModel(ternary_model().log_diam, Alphabet(3)),
        lambda: RectangleModel((0.5, 0.3, 0.2), (0.4, 0.6, 0.1)),
    ):
        assert verify_cmsc(make(), tree, 0.5, 100.0, 3).depth == 3
        make().level_log_sum(0.5, 3, tree)
        with pytest.raises(EnumerationCapError):
            verify_cmsc(make(), tree, 0.5, 100.0, 4)
        with pytest.raises(EnumerationCapError):
            make().level_log_sum(0.5, 4, tree)


# -- Carnot sequences ----------------------------------------------------------------


def test_carnot_sequence_examples():
    assert carnot_branch_sequence(HEISENBERG, 2.5, 8) == (2, 1, 1, 2, 1, 2, 1, 2)
    assert carnot_branch_sequence(HEISENBERG, Fraction(1, 100), 6) == (
        2, 1, 1, 1, 1, 1,
    )


def test_carnot_sequence_rational_comparisons_are_exact():
    # the rule compares 2^(twos * m) with 2^(step * (l+1)(alpha - lower));
    # exact fractions and their float doubles must decide identically.
    exact = carnot_branch_sequence(HEISENBERG, Fraction(5, 2), 8)
    assert exact == carnot_branch_sequence(HEISENBERG, 2.5, 8)


def test_carnot_top_breakpoint_warns_and_keeps_everything():
    for alpha in (3, 3.0):
        with pytest.warns(UserWarning):
            seq = carnot_branch_sequence(HEISENBERG, alpha, 7)
        assert seq == (2,) * 7


def test_carnot_sequence_validation():
    with pytest.raises(DomainError):
        carnot_branch_sequence(HEISENBERG, 0.0, 5)
    with pytest.raises(DomainError):
        carnot_branch_sequence(HEISENBERG, 4.0, 5)
    with pytest.raises(DomainError):
        carnot_branch_sequence(HEISENBERG, 2.5, 0)


def test_carnot_window_check_across_the_breakpoints():
    report = carnot_cmsc_verify(HEISENBERG, 1.3, 15)
    assert report.holds
    assert report.t == pytest.approx(1.3)
    assert report.c_declared == 16.0
    assert report.c_witnessed == pytest.approx(3.73213, abs=1e-5)

    report = carnot_cmsc_verify(HEISENBERG, 2.5, 15)
    assert report.holds
    assert report.t == pytest.approx(3.0)  # beta_minus(2.5)
    assert report.c_witnessed == pytest.approx(4.0, rel=1e-12)

    report = carnot_cmsc_verify(HEISENBERG, 3.0, 15)
    assert report.holds
    assert report.t == pytest.approx(4.0)
    assert report.c_witnessed == pytest.approx(1.0, abs=1e-12)
    assert "top breakpoint" in report.note


@pytest.mark.parametrize("alpha", [Fraction(k, 4) for k in range(1, 13)], ids=str)
def test_carnot_window_counts_follow_the_branch_sequence(monkeypatch, alpha):
    """Both Carnot entry points apply one rule: the window's subtree is the
    branch sequence raised to ``(l+1) m_{l+1}`` (2 on both Heisenberg layers)
    times ``2^{sum_{j<=l} j m_j}`` (1, or 4 past the layer boundary 2)."""
    windows = []
    check = subconstruction.verify_cmsc
    monkeypatch.setattr(subconstruction, "verify_cmsc",
                        lambda model, subtree, *args, **kw: windows.append(subtree)
                        or check(model, subtree, *args, **kw))
    top = alpha == 3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = carnot_cmsc_verify(HEISENBERG, alpha, 8)
        assert not caught  # the window check notes the top breakpoint instead
        seq = carnot_branch_sequence(HEISENBERG, alpha, 8)
    warned = ["alpha equals the topological dimension: full tree, no thinning"] if top else []
    assert [str(w.message) for w in caught] == warned
    lower = 1 if alpha <= 2 else 4
    assert windows[0] == tuple(n * n * lower for n in seq)
    assert report.note == ("top breakpoint: full tree over all layers, no thinning" if top else "")


def test_carnot_window_alpha_range():
    with pytest.raises(DomainError):
        carnot_cmsc_verify(HEISENBERG, 0.0, 10)
    with pytest.raises(DomainError):
        carnot_cmsc_verify(HEISENBERG, 3.5, 10)


# -- Heisenberg halving maps -----------------------------------------------------------


def test_F_map_anchor_validation():
    with pytest.raises(DomainError):
        heisenberg_F_map([(0, 0, 0), (0,)])
    with pytest.raises(DomainError):
        heisenberg_F_map([(0, 2), (0,)])  # horizontal coords live in {0, 1}
    with pytest.raises(DomainError):
        heisenberg_F_map([(0, 0), (4,)])  # vertical coord lives in {0..3}


def test_F_map_fixes_its_anchor_and_dilates_at_the_identity():
    F = heisenberg_F_map([(1, 0), (2,)])
    assert F.apply((1.0, 0.0, 2.0)) == (1.0, 0.0, 2.0)
    F0 = heisenberg_F_map([(0, 0), (0,)])
    assert F0.apply((2.0, 0.0, 0.0)) == (1.0, 0.0, 0.0)
    assert F0.apply((0.0, 0.0, 2.0)) == (0.0, 0.0, 0.5)


def test_F_map_halves_the_gauge_distance():
    F = heisenberg_F_map([(1, 1), (3,)])
    pairs = [
        ((0.3, -0.7, 1.1), (-0.2, 0.4, -0.9)),
        ((1.5, 0.0, 0.0), (0.0, 1.5, 2.0)),
    ]
    for p, q in pairs:
        d = heisenberg_gauge(heisenberg_multiply(heisenberg_inverse(p), q))
        dF = heisenberg_gauge(
            heisenberg_multiply(heisenberg_inverse(F.apply(p)), F.apply(q))
        )
        assert dF == pytest.approx(0.5 * d, rel=1e-12)


def test_heisenberg_system_layout():
    system = load_spec(SPECS / "heisenberg.json").require_system()
    assert len(system.maps) == 16
    assert len(system.seed_points) == 16
    assert system.seed_points[:4] == (
        (0.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (1.0, 0.0, 0.0),
        (1.0, 1.0, 0.0),
    )
    for m, seed in zip(system.maps, system.seed_points):
        assert m.apply(seed) == seed
