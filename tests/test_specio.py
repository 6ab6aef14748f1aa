"""Spec-file parsing: scalars, model/system builders, error reporting."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from moranlab import (
    GOLDEN_RATIO,
    LevelModel,
    MultiplicativeModel,
    QuadraticNumber,
    RectangleModel,
    SpecError,
    load_spec,
)
from moranlab.spaces import HeisenbergSpace, SymbolSpace
from moranlab.specio import parse_scalar, spec_from_dict
from moranlab.systems import CombMap

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


# -- scalars -----------------------------------------------------------------


def test_parse_scalar_forms():
    assert parse_scalar(3) == 3
    assert parse_scalar(0.25) == 0.25
    assert parse_scalar("1/3") == Fraction(1, 3)
    assert parse_scalar("-2/6") == Fraction(-1, 3)
    assert parse_scalar("0.75") == 0.75
    golden = parse_scalar({"sqrt": {"a": [-1, 2], "b": [1, 2], "d": 5}})
    assert golden == GOLDEN_RATIO
    assert isinstance(golden, QuadraticNumber)


def test_parse_scalar_rejections():
    with pytest.raises(SpecError):
        parse_scalar(True)  # bool is not a number here
    with pytest.raises(SpecError):
        parse_scalar("1/0")
    with pytest.raises(SpecError):
        parse_scalar("one third")
    with pytest.raises(SpecError):
        parse_scalar({"cbrt": 2})
    with pytest.raises(SpecError, match="unknown scalar object"):
        parse_scalar({"fraction": [2, 5]})  # "2/5" is the one rational spelling
    with pytest.raises(SpecError):
        parse_scalar({"sqrt": {"a": [1, 2]}})
    with pytest.raises(SpecError):
        parse_scalar([1, 2])


def test_scalar_literals_keep_their_exact_type():
    # each scalar form as a spec file writes it, read back from JSON text
    literals = [
        ('7', 7, int),
        ('0.125', 0.125, float),
        ('"3/7"', Fraction(3, 7), Fraction),
        ('"6/14"', Fraction(3, 7), Fraction),
        ('{"sqrt": {"a": [-1, 2], "b": [1, 2], "d": 5}}', GOLDEN_RATIO, QuadraticNumber),
    ]
    for text, value, kind in literals:
        parsed = parse_scalar(json.loads(text))
        assert parsed == value and type(parsed) is kind, text


# -- shipped spec files --------------------------------------------------------


def test_all_shipped_specs_load():
    for path in sorted(SPEC_DIR.glob("*.json")):
        spec = load_spec(path)
        assert spec.name
        spec.get_model()  # declared, or induced from the system's own cloud


def test_cantor_spec_shape():
    spec = load_spec(SPEC_DIR / "cantor.json")
    system = spec.require_system()
    assert len(system.maps) == 2
    model = spec.get_model()
    assert isinstance(model, MultiplicativeModel)
    assert model.ratios == pytest.approx((1 / 3, 1 / 3))


def test_level_rule_specs():
    super_model = load_spec(SPEC_DIR / "supercantor.json").get_model()
    assert isinstance(super_model, LevelModel)
    assert math.exp(super_model.log_diam((0,))) == pytest.approx(0.5)
    nsq_model = load_spec(SPEC_DIR / "nsq.json").get_model()
    assert math.exp(nsq_model.log_diam((0, 0))) == pytest.approx(2.0**-4)


def test_selfaffine_spec_declares_a_rectangle_model():
    spec = load_spec(SPEC_DIR / "selfaffine.json")
    model = spec.get_model()
    assert isinstance(model, RectangleModel)
    assert len(spec.require_system().maps) == 2


def test_comb_spec_keeps_the_golden_ratio_exact():
    system = load_spec(SPEC_DIR / "comb.json").require_system()
    for m in system.maps:
        assert isinstance(m, CombMap)
        assert m.r == GOLDEN_RATIO
    assert system.seed_points == ((0, Fraction(1, 2)),)


def test_symbol_spec_uses_integer_seed_words():
    system = load_spec(SPEC_DIR / "symbolifs.json").require_system()
    assert isinstance(system.space, SymbolSpace)
    assert all(
        isinstance(s, int) for seed in system.seed_points for s in seed
    )


def test_heisenberg_spec_is_a_full_grid():
    system = load_spec(SPEC_DIR / "heisenberg.json").require_system()
    assert isinstance(system.space, HeisenbergSpace)
    assert len(system.maps) == 16


# -- failure modes ----------------------------------------------------------------


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(SpecError, match="cannot read"):
        load_spec(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecError, match="invalid JSON"):
        load_spec(bad)


def test_bad_spec_shapes():
    with pytest.raises(SpecError, match="root"):
        spec_from_dict([1, 2])
    with pytest.raises(SpecError, match="type"):
        spec_from_dict({"name": "x"})
    with pytest.raises(SpecError, match="model kind"):
        spec_from_dict({"type": "model", "kind": "mystery"})
    with pytest.raises(SpecError, match="level rule"):
        spec_from_dict({"type": "model", "kind": "level", "rule": "x", "branches": 2})
    with pytest.raises(SpecError, match="missing key"):
        spec_from_dict({"type": "system", "space": {"kind": "euclidean", "dim": 1}})


def test_bad_map_kind_and_domain_error_wrapping(tmp_path):
    data = {
        "type": "system",
        "name": "broken",
        "space": {"kind": "euclidean", "dim": 1},
        "maps": [{"kind": "teleport"}],
        "seed_points": [[0]],
    }
    with pytest.raises(SpecError, match="map kind"):
        spec_from_dict(data)
    # domain failures inside builders surface as SpecError with the path
    data["maps"] = [{"kind": "similitude", "ratio": "1/2", "fixed_point": [0]}]
    path = tmp_path / "one_map.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SpecError, match="one_map"):
        load_spec(path)  # a system needs at least two maps
