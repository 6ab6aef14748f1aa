"""Reading model/system specification files (JSON).

A spec file is the single source of truth for one construction, and this
module is the one reader of its entries: spaces, maps, seed points and
models.  Two shapes exist:

``{"type": "model", "kind": ..., ...}``
    a bare diameter model (multiplicative ratios, a named level rule, or
    rectangle contraction pairs);

``{"type": "system", "space": ..., "maps": [...], "seed_points": [...]}``
    a contraction system, optionally with an explicit ``"model"`` entry
    overriding the induced diameter model.  The space is one of
    ``{"kind": "euclidean", "dim": n}``, ``{"kind": "symbol", "alphabet": n}``,
    ``{"kind": "comb", "r": scalar}``, ``{"kind": "heisenberg"}`` or
    ``{"kind": "snowflake", "base": space, "p": p}``; maps and seed points
    are as wide as its points (its ``coordinate_dim``), or words of its
    alphabet where the points are words.

Scalars may be written as numbers, ``"p/q"`` strings, or
``{"sqrt": {"a": [p, q], "b": [p, q], "d": n}}`` for quadratic
irrationals such as the golden ratio; exact values stay exact all the
way into map arithmetic.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, SpecError
from .exactnum import parse_scalar
from .spaces import (
    CombSpace,
    EuclideanSpace,
    HeisenbergSpace,
    MetricSpace,
    SnowflakeSpace,
    SymbolSpace,
)
from .systems import (
    Affine2DMap,
    CarnotMap,
    CombMap,
    ContractionSystem,
    SimilitudeMap,
    SymbolMap,
)
from .words import Alphabet

if TYPE_CHECKING:  # models load on first use: clouds of a system do not need them
    from .models import DiameterModel


# ---------------------------------------------------------------------------
# level rules available by name
# ---------------------------------------------------------------------------


def _supercantor_ratio(n: int) -> float:
    return 0.5 if n == 1 else 2.0 ** (-2.0 + 1.0 / n)


def _nsq_ratio(n: int) -> float:
    return 2.0 ** (-(2 * n - 1))


LEVEL_RULES = {
    "supercantor": _supercantor_ratio,
    "nsq": _nsq_ratio,
}


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _object(data) -> dict:
    if not isinstance(data, dict):
        raise SpecError("must be a JSON object, got %r" % (data,))
    return data


def _sized(values, name: str, width: int | None = None, parse=parse_scalar) -> tuple:
    """``parse`` of each entry of the JSON list ``values`` (``width`` of them if given)."""
    if not isinstance(values, list):
        raise SpecError("%s must be a JSON list, got %r" % (name, values))
    if width is not None and len(values) != width:
        raise SpecError("%s needs %d entries, got %r" % (name, width, values))
    return tuple(map(parse, values))


def _real(value) -> float:
    return float(parse_scalar(value))


def _integer(data: dict, key: str) -> int:
    """``data[key]``, which must be a JSON integer (not a bool, float or string)."""
    if type(data[key]) is not int:
        raise SpecError("%s must be an integer, got %r" % (key, data[key]))
    return data[key]


def space_from_json(data: dict) -> MetricSpace:
    if not isinstance(data, dict):
        raise DomainError("a space must be a JSON object, got %r" % (data,))
    kind = data.get("kind")
    if kind == "euclidean":
        return EuclideanSpace(_integer(data, "dim"))
    if kind == "snowflake":
        return SnowflakeSpace(space_from_json(data["base"]), _real(data["p"]))
    if kind == "symbol":
        return SymbolSpace(Alphabet(_integer(data, "alphabet")))
    if kind == "comb":
        return CombSpace(parse_scalar(data["r"]))
    if kind == "heisenberg":
        return HeisenbergSpace()
    raise DomainError("unknown space kind: %r" % (kind,))


def map_from_dict(data: dict):
    kind = _object(data).get("kind")
    if kind == "similitude":
        fixed_point = _sized(data["fixed_point"], "fixed_point")
        return SimilitudeMap(parse_scalar(data["ratio"]), fixed_point)
    if kind == "affine2d":
        matrix = _sized(data["matrix"], "matrix", 2, lambda row: _sized(row, "a row", 2, _real))
        return Affine2DMap(matrix, _sized(data["translation"], "translation", 2, _real))
    if kind == "comb":
        return CombMap(parse_scalar(data["r"]), _integer(data, "shift"))
    if kind == "symbol":
        word = lambda w: _sized(w, "a table word", parse=lambda s: s)  # noqa: E731
        return SymbolMap(_sized(data["table"], "table", parse=word))
    if kind == "carnot":
        return CarnotMap(_sized(data["anchor"], "anchor", 3, _real))
    raise SpecError("unknown map kind %r" % kind)


# width of the points each map kind acts on; None: words; similitudes: their fixed point's
MAP_WIDTHS = {"affine2d": 2, "comb": 2, "carnot": 3, "symbol": None}


def _system_map(data, space):
    """A map that acts on the ``space``'s points, or on its words: then its
    table has one word per letter, using only its letters."""
    m, kind, width = map_from_dict(data), data["kind"], space.coordinate_dim
    acts_on = len(m.fixed_point) if kind == "similitude" else MAP_WIDTHS[kind]
    if acts_on != width:
        raise SpecError("a %s map acts on points of width %s, not %s" % (kind, acts_on, width))
    if width is None:
        _sized(data["table"], "the table", space.alphabet.size, space.alphabet.check_word)
    return m


def _seed_point(point, space):
    if space.coordinate_dim is None:
        return space.alphabet.check_word(_sized(point, "a seed point", parse=lambda s: s))
    return _sized(point, "a seed point", space.coordinate_dim)


def _entry(name: str, build, *args):
    """``build(*args)``; bad input in it becomes a :class:`SpecError` naming the entry."""
    try:
        return build(*args)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        why = "missing key %s" % exc if isinstance(exc, KeyError) else exc
        raise SpecError("%s: %s" % (name, why)) from exc


def model_from_dict(data: dict) -> DiameterModel:
    from .models import LevelModel, MultiplicativeModel, RectangleModel

    kind = _object(data).get("kind")
    if kind == "multiplicative":
        return MultiplicativeModel(
            _sized(data["ratios"], "ratios", parse=_real),
            seed_diameter=_real(data.get("seed_diameter", 1.0)),
        )
    if kind == "level":
        rule = data.get("rule")
        if rule not in LEVEL_RULES:
            raise SpecError(
                "unknown level rule %r (have: %s)" % (rule, sorted(LEVEL_RULES))
            )
        return LevelModel(
            LEVEL_RULES[rule],
            _integer(data, "branches"),
            seed_diameter=_real(data.get("seed_diameter", 1.0)),
        )
    if kind == "rectangle":
        return RectangleModel(*(_sized(data[key], key, parse=_real) for key in "ab"))
    raise SpecError("unknown model kind %r" % kind)


class LoadedSpec(NamedTuple):
    """A parsed spec file: a system and/or a diameter model."""

    name: str
    system: ContractionSystem | None = None
    model: DiameterModel | None = None

    def require_system(self) -> ContractionSystem:
        if self.system is None:
            raise SpecError("spec %r declares no contraction system" % self.name)
        return self.system

    def get_model(self, cloud=None) -> DiameterModel:
        """Declared model if present, else the system's induced model."""
        return self.model if self.model is not None else self.require_system().induced_model(cloud)


def spec_from_dict(data: dict) -> LoadedSpec:
    if not isinstance(data, dict):
        raise SpecError("spec root must be a JSON object")
    name = data.get("name", "")
    spec_type = data.get("type")
    if spec_type == "model":
        return LoadedSpec(name, model=_entry("model", model_from_dict, data))
    if spec_type == "system":
        try:
            space = _entry("space", space_from_json, data["space"])
            maps = [_entry("maps[%d]" % k, _system_map, m, space)
                    for k, m in enumerate(data["maps"])]
            points = enumerate(_sized(data["seed_points"], "seed_points", parse=lambda p: p))
        except KeyError as exc:
            raise SpecError("system spec missing key %s" % exc) from exc
        seeds = tuple(_entry("seed_points[%d]" % k, _seed_point, p, space) for k, p in points)
        seed_diam = data.get("seed_diameter")
        seed_diam = None if seed_diam is None else _entry("seed_diameter", _real, seed_diam)
        if seed_diam is not None and not 0 < seed_diam < float("inf"):  # NaN too
            raise SpecError("seed_diameter: seed diameter must be positive and finite")
        system = ContractionSystem(space, maps, seeds, seed_diameter=seed_diam)
        model = _entry("model", model_from_dict, data["model"]) if "model" in data else None
        return LoadedSpec(name, system=system, model=model)
    raise SpecError("spec type must be 'model' or 'system', got %r" % spec_type)


def load_spec(path) -> LoadedSpec:
    """Read and build a spec file, raising :class:`SpecError` on bad input."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise SpecError("cannot read %s: %s" % (p, exc)) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("invalid JSON in %s: %s" % (p, exc)) from exc
    try:
        return spec_from_dict(data)
    except (DomainError, TypeError, ValueError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError("bad spec %s: %s" % (p, exc)) from exc
