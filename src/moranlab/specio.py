"""Reading model/system specification files (JSON).

A spec file is the single source of truth for one construction.  Two
shapes exist:

``{"type": "model", "kind": ..., ...}``
    a bare diameter model (multiplicative ratios, a named level rule, or
    rectangle contraction pairs);

``{"type": "system", "space": ..., "maps": [...], "seed_points": [...]}``
    a contraction system, optionally with an explicit ``"model"`` entry
    overriding the induced diameter model.

Scalars may be written as numbers, ``"p/q"`` strings, or
``{"sqrt": {"a": [p, q], "b": [p, q], "d": n}}`` for quadratic
irrationals such as the golden ratio; exact values stay exact all the
way into map arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, SpecError
from .exactnum import QuadraticNumber
from .spaces import SymbolSpace, space_from_json
from .systems import (
    Affine2DMap,
    CarnotMap,
    CombMap,
    ContractionSystem,
    SimilitudeMap,
    SymbolMap,
)

if TYPE_CHECKING:  # models load on first use: clouds of a system do not need them
    from .models import DiameterModel


def parse_scalar(value):
    """Parse a JSON scalar into int, float, Fraction, or QuadraticNumber."""
    if isinstance(value, bool):
        raise SpecError("booleans are not numeric scalars")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        if "/" in value:
            num, _, den = value.partition("/")
            try:
                return Fraction(int(num), int(den))
            except (ValueError, ZeroDivisionError) as exc:
                raise SpecError("bad rational %r: %s" % (value, exc)) from exc
        try:
            return float(value)
        except ValueError as exc:
            raise SpecError("bad numeric string %r" % value) from exc
    if isinstance(value, dict):
        if "fraction" in value:
            num, den = value["fraction"]
            return Fraction(num, den)
        if "sqrt" in value:
            spec = value["sqrt"]
            try:
                a = Fraction(*spec["a"])
                b = Fraction(*spec["b"])
                d = int(spec["d"])
            except (KeyError, TypeError, ValueError) as exc:
                raise SpecError("bad sqrt scalar %r" % (value,)) from exc
            return QuadraticNumber(a, b, d)
        raise SpecError("unknown scalar object with keys %s" % sorted(value))
    raise SpecError("cannot parse scalar %r" % (value,))


def scalar_to_json(value):
    """Inverse of :func:`parse_scalar` (exact values keep their shape)."""
    if isinstance(value, QuadraticNumber):
        return {
            "sqrt": {
                "a": [value.a.numerator, value.a.denominator],
                "b": [value.b.numerator, value.b.denominator],
                "d": value.d,
            }
        }
    if isinstance(value, Fraction):
        return "%d/%d" % (value.numerator, value.denominator)
    return value


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


def map_from_dict(data: dict):
    kind = data.get("kind")
    if kind == "similitude":
        return SimilitudeMap(
            parse_scalar(data["ratio"]),
            tuple(parse_scalar(c) for c in data["fixed_point"]),
        )
    if kind == "affine2d":
        matrix = tuple(
            tuple(float(parse_scalar(c)) for c in row) for row in data["matrix"]
        )
        translation = tuple(float(parse_scalar(c)) for c in data["translation"])
        return Affine2DMap(matrix, translation)
    if kind == "comb":
        return CombMap(parse_scalar(data["r"]), int(data["shift"]))
    if kind == "symbol":
        return SymbolMap(tuple(tuple(int(s) for s in w) for w in data["table"]))
    if kind == "carnot":
        return CarnotMap(tuple(float(c) for c in data["anchor"]))
    raise SpecError("unknown map kind %r" % kind)


def model_from_dict(data: dict) -> DiameterModel:
    from .models import LevelModel, MultiplicativeModel, RectangleModel

    kind = data.get("kind")
    if kind == "multiplicative":
        return MultiplicativeModel(
            [float(parse_scalar(r)) for r in data["ratios"]],
            seed_diameter=float(data.get("seed_diameter", 1.0)),
        )
    if kind == "level":
        rule = data.get("rule")
        if rule not in LEVEL_RULES:
            raise SpecError(
                "unknown level rule %r (have: %s)" % (rule, sorted(LEVEL_RULES))
            )
        return LevelModel.from_level_ratios(
            LEVEL_RULES[rule],
            int(data["branches"]),
            seed_diameter=float(data.get("seed_diameter", 1.0)),
        )
    if kind == "rectangle":
        return RectangleModel(
            [float(parse_scalar(v)) for v in data["a"]],
            [float(parse_scalar(v)) for v in data["b"]],
        )
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
        if self.model is not None:
            return self.model
        if self.system is not None:
            return self.system.induced_model(cloud)
        raise SpecError("spec %r declares neither model nor system" % self.name)


def spec_from_dict(data: dict) -> LoadedSpec:
    if not isinstance(data, dict):
        raise SpecError("spec root must be a JSON object")
    name = data.get("name", "")
    spec_type = data.get("type")
    if spec_type == "model":
        return LoadedSpec(name, model=model_from_dict(data))
    if spec_type == "system":
        try:
            space = space_from_json(data["space"])
            maps = tuple(map_from_dict(m) for m in data["maps"])
            raw_points = data["seed_points"]
        except KeyError as exc:
            raise SpecError("system spec missing key %s" % exc) from exc
        if isinstance(space, SymbolSpace):
            seeds = tuple(tuple(int(s) for s in p) for p in raw_points)
        else:
            seeds = tuple(tuple(parse_scalar(c) for c in p) for p in raw_points)
        seed_diam = data.get("seed_diameter")
        system = ContractionSystem(
            space,
            maps,
            seeds,
            seed_diameter=None if seed_diam is None else float(seed_diam),
            name=name,
        )
        model = model_from_dict(data["model"]) if "model" in data else None
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
