"""Moran constructions: pressure, axiom validation, attractors, dimensions.

The package models nested constructions ``{X_i}`` indexed by finite
words: diameter models and their axiom checks (:mod:`moranlab.models`),
topological pressure and its zero (:mod:`moranlab.pressure`), symbolic
word machinery and stopping sets (:mod:`moranlab.words`), contraction
systems with separation probes (:mod:`moranlab.systems`), box-counting
estimators (:mod:`moranlab.dimension`), dimension-prescribing
subconstructions (:mod:`moranlab.subconstruction`) and stratified groups
(:mod:`moranlab.stratification`).

Public names resolve lazily (PEP 562): ``import moranlab`` loads no
submodule, and ``moranlab.box_count`` imports :mod:`moranlab.dimension`
on first use.  Submodules are attributes too (``moranlab.dimension``).
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "dimension": (
        "MinkowskiEstimate", "PackingGrowth", "box_count", "hausdorff_upper_sum",
        "maximal_packing", "minkowski_estimate", "packing_growth_check",
    ),
    "errors": ("DomainError", "EnumerationCapError", "SpecError"),
    "exactnum": ("GOLDEN_RATIO", "QuadraticNumber", "parse_scalar"),
    "models": (
        "AxiomCheck", "AxiomReport", "DiameterModel", "GeneralModel", "LevelModel",
        "MultiplicativeModel", "RectangleModel", "validate_cmc", "validate_wcmc",
    ),
    "pressure": (
        "PressureCurve", "PressureZero", "moran_dimension", "pressure_at",
        "pressure_curve", "pressure_zero", "self_affine_dimension",
        "self_affine_pressure",
    ),
    "spaces": (
        "CombSpace", "EuclideanSpace", "HeisenbergSpace", "SnowflakeSpace",
        "SymbolSpace", "heisenberg_gauge",
    ),
    "specio": (
        "LoadedSpec", "load_spec", "map_from_dict", "model_from_dict",
        "space_from_json", "spec_from_dict",
    ),
    "stratification": ("HEISENBERG", "StratificationData", "beta_minus", "beta_plus"),
    "subconstruction": (
        "CmscReport", "cantor_branch_sequence", "carnot_branch_sequence",
        "carnot_cmsc_verify", "heisenberg_F_map", "verify_cmsc",
    ),
    "systems": (
        "Affine2DMap", "BallConditionProbe", "CarnotMap", "CollisionScan", "CombMap",
        "ContractionSystem", "PointCloud", "SemiconformalBounds", "SimilitudeMap",
        "SymbolMap", "SymbolicConformalityReport", "attractor_cloud",
        "ball_condition_probe", "finite_clustering_sup", "osc_collision_scan",
        "proper_semiconformality_check_symbolic", "semiconformal_bounds",
        "separation_epsilon",
    ),
    "words": (
        "Alphabet", "SubTree", "antichain_cover_cost", "local_stopping_set", "stopping_set",
        "word_str",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and keep the value here."""
    if name in _ORIGIN:
        value = getattr(import_module("." + _ORIGIN[name], __name__), name)
    elif name in _SUBMODULES:
        value = import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value
