"""In-memory span tracer that wraps moranlab's public calls from outside.

The tracer never edits the package: it replaces public functions where
they are bound as module attributes (in every ``moranlab`` module that
imported them, so internal calls nest as child spans), and a few public
methods on their classes.  Spans record name, layer, tag, start, end and
parent; they stay in memory until :meth:`Tracer.report` turns them into
per-layer metrics.  A layer's self time is the summed duration of its
spans minus the time their child spans cover.

Scalar ``distance`` calls are too frequent for one span each: they are
counted and timed in aggregate, and their time is subtracted from the
enclosing span's self time and booked to the ``spaces`` layer.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

LAYERS = (
    "cli", "specio", "systems", "spaces", "dimension",
    "models", "pressure", "words", "subconstruction",
)

# (module, function) pairs timed as spans; the span is named after both.
SPAN_FUNCTIONS = (
    ("specio", "load_spec"),
    ("systems", "attractor_cloud"),
    ("systems", "separation_epsilon"),
    ("systems", "osc_collision_scan"),
    ("systems", "finite_clustering_sup"),
    ("systems", "ball_condition_probe"),
    ("dimension", "box_count"),
    ("dimension", "maximal_packing"),
    ("dimension", "minkowski_estimate"),
    ("models", "validate_wcmc"),
    ("models", "validate_cmc"),
    ("pressure", "pressure_zero"),
    ("pressure", "pressure_curve"),
    ("words", "stopping_set"),
    ("words", "local_stopping_set"),
    ("words", "antichain_cover_cost"),
    ("subconstruction", "verify_cmsc"),
    ("subconstruction", "carnot_cmsc_verify"),
)

# Calls whose first cloud or system argument fixes a coordinate kind.
CLOUD_OPERATIONS = {
    "systems.attractor_cloud", "systems.separation_epsilon",
    "systems.finite_clustering_sup", "systems.ball_condition_probe",
    "systems.induced_model", "dimension.box_count", "dimension.box_count_grid",
    "dimension.maximal_packing", "dimension.minkowski_estimate",
    "words.local_stopping_set",
}
COORDINATE_KINDS = ("fraction", "quadratic", "float", "symbol")
SPAN_NAMES = (
    *("%s.%s" % pair for pair in SPAN_FUNCTIONS),
    "systems.induced_model",
    "dimension.box_count_grid",
)

SUBCOMMANDS = ("pressure", "validate", "generate", "dimension", "probe", "beta")


class Span:
    __slots__ = ("name", "layer", "tag", "start", "end", "parent", "child_s")

    def __init__(self, name, layer, tag, start, parent):
        self.name = name
        self.layer = layer
        self.tag = tag
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0


def coordinate_kind(point) -> str:
    """``fraction``, ``quadratic``, ``float`` or ``symbol`` for one point."""
    from moranlab.exactnum import QuadraticNumber

    coords = point if isinstance(point, tuple) else (point,)
    if any(isinstance(c, QuadraticNumber) for c in coords):
        return "quadratic"
    if any(isinstance(c, Fraction) for c in coords):
        return "fraction"
    if all(isinstance(c, int) for c in coords):
        return "symbol"
    return "float"


def _operation_kind(args, result) -> str | None:
    """Coordinate kind of the cloud or system a cloud operation works on."""
    from moranlab.systems import ContractionSystem, PointCloud

    for value in (*args, result):
        if isinstance(value, PointCloud) and value.points:
            return coordinate_kind(value.points[0])
        if isinstance(value, ContractionSystem):
            return coordinate_kind(value.maps[0].apply(value.seed_points[0]))
    return None


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts = {
            "cloud_points": 0, "epsilon_words": 0, "cover_centers": 0,
            "stopping_words": 0, "distance_calls": 0, "log_diam_calls": 0,
            "level_log_sum_calls": 0, "zero_evals": 0, "stdout_bytes": 0,
        }
        self.distance_s = 0.0
        self.words_checked: set = set()
        self.models: dict[int, object] = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self._seen_errors: list[BaseException] = []
        self._in_distance = False
        self._zero_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, layer: str):
        return _SpanContext(self, name, layer)

    def _open(self, name, layer, tag):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, layer, tag, time.perf_counter(), parent)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    def _error(self, layer, exc):
        from moranlab.errors import DomainError, EnumerationCapError

        if isinstance(exc, (DomainError, EnumerationCapError)) and not any(
            e is exc for e in self._seen_errors
        ):
            self._seen_errors.append(exc)
            self.errors[layer] += 1

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import moranlab
        from moranlab import models, spaces, systems

        modules = [m for n, m in sys.modules.items() if n == "moranlab" or n.startswith("moranlab.")]
        for mod_name, fn_name in SPAN_FUNCTIONS:
            original = getattr(getattr(moranlab, mod_name), fn_name)
            wrapper = self._span_wrapper(mod_name, fn_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        self._patch(
            systems.ContractionSystem, "induced_model",
            self._span_wrapper("systems", "induced_model", systems.ContractionSystem.induced_model),
        )
        for cls in (spaces.EuclideanSpace, spaces.SnowflakeSpace, spaces.SymbolSpace,
                    spaces.CombSpace, spaces.HeisenbergSpace):
            self._patch(cls, "distance", self._distance_wrapper(cls.distance))
        for cls in (models.DiameterModel, models.MultiplicativeModel, models.LevelModel,
                    models.GeneralModel, models.RectangleModel):
            if "log_diam" in vars(cls):
                self._patch(cls, "log_diam", self._log_diam_wrapper(cls.log_diam))
            if "level_log_sum" in vars(cls):
                self._patch(cls, "level_log_sum", self._level_sum_wrapper(cls.level_log_sum))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, layer, fn_name, original):
        tracer = self
        base = "%s.%s" % (layer, fn_name)

        def traced(*args, **kwargs):
            name = base
            if base == "dimension.box_count":
                method = args[2] if len(args) > 2 else kwargs.get("method", "greedy")
                if method == "grid":
                    name = "dimension.box_count_grid"
            span = tracer._open(name, layer, None)
            if base == "pressure.pressure_zero":
                tracer._zero_depth += 1
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._error(layer, exc)
                raise
            finally:
                if base == "pressure.pressure_zero":
                    tracer._zero_depth -= 1
                tracer._close(span)
            if name in CLOUD_OPERATIONS:
                span.tag = _operation_kind(args, result)
            tracer._count(name, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _count(self, name, args, result):
        c = self.counts
        if name == "systems.attractor_cloud":
            c["cloud_points"] += len(result)
        elif name == "systems.separation_epsilon":
            size, depth = args[0].alphabet.size, args[2]
            c["epsilon_words"] += sum(size**k for k in range(1, depth + 1))
        elif name == "dimension.box_count":
            c["cover_centers"] += result
        elif name == "words.stopping_set":
            c["stopping_words"] += len(result)

    def _distance_wrapper(self, original):
        tracer = self
        clock = time.perf_counter

        def distance(space, p, q):
            if tracer._in_distance:
                return original(space, p, q)
            tracer._in_distance = True
            t0 = clock()
            try:
                return original(space, p, q)
            finally:
                dt = clock() - t0
                tracer._in_distance = False
                tracer.counts["distance_calls"] += 1
                tracer.distance_s += dt
                if tracer.stack:
                    tracer.stack[-1].child_s += dt

        return distance

    def _log_diam_wrapper(self, original):
        tracer = self

        def log_diam(model, word):
            tracer.counts["log_diam_calls"] += 1
            # keep the model alive so that its id is not reused in this pass
            tracer.models.setdefault(id(model), model)
            tracer.words_checked.add((id(model), word))
            return original(model, word)

        return log_diam

    def _level_sum_wrapper(self, original):
        tracer = self

        def level_log_sum(model, t, n, subtree=None):
            tracer.counts["level_log_sum_calls"] += 1
            if tracer._zero_depth:
                tracer.counts["zero_evals"] += 1
            return original(model, t, n, subtree)

        return level_log_sum

    # -- report ------------------------------------------------------------

    def report(self, traced_wall: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded since construction."""
        inclusive: dict[str, float] = {}
        self_s = {layer: 0.0 for layer in LAYERS}
        kinds = {kind: 0.0 for kind in COORDINATE_KINDS}
        zeros = 0
        top_level = 0.0
        for s in self.spans:
            dur = s.end - s.start
            inclusive[s.name] = inclusive.get(s.name, 0.0) + dur
            self_s[s.layer] += dur - s.child_s
            if s.parent is None:
                top_level += dur
            if s.tag in kinds and not _inside_tagged(s):
                kinds[s.tag] += dur
            if s.name == "pressure.pressure_zero":
                zeros += 1
        self_s["spaces"] += self.distance_s
        c = self.counts
        out = {
            "specio.load_spec_s": inclusive.get("specio.load_spec", 0.0),
            "cli.stdout_bytes": c["stdout_bytes"],
            "systems.cloud_points": c["cloud_points"],
            "systems.epsilon_words": c["epsilon_words"],
            "spaces.distance_calls": c["distance_calls"],
            "spaces.distance_s": self.distance_s,
            "dimension.cover_centers": c["cover_centers"],
            "models.log_diam_calls": c["log_diam_calls"],
            "models.log_diam_per_word": c["log_diam_calls"] / max(1, len(self.words_checked)),
            "pressure.level_log_sum_calls": c["level_log_sum_calls"],
            "pressure.evals_per_zero": c["zero_evals"] / max(1, zeros),
            "words.stopping_words": c["stopping_words"],
            "harness.self_s": max(0.0, traced_wall - top_level),
        }
        for name in SPAN_NAMES:
            out[name + "_s"] = inclusive.get(name, 0.0)
        for sub in SUBCOMMANDS:
            out["cli.%s_s" % sub] = inclusive.get("cli.main.%s" % sub, 0.0)
        for layer in LAYERS:
            out["%s.errors" % layer] = self.errors[layer]
            out["%s.self_s" % layer] = self_s[layer]
        for kind in COORDINATE_KINDS:
            out["cloud.%s_s" % kind] = kinds[kind]
        total = max(traced_wall, 1e-12)
        out["design.geometry_share"] = (
            self_s["spaces"] + self_s["dimension"] + self_s["systems"]
        ) / total
        out["design.model_share"] = (
            self_s["models"] + self_s["pressure"] + self_s["words"] + self_s["subconstruction"]
            + inclusive.get("systems.osc_collision_scan", 0.0)
            + _exact_epsilon_s(self.spans)
        ) / total
        return out


def _inside_tagged(span) -> bool:
    """Whether an enclosing span already counts this time for a coordinate kind."""
    parent = span.parent
    while parent is not None:
        if parent.tag is not None:
            return True
        parent = parent.parent
    return False


def _exact_epsilon_s(spans) -> float:
    """Time of ``separation_epsilon`` calls on exact coordinates."""
    return sum(
        s.end - s.start
        for s in spans
        if s.name == "systems.separation_epsilon" and s.tag in ("fraction", "quadratic")
    )


class _SpanContext:
    """``with tracer.span(...)``: a span around harness-side code."""

    def __init__(self, tracer, name, layer):
        self.tracer, self.args = tracer, (name, layer, None)

    def __enter__(self):
        self.span = self.tracer._open(*self.args)
        return self.span

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            self.tracer._error(self.span.layer, exc)
        self.tracer._close(self.span)
        return False
