"""Command-line frontend.

Subcommands map one-to-one onto the library: ``pressure`` (curve or
zero), ``validate`` (axiom systems and subconstruction windows),
``generate`` (attractor clouds as CSV/SVG/PPM), ``dimension`` (box-count
slope), ``probe`` (separation diagnostics), and ``beta`` (Carnot
dimension comparison).  All output goes to stdout; every float is
formatted to 12 significant digits so identical inputs give
byte-identical output.

Exit codes: 0 success (and all conditions hold), 1 a checked condition
is violated, 2 unusable input (file, JSON, flags), 3 a domain or
resource error (out-of-range parameter, enumeration cap).
"""

from __future__ import annotations

import argparse
import json
import sys

from .dimension import minkowski_estimate
from .errors import DomainError, EnumerationCapError
from .models import validate_cmc, validate_wcmc
from .pressure import pressure_curve, pressure_zero
from .spaces import SymbolSpace
from .specio import SpecError, load_spec, parse_scalar
from .subconstruction import (
    StratificationData,
    beta_minus,
    beta_plus,
    cantor_branch_sequence,
    verify_cmsc,
)
from .systems import (
    CombMap,
    attractor_cloud,
    ball_condition_probe,
    finite_clustering_sup,
    osc_collision_scan,
    separation_epsilon,
)
from .words import SubTree, word_str


def _round12(value: float) -> float:
    return float("%.12g" % value)


def _clean(obj):
    """Clamp every float to 12 significant digits, recursively."""
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def _emit(obj) -> None:
    print(json.dumps(_clean(obj), separators=(",", ":")))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _spec_model(spec):
    """Spec's model; induces one from a generated cloud when required."""
    try:
        return spec.get_model()
    except DomainError:
        system = spec.require_system()
        # the largest cloud of at most 512 points: (8, 2) for two maps
        samples = min(2, len(system.seed_points))
        depth = 1
        while system.alphabet.size ** (depth + 1) * samples <= 512:
            depth += 1
        return spec.get_model(attractor_cloud(system, depth, samples))


def _cmd_pressure(args) -> int:
    spec = load_spec(args.spec)
    model = _spec_model(spec)
    if args.zero:
        z = pressure_zero(model, args.depth)
        note = (
            "stable at this depth"
            if z.stable
            else "drifting (half-depth %s -> %s); extrapolated %s"
            % tuple("%.6g" % v for v in (z.reference_value, z.value, z.extrapolated))
        )
        _emit(
            {
                "zero": z.value,
                "depth": z.depth,
                "reference_zero": z.reference_value,
                "reference_depth": z.reference_depth,
                "drift": z.drift,
                "stable": z.stable,
                "extrapolated": z.extrapolated,
                "note": note,
            }
        )
        return 0
    ts = _parse_grid(args.t_grid)
    sys.stdout.write(pressure_curve(model, ts, args.depth).to_csv())
    return 0


def _parse_grid(text: str) -> list[float]:
    """``a:b:n`` for n evenly spaced values, or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise SpecError("grid must be start:stop:count or a comma list")
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 2 or not a < b:
            raise SpecError("grid needs start < stop and count >= 2")
        return [a + (b - a) * k / (n - 1) for k in range(n)]
    values = [float(parse_scalar(v)) for v in text.split(",") if v]
    if not values:
        raise SpecError("empty grid")
    return values


def _parse_subtree(text: str | None, t: float | None, depth: int) -> SubTree:
    if text is None or text == "greedy":
        if t is None:
            raise SpecError("subconstruction checks need --t")
        return cantor_branch_sequence(t, depth)
    counts = tuple(int(v) for v in text.split(",") if v)
    if not counts:
        raise SpecError("empty subtree counts")
    return SubTree(counts)


def _cmd_validate(args) -> int:
    spec = load_spec(args.spec)
    model = _spec_model(spec)
    if args.axioms == "cmsc":
        if args.t is None:
            raise SpecError("cmsc validation needs --t")
        subtree = _parse_subtree(args.subtree, args.t, args.depth)
        report = verify_cmsc(model, subtree, args.t, args.constant, args.depth)
        _emit(report.to_json())
        return 0 if report.holds else 1
    validate = validate_wcmc if args.axioms == "wcmc" else validate_cmc
    report = validate(model, args.depth)
    _emit(report.to_json())
    return 0 if report.passed else 1


def _plane_box(cloud):
    """Point abscissae, ordinates (0 on a line) and the box padded by 5%."""
    X = cloud.coordinates
    xs = X[:, 0].tolist()
    ys = X[:, 1].tolist() if X.shape[1] > 1 else [0.0] * len(xs)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    return xs, ys, (x0 - pad, x1 + pad, y0 - pad, y1 + pad)


def _svg(cloud) -> str:
    xs, ys, (x0, x1, y0, y1) = _plane_box(cloud)
    w, h = x1 - x0, y1 - y0
    radius = 0.004 * max(w, h)
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%.12g %.12g %.12g %.12g">'
        % (x0, -y1, w, h)
    ]
    for x, y in zip(xs, ys):
        lines.append(
            '<circle cx="%.12g" cy="%.12g" r="%.12g" fill="black"/>' % (x, -y, radius)
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _ppm(cloud, pixels: int) -> str:
    xs, ys, (x0, x1, y0, y1) = _plane_box(cloud)
    grid = [[0] * pixels for _ in range(pixels)]
    for x, y in zip(xs, ys):
        col = min(int((x - x0) / (x1 - x0) * pixels), pixels - 1)
        row = min(int((y1 - y) / (y1 - y0) * pixels), pixels - 1)
        grid[row][col] = 1
    lines = ["P3", "%d %d" % (pixels, pixels), "255"]
    for row in grid:
        lines.append(" ".join("0 0 0" if v else "255 255 255" for v in row))
    return "\n".join(lines) + "\n"


def _cmd_generate(args) -> int:
    spec = load_spec(args.spec)
    system = spec.require_system()
    cloud = attractor_cloud(system, args.depth, args.samples)
    if args.out == "csv":
        sys.stdout.write(cloud.to_csv())
    elif args.out == "svg":
        if isinstance(system.space, SymbolSpace):
            raise SpecError("symbolic clouds have no plane rendering; use csv")
        sys.stdout.write(_svg(cloud))
    elif args.out == "ppm":
        if isinstance(system.space, SymbolSpace):
            raise SpecError("symbolic clouds have no plane rendering; use csv")
        sys.stdout.write(_ppm(cloud, args.pixels))
    return 0


def _default_scales(cloud) -> list[float]:
    pts = cloud.float_rows()
    span = max(
        max(col) - min(col) for col in zip(*pts)
    )
    if span <= 0:
        raise DomainError("degenerate cloud; supply --scales")
    return [span * 2.0**-k for k in range(2, 7)]


def _model_scale_ratio(model) -> float:
    """Geometric spacing for scale grids: the model's ratio if uniform, else 1/2."""
    ratios = getattr(model, "ratios", None)
    if ratios is not None:
        vals = {float(r) for r in ratios}
        if len(vals) == 1:
            return vals.pop()
    return 0.5


def _cmd_dimension(args) -> int:
    spec = load_spec(args.spec)
    system = spec.require_system()
    cloud = attractor_cloud(system, args.depth, args.samples)
    model = spec.get_model(cloud)
    rho = _model_scale_ratio(model)
    diam = float(model.seed_diameter)
    est = minkowski_estimate(cloud, diam * rho**args.scales, diam * rho, args.scales)
    _emit(est.to_json())
    return 0


def _cmd_probe(args) -> int:
    spec = load_spec(args.spec)
    if args.probe == "osc-collisions":
        r = _probe_ratio(spec, args)
        scan = osc_collision_scan(r, args.depth)
        _emit(
            {
                "collisions": [
                    {"a": word_str(u), "b": word_str(v), "gap": gap}
                    for u, v, gap in scan.collisions
                ],
                "min_nonzero_gap": scan.min_nonzero_gap,
                "exact": scan.exact,
                "depth": scan.depth,
            }
        )
        return 0
    system = spec.require_system()
    if args.probe == "epsilon":
        x = _probe_point(system, args)
        value = separation_epsilon(system, x, args.depth)
        _emit({"epsilon": value, "depth": args.depth})
        return 0
    cloud = attractor_cloud(system, args.depth, args.samples)
    model = spec.get_model(cloud)
    if args.probe == "clustering":
        radii = (
            [float(parse_scalar(v)) for v in args.scales.split(",") if v]
            if args.scales
            else _default_scales(cloud)
        )
        sup = finite_clustering_sup(model, cloud, args.x_samples, radii)
        _emit(
            {
                "clustering_sup": sup,
                "depth": args.depth,
                "radii": radii,
                "x_samples": args.x_samples,
                "note": "lower bound: finite probe points and radii",
            }
        )
        return 0
    if args.probe == "ball":
        if args.r is None:
            raise SpecError("ball probe needs --r")
        r = float(parse_scalar(args.r))
        deltas = [float(parse_scalar(v)) for v in args.deltas.split(",") if v]
        x = _probe_point(system, args)
        probe = ball_condition_probe(model, cloud, x, r, deltas)
        _emit(
            {
                "delta": probe.delta,
                "satisfied": probe.satisfied,
                "r": r,
                "words": [word_str(w) for w in probe.words],
            }
        )
        return 0
    raise SpecError("unknown probe %r" % args.probe)


def _probe_ratio(spec, args):
    if args.r is not None:
        return parse_scalar(args.r)
    system = spec.system
    if system is not None:
        for m in system.maps:
            if isinstance(m, CombMap):
                return m.r
    raise SpecError("no --r given and the spec has no comb ratio to reuse")


def _probe_point(system, args):
    if args.x is not None:
        coords = tuple(parse_scalar(v) for v in args.x.split(","))
        if isinstance(system.space, SymbolSpace):
            return tuple(int(c) for c in coords)
        return coords
    return system.seed_points[0]


def _cmd_beta(args) -> int:
    layers = tuple(int(v) for v in args.layers.split(",") if v)
    strat = StratificationData(layers)
    _emit(
        {
            "beta_minus": beta_minus(strat, args.alpha),
            "beta_plus": beta_plus(strat, args.alpha),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moranlab",
        description="Moran constructions: pressure, axioms, attractors, dimensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pressure", help="pressure curve or its zero")
    p.add_argument("spec")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--zero", action="store_true", help="solve P_depth(t) = 0")
    p.add_argument("--t-grid", default="0.1:1.0:10", help="a:b:n or comma list")
    p.set_defaults(func=_cmd_pressure)

    p = sub.add_parser("validate", help="check construction axioms")
    p.add_argument("spec")
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--axioms", choices=("wcmc", "cmc", "cmsc"), default="wcmc")
    p.add_argument("--t", type=float, default=None, help="exponent for cmsc")
    p.add_argument("-C", "--constant", type=float, default=4.0, help="cmsc window")
    p.add_argument(
        "--subtree", default=None, help="'greedy' or comma branch counts (cmsc)"
    )
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("generate", help="attractor cloud as csv/svg/ppm")
    p.add_argument("spec")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--samples", type=int, default=1, help="seed points per word")
    p.add_argument("--out", choices=("csv", "svg", "ppm"), default="csv")
    p.add_argument("--pixels", type=int, default=64, help="ppm raster size")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("dimension", help="box-count slope of a generated cloud")
    p.add_argument("spec")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--scales", type=int, default=6, help="number of geometric scales")
    p.set_defaults(func=_cmd_dimension)

    p = sub.add_parser("probe", help="separation-condition diagnostics")
    p.add_argument("spec")
    p.add_argument(
        "--probe",
        choices=("clustering", "ball", "epsilon", "osc-collisions"),
        required=True,
    )
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--r", default=None, help="radius / ratio (number or p/q)")
    p.add_argument("--x", default=None, help="probe point, comma coordinates")
    p.add_argument("--x-samples", type=int, default=200)
    p.add_argument("--scales", default=None, help="radius grid (clustering)")
    p.add_argument(
        "--deltas", default="0.5,0.25,0.125,0.0625,0.03125", help="ball probe grid"
    )
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("beta", help="Carnot dimension comparison functions")
    p.add_argument("--layers", required=True, help="layer dims, e.g. 2,1")
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=_cmd_beta)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (DomainError, EnumerationCapError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
