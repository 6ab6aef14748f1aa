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

``main`` is the one dispatch path: it parses the flags, loads the spec
once (every subcommand but ``beta`` takes one), calls the subcommand's
handler ``(spec, args) -> (text, exit code)``, maps errors to exit codes
and is the only writer of stdout.  It is also the only renderer: records
carry values, and the handlers turn their fields into CSV (:func:`_csv`),
SVG, PPM or JSON (:func:`_json`) text.  ``probe`` looks its probes up in
:data:`PROBES`.  Each handler imports the modules its subcommand needs,
so a call loads only those (``beta`` loads no numpy).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import DomainError, EnumerationCapError, SpecError


def _clean(obj):
    """Clamp every float to 12 significant digits, recursively."""
    if isinstance(obj, float):
        return float("%.12g" % obj)
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def _csv(header: str, rows) -> str:
    """The one CSV rendering: ``header``, then a line per row, floats to 12 digits."""
    lines = [",".join("%.12g" % v if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join([header] + lines) + "\n"


def _json(obj) -> str:
    """The one JSON rendering: 12-digit floats, compact separators, one line."""
    try:
        return json.dumps(_clean(obj), separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError:  # an overflow upstream: JSON has no infinities or NaNs
        raise DomainError("the result is not finite; are the spec's numbers too large?") from None


# ---------------------------------------------------------------------------
# subcommands: (spec, args) -> (stdout text, exit code)
# ---------------------------------------------------------------------------


def _cloud(spec, args, points: int = 64):
    """The spec system's ``--samples`` cloud at ``--depth``; without ``--depth``,
    at the largest depth whose cloud holds at most ``points`` points."""
    from .systems import attractor_cloud
    from .words import largest_depth

    system = spec.require_system()
    fits = largest_depth(system.alphabet.size, points // max(1, args.samples))
    return attractor_cloud(system, fits if args.depth is None else args.depth, args.samples)


def _cmd_pressure(spec, args):
    from .pressure import pressure_curve, pressure_zero

    model = spec.get_model()
    if not args.zero:
        curve = pressure_curve(model, _parse_grid(args.t_grid), args.depth)
        rows = ((t, p, curve.depth) for t, p in zip(curve.t_values, curve.p_values))
        return _csv("t,pressure,depth", rows), 0
    z = pressure_zero(model, args.depth)
    note = (
        "stable at this depth"
        if z.stable
        else "drifting (half-depth %s -> %s); extrapolated %s"
        % tuple("%.6g" % v for v in (z.reference_value, z.value, z.extrapolated))
    )
    zero = {
        "zero": z.value, "depth": z.depth, "reference_zero": z.reference_value,
        "reference_depth": z.reference_depth, "drift": z.drift, "stable": z.stable,
        "extrapolated": z.extrapolated, "note": note,
    }
    return _json(zero), 0


def _number(text: str, flag: str):
    """One finite number of ``flag`` (int, float or ``p/q``), exact where written so."""
    from .exactnum import parse_scalar

    value = parse_scalar(text)
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int or fraction beyond the float range
        finite = False
    if not finite:
        raise SpecError("%s takes finite numbers, got %r" % (flag, text))
    return value


def _numbers(text: str, flag: str) -> list[float]:
    """A non-empty comma list of finite numbers, as floats."""
    values = [float(_number(v, flag)) for v in text.split(",") if v]
    if not values:
        raise SpecError("%s needs at least one number" % flag)
    return values


def _integers(text: str, flag: str) -> tuple[int, ...]:
    """A non-empty comma list of integers."""
    try:
        values = tuple(int(v) for v in text.split(",") if v)
    except ValueError:
        raise SpecError("%s takes comma-separated integers, got %r" % (flag, text)) from None
    if not values:
        raise SpecError("%s needs at least one integer" % flag)
    return values


def _parse_grid(text: str) -> list[float]:
    """``a:b:n`` for n evenly spaced values, or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise SpecError("grid must be start:stop:count or a comma list")
        a, b = (float(_number(v, "--t-grid")) for v in parts[:2])
        try:
            n = int(parts[2])
        except ValueError:
            raise SpecError("grid count must be an integer, got %r" % parts[2]) from None
        if n < 2 or not a < b:
            raise SpecError("grid needs start < stop and count >= 2")
        return [a + (b - a) * k / (n - 1) for k in range(n)]
    return _numbers(text, "--t-grid")


def _parse_subtree(text: str | None, t: float, depth: int):
    if text is None or text == "greedy":
        from .subconstruction import cantor_branch_sequence

        return cantor_branch_sequence(t, depth)
    from .words import SubTree

    return SubTree(_integers(text, "--subtree"))


def _cmd_validate(spec, args):
    t = None if args.t is None else float(_number(args.t, "--t"))
    C = float(_number(args.constant, "-C"))
    model = spec.get_model()
    if args.axioms == "cmsc":
        from .subconstruction import verify_cmsc

        if t is None:
            raise SpecError("cmsc validation needs --t")
        from .words import word_str

        subtree = _parse_subtree(args.subtree, t, args.depth)
        r = verify_cmsc(model, subtree, t, C, args.depth)
        (low, n_low), (high, n_high) = r.witness_low, r.witness_high
        cmsc = {
            "t": r.t, "C": r.c_declared, "depth": r.depth, "holds": r.holds,
            "c_witnessed": r.c_witnessed, "ratio_min": r.ratio_min, "ratio_max": r.ratio_max,
            "witness_low": {"word": word_str(low), "n": n_low},
            "witness_high": {"word": word_str(high), "n": n_high},
            "note": r.note,
        }
        return _json(cmsc), 0 if r.holds else 1
    from .models import validate_cmc, validate_wcmc

    validate = validate_wcmc if args.axioms == "wcmc" else validate_cmc
    r = validate(model, args.depth)
    report = {"scheme": r.scheme, "depth": r.depth, "passed": r.passed, "constant": r.constant,
              "checks": [c._asdict() for c in r.checks]}
    return _json(report), 0 if r.passed else 1


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
    circle = '<circle cx="%.12g" cy="%.12g" r="%.12g" fill="black"/>'
    lines += [circle % (x, -y, radius) for x, y in zip(xs, ys)] + ["</svg>"]
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


def _cmd_generate(spec, args):
    from .words import _check_enum

    if args.out != "csv" and spec.require_system().space.coordinate_dim is None:
        raise SpecError("symbolic clouds have no plane rendering; use csv")
    if args.out == "ppm":
        if args.pixels < 1:
            raise DomainError("--pixels must be at least 1, got %d" % args.pixels)
        _check_enum(args.pixels**2, "a %dx%d ppm raster" % (args.pixels, args.pixels))
    cloud = _cloud(spec, args)
    if args.out == "csv":
        return _cloud_csv(cloud), 0
    if args.out == "svg":
        return _svg(cloud), 0
    return _ppm(cloud, args.pixels), 0


def _cloud_csv(cloud) -> str:
    """A row per point: its word, then its coordinates, or its letters on the symbol tree."""
    from .words import word_str

    labels = map(word_str, cloud.labels)
    if cloud.space.coordinate_dim is None:
        return _csv("word,point", ([w, word_str(tuple(p))] for w, p in zip(labels, cloud.points)))
    dim = cloud.coordinates.shape[1]
    names = ["x", "y", "z"][:dim] if dim <= 3 else ["c%d" % i for i in range(dim)]
    rows = ([w, *x] for w, x in zip(labels, cloud.coordinates.tolist()))
    return _csv(",".join(["word", *names]), rows)


def _default_scales(cloud) -> list[float]:
    # float coordinates, or the letters of the points on the symbol tree
    rows = cloud.points if cloud.space.coordinate_dim is None else cloud.coordinates.tolist()
    span = max(max(col) - min(col) for col in zip(*rows))
    if span <= 0:
        raise DomainError("degenerate cloud; supply --scales")
    return [span * 2.0**-k for k in range(2, 7)]


def _cmd_dimension(spec, args):
    from .dimension import minkowski_estimate

    cloud = _cloud(spec, args, 4096)
    model = spec.get_model(cloud)
    rho = model.scale_ratio
    diam = float(model.seed_diameter)
    est = minkowski_estimate(cloud, diam * rho**args.scales, diam * rho, args.scales)
    return _json(est._asdict()), 0


# -- probes: (spec, args) -> result object ------------------------------------


def _probe_clustering(spec, args):
    from .systems import finite_clustering_sup

    radii = None if args.scales is None else _numbers(args.scales, "--scales")
    cloud = _cloud(spec, args)
    model = spec.get_model(cloud)
    radii = radii or _default_scales(cloud)
    return {
        "clustering_sup": finite_clustering_sup(model, cloud, args.x_samples, radii),
        "depth": cloud.depth,
        "radii": radii,
        "x_samples": args.x_samples,
        "note": "lower bound: finite probe points and radii",
    }


def _probe_ball(spec, args):
    from .systems import ball_condition_probe
    from .words import word_str

    if args.r is None:
        raise SpecError("ball probe needs --r")
    r = float(_number(args.r, "--r"))
    deltas = _numbers(args.deltas, "--deltas")
    x = _probe_point(spec.require_system(), args.x)
    cloud = _cloud(spec, args)
    probe = ball_condition_probe(spec.get_model(cloud), cloud, x, r, deltas)
    return {
        "delta": probe.delta,
        "satisfied": probe.satisfied,
        "r": r,
        "words": [word_str(w) for w in probe.words],
    }


def _probe_epsilon(spec, args):
    from .systems import separation_epsilon

    system = spec.require_system()
    x = _probe_point(system, args.x)
    depth = 6 if args.depth is None else args.depth
    return {"epsilon": separation_epsilon(system, x, depth), "depth": depth}


def _probe_osc_collisions(spec, args):
    from .systems import osc_collision_scan
    from .words import word_str

    scan = osc_collision_scan(_probe_ratio(spec, args), 6 if args.depth is None else args.depth)
    return {
        "collisions": [
            {"a": word_str(u), "b": word_str(v), "gap": gap} for u, v, gap in scan.collisions
        ],
        "min_nonzero_gap": scan.min_nonzero_gap,
        "exact": scan.exact,
        "depth": scan.depth,
    }


# ``--probe`` takes exactly these names
PROBES = {
    "clustering": _probe_clustering,
    "ball": _probe_ball,
    "epsilon": _probe_epsilon,
    "osc-collisions": _probe_osc_collisions,
}


def _cmd_probe(spec, args):
    return _json(PROBES[args.probe](spec, args)), 0


def _probe_ratio(spec, args):
    from .systems import CombMap

    if args.r is not None:
        return _number(args.r, "--r")
    for m in spec.system.maps if spec.system is not None else ():
        if isinstance(m, CombMap):
            return m.r
    raise SpecError("no --r given and the spec has no comb ratio to reuse")


def _probe_point(system, text: str | None):
    """``--x`` (else the first seed point): as wide as the seeds, or a word of letters."""
    if text is None:
        return system.seed_points[0]
    coords = tuple(_number(v, "--x") for v in text.split(","))
    if system.space.coordinate_dim is None:
        size = system.space.alphabet.size
        if not all(float(c).is_integer() and 0 <= c < size for c in coords):
            raise DomainError(
                "symbol points are words of integer letters 0..%d, got --x %s"
                % (size - 1, text)
            )
        return tuple(int(c) for c in coords)
    width = len(system.seed_points[0])
    if len(coords) != width:
        raise DomainError(
            "points of different dimension: --x has width %d, the space's points %d"
            % (len(coords), width)
        )
    return coords


def _cmd_beta(spec, args):
    from .stratification import StratificationData, beta_minus, beta_plus

    strat = StratificationData(_integers(args.layers, "--layers"))
    alpha = float(_number(args.alpha, "--alpha"))
    beta = {"beta_minus": beta_minus(strat, alpha), "beta_plus": beta_plus(strat, alpha)}
    return _json(beta), 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moranlab",
        description="Moran constructions: pressure, axioms, attractors, dimensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, spec: bool = True):
        """Subcommand ``name``, run by ``func`` on its ``spec`` file once ``main`` loads it."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if spec:
            p.add_argument("spec")
        return p

    p = command("pressure", _cmd_pressure, "pressure curve or its zero")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--zero", action="store_true", help="solve P_depth(t) = 0")
    p.add_argument("--t-grid", default="0.1:1.0:10", help="a:b:n or comma list")

    p = command("validate", _cmd_validate, "check construction axioms")
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--axioms", choices=("wcmc", "cmc", "cmsc"), default="wcmc")
    p.add_argument("--t", default=None, help="exponent for cmsc (number or p/q)")
    p.add_argument("-C", "--constant", default="4", help="cmsc window")
    p.add_argument("--subtree", default=None, help="'greedy' or comma branch counts (cmsc)")

    p = command("generate", _cmd_generate, "attractor cloud as csv/svg/ppm")
    p.add_argument("--depth", type=int, help="default: a cloud of at most 64 points")
    p.add_argument("--samples", type=int, default=1, help="seed points per word")
    p.add_argument("--out", choices=("csv", "svg", "ppm"), default="csv")
    p.add_argument("--pixels", type=int, default=64, help="ppm raster size")

    p = command("dimension", _cmd_dimension, "box-count slope of a generated cloud")
    p.add_argument("--depth", type=int, help="default: a cloud of at most 4096 points")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--scales", type=int, default=6, help="number of geometric scales")

    p = command("probe", _cmd_probe, "separation-condition diagnostics")
    p.add_argument("--probe", choices=tuple(PROBES), required=True)
    p.add_argument("--depth", type=int, help="default: 6, or a cloud of at most 64 points")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--r", default=None, help="radius / ratio (number or p/q)")
    p.add_argument("--x", default=None, help="probe point, comma coordinates")
    p.add_argument("--x-samples", type=int, default=200)
    p.add_argument("--scales", default=None, help="radius grid (clustering)")
    p.add_argument("--deltas", default="0.5,0.25,0.125,0.0625,0.03125", help="ball probe grid")

    p = command("beta", _cmd_beta, "Carnot dimension comparison functions", spec=False)
    p.add_argument("--layers", required=True, help="layer dims, e.g. 2,1")
    p.add_argument("--alpha", required=True, help="Euclidean dimension (number or p/q)")

    return parser


def main(argv=None) -> int:
    """Parse ``argv``, load the spec once, run the subcommand, write its output."""
    import warnings

    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:  # each one line, after the output
        try:
            spec = None
            if "spec" in args:  # every subcommand but beta reads a spec file
                from .specio import load_spec

                spec = load_spec(args.spec)
            text, code = args.func(spec, args)
        except (SpecError, DomainError, EnumerationCapError) as exc:
            text, code = "", 2 if isinstance(exc, SpecError) else 3
            print("error: %s" % exc, file=sys.stderr)
    sys.stdout.write(text)
    sys.stderr.writelines("warning: %s\n" % w.message for w in caught)
    return code
