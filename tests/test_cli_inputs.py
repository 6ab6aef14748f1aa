"""Malformed flag values and spec files through ``cli.main``: every call ends
with a clean exit.

Exit codes: 0/1 print one JSON document (or CSV/SVG/PPM), 2 (unusable
input) and 3 (domain or resource error) print one ``error:`` line and
nothing on stdout.  Library warnings print as ``warning:`` lines, never
in Python's ``file.py:line`` form.  One fuzz test draws whole command
lines, the other mutates the shipped spec files; the cases above each pin
the bugs it guards against.
"""

import contextlib
import io
import json
import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranlab import cli

# RuntimeWarning stays a warning here: two test_failing_arithmetic_exits_3 cases
# overflow on purpose, and the mutated specs may overflow too
pytestmark = pytest.mark.filterwarnings("default::RuntimeWarning")

PKG_ROOT = Path(__file__).resolve().parent.parent
SPEC_NAMES = ("cantor", "comb", "heisenberg", "nsq", "selfaffine", "supercantor", "symbolifs")


def run_main(argv):
    """``(exit code, stdout, stderr)`` of one in-process call; argparse exits count."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError("non-finite number %s in the output" % name)


def assert_clean_exit(argv, code, out, err):
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err and ".py:" not in err, (argv, err)
    if code in (2, 3):
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
        assert out == "", (argv, out)
    elif _emits_json(argv):
        assert out.count("\n") == 1, (argv, out)
        json.loads(out, parse_constant=_reject_constant)


def _emits_json(argv) -> bool:
    if argv[0] == "pressure":
        return "--zero" in argv
    return argv[0] != "generate"


# -- known cases of that class, one test each -------------------------------------

BAD_POINTS = [
    (["probe", "specs/comb.json", "--probe", "epsilon", "--x", "0.5", "--depth", "8"],
     "--x has width 1, the space's points 2"),
    (["probe", "specs/heisenberg.json", "--probe", "epsilon", "--x", "0.5", "--depth", "2"],
     "--x has width 1, the space's points 3"),
    (["probe", "specs/cantor.json", "--probe", "epsilon", "--x", "0.5,0.2"],
     "--x has width 2, the space's points 1"),
    (["probe", "specs/cantor.json", "--probe", "ball", "--r", "0.33", "--x", "0.5,0.2"],
     "--x has width 2, the space's points 1"),
    (["probe", "specs/symbolifs.json", "--probe", "epsilon", "--x", "0.5"],
     "integer letters 0..2"),
    (["probe", "specs/symbolifs.json", "--probe", "ball", "--r", "0.3", "--x", "1,3"],
     "integer letters 0..2"),
]


@pytest.mark.parametrize("argv,message", BAD_POINTS, ids=[" ".join(a) for a, _ in BAD_POINTS])
def test_probe_points_of_the_wrong_width_exit_3(monkeypatch, argv, message):
    monkeypatch.chdir(PKG_ROOT)
    code, out, err = run_main(argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and message in err


def test_subtree_of_an_empty_level_exits_3(monkeypatch):
    monkeypatch.chdir(PKG_ROOT)
    argv = ["validate", "specs/cantor.json", "--axioms", "cmsc", "--t", "0.4", "--subtree", "2,0"]
    assert run_main(argv) == (3, "", "error: branch count at level 2 must be >= 1, got 0\n")


def test_ppm_raster_is_capped_before_the_cloud(monkeypatch):
    """``--pixels N`` counts N^2 cells against the enumeration cap before anything is built."""
    monkeypatch.chdir(PKG_ROOT)
    monkeypatch.delenv("MORANLAB_ENUM_CAP", raising=False)
    argv = ["generate", "specs/comb.json", "--out", "ppm", "--depth", "2"]
    run_main(argv + ["--pixels", "1"])  # imports outside the traced call
    tracemalloc.start()
    try:
        code, out, err = run_main(argv + ["--pixels", "100000"])  # 10^10 cells
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err == (
        "error: a 100000x100000 ppm raster would enumerate 10000000000 words (cap 16777216)\n"
    )
    assert peak < 2**20
    # the cap is the bound: 16^2 cells fit a cap of 256, 17^2 do not
    monkeypatch.setenv("MORANLAB_ENUM_CAP", "256")
    golden = (PKG_ROOT / "tests" / "golden" / "generate_comb_d2.ppm").read_text()
    assert run_main(argv + ["--pixels", "16"]) == (0, golden, "")
    assert run_main(argv + ["--pixels", "17"])[0] == 3


@pytest.mark.parametrize("deltas", ["-1", "0", "0.5,0"])
def test_ball_probe_non_positive_deltas_exit_3(monkeypatch, deltas):
    monkeypatch.chdir(PKG_ROOT)
    argv = ["probe", "specs/cantor.json", "--probe", "ball", "--r", "0.33", "--x", "0.0",
            "--depth", "6", "--deltas", deltas]
    code, out, err = run_main(argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "delta grid must be non-empty and positive" in err


BAD_INTEGER_LISTS = [
    (["validate", "specs/cantor.json", "--axioms", "cmsc", "--t", "0.4", "--subtree", "x,y"],
     "--subtree takes comma-separated integers"),
    (["beta", "--layers", "2,x", "--alpha", "1"], "--layers takes comma-separated integers"),
    (["beta", "--layers", ",", "--alpha", "1"], "--layers needs at least one integer"),
]


@pytest.mark.parametrize(
    "argv,message", BAD_INTEGER_LISTS, ids=[" ".join(a) for a, _ in BAD_INTEGER_LISTS]
)
def test_integer_list_flags_exit_2(monkeypatch, argv, message):
    monkeypatch.chdir(PKG_ROOT)
    code, out, err = run_main(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


# --t, -C and --alpha were argparse floats: "p/q" was a usage error and nan or
# inf reached the library (exit 3); empty number lists reached it too
BAD_NUMBERS = [
    (["validate", "specs/cantor.json", "--axioms", "cmsc", "--t", "nan"],
     "--t takes finite numbers, got 'nan'"),
    (["validate", "specs/cantor.json", "--axioms", "cmsc", "--t", "0.4", "-C", "inf"],
     "-C takes finite numbers, got 'inf'"),
    (["beta", "--layers", "2,1", "--alpha", "nan"], "--alpha takes finite numbers, got 'nan'"),
    (["probe", "specs/cantor.json", "--probe", "clustering", "--scales", ","],
     "--scales needs at least one number"),
    (["probe", "specs/cantor.json", "--probe", "ball", "--r", "0.3", "--deltas", ","],
     "--deltas needs at least one number"),
    (["pressure", "specs/cantor.json", "--t-grid", ","], "--t-grid needs at least one number"),
    (["pressure", "specs/cantor.json", "--t-grid", "0.1:0.5"],
     "grid must be start:stop:count or a comma list"),
    (["pressure", "specs/cantor.json", "--t-grid", "0.5:0.1:3"],
     "grid needs start < stop and count >= 2"),
    # an int beyond the float range over 3: an OverflowError in ``math.isfinite``
    (["validate", "specs/cantor.json", "--axioms", "cmsc", "--t", "1" + "0" * 400 + "/3"],
     "--t takes finite numbers"),
    # the probes built the depth-30 cloud before reading their flags: exit 3 at the cap
    (["probe", "specs/cantor.json", "--probe", "clustering", "--depth", "30", "--scales", ","],
     "--scales needs at least one number"),
    (["probe", "specs/cantor.json", "--probe", "ball", "--depth", "30"], "ball probe needs --r"),
    (["probe", "specs/cantor.json", "--probe", "ball", "--depth", "30", "--r", "0.3",
      "--deltas", ","], "--deltas needs at least one number"),
]


@pytest.mark.parametrize("argv,message", BAD_NUMBERS, ids=[" ".join(a) for a, _ in BAD_NUMBERS])
def test_number_flags_exit_2(monkeypatch, argv, message):
    monkeypatch.chdir(PKG_ROOT)
    code, out, err = run_main(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


RATIONAL_FLAGS = [
    (["validate", "specs/cantor.json", "--axioms", "cmsc", "--depth", "6"], "--t", "1/2", "0.5"),
    (["validate", "specs/cantor.json", "--axioms", "cmsc", "--depth", "6", "--t", "0.6"],
     "-C", "9/2", "4.5"),
    (["beta", "--layers", "2,1"], "--alpha", "5/2", "2.5"),
]


@pytest.mark.parametrize("argv,flag,rational,decimal", RATIONAL_FLAGS,
                         ids=[a[1] for a in RATIONAL_FLAGS])
def test_number_flags_read_p_over_q_as_their_value(monkeypatch, argv, flag, rational, decimal):
    monkeypatch.chdir(PKG_ROOT)
    got, want = (run_main([*argv, flag, v]) for v in (rational, decimal))
    assert got == want and got[0] in (0, 1) and got[1], got


# -- argv fuzz --------------------------------------------------------------------

NUMBERS = st.sampled_from([
    "", ",", "x", "nan", "inf", "-inf", "1e400", "1" * 400, "-1", "0", "-0.0", "1/0",
    "1/x", "2/3", "0.5", "0.33", "0.1,0.05", "0.5,,0.2", "1,2", "1,2,3", "0,0.5", "7",
])
INTEGER_LISTS = st.sampled_from(["", ",", "x,y", "2,x", "0", "-1", "1", "2,1", "1,2,1,2", "99999999999999999999"])
GRIDS = NUMBERS | st.sampled_from(["0:1:3", "1:0:3", "0:1:1", "0:1:x", "0:1", "x:1:3", "0.1:0.9:4", ":1:3", "0:1:3,4"])
FLOATS = st.sampled_from(["0.4", "0.1", "1", "2.5", "9", "-1", "nan", "inf", "x"])


def _flags(draw, pairs):
    """``--flag value`` for each ``(flag, strategy)`` pair that is drawn at all."""
    argv = []
    for flag, values in pairs:
        value = draw(st.none() | values)
        if value is not None:
            argv += [flag, value]
    return argv


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(("pressure", "validate", "generate", "dimension", "probe", "beta")))
    if command == "beta":
        return ["beta", "--layers", draw(INTEGER_LISTS), "--alpha", draw(FLOATS)]
    argv = [command, "specs/%s.json" % draw(st.sampled_from(SPEC_NAMES))]
    argv += ["--depth", str(draw(st.integers(-1, 6)))]
    if command == "pressure":
        argv += ["--zero"] if draw(st.booleans()) else ["--t-grid", draw(GRIDS)]
    elif command == "validate":
        argv += ["--axioms", draw(st.sampled_from(("wcmc", "cmc", "cmsc")))]
        argv += _flags(draw, [("--t", FLOATS), ("-C", FLOATS),
                              ("--subtree", INTEGER_LISTS | st.just("greedy"))])
    elif command == "generate":
        argv += ["--out", draw(st.sampled_from(("csv", "svg", "ppm")))]
        argv += _flags(draw, [("--samples", st.sampled_from(("0", "1", "2", "5"))),
                              ("--pixels", st.sampled_from(("0", "1", "8")))])
    elif command == "dimension":
        argv += _flags(draw, [("--scales", st.sampled_from(("-2", "0", "1", "3", "2000")))])
    else:
        argv += ["--probe", draw(st.sampled_from(("clustering", "ball", "epsilon", "osc-collisions")))]
        argv += _flags(draw, [("--r", NUMBERS), ("--x", NUMBERS), ("--scales", NUMBERS),
                              ("--deltas", NUMBERS), ("--x-samples", st.sampled_from(("0", "1", "5")))])
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=command_lines(), cap=st.sampled_from(("16", "256", "2048")))
def test_malformed_command_lines_exit_cleanly(argv, cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(PKG_ROOT)
        mp.setenv("MORANLAB_ENUM_CAP", cap)
        code, out, err = run_main(argv)
    assert_clean_exit(argv, code, out, err)


# -- malformed spec files -----------------------------------------------------------


def shipped(name):
    return json.loads((PKG_ROOT / "specs" / ("%s.json" % name)).read_text())


def _set(name, path, value):
    """Shipped spec ``name`` with the entry at ``path`` (keys and indices) set to ``value``."""
    data = shipped(name)
    *parents, last = path
    node = data
    for key in parents:
        node = node[key]
    node[last] = value
    return data


TWO_LETTERS = {
    "type": "system", "name": "two-letter", "space": {"kind": "symbol", "alphabet": 2},
    "maps": [{"kind": "symbol", "table": [[0], [1]]}, {"kind": "symbol", "table": [[5], [1]]}],
    "seed_points": [[0, 1]], "seed_diameter": 1.0,
}

BAD_SPECS = [
    ("fraction zero denominator", _set("cantor", ("maps", 0, "ratio"), "1/0"),
     ["generate", "--depth", "2"], "maps[0]: bad rational '1/0'"),
    # {"fraction": [p, q]} was a second spelling of "p/q" that no spec used
    ("fraction object", _set("cantor", ("maps", 0, "ratio"), {"fraction": [1, 3]}),
     ["generate", "--depth", "2"], "maps[0]: unknown scalar object with keys ['fraction']"),
    ("sqrt zero denominator",
     _set("comb", ("maps", 1, "r"), {"sqrt": {"a": [1, 0], "b": [1, 2], "d": 5}}),
     ["pressure", "--zero"], "maps[1]: bad exact scalar"),
    ("maps that are not objects", _set("cantor", ("maps",), [1, 2]),
     ["generate", "--depth", "2"], "maps[0]: must be a JSON object"),
    ("carnot anchor of two numbers", _set("heisenberg", ("maps", 3, "anchor"), [0, 1]),
     ["generate", "--depth", "2"], "maps[3]: anchor needs 3 entries"),
    ("affine2d matrix of one row", _set("selfaffine", ("maps", 0, "matrix"), [[1, 0]]),
     ["generate", "--depth", "2"], "maps[0]: matrix needs 2 entries"),
    ("similitude fixed point too wide", _set("cantor", ("maps", 1, "fixed_point"), [0, 0]),
     ["generate", "--depth", "2"], "maps[1]: a similitude map acts on points of width 2, not 1"),
    ("seed point too wide", _set("cantor", ("seed_points", 0), [0, 1]),
     ["generate", "--depth", "2"], "seed_points[0]: a seed point needs 1 entries"),
    ("symbol table beyond the alphabet", TWO_LETTERS,
     ["generate", "--depth", "2"], "maps[1]: symbol 5 outside alphabet of size 2"),
    ("symbol table one word short", _set("symbolifs", ("maps", 0, "table"), [[1, 0], [1]]),
     ["generate", "--depth", "2"], "maps[0]: the table needs 3 entries"),
    ("symbol seed beyond the alphabet", _set("symbolifs", ("seed_points", 1), [1, 3]),
     ["generate", "--depth", "2"], "seed_points[1]: symbol 3 outside alphabet of size 3"),
    ("symbol seed of fractional letters", _set("symbolifs", ("seed_points", 0), [0.9, 1.7]),
     ["generate", "--depth", "2"], "seed_points[0]: letters must be integers, got 0.9"),
    ("symbol table of fractional letters", _set("symbolifs", ("maps", 1, "table", 0), [2.5]),
     ["generate", "--depth", "2"], "maps[1]: letters must be integers, got 2.5"),
    # a letter in the alphabet, written as a string: "symbol '1' outside alphabet of size 3"
    ("symbol seed letter a string", _set("symbolifs", ("seed_points", 0), ["1", 0, 0, 0]),
     ["generate", "--depth", "2"], "seed_points[0]: letters must be integers, got '1'"),
    ("symbol table letter a string", _set("symbolifs", ("maps", 0, "table", 0), ["1"]),
     ["generate", "--depth", "2"], "maps[0]: letters must be integers, got '1'"),
    # int() made this map a copy of maps[0]: two identical branches, exit 0
    ("comb shift of one half", _set("comb", ("maps", 1, "shift"), 0.5),
     ["generate", "--depth", "2"], "maps[1]: shift must be an integer"),
    # int() read these: a 1-D cloud, three letters, the zero for two branches,
    # and "alphabet needs at least two symbols, got 1"
    ("euclidean dim of one and a half", _set("cantor", ("space", "dim"), 1.5),
     ["generate", "--depth", "2"], "space: dim must be an integer, got 1.5"),
    ("symbol alphabet of 3.9", _set("symbolifs", ("space", "alphabet"), 3.9),
     ["generate", "--depth", "2"], "space: alphabet must be an integer, got 3.9"),
    ("level branches of 2.5", _set("nsq", ("branches",), 2.5),
     ["pressure", "--zero"], "model: branches must be an integer, got 2.5"),
    ("level branches true", _set("nsq", ("branches",), True),
     ["pressure", "--zero"], "model: branches must be an integer, got True"),
    # the level model took the seed's log first: "model: math domain error"
    ("level seed diameter of zero", _set("nsq", ("seed_diameter",), 0),
     ["pressure", "--zero"], "model: seed diameter must be positive"),
    ("level seed diameter below zero", _set("supercantor", ("seed_diameter",), -1.0),
     ["validate"], "model: seed diameter must be positive"),
    # NaN passed every ``<= 0`` check: validate died in numpy, pressure found a zero
    ("level seed diameter NaN", _set("nsq", ("seed_diameter",), math.nan),
     ["validate"], "model: seed diameter must be positive"),
    ("system seed diameter NaN", _set("cantor", ("seed_diameter",), math.nan),
     ["pressure", "--zero"], "seed_diameter: seed diameter must be positive"),
    # json reads 1e400 as inf: pressure printed the zero 4.5e-13 with exit 0,
    # validate died in numpy on an empty array
    ("system seed diameter infinite", _set("cantor", ("seed_diameter",), math.inf),
     ["pressure", "--zero"], "seed_diameter: seed diameter must be positive and finite"),
    ("level seed diameter infinite", _set("nsq", ("seed_diameter",), math.inf),
     ["validate"], "model: seed diameter must be positive and finite"),
    # float() read true as 1.0: exit 0
    ("system seed diameter true", _set("cantor", ("seed_diameter",), True),
     ["pressure", "--zero"], "seed_diameter: booleans are not numeric scalars"),
    ("level seed diameter true", _set("nsq", ("seed_diameter",), True),
     ["pressure", "--zero"], "model: booleans are not numeric scalars"),
    ("snowflake p true",
     _set("cantor", ("space",), {"kind": "snowflake", "base": {"kind": "euclidean", "dim": 1},
                                 "p": True}),
     ["generate", "--depth", "2"], "space: booleans are not numeric scalars"),
    # integers beyond the float range: OverflowError, a traceback and exit 1
    ("system seed diameter of 401 digits", _set("cantor", ("seed_diameter",), 10**400),
     ["pressure", "--zero"], "seed_diameter: int too large to convert to float"),
    ("similitude ratio of 401 digits", _set("cantor", ("maps", 0, "ratio"), 10**400),
     ["pressure", "--zero"], "maps[0]: int too large to convert to float"),
    ("model ratio of 401 digits",
     {"type": "model", "name": "huge", "kind": "multiplicative", "ratios": [10**400, 0.5]},
     ["pressure", "--zero"], "model: int too large to convert to float"),
    # strings and objects were read as coordinate arrays: "0" as (0.0,), "01"
    # as two seed points, {"0": 5} as (0.0,); each exit 0
    ("seed point a string", _set("cantor", ("seed_points",), ["0", [1]]),
     ["generate", "--depth", "2"], "seed_points[0]: a seed point must be a JSON list, got '0'"),
    ("seed point an object", _set("cantor", ("seed_points", 0), {"0": 5}),
     ["generate", "--depth", "2"], "seed_points[0]: a seed point must be a JSON list"),
    ("seed points a string", _set("cantor", ("seed_points",), "01"),
     ["generate", "--depth", "2"], "seed_points must be a JSON list, got '01'"),
    ("similitude fixed point a string", _set("cantor", ("maps", 1, "fixed_point"), "1"),
     ["generate", "--depth", "2"], "maps[1]: fixed_point must be a JSON list"),
    ("affine2d translation a string", _set("selfaffine", ("maps", 1, "translation"), "00"),
     ["generate", "--depth", "2"], "maps[1]: translation must be a JSON list"),
    ("affine2d matrix row a string", _set("selfaffine", ("maps", 0, "matrix", 1), "01"),
     ["generate", "--depth", "2"], "maps[0]: a row must be a JSON list"),
    ("carnot anchor a string", _set("heisenberg", ("maps", 1, "anchor"), "010"),
     ["generate", "--depth", "2"], "maps[1]: anchor must be a JSON list"),
    ("symbol table a string", _set("symbolifs", ("maps", 0, "table"), "100"),
     ["generate", "--depth", "2"], "maps[0]: table must be a JSON list"),
    # read as its characters: "symbol '1' outside alphabet of size 3"
    ("symbol table word a string", _set("symbolifs", ("maps", 0, "table"), ["10", [1], [1]]),
     ["generate", "--depth", "2"], "maps[0]: a table word must be a JSON list, got '10'"),
    # "'int' object is not iterable"
    ("symbol table word a number", _set("symbolifs", ("maps", 0, "table"), [1, [1], [1]]),
     ["generate", "--depth", "2"], "maps[0]: a table word must be a JSON list, got 1"),
    ("rectangle sides a string", _set("selfaffine", ("model", "a"), "11"),
     ["pressure", "--zero"], "model: a must be a JSON list"),
    # read as (5.0, 5.0): "ratios must lie in (0, 1)"
    ("model ratios a string",
     {"type": "model", "name": "digits", "kind": "multiplicative", "ratios": "55"},
     ["pressure", "--zero"], "model: ratios must be a JSON list, got '55'"),
    # a comb map took any ratio: a non-attractor printed with exit 0
    ("comb ratio of two", _set("comb", ("maps", 0, "r"), 2),
     ["generate", "--depth", "2"], "maps[0]: comb ratio must lie in (0, 1)"),
    ("similitude ratio of two", _set("cantor", ("maps", 0, "ratio"), 2),
     ["generate", "--depth", "2"], "maps[0]: similitude ratio must lie in (0, 1)"),
]


@pytest.mark.parametrize("data,argv,message", [c[1:] for c in BAD_SPECS],
                         ids=[c[0] for c in BAD_SPECS])
def test_malformed_specs_exit_2_naming_the_entry(tmp_path, data, argv, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    code, out, err = run_main([argv[0], str(path), *argv[1:]])
    assert (code, out) == (2, ""), (code, out, err)
    assert err.startswith("error: ") and message in err, err


# float() refused the "p/q" strings that every other scalar entry takes
@pytest.mark.parametrize("name", ["cantor", "nsq"])
def test_rational_seed_diameters_read_as_their_value(tmp_path, name):
    runs = []
    for seed in ("1/2", 0.5):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_set(name, ("seed_diameter",), seed)))
        runs.append(run_main(["validate", str(path), "--depth", "6"]))
    assert runs[0] == runs[1] and runs[0][0] in (0, 1) and runs[0][1], runs


# found by the fuzz test below: valid shapes whose arithmetic fails downstream
FAILING_ARITHMETIC = [
    ("coordinates that overflow", _set("cantor", ("maps", 1, "fixed_point"), [1e300]),
     ["probe", "--probe", "epsilon", "--depth", "2"], "the result is not finite"),
    ("two radicands", _set("comb", ("maps", 1, "r", "sqrt", "d"), 7),
     ["generate", "--depth", "2"], "mixed radicands 5 and 7"),
    # the sampled seed diameter overflows to inf: a ZeroDivisionError traceback
    ("sampled seed diameter overflows",
     {**_set("cantor", ("maps", 1, "fixed_point"), [1e308]), "seed_diameter": None},
     ["validate", "--axioms", "cmc"], "seed diameter must be positive and finite"),
    # both maps fix the one seed: every point is 0, so no default scale exists
    ("degenerate cloud",
     {**_set("cantor", ("maps", 1, "fixed_point"), [0]), "seed_points": [[0]]},
     ["probe", "--probe", "clustering"], "degenerate cloud; supply --scales"),
]


@pytest.mark.parametrize("data,argv,message", [c[1:] for c in FAILING_ARITHMETIC],
                         ids=[c[0] for c in FAILING_ARITHMETIC])
def test_failing_arithmetic_exits_3(tmp_path, data, argv, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    code, out, err = run_main([argv[0], str(path), *argv[1:]])
    assert (code, out) == (3, ""), (code, out, err)
    assert err.startswith("error: ") and message in err, err


def _paths(node, path=()):
    """Every key and index path in a JSON tree, the root first."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


WRONG_VALUES = st.sampled_from([
    None, True, "x", "1/0", "-1", 0, -1, 7, 0.5, 1e300, [], {}, [1, 2, 3], [[1, 0]],
    {"fraction": [1, 0]}, {"fraction": [1]}, {"sqrt": {"a": [1, 0], "b": [1, 2], "d": 5}},
    {"sqrt": {"a": [1, 2], "b": [1, 2], "d": -5}}, {"kind": "teleport"},
])
SPEC_COMMANDS = [
    ["generate", "--depth", "2"], ["pressure", "--zero", "--depth", "4"],
    ["validate", "--depth", "3"], ["probe", "--probe", "epsilon", "--depth", "2"],
    ["dimension", "--depth", "3", "--scales", "2"],
    ["probe", "--probe", "epsilon", "--depth", "2", "--x", "0,1"],
    ["probe", "--probe", "epsilon", "--depth", "2", "--x", "0,1,0,1"],
    ["generate", "--depth", "2", "--out", "svg"],
]


@st.composite
def mutated_specs(draw):
    """A shipped spec with one entry dropped, replaced or made wider or narrower, or
    with its space snowflaked (which keeps its points)."""
    data = shipped(draw(st.sampled_from(SPEC_NAMES)))
    *parents, last = draw(st.sampled_from(list(_paths(data))[1:]))
    node = data
    for key in parents:
        node = node[key]
    action = draw(st.sampled_from(("drop", "replace", "widen", "narrow", "snowflake")))
    value = node[last]
    if action == "snowflake":
        data["space"] = {"kind": "snowflake", "base": data.get("space"), "p": 0.5}
    elif action == "drop":
        del node[last]
    elif action == "widen" and isinstance(value, list):
        value.append(value[-1] if value else 0)
    elif action == "narrow" and isinstance(value, list) and value:
        value.pop()
    else:
        node[last] = draw(WRONG_VALUES)
    return data


@settings(max_examples=200, deadline=None)
@given(data=mutated_specs(), argv=st.sampled_from(SPEC_COMMANDS))
def test_mutated_specs_exit_cleanly(tmp_path_factory, data, argv):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(json.dumps(data))
    argv = [argv[0], str(path), *argv[1:]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MORANLAB_ENUM_CAP", "4096")
        code, out, err = run_main(argv)
    assert_clean_exit(argv, code, out, err)
