"""End-to-end CLI runs compared byte-for-byte against golden transcripts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PKG_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = PKG_ROOT / "tests" / "golden"
SPECS = PKG_ROOT / "specs"


def run_cli(*args, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PKG_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "moranlab", *args],
        capture_output=True,
        text=True,
        cwd=PKG_ROOT,
        env=env,
        timeout=timeout,
    )


GOLDEN_CASES = [
    ("pressure_zero_cantor.json", 0,
     ["pressure", "specs/cantor.json", "--zero", "--depth", "16"]),
    ("pressure_curve_cantor.csv", 0,
     ["pressure", "specs/cantor.json", "--t-grid", "0.4:0.8:5", "--depth", "10"]),
    ("validate_wcmc_cantor.json", 0,
     ["validate", "specs/cantor.json", "--depth", "10"]),
    ("validate_cmc_nsq.json", 1,
     ["validate", "specs/nsq.json", "--axioms", "cmc", "--depth", "12"]),
    ("validate_cmsc_cantor.json", 0,
     ["validate", "specs/cantor.json", "--axioms", "cmsc", "--t", "0.4",
      "--depth", "10", "--subtree", "greedy", "-C", "4"]),
    ("generate_cantor_d3.csv", 0,
     ["generate", "specs/cantor.json", "--depth", "3"]),
    ("generate_selfaffine_d2.svg", 0,
     ["generate", "specs/selfaffine.json", "--depth", "2", "--out", "svg"]),
    ("generate_comb_d2.ppm", 0,
     ["generate", "specs/comb.json", "--depth", "2", "--out", "ppm",
      "--pixels", "16"]),
    ("dimension_cantor.json", 0,
     ["dimension", "specs/cantor.json", "--depth", "10", "--scales", "4"]),
    ("probe_epsilon_cantor.json", 0,
     ["probe", "specs/cantor.json", "--probe", "epsilon", "--x", "0.5",
      "--depth", "6"]),
    ("probe_osc_comb.json", 0,
     ["probe", "specs/comb.json", "--probe", "osc-collisions", "--depth", "8"]),
    ("probe_ball_cantor.json", 0,
     ["probe", "specs/cantor.json", "--probe", "ball", "--r", "0.33",
      "--x", "0.0", "--depth", "6"]),
    ("probe_clustering_cantor.json", 0,
     ["probe", "specs/cantor.json", "--probe", "clustering", "--depth", "6",
      "--x-samples", "50", "--scales", "0.2,0.1"]),
    ("beta_heisenberg.json", 0,
     ["beta", "--layers", "2,1", "--alpha", "2.5"]),
]


@pytest.mark.parametrize(
    "golden,code,args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES]
)
def test_output_matches_golden(golden, code, args):
    result = run_cli(*args)
    assert result.returncode == code, result.stderr
    assert result.stdout == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "args",
    [
        ["pressure", "specs/cantor.json", "--zero", "--depth", "12"],
        ["generate", "specs/comb.json", "--depth", "3"],
        ["probe", "specs/comb.json", "--probe", "osc-collisions", "--depth", "7"],
    ],
    ids=["pressure", "generate", "collisions"],
)
def test_repeat_runs_are_byte_identical(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


# -- exit code contract ---------------------------------------------------------


USAGE_ERRORS = [
    ["pressure", "specs/missing.json", "--zero"],
    ["pressure", "specs/cantor.json", "--t-grid", "1:2"],
    ["validate", "specs/cantor.json", "--axioms", "cmsc", "--depth", "10"],
    ["generate", "specs/symbolifs.json", "--out", "svg", "--depth", "3"],
    ["probe", "specs/cantor.json", "--probe", "osc-collisions", "--depth", "6"],
]

DOMAIN_ERRORS = [
    ["dimension", "specs/cantor.json", "--depth", "2", "--scales", "6"],
    ["probe", "specs/cantor.json", "--probe", "epsilon", "--x", "0.5",
     "--depth", "0"],
    ["probe", "specs/cantor.json", "--probe", "osc-collisions", "--r", "0.4",
     "--depth", "6"],
    ["beta", "--layers", "2,1", "--alpha", "9"],
]


@pytest.mark.parametrize("args", USAGE_ERRORS, ids=lambda a: " ".join(a[:3]))
def test_spec_and_usage_failures_exit_2(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert result.stdout == ""


@pytest.mark.parametrize("args", DOMAIN_ERRORS, ids=lambda a: " ".join(a[:3]))
def test_domain_failures_exit_3(args):
    result = run_cli(*args)
    assert result.returncode == 3
    assert result.stderr.startswith("error:")
    assert result.stdout == ""


def test_unresolved_piece_names_the_cloud_depth_and_the_fix():
    args = ["probe", "specs/symbolifs.json", "--probe", "ball", "--r", "0.1", "--x", "1,0,0,0"]
    result = run_cli(*args, "--depth", "3")
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == (
        "error: the depth-3 cloud resolves no pair of samples inside 0-0-0; "
        "regenerate the cloud at depth >= 4\n"
    )
    assert run_cli(*args, "--depth", "5").returncode == 0


INDUCED_CASES = [
    ["pressure", "specs/comb.json", "--zero", "--depth", "8"],
    ["pressure", "specs/heisenberg.json", "--zero", "--depth", "4"],
    ["validate", "specs/comb.json"],
    ["validate", "specs/heisenberg.json"],
]


@pytest.mark.parametrize("args", INDUCED_CASES, ids=lambda a: " ".join(a[:2]))
def test_induced_models_fit_the_seed_count_and_the_cap(args):
    """One seed point (comb) or 16 maps (heisenberg) still induce a model."""
    result = run_cli(*args)
    assert result.returncode in (0, 1), result.stderr
    data = json.loads(result.stdout)
    if args[0] == "pressure":
        assert 0.0 < data["zero"] < 10.0
    else:
        assert data["scheme"] == "wcmc" and data["checks"]


def test_unknown_subcommand_exits_2():
    result = run_cli("frobnicate", "specs/cantor.json")
    assert result.returncode == 2


def test_help_exits_0():
    result = run_cli("--help")
    assert result.returncode == 0
    for name in ("pressure", "validate", "generate", "dimension", "probe", "beta"):
        assert name in result.stdout


# -- library warnings ------------------------------------------------------------

CLUSTERING_NOTE = ',"x_samples":200,"note":"lower bound: finite probe points and radii"}\n'

# (argv, exit code, stdout, skipped radii)
WARNING_CASES = [
    (["probe", "specs/symbolifs.json", "--probe", "clustering"], 0,
     '{"clustering_sup":1,"depth":6,"radii":[0.25,0.125,0.0625,0.03125,0.015625]'
     + CLUSTERING_NOTE, 1),
    (["probe", "specs/heisenberg.json", "--probe", "clustering", "--depth", "2"], 0,
     '{"clustering_sup":82,"depth":2,"radii":[0.734375,0.3671875,0.18359375,0.091796875,'
     '0.0458984375]' + CLUSTERING_NOTE, 4),
    # every radius skipped: the error line comes first, then one line per radius
    (["probe", "specs/heisenberg.json", "--probe", "clustering", "--depth", "1"], 3, "", 5),
]


@pytest.mark.parametrize("args,code,stdout,skipped", WARNING_CASES,
                         ids=[" ".join(case[0][1:]) for case in WARNING_CASES])
def test_library_warnings_print_one_line_each_after_the_output(args, code, stdout, skipped):
    result = run_cli(*args)
    assert (result.returncode, result.stdout) == (code, stdout)
    lines = result.stderr.splitlines()
    if code:
        assert lines.pop(0) == "error: no radius in the grid was usable at this cloud depth"
    assert len(lines) == skipped
    assert all(line.startswith("warning: skipping r=") for line in lines), lines
    assert ".py:" not in result.stderr


def test_symbol_epsilon_reads_the_composite_tables():
    result = run_cli("probe", "specs/symbolifs.json", "--probe", "epsilon", "--depth", "6")
    assert (result.returncode, result.stdout) == (0, '{"epsilon":2.0,"depth":6}\n')


# -- a snowflaked symbol tree -----------------------------------------------------


def _snowflaked_symbol_spec(tmp_path) -> str:
    """``specs/symbolifs.json`` with its space snowflaked: the points stay words."""
    data = json.loads((SPECS / "symbolifs.json").read_text())
    data["space"] = {"kind": "snowflake", "base": data["space"], "p": 0.5}
    path = tmp_path / "snowflaked_symbolifs.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("probe,x", [(["epsilon"], "0,1"), (["epsilon"], "0,1,0,1"),
                                     (["ball", "--r", "0.6"], "0,1,0,1")],
                         ids=["epsilon-short-word", "epsilon-seed-wide-word", "ball"])
def test_snowflaked_symbol_tree_probes_take_words(tmp_path, probe, x):
    result = run_cli("probe", _snowflaked_symbol_spec(tmp_path), "--probe", *probe,
                     "--x", x, "--depth", "3")
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("\n") == 1
    json.loads(result.stdout)


def test_snowflaked_symbol_tree_rejects_what_the_symbol_tree_rejects(tmp_path):
    spec = _snowflaked_symbol_spec(tmp_path)
    result = run_cli("probe", spec, "--probe", "epsilon", "--x", "0.5,1", "--depth", "3")
    assert (result.returncode, result.stdout) == (3, "")
    assert "symbol points are words of integer letters" in result.stderr
    result = run_cli("generate", spec, "--depth", "3", "--out", "svg")
    assert (result.returncode, result.stdout) == (2, "")
    assert "symbolic clouds have no plane rendering" in result.stderr


def test_snowflaked_symbol_tree_prints_the_symbol_csv(tmp_path):
    flaked = run_cli("generate", _snowflaked_symbol_spec(tmp_path), "--depth", "3")
    plain = run_cli("generate", "specs/symbolifs.json", "--depth", "3")
    assert flaked.returncode == plain.returncode == 0
    assert flaked.stdout == plain.stdout
    assert flaked.stdout.startswith("word,point\n")


# -- repeated points and default depths ---------------------------------------------


def _doubled_cantor_spec(tmp_path) -> str:
    """``specs/cantor.json`` with each map listed twice: four maps, each point 64 times at depth 6."""
    data = json.loads((SPECS / "cantor.json").read_text())
    data["maps"] *= 2
    path = tmp_path / "doubled_cantor.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_repeated_points_do_not_resolve_fine_radii(tmp_path):
    # a zero spacing on repeated points let this fit 30 radii through counts flat
    # at 64 with exit 0 (slope 0.055); without --depth it built 4^12 = 2^24 points
    spec = _doubled_cantor_spec(tmp_path)
    for depth in (["--depth", "6"], []):
        result = run_cli("dimension", spec, *depth, "--scales", "30")
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr.startswith(
            "error: cloud (depth 6) does not resolve r_min=4.85694e-15: sample spacing ~0.00274348 "
        )
    assert run_cli("dimension", spec, "--scales", "2").stdout == (
        '{"slope":0.630929753571,"r_squared":1.0,"radii":[0.333333333333,0.111111111111],'
        '"counts":[2,4]}\n'
    )


def test_default_depths_follow_the_number_of_maps(tmp_path):
    """Without --depth a cloud holds at most 64 points (4096 for dimension):
    depth 3 on four maps, 1 on heisenberg's sixteen (its former depth 6 was 2^24 points)."""
    spec = _doubled_cantor_spec(tmp_path)
    assert run_cli("generate", spec).stdout.count("\n") == 1 + 4**3
    assert run_cli("generate", "specs/heisenberg.json").stdout.count("\n") == 1 + 16
    assert json.loads(run_cli("probe", spec, "--probe", "clustering").stdout)["depth"] == 3
    result = run_cli("dimension", "specs/heisenberg.json")  # 16^3 points
    assert result.stderr.startswith("error: cloud (depth 3) does not resolve")
    # two maps: depth 6 (64 points), as before
    args = ["probe", "specs/cantor.json", "--probe", "clustering", "--x-samples", "50",
            "--scales", "0.2,0.1"]
    assert run_cli(*args).stdout == (GOLDEN / "probe_clustering_cantor.json").read_text()


def test_epsilon_depth_defaults_to_64_words():
    """Without --depth the epsilon scan reads at most 64 words per length: depth 1 on
    heisenberg's sixteen maps (its former depth 6 left about 1.6e14 pairs), 6 on two."""
    result = run_cli("probe", "specs/heisenberg.json", "--probe", "epsilon", timeout=60)
    assert (result.returncode, result.stdout) == (0, '{"epsilon":0.5,"depth":1}\n'), result.stderr
    args = ["probe", "specs/cantor.json", "--probe", "epsilon"]
    assert run_cli(*args).stdout == run_cli(*args, "--depth", "6").stdout
