"""Record ``bench/cli_transcript.json``: the cli-sweep commands and their outputs.

    python3 bench/record_transcript.py      # from the repository root

Runs every command once and stores its exit code, stdout length and
SHA-256.  Golden commands store the name of their file in
``tests/golden/`` instead, and known-defect commands the start of their
error message.  Re-record only when a change to the program is meant to
change these bytes, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()

# The golden transcripts of tests/test_cli.py: (file, exit code, arguments).
GOLDEN = [
    ("pressure_zero_cantor.json", 0, "pressure specs/cantor.json --zero --depth 16"),
    ("pressure_curve_cantor.csv", 0, "pressure specs/cantor.json --t-grid 0.4:0.8:5 --depth 10"),
    ("validate_wcmc_cantor.json", 0, "validate specs/cantor.json --depth 10"),
    ("validate_cmc_nsq.json", 1, "validate specs/nsq.json --axioms cmc --depth 12"),
    ("validate_cmsc_cantor.json", 0,
     "validate specs/cantor.json --axioms cmsc --t 0.4 --depth 10 --subtree greedy -C 4"),
    ("generate_cantor_d3.csv", 0, "generate specs/cantor.json --depth 3"),
    ("generate_selfaffine_d2.svg", 0, "generate specs/selfaffine.json --depth 2 --out svg"),
    ("generate_comb_d2.ppm", 0, "generate specs/comb.json --depth 2 --out ppm --pixels 16"),
    ("dimension_cantor.json", 0, "dimension specs/cantor.json --depth 10 --scales 4"),
    ("probe_epsilon_cantor.json", 0, "probe specs/cantor.json --probe epsilon --x 0.5 --depth 6"),
    ("probe_osc_comb.json", 0, "probe specs/comb.json --probe osc-collisions --depth 8"),
    ("probe_ball_cantor.json", 0, "probe specs/cantor.json --probe ball --r 0.33 --x 0.0 --depth 6"),
    ("probe_clustering_cantor.json", 0,
     "probe specs/cantor.json --probe clustering --depth 6 --x-samples 50 --scales 0.2,0.1"),
    ("beta_heisenberg.json", 0, "beta --layers 2,1 --alpha 2.5"),
]

# User-sized calls on the shipped specs.
USER = [
    "pressure specs/supercantor.json --zero --depth 30",
    "pressure specs/selfaffine.json --zero --depth 16",
    "pressure specs/symbolifs.json --zero --depth 8",
    "pressure specs/comb.json --zero --depth 8",
    "pressure specs/heisenberg.json --zero --depth 4",
    "validate specs/selfaffine.json --axioms cmc --depth 12",
    "validate specs/symbolifs.json --axioms wcmc --depth 6",
    "validate specs/comb.json",
    "validate specs/heisenberg.json",
    "generate specs/cantor.json --depth 13",
    "generate specs/comb.json --depth 10 --out ppm",
    "generate specs/selfaffine.json --depth 10 --out svg",
    "generate specs/heisenberg.json --depth 3",
    "generate specs/symbolifs.json --depth 10",
    "dimension specs/cantor.json --depth 14",
    "dimension specs/comb.json --depth 10",
    "dimension specs/selfaffine.json --depth 12",
    "dimension specs/symbolifs.json --depth 10 --scales 4",
    "probe specs/comb.json --probe epsilon --depth 10",
    "probe specs/heisenberg.json --probe epsilon --depth 2",
    "probe specs/comb.json --probe osc-collisions --depth 14",
    "probe specs/symbolifs.json --probe clustering",
]

# Seed defects (ROADMAP open item 3): the cloud used to size the seed
# diameter cannot be built for these specs, so the command exits 3.
DEFECTS = {
    "pressure specs/comb.json --zero --depth 8",
    "pressure specs/heisenberg.json --zero --depth 4",
    "validate specs/comb.json",
    "validate specs/heisenberg.json",
}


def run(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "moranlab", *args], cwd=ROOT, env=env, capture_output=True
    )


def main() -> int:
    commands = []
    for golden, code, line in GOLDEN:
        commands.append({"command": line, "exit": code, "golden": golden})
    for line in USER:
        res = run(line.split())
        entry = {"command": line, "exit": res.returncode}
        if line in DEFECTS:
            entry.update(defect=True, stderr=res.stderr.decode().splitlines()[0])
        else:
            entry.update(bytes=len(res.stdout), sha256=hashlib.sha256(res.stdout).hexdigest())
        commands.append(entry)
    lines = ",\n".join("  " + json.dumps(c) for c in commands)
    (BENCH / "cli_transcript.json").write_text('{"commands": [\n%s\n]}\n' % lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
