"""Run one moranlab benchmark workload and print its metrics.

    python3 bench/run.py --workload cloud-geometry --seed 1 --seconds 25 --trace 0

Run it from the root of a moranlab checkout; it uses the package in
``src/`` as it is, with nothing to build.  The workloads are
``cli-sweep``, ``cloud-geometry`` and ``model-exact`` (see
``bench/README.md``).  With ``--trace 0`` it measures the end-to-end
metrics, with ``--trace 1`` the per-layer ones from a traced pass.  It
prints one line per metric, then the environment, and last one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  It exits 2 without a result when the checkout lacks the
package, its specs or its golden files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import reference_loop

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("cli-sweep", "cloud-geometry", "model-exact")
SETUP_SAMPLES = (5, 4)  # fresh processes timed before and after the worker
# Reference-loop time on the 2-core Xeon this benchmark was tuned on; set-up
# samples are scaled to this speed (see setup_seconds).
REFERENCE_S = 0.018

# Traced-run check that each workload stresses the layers it was built for:
# metric, least share of the pass, and what the share counts.
DESIGN_CHECKS = {
    "cloud-geometry": ("design.geometry_share", 0.5, "spaces + dimension + systems self time"),
    "model-exact": ("design.model_share", 0.5,
                    "models + pressure + words + subconstruction self time and exact scans"),
    "cli-sweep": ("design.startup_share", 0.1, "interpreter start and package import"),
}
WORKER_TIMEOUT_S = 170


def bench_env() -> dict:
    """One-threaded numeric libraries, fixed hashing, default enumeration cap."""
    env = dict(os.environ)
    env.pop("MORANLAB_ENUM_CAP", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def missing_inputs() -> list[str]:
    needed = [ROOT / "src" / "moranlab" / "__init__.py", ROOT / "specs", ROOT / "tests" / "golden"]
    return [str(p.relative_to(ROOT)) for p in needed if not p.exists()]


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def setup_seconds(env: dict, samples: int) -> list[float]:
    """Process start until the package is imported and the specs are loaded.

    Each sample is scaled to the reference speed: multiplied by
    ``REFERENCE_S`` over the reference loop's time measured around it.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), "--setup"]
    times = []
    for _ in range(samples):
        before = timed_reference()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe failed with exit code %r" % proc.returncode)
        times.append(elapsed * REFERENCE_S * 2.0 / (before + timed_reference()))
    return times


def environment() -> dict:
    """Where the numbers come from: code, interpreter, libraries and CPU."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = missing_inputs()
    if missing:
        print("error: run from a moranlab checkout; missing %s" % ", ".join(missing), file=sys.stderr)
        return 2
    env = bench_env()
    values: dict[str, float] = {}
    setup: list[float] = []
    if not args.trace:
        # the first process also writes the bytecode caches; it is not timed
        subprocess.run([sys.executable, str(BENCH / "worker.py"), "--setup"],
                       env=env, cwd=ROOT, check=True, capture_output=True)
        timed_reference()
        setup += setup_seconds(env, SETUP_SAMPLES[0])
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    # own process group, so a timeout also stops the worker's children
    with subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print("error: worker ran longer than %d s" % WORKER_TIMEOUT_S, file=sys.stderr)
            return 1
    if proc.returncode != 0:
        print("error: worker exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    res = json.loads(out.decode().splitlines()[-1])
    if args.trace:
        values.update(res["layers"])
    else:
        values["setup_s"] = statistics.median(setup + setup_seconds(env, SETUP_SAMPLES[1]))
        values["wall_ref"] = statistics.median(res["wall_refs"])
        values["peak_rss_mb"] = res["peak_rss_mb"]

    units = declared_metrics(args.trace)
    if set(units) != set(values):
        print("error: measured metrics differ from BENCHMARK.json: %s"
              % sorted(set(units) ^ set(values)), file=sys.stderr)
        return 1
    for name, fail in res["failures"]:
        print("FAILED %s: %s" % (name, fail), file=sys.stderr)
    for name in res["defects"]:
        print("known defect reproduced: %s" % name)
    if not args.trace:
        print("passes: %d, pass walls (s): %s" % (
            len(res["walls"]), " ".join("%.3f" % w for w in res["walls"])))
    for name, unit in units.items():
        print("%-40s %14.6g %s" % (name, values[name], unit))
    if args.trace:
        metric, least, what = DESIGN_CHECKS[args.workload]
        print("design check: %s is %.1f%% of the pass (needs %d%%): %s; tracing added %.3f s"
              % (what, 100 * values[metric], 100 * least,
                 "met" if values[metric] >= least else "NOT MET", values["trace.overhead_s"]))
    print("environment: %s" % json.dumps({"workload": args.workload, "seed": args.seed,
                                          "params": res["params"], **environment()}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
