"""Benchmark worker: runs one workload in a fresh process.

``run.py`` starts this file; it is not meant to be run by hand.

    worker.py --setup
        import moranlab, load the shipped specs, print ``ready``
    worker.py --workload NAME --seed N --seconds S --trace 0|1
        run passes and print one JSON line with their measurements
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
STARTUP_SAMPLES = 5


_rng = random.Random(1)
_POINTS = [(_rng.random(), _rng.random(), _rng.random()) for _ in range(300)]
_RATIONALS = [Fraction(i, 3**6) for i in range(0, 3**6, 5)]
_ARRAY = np.random.default_rng(1).random((400, 3))


def _gauge(p, q) -> float:
    x, y, t = p
    a, b, c = q
    dx, dy, dt = a - x, b - y, c - t - 0.5 * (x * b - y * a)
    return ((dx * dx + dy * dy) ** 2 + dt * dt) ** 0.25


def reference_loop() -> None:
    """Fixed work (18 ms on a 2-core Xeon), timed between operations.

    It mixes what this package spends its time on, so that its wall time
    tracks the host's current speed for that kind of work: greedy covers
    over point tuples, rational arithmetic, dicts, and blocked pairwise
    distances in numpy (the epsilon scans and level arrays run in numpy,
    which slows differently when memory is contended).  It uses nothing
    from the package, so program changes leave it alone.
    """
    centers: list = []
    for p in _POINTS:
        if all(_gauge(p, c) > 0.3 for c in centers):
            centers.append(p)
    kept: list = []
    for x in _RATIONALS:
        if all(abs(x - k) > Fraction(1, 40) for k in kept):
            kept.append(x)
    acc, table = Fraction(0), {}
    for i in range(1, 200):
        acc += Fraction(1, i)
        table[(i, i % 7)] = acc.numerator % 97
    for i in range(0, len(_ARRAY), 40):
        diff = _ARRAY[i : i + 40, None, :] - _ARRAY[None, :, :]
        np.sqrt((diff * diff).sum(axis=-1)).min()


class Calibration:
    """Reference-loop samples between the operations of one pass.

    Each stretch of the pass between two samples, less the time excluded
    from it (the checks), is divided by the mean of the samples on its two
    sides, so drift in host speed during the pass cancels out.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stretches: list[float] = []
        self._mark: float | None = None
        self._excluded = 0.0

    def __call__(self) -> None:
        t0 = time.perf_counter()
        if self._mark is not None:
            self.stretches.append(t0 - self._mark - self._excluded)
        reference_loop()
        self._mark = time.perf_counter()
        self._excluded = 0.0
        self.samples.append(self._mark - t0)

    def exclude(self, seconds: float) -> None:
        self._excluded += seconds

    def wall(self) -> float:
        return sum(self.stretches)

    def in_reference_units(self) -> float:
        pairs = zip(self.stretches, self.samples, self.samples[1:])
        return sum(2.0 * s / (a + b) for s, a, b in pairs)


def run_pass(workload, ml, prm, env, calibrate=None, tracer=None):
    """One pass; returns (Pass, wall seconds without checks and reference samples)."""
    import workloads as wl

    p = wl.Pass(calibrate)
    start = time.perf_counter()
    if calibrate is not None:
        calibrate()
    if workload == "cli-sweep":
        if tracer is None:
            wl.cli_subprocess(p, ROOT, env)
        else:
            wl.cli_in_process(p, ROOT, tracer)
    elif workload == "cloud-geometry":
        wl.cloud_geometry(p, ml, ROOT, prm)
    else:
        wl.model_exact(p, ml, ROOT, prm)
    if calibrate is not None:
        calibrate()
        return p, calibrate.wall()
    return p, time.perf_counter() - start - p.check_s


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-sweep" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def startup_seconds(env) -> tuple[float, float]:
    """Median wall time of a bare interpreter and of ``import moranlab.cli``."""
    def median_run(code):
        times = []
        for _ in range(STARTUP_SAMPLES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    interpreter = median_run("pass")
    return interpreter, median_run("import moranlab.cli")


def summarize(passes) -> dict:
    failures = [f for p, _ in passes for f in p.failures]
    return {
        "attempted": sum(p.attempted for p, _ in passes),
        "failed": len(failures),
        "failures": failures[:20],
        "defects": sorted(set(d for p, _ in passes for d in p.defects)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    import moranlab as ml

    if args.setup:
        import workloads as wl

        for name in wl.SPEC_NAMES:
            ml.load_spec(ROOT / "specs" / ("%s.json" % name))
        print("ready", flush=True)
        return 0

    import workloads as wl

    env = dict(os.environ)
    prm = wl.make_params(args.workload, args.seed)
    result = {"workload": args.workload, "seed": args.seed, "params": prm}

    if not args.trace:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            calibration = Calibration()
            p, wall = run_pass(args.workload, ml, prm, env, calibration)
            passes.append((p, wall))
            result.setdefault("walls", []).append(wall)
            result.setdefault("wall_refs", []).append(calibration.in_reference_units())
        result.update(summarize(passes))
        result["peak_rss_mb"] = peak_rss_mb(args.workload)
    else:
        from spans import Tracer

        interpreter, imported = startup_seconds(env)
        cpu0 = cpu_seconds()
        plain, plain_wall = run_pass(args.workload, ml, prm, env)
        cpu = cpu_seconds() - cpu0
        passes = [(plain, plain_wall)]

        # Untraced passes just before and after the traced one give the
        # overhead baseline.  On cli-sweep the traced pass runs in-process,
        # so its baseline does too (with an idle tracer for the output).
        def untraced():
            idle = Tracer() if args.workload == "cli-sweep" else None
            passes.append(run_pass(args.workload, ml, prm, env, tracer=idle))
            return passes[-1][1]

        before = untraced() if args.workload == "cli-sweep" else plain_wall
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_wall = run_pass(args.workload, ml, prm, env, tracer=tracer)
        finally:
            tracer.uninstall()
        passes.append((traced, traced_wall))
        base_wall = (before + untraced()) / 2
        layer = tracer.report(traced_wall)
        processes = len(wl.cli_commands()) if args.workload == "cli-sweep" else 1
        startup = max(interpreter, imported)
        result.update(summarize(passes))
        layer.update({
            "wall_s": plain_wall,
            "cli.interpreter_s": interpreter,
            "cli.import_s": startup - interpreter,
            # each process pays start-up once: per command on cli-sweep,
            # once before the pass otherwise
            "design.startup_share": processes * startup
            / (plain_wall + (startup if processes == 1 else 0.0)),
            "process.cpu_s": cpu,
            "trace.overhead_s": traced_wall - base_wall,
            "fail_ratio": result["failed"] / result["attempted"],
            "known_defects": len(traced.defects),
        })
        result["layers"] = layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
