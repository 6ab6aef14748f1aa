"""The three benchmark workloads and the checks on every operation.

Each workload is one *pass*: it loads the shipped specs and builds its
models and clouds from scratch, then runs its operations one at a time
(closed loop, one client) and checks each result.  A pass records, per
operation, one of three verdicts: correct, a known defect of the seed
reproduced (see ``KNOWN_DEFECTS``), or a failure with a message.

Workload inputs come from :func:`make_params` and depend only on the
seed.  ``cli-sweep`` ignores the seed so that its bytes can be compared
with recorded transcripts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
SPEC_NAMES = ("cantor", "comb", "heisenberg", "nsq", "selfaffine", "supercantor", "symbolifs")
T_STAR = math.log(2) / math.log(3)

OK = "ok"
DEFECT = "defect"


def expect(condition: bool, message: str) -> str:
    return OK if condition else message


class Pass:
    """Verdicts of one pass.

    ``op`` runs one operation and then its check.  An exception raised by
    the operation or the check is that operation's failure; the pass goes
    on.  Time spent in checks is kept in ``check_s`` (and told to the
    calibration, if any) so that it can be left out of the pass time.
    """

    def __init__(self, calibrate=None):
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.defects: list[str] = []
        self.check_s = 0.0
        self.calibrate = calibrate

    def op(self, name, fn, check=lambda value: OK):
        if self.calibrate is not None:
            self.calibrate()
        self.attempted += 1
        try:
            value = fn()
        except Exception as exc:  # one failing operation must not end the pass
            value, verdict = None, "%s: %s" % (type(exc).__name__, exc)
        else:
            t0 = time.perf_counter()
            try:
                verdict = check(value)
            except Exception as exc:
                verdict = "check raised %s: %s" % (type(exc).__name__, exc)
            spent = time.perf_counter() - t0
            self.check_s += spent
            if self.calibrate is not None:
                self.calibrate.exclude(spent)
        if verdict == DEFECT:
            self.defects.append(name)
        elif verdict != OK:
            self.failures.append((name, verdict))
        return value


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def make_params(workload: str, seed: int) -> dict:
    """Seeded inputs: radii within a fixed factor, probe points, coefficients."""
    rng = random.Random("%s:%d" % (workload, seed))
    factor = lambda: rng.uniform(1.0, 1.05)  # noqa: E731
    if workload == "cloud-geometry":
        return {
            "cantor_r": 3.0**-4 * factor(),
            "cantor_scale": factor(),
            "comb_r": 0.1 * factor(),
            "heisenberg_r": 0.2 * factor(),
            "symbol_r": 2.0**-6 * factor(),
            "selfaffine_r": 0.02 * factor(),
            "probe_radii": [0.2 * factor(), 0.1 * factor()],
            "ball_x": rng.uniform(0.0, 1.0),
            "ball_r": 0.33 * factor(),
        }
    if workload == "model-exact":
        return {
            "general_ratios": [rng.uniform(0.22, 0.3) for _ in range(3)],
            "general_wobble": rng.uniform(0.02, 0.05),
            "cmsc_t": [rng.uniform(0.02, T_STAR - 0.02) for _ in range(4)],
            "carnot_alpha": rng.choice((1.3, 1.5, 2.5)),
            "stopping_scale": rng.uniform(1.0, 2.5),
            "cover_n": rng.randint(4, 12),
            "t_grid": sorted(rng.uniform(0.1, 1.0) for _ in range(5)),
        }
    if workload == "cli-sweep":
        return {}
    raise ValueError("unknown workload %r" % workload)


def load_specs(p: Pass, ml, root: Path) -> dict:
    specs = {}
    for name in SPEC_NAMES:
        specs[name] = p.op(
            "load_spec %s" % name,
            lambda: ml.load_spec(root / "specs" / ("%s.json" % name)),
            lambda s: expect(bool(s.name) and (s.system or s.model) is not None, "empty spec"),
        )
    return specs


# ---------------------------------------------------------------------------
# float reference counts for checks (no wrapped library calls, so a
# traced pass books no extra work to the program's layers)
# ---------------------------------------------------------------------------


def _greedy_count(distances_to, n: int, r: float) -> int:
    """Greedy cover size: the first uncovered point opens each new ball."""
    covered = np.zeros(n, dtype=bool)
    count = 0
    while not covered.all():
        i = int(np.argmin(covered))
        covered |= distances_to(i) <= r
        count += 1
    return count


def euclidean_cover(cloud, r: float) -> int:
    pts = np.array([[float(c) for c in p] for p in cloud.points])
    return _greedy_count(lambda i: np.sqrt(((pts - pts[i]) ** 2).sum(axis=1)), len(pts), r)


def heisenberg_cover(cloud, r: float) -> int:
    pts = np.array(cloud.points, dtype=float)
    x, y, t = pts.T

    def gauge(i):
        dx, dy = x - x[i], y - y[i]
        dt = t - t[i] - 0.5 * (x[i] * y - y[i] * x)
        return ((dx * dx + dy * dy) ** 2 + dt * dt) ** 0.25

    return _greedy_count(gauge, len(pts), r)


def symbol_cover(cloud, r: float) -> int:
    """Greedy cover in the dyadic tree metric ``2**(1-k)``: count prefixes."""
    # d <= r iff the words agree on their first k - 1 letters, 2**(1-k) <= r
    keep = 0
    while 2.0 ** (-keep) > r:
        keep += 1
    if min(len(p) for p in cloud.points) < keep:
        raise ValueError("cloud words shorter than the resolved prefix")
    return len({tuple(p[:keep]) for p in cloud.points})


# ---------------------------------------------------------------------------
# cloud-geometry
# ---------------------------------------------------------------------------


def _points(n):
    return lambda cloud: expect(len(cloud) == n, "expected %d points, got %d" % (n, len(cloud)))


def _sandwich(p: Pass, ml, cloud, r: float, label: str, cover_ref=None):
    """``box_count(2r) <= len(maximal_packing(r)) <= box_count(r/2)``."""
    space, pts = cloud.space, cloud.points
    lo = p.op(
        "%s box_count r=%.4g" % (label, 2 * r),
        lambda: ml.box_count(cloud, 2 * r),
        (lambda n: expect(n == cover_ref(cloud, 2 * r), "greedy count differs from reference"))
        if cover_ref else (lambda n: expect(1 <= n <= len(pts), "count out of range")),
    )
    pack = p.op(
        "%s maximal_packing r=%.4g" % (label, r),
        lambda: ml.maximal_packing(space, pts[0], 1e9, r, cloud),
        lambda chosen: expect(lo is not None and lo <= len(chosen), "packing below cover(2r)"),
    )
    p.op(
        "%s box_count r=%.4g" % (label, r / 2),
        lambda: ml.box_count(cloud, r / 2),
        lambda n: expect(pack is not None and len(pack) <= n, "packing above cover(r/2)"),
    )


def _snowflake_epsilon(system, x, depth: int) -> float:
    """Separation epsilon of a snowflaked line system by brute force.

    Uses ``|a - b| ** p`` directly rather than ``space.distance``, so a
    traced pass books none of it to the program.
    """
    from moranlab.words import incomparable

    words = list(system.alphabet.words_up_to(depth))
    pts = [float(system.apply_word(w, x)[0]) for w in words]
    lows = [system.word_lip_bounds(w)[0] for w in words]
    p = system.space.p
    return min(
        abs(pts[i] - pts[j]) ** p / (lows[i] + lows[j])
        for i in range(len(words))
        for j in range(i + 1, len(words))
        if incomparable(words[i], words[j])
    )


def cloud_geometry(p: Pass, ml, root: Path, prm: dict) -> None:
    specs = load_specs(p, ml, root)
    cantor = specs["cantor"].require_system()

    # cantor, Fraction coordinates
    c12 = p.op("cantor cloud depth 12", lambda: ml.attractor_cloud(cantor, 12), _points(4096))
    r = prm["cantor_r"]
    _sandwich(p, ml, c12, r, "cantor")
    s = prm["cantor_scale"]
    p.op(
        "cantor minkowski_estimate",
        lambda: ml.minkowski_estimate(c12, s * 3.0**-5, s / 3.0, 5, "greedy"),
        lambda est: expect(abs(est.slope - T_STAR) <= 0.02, "slope %.4f" % est.slope),
    )
    greedy = p.op("cantor box_count greedy", lambda: ml.box_count(c12, r), lambda n: expect(
        n == euclidean_cover(c12, r), "greedy count differs from reference"))
    p.op(
        "cantor box_count grid",
        lambda: ml.box_count(c12, r, "grid"),
        # a grid cell of side r holds at most one greedy center; a ball of
        # radius r meets at most three cells
        lambda n: expect(greedy is not None and greedy <= n <= 3 * greedy, "grid %d" % n),
    )

    # comb, QuadraticNumber coordinates
    comb = specs["comb"].require_system()
    c10 = p.op("comb cloud depth 10", lambda: ml.attractor_cloud(comb, 10), _points(1024))
    _sandwich(p, ml, c10, prm["comb_r"], "comb", euclidean_cover)

    # heisenberg, float coordinates
    heis = specs["heisenberg"].require_system()
    h3 = p.op("heisenberg cloud depth 3", lambda: ml.attractor_cloud(heis, 3), _points(4096))
    rh = prm["heisenberg_r"]
    p.op("heisenberg box_count", lambda: ml.box_count(h3, rh), lambda n: expect(
        n == heisenberg_cover(h3, rh), "greedy count differs from reference"))
    x0 = heis.seed_points[0]
    p.op(
        "heisenberg separation_epsilon depth 2",
        lambda: ml.separation_epsilon(heis, x0, 2),
        lambda v: expect(abs(v - 1.0 / 3.0) <= 1e-12, "epsilon %r" % v),
    )

    # symbolic tree
    sym = specs["symbolifs"].require_system()
    s12 = p.op("symbolifs cloud depth 12", lambda: ml.attractor_cloud(sym, 12), _points(4096))
    rs = prm["symbol_r"]
    p.op("symbolifs box_count", lambda: ml.box_count(s12, rs), lambda n: expect(
        n == symbol_cover(s12, rs), "greedy count differs from reference"))

    # self-affine, float coordinates: control case
    sa = specs["selfaffine"].require_system()
    a10 = p.op("selfaffine cloud depth 10", lambda: ml.attractor_cloud(sa, 10), _points(1024))
    ra = prm["selfaffine_r"]
    p.op("selfaffine box_count", lambda: ml.box_count(a10, ra), lambda n: expect(
        n == euclidean_cover(a10, ra), "greedy count differs from reference"))

    # snowflake of the cantor system (two known defects)
    snow = ml.ContractionSystem(
        ml.SnowflakeSpace(ml.EuclideanSpace(1), 0.5), cantor.maps, cantor.seed_points,
        seed_diameter=1.0,
    )
    p.op(
        "snowflake separation_epsilon depth 4",
        lambda: ml.separation_epsilon(snow, (0.5,), 4),
        lambda v: _snowflake_epsilon_verdict(v, snow),
    )
    model = p.op("snowflake induced_model", lambda: snow.induced_model(),
                 lambda m: expect(m.seed_diameter == 1.0, "seed diameter %r" % m.seed_diameter))
    p.op(
        "snowflake induced pressure_zero",
        lambda: ml.pressure_zero(model, 16),
        lambda z: (
            OK if abs(z.value - T_STAR / 0.5) <= 1e-6
            else DEFECT if abs(z.value - T_STAR) <= 1e-6
            else "zero %r" % z.value
        ),
    )

    # clustering and ball probes on cantor at depth 8
    c8 = p.op("cantor cloud depth 8", lambda: ml.attractor_cloud(cantor, 8), _points(256))
    m8 = p.op(
        "cantor induced_model",
        lambda: cantor.induced_model(c8),
        lambda m: expect(abs(m.diam((0, 1, 0)) - 3.0**-3) <= 1e-15, "diam %r" % m.diam((0, 1, 0))),
    )
    p.op(
        "cantor finite_clustering_sup",
        lambda: ml.finite_clustering_sup(m8, c8, 50, prm["probe_radii"]),
        # pieces of size in (r/3, r] with gaps at least their size: at most
        # four meet an open ball of radius r
        lambda sup: expect(1 <= sup <= 4, "clustering sup %r" % sup),
    )
    x, rb = (prm["ball_x"],), prm["ball_r"]
    local = p.op(
        "cantor local_stopping_set",
        lambda: ml.local_stopping_set(m8, c8, x, rb),
        lambda ls: _local_set_verdict(ls, c8, x, rb),
    )
    p.op(
        "cantor ball_condition_probe",
        lambda: ml.ball_condition_probe(m8, c8, x, rb, [0.5, 0.25, 0.125, 0.0625]),
        lambda probe: _ball_verdict(probe, local, c8, rb),
    )


def _snowflake_epsilon_verdict(value: float, system) -> str:
    truth = _snowflake_epsilon(system, (0.5,), 4)
    if abs(value - truth) <= 1e-9 * truth:
        return OK
    if abs(value - 1.0) <= 1e-9:
        return DEFECT
    return "epsilon %r, brute force %r" % (value, truth)


def _local_set_verdict(local, cloud, x, r) -> str:
    """Each reported word has a sample point strictly inside ``B(x, r)``."""
    for w in local.words:
        inside = [
            abs(float(p[0]) - x[0]) < r
            for lab, p in zip(cloud.labels, cloud.points)
            if lab[: len(w)] == w
        ]
        if not any(inside):
            return "word %r has no sample inside the ball" % (w,)
    return expect(set(local.words) <= set(local.candidates), "words outside the stopping set")


def _ball_verdict(probe, local, cloud, r) -> str:
    """Centers lie in their pieces and keep their ``delta*r`` balls disjoint."""
    if local is None or tuple(sorted(probe.words)) != tuple(sorted(local.words)):
        return "probe words differ from the local stopping set"
    if not probe.satisfied:
        return expect(probe.delta == 0.0, "unsatisfied probe with delta %r" % probe.delta)
    pieces = {}
    for lab, p in zip(cloud.labels, cloud.points):
        pieces.setdefault(float(p[0]), lab)
    centers = [float(c[0]) for c in probe.centers]
    for w, c in zip(probe.words, centers):
        if pieces.get(c, ())[: len(w)] != w:
            return "center %r outside piece %r" % (c, w)
    gaps = [abs(a - b) for i, a in enumerate(centers) for b in centers[i + 1 :]]
    return expect(all(g >= 2 * probe.delta * r * (1 - 1e-12) for g in gaps), "overlapping balls")


# ---------------------------------------------------------------------------
# model-exact
# ---------------------------------------------------------------------------


def _harmonic_zero(n: int) -> float:
    return n / (2 * n - sum(1.0 / k for k in range(1, n + 1)))


def model_exact(p: Pass, ml, root: Path, prm: dict) -> None:
    specs = load_specs(p, ml, root)
    cantor_model = specs["cantor"].get_model()
    p.op("cantor pressure_zero depth 16", lambda: ml.pressure_zero(cantor_model, 16),
         lambda z: expect(abs(z.value - ml.moran_dimension((1 / 3, 1 / 3))) <= 1e-9, "zero %r" % z.value))
    ts = prm["t_grid"]
    p.op(
        "cantor pressure_curve depth 12",
        lambda: ml.pressure_curve(cantor_model, ts, 12),
        lambda curve: expect(
            all(abs(v - (math.log(2) - t * math.log(3))) <= 1e-12 for t, v in zip(ts, curve.p_values)),
            "curve off log 2 - t log 3",
        ),
    )
    sc = specs["supercantor"].get_model()
    for n in (10, 20, 30):
        p.op("supercantor pressure_zero n=%d" % n, lambda: ml.pressure_zero(sc, n),
             lambda z: expect(abs(z.value - _harmonic_zero(n)) <= 1e-9, "zero %r" % z.value))

    rect = specs["selfaffine"].get_model()
    closed = ml.self_affine_dimension(*rect.a, *rect.b)
    p.op("rectangle pressure_zero depth 16", lambda: ml.pressure_zero(rect, 16),
         lambda z: expect(abs(z.value - closed) <= 1e-4, "zero %r vs %r" % (z.value, closed)))

    # 3-letter general model: multiplicative with a bounded wobble
    ratios, wobble = prm["general_ratios"], prm["general_wobble"]
    general = _general_model(ml, ratios, wobble)
    p.op("general pressure_zero depth 8", lambda: ml.pressure_zero(general, 8),
         lambda z: _general_zero_verdict(z, ratios, wobble))

    nsq = specs["nsq"].get_model()
    for label, model, depth in (("rectangle", rect, 12), ("general", general, 8), ("nsq", nsq, 12)):
        for scheme, validate in (("wcmc", ml.validate_wcmc), ("cmc", ml.validate_cmc)):
            p.op(
                "%s validate_%s depth %d" % (label, scheme, depth),
                lambda: validate(model, depth),
                lambda rep: _validate_verdict(label, scheme, rep, depth, ratios, wobble),
            )

    ternary = ml.MultiplicativeModel((1 / 3, 1 / 3, 1 / 3))
    for t in prm["cmsc_t"]:
        tree = p.op("cantor_branch_sequence t=%.4f" % t, lambda: ml.cantor_branch_sequence(t, 20),
                    lambda tr: expect(tr.depth == 20, "depth %d" % tr.depth))
        p.op("verify_cmsc greedy t=%.4f" % t, lambda: ml.verify_cmsc(ternary, tree, t, 4.0, 20),
             lambda rep: expect(rep.holds and rep.c_witnessed < 4.0, "window fails"))
    alpha = prm["carnot_alpha"]
    p.op("carnot_cmsc_verify alpha=%g" % alpha, lambda: ml.carnot_cmsc_verify(ml.HEISENBERG, alpha, 15),
         lambda rep: expect(rep.holds and rep.c_declared == 16.0, "carnot window fails"))

    r = 3.0**-12 * prm["stopping_scale"]
    p.op("cantor stopping_set depth 12", lambda: ml.stopping_set(cantor_model, r),
         lambda ws: expect(len(ws) == 4096 and all(len(w) == 12 for w in ws), "%d words" % len(ws)))
    two = ml.Alphabet(2)
    n = prm["cover_n"]
    p.op("antichain_cover_cost critical", lambda: ml.antichain_cover_cost(
        two, lambda w: cantor_model.diam(w) ** T_STAR, n, 12),
        lambda cost: expect(abs(cost - 1.0) <= 1e-12, "cost %r" % cost))
    p.op("antichain_cover_cost t=1", lambda: ml.antichain_cover_cost(two, cantor_model.diam, 1, 12),
         lambda cost: expect(abs(cost - (2 / 3) ** 12) <= 1e-12 * (2 / 3) ** 12, "cost %r" % cost))

    p.op(
        "osc_collision_scan golden ratio depth 14",
        lambda: ml.osc_collision_scan(ml.GOLDEN_RATIO, 14),
        lambda scan: expect(
            scan.exact and len(scan.collisions) > 0
            and all(gap == 0.0 for _, _, gap in scan.collisions)
            and ((1, 0, 0), (0, 1, 1), 0.0) in scan.collisions,
            "collision list",
        ),
    )
    comb = specs["comb"].require_system()
    p.op("comb separation_epsilon depth 10",
         lambda: ml.separation_epsilon(comb, comb.seed_points[0], 10),
         lambda v: expect(v == 0.0, "epsilon %r, expected exactly 0" % v))


def _general_model(ml, ratios, wobble):
    logs = [math.log(c) for c in ratios]

    def log_diam(word):
        # bounded distortion of a multiplicative model: |wobble term| <= wobble
        return sum(logs[s] for s in word) + wobble * math.cos(sum(word) + len(word))

    return ml.GeneralModel(log_diam, ml.Alphabet(3))


def _general_zero_verdict(z, ratios, wobble) -> str:
    # P_n(t) is within t*wobble/n of the multiplicative pressure p(t)
    p = math.log(sum(c**z.value for c in ratios))
    return expect(abs(p) <= z.value * wobble / z.depth + 1e-9, "p(zero) = %r" % p)


def _validate_verdict(label, scheme, rep, depth, ratios, wobble) -> str:
    if label == "nsq":
        # log diam(level n) = -n^2 log 2: children shrink by 2^-(2n-1)
        if scheme == "wcmc":
            w4 = rep.check("W4")
            return expect(
                not rep.passed and w4.status == "violated"
                and abs(w4.constant - 2.0 ** (2 * depth - 1)) <= 1e-9 * w4.constant,
                "W4 %s %r" % (w4.status, w4.constant),
            )
        return expect(not rep.passed and rep.check("C1").status == "violated", "C1 not violated")
    if not rep.passed:
        return "%s fails on a %s model" % (scheme, label)
    if label == "general":
        # split ratios stay within exp(+-3 wobble); children within exp(2 wobble)/min ratio
        bound = max(math.exp(3 * wobble), math.exp(2 * wobble) / min(ratios))
        return expect(rep.constant <= bound * (1 + 1e-9), "constant %r > %r" % (rep.constant, bound))
    return expect(1.0 <= rep.constant <= 4.0, "constant %r" % rep.constant)


# ---------------------------------------------------------------------------
# cli-sweep
# ---------------------------------------------------------------------------


def cli_commands() -> list[dict]:
    return json.loads((BENCH / "cli_transcript.json").read_text())["commands"]


def cli_verdict(cmd: dict, root: Path, code: int, out: bytes, err: bytes) -> str:
    """Compare one command's exit code and stdout with its expectation."""
    if "golden" in cmd:
        want = (root / "tests" / "golden" / cmd["golden"]).read_bytes()
        return expect(code == cmd["exit"] and out == want, "differs from golden %s" % cmd["golden"])
    if cmd.get("defect"):
        if code == cmd["exit"] and err.decode().startswith(cmd["stderr"]):
            return DEFECT
        if code in (0, 1):
            return _fixed_defect_verdict(cmd, out)
        return "exit %d: %s" % (code, err.decode()[:200])
    if code != cmd["exit"]:
        return "exit %d, expected %d: %s" % (code, cmd["exit"], err.decode()[:200])
    digest = hashlib.sha256(out).hexdigest()
    return expect(
        digest == cmd["sha256"] and len(out) == cmd["bytes"],
        "stdout (%d bytes) differs from the recorded transcript" % len(out),
    )


def _fixed_defect_verdict(cmd: dict, out: bytes) -> str:
    """A defect command that now runs: its output must at least be well formed."""
    try:
        data = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    if cmd["command"].startswith("pressure"):
        return expect(0.0 < data.get("zero", -1.0) < 10.0, "zero %r" % data.get("zero"))
    return expect(isinstance(data.get("checks"), list), "no checks in report")


def cli_subprocess(p: Pass, root: Path, env: dict) -> None:
    """One child process per command, one at a time."""
    for cmd in cli_commands():
        def run():
            return subprocess.run(
                [sys.executable, "-m", "moranlab", *cmd["command"].split()],
                cwd=root, env=env, capture_output=True, timeout=120,
            )
        p.op(
            "cli: " + cmd["command"],
            run,
            lambda res: cli_verdict(cmd, root, res.returncode, res.stdout, res.stderr),
        )


def cli_in_process(p: Pass, root: Path, tracer) -> None:
    """Each command through ``moranlab.cli.main`` in this process, output captured."""
    import moranlab.cli

    for cmd in cli_commands():
        def run():
            out, err = io.StringIO(), io.StringIO()
            with tracer.span("cli.main.%s" % cmd["command"].split()[0], "cli"):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = moranlab.cli.main(cmd["command"].split())
            data = out.getvalue().encode()
            tracer.counts["stdout_bytes"] += len(data)
            if code == 3:
                tracer.errors["cli"] += 1
            return code, data, err.getvalue().encode()
        p.op(
            "cli: " + cmd["command"],
            run,
            lambda res: cli_verdict(cmd, root, *res),
        )
