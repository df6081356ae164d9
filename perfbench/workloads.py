"""The three workloads: their inputs, one timed pass, and the checks on its
outputs.

Each workload is built from the benchmark seed (set-up), warmed up, then run
pass after pass. A pass calls the program only through `timed`, which adds
the call's time to the pass; fingerprints and checks between calls stay
outside the timed region. Expected values come from closed forms written
here, not from the library's own exact-tail code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import warnings

import numpy as np

import regvar as rv
from regvar.cli import cli_main
from regvar.specs import gain_from_spec, model_from_spec

from spans import patched

TWO_PI = 2.0 * math.pi
BAND_Z = 5.0  # width of every statistical band, in standard errors


def _hill_band_error(label, alpha_hat, alpha, k):
    """Error text when a Hill estimate misses alpha by more than
    BAND_Z * alpha / sqrt(k), its asymptotic standard error times BAND_Z."""
    tol = BAND_Z * alpha / math.sqrt(k)
    if not (math.isfinite(alpha_hat) and abs(alpha_hat - alpha) <= tol):
        return (f"{label}: Hill estimate {alpha_hat!r} outside "
                f"{alpha} +- {tol:.4g} (k={k})")
    return None


# ----------------------------------------------------------------------
# verify-suite


class VerifySuite:
    """All eight scenarios at the `regvar verify` defaults, n = 2e5, seed 42.

    The scenario seed stays at its default because the scenarios' own
    tolerances are about three standard errors wide, so some other seeds fail
    a check; the benchmark seed sets the scenario order of every pass.
    """

    name = "verify-suite"
    ops_per_pass = len(rv.SCENARIO_NAMES)
    N = 200_000
    SCENARIO_SEED = 42
    # tail index of the batch that each estimating scenario hands to estimate()
    HILL_ALPHA = {"theorem1": 1.0, "corollary1": 1.0, "theorem2": 2.0,
                  "theorem3": 1.0, "corollary2": 1.0}

    def __init__(self, seed: int, workdir):
        self.order = random.Random(seed)
        self.reports: dict[str, str] = {}

    def _scenario(self, name, n=N, workers=1):
        return rv.Scenario(name, n=n, seed=self.SCENARIO_SEED, workers=workers)

    def warm_up(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name in rv.SCENARIO_NAMES:
                rv.run_scenario(self._scenario(name, n=20_000))

    def run_pass(self, timed):
        failed, errors = 0, []
        for name in self.order.sample(rv.SCENARIO_NAMES, len(rv.SCENARIO_NAMES)):
            report = timed(rv.run_scenario, self._scenario(name))
            bad = [c.name for c in report.checks if not c.passed]
            if bad:
                failed += 1
                errors.append(f"{name}: checks failed: {', '.join(bad)}")
            text = report.to_json(include_runtime=False)
            if self.reports.setdefault(name, text) != text:
                errors.append(f"{name}: report differs between passes")
        return failed, errors

    def final_checks(self):
        """Reports equal their workers=2 twins; every Hill estimate is in band."""
        errors, estimates, current = [], [], [None]

        def capture(orig, target):
            def wrapped(*args, **kwargs):
                result = orig(*args, **kwargs)
                estimates.append((current[0], result.alpha_hat, result.k_used))
                return result
            return wrapped

        with patched([("regvar.estimation", "estimate")], capture):
            for name in rv.SCENARIO_NAMES:
                current[0] = name
                twin = rv.run_scenario(self._scenario(name, workers=2))
                if twin.to_json(include_runtime=False) != self.reports[name]:
                    errors.append(f"{name}: workers=2 report differs from workers=1")
        if sorted(e[0] for e in estimates) != sorted(self.HILL_ALPHA):
            errors.append(f"estimate() calls by scenario: {[e[0] for e in estimates]}")
        for name, alpha_hat, k in estimates:
            error = _hill_band_error(name, alpha_hat, self.HILL_ALPHA.get(name, 0.0), k)
            if error:
                errors.append(error)
        return errors


# ----------------------------------------------------------------------
# file-pipeline


def _quadrant_masses(bump: float) -> list[float]:
    """Mass of each quadrant [j pi/2, (j+1) pi/2) under (1 + c cos t) / 2pi."""
    q = math.pi / 2.0
    return [(q + bump * (math.sin((j + 1) * q) - math.sin(j * q))) / TWO_PI
            for j in range(4)]


def _read_rows(path):
    """Header and float rows of a CSV, parsed with Python's float()."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        values = [float(v) for line in fh for v in line.split(",")]
    return header, np.array(values).reshape(-1, 2).T


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli_main(argv)


class FilePipeline:
    """`sample | transform --map quadrant_snap | estimate` through CSV files.

    n = 1e6 points with a cosine-bump spectral measure and Pareto norms, run
    in-process through cli_main. Each pass also runs `estimate` on a small
    CSV holding one nan row, which must exit 2.
    """

    name = "file-pipeline"
    ops_per_pass = 4
    N = 1_000_000
    ALPHA = 1.5
    BUMP = 0.5
    TOP = 0.01
    EXIT_CODES = (0, 0, 0, 2)

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.dir = workdir
        spec = {"kind": "polar_independent", "alpha": self.ALPHA,
                "sigma": {"kind": "density", "dim": 2,
                          "density": {"name": "cosine_bump", "amplitude": self.BUMP}},
                "radial": {"kind": "pareto", "alpha": self.ALPHA}}
        self.model = model_from_spec(spec)
        self.masses = _quadrant_masses(self.BUMP)
        self.centres = [(j + 0.5) * math.pi / 2.0 for j in range(4)]
        with open(workdir / "model.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        with open(workdir / "target.json", "w", encoding="utf-8") as fh:
            json.dump({"kind": "discrete", "dim": 2,
                       "atoms": [{"angle": c, "weight": w}
                                 for c, w in zip(self.centres, self.masses)]}, fh)
        # boundary input, the same for every seed
        with open(workdir / "nan.csv", "w", encoding="utf-8") as fh:
            fh.write("x1,x2\n")
            fh.writelines(f"{1.0 + i / 7.0:.17g},{2.0 + i / 3.0:.17g}\n"
                          for i in range(199))
            fh.write("nan,1.5\n")
        self.fingerprint = None

    def _commands(self, n: int, prefix: str):
        d = self.dir
        x, y = d / f"{prefix}x.csv", d / f"{prefix}y.csv"
        return [
            ["sample", "--model", str(d / "model.json"), "-n", str(n),
             "--seed", str(self.seed), "-o", str(x)],
            ["transform", "--input", str(x), "--map", '{"kind": "quadrant_snap"}',
             "-o", str(y)],
            ["estimate", "--input", str(y), "--top", str(self.TOP),
             "--target", str(d / "target.json"), "--seed", str(self.seed + 1),
             "-o", str(d / f"{prefix}report.json")],
            ["estimate", "--input", str(d / "nan.csv"), "--top", "20",
             "-o", str(d / f"{prefix}nan_report.json")],
        ]

    def warm_up(self):
        for argv in self._commands(20_000, "warm-"):
            _quiet_cli(argv)

    def run_pass(self, timed):
        for name in ("report.json", "nan_report.json"):
            (self.dir / name).unlink(missing_ok=True)
        commands = self._commands(self.N, "")
        codes = [timed(_quiet_cli, argv) for argv in commands]
        failed = sum(c != e for c, e in zip(codes, self.EXIT_CODES))
        # the nan-row estimate is the one expected failure; the others break the run
        errors = [f"`regvar {argv[0]}` exited {c}"
                  for argv, c in zip(commands[:3], codes[:3]) if c != 0]
        if not errors:
            fingerprint = [_sha256(self.dir / f) for f in ("x.csv", "y.csv", "report.json")]
            if self.fingerprint is None:
                self.fingerprint = fingerprint
            elif fingerprint != self.fingerprint:
                errors.append("pipeline outputs differ between passes")
        return failed, errors

    def final_checks(self):
        errors = []
        header, x = _read_rows(self.dir / "x.csv")
        expected = self.model.sample(self.N, self.seed).points
        if header != "x1,x2" or x.shape != expected.shape \
                or x.tobytes() != expected.tobytes():
            errors.append("x.csv is not bit-identical to model.sample(n, seed)")
        header, y = _read_rows(self.dir / "y.csv")
        if header != "x1,x2" or y.shape != x.shape:
            return errors + ["y.csv does not hold one row per sample row"]

        quarter = math.pi / 2.0
        quadrant = np.minimum(np.floor(np.mod(np.arctan2(x[1], x[0]), TWO_PI) / quarter), 3)
        mapped = np.mod(np.arctan2(y[1], y[0]), TWO_PI)
        off = int(np.count_nonzero(np.abs(mapped - (quadrant + 0.5) * quarter) > 1e-12))
        if off:
            errors.append(f"{off} mapped directions are not the centre of their quadrant")
        # norms survive the map up to the rounding of the written coordinates
        n_src, n_map = np.hypot(x[0], x[1]), np.hypot(y[0], y[1])
        moved = int(np.count_nonzero(np.abs(n_map - n_src) > 4 * np.spacing(n_src)))
        if moved:
            errors.append(f"{moved} norms changed by more than 4 ulp under the map")

        with open(self.dir / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        k, alpha_hat = report["k_used"], report["alpha_hat"]
        if k != round(self.TOP * self.N):
            errors.append(f"k_used {k} != {round(self.TOP * self.N)}")
        error = _hill_band_error("file-pipeline", alpha_hat, self.ALPHA, k)
        if error:
            errors.append(error)
        lo, hi = report["alpha_ci"]
        if not lo <= alpha_hat <= hi:
            errors.append(f"alpha_hat {alpha_hat} outside alpha_ci [{lo}, {hi}]")
        weights = [0.0] * 4
        for atom in report["spectral_hat"]["atoms"]:
            j = min(range(4), key=lambda i: abs(atom["angle"] - self.centres[i]))
            if abs(atom["angle"] - self.centres[j]) > 1e-9:
                errors.append(f"spectral atom at {atom['angle']} is not a quadrant centre")
            weights[j] += atom["weight"]
        sd = [math.sqrt(p * (1.0 - p) / k) for p in self.masses]
        for j, (w, p, s) in enumerate(zip(weights, self.masses, sd)):
            if abs(w - p) > BAND_Z * s:
                errors.append(f"quadrant {j}: weight {w:.5f} vs mass {p:.5f}")
        tv = report["distances"]["tv"]
        tv_own = 0.5 * sum(abs(w - p) for w, p in zip(weights, self.masses))
        if not (abs(tv - tv_own) <= 1e-9 and tv <= 0.5 * BAND_Z * sum(sd)):
            errors.append(f"reported TV {tv} (recomputed {tv_own:.6g}) too large")
        return errors


# ----------------------------------------------------------------------
# sample-scan


def _tail(r, alpha=1.0, amplitude=0.0, sign=1):
    """P{R > r} for the oscillating law; amplitude 0 gives the Pareto law."""
    if r <= 1.0:
        return 1.0
    return min(1.0, r ** -alpha * (1.0 + sign * amplitude * math.sin(math.log(r))))


def _example1_tail(r, arc):
    """Two-ray mixture (alpha 1, a 0.5): side s sits at angle s/floor(R)."""
    if arc == (0.0, math.pi):
        return 0.5 * _tail(r, amplitude=0.5, sign=+1)
    if arc == (math.pi, TWO_PI):
        return 0.5 * _tail(r, amplitude=0.5, sign=-1)
    # rays 1/2 and 1/3: plus-side points with 2 <= R < 4
    return 0.5 * max(0.0, _tail(max(r, 2.0), amplitude=0.5) - _tail(4.0, amplitude=0.5))


def _polar_tail(r, arc):
    """Cosine bump (c 0.5) times the oscillating law (alpha 1, a 0.5)."""
    a, b = arc
    mass = (b - a + 0.5 * (math.sin(b) - math.sin(a))) / TWO_PI
    return mass * _tail(r, amplitude=0.5, sign=+1)


def _example2_gained_tail(r, arc, alpha=1.0, nu=0.5, beta=1.2):
    """Atom k (mass 1/(k(k+1)), angle pi - pi 2^(1-k)) has norm k^beta R with
    P{R > s} = k^-nu s^-alpha for s >= 1 and R >= 1."""
    total = 0.0
    for k in range(1, 60):
        if arc[0] <= math.pi - math.pi * 2.0 ** (1 - k) < arc[1]:
            gain = k ** beta
            hit = 1.0 if gain > r else k ** (alpha * beta - nu) * r ** -alpha
            total += hit / (k * (k + 1))
    return total


def _example3_tail(r, arc):
    """Half the mass on the axis at norm X ~ Pareto(1); half at (X, 2^-k)
    for X in (k, k+1], where 2^-k underflows to 0 beyond k = 1074."""
    a, b = arc
    total = 0.5 * _tail(r) if a == 0.0 else 0.0
    if a >= math.pi / 2.0:
        return total
    last = 1100
    for k in range(1, last):
        y = 2.0 ** -k
        if y == 0.0 and a > 0.0:
            continue
        lo, hi = max(float(k), math.sqrt(max(r * r - y * y, 0.0))), float(k + 1)
        if y > 0.0 and b < math.pi / 2.0:
            lo = max(lo, y / math.tan(b))
        if y > 0.0 and a > 0.0:
            hi = min(hi, y / math.tan(a))
        if hi > lo:
            total += 0.5 * (_tail(lo) - _tail(hi))
    if a == 0.0:
        total += 0.5 * _tail(max(r, float(last)))
    return total


def _digest(batch) -> str:
    digest = hashlib.sha256()
    for array in (batch.points, batch.norms, batch.dirs):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class SampleScan:
    """Threaded sampling of four models, each followed by an empirical scan.

    n = 1e6 points per model with workers=2; the scan counts
    r * P{direction in arc, norm > r} over three or four arcs and ten radii.
    """

    name = "sample-scan"
    N = 1_000_000
    WORKERS = 2
    ALPHA = 1.0

    def __init__(self, seed: int, workdir):
        quarter = math.pi / 2.0
        gained = rv.TransformedModel(
            model_from_spec({"kind": "example2", "alpha": 1.0, "nu": 0.5, "beta": 1.2}),
            gain_from_spec({"kind": "example2_gain", "beta": 1.2}))
        cases = [
            ("example1", model_from_spec({"kind": "example1", "alpha": 1.0,
                                          "amplitude": 0.5}),
             [(0.0, math.pi), (math.pi, TWO_PI), (0.3, 0.6)], (1.5, 2000.0),
             _example1_tail),
            ("polar", model_from_spec(
                {"kind": "polar_independent", "alpha": 1.0,
                 "sigma": {"kind": "density", "dim": 2,
                           "density": {"name": "cosine_bump", "amplitude": 0.5}},
                 "radial": {"kind": "oscillating", "alpha": 1.0, "amplitude": 0.5,
                            "sign": 1}}),
             [(j * quarter, (j + 1) * quarter) for j in range(4)], (1.5, 2000.0),
             _polar_tail),
            ("example2-gain", gained,
             [(0.0, 0.6 * math.pi), (0.6 * math.pi, 0.9 * math.pi),
              (0.9 * math.pi, 0.99 * math.pi)], (2.0, 5000.0), _example2_gained_tail),
            ("example3", model_from_spec({"kind": "example3", "alpha": 1.0}),
             [(0.0, 0.05), (0.05, quarter), (0.0, TWO_PI)], (1.5, 1000.0),
             _example3_tail),
        ]
        self.cases = []
        for i, (label, model, arcs, (r_lo, r_hi), tail) in enumerate(cases):
            grid = np.geomspace(r_lo, r_hi, 10)
            prob = np.array([[tail(float(r), arc) for arc in arcs] for r in grid])
            self.cases.append({
                "label": label, "model": model, "seed": seed * len(cases) + i,
                "sets": [rv.ArcSet([arc]) for arc in arcs], "grid": grid,
                "expected": grid[:, None] ** self.ALPHA * prob,
                "band": BAND_Z * grid[:, None] ** self.ALPHA
                * np.sqrt(prob * (1.0 - prob) / self.N)
                + 2.0 * grid[:, None] ** self.ALPHA / self.N,
                "digest": None})
        self.ops_per_pass = 2 * len(self.cases)

    def warm_up(self):
        for case in self.cases:
            batch = case["model"].sample(2 * 65536, case["seed"], self.WORKERS)
            rv.tail_scan(batch, self.ALPHA, case["sets"], case["grid"])

    def run_pass(self, timed):
        errors = []
        for case in self.cases:
            batch = timed(case["model"].sample, self.N, case["seed"], self.WORKERS)
            scan = timed(rv.tail_scan, batch, self.ALPHA, case["sets"], case["grid"])
            digest = _digest(batch)
            if case["digest"] is None:
                case["digest"] = digest
            elif digest != case["digest"]:
                errors.append(f"{case['label']}: batch differs between passes")
            # tail_scan divides by the points kept; the expectation is per point drawn
            values = scan.values * (batch.size / self.N)
            del batch
            miss = np.abs(values - case["expected"]) > case["band"]
            if np.any(miss):
                i, j = np.argwhere(miss)[0]
                errors.append(
                    f"{case['label']}: {int(miss.sum())} scan values off; at "
                    f"r={case['grid'][i]:.4g} arc {j}: {values[i, j]:.5g} vs "
                    f"{case['expected'][i, j]:.5g} +- {case['band'][i, j]:.2g}")
        return 0, errors

    def final_checks(self):
        """The workers=1 batch of every model equals its workers=2 batch."""
        return [f"{case['label']}: workers=1 batch differs from workers=2"
                for case in self.cases
                if _digest(case["model"].sample(self.N, case["seed"], 1)) != case["digest"]]


WORKLOADS = {w.name: w for w in (VerifySuite, FilePipeline, SampleScan)}
