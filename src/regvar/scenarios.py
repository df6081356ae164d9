"""Named verification scenarios and their machine-readable reports.

Each scenario pairs a Monte Carlo pipeline with the analytic prediction it
must reproduce: the sphere-map pushforward, the quantile-transform
simulator, the gain reweighting (bounded, moment-certified unbounded, and
randomized), and the three constructions showing what breaks when a
hypothesis is dropped. Expectations are computed analytically at run time;
no empirical goldens are stored. A scenario is its name: each runner
builds its model, map and gain from fixed JSON specs, which its report's
config echoes, and writes each tolerance once, in the Check it gates. A
report is fully determined by (scenario, n, seed), independent of worker
count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .estimation import (
    empirical_spectral,
    estimate,
    exceedance_counts,
    tail_scan,
    top_count,
    top_indices,
)
from .measures import (
    RandomGainProcess,
    SpectralMeasure,
    distance_ks,
    expected_gain_reweight,
    matched_masses,
    moment_condition,
    pushforward,
    reweight,
)
from .models import example2_moment
from .rng import GAIN_STREAM, MOMENT_STREAM, substream
from .sphere import TWO_PI, ArcSet
from .specs import (
    gain_from_spec,
    map_from_spec,
    measure_from_spec,
    model_from_spec,
    random_gain_from_spec,
    report_json,
)
from .transforms import (
    TransformedModel,
    radial_scale_apply,
    randomized_scale_apply,
    spherical_map_apply,
)

DEFAULT_N = 200_000
DEFAULT_SEED = 42
# fraction of the sample whose largest norms the estimates read
TOP_FRAC = 0.01


@dataclass
class Scenario:
    """A named scenario run at sample size n and seed.

    The name fixes the model, map, gain and tolerances; workers only splits
    the sampling work and never changes the numbers.
    """

    name: str
    n: int = DEFAULT_N
    seed: int = DEFAULT_SEED
    workers: int = 1

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise InvalidParameter(f"unknown scenario {self.name!r}; "
                                   f"choose from {', '.join(SCENARIO_NAMES)}")
        if self.n < 1:
            raise InvalidParameter(f"n must be at least 1, got {self.n}")


@dataclass
class Check:
    """One recorded quantity with its tolerance and verdict.

    With no tolerance the value is recorded for the reader and passes.
    Otherwise it passes when value <= tolerance, or value >= tolerance
    when at_least is set.
    """

    name: str
    value: float
    tolerance: float | None = None
    at_least: bool = False

    @property
    def passed(self) -> bool:
        if self.tolerance is None:
            return True
        if self.at_least:
            return bool(self.value >= self.tolerance)
        return bool(self.value <= self.tolerance)

    def to_dict(self) -> dict:
        return {"name": self.name, "value": float(self.value),
                "tolerance": None if self.tolerance is None else float(self.tolerance),
                "pass": self.passed}


@dataclass
class Report:
    """Scenario outcome: echoed inputs, measured numbers, verdicts, runtime."""

    scenario: str
    config: dict
    checks: list[Check]
    runtime_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self, include_runtime: bool = True) -> dict:
        out = {"scenario": self.scenario, "config": self.config,
               "checks": [c.to_dict() for c in self.checks]}
        if include_runtime:
            out["runtime_s"] = self.runtime_s
        return out

    def to_json(self, include_runtime: bool = True) -> str:
        return report_json(self.to_dict(include_runtime))


def _uniform_pareto_spec(alpha: float) -> dict:
    """Uniform directions with an independent Pareto(alpha) norm."""
    return {"kind": "polar_independent", "alpha": alpha,
            "sigma": {"kind": "density", "dim": 2,
                      "density": {"name": "uniform"}},
            "radial": {"kind": "pareto", "alpha": alpha}}


def _estimate_transformed(s: Scenario, model, transform,
                          target: SpectralMeasure):
    """Sample, transform and estimate at the top fraction TOP_FRAC,
    canonicalizing at each stage boundary as a file pipeline does. Each
    stage's input goes once its output is made, so the estimate, which
    builds the target's CDF table, holds one batch. The report keeps the
    batch's norms for its alpha_ci, which no scenario reads."""
    return estimate(
        transform(model.sample(s.n, s.seed, s.workers).canonical()).canonical(),
        top_count(s.n, TOP_FRAC), target=target)


def run_scenario(s: Scenario) -> Report:
    """Run a named scenario and report one pass/fail entry per check; the
    runner's config, its specs and constants, gains n and seed last."""
    start = time.perf_counter()
    config, checks = _RUNNERS[s.name](s)
    config.update(n=s.n, seed=s.seed)
    return Report(s.name, config, checks, time.perf_counter() - start)


# ----------------------------------------------------------------------
# spherical transformations


def _run_theorem1(s: Scenario) -> tuple[dict, list[Check]]:
    model_spec = _uniform_pareto_spec(1.0)
    map_spec = {"kind": "quadrant_snap"}
    model = model_from_spec(model_spec)
    fmap = map_from_spec(map_spec)
    image = pushforward(model.sigma, fmap)
    config = {"model": model_spec, "map": map_spec, "top_frac": TOP_FRAC}

    est = _estimate_transformed(
        s, model, lambda b: spherical_map_apply(b, fmap), image.normalized())

    mass_dev = abs(image.total_mass - model.sigma.total_mass)
    return config, [
        Check("spectral_tv", est.distances["tv"], 0.05),
        Check("pushforward_mass_conservation", mass_dev, 1e-12),
        Check("hill_alpha", est.alpha_hat),
    ]


def _run_corollary1(s: Scenario) -> tuple[dict, list[Check]]:
    half_pi = np.pi / 2.0
    model_spec = _uniform_pareto_spec(1.0)
    target_spec = {"kind": "discrete", "dim": 2,
                   "atoms": [{"angle": half_pi, "weight": 0.3},
                             {"angle": 3 * half_pi, "weight": 0.7}]}
    map_spec = {"kind": "quantile_transform", "target": target_spec}
    model = model_from_spec(model_spec)
    target = measure_from_spec(target_spec)
    qmap = map_from_spec(map_spec)
    config = {"model": model_spec, "map": map_spec, "top_frac": TOP_FRAC}

    exact_ks = distance_ks(pushforward(model.sigma, qmap), target)
    est = _estimate_transformed(
        s, model, lambda b: spherical_map_apply(b, qmap), target)

    checks = [Check("exact_pushforward_ks", exact_ks, 1e-9)]
    got, want = matched_masses(est.spectral_hat, target)
    for which, error in zip(("first", "second"), np.abs(got - want)[want > 0]):
        checks.append(Check(f"weight_error_{which}_atom", float(error), 0.03))
    checks.append(Check("spectral_tv", est.distances["tv"]))
    return config, checks


# ----------------------------------------------------------------------
# radial transformations


def _theorem2_closed_mass(a: float, b: float, base: float, amp: float) -> float:
    """Integral of (base + amp cos t)^2 / (2 pi) over [a, b], closed form."""
    def cf(t):
        return (base * base * t + 2.0 * base * amp * np.sin(t)
                + amp * amp * (0.5 * t + 0.25 * np.sin(2.0 * t))) / TWO_PI
    return cf(b) - cf(a)


def _finite_r_identity_rel_err(transformed: TransformedModel,
                               limit: SpectralMeasure, closed_mass,
                               radii) -> float:
    """Worst relative deviation from closed_mass(a, b) of both sides of the
    finite-r identity, over the 8 arcs [a, b] that split the circle evenly.

    The sampler side is r^alpha P{norm > r, direction in B} of the rescaled
    model at each radius, the limit side the reweighted spectral measure
    limit(B). For a base norm R >= 1 and a gain h <= b the two agree
    exactly for every r >= b; below b the first fails.
    """
    edges = np.linspace(0.0, TWO_PI, 9)
    worst = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        arc = ArcSet([(a, b)])
        closed = closed_mass(a, b)
        sides = [limit.mass_on(arc)] + [
            transformed.exact_tail(r, arc) * r ** transformed.alpha
            for r in radii]
        worst = max(worst, max(abs(v - closed) for v in sides) / abs(closed))
    return worst


def _run_theorem2(s: Scenario) -> tuple[dict, list[Check]]:
    gain_spec = {"kind": "cosine", "base": 1.0, "amplitude": 0.5}
    gain = gain_from_spec(gain_spec)
    alpha = 2.0
    model_spec = _uniform_pareto_spec(alpha)
    model = model_from_spec(model_spec)
    config = {"model": model_spec, "gain": gain_spec, "top_frac": TOP_FRAC}

    limit = reweight(model.sigma, gain, alpha)
    est = _estimate_transformed(
        s, model, lambda b: radial_scale_apply(b, gain), limit.normalized())

    # the Pareto norm is at least 1, so the rescaled model's normalized tail
    # equals the limit measure from r = sup h on
    worst = _finite_r_identity_rel_err(
        TransformedModel(model, gain), limit,
        lambda a, b: _theorem2_closed_mass(a, b, gain_spec["base"],
                                           gain_spec["amplitude"]),
        np.geomspace(gain.declared_bound, 1e3, 5))

    return config, [
        Check("exceedance_ks", est.distances["ks"], 0.05),
        Check("eval_identity_rel_err", worst, 1e-12),
        Check("hill_alpha", est.alpha_hat),
    ]


def _run_theorem3(s: Scenario) -> tuple[dict, list[Check]]:
    model_spec = _uniform_pareto_spec(1.0)
    gain_spec = {"kind": "power_cusp", "center": np.pi, "gamma": 0.2}
    model = model_from_spec(model_spec)
    gain = gain_from_spec(gain_spec)
    alpha, eps = model.alpha, 0.5
    config = {"model": model_spec, "gain": gain_spec, "epsilon": eps,
              "top_frac": TOP_FRAC}

    moment = moment_condition(model.sigma, gain, alpha, eps)
    # hand value of the cusp integral against the uniform measure
    g = gain_spec["gamma"] * (alpha + eps)
    closed = 2.0 * np.pi ** (1.0 - g) / ((1.0 - g) * TWO_PI)

    limit = reweight(model.sigma, gain, alpha)
    est = _estimate_transformed(
        s, model, lambda b: radial_scale_apply(b, gain), limit.normalized())

    # the unbounded gain has no radius from which the normalized tail is
    # the limit: the gap only shrinks as r grows
    full, r_gap = ArcSet.full_circle(), 2.0
    tail = TransformedModel(model, gain).exact_tail(r_gap, full)
    gap = abs(r_gap ** alpha * tail / limit.mass_on(full) - 1.0)

    return config, [
        Check("moment_abs_err", abs(moment - closed), 1e-6),
        Check("exceedance_ks", est.distances["ks"], 0.06),
        Check("finite_r_gap", gap),
        Check("moment_value", moment),
    ]


def _run_corollary2(s: Scenario) -> tuple[dict, list[Check]]:
    gain_spec = {"kind": "exp_cosine", "amplitude": 0.5}
    unit_spec = {"kind": "exp_cosine", "amplitude": 0.0}
    process = random_gain_from_spec(gain_spec)
    alpha = 1.0
    model_spec = _uniform_pareto_spec(alpha)
    model = model_from_spec(model_spec)
    config = {"model": model_spec, "gain": gain_spec, "unit_gain": unit_spec,
              "top_frac": TOP_FRAC, "mc_budget": process.mc_budget}

    target = expected_gain_reweight(model.sigma, process, alpha).normalized()
    # the report, which holds the sample's norms, goes before the Monte
    # Carlo moments and the alpha = 2 batch
    ks = _estimate_transformed(
        s, model, lambda b: randomized_scale_apply(
            b, process, substream(s.seed, GAIN_STREAM)), target).distances["ks"]

    # analytic moments against seeded Monte Carlo moments at 16 probes: the
    # same sampler with its analytic moment withheld
    probes = (np.arange(16) + 0.5) * TWO_PI / 16.0
    analytic = process.moment(probes, alpha)
    mc_process = RandomGainProcess(process.sample_fn,
                                   mc_budget=process.mc_budget)
    mc = mc_process.moment(probes, alpha, substream(s.seed, MOMENT_STREAM))
    moment_err = float(np.max(np.abs(mc - analytic) / analytic))

    # the multiplier is the moment of order alpha, not the alpha-th power
    # of the mean: with an exponential gain and alpha = 2 the normalized
    # exceedance count concentrates at E[Z^2] = 2, not (E Z)^2 = 1
    model2 = model_from_spec(_uniform_pareto_spec(2.0))
    scaled2 = randomized_scale_apply(model2.sample(s.n, s.seed + 1, s.workers),
                                     random_gain_from_spec(unit_spec),
                                     substream(s.seed + 1, GAIN_STREAM))
    r_small = 0.045  # n times the frequency of norms above r_small n^(1/2)
    count = exceedance_counts(scaled2, [ArcSet.full_circle()],
                              np.array([r_small * np.float64(scaled2.size) ** 0.5]))
    reading = float(count[0, 0]) * r_small ** 2

    return config, [
        Check("exceedance_ks", ks, 0.06),
        Check("moment_rel_err", moment_err, 0.01),
        Check("moment_reading_alpha2", abs(reading - 2.0), 0.3),
        Check("moment_reading_value", reading),
    ]


# ----------------------------------------------------------------------
# counterexamples


def _run_example1(s: Scenario) -> tuple[dict, list[Check]]:
    model_spec = {"kind": "example1", "alpha": 1.0, "amplitude": 0.5}
    map_spec = {"kind": "step", "breakpoints": [0.0, 5e-324, np.nextafter(np.pi, 4.0)],
                "values": [0.0, np.pi / 2.0, 3.0 * np.pi / 2.0]}
    model = model_from_spec(model_spec)
    alpha = model.alpha
    r_grid = np.exp(TWO_PI * np.arange(17) / 16.0)
    config = {"model": model_spec, "map": map_spec,
              "r_grid": [float(r) for r in r_grid], "top_frac": TOP_FRAC}

    side_vals = r_grid ** alpha * model.side_law(+1).tail(r_grid)
    osc_range = float(np.max(side_vals) - np.min(side_vals))
    full = ArcSet.full_circle()
    mix_vals = np.array([r ** alpha * model.exact_tail(r, full) for r in r_grid])
    mix_dev = float(np.max(np.abs(mix_vals - 1.0)))

    # the sign map, which sends 0 to 0, (0, pi] to pi/2 and the rest to
    # 3 pi/2, fixes the one-atom spectral measure ...
    image = pushforward(model.spectral, map_from_spec(map_spec))
    fixed = distance_ks(image, model.spectral)

    # ... and sampled exceedance directions do pile up at that atom
    batch = model.sample(s.n, s.seed, s.workers)
    hat = empirical_spectral(batch, top_count(s.n, TOP_FRAC))
    near_zero = hat.mass_on(ArcSet([(0.0, 0.1), (TWO_PI - 0.1, TWO_PI)]))

    return config, [
        Check("side_oscillation_range", osc_range, 0.9, at_least=True),
        Check("mixture_constant_dev", mix_dev, 1e-12),
        Check("sign_map_fixes_sigma_ks", fixed, 1e-12),
        Check("sigma_recovery_mass_miss", 1.0 - near_zero, 0.01),
    ]


def _run_example2(s: Scenario) -> tuple[dict, list[Check]]:
    model_spec = {"kind": "example2", "alpha": 1.0, "nu": 0.5, "beta": 1.2}
    gain_spec = {"kind": "example2_gain", "beta": 1.2}
    model = model_from_spec(model_spec)
    alpha, nu, beta, delta = model.alpha, model.nu, model.beta, 0.05
    transformed = TransformedModel(model, gain_from_spec(gain_spec))
    r_probe = np.array([1e2, 1e3, 1e4])
    config = {"model": model_spec, "gain": gain_spec,
              "delta": delta, "r_probe": [float(r) for r in r_probe]}

    full = ArcSet.full_circle()
    scan_t = tail_scan(transformed, alpha, [full], r_probe)
    vals = scan_t.values[:, 0]
    bound = r_probe / (r_probe ** (1.0 / beta) + 1.0)
    increase = float(np.min(np.diff(vals)))
    margin = float(np.min(vals - bound))

    r_wide = np.geomspace(10.0 ** 0.5, 1e4, 12)
    scan_u = tail_scan(model, alpha, [full], r_wide)
    const_dev = float(np.max(scan_u.values[:, 0]) - np.min(scan_u.values[:, 0]))

    moment = example2_moment(alpha, nu, beta, delta)

    batch = transformed.sample(s.n, s.seed, s.workers)
    emp = 100.0 ** alpha * float(np.count_nonzero(batch.norms > 100.0)) / s.n

    return config, [
        Check("transformed_scan_min_increase", increase, 0.0, at_least=True),
        Check("transformed_scan_bound_margin", margin, 0.0, at_least=True),
        Check("untransformed_constant_dev", const_dev, 1e-9),
        # recorded only: example2_moment raises rather than return inf
        Check("moment_with_small_delta", moment),
        Check("empirical_transformed_at_r100", emp),
    ]


def _run_example3(s: Scenario) -> tuple[dict, list[Check]]:
    model_spec = {"kind": "example3", "alpha": 1.0}
    model = model_from_spec(model_spec)
    alpha = model.alpha
    gain_spec = {"kind": "indicator_arc",
                 "arcs": [[np.nextafter(0.0, 1.0), TWO_PI]]}
    gain = gain_from_spec(gain_spec)
    # staircase heights underflow double precision beyond x ~ 1075, gluing
    # far-out graph points onto the axis; a 10% exceedance window keeps the
    # threshold at 10, where the collapsed region holds under 1% of the mass
    surviving_frac = 0.10
    config = {"model": model_spec, "gain": gain_spec,
              "surviving_top_frac": surviving_frac}

    # the gain is read at the top directions alone, so the batch caches no
    # angles beside the scaled batch, which goes once counted
    batch = model.sample(s.n, s.seed, s.workers)
    top = top_indices(batch.norms, top_count(s.n, surviving_frac))
    surviving = float(np.mean(gain.at_dirs(batch.dirs[:, top]) > 0.0))
    removed_fraction = radial_scale_apply(batch, gain).zero_count / s.n

    # normalized tail of the small-angle wedge equals 1 exactly beyond the
    # last staircase step that can reach the wedge
    r_id = 32.0
    identity = r_id ** alpha * model.exact_tail(r_id, ArcSet([(0.0, 0.05)]))

    gain_at_atom = float(gain.at_angles(np.array([0.0]))[0]) ** alpha
    limit_density_at_atom = 0.5  # transformed spectral mass over base mass at 0
    contrast = abs(limit_density_at_atom - gain_at_atom)

    return config, [
        Check("surviving_fraction_err", abs(surviving - 0.5), 0.03),
        Check("exact_tail_identity_dev", abs(identity - 1.0), 1e-12),
        Check("gain_vs_limit_density_contrast", contrast, 0.49, at_least=True),
        Check("zero_count_fraction", removed_fraction),
    ]


_RUNNERS = {
    "theorem1": _run_theorem1,
    "corollary1": _run_corollary1,
    "theorem2": _run_theorem2,
    "theorem3": _run_theorem3,
    "corollary2": _run_corollary2,
    "example1": _run_example1,
    "example2": _run_example2,
    "example3": _run_example3,
}

SCENARIO_NAMES = tuple(_RUNNERS)
