"""Named verification scenarios and their machine-readable reports.

Each scenario pairs a Monte Carlo pipeline with the analytic prediction it
must reproduce: the sphere-map pushforward, the quantile-transform
simulator, the gain reweighting (bounded, moment-certified unbounded, and
randomized), and the three constructions showing what breaks when a
hypothesis is dropped. Expectations are computed analytically at run time;
no empirical goldens are stored. A report is fully determined by
(scenario, n, seed), independent of worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolation, UnboundedGain
from .estimation import empirical_spectral, estimate, qn_measure, tail_scan
from .measures import (
    SpectralMeasure,
    SphereMap,
    distance_ks,
    expected_gain_reweight,
    exponential_gain_process,
    moment_condition,
    normalize,
    pushforward,
    quantile_transform_map,
    reweight,
)
from .models import (
    example1_model,
    example2_gain,
    example2_model,
    example2_moment,
    example3_model,
    polar_independent,
)
from .radial import ParetoLaw
from .rng import GAIN_STREAM, MOMENT_STREAM, substream
from .sphere import TWO_PI, ArcSet
from .specs import (
    gain_from_spec,
    is_random_gain_spec,
    map_from_spec,
    model_from_spec,
    random_gain_from_spec,
    report_json,
)
from .transforms import (
    LimitMeasure,
    TransformedModel,
    limit_pushforward_radial,
    radial_scale_apply,
    randomized_scale_apply,
    spherical_map_apply,
)

SCENARIO_NAMES = ("theorem1", "corollary1", "theorem2", "theorem3",
                  "corollary2", "example1", "example2", "example3")

DEFAULT_N = 200_000
DEFAULT_SEED = 42
DEFAULT_TOP_FRAC = 0.01


@dataclass
class Scenario:
    """A named scenario, fully determined by (name, n, seed).

    workers only splits the sampling work and never changes the numbers.
    The model/map/gain JSON overrides exist so tests can exercise the
    hypothesis gates (e.g. an unbounded gain where boundedness is required).
    """

    name: str
    n: int = DEFAULT_N
    seed: int = DEFAULT_SEED
    workers: int = 1
    top_frac: float = DEFAULT_TOP_FRAC
    model_spec: dict | None = None
    map_spec: dict | None = None
    gain_spec: dict | None = None

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.name!r}; "
                             f"choose from {', '.join(SCENARIO_NAMES)}")


@dataclass
class Check:
    """One recorded quantity with its tolerance and verdict.

    kind says how the verdict reads the numbers: "le" passes when
    value <= tolerance, "ge" when value >= tolerance, "finite" when the
    value is finite, and "info" always passes (recorded for the reader).
    """

    name: str
    value: float
    tolerance: float | None
    kind: str = "le"

    @property
    def passed(self) -> bool:
        if self.kind == "info":
            return True
        if self.kind == "finite":
            return bool(np.isfinite(self.value))
        if self.kind == "ge":
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
    checks: list[Check] = field(default_factory=list)
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


def _k_top(n: int, frac: float) -> int:
    return max(1, int(round(frac * n)))


def _uniform_pareto_model(alpha: float):
    return polar_independent(SpectralMeasure.uniform(), alpha, ParetoLaw(alpha))


def _mass_near(m: SpectralMeasure, theta: float, tol: float = 1e-6) -> float:
    lo, hi = max(0.0, theta - tol), min(TWO_PI, theta + tol)
    return m.mass_on(ArcSet([(lo, hi)]))


def run_scenario(s: Scenario) -> Report:
    """Run a named scenario and report one pass/fail entry per check."""
    start = time.perf_counter()
    runner = _RUNNERS[s.name]
    report = runner(s)
    report.runtime_s = time.perf_counter() - start
    return report


# ----------------------------------------------------------------------
# spherical transformations


def _run_theorem1(s: Scenario) -> Report:
    model_spec = s.model_spec or {
        "kind": "polar_independent", "alpha": 1.0,
        "sigma": {"kind": "density", "dim": 2, "density": {"name": "uniform"}},
        "radial": {"kind": "pareto", "alpha": 1.0}}
    map_spec = s.map_spec or {"kind": "quadrant_snap"}
    model = model_from_spec(model_spec)
    fmap = map_from_spec(map_spec)
    target = normalize(pushforward(model.sigma, fmap))
    config = {"model": model_spec, "map": map_spec, "n": s.n, "seed": s.seed,
              "top_frac": s.top_frac, "tolerances": {"spectral_tv": 0.05}}

    batch = model.sample(s.n, s.seed, s.workers).canonical()
    moved = spherical_map_apply(batch, fmap).canonical()
    k = _k_top(s.n, s.top_frac)
    est = estimate(moved, k, target=target)

    mass_dev = abs(pushforward(model.sigma, fmap).total_mass - model.sigma.total_mass)
    checks = [
        Check("spectral_tv", est.distances["tv"], 0.05),
        Check("pushforward_mass_conservation", mass_dev, 1e-12),
        Check("hill_alpha", est.alpha_hat, None, "info"),
    ]
    return Report("theorem1", config, checks)


def _run_corollary1(s: Scenario) -> Report:
    half_pi = np.pi / 2.0
    target = SpectralMeasure.discrete([half_pi, 3 * half_pi], [0.3, 0.7])
    model = _uniform_pareto_model(1.0)
    qmap = quantile_transform_map(target)
    config = {"model": {"kind": "polar_independent", "alpha": 1.0,
                        "sigma": {"kind": "density", "dim": 2,
                                  "density": {"name": "uniform"}},
                        "radial": {"kind": "pareto", "alpha": 1.0}},
              "map": {"kind": "quantile_transform",
                      "target": {"kind": "discrete", "dim": 2,
                                 "atoms": [{"angle": half_pi, "weight": 0.3},
                                           {"angle": 3 * half_pi, "weight": 0.7}]}},
              "n": s.n, "seed": s.seed, "top_frac": s.top_frac,
              "tolerances": {"exact_pushforward_ks": 1e-9, "weight_error": 0.03}}

    exact_image = pushforward(model.sigma, qmap)
    exact_ks = distance_ks(exact_image, target)

    batch = model.sample(s.n, s.seed, s.workers).canonical()
    moved = spherical_map_apply(batch, qmap).canonical()
    k = _k_top(s.n, s.top_frac)
    est = estimate(moved, k, target=target)
    w_first = _mass_near(est.spectral_hat, half_pi)
    w_second = _mass_near(est.spectral_hat, 3 * half_pi)

    checks = [
        Check("exact_pushforward_ks", exact_ks, 1e-9),
        Check("weight_error_first_atom", abs(w_first - 0.3), 0.03),
        Check("weight_error_second_atom", abs(w_second - 0.7), 0.03),
        Check("spectral_tv", est.distances["tv"], None, "info"),
    ]
    return Report("corollary1", config, checks)


# ----------------------------------------------------------------------
# radial transformations


def _theorem2_closed_mass(a: float, b: float, base: float, amp: float) -> float:
    """Integral of (base + amp cos t)^2 / (2 pi) over [a, b], closed form."""
    def cf(t):
        return (base * base * t + 2.0 * base * amp * np.sin(t)
                + amp * amp * (0.5 * t + 0.25 * np.sin(2.0 * t))) / TWO_PI
    return cf(b) - cf(a)


def _run_theorem2(s: Scenario) -> Report:
    gain_spec = s.gain_spec or {"kind": "cosine", "base": 1.0, "amplitude": 0.5}
    gain = gain_from_spec(gain_spec)
    if not gain.is_bounded:
        raise HypothesisViolation(
            "the bounded-gain scenario needs a gain with a declared bound")
    if gain_spec.get("kind") != "cosine":
        raise HypothesisViolation(
            "this scenario checks its analytic identity for cosine gains only")
    alpha = 2.0
    model = _uniform_pareto_model(alpha)
    config = {"model": {"kind": "polar_independent", "alpha": alpha,
                        "sigma": {"kind": "density", "dim": 2,
                                  "density": {"name": "uniform"}},
                        "radial": {"kind": "pareto", "alpha": alpha}},
              "gain": gain_spec, "n": s.n, "seed": s.seed,
              "top_frac": s.top_frac,
              "tolerances": {"exceedance_ks": 0.05, "eval_identity": 1e-12}}

    target = normalize(reweight(model.sigma, gain, alpha))
    batch = model.sample(s.n, s.seed, s.workers).canonical()
    scaled = radial_scale_apply(batch, gain).canonical()
    k = _k_top(s.n, s.top_frac)
    est = estimate(scaled, k, target=target)

    # analytic identity: the reweighted limit measure evaluates rectangles
    # as (closed-form arc mass) * r^-alpha
    limit = limit_pushforward_radial(LimitMeasure(alpha, model.sigma), gain)
    arcs = np.linspace(0.0, TWO_PI, 41)
    r_probes = np.geomspace(1.0, 1e3, 25)
    worst = 0.0
    for a, b in zip(arcs[:-1], arcs[1:]):
        arc = ArcSet([(a, b)])
        lhs_mass = limit.spectral.mass_on(arc)
        rhs_mass = _theorem2_closed_mass(a, b, gain_spec["base"],
                                         gain_spec["amplitude"])
        for r in r_probes:
            lhs = lhs_mass * r ** -alpha
            rhs = rhs_mass * r ** -alpha
            worst = max(worst, abs(lhs - rhs) / abs(rhs))

    checks = [
        Check("exceedance_ks", est.distances["ks"], 0.05),
        Check("eval_identity_rel_err", worst, 1e-12),
        Check("alpha_preserved", abs(limit.alpha - alpha), 0.0),
        Check("hill_alpha", est.alpha_hat, None, "info"),
    ]
    return Report("theorem2", config, checks)


def _run_theorem3(s: Scenario) -> Report:
    model_spec = s.model_spec or {
        "kind": "polar_independent", "alpha": 1.0,
        "sigma": {"kind": "density", "dim": 2, "density": {"name": "uniform"}},
        "radial": {"kind": "pareto", "alpha": 1.0}}
    if model_spec.get("kind") != "polar_independent":
        raise HypothesisViolation(
            "the moment-condition route needs independent polar parts")
    gain_spec = s.gain_spec or {"kind": "power_cusp", "center": np.pi,
                                "gamma": 0.2}
    if gain_spec.get("kind") != "power_cusp":
        raise HypothesisViolation(
            "this scenario checks its hand integral for power-cusp gains only")
    model = model_from_spec(model_spec)
    gain = gain_from_spec(gain_spec)
    alpha, eps = model.alpha, 0.5
    config = {"model": model_spec, "gain": gain_spec, "epsilon": eps,
              "n": s.n, "seed": s.seed, "top_frac": s.top_frac,
              "tolerances": {"moment_abs_err": 1e-6, "exceedance_ks": 0.06}}

    moment = moment_condition(model.sigma, gain, alpha, eps)
    # hand value of the cusp integral against the uniform measure
    g = gain_spec["gamma"] * (alpha + eps)
    closed = 2.0 * np.pi ** (1.0 - g) / ((1.0 - g) * TWO_PI)

    refused = 0.0
    try:
        limit_pushforward_radial(LimitMeasure(alpha, model.sigma), gain)
    except UnboundedGain:
        refused = 1.0

    target = normalize(reweight(model.sigma, gain, alpha))
    batch = model.sample(s.n, s.seed, s.workers).canonical()
    scaled = radial_scale_apply(batch, gain).canonical()
    est = estimate(scaled, _k_top(s.n, s.top_frac), target=target)

    checks = [
        Check("moment_abs_err", abs(moment - closed), 1e-6),
        Check("exceedance_ks", est.distances["ks"], 0.06),
        Check("unbounded_gain_refused_without_certificate", refused, 1.0, "ge"),
        Check("moment_value", moment, None, "info"),
    ]
    return Report("theorem3", config, checks)


def _run_corollary2(s: Scenario) -> Report:
    gain_spec = s.gain_spec or {"kind": "exp_cosine", "amplitude": 0.5}
    if not is_random_gain_spec(gain_spec):
        raise HypothesisViolation("the randomized scenario needs a random gain")
    process = random_gain_from_spec(gain_spec)
    alpha = 1.0
    model = _uniform_pareto_model(alpha)
    config = {"model": {"kind": "polar_independent", "alpha": alpha,
                        "sigma": {"kind": "density", "dim": 2,
                                  "density": {"name": "uniform"}},
                        "radial": {"kind": "pareto", "alpha": alpha}},
              "gain": gain_spec, "n": s.n, "seed": s.seed,
              "top_frac": s.top_frac, "mc_budget": process.mc_budget,
              "tolerances": {"exceedance_ks": 0.06, "moment_rel_err": 0.01,
                             "moment_reading_alpha2": 0.3}}

    target = normalize(expected_gain_reweight(model.sigma, process, alpha))
    batch = model.sample(s.n, s.seed, s.workers).canonical()
    scaled = randomized_scale_apply(batch, process,
                                    substream(s.seed, GAIN_STREAM)).canonical()
    est = estimate(scaled, _k_top(s.n, s.top_frac), target=target)

    # analytic moments against seeded Monte Carlo moments at 16 probes
    probes = (np.arange(16) + 0.5) * TWO_PI / 16.0
    analytic = process.moment(probes, alpha)
    mc_process = exponential_gain_process(
        lambda t: 1.0 + gain_spec.get("amplitude", 0.0) * np.cos(t),
        moment_known=False, mc_budget=process.mc_budget)
    mc = mc_process.moment(probes, alpha, substream(s.seed, MOMENT_STREAM))
    moment_err = float(np.max(np.abs(mc - analytic) / analytic))

    # the multiplier is the moment of order alpha, not the alpha-th power
    # of the mean: with an exponential gain and alpha = 2 the normalized
    # exceedance count concentrates at E[Z^2] = 2, not (E Z)^2 = 1
    model2 = _uniform_pareto_model(2.0)
    unit_exp = exponential_gain_process(lambda t: np.ones_like(t))
    batch2 = model2.sample(s.n, s.seed + 1, s.workers)
    scaled2 = randomized_scale_apply(batch2, unit_exp,
                                     substream(s.seed + 1, GAIN_STREAM))
    r_small = 0.045
    reading = qn_measure(scaled2, 2.0, r_small, ArcSet.full_circle()) * r_small ** 2

    checks = [
        Check("exceedance_ks", est.distances["ks"], 0.06),
        Check("moment_rel_err", moment_err, 0.01),
        Check("moment_reading_alpha2", abs(reading - 2.0), 0.3),
        Check("moment_reading_value", reading, None, "info"),
    ]
    return Report("corollary2", config, checks)


# ----------------------------------------------------------------------
# counterexamples


def _run_example1(s: Scenario) -> Report:
    alpha, amplitude = 1.0, 0.5
    model = example1_model(alpha, amplitude)
    r_grid = np.exp(TWO_PI * np.arange(17) / 16.0)
    config = {"model": {"kind": "example1", "alpha": alpha,
                        "amplitude": amplitude},
              "r_grid": [float(r) for r in r_grid], "n": s.n, "seed": s.seed,
              "top_frac": s.top_frac,
              "tolerances": {"side_oscillation_range": 0.9,
                             "mixture_constant_dev": 1e-12}}

    side_vals = r_grid ** alpha * model.side_law(+1).tail(r_grid)
    osc_range = float(np.max(side_vals) - np.min(side_vals))
    full = ArcSet.full_circle()
    mix_vals = np.array([r ** alpha * model.exact_tail(r, full) for r in r_grid])
    mix_dev = float(np.max(np.abs(mix_vals - 1.0)))

    # the discontinuous sign map fixes the one-atom spectral measure ...
    sign_map = SphereMap(angle_fn=lambda t: np.where(
        t == 0.0, 0.0, np.where(t <= np.pi, np.pi / 2.0, 3.0 * np.pi / 2.0)),
        discontinuity_note="jumps at 0 and pi")
    image = pushforward(model.spectral, sign_map)
    fixed = distance_ks(image, model.spectral)

    # ... and sampled exceedance directions do pile up at that atom
    batch = model.sample(s.n, s.seed, s.workers)
    hat = empirical_spectral(batch, _k_top(s.n, s.top_frac))
    near_zero = hat.mass_on(ArcSet([(0.0, 0.1), (TWO_PI - 0.1, TWO_PI)]))

    checks = [
        Check("side_oscillation_range", osc_range, 0.9, "ge"),
        Check("mixture_constant_dev", mix_dev, 1e-12),
        Check("sign_map_fixes_sigma_ks", fixed, 1e-12),
        Check("sigma_recovery_mass_miss", 1.0 - near_zero, 0.01),
    ]
    return Report("example1", config, checks)


def _run_example2(s: Scenario) -> Report:
    alpha, nu, beta, delta = 1.0, 0.5, 1.2, 0.05
    model = example2_model(alpha, nu, beta)
    gain = example2_gain(beta)
    transformed = TransformedModel(model, gain)
    r_probe = np.array([1e2, 1e3, 1e4])
    config = {"model": {"kind": "example2", "alpha": alpha, "nu": nu,
                        "beta": beta},
              "gain": {"kind": "example2_gain", "beta": beta},
              "delta": delta, "r_probe": [float(r) for r in r_probe],
              "n": s.n, "seed": s.seed,
              "tolerances": {"untransformed_constant_dev": 1e-9,
                             "bound_margin": 0.0}}

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

    checks = [
        Check("transformed_scan_min_increase", increase, 0.0, "ge"),
        Check("transformed_scan_bound_margin", margin, 0.0, "ge"),
        Check("untransformed_constant_dev", const_dev, 1e-9),
        Check("moment_with_small_delta", moment, None, "finite"),
        Check("empirical_transformed_at_r100", emp, None, "info"),
    ]
    return Report("example2", config, checks)


def _run_example3(s: Scenario) -> Report:
    alpha = 1.0
    model = example3_model(alpha)
    gain_spec = {"kind": "indicator_arc",
                 "arcs": [[np.nextafter(0.0, 1.0), TWO_PI]]}
    gain = gain_from_spec(gain_spec)
    # staircase heights underflow double precision beyond x ~ 1075, gluing
    # far-out graph points onto the axis; a 10% exceedance window keeps the
    # threshold at 10, where the collapsed region holds under 1% of the mass
    surviving_frac = 0.10
    config = {"model": {"kind": "example3", "alpha": alpha}, "gain": gain_spec,
              "n": s.n, "seed": s.seed, "top_frac": s.top_frac,
              "surviving_top_frac": surviving_frac,
              "tolerances": {"surviving_fraction_err": 0.03,
                             "exact_tail_identity": 1e-12}}

    batch = model.sample(s.n, s.seed, s.workers)
    k = _k_top(s.n, surviving_frac)
    order = np.argsort(-batch.norms, kind="stable")[:k]
    top_gain = gain.at_angles(batch.angles()[order])
    surviving = float(np.mean(top_gain > 0.0))

    scaled = radial_scale_apply(batch, gain)
    removed_fraction = scaled.zero_count / s.n

    # normalized tail of the small-angle wedge equals 1 exactly beyond the
    # last staircase step that can reach the wedge
    r_id = 32.0
    identity = r_id ** alpha * model.exact_tail(r_id, ArcSet([(0.0, 0.05)]))

    gain_at_atom = float(gain.at_angles(np.array([0.0]))[0]) ** alpha
    limit_density_at_atom = 0.5  # transformed spectral mass over base mass at 0
    contrast = abs(limit_density_at_atom - gain_at_atom)

    checks = [
        Check("surviving_fraction_err", abs(surviving - 0.5), 0.03),
        Check("exact_tail_identity_dev", abs(identity - 1.0), 1e-12),
        Check("gain_vs_limit_density_contrast", contrast, 0.49, "ge"),
        Check("zero_count_fraction", removed_fraction, None, "info"),
    ]
    return Report("example3", config, checks)


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
