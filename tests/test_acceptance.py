"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated budget and tolerance; the scenario
tolerances live in the scenario definitions, and this module re-asserts
them on the reported numbers rather than trusting the aggregate verdict.
Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
"""

import json

import numpy as np
import pytest

from regvar.cli import cli_main
from regvar.estimation import hill_estimator
from regvar.models import PolarIndependentModel
from regvar.measures import SpectralMeasure
from regvar.radial import ParetoLaw
from regvar.scenarios import (
    DEFAULT_N,
    DEFAULT_SEED,
    SCENARIO_NAMES,
    Scenario,
    run_scenario,
)

# collected verdict lines; conftest prints them in the terminal summary
VERDICTS: list[str] = []


def _verdict(criterion: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    VERDICTS.append(line)
    print(line)
    assert ok, f"{criterion}: {detail}"


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_criterion_01_spherical_map_scenario():
    report = run_scenario(Scenario("theorem1", n=DEFAULT_N, seed=DEFAULT_SEED))
    tv = _check(report, "spectral_tv")
    ok = tv.value <= 0.05 and report.runtime_s < 30.0 and report.passed
    _verdict("1 spherical-map pushforward",
             ok, f"tv={tv.value:.4f} <= 0.05, runtime={report.runtime_s:.1f}s")


def test_criterion_02_quantile_transform_scenario():
    report = run_scenario(Scenario("corollary1", n=DEFAULT_N, seed=DEFAULT_SEED))
    exact = _check(report, "exact_pushforward_ks")
    w1 = _check(report, "weight_error_first_atom")
    w2 = _check(report, "weight_error_second_atom")
    ok = exact.value <= 1e-9 and w1.value <= 0.03 and w2.value <= 0.03
    _verdict("2 quantile-transform simulation", ok,
             f"exact_ks={exact.value:.2e} <= 1e-9, "
             f"weight errors {w1.value:.4f}/{w2.value:.4f} <= 0.03")


def test_criterion_03_bounded_gain_scenario():
    report = run_scenario(Scenario("theorem2", n=DEFAULT_N, seed=DEFAULT_SEED))
    ks = _check(report, "exceedance_ks")
    ident = _check(report, "eval_identity_rel_err")
    ok = ks.value <= 0.05 and ident.value <= 1e-12
    _verdict("3 bounded radial gain", ok,
             f"ks={ks.value:.4f} <= 0.05, eval identity {ident.value:.2e} <= 1e-12")


def test_criterion_04_moment_condition_scenario():
    report = run_scenario(Scenario("theorem3", n=DEFAULT_N, seed=DEFAULT_SEED))
    mom = _check(report, "moment_abs_err")
    ks = _check(report, "exceedance_ks")
    ok = mom.value <= 1e-6 and ks.value <= 0.06
    _verdict("4 unbounded gain with finite moment", ok,
             f"moment err={mom.value:.2e} <= 1e-6, ks={ks.value:.4f} <= 0.06")


def test_criterion_05_randomized_gain_scenario():
    report = run_scenario(Scenario("corollary2", n=DEFAULT_N, seed=DEFAULT_SEED))
    ks = _check(report, "exceedance_ks")
    mom = _check(report, "moment_rel_err")
    ok = ks.value <= 0.06 and mom.value <= 0.01
    _verdict("5 randomized gain", ok,
             f"ks={ks.value:.4f} <= 0.06, moment paths agree to "
             f"{mom.value:.4%} <= 1%")


def test_criterion_06_oscillating_mixture_scenario():
    report = run_scenario(Scenario("example1", n=DEFAULT_N, seed=DEFAULT_SEED))
    osc = _check(report, "side_oscillation_range")
    mix = _check(report, "mixture_constant_dev")
    ok = osc.value >= 0.9 and mix.value <= 1e-12
    _verdict("6 oscillating side tails, exact mixture", ok,
             f"oscillation range={osc.value:.3f} >= 0.9, "
             f"mixture dev={mix.value:.2e} <= 1e-12")


def test_criterion_07_unbounded_gain_divergence_scenario():
    report = run_scenario(Scenario("example2", n=DEFAULT_N, seed=DEFAULT_SEED))
    inc = _check(report, "transformed_scan_min_increase")
    margin = _check(report, "transformed_scan_bound_margin")
    const = _check(report, "untransformed_constant_dev")
    mom = _check(report, "moment_with_small_delta")
    ok = inc.value > 0 and margin.value >= 0 and const.value <= 1e-9 \
        and np.isfinite(mom.value)
    _verdict("7 transformed-tail divergence", ok,
             f"strictly increasing (min step {inc.value:.3f}), above bound by "
             f"{margin.value:.3f}, untransformed dev={const.value:.2e} <= 1e-9, "
             f"moment={mom.value:.4f} finite")


def test_criterion_08_discontinuous_gain_scenario():
    report = run_scenario(Scenario("example3", n=DEFAULT_N, seed=DEFAULT_SEED))
    frac = _check(report, "surviving_fraction_err")
    contrast = _check(report, "gain_vs_limit_density_contrast")
    ok = frac.value <= 0.03 and contrast.value == pytest.approx(0.5)
    _verdict("8 discontinuous indicator gain", ok,
             f"surviving fraction err={frac.value:.4f} <= 0.03, "
             f"recorded contrast h(0)^a=0 vs limit density 1/2")


def test_criterion_09_estimation_sanity():
    model = PolarIndependentModel(SpectralMeasure.uniform(), 1.5, ParetoLaw(1.5))
    batch = model.sample(100_000, 42)
    alpha_hat = hill_estimator(batch, 1000)
    hand = hill_estimator(np.array([16.0, 8.0, 4.0, 2.0, 1.0]), 4)
    expected = 1.0 / (2.5 * np.log(2.0))
    ok = 1.35 <= alpha_hat <= 1.65 and abs(hand - expected) <= 1e-12
    _verdict("9 estimation sanity", ok,
             f"hill={alpha_hat:.4f} in [1.35, 1.65], "
             f"hand case err={abs(hand - expected):.2e} <= 1e-12")


def test_criterion_10_determinism(tmp_path):
    worst = None
    for name in SCENARIO_NAMES:
        outs = [tmp_path / f"{name}_{tag}.json" for tag in ("a", "b", "w4")]
        for out, workers in zip(outs, ("1", "1", "4")):
            code = cli_main(["verify", "--scenario", name,
                             "--n", str(DEFAULT_N), "--seed", str(DEFAULT_SEED),
                             "--workers", workers, "-o", str(out)])
            assert code == 0, f"{name} failed its own checks"
        fingerprints = set()
        for out in outs:
            data = json.loads(out.read_text())
            data.pop("runtime_s")  # wall time is the one volatile field
            fingerprints.add(json.dumps(data, sort_keys=True))
        if len(fingerprints) != 1:
            worst = name
            break
    _verdict("10 determinism", worst is None,
             "reports byte-identical (runtime stripped) across two runs and "
             "1 vs 4 workers for all scenarios"
             if worst is None else f"{worst} differed")
