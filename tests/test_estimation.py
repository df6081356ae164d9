import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from regvar import estimation
from regvar.batch import SampleBatch
from regvar.errors import DegenerateTail, EmptyInput
from regvar.estimation import (
    _bootstrap_hill,
    _top_indices,
    bootstrap_alpha_ci,
    empirical_spectral,
    estimate,
    hill_estimator,
    qn_measure,
    tail_scan,
)
from regvar.measures import SpectralMeasure
from regvar.models import example2_gain, example2_model, polar_independent
from regvar.radial import ParetoLaw
from regvar.rng import BOOTSTRAP_STREAM, substream
from regvar.sphere import TWO_PI, ArcSet
from regvar.transforms import TransformedModel

FULL = ArcSet.full_circle()


def batch_from(points):
    return SampleBatch.from_points(np.asarray(points, dtype=float).T)


def uniform_pareto(alpha):
    return polar_independent(SpectralMeasure.uniform(), alpha, ParetoLaw(alpha))


# ----------------------------------------------------------------------
# empirical spectral


def test_empirical_spectral_top_two():
    b = batch_from([[3.0, 0.0], [0.0, 5.0], [-2.0, 0.0]])
    m = empirical_spectral(b, 2)
    assert m.kind == "empirical"
    np.testing.assert_allclose(m.angles, [0.0, np.pi / 2])
    np.testing.assert_allclose(m.weights, [0.5, 0.5])


def test_empirical_spectral_all_points():
    b = batch_from([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0]])
    m = empirical_spectral(b, 3)
    assert m.n_atoms == 3
    assert m.total_mass == 1.0


def test_empirical_spectral_single_ray():
    b = batch_from([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
    for k in (1, 2, 3):
        m = empirical_spectral(b, k)
        assert m.n_atoms == 1
        assert m.angles[0] == pytest.approx(np.pi / 4)
        assert m.weights[0] == pytest.approx(1.0)


def test_empirical_spectral_weights_sum_exactly_one():
    rng = np.random.default_rng(0)
    b = SampleBatch.from_points(rng.standard_normal((2, 5000)))
    for k in (1, 3, 7, 1000):
        m = empirical_spectral(b, k)
        assert m.total_mass == 1.0
        assert abs(math.fsum(m.weights.tolist()) - 1.0) <= 1e-12


def test_empirical_spectral_tie_break_by_sample_order():
    b = batch_from([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0]])
    m = empirical_spectral(b, 2)  # all norms tie; first two win
    np.testing.assert_allclose(sorted(m.angles), [0.0, np.pi / 2])


def test_empirical_spectral_nested_exceedances():
    model = uniform_pareto(1.0)
    b = model.sample(20_000, 3)
    big = empirical_spectral(b, 400)
    small = empirical_spectral(b, 100)
    order = np.argsort(-b.norms, kind="stable")
    assert set(np.round(small.angles, 12)) <= \
        set(np.round(b.angles()[order[:400]], 12))
    assert big.n_atoms >= small.n_atoms


@given(st.lists(st.integers(0, 4), min_size=1, max_size=80), st.data())
def test_top_indices_equal_stable_argsort_under_ties(values, data):
    norms = np.asarray(values, dtype=float)
    k = data.draw(st.integers(1, norms.size))
    np.testing.assert_array_equal(_top_indices(norms, k),
                                  np.argsort(-norms, kind="stable")[:k])


def test_empirical_spectral_empty_and_bounds():
    empty = SampleBatch(np.empty((2, 0)), np.empty(0), np.empty((2, 0)))
    with pytest.raises(EmptyInput):
        empirical_spectral(empty, 1)
    b = batch_from([[1.0, 0.0]])
    with pytest.raises(ValueError):
        empirical_spectral(b, 2)


# ----------------------------------------------------------------------
# Hill estimator


def test_hill_hand_arithmetic():
    norms = np.array([16.0, 8.0, 4.0, 2.0, 1.0])
    assert hill_estimator(norms, 4) == pytest.approx(1.0 / (2.5 * np.log(2.0)),
                                                     abs=1e-12)


def test_hill_on_exact_pareto_quantile_grid():
    # oracle: closed-form sum over the quantile grid R_i = (n/i)^(1/alpha)
    for n in (1_000, 10_000, 100_000):
        i = np.arange(1, n + 1, dtype=float)
        norms = (n / i) ** 1.0
        k = n // 2
        expected = 1.0 / np.mean(np.log(norms[:k] / norms[k]))
        assert hill_estimator(norms, k) == pytest.approx(expected, rel=1e-12)
    # and the estimate converges toward alpha = 1 as n grows
    assert abs(hill_estimator(norms, n // 2) - 1.0) < 0.01


def test_hill_scale_invariance_bitwise_power_of_two():
    rng = np.random.default_rng(4)
    norms = ParetoLaw(1.5).sample(rng, 10_000)
    a = hill_estimator(norms, 500)
    b = hill_estimator(4.0 * norms, 500)
    assert a == b


@given(st.floats(min_value=0.01, max_value=100.0))
def test_hill_scale_invariance_general(c):
    norms = np.array([13.0, 11.0, 7.0, 5.0, 3.0, 2.0, 1.5])
    a = hill_estimator(norms, 4)
    b = hill_estimator(c * norms, 4)
    assert a == pytest.approx(b, rel=1e-9)


@given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=2,
                max_size=300), st.data())
def test_hill_equals_partition_formula(values, data):
    # the formula hill_estimator used before it shared the bootstrap kernel
    norms = np.asarray(values)
    n = norms.size
    k = data.draw(st.integers(1, n - 1))
    part = np.partition(norms, n - k - 1)
    mean_log = np.mean(np.log(part[n - k:] / part[n - k - 1]))
    if mean_log == 0.0:
        with pytest.raises(DegenerateTail):
            hill_estimator(norms, k)
    else:
        assert hill_estimator(norms, k) == 1.0 / mean_log


def test_hill_degenerate_ties():
    with pytest.raises(DegenerateTail):
        hill_estimator(np.ones(10), 4)


# ----------------------------------------------------------------------
# bootstrap


def full_resample_hill(norms, k, rng, resamples):
    """Oracle: Hill statistics of complete n-out-of-n resamples."""
    n = norms.size
    out = np.empty(resamples)
    for b in range(resamples):
        res = np.sort(norms[rng.integers(0, n, n)])[::-1]
        mean_log = np.mean(np.log(res[:k] / res[k]))
        out[b] = np.inf if mean_log == 0.0 else 1.0 / mean_log
    return out


def test_bootstrap_law_matches_full_resample():
    norms = ParetoLaw(1.5).sample(np.random.default_rng(1), 500)
    fast = _bootstrap_hill(norms, 20, np.random.default_rng(2), 2000)
    oracle = full_resample_hill(norms, 20, np.random.default_rng(3), 2000)
    assert stats.ks_2samp(fast, oracle).pvalue > 0.01


def test_bootstrap_fallback_below_top_m(monkeypatch):
    # with M = k+1 = 2 sorted norms, fewer than two of the 30 draws land in
    # the top M for about 39% of the resamples, so the exact fallback that
    # draws the rest below the top M carries a large share of the law
    monkeypatch.setattr(estimation, "_TOP_FACTOR", 1)
    n = 30
    assert stats.binom.cdf(1, n, 2 / n) > 0.35
    norms = ParetoLaw(1.0).sample(np.random.default_rng(4), n)
    fast = _bootstrap_hill(norms, 1, np.random.default_rng(5), 4000)
    oracle = full_resample_hill(norms, 1, np.random.default_rng(6), 4000)
    assert stats.ks_2samp(fast, oracle).pvalue > 0.01


def test_bootstrap_top_m_covers_whole_sample():
    # n <= 4(k+1): the top M is the whole sample and every draw lands in it
    norms = ParetoLaw(1.0).sample(np.random.default_rng(7), 40)
    fast = _bootstrap_hill(norms, 12, np.random.default_rng(8), 2000)
    oracle = full_resample_hill(norms, 12, np.random.default_rng(9), 2000)
    assert stats.ks_2samp(fast, oracle).pvalue > 0.01


def test_bootstrap_ci_is_the_percentile_interval():
    norms = ParetoLaw(1.5).sample(np.random.default_rng(10), 2000)
    stats_ = _bootstrap_hill(norms, 50, substream(3, BOOTSTRAP_STREAM), 200)
    expected = np.percentile(stats_, [2.5, 97.5])
    assert bootstrap_alpha_ci(norms, 50, 3) == (expected[0], expected[1])


def test_bootstrap_ci_infinite_ends():
    # every resample of equal norms is degenerate; with one larger norm and
    # k = 1 a resample is finite only when it holds that norm exactly once
    assert bootstrap_alpha_ci(np.ones(10), 1, 0) == (np.inf, np.inf)
    lo, hi = bootstrap_alpha_ci(np.array([1.0] * 9 + [2.0]), 1, 0)
    assert lo == 1.0 / np.log(2.0) and hi == np.inf


# ----------------------------------------------------------------------
# qn functional


def test_qn_equals_direct_count():
    model = uniform_pareto(1.0)
    b = model.sample(10_000, 9)
    r = 2.0
    bn = 10_000.0
    direct = float(np.count_nonzero(b.norms > r * bn))
    assert qn_measure(b, 1.0, r, FULL) == direct


def test_qn_replicate_mean_matches_limit():
    # E[qn(2, full)] = n * P{norm > 2 n} = 1/2 for the unit Pareto model
    model = uniform_pareto(1.0)
    vals = [qn_measure(model.sample(10_000, s), 1.0, 2.0, FULL)
            for s in range(100)]
    se = np.std(vals) / 10.0
    assert np.mean(vals) == pytest.approx(0.5, abs=max(3 * se, 0.21))


def test_qn_empty_arc():
    model = uniform_pareto(1.0)
    b = model.sample(5_000, 2)
    tiny = ArcSet([(1.0, 1.0 + 1e-9)])
    assert qn_measure(b, 1.0, 5.0, tiny) == 0.0


# ----------------------------------------------------------------------
# tail scans


def test_tail_scan_exact_constant_for_power_tail():
    model = uniform_pareto(1.0)
    scan = tail_scan(model, 1.0, [FULL], np.geomspace(1.5, 100.0, 9))
    assert scan.mode == "exact"
    assert np.max(scan.values) - np.min(scan.values) <= 1e-12
    assert scan.is_bounded == [True]


def test_tail_scan_transformed_example2_diverges():
    t = TransformedModel(example2_model(1.0, 0.5, 1.2), example2_gain(1.2))
    grid = np.geomspace(10.0, 1e4, 7)
    scan = tail_scan(t, 1.0, [FULL], grid)
    assert np.all(np.diff(scan.values[:, 0]) > 0)
    bounds = grid / (grid ** (1 / 1.2) + 1.0)
    assert np.all(scan.values[:, 0] >= bounds)


def test_tail_scan_empirical_mode():
    model = uniform_pareto(1.0)
    b = model.sample(50_000, 11)
    scan = tail_scan(b, 1.0, [FULL, ArcSet([(0.0, np.pi)])],
                     np.geomspace(2.0, 20.0, 5))
    assert scan.mode == "empirical"
    assert scan.values.shape == (5, 2)
    exact = tail_scan(model, 1.0, [FULL], np.geomspace(2.0, 20.0, 5))
    np.testing.assert_allclose(scan.values[:, 0], exact.values[:, 0], atol=0.1)


def test_tail_scan_empirical_needs_mass():
    model = uniform_pareto(1.0)
    with pytest.raises(ValueError):
        tail_scan(model.sample(100, 0), 1.0, [FULL], [2.0, 3.0])


def test_tail_scan_oscillation_diagnostic():
    from regvar.models import example1_model

    m = example1_model(1.0, 0.5)

    class SideOnly:
        alpha = 1.0

        def exact_tail(self, r, sets):
            return m.side_law(+1).tail(r)

    grid = np.exp(np.linspace(0.0, 2 * TWO_PI, 33))
    scan = tail_scan(SideOnly(), 1.0, [FULL], grid)
    assert scan.oscillation_range[0] == pytest.approx(1.0, abs=0.01)
    assert scan.is_bounded == [True]


# ----------------------------------------------------------------------
# estimate bundle


def test_estimate_pareto_15_seed_42():
    model = uniform_pareto(1.5)
    b = model.sample(100_000, 42)
    rep = estimate(b, 1000)
    assert 1.35 <= rep.alpha_hat <= 1.65
    lo, hi = rep.alpha_ci
    assert lo <= rep.alpha_hat <= hi
    again = estimate(b, 1000)
    assert rep.alpha_ci == again.alpha_ci  # bootstrap is seeded


def test_estimate_distances_to_declared_target():
    sigma = SpectralMeasure.discrete([0.5, 2.5], [0.4, 0.6])
    model = polar_independent(sigma, 1.0, ParetoLaw(1.0))
    b = model.sample(100_000, 7)
    rep = estimate(b, 1000, target=sigma)
    assert rep.distances["tv"] <= 0.05
    assert rep.distances["ks"] <= 0.05


def test_estimate_without_target_has_no_distances():
    model = uniform_pareto(1.0)
    rep = estimate(model.sample(5_000, 1), 100)
    assert rep.distances == {}
    assert rep.k_used == 100


def test_estimation_report_schema():
    model = uniform_pareto(1.0)
    rep = estimate(model.sample(5_000, 1), 50)
    d = rep.to_dict()
    assert set(d) == {"alpha_hat", "alpha_ci", "k_used", "spectral_hat",
                      "distances"}
    assert d["spectral_hat"]["kind"] == "empirical"
    assert len(d["alpha_ci"]) == 2
