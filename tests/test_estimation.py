import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from regvar import estimation, measures
from regvar.batch import SampleBatch
from regvar.cli import cli_main
from regvar.errors import (
    DegenerateTail,
    DimensionMismatch,
    EmptyInput,
    InvalidParameter,
)
from regvar.estimation import (
    _bootstrap_hill,
    bootstrap_alpha_ci,
    empirical_spectral,
    estimate,
    exceedance_counts,
    hill_estimator,
    tail_scan,
    top_indices,
)
from regvar.measures import SpectralMeasure, arc_integral
from regvar.models import (
    Example1Model,
    Example2Gain,
    Example2Model,
    PolarIndependentModel,
)
from regvar.radial import ParetoLaw
from regvar.rng import BOOTSTRAP_STREAM, CHUNK, substream
from regvar.scenarios import SCENARIO_NAMES, Scenario, run_scenario
from regvar.sphere import TWO_PI, ArcSet, CapSet, angles_of, directions_of
from regvar.transforms import TransformedModel

FULL = ArcSet.full_circle()
# 16 planar directions that many points of tied_batch share
LATTICE = directions_of(np.arange(16) * (np.pi / 8))
# batch sizes on both sides of the empirical counter's block edges
EDGE_SIZES = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7]


def batch_from(points):
    return SampleBatch.from_points(np.asarray(points, dtype=float).T)


def uniform_pareto(alpha):
    return PolarIndependentModel(SpectralMeasure.uniform(), alpha, ParetoLaw(alpha))


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
        set(np.round(angles_of(b.dirs)[order[:400]], 12))
    assert big.n_atoms >= small.n_atoms


@given(st.lists(st.integers(0, 4), min_size=1, max_size=80), st.data())
def test_top_indices_equal_stable_argsort_under_ties(values, data):
    norms = np.asarray(values, dtype=float)
    k = data.draw(st.integers(1, norms.size))
    np.testing.assert_array_equal(top_indices(norms, k),
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
    # a resample whose top k+1 norms are equal has an infinite statistic and
    # is left out: every resample of equal norms is, so there is no interval;
    # with one larger norm and k = 1 a resample is finite only when it holds
    # that norm exactly once, so both ends are 1 / ln 2
    with pytest.raises(DegenerateTail):
        bootstrap_alpha_ci(np.ones(10), 1, 0)
    ci = bootstrap_alpha_ci(np.array([1.0] * 9 + [2.0]), 1, 0)
    assert ci == (1.0 / np.log(2.0), 1.0 / np.log(2.0))


# ----------------------------------------------------------------------
# qn functional


def tied_batch(n, seed, levels):
    """n planar points, half of them on the directions of LATTICE and half
    with a norm from levels, so that arcs ending at a lattice angle and
    radii from levels have points exactly on their boundaries."""
    rng = np.random.default_rng(seed)
    norms = 1.0 + rng.pareto(1.0, n)
    tied = rng.random(n) < 0.5
    norms[tied] = rng.choice(np.asarray(levels, dtype=float), np.count_nonzero(tied))
    dirs = directions_of(rng.uniform(0.0, TWO_PI, n))
    on = rng.random(n) < 0.5
    dirs[:, on] = LATTICE[:, rng.integers(0, 16, np.count_nonzero(on))]
    return SampleBatch.from_polar(norms, dirs)


def lattice_arcs(picks):
    """The full circle, two overlapping arcs and a two-arc set wrapping
    through 0, all ending at the lattice angles picked (four, in 1..15)."""
    e = angles_of(LATTICE)[sorted(picks)]
    return [FULL, ArcSet([(e[0], e[2])]), ArcSet([(e[1], e[3])]),
            ArcSet([(e[3], TWO_PI), (0.0, e[0])])]


def direct_count(batch, b, r):
    """Points with direction in b and norm > r, counted over the whole batch."""
    member = b.contains(angles_of(batch.dirs) if isinstance(b, ArcSet) else batch.dirs)
    return np.count_nonzero(member & (batch.norms > r))


picks_st = st.lists(st.integers(1, 15), min_size=4, max_size=4, unique=True)


@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1), picks=picks_st,
       r=st.floats(1e-3, 1e-2), alpha=st.floats(0.5, 4.0))
def test_exceedance_counts_equal_direct_count(seed, picks, r, alpha):
    # the counts are exact: norms tie with the radius r n^(1/alpha), and
    # lattice points sit on the arcs' endpoints
    for n in EDGE_SIZES:
        radius = r * n ** (1.0 / alpha)
        b = tied_batch(n, seed, [radius])
        sets = lattice_arcs(picks)
        want = [[direct_count(b, arcs, radius) for arcs in sets]]
        got = exceedance_counts(b, sets, np.array([radius]))
        assert got.dtype == np.int64 and got.tolist() == want


def direct_counts(batch, sets, radii):
    """count_nonzero((norms > r) & member) for every radius and set."""
    members = [b.contains(angles_of(batch.dirs) if isinstance(b, ArcSet) else batch.dirs)
               for b in sets]
    return [[np.count_nonzero((batch.norms > r) & member) for member in members]
            for r in radii]


def cap_batch(n, seed):
    """n points in R^3, a quarter of them on the caps' centre directions,
    with Pareto norms."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((3, n))
    dirs /= np.sqrt(np.sum(dirs * dirs, axis=0))
    on = rng.random(n) < 0.25
    dirs[:, on] = np.eye(3)[:, rng.integers(0, 3, np.count_nonzero(on))]
    return SampleBatch.from_polar(1.0 + rng.pareto(1.0, n), dirs)


@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1), picks=picks_st,
       size=st.sampled_from([1, 200]), planar=st.booleans())
def test_exceedance_counts_on_a_grid_equal_direct_counts(seed, picks, size, planar):
    # every radius is a sample norm, so points tie with it
    caps = [CapSet([((0.0, 0.0, 1.0), 0.5)]),
            CapSet([((1.0, 0.0, 0.0), 0.0), ((0.0, 1.0, 0.0), 0.9)])]
    for n in (CHUNK - 1, CHUNK + 1):
        if planar:
            b, sets = tied_batch(n, seed, [2.0, 7.5]), lattice_arcs(picks)
        else:
            b, sets = cap_batch(n, seed), caps
        radii = np.random.default_rng(seed).choice(b.norms, size)
        assert exceedance_counts(b, sets, radii).tolist() == direct_counts(b, sets, radii)


def test_exceedance_count_replicate_mean_matches_limit():
    # E[count above 2 n] = n * P{norm > 2 n} = 1/2 for the unit Pareto model
    model = uniform_pareto(1.0)
    vals = [exceedance_counts(model.sample(10_000, s), [FULL], np.array([2e4]))[0, 0]
            for s in range(100)]
    se = np.std(vals) / 10.0
    assert np.mean(vals) == pytest.approx(0.5, abs=max(3 * se, 0.21))


def test_exceedance_counts_empty_arc():
    model = uniform_pareto(1.0)
    b = model.sample(5_000, 2)
    tiny = ArcSet([(1.0, 1.0 + 1e-9)])
    assert exceedance_counts(b, [tiny], np.array([5e3])).tolist() == [[0]]


# ----------------------------------------------------------------------
# tail scans


def test_tail_scan_exact_constant_for_power_tail():
    model = uniform_pareto(1.0)
    scan = tail_scan(model, 1.0, [FULL], np.geomspace(1.5, 100.0, 9))
    assert scan.mode == "exact"
    assert np.max(scan.values) - np.min(scan.values) <= 1e-12


def test_tail_scan_integrates_each_density_arc_once(monkeypatch):
    # the density remembers each arc's mass: one integral per quadrant,
    # not one per radius, and the same values
    model = PolarIndependentModel(SpectralMeasure.cosine_bump(0.5), 1.0,
                                  ParetoLaw(1.0))
    quadrants = [ArcSet([(j * np.pi / 2, (j + 1) * np.pi / 2)]) for j in range(4)]
    grid = np.geomspace(1.5, 1e3, 50)
    masses = [arc_integral(model.sigma.density_fn, q.arcs, {}) for q in quadrants]
    want = np.array([[r * (mass * float(model.radial.tail(r))) for mass in masses]
                     for r in grid])
    calls = []
    integrate = measures.integrate
    monkeypatch.setattr(measures, "integrate",
                        lambda *args: calls.append(1) or integrate(*args))
    scan = tail_scan(model, 1.0, quadrants, grid)
    assert len(calls) == 4
    assert scan.values.tobytes() == want.tobytes()


def test_tail_scan_transformed_example2_diverges():
    t = TransformedModel(Example2Model(1.0, 0.5, 1.2), Example2Gain(1.2))
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


@pytest.mark.parametrize("n", EDGE_SIZES)
@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1), picks=picks_st,
       radii=st.lists(st.floats(1.0, 1e3), min_size=1, max_size=10, unique=True),
       alpha=st.floats(0.5, 4.0))
def test_tail_scan_empirical_counts_exactly(n, seed, picks, radii, alpha):
    # counted by blocks, each value is r^alpha * count / n of the whole-batch
    # count, bit for bit; norms equal to a radius are not above it, and a
    # direction on an arc's start is in it, on its end out
    grid = np.sort(radii)
    b = tied_batch(n, seed, grid)
    sets = lattice_arcs(picks)
    assert np.all(np.isin(angles_of(LATTICE)[picks], angles_of(b.dirs)))
    scan = tail_scan(b, alpha, sets, grid)
    want = np.array([[r ** alpha * direct_count(b, s, r) / n for s in sets]
                     for r in grid])
    assert scan.values.tobytes() == want.tobytes()


def test_empirical_scan_of_caps_in_three_dimensions():
    rng = np.random.default_rng(4)
    n = CHUNK + 1
    b = SampleBatch.from_points(rng.standard_normal((3, n))
                                * (1.0 + rng.pareto(1.0, n)))
    caps = [CapSet([((0.0, 0.0, 1.0), 0.5)]),
            CapSet([((1.0, 0.0, 0.0), 0.0), ((0.0, 1.0, 0.0), 0.9)])]
    grid = np.geomspace(1.5, 50.0, 6)
    scan = tail_scan(b, 1.5, caps, grid)
    want = np.array([[r ** 1.5 * direct_count(b, c, r) / n for c in caps]
                     for r in grid])
    assert scan.values.tobytes() == want.tobytes()
    with pytest.raises(DimensionMismatch):
        tail_scan(b, 1.0, [caps[0], FULL], grid)
    with pytest.raises(DimensionMismatch):
        exceedance_counts(b, [FULL], grid)


@pytest.mark.parametrize("alpha, grid, name", [
    (1.0, [2.0, np.nan, 5.0], "r_grid"),
    (1.5, [-1.0, 2.0], "r_grid"),
    (1.0, [0.0, 2.0], "r_grid"),
    (1.0, [2.0, np.inf], "r_grid"),
    (1.0, [3.0, 2.0], "r_grid"),
    (1.0, [2.0, 2.0], "r_grid"),
    (np.nan, [2.0, 3.0], "alpha"),
    (-1.0, [2.0, 3.0], "alpha"),
])
def test_tail_scan_refuses_bad_alpha_or_grid(alpha, grid, name):
    # in both modes, before any counting or quadrature
    model = uniform_pareto(1.0)
    for source in (model, model.sample(2_000, 1)):
        with pytest.raises(InvalidParameter, match=rf"^{name}\b"):
            tail_scan(source, alpha, [FULL], grid)


def test_tail_scan_oscillation_diagnostic():
    m = Example1Model(1.0, 0.5)

    class SideOnly:
        alpha = 1.0

        def exact_tail(self, r, sets):
            return m.side_law(+1).tail(r)

    grid = np.exp(np.linspace(0.0, 2 * TWO_PI, 33))
    scan = tail_scan(SideOnly(), 1.0, [FULL], grid)
    # over the upper half of the grid the normalized side tail sweeps its
    # whole band [1 - a, 1 + a] and stays inside it
    upper = scan.values[grid >= np.median(grid), 0]
    assert np.max(upper) - np.min(upper) == pytest.approx(1.0, abs=0.01)
    assert 0.5 - 1e-12 <= np.min(upper) and np.max(upper) <= 1.5 + 1e-12


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
    model = PolarIndependentModel(sigma, 1.0, ParetoLaw(1.0))
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
    assert list(d) == ["alpha_hat", "alpha_ci", "k_used", "spectral_hat",
                       "distances"]
    assert d["spectral_hat"]["kind"] == "empirical"
    assert len(d["alpha_ci"]) == 2


def test_alpha_ci_is_drawn_once_on_first_read(monkeypatch):
    b = uniform_pareto(1.5).sample(20_000, 3)
    draws = []

    def counted(*args):
        draws.append(args)
        return bootstrap_alpha_ci(*args)

    monkeypatch.setattr(estimation, "bootstrap_alpha_ci", counted)
    rep = estimate(b, 200, seed=11)
    assert draws == []
    assert rep.alpha_ci == bootstrap_alpha_ci(b.norms, 200, 11)
    assert len(draws) == 1
    assert rep.to_dict()["alpha_ci"] == list(rep.alpha_ci)
    assert len(draws) == 1
    # the report keeps the batch's norms, left out of its repr
    assert rep.norms is b.norms and "norms" not in repr(rep)


def test_degenerate_bootstrap_raises_on_first_read(monkeypatch, tmp_path,
                                                   capsys):
    monkeypatch.setattr(estimation, "_bootstrap_hill",
                        lambda norms, k, rng, resamples: np.full(resamples, np.inf))
    b = uniform_pareto(1.0).sample(1_000, 2)
    rep = estimate(b, 10)
    assert 0.0 < rep.alpha_hat < np.inf
    with pytest.raises(DegenerateTail, match="every bootstrap resample"):
        rep.alpha_ci
    src, out = tmp_path / "x.csv", tmp_path / "rep.json"
    src.write_text("x1,x2\n" + "".join(f"{1.0 + i},0.5\n" for i in range(20)))
    assert cli_main(["estimate", "--input", str(src), "--top", "3",
                     "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: every bootstrap resample has equal top order statistics\n")
    assert not out.exists()


def test_verify_scenarios_draw_no_bootstrap(monkeypatch):
    # no check of any scenario reads an interval, so none may be drawn
    def reports():
        return [run_scenario(Scenario(name, n=20_000, seed=seed)).to_json(
                    include_runtime=False)
                for name in SCENARIO_NAMES for seed in (42, 7)]

    want = reports()

    def refused(*args):
        raise AssertionError("a verify scenario drew a bootstrap interval")

    monkeypatch.setattr(estimation, "bootstrap_alpha_ci", refused)
    assert reports() == want
