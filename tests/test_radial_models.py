import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from regvar.errors import (
    InvalidConstruction,
    MomentDivergence,
    NonFiniteInput,
    RegvarError,
)
from regvar.measures import (
    SpectralMeasure,
    constant_gain,
    expected_gain_reweight,
    exponential_gain_process,
    power_cusp_gain,
    reweight,
)
from regvar.models import (
    Example1Model,
    Example2Gain,
    Example2Model,
    Example3Model,
    PolarIndependentModel,
    example2_moment,
    staircase,
)
from regvar.radial import (
    AtomPlusParetoLaw,
    OscillatingTailLaw,
    ParetoLaw,
    _start_table,
    _tabulated_start,
)
from regvar.sphere import TWO_PI, ArcSet

FULL = ArcSet.full_circle()


def uniform_pareto(alpha):
    return PolarIndependentModel(SpectralMeasure.uniform(), alpha, ParetoLaw(alpha))


# ----------------------------------------------------------------------
# radial laws


@pytest.mark.parametrize("law", [
    ParetoLaw(1.3),
    AtomPlusParetoLaw(1.0, 0.4),
    OscillatingTailLaw(1.0, 0.5, +1),
    OscillatingTailLaw(1.0, 0.5, -1),
])
def test_tail_nonincreasing_on_log_grid(law):
    r = np.geomspace(1e-2, 1e6, 10_000)
    t = law.tail(r)
    assert np.all(np.diff(t) <= 1e-15)
    assert np.all((t >= 0) & (t <= 1))


def test_pareto_tail_and_coefficient():
    law = ParetoLaw(2.0)
    assert law.tail(0.5) == 1.0
    assert law.tail(10.0) == pytest.approx(0.01)
    assert law.tail_coefficient == 1.0


def test_atom_plus_pareto_shape():
    law = AtomPlusParetoLaw(1.0, 0.25)
    assert law.atom_mass == 0.75
    assert law.tail(1.0) == 0.25
    assert law.tail(0.99) == 1.0
    rng = np.random.default_rng(3)
    x = law.sample(rng, 200_000)
    assert np.mean(x == 1.0) == pytest.approx(0.75, abs=0.004)
    assert np.mean(x > 2.0) == pytest.approx(0.125, abs=0.004)


def test_oscillating_inverse_matches_tail():
    law = OscillatingTailLaw(1.0, 0.5, +1)
    rng = np.random.default_rng(11)
    x = law.sample(rng, 1_000_000)
    for r in (1.5, 3.0, 10.0, 50.0):
        p = law.tail(r)
        se = np.sqrt(p * (1 - p) / x.size)
        assert abs(np.mean(x > r) - p) <= 4 * se


def test_oscillating_monotonicity_guard():
    # a / sqrt(1 - a^2) = 2.06 > alpha = 0.3
    with pytest.raises(InvalidConstruction):
        OscillatingTailLaw(0.3, 0.9, +1)


def test_oscillating_monotonicity_bound_is_exact():
    a = 0.5
    bound = a / np.sqrt(1.0 - a * a)
    OscillatingTailLaw(bound, a)
    with pytest.raises(InvalidConstruction):
        OscillatingTailLaw(np.nextafter(bound, 0.0), a)


def bisection_inverse(u, alpha, amplitude, sign):
    """Oracle: 90 halvings of [0, (log1p(a) - ln u)/alpha] on t = ln r."""
    log_u = np.log(u)
    lo = np.zeros_like(u)
    hi = (np.log1p(amplitude) - log_u) / alpha
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        high_side = -alpha * mid + np.log1p(sign * amplitude * np.sin(mid)) > log_u
        lo = np.where(high_side, mid, lo)
        hi = np.where(high_side, hi, mid)
    return np.exp(0.5 * (lo + hi))


def newton_inverse(u, alpha, amplitude, sign):
    """Oracle: the tabulated start and both clipped Newton steps, written as
    plain expressions on the table of _start_table; the arithmetic is
    inverse_tail's, operation for operation."""
    p0, p_c, k0, dk, cubic, m2, nodes, coefs = _start_table(alpha, amplitude)
    sa = np.asarray(sign, dtype=float) * amplitude
    log_u = np.log(u)
    shift = np.where(sa < 0.0, np.pi, 0.0)
    z = alpha * shift - log_u
    periods = np.floor((z - p0) / (TWO_PI * alpha))
    y = z - periods * (TWO_PI * alpha) - p_c
    a = np.abs(y) * (0.5 / cubic)
    u2 = np.cbrt(np.hypot(a, m2 ** 1.5) + a) ** 2
    flat = np.copysign(a / (m2 * m2 / u2 + u2 + m2) * 2.0, y)
    x = (np.cbrt(y) - k0) / dk
    cell = np.clip(np.floor(x).astype(np.intp), 0, nodes.size - 2)
    x = x - cell
    c3, c2, c1, c0 = (row[cell] for row in coefs)
    base = periods * TWO_PI - shift
    t = flat + (((c3 * x + c2) * x + c1) * x + c0) + base
    lo = np.maximum(nodes[cell] + base, 0.0)
    hi = np.maximum(nodes[cell + 1] + base, lo)
    t = np.clip(t, lo, hi)
    best_t, best_g = np.zeros_like(t), np.broadcast_to(-log_u, t.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(3):
            w = np.sin(t) * sa
            g = np.log1p(w) - t * alpha - log_u
            better = np.abs(g) < best_g
            best_g = np.where(better, np.abs(g), best_g)
            best_t = np.where(better, t, best_t)
            if i == 2:
                break
            lo = np.where(g > 0.0, t, lo)
            hi = np.where(g > 0.0, hi, t)
            t = np.clip(t - g / (np.cos(t) * sa / (w + 1.0) - alpha), lo, hi)
            t = np.where(np.isnan(t), hi, t)
    return np.exp(best_t)


def assert_same_bits(got, want):
    np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(want).view(np.int64))


@pytest.mark.parametrize("sign", [+1, -1])
def test_oscillating_inverse_matches_bisection(sign):
    # alpha = 0.5 is 2% above the bound a / sqrt(1 - a^2) = 0.49 at a = 0.44
    u = 1.0 - np.random.default_rng(5).random(100_000)
    r = OscillatingTailLaw.inverse_tail(u, 0.5, 0.44, float(sign))
    want = bisection_inverse(u, 0.5, 0.44, float(sign))
    assert np.max(np.abs(r - want) / want) <= 1e-12
    assert OscillatingTailLaw.inverse_tail(u[0], 0.5, 0.44, sign) == r[0]
    assert_same_bits(r, newton_inverse(u, 0.5, 0.44, float(sign)))


# excess of alpha over the monotonicity bound, as a fraction of the bound;
# at the bound g' vanishes at t_c, one point per period, and roots there
# and near it are the hardest: flat_roots places roots at t_c + 2*pi*k + dt.
# The excess is 0 or log-uniform over 1e-12 to 1e4, so the band 1e-10 to
# 1e-5, where the inverse's start is hardest, gets a third of the draws.
oscillating_cases = given(
    amplitude=st.floats(1e-6, 1.0 - 1e-6),
    excess=st.just(0.0) | st.floats(-12.0, 4.0).map(lambda e: 10.0 ** e),
    sign=st.sampled_from([1, -1]),
    u=st.lists(st.floats(1e-300, 1.0), max_size=30),
    flat_roots=st.lists(st.tuples(st.integers(0, 5), st.floats(-0.3, 0.3)),
                        max_size=10))


def oscillating_draws(amplitude, excess, sign, u, flat_roots):
    """alpha and the draws of one case: u and the levels whose roots are
    flat_roots, less those whose r overflows a double."""
    alpha = amplitude / np.sqrt(1.0 - amplitude ** 2) * (1.0 + excess)
    try:
        OscillatingTailLaw(alpha, amplitude, sign)
    except InvalidConstruction:
        assume(False)
    t_c = (TWO_PI if sign > 0 else np.pi) - np.arcsin(amplitude)
    roots = np.array([t_c + TWO_PI * k + dt for k, dt in flat_roots])
    roots = roots[roots >= 0.0]
    u = np.concatenate([u, np.exp(-alpha * roots + np.log1p(
        sign * amplitude * np.sin(roots)))])
    u = u[(u > 0.0) & (u <= 1.0)]
    # draws whose r overflows a double have nothing to check
    return alpha, u[(np.log1p(amplitude) - np.log(u)) / alpha < 709.0]


def rounding_floor(log_u, alpha, amplitude):
    """Scale whose few ulp bound |g|: exp rounds r, which g' ~ -alpha
    magnifies, and log1p magnifies the rounding of a*sin t by up to
    1/(1 - a)."""
    return np.maximum(np.maximum(np.abs(log_u), 1.0),
                      max(alpha, 1.0 / (1.0 - amplitude)))


# the flat point's bend narrower than a table cell (alpha 7e-8 above the
# bound): 2 steps from a start without the flat-point model fail here
FLAT_BEND = dict(amplitude=0.9192624410479694, excess=7.063215187339642e-08,
                 u=[0.0015374158209757519], flat_roots=[
                     (k, dt) for k in range(3)
                     for dt in (0.0, 1e-6, -1e-6, 1e-4, -1e-4, 1e-3, -1e-3)])

# alpha = 1 with an amplitude whose third-order model overflows unclamped
TINY_AMPLITUDE = dict(amplitude=1e-300, excess=1e300, u=[0.5, 1e-10, 1e-300],
                      flat_roots=[(0, 0.0), (2, 0.1)])


@example(amplitude=0.5, excess=0.0, sign=1, u=[1.0, 0.3, 1e-300],
         flat_roots=[(0, 0.0), (1, 1e-9), (2, -1e-4)])
@example(amplitude=0.999, excess=1e-12, sign=-1, u=[0.5, 2.0 ** -53],
         flat_roots=[(0, 0.0), (1, 3e-3), (3, -2e-3)])
@example(amplitude=0.9, excess=1e-12, sign=1, u=[], flat_roots=[
    (k, dt) for k in range(4) for dt in (0.0, 1e-6, -1e-6, 1e-3, -1e-3, 0.02)])
@example(amplitude=0.999, excess=1e-3, sign=1, u=[],
         flat_roots=[(1, 0.0011700943139457797)])
@example(amplitude=1e-6, excess=0.0, sign=1, u=[1.0, 1.0 - 2.0 ** -53],
         flat_roots=[])
@example(amplitude=5.672425355875321e-06, excess=0.0, sign=1, u=[1.0],
         flat_roots=[])
@example(amplitude=0.44, excess=0.0204, sign=1, u=[1e-5, 0.7], flat_roots=[])
@example(sign=-1, **FLAT_BEND)
@example(sign=-1, **TINY_AMPLITUDE)
@example(amplitude=0.75, excess=1.19e-7, sign=1, u=[],
         flat_roots=[(k, dt) for k in range(3) for dt in (0.0, 1e-4, -1e-4)])
# 1 Newton step leaves 42 and 13 ulp on these roots
@example(amplitude=0.26218023042630995, excess=2.5855384401799778e-14, sign=1,
         u=[], flat_roots=[(0, -0.00028878841683891793)])
@example(amplitude=0.5097094937595069, excess=8.985498485466016e-11, sign=1,
         u=[], flat_roots=[(1, 0.00031656510406756705)])
@oscillating_cases
def test_oscillating_inverse_residual(amplitude, excess, sign, u, flat_roots):
    alpha, u = oscillating_draws(amplitude, excess, sign, u, flat_roots)
    log_u = np.log(u)
    r = OscillatingTailLaw.inverse_tail(u, alpha, amplitude, float(sign))
    assert np.all(r >= 1.0)
    t = np.log(r)
    g = -alpha * t + np.log1p(sign * amplitude * np.sin(t)) - log_u
    scale = rounding_floor(log_u, alpha, amplitude)
    assert np.all(np.abs(g) <= 4.0 * np.spacing(scale))
    one = OscillatingTailLaw.inverse_tail(np.ones(2), alpha, amplitude,
                                          np.array([1.0, -1.0]))
    assert np.all(one == 1.0)
    # a per-element sign gives each draw what its scalar sign gives it
    signs = np.where(np.arange(u.size) % 2 == 0, 1.0, -1.0)
    mixed = OscillatingTailLaw.inverse_tail(u, alpha, amplitude, signs)
    for s in (1.0, -1.0):
        alone = OscillatingTailLaw.inverse_tail(u, alpha, amplitude, s)
        np.testing.assert_array_equal(mixed[signs == s], alone[signs == s])
    # the in-place kernel computes what its plain expressions compute
    assert_same_bits(r, newton_inverse(u, alpha, amplitude, float(sign)))
    assert_same_bits(mixed, newton_inverse(u, alpha, amplitude, signs))


@example(amplitude=0.5, excess=0.0, sign=1, u=[1.0, 0.3, 1e-300],
         flat_roots=[(0, 0.0), (1, 1e-9), (2, -1e-4)])
@example(amplitude=0.999, excess=1e-12, sign=-1, u=[2.0 ** -53],
         flat_roots=[(0, 0.0), (1, 3e-3), (3, -2e-3)])
@example(sign=1, **FLAT_BEND)
@example(sign=1, **TINY_AMPLITUDE)
@oscillating_cases
def test_oscillating_start_brackets_root(amplitude, excess, sign, u,
                                         flat_roots):
    alpha, u = oscillating_draws(amplitude, excess, sign, u, flat_roots)
    log_u = np.log(u)
    scale = rounding_floor(log_u, alpha, amplitude)
    for s in (float(sign), -float(sign)):
        t, lo, hi = _tabulated_start(log_u, np.full(u.shape, s * amplitude),
                                     alpha, amplitude)
        assert np.all((0.0 <= lo) & (lo <= t) & (t <= hi))
        g_lo, g_hi = (-alpha * x + np.log1p(s * amplitude * np.sin(x)) - log_u
                      for x in (lo, hi))
        assert np.all(g_lo >= -4.0 * np.spacing(scale))
        assert np.all(g_hi <= 4.0 * np.spacing(scale))
    # node j solves P(t_j) = p_c + (k0 + j*dk)^3,
    # P(t) = alpha*t - log1p(a*sin t)
    p0, p_c, k0, dk, cubic, m2, nodes, coefs = _start_table(alpha, amplitude)
    target = p_c + (k0 + np.arange(nodes.size) * dk) ** 3
    f = alpha * nodes - np.log1p(amplitude * np.sin(nodes)) - target
    floor = np.maximum(np.maximum(np.abs(target), alpha * np.abs(nodes)),
                       1.0 / (1.0 - amplitude))
    assert np.all(np.abs(f) <= 4.0 * np.spacing(floor))


# ----------------------------------------------------------------------
# polar independent


def test_polar_independent_exact_tail_product():
    m = uniform_pareto(1.0)
    assert m.exact_tail(2.0, FULL) == pytest.approx(0.5, rel=1e-12)


def test_polar_independent_atom_misses_arc():
    sigma = SpectralMeasure.discrete([0.0], [1.0])
    m = PolarIndependentModel(sigma, 1.0, ParetoLaw(1.0))
    assert m.exact_tail(5.0, ArcSet([(1.0, 2.0)])) == 0.0


def test_polar_independent_quadrant_product():
    centers = [np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4]
    sigma = SpectralMeasure.discrete(centers, [0.25] * 4)
    m = PolarIndependentModel(sigma, 2.0, ParetoLaw(2.0))
    assert m.exact_tail(10.0, ArcSet([(0.0, np.pi / 2)])) == pytest.approx(0.0025)


def test_polar_independent_requires_normalized_sigma():
    with pytest.raises(ValueError):
        PolarIndependentModel(SpectralMeasure.discrete([0.0], [2.0]), 1.0,
                              ParetoLaw(1.0))


def test_polar_independence_rank_correlation():
    m = uniform_pareto(1.0)
    b = m.sample(100_000, 5)
    ranks_theta = np.argsort(np.argsort(b.angles()))
    ranks_norm = np.argsort(np.argsort(b.norms))
    rho = np.corrcoef(ranks_theta, ranks_norm)[0, 1]
    assert abs(rho) < 0.01


def test_polar_independent_d3():
    coords = np.eye(3)
    sigma = SpectralMeasure.discrete_dirs(coords, [0.5, 0.3, 0.2])
    m = PolarIndependentModel(sigma, 1.0, ParetoLaw(1.0))
    b = m.sample(5000, 9)
    assert b.dim == 3
    assert np.all(b.norms >= 1.0)


@given(st.one_of(st.sampled_from([np.nan, np.inf, -np.inf]),
                 st.floats(max_value=0.0)))
def test_non_positive_or_non_finite_parameters_raise(bad):
    for build in (lambda: ParetoLaw(bad),
                  lambda: AtomPlusParetoLaw(bad, 0.5),
                  lambda: OscillatingTailLaw(bad, 0.5),
                  lambda: Example2Model(bad, 0.5, 1.2),
                  lambda: Example2Model(1.0, bad, 1.2),
                  lambda: Example3Model(bad),
                  lambda: reweight(SpectralMeasure.uniform(),
                                   constant_gain(1.0), bad),
                  lambda: expected_gain_reweight(
                      SpectralMeasure.uniform(),
                      exponential_gain_process(np.ones_like), bad),
                  lambda: SpectralMeasure.uniform().scaled(bad),
                  lambda: SpectralMeasure.discrete([0.0], [1.0]).scaled(bad),
                  lambda: power_cusp_gain(1.0, bad)):
        # a RegvarError for the library, still a ValueError for callers
        with pytest.raises(RegvarError) as info:
            build()
        assert isinstance(info.value, ValueError)


# ----------------------------------------------------------------------
# sample determinism


@pytest.mark.parametrize("maker", [
    lambda: uniform_pareto(1.0),
    lambda: Example1Model(1.0, 0.5),
    lambda: Example2Model(1.0, 0.5, 1.2),
    lambda: Example3Model(1.0),
])
def test_same_seed_same_batch_any_workers(maker):
    m = maker()
    a = m.sample(150_000, 4, workers=1)
    b = m.sample(150_000, 4, workers=4)
    np.testing.assert_array_equal(a.points, b.points)
    c = m.sample(150_000, 4, workers=1)
    np.testing.assert_array_equal(a.points, c.points)


@pytest.mark.parametrize("n", [65_535, 65_536, 65_537, 131_073])
@pytest.mark.parametrize("maker", [
    lambda: Example1Model(1.0, 0.5),
    lambda: PolarIndependentModel(SpectralMeasure.cosine_bump(0.5), 0.6,
                                  OscillatingTailLaw(0.6, 0.5, -1)),
], ids=["example1", "oscillating-polar"])
def test_oscillating_samples_identical_across_workers(maker, n):
    # n on both sides of the 65 536-point chunk and past two chunks
    model = maker()
    want = model.sample(n, 7, workers=1)
    for workers in (2, 3, 4):
        got = model.sample(n, 7, workers=workers)
        for name in ("points", "norms", "dirs"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("maker, n", [
    (lambda: uniform_pareto(0.01), 20_000),
    (lambda: Example2Model(0.01, 0.5, 101), 200_000),
    (lambda: PolarIndependentModel(SpectralMeasure.uniform(), 0.01,
                                   AtomPlusParetoLaw(0.01, 0.5)), 200_000),
    (lambda: Example1Model(0.01, 0.005), 200_000),
], ids=["pareto", "example2", "atom-plus-pareto", "example1"])
def test_overflowing_draws_raise(maker, n, workers):
    # at alpha = 0.01 some draws overflow to an infinite norm (and example1
    # to a NaN coordinate); tier-1 turns any leaked RuntimeWarning into an
    # error, so this also checks that the overflow stays silent
    with pytest.raises(NonFiniteInput):
        maker().sample(n, 1, workers=workers)


@pytest.mark.parametrize("workers", [0, -3])
def test_sample_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError):
        uniform_pareto(1.0).sample(10, 0, workers=workers)


# ----------------------------------------------------------------------
# exact tails vs frequencies, all models


@pytest.mark.parametrize("maker,probes", [
    (lambda: uniform_pareto(1.0),
     [(2.0, FULL), (5.0, ArcSet([(0.0, np.pi)]))]),
    (lambda: Example1Model(1.0, 0.5),
     [(2.0, FULL), (3.0, ArcSet([(0.0, 0.4)])), (2.5, ArcSet([(5.0, TWO_PI)]))]),
    (lambda: Example2Model(1.0, 0.5, 1.2),
     [(2.0, FULL), (3.0, ArcSet([(1.0, 3.0)])), (1.5, ArcSet([(3.0, TWO_PI)]))]),
    # example3 probes sit at r >= 6, where the x-coordinate tail convention
    # differs from true norms by O(2^-2r / r^2), far below the binomial band
    (lambda: Example3Model(1.0),
     [(8.0, FULL), (6.0, ArcSet([(0.0, 0.1)])),
      (8.0, ArcSet([(2e-4, 1.0)]))]),
])
def test_exceedance_frequency_matches_exact_tail(maker, probes):
    model = maker()
    n = 1_000_000
    batch = model.sample(n, 123)
    angles = batch.angles()
    for r, arcs in probes:
        p = model.exact_tail(r, arcs)
        freq = np.count_nonzero(arcs.contains(angles) & (batch.norms > r)) / n
        band = 4.0 * np.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(freq - p) <= band, (r, arcs.arcs, freq, p)


# ----------------------------------------------------------------------
# oscillating mixture model


def test_example1_mixture_tail_exactly_pareto():
    m = Example1Model(1.0, 0.5)
    for r in np.geomspace(1.0, 500.0, 37):
        assert r * m.exact_tail(r, FULL) == pytest.approx(1.0, abs=1e-12)


def test_example1_side_tail_at_peak():
    m = Example1Model(1.0, 0.5)
    r = np.exp(np.pi / 2)  # sin(ln r) = 1
    assert r * m.side_law(+1).tail(r) == pytest.approx(1.5, abs=1e-12)
    assert r * m.side_law(-1).tail(r) == pytest.approx(0.5, abs=1e-12)


def test_example1_side_oscillation_band():
    m = Example1Model(1.0, 0.5)
    r = np.exp(np.linspace(0.0, TWO_PI, 1000))
    vals = r * m.side_law(+1).tail(r)
    assert np.max(vals) <= 1.5 + 1e-12
    assert np.min(vals) >= 0.5 - 1e-12


def test_example1_spectral_atom_only_at_zero():
    m = Example1Model(1.0, 0.5)
    arc = ArcSet([(np.pi / 4, np.pi)])
    # angles 1/n < pi/4 once n >= 2, so only ray 1 (angle 1.0) meets the
    # arc; its mass lives at norms in [1, 2) and is gone once r >= 2
    assert m.exact_tail(1.5, arc) > 0.0
    for r in (2.0, 2.5, 100.0):
        assert m.exact_tail(r, arc) == 0.0
    assert m.spectral.n_atoms == 1 and m.spectral.angles[0] == 0.0


def test_example1_amplitude_guard():
    with pytest.raises(InvalidConstruction):
        Example1Model(0.3, 0.9)


def test_example1_ray_geometry():
    m = Example1Model(1.0, 0.5)
    b = m.sample(50_000, 21)
    ang = b.angles()
    plus = ang < np.pi
    ray = np.maximum(1.0, np.floor(b.norms))
    np.testing.assert_allclose(ang[plus], 1.0 / ray[plus], atol=0)
    np.testing.assert_allclose(ang[~plus], TWO_PI - 1.0 / ray[~plus], atol=0)


# ----------------------------------------------------------------------
# accumulating atoms


def test_example2_k_law():
    m = Example2Model(1.0, 0.5, 1.2)
    b = m.sample(400_000, 17)
    # P{K = 1} = 1/2: the first atom sits at angle 0
    frac = np.mean(b.angles() == 0.0)
    assert frac == pytest.approx(0.5, abs=0.004)


def test_example2_normalized_tail_constant_in_r():
    m = Example2Model(1.0, 0.5, 1.2)
    vals = [r * m.exact_tail(r, FULL) for r in np.geomspace(1.5, 1e5, 23)]
    assert max(vals) - min(vals) <= 1e-9
    assert vals[0] == pytest.approx(m.spectral.total_mass, rel=1e-12)


def test_example2_sigma_total_bracketed_by_brute_force():
    # oracle: explicit series to 1e7 plus an analytic remainder bound
    m = Example2Model(1.0, 0.5, 1.2)
    k = np.arange(1, 10_000_000, dtype=float)
    partial = float(np.sum(k ** -0.5 / (k * (k + 1))))
    remainder_bound = (1e7) ** -0.5 / 1e7  # < sum_{k>K} k^-nu q_k < K^-nu / K
    # the spectral measure's total mass is the normalized tail at r = 1
    total = m.spectral.total_mass
    assert m.exact_tail(1.0, FULL) == pytest.approx(total, rel=1e-15)
    assert partial < total < partial + 2 * remainder_bound
    assert total == pytest.approx(0.7523502694643, abs=1e-9)


def test_example2_arc_masses_match_atom_series():
    m = Example2Model(1.0, 0.5, 1.2)
    # arc holding exactly atoms k = 2 and 3: b_2 = pi/2, b_3 = 3pi/4
    arc = ArcSet([(np.pi / 2, np.pi - np.pi / 8)])
    expect = (2.0 ** -0.5 / 6.0 + 3.0 ** -0.5 / 12.0)
    assert 2.0 * m.exact_tail(2.0, arc) == pytest.approx(expect, rel=1e-12)


def test_example2_parameter_constraint():
    with pytest.raises(InvalidConstruction):
        Example2Model(1.0, 0.5, 2.0)  # beta >= (1 + nu) / alpha
    with pytest.raises(InvalidConstruction):
        Example2Model(1.0, 0.5, 0.9)  # beta <= 1 / alpha


def test_example2_gain_window_values():
    g = Example2Gain(1.2)
    assert g.at_angles(np.array([np.pi - np.pi / 2]))[0] == pytest.approx(2 ** 1.2)
    assert g.at_angles(np.array([np.pi - np.pi / 4]))[0] == pytest.approx(3 ** 1.2)
    assert g.at_angles(np.array([np.pi - 1e-9]))[0] == 0.0
    assert g.at_angles(np.array([0.0]))[0] == 1.0
    assert g.at_angles(np.array([7 * np.pi / 4]))[0] == 0.0  # open endpoint
    assert g.at_angles(np.array([np.pi / 4]))[0] == 0.0      # open endpoint
    assert g.at_angles(np.array([4.0]))[0] == 0.0            # lower half circle


def test_example2_gain_matches_sampled_atoms():
    # on every atom angle the gain equals k^beta (within the float-pi block)
    g = Example2Gain(1.2)
    k = np.arange(1, 30, dtype=float)
    b_k = np.pi - np.pi * np.exp2(1.0 - k)
    np.testing.assert_allclose(g.at_angles(b_k), k ** 1.2, rtol=1e-12)


def test_example2_tail_after_gain_bound_and_growth():
    m = Example2Model(1.0, 0.5, 1.2)
    gain = Example2Gain(1.2)
    vals = [r * m.gained_tail(r, FULL, gain) for r in (10., 100., 1000.)]
    assert vals[0] < vals[1] < vals[2]
    for r, v in zip((10., 100., 1000.), vals):
        assert v >= r / (r ** (1 / 1.2) + 1.0)
    assert vals[2] >= 1000.0 / (1000.0 ** (1 / 1.2) + 1.0)
    assert 1000.0 / (1000.0 ** (1 / 1.2) + 1.0) == pytest.approx(3.152, abs=5e-4)


def test_example2_tail_after_gain_brute_force_oracle():
    # oracle: direct summation of q_k * tail_k(r / k^beta) to 10^6 terms;
    # beyond that every term is the full atom mass q_k, telescoping to 1/K
    alpha, nu, beta, r = 1.0, 0.5, 1.2, 250.0
    big = 1_000_000
    k = np.arange(1, big, dtype=float)
    x = r / k ** beta
    tail_k = np.where(x < 1.0, 1.0, k ** -nu * np.maximum(x, 1.0) ** -alpha)
    brute = float(np.sum(tail_k / (k * (k + 1)))) + 1.0 / big
    assert Example2Model(alpha, nu, beta).gained_tail(
        r, FULL, Example2Gain(beta)) == pytest.approx(brute, rel=1e-9)


_BIG = 1_000_000
_K = np.arange(1, _BIG, dtype=float)
_Q = 1.0 / (_K * (_K + 1.0))
# atom k sits at pi - pi / 2^(k-1); from k = 55 on that rounds to pi
_ATOM_ANGLES = np.pi - np.pi * np.exp2(1.0 - _K)
_ENDPOINTS = st.one_of(
    st.floats(0.0, TWO_PI),
    st.integers(1, 60).map(lambda j: float(np.pi - np.pi * 2.0 ** (1 - j))),
    st.sampled_from([0.0, np.pi, TWO_PI]))


@st.composite
def atom_arcs(draw):
    """Unions of arcs whose ends are random angles, atom angles or pi."""
    ends = sorted(set(draw(st.lists(_ENDPOINTS, min_size=2, max_size=6))))
    assume(len(ends) >= 2)
    pairs = list(zip(ends[::2], ends[1::2]))
    return ArcSet([(a, b) for a, b in pairs if a < b])


def _direct_tail_sum(alpha, nu, b, r, member, holds_pi):
    """P{direction in B, k^b R_k > r} summed over the atoms k < 10^6 that
    member marks in B, plus, when B holds pi, the atoms beyond. For b > 0
    the draws keep r below (10^6)^b, so those are whole atom masses and
    telescope to 1 / 10^6; so they do for b = 0 and r < 1. For b = 0 and
    r >= 1 they add r^-alpha times the integral of k^(-nu - 2) from 10^6 on.
    """
    s = alpha * b - nu
    sure = r < (_K ** b if b else 1.0)
    tail = np.where(sure, 1.0, _K ** s * r ** -alpha)
    total = float(np.sum((tail * _Q)[member]))
    if holds_pi:
        if r < _BIG ** b:
            total += 1.0 / _BIG
        else:
            total += _BIG ** (s - 1.0) / (1.0 - s) * r ** -alpha
    return total


# a direct sum costs about 20 ms: 30 draws keep the property near 1 s
@settings(max_examples=30)
@given(st.sampled_from([(1.0, 0.5, 1.2), (2.0, 1.0, 0.8)]),
       st.floats(np.log(0.05), np.log(1e4)).map(np.exp), atom_arcs())
@example((1.0, 0.5, 1.2), 1.0, FULL)
@example((1.0, 0.5, 1.2), 0.5, ArcSet([(3.0, TWO_PI)]))
@example((1.0, 0.5, 1.2), 122.0, ArcSet([(np.pi, TWO_PI)]))
@example((1.0, 0.5, 1.2), 124.0, ArcSet([(0.0, np.pi), (np.pi, 4.0)]))
@example((1.0, 0.5, 1.2), 1e6, FULL)
def test_example2_tail_series_matches_direct_sum(params, r, arcs):
    # before the gain (b = 0) and after it (b = beta), on both sides of
    # r = 1 and of r = 55^beta, from where atoms at the float pi count
    # through their Pareto branch; at r = 1e6 atoms 55 to 99 999 do
    alpha, nu, beta = params
    m = Example2Model(alpha, nu, beta)
    member, holds_pi = arcs.contains(_ATOM_ANGLES), arcs.contains(np.pi)
    for b, got in ((0.0, m.exact_tail(r, arcs)),
                   (beta, m.gained_tail(r, arcs, Example2Gain(beta)))):
        want = _direct_tail_sum(alpha, nu, b, r, member, holds_pi)
        assert abs(got - want) <= 1e-9 * want, (b, got, want)


def test_example2_gained_tail_below_one_is_full_atom_mass():
    # at r <= 1 every scaled norm k^beta R_k >= 1 exceeds r, and r^-alpha
    # would overflow at r = 1e-300
    m = Example2Model(1.0, 0.5, 1.2)
    gain = Example2Gain(1.2)
    # atoms 2 and 3 (q = 1/6, 1/12), and atom 1 with all atoms from 55 on
    pairs = [(ArcSet([(np.pi / 2, np.pi - np.pi / 8)]), 0.25),
             (ArcSet([(0.0, 0.1), (np.pi, TWO_PI)]), 0.5 + 1.0 / 55)]
    for arcs, mass in pairs:
        for r in (1e-300, 0.3, 1.0):
            assert m.gained_tail(r, arcs, gain) == pytest.approx(mass, rel=1e-15)


def test_example2_moment_series():
    val = example2_moment(1.0, 0.5, 1.2, 0.05)
    assert np.isfinite(val)
    # oracle bracket: explicit head plus integral bounds on the k^(-1.24)
    # remainder (the series decays too slowly for truncation alone)
    s = 1.05 * 1.2 - 0.5
    big = 3_000_000
    k = np.arange(1, big, dtype=float)
    partial = float(np.sum(k ** s / (k * (k + 1))))
    upper = big ** (s - 1.0) / (1.0 - s)            # integral from big
    lower = (big + 1.0) ** (s - 1.0) / (1.0 - s) / (1.0 + 1.0 / big)
    assert partial + lower < val < partial + upper
    with pytest.raises(MomentDivergence):
        example2_moment(1.0, 0.5, 1.2, 0.3)  # exponent reaches 1


# ----------------------------------------------------------------------
# staircase graph


def test_staircase_values():
    assert staircase(0.5) == 1.0
    assert staircase(1.0) == 1.0
    assert staircase(1.5) == 0.5
    assert staircase(2.0) == 0.5
    assert staircase(4.7) == 2.0 ** -4


def test_example3_graph_angles_shrink():
    m = Example3Model(1.0)
    b = m.sample(100_000, 31)
    graph = b.points[1] > 0
    far = graph & (b.points[0] > 4.0)
    assert np.all(b.angles()[far] < 2.0 ** -4 / 4.0)


def test_example3_exact_tail_identities():
    m = Example3Model(1.0)
    a = 0.1  # k_a = 4: first k with 2^-k <= 0.1
    for r in (4.5, 6.0, 11.0):
        assert m.exact_tail(r, ArcSet([(a, TWO_PI)])) == 0.0
        assert r * m.exact_tail(r, ArcSet([(0.0, a)])) == pytest.approx(1.0,
                                                                        abs=1e-12)


def test_example3_wedge_split_oracle():
    # brute-force the in-between arc [0.02, 0.1) where a few steps still land
    m = Example3Model(1.0)
    arcs = ArcSet([(0.02, 0.1)])
    r = 3.0
    n = 2_000_000
    b = m.sample(n, 77)
    freq = np.count_nonzero(arcs.contains(b.angles()) & (b.norms > r)) / n
    p = m.exact_tail(r, arcs)
    assert abs(freq - p) <= 4 * np.sqrt(p * (1 - p) / n)


def test_example3_axis_mass_is_half():
    m = Example3Model(1.0)
    b = m.sample(200_000, 13)
    assert np.mean(b.points[1] == 0.0) == pytest.approx(0.5, abs=0.005)


def test_example3_x_coordinate_convention():
    # exact_tail follows the x coordinate; at small r the true norm of a
    # graph point exceeds x by up to g^2/(2x), so norm-based exceedance
    # frequencies sit measurably above the formula while x-based ones match
    m = Example3Model(1.0)
    n = 1_000_000
    b = m.sample(n, 123)
    r = 2.0
    p = m.exact_tail(r, FULL)
    freq_x = np.count_nonzero(b.points[0] > r) / n
    assert abs(freq_x - p) <= 4 * np.sqrt(p * (1 - p) / n)
    freq_norm = np.count_nonzero(b.norms > r) / n
    # graph points with x in (sqrt(r^2 - 1/4), r] have norm > r but x <= r
    excess = 0.5 * (1.0 / np.sqrt(r * r - 0.25) - 1.0 / r)
    assert freq_norm - freq_x == pytest.approx(excess, abs=4e-3)
