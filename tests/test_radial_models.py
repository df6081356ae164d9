import hashlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from regvar import specs
from regvar.errors import (
    InvalidConstruction,
    InvalidParameter,
    MomentDivergence,
    NonFiniteInput,
    RegvarError,
)
from regvar.estimation import tail_scan
from regvar.measures import (
    SpectralMeasure,
    constant_gain,
    expected_gain_reweight,
    exponential_gain_process,
    indicator_gain,
    power_cusp_gain,
    reweight,
    step_gain,
)
from regvar.models import (
    _K_FLOAT_PI,
    _MINUS_RAY_AT_ZERO,
    _NEAR_RAYS,
    Example1Model,
    Example2Gain,
    Example2Model,
    Example3Model,
    PolarIndependentModel,
    _atom_angle,
    example2_moment,
    staircase,
)
from regvar.radial import (
    AtomPlusParetoLaw,
    OscillatingTailLaw,
    ParetoLaw,
)
from regvar.rng import CHUNK
from regvar.sphere import TWO_PI, ArcSet, angles_of, directions_of
from regvar.transforms import TransformedModel

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
    assert law.tail(1.0) == 0.25
    assert law.tail(0.99) == 1.0
    rng = np.random.default_rng(3)
    x = law.sample(rng, 200_000)
    assert np.mean(x == 1.0) == pytest.approx(0.75, abs=0.004)
    assert np.mean(x > 2.0) == pytest.approx(0.125, abs=0.004)


def at_bound(amplitude):
    """The least alpha that keeps the oscillating tail monotone."""
    return amplitude / np.sqrt(1.0 - amplitude ** 2)


# at alpha = at_bound(0.5) the density touches 0 once per period of ln r
@pytest.mark.parametrize("sign", [+1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("alpha", [1.0, at_bound(0.5)], ids=["alpha1", "bound"])
def test_oscillating_samples_match_tail(alpha, sign):
    law = OscillatingTailLaw(alpha, 0.5, sign)
    rng = np.random.default_rng(11)
    x = law.sample(rng, 1_000_000)
    for r in (1.5, 3.0, 10.0, 50.0):
        p = law.tail(r)
        se = np.sqrt(p * (1 - p) / x.size)
        assert abs(np.mean(x > r) - p) <= 4 * se


@pytest.mark.parametrize("amplitude", [0.0, 1.0, 1.5, -0.5, float("nan")])
def test_oscillating_law_refuses_a_bad_amplitude(amplitude):
    with pytest.raises(InvalidParameter, match="amplitude"):
        OscillatingTailLaw(1.0, amplitude, +1)


@pytest.mark.parametrize("sign", [True, False, 0, 2])
def test_oscillating_law_refuses_a_bad_sign(sign):
    # a bool is no sign, though True == 1
    with pytest.raises(InvalidParameter, match="sign"):
        OscillatingTailLaw(1.0, 0.5, sign)


def test_oscillating_monotonicity_guard():
    # a / sqrt(1 - a^2) = 2.06 > alpha = 0.3
    with pytest.raises(InvalidConstruction):
        OscillatingTailLaw(0.3, 0.9, +1)


def test_oscillating_monotonicity_bound_is_exact():
    a = 0.5
    bound = at_bound(a)
    OscillatingTailLaw(bound, a)
    with pytest.raises(InvalidConstruction):
        OscillatingTailLaw(np.nextafter(bound, 0.0), a)


# excess of alpha over the monotonicity bound, as a fraction of the bound;
# at the bound g' vanishes at t_c, one point per period, and roots there
# and near it are the hardest: flat_roots places roots at t_c + 2*pi*k + dt.
# The excess is 0 or log-uniform over 1e-12 to 1e4, so the band 1e-10 to
# 1e-5, where the tail is flattest short of the bound, gets a third of the
# draws.
oscillating_laws = dict(
    amplitude=st.floats(1e-6, 1.0 - 1e-6),
    excess=st.just(0.0) | st.floats(-12.0, 4.0).map(lambda e: 10.0 ** e),
    sign=st.sampled_from([1, -1]))
oscillating_cases = given(
    **oscillating_laws,
    u=st.lists(st.floats(1e-300, 1.0), max_size=30),
    flat_roots=st.lists(st.tuples(st.integers(0, 5), st.floats(-0.3, 0.3)),
                        max_size=10))


def oscillating_alpha(amplitude, excess):
    """alpha at the given excess over the bound, when a law accepts it."""
    alpha = at_bound(amplitude) * (1.0 + excess)
    try:
        OscillatingTailLaw(alpha, amplitude)
    except InvalidConstruction:
        assume(False)
    return alpha


def oscillating_draws(amplitude, excess, sign, u, flat_roots):
    """alpha and the draws of one case: u and the levels whose roots are
    flat_roots, less those whose r overflows a double."""
    alpha = oscillating_alpha(amplitude, excess)
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


# alpha 7e-8 above the bound: g' nearly vanishes within about 1e-3 of t_c
FLAT_BEND = dict(amplitude=0.9192624410479694, excess=7.063215187339642e-08,
                 u=[0.0015374158209757519], flat_roots=[
                     (k, dt) for k in range(3)
                     for dt in (0.0, 1e-6, -1e-6, 1e-4, -1e-4, 1e-3, -1e-3)])

# alpha = 1 with an amplitude far below the spacing of doubles at 1
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
# roots within 3e-4 of a flat point, alpha just above the bound
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
    if u.size:
        assert OscillatingTailLaw.inverse_tail(u[0], alpha, amplitude,
                                               sign) == r[0]


@example(amplitude=0.5, excess=0.0, sign=-1)
@example(amplitude=1.0 - 1e-6, excess=0.0, sign=1)
@example(amplitude=1e-6, excess=0.0, sign=1)
@given(**oscillating_laws)
def test_oscillating_density_ratio_envelope(amplitude, excess, sign):
    # 0 <= 1 + sign*m(r) <= bound <= 2, the last the monotonicity check;
    # at excess 0 the ratio touches 0 (and Example 1's plus side
    # probability touches 0 and 1) once per period of ln r
    alpha = oscillating_alpha(amplitude, excess)
    law = OscillatingTailLaw(alpha, amplitude, sign)
    bound = 1.0 + amplitude * np.sqrt(1.0 + alpha ** -2)
    ulp = np.spacing(2.0)
    assert bound <= 2.0 + 4.0 * ulp
    r = np.geomspace(1.0, 1e300, 20_000)
    ratio = law.density_ratio(r)
    assert np.all((ratio >= -4.0 * ulp) & (ratio <= bound + 4.0 * ulp))
    model = Example1Model(alpha, amplitude)
    plus = model.plus_law.density_ratio(r) / 2.0
    assert np.all((plus >= -4.0 * ulp) & (plus <= 1.0 + 4.0 * ulp))
    minus = model.minus_law.density_ratio(r) / 2.0
    assert np.all(np.abs(plus + minus - 1.0) <= 4.0 * ulp)


def two_trig_ratio(law, r):
    """OscillatingTailLaw.density_ratio in its sine-and-cosine form,
    1 + s*a*(sin(ln r) - cos(ln r)/alpha): the reference for the one-sine
    form."""
    with np.errstate(invalid="ignore"):
        t = np.log(r)
        m = np.sin(t) - np.cos(t) / law.alpha
    return 1.0 + law.sign * law.amplitude * m


@example(amplitude=0.5, excess=0.0, sign=-1)
@example(amplitude=1.0 - 1e-6, excess=0.0, sign=1)
@example(amplitude=1e-6, excess=0.0, sign=-1)
@example(amplitude=0.5, excess=1e4, sign=1)
@given(**oscillating_laws)
def test_oscillating_density_ratio_is_the_two_trig_form_to_rounding(
        amplitude, excess, sign):
    alpha = oscillating_alpha(amplitude, excess)
    law = OscillatingTailLaw(alpha, amplitude, sign)
    r = np.concatenate([np.geomspace(1.0, 1e300, 20_000),
                        np.exp(np.random.default_rng(1).uniform(0.0, 709.0, 20_000))])
    gap = np.abs(law.density_ratio(r) - two_trig_ratio(law, r))
    assert np.all(gap <= 1e-15 * (1.0 + np.log(r)))
    assert np.isnan(law.density_ratio(np.array([np.inf]))[0])


@pytest.mark.parametrize("sign", [+1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("alpha", [1.0, at_bound(0.5)], ids=["alpha1", "bound"])
def test_oscillating_sample_matches_a_two_trig_sampler(alpha, sign, monkeypatch):
    law = OscillatingTailLaw(alpha, 0.5, sign)
    drawn = [law.sample(np.random.default_rng(seed), 20_000) for seed in range(10)]
    monkeypatch.setattr(OscillatingTailLaw, "density_ratio", two_trig_ratio)
    for seed, got in enumerate(drawn):
        want = law.sample(np.random.default_rng(seed), 20_000)
        assert got.tobytes() == want.tobytes()


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
    ranks_theta = np.argsort(np.argsort(angles_of(b.dirs)))
    ranks_norm = np.argsort(np.argsort(b.norms))
    rho = np.corrcoef(ranks_theta, ranks_norm)[0, 1]
    assert abs(rho) < 0.01


@pytest.mark.parametrize("sigma", [
    SpectralMeasure.cosine_bump(0.5),
    SpectralMeasure.discrete([0.3, 4.0], [0.4, 0.6]),
], ids=["density", "atoms"])
def test_polar_gained_tail_at_a_subnormal_gain_is_silent(sigma):
    # r / h overflows to inf where h = 5e-324, and the tail there is 0;
    # tier-1 turns a leaked overflow warning into an error
    m = PolarIndependentModel(sigma, 1.0, ParetoLaw(1.0))
    gain = step_gain([0.0, 3.0], [1.0, 5e-324])
    tail = m.gained_tail(2.0, FULL, gain)
    want = m.gained_tail(2.0, FULL, step_gain([0.0, 3.0], [1.0, 0.0]))
    assert tail == pytest.approx(want, rel=1e-12)
    assert tail == pytest.approx(0.5 * sigma.mass_on(ArcSet([(0.0, 3.0)])),
                                 rel=1e-9)


def test_polar_independent_d3():
    coords = np.eye(3)
    sigma = SpectralMeasure.discrete(coords, [0.5, 0.3, 0.2])
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
    (lambda: PolarIndependentModel(SpectralMeasure.uniform(), 0.01,
                                   OscillatingTailLaw(0.01, 0.005)), 200_000),
], ids=["pareto", "example2", "atom-plus-pareto", "example1", "oscillating"])
def test_overflowing_draws_raise(maker, n, workers):
    # at alpha = 0.01 some draws overflow to an infinite norm; tier-1 turns
    # any leaked RuntimeWarning into an error, so this also checks that the
    # overflow stays silent. A thinned draw's NaN density ratio at an
    # infinite proposal must keep the draw, not drop it
    with pytest.raises(NonFiniteInput):
        maker().sample(n, 1, workers=workers)


# a spec of every model kind; polar_independent with atoms in d = 2 and 3
# and with a density
EVERY_MODEL_KIND = [
    {"kind": "polar_independent",
     "sigma": {"kind": "discrete", "atoms": [{"angle": 0.3, "weight": 0.4},
                                             {"angle": 4.0, "weight": 0.6}]},
     "radial": {"kind": "pareto", "alpha": 1.5}},
    {"kind": "polar_independent",
     "sigma": {"kind": "empirical", "dim": 3,
               "atoms": [{"coords": [0.0, 0.0, 1.0], "weight": 0.5},
                         {"coords": [0.6, 0.8, 0.0], "weight": 0.5}]},
     "radial": {"kind": "atom_plus_pareto", "alpha": 1.0, "tail_coefficient": 0.5}},
    {"kind": "polar_independent",
     "sigma": {"kind": "density", "density": {"name": "cosine_bump", "amplitude": 0.5}},
     "radial": {"kind": "oscillating", "alpha": 1.0, "amplitude": 0.5}},
    {"kind": "example1", "alpha": 1.0},
    {"kind": "example2", "alpha": 1.0, "nu": 0.5, "beta": 1.2},
    {"kind": "example3", "alpha": 1.0},
]


def test_layout_guard_lists_every_model_kind():
    assert {spec["kind"] for spec in EVERY_MODEL_KIND} == set(specs._KINDS["model"])


# every model kind, and the gained samplers: example2 and example3 under
# their gains, and atoms whose gain is zero drop out of a chunk drawn by
# columns
EVERY_SAMPLER = [
    *(lambda spec=spec: specs.model_from_spec(spec) for spec in EVERY_MODEL_KIND),
    lambda: TransformedModel(Example2Model(1.0, 0.5, 1.2), Example2Gain(1.2)),
    lambda: TransformedModel(Example3Model(1.0), indicator_gain(ArcSet([(0.0, 0.05)]))),
    lambda: TransformedModel(specs.model_from_spec(EVERY_MODEL_KIND[0]),
                             step_gain([0.0, 3.0], [2.0, 0.0])),
]
SAMPLER_IDS = [spec["kind"] for spec in EVERY_MODEL_KIND] \
    + ["example2-gain", "example3-gain", "discrete-polar-gain"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("maker", EVERY_SAMPLER, ids=SAMPLER_IDS)
def test_layout_guard_every_chunk_is_c_ordered(maker, workers):
    # a chunk keeps an F-ordered (d, n) dirs as it is given, and its points
    # would then be copied into C order on every read; the sample's
    # computed points are checked too
    model = maker()
    for batch in (*model.chunks(2 * CHUNK + 7, 3, workers),
                  model.sample(2 * CHUNK + 7, 3, workers)):
        for name in ("points", "norms", "dirs"):
            assert getattr(batch, name).flags.c_contiguous, name
        assert not batch.points.flags.writeable


@settings(max_examples=4, deadline=None)
@example(n=2 * CHUNK + 7, seed=3)
@given(n=st.integers(0, 2 * CHUNK + 7), seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("maker", EVERY_SAMPLER, ids=SAMPLER_IDS)
def test_sample_points_are_the_chunks_points(maker, workers, n, seed):
    # a batch stores points exactly when it was built from them (example3's
    # chunks alone; with no chunk, sample builds none); elsewhere they are
    # dirs * norms, formed on read
    model = maker()
    chunks = list(model.chunks(n, seed, workers))
    batch = model.sample(n, seed, workers)
    points = batch.points
    want = np.concatenate([c.points for c in chunks], axis=1) if chunks \
        else np.empty((model.dim, 0))
    assert points.tobytes() == want.tobytes() and points.shape == want.shape
    assert points.flags.c_contiguous and not points.flags.writeable
    assert all(c.holds_points == isinstance(model, Example3Model) for c in chunks)
    assert batch.holds_points == (bool(chunks) and isinstance(model, Example3Model))
    if not batch.holds_points:
        assert points.tobytes() == (batch.dirs * batch.norms).tobytes()


# sha256 of points, norms and dirs of sample(CHUNK + 5, 11), as recorded
# before these models drew (norms, column) pairs (numpy 2.4.6, x86-64)
ATOMIC_DIGESTS = [
    (lambda: Example2Model(1.0, 0.5, 1.2),
     "90bc2d419381a2846bcf8ac6a1457e1fa200085936b8e09c680cbdb10c037b5c"),
    (lambda: PolarIndependentModel(
        SpectralMeasure.discrete([0.3, 2.0, 4.0], [0.2, 0.3, 0.5]), 1.5, ParetoLaw(1.5)),
     "99309e8966e91acf727d516274875e22488a299158ec6ae1ed6ed51b8028d39f"),
    (lambda: PolarIndependentModel(
        SpectralMeasure.discrete(np.array([[0.0, 0.6, 1.0], [0.0, 0.8, 0.0],
                                           [1.0, 0.0, 0.0]]), [0.5, 0.25, 0.25]),
        1.0, AtomPlusParetoLaw(1.0, 0.5)),
     "94782a5cfa771408c2835b393333a15cf7dd2c2cf68369e0a1a765965743add9"),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("maker, want", ATOMIC_DIGESTS,
                         ids=["example2", "discrete-d2", "discrete-d3"])
def test_atomic_models_keep_their_sample_bits(maker, want, workers):
    model = maker()
    assert not model.atom_dirs.flags.writeable
    batch = model.sample(CHUNK + 5, 11, workers)
    digest = hashlib.sha256()
    for array in (batch.points, batch.norms, batch.dirs):
        digest.update(array.tobytes())
    assert digest.hexdigest() == want


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
    angles = angles_of(batch.dirs)
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
    ang = angles_of(b.dirs)
    plus = ang < np.pi
    ray = np.maximum(1.0, np.floor(b.norms))
    np.testing.assert_allclose(ang[plus], 1.0 / ray[plus], atol=0)
    np.testing.assert_allclose(ang[~plus], TWO_PI - 1.0 / ray[~plus], atol=0)


def plain_example1_chunk(model, rng, m):
    """Example1Model's chunk drawn plainly, as (norms, dirs, plus, ray): one
    cos and sin per point, at angle 1/ray or 2 pi - 1/ray, and the
    two-trig density ratio."""
    radii = ParetoLaw(model.alpha).sample(rng, m)
    plus = 2.0 * rng.random(m) < two_trig_ratio(model.plus_law, radii)
    ray = np.maximum(1.0, np.floor(radii))
    theta = np.where(plus, 1.0 / ray, TWO_PI - 1.0 / ray)
    return radii, directions_of(theta), plus, ray


@pytest.mark.parametrize("alpha, amplitude", [(1.0, 0.5), (0.3, 0.2)])
def test_example1_chunks_match_a_plain_two_trig_sampler(alpha, amplitude):
    model = Example1Model(alpha, amplitude)
    kinds = set()
    for seed in range(10):
        got = model._sample_chunk(np.random.default_rng(seed), CHUNK)
        norms, dirs, plus, ray = plain_example1_chunk(
            model, np.random.default_rng(seed), CHUNK)
        assert got.norms.tobytes() == norms.tobytes()
        assert got.dirs.tobytes() == dirs.tobytes()
        kinds |= set(zip(plus.tolist(), (ray > _NEAR_RAYS).tolist()))
    # rays from the table and beyond it, on both sides
    assert kinds == {(True, False), (True, True), (False, False), (False, True)}


def enumerated_side_tail(model, r, arcs, sign):
    """The ray-by-ray sum the closed form telescopes: every ray up to just
    past the arc end nearest the accumulation point, tested one by one,
    then the rest of the run for an arc that touches the point. Minus-side
    rays from _MINUS_RAY_AT_ZERO on sit at angle 0, not below 2 pi."""
    law = model.side_law(sign)
    ends = arcs.endpoints()
    gaps = [e for e in ends if e > 0.0] + [TWO_PI - e for e in ends if e < TWO_PI]
    n_max = int(max(64.0, np.ceil(1.0 / min(gaps, default=1.0)) + 1))
    n = np.arange(1, n_max + 1, dtype=float)
    member = arcs.contains(1.0 / n if sign > 0 else TWO_PI - 1.0 / n)
    mass = np.maximum(0.0, law.tail(np.maximum(r, n)) - law.tail(n + 1.0))
    total = float(np.sum(mass[member]))
    touching = [a == 0.0 if sign > 0 else b == TWO_PI for a, b in arcs.arcs]
    if any(touching):
        total += float(law.tail(max(r, n_max + 1.0)))
    if sign < 0:
        at_zero = float(law.tail(max(r, _MINUS_RAY_AT_ZERO)))
        total += at_zero * (arcs.contains(0.0) - any(touching))
    return total


# arc ends at least 1e-5 from 0 and 2 pi, often exactly on a ray
arc_ends = st.one_of(
    st.integers(1, 100_000).map(lambda k: 1.0 / k),
    st.integers(1, 100_000).map(lambda k: TWO_PI - 1.0 / k),
    st.floats(1e-5, TWO_PI - 1e-5),
)


@settings(max_examples=100)
@given(st.lists(arc_ends, min_size=2, max_size=6, unique=True),
       st.booleans(), st.booleans(), st.floats(0.5, 1e7),
       st.sampled_from([0.5, 1.0, 2.0]))
# ends on a ray whose estimate from the reciprocal is one step off
@example([1.0 / 186, 1.0 / 93], False, False, 3.0, 1.0)
@example([1.0 / 93, 0.5], False, False, 3.0, 1.0)
@example([TWO_PI - 1.0 / 2, TWO_PI - 1.0 / 4], False, False, 1.0, 1.0)
@example([TWO_PI - 1.5, TWO_PI - 1.0 / 2], False, False, 1.0, 1.0)
@example([1e-5, 0.5], True, True, 0.5, 1.0)
def test_example1_side_tail_matches_ray_enumeration(ends, from_zero, to_two_pi,
                                                     r, alpha):
    pts = sorted(ends)[:len(ends) // 2 * 2]
    if from_zero:
        pts[0] = 0.0
    if to_two_pi:
        pts[-1] = TWO_PI
    arcs = ArcSet(zip(pts[::2], pts[1::2]))
    m = Example1Model(alpha, 0.3)
    for sign in (+1, -1):
        assert m._side_tail_on(r, arcs, sign) == pytest.approx(
            enumerated_side_tail(m, r, arcs, sign), rel=0, abs=1e-12)


def test_example1_exact_tail_near_the_accumulation_point(monkeypatch):
    m = Example1Model(1.0, 0.5)
    calls = []
    tail = OscillatingTailLaw.tail
    monkeypatch.setattr(OscillatingTailLaw, "tail",
                        lambda self, r: calls.append(r) or tail(self, r))

    def counted(arc):
        calls.clear()
        value = m.exact_tail(10.0, ArcSet([arc]))
        assert len(calls) == 2, arc  # one per side, whatever the gap
        assert np.isfinite(value), arc
        return value

    near = [counted((a, 0.1)) for a in (4e-7, 1e-12, 5e-324)]
    assert near[0] < near[1] < near[2]
    # [0, 0.1) also holds the minus-side rays whose angle rounds to 0
    at_zero = 0.5 * m.side_law(-1).tail(float(_MINUS_RAY_AT_ZERO))
    assert counted((0.0, 0.1)) == pytest.approx(near[2] + at_zero, rel=1e-15)
    counted((TWO_PI - 1e-9, TWO_PI))


def test_example1_exact_tail_places_rounded_rays_where_sampled():
    # from this ray on, 2 pi - 1/n rounds to 2 pi and the point reads as 0
    assert TWO_PI - 1.0 / _MINUS_RAY_AT_ZERO == TWO_PI
    assert TWO_PI - 1.0 / (_MINUS_RAY_AT_ZERO - 1) < TWO_PI
    # at alpha 0.05 about a sixth of the norms pass that ray
    m = Example1Model(0.05, 0.04)
    n, r = 200_000, 10.0
    arcs = [ArcSet([(0.0, 0.1)]), ArcSet([(TWO_PI - 0.1, TWO_PI)])]
    empirical = tail_scan(m.sample(n, 1), 0.05, arcs, [r]).values[0]
    exact = tail_scan(m, 0.05, arcs, [r]).values[0]
    p = empirical / r ** 0.05
    se = r ** 0.05 * np.sqrt(p * (1.0 - p) / n)
    assert np.all(np.abs(empirical - exact) <= 4.0 * se), (empirical, exact, se)


# ----------------------------------------------------------------------
# accumulating atoms


def test_example2_k_law():
    m = Example2Model(1.0, 0.5, 1.2)
    b = m.sample(400_000, 17)
    # P{K = 1} = 1/2: the first atom sits at angle 0
    frac = np.mean(angles_of(b.dirs) == 0.0)
    assert frac == pytest.approx(0.5, abs=0.004)


class ScriptedRng:
    """Hands out the given uniform draws in turn, as rng.random would."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, m):
        out = self.draws.pop(0)
        assert out.size == m
        return out


def test_example2_chunk_dirs_are_the_atom_directions():
    # every atom up to 60, and the largest a double u gives, 2^53 - 1;
    # the 2^52 - 1 and 2^53 - 1 atoms sit at the float pi like atom 55
    k = np.arange(1.0, 61.0)
    u = np.concatenate([1.0 - 1.0 / (k + 0.5), [1.0 - 2.0 ** -52, 1.0 - 2.0 ** -53],
                        np.random.default_rng(2).random(5000)])
    v = np.random.default_rng(3).random(u.size)
    atoms = np.maximum(1, np.ceil(1.0 / (1.0 - u)).astype(np.int64) - 1)
    assert {54, _K_FLOAT_PI, 2 ** 52 - 1, 2 ** 53 - 1} <= set(atoms.tolist())
    assert _atom_angle(_K_FLOAT_PI - 1) < np.pi
    assert np.all(_atom_angle(np.array([_K_FLOAT_PI, 2.0 ** 52, 2.0 ** 53])) == np.pi)
    m = Example2Model(1.0, 0.5, 1.2)
    chunk = m._sample_chunk(ScriptedRng(u, v), u.size)
    assert chunk.dirs.tobytes() == directions_of(_atom_angle(atoms)).tobytes()
    radii = np.maximum(1.0, atoms ** -0.5 / (1.0 - v))
    np.testing.assert_array_equal(chunk.norms, radii)


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
    assert np.all(angles_of(b.dirs)[far] < 2.0 ** -4 / 4.0)


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
    freq = np.count_nonzero(arcs.contains(angles_of(b.dirs)) & (b.norms > r)) / n
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
