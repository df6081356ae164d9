import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import integrate

from regvar.errors import (
    DimensionMismatch,
    EmptyMeasure,
    InvalidGain,
    InvalidParameter,
    MomentDivergence,
    UnsupportedPair,
)
from regvar.measures import (
    ATOM_MERGE_TOL,
    MC_CHUNK_ROWS,
    TV_MATCH_TOL,
    RadialGain,
    RandomGainProcess,
    SpectralMeasure,
    SphereMap,
    constant_gain,
    constant_map,
    distance_ks,
    distance_tv,
    expected_gain_reweight,
    exponential_gain_process,
    identity_map,
    indicator_gain,
    merge_atoms,
    moment_condition,
    power_cusp_gain,
    pushforward,
    quadrant_snap_map,
    quantile_transform_map,
    reweight,
    step_gain,
    step_map,
)
from regvar.models import PolarIndependentModel
from regvar.radial import ParetoLaw
from regvar.sphere import TWO_PI, ArcSet, angles_of, directions_of

HALF_PI = np.pi / 2


def disc(angles, weights):
    return SpectralMeasure.discrete(angles, weights)


@st.composite
def discrete_measures(draw, max_atoms=12):
    m = draw(st.integers(min_value=1, max_value=max_atoms))
    angles = draw(st.lists(st.floats(min_value=0.0, max_value=TWO_PI - 1e-6),
                           min_size=m, max_size=m, unique=True))
    angles = np.sort(np.asarray(angles))
    if angles.size > 1 and (np.min(np.diff(angles)) < 1e-9
                            or angles[0] + TWO_PI - angles[-1] < 1e-9):
        angles = np.linspace(0.1, 6.0, m)
    weights = draw(st.lists(st.floats(min_value=1e-3, max_value=10.0),
                            min_size=m, max_size=m))
    return disc(angles, weights)


# ----------------------------------------------------------------------
# normalized


def test_normalize_symmetric():
    m = disc([0.0, np.pi], [2.0, 2.0]).normalized()
    np.testing.assert_allclose(m.weights, [0.5, 0.5])
    assert m.total_mass == pytest.approx(1.0, abs=1e-15)


def test_normalize_idempotent():
    m = disc([1.0, 2.0], [0.25, 0.75])
    again = m.normalized()
    np.testing.assert_allclose(again.weights, m.weights)


def test_normalize_hand():
    m = disc([HALF_PI, 3 * HALF_PI], [1.0, 9.0]).normalized()
    np.testing.assert_allclose(m.weights, [0.1, 0.9])


def test_normalize_zero_mass():
    with pytest.raises(ValueError):
        disc([0.0], [0.0])
    with pytest.raises(EmptyMeasure):
        SpectralMeasure.density(lambda t: np.zeros_like(t)).normalized()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_atom_angle_raises(bad):
    # raised before wrap_angle, so np.mod leaks no invalid-value warning
    with pytest.raises(InvalidParameter, match="angles must be finite"):
        disc([1.0, bad], [0.5, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_d3_atom_coordinate_raises(bad):
    coords = np.array([[1.0, 0.0], [0.0, bad], [0.0, 1.0]])
    with pytest.raises(InvalidParameter, match="coordinates must be finite"):
        SpectralMeasure("discrete", 3, coords=coords, weights=[0.5, 0.5])


# ----------------------------------------------------------------------
# pushforward


def test_pushforward_identity():
    m = disc([0.5, 2.0, 4.0], [0.2, 0.3, 0.5])
    out = pushforward(m, identity_map())
    np.testing.assert_allclose(out.angles, m.angles)
    np.testing.assert_allclose(out.weights, m.weights)


def test_pushforward_constant_collapses():
    m = disc([0.5, 2.0, 4.0], [0.2, 0.3, 0.5])
    out = pushforward(m, constant_map(1.0))
    assert out.n_atoms == 1
    assert out.angles[0] == pytest.approx(1.0)
    assert out.total_mass == m.total_mass


def test_pushforward_uniform_quadrant_snap_quadrature_oracle():
    # oracle: numeric quadrature of the uniform density over each preimage
    quadrant_mass = [integrate.quad(lambda t: 1.0 / TWO_PI, k * HALF_PI,
                                    (k + 1) * HALF_PI)[0] for k in range(4)]
    out = pushforward(SpectralMeasure.uniform(), quadrant_snap_map())
    assert out.n_atoms == 4
    np.testing.assert_allclose(
        out.angles, [HALF_PI / 2, 3 * HALF_PI / 2, 5 * HALF_PI / 2, 7 * HALF_PI / 2])
    np.testing.assert_allclose(out.weights, quadrant_mass, atol=1e-12)


def test_pushforward_mass_conserved_exactly_for_atoms():
    m = disc(np.linspace(0.1, 6.0, 50), np.linspace(1, 2, 50))
    out = pushforward(m, quadrant_snap_map())
    assert out.total_mass == m.total_mass


def test_pushforward_density_binning_fallback():
    # smooth non-step map falls back to binning quadrature
    smooth = type(identity_map())(angle_fn=lambda t: (t + 1.0) % TWO_PI)
    out = pushforward(SpectralMeasure.uniform(), smooth)
    assert abs(out.total_mass - 1.0) <= 1e-6


def test_pushforward_composition_atom_for_atom():
    m = disc([0.3, 1.0, 2.0, 5.0], [1.0, 2.0, 3.0, 4.0])
    f = quadrant_snap_map()
    g = step_map([0.0, np.pi], [0.1, 4.0])
    via_two = pushforward(pushforward(m, f), g)
    composed = type(f)(angle_fn=lambda t: g.apply_angles(f.apply_angles(t)))
    via_one = pushforward(m, composed)
    np.testing.assert_array_equal(via_two.angles, via_one.angles)
    np.testing.assert_allclose(via_two.weights, via_one.weights, rtol=1e-15)


@st.composite
def step_maps(draw):
    """quadrant_snap or a random step map, as (map, breaks, values); the
    values come from a small pool so several pieces share an image angle."""
    if draw(st.booleans()):
        q = HALF_PI
        return (quadrant_snap_map(), [0.0, q, 2 * q, 3 * q],
                [q / 2, 3 * q / 2, 5 * q / 2, 7 * q / 2])
    inner = draw(st.lists(st.floats(min_value=1e-9, max_value=TWO_PI - 1e-9),
                          max_size=10, unique=True))
    breaks = [0.0] + sorted(inner)
    pool = draw(st.lists(st.integers(0, 999), min_size=1, max_size=4, unique=True))
    values = [TWO_PI * draw(st.sampled_from(pool)) / 1000 for _ in breaks]
    return step_map(breaks, values), breaks, values


@given(step_maps(), st.data())
def test_pushforward_atoms_match_brute_force_grouping(f_breaks_values, data):
    f, breaks, values = f_breaks_values
    # source atoms anywhere, and some exactly on the breaks
    angles = data.draw(st.lists(
        st.one_of(st.floats(min_value=0.0, max_value=TWO_PI - 1e-6),
                  st.sampled_from(breaks)), min_size=1, max_size=30))
    weights = data.draw(st.lists(st.floats(min_value=1e-3, max_value=10.0),
                                 min_size=len(angles), max_size=len(angles)))
    m = SpectralMeasure.discrete(angles, weights, merge=True)
    out = pushforward(m, f)
    assert out.total_mass == m.total_mass

    groups = {}
    for theta, w in zip(m.angles.tolist(), m.weights.tolist()):
        piece = max(i for i, b in enumerate(breaks) if b <= theta)
        groups.setdefault(values[piece], []).append(w)
    assert out.angles.tolist() == sorted(groups)
    for angle, w in zip(out.angles.tolist(), out.weights.tolist()):
        group = groups[angle]
        # a left-to-right sum of m positive terms is within (m - 1) eps of exact
        exact = math.fsum(group)
        assert abs(w - exact) <= (len(group) - 1) * np.finfo(float).eps * exact


# ----------------------------------------------------------------------
# reweight


def test_reweight_unit_gain_unchanged():
    m = disc([0.0, np.pi], [0.5, 0.5])
    out = reweight(m, constant_gain(1.0), 2.0)
    np.testing.assert_allclose(out.weights, m.weights)


def test_reweight_constant_two():
    m = disc([0.0, np.pi], [0.5, 0.5])
    out = reweight(m, constant_gain(2.0), 1.0)
    assert out.total_mass == pytest.approx(2.0, abs=1e-15)
    np.testing.assert_allclose(out.weights / m.weights, [2.0, 2.0])


def test_reweight_hand_case_not_renormalized():
    m = disc([0.0, np.pi], [0.5, 0.5])
    h = step_gain([0.0, 1.0], [1.0, 3.0])  # h(0) = 1, h(pi) = 3
    out = reweight(m, h, 2.0)
    np.testing.assert_allclose(out.weights, [0.5, 4.5])
    norm = out.normalized()
    np.testing.assert_allclose(norm.weights, [0.1, 0.9])


def test_reweight_multiplicativity():
    m = disc([0.2, 1.1, 3.3, 5.5], [1.0, 2.0, 0.5, 0.25])
    h1 = step_gain([0.0, 2.0], [1.5, 0.5])
    h2 = step_gain([0.0, 4.0], [2.0, 3.0])
    both = RadialGain(angle_fn=lambda t: h1.at_angles(t) * h2.at_angles(t),
                      declared_bound=4.5)
    a = reweight(reweight(m, h1, 1.7), h2, 1.7)
    b = reweight(m, both, 1.7)
    np.testing.assert_allclose(a.weights, b.weights, rtol=1e-12)


def test_reweight_negative_gain_rejected():
    bad = RadialGain(angle_fn=lambda t: np.full_like(t, -1.0))
    with pytest.raises(InvalidGain):
        reweight(disc([0.0], [1.0]), bad, 1.0)


def test_reweight_density_matches_quadrature():
    out = reweight(SpectralMeasure.uniform(),
                   step_gain([0.0, np.pi], [2.0, 1.0]), 1.0)
    # mass = (2 * pi + 1 * pi) / (2 pi) = 1.5
    assert out.total_mass == pytest.approx(1.5, rel=1e-10)


# ----------------------------------------------------------------------
# randomized reweighting


def test_expected_gain_degenerate_process_matches_reweight():
    m = disc([0.5, 4.0], [0.4, 0.6])
    h = step_gain([0.0, 2.0], [2.0, 5.0])
    z = RandomGainProcess(lambda t, rng: h.at_angles(t),
                          lambda t, p: h.at_angles(t) ** p)
    np.testing.assert_allclose(expected_gain_reweight(m, z, 2.0).weights,
                               reweight(m, h, 2.0).weights, rtol=1e-14)


def test_expected_gain_uniform_multiplier_one():
    # Z ~ uniform on [0, 2]: E[Z^p] = 2^p / (p + 1), so E[Z] = 1
    z = RandomGainProcess(lambda t, rng: rng.uniform(0.0, 2.0, t.shape),
                          lambda t, p: np.full_like(t, 2.0 ** p / (p + 1.0)))
    m = disc([1.0, 2.0], [0.3, 0.7])
    out = expected_gain_reweight(m, z, 1.0)
    np.testing.assert_allclose(out.weights, m.weights, rtol=1e-14)


def test_expected_gain_exponential_second_moment():
    # Z ~ exponential mean 1: E[Z^2] = 2
    z = exponential_gain_process(lambda t: np.ones_like(t))
    m = disc([1.0, 2.0], [0.3, 0.7])
    out = expected_gain_reweight(m, z, 2.0)
    np.testing.assert_allclose(out.weights, 2.0 * m.weights, rtol=1e-14)


def test_expected_gain_monte_carlo_moment_is_seeded():
    z = RandomGainProcess(lambda t, rng: rng.uniform(0.0, 2.0, t.shape),
                          moment_fn=None, mc_budget=50_000)
    theta = np.array([0.3, 4.0])
    a = z.moment(theta, 1.0, np.random.default_rng(5))
    b = z.moment(theta, 1.0, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(a, [1.0, 1.0], atol=0.02)
    with pytest.raises(ValueError):
        z.moment(theta, 1.0)  # Monte Carlo moments need an explicit rng


@pytest.mark.parametrize("budget", [100, MC_CHUNK_ROWS, 2 * MC_CHUNK_ROWS + 37])
def test_streamed_moment_equals_whole_array_mean(budget):
    # budgets below, at and not a multiple of the chunk: the streamed sum
    # takes the same draws in the same order and rounds as one whole-array
    # sum does, and the sampler's mean, evaluated once per probe, gives each
    # draw the bits of the per-element form, whose mean is evaluated at every
    # draw; so the moment is bit-identical to that whole-array mean
    process = exponential_gain_process(lambda t: 1.0 + 0.5 * np.cos(t))
    z = RandomGainProcess(process.sample_fn, mc_budget=budget)
    probes = (np.arange(16) + 0.5) * TWO_PI / 16.0
    reps = np.repeat(probes[None, :], budget, axis=0)
    for draws in (z.sample(reps, np.random.default_rng(7)),
                  np.random.default_rng(7).exponential(
                      scale=1.0 + 0.5 * np.cos(reps))):
        whole = np.mean(draws ** 1.5, axis=0)
        got = z.moment(probes, 1.5, np.random.default_rng(7))
        np.testing.assert_array_equal(got, whole)


# ----------------------------------------------------------------------
# cdf / quantile


def test_cdf_uniform_half():
    assert SpectralMeasure.uniform().cdf(np.pi) == pytest.approx(0.5, abs=1e-12)


def test_cdf_single_atom_steps():
    m = disc([HALF_PI], [1.0])
    assert m.cdf(np.pi / 4) == 0.0
    assert m.cdf(HALF_PI) == 1.0


def test_cdf_two_atoms():
    m = disc([HALF_PI, 3 * HALF_PI], [0.3, 0.7])
    assert m.cdf(np.pi) == pytest.approx(0.3)


def test_quantile_uniform():
    assert SpectralMeasure.uniform().quantile(0.25) == pytest.approx(HALF_PI,
                                                                     abs=1e-9)


def test_quantile_point_mass():
    m = disc([2.0], [1.0])
    for u in (0.0, 0.3, 0.999):
        assert m.quantile(u) == 2.0


def test_quantile_step_inversion():
    m = disc([HALF_PI, 3 * HALF_PI], [0.3, 0.7])
    assert m.quantile(0.2) == HALF_PI
    assert m.quantile(0.5) == 3 * HALF_PI


def test_quantile_requires_normalized():
    with pytest.raises(ValueError):
        disc([0.0], [2.0]).quantile(0.5)


@pytest.mark.parametrize("u", [
    0.3,
    np.array([0.7, 0.2, 0.7, 0.0, 0.2, 0.999, 0.7, 0.5]),
    np.random.default_rng(4).random((37, 11)),
])
def test_density_quantile_equals_plain_interp(u):
    """quantile interpolates on sorted levels and scatters them back; each
    level gets np.interp's bits in the caller's order and shape."""
    m = SpectralMeasure.cosine_bump(0.5)
    grid, cum = m._density_cdf_table()
    want = np.interp(u, cum / cum[-1], grid)
    got = m.quantile(u)
    if np.ndim(u) == 0:
        assert type(got) is float and got == want
    else:
        assert got.shape == np.shape(u)
        np.testing.assert_array_equal(got, want)


def test_density_cdf_table_is_accurate_next_to_a_cusp():
    # theorem3's limit shape, with a cusp |t - pi|^-0.2 on a grid node; the
    # two cells that end there are integrated with the cusp's order. Next
    # to the cusp the linear interpolation between nodes bounds the error:
    # h^2 / 8 times the density's slope, about 2e-7 at 1e-3 from pi
    mu = reweight(SpectralMeasure.uniform(), power_cusp_gain(np.pi, 0.2),
                  1.0).normalized()
    for t, tol in ((2.0, 1e-10), (5.0, 1e-10), (np.pi - 1e-3, 5e-7)):
        assert abs(mu.cdf(t) - mu.mass_on(ArcSet([(0.0, t)]))) <= tol


def test_density_cdf_table_is_accurate_next_to_a_cusp_inside_a_cell():
    # the cusp at 3.0 falls strictly inside a cell; that cell and its two
    # neighbours are integrated with the cusp's order (the neighbours'
    # 4-point rule alone left an error near 3e-9)
    mu = reweight(SpectralMeasure.cosine_bump(0.5), power_cusp_gain(3.0, 0.2),
                  1.0).normalized()
    grid, _ = mu._density_cdf_table()
    assert 3.0 not in grid
    for t in (2.0, 5.0):
        assert abs(mu.cdf(t) - mu.mass_on(ArcSet([(0.0, t)]))) <= 1e-10


@given(discrete_measures())
def test_cdf_quantile_galois(m):
    m = m.normalized()
    for u in np.linspace(0.0, 0.999, 101):
        q = m.quantile(u)
        assert m.cdf(q) >= u
    for theta in np.linspace(0.0, TWO_PI - 1e-9, 57):
        assert m.quantile(min(m.cdf(theta), 1.0 - 1e-12)) <= theta or \
            m.cdf(theta) == 0.0


# The density CDF is a strictly increasing piecewise-linear table, so its
# interpolated quantile is its exact inverse up to rounding: a few ulps of 1
# in u, stretched by the inverse's slope 1/f <= 2*pi/(1 - |a|) <= 63 for
# |a| <= 0.9, which stays below 1e-13 in angle. The bound is set 10x wider.
ROUND_TRIP_TOL = 1e-12


@given(st.floats(min_value=-0.9, max_value=0.9),
       st.lists(st.floats(min_value=0.0, max_value=TWO_PI - 1e-6),
                min_size=1, max_size=50))
def test_density_quantile_inverts_cdf(a, xs):
    m = SpectralMeasure.cosine_bump(a)
    x = np.asarray(xs)
    np.testing.assert_allclose(m.quantile(m.cdf(x)), x, rtol=0, atol=ROUND_TRIP_TOL)


@given(st.floats(min_value=-0.9, max_value=0.9),
       st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                min_size=1, max_size=50))
def test_density_cdf_inverts_quantile(a, us):
    m = SpectralMeasure.cosine_bump(a)
    u = np.asarray(us)
    np.testing.assert_allclose(m.cdf(m.quantile(u)), u, rtol=0, atol=ROUND_TRIP_TOL)


@pytest.mark.parametrize("scale", [1.0, 2.5])
def test_sample_angles_cached_table_matches_fresh_quantile(scale):
    m = SpectralMeasure.cosine_bump(0.5).scaled(scale)
    for seed in (1, 2):  # the second draw reads the cached table
        drawn = m.sample_angles(np.random.default_rng(seed), 5000)
        fresh = m.normalized().quantile(np.random.default_rng(seed).random(5000))
        np.testing.assert_array_equal(drawn, fresh)


def test_sample_angles_cache_built_in_worker_threads():
    def model():
        return PolarIndependentModel(SpectralMeasure.cosine_bump(0.5), 1.0,
                                     ParetoLaw(1.0))

    a = model().sample(300_000, 3, workers=1)
    b = model().sample(300_000, 3, workers=2)
    np.testing.assert_array_equal(a.points, b.points)


# ----------------------------------------------------------------------
# quantile transform map


def test_qtm_uniform_is_identity():
    g = quantile_transform_map(SpectralMeasure.uniform())
    theta = np.linspace(0.0, TWO_PI, 100, endpoint=False)
    np.testing.assert_allclose(g.apply_angles(theta), theta, atol=1e-9)


def test_qtm_point_mass_constant():
    g = quantile_transform_map(disc([2.0], [1.0]))
    theta = np.linspace(0.0, TWO_PI, 17, endpoint=False)
    np.testing.assert_array_equal(g.apply_angles(theta), np.full(17, 2.0))


def test_qtm_step_thresholds():
    g = quantile_transform_map(disc([HALF_PI, 3 * HALF_PI], [0.3, 0.7]))
    assert g.apply_angles(np.array([0.5 * 0.6 * np.pi]))[0] == HALF_PI
    assert g.apply_angles(np.array([0.6 * np.pi]))[0] == 3 * HALF_PI
    assert g.apply_angles(np.array([5.0]))[0] == 3 * HALF_PI


@given(discrete_measures(max_atoms=100))
def test_qtm_pushforward_recovers_target(m):
    m = m.normalized()
    image = pushforward(SpectralMeasure.uniform(), quantile_transform_map(m))
    assert distance_ks(image, m) <= 1e-9


# ----------------------------------------------------------------------
# distances


def test_tv_identical_zero():
    m = disc([0.1, 2.0], [0.5, 0.5])
    assert distance_tv(m, m) == 0.0


def test_tv_disjoint_atoms():
    assert distance_tv(disc([0.0], [1.0]), disc([np.pi], [1.0])) == 1.0


def test_tv_hand_case():
    centers = [HALF_PI / 2, 3 * HALF_PI / 2, 5 * HALF_PI / 2, 7 * HALF_PI / 2]
    a = disc(centers, [0.25] * 4)
    b = disc(centers, [0.3, 0.2, 0.3, 0.2])
    assert distance_tv(a, b) == pytest.approx(0.1, abs=1e-15)
    # atoms one ulp apart are the same atom to TV and to KS alike
    moved = disc(np.nextafter(centers, 0.0), b.weights)
    assert distance_tv(a, moved) == distance_tv(a, b)
    assert distance_ks(a, moved) == distance_ks(a, b) <= distance_tv(a, b)


def test_tv_rejects_density():
    with pytest.raises(UnsupportedPair):
        distance_tv(SpectralMeasure.uniform(), disc([0.0], [1.0]))


# cluster centres 0.157 apart; atoms sit within 4e-7 of their centre, so
# a cluster spans at most 8e-7 < TV_MATCH_TOL and neighbours stay 0.157
# apart, well clear of the tolerance either way
TV_CENTRES = TWO_PI * np.arange(40) / 40
TV_OFFSETS = 1e-7 * np.arange(-4, 5)


@st.composite
def clustered_pairs(draw):
    """Two atomic measures whose atoms fall in well-separated clusters.

    The cluster at angle 0 is always offered, so atoms sit on both sides of
    the 0/2*pi seam; each side may put several atoms in one cluster.
    """
    centres = [0] + draw(st.lists(st.integers(1, 39), max_size=4, unique=True))
    sides = []
    for _ in range(2):
        angles = []
        for c in centres:
            picks = draw(st.lists(st.integers(0, 8), max_size=4, unique=True))
            angles += [TV_CENTRES[c] + TV_OFFSETS[j] for j in picks]
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(angles),
                                max_size=len(angles)))
        sides.append((angles, weights))
    (a_angles, a_weights), (b_angles, b_weights) = sides
    assume(a_angles and b_angles)
    return disc(a_angles, a_weights), disc(b_angles, b_weights)


def tv_oracle(a, b, atol):
    """TV by brute force: atoms within circular distance atol are joined,
    clusters are the connected components, and each cluster contributes
    |mass of a - mass of b|."""
    angles = list(a.angles) + list(b.angles)
    signed = list(a.weights) + [-w for w in b.weights]
    root = list(range(len(angles)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i in range(len(angles)):
        for j in range(i):
            gap = abs(angles[i] - angles[j])
            if min(gap, TWO_PI - gap) <= atol:
                root[find(i)] = find(j)
    sums = {}
    for i, w in enumerate(signed):
        sums[find(i)] = sums.get(find(i), 0.0) + w
    return 0.5 * sum(abs(v) for v in sums.values())


@given(clustered_pairs())
def test_tv_matches_brute_force_clustering(pair):
    a, b = pair
    want = tv_oracle(a, b, TV_MATCH_TOL)
    assert distance_tv(a, b) == pytest.approx(want, abs=1e-12)
    assert distance_tv(b, a) == pytest.approx(want, abs=1e-12)


def test_distances_symmetric_nonnegative():
    a = disc([0.5, 2.5], [0.4, 0.6])
    b = disc([0.5, 4.0], [0.7, 0.3])
    assert distance_tv(a, b) == distance_tv(b, a) >= 0.0
    assert distance_ks(a, b) == distance_ks(b, a) >= 0.0
    assert distance_ks(a, a) == 0.0


def test_ks_attains_sup_for_steps():
    a = disc([1.0], [1.0])
    b = disc([1.0 - 1e-5], [1.0])  # off-grid atom location still probed
    assert distance_ks(a, b) == pytest.approx(1.0)


@st.composite
def moved_pairs(draw):
    """A normalized atomic measure and a normalized one on some of its
    atoms, each moved by up to TV_MATCH_TOL / 2 and reweighted."""
    a = draw(discrete_measures()).normalized()
    keep = draw(st.lists(st.booleans(), min_size=a.n_atoms, max_size=a.n_atoms))
    assume(any(keep))
    shifts = draw(st.lists(st.floats(-TV_MATCH_TOL / 2, TV_MATCH_TOL / 2),
                           min_size=a.n_atoms, max_size=a.n_atoms))
    weights = draw(st.lists(st.floats(1e-3, 10.0), min_size=a.n_atoms,
                            max_size=a.n_atoms))
    angles = (a.angles + np.asarray(shifts))[keep]
    b = SpectralMeasure.discrete(angles, np.asarray(weights)[keep], merge=True)
    return a, b.normalized()


@given(moved_pairs())
def test_ks_is_at_most_tv_for_matched_atoms(pair):
    a, b = pair
    ks, tv = distance_ks(a, b), distance_tv(a, b)
    assert ks <= tv + 1e-12
    assert distance_ks(b, a) == pytest.approx(ks, abs=1e-15)


def test_ks_needs_planar():
    coords = np.eye(3)[:, :2]
    m3 = SpectralMeasure.discrete_dirs(coords, [0.5, 0.5])
    with pytest.raises(DimensionMismatch):
        distance_ks(m3, m3)


# ----------------------------------------------------------------------
# boundary mass and arc mass


def test_boundary_mass_examples():
    half = ArcSet([(0.0, np.pi)])
    assert disc([0.0], [1.0]).boundary_mass(half) == 1.0
    assert disc([HALF_PI], [1.0]).boundary_mass(half) == 0.0
    assert disc([0.0, np.pi], [0.5, 0.5]).boundary_mass(half) == 1.0
    assert SpectralMeasure.uniform().boundary_mass(half) == 0.0


def test_mass_on_density_arc():
    m = SpectralMeasure.uniform()
    assert m.mass_on(ArcSet([(0.0, np.pi)])) == pytest.approx(0.5, rel=1e-12)


# ----------------------------------------------------------------------
# moment condition


def test_moment_constant_gain():
    val = moment_condition(SpectralMeasure.uniform(), constant_gain(3.0),
                           1.0, 0.5)
    assert val == pytest.approx(3.0 ** 1.5, rel=1e-10)


def test_moment_power_cusp_hand_integral():
    # integral of |t - pi|^(-0.3) / (2 pi) over the circle
    h = power_cusp_gain(np.pi, 0.2)
    val = moment_condition(SpectralMeasure.uniform(), h, 1.0, 0.5)
    hand = 2.0 * np.pi ** 0.7 / (0.7 * TWO_PI)
    assert val == pytest.approx(hand, abs=1e-10)


def test_moment_divergence_detected():
    h = power_cusp_gain(np.pi, 0.8)  # 0.8 * (1 + 0.5) = 1.2 >= 1 diverges
    with pytest.raises(MomentDivergence):
        moment_condition(SpectralMeasure.uniform(), h, 1.0, 0.5)


def test_moment_discrete_sum():
    m = disc([0.0, np.pi], [0.5, 0.5])
    h = step_gain([0.0, 1.0], [1.0, 3.0])
    assert moment_condition(m, h, 1.0, 1.0) == pytest.approx(
        0.5 * 1.0 + 0.5 * 9.0)


# ----------------------------------------------------------------------
# misc invariants


def test_total_mass_matches_weights():
    m = disc(np.linspace(0, 6, 30), np.linspace(0.1, 3.0, 30))
    assert abs(m.total_mass - math.fsum(m.weights.tolist())) <= 1e-9 * m.total_mass


def test_atoms_closer_than_tolerance_rejected_without_merge():
    with pytest.raises(ValueError):
        SpectralMeasure.discrete([1.0, 1.0 + 1e-13], [0.5, 0.5])
    merged = SpectralMeasure.discrete([1.0, 1.0 + 1e-13], [0.5, 0.5], merge=True)
    assert merged.n_atoms == 1


def test_indicator_gain_zero_weight_removal():
    m = disc([0.0, np.pi], [0.5, 0.5])
    h = indicator_gain(ArcSet([(1.0, 4.0)]))
    out = reweight(m, h, 1.0)
    assert out.n_atoms == 1 and out.angles[0] == pytest.approx(np.pi)


def test_d3_measure_operations():
    from regvar.sphere import CapSet

    m = SpectralMeasure.discrete_dirs(np.eye(3), [1.0, 2.0, 1.0])
    n = m.normalized()
    np.testing.assert_allclose(n.weights, [0.25, 0.5, 0.25])
    flip = SphereMap(coords_fn=lambda x: -x)
    image = pushforward(m, flip)
    assert image.total_mass == m.total_mass
    assert distance_tv(n, image.normalized()) == 1.0  # antipodal supports
    caps = CapSet([(np.array([0.0, 0.0, 1.0]), 0.9)])
    assert n.mass_on(caps) == 0.25
    h = RadialGain(coords_fn=lambda x: 1.0 + x[2] ** 2)
    out = reweight(n, h, 1.0)
    np.testing.assert_allclose(out.weights, [0.25, 0.5, 0.5])


def test_indicator_gain_scalar_and_array_agree():
    h = indicator_gain(ArcSet([(0.0, 1.0), (3.0, 4.0)]))
    theta = [0.0, 0.5, 1.0, 2.0, 3.0, 3.5, 4.0, 6.0]
    assert [float(h.at_angles(t)) for t in theta] == h.at_angles(theta).tolist()
    assert h.at_angles(theta).tolist() == [1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]


# ----------------------------------------------------------------------
# one atom path in every dimension

OCTANT = 1.0 / np.sqrt(3.0)
SPHERE_ATOMS = [np.array(c) for c in (
    [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0],
    [OCTANT, OCTANT, OCTANT], [-OCTANT, OCTANT, -OCTANT],
    [OCTANT, -OCTANT, -OCTANT])]
PLANE_ATOMS = [k * np.pi / 4 for k in range(8)]


def ulp_step(x, direction):
    """x moved by `direction` ulps (elementwise, direction in -2..2)."""
    x = np.asarray(x, dtype=float)
    for _ in range(abs(direction)):
        x = np.nextafter(x, np.sign(direction) * np.inf)
    return x


@st.composite
def atom_sets(draw):
    """(at, weights): angles (m,) or unit columns (3, m) drawn near axis and
    octant-centre atoms, some exact copies and some a few ulps off, plus
    random atoms."""
    planar = draw(st.booleans())
    pool = PLANE_ATOMS if planar else SPHERE_ATOMS
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.integers(-2, 2)), min_size=1, max_size=12))
    atoms = [ulp_step(pool[i], step) for i, step in picks]
    seeds = draw(st.lists(st.integers(0, 2 ** 32 - 1), max_size=4))
    for seed in seeds:
        v = np.random.default_rng(seed).normal(size=3)
        atoms.append(math.atan2(v[1], v[0]) % TWO_PI if planar
                     else v / np.sqrt(np.sum(v * v)))
    weights = np.asarray(draw(st.lists(st.floats(1e-3, 10.0), min_size=len(atoms),
                                       max_size=len(atoms))))
    at = np.asarray(atoms, dtype=float) if planar else np.stack(atoms, axis=1)
    return at, weights


@given(atom_sets())
def test_merge_atoms_conserves_mass_and_is_idempotent(atoms):
    at, weights = atoms
    merged_at, merged_w = merge_atoms(at, weights, ATOM_MERGE_TOL)
    assert math.fsum(merged_w.tolist()) == pytest.approx(
        math.fsum(weights.tolist()), rel=1e-14)
    again_at, again_w = merge_atoms(merged_at, merged_w, ATOM_MERGE_TOL)
    assert again_at.tobytes() == merged_at.tobytes()
    assert again_w.tobytes() == merged_w.tobytes()


@pytest.mark.parametrize("atom", PLANE_ATOMS + SPHERE_ATOMS,
                         ids=[f"angle{k}" for k in range(8)]
                         + [f"column{k}" for k in range(6)])
def test_exact_and_ulp_duplicates_merge(atom):
    copies = [atom, atom, ulp_step(atom, 1), ulp_step(atom, -1)]
    at = np.asarray(copies) if np.ndim(atom) == 0 else np.stack(copies, axis=1)
    merged_at, merged_w = merge_atoms(at, np.full(4, 0.25), ATOM_MERGE_TOL)
    assert merged_w.tolist() == [1.0]
    if np.ndim(atom) == 0:
        m = SpectralMeasure.discrete(at, np.full(4, 0.25), merge=True)
    else:
        m = SpectralMeasure("discrete", 3, coords=at, weights=np.full(4, 0.25),
                            merge=True)
        with pytest.raises(ValueError, match="merge tolerance"):
            SpectralMeasure.discrete_dirs(at, np.full(4, 0.25))
    assert m.n_atoms == 1 and m.total_mass == 1.0


def embedded(m):
    """A planar discrete measure as one on S^2, atoms (cos t, sin t, 0)."""
    coords = np.vstack([m.coords, np.zeros(m.n_atoms)])
    return SpectralMeasure(m.kind, 3, coords=coords, weights=m.weights)


def by_angle(m3):
    """Weights of a measure on the equator of S^2, ordered by angle."""
    return m3.weights[np.argsort(angles_of(m3.coords[:2]))]


def _snap(t):
    return (np.floor(t / HALF_PI) + 0.5) * HALF_PI


SNAP_3D = SphereMap(coords_fn=lambda x: np.vstack(
    [directions_of(_snap(angles_of(x[:2]))), x[2]]))
HALF_GAIN = (lambda t: (np.sin(t) >= 0.0) * (1.5 + np.cos(t)),
             lambda x: (x[1] >= 0.0) * (1.5 + x[0]))


@given(discrete_measures())
def test_embedded_measure_takes_the_same_path(m):
    # atoms off the quadrant edges, where an angle read back from its
    # coordinates could land in the neighbouring quadrant
    assume(np.all(np.abs(m.angles - np.round(m.angles / HALF_PI) * HALF_PI) > 1e-9))
    m3 = embedded(m)
    image, image3 = pushforward(m, quadrant_snap_map()), pushforward(m3, SNAP_3D)
    assert image3.n_atoms == image.n_atoms
    np.testing.assert_allclose(by_angle(image3), image.weights, rtol=1e-14)
    angle_fn, coords_fn = HALF_GAIN
    h, h3 = RadialGain(angle_fn=angle_fn), RadialGain(coords_fn=coords_fn)
    assume(np.any(h.at_angles(m.angles) > 0.0))
    np.testing.assert_allclose(by_angle(reweight(m3, h3, 1.5)),
                               reweight(m, h, 1.5).weights, rtol=1e-14)
    assert moment_condition(m3, h3, 1.0, 0.5) == pytest.approx(
        moment_condition(m, h, 1.0, 0.5), rel=1e-14)


@given(discrete_measures())
def test_discrete_dirs_on_planar_coords(m):
    via_coords = SpectralMeasure.discrete_dirs(m.coords, m.weights)
    assert via_coords.dim == 2
    np.testing.assert_allclose(via_coords.angles, m.angles, rtol=0, atol=1e-15)
    assert via_coords.weights.tobytes() == m.weights.tobytes()


def test_constant_coords_map_collapses_atoms_on_the_sphere():
    m = SpectralMeasure.discrete_dirs(np.eye(3), [0.2, 0.3, 0.5])
    pole = SphereMap(coords_fn=lambda x: np.repeat([[0.0], [0.0], [1.0]],
                                                   x.shape[1], axis=1))
    image = pushforward(m, pole)
    assert image.n_atoms == 1 and image.total_mass == m.total_mass
    assert image.weights[0] == pytest.approx(1.0, rel=1e-15)
    assert image.coords[:, 0].tolist() == [0.0, 0.0, 1.0]


@given(st.lists(st.tuples(st.integers(0, 39), st.floats(0.01, 1.0)),
                min_size=2, max_size=30))
def test_tv_on_the_sphere_matches_the_plane(picks):
    # atoms from one pool: shared atoms are exact copies, others far apart
    pool = np.linspace(0.0, TWO_PI, 40, endpoint=False)
    a_picks, b_picks = dict(picks[::2]), dict(picks[1::2])
    assume(a_picks and b_picks)
    a = disc(pool[list(a_picks)], list(a_picks.values()))
    b = disc(pool[list(b_picks)], list(b_picks.values()))
    assert distance_tv(embedded(a), embedded(b)) == pytest.approx(
        distance_tv(a, b), rel=1e-14, abs=1e-15)
