import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from regvar.batch import SampleBatch
from regvar.errors import (
    DimensionMismatch,
    InvalidGain,
    InvalidParameter,
    MomentDivergence,
    NonFiniteInput,
)
from regvar.measures import (
    RadialGain,
    RandomGainProcess,
    SpectralMeasure,
    SphereMap,
    constant_gain,
    constant_map,
    identity_map,
    indicator_gain,
    moment_condition,
    power_cusp_gain,
    quadrant_snap_map,
    reweight,
    step_gain,
)
from regvar.models import (
    Example1Model,
    Example2Gain,
    Example2Model,
    Example3Model,
    PolarIndependentModel,
)
from regvar.radial import AtomPlusParetoLaw, ParetoLaw
from regvar.rng import CHUNK
from regvar.scenarios import _finite_r_identity_rel_err, _theorem2_closed_mass
from regvar.specs import gain_from_spec
from regvar.sphere import TWO_PI, ArcSet, CapSet, angles_of
from regvar.transforms import (
    TransformedModel,
    radial_scale_apply,
    randomized_scale_apply,
    spherical_map_apply,
)

FULL = ArcSet.full_circle()


def small_batch():
    pts = np.array([[3.0, 0.0, -2.0, 1.0], [4.0, 5.0, 0.0, -1.0]])
    return SampleBatch.from_points(pts)


# ----------------------------------------------------------------------
# spherical maps on batches


def test_spherical_identity_keeps_batch():
    b = small_batch()
    out = spherical_map_apply(b, identity_map())
    np.testing.assert_array_equal(out.norms, b.norms)
    np.testing.assert_allclose(out.points, b.points, atol=1e-15)


def test_spherical_constant_puts_all_on_ray():
    b = small_batch()
    out = spherical_map_apply(b, constant_map(1.0))
    np.testing.assert_array_equal(out.norms, b.norms)
    assert np.all(angles_of(out.dirs) == 1.0)


def test_spherical_snap_hand_point():
    b = SampleBatch.from_points(np.array([[3.0], [4.0]]))
    out = spherical_map_apply(b, quadrant_snap_map())
    np.testing.assert_allclose(out.points[:, 0],
                               [5 * np.cos(np.pi / 4), 5 * np.sin(np.pi / 4)],
                               rtol=1e-15)


def test_spherical_norms_preserved_exactly():
    rng = np.random.default_rng(2)
    b = SampleBatch.from_points(rng.standard_normal((2, 10_000)))
    out = spherical_map_apply(b, quadrant_snap_map())
    np.testing.assert_array_equal(out.norms, b.norms)
    assert np.shares_memory(out.norms, b.norms)


@pytest.mark.parametrize("action", ["angle", "coords"])
def test_spherical_map_refuses_non_finite_output(action):
    """A map whose action yields NaN raises instead of placing points at
    NaN; the coordinate action is the one a d = 3 batch takes."""
    if action == "angle":
        b, fmap = small_batch(), SphereMap(angle_fn=lambda t: t * np.nan)
    else:
        b = SampleBatch.from_points(np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]))
        fmap = SphereMap(coords_fn=lambda x: x * np.nan)
    with pytest.raises(NonFiniteInput):
        spherical_map_apply(b, fmap)


# ----------------------------------------------------------------------
# radial gains on batches


def test_radial_unit_gain_unchanged():
    b = small_batch()
    out = radial_scale_apply(b, constant_gain(1.0))
    np.testing.assert_array_equal(out.norms, b.norms)
    np.testing.assert_array_equal(out.dirs, b.dirs)


def test_radial_double_gain():
    b = small_batch()
    out = radial_scale_apply(b, constant_gain(2.0))
    np.testing.assert_array_equal(out.norms, 2.0 * b.norms)
    np.testing.assert_array_equal(out.dirs, b.dirs)


def test_radial_gain_overflow_raises():
    b = SampleBatch.from_points(np.array([[1e300, 1.0], [0.0, 1.0]]))
    with pytest.raises(NonFiniteInput):
        radial_scale_apply(b, constant_gain(1e10))


def test_radial_indicator_removes_axis_points():
    # the staircase scenario's gain: 1 away from angle 0, 0 at angle 0
    b = small_batch()  # point (0, 5)... none at angle 0 except (3,4)? no
    pts = np.array([[2.0, 1.0, 3.0], [0.0, 1.0, 0.0]])
    b = SampleBatch.from_points(pts)
    h = indicator_gain(ArcSet([(np.nextafter(0.0, 1.0), TWO_PI)]))
    out = radial_scale_apply(b, h)
    assert out.size == 1 and out.zero_count == 2
    assert not np.shares_memory(out.dirs, b.dirs)
    assert angles_of(out.dirs)[0] == pytest.approx(np.pi / 4)


def test_radial_directions_preserved_exactly_for_survivors():
    rng = np.random.default_rng(8)
    b = SampleBatch.from_points(rng.standard_normal((2, 5_000)))
    h = step_gain([0.0, np.pi], [0.5, 2.0])
    out = radial_scale_apply(b, h)
    np.testing.assert_array_equal(out.dirs, b.dirs)
    assert out.zero_count == 0 and np.shares_memory(out.dirs, b.dirs)


# ----------------------------------------------------------------------
# read-only batch arrays


def test_batch_arrays_are_read_only_views():
    pts = np.array([[3.0, 0.0, -2.0, 1.0], [4.0, 5.0, 0.0, -1.0]])
    norms, dirs = np.array([2.0, 3.0]), np.array([[1.0, 0.0], [0.0, 1.0]])
    model = PolarIndependentModel(SpectralMeasure.uniform(), 1.0,
                                  ParetoLaw(1.0))
    b = SampleBatch.from_points(pts)
    batches = [b, SampleBatch.from_polar(norms, dirs), model.sample(100, 1),
               TransformedModel(model, constant_gain(2.0)).sample(100, 1),
               b.canonical(), spherical_map_apply(b, quadrant_snap_map()),
               radial_scale_apply(b, constant_gain(2.0))]
    for batch in batches:
        for array in (batch.points, batch.norms, batch.dirs):
            with pytest.raises(ValueError, match="read-only"):
                array[..., 0] = 1.0
    assert np.shares_memory(b.canonical().points, pts)
    # the caller's own arrays stay writeable
    for array in (pts, norms, dirs):
        array[..., 0] = 7.0
    assert b.points[0, 0] == 7.0


def test_polar_batch_stores_no_points():
    norms = np.array([2.0, 0.5, 3.0])
    dirs = np.array([[0.6, -1.0, 0.0], [0.8, 0.0, 1.0]])
    b = SampleBatch.from_polar(norms, dirs)
    assert not b.holds_points and (b.dim, b.size) == (2, 3)
    # each read forms a fresh array, with the bits of dirs * norms
    assert b.points is not b.points
    assert b.points.tobytes() == (dirs * norms).tobytes()
    assert SampleBatch.from_points(b.points).holds_points
    # an F-ordered dirs gives C-ordered points
    f_dirs = np.asfortranarray(dirs)
    assert SampleBatch.from_polar(norms, f_dirs).points.flags.c_contiguous


@pytest.mark.parametrize("norms, dirs", [
    (np.array([2.0]), np.ones((2, 3))),            # broadcasts in dirs * norms
    (np.array([2.0, 3.0]), np.ones((2, 3))),       # does not broadcast
    (np.ones((1, 3)), np.ones((2, 3))),
    (np.ones(3), np.ones(3)),
], ids=["one-norm", "two-norms", "2d-norms", "1d-dirs"])
def test_batch_refuses_norms_and_dirs_of_different_shapes(norms, dirs):
    with pytest.raises(InvalidParameter, match="shapes"):
        SampleBatch.from_polar(norms, dirs)
    with pytest.raises(InvalidParameter):
        SampleBatch(None, norms, dirs)


def test_batch_refuses_points_that_do_not_match_dirs():
    with pytest.raises(InvalidParameter, match="points"):
        SampleBatch(np.ones((2, 2)), np.ones(3), np.ones((2, 3)))
    with pytest.raises(InvalidParameter, match="points"):
        SampleBatch.from_points(np.ones(3))


# ----------------------------------------------------------------------
# randomized gains


def test_randomized_degenerate_equals_deterministic():
    b = small_batch()
    # the second gain is zero on [2, 4), which holds the point at angle pi
    for h in (step_gain([0.0, 2.0], [2.0, 3.0]),
              step_gain([0.0, 2.0, 4.0], [2.0, 0.0, 3.0])):
        z = RandomGainProcess(lambda t, rng: h.at_angles(t),
                              lambda t, p: h.at_angles(t) ** p)
        out_z = randomized_scale_apply(b, z, np.random.default_rng(0))
        out_h = radial_scale_apply(b, h)
        np.testing.assert_array_equal(out_z.norms, out_h.norms)
        np.testing.assert_array_equal(out_z.dirs, out_h.dirs)
        assert out_z.zero_count == out_h.zero_count
    assert out_h.zero_count == 1 and out_h.size == b.size - 1


def test_randomized_zero_process_empties_batch():
    b = small_batch()
    z = RandomGainProcess(lambda t, rng: np.zeros_like(t))
    out = randomized_scale_apply(b, z, np.random.default_rng(0))
    assert out.size == 0 and out.zero_count == b.size


def test_randomized_uniform_mean_ratio():
    sigma = SpectralMeasure.uniform()
    model = PolarIndependentModel(sigma, 1.0, ParetoLaw(1.0))
    b = model.sample(100_000, 3)
    z = RandomGainProcess(lambda t, rng: rng.uniform(1.0, 3.0, t.shape))
    out = randomized_scale_apply(b, z, np.random.default_rng(99))
    ratio = np.mean(out.norms / b.norms)
    assert ratio == pytest.approx(2.0, rel=0.01)
    again = randomized_scale_apply(b, z, np.random.default_rng(99))
    np.testing.assert_array_equal(out.norms, again.norms)


# ----------------------------------------------------------------------
# the limit side: reweight, and the finite-r identity that ties it to the
# rescaled model's exact tail


def test_limit_radial_constant_gains():
    u = SpectralMeasure.uniform()
    same = reweight(u, constant_gain(1.0), 1.0)
    assert same.mass_on(FULL) == pytest.approx(1.0, rel=1e-10)
    assert same.mass_on(ArcSet([(0.0, np.pi)])) == pytest.approx(0.5, rel=1e-12)
    double = reweight(u, constant_gain(2.0), 1.0)
    assert double.mass_on(FULL) == pytest.approx(2.0, rel=1e-10)


@st.composite
def identity_cases(draw):
    """(model, gain, b, arc): a Pareto(alpha) base with uniform, cosine-bump
    or discrete directions, a step gain with values in [0.1, b], an arc."""
    alpha = draw(st.floats(min_value=0.5, max_value=3.0))
    kind = draw(st.sampled_from(["uniform", "cosine_bump", "discrete"]))
    if kind == "uniform":
        sigma = SpectralMeasure.uniform()
    elif kind == "cosine_bump":
        sigma = SpectralMeasure.cosine_bump(draw(st.floats(-1.0, 1.0)))
    else:
        angles = draw(st.lists(st.floats(0.0, TWO_PI - 1e-6), min_size=1,
                               max_size=8))
        weights = draw(st.lists(st.floats(1e-3, 10.0), min_size=len(angles),
                                max_size=len(angles)))
        sigma = SpectralMeasure.discrete(angles, weights,
                                         merge=True).normalized()
    b = draw(st.floats(min_value=0.1, max_value=5.0))
    inner = draw(st.lists(st.floats(1e-9, TWO_PI - 1e-9), max_size=6,
                          unique=True))
    breaks = [0.0] + sorted(inner)
    values = draw(st.lists(st.floats(0.1, b), min_size=len(breaks),
                           max_size=len(breaks)))
    lo, hi = sorted(draw(st.lists(st.floats(0.0, TWO_PI), min_size=2,
                                  max_size=2, unique=True)))
    # a subnormal arc mass has fewer than 53 bits: no relative bound holds
    assume(hi - lo > 1e-9)
    model = PolarIndependentModel(sigma, alpha, ParetoLaw(alpha))
    return model, step_gain(breaks, values), b, ArcSet([(lo, hi)])


@given(identity_cases(), st.floats(min_value=1.0, max_value=1e3))
def test_exact_tail_equals_reweighted_limit_from_gain_bound(case, factor):
    # R >= 1 and h <= b: for r >= b, P{R h > r} = (h / r)^alpha exactly
    model, gain, b, arc = case
    r = b * factor
    limit = reweight(model.sigma, gain, model.alpha).mass_on(arc)
    tail = TransformedModel(model, gain).exact_tail(r, arc)
    assert tail * r ** model.alpha == pytest.approx(limit, rel=1e-12, abs=0.0)


def test_theorem2_identity_fails_below_the_gain_bound():
    model = PolarIndependentModel(SpectralMeasure.uniform(), 2.0, ParetoLaw(2.0))
    gain = gain_from_spec({"kind": "cosine", "base": 1.0, "amplitude": 0.5})
    transformed = TransformedModel(model, gain)
    limit = reweight(model.sigma, gain, 2.0)

    def closed(a, b):
        return _theorem2_closed_mass(a, b, 1.0, 0.5)

    assert _finite_r_identity_rel_err(transformed, limit, closed,
                                      [1.5, 10.0, 1e3]) <= 1e-12
    # at r = 1 < sup h = 1.5, r / h < 1 where h > 1, and there
    # P{R > r / h} is 1, not (h / r)^alpha
    assert _finite_r_identity_rel_err(transformed, limit, closed, [1.0]) > 0.1


# ----------------------------------------------------------------------
# moment gate


def test_moment_condition_gate_values():
    assert moment_condition(SpectralMeasure.uniform(), constant_gain(2.0),
                            1.0, 1.0) == pytest.approx(4.0, rel=1e-10)
    with pytest.raises(MomentDivergence):
        moment_condition(SpectralMeasure.uniform(), power_cusp_gain(0.0, 1.0),
                         1.0, 0.5)


# ----------------------------------------------------------------------
# transformed models


def test_transformed_model_discrete_exact_tail():
    sigma = SpectralMeasure.discrete([0.5, 4.0], [0.5, 0.5])
    base = PolarIndependentModel(sigma, 1.0, ParetoLaw(1.0))
    h = step_gain([0.0, 2.0], [2.0, 0.0])
    t = TransformedModel(base, h)
    # only the atom at 0.5 survives, with norms doubled
    assert t.exact_tail(3.0, FULL) == pytest.approx(0.5 * (2.0 / 3.0), rel=1e-12)
    b = t.sample(200_000, 6)
    assert b.zero_count > 0
    freq = np.count_nonzero(b.norms > 3.0) / 200_000
    assert freq == pytest.approx(t.exact_tail(3.0, FULL), abs=4e-3)


def test_transformed_model_discrete_exact_tail_on_the_sphere():
    sigma = SpectralMeasure.discrete(np.eye(3), [0.2, 0.3, 0.5])
    base = PolarIndependentModel(sigma, 1.0, ParetoLaw(1.0))
    # h = 1 + x3 doubles the norms on the pole and keeps the others
    t = TransformedModel(base, RadialGain(coords_fn=lambda x: 1.0 + x[2]))
    pole = CapSet([(np.array([0.0, 0.0, 1.0]), 0.9)])
    equator = CapSet([(np.array([1.0, 0.0, 0.0]), 0.9),
                      (np.array([0.0, 1.0, 0.0]), 0.9)])
    assert t.exact_tail(4.0, pole) == pytest.approx(0.5 * 2.0 / 4.0, rel=1e-15)
    assert t.exact_tail(4.0, equator) == pytest.approx(0.5 / 4.0, rel=1e-15)
    b = t.sample(200_000, 6)
    freq = np.count_nonzero(pole.contains(b.dirs) & (b.norms > 4.0)) / 200_000
    assert freq == pytest.approx(t.exact_tail(4.0, pole), abs=4e-3)
    with pytest.raises(DimensionMismatch, match="arcs are sets of angles"):
        t.exact_tail(4.0, FULL)


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("base, gain", [
    (Example2Model(1.0, 0.5, 1.2), Example2Gain(1.2)),
    (Example3Model(1.0), indicator_gain(ArcSet([(0.01, TWO_PI)]))),
    (PolarIndependentModel(SpectralMeasure.uniform(), 1.0, ParetoLaw(1.0)),
     step_gain([0.0, np.pi], [2.0, 0.5])),
], ids=["example2", "indicator", "no-zero"])
def test_transformed_model_equals_scaled_base_sample(base, gain, workers):
    # chunks scale one at a time and follow each other in chunk order; three
    # full chunks and a partial one, each dropping a different count. Worker
    # threads switch often, so a chunk handed out of order would show.
    n = 3 * 65536 + 17
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = TransformedModel(base, gain).sample(n, 5, workers)
    finally:
        sys.setswitchinterval(interval)
    want = radial_scale_apply(base.sample(n, 5), gain)
    for name in ("points", "norms", "dirs"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.points.flags.c_contiguous and got.dirs.flags.c_contiguous
    assert (got.size, got.zero_count) == (want.size, want.zero_count)


def discrete_polar_d2():
    return PolarIndependentModel(
        SpectralMeasure.discrete([0.3, 2.0, 4.0, 5.5], [0.2, 0.3, 0.4, 0.1]),
        1.5, ParetoLaw(1.5))


def discrete_polar_d3():
    sigma = SpectralMeasure.discrete(
        np.array([[0.0, 0.6, 1.0, 0.0], [0.0, 0.8, 0.0, -1.0], [1.0, 0.0, 0.0, 0.0]]),
        [0.4, 0.2, 0.3, 0.1])
    return PolarIndependentModel(sigma, 1.0, AtomPlusParetoLaw(1.0, 0.5))


def assert_same_batch(got, want):
    for name in ("points", "norms", "dirs"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.size, got.zero_count) == (want.size, want.zero_count)


# atomic bases: the gain is read from a table of its values at the atoms
ATOMIC_CASES = [
    (lambda: Example2Model(1.0, 0.5, 1.2), lambda: Example2Gain(1.2)),
    # nonzero on atoms 5 to 7 only
    (lambda: Example2Model(1.0, 0.5, 1.2), lambda: step_gain([0.0, 2.9, 3.1],
                                                             [0.0, 1.5, 0.0])),
    (discrete_polar_d2, lambda: step_gain([0.0, 1.0, 5.0], [2.0, 0.0, 0.5])),
    (discrete_polar_d2, lambda: indicator_gain(ArcSet([(0.0, 2.5)]))),
    (discrete_polar_d2, lambda: gain_from_spec(
        {"kind": "cosine", "base": 1.0, "amplitude": 0.75})),
    (discrete_polar_d3, lambda: RadialGain(coords_fn=lambda x: 1.0 + x[1])),
]
ATOMIC_IDS = ["example2-own", "example2-step", "d2-step", "d2-indicator",
              "d2-cosine", "d3-coordinate"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK + 1, 3 * CHUNK])
@pytest.mark.parametrize("base, gain", ATOMIC_CASES, ids=ATOMIC_IDS)
def test_atomic_transformed_model_equals_scaled_base_sample(base, gain, n, workers):
    base, gain = base(), gain()
    model = TransformedModel(base, gain)
    want = radial_scale_apply(base.sample(n, 9, workers), gain)
    assert_same_batch(model.sample(n, 9, workers), want)


@given(st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=1, max_size=6),
       st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=4, max_size=4),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]))
def test_atomic_transformed_model_matches_per_point_gain(atoms, values, seed, workers):
    # any atoms in the plane under a step gain that may be zero on some
    angles = np.unique(atoms)
    # atoms closer than the merge tolerance, across the seam too, are refused
    assume(angles.size == 1 or min(np.min(np.diff(angles)),
                                   angles[0] + TWO_PI - angles[-1]) > 1e-6)
    weights = np.full(angles.size, 1.0 / angles.size)
    base = PolarIndependentModel(SpectralMeasure.discrete(angles, weights),
                                 1.0, ParetoLaw(1.0))
    gain = step_gain([0.0, 1.5, 3.0, 4.5], values)
    want = radial_scale_apply(base.sample(CHUNK + 3, seed, workers), gain)
    assert_same_batch(TransformedModel(base, gain).sample(CHUNK + 3, seed, workers),
                      want)


def test_only_tabled_models_draw_by_atoms():
    assert Example2Model(1.0, 0.5, 1.2).atom_dirs.shape == (2, 55)
    assert discrete_polar_d3().atom_dirs.shape == (3, 4)
    for model in (Example1Model(1.0, 0.5), Example3Model(1.0),
                  PolarIndependentModel(SpectralMeasure.uniform(), 1.0, ParetoLaw(1.0)),
                  TransformedModel(Example2Model(1.0, 0.5, 1.2), Example2Gain(1.2))):
        assert model.atom_dirs is None


@pytest.mark.parametrize("bad", [
    RadialGain(angle_fn=lambda t: np.where(t > 5.0, -1.0, 1.0)),
    RadialGain(angle_fn=lambda t: np.where(t > 5.0, np.nan, 1.0)),
    RadialGain(angle_fn=lambda t: np.where(t > 5.0, 2.0, 1.0), declared_bound=1.0),
], ids=["negative", "nan", "over-bound"])
def test_gain_table_refuses_a_bad_atom_at_construction(bad):
    # the atom at 5.5 is bad; a per-point scale meets it only where drawn
    base = discrete_polar_d2()
    with pytest.raises(InvalidGain):
        TransformedModel(base, bad)
    ok = TransformedModel(PolarIndependentModel(
        SpectralMeasure.discrete([0.3, 2.0], [0.5, 0.5]), 1.5, ParetoLaw(1.5)), bad)
    assert ok.sample(100, 1).size == 100


def test_gain_table_refuses_a_planar_gain_on_atoms_in_space():
    with pytest.raises(DimensionMismatch):
        TransformedModel(discrete_polar_d3(), step_gain([0.0, 1.0], [1.0, 2.0]))


def test_atomic_transformed_model_refuses_an_overflowed_norm_at_a_zero_gain():
    # a base norm that overflows is refused as the untransformed sample
    # refuses it, even where the gain would remove its point
    base = PolarIndependentModel(SpectralMeasure.discrete([0.5], [1.0]), 0.01,
                                 ParetoLaw(0.01))
    with pytest.raises(NonFiniteInput):
        base.sample(20_000, 1)
    with pytest.raises(NonFiniteInput):
        TransformedModel(base, constant_gain(0.0)).sample(20_000, 1)


def test_transformed_model_density_exact_tail_quadrature():
    base = PolarIndependentModel(SpectralMeasure.uniform(), 1.0, ParetoLaw(1.0))
    h = step_gain([0.0, np.pi], [2.0, 1.0])
    t = TransformedModel(base, h)
    # P{R h > r} = (pi * (2/r) + pi * (1/r)) / (2 pi) for r >= 2
    assert t.exact_tail(4.0, FULL) == pytest.approx((0.5 / 4.0 + 0.25 / 4.0) * 2,
                                                    rel=1e-9)


def test_transformed_example2_matches_series():
    # over the full circle: atoms with k^1.2 <= r keep the Pareto branch
    # k^(1.2 - 0.5) / r, the others their whole mass, 1 / (split + 1) in all
    base = Example2Model(1.0, 0.5, 1.2)
    t = TransformedModel(base, Example2Gain(1.2))
    r = 300.0
    split = max(k for k in range(1, 200) if k ** 1.2 <= r)
    k = np.arange(1, split + 1, dtype=float)
    series = float(np.sum(k ** 0.7 / (k * (k + 1)))) / r + 1.0 / (split + 1)
    assert t.exact_tail(r, FULL) == pytest.approx(series, rel=1e-14)
    assert t.exact_tail(r, FULL) == base.gained_tail(r, FULL, t.gain)


def test_transformed_model_unknown_pairs_return_none():
    base = Example3Model(1.0)
    t = TransformedModel(base, constant_gain(2.0))
    assert t.exact_tail(2.0, FULL) is None
    # the accumulating atoms know their tail after their own gain only,
    # whose beta must match to 1e-12
    example2 = Example2Model(1.0, 0.5, 1.2)
    for gain in (Example2Gain(1.2 + 1e-9), constant_gain(2.0)):
        assert TransformedModel(example2, gain).exact_tail(2.0, FULL) is None
    assert TransformedModel(example2, Example2Gain(1.2 + 1e-13)).exact_tail(
        2.0, FULL) is not None
