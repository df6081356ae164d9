import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from regvar.batch import SampleBatch
from regvar.errors import DegeneratePoint, DimensionMismatch, NonFiniteInput
from regvar.sphere import (
    TWO_PI,
    ArcSet,
    CapSet,
    angles_of,
    directions_of,
    norms_of,
    polar,
    unit_vector,
    wrap_angle,
)


def test_polar_axis_points():
    norm, d = polar(np.array([3.0, 0.0]))
    assert norm == 3.0
    assert angles_of(d[:, None])[0] == 0.0

    norm, d = polar(np.array([0.0, -5.0]))
    assert norm == 5.0
    assert angles_of(d[:, None])[0] == pytest.approx(3 * np.pi / 2, abs=1e-15)


def test_polar_hand_3d():
    # |(1, 1, sqrt(2))| = 2 by hand
    norm, d = polar(np.array([1.0, 1.0, np.sqrt(2.0)]))
    assert norm == pytest.approx(2.0, abs=1e-15)
    np.testing.assert_allclose(d, [0.5, 0.5, np.sqrt(2.0) / 2], atol=1e-15)


def test_polar_zero_vector_raises():
    with pytest.raises(DegeneratePoint):
        polar(np.zeros(2))
    with pytest.raises(DegeneratePoint):
        SampleBatch.from_points(np.array([[1.0, 0.0], [1.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batch_rejects_non_finite_coordinates(bad):
    pts = np.array([[1.0, 2.0, bad], [1.0, 0.5, 3.0]])
    with pytest.raises(NonFiniteInput):
        SampleBatch.from_points(pts)


def test_polar_recompose_many_dims():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4, 5):
        pts = rng.standard_normal((d, 1_000_000 if d == 2 else 10_000))
        batch = SampleBatch.from_points(pts)
        norms, dirs = batch.norms, batch.dirs
        assert norms.tobytes() == np.sqrt(np.sum(pts * pts, axis=0)).tobytes()
        err = np.sqrt(np.sum((dirs * norms - pts) ** 2, axis=0))
        assert np.max(err / np.sqrt(np.sum(pts * pts, axis=0))) <= 1e-10


def test_polar_tiny_and_huge_points():
    norm, d = polar(np.array([1e-170, 0.0]))
    assert norm == 1e-170
    np.testing.assert_array_equal(d, [1.0, 0.0])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        norm, d = polar(np.array([1e200, 1.0]))
    assert norm == 1e200
    assert d[0] == 1.0 and 0.0 < d[1] < 1e-199


def test_norms_of_zero_column_and_overflow():
    np.testing.assert_array_equal(norms_of(np.array([[0.0, 3.0], [0.0, 4.0]])),
                                  [0.0, 5.0])
    with pytest.raises(NonFiniteInput):
        norms_of(np.array([[1.5e308], [1.5e308]]))
    with pytest.raises(NonFiniteInput):
        polar(np.array([np.nan, 1.0]))


_SCALED = st.builds(lambda sign, mant, exp: sign * mant * 10.0 ** exp,
                    st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.999),
                    st.integers(-300, 300))


# sums of squares at, just below and just above the smallest normal double
@example([[2.0 ** -511, 0.0], [math.nextafter(2.0 ** -511, 0.0), 0.0],
          [math.nextafter(2.0 ** -511, 1.0), 0.0]])
# d = 5: normal columns beside ones that take the underflow and overflow
# rescues in the same call
@example([[1.0, -2.0, 3.0, 0.5, 1e-3], [1e-200, 0.0, 3e-201, 0.0, 1e-300],
          [1e200, -1e200, 2.0, 0.0, 1e150], [0.1, 0.2, 0.3, 0.4, 0.5]])
@given(st.integers(2, 5).flatmap(
    lambda d: st.lists(st.lists(_SCALED, min_size=d, max_size=d),
                       min_size=1, max_size=20)))
def test_norms_of_match_hypot_over_exponents(rows):
    pts = np.array(rows).T
    norms = norms_of(pts)
    assert np.all(np.isfinite(norms)) and np.all(norms > 0.0)
    for col, norm in zip(rows, norms):
        exact = math.hypot(*col)
        assert abs(norm - exact) <= 4 * math.ulp(exact)
    with np.errstate(over="ignore"):
        sq = np.sum(pts * pts, axis=0)
    normal = (sq >= np.finfo(float).tiny) & np.isfinite(sq)
    # the row-by-row sum gives np.sum's bits: the same additions in order
    assert norms[normal].tobytes() == np.sqrt(sq[normal]).tobytes()


def test_angle_direction_roundtrip_grid():
    theta = np.linspace(0.0, TWO_PI, 10_000, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)])
    back = angles_of(dirs)
    assert np.max(np.abs(back - theta)) <= 1e-12


def test_angle_of_trivials():
    got = angles_of(np.array([[0.0, -1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(got, [np.pi / 2, np.pi], rtol=0.0, atol=1e-15)


def test_direction_of_hand():
    d = directions_of(7 * np.pi / 4)
    np.testing.assert_allclose(d, [np.sqrt(2) / 2, -np.sqrt(2) / 2], atol=1e-15)


def test_angle_of_wrong_dim():
    with pytest.raises(DimensionMismatch):
        angles_of(np.array([[1.0], [0.0], [0.0]]))


def test_unit_vector_validation():
    with pytest.raises(ValueError):
        unit_vector(np.array([1.0, 1.0]))
    v = unit_vector(np.array([0.6, 0.8]))
    assert v.shape == (2,)


def test_wrap_angle_edges():
    assert wrap_angle(TWO_PI) == 0.0
    assert wrap_angle(-1e-20) == 0.0
    assert 0.0 <= wrap_angle(-0.5) < TWO_PI


def mod_wrap(theta):
    """Reference: np.mod with 2*pi sent to 0."""
    out = np.mod(np.asarray(theta, dtype=float), TWO_PI)
    return np.where(out >= TWO_PI, 0.0, out)


WRAP_EDGES = [-0.0, 0.0, TWO_PI, -TWO_PI, 5e-324, -5e-324, -1e-17,
              math.nextafter(TWO_PI, 0.0), -math.nextafter(TWO_PI, 0.0),
              math.nextafter(TWO_PI, 7.0), -math.nextafter(TWO_PI, 7.0)]


@example(theta=[])
@example(theta=WRAP_EDGES)
@example(theta=WRAP_EDGES + [7.0, -100.0, 1e300])
@example(theta=[0.5, math.nan, -0.0])
@given(theta=st.one_of(
    st.lists(st.floats(-TWO_PI, TWO_PI), max_size=40),
    st.lists(st.floats(-1e300, 1e300) | st.just(math.nan), max_size=40)))
def test_wrap_angle_equals_mod_bit_for_bit(theta):
    """Inside [-2*pi, 2*pi] wrap_angle skips np.mod; the bits, -0 -> +0
    included, are np.mod's. Outside it and for NaN it runs np.mod."""
    got = wrap_angle(np.asarray(theta, dtype=float))
    assert got.dtype == np.float64 and got.shape == (len(theta),)
    np.testing.assert_array_equal(got.view(np.int64),
                                  mod_wrap(theta).view(np.int64))
    for x in theta:
        one = wrap_angle(x)
        assert type(one) is float
        assert np.float64(one).view(np.int64) == mod_wrap(x).view(np.int64)


def test_directions_of_equals_cos_sin_stack():
    theta = np.concatenate([np.linspace(-7.0, 7.0, 1001), [-0.0, 0.0]])
    np.testing.assert_array_equal(directions_of(theta),
                                  np.stack([np.cos(theta), np.sin(theta)]))
    np.testing.assert_array_equal(directions_of(1.25),
                                  [np.cos(1.25), np.sin(1.25)])


def test_arc_membership_basics():
    half = ArcSet([(0.0, np.pi)])
    assert half.contains(np.pi / 2)
    assert not half.contains(np.pi)  # half-open at b
    assert half.contains(0.0)  # closed at a

    wrap = ArcSet([(3 * np.pi / 2, TWO_PI), (0.0, np.pi / 4)])
    assert wrap.contains(0.1)
    assert wrap.contains(3 * np.pi / 2)
    assert not wrap.contains(np.pi)


def test_arcset_validation():
    with pytest.raises(ValueError):
        ArcSet([(1.0, 0.5)])
    with pytest.raises(ValueError):
        ArcSet([(0.0, 1.0), (0.5, 2.0)])  # overlap
    s = ArcSet([(1.0, 2.0), (0.0, 1.0)])  # touching is fine, gets sorted
    assert s.arcs[0][0] == 0.0
    assert s.arcs == ((0.0, 1.0), (1.0, 2.0))


@given(st.lists(st.floats(min_value=0.0, max_value=TWO_PI - 1e-9,
                          allow_nan=False), min_size=4, max_size=8,
                unique=True),
       st.floats(min_value=0.0, max_value=TWO_PI - 1e-12))
def test_disjoint_arcs_partition(breaks, theta):
    bs = sorted(breaks)
    a = ArcSet([(bs[0], bs[1])])
    b = ArcSet([(bs[2], bs[3])])
    assert not (a.contains(theta) and b.contains(theta))


def test_capset_membership():
    north = np.array([0.0, 0.0, 1.0])
    caps = CapSet([(north, 0.5)])
    assert caps.contains(north)
    assert not caps.contains(np.array([1.0, 0.0, 0.0]))
    many = np.stack([north, np.array([0.0, 1.0, 0.0])], axis=1)
    np.testing.assert_array_equal(caps.contains(many), [True, False])


def test_capset_validation():
    with pytest.raises(ValueError):
        CapSet([(np.array([0.0, 0.0, 1.0]), 1.5)])
    with pytest.raises(DimensionMismatch):
        CapSet([(np.array([0.0, 0.0, 1.0]), 0.0)]).contains(np.array([1.0, 0.0]))
