"""Accuracy of the numpy quadrature and Hurwitz zeta.

Masses of densities on arc unions agree with `scipy.integrate.quad`
within 1e-12, cusp integrals agree with their closed form and with
QUADPACK's weighted rule (`quad(..., weight="alg")`) within the reported
error, a rescaled tail with a kink agrees with its closed form, and the
Hurwitz zeta agrees with `scipy.special.zeta`; scipy is an oracle of the
tests only.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import integrate, special

from regvar import quadrature
from regvar.errors import MomentDivergence
from regvar.measures import (
    SpectralMeasure,
    indicator_gain,
    moment_condition,
    power_cusp_gain,
    pushforward,
    reweight,
    step_gain,
    step_map,
)
from regvar.models import PolarIndependentModel, _hurwitz_zeta
from regvar.quadrature import integrate as numpy_integrate
from regvar.radial import ParetoLaw
from regvar.sphere import TWO_PI, ArcSet
from regvar.transforms import TransformedModel

ARC_UNIONS = [
    [(0.0, TWO_PI)],
    [(0.3, 2.5), (4.0, 5.0)],
    [(0.0, 1.0), (1.0, np.pi), (5.5, TWO_PI)],
    [(np.pi / 2, np.pi / 2 + 1e-3)],
]


def _scipy_mass(m: SpectralMeasure, arcs) -> float:
    # quad passes scalars; the densities are written for arrays
    def fn(t):
        return float(m.density_fn(np.array([t]))[0])

    total = 0.0
    for a, b in arcs:
        pts = sorted(p for p in m.singular_points if a < p < b)
        total += integrate.quad(fn, a, b, points=pts or None,
                                limit=200, epsabs=1e-14, epsrel=1e-13)[0]
    return total


DENSITIES = {
    "cosine_bump": SpectralMeasure.cosine_bump(0.5),
    "step_reweighted": reweight(SpectralMeasure.cosine_bump(-0.7),
                                step_gain([0.0, 1.0, 2.5, 4.0],
                                          [1.0, 3.0, 0.5, 2.0]), 1.5),
    "indicator_reweighted": reweight(SpectralMeasure.cosine_bump(0.9),
                                     indicator_gain(ArcSet([(0.5, 2.0),
                                                            (3.0, 5.5)])), 2.0),
}


@pytest.mark.parametrize("arcs", ARC_UNIONS, ids=range(len(ARC_UNIONS)))
@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_density_mass_matches_scipy(name, arcs):
    m = DENSITIES[name]
    assert m.mass_on(ArcSet(arcs)) == pytest.approx(_scipy_mass(m, arcs),
                                                    abs=1e-12)


@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_total_mass_matches_scipy(name):
    m = DENSITIES[name]
    assert m.total_mass == pytest.approx(_scipy_mass(m, [(0.0, TWO_PI)]),
                                         abs=1e-12)


@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_step_map_pushforward_masses_match_scipy(name):
    breaks = [0.0, 0.7, 2.0, 3.3, 5.9]
    image = pushforward(DENSITIES[name], step_map(breaks, [1.0, 2.0, 3.0, 4.0, 5.0]))
    stops = breaks[1:] + [TWO_PI]
    expected = {float(v): _scipy_mass(DENSITIES[name], [(a, b)])
                for v, a, b in zip([1.0, 2.0, 3.0, 4.0, 5.0], breaks, stops)}
    got = dict(zip(image.angles.tolist(), image.weights.tolist()))
    assert set(got) == {v for v, mass in expected.items() if mass > 0}
    for v, mass in got.items():
        assert mass == pytest.approx(expected[v], abs=1e-12)


def _cusp_moment(center, s):
    # against the uniform measure with alpha = 1, epsilon = 0.5: the
    # integrand is |t - center|^-s / (2 pi) with s = 1.5 gamma
    return moment_condition(SpectralMeasure.uniform(),
                            power_cusp_gain(center, s / 1.5), 1.0, 0.5)


@pytest.mark.parametrize("center", [np.pi, 0.0], ids=["pi", "zero"])
@pytest.mark.parametrize("s, rel", [(0.3, 1e-10), (0.6, 1e-10), (0.9, 1e-10),
                                    (0.99, 1e-8)])
def test_cusp_moment_matches_closed_form(center, s, rel):
    closed = 2.0 * np.pi ** (1.0 - s) / ((1.0 - s) * TWO_PI)
    assert _cusp_moment(center, s) == pytest.approx(closed, rel=rel)


@pytest.mark.parametrize("center", [np.pi, 0.0], ids=["pi", "zero"])
@pytest.mark.parametrize("s", [1.0, 1.2, 1.5])
def test_cusp_moment_divergence(center, s):
    with pytest.raises(MomentDivergence):
        _cusp_moment(center, s)


def test_end_of_order_one_or_more_returns_infinity():
    h = power_cusp_gain(2.0, 1.0)
    # the cusp, and the kink of the circular distance at its antipode
    assert h.singular_points == {2.0: 1.0, 2.0 + np.pi: 0.0}
    assert numpy_integrate(h.at_angles, 0.0, TWO_PI, h.singular_points) \
        == (np.inf, np.inf)
    # an end of order 1 makes the integral diverge whichever piece holds it
    assert numpy_integrate(h.at_angles, 2.0, 3.0, h.singular_points) \
        == (np.inf, np.inf)


@pytest.mark.parametrize("s", [0.3, 0.6, 0.9, 0.99])
def test_cusp_under_smooth_factor_matches_qaws(s):
    # a cusp of order s at 3 under a non-constant factor; scipy's QAWS
    # integrates the weight |t - 3|^-s exactly on each side
    def smooth(t):
        return (1.0 + 0.5 * np.cos(t)) / TWO_PI

    ref = sum(integrate.quad(smooth, lo, hi, weight="alg", wvar=wvar,
                             epsabs=1e-15, epsrel=1e-14, limit=200)[0]
              for lo, hi, wvar in [(0.0, 3.0, (0.0, -s)),
                                   (3.0, TWO_PI, (-s, 0.0))])
    value, abserr = numpy_integrate(lambda t: smooth(t) * np.abs(t - 3.0) ** -s,
                                    0.0, TWO_PI, {3.0: s})
    assert abs(value - ref) <= 1e-10 * ref
    assert abs(value - ref) <= abserr


@pytest.mark.parametrize("center", [3.0, 1.0])
def test_power_cusp_moment_is_cut_at_the_antipode(center, monkeypatch):
    # |t - c|^-0.3 (1 + cos(t) / 2) / (2 pi): QAWS on the two pieces at the
    # cusp, a plain rule beyond the antipode, where the distance is
    # 2 pi + c - t
    s = 0.3

    def smooth(t):
        return (1.0 + 0.5 * np.cos(t)) / TWO_PI

    far = center + np.pi
    opts = {"epsabs": 1e-15, "epsrel": 1e-13, "limit": 200}
    ref = (integrate.quad(smooth, 0.0, center, weight="alg", wvar=(0.0, -s), **opts)[0]
           + integrate.quad(smooth, center, far, weight="alg", wvar=(-s, 0.0), **opts)[0]
           + integrate.quad(lambda t: smooth(t) * (TWO_PI + center - t) ** -s,
                            far, TWO_PI, **opts)[0])
    calls = []
    rows = quadrature._rows
    monkeypatch.setattr(quadrature, "_rows",
                        lambda *args: calls.append(1) or rows(*args))
    value = moment_condition(SpectralMeasure.cosine_bump(0.5),
                             power_cusp_gain(center, 0.2), 1.0, 0.5)
    assert value == pytest.approx(ref, rel=1e-12)
    # every piece meets the tolerance at once: no row is bisected
    assert len(calls) == 1


def test_reweight_by_non_integrable_cusp_names_angle_and_order():
    with pytest.raises(MomentDivergence, match=r"\|t - c\|\^-1 at c = 3\.14159"):
        reweight(SpectralMeasure.uniform(), power_cusp_gain(np.pi, 1.0), 1.0)


@pytest.mark.parametrize("r, closed", [(2.0, 0.98924078373330),
                                       (10.0, 0.99420641795777),
                                       (100.0, 0.99421437490915)])
def test_cusp_gain_tail_with_kink_matches_closed_form(r, closed):
    # uniform sigma, Pareto(1) norms, gain |t - pi|^-0.2: r P{R h > r} is
    # (pi^0.8 / 0.8 - r^-4 / 0.8 + r^-4) / pi, with a kink where h = r
    model = PolarIndependentModel(SpectralMeasure.uniform(), 1.0, ParetoLaw(1.0))
    tail = TransformedModel(model, power_cusp_gain(np.pi, 0.2)).exact_tail(
        r, ArcSet.full_circle())
    assert (np.pi ** 0.8 / 0.8 - r ** -4 / 0.8 + r ** -4) / np.pi \
        == pytest.approx(closed, rel=1e-13)
    assert r * tail == pytest.approx(closed, rel=1e-12)


@given(st.floats(min_value=1.0, max_value=60.0, exclude_min=True),
       st.integers(min_value=64, max_value=1_000_000))
def test_hurwitz_zeta_matches_scipy(x, q):
    # q is an integer, as where the series tails start; scipy's own error
    # grows to ~7e-15 at non-integer q just below powers of two, and near
    # the underflow threshold its terms lose bits
    ref = float(special.zeta(x, q))
    assume(ref > 1e-290)
    assert abs(float(_hurwitz_zeta(x, q)) - ref) <= 2e-15 * ref
