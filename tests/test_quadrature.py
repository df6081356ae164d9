"""Accuracy of the numpy quadrature and Hurwitz zeta.

Masses of densities on arc unions agree with `scipy.integrate.quad`
within 1e-12, cusp moments agree with their closed form, and the Hurwitz
zeta agrees with `scipy.special.zeta`; scipy is an oracle of the tests
only.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import integrate, special

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
from regvar.models import _hurwitz_zeta
from regvar.quadrature import integrate as numpy_integrate
from regvar.sphere import TWO_PI, ArcSet

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


def test_divergent_shells_return_infinity():
    h = power_cusp_gain(2.0, 1.0)
    assert numpy_integrate(h.at_angles, 0.0, TWO_PI, h.singular_points) \
        == (np.inf, np.inf)


@given(st.floats(min_value=1.0, max_value=60.0, exclude_min=True),
       st.integers(min_value=64, max_value=1_000_000))
def test_hurwitz_zeta_matches_scipy(x, q):
    # q is an integer, as where the series tails start; scipy's own error
    # grows to ~7e-15 at non-integer q just below powers of two, and near
    # the underflow threshold its terms lose bits
    ref = float(special.zeta(x, q))
    assume(ref > 1e-290)
    assert abs(float(_hurwitz_zeta(x, q)) - ref) <= 2e-15 * ref
