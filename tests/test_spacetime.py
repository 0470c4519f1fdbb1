import math

import numpy as np
import pytest

from gravclock import kernels
from gravclock.constants import CODATA, PhysicalConstants
from gravclock.errors import DomainError, WeakFieldViolation
from gravclock.geodesic import BoundaryConditions, verify_first_order
from gravclock.spacetime import RotatingMassModel, SpacetimePoint

PT = SpacetimePoint(0.0, 1.0, math.pi / 3, 0.7)
REST = (0.0, 0.0, 0.0)
# at unit dphi/dt the squared speed of weak_field_terms is g_phph
UNIT_DPHI = (0.0, 0.0, 1.0)


def _params(model, constants=CODATA):
    return constants.G * model.M, constants.G * model.J, constants.c


def _terms(model, pt, vel=UNIT_DPHI):
    """(2GM/(c^2 r), v^2, h_tphi) from the kernels."""
    return kernels.weak_field_terms(pt.r, pt.theta, *vel, *_params(model))


def _share(model, pt, vel):
    """The frame-dragging share of the background radicand, from the kernels."""
    return kernels.perturbation_share_array(pt.r, pt.theta, *vel, *_params(model))[0]


def _radicand(model, pt, vel):
    """(dtau/dt)^2 from the kernels, frame dragging included."""
    return kernels.radicand_array(pt.r, pt.theta, *vel, *_params(model))


def test_minkowski_limit_is_exactly_flat():
    eps, g_phph, h_tphi = _terms(RotatingMassModel(0.0, 0.0), PT)
    assert (-1.0 + eps, 1.0 + eps) == (-1.0, 1.0)
    assert g_phph == PT.r**2 * math.sin(PT.theta) ** 2
    assert h_tphi == 0.0


def test_frame_dragging_entry_matches_direct_arithmetic():
    pt = SpacetimePoint(0.0, 1.0, math.pi / 2, 0.0)
    h_tphi = _terms(RotatingMassModel(0.0, 1.0), pt)[2]
    expected = -4.0 * 6.67430e-11 / (2.99792458e8**3)
    assert abs(h_tphi / expected - 1.0) < 1e-12
    assert -1.0e-35 < h_tphi < -9.9e-36


def test_h_tphi_is_odd_in_j_and_diagonal_is_even():
    vel = (10.0, 0.3, 5.0)
    eps1, v2_1, h1 = _terms(RotatingMassModel(2.0, 3.0), PT, vel)
    eps2, v2_2, h2 = _terms(RotatingMassModel(2.0, -3.0), PT, vel)
    assert h2 == -h1
    assert (eps2, v2_2) == (eps1, v2_1)


def test_weak_field_guard_and_domain_errors():
    # 2GM/(c^2 r) = 0.6 at the start event of a verify study
    unit = PhysicalConstants(c=1.0, G=1.0, hbar=1.0)
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, math.pi / 2, 0.0), SpacetimePoint(30.0, 1.0, math.pi / 2, 0.3)
    )
    with pytest.raises(WeakFieldViolation, match=r"^2GM/\(c\^2 r\) = 6\.000e-01 >= threshold 5\.000e-01$"):
        verify_first_order(RotatingMassModel(0.3, 1e-3), bc, [1.0, 2.0], constants=unit, n_segments=8)
    with pytest.raises(DomainError):
        SpacetimePoint(0.0, -1.0, math.pi / 2, 0.0)
    with pytest.raises(DomainError):
        SpacetimePoint(0.0, 1.0, 4.0, 0.0)
    with pytest.raises(DomainError):
        RotatingMassModel(-1.0, 0.0)


@pytest.mark.parametrize("field", ["M", "J"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_inputs(field, value):
    kwargs = {"M": 1.0, "J": 1.0, field: value}
    with pytest.raises(DomainError, match=f"^{field} must be finite"):
        RotatingMassModel(**kwargs)


def test_rate_minkowski_at_rest_is_one():
    assert _radicand(RotatingMassModel(0.0, 0.0), PT, REST) == 1.0


@pytest.mark.parametrize("direction", ["radial", "azimuthal"])
def test_rate_at_point_six_c_is_point_eight(direction):
    c = CODATA.c
    pt = SpacetimePoint(0.0, 2.0, math.pi / 2, 0.0)
    if direction == "radial":
        vel = (0.6 * c, 0.0, 0.0)
    else:
        vel = (0.0, 0.0, 0.6 * c / pt.r)
    rate = math.sqrt(_radicand(RotatingMassModel(0.0, 0.0), pt, vel))
    assert abs(rate - 0.8) < 1e-15


def _written_out_metric(model, pt):
    """(g_tt, g_rr, g_thth, g_phph, h_tphi) at pt, from the line element in the module docstring."""
    G, c = CODATA.G, CODATA.c
    eps = 2.0 * G * model.M / (c**2 * pt.r)
    s2 = math.sin(pt.theta) ** 2
    return -1.0 + eps, 1.0 + eps, pt.r**2, pt.r**2 * s2, -4.0 * G * model.J * s2 / (c**3 * pt.r)


def test_rate_matches_full_metric_contraction():
    model = RotatingMassModel(5.0e23, 3.0e32)
    pt = SpacetimePoint(0.0, 8.0e6, 1.1, 2.2)
    dr_dt, dtheta_dt, dphi_dt = vel = (120.0, 1.0e-5, 3.0e-5)
    g_tt, g_rr, g_thth, g_phph, h_tphi = _written_out_metric(model, pt)
    c = CODATA.c
    contraction = -(
        g_tt * c**2
        + g_rr * dr_dt**2
        + g_thth * dtheta_dt**2
        + g_phph * dphi_dt**2
        + 2.0 * h_tphi * c * dphi_dt
    )
    assert abs(math.sqrt(_radicand(model, pt, vel)) / (math.sqrt(contraction) / c) - 1.0) < 1e-12


def test_rate_raises_for_superluminal_motion():
    # not timelike: the radicand under dtau/dt is negative
    assert _radicand(RotatingMassModel(0.0, 0.0), PT, (1.1 * CODATA.c, 0.0, 0.0)) < 0.0


def test_energy_ratio_values():
    c = CODATA.c
    assert kernels.energy_ratio_from_speed(PT.r, 0.0, 0.0, c) == 1.0
    # far from the mass it is the K factor 1 + v0^2 / (2 c^2)
    v0 = 2.0e3
    k = 1.0 + 0.5 * v0**2 / c**2
    assert abs(kernels.energy_ratio_from_speed(1e15, v0**2, CODATA.G * 1.0, c) - k) < 1e-16


def test_perturbation_validity_vanishes_without_rotation():
    assert _share(RotatingMassModel(1.0, 0.0), PT, (10.0, 0.0, 5.0)) == 0.0


def test_perturbation_validity_linear_in_j():
    vals = [_share(RotatingMassModel(1.0, j), PT, (10.0, 0.0, 5.0)) for j in (1.0, 2.0, 4.0)]
    assert abs(vals[1] / vals[0] - 2.0) < 1e-12
    assert abs(vals[2] / vals[0] - 4.0) < 1e-12


def test_perturbation_validity_laboratory_scale():
    model = RotatingMassModel(1.0, 1.0)
    pt = SpacetimePoint(0.0, 1e-3, math.pi / 2, 0.0)
    ratio = _share(model, pt, (0.0, 0.0, 1.0e2 / 1e-3))
    assert 0.0 < ratio < 1e-20
    # against the written-out metric: |2 h_tphi c v_phi| / |g_tt c^2 + g_phph v_phi^2|
    g_tt, _, _, g_phph, h_tphi = _written_out_metric(model, pt)
    c, vph = CODATA.c, 1.0e2 / 1e-3
    assert ratio == pytest.approx(abs(2.0 * h_tphi * c * vph / (g_tt * c**2 + g_phph * vph**2)), rel=1e-14)


def test_rate_radicand_stays_in_unit_interval_for_bound_motion():
    rng = np.random.default_rng(42)
    model = RotatingMassModel(5.0e23, 1.0e30)
    c = CODATA.c
    for _ in range(500):
        pt = SpacetimePoint(0.0, rng.uniform(1e6, 1e8), rng.uniform(0.3, math.pi - 0.3), 0.0)
        speed = rng.uniform(0.0, 0.3) * c
        angle = rng.uniform(0.0, 2.0 * math.pi)
        vel = (
            speed * math.cos(angle),
            0.0,
            speed * math.sin(angle) / (pt.r * math.sin(pt.theta)),
        )
        assert 0.0 < _radicand(model, pt, vel) <= 1.0
        squared_speed = _terms(model, pt, vel)[1]
        assert abs(squared_speed / speed**2 - 1.0) < 2e-9
