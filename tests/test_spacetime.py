import math

import numpy as np
import pytest

from gravclock import kernels
from gravclock.constants import CODATA
from gravclock.errors import DomainError, WeakFieldViolation
from gravclock.spacetime import (
    CoordinateVelocity,
    RotatingMassModel,
    SpacetimePoint,
    metric_at,
    perturbation_validity,
    squared_speed,
)

PT = SpacetimePoint(0.0, 1.0, math.pi / 3, 0.7)
REST = CoordinateVelocity(0.0, 0.0, 0.0)


def _radicand(model, pt, vel):
    """(dtau/dt)^2 from the kernels, frame dragging included."""
    return kernels.radicand_array(
        pt.r, pt.theta, vel.dr_dt, vel.dtheta_dt, vel.dphi_dt,
        CODATA.G * model.M, CODATA.G * model.J, CODATA.c, 1,
    )


def test_minkowski_limit_is_exactly_flat():
    g = metric_at(RotatingMassModel(0.0, 0.0), PT)
    assert g.g_tt == -1.0
    assert g.g_rr == 1.0
    assert g.g_thth == PT.r**2
    assert g.g_phph == PT.r**2 * math.sin(PT.theta) ** 2
    assert g.h_tphi == 0.0


def test_frame_dragging_entry_matches_direct_arithmetic():
    pt = SpacetimePoint(0.0, 1.0, math.pi / 2, 0.0)
    g = metric_at(RotatingMassModel(0.0, 1.0), pt)
    expected = -4.0 * 6.67430e-11 / (2.99792458e8**3)
    assert abs(g.h_tphi / expected - 1.0) < 1e-12
    assert -1.0e-35 < g.h_tphi < -9.9e-36


def test_h_tphi_is_odd_in_j_and_diagonal_is_even():
    model = RotatingMassModel(2.0, 3.0)
    flipped = RotatingMassModel(2.0, -3.0)
    g1 = metric_at(model, PT)
    g2 = metric_at(flipped, PT)
    assert g2.h_tphi == -g1.h_tphi
    assert (g2.g_tt, g2.g_rr, g2.g_thth, g2.g_phph) == (g1.g_tt, g1.g_rr, g1.g_thth, g1.g_phph)


def test_weak_field_guard_and_domain_errors():
    heavy = RotatingMassModel(1e27, 0.0)
    with pytest.raises(WeakFieldViolation):
        metric_at(heavy, SpacetimePoint(0.0, 1e-3, math.pi / 2, 0.0))
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
        vel = CoordinateVelocity(0.6 * c, 0.0, 0.0)
    else:
        vel = CoordinateVelocity(0.0, 0.0, 0.6 * c / pt.r)
    rate = math.sqrt(_radicand(RotatingMassModel(0.0, 0.0), pt, vel))
    assert abs(rate - 0.8) < 1e-15


def test_rate_matches_full_metric_contraction():
    model = RotatingMassModel(5.0e23, 3.0e32)
    pt = SpacetimePoint(0.0, 8.0e6, 1.1, 2.2)
    vel = CoordinateVelocity(120.0, 1.0e-5, 3.0e-5)
    g = metric_at(model, pt)
    c = CODATA.c
    contraction = -(
        g.g_tt * c**2
        + g.g_rr * vel.dr_dt**2
        + g.g_thth * vel.dtheta_dt**2
        + g.g_phph * vel.dphi_dt**2
        + 2.0 * g.h_tphi * c * vel.dphi_dt
    )
    assert abs(math.sqrt(_radicand(model, pt, vel)) / (math.sqrt(contraction) / c) - 1.0) < 1e-12


def test_rate_raises_for_superluminal_motion():
    # not timelike: the radicand under dtau/dt is negative
    assert _radicand(RotatingMassModel(0.0, 0.0), PT, CoordinateVelocity(1.1 * CODATA.c, 0.0, 0.0)) < 0.0


def test_energy_ratio_values():
    c = CODATA.c
    assert kernels.energy_ratio_from_speed(PT.r, 0.0, 0.0, c) == 1.0
    # far from the mass it is the K factor 1 + v0^2 / (2 c^2)
    v0 = 2.0e3
    k = 1.0 + 0.5 * v0**2 / c**2
    assert abs(kernels.energy_ratio_from_speed(1e15, v0**2, CODATA.G * 1.0, c) - k) < 1e-16


def test_perturbation_validity_vanishes_without_rotation():
    vel = CoordinateVelocity(10.0, 0.0, 5.0)
    assert perturbation_validity(RotatingMassModel(1.0, 0.0), PT, vel) == 0.0


def test_perturbation_validity_linear_in_j():
    vel = CoordinateVelocity(10.0, 0.0, 5.0)
    vals = [
        perturbation_validity(RotatingMassModel(1.0, j), PT, vel) for j in (1.0, 2.0, 4.0)
    ]
    assert abs(vals[1] / vals[0] - 2.0) < 1e-12
    assert abs(vals[2] / vals[0] - 4.0) < 1e-12


def test_perturbation_validity_laboratory_scale():
    model = RotatingMassModel(1.0, 1.0)
    pt = SpacetimePoint(0.0, 1e-3, math.pi / 2, 0.0)
    vel = CoordinateVelocity(0.0, 0.0, 1.0e2 / 1e-3)
    ratio = perturbation_validity(model, pt, vel)
    assert 0.0 < ratio < 1e-20


def test_rate_radicand_stays_in_unit_interval_for_bound_motion():
    rng = np.random.default_rng(42)
    model = RotatingMassModel(5.0e23, 1.0e30)
    c = CODATA.c
    for _ in range(500):
        pt = SpacetimePoint(0.0, rng.uniform(1e6, 1e8), rng.uniform(0.3, math.pi - 0.3), 0.0)
        speed = rng.uniform(0.0, 0.3) * c
        angle = rng.uniform(0.0, 2.0 * math.pi)
        vel = CoordinateVelocity(
            speed * math.cos(angle),
            0.0,
            speed * math.sin(angle) / (pt.r * math.sin(pt.theta)),
        )
        assert 0.0 < _radicand(model, pt, vel) <= 1.0
        g = metric_at(model, pt)
        assert abs(squared_speed(g, vel) / speed**2 - 1.0) < 2e-9
