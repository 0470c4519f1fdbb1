"""Weak-field metric of a rotating axially symmetric mass.

The line element, in Boyer-Lindquist coordinates (t, r, theta, phi) with
x^0 = c t, is

    -(c dtau)^2 = g_tt (c dt)^2 + g_rr dr^2 + g_thth dtheta^2
                  + g_phph dphi^2 + 2 h_tphi (c dt) dphi

with a Schwarzschild diagonal to first order in 2GM/(c^2 r) and a
frame-dragging (Lense-Thirring) off-diagonal term

    h_tphi = -(4 G J / (c^3 r)) sin^2(theta)      [meters].

All operations are pure functions; overridable constants come in through
:class:`~gravclock.constants.PhysicalConstants`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .constants import CODATA, PhysicalConstants
from .errors import DomainError, WeakFieldViolation, require_finite

DEFAULT_WEAK_FIELD_THRESHOLD = 0.5


@dataclass(frozen=True)
class RotatingMassModel:
    """Source mass M (kg) and signed angular momentum J (kg m^2/s).

    The sign of J encodes the rotation sense about the polar axis.
    """

    M: float
    J: float

    def __post_init__(self) -> None:
        for name in ("M", "J"):
            require_finite(name, getattr(self, name))
        if self.M < 0:
            raise DomainError("source mass must be non-negative")


@dataclass(frozen=True)
class SpacetimePoint:
    t: float
    r: float
    theta: float
    phi: float

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise DomainError("radius must be positive")
        if not 0.0 <= self.theta <= math.pi:
            raise DomainError("polar angle must lie in [0, pi]")


@dataclass(frozen=True)
class CoordinateVelocity:
    """Coordinate-time derivatives (dr/dt, dtheta/dt, dphi/dt)."""

    dr_dt: float
    dtheta_dt: float
    dphi_dt: float


@dataclass(frozen=True)
class MetricComponents:
    """Metric entries at one point; h_tphi is the frame-dragging off-diagonal."""

    g_tt: float
    g_rr: float
    g_thth: float
    g_phph: float
    h_tphi: float


def metric_at(
    model: RotatingMassModel,
    pt: SpacetimePoint,
    constants: PhysicalConstants = CODATA,
) -> MetricComponents:
    """Evaluate the weak-field metric at a point.

    Raises :class:`WeakFieldViolation` when 2GM/(c^2 r) reaches
    ``DEFAULT_WEAK_FIELD_THRESHOLD`` and :class:`DomainError` for a
    non-positive radius.
    """
    if pt.r <= 0:
        raise DomainError("radius must be positive")
    # v^2 at unit dphi/dt is g_phph
    eps, g_phph, h_tphi = map(float, kernels.weak_field_terms(
        pt.r, pt.theta, 0.0, 0.0, 1.0, constants.G * model.M, constants.G * model.J, constants.c,
    ))
    if eps >= DEFAULT_WEAK_FIELD_THRESHOLD:
        raise WeakFieldViolation(
            f"2GM/(c^2 r) = {eps:.3e} >= threshold {DEFAULT_WEAK_FIELD_THRESHOLD:.3e}"
        )
    return MetricComponents(
        g_tt=-1.0 + eps,
        g_rr=1.0 + eps,
        g_thth=pt.r**2,
        g_phph=g_phph,
        h_tphi=h_tphi,
    )


def squared_speed(metric: MetricComponents, vel: CoordinateVelocity) -> float:
    """v^2 = sum_i g_ii (dx^i/dt)^2 with the full spatial metric."""
    return (
        metric.g_rr * vel.dr_dt**2
        + metric.g_thth * vel.dtheta_dt**2
        + metric.g_phph * vel.dphi_dt**2
    )


def perturbation_validity(
    model: RotatingMassModel,
    pt: SpacetimePoint,
    vel: CoordinateVelocity,
    constants: PhysicalConstants = CODATA,
) -> float:
    """|h_munu dx^mu dx^nu| / |gbar_munu dx^mu dx^nu| along the given direction.

    Small values certify that the frame-dragging term is a perturbation of the
    Schwarzschild background for this trajectory direction.
    """
    g = metric_at(model, pt, constants)
    c = constants.c
    numerator = 2.0 * g.h_tphi * c * vel.dphi_dt
    denominator = g.g_tt * c**2 + squared_speed(g, vel)
    if denominator == 0.0:
        raise DomainError("direction is null in the background metric")
    return abs(numerator / denominator)
