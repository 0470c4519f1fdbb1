"""Weak-field metric of a rotating axially symmetric mass.

The line element, in Boyer-Lindquist coordinates (t, r, theta, phi) with
x^0 = c t, is

    -(c dtau)^2 = g_tt (c dt)^2 + g_rr dr^2 + g_thth dtheta^2
                  + g_phph dphi^2 + 2 h_tphi (c dt) dphi

with a Schwarzschild diagonal to first order in 2GM/(c^2 r) and a
frame-dragging (Lense-Thirring) off-diagonal term

    h_tphi = -(4 G J / (c^3 r)) sin^2(theta)      [meters].

This module holds the source model and the event type; the metric
arithmetic itself is :func:`gravclock.kernels.weak_field_terms`, which every
route evaluates, with overridable constants from
:class:`~gravclock.constants.PhysicalConstants`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, require_finite

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
