"""Reference paths and a proper-time quadrature that the checks share.

Neither is reached by a command: the circular arc is an independent path for
the first-order shift routes, and ``proper_time_along`` re-integrates a
sampled path's full-metric dtau/dt, so it checks the solver's functional and
the first-order theorem on a fixed path.
"""

import math

import numpy as np

from gravclock import kernels
from gravclock.constants import CODATA, PhysicalConstants
from gravclock.errors import DomainError, NotTimelike
from gravclock.propertime import PathSpec, _integrate_samples
from gravclock.spacetime import RotatingMassModel


def build_circular_arc(
    r0: float,
    speed: float,
    phi_span: float,
    theta: float = 0.5 * math.pi,
    n_samples: int = 1025,
) -> PathSpec:
    """Constant-radius equatorial arc traversed at constant coordinate speed.

    Its samples are uniform in t and so in phi: an "azimuth" path.
    """
    if r0 <= 0 or speed <= 0 or phi_span == 0:
        raise DomainError("arc needs r0 > 0, speed > 0 and a nonzero phi span")
    omega = math.copysign(speed / r0, phi_span)
    total_time = abs(phi_span) * r0 / speed

    def sampler(n: int) -> PathSpec:
        t = np.linspace(0.0, total_time, n)
        return PathSpec(
            t=t,
            r=np.full(n, r0),
            theta=np.full(n, theta),
            phi=omega * t,
            dr_dt=np.zeros(n),
            dtheta_dt=np.zeros(n),
            dphi_dt=np.full(n, omega),
            kind="azimuth", sampler=sampler,
        )

    return sampler(n_samples)


def proper_time_along(
    model: RotatingMassModel,
    path: PathSpec,
    constants: PhysicalConstants = CODATA,
) -> float:
    """Quadrature of the full-metric dtau/dt over a sampled path; J = 0 gives the background's.

    Uses the midpoint rule of the solver's paths, so re-evaluating a solver
    path reproduces the solver's own functional value.  Raises
    :class:`DomainError` for an "azimuth" path: its rule in phi weights
    dtau/dt by dt/dphi, which peaks sharply at the ends of a long arm (+129%
    at L/w = 1e3 on 1025 samples).
    """
    if path.kind == "azimuth":
        raise DomainError("proper_time_along needs samples uniform in t, not an azimuth path")
    rad = kernels.radicand_array(
        path.r, path.theta, path.dr_dt, path.dtheta_dt, path.dphi_dt,
        constants.G * model.M, constants.G * model.J, constants.c,
    )
    if np.any(rad <= 0.0):
        raise NotTimelike("path contains samples that are not timelike")
    return _integrate_samples(path, np.sqrt(rad))
