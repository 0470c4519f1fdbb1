"""First-order proper-time shifts along paths and between interferometer arms.

For a fixed trajectory, the frame-dragging perturbation changes the elapsed
proper time at first order by

    delta_tau(P) = (1/2) int (h_munu / c^2) (dx^mu/dtau) (dx^nu/dtau) dtau
                 = int (h_tphi / c) (dt/dtau) dphi        (only h_tphi nonzero)

which is odd under reversal of the traversal.  A path and its time-reversed
partner therefore differ by twice this shift; that difference is what the
clock interferometer reads out.

Sign conventions.  Expanding sqrt(-(gbar + h)_munu dx^mu dx^nu) shows that
between fixed events the co-rotating traversal (dphi/dt > 0 with J > 0)
gains proper time and the counter-rotating one loses it.  The arm labeled
"right" is the co-rotating one, so for J > 0

    tau(right) - tau(left) > 0,

and the arm-asymmetry amplitude fed to the interference formulas is the
published closed form 16 G J K / (c^4 w), which equals half the right-left
pair difference produced by the quadrature route.  :func:`closed_form_log`
holds the one copy of that closed form, as a sum of log10 terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .constants import CODATA, PhysicalConstants
from .errors import DomainError, NoConvergence, NotTimelike, require_finite, require_positive
from .logdomain import SignedLog
from .spacetime import RotatingMassModel

QUADRATURE_REL_TOL = 1e-10
MAX_QUADRATURE_SAMPLES = 2**20


@dataclass(frozen=True, eq=False)
class PathSpec:
    """A discretized timelike trajectory parameterized by coordinate time.

    ``kind`` records how the samples were produced and therefore which
    quadrature rule matches them:

    - "azimuth" samples are uniform in phi, include the endpoints and
      integrate with composite Simpson in phi, each sample weighted by
      dt/dphi = 1/(dphi/dt), so dphi/dt must not vanish and the sample
      count must be odd.  The rule suits integrands proportional to
      dphi/dt, such as the frame-dragging shifts, not dtau/dt itself;
    - "midpoint" samples sit at segment midpoints of a uniform t grid (as
      produced by the extremal-path solver) and integrate with the matching
      uniform-weight midpoint rule.

    A path with a ``sampler(n)``, which resamples it at n samples, is an
    azimuth path of 4k + 1 samples whose even samples are sampler(2k + 1)'s.
    """

    t: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    dr_dt: np.ndarray
    dtheta_dt: np.ndarray
    dphi_dt: np.ndarray
    kind: str
    sampler: Optional[Callable[[int], "PathSpec"]] = None

    def __post_init__(self) -> None:
        if self.t.shape[0] < 2:
            raise DomainError("a path needs at least two samples")
        if (self.t[1:] - self.t[:-1] <= 0).any():  # np.diff(t) <= 0 somewhere
            raise DomainError("coordinate time must be strictly increasing")
        if self.kind not in ("azimuth", "midpoint"):
            raise DomainError(f"unknown path kind {self.kind!r}")
        if self.kind == "azimuth" and (self.dphi_dt == 0).any():
            raise DomainError("an azimuth-sampled path needs dphi/dt != 0 at every sample")
        if self.kind == "azimuth" and self.t.shape[0] % 2 == 0:
            raise DomainError(f"an azimuth-sampled path needs an odd number of samples, got {self.t.shape[0]}")
        if self.sampler is not None and (self.kind != "azimuth" or self.t.shape[0] % 4 != 1):
            raise DomainError(f"a sampled path needs 4k + 1 azimuth samples, got {self.n_samples} {self.kind} samples")

    @property
    def n_samples(self) -> int:
        return int(self.t.shape[0])


@dataclass(frozen=True)
class InterferometerGeometry:
    """Arm separation w, arm half-length L and asymptotic speed v0 (SI units).

    v0 = 0 is tolerated for closed-form evaluation (K = 1); building actual
    arm paths requires v0 > 0.
    """

    w: float
    L: float
    v0: float

    def __post_init__(self) -> None:
        for name in ("w", "L", "v0"):
            require_finite(name, getattr(self, name))
        if self.w <= 0:
            raise DomainError("arm separation w must be positive")
        if self.L <= self.w:
            raise DomainError("arm half-length L must exceed the separation w")
        if self.v0 < 0:
            raise DomainError("speed v0 must be non-negative")


@dataclass(frozen=True)
class PhaseBundle:
    """Proper-time difference and the clock phases it generates.

    Linear values and (sign, log10) forms are carried together because
    laboratory-scale phases underflow any visible effect in linear arithmetic
    while their logarithms remain meaningful.
    """

    delta_tau: float
    delta_tau_log: SignedLog

    @property
    def log10_delta_tau(self) -> float:
        return self.delta_tau_log.log10


def _simpson_uniform(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson over an odd number of samples y on the uniform grid x (signed step)."""
    dx = x[1] - x[0]
    return (dx / 3.0) * float(y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


class _OutOfRange(DomainError):
    """Samples of a quadrature left the normal double range."""


_TINY = np.finfo(float).tiny  # the smallest normal double


def _has_subnormal(x: np.ndarray) -> bool:
    small = np.abs(x) < _TINY
    return bool(small.any()) and bool(np.any(x[small] != 0.0))


def _integrate_samples(path: PathSpec, values: np.ndarray, step: int = 1) -> float:
    """Integral of sampled ``values`` over t, by the rule matching ``path.kind``.

    ``step`` picks every step-th sample, a coarser azimuth path.  The azimuth
    rule raises :class:`DomainError` when a sample or a dphi/dt of that level
    is subnormal: 1/(dphi/dt) grows as (r/w)^2 toward an arm's ends and
    magnifies the absolute rounding of such samples, so the integral would be
    off in its leading digits, or keep changing until the sample cap.
    """
    if path.kind == "midpoint":
        dt = path.t[1] - path.t[0]
        return float(dt * values.sum())
    values, dphi_dt = values[::step], path.dphi_dt[::step]
    if _has_subnormal(values) or _has_subnormal(dphi_dt):
        raise _OutOfRange("samples of the azimuth quadrature fall below the normal double range")
    return _simpson_uniform(values / dphi_dt, path.phi[::step])


def _check_timelike(rad: np.ndarray) -> None:
    # samples that overflowed or divided by zero give an infinite or NaN
    # radicand, which would refine to the sample cap
    if not np.isfinite(rad).all():
        raise _OutOfRange("samples of the quadrature leave the double range")
    if not (rad > 0.0).all():
        raise NotTimelike("path contains samples that are not timelike in the background")


def _levels(path: PathSpec, integrand):
    """Successive quadrature levels, from one ``integrand`` call per sampling.

    A path with a sampler gives two levels, then each resampling one.
    """
    steps = (1,) if path.sampler is None else (2, 1)
    while True:
        # numpy need not warn about samples that the checks reject
        with np.errstate(all="ignore"):
            values, rad = integrand(path)
        for step in steps:
            _check_timelike(rad[::step])
            yield _integrate_samples(path, values, step)
        if path.sampler is None:
            return
        path, steps = path.sampler(2 * path.n_samples - 1), (1,)


def _quadrature(path: PathSpec, integrand) -> float:
    """Integrate ``integrand(path) -> (samples, background radicand)`` over t.

    A path without a sampler is one level.  A path with one (4k + 1 azimuth
    samples) gives two: its even samples, then all of them.  Then it is
    resampled with twice the intervals until two successive levels agree to
    ``QUADRATURE_REL_TOL``.  Raises :class:`NoConvergence` when the next level
    would pass ``MAX_QUADRATURE_SAMPLES`` first.
    """
    levels = _levels(path, integrand)
    if path.sampler is None:
        return next(levels)
    n = (path.n_samples - 1) // 2
    previous = None
    for value in levels:
        change = math.inf if previous is None else abs(value - previous)
        if change <= QUADRATURE_REL_TOL * max(abs(value), 1e-300):
            return value
        if 2 * n > MAX_QUADRATURE_SAMPLES:
            raise NoConvergence(
                f"quadrature over the {path.kind!r} path stopped at {n + 1} samples, "
                f"since doubling again would pass MAX_QUADRATURE_SAMPLES = "
                f"{MAX_QUADRATURE_SAMPLES}; last relative change "
                f"{change / max(abs(value), 1e-300):.3e} > {QUADRATURE_REL_TOL:.1e}"
            )
        previous = value
        n *= 2


def delta_tau_first_order(
    model: RotatingMassModel,
    background_path: PathSpec,
    constants: PhysicalConstants = CODATA,
) -> float:
    """First-order proper-time shift of one path due to frame dragging.

    The supplied path should extremize the background metric (the solver in
    :mod:`gravclock.geodesic` produces such paths); the straight interferometer
    arms qualify in the usual weak-attraction approximation.
    """
    gm = constants.G * model.M
    gj = constants.G * model.J

    def integrand(p: PathSpec) -> tuple[np.ndarray, np.ndarray]:
        return kernels.first_order_integrand_array(
            p.r, p.theta, p.dr_dt, p.dtheta_dt, p.dphi_dt, gm, gj, constants.c
        )

    return _quadrature(background_path, integrand)


def delta_tau_pair(
    model: RotatingMassModel,
    forward_path: PathSpec,
    constants: PhysicalConstants = CODATA,
) -> float:
    """Proper-time difference between a path and its time-reversed partner.

    Evaluated through the conserved-energy form of the first-order shift
    (dt/dtau expressed via the energy ratio), an independent route from
    :func:`delta_tau_first_order`; for pure h_tphi perturbations the result
    is twice the single-path shift.
    """
    gm = constants.G * model.M
    gj = constants.G * model.J

    def integrand(p: PathSpec) -> tuple[np.ndarray, np.ndarray]:
        return kernels.pair_integrand_array(
            p.r, p.theta, p.dr_dt, p.dtheta_dt, p.dphi_dt, gm, gj, constants.c
        )

    return _quadrature(forward_path, integrand)


def build_straight_arm(geom: InterferometerGeometry, side: str) -> PathSpec:
    """Straight equatorial arm at perpendicular distance w/2 from the axis.

    Both arms are represented on the same Cartesian track x = w/2,
    parameterized by y from -L to +L; the "right" arm traverses it with
    increasing phi (co-rotating for J > 0) and the "left" arm with
    decreasing phi.  The two are mirror images under phi -> -phi, which for
    this axisymmetric metric is equivalent to time reversal, so the "left"
    path stands in for the physical arm on the far side of the axis.

    The samples are uniform in the azimuth, y = (w/2) tan(phi) with phi
    between -phi_max and phi_max = arctan(2L/w), so the path is an "azimuth"
    path.  The frame-dragging integrand is a Lorentzian of width ~w in y but
    about h_tphi dphi in phi, smooth at any L/w, so the quadrature needs
    about a thousand samples where uniform-t sampling would need ~L/w.
    The path has 513 samples (its even samples are the arm at 257), and
    ``sampler(n)`` gives the arm at n; either raises when r * r overflows.
    """
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    if geom.v0 <= 0:
        raise DomainError("building arm paths requires v0 > 0")
    w, L, v0 = geom.w, geom.L, geom.v0
    if not math.isfinite(2.0 * L / v0):  # the last sample time
        raise DomainError(f"speed v0 = {v0!r} puts the arm's sample times beyond double range")
    direction = 1.0 if side == "right" else -1.0
    half_w = 0.5 * w
    phi_max = math.atan(2.0 * L / w)

    def sampler(n: int) -> PathSpec:
        u = np.linspace(-phi_max, phi_max, n)
        y_ahead = half_w * np.tan(u)  # distance travelled is L + y_ahead
        t = (L + y_ahead) / v0
        y = direction * y_ahead
        r = np.hypot(half_w, y)
        phi = direction * u
        theta = np.full(n, 0.5 * math.pi)
        vy = direction * v0
        # an r * r that underflows gives an infinite dphi/dt, which the
        # quadrature rejects as out of range, and one that overflows a zero
        with np.errstate(all="ignore"):
            dr_dt = y * vy / r
            dphi_dt = half_w * vy / (r * r)
        try:
            return PathSpec(
                t=t, r=r, theta=theta, phi=phi,
                dr_dt=dr_dt, dtheta_dt=np.zeros(n), dphi_dt=dphi_dt, kind="azimuth", sampler=sampler,
            )
        except DomainError:  # PathSpec's checks of t and dphi/dt, in its order, named by cause
            if (t[1:] - t[:-1] <= 0).any():
                raise DomainError(f"L/w = {L / w:.6g} is too long to resolve {n} arm samples in coordinate time")
            if not dphi_dt.all():
                raise _OutOfRange("arm samples leave the double range")
            raise

    return sampler(513)


def k_factor(v0, constants: PhysicalConstants = CODATA):
    """Energy ratio far from the mass, K = 1 + (v0/c)^2 / 2, for a float or an array v0.

    (v0/c)^2 is finite for any c.  Raises :class:`DomainError`, naming v0,
    unless 0 <= v0 < c.
    """
    require_finite("v0", v0)
    speeds = np.asarray(v0, dtype=float)
    for bad, bound in ((speeds < 0.0, "non-negative"), (speeds >= constants.c, f"below c = {constants.c!r}")):
        if np.any(bad):
            raise DomainError(f"speed v0 must be {bound}, got {float(speeds[bad][0])!r}")
    ratio = v0 / constants.c
    return 1.0 + 0.5 * (ratio * ratio)


def closed_form_log(
    amount: SignedLog, w, v0, constants: PhysicalConstants = CODATA, unit: float = 1.0
) -> SignedLog:
    """Arm proper-time difference 16 G J K / (c^4 w), J = unit * amount, in the log domain.

    ``amount`` is J (``unit`` 1) or ell = J/hbar (``unit`` hbar); w, v0 and
    ``amount.log10`` may be arrays of one shape.  Raises :class:`DomainError`
    naming w unless w > 0, and v0 unless 0 <= v0 < c.
    """
    require_positive("w", w)
    magnitude = (
        np.log10(16.0 * constants.G * unit * k_factor(v0, constants))
        - 4.0 * np.log10(constants.c)
        - np.log10(w)
        + amount.log10
    )
    return SignedLog.from_log10(magnitude, amount.sign)


def delta_tau_interferometer(
    model: RotatingMassModel,
    geom: InterferometerGeometry,
    mode: str = "closed_form",
    constants: PhysicalConstants = CODATA,
) -> PhaseBundle:
    """Arm proper-time difference of the interferometer.

    "closed_form" returns 16 G J K / (c^4 w) (infinite-arm limit, K evaluated
    far from the mass) from :func:`closed_form_log`, its linear value and its
    log10 both, and raises :class:`DomainError`, naming J and w, when the
    linear value overflows.  "quadrature" integrates the time-reversed-pair
    difference over a finite right arm, sampled uniformly in the azimuth
    (see :func:`build_straight_arm`), and halves it, which matches the
    closed form's normalization; the two agree as L/w grows, with relative
    truncation error 1 - sin(arctan(2L/w)).  Raises :class:`NoConvergence`,
    naming L/w, if the quadrature reaches its sample cap, and
    :class:`DomainError`, naming v0, unless 0 <= v0 < c, naming J, w and
    v0 when the quadrature's value or any of its samples leaves the normal
    double range (at w = 1e-3 m and L/w = 1e3, once J * v0 < ~1e-261 in SI units),
    and naming M, w and v0 (as :class:`NotTimelike`) when an arm sample is
    not timelike in the background.
    """
    if mode == "closed_form":
        log = closed_form_log(SignedLog.from_linear(model.J), geom.w, geom.v0, constants)
        value = log.linear
        if not math.isfinite(value):
            raise DomainError(f"delta_tau = 10^{log.log10:.6g} s at J = {model.J!r} and w = {geom.w!r} overflows")
        return PhaseBundle(delta_tau=value, delta_tau_log=log)
    if mode == "quadrature":
        k_factor(geom.v0, constants)  # raises unless 0 <= v0 < c
        # its integrand, ~ G J v0 / (c^4 r^3), can leave double range where the closed form does not
        out_of_range = DomainError(
            f"the arm quadrature at J = {model.J!r}, w = {geom.w!r}, v0 = {geom.v0!r} leaves double range"
        )
        try:
            value = 0.5 * delta_tau_pair(model, build_straight_arm(geom, "right"), constants)
        except NoConvergence as exc:
            raise NoConvergence(f"arm with L/w = {geom.L / geom.w:.6g}: {exc}") from exc
        except _OutOfRange as exc:
            raise out_of_range from exc
        except NotTimelike as exc:  # the background radicand: J plays no part
            raise NotTimelike(
                f"the arm quadrature at M = {model.M!r}, w = {geom.w!r}, v0 = {geom.v0!r} "
                "has samples that are not timelike in the background"
            ) from exc
        if not (math.isfinite(value) and (model.J == 0.0 or abs(value) >= _TINY)):
            raise out_of_range
        return PhaseBundle(delta_tau=value, delta_tau_log=SignedLog.from_linear(value))
    raise DomainError(f"mode must be 'closed_form' or 'quadrature', got {mode!r}")
