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
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import kernels
from .constants import CODATA, PhysicalConstants
from .errors import DomainError, NoConvergence, NotTimelike, require_finite, require_positive
from .logdomain import SignedLog, per_element, squared
from .spacetime import RotatingMassModel, SpacetimePoint

QUADRATURE_REL_TOL = 1e-10
MAX_QUADRATURE_SAMPLES = 2**20
DEFAULT_ARM_LENGTH_RATIO = 1e3


@dataclass(frozen=True, eq=False)
class PathSpec:
    """A discretized timelike trajectory parameterized by coordinate time.

    ``kind`` records how the samples were produced and therefore which
    quadrature rule matches them:

    - "node" samples are uniform in t, include the endpoints and integrate
      with composite Simpson in t;
    - "azimuth" samples are uniform in phi, include the endpoints and
      integrate with composite Simpson in phi, each sample weighted by
      dt/dphi = 1/(dphi/dt), so dphi/dt must not vanish.  The rule suits
      integrands proportional to dphi/dt, such as the frame-dragging shifts,
      not dtau/dt itself;
    - "midpoint" samples sit at segment midpoints of a uniform t grid (as
      produced by the extremal-path solver) and integrate with the matching
      uniform-weight midpoint rule.
    """

    t: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    dr_dt: np.ndarray
    dtheta_dt: np.ndarray
    dphi_dt: np.ndarray
    start: SpacetimePoint
    end: SpacetimePoint
    kind: str = "node"
    sampler: Optional[Callable[[int], "PathSpec"]] = None

    def __post_init__(self) -> None:
        if self.t.shape[0] < 2:
            raise DomainError("a path needs at least two samples")
        if np.any(np.diff(self.t) <= 0):
            raise DomainError("coordinate time must be strictly increasing")
        if self.kind not in ("node", "azimuth", "midpoint"):
            raise DomainError(f"unknown path kind {self.kind!r}")
        if self.kind == "azimuth" and np.any(self.dphi_dt == 0):
            raise DomainError("an azimuth-sampled path needs dphi/dt != 0 at every sample")

    @property
    def n_samples(self) -> int:
        return int(self.t.shape[0])

    def samples(self):
        """Iterate (SpacetimePoint, (dr/dt, dtheta/dt, dphi/dt)) pairs."""
        from .spacetime import CoordinateVelocity

        for i in range(self.n_samples):
            yield (
                SpacetimePoint(self.t[i], self.r[i], self.theta[i], self.phi[i]),
                CoordinateVelocity(self.dr_dt[i], self.dtheta_dt[i], self.dphi_dt[i]),
            )

    def without_sampler(self) -> "PathSpec":
        return replace(self, sampler=None)


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
    phase_mean: Optional[float] = None
    phase_mean_log: Optional[SignedLog] = None
    phase_gap: Optional[float] = None
    phase_gap_log: Optional[SignedLog] = None

    @property
    def log10_delta_tau(self) -> float:
        return self.delta_tau_log.log10


def attach_phases(bundle: PhaseBundle, mean_rate: float, gap_rate: float) -> PhaseBundle:
    """Fill phase fields from clock rates Ebar/hbar and dE/hbar (rad/s)."""
    mean_log = bundle.delta_tau_log.scaled(mean_rate)
    gap_log = bundle.delta_tau_log.scaled(gap_rate)
    return replace(
        bundle,
        phase_mean=mean_rate * bundle.delta_tau,
        phase_mean_log=mean_log,
        phase_gap=gap_rate * bundle.delta_tau,
        phase_gap_log=gap_log,
    )


def _simpson_uniform(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson over samples y on the uniform grid x (signed step)."""
    n = y.shape[0]
    dx = x[1] - x[0]
    if n == 2:
        return 0.5 * dx * float(y[0] + y[1])
    if n % 2 == 0:
        head = _simpson_uniform(y[:-1], x[:-1])
        return head + 0.5 * dx * float(y[-2] + y[-1])
    return (dx / 3.0) * float(y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


class _SubnormalSamples(DomainError):
    """Samples of an azimuth quadrature fell below the normal double range."""


_TINY = np.finfo(float).tiny  # the smallest normal double


def _has_subnormal(x: np.ndarray) -> bool:
    small = np.abs(x) < _TINY
    return bool(small.any()) and bool(np.any(x[small] != 0.0))


def _integrate_samples(path: PathSpec, values: np.ndarray) -> float:
    """Integral of sampled ``values`` over t, by the rule matching ``path.kind``.

    The azimuth rule raises :class:`DomainError` when a sample or a dphi/dt
    is subnormal: 1/(dphi/dt) grows as (r/w)^2 toward an arm's ends and
    magnifies the absolute rounding of such samples, so the integral would be
    off in its leading digits, or keep changing until the sample cap.
    """
    if path.kind == "midpoint":
        dt = path.t[1] - path.t[0]
        return float(dt * values.sum())
    if path.kind == "azimuth":
        if _has_subnormal(values) or _has_subnormal(path.dphi_dt):
            raise _SubnormalSamples("samples of the azimuth quadrature fall below the normal double range")
        return _simpson_uniform(values / path.dphi_dt, path.phi)
    return _simpson_uniform(values, path.t)


def _check_timelike(model: RotatingMassModel, path: PathSpec, constants: PhysicalConstants) -> None:
    # samples that overflowed or divided by zero give an infinite or NaN
    # radicand, which the check rejects; numpy need not warn about them first
    with np.errstate(all="ignore"):
        rad = kernels.radicand_array(
            path.r, path.theta, path.dr_dt, path.dtheta_dt, path.dphi_dt,
            constants.G * model.M, constants.G * model.J, constants.c, 0,
        )
    if not np.all(rad > 0.0):  # a NaN radicand too, which would refine to the sample cap
        raise NotTimelike("path contains samples that are not timelike in the background")


def _quadrature(
    model: RotatingMassModel,
    path: PathSpec,
    integrand,
    constants: PhysicalConstants,
    rel_tol: float = QUADRATURE_REL_TOL,
) -> float:
    """Integrate `integrand(path) -> samples` over t, refining when possible.

    A path with a sampler is resampled with twice the intervals until two
    successive values agree to ``rel_tol``.  Raises :class:`NoConvergence`
    when the next level would pass ``MAX_QUADRATURE_SAMPLES`` first.
    """

    def evaluate(p: PathSpec) -> float:
        _check_timelike(model, p, constants)
        return _integrate_samples(p, integrand(p))

    if path.sampler is None:
        return evaluate(path)
    n = max(256, path.n_samples - 1)
    n = 2 ** int(math.ceil(math.log2(n)))
    previous = None
    while True:
        value = evaluate(path.sampler(n + 1))
        change = math.inf if previous is None else abs(value - previous)
        if change <= rel_tol * max(abs(value), 1e-300):
            return value
        if 2 * n > MAX_QUADRATURE_SAMPLES:
            raise NoConvergence(
                f"quadrature over the {path.kind!r} path stopped at {n + 1} samples, "
                f"since doubling again would pass MAX_QUADRATURE_SAMPLES = "
                f"{MAX_QUADRATURE_SAMPLES}; last relative change "
                f"{change / max(abs(value), 1e-300):.3e} > {rel_tol:.1e}"
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

    def integrand(p: PathSpec) -> np.ndarray:
        return kernels.first_order_integrand_array(
            p.r, p.theta, p.dr_dt, p.dtheta_dt, p.dphi_dt, gm, gj, constants.c
        )

    return _quadrature(model, background_path, integrand, constants)


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

    def integrand(p: PathSpec) -> np.ndarray:
        return kernels.pair_integrand_array(
            p.r, p.theta, p.dr_dt, p.dtheta_dt, p.dphi_dt, gm, gj, constants.c
        )

    return _quadrature(model, forward_path, integrand, constants)


def build_straight_arm(
    geom: InterferometerGeometry,
    side: str,
    n_samples: int = 257,
) -> PathSpec:
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
        if np.any(np.diff(t) <= 0):
            raise DomainError(
                f"L/w = {L / w:.6g} is too long to resolve {n} arm samples in coordinate time"
            )
        y = direction * y_ahead
        r = np.hypot(half_w, y)
        phi = direction * u
        theta = np.full(n, 0.5 * math.pi)
        vy = direction * v0
        # an r * r that underflows gives an infinite dphi/dt, which the
        # quadrature's timelike check rejects
        with np.errstate(all="ignore"):
            dr_dt = y * vy / r
            dphi_dt = half_w * vy / (r * r)
        dtheta_dt = np.zeros(n)
        start = SpacetimePoint(t[0], r[0], theta[0], phi[0])
        end = SpacetimePoint(t[-1], r[-1], theta[-1], phi[-1])
        return PathSpec(
            t=t, r=r, theta=theta, phi=phi,
            dr_dt=dr_dt, dtheta_dt=dtheta_dt, dphi_dt=dphi_dt,
            start=start, end=end, kind="azimuth", sampler=sampler,
        )

    return sampler(n_samples)


def build_circular_arc(
    r0: float,
    speed: float,
    phi_span: float,
    theta: float = 0.5 * math.pi,
    n_samples: int = 513,
) -> PathSpec:
    """Constant-radius equatorial arc traversed at constant coordinate speed."""
    if r0 <= 0 or speed <= 0 or phi_span == 0:
        raise DomainError("arc needs r0 > 0, speed > 0 and a nonzero phi span")
    omega = math.copysign(speed / r0, phi_span)
    total_time = abs(phi_span) * r0 / speed

    def sampler(n: int) -> PathSpec:
        t = np.linspace(0.0, total_time, n)
        phi = omega * t
        start = SpacetimePoint(t[0], r0, theta, phi[0])
        end = SpacetimePoint(t[-1], r0, theta, phi[-1])
        return PathSpec(
            t=t,
            r=np.full(n, r0),
            theta=np.full(n, theta),
            phi=phi,
            dr_dt=np.zeros(n),
            dtheta_dt=np.zeros(n),
            dphi_dt=np.full(n, omega),
            start=start, end=end, kind="node", sampler=sampler,
        )

    return sampler(n_samples)


def k_factor(v0, constants: PhysicalConstants = CODATA):
    """Energy ratio far from the mass, K = 1 + (v0/c)^2 / 2, for a float or an array v0.

    (v0/c)^2, squared as Python squares (see :func:`~gravclock.logdomain.squared`),
    is finite for any c.  Raises :class:`DomainError`, naming v0, unless 0 <= v0 < c.
    """
    require_finite("v0", v0)
    speeds = np.asarray(v0, dtype=float)
    for bad, bound in ((speeds < 0.0, "non-negative"), (speeds >= constants.c, f"below c = {constants.c!r}")):
        if np.any(bad):
            raise DomainError(f"speed v0 must be {bound}, got {float(speeds[bad][0])!r}")
    return 1.0 + 0.5 * squared(v0 / constants.c)


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
        per_element(math.log10, 16.0 * constants.G * unit * k_factor(v0, constants))
        - 4.0 * math.log10(constants.c)
        - per_element(math.log10, w)
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
    :class:`DomainError`, naming v0, unless 0 <= v0 < c, or naming J, w and
    v0 when the quadrature's value or any of its samples leaves the normal
    double range (at w = 1e-3 m and L/w = 1e3, once J * v0 < ~1e-261 in SI units).
    """
    if mode == "closed_form":
        log = closed_form_log(SignedLog.from_linear(model.J), geom.w, geom.v0, constants)
        value = log.linear
        if not math.isfinite(value):
            raise DomainError(f"delta_tau = 10^{log.log10:.6g} s at J = {model.J!r} and w = {geom.w!r} overflows")
        return PhaseBundle(delta_tau=value, delta_tau_log=log)
    if mode == "quadrature":
        k_factor(geom.v0, constants)  # raises unless 0 <= v0 < c
        arm = build_straight_arm(geom, "right")
        # its integrand, ~ G J v0 / (c^4 r^3), can leave double range where the closed form does not
        out_of_range = DomainError(
            f"the arm quadrature at J = {model.J!r}, w = {geom.w!r}, v0 = {geom.v0!r} leaves double range"
        )
        try:
            value = 0.5 * delta_tau_pair(model, arm, constants)
        except NoConvergence as exc:
            raise NoConvergence(f"arm with L/w = {geom.L / geom.w:.6g}: {exc}") from exc
        except _SubnormalSamples as exc:
            raise out_of_range from exc
        if not (math.isfinite(value) and (model.J == 0.0 or abs(value) >= _TINY)):
            raise out_of_range
        return PhaseBundle(delta_tau=value, delta_tau_log=SignedLog.from_linear(value))
    raise DomainError(f"mode must be 'closed_form' or 'quadrature', got {mode!r}")
