"""Brute-force extremal-path oracle for the first-order shift theorem.

Fix two events and ask for the timelike path between them that extremizes
(maximizes) proper time.  The solver discretizes the trajectory on a uniform
coordinate-time grid, evaluates the proper time with a midpoint rule per
segment, and relaxes the interior spatial nodes with damped Newton sweeps
until the functional stops changing.  Because the discrete functional is
extremized exactly, the envelope argument holds exactly in the discrete
setting too: the difference between perturbed and unperturbed maxima equals
the first-order quadrature of the frame-dragging term along the unperturbed
discrete path, up to a residual that is quadratic in the perturbation
strength.  ``verify_first_order`` measures that residual's scaling.

Laboratory SI values underflow doubles here, so oracle runs use exaggerated
constants (for example c = 1) with gentle fields: the weak-field energy
ratio is only conserved through first order, so compactness around 1e-5 is
what keeps its drift inside 1e-9 along solved paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .constants import CODATA, PhysicalConstants
from .errors import DomainError, NoConvergence, NotTimelike
from .propertime import PathSpec, _integrate_samples, delta_tau_first_order
from .spacetime import (
    DEFAULT_WEAK_FIELD_THRESHOLD,
    CoordinateVelocity,
    RotatingMassModel,
    SpacetimePoint,
    perturbation_validity,
)

DEFAULT_SEGMENTS = 512
DEFAULT_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 10_000


@dataclass(frozen=True)
class BoundaryConditions:
    start: SpacetimePoint
    end: SpacetimePoint

    def __post_init__(self) -> None:
        if self.end.t <= self.start.t:
            raise DomainError("end time must exceed start time")


@dataclass(frozen=True, eq=False)
class ExtremalPathResult:
    path: PathSpec
    proper_time: float
    converged: bool
    residual_norm: float
    sweeps: int
    nodes: np.ndarray  # (n_segments + 1, 3) rows (r, theta, phi)
    solves: int  # Newton-step solves, one per sweep plus each damped retry
    stop: str  # "decrement", "tolerance" or "exhausted"


@dataclass(frozen=True, eq=False)
class FirstOrderReport:
    epsilons: np.ndarray
    exact_shifts: np.ndarray
    predicted_shifts: np.ndarray
    residuals: np.ndarray
    slope: float
    all_converged: bool


def _coords(pt: SpacetimePoint) -> np.ndarray:
    return np.array([pt.r, pt.theta, pt.phi])


def _cartesian(pt: SpacetimePoint) -> np.ndarray:
    s = math.sin(pt.theta)
    return pt.r * np.array([s * math.cos(pt.phi), s * math.sin(pt.phi), math.cos(pt.theta)])


def functional_value(
    model: RotatingMassModel,
    nodes: np.ndarray,
    t_start: float,
    t_end: float,
    include_perturbation: bool,
    constants: PhysicalConstants = CODATA,
) -> float:
    """Discrete proper time of a node trajectory (midpoint rule per segment)."""
    dt = (t_end - t_start) / (nodes.shape[0] - 1)
    return kernels.path_functional(
        np.ascontiguousarray(nodes, dtype=np.float64),
        dt,
        constants.G * model.M,
        constants.G * model.J,
        constants.c,
        1 if include_perturbation else 0,
    )


def _midpoint_path(bc: BoundaryConditions, nodes: np.ndarray) -> PathSpec:
    n = nodes.shape[0] - 1
    dt = (bc.end.t - bc.start.t) / n
    t_mid = bc.start.t + dt * (np.arange(n) + 0.5)
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    vel = (nodes[1:] - nodes[:-1]) / dt
    return PathSpec(
        t=t_mid,
        r=mid[:, 0],
        theta=mid[:, 1],
        phi=mid[:, 2],
        dr_dt=vel[:, 0],
        dtheta_dt=vel[:, 1],
        dphi_dt=vel[:, 2],
        start=bc.start,
        end=bc.end,
        kind="midpoint",
    )


def solve_extremal_path(
    model: RotatingMassModel,
    bc: BoundaryConditions,
    include_perturbation: bool = False,
    constants: PhysicalConstants = CODATA,
    n_segments: int = DEFAULT_SEGMENTS,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> ExtremalPathResult:
    """Maximize proper time over interior nodes at fixed coordinate times.

    Each sweep assembles the exact gradient and block-tridiagonal Hessian
    of the discrete proper time and solves for the Newton step.  The
    result's ``stop`` says why the iteration ended:

    - ``"decrement"``: the step's predicted gain ½ gradᵀ·step (the Newton
      decrement; Boyd and Vandenberghe, *Convex Optimization*, §9.5.1) lies
      in [0, 4 eps_mach |tau|], below what the functional can resolve: the
      sweep takes the whole step, which moves tau only by rounding but lands
      the nodes on the stationary point, keeps it if tau stays finite, and stops;
    - ``"tolerance"``: two successive accepted steps changed tau by less
      than ``tol`` relative;
    - ``"exhausted"``: no step on the damping ladder (diag - d max|diag| I
      for d = 1e-8, 16e-8, ...), each halved up to 30 times, raised tau.

    ``solves`` counts the Newton-step solves: one per sweep plus each damped
    retry.  Raises :class:`NotTimelike` if no timelike starting trajectory
    exists and :class:`NoConvergence` when the sweep cap is hit.
    """
    if n_segments < 2:
        raise DomainError("need at least two segments")
    chord = np.linalg.norm(_cartesian(bc.end) - _cartesian(bc.start))
    span = bc.end.t - bc.start.t
    if chord >= constants.c * span:
        raise DomainError("endpoints are not timelike-separated (chord speed >= c)")

    gm = constants.G * model.M
    gj = constants.G * model.J
    pert = 1 if include_perturbation else 0
    dt = span / n_segments

    frac = np.linspace(0.0, 1.0, n_segments + 1)[:, None]
    nodes = (1.0 - frac) * _coords(bc.start)[None, :] + frac * _coords(bc.end)[None, :]

    tau = kernels.path_functional(nodes, dt, gm, gj, constants.c, pert)
    if math.isnan(tau):
        raise NotTimelike("the straight-line starting trajectory is not timelike")

    # the Newton decrement: a predicted gain below a few ulps of tau cannot
    # show in the functional, so the step has nothing left to find
    gain_floor = 4.0 * np.finfo(float).eps
    residual = math.inf
    sweeps = solves = 0
    stop = None
    small_count = 0
    while sweeps < max_sweeps:
        sweeps += 1
        grad, diag, off = kernels.newton_assemble(nodes, dt, gm, gj, constants.c, pert)

        damping = 0.0
        damping_scale = max(float(np.abs(diag).max()), 1e-300)
        improved = False
        while damping < 1e8:
            diag_eff = diag - damping * damping_scale * np.eye(3) if damping else diag
            step = kernels.block_thomas(diag_eff, off, -grad)
            solves += 1
            if not damping and 0.0 <= 0.5 * float(np.vdot(grad, step)) <= gain_floor * abs(tau):
                # tau cannot resolve the gain, but the step still carries
                # the nodes onto the stationary point: take it whole
                stop = "decrement"
                candidate = nodes.copy()
                candidate[1:-1] += step
                if not np.array_equal(candidate, nodes):
                    tau_candidate = kernels.path_functional(candidate, dt, gm, gj, constants.c, pert)
                    if math.isfinite(tau_candidate):
                        nodes, tau = candidate, tau_candidate
                break
            alpha = 1.0
            for _ in range(30):
                candidate = nodes.copy()
                candidate[1:-1] += alpha * step
                if np.array_equal(candidate, nodes):
                    # the step rounds away at every node, and so does every
                    # smaller alpha: the candidate can only give back tau
                    break
                tau_candidate = kernels.path_functional(candidate, dt, gm, gj, constants.c, pert)
                if not math.isnan(tau_candidate) and tau_candidate > tau:
                    trial, tau_trial, improved = candidate, tau_candidate, True
                    break
                alpha *= 0.5
            if improved:
                break
            damping = 1e-8 if damping == 0.0 else damping * 16.0
        if not improved:
            # either the decrement or the whole damping ladder says the
            # gradient is numerically exhausted: this is the maximum
            stop = stop or "exhausted"
            residual = 0.0
            break
        nodes = trial
        residual = abs(tau_trial - tau) / max(abs(tau_trial), 1e-300)
        tau = tau_trial
        # one polish sweep after the first sub-tolerance change lands the
        # quadratically converging iteration on its noise floor
        small_count = small_count + 1 if residual < tol else 0
        if small_count >= 2:
            stop = "tolerance"
            break

    if stop is None:
        raise NoConvergence(
            f"no convergence after {sweeps} sweeps (last relative change {residual:.3e})"
        )

    return ExtremalPathResult(
        path=_midpoint_path(bc, nodes),
        proper_time=tau,
        converged=True,
        residual_norm=residual,
        sweeps=sweeps,
        nodes=nodes,
        solves=solves,
        stop=stop,
    )


def proper_time_along(
    model: RotatingMassModel,
    path: PathSpec,
    include_perturbation: bool = False,
    constants: PhysicalConstants = CODATA,
) -> float:
    """Quadrature of the full-metric dtau/dt over a sampled path.

    Uses the quadrature rule matching the path flavor (midpoint-rule samples
    from the solver integrate with uniform weights, node samples with
    composite Simpson), so re-evaluating a solver path reproduces the
    solver's own functional value.  Raises :class:`DomainError` for an
    "azimuth" path: its rule in phi weights dtau/dt by dt/dphi, which peaks
    sharply at the ends of a long arm (+129% at L/w = 1e3 on 1025 samples).
    """
    if path.kind == "azimuth":
        raise DomainError("proper_time_along needs samples uniform in t, not an azimuth path")
    rad = kernels.radicand_array(
        path.r, path.theta, path.dr_dt, path.dtheta_dt, path.dphi_dt,
        constants.G * model.M, constants.G * model.J, constants.c,
        1 if include_perturbation else 0,
    )
    if np.any(rad <= 0.0):
        raise NotTimelike("path contains samples that are not timelike")
    return _integrate_samples(path, np.sqrt(rad))


def energy_ratio_samples(
    model: RotatingMassModel,
    path: PathSpec,
    constants: PhysicalConstants = CODATA,
) -> np.ndarray:
    """Weak-field energy ratio 1 + v^2/2c^2 - GM/(c^2 r) at every sample."""
    return kernels.energy_ratio_array(
        path.r, path.theta, path.dr_dt, path.dtheta_dt, path.dphi_dt,
        constants.G * model.M, constants.c,
    )


def verify_first_order(
    model: RotatingMassModel,
    bc: BoundaryConditions,
    scale_sequence,
    constants: PhysicalConstants = CODATA,
    n_segments: int = DEFAULT_SEGMENTS,
) -> FirstOrderReport:
    """Residual study of the first-order shift formula.

    For each epsilon, solves the exact extremal path with angular momentum
    epsilon * J and compares the proper-time shift against the first-order
    prediction integrated along the unperturbed path.  The fitted log-log
    slope of the residual approaches 2 when the formula captures everything
    at first order.  Raises :class:`DomainError` unless the scales are
    finite, positive and hold at least two distinct values, and unless the
    largest scaled J stays perturbative: its h_tphi term, against the
    background, along the straight line from the start event (see
    :func:`~gravclock.spacetime.perturbation_validity`) must stay below
    ``DEFAULT_WEAK_FIELD_THRESHOLD``.  After the solves it also raises
    :class:`DomainError`, naming the scales, for any residual below the
    rounding floor n_segments * eps_mach * |tau| of the exact shift, where
    the fit would measure roundoff instead of the formula.
    """
    eps = np.asarray(list(scale_sequence), dtype=float)
    if not np.all(np.isfinite(eps)):
        raise DomainError("scales must be finite")
    if np.unique(eps).size < 2:
        raise DomainError("scales needs at least two distinct values to fit a slope")
    if np.any(eps <= 0):
        raise DomainError("perturbation scales must be positive")
    largest_j = float(eps.max()) * model.J
    validity = math.inf
    if math.isfinite(largest_j):
        direction = (_coords(bc.end) - _coords(bc.start)) / (bc.end.t - bc.start.t)
        validity = perturbation_validity(
            RotatingMassModel(M=model.M, J=largest_j), bc.start,
            CoordinateVelocity(*direction), constants,
        )
    if not validity < DEFAULT_WEAK_FIELD_THRESHOLD:
        raise DomainError(
            f"scales up to {eps.max():.6g} leave the perturbative regime: "
            f"|h/gbar| along the starting straight line is {validity:.3g} "
            f">= {DEFAULT_WEAK_FIELD_THRESHOLD}"
        )

    base = solve_extremal_path(
        model, bc, include_perturbation=False, constants=constants, n_segments=n_segments
    )
    prediction_unit = delta_tau_first_order(model, base.path, constants)

    exact = np.empty_like(eps)
    all_converged = base.converged
    for i, scale in enumerate(eps):
        scaled = RotatingMassModel(M=model.M, J=scale * model.J)
        solved = solve_extremal_path(
            scaled, bc, include_perturbation=True, constants=constants, n_segments=n_segments
        )
        all_converged = all_converged and solved.converged
        exact[i] = solved.proper_time - base.proper_time

    predicted = eps * prediction_unit
    residuals = np.abs(exact - predicted)
    # each shift is a difference of two n_segments-term sums of size |tau|
    floor = n_segments * np.finfo(float).eps * abs(base.proper_time)
    if np.any(residuals < floor):
        raise DomainError(
            f"scales {', '.join(f'{e:g}' for e in eps[residuals < floor])} leave residuals below "
            f"the rounding floor n_segments * eps_mach * |tau| = {floor:.3g} of the exact shift"
        )
    return FirstOrderReport(
        epsilons=eps,
        exact_shifts=exact,
        predicted_shifts=predicted,
        residuals=residuals,
        slope=float(np.polyfit(np.log(eps), np.log(residuals), 1)[0]),
        all_converged=all_converged,
    )
