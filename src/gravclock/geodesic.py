"""Brute-force extremal-path oracle for the first-order shift theorem.

Fix two events and ask for the timelike path between them that extremizes
(maximizes) proper time.  The solver discretizes the trajectory on a uniform
coordinate-time grid, evaluates the proper time with a midpoint rule per
segment, and relaxes the interior spatial nodes with Newton sweeps until
no step can raise the functional.  Because the discrete functional is
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
from .errors import DomainError, NoConvergence, NotTimelike, WeakFieldViolation
from .propertime import PathSpec, delta_tau_first_order
from .spacetime import DEFAULT_WEAK_FIELD_THRESHOLD, RotatingMassModel, SpacetimePoint

DEFAULT_SEGMENTS = 512
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
    sweeps: int
    nodes: np.ndarray  # (n_segments + 1, 3) rows (r, theta, phi)
    stop: str  # "decrement" or "exhausted"


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
        kind="midpoint",
    )


def _weak_field_errors(nodes, dt, gm, gj, c, sweep) -> list:
    # the perturbed functional's 8GJ sin^2(theta) v_phi/(c^4 r) term is
    # unbounded above as r -> 0: a path that heads there has left the weak
    # field, and Newton steps would climb after it without end.  One entry
    # per path of the stack: its DomainError, or None
    errors = [None] * len(nodes)
    positive = np.all(nodes[..., 0] > 0.0, axis=-1)
    inside = np.flatnonzero(positive)
    shares = kernels.perturbation_share(
        nodes if inside.size == len(nodes) else nodes[inside], dt, gm, gj[inside], c
    )
    for j, share in zip(inside, shares):
        if not share < DEFAULT_WEAK_FIELD_THRESHOLD:
            errors[j] = DomainError(
                f"sweep {sweep} left the weak field: |2 h_tphi v_phi / c| is {share:.3g} of "
                f"|1 - eps - v^2/c^2| on a segment (limit {DEFAULT_WEAK_FIELD_THRESHOLD})"
            )
    for j in np.flatnonzero(~positive):
        errors[j] = DomainError(f"sweep {sweep} carried a node to r <= 0")
    return errors


def _steps(diag, off, grad) -> list:
    # one Newton step -H^-1 g per path of the stack, or None where a
    # singular block left the path's solve non-finite.  Solving for +g and
    # negating is exact, and spares the stack a negated copy of g
    return [
        -step if np.isfinite(step).all() else None
        for step in kernels.block_thomas(diag, off, grad)
    ]


@dataclass(eq=False)
class _Member:
    """One path of a stacked Newton iteration; its nodes are a row of the stack."""

    index: int  # its position in the caller's stack
    tau: float
    residual: float = math.inf  # the relative change of tau at its last step


def _sweep(members, nodes, dt, gm, gj, c, sweep) -> tuple:
    # one undamped Newton step for every member, taken in place where it
    # raises tau.  Returns a stop and an error per member: "decrement",
    # "exhausted" or None if it goes on, and its DomainError or None
    grad, diag, off = kernels.newton_assemble(nodes, dt, gm, gj, c)
    stops, errors = [None] * len(members), [None] * len(members)
    trial = nodes.copy()
    for j, step in enumerate(_steps(diag, off, grad)):
        gain = math.nan if step is None else 0.5 * float(np.vdot(grad[j], step))
        if not gain >= 0.0:
            errors[j] = DomainError(
                f"sweep {sweep} found no maximum of the proper time near the path: "
                "its Hessian is not negative definite"
            )
            continue
        # the Newton decrement: a predicted gain below a few ulps of tau
        # cannot show in the functional, so the step has nothing left to
        # find, but it still carries the nodes onto the stationary point
        if gain <= 4.0 * np.finfo(float).eps * abs(members[j].tau):
            stops[j] = "decrement"
        trial[j, 1:-1] += step
    for j, value in enumerate(kernels.path_functional(trial, dt, gm, gj, c)):
        member, value = members[j], float(value)
        if errors[j]:
            continue
        if stops[j]:
            if math.isfinite(value):  # the decrement's step, taken whole
                nodes[j], member.tau = trial[j], value
        elif value > member.tau:
            member.residual = abs(value - member.tau) / max(abs(value), 1e-300)
            nodes[j], member.tau = trial[j], value
        elif value == member.tau:
            stops[j] = "exhausted"  # the step rounds away
        else:  # lower, or NaN
            errors[j] = DomainError(f"sweep {sweep}: the Newton step did not raise the proper time")
    return stops, errors


def _solve_stack(bc, starts, gm, gj, c, start_name="starting trajectory"):
    """The Newton iteration of :func:`solve_extremal_path` over a stack of paths.

    ``starts`` is a (k, n_segments + 1, 3) stack of starting nodes between
    the events of ``bc`` and ``gj`` holds G J for each.  Every member runs
    the iteration it would run alone, with its own Newton step, weak-field
    check, sweep count and stop, and bit for bit the same arithmetic: the
    members only share the kernel calls, each of which treats every path
    of its stack on its own.  A member leaves the stack when it stops.  The
    sweep cap is ``DEFAULT_MAX_SWEEPS``, read at each call.

    Returns (results, failure).  ``failure`` is None, or (i, exc) for the
    first member i, in stack order, whose iteration raised ``exc``: a start
    that is not timelike (named by ``start_name``), a Hessian that is not
    negative definite, a step that does not raise tau or that leaves the
    weak field, or the sweep cap.  A failing member drops every member
    after it, and the members before it still run to their end, so this
    is the error that solving the members one after another would raise.
    """
    dt = (bc.end.t - bc.start.t) / (starts.shape[1] - 1)
    gj = np.asarray(gj, dtype=np.float64)
    results = [None] * len(starts)
    failure = None
    members = []
    for i, tau in enumerate(kernels.path_functional(starts, dt, gm, gj, c)):
        if math.isnan(tau):
            failure = (i, NotTimelike(f"the {start_name} is not timelike"))
            break
        members.append(_Member(i, float(tau)))
    nodes = np.array(starts[: len(members)], dtype=np.float64)
    gj = gj[: len(members)]
    sweep = 0
    while members and sweep < DEFAULT_MAX_SWEEPS:
        sweep += 1
        stops, errors = _sweep(members, nodes, dt, gm, gj, c, sweep)
        if gj.any():
            weak = _weak_field_errors(nodes, dt, gm, gj, c, sweep)
            errors = [error or left for error, left in zip(errors, weak)]
        keep = []
        for j, member in enumerate(members):
            if errors[j] is not None:
                failure = (member.index, errors[j])
                break  # the members after it no longer matter
            if stops[j] is None:
                keep.append(j)
                continue
            results[member.index] = ExtremalPathResult(
                path=_midpoint_path(bc, nodes[j]),
                proper_time=member.tau,
                converged=True,
                sweeps=sweep,
                nodes=nodes[j].copy(),
                stop=stops[j],
            )
        if len(keep) < len(members):
            members = [members[j] for j in keep]
            nodes, gj = nodes[keep], gj[keep]

    if members:
        failure = (members[0].index, NoConvergence(
            f"no convergence after {sweep} sweeps (last relative change {members[0].residual:.3e})"
        ))
    return results, failure


def solve_extremal_path(
    model: RotatingMassModel,
    bc: BoundaryConditions,
    constants: PhysicalConstants = CODATA,
    n_segments: int = DEFAULT_SEGMENTS,
    start: np.ndarray | None = None,
) -> ExtremalPathResult:
    """Maximize proper time over interior nodes at fixed coordinate times.

    The iteration starts from ``start``, an (n_segments + 1, 3) array of
    nodes (r, theta, phi) whose first and last rows are the boundary events,
    or, by default, from the nodes linear in (r, theta, phi) between them.
    Each sweep assembles the exact gradient and block-tridiagonal Hessian
    of the discrete proper time, solves for the Newton step and takes it
    whole, with no damping or line search.  The result's ``stop`` says why
    the iteration ended:

    - ``"decrement"``: the step's predicted gain ½ gradᵀ·step (the Newton
      decrement; Boyd and Vandenberghe, *Convex Optimization*, §9.5.1) lies
      in [0, 4 eps_mach |tau|], below what the functional can resolve: the
      sweep takes the whole step, which moves tau only by rounding but lands
      the nodes on the stationary point, keeps it if tau stays finite, and stops;
    - ``"exhausted"``: the predicted gain is larger, but the step gives
      back tau exactly: it rounds away, and the nodes stay where they are.

    Any other sweep raises :class:`DomainError`, naming it: a predicted gain
    below 0, or a singular 3x3 block that leaves the step non-finite, means
    the Hessian is not negative definite, so no maximum lies near the path;
    and a step that gives a lower or NaN tau did not raise the proper time.
    G J = 0 gives the background (Schwarzschild) functional, and nothing
    else switches h_tphi off.  At a nonzero G J, a sweep that leaves a node
    at r <= 0, or gives a segment a frame-dragging share
    |2 h_tphi v_phi / c| / |1 - eps - v^2/c^2| of at least
    ``DEFAULT_WEAK_FIELD_THRESHOLD``, raises :class:`DomainError`: the path
    has left the weak field, where the functional is unbounded above.
    Raises :class:`DomainError` for a ``start`` of the wrong shape or
    endpoints, :class:`NotTimelike` if the starting trajectory is not
    timelike, and :class:`NoConvergence` after ``DEFAULT_MAX_SWEEPS``
    sweeps.  This is the one-path case of the stacked iteration that
    :func:`verify_first_order` runs over its scales.
    """
    if n_segments < 2:
        raise DomainError("need at least two segments")
    chord = np.linalg.norm(_cartesian(bc.end) - _cartesian(bc.start))
    span = bc.end.t - bc.start.t
    if chord >= constants.c * span:
        raise DomainError("endpoints are not timelike-separated (chord speed >= c)")

    ends = np.stack((_coords(bc.start), _coords(bc.end)))
    if start is None:
        frac = np.linspace(0.0, 1.0, n_segments + 1)[:, None]
        nodes = (1.0 - frac) * ends[0] + frac * ends[1]
    else:
        nodes = np.array(start, dtype=np.float64)
        if nodes.shape != (n_segments + 1, 3):
            raise DomainError(
                f"start must have shape ({n_segments + 1}, 3), not {nodes.shape}"
            )
        if not np.array_equal(nodes[[0, -1]], ends):
            raise DomainError("start must begin and end at the boundary events")

    results, failure = _solve_stack(
        bc, nodes[None], constants.G * model.M, [constants.G * model.J], constants.c
    )
    if failure is not None:
        raise failure[1]
    return results[0]


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
    at first order.

    Each scaled solve starts from a first-order (Euler) predictor (Allgower
    and Georg, *Introduction to Numerical Continuation Methods*, ch. 2): the
    base nodes plus epsilon * t, where t = -H^-1 g is the Newton step at the
    base nodes with angular momentum J, the tangent of the maximum's path in
    epsilon.  If that Hessian has a singular block, t = 0.  The scaled
    solves run as one Newton iteration over the stack of their paths (see
    :func:`solve_extremal_path`), each member exactly as it would run
    alone, so a default study makes 3 stacked sweeps instead of 18 single
    ones.

    Raises :class:`DomainError` unless the scales are finite, positive and
    hold at least two distinct values, and unless the largest scaled J
    stays perturbative: its h_tphi term's share of the background radicand
    at the start event, along the straight line to the end event (see
    :func:`~gravclock.kernels.perturbation_share_array`), must stay below
    ``DEFAULT_WEAK_FIELD_THRESHOLD``; a compactness 2GM/(c^2 r) there at
    or above that threshold raises :class:`WeakFieldViolation` first.  A
    scaled solve's :class:`DomainError` is raised again with its scale
    named: a predictor start that is not timelike (checked for every scale
    before the first sweep), a sweep that finds no maximum or does not
    raise the proper time, or a path that leaves the weak field.  Of
    several failing scales, the one named is the first in the given order,
    with its own sweep, as if the scales were solved one after another.
    After the solves it also raises :class:`DomainError`, naming the
    scales, for any residual below the rounding floor
    n_segments * eps_mach * |tau| of the exact shift, where the fit would
    measure roundoff instead of the formula.
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
        validity, compactness = map(float, kernels.perturbation_share_array(
            bc.start.r, bc.start.theta, *direction,
            constants.G * model.M, constants.G * largest_j, constants.c,
        ))
        if compactness >= DEFAULT_WEAK_FIELD_THRESHOLD:
            raise WeakFieldViolation(
                f"2GM/(c^2 r) = {compactness:.3e} >= threshold {DEFAULT_WEAK_FIELD_THRESHOLD:.3e}"
            )
    if not validity < DEFAULT_WEAK_FIELD_THRESHOLD:
        raise DomainError(
            f"scales up to {eps.max():.6g} leave the perturbative regime: "
            f"|h/gbar| along the starting straight line is {validity:.3g} "
            f">= {DEFAULT_WEAK_FIELD_THRESHOLD}"
        )

    base = solve_extremal_path(
        RotatingMassModel(model.M, 0.0), bc, constants=constants, n_segments=n_segments
    )
    prediction_unit = delta_tau_first_order(model, base.path, constants)

    # Euler predictor: at J = model.J, one Newton step from the base nodes is
    # the tangent t of the maximum's path in the scale, so scale e starts
    # at base + e t, O(e^2) from its maximum
    grad, diag, off = kernels.newton_assemble(
        base.nodes[None], (bc.end.t - bc.start.t) / n_segments,
        constants.G * model.M, constants.G * model.J, constants.c,
    )
    (step,) = _steps(diag, off, grad)
    tangent = np.zeros_like(base.nodes)
    if step is not None:  # else a singular block: every scale starts from the base nodes
        tangent[1:-1] = step

    # every scale in one stacked Newton iteration, each from its predictor
    # start; a start that is not timelike fails before the first sweep
    results, failure = _solve_stack(
        bc, base.nodes + eps[:, None, None] * tangent, constants.G * model.M,
        constants.G * (eps * model.J), constants.c, start_name="predictor start",
    )
    if failure is not None:
        i, exc = failure
        if isinstance(exc, DomainError):
            raise type(exc)(f"scale {eps[i]:g}: {exc}") from exc
        raise exc
    exact = np.array([solved.proper_time for solved in results]) - base.proper_time
    all_converged = base.converged and all(solved.converged for solved in results)

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
