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
from .errors import DomainError, NoConvergence, NotTimelike, WeakFieldViolation
from .propertime import PathSpec, delta_tau_first_order
from .spacetime import DEFAULT_WEAK_FIELD_THRESHOLD, RotatingMassModel, SpacetimePoint

DEFAULT_SEGMENTS = 512
DEFAULT_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 10_000
# the undamped solve, then diag - d max|diag| I for d = 1e-8, 16e-8, ... < 1e8
_DAMPING_LADDER = (0.0, *(1e-8 * 16.0**k for k in range(14)))


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
    # one Newton step -H^-1 g per path of the stack, or None where a block
    # is singular; the batched inverse raises for the whole stack, so a
    # stack that raises is solved again one path at a time.  Solving for
    # +g and negating is exact, and spares the stack a negated copy of g
    try:
        return [-step for step in kernels.block_thomas(diag, off, grad)]
    except np.linalg.LinAlgError:
        if len(diag) == 1:
            return [None]
    steps = []
    for member in zip(diag, off, grad):
        try:
            steps.append(-kernels.block_thomas(*member))
        except np.linalg.LinAlgError:
            steps.append(None)
    return steps


@dataclass(eq=False)
class _Member:
    """One path of a stacked Newton iteration; its nodes are a row of the stack."""

    index: int  # its position in the caller's stack
    tau: float
    residual: float = math.inf
    solves: int = 0
    small_count: int = 0
    # the outcome of the current sweep
    stop: str | None = None
    improved: bool = False
    trial: tuple | None = None  # the accepted (nodes, tau)


def _ladder(members, nodes, grad, diag, off, dt, gm, gj, c) -> None:
    # one sweep's damping ladder for every member: each rung solves, in one
    # stacked call, the members that no earlier rung moved
    damping_scale = np.maximum(np.abs(diag).max(axis=(-3, -2, -1)), 1e-300)
    # the Newton decrement: a predicted gain below a few ulps of tau cannot
    # show in the functional, so the step has nothing left to find
    gain_floor = 4.0 * np.finfo(float).eps
    pending = list(range(len(members)))
    for damping in _DAMPING_LADDER:
        if not pending:
            break
        whole = len(pending) == len(members)
        d = diag if whole else diag[pending]
        if damping:
            d = d - (damping * damping_scale[pending])[:, None, None, None] * np.eye(3)
        steps = _steps(d, off if whole else off[pending], grad if whole else grad[pending])
        searching = []
        for j, step in zip(pending, steps):
            member = members[j]
            member.solves += 1
            if step is None:
                continue  # a singular block: this rung gives no step
            gain = 0.5 * float(np.vdot(grad[j], step))
            if not damping and 0.0 <= gain <= gain_floor * abs(member.tau):
                # tau cannot resolve the gain, but the step still carries
                # the nodes onto the stationary point: take it whole
                member.stop = "decrement"
            searching.append((j, step))
        _line_search(members, searching, nodes, dt, gm, gj, c)
        pending = [j for j in pending if not (members[j].stop or members[j].improved)]


def _line_search(members, searching, nodes, dt, gm, gj, c) -> None:
    # halve each (j, step) of `searching` up to 30 times until tau rises or,
    # for a member that stops on the decrement, try its whole step once;
    # each round evaluates the candidates of every member still searching
    alpha = 1.0
    for _ in range(30):
        moved = []
        for j, step in searching:
            candidate = nodes[j].copy()
            candidate[1:-1] += alpha * step
            # a step that rounds away at every node rounds away at every
            # smaller alpha too: the candidate can only give back tau
            if not np.array_equal(candidate, nodes[j]):
                moved.append((j, step, candidate))
        if not moved:
            break
        values = kernels.path_functional(
            np.stack([candidate for _, _, candidate in moved]),
            dt, gm, gj[[j for j, _, _ in moved]], c,
        )
        searching = []
        for (j, step, candidate), value in zip(moved, values):
            member, value = members[j], float(value)
            if member.stop:
                if math.isfinite(value):
                    member.trial = candidate, value
            elif not math.isnan(value) and value > member.tau:
                member.trial, member.improved = (candidate, value), True
            else:
                searching.append((j, step))
        alpha *= 0.5


def _solve_stack(bc, starts, gm, gj, c, start_name="starting trajectory"):
    """The Newton iteration of :func:`solve_extremal_path` over a stack of paths.

    ``starts`` is a (k, n_segments + 1, 3) stack of starting nodes between
    the events of ``bc`` and ``gj`` holds G J for each.  Every member runs
    the iteration it would run alone, with its own damping ladder, line
    search, weak-field check, counts and stop, and bit for bit the same
    arithmetic: the members only share the kernel calls, each of which
    treats every path of its stack on its own.  A member leaves the stack
    when it stops.  The tolerance and the sweep cap are ``DEFAULT_TOL`` and
    ``DEFAULT_MAX_SWEEPS``, read at each call.

    Returns (results, failure).  ``failure`` is None, or (i, exc) for the
    first member i, in stack order, whose iteration raised ``exc``: a start
    that is not timelike (named by ``start_name``), a step that leaves the
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
        for member in members:
            member.stop, member.improved, member.trial = None, False, None
        _ladder(members, nodes, *kernels.newton_assemble(nodes, dt, gm, gj, c), dt, gm, gj, c)

        for j, member in enumerate(members):
            if member.trial is not None:
                candidate, tau = member.trial
                if member.improved:
                    member.residual = abs(tau - member.tau) / max(abs(tau), 1e-300)
                nodes[j], member.tau = candidate, tau
        errors = _weak_field_errors(nodes, dt, gm, gj, c, sweep) if gj.any() else [None] * len(members)
        keep = []
        for j, member in enumerate(members):
            if errors[j] is not None:
                failure = (member.index, errors[j])
                break  # the members after it no longer matter
            if not member.improved:
                # either the decrement or the whole damping ladder says the
                # gradient is numerically exhausted: this is the maximum
                member.stop = member.stop or "exhausted"
                member.residual = 0.0
            else:
                # one polish sweep after the first sub-tolerance change lands the
                # quadratically converging iteration on its noise floor
                member.small_count = member.small_count + 1 if member.residual < DEFAULT_TOL else 0
                if member.small_count >= 2:
                    member.stop = "tolerance"
            if not member.stop:
                keep.append(j)
                continue
            results[member.index] = ExtremalPathResult(
                path=_midpoint_path(bc, nodes[j]),
                proper_time=member.tau,
                converged=True,
                residual_norm=member.residual,
                sweeps=sweep,
                nodes=nodes[j].copy(),
                solves=member.solves,
                stop=member.stop,
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
    of the discrete proper time and solves for the Newton step.  The
    result's ``stop`` says why the iteration ended:

    - ``"decrement"``: the step's predicted gain ½ gradᵀ·step (the Newton
      decrement; Boyd and Vandenberghe, *Convex Optimization*, §9.5.1) lies
      in [0, 4 eps_mach |tau|], below what the functional can resolve: the
      sweep takes the whole step, which moves tau only by rounding but lands
      the nodes on the stationary point, keeps it if tau stays finite, and stops;
    - ``"tolerance"``: two successive accepted steps changed tau by less
      than ``DEFAULT_TOL`` relative;
    - ``"exhausted"``: no step on the damping ladder (diag - d max|diag| I
      for d = 1e-8, 16e-8, ...), each halved up to 30 times, raised tau.

    A block solve that meets a singular 3x3 block (``np.linalg.LinAlgError``)
    is a failed rung of that ladder: the sweep tries the next damping.
    ``solves`` counts the Newton-step solves: one per sweep plus each damped
    retry.  G J = 0 gives the background (Schwarzschild) functional, and
    nothing else switches h_tphi off.  At a nonzero G J, a sweep that leaves
    a node at r <= 0, or gives a segment a frame-dragging share
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
    before the first sweep), or a path that leaves the weak field.  Of
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
