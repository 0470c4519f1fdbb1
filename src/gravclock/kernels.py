"""Numpy kernels for the proper-time arithmetic.

``weak_field_terms`` is the one place the weak-field metric enters: the
radicands, integrands and energy ratios here, and the scalar functions in
:mod:`gravclock.spacetime`, are all built from its compactness, squared
speed and frame-dragging entry.

Kernels take plain float64 arrays plus scalar parameters ``gm = G*M``,
``gj = G*J`` and ``c``; they never allocate package types.

The extremal-path solver's Newton step comes from ``newton_assemble``
(the exact gradient and block-tridiagonal Hessian of the path functional,
from the radicand's closed-form derivatives in ``radicand_derivatives``)
and ``block_thomas``, which solves that system by block cyclic reduction:
log2(m) levels of batched 3x3 solves instead of m sequential ones.
"""

from __future__ import annotations

import numpy as np


def weak_field_terms(r, theta, vr, vth, vph, gm, gj, c):
    """(2GM/(c^2 r), background v^2, h_tphi) at each sample.

    v^2 contracts the coordinate velocity (dr/dt, dtheta/dt, dphi/dt) with the
    spatial metric; h_tphi = -(4 G J / (c^3 r)) sin^2(theta) is the
    frame-dragging off-diagonal entry.
    """
    eps = 2.0 * gm / (c * c * r)
    sin2 = np.sin(theta) ** 2
    v2 = (1.0 + eps) * vr * vr + r * r * (vth * vth + sin2 * vph * vph)
    h = -4.0 * gj * sin2 / (c**3 * r)
    return eps, v2, h


def radicand_from_terms(eps, v2, h, vph, c, pert):
    """(dtau/dt)^2 = 1 - eps - v^2/c^2, minus (2 h_tphi / c) dphi/dt if `pert`."""
    rad = 1.0 - eps - v2 / (c * c)
    if pert:
        rad = rad - 2.0 * h * vph / c
    return rad


def radicand_derivatives(r, theta, vr, vth, vph, eps, gj, c, pert):
    """Gradient (..., 5) and Hessian (..., 5, 5) of the radicand in (r, theta, vr, vth, vph).

    ``eps`` is the compactness that ``weak_field_terms`` gives at the same samples.
    """
    q = 1.0 / (c * c)
    s, s_t, s_tt = np.sin(theta) ** 2, np.sin(2.0 * theta), 2.0 * np.cos(2.0 * theta)
    e = eps / r  # -d eps / dr
    w2 = vth * vth + s * vph * vph
    # (2/c) h_tphi = k sin^2(theta), in the term -(2/c) h_tphi vph
    k = -8.0 * gj / (c**4 * r) if pert else np.zeros_like(r)
    d1 = np.stack((
        e + q * (e * vr * vr - 2.0 * r * w2) + k * s * vph / r,
        -(q * r * r * vph + k) * s_t * vph,
        -2.0 * q * (1.0 + eps) * vr,
        -2.0 * q * r * r * vth,
        -(2.0 * q * r * r * vph + k) * s,
    ), axis=-1)
    d2 = np.zeros(d1.shape + (5,))
    for (i, j), value in {
        (0, 0): -2.0 * (e / r * (1.0 + q * vr * vr) + q * w2 + k * s * vph / (r * r)),
        (0, 1): (k / r - 2.0 * q * r * vph) * s_t * vph,
        (0, 2): 2.0 * q * e * vr,
        (0, 3): -4.0 * q * r * vth,
        (0, 4): (k / r - 4.0 * q * r * vph) * s,
        (1, 1): -(q * r * r * vph + k) * s_tt * vph,
        (1, 4): -(2.0 * q * r * r * vph + k) * s_t,
        (2, 2): -2.0 * q * (1.0 + eps),
        (3, 3): -2.0 * q * r * r,
        (4, 4): -2.0 * q * r * r * s,
    }.items():
        d2[..., i, j] = d2[..., j, i] = value
    return d1, d2


def energy_ratio_from_speed(r, v2, gm, c):
    """E/(m c^2) = 1 + v^2/(2 c^2) - GM/(c^2 r)."""
    return 1.0 + 0.5 * v2 / (c * c) - gm / (c * c * r)


def radicand_array(r, theta, vr, vth, vph, gm, gj, c, pert):
    eps, v2, h = weak_field_terms(r, theta, vr, vth, vph, gm, gj, c)
    return radicand_from_terms(eps, v2, h, vph, c, pert)


def first_order_integrand_array(r, theta, vr, vth, vph, gm, gj, c):
    # -(h_tphi / c) * (dt/dtau_bar) * dphi/dt, integrated against dt; the
    # sign comes from expanding sqrt(-(gbar+h)_munu dx dx): a co-rotating
    # traversal gains proper time when J > 0
    eps, v2, h = weak_field_terms(r, theta, vr, vth, vph, gm, gj, c)
    rad = radicand_from_terms(eps, v2, h, vph, c, 0)
    return -h * vph / (c * np.sqrt(rad))


def pair_integrand_array(r, theta, vr, vth, vph, gm, gj, c):
    # Same first-order shift but with dt/dtau_bar replaced by the conserved
    # energy-ratio form  -(E/m c^2) / gbar_tt, doubled for the time-reversed
    # partner: the (2 E / m c^3) int h_0i / gbar_00 dx^i route.
    eps, v2, h = weak_field_terms(r, theta, vr, vth, vph, gm, gj, c)
    ratio = energy_ratio_from_speed(r, v2, gm, c)
    return -2.0 * (h / c) * ratio / (1.0 - eps) * vph


def energy_ratio_array(r, theta, vr, vth, vph, gm, c):
    _, v2, _ = weak_field_terms(r, theta, vr, vth, vph, gm, 0.0, c)
    return energy_ratio_from_speed(r, v2, gm, c)


def _segments(x, dt, gm, gj, c, pert):
    # u = (r, theta) at each segment's midpoint and its (r, theta, phi)
    # velocity, from its nodes x[i] and x[i + 1] (columns r, theta, phi);
    # then the compactness and the radicand there
    xl, xr = x[:-1].T, x[1:].T
    u = (*(0.5 * (xl[:2] + xr[:2])), *((xr - xl) / dt))
    eps, v2, h = weak_field_terms(*u, gm, gj, c)
    return u, eps, radicand_from_terms(eps, v2, h, u[4], c, pert)


def path_functional(x, dt, gm, gj, c, pert):
    with np.errstate(invalid="ignore"):
        return dt * float(np.sum(np.sqrt(_segments(x, dt, gm, gj, c, pert)[2])))


def newton_assemble(x, dt, gm, gj, c, pert):
    """Exact gradient and block-tridiagonal Hessian of the path functional.

    Returns (grad, diag, off) over the m = n_segments - 1 interior nodes:
    (m, 3), (m, 3, 3) and (m - 1, 3, 3).  A segment's dt sqrt(R) sees its
    nodes only through u = (r, theta, v_r, v_theta, v_phi), so its
    derivatives in u, dt R'/(2 sqrt R) and dt [R'' - R' R'^T/(2 R)]/(2 sqrt R),
    map to the nodes through the fixed 5x6 matrix A with
    u = A (left node, right node).
    """
    u, eps, rad = _segments(x, dt, gm, gj, c, pert)
    d1, d2 = radicand_derivatives(*u, eps, gj, c, pert)
    scale = (dt / (2.0 * np.sqrt(rad)))[:, None]
    g = scale * d1
    hess = scale[..., None] * (d2 - d1[:, :, None] * d1[:, None, :] / (2.0 * rad[:, None, None]))
    left = np.vstack((0.5 * np.eye(2, 3), -np.eye(3) / dt))  # midpoint weights, then velocity
    a = np.hstack((left, np.abs(left)))
    gs, hs = g @ a, a.T @ hess @ a
    # interior node i + 1 is the right node of segment i and the left node
    # of segment i + 1
    return gs[:-1, 3:] + gs[1:, :3], hs[:-1, 3:, 3:] + hs[1:, :3, :3], hs[1:-1, :3, 3:]


def block_thomas(diag, off, rhs):
    """Solve the symmetric block-tridiagonal system of a Newton step.

    Row i reads ``off[i-1].T @ x[i-1] + diag[i] @ x[i] + off[i] @ x[i+1] = rhs[i]``
    for (m, 3, 3) ``diag``, (m-1, 3, 3) ``off`` and (m, 3) ``rhs``.  Block
    cyclic reduction: each level eliminates the odd-indexed blocks with one
    batched 3x3 solve, leaving a block-tridiagonal system of half the size on
    the even-indexed blocks, so m blocks take log2(m) vectorized levels.
    Like block Gaussian elimination it pivots only inside each 3x3 block,
    never across blocks, which is stable for the definite (or damped)
    Hessians the solver builds.
    """
    lower = np.zeros_like(diag)
    upper = np.zeros_like(diag)
    lower[1:] = off.transpose(0, 2, 1)
    upper[:-1] = off
    return _cyclic_reduction(diag, lower, upper, rhs)


def _cyclic_reduction(diag, lower, upper, rhs):
    # rows read lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i],
    # with lower[0] and upper[-1] zero
    m = diag.shape[0]
    if m == 1:
        return np.linalg.solve(diag[0], rhs[0])[None, :]
    n_odd = m // 2
    n_even = m - n_odd

    # odd rows: x = t_b - t_l x[left] - t_u x[right], with [t_l | t_u | t_b]
    # from one batched solve on diag[odd]
    coupled = np.concatenate((lower[1::2], upper[1::2], rhs[1::2, :, None]), axis=2)
    solved = np.linalg.solve(diag[1::2], coupled)
    t_l, t_u, t_b = solved[:, :, :3], solved[:, :, 3:6], solved[:, :, 6]

    # even rows: substitute the odd neighbours, odd k-1 on the left of even
    # k and odd k on its right
    diag_r = diag[::2].copy()
    lower_r = np.zeros_like(diag_r)
    upper_r = np.zeros_like(diag_r)
    rhs_r = rhs[::2].copy()
    left = lower[2::2]
    diag_r[1:] -= left @ t_u[: n_even - 1]
    lower_r[1:] = -(left @ t_l[: n_even - 1])
    rhs_r[1:] -= np.einsum("kij,kj->ki", left, t_b[: n_even - 1])
    right = upper[: 2 * n_odd : 2]
    diag_r[:n_odd] -= right @ t_l
    upper_r[:n_odd] = -(right @ t_u)
    rhs_r[:n_odd] -= np.einsum("kij,kj->ki", right, t_b)

    x_even = _cyclic_reduction(diag_r, lower_r, upper_r, rhs_r)

    # back-substitute the odd blocks; the last one has no right neighbour
    # when m is even
    x_right = np.zeros((n_odd, 3))
    x_right[: n_even - 1] = x_even[1:]
    sol = np.empty_like(rhs)
    sol[::2] = x_even
    sol[1::2] = (
        t_b
        - np.einsum("kij,kj->ki", t_l, x_even[:n_odd])
        - np.einsum("kij,kj->ki", t_u, x_right)
    )
    return sol
