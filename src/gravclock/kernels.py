"""Numpy kernels for the proper-time arithmetic.

``weak_field_terms`` is the one place the weak-field metric enters: the
radicands, integrands and energy ratios here, and the scalar functions in
:mod:`gravclock.spacetime`, are all built from its compactness, squared
speed and frame-dragging entry.

Kernels take plain float64 arrays plus scalar parameters ``gm = G*M``,
``gj = G*J`` and ``c``; they never allocate package types.

The extremal-path solver's Newton step comes from ``newton_assemble``
(finite-difference gradient and block-tridiagonal Hessian) and
``block_thomas``, which solves that system by block cyclic reduction:
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


def _segment_rates(xl, xr, dt, gm, gj, c, pert):
    rm = 0.5 * (xl[:, 0] + xr[:, 0])
    thm = 0.5 * (xl[:, 1] + xr[:, 1])
    vr = (xr[:, 0] - xl[:, 0]) / dt
    vth = (xr[:, 1] - xl[:, 1]) / dt
    vph = (xr[:, 2] - xl[:, 2]) / dt
    eps, v2, h = weak_field_terms(rm, thm, vr, vth, vph, gm, gj, c)
    rad = radicand_from_terms(eps, v2, h, vph, c, pert)
    with np.errstate(invalid="ignore"):
        return np.sqrt(rad)


def path_functional(x, dt, gm, gj, c, pert):
    rates = _segment_rates(x[:-1], x[1:], dt, gm, gj, c, pert)
    return dt * float(np.sum(rates))


def newton_assemble(x, dt, gm, gj, c, pert, hg, hh):
    n = x.shape[0] - 1
    m = n - 1
    xl = x[:-1]
    xr = x[1:]

    def seg(dl, dr):
        return dt * _segment_rates(xl + dl, xr + dr, dt, gm, gj, c, pert)

    zero = np.zeros((1, 3))
    s0 = seg(zero, zero)

    grad = np.zeros((m, 3))
    diag = np.zeros((m, 3, 3))
    off = np.zeros((m - 1, 3, 3)) if m > 1 else np.zeros((0, 3, 3))

    def unit(cc, step):
        e = np.zeros((1, 3))
        e[0, cc] = step
        return e

    # first derivatives and same-coordinate second derivatives
    s_l_plus, s_l_minus, s_r_plus, s_r_minus = [], [], [], []
    for cc in range(3):
        s_l_plus.append(seg(unit(cc, hh[cc]), zero))
        s_l_minus.append(seg(unit(cc, -hh[cc]), zero))
        s_r_plus.append(seg(zero, unit(cc, hh[cc])))
        s_r_minus.append(seg(zero, unit(cc, -hh[cc])))
        gl = (seg(unit(cc, hg[cc]), zero) - seg(unit(cc, -hg[cc]), zero)) / (2.0 * hg[cc])
        gr = (seg(zero, unit(cc, hg[cc])) - seg(zero, unit(cc, -hg[cc]))) / (2.0 * hg[cc])
        grad[:, cc] = gr[:m] + gl[1:]

    for cc in range(3):
        d2l = (s_l_plus[cc] - 2.0 * s0 + s_l_minus[cc]) / hh[cc] ** 2
        d2r = (s_r_plus[cc] - 2.0 * s0 + s_r_minus[cc]) / hh[cc] ** 2
        diag[:, cc, cc] = d2r[:m] + d2l[1:]

    # mixed second derivatives on one side
    for ca in range(3):
        for cb in range(ca + 1, 3):
            scale = 4.0 * hh[ca] * hh[cb]
            d2l = (
                seg(unit(ca, hh[ca]) + unit(cb, hh[cb]), zero)
                - seg(unit(ca, hh[ca]) + unit(cb, -hh[cb]), zero)
                - seg(unit(ca, -hh[ca]) + unit(cb, hh[cb]), zero)
                + seg(unit(ca, -hh[ca]) + unit(cb, -hh[cb]), zero)
            ) / scale
            d2r = (
                seg(zero, unit(ca, hh[ca]) + unit(cb, hh[cb]))
                - seg(zero, unit(ca, hh[ca]) + unit(cb, -hh[cb]))
                - seg(zero, unit(ca, -hh[ca]) + unit(cb, hh[cb]))
                + seg(zero, unit(ca, -hh[ca]) + unit(cb, -hh[cb]))
            ) / scale
            val = d2r[:m] + d2l[1:]
            diag[:, ca, cb] = val
            diag[:, cb, ca] = val

    # left-right coupling within one segment
    if m > 1:
        for ca in range(3):
            for cb in range(3):
                scale = 4.0 * hh[ca] * hh[cb]
                d2 = (
                    seg(unit(ca, hh[ca]), unit(cb, hh[cb]))
                    - seg(unit(ca, hh[ca]), unit(cb, -hh[cb]))
                    - seg(unit(ca, -hh[ca]), unit(cb, hh[cb]))
                    + seg(unit(ca, -hh[ca]), unit(cb, -hh[cb]))
                ) / scale
                off[:, ca, cb] = d2[1 : n - 1]

    return grad, diag, off


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
