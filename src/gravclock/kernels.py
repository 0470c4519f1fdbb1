"""Numpy kernels for the proper-time arithmetic.

``weak_field_terms`` is the one place the weak-field metric enters: the
radicands, integrands and energy ratios here, and the scalar functions in
:mod:`gravclock.spacetime`, are all built from its compactness, squared
speed and frame-dragging entry.

Kernels take plain float64 arrays plus scalar parameters ``gm = G*M``,
``gj = G*J`` and ``c``; they never allocate package types.

The extremal-path solver's Newton step comes from ``newton_assemble``
(finite-difference gradient and block-tridiagonal Hessian, from one table
of node shifts evaluated a cache-sized block at a time) and
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
    # dtau/dt of each segment from its left and right nodes, coordinate first:
    # xl[0], xl[1], xl[2] hold r, theta, phi
    rm = 0.5 * (xl[0] + xr[0])
    thm = 0.5 * (xl[1] + xr[1])
    vr = (xr[0] - xl[0]) / dt
    vth = (xr[1] - xl[1]) / dt
    vph = (xr[2] - xl[2]) / dt
    eps, v2, h = weak_field_terms(rm, thm, vr, vth, vph, gm, gj, c)
    rad = radicand_from_terms(eps, v2, h, vph, c, pert)
    with np.errstate(invalid="ignore"):
        return np.sqrt(rad)


def path_functional(x, dt, gm, gj, c, pert):
    rates = _segment_rates(x[:-1].T, x[1:].T, dt, gm, gj, c, pert)
    return dt * float(np.sum(rates))


# coordinate pairs of one node that share a mixed second derivative
_PAIRS = ((0, 1), (0, 2), (1, 2))


def _probe_layout():
    """The 85 shifts of a segment's (left, right) nodes that newton_assemble probes.

    ``codes[k, s, j]`` shifts coordinate j of side s (0 left, 1 right) in
    probe k by +-hg[j] for +-1, by +-hh[j] for +-2, and not at all for 0;
    probe 0 shifts nothing.  The index arrays name the probes, with sign
    index 0 for + and 1 for -: ``single[side, sign, step, j]`` shifts one
    coordinate by +-hg (step 0) or +-hh (step 1); ``same[side, sign_a,
    sign_b, pair]`` shifts the coordinates (a, b) of a ``_PAIRS`` entry of
    one node by (+-hh[a], +-hh[b]); ``cross[sign_a, sign_b, a, b]`` shifts
    left coordinate a by +-hh[a] and right coordinate b by +-hh[b].
    """
    codes = [np.zeros((2, 3), dtype=np.intp)]

    def add(*moves):  # (side, coordinate, code) per shifted coordinate
        codes.append(np.zeros((2, 3), dtype=np.intp))
        for side, j, code in moves:
            codes[-1][side, j] = code
        return len(codes) - 1

    pm = (1, -1)
    single = [[[[add((side, j, sg * st)) for j in range(3)] for st in (1, 2)]
               for sg in pm] for side in (0, 1)]
    same = [[[[add((side, a, 2 * sa), (side, b, 2 * sb)) for a, b in _PAIRS]
              for sb in pm] for sa in pm] for side in (0, 1)]
    cross = [[[[add((0, a, 2 * sa), (1, b, 2 * sb)) for b in range(3)]
               for a in range(3)] for sb in pm] for sa in pm]
    return np.array(codes), np.array(single), np.array(same), np.array(cross)


_PROBE_CODES, _SINGLE, _SAME, _CROSS = _probe_layout()
# probes evaluated together: (8, n_segments) temporaries stay in cache,
# where one stack of all 85 probes falls out of it
_PROBE_BLOCK = 8


def newton_assemble(x, dt, gm, gj, c, pert, hg, hh):
    """Finite-difference gradient and block-tridiagonal Hessian of the functional.

    Returns (grad, diag, off) over the m = n_segments - 1 interior nodes:
    (m, 3), (m, 3, 3) and (m - 1, 3, 3).  The central differences, with
    steps ``hg`` (gradient) and ``hh`` (Hessian) per coordinate, need every
    segment's rate under the 85 shifts of its two nodes in ``_probe_layout``.
    These are evaluated ``_PROBE_BLOCK`` shifts at a time over a leading
    probe axis, and each stencil reads its rows of the (85, n_segments)
    result by index.
    """
    n = x.shape[0] - 1
    m = n - 1
    steps = np.stack((np.zeros(3), hg, hh))[np.abs(_PROBE_CODES), np.arange(3)]
    shifts = (np.sign(_PROBE_CODES) * steps).transpose(1, 2, 0)[..., None]
    # shifts are (side, coordinate, probe, 1), nodes (coordinate, 1, node)
    xt = np.ascontiguousarray(x.T)[:, None, :]
    seg = np.empty((_PROBE_CODES.shape[0], n))
    for k in range(0, seg.shape[0], _PROBE_BLOCK):
        block = shifts[:, :, k : k + _PROBE_BLOCK]
        seg[k : k + _PROBE_BLOCK] = dt * _segment_rates(
            xt[..., :-1] + block[0], xt[..., 1:] + block[1], dt, gm, gj, c, pert
        )

    # interior node i + 1 is the right node of segment i and the left node
    # of segment i + 1
    s = seg[_SINGLE]
    g = (s[:, 0, 0] - s[:, 1, 0]) / (2.0 * hg[:, None])
    grad = np.ascontiguousarray((g[1, :, :m] + g[0, :, 1:]).T)
    # squares by scalar pow, which rounds differently from an array's x*x
    hh_sq = np.array([h**2 for h in hh])[:, None]
    d2 = (s[:, 0, 1] - 2.0 * seg[0] + s[:, 1, 1]) / hh_sq

    diag = np.zeros((m, 3, 3))
    j = np.arange(3)
    diag[:, j, j] = (d2[1, :, :m] + d2[0, :, 1:]).T
    s = seg[_SAME]
    scale = np.array([4.0 * hh[a] * hh[b] for a, b in _PAIRS])[:, None]
    d2 = (s[:, 0, 0] - s[:, 0, 1] - s[:, 1, 0] + s[:, 1, 1]) / scale
    a, b = np.array(_PAIRS).T
    diag[:, a, b] = diag[:, b, a] = (d2[1, :, :m] + d2[0, :, 1:]).T

    s = seg[_CROSS]
    d2 = (s[0, 0] - s[0, 1] - s[1, 0] + s[1, 1]) / (4.0 * hh[:, None, None] * hh[None, :, None])
    off = np.ascontiguousarray(d2[:, :, 1 : n - 1].transpose(2, 0, 1))
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
