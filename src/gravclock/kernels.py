"""Numpy kernels for the proper-time arithmetic.

``weak_field_terms`` is the one place the weak-field metric enters: the
radicands, integrands, energy ratios and frame-dragging shares here are all
built from its compactness, squared speed and frame-dragging entry, and no
other module evaluates the metric.

Kernels take plain float64 arrays plus scalar parameters ``gm = G*M``,
``gj = G*J`` and ``c``; they never allocate package types.  G*J = 0 is the
background: it gives h_tphi = -0.0, which leaves the Schwarzschild radicand
bit for bit, and nothing else switches h_tphi on.

The extremal-path solver's kernels (``path_functional``,
``perturbation_share``, ``newton_assemble`` and ``block_thomas``) also take
a stack of paths: nodes of shape (..., n_segments + 1, 3), with ``gj`` a
scalar or one value per path.  Each path of a stack gets bit for bit what
a call on it alone gives, so the solver can run independent Newton
iterations through shared calls.  The Newton step comes from
``newton_assemble`` (the exact gradient and block-tridiagonal Hessian of
the path functional, built entry by entry from the radicand's closed-form
derivatives in ``radicand_derivatives``) and ``block_thomas``, which solves
that system by block cyclic reduction in symmetric storage (the upper
blocks only): log2(m) levels, each with one batched inverse of 3x3 blocks,
instead of m sequential solves.
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


def _background_radicand(eps, v2, c):
    return 1.0 - eps - v2 / (c * c)


def radicand_from_terms(eps, v2, h, vph, c):
    """(dtau/dt)^2 = 1 - eps - v^2/c^2 - (2 h_tphi / c) dphi/dt."""
    return _background_radicand(eps, v2, c) - 2.0 * h * vph / c


def radicand_derivatives(r, theta, vr, vth, vph, eps, gj, c):
    """Closed-form derivatives of the radicand in u = (r, theta, vr, vth, vph).

    Returns the gradient as a tuple of five arrays and the Hessian as a dict
    from (i, j), i <= j, to its nonzero entries; the others, (1, 2), (1, 3),
    (2, 3), (2, 4) and (3, 4), vanish.  ``eps`` is the compactness that
    ``weak_field_terms`` gives at the same samples.
    """
    q = 1.0 / (c * c)
    s, s_t, s_tt = np.sin(theta) ** 2, np.sin(2.0 * theta), 2.0 * np.cos(2.0 * theta)
    e = eps / r  # -d eps / dr
    w2 = vth * vth + s * vph * vph
    # (2/c) h_tphi = k sin^2(theta), in the term -(2/c) h_tphi vph
    k = -8.0 * gj / (c**4 * r)
    d1 = (
        e + q * (e * vr * vr - 2.0 * r * w2) + k * s * vph / r,
        -(q * r * r * vph + k) * s_t * vph,
        -2.0 * q * (1.0 + eps) * vr,
        -2.0 * q * r * r * vth,
        -(2.0 * q * r * r * vph + k) * s,
    )
    d2 = {
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
    }
    return d1, d2


def energy_ratio_from_speed(r, v2, gm, c):
    """E/(m c^2) = 1 + v^2/(2 c^2) - GM/(c^2 r)."""
    return 1.0 + 0.5 * v2 / (c * c) - gm / (c * c * r)


def radicand_array(r, theta, vr, vth, vph, gm, gj, c):
    eps, v2, h = weak_field_terms(r, theta, vr, vth, vph, gm, gj, c)
    return radicand_from_terms(eps, v2, h, vph, c)


def perturbation_share_array(r, theta, vr, vth, vph, gm, gj, c):
    """(|2 h_tphi v_phi / c| / |1 - eps - v^2/c^2|, 2GM/(c^2 r)) at each sample.

    The first is the frame-dragging term's share of the background radicand
    along the velocity: small values certify that h_tphi is a perturbation
    of the Schwarzschild background for that direction.  It is inf, or NaN
    without rotation, where the direction is null in the background.
    """
    eps, v2, h = weak_field_terms(r, theta, vr, vth, vph, gm, gj, c)
    background = _background_radicand(eps, v2, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(2.0 * h * vph / c) / np.abs(background), eps


def first_order_integrand_array(r, theta, vr, vth, vph, gm, gj, c):
    # -(h_tphi / c) * (dt/dtau_bar) * dphi/dt, integrated against dt; the
    # sign comes from expanding sqrt(-(gbar+h)_munu dx dx): a co-rotating
    # traversal gains proper time when J > 0.  Returned with the background
    # radicand (radicand_array's at gj = 0) of the same weak-field pass
    eps, v2, h = weak_field_terms(r, theta, vr, vth, vph, gm, gj, c)
    rad = _background_radicand(eps, v2, c)
    return -h * vph / (c * np.sqrt(rad)), rad


def pair_integrand_array(r, theta, vr, vth, vph, gm, gj, c):
    # Same first-order shift but with dt/dtau_bar replaced by the conserved
    # energy-ratio form  -(E/m c^2) / gbar_tt, doubled for the time-reversed
    # partner: the (2 E / m c^3) int h_0i / gbar_00 dx^i route.  Returned with
    # the background radicand, as the single-path integrand is
    eps, v2, h = weak_field_terms(r, theta, vr, vth, vph, gm, gj, c)
    ratio = energy_ratio_from_speed(r, v2, gm, c)
    return -2.0 * (h / c) * ratio / (1.0 - eps) * vph, _background_radicand(eps, v2, c)


def energy_ratio_array(r, theta, vr, vth, vph, gm, c):
    _, v2, _ = weak_field_terms(r, theta, vr, vth, vph, gm, 0.0, c)
    return energy_ratio_from_speed(r, v2, gm, c)


def _segment_samples(x, dt):
    # u = (r, theta) at each segment's midpoint and its (r, theta, phi)
    # velocity, from its nodes x[..., i, :] and x[..., i + 1, :] (columns r,
    # theta, phi)
    xl, xr = x[..., :-1, :], x[..., 1:, :]
    mid, vel = 0.5 * (xl + xr), (xr - xl) / dt
    return mid[..., 0], mid[..., 1], vel[..., 0], vel[..., 1], vel[..., 2]


def _segments(x, dt, gm, gj, c):
    # each segment's u, its weak-field terms (eps, v^2, h_tphi) and its
    # radicand.  gj is a scalar or one value per path of the stack
    u = _segment_samples(x, dt)
    terms = weak_field_terms(*u, gm, _per_segment(gj), c)
    return u, terms, radicand_from_terms(*terms, u[4], c)


def _per_segment(gj):
    # a scalar gj as it is, one value per path against the segment axis
    return gj if np.ndim(gj) == 0 else np.asarray(gj)[..., None]


def _per_path(total):
    # a float for one path, an array over a stack of paths
    return float(total) if np.ndim(total) == 0 else total


def path_functional(x, dt, gm, gj, c):
    """Midpoint-rule proper time of the nodes x, one value per path of a stack.

    NaN for a path with a segment that is not timelike.
    """
    with np.errstate(invalid="ignore"):
        return _per_path(dt * np.sum(np.sqrt(_segments(x, dt, gm, gj, c)[2]), axis=-1))


def perturbation_share(x, dt, gm, gj, c):
    """Largest frame-dragging share over the segments of nodes x.

    The share of :func:`perturbation_share_array` at each segment's midpoint
    and velocity; one value per path for a stack of paths.
    """
    share, _ = perturbation_share_array(*_segment_samples(x, dt), gm, _per_segment(gj), c)
    return _per_path(np.max(share, axis=-1))


def newton_assemble(x, dt, gm, gj, c):
    """Exact gradient and block-tridiagonal Hessian of the path functional.

    Returns (grad, diag, off) over the m = n_segments - 1 interior nodes:
    (..., m, 3), (..., m, 3, 3) and (..., m - 1, 3, 3) for nodes x of shape
    (..., n_segments + 1, 3), with gj a scalar or one value per path.  A
    segment's dt sqrt(R) sees its nodes l and r only through
    u = (P (l + r), (r - l) / dt), where P takes half of (r, theta), so its
    derivatives in u, g = dt R'/(2 sqrt R) and
    H = dt R''/(2 sqrt R) - g g^T / (dt sqrt R), give each node pair's
    blocks in closed form.  With PP, VV and X the position, velocity and
    cross parts of H carried to the nodes (P^T H_pp P, H_vv / dt^2 and
    P^T H_pv / dt), the blocks are LL = PP + VV - X - X^T,
    RR = PP + VV + X + X^T and LR = PP - VV + X - X^T.  The R'' part is
    sparse and is written out entry by entry; the rank-one part is
    -gl gl^T, -gr gr^T and -gl gr^T over dt sqrt R, with gl and gr the
    segment's gradient at its left and right node.
    """
    gl, gr, w, d2 = _segment_derivatives(x, dt, gm, gj, c)
    diag, off = _curvature_blocks(d2)
    del d2  # before the rank-one products, which are the largest temporaries
    # the rank-one part, -g g^T w, carried to the nodes; interior node i + 1
    # is the right node of segment i and the left node of segment i + 1
    wl, wr = w[..., None] * gl, w[..., None] * gr
    diag -= wr[..., :-1, :, None] * gr[..., :-1, None, :]
    diag -= wl[..., 1:, :, None] * gl[..., 1:, None, :]
    off -= wl[..., 1:-1, :, None] * gr[..., 1:-1, None, :]
    return gr[..., :-1, :] + gl[..., 1:, :], diag, off


def _segment_derivatives(x, dt, gm, gj, c):
    # each segment's gradient at its left and right node, P^T g_p -+ g_v / dt,
    # the weight w = 1 / (dt sqrt R) of its rank-one part, and its R'' part
    # scaled in place to PP (entries (0, 0), (0, 1), (1, 1)), VV ((2, 2),
    # (3, 3), (4, 4)) and X ((0, 2), (0, 3), (0, 4), (1, 4))
    u, (eps, _, _), rad = _segments(x, dt, gm, gj, c)
    d1, d2 = radicand_derivatives(*u, eps, _per_segment(gj), c)
    root = np.sqrt(rad)
    del u, eps, _, rad  # a stack's segment arrays add up: keep only what is used
    s = dt / (2.0 * root)
    p0, p1 = 0.5 * s * d1[0], 0.5 * s * d1[1]
    v0, v1, v2 = (s * d / dt for d in d1[2:])
    gl = np.stack((p0 - v0, p1 - v1, -v2), axis=-1)
    gr = np.stack((p0 + v0, p1 + v1, v2), axis=-1)
    for keys, scale in (
        (((0, 0), (0, 1), (1, 1)), 0.25 * s),
        (((2, 2), (3, 3), (4, 4)), s / (dt * dt)),
        (((0, 2), (0, 3), (0, 4), (1, 4)), 0.5 * s / dt),
    ):
        for key in keys:
            d2[key] *= scale
    return gl, gr, 1.0 / (dt * root), d2


def _curvature_blocks(d2):
    # the interior nodes' diagonal blocks RR[i] + LL[i + 1] and their upper
    # blocks LR[i + 1] of the R'' part, entry by entry from PP, VV and X;
    # only X + X^T and X - X^T differ between LL, RR and LR
    p00, p01, p11 = d2[0, 0], d2[0, 1], d2[1, 1]
    w0, w1, w2 = d2[2, 2], d2[3, 3], d2[4, 4]
    x00, x01, x02, x12 = d2[0, 2], d2[0, 3], d2[0, 4], d2[1, 4]
    a00, a11 = p00 + w0, p11 + w1
    lo, hi = p01 - x01, p01 + x01
    x00 *= 2.0  # X + X^T at (0, 0)
    m02, m12 = -x02, -x12

    def node(right, left):
        return right[..., :-1] + left[..., 1:]

    def symmetric(d00, d01, d02, d11, d12, d22):
        return np.stack((d00, d01, d02, d01, d11, d12, d02, d12, d22), axis=-1)

    diag = symmetric(
        node(a00 + x00, a00 - x00), node(hi, lo), node(x02, m02),
        node(a11, a11), node(x12, m12), node(w2, w2),
    )
    off = np.stack(
        [e[..., 1:-1] for e in (p00 - w0, hi, x02, lo, p11 - w1, x12, m02, m12, -w2)], axis=-1
    )
    return diag.reshape(diag.shape[:-1] + (3, 3)), off.reshape(off.shape[:-1] + (3, 3))


def block_thomas(diag, off, rhs):
    """Solve the symmetric block-tridiagonal system of a Newton step.

    Row i reads ``off[i-1].T @ x[i-1] + diag[i] @ x[i] + off[i] @ x[i+1] = rhs[i]``
    for (m, 3, 3) ``diag``, (m-1, 3, 3) ``off`` and (m, 3) ``rhs``, or a
    stack of such systems with the same leading axes on all three.  Block
    cyclic reduction in symmetric storage: only the upper blocks are kept,
    since each lower block is the transpose of the upper block before it.
    Each level inverts the odd-indexed diagonal blocks with one batched
    ``np.linalg.inv``, leaving a block-tridiagonal system of half the size
    on the even-indexed blocks, so m blocks take log2(m) vectorized levels.
    Like block Gaussian elimination it pivots only inside each 3x3 block,
    never across blocks, which is stable for the definite (or damped)
    Hessians the solver builds.  A singular block anywhere in the stack
    raises ``np.linalg.LinAlgError``.
    """
    # each level eliminates the odd rows and keeps only their t for the
    # back-substitution, so a level's system is freed once the next is formed
    levels = []
    while diag.shape[-3] > 1:
        m = diag.shape[-3]
        n_odd = m // 2
        n_up = m - n_odd - 1  # odd rows with an even row on their right

        # odd row 2j+1 couples to even row 2j through a = off[2j] (as a.T)
        # and to even row 2j+2 through b = off[2j+1], which the last odd
        # row lacks when m is even: x[2j+1] = t_b - t_l x[2j] - t_u x[2j+2],
        # with t = [t_l | t_u | t_b] and t_u zero where there is no b
        a = off[..., ::2, :, :]
        t = np.empty(diag.shape[:-3] + (n_odd, 3, 7))
        t[..., :3] = a.swapaxes(-1, -2)
        t[..., :n_up, :, 3:6] = off[..., 1::2, :, :]
        t[..., n_up:, :, 3:6] = 0.0
        t[..., 6] = rhs[..., 1::2, :]
        t = np.linalg.inv(diag[..., 1::2, :, :]) @ t
        levels.append(t)

        # even rows: substitute the odd neighbours, odd j on the right of
        # even j (through a[j]) and odd j-1 on its left (through b[j-1].T);
        # the left update's coupling to x[2j-2] is the transpose of the upper
        # block that the right update gives row j-1, so it is not formed
        b_t = off[..., 1::2, :, :].swapaxes(-1, -2)
        diag, rhs = diag[..., ::2, :, :].copy(), rhs[..., ::2, :].copy()
        right = a @ t
        diag[..., :n_odd, :, :] -= right[..., :3]
        rhs[..., :n_odd, :] -= right[..., 6]
        off = -right[..., :n_up, :, 3:6]
        del right  # before the left update, the largest temporaries
        left = b_t @ t[..., :n_up, :, 3:]
        diag[..., 1:, :, :] -= left[..., :3]
        rhs[..., 1:, :] -= left[..., 3]
        del left

    x = np.linalg.solve(diag, rhs[..., None])[..., 0]
    # back-substitute each level's odd blocks from their even neighbours
    for t in reversed(levels):
        n_up = x.shape[-2] - 1
        odd = t[..., 6] - (t[..., :3] @ x[..., : t.shape[-3], :, None])[..., 0]
        odd[..., :n_up, :] -= (t[..., :n_up, :, 3:6] @ x[..., 1:, :, None])[..., 0]
        sol = np.empty(x.shape[:-2] + (x.shape[-2] + t.shape[-3], 3))
        sol[..., ::2, :] = x
        sol[..., 1::2, :] = odd
        x = sol
    return x
