"""The numpy kernels against independent dense and full-metric arithmetic."""

import math
import warnings

import numpy as np
import pytest

from gravclock import kernels

GM, GJ, C = 1e-6, 1.25e-3, 1.0


@pytest.fixture(scope="module")
def sample_arrays():
    rng = np.random.default_rng(5)
    n = 4096
    return (
        1.0 + 0.2 * rng.random(n),
        0.5 * math.pi + 0.1 * rng.standard_normal(n),
        1e-3 * rng.standard_normal(n),
        1e-3 * rng.standard_normal(n),
        1e-2 * (0.5 + rng.random(n)),
    )


def _metric_entries(r, theta, gj=GJ):
    """Full metric entries (g_tt, g_rr, g_thth, g_phph, h_tphi), written out."""
    eps = 2.0 * GM / (C**2 * r)
    s2 = np.sin(theta) ** 2
    return -(1.0 - eps), 1.0 + eps, r**2, r**2 * s2, -4.0 * gj * s2 / (C**3 * r)


def test_radicand_matches_full_metric_contraction(sample_arrays):
    r, th, vr, vth, vph = sample_arrays
    for gj in (0.0, GJ):
        g_tt, g_rr, g_thth, g_phph, h_tphi = _metric_entries(r, th, gj)
        contraction = -(
            g_tt * C**2
            + g_rr * vr**2
            + g_thth * vth**2
            + g_phph * vph**2
            + 2.0 * h_tphi * C * vph
        )
        rad = kernels.radicand_array(r, th, vr, vth, vph, GM, gj, C)
        np.testing.assert_allclose(rad, contraction / C**2, rtol=1e-13, atol=0.0)


def test_integrands_match_full_metric_arithmetic(sample_arrays):
    r, th, vr, vth, vph = sample_arrays
    g_tt, g_rr, g_thth, g_phph, h_tphi = _metric_entries(r, th)
    v2 = g_rr * vr**2 + g_thth * vth**2 + g_phph * vph**2
    dt_dtau = 1.0 / np.sqrt(-g_tt - v2 / C**2)
    ratio = 1.0 + 0.5 * v2 / C**2 - GM / (C**2 * r)
    first, first_rad = kernels.first_order_integrand_array(r, th, vr, vth, vph, GM, GJ, C)
    np.testing.assert_allclose(first, -(h_tphi / C) * dt_dtau * vph, rtol=1e-13, atol=0.0)
    pair, pair_rad = kernels.pair_integrand_array(r, th, vr, vth, vph, GM, GJ, C)
    np.testing.assert_allclose(pair, -2.0 * (h_tphi / C) * ratio / -g_tt * vph, rtol=1e-13, atol=0.0)
    # the background radicand each integrand pass returns, bit for bit
    background = kernels.radicand_array(r, th, vr, vth, vph, GM, 0.0, C)
    np.testing.assert_array_equal(first_rad, background)
    np.testing.assert_array_equal(pair_rad, background)
    ratios = kernels.energy_ratio_array(r, th, vr, vth, vph, GM, C)
    np.testing.assert_allclose(ratios, ratio, rtol=1e-15, atol=0.0)


def _node_path(n_segments, theta=(0.5 * math.pi, 0.5 * math.pi + 0.05)):
    frac = np.linspace(0.0, 1.0, n_segments + 1)[:, None]
    a = np.array([1.0, theta[0], 0.0])
    b = np.array([1.1, theta[1], 0.3])
    return np.ascontiguousarray((1 - frac) * a + frac * b), 30.0 / n_segments


def _assert_matches_dense_solve(diag, off, rhs, expected=None):
    m = diag.shape[0]
    if expected is None:
        dense = np.zeros((3 * m, 3 * m))
        for i in range(m):
            dense[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = diag[i]
        for i in range(m - 1):
            dense[3 * i : 3 * i + 3, 3 * i + 3 : 3 * i + 6] = off[i]
            dense[3 * i + 3 : 3 * i + 6, 3 * i : 3 * i + 3] = off[i].T
        expected = np.linalg.solve(dense, rhs.ravel()).reshape(m, 3)
    step = kernels.block_thomas(diag, off, rhs)
    np.testing.assert_allclose(step, expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())


# m = n_segments - 1 interior blocks: the single-block base case, odd and
# even counts at every reduction level, and the solver's default size
@pytest.mark.parametrize("n_segments", [2, 3, 4, 5, 128, 129, 512])
@pytest.mark.parametrize("damping", [0.0, 1e-8 * 16.0**5])
def test_block_thomas_matches_dense_solve(n_segments, damping):
    x, dt = _node_path(n_segments)
    grad, diag, off = kernels.newton_assemble(x, dt, GM, GJ, C)
    if damping:
        # a diagonally shifted Hessian, diag - damping * max|diag| * I
        diag = diag - damping * np.abs(diag).max() * np.eye(3)[None, :, :]
    _assert_matches_dense_solve(diag, off, -grad)


@pytest.mark.parametrize("n_segments", [2, 3, 128, 129, 512])
def test_block_thomas_matches_dense_solve_off_the_equator(n_segments):
    # theta from 0.4 to 1.1 rad: sin and cos of theta both enter each block
    x, dt = _node_path(n_segments, theta=(0.4, 1.1))
    grad, diag, off = kernels.newton_assemble(x, dt, GM, GJ, C)
    _assert_matches_dense_solve(diag, off, -grad)


def _assert_matches_scaled_dense_solve(unscaled, rng):
    # the system -S A S for a symmetric block-tridiagonal A: the congruence
    # with S = diag(1, 1e3, 1e-3) per block makes the coordinate scales as
    # unlike as r, theta and phi can be.  The dense reference solves the
    # unscaled system, where partial pivoting is not misled by the scales:
    # x = -S^-1 A^-1 S^-1 b
    m = unscaled.shape[0] // 3
    scale = np.tile([1.0, 1e3, 1e-3], m)
    rhs = rng.standard_normal((m, 3))
    expected = -(np.linalg.solve(unscaled, rhs.ravel() / scale) / scale).reshape(m, 3)
    dense = -scale[:, None] * unscaled * scale[None, :]
    blocks = dense.reshape(m, 3, m, 3).transpose(0, 2, 1, 3)  # blocks[i, j]: block (i, j)
    k = np.arange(m)
    _assert_matches_dense_solve(blocks[k, k], blocks[k[:-1], k[1:]], rhs, expected)


@pytest.mark.parametrize("m", [1, 2, 3, 255, 511])
def test_block_thomas_matches_dense_solve_on_coupled_random_systems(m):
    # -M M^T for a block lower-bidiagonal M is symmetric, negative definite
    # and block tridiagonal, with every entry of every block coupled (its
    # condition number is ~1e2 here)
    rng = np.random.default_rng(m)
    lower = np.zeros((3 * m, 3 * m))
    for i in range(m):
        lower[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = rng.standard_normal((3, 3)) + 5.0 * np.eye(3)
        if i:
            lower[3 * i : 3 * i + 3, 3 * i - 3 : 3 * i] = rng.standard_normal((3, 3))
    unscaled = lower @ lower.T
    assert np.linalg.eigvalsh(unscaled).min() > 0.0
    _assert_matches_scaled_dense_solve(unscaled, rng)


@pytest.mark.parametrize("m", [1, 2, 3, 255, 511])
def test_block_thomas_matches_dense_solve_on_indefinite_random_systems(m):
    # a sweep solves whatever Hessian it assembles, definite or not, and
    # the adjugate does not pivot.  Each diagonal block is Q diag(d) Q^T with d
    # of both signs and |d| in [5, 6), which dominates its off-diagonal
    # blocks (entries 0.3 N(0, 1)): the system is indefinite but every block
    # that the reduction inverts stays far from singular
    rng = np.random.default_rng(100 + m)
    unscaled = np.zeros((3 * m, 3 * m))
    for i in range(m):
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        d = np.array([1.0, -1.0, rng.choice([-1.0, 1.0])]) * (5.0 + rng.random(3))
        unscaled[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = (q * d) @ q.T
        if i:
            b = 0.3 * rng.standard_normal((3, 3))
            unscaled[3 * i : 3 * i + 3, 3 * i - 3 : 3 * i] = b
            unscaled[3 * i - 3 : 3 * i, 3 * i : 3 * i + 3] = b.T
    eigenvalues = np.linalg.eigvalsh(unscaled)
    assert eigenvalues.min() < -1.0 and eigenvalues.max() > 1.0 and np.abs(eigenvalues).min() > 1.0
    _assert_matches_scaled_dense_solve(unscaled, rng)


def test_perturbation_share_matches_the_pointwise_validity():
    x, dt = _node_path(64, theta=(0.4, 1.1))
    x[1:-1] += 1e-3 * np.random.default_rng(3).standard_normal((63, 3))
    mid, vel = 0.5 * (x[:-1] + x[1:]), (x[1:] - x[:-1]) / dt
    # |h dx dx| / |gbar dx dx| per segment, from the written-out metric entries
    g_tt, g_rr, g_thth, g_phph, h_tphi = _metric_entries(mid[:, 0], mid[:, 1])
    background = g_tt * C**2 + g_rr * vel[:, 0] ** 2 + g_thth * vel[:, 1] ** 2 + g_phph * vel[:, 2] ** 2
    shares = np.abs(2.0 * h_tphi * C * vel[:, 2] / background)
    assert kernels.perturbation_share(x, dt, GM, GJ, C) == pytest.approx(shares.max(), rel=1e-12)


def _per_probe_assemble(x, dt, gm, gj, c, hg, hh):
    """The Newton system one probe at a time, as newton_assemble once built it."""
    n = x.shape[0] - 1
    m = n - 1
    xl = x[:-1]
    xr = x[1:]

    def seg(dl, dr):
        a, b = xl + dl, xr + dr
        rad = kernels.radicand_array(
            0.5 * (a[:, 0] + b[:, 0]), 0.5 * (a[:, 1] + b[:, 1]),
            (b[:, 0] - a[:, 0]) / dt, (b[:, 1] - a[:, 1]) / dt, (b[:, 2] - a[:, 2]) / dt,
            gm, gj, c,
        )
        return dt * np.sqrt(rad)

    def unit(cc, step):
        e = np.zeros((1, 3))
        e[0, cc] = step
        return e

    zero = np.zeros((1, 3))
    s0 = seg(zero, zero)
    grad = np.zeros((m, 3))
    diag = np.zeros((m, 3, 3))
    off = np.zeros((max(m - 1, 0), 3, 3))
    for cc in range(3):
        gl = (seg(unit(cc, hg[cc]), zero) - seg(unit(cc, -hg[cc]), zero)) / (2.0 * hg[cc])
        gr = (seg(zero, unit(cc, hg[cc])) - seg(zero, unit(cc, -hg[cc]))) / (2.0 * hg[cc])
        grad[:, cc] = gr[:m] + gl[1:]
        d2l = (seg(unit(cc, hh[cc]), zero) - 2.0 * s0 + seg(unit(cc, -hh[cc]), zero)) / hh[cc] ** 2
        d2r = (seg(zero, unit(cc, hh[cc])) - 2.0 * s0 + seg(zero, unit(cc, -hh[cc]))) / hh[cc] ** 2
        diag[:, cc, cc] = d2r[:m] + d2l[1:]
    for ca in range(3):
        for cb in range(3):
            scale = 4.0 * hh[ca] * hh[cb]
            pp, pm = unit(ca, hh[ca]) + unit(cb, hh[cb]), unit(ca, hh[ca]) + unit(cb, -hh[cb])
            mp, mm = unit(ca, -hh[ca]) + unit(cb, hh[cb]), unit(ca, -hh[ca]) + unit(cb, -hh[cb])
            if ca < cb:  # both shifts on one node
                d2l = (seg(pp, zero) - seg(pm, zero) - seg(mp, zero) + seg(mm, zero)) / scale
                d2r = (seg(zero, pp) - seg(zero, pm) - seg(zero, mp) + seg(zero, mm)) / scale
                diag[:, ca, cb] = diag[:, cb, ca] = d2r[:m] + d2l[1:]
            left, right = unit(ca, hh[ca]), unit(cb, hh[cb])
            d2 = (seg(left, right) - seg(left, -right) - seg(-left, right) + seg(-left, -right)) / scale
            off[:, ca, cb] = d2[1 : n - 1]
    return grad, diag, off


def _perturbed_path(n_segments):
    x, dt = _node_path(n_segments)
    rng = np.random.default_rng(n_segments)
    x[1:-1] += 1e-3 * rng.standard_normal((n_segments - 1, 3))
    return x, dt


@pytest.mark.parametrize("n_segments", [2, 3, 5, 512])
@pytest.mark.parametrize("gj", [0.0, GJ])
def test_newton_gradient_matches_a_complex_step_derivative(n_segments, gj):
    # f(x + i h) = f(x) + i h f'(x) + O(h^2) has no subtraction to round, so
    # Im f / h is f' to working precision; shifting every third interior
    # node at once keeps each segment's two nodes apart
    x, dt = _perturbed_path(n_segments)
    grad, _, _ = kernels.newton_assemble(x, dt, GM, gj, C)
    h = 1e-30
    expected = np.empty_like(grad)
    for j in range(3):
        for first in range(1, min(4, n_segments)):
            nodes = np.arange(first, n_segments, 3)
            shifted = x.astype(complex)
            shifted[nodes, j] += 1j * h
            seg = dt * np.sqrt(kernels._segments(shifted, dt, GM, gj, C)[2]).imag / h
            expected[nodes - 1, j] = seg[nodes - 1] + seg[nodes]
    np.testing.assert_allclose(grad, expected, rtol=0.0, atol=1e-13 * np.abs(expected).max())


@pytest.mark.parametrize("n_segments", [2, 3, 5, 512])
@pytest.mark.parametrize("gj", [0.0, GJ])
def test_newton_hessian_matches_a_richardson_difference_of_the_gradient(n_segments, gj):
    # the Hessian's columns are derivatives of the exact gradient; central
    # differences at h and h/2, Richardson-combined, are good to O(h^4)
    x, dt = _perturbed_path(n_segments)
    _, diag, off = kernels.newton_assemble(x, dt, GM, gj, C)
    m = n_segments - 1
    steps = np.full(3, 1e-3 * dt)

    def column(node, j, h):
        up, down = x.copy(), x.copy()
        up[node, j] += h
        down[node, j] -= h
        grad_up = kernels.newton_assemble(up, dt, GM, gj, C)[0]
        grad_down = kernels.newton_assemble(down, dt, GM, gj, C)[0]
        return (grad_up - grad_down) / (2.0 * h)

    # every node's columns on the short paths; at 512 segments, the first,
    # middle and last nodes
    nodes = range(1, m + 1) if m < 8 else (1, 2, 3, m // 2, m - 1, m)
    for node in nodes:
        for j in range(3):
            col = (4.0 * column(node, j, steps[j] / 2) - column(node, j, steps[j])) / 3.0
            i = node - 1
            np.testing.assert_allclose(diag[i, :, j], col[i], rtol=0.0, atol=1e-9 * np.abs(diag).max())
            if i > 0:
                np.testing.assert_allclose(off[i - 1, :, j], col[i - 1], rtol=0.0, atol=1e-9 * np.abs(off).max())


@pytest.mark.parametrize("n_segments", [2, 3, 5, 512])
@pytest.mark.parametrize("gj", [0.0, GJ])
def test_newton_assemble_agrees_with_the_finite_difference_oracle(n_segments, gj):
    # the finite-difference assembly the solver used before, at its step
    # sizes: agreement to its truncation error, plus the rounding of its
    # second differences, eps |dt sqrt(R)| / hh^2, which dominates at the
    # coarse sizes where dt sqrt(R) is large
    x, dt = _perturbed_path(n_segments)
    r_scale = max(abs(x[0, 0]), abs(x[-1, 0]))
    metric_scale = np.array([1.0, r_scale, r_scale])
    hg = np.minimum(1e-4 * C * dt, 3e-5 * r_scale) / metric_scale
    hh = np.minimum(3e-4 * C * dt, 1e-4 * r_scale) / metric_scale
    expected = _per_probe_assemble(x, dt, GM, gj, C, hg, hh)
    got = kernels.newton_assemble(x, dt, GM, gj, C)
    seg = dt * np.sqrt(kernels._segments(x, dt, GM, gj, C)[2])
    rounding = (0.0, 8.0 * np.finfo(float).eps * seg.max() / hh.min() ** 2)
    for k, (want, have) in enumerate(zip(expected, got)):
        assert want.shape == have.shape
        if want.size:
            tol = 1e-6 * np.abs(want).max() + rounding[min(k, 1)]
            np.testing.assert_allclose(have, want, rtol=0.0, atol=tol)


def _stack(n_segments):
    # three paths of one size with their own nodes and G J, one of them off
    # the equator
    x, dt = _perturbed_path(n_segments)
    off_equator, _ = _node_path(n_segments, theta=(0.4, 1.1))
    bent = x.copy()
    bent[1:-1] += 1e-3 * np.random.default_rng(7).standard_normal((n_segments - 1, 3))
    return np.stack((x, off_equator, bent)), dt, np.array([GJ, 0.3 * GJ, -2.0 * GJ])


@pytest.mark.parametrize("n_segments", [2, 3, 5, 512])
def test_stacked_kernels_equal_one_path_calls_bit_for_bit(n_segments):
    xs, dt, rotating = _stack(n_segments)
    for gjs in (np.zeros_like(rotating), rotating):
        values = kernels.path_functional(xs, dt, GM, gjs, C)
        systems = kernels.newton_assemble(xs, dt, GM, gjs, C)
        steps = kernels.block_thomas(systems[1], systems[2], -systems[0])
        for i in range(len(xs)):
            assert values[i] == kernels.path_functional(xs[i], dt, GM, gjs[i], C)
            alone = kernels.newton_assemble(xs[i], dt, GM, gjs[i], C)
            for stacked, one in zip(systems, alone):
                assert stacked[i].shape == one.shape and np.array_equal(stacked[i], one)
            assert np.array_equal(steps[i], kernels.block_thomas(alone[1], alone[2], -alone[0]))
    shares = kernels.perturbation_share(xs, dt, GM, rotating, C)
    for i in range(len(xs)):
        assert shares[i] == kernels.perturbation_share(xs[i], dt, GM, rotating[i], C)


@pytest.mark.parametrize("n_segments", [3, 512])
def test_a_singular_block_fails_only_its_own_path_of_a_stack(n_segments):
    xs, dt, gjs = _stack(n_segments)
    grad, diag, off = kernels.newton_assemble(xs, dt, GM, gjs, C)
    steps = kernels.block_thomas(diag, off, -grad)
    # an exactly singular block on the middle path, one that the first
    # reduction level inverts: no exception and no warning, non-finite rows
    # for that path, stacked and alone, and the other paths bit for bit
    diag[1, 1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = kernels.block_thomas(diag, off, -grad)
        alone = kernels.block_thomas(diag[1], off[1], -grad[1])
    for failed in (stacked[1], alone):
        assert not np.isfinite(failed).all(axis=-1).any()
    for i in (0, 2):
        assert np.array_equal(stacked[i], steps[i])
        assert np.array_equal(kernels.block_thomas(diag[i], off[i], -grad[i]), steps[i])
