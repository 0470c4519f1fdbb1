import math
from dataclasses import replace

import numpy as np
import pytest

from gravclock import kernels, propertime
from gravclock.constants import CODATA, PhysicalConstants
from gravclock.errors import DomainError, NoConvergence, NotTimelike
from gravclock.logdomain import SignedLog
from gravclock.propertime import (
    InterferometerGeometry,
    PathSpec,
    build_straight_arm,
    delta_tau_first_order,
    delta_tau_interferometer,
    delta_tau_pair,
    k_factor,
)
from gravclock.spacetime import RotatingMassModel
from reference_paths import build_circular_arc

UNIT = PhysicalConstants(c=1.0, G=1.0, hbar=1.0)


def test_closed_form_matches_independent_arithmetic():
    model = RotatingMassModel(M=0.0, J=1.0)
    geom = InterferometerGeometry(w=1e-3, L=1.0, v0=0.0)
    got = delta_tau_interferometer(model, geom, "closed_form").delta_tau
    expected = 16.0 * 6.67430e-11 * 1.0 / ((2.99792458e8) ** 4 * 1e-3)
    assert abs(got / expected - 1.0) < 1e-12
    assert abs(got / 1.3220e-40 - 1.0) < 1e-4


def test_closed_form_vanishes_without_rotation():
    geom = InterferometerGeometry(w=1e-3, L=1.0, v0=1e3)
    assert delta_tau_interferometer(RotatingMassModel(0.0, 0.0), geom, "closed_form").delta_tau == 0.0
    assert delta_tau_interferometer(RotatingMassModel(0.0, 0.0), geom, "quadrature").delta_tau == 0.0


@pytest.mark.parametrize("mode", ["closed_form", "quadrature"])
def test_sign_flips_exactly_under_rotation_reversal(mode):
    geom = InterferometerGeometry(w=1e-3, L=1.0, v0=1e3)
    plus = delta_tau_interferometer(RotatingMassModel(0.0, 2.5), geom, mode).delta_tau
    minus = delta_tau_interferometer(RotatingMassModel(0.0, -2.5), geom, mode).delta_tau
    assert minus == -plus


@pytest.mark.parametrize("mode", ["closed_form", "quadrature"])
def test_linearity_in_angular_momentum(mode):
    geom = InterferometerGeometry(w=1e-3, L=1.0, v0=1e3)
    js = np.array([1.0, 2.0, 4.0])
    vals = np.array(
        [delta_tau_interferometer(RotatingMassModel(0.0, j), geom, mode).delta_tau for j in js]
    )
    slope, intercept = np.polyfit(js, vals, 1)
    assert abs(intercept) < 1e-15 * abs(vals[-1])
    assert abs(vals[1] / vals[0] - 2.0) < 1e-12


def test_inverse_width_scaling_log_slope():
    model = RotatingMassModel(0.0, 1.0)
    widths = [1e-3, 1e-2, 1e-1]
    taus = [
        delta_tau_interferometer(model, InterferometerGeometry(w, 1e3 * w, 0.0), "closed_form").delta_tau
        for w in widths
    ]
    slope = np.polyfit(np.log(widths), np.log(taus), 1)[0]
    assert abs(slope + 1.0) < 1e-9


def test_quadrature_converges_to_closed_form_with_arm_length():
    model = RotatingMassModel(0.0, 1.0)
    w, v0 = 1e-3, 1e3
    closed = delta_tau_interferometer(
        model, InterferometerGeometry(w, 1e3 * w, v0), "closed_form"
    ).delta_tau
    errors = []
    for ratio in (10.0, 100.0, 1000.0):
        quad = delta_tau_interferometer(
            model, InterferometerGeometry(w, ratio * w, v0), "quadrature"
        ).delta_tau
        err = abs(quad / closed - 1.0)
        # truncating the arms at phi_max leaves a 1 - sin(phi_max) deficit
        predicted = 1.0 - math.sin(math.atan(2.0 * ratio))
        assert err < 2.0 * predicted
        errors.append(err)
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 2e-3  # 0.2 percent at L = 1e3 w


def _counting_arms(monkeypatch):
    """Make build_straight_arm count the samples its sampler hands out."""
    samples = []
    build = propertime.build_straight_arm

    def counting_build(geom, side, *args, **kwargs):
        arm = build(geom, side, *args, **kwargs)
        sampler = arm.sampler

        def counting_sampler(n):
            samples.append(n)
            return sampler(n)

        return replace(arm, sampler=counting_sampler)

    monkeypatch.setattr(propertime, "build_straight_arm", counting_build)
    return samples


def test_quadrature_matches_finite_arm_closed_form_at_any_length(monkeypatch):
    # the halved pair route and the single-path route on the same arm (the
    # pair is twice the single-path shift), against closed * sin(arctan(2L/w)),
    # from short arms to far past the 2^20 samples uniform-t sampling would need
    samples = _counting_arms(monkeypatch)
    model = RotatingMassModel(0.0, 1.0)
    w, v0 = 1e-3, 1.0
    errors = {"pair": [], "single": []}
    for ratio in 10.0 ** np.arange(1, 9):
        geom = InterferometerGeometry(w, ratio * w, v0)
        closed = delta_tau_interferometer(model, geom, "closed_form").delta_tau
        finite_arm = closed * math.sin(math.atan(2.0 * ratio))
        samples.clear()
        pair = delta_tau_interferometer(model, geom, "quadrature").delta_tau
        assert 0 < sum(samples) <= 8193
        samples.clear()
        single = delta_tau_first_order(model, propertime.build_straight_arm(geom, "right"))
        assert 0 < sum(samples) <= 8193
        for name, value in (("pair", pair), ("single", single)):
            assert abs(value / finite_arm - 1.0) < 1e-9, (name, ratio)
            errors[name].append(abs(value / closed - 1.0))
    # the infinite-arm error is the truncation 1 - sin(arctan(2L/w)) ~ (w/2L)^2 / 2:
    # it falls with every decade until it meets phi-Simpson's own ~5e-13
    for errs in errors.values():
        assert all(b < a or b < 1e-12 for a, b in zip(errs, errs[1:])), errs
        assert errs[-1] < 1e-12


def _sequential_quadrature(path, integrand_kernel, gm, gj, c):
    """The arm quadrature as a sequence of separate samplings: sampler(257), sampler(513), ...

    Each level gets its own background-radicand check, subnormal check and
    Simpson sum in phi, under the library's stopping rule.
    """
    n, previous = 256, None
    while True:
        p = path.sampler(n + 1)
        fields = (p.r, p.theta, p.dr_dt, p.dtheta_dt, p.dphi_dt)
        rad = kernels.radicand_array(*fields, gm, 0.0, c)
        assert np.all(np.isfinite(rad)) and np.all(rad > 0.0)
        values = integrand_kernel(*fields, gm, gj, c)[0]
        for x in (values, p.dphi_dt):
            assert not np.any((np.abs(x) < np.finfo(float).tiny) & (x != 0.0))
        y = values / p.dphi_dt
        value = ((p.phi[1] - p.phi[0]) / 3.0) * float(
            y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()
        )
        change = math.inf if previous is None else abs(value - previous)
        if change <= propertime.QUADRATURE_REL_TOL * max(abs(value), 1e-300):
            return value
        assert 2 * n <= propertime.MAX_QUADRATURE_SAMPLES
        previous, n = value, 2 * n


@pytest.mark.parametrize("ratio", [1.01, 1.5, 10.0, 1e3, 3e4, 1e6, 1e8])
@pytest.mark.parametrize(
    "w, v0, J, M",
    [(1e-3, 1.0, 1.0, 0.0), (7.3, 3e4, -2.5e33, 6e24), (2e-6, 1e-3, 1e-12, 1e3), (1e3, 2e7, 4e40, 1e20)],
)
def test_arm_levels_equal_separate_samplings_bit_for_bit(ratio, w, v0, J, M):
    # one sampling at 513 gives the 257 and 513 levels; later levels double
    model, geom = RotatingMassModel(M=M, J=J), InterferometerGeometry(w, ratio * w, v0)
    arm = build_straight_arm(geom, "right")
    assert arm.n_samples == 513
    gm, gj = CODATA.G * M, CODATA.G * J
    expected = {}
    for route, kernel in (
        (delta_tau_pair, kernels.pair_integrand_array),
        (delta_tau_first_order, kernels.first_order_integrand_array),
    ):
        expected[route] = _sequential_quadrature(arm, kernel, gm, gj, CODATA.c)
        assert route(model, arm).hex() == expected[route].hex(), route.__name__
    quad = delta_tau_interferometer(model, geom, "quadrature").delta_tau
    assert quad.hex() == (0.5 * expected[delta_tau_pair]).hex()


@pytest.mark.parametrize("ratio, sizes", [(1e3, [513, 1025]), (1.5, [513])])
def test_an_arm_quadrature_samples_each_level_once(monkeypatch, ratio, sizes):
    calls = {"pair": [], "radicand": []}
    for name, key in (("pair_integrand_array", "pair"), ("radicand_array", "radicand")):
        kernel = getattr(kernels, name)

        def counting(*args, kernel=kernel, key=key):
            calls[key].append(np.size(args[0]))
            return kernel(*args)

        monkeypatch.setattr(kernels, name, counting)
    geom = InterferometerGeometry(1e-3, ratio * 1e-3, 1.0)
    delta_tau_interferometer(RotatingMassModel(0.0, 1.0), geom, "quadrature")
    assert calls == {"pair": sizes, "radicand": []}


def _hand_built(even, odd):
    """A 9-sample azimuth arc whose even and odd samples carry the given (dr/dt, dphi/dt)."""
    dr_dt, dphi_dt = np.array([even if i % 2 == 0 else odd for i in range(9)], dtype=float).T
    phi = np.linspace(0.0, 0.8, 9)

    def sampler(n):
        raise AssertionError("the first two levels fail their checks")

    return PathSpec(
        t=phi / 0.5, r=np.ones(9), theta=np.full(9, 0.5 * math.pi), phi=phi,
        dr_dt=dr_dt, dtheta_dt=np.zeros(9), dphi_dt=dphi_dt, kind="azimuth", sampler=sampler,
    )


@pytest.mark.parametrize("route", [delta_tau_pair, delta_tau_first_order])
@pytest.mark.parametrize(
    "even, odd, J, error",
    [
        # in unit constants an infinite speed leaves double range and a
        # speed above 1 is not timelike
        ((math.inf, 0.5), (0.0, 2.0), 1.0, propertime._OutOfRange),
        ((0.0, 2.0), (math.inf, 0.5), 1.0, NotTimelike),
        # a subnormal J gives subnormal integrand samples; odd samples both
        # not timelike and subnormal in dphi/dt fail the timelike check first
        ((0.0, 0.5), (0.0, 2.0), 1e-310, propertime._OutOfRange),
        ((0.0, 0.5), (2.0, 1e-310), 1.0, NotTimelike),
    ],
)
def test_the_coarse_level_is_checked_before_the_fine_one(route, even, odd, J, error):
    # the even samples are the first level, so their error wins, as when
    # each level was sampled on its own
    with pytest.raises(error):
        route(RotatingMassModel(0.0, J), _hand_built(even, odd), UNIT)


def test_a_sampled_path_needs_4k_plus_1_samples():
    arm = build_straight_arm(InterferometerGeometry(1e-3, 1.0, 1e3), "right")
    with pytest.raises(DomainError, match="^a sampled path needs 4k \\+ 1 azimuth samples, got 515 azimuth samples$"):
        arm.sampler(515)


def test_hand_built_azimuth_paths_need_nonzero_dphi_dt():
    arc = replace(build_circular_arc(r0=1.0, speed=1e-3, phi_span=0.8), sampler=None)
    with pytest.raises(DomainError, match="^an azimuth-sampled path needs dphi/dt != 0 at every sample$"):
        replace(arc, dphi_dt=np.where(np.arange(arc.n_samples) == 3, 0.0, arc.dphi_dt))


def test_quadrature_raises_at_the_sample_cap(monkeypatch):
    monkeypatch.setattr(propertime, "MAX_QUADRATURE_SAMPLES", 512)
    model = RotatingMassModel(0.0, 1.0)
    geom = InterferometerGeometry(w=1e-3, L=1.0, v0=1.0)
    with pytest.raises(NoConvergence, match="azimuth"):
        delta_tau_pair(model, build_straight_arm(geom, "right"))
    with pytest.raises(NoConvergence, match="L/w = 1000"):
        delta_tau_interferometer(model, geom, "quadrature")


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"w": math.nan, "L": 1.0, "v0": 1.0}, "w"),
        ({"w": 1e-3, "L": math.inf, "v0": 1.0}, "L"),
        ({"w": 1e-3, "L": 1.0, "v0": math.nan}, "v0"),
    ],
)
def test_geometry_rejects_non_finite_inputs(kwargs, field):
    with pytest.raises(DomainError, match=f"^{field} must be finite"):
        InterferometerGeometry(**kwargs)


def test_straight_arm_geometry():
    geom = InterferometerGeometry(w=2e-3, L=1.0, v0=5e2)
    arm = build_straight_arm(geom, "right").sampler(4097)
    assert abs(arm.r.min() / (geom.w / 2) - 1.0) < 1e-12
    phi_max = math.atan(2.0 * geom.L / geom.w)
    assert abs(arm.phi[0] + phi_max) < 1e-12
    assert abs(arm.phi[-1] - phi_max) < 1e-12
    left = build_straight_arm(geom, "left").sampler(4097)
    np.testing.assert_array_equal(left.phi, -arm.phi)
    np.testing.assert_array_equal(left.dphi_dt, -arm.dphi_dt)
    np.testing.assert_array_equal(left.r, arm.r)


def test_straight_arm_requires_positive_speed():
    geom = InterferometerGeometry(w=1e-3, L=1.0, v0=0.0)
    with pytest.raises(DomainError):
        build_straight_arm(geom, "right")
    with pytest.raises(DomainError):
        build_straight_arm(InterferometerGeometry(1e-3, 1.0, 1e3), "sideways")


@pytest.mark.parametrize("n", [2, 4, 1024])
def test_azimuth_paths_need_an_odd_sample_count(n):
    # their Simpson rule in phi pairs the intervals
    arm = build_straight_arm(InterferometerGeometry(1e-3, 1.0, 1e3), "right")
    with pytest.raises(DomainError, match=f"^an azimuth-sampled path needs an odd number of samples, got {n}$"):
        arm.sampler(n)


def test_geometry_invariants():
    with pytest.raises(DomainError):
        InterferometerGeometry(w=-1.0, L=1.0, v0=1.0)
    with pytest.raises(DomainError):
        InterferometerGeometry(w=1.0, L=0.5, v0=1.0)


def test_first_order_shift_on_circular_arc_matches_energy_route():
    # the closed energy-route formula drops O(GM/c^2 r) and O(v^4/c^4)
    # relative corrections, so gentle parameters pin the comparison to 1e-10
    model = RotatingMassModel(M=1e-11, J=1e-3)
    arc = build_circular_arc(r0=1.0, speed=1e-3, phi_span=0.8)
    got = delta_tau_first_order(model, arc, UNIT)
    ratio = 1.0 + 0.5 * 1e-6 - 1e-11
    expected = ratio * 4.0 * model.J * 0.8 / 1.0  # (E/mc^2)(4GJ/c^4) d_phi / r
    assert got > 0.0
    assert abs(got / expected - 1.0) < 1e-10


def test_first_order_shift_is_odd_under_traversal_reversal():
    model = RotatingMassModel(M=1e-6, J=1e-3)
    fwd = build_circular_arc(r0=1.0, speed=1e-3, phi_span=0.8)
    rev = build_circular_arc(r0=1.0, speed=1e-3, phi_span=-0.8)
    a = delta_tau_first_order(model, fwd, UNIT)
    b = delta_tau_first_order(model, rev, UNIT)
    assert abs(a + b) < 1e-15 * abs(a)


def test_pair_is_twice_the_single_path_shift():
    model = RotatingMassModel(M=0.0, J=1e-3)
    arc = build_circular_arc(r0=1.0, speed=3e-4, phi_span=0.8)
    single = delta_tau_first_order(model, arc, UNIT)
    pair = delta_tau_pair(model, arc, UNIT)
    assert abs(pair / (2.0 * single) - 1.0) < 1e-12


def test_pair_matches_independent_quadrature():
    # independent trapezoid of  -(2 E / m c^3) int h_tphi / gbar_tt dphi on
    # the test's own uniform-t samples of the arm, not the library's nodes
    model = RotatingMassModel(M=1e-6, J=1e-3)
    geom = InterferometerGeometry(w=0.02, L=1.0, v0=1e-3)
    arm = replace(build_straight_arm(geom, "right").sampler(20001), sampler=None)
    got = delta_tau_pair(model, arm, UNIT)
    t = np.linspace(0.0, 2.0 * geom.L / geom.v0, 20001)
    y = -geom.L + geom.v0 * t
    r = np.hypot(0.5 * geom.w, y)
    dr_dt = y * geom.v0 / r
    dphi_dt = 0.5 * geom.w * geom.v0 / r**2
    eps = 2.0 * model.M / r
    v2 = (1.0 + eps) * dr_dt**2 + r**2 * dphi_dt**2
    ratio = 1.0 + 0.5 * v2 - model.M / r
    h = -4.0 * model.J / r
    g_tt = -1.0 + eps
    integrand = 2.0 * ratio * (h / g_tt) * dphi_dt
    expected = np.trapezoid(integrand, t)
    assert abs(got / expected - 1.0) < 1e-10


def test_quadrature_stable_under_rediscretization():
    model = RotatingMassModel(M=0.0, J=1e-3)
    coarse = replace(build_circular_arc(r0=1.0, speed=1e-3, phi_span=0.8, n_samples=1001), sampler=None)
    fine = replace(build_circular_arc(r0=1.0, speed=1e-3, phi_span=0.8, n_samples=2001), sampler=None)
    a = delta_tau_first_order(model, coarse, UNIT)
    b = delta_tau_first_order(model, fine, UNIT)
    assert abs(a / b - 1.0) < 1e-8


def test_phase_bundle_log_consistency():
    model = RotatingMassModel(0.0, 1.0)
    geom = InterferometerGeometry(w=1e-3, L=1.0, v0=0.0)
    bundle = delta_tau_interferometer(model, geom, "closed_form")
    # the clock phases rate * delta_tau, as the sweep forms them in the log domain
    mean_log, gap_log = bundle.delta_tau_log.scaled(5e14), bundle.delta_tau_log.scaled(1e15)
    assert abs(mean_log.linear / (5e14 * bundle.delta_tau) - 1.0) < 1e-12
    assert abs(gap_log.linear / (1e15 * bundle.delta_tau) - 1.0) < 1e-12
    assert gap_log.sign == 1
    assert abs(bundle.log10_delta_tau - math.log10(bundle.delta_tau)) < 1e-12


def test_k_factor_definition():
    geom = InterferometerGeometry(w=1e-3, L=1.0, v0=3e4)
    assert k_factor(geom.v0) == 1.0 + 0.5 * (3e4 / CODATA.c) ** 2
    speeds = np.array([0.0, 3e4, 2.9e8])
    np.testing.assert_array_equal(k_factor(speeds), [k_factor(v) for v in speeds])
    # v0^2 alone would overflow; (v0/c)^2 does not
    assert k_factor(1e200, PhysicalConstants(c=1e300)) == 1.0


@pytest.mark.parametrize("v0", [-1.0, CODATA.c, 3e9, math.nan, np.array([0.0, 3e9])])
def test_k_factor_rejects_speeds_outside_zero_to_c(v0):
    with pytest.raises(DomainError, match="v0 must be"):
        k_factor(v0)


def test_signed_log_roundtrip():
    for x in (3.7e-200, -2.2e150, 0.0):
        sl = SignedLog.from_linear(x)
        assert sl.linear == pytest.approx(x, rel=1e-14)
