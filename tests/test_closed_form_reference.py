"""The log-domain closed form and the chain built on it, against 50-digit mpmath.

The reference takes G, c and hbar as the exact values of the package's
doubles and evaluates 16 G J K / (c^4 w), K = 1 + v0^2 / (2 c^2), and the
clock observables at 50 significant digits, at laboratory parameters: J from
1e-5 to 1e60 kg m^2/s, w from 1 nm to 1 km, v0 from 0 to 0.97 c.  mpmath is
a test dependency only; the package does not import it.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from gravclock import detectability as det
from gravclock.constants import CODATA
from gravclock.propertime import InterferometerGeometry, delta_tau_interferometer
from gravclock.spacetime import RotatingMassModel

LOG10_TOL = 5e-14
LINEAR_REL_TOL = 2e-13

G, C, HBAR = (mp.mpf(x) for x in (CODATA.G, CODATA.c, CODATA.hbar))  # exact at any precision

ANGULAR_MOMENTA = np.logspace(-5.0, 60.0, 14)
WIDTHS = np.logspace(-9.0, 3.0, 7)
SPEEDS = np.linspace(0.0, 0.97 * CODATA.c, 5)
# ell = J / hbar over the same J range
ELL_LOG10 = np.linspace(29.0, 94.0, 27)


@pytest.fixture(autouse=True)
def fifty_digits():
    with mp.workdps(50):
        yield


def reference(j, w, v0):
    k = 1 + mp.mpf(v0) ** 2 / (2 * C**2)
    return 16 * G * j * k / (C**4 * mp.mpf(w))


def ell_reference(ell_log10, w=1e-3, v0=0.0):
    return reference(HBAR * mp.power(10, mp.mpf(ell_log10)), w, v0)


def binary_entropy(y):
    return (-y * mp.log(y) - (1 - y) * mp.log1p(-y)) / mp.log(2)


@pytest.mark.parametrize("w", WIDTHS)
def test_closed_form_in_j(w):
    for j in ANGULAR_MOMENTA:
        for v0 in SPEEDS:
            got = delta_tau_interferometer(
                RotatingMassModel(0.0, j), InterferometerGeometry(w, 2.0 * w, v0), "closed_form"
            )
            exact = reference(mp.mpf(j), w, v0)
            assert abs(got.log10_delta_tau - float(mp.log10(exact))) < LOG10_TOL, (j, v0)
            assert abs(float(got.delta_tau / exact - 1)) < LINEAR_REL_TOL, (j, v0)


@pytest.mark.parametrize("w", WIDTHS)
def test_closed_form_in_ell_along_a_sweep(w):
    for v0 in SPEEDS:
        cfg = det.SweepConfig(
            "ell_log10", tuple(ELL_LOG10.tolist()), ("delta_tau",), {"w": float(w), "v0": float(v0)}
        )
        for ell_log10, linear, log10 in det.run_sweep(cfg).rows:
            exact = ell_reference(ell_log10, w, v0)
            assert abs(log10 - float(mp.log10(exact))) < LOG10_TOL, (ell_log10, v0)
            if math.isfinite(linear):  # ell = 1e94 at w = 1 nm overflows
                assert abs(float(linear / exact - 1)) < LINEAR_REL_TOL, (ell_log10, v0)


@pytest.mark.parametrize("target_phase", [1e-3, 1.0, 10.0])
def test_required_ell(target_phase):
    for clock_rate in (1e14, 1e15, 3e16):
        for w in WIDTHS:
            for v0 in SPEEDS:
                got = det.required_ell(target_phase, clock_rate, float(w), float(v0))
                per_unit = mp.mpf(clock_rate) * reference(HBAR, w, v0)
                exact = mp.log10(mp.mpf(target_phase)) - mp.log10(per_unit)
                assert abs(got - float(exact)) < LOG10_TOL, (clock_rate, w, v0)


def test_visibility_deficit_log10_in_both_branches():
    # the log10 of phase^2 / 2 below a phase of 1e-8 rad, the log10 of the
    # linear deficit D above.  A phase known to LOG10_TOL in log10 moves
    # log10 D by up to phase |sin(phase)| / D times that; at 1e-4 rad and
    # beyond D is 1 - cos(phase), which keeps an absolute error of ~eps_mach
    branches = set()
    for ell_log10 in np.linspace(0.0, 60.0, 121):
        point = det.evaluate_point({"ell_log10": float(ell_log10)})
        phase = mp.mpf(1e15) * ell_reference(ell_log10)
        exact = 2 * mp.sin(phase / 2) ** 2
        condition = float(phase * abs(mp.sin(phase)) / exact)
        cancellation = 4.0 * np.finfo(float).eps / float(exact) / math.log(10.0)
        bound = LOG10_TOL * (1.0 + condition) + (cancellation if phase >= 1e-4 else 0.0)
        err = abs(point["visibility_deficit_log10"] - float(mp.log10(exact)))
        assert err < bound, ell_log10
        branches.add(bool(phase < 1e-8))
    assert branches == {True, False}


def test_entanglement_log10_columns_in_the_asymptotic_regime():
    for ell_log10 in np.linspace(0.0, 50.5, 102):
        point = det.evaluate_point({"ell_log10": float(ell_log10)})
        delta_tau = ell_reference(ell_log10)
        gap, mean = mp.mpf(1e15) * delta_tau, mp.mpf(5e14) * delta_tau
        assert gap < 1e-8
        # 1 - pr_left = (1 - V cos(mean)) / 2, and the smaller E_F eigenvalue
        # (1 - sqrt(1 - s)) / 2 with s = V^2 sin^2(mean), without cancellation
        y_ee = (2 * mp.sin(gap / 2) ** 2 + mp.cos(gap) * 2 * mp.sin(mean / 2) ** 2) / 2
        s = (mp.cos(gap) * mp.sin(mean)) ** 2
        y_ef = s / (2 * (1 + mp.sqrt(1 - s)))
        for name, y in (("ee_spc_log10", y_ee), ("ef_sp_log10", y_ef)):
            exact = mp.log10(binary_entropy(y))
            assert abs(point[name] - float(exact)) < LOG10_TOL, (name, ell_log10)


def test_tiny_entropy_asymptotics():
    # the sweep takes this branch for y below ~5e-17
    for y_log10 in np.linspace(-300.0, -16.0, 143):
        exact = mp.log10(binary_entropy(mp.power(10, mp.mpf(y_log10))))
        assert abs(det._tiny_entropy_log10(float(y_log10)) - float(exact)) < LOG10_TOL, y_log10
    assert det._tiny_entropy_log10(-math.inf) == -math.inf
