"""The log-domain closed form and the chain built on it, against 50-digit mpmath.

The reference takes G, c and hbar as the exact values of the package's
doubles and evaluates 16 G J K / (c^4 w), K = 1 + v0^2 / (2 c^2), and the
clock observables at 50 significant digits, at laboratory parameters: J from
1e-5 to 1e60 kg m^2/s, w from 1 nm to 1 km, v0 from 0 to 0.97 c.  mpmath is
a test dependency only; the package does not import it.

Every sweep column is also checked against mpmath evaluated on the double
phases the program feeds its closed forms.  Those phases carry a relative
rounding error of a few eps, which at phases of 1e10 rad moves any
trigonometric result by ~1e-6; taking them as exact inputs is what lets a
column be held to a few ulp at every phase.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from gravclock import detectability as det
from gravclock.constants import CODATA
from gravclock.interferometry import clock_phases
from gravclock.propertime import InterferometerGeometry, delta_tau_interferometer
from gravclock.spacetime import RotatingMassModel

LOG10_TOL = 5e-14
LINEAR_REL_TOL = 2e-13
# a linear sweep column within this many ulp of mpmath, times the
# cancellation factor of its formula: 1 except for Pr(L') where V cos(phase)
# nears -1
COLUMN_ULPS = 4.0
EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny

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
        for ell_log10, linear, log10 in det.run_sweep(cfg).rows.tolist():
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
    # one formula, 2 sin^2(phase / 2), from 1e-59 rad to ~1e1 rad: through
    # both former branches, below 1e-8 and above 1e-4 rad.  A phase known to
    # LOG10_TOL in log10 moves log10 D by up to phase |sin(phase)| / D times that
    for ell_log10 in np.linspace(0.0, 60.0, 121):
        point = det.evaluate_point({"ell_log10": float(ell_log10)})
        phase = mp.mpf(1e15) * ell_reference(ell_log10)
        exact = 2 * mp.sin(phase / 2) ** 2
        condition = float(phase * abs(mp.sin(phase)) / exact)
        err = abs(point["visibility_deficit_log10"] - float(mp.log10(exact)))
        assert err < LOG10_TOL * (1.0 + condition), ell_log10


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
    # log10 h(q) from log10 q, from q far below the double range up to 1/2
    for log10_q in np.append(np.linspace(-400.0, -0.5, 400), math.log10(0.5)):
        exact = mp.log10(binary_entropy(mp.power(10, mp.mpf(log10_q))))
        with np.errstate(divide="ignore", invalid="ignore"):  # as in a sweep
            got = det._entropy_log10(float(log10_q))
        assert abs(got - float(exact)) <= max(LOG10_TOL, 2.0 * np.spacing(abs(float(exact)))), log10_q
    with np.errstate(divide="ignore", invalid="ignore"):
        assert det._entropy_log10(-math.inf) == -math.inf


def _deficit(x):
    return 2 * mp.sin(x / 2) ** 2


def _ports(spread, v, phase):
    """Pr(L'), Pr(R'), the smaller of the two and the cancellation factor of Pr(L').

    ``spread`` is 1 - v^2; the smaller port (1 - |v cos(phase)|) / 2 is
    formed from it, since 50 digits do not resolve 1 - cos(1e-59).
    """
    cos_phase = mp.cos(phase)
    port = (spread / (1 + abs(v)) + abs(v) * mp.sin(phase) ** 2 / (1 + abs(cos_phase))) / 2
    left, right = (1 - port, port) if v * cos_phase >= 0 else (port, 1 - port)
    return left, (1 + abs(v * cos_phase)) / (2 * left), right, port


def _reference(spread, v, phase):
    """(value, cancellation factor) of each port and entanglement column."""
    left, left_factor, right, port = _ports(spread, v, phase)
    s = (v * mp.sin(phase)) ** 2
    return {
        "pr_left": (left, left_factor),
        "pr_right": (right, 1),
        "ee_spc": (binary_entropy(port), 1),
        "ef_sp": (binary_entropy(s / (2 * (1 + mp.sqrt(1 - s)))), 1),
    }


def _as_mp(x, log10_x):
    """The double phase x, or +-10**log10_x where x is not a normal double."""
    if abs(x) >= TINY:
        return mp.mpf(x)
    return mp.mpf(0) if log10_x == -math.inf else math.copysign(1.0, x) * mp.power(10, mp.mpf(log10_x))


def reference_columns(cells, clock_rate, mean_rate, theta):
    """mpmath value and cancellation factor of each clock column of one sweep row.

    The inputs are the doubles the program forms: the gap and mean phases
    that :func:`clock_phases` gives from the clock's energies and the row's
    delta_tau (the printed phase_gap for visibility_deficit), the same gap
    as the test theory's psi, and the mean phase plus the printed
    qep_xi_phase as its phase.
    """
    hbar = CODATA.hbar
    e_g, e_e = (mean_rate - 0.5 * clock_rate) * hbar, (mean_rate + 0.5 * clock_rate) * hbar
    dt = cells["delta_tau"]
    ref = {}
    # the test theory's frame-dragging sector has the clock's energies, so
    # its phases are the clock's own
    gap, mean = clock_phases(e_g, e_e, dt, hbar)
    if "phase_gap" in cells:
        ref["visibility_deficit"] = (_deficit(_as_mp(cells["phase_gap"], cells["phase_gap_log10"])), 1)
        gap_mp = _as_mp(gap, cells["phase_gap_log10"])
        mean_mp = _as_mp(mean, cells["phase_mean_log10"])
        ref.update(_reference(mp.sin(gap_mp) ** 2, mp.cos(gap_mp), mean_mp))
    psi = mp.mpf(gap)
    sin_2theta, cos_2theta = mp.sin(2 * mp.mpf(theta)), mp.cos(2 * mp.mpf(theta))
    mixed = (sin_2theta * mp.sin(psi)) ** 2
    v = mp.sqrt(1 - mixed)
    k = mp.nint(psi / mp.pi)
    rem = psi - k * mp.pi
    phase = mp.mpf(mean + cells["qep_xi_phase"])
    ref.update(
        qep_visibility=(v, 1),
        qep_xi_phase=(-(k * mp.pi + mp.atan2(cos_2theta * mp.sin(rem), mp.cos(rem))), 1),
    )
    ref.update({"qep_" + name: value for name, value in _reference(mixed, v, phase).items()})
    return ref


def check_columns(cells, clock_rate, mean_rate, theta):
    where = (clock_rate, mean_rate, theta, cells[next(iter(cells))])
    for name, (exact, factor) in reference_columns(cells, clock_rate, mean_rate, theta).items():
        got = cells[name]
        if TINY <= abs(got) < math.inf:
            assert abs(float((got - exact) / exact)) <= COLUMN_ULPS * EPS * float(factor), (name, where)
        log10 = cells.get(name + "_log10")
        if log10 is not None and exact > 0:
            exact_log10 = float(mp.log10(exact))
            bound = max(LOG10_TOL, 2.0 * np.spacing(abs(exact_log10))) * float(factor)
            assert abs(log10 - exact_log10) <= bound, (name + "_log10", where)


COLUMN_OUTPUTS = tuple(name for name in det.OUTPUTS if name != "witness")
QEP_OUTPUTS = tuple(name for name in det.OUTPUTS if name.startswith("qep_"))
# from underflowing linear phases to ~1e11 rad, through 1e-8 and 1e-4 rad at 1e15 rad/s
COLUMN_ELL = (-400.0, -300.0, -200.0, -100.0, -10.0, 0.0, 10.0, 20.0, 30.0, 50.86, 54.86, 58.856) + tuple(
    np.arange(40.0, 69.01, 0.5).tolist()
)


@pytest.mark.parametrize("mean_rate", [None, 0.0, -3e14])
@pytest.mark.parametrize("clock_rate", [1e14, 1e15, 3e16])
def test_every_clock_column_against_mpmath(clock_rate, mean_rate):
    # mean_rate None is the default clock_rate / 2
    mean = 0.5 * clock_rate if mean_rate is None else mean_rate
    for theta in (0.0, 0.3, 0.25 * math.pi):
        fixed = {"clock_rate": clock_rate, "mean_rate": mean, "theta": theta}
        outputs = COLUMN_OUTPUTS if theta == 0.0 else ("delta_tau",) + QEP_OUTPUTS
        table = det.run_sweep(det.SweepConfig("ell_log10", COLUMN_ELL, outputs, fixed))
        for row in table.rows.tolist():
            cells = dict(zip(table.columns, row))
            if theta == 0.0:
                phases = cells["phase_gap_log10"], cells["phase_mean_log10"]
                exact = [mp.mpf(rate) * ell_reference(row[0]) for rate in (clock_rate, mean)]
                for got, value in zip(phases, exact):
                    if value:
                        assert abs(got - float(mp.log10(abs(value)))) <= max(LOG10_TOL, 2.0 * np.spacing(abs(got)))
            check_columns(cells, clock_rate, mean, theta)


@pytest.mark.parametrize(
    "axis, low, high, fixed",
    [
        ("ell_log10", 55.0, 68.0, {"theta": 0.3, "mean_rate": -2e14}),
        ("theta", 0.0, 0.5 * math.pi, {"ell_log10": 60.0}),
        ("mean_rate", -3e15, 3e15, {"ell_log10": 59.0, "theta": 1.1}),
    ],
)
def test_sweep_columns_against_mpmath(axis, low, high, fixed):
    values = tuple(np.random.default_rng(41).uniform(low, high, 1500).tolist())
    table = det.run_sweep(det.SweepConfig(axis, values, COLUMN_OUTPUTS, fixed))
    for row in table.rows.tolist():
        cells = dict(zip(table.columns, row))
        params = {"clock_rate": 1e15, "mean_rate": 5e14, "theta": 0.0, **fixed, axis: row[0]}
        check_columns(cells, params["clock_rate"], params["mean_rate"], params["theta"])


def test_rows_near_1e_8_rad_read_their_mpmath_values():
    # phase_gap 1.4e-8 rad, where 1 - p rounds to a multiple of eps_mach
    cells = det.evaluate_point({"ell_log10": 51.0})
    for name, value in (
        ("ee_spc_log10", -14.4737), ("ef_sp_log10", -15.1548),
        ("ee_spc", 3.36e-15), ("ef_sp", 7.00e-16), ("pr_right", 6.0742e-17),
    ):
        assert cells[name] == pytest.approx(value, rel=1e-3 if name.endswith("_log10") else 2e-3), name
    check_columns(cells, 1e15, 5e14, 0.0)
    # row 1 of golden/sweep_mean_rate.csv
    cells = det.evaluate_point({"ell_log10": 50.0, "mean_rate": 0.0})
    assert cells["pr_right"] == pytest.approx(4.86e-19, rel=2e-3)
    assert cells["ee_spc"] == pytest.approx(3.03e-17, rel=2e-3)
    check_columns(cells, 1e15, 0.0, 0.0)
