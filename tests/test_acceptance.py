"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with its measured runtime (run pytest with -s
to see them).  Runtimes are measured after a warm-up call so that one-time
JIT compilation of the numeric kernels is not charged to the criterion.
"""

import math
import time

import numpy as np

from conftest import unfold_monotone
from gravclock.clockstate import (
    density_from_state,
    entanglement_of_formation,
    reduced_density,
    state_vector,
    tensor_state,
    von_neumann_entropy,
    witness_value,
)
from gravclock.constants import CODATA, PhysicalConstants
from gravclock.detectability import phase_per_unit_ell_log10, required_ell
from gravclock.geodesic import (
    BoundaryConditions,
    energy_ratio_samples,
    solve_extremal_path,
    verify_first_order,
)
from gravclock.interferometry import (
    ClockModel,
    detection_probabilities,
    gme_entanglement,
    gme_final_state,
    interferometer_state,
)
from gravclock.propertime import InterferometerGeometry, delta_tau_interferometer
from gravclock.qep import QepTestTheory, qep_final_state, qep_gme_entanglement, qep_visibility
from gravclock.spacetime import RotatingMassModel, SpacetimePoint

HBAR = CODATA.hbar
UNIT = PhysicalConstants(c=1.0, G=1.0, hbar=1.0)
EQ = math.pi / 2


def _report(number, runtime, budget, detail):
    print(f"ACCEPTANCE {number} PASS ({runtime:.2f} s < {budget:.0f} s): {detail}")


def _phase_clock(mean, gap):
    return ClockModel(E_g=(mean - 0.5 * gap) * HBAR, E_e=(mean + 0.5 * gap) * HBAR)


def test_criterion_1_closed_form_delta_tau():
    model = RotatingMassModel(M=0.0, J=1.0)

    def compute():
        closed = delta_tau_interferometer(
            model, InterferometerGeometry(w=1e-3, L=1.0, v0=0.0), "closed_form"
        ).delta_tau
        quad = delta_tau_interferometer(
            model, InterferometerGeometry(w=1e-3, L=1.0, v0=0.1), "quadrature"
        ).delta_tau
        return closed, quad

    compute()  # warm up the kernels
    start = time.perf_counter()
    closed, quad = compute()
    runtime = time.perf_counter() - start

    independent = 16.0 * 6.67430e-11 * 1.0 * 1.0 / ((2.99792458e8) ** 4 * 1e-3)
    assert abs(closed / independent - 1.0) < 1e-4  # within 0.01 percent
    assert abs(closed / 1.3220e-40 - 1.0) < 1e-4
    assert abs(quad / closed - 1.0) < 2e-3  # finite arms within 0.2 percent
    assert runtime < 1.0
    _report(1, runtime, 1, f"delta_tau = {closed:.5e} s, quadrature off by {abs(quad/closed-1):.2e}")


def test_criterion_2_phase_estimate_orders_of_magnitude():
    start = time.perf_counter()
    per_unit = phase_per_unit_ell_log10(1e15, 1e-3, 0.0)
    needed = required_ell(1.0, 1e15, 1e-3, 0.0)
    runtime = time.perf_counter() - start
    assert -60.5 <= per_unit <= -58.5
    assert 58.0 <= needed <= 61.0
    assert runtime < 1.0
    _report(2, runtime, 1, f"log10 phase/ell = {per_unit:.3f}, log10 ell(1 rad) = {needed:.3f}")


def test_criterion_3_first_order_theorem():
    model = RotatingMassModel(M=1e-6, J=1.25e-3)
    bc = BoundaryConditions(
        SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(30.0, 1.0, EQ, 0.3)
    )
    scales = [0.08, 0.16, 0.32, 0.64, 1.28, 2.56, 5.12, 8.0]
    solve_extremal_path(RotatingMassModel(M=model.M, J=0.0), bc, UNIT, 128)  # warm up

    start = time.perf_counter()
    report = verify_first_order(model, bc, scales, constants=UNIT, n_segments=512)
    radial_model = RotatingMassModel(M=1e-6, J=0.0)
    radial = solve_extremal_path(
        radial_model,
        BoundaryConditions(
            SpacetimePoint(0.0, 1.0, EQ, 0.0), SpacetimePoint(100.0, 1.3, EQ, 0.0)
        ),
        constants=UNIT,
        n_segments=1024,
    )
    ratios = energy_ratio_samples(radial_model, radial.path, UNIT)
    drift = float((ratios.max() - ratios.min()) / abs(ratios.mean()))
    runtime = time.perf_counter() - start

    assert report.all_converged and radial.converged
    assert scales[-1] / scales[0] >= 100.0  # two decades
    assert report.slope >= 1.8
    assert drift < 1e-9
    assert runtime < 120.0
    _report(3, runtime, 120, f"residual slope = {report.slope:.3f}, energy drift = {drift:.2e}")


def test_criterion_4_closed_form_oracle_equivalence():
    gap_phases = np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)
    mean_phases = np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)

    start = time.perf_counter()
    worst_ee = worst_ef = worst_pr = 0.0
    for gp in gap_phases:
        for mp in mean_phases:
            clock = _phase_clock(mp, gp)
            res = gme_entanglement(clock, 1.0)
            state = gme_final_state(clock, 1.0)
            ee = von_neumann_entropy(reduced_density(state, ["S"]))
            ef = entanglement_of_formation(reduced_density(state, ["S", "P"]))
            worst_ee = max(worst_ee, abs(res.ee_spc - ee))
            worst_ef = max(worst_ef, abs(res.ef_sp - ef))
            state = interferometer_state(clock, 1.0)
            pl = float(np.real(reduced_density(state, ["P"]).matrix[0, 0]))
            worst_pr = max(worst_pr, abs(detection_probabilities(clock, 1.0).pr_left - pl))
    runtime = time.perf_counter() - start

    assert worst_ee <= 1e-10
    assert worst_ef <= 1e-10
    assert worst_pr <= 1e-12
    assert runtime < 10.0
    _report(4, runtime, 10, f"worst |E_E| = {worst_ee:.1e}, |E_F| = {worst_ef:.1e}, |pr| = {worst_pr:.1e}")


def test_criterion_5_qep_suite():
    start = time.perf_counter()

    # aligned-bases regression to the plain interferometer
    worst_reg = 0.0
    for gap, mean, dt in ((1.3, 0.7, 1.0), (2.6, 0.4, 0.7), (0.9, 2.2, 2.3)):
        tt = QepTestTheory(
            clock=ClockModel((mean - 0.5 * gap) * HBAR, (mean + 0.5 * gap) * HBAR),
            E_g_prime=(mean - 0.5 * gap) * HBAR,
            E_e_prime=(mean + 0.5 * gap) * HBAR,
            theta=0.0,
        )
        q = qep_gme_entanglement(tt, dt)
        occupied = (mean - gap) * HBAR
        degenerate = ClockModel(E_g=occupied, E_e=occupied)
        plain = gme_entanglement(degenerate, dt)
        pr = detection_probabilities(degenerate, dt)
        worst_reg = max(
            worst_reg,
            abs(q.pr_left - pr.pr_left),
            abs(q.ee_spc - plain.ee_spc),
            abs(q.ef_sp - plain.ef_sp),
            abs(q.visibility - 1.0),
        )
    assert worst_reg <= 1e-10

    # exact visibility zero at maximal mixing
    tt0 = QepTestTheory(
        clock=ClockModel(0.0, HBAR),
        E_g_prime=0.0,
        E_e_prime=(math.pi / 2) * HBAR,
        theta=math.pi / 4,
    )
    vis, _ = qep_visibility(tt0, 1.0)
    assert abs(vis) <= 1e-12

    # 100-point closed-form / oracle grid
    worst_grid = 0.0
    thetas = np.linspace(0.15, math.pi / 2 - 0.15, 10)
    psis = np.linspace(0.3, 2.0 * math.pi - 0.35, 10)
    for i, theta in enumerate(thetas):
        for j, psi in enumerate(psis):
            mean = 0.25 + 0.61 * psi + 0.17 * theta
            tt = QepTestTheory(
                clock=ClockModel(0.0, HBAR),
                E_g_prime=(mean - 0.5 * psi) * HBAR,
                E_e_prime=(mean + 0.5 * psi) * HBAR,
                theta=theta,
                varphi=0.37 * (i + 2 * j),
            )
            res = qep_gme_entanglement(tt, 1.0)
            state = qep_final_state(tt, 1.0)
            worst_grid = max(
                worst_grid,
                abs(res.ee_spc - von_neumann_entropy(reduced_density(state, ["S"]))),
                abs(res.ef_sp - entanglement_of_formation(reduced_density(state, ["S", "P"]))),
            )
    assert worst_grid <= 1e-10

    # amplitude-modulation frequency in 1/w
    j_source = 1e25
    prime_rate = 1e15
    theta = 0.3
    k_expected = prime_rate * 16.0 * CODATA.G * j_source / CODATA.c**4
    s2 = math.sin(2.0 * theta) ** 2
    inv_w = np.linspace(1e3, 1e4, 200)
    folded = []
    tt = QepTestTheory(
        clock=ClockModel(0.0, prime_rate * HBAR),
        E_g_prime=0.0,
        E_e_prime=prime_rate * HBAR,
        theta=theta,
    )
    for u in inv_w:
        delta_tau = 16.0 * CODATA.G * j_source / (CODATA.c**4) * u
        vis, _ = qep_visibility(tt, delta_tau)
        chi = 1.0 - 2.0 * (1.0 - vis * vis) / s2
        folded.append(math.acos(max(-1.0, min(1.0, chi))))
    slope = np.polyfit(inv_w, unfold_monotone(np.array(folded)), 1)[0]
    freq_err = abs(0.5 * slope / k_expected - 1.0)
    assert freq_err < 1e-6

    runtime = time.perf_counter() - start
    assert runtime < 30.0
    _report(
        5,
        runtime,
        30,
        f"regression {worst_reg:.1e}, grid {worst_grid:.1e}, frequency error {freq_err:.1e}",
    )


def test_criterion_6_witness_soundness():
    rng = np.random.default_rng(0)

    start = time.perf_counter()
    # one stack of 10_000 product states; each sample's source real and
    # imaginary parts, then the path's, drawn in that order
    normals = rng.standard_normal((10_000, 4, 2))
    product = tensor_state(
        [
            state_vector(normals[:, 0] + 1j * normals[:, 1], [("S", 2)]),
            state_vector(normals[:, 2] + 1j * normals[:, 3], [("P", 2)]),
        ]
    )
    worst = float(witness_value(density_from_state(product)).max())
    assert worst <= 1.0 + 1e-9

    violations = 0
    for gp in np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False):
        for mp in np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False):
            res = gme_entanglement(_phase_clock(mp, gp), 1.0)
            # a concurrence of 1e-9 gives E_F ~ 2e-17; the double nearest pi
            # leaves a concurrence ~1e-16, so E_F ~ 1e-30 there
            assert (res.witness > 1.0 + 1e-9) == (res.ef_sp > 1e-17)
            violations += res.witness > 1.0 + 1e-9
    assert violations > 0
    runtime = time.perf_counter() - start

    assert runtime < 10.0
    _report(6, runtime, 10, f"max separable witness = {worst:.9f}, grid checks ok ({violations} above 1)")


def test_criterion_7_scaling_invariants():
    geom = InterferometerGeometry(w=1e-3, L=1.0, v0=0.1)

    def quad(j):
        return delta_tau_interferometer(
            RotatingMassModel(0.0, j), geom, "quadrature"
        ).delta_tau

    quad(1.0)  # warm up
    start = time.perf_counter()
    js = np.array([1.0, 2.0, 4.0])
    taus = np.array([quad(j) for j in js])
    slope_fit, intercept = np.polyfit(js, taus, 1)
    assert abs(intercept) < 1e-15 * abs(taus[-1])
    assert abs(taus[1] / taus[0] - 2.0) < 1e-12
    assert abs(taus[2] / taus[0] - 4.0) < 1e-12

    widths = [1e-3, 1e-2, 1e-1]
    closed = [
        delta_tau_interferometer(
            RotatingMassModel(0.0, 1.0), InterferometerGeometry(w, 1e3 * w, 0.0), "closed_form"
        ).delta_tau
        for w in widths
    ]
    log_slope = np.polyfit(np.log(widths), np.log(closed), 1)[0]
    assert abs(log_slope + 1.0) < 1e-9

    assert quad(-3.0) == -quad(3.0)
    plus = delta_tau_interferometer(RotatingMassModel(0.0, 5.0), geom, "closed_form").delta_tau
    minus = delta_tau_interferometer(RotatingMassModel(0.0, -5.0), geom, "closed_form").delta_tau
    assert minus == -plus
    runtime = time.perf_counter() - start

    assert runtime < 5.0
    _report(7, runtime, 5, f"linear in J, width slope = {log_slope:.12f}, exact sign flip")
