import cmath
import math

import numpy as np
import pytest

from conftest import unfold_monotone
from gravclock.clockstate import (
    entanglement_of_formation,
    reduced_density,
    von_neumann_entropy,
)
from gravclock.constants import CODATA
from gravclock.errors import DomainError
from gravclock.interferometry import ClockModel, detection_probabilities, gme_entanglement
from gravclock.qep import (
    QepTestTheory,
    qep_final_state,
    qep_arm_states,
    qep_gme_entanglement,
    qep_probabilities,
    qep_visibility,
)

HBAR = CODATA.hbar


def theory(theta, gap=1.3, mean=0.7, varphi=0.0, n_gap=1.0, n_mean=0.5):
    """Test theory with phases in radians at delta_tau = 1 s."""
    return QepTestTheory(
        clock=ClockModel((n_mean - 0.5 * n_gap) * HBAR, (n_mean + 0.5 * n_gap) * HBAR),
        E_g_prime=(mean - 0.5 * gap) * HBAR,
        E_e_prime=(mean + 0.5 * gap) * HBAR,
        theta=theta,
        varphi=varphi,
    )


# the arm kets of the test theory, from the H_N ground state


def test_relative_evolution_diagonal_when_bases_align():
    # at theta = 0 the ground state is |g'>: each arm only multiplies it by a phase
    for dt in (0.0, 0.5, -2.0):
        for chi in qep_arm_states(theory(0.0), dt):
            assert chi[1] == 0.0
            assert abs(abs(chi[0]) - 1.0) < 1e-15


def test_relative_evolution_unitary():
    rng = np.random.default_rng(31)
    for _ in range(50):
        tt = theory(rng.uniform(0, math.pi / 2), rng.uniform(0, 6), rng.uniform(0, 6), rng.uniform(0, 6))
        for chi in qep_arm_states(tt, rng.uniform(-3, 3)):
            assert abs(np.vdot(chi, chi).real - 1.0) < 1e-14


def test_degenerate_frame_sector_gives_global_phase():
    # dE' = 0: both arms see Ebar' on every branch, so chi_1 and chi_2 are the
    # ground state times exp(+-i Ebar' dt / 2 hbar)
    tt = theory(0.3, gap=0.0, mean=0.9)
    chi1, chi2 = qep_arm_states(tt, 1.0)
    np.testing.assert_allclose(chi1, np.exp(0.45j) * np.array([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(chi2, np.exp(-0.9j) * chi1, atol=1e-15)


def test_visibility_is_one_when_bases_align():
    for dt in (0.0, 0.5, 2.0):
        vis, _ = qep_visibility(theory(0.0), dt)
        assert vis == 1.0


def test_visibility_vanishes_at_maximal_mixing():
    tt = theory(math.pi / 4, gap=math.pi / 2, mean=1.0)
    vis, _ = qep_visibility(tt, 1.0)
    assert abs(vis) < 1e-12


def test_visibility_at_pi_eighth():
    tt = theory(math.pi / 8, gap=math.pi / 4, mean=1.0)
    vis, _ = qep_visibility(tt, 1.0)
    assert abs(vis - math.sqrt(1.0 - 0.25)) < 1e-12
    assert abs(vis - 0.866025) < 1e-6
    chi1, chi2 = qep_arm_states(tt, 1.0)
    assert abs(abs(np.vdot(chi1, chi2)) - vis) < 1e-12


def test_overlap_equals_visibility_on_random_draws():
    rng = np.random.default_rng(32)
    for _ in range(200):
        tt = theory(
            rng.uniform(0, math.pi / 2), rng.uniform(0, 6), rng.uniform(0, 6), rng.uniform(0, 6)
        )
        dt = rng.uniform(0, 3)
        vis, _ = qep_visibility(tt, dt)
        chi1, chi2 = qep_arm_states(tt, dt)
        assert abs(abs(np.vdot(chi1, chi2)) - vis) < 1e-12


def test_xi_small_shift_limit_and_units():
    tt = theory(0.2, gap=1.3)
    assert qep_visibility(tt, 0.0)[1] == 0.0
    dt = 1e-6
    _, xi_dt = qep_visibility(tt, dt)
    assert abs(xi_dt / dt + math.cos(0.4) * 1.3) < 1e-4  # xi -> -cos(2 theta) dE'/hbar


def test_xi_branch_is_continuous():
    tt = theory(0.3, gap=2.0)
    for n in (400, 800):
        dts = np.linspace(0.0, 12.0, n)
        xi_vals = np.array([qep_visibility(tt, dt)[1] for dt in dts])
        steps = np.abs(np.diff(xi_vals))
        assert steps.max() < 3.0 * (2.0 * dts[1])  # |d(xi dt)/d(dt)| <= dE'/hbar-ish


def test_observable_product_stays_continuous_through_vanishing_visibility():
    # at theta = pi/4 the xi branch steps where V = 0, but the product
    # V cos((Ebar' + xi) delta_tau / hbar) entering every observable does not
    tt = theory(math.pi / 4, gap=math.pi / 2, mean=1.3)
    dts = np.linspace(0.9, 1.1, 401)  # strides across the V = 0 point at dt = 1
    pr = np.array([qep_probabilities(tt, dt).pr_left for dt in dts])
    assert np.abs(np.diff(pr)).max() < 5.0 * (dts[1] - dts[0])


def test_probabilities_limits_and_oracle():
    res = qep_probabilities(theory(0.35), 0.0)
    assert (res.pr_left, res.pr_right) == (1.0, 0.0)
    rng = np.random.default_rng(33)
    for _ in range(100):
        tt = theory(
            rng.uniform(0, math.pi / 2), rng.uniform(0, 6), rng.uniform(0, 6), rng.uniform(0, 6)
        )
        dt = rng.uniform(0, 3)
        res = qep_probabilities(tt, dt)
        assert abs(res.pr_left + res.pr_right - 1.0) < 1e-12
        assert 0.0 <= res.visibility <= 1.0
        marginal = reduced_density(qep_final_state(tt, dt), ["P"]).matrix[0, 0]
        assert abs(res.pr_left - marginal.real) < 1e-12


def test_aligned_bases_reduce_to_plain_interferometer():
    # theta = 0 freezes the clock at its occupied branch energy; every output
    # must match the plain pipeline with a degenerate clock at that energy
    for gap, mean, dt in ((1.3, 0.7, 1.0), (2.6, 0.4, 0.7), (0.9, 2.2, 2.3)):
        tt = theory(0.0, gap=gap, mean=mean)
        occupied = (mean - gap) * HBAR  # doubled-branch ground energy
        degenerate = ClockModel(E_g=occupied, E_e=occupied)
        q = qep_gme_entanglement(tt, dt)
        plain_pr = detection_probabilities(degenerate, dt)
        plain_gme = gme_entanglement(degenerate, dt)
        assert abs(q.pr_left - plain_pr.pr_left) <= 1e-10
        assert abs(q.visibility - 1.0) <= 1e-10
        assert abs(q.ee_spc - plain_gme.ee_spc) <= 1e-10
        assert abs(q.ef_sp - plain_gme.ef_sp) <= 1e-10


def test_balanced_mixing_reduces_to_superposition_interferometer():
    # theta = pi/4 with varphi = 0 is the equal-superposition clock of the
    # plain pipeline with the same gap and mean
    for gap, mean, dt in ((1.3, 0.7, 1.0), (0.9, 2.2, 2.3)):
        tt = theory(math.pi / 4, gap=gap, mean=mean)
        clock = ClockModel(E_g=(mean - 0.5 * gap) * HBAR, E_e=(mean + 0.5 * gap) * HBAR)
        q = qep_gme_entanglement(tt, dt)
        plain = gme_entanglement(clock, dt)
        pr = detection_probabilities(clock, dt)
        assert abs(q.ee_spc - plain.ee_spc) <= 1e-10
        assert abs(q.ef_sp - plain.ef_sp) <= 1e-10
        assert abs(q.pr_left - pr.pr_left) <= 1e-10


def test_entanglement_amplitude_reaches_one_where_visibility_is_full():
    tt = theory(0.3, gap=2.0 * math.pi, mean=1.0)  # sin(psi) = 0: V = 1
    vis, _ = qep_visibility(tt, 1.0)
    assert abs(vis - 1.0) < 1e-12
    best = max(
        qep_gme_entanglement(theory(0.3, gap=2.0 * math.pi, mean=m), 1.0).ee_spc
        for m in np.linspace(0.0, 2.0 * math.pi, 81)
    )
    assert abs(best - 1.0) < 1e-10


def test_closed_forms_match_oracles_on_structured_grid():
    worst_ee = worst_ef = 0.0
    thetas = np.linspace(0.15, math.pi / 2 - 0.15, 10)
    psis = np.linspace(0.3, 2.0 * math.pi - 0.35, 10)
    for i, theta in enumerate(thetas):
        for j, psi in enumerate(psis):
            mean = 0.25 + 0.61 * psi + 0.17 * theta  # deterministic mean phase
            tt = theory(theta, gap=psi, mean=mean, varphi=0.37 * (i + 2 * j))
            res = qep_gme_entanglement(tt, 1.0)
            state = qep_final_state(tt, 1.0)
            ee = von_neumann_entropy(reduced_density(state, ["S"]))
            ef = entanglement_of_formation(reduced_density(state, ["S", "P"]))
            worst_ee = max(worst_ee, abs(res.ee_spc - ee))
            worst_ef = max(worst_ef, abs(res.ef_sp - ef))
    assert worst_ee <= 1e-10
    assert worst_ef <= 1e-10


def test_varphi_drops_out_of_observables():
    rng = np.random.default_rng(34)
    for _ in range(50):
        theta = rng.uniform(0.0, math.pi / 2)
        gap = rng.uniform(0.0, 6.0)
        mean = rng.uniform(0.0, 6.0)
        dt = rng.uniform(0.0, 3.0)
        a = qep_gme_entanglement(theory(theta, gap, mean, varphi=0.0), dt)
        b = qep_gme_entanglement(theory(theta, gap, mean, varphi=rng.uniform(0, 2 * math.pi)), dt)
        assert abs(a.visibility - b.visibility) < 1e-12
        assert abs(a.pr_left - b.pr_left) < 1e-12
        assert abs(a.ee_spc - b.ee_spc) < 1e-11


def test_visibility_modulation_frequency_in_inverse_width():
    # V^2(1/w) = 1 - sin^2(2 theta) sin^2(k / w) with k = dE' 16 G J K / (c^4 hbar)
    j_source = 1e25
    prime_rate = 1e15
    theta = 0.3
    k_expected = prime_rate * 16.0 * CODATA.G * j_source / CODATA.c**4
    inv_w = np.linspace(1e3, 1e4, 200)
    folded = []
    s2 = math.sin(2.0 * theta) ** 2
    tt = theory(theta, gap=0.0, mean=0.0)  # placeholder; rebuilt per point below
    for u in inv_w:
        delta_tau = 16.0 * CODATA.G * j_source / (CODATA.c**4) * u
        tt = QepTestTheory(
            clock=ClockModel(0.0, prime_rate * HBAR),
            E_g_prime=0.0,
            E_e_prime=prime_rate * HBAR,
            theta=theta,
        )
        vis, _ = qep_visibility(tt, delta_tau)
        # cos(2 k u) reconstructed from the squared visibility
        chi = 1.0 - 2.0 * (1.0 - vis * vis) / s2
        folded.append(math.acos(max(-1.0, min(1.0, chi))))
    phases = unfold_monotone(np.array(folded))
    slope = np.polyfit(inv_w, phases, 1)[0]
    assert abs(0.5 * slope / k_expected - 1.0) < 1e-6


def test_commutator_diagnostic():
    assert theory(0.0).commutator_ratio < 1e-12
    tilted = theory(0.4, gap=2.0, mean=0.0, n_gap=2.0, n_mean=0.0)
    assert tilted.commutator_ratio > 0.1


def test_angle_validation():
    with pytest.raises(DomainError, match=r"theta must lie in \[0, pi/2\]"):
        theory(-0.3)
    with pytest.raises(DomainError, match=r"theta must lie in \[0, pi/2\]"):
        theory(0.5 * math.pi + 1e-15)
    with pytest.raises(DomainError, match="varphi must be finite, got nan"):
        theory(0.1, varphi=math.nan)


def test_closed_forms_broadcast_over_a_batch_of_theories():
    # one batched theory gives, bit for bit, what one scalar theory per
    # element gives; the sweep evaluates the test theory this way
    rng = np.random.default_rng(31)
    theta = rng.uniform(0.0, 0.5 * math.pi, 64)
    theta[:2] = (0.0, 0.5 * math.pi)
    gap, mean = rng.uniform(0.0, 9.0, 64), rng.uniform(-3.0, 3.0, 64)
    dt = rng.uniform(-2.0, 2.0, 64)
    dt[2] = 0.0
    batch = QepTestTheory(
        clock=ClockModel(np.zeros(64), np.full(64, HBAR)),
        E_g_prime=(mean - 0.5 * gap) * HBAR,
        E_e_prime=(mean + 0.5 * gap) * HBAR,
        theta=theta,
    )
    got = qep_gme_entanglement(batch, dt)
    for i in range(64):
        one = qep_gme_entanglement(theory(theta[i], gap=gap[i], mean=mean[i]), dt[i])
        for name in ("visibility", "xi_delta_tau", "pr_left", "pr_right", "ee_spc", "ef_sp"):
            assert getattr(got, name)[i] == getattr(one, name), (name, i)


def test_batch_validation_keeps_the_scalar_messages():
    clock = ClockModel(np.zeros(3), np.full(3, HBAR))
    with pytest.raises(DomainError, match=r"theta must lie in \[0, pi/2\]"):
        QepTestTheory(clock, E_g_prime=0.0, E_e_prime=HBAR, theta=np.array([0.1, 2.0, 0.3]))
    with pytest.raises(DomainError, match="E_g_prime must be finite, got nan"):
        theory(0.1, gap=math.nan)


def test_stacked_theory_builds_each_members_matrices_and_states_bit_for_bit():
    rng = np.random.default_rng(41)
    theta, gap, mean, varphi = rng.uniform(0.0, 1.0, size=(4, 6)) * np.array(
        [[0.5 * math.pi], [2.0 * math.pi], [2.0 * math.pi], [2.0 * math.pi]]
    )
    stacked = theory(theta, gap, mean, varphi)
    chi1, chi2 = qep_arm_states(stacked, 1.0)
    state = qep_final_state(stacked, 1.0)
    ratio = stacked.commutator_ratio
    assert state.amplitudes.shape == (6, 8) and chi1.shape == (6, 2)
    for i in range(6):
        single = theory(theta[i], gap[i], mean[i], varphi[i])
        one1, one2 = qep_arm_states(single, 1.0)
        assert np.array_equal(chi1[i], one1) and np.array_equal(chi2[i], one2)
        assert np.array_equal(state.amplitudes[i], qep_final_state(single, 1.0).amplitudes)
        assert ratio[i] == single.commutator_ratio


def test_primed_basis_rounds_like_python_complex_arithmetic():
    tt = theory(0.9, varphi=2.3)
    ct, st = math.cos(0.9), math.sin(0.9)
    phase = cmath.exp(1j * 2.3)
    g_prime, e_prime = tt.primed_basis()
    assert list(g_prime) == [ct, -phase * st]
    assert list(e_prime) == [st / phase, ct]


def test_the_final_state_of_each_stack_member():
    stacked = theory(np.array([0.3, 0.6]))
    state = qep_final_state(stacked, 1.0)
    for i, theta in enumerate((0.3, 0.6)):
        single = qep_final_state(theory(theta), 1.0)
        assert np.array_equal(state.amplitudes[i], single.amplitudes)
