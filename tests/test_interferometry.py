import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from conftest import unfold_monotone
from gravclock.clockstate import (
    StateVector,
    concurrence,
    entanglement_of_formation,
    reduced_density,
    von_neumann_entropy,
    witness_value,
)
from gravclock.constants import CODATA
from gravclock.errors import DomainError
from gravclock.interferometry import (
    _ENERGY_BASIS,
    _EVEN,
    ClockModel,
    arm_kets,
    clock_phases,
    detection_probabilities,
    gme_entanglement,
    gme_final_state,
    interferometer_state,
    visibility_deficit_from_phase,
)

HBAR = CODATA.hbar


def phase_clock(mean, gap):
    """Clock whose phases at delta_tau = 1 s are (mean, gap) radians."""
    return ClockModel(E_g=(mean - 0.5 * gap) * HBAR, E_e=(mean + 0.5 * gap) * HBAR)


def _phases(clock, delta_tau):
    """The (gap, mean) phases the closed forms read for this clock."""
    return clock_phases(clock.E_g, clock.E_e, delta_tau, HBAR)


def _clock_kets(clock, delta_tau):
    """The interferometer's arm kets, from (|g> + |e>)/sqrt 2."""
    return arm_kets(clock.mean_energy, clock.gap, _ENERGY_BASIS, _EVEN, delta_tau, HBAR)


def test_relative_evolution_is_the_arm_quotient():
    # chi_2 / chi_1 per branch is exp(-i E_k dt / hbar) with E_k = Ebar -+ dE, so
    # the branches part by twice the gap phase and the overlap is |cos(dE dt / hbar)|
    clock = phase_clock(0.8, 1.7)
    for dt in (0.0, 0.37, -1.1, 2.9):
        chi1, chi2 = _clock_kets(clock, dt)
        phases = np.angle(chi2 / chi1)
        diff = (phases[0] - phases[1]) % (2 * math.pi)
        assert abs(diff - (2.0 * clock.gap * dt / HBAR) % (2 * math.pi)) < 1e-12
        assert abs(abs(np.vdot(chi1, chi2)) - abs(math.cos(clock.gap * dt / HBAR))) < 1e-15


def test_arm_kets_round_like_complex_exponentials():
    clock = phase_clock(0.4, 1.1)
    for dt in (0.0, 0.5, -0.5, 3.0):
        half = 0.5 * dt / HBAR
        energies = (clock.mean_energy - clock.gap, clock.mean_energy + clock.gap)
        chi1, chi2 = _clock_kets(clock, dt)
        amp = 1.0 / math.sqrt(2.0)
        assert list(chi1) == [cmath.exp(1j * (e * half)) * amp for e in energies]
        assert list(chi2) == [cmath.exp(-1j * (e * half)) * amp for e in energies]


def test_visibility_values():
    assert detection_probabilities(phase_clock(1.0, 0.0), 1.0).visibility == 1.0
    assert abs(detection_probabilities(phase_clock(0.0, math.pi / 3), 1.0).visibility - 0.5) < 1e-12


def test_visibility_deficit_at_laboratory_scale():
    # gap phase 1.39e-59 rad: the direct cosine rounds to exactly 1.0 while
    # the deficit stays finite at ~phase^2/2
    clock = ClockModel(E_g=0.0, E_e=1e15 * HBAR)
    delta_tau = 1.39e-74
    phase, _ = _phases(clock, delta_tau)
    assert abs(phase / 1.39e-59 - 1.0) < 1e-12
    assert detection_probabilities(clock, delta_tau).visibility == 1.0
    deficit = visibility_deficit_from_phase(phase)
    assert abs(deficit / (0.5 * phase**2) - 1.0) < 1e-12
    assert -118.1 < math.log10(deficit) < -117.9


def test_visibility_deficit_is_relatively_accurate_around_1e_4_rad():
    # 1 - cos(phase) by subtraction keeps only an absolute error of ~eps_mach here
    with mp.workdps(50):
        for phase in (0.9e-4, 1.1e-4, 1.4e-4):
            exact = 2 * mp.sin(mp.mpf(phase) / 2) ** 2
            assert abs(float(visibility_deficit_from_phase(phase) / exact - 1)) <= 2.0 * np.finfo(float).eps


def test_detection_probabilities_limits():
    res = detection_probabilities(phase_clock(0.7, 1.1), 0.0)
    assert (res.pr_left, res.pr_right) == (1.0, 0.0)
    res = detection_probabilities(phase_clock(math.pi / 2, 1.1), 1.0)
    assert abs(res.pr_left - 0.5) < 1e-12
    assert abs(res.pr_right - 0.5) < 1e-12


def test_detection_probabilities_normalized_on_random_inputs():
    rng = np.random.default_rng(22)
    for _ in range(300):
        res = detection_probabilities(
            phase_clock(rng.uniform(0, 7), rng.uniform(0, 7)), rng.uniform(0, 3)
        )
        assert 0.0 <= res.pr_left <= 1.0
        assert abs(res.pr_left + res.pr_right - 1.0) < 1e-12
        assert -1.0 <= res.visibility <= 1.0


def test_fringe_frequency_in_inverse_width():
    # Pr(L') is sinusoidal in 1/w with angular frequency Ebar 16 G J K / (c^4 hbar)
    j_source = 1e25
    mean_rate = 1e15
    clock = ClockModel(E_g=mean_rate * HBAR, E_e=mean_rate * HBAR)  # gap 0: V = 1
    k_expected = mean_rate * 16.0 * CODATA.G * j_source / CODATA.c**4
    inv_w = np.linspace(1e3, 1e4, 200)
    folded = []
    for u in inv_w:
        delta_tau = 16.0 * CODATA.G * j_source / (CODATA.c**4) * u
        res = detection_probabilities(clock, delta_tau)
        folded.append(math.acos(max(-1.0, min(1.0, 2.0 * res.pr_left - 1.0))))
    phases = unfold_monotone(np.array(folded))
    slope = np.polyfit(inv_w, phases, 1)[0]
    assert abs(slope / k_expected - 1.0) < 1e-6


def test_gme_state_at_zero_shift_is_product():
    clock = phase_clock(0.8, 1.7)
    state = gme_final_state(clock, 0.0)
    plus = np.array([1, 1]) / math.sqrt(2)
    l_prime = np.array([1, 0])
    xi0 = np.array([1, 1]) / math.sqrt(2)
    target = np.kron(np.kron(plus, l_prime), xi0)
    overlap = abs(np.vdot(target, state.amplitudes))
    assert abs(overlap - 1.0) < 1e-12
    res = gme_entanglement(clock, 0.0)
    assert res.ee_spc < 1e-12
    assert res.ef_sp < 1e-12
    assert res.witness <= 1.0 + 1e-9


def test_gme_state_norm_and_branch_amplitude():
    rng = np.random.default_rng(23)
    for _ in range(50):
        clock = phase_clock(rng.uniform(0, 7), rng.uniform(0, 7))
        dt = rng.uniform(0, 3)
        state = gme_final_state(clock, dt)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
        amp = state.amplitudes.reshape(2, 2, 2)
        plus = np.array([1, 1]) / math.sqrt(2)
        eta_plus = math.sqrt(2.0) * np.einsum("s,spc->pc", plus.conj(), amp)[0]
        gap, mean = _phases(clock, dt)
        expected = 1.0 + math.cos(gap) * math.cos(mean)
        assert abs(np.vdot(eta_plus, eta_plus).real - expected) < 1e-12


def test_probabilities_match_the_state_vector():
    rng = np.random.default_rng(24)
    for _ in range(100):
        clock = phase_clock(rng.uniform(0, 7), rng.uniform(0, 7))
        dt = rng.uniform(0, 3)
        state = interferometer_state(clock, dt)
        pl = float(np.real(reduced_density(state, ["P"]).matrix[0, 0]))
        assert abs(detection_probabilities(clock, dt).pr_left - pl) < 1e-12


def test_maximal_entanglement_is_independent_of_the_gap():
    # mean phase pi/2 makes the source/rest entropy exactly one bit, for any gap
    for gap in (0.0, 0.3, 2.0):
        res = gme_entanglement(phase_clock(math.pi / 2, gap), 1.0)
        assert abs(res.ee_spc - 1.0) < 1e-12


def test_closed_forms_match_oracles_on_a_grid():
    worst_ee = worst_ef = worst_conc = 0.0
    for gp in np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False):
        for mp in np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False):
            clock = phase_clock(mp, gp)
            res = gme_entanglement(clock, 1.0)
            state = gme_final_state(clock, 1.0)
            ee = von_neumann_entropy(reduced_density(state, ["S"]))
            ef = entanglement_of_formation(reduced_density(state, ["S", "P"]))
            worst_ee = max(worst_ee, abs(res.ee_spc - ee))
            worst_ef = max(worst_ef, abs(res.ef_sp - ef))
            conc = concurrence(reduced_density(state, ["S", "P"]))
            gap, mean = _phases(clock, 1.0)
            closed = abs(math.cos(gap)) * abs(math.sin(mean))
            worst_conc = max(worst_conc, abs(conc - closed))
    assert worst_ee <= 1e-10
    assert worst_ef <= 1e-10
    assert worst_conc <= 1e-10


def test_formation_maximum_shrinks_with_visibility():
    maxima = []
    for gap in (0.0, math.acos(0.9), math.acos(0.5)):  # V = 1, 0.9, 0.5
        grid = [
            gme_entanglement(phase_clock(mp, gap), 1.0).ef_sp
            for mp in np.linspace(0.0, 2.0 * math.pi, 81)
        ]
        maxima.append(max(grid))
    assert maxima[0] > maxima[1] > maxima[2]
    assert abs(maxima[0] - 1.0) < 1e-10


def test_witness_exceeds_one_exactly_with_formation_entanglement():
    # mean phases 0 and pi leave the pair separable, up to the concurrence
    # ~1e-16 that sin of the double nearest pi leaves (E_F ~ 1e-30, where a
    # concurrence of 1e-9 gives E_F ~ 2e-17); every other grid point
    # entangles it, and there the witness must certify it
    above = 0
    for gp in np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False):
        for mp in np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False):
            clock = phase_clock(mp, gp)
            res = gme_entanglement(clock, 1.0)
            assert (res.witness > 1.0 + 1e-9) == (res.ef_sp > 1e-17), (gp, mp)
            pair = reduced_density(gme_final_state(clock, 1.0), ["S", "P"])
            assert abs(res.witness - witness_value(pair)) < 1e-12
            above += res.witness > 1.0 + 1e-9
    assert above == 80


def test_outputs_invariant_under_global_clock_phase():
    clock = phase_clock(1.1, 0.7)
    base = gme_entanglement(clock, 1.0)
    # the sequence is linear, so a global phase on the input clock is one on the state
    state = gme_final_state(clock, 1.0)
    rotated = StateVector(cmath.exp(0.6j) * state.amplitudes, state.labels)
    ee = von_neumann_entropy(reduced_density(rotated, ["S"]))
    assert abs(ee - base.ee_spc) < 1e-12


def test_clock_model_rejects_non_finite_energies():
    for kwargs, name in (
        ({"E_g": math.nan, "E_e": 1.0}, "E_g"),
        ({"E_g": 0.0, "E_e": math.inf}, "E_e"),
        ({"E_g": np.array([0.0, -math.inf]), "E_e": np.ones(2)}, "E_g"),
    ):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            ClockModel(**kwargs)
    with pytest.raises(DomainError, match="excited energy"):
        ClockModel(E_g=np.array([0.0, 2.0]), E_e=np.array([1.0, 1.0]))


def test_closed_forms_broadcast_over_arrays():
    # array calls give, bit for bit, what one scalar call per element gives
    rng = np.random.default_rng(26)
    mean, gap = rng.uniform(-9, 9, 200), rng.uniform(0, 9, 200)
    dt = rng.uniform(-3, 3, 200)
    dt[:3] = (0.0, 1e-9, 1e-3)  # phases of 0, ~1e-9 and ~1e-3 rad
    clocks = phase_clock(mean, gap)
    probs = detection_probabilities(clocks, dt)
    gme = gme_entanglement(clocks, dt)
    deficit = visibility_deficit_from_phase(_phases(clocks, dt)[0])
    for i in range(200):
        clock = phase_clock(mean[i], gap[i])
        one = detection_probabilities(clock, dt[i])
        assert (probs.visibility[i], probs.pr_left[i], probs.pr_right[i]) == (
            one.visibility, one.pr_left, one.pr_right
        )
        one = gme_entanglement(clock, dt[i])
        assert (gme.ee_spc[i], gme.ef_sp[i], gme.witness[i]) == (one.ee_spc, one.ef_sp, one.witness)
        assert deficit[i] == visibility_deficit_from_phase(_phases(clock, dt[i])[0])


def test_stacked_clocks_build_each_members_state_bit_for_bit():
    rng = np.random.default_rng(40)
    gap, mean = rng.uniform(0.0, 2.0 * math.pi, size=(2, 3, 4))
    stacked = phase_clock(mean, gap)
    gme = gme_final_state(stacked, 1.0)
    path_clock = interferometer_state(stacked, 1.0)
    assert gme.amplitudes.shape == (3, 4, 8)
    assert path_clock.amplitudes.shape == (3, 4, 4)
    for index in np.ndindex(3, 4):
        clock = phase_clock(mean[index], gap[index])
        assert np.array_equal(gme.amplitudes[index], gme_final_state(clock, 1.0).amplitudes)
        assert np.array_equal(path_clock.amplitudes[index], interferometer_state(clock, 1.0).amplitudes)
