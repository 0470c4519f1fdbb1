"""Clock interferometer observables and gravity-mediated entanglement.

A two-level clock riding the interferometer picks up the arm proper-time
difference delta_tau as internal phases, gap = dE delta_tau / hbar and
phase = Ebar delta_tau / hbar, which :func:`clock_phases` alone forms for
every closed form.  The closed forms used throughout are

    V            = cos(gap)                                      (visibility)
    Pr(L'|R')    = (1 +- V cos(phase)) / 2
    E_E          = h(q),  q = min(Pr(L'), Pr(R')) = (1 - |V cos(phase)|) / 2
    E_F          = h((1 - sqrt(1 - s)) / 2),  s = V^2 sin^2(phase)

each in one form at every phase that does not cancel, as 1 - V and q fall far
below eps_mach at small phases.  From V and 1 - V^2, with 1 - |x| =
(1 - x^2) / (1 + |x|): q = [(1 - |V|) + |V| (1 - |cos(phase)|)] / 2, Pr(R')
= [(1 - |V|) + |V| (1 - sgn(V) cos(phase))] / 2 with the last bracket a sum
of squared half-angle sines and cosines, and E_F's argument
s / (2 (1 + sqrt(1 - s))).  Pr(L') keeps (1 + V cos(phase)) / 2, which
cancels only where V cos(phase) nears -1.  The test theory of
:mod:`gravclock.qep` shares these forms.

The state-vector constructions here are the references ``selftest`` and
the tests check the closed forms against; they build the clock kets of the
two arms with :func:`arm_kets`, which holds the oracles' phase convention.

Beam splitters are the symmetric 50/50 convention
|L> -> (|L'> + |R'>)/sqrt 2, |R> -> (|L'> - |R'>)/sqrt 2.

The closed forms take the clock energies and delta_tau as floats or numpy
arrays and broadcast over them, so a parameter sweep evaluates each one once
over its whole axis.  The state-vector constructions broadcast the same
way: array energies give a stack of states with the batch axes leading (see
:mod:`gravclock.clockstate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import clockstate as cs
from .constants import CODATA, PhysicalConstants
from .errors import DomainError, require_finite


@dataclass(frozen=True)
class ClockModel:
    """Two-level internal Hamiltonian with energies E_g <= E_e (joules).

    The energies may be arrays of one shape, one clock per element.
    """

    E_g: float
    E_e: float

    def __post_init__(self) -> None:
        require_finite("E_g", self.E_g)
        require_finite("E_e", self.E_e)
        below = np.asarray(self.E_e < self.E_g)
        if below.any():
            e_g, e_e = (float(np.broadcast_to(e, below.shape)[below][0]) for e in (self.E_g, self.E_e))
            raise DomainError(f"excited energy E_e = {e_e!r} J must not be below the ground energy E_g = {e_g!r} J")

    @property
    def mean_energy(self) -> float:
        return 0.5 * (self.E_g + self.E_e)

    @property
    def gap(self) -> float:
        return self.E_e - self.E_g


def clock_energies(mean_rate, gap_rate, hbar: float, mean_name: str = "mean_rate", gap_name: str = "gap_rate"):
    """(E_g, E_e) = (mean_rate -+ gap_rate / 2) hbar, for floats or arrays of one shape.

    Raises :class:`DomainError` naming the rate flags if either rate is not
    finite, or if a clock energy overflows (naming the first such pair).
    """
    require_finite(mean_name, mean_rate)
    require_finite(gap_name, gap_rate)
    e_g, e_e = (mean_rate - 0.5 * gap_rate) * hbar, (mean_rate + 0.5 * gap_rate) * hbar
    overflow = ~(np.isfinite(e_g) & np.isfinite(e_e))
    if np.any(overflow):
        mean, gap = (float(np.broadcast_to(r, overflow.shape)[overflow][0]) for r in (mean_rate, gap_rate))
        raise DomainError(f"{mean_name} {mean!r} and {gap_name} {gap!r} make a clock energy overflow")
    return e_g, e_e


@dataclass(frozen=True)
class InterferenceResult:
    visibility: float
    pr_left: float
    pr_right: float
    phase_mean: float


@dataclass(frozen=True)
class GmeResult:
    ee_spc: float
    ef_sp: float
    witness: float


def arm_kets(mean, gap, basis, amplitudes, delta_tau: float, hbar: float) -> tuple[np.ndarray, np.ndarray]:
    """Clock kets |chi_1>, |chi_2> after the two arms; the oracles' statement of the phase convention.

    The clock starts in sum_k a_k |k>, with ``amplitudes`` (a_0, a_1) over
    ``basis`` (|k_0>, |k_1>), the eigenbasis of the arm Hamiltonian, whose
    eigenvalues are ``mean`` -+ ``gap`` / 2.  The arms evolve it with branch
    energies (E_0, E_1) = (mean - gap, mean + gap) over proper times
    -+ delta_tau / 2:

        chi_{1,2} = sum_k exp(+-i E_k delta_tau / 2 hbar) a_k |k>

    This places the full gap phase gap * delta_tau / hbar between the
    branches and keeps the mean phase at mean * delta_tau / hbar, as the
    closed forms do, so the two agree to machine precision.  The common arm
    proper time only contributes a global phase and is dropped.  Energies,
    amplitudes and delta_tau broadcast, and kets of shape (..., n) give
    kets of shape (..., n).
    """
    half = 0.5 * delta_tau / hbar
    (ket0, ket1), (amp0, amp1) = basis, amplitudes
    phase0, phase1 = (np.asarray(energy * half)[..., None] for energy in (mean - gap, mean + gap))
    part0, part1 = np.asarray(amp0)[..., None] * ket0, np.asarray(amp1)[..., None] * ket1
    return (
        np.exp(1j * phase0) * part0 + np.exp(1j * phase1) * part1,
        np.exp(-1j * phase0) * part0 + np.exp(-1j * phase1) * part1,
    )


def clock_phases(e_g, e_e, delta_tau, hbar: float):
    """(gap, mean) = (E_e - E_g, (E_g + E_e) / 2) delta_tau / hbar, elementwise; inf or NaN where one overflows."""
    return (e_e - e_g) * delta_tau / hbar, 0.5 * (e_g + e_e) * delta_tau / hbar


def visibility_deficit_from_phase(phase: float) -> float:
    """Visibility deficit 1 - cos(phase), as 2 sin^2(phase / 2) at every phase.

    Laboratory-scale phases (~1e-59 rad) make the visibility cos(phase)
    exactly 1.0 in doubles while the deficit is still a meaningful ~phase^2/2.
    """
    half = np.sin(0.5 * phase)
    return 2.0 * (half * half)


def _ports(vis: float, vis_spread: float, phase: float) -> tuple[float, float]:
    """Pr(L') and Pr(R') from V, 1 - V^2 and the phase (see the module docstring)."""
    abs_vis, sign = np.abs(vis), np.sign(vis)
    half_sin, half_cos = np.sin(0.5 * phase), np.cos(0.5 * phase)
    # 1 - sign(V) cos(phase), as a sum of squares for either sign
    away = (1.0 + sign) * (half_sin * half_sin) + (1.0 - sign) * (half_cos * half_cos)
    pr_left = 0.5 * (1.0 + vis * np.cos(phase))
    pr_right = 0.5 * (vis_spread / (1.0 + abs_vis) + abs_vis * away)
    return pr_left, pr_right


def _entanglement(vis: float, vis_spread: float, phase: float) -> GmeResult:
    """E_E, E_F and the witness 1 + |V sin(phase)| from V, 1 - V^2 and the phase, elementwise.

    E_E is h of the smaller port probability (1 - |V cos(phase)|) / 2 (see
    the module docstring).
    """
    abs_vis, sin_phase = np.abs(vis), np.sin(phase)
    port = 0.5 * (vis_spread / (1.0 + abs_vis) + abs_vis * (sin_phase * sin_phase) / (1.0 + np.abs(np.cos(phase))))
    amplitude = vis * sin_phase
    s = amplitude * amplitude
    eigenvalue = s / (2.0 * (1.0 + np.sqrt(np.maximum(0.0, 1.0 - s))))
    return GmeResult(cs.binary_entropy(port), cs.binary_entropy(eigenvalue), 1.0 + np.abs(amplitude))


def _visibility(gap: float) -> tuple[float, float]:
    """The clock's visibility V = cos(gap) and 1 - V^2 = sin^2(gap)."""
    sin_gap = np.sin(gap)
    return np.cos(gap), sin_gap * sin_gap


def detection_probabilities(
    clock: ClockModel, delta_tau: float, constants: PhysicalConstants = CODATA
) -> InterferenceResult:
    """Output-port probabilities Pr(L'), Pr(R') of the clock interferometer."""
    gap, mean = clock_phases(clock.E_g, clock.E_e, delta_tau, constants.hbar)
    vis, spread = _visibility(gap)
    return InterferenceResult(vis, *_ports(vis, spread, mean), phase_mean=mean)


# the clock starts in (|g> + |e>)/sqrt 2 over its energy basis
_ENERGY_BASIS = np.eye(2, dtype=complex)
_EVEN = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
_BEAM_SPLITTER = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def interferometer_state(
    clock: ClockModel, delta_tau: float, constants: PhysicalConstants = CODATA
) -> cs.StateVector:
    """Path (x) clock state after the second beam splitter (fixed rotation sense).

    Built by the physical sequence: split, evolve the clock along each arm,
    recombine, with the clock starting in (|g> + |e>)/sqrt 2.  Path axis is
    stored in the after-splitter {|L'>, |R'>} basis.  A stack of clocks gives
    a stack of states.
    """
    kets = arm_kets(clock.mean_energy, clock.gap, _ENERGY_BASIS, _EVEN, delta_tau, constants.hbar)
    pre = np.stack(kets, axis=-2) / math.sqrt(2.0)  # [..., path, clock]
    post = _BEAM_SPLITTER @ pre
    return cs.StateVector(post.reshape(post.shape[:-2] + (4,)), (("P", 2), ("C", 2)))


def _gme_state(chi1: np.ndarray, chi2: np.ndarray) -> cs.StateVector:
    """Source (x) path (x) clock state from the clock kets after arms 1 and 2.

    The kets may be stacks of shape (..., 2), giving a stack of states.
    """
    batch = np.broadcast(chi1[..., 0], chi2[..., 0]).shape
    pre = np.zeros(batch + (2, 2, 2), dtype=complex)  # [..., source, path, clock]
    pre[..., 0, 0, :] = 0.5 * chi1
    pre[..., 0, 1, :] = 0.5 * chi2
    pre[..., 1, 0, :] = 0.5 * chi2
    pre[..., 1, 1, :] = 0.5 * chi1
    post = np.einsum("pq,...sqc->...spc", _BEAM_SPLITTER, pre)
    return cs.StateVector(post.reshape(batch + (8,)), (("S", 2), ("P", 2), ("C", 2)))


def gme_final_state(
    clock: ClockModel, delta_tau: float, constants: PhysicalConstants = CODATA
) -> cs.StateVector:
    """Source (x) path (x) clock state when the rotation sense is superposed.

    The source qubit S records the rotation sense; reversing the sense swaps
    which arm unitary acts on which path.  The superposition preparation and
    its undoing are modeled as ideal maps, so S is returned in its dipole
    {|0>, |1>} basis.  The clock starts in (|g> + |e>)/sqrt 2, as in
    :func:`interferometer_state`.  A stack of clocks gives a stack of states.
    """
    return _gme_state(*arm_kets(clock.mean_energy, clock.gap, _ENERGY_BASIS, _EVEN, delta_tau, constants.hbar))


def gme_entanglement(
    clock: ClockModel, delta_tau: float, constants: PhysicalConstants = CODATA
) -> GmeResult:
    """Closed-form entanglement and witness of the GME state.

    E_E is the source/rest entanglement entropy of the pure tripartite state;
    E_F the source/path entanglement of formation of the reduced pair.  The
    witness is :func:`gravclock.clockstate.witness_value` on that pair,
    |<sigma_x^S sigma_z^P>| + |<sigma_z^S sigma_y^P>| = 1 + |V sin(phase_mean)|:
    the first correlator is 1 on every GME state, and the second, which reads
    the relative clock phase, equals the pair's concurrence.  So the witness
    exceeds 1 exactly where E_F > 0.  :func:`gme_final_state` is the
    state-vector reference that ``selftest`` and the tests check all three
    closed forms against.
    """
    gap, mean = clock_phases(clock.E_g, clock.E_e, delta_tau, constants.hbar)
    return _entanglement(*_visibility(gap), mean)
