"""Equivalence-principle test theory for the frame-dragging coupling.

The test theory gives the frame-dragging coupling its own internal
Hamiltonian H_f, generally non-commuting with the Newtonian-sector
Hamiltonian H_N.  With the clock prepared in an H_N eigenstate whose
decomposition in the H_f eigenbasis is cos(theta)|g'> + e^{i varphi}
sin(theta)|e'>, the interferometer closed forms become

    V      = sqrt(1 - sin^2(2 theta) sin^2 psi),  psi = dE' delta_tau / hbar
    xi*dt  = -arg(cos psi + i cos(2 theta) sin psi)
    Pr(L') = (1 + V cos(Ebar' delta_tau / hbar + xi delta_tau)) / 2

with the xi branch chosen continuous in delta_tau (xi -> -cos(2 theta) dE'/hbar
as delta_tau -> 0).  The arm states are built by
:func:`gravclock.interferometry.arm_kets` over the H_f eigenbasis, so closed
forms and state-vector constructions agree identically; at theta = 0 every
output reduces to the equal-Hamiltonian interferometer with the clock
frozen at its occupied branch energy.  V is evaluated as
|cos(2 theta) + i sin(2 theta) cos psi|, which equals the root above
without cancelling, and the ports and
entanglement take the cancellation-free forms of
:mod:`gravclock.interferometry` with 1 - V^2 = sin^2(2 theta) sin^2 psi.

H_N is the clock's own Hamiltonian diag(E_g, E_e) (a
:class:`~gravclock.interferometry.ClockModel`), so its eigenbasis, ground
state first, is the storage basis of every ket here, and only the
commutator diagnostic reads its energies.

Every route broadcasts over a theory whose energies and angles are numpy
arrays: the closed forms (:func:`qep_visibility`, :func:`qep_gme_entanglement`)
and the commutator diagnostic give arrays, and
the state routes (the primed basis, the arm states and the final state) give
stacks with the batch axes leading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import clockstate as cs
from .constants import CODATA, PhysicalConstants
from .errors import DomainError, require_finite
from .interferometry import ClockModel, _entanglement, _gme_state, _ports, arm_kets, clock_phases


def require_mixing_angle(theta) -> None:
    """Raise :class:`DomainError` unless every mixing angle theta lies in [0, pi/2]."""
    if not np.all((0.0 <= theta) & (theta <= 0.5 * math.pi)):
        raise DomainError("theta must lie in [0, pi/2]")


def _relative_spread(x: float, y: float) -> float:
    """|x - y| / max(|x|, |y|) as a difference of scaled values, at most 2; 0 where both vanish."""
    scale = np.maximum(np.abs(x), np.abs(y))
    scale = np.where(scale > 0.0, scale, 1.0)
    return np.abs(x / scale - y / scale)


@dataclass(frozen=True, eq=False)
class QepTestTheory:
    """Newtonian-sector Hamiltonian plus a mixed frame-dragging sector.

    ``clock`` gives H_N = diag(E_g, E_e) (joules), whose ground state is the
    clock's initial state; :class:`~gravclock.interferometry.ClockModel`
    checks that its energies are finite with E_g <= E_e.
    ``E_g_prime``/``E_e_prime`` are the frame-dragging eigenvalues and
    ``theta``/``varphi`` fix how the H_N ground state decomposes over the
    primed eigenbasis.
    """

    clock: ClockModel
    E_g_prime: float
    E_e_prime: float
    theta: float
    varphi: float = 0.0

    def __post_init__(self) -> None:
        for name in ("E_g_prime", "E_e_prime", "varphi"):
            require_finite(name, getattr(self, name))
        require_mixing_angle(self.theta)

    @cached_property
    def commutator_ratio(self) -> float:
        """Dimensionless smallness diagnostic ||[H_N, H_f]|| / (||H_N|| ||H_f||), in spectral norms.

        With H_N = diag(E_g, E_e) the ratio is
        (|dE| / max(|E_g|, |E_e|)) (|dE'| / max(|E_g'|, |E_e'|)) sin(2 theta) / 2;
        no factor exceeds 2, so it is finite for any finite energies.  It is
        0 where H_N or H_f vanishes.
        """
        spread = _relative_spread(self.clock.E_g, self.clock.E_e)
        spread_prime = _relative_spread(self.E_g_prime, self.E_e_prime)
        return (spread * spread_prime * (0.5 * np.sin(2.0 * self.theta)))[()]

    def primed_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Kets |g'>, |e'> in the H_N eigenbasis, of shape (..., 2)."""
        ct = np.asarray(np.cos(self.theta), dtype=complex)
        st = np.sin(self.theta)
        phase = np.exp(1j * np.asarray(self.varphi, dtype=float))
        e_first = st / phase  # sin(theta) e^{-i varphi}
        g_prime = np.stack(np.broadcast_arrays(ct, -phase * st), axis=-1)
        e_prime = np.stack(np.broadcast_arrays(e_first, ct), axis=-1)
        return g_prime, e_prime


@dataclass(frozen=True)
class QepResult:
    visibility: float
    xi_delta_tau: float
    pr_left: float
    pr_right: float
    ee_spc: float
    ef_sp: float


def qep_arm_states(
    tt: QepTestTheory, delta_tau: float, constants: PhysicalConstants = CODATA
) -> tuple[np.ndarray, np.ndarray]:
    """Clock states |chi_1>, |chi_2> after traversing the two arms, of shape (..., 2).

    The clock starts in the H_N ground state |g> = <g'|g> |g'> + <e'|g> |e'>.
    """
    g_prime, e_prime = tt.primed_basis()
    amplitudes = (g_prime[..., 0].conj(), e_prime[..., 0].conj())
    mean, gap = 0.5 * (tt.E_g_prime + tt.E_e_prime), tt.E_e_prime - tt.E_g_prime
    return arm_kets(mean, gap, (g_prime, e_prime), amplitudes, delta_tau, constants.hbar)


def _continuous_arctan(cos_2theta: float, psi: float) -> float:
    """Unwrapped arg(cos psi + i cos_2theta sin psi), continuous in psi."""
    k = np.rint(psi / math.pi)
    rem = psi - k * math.pi
    return k * math.pi + np.arctan2(cos_2theta * np.sin(rem), np.cos(rem))


def _visibility_and_phase(psi: float, mean: float, theta: float) -> tuple[float, float, float, float]:
    """V, 1 - V^2, xi * delta_tau and mean + xi * delta_tau from the primed phases (see the module docstring)."""
    s2, c2 = np.sin(2.0 * theta), np.cos(2.0 * theta)
    mixed = s2 * np.sin(psi)
    xi_dtau = -_continuous_arctan(c2, psi)
    return np.hypot(c2, s2 * np.cos(psi)), mixed * mixed, xi_dtau, mean + xi_dtau


def qep_visibility(
    tt: QepTestTheory, delta_tau: float, constants: PhysicalConstants = CODATA
) -> tuple[float, float]:
    """(visibility, xi * delta_tau) of the test theory; xi * delta_tau in radians.

    The defining relation tan(xi delta_tau) = -cos(2 theta) tan(dE'
    delta_tau / hbar) only fixes xi delta_tau up to branch; the branch
    returned is the one continuous in delta_tau, 0 at delta_tau = 0, which at
    the points where the visibility vanishes (theta = pi/4, psi an odd
    multiple of pi/2) degenerates to a step.  The product V cos((Ebar' + xi)
    delta_tau / hbar) that enters every observable stays continuous through
    those points.
    """
    psi, mean = clock_phases(tt.E_g_prime, tt.E_e_prime, delta_tau, constants.hbar)
    vis, _, xi_dtau, _ = _visibility_and_phase(psi, mean, tt.theta)
    return vis, xi_dtau


def qep_final_state(
    tt: QepTestTheory, delta_tau: float, constants: PhysicalConstants = CODATA
) -> cs.StateVector:
    """Source (x) path (x) clock state of the GME sequence under the test theory.

    A stacked theory gives a stack of states.
    """
    return _gme_state(*qep_arm_states(tt, delta_tau, constants))


def qep_gme_entanglement(
    tt: QepTestTheory, delta_tau: float, constants: PhysicalConstants = CODATA
) -> QepResult:
    """Closed-form probabilities and entanglement of the GME state under the
    test theory; :func:`qep_final_state` is the state-vector reference."""
    psi, mean = clock_phases(tt.E_g_prime, tt.E_e_prime, delta_tau, constants.hbar)
    return _closed_forms(psi, mean, tt.theta)


def _closed_forms(psi: float, mean: float, theta: float) -> QepResult:
    """:func:`qep_gme_entanglement` from the primed phases and the mixing angle, elementwise."""
    vis, spread, xi_dtau, phase = _visibility_and_phase(psi, mean, theta)
    gme = _entanglement(vis, spread, phase)
    return QepResult(vis, xi_dtau, *_ports(vis, spread, phase), gme.ee_spc, gme.ef_sp)
